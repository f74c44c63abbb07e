"""Finite-difference Euler-Lagrange residual checks.

Everything here works on flat real coordinate charts.  A Lagrangian is
any callable evaluate(q, qdot) mapping points and velocities (..., dim)
that broadcast against each other to values of their broadcast shape
without the last axis; a path is times (N,) on a uniform grid plus
points (N, dim), N >= 5.  The checker forms d/dt(dL/dqdot) - dL/dq with
centered differences and reports the residual vectors at the interior
samples, the bumped points of consecutive samples stacked into calls of
at most COORDINATES_PER_CALL coordinates each.  Charts of
complex matrix spaces (flatten_complex) and of the unitary group (Cayley
coordinates around each sample, u = u_center cay(X): rational, exactly
unitary and taken from linear solves) let the analytic residuals of the
operator and orbit Lagrangians be cross-checked without trusting their
derivations.  Each evaluates lagrangian_heisenberg_chart, a real quadratic
form built once per chart: the operator chart on its own coordinates
(another width than 2 n^2 raises an error naming both), the unitary chart
on the pullback (sqrt(sigma) u, sqrt(sigma) udot) of the orbit Lagrangian,
its inputs checked by one helper for the chart and the path alike.

refine judges a check (verify_trajectory, verify_unitary_path) by the coarse-to-fine ratio
of the largest residual on the grid and on every second sample: EXPECTED_RATIO for the
O(step^2) stencil, from 9 = 2 (5 - 1) + 1 samples up, none below the 1e-12 rounding floor.

Velocity-linear Lagrangians are degenerate; their residuals are
reported as-is, with no constraint reduction.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .heisenberg import flatten_complex, lagrangian_heisenberg_chart
from .operator_core import (HERMITIAN_TOL, dagger, hermitian_sqrt, require_hermitian,
                            unitary_algebra_basis)

#: Bump size h of every centered difference in gradients.
GRADIENT_STEP = 1e-5
#: Most coordinates (evaluations times dim) in one Lagrangian call of
#: el_residual_path: on verify-fd, 11% faster than half as many; twice as many
#: won 24 of 30 pairs at one seed and 19 of 20 at another, by 4-11% in the
#: median, short of 9 in 10 at the first.
COORDINATES_PER_CALL = 8192
UNIFORM_SPACING_RTOL = 1e-12
#: Coarse-to-fine ratio of the largest residual of refine, the grid step doubled: 2^2.
EXPECTED_RATIO = 4.0


def _uniform_spacing(times, samples: int) -> float:
    """The step of the grid times (N,) of a path of N >= 5 samples: finite, increasing and
    every gap times[1] - times[0] to within the rounding of the times themselves (as in
    k * step or numpy.linspace), UNIFORM_SPACING_RTOL of the step plus 4 ulps of max|t|."""
    times = np.asarray(times, dtype=float)
    if times.shape != (samples,) or samples < 5:
        raise ValueError(f"need times (N,) for N >= 5 samples, got {times.shape} for {samples}")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    gaps = np.diff(times)
    if not np.all(gaps > 0):
        raise ValueError("times must be strictly increasing")
    slack = UNIFORM_SPACING_RTOL * gaps[0] + 4 * np.spacing(np.max(np.abs(times)))
    off = np.flatnonzero(~(np.abs(gaps - gaps[0]) <= slack))
    if off.size:
        raise ValueError(f"time grid must be uniform: gap {off[0]} is not {float(gaps[0])!r}")
    return float(gaps[0])


@functools.cache
def _bumps(dim: int) -> np.ndarray:
    """The read-only (2 dim, dim) bumps +h e_i, then -h e_i, of gradients, built once a width."""
    bumps = GRADIENT_STEP * np.concatenate([np.eye(dim), -np.eye(dim)])
    bumps.flags.writeable = False
    return bumps


def gradients(lagrangian: Callable, q, qdot, wrt: str) -> np.ndarray:
    """Centered-difference dL/dq (wrt="q") or dL/dqdot (wrt="qdot") at
    (q, qdot), error O(h^2) with h = GRADIENT_STEP.

    q and qdot are one point (dim,) or a stack (..., dim), alike, as is the
    gradient; a point is a stack of one.  The 2 dim bumped points (q +- h e_i with
    qdot fixed, or qdot +- h e_i with q fixed) at every point are stacked and
    evaluated in one call, the caller's leading axes kept: the bumped argument as
    (..., 2 dim, dim) and a copy of the fixed one, never the caller's memory, as
    (..., 1, dim), so a chart does its work on the fixed argument once per point.
    Values of shape (..., 2 dim) are taken as they are; a narrower reply is broadcast
    to it, so a Lagrangian that reads one argument may return (..., 1), and one that
    does not broadcast raises a ValueError naming both shapes.
    """
    h, shape = GRADIENT_STEP, np.shape(q)
    if np.shape(qdot) != shape:
        raise ValueError(f"q has shape {shape} but qdot has shape {np.shape(qdot)}")
    if wrt not in ("q", "qdot"):
        raise ValueError(f"unknown gradient {wrt!r}")
    if shape[-1:] in ((), (0,)):
        raise ValueError(f"need q and qdot of shape (..., dim) with dim >= 1, got {shape}")
    lead, dim = shape[:-1] or (1,), shape[-1]
    q, qdot = (np.asarray(x, dtype=float).reshape(lead + (1, dim)) for x in (q, qdot))
    if wrt == "q":
        q, qdot = q + _bumps(dim), qdot.copy()
    else:
        q, qdot = q.copy(), qdot + _bumps(dim)
    values = np.asarray(lagrangian(q, qdot), dtype=float)
    full = lead + (2 * dim,)
    if values.shape != full:
        try:
            values = np.broadcast_to(values, full)
        except ValueError:
            raise ValueError(f"Lagrangian returned values of shape {values.shape}, "
                             f"need {full} or {lead + (1,)}") from None
    values = values.reshape(lead + (2, dim))
    if not np.isfinite(values).all():
        *i, sign, _ = np.argwhere(~np.isfinite(values))[0]
        near = np.array2string(q[(*i, 0)], max_line_width=sys.maxsize)  # one line, at any dim
        raise ValueError(f"Lagrangian is not finite (dL/d{wrt} {'+-'[sign]}) near q={near}")
    return ((values[..., 0, :] - values[..., 1, :]) / (2 * h)).reshape(shape)


def el_residual_path(lagrangian: Callable, times, points) -> np.ndarray:
    """Residuals d/dt(dL/dqdot) - dL/dq along the path times (N,), points (N, dim).

    The path is checked once, here: finite points (an error names the first
    bad sample) on a grid that _uniform_spacing takes.  Velocities exist at
    samples 1..N-2 and the momentum derivative at 2..N-3, so row i of the
    (N-4, dim) result belongs to sample i + 2.  dL/dqdot at samples 1..N-2,
    then dL/dq at 2..N-3, come from gradients over runs of consecutive
    samples, at most COORDINATES_PER_CALL coordinates to a call.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] < 1:
        raise ValueError(f"need points (N, dim), dim >= 1, got shape {points.shape}")
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if bad.size:
        raise ValueError(f"path sample {bad[0]} is not finite")
    dt = _uniform_spacing(times, len(points))
    velocities = (points[2:] - points[:-2]) / (2 * dt)  # at samples 1..N-2
    step = max(1, COORDINATES_PER_CALL // (2 * points.shape[1] ** 2))  # samples per call

    def gradient(wrt, q, qdot):
        return np.concatenate([gradients(lagrangian, q[s:s + step], qdot[s:s + step], wrt)
                               for s in range(0, len(q), step)])

    momenta = gradient("qdot", points[1:-1], velocities)
    forces = gradient("q", points[2:-2], velocities[1:-1])  # samples 2..N-3
    return (momenta[2:] - momenta[:-2]) / (2 * dt) - forces


@dataclass(frozen=True)
class VerificationReport:
    """A path's largest interior residual norm max_residual, at path sample worst_index (not the
    residual row), and the lagrangian_evals (2 dim a gradient) and lagrangian_calls it took."""

    max_residual: float
    worst_index: int
    lagrangian_evals: int
    lagrangian_calls: int


def _report(rows_of: Callable, lagrangian: Callable) -> VerificationReport:
    """The VerificationReport of the residual rows rows_of(counted), row i at sample i + 2."""
    calls = []

    def counted(q, qdot):  # evaluated rows: gradients passes (m, 2 dim, dim) and (m, 1, dim)
        calls.append(math.prod(map(max, q.shape[:-1], qdot.shape[:-1])))
        return lagrangian(q, qdot)

    norms = np.linalg.norm(rows_of(counted), axis=1)
    worst = int(np.argmax(norms))
    return VerificationReport(max_residual=float(norms[worst]), worst_index=worst + 2,
                              lagrangian_evals=sum(calls), lagrangian_calls=len(calls))


def verify_trajectory(lagrangian: Callable, times, points) -> VerificationReport:
    """The VerificationReport of the path times (N,), points (N, dim)."""
    return _report(lambda counted: el_residual_path(counted, times, points), lagrangian)


def refine(check: Callable, times, samples):
    """(fine, coarse, ratio): check(times, samples) on the path and on every second sample
    (worst_index counts coarse samples), coarse over fine max_residual, None where both lie
    below 1e-12, an absolute floor only stationary paths reach; under 9 samples, ValueError."""
    if len(times) < 9:
        raise ValueError("verify needs at least 9 grid samples (t_final/step >= 8)")
    fine, coarse = (check(times[::s], samples[::s]) for s in (1, 2))
    if fine.max_residual < 1e-12 and coarse.max_residual < 1e-12:
        return fine, coarse, None
    return fine, coarse, coarse.max_residual / max(fine.max_residual, 1e-300)


# ---------------------------------------------------------------------------
# charts


def heisenberg_chart(hamiltonian) -> Callable:
    """The operator Lagrangian of a fixed Hamiltonian, validated once, here, on the
    chart flatten_complex: lagrangian_heisenberg_chart on points of width 2 n^2."""
    return lagrangian_heisenberg_chart(require_hermitian(hamiltonian, name="hamiltonian"))


def chart_coordinates(u_center, u, basis: np.ndarray) -> np.ndarray:
    """Cayley-chart coordinates s of u around u_center, u = u_center cay(sum_j s_j B_j)
    with cay(X) = (I - X/2)^-1 (I + X/2), over the orthonormal basis stack B (n^2, n, n).

    X = -2 (I + w)^-1 (I - w) with w = u_center^dag u, defined while no eigenvalue
    of w is -1 (in the five-sample windows of el_residual_unitary_path they stay
    near 1).  u_center and u (..., n, n) broadcast; s has shape (..., n^2).
    """
    w = dagger(u_center) @ u
    eye = np.eye(w.shape[-1])
    x = -2 * np.linalg.solve(eye + w, eye - w)
    return np.einsum("jab,...ab->...j", np.conj(basis), x).real  # s_j = Re Tr(B_j^dag x)


def unitary_chart(u_center, sigma, hamiltonian) -> Callable:
    """Orbit Lagrangian in Cayley coordinates around u_center.

    It is the pullback of the operator Lagrangian along
    phi_sigma(u) = sqrt(sigma) u, so the chart evaluates
    lagrangian_heisenberg_chart at (sqrt(sigma) u, sqrt(sigma) udot); sigma
    must be positive semidefinite, as a state is.  With X = sum_j q_j B_j,
    Y = I - X/2 and E = sum_j qdot_j B_j, u = u_center cay(X) = u_center
    (2 Y^-1 - I) and udot = u_center Y^-1 E Y^-1 (Iserles et al., Lie-group
    methods, Acta Numerica 2000, sec. 8).  _orbit_inputs checks the inputs and
    takes the root once: the chart's points and velocities are unitary and
    tangent by construction, so stacks of them go unchecked to the kernel.
    """
    u_center, root, lagrangian, basis = _orbit_inputs("u_center", u_center, sigma, hamiltonian)
    return _unitary_chart(u_center, root, lagrangian, basis)


def _orbit_inputs(name, unitaries, sigma, hamiltonian):
    """The unitaries "u_center" (n, n) or "unitaries" (N, n, n), each within HERMITIAN_TOL of
    unitary (NaN and inf fail; the first bad "unitary sample k" is named), sqrt(sigma),
    lagrangian_heisenberg_chart(H) (sigma and H n x n by the one shape rule) and the u(n) basis."""
    us, path = np.asarray(unitaries, dtype=complex), name == "unitaries"
    if us.ndim != 2 + path or us.shape[-1] != us.shape[-2]:
        raise ValueError(f"need {name} ({'N, ' * path}n, n), got shape {us.shape}")
    n = us.shape[-1]
    with np.errstate(invalid="ignore", over="ignore"):  # inf and NaN defects fail below
        defects = np.linalg.norm(dagger(us) @ us - np.eye(n), axis=(-2, -1))
    bad = np.flatnonzero(~(defects <= HERMITIAN_TOL))
    if bad.size:
        raise ValueError(f"{f'unitary sample {bad[0]}' if path else name} is not unitary")
    root = hermitian_sqrt(sigma, name="sigma", shape=(n, n))
    h = require_hermitian(hamiltonian, name="hamiltonian", shape=(n, n))
    return us, root, lagrangian_heisenberg_chart(h), unitary_algebra_basis(n)


def _unitary_chart(u_centers, root, lagrangian, basis) -> Callable:
    """unitary_chart around each unchecked unitary of u_centers, (n, n) or (k, n, n), with
    root = sqrt(sigma), lagrangian_heisenberg_chart of the checked hamiltonian and the
    basis stack.  q and qdot broadcast against each other; around k centres their leading
    axis is the centres' axis, in order: the centres are given one axis of length 1 for
    each further axis of q, so they broadcast against it.  The inverse and sqrt(sigma) u
    go once per row of q."""
    n = u_centers.shape[-1]
    root_centers = root @ u_centers

    def evaluate(q, qdot):
        x, e = (np.tensordot(v, basis, 1) for v in (q, qdot))  # (..., n, n)
        centers = root_centers.reshape(
            root_centers.shape[:-2] + (1,) * (x.ndim - root_centers.ndim) + (n, n))
        y_inv = np.linalg.inv(np.eye(n) - x / 2)
        root_y_inv = centers @ y_inv  # sqrt(sigma) u = 2 root_y_inv - centers
        return lagrangian(flatten_complex(2 * root_y_inv - centers),
                          flatten_complex(root_y_inv @ e @ y_inv))

    return evaluate


def el_residual_unitary_path(times, unitaries, sigma, hamiltonian) -> np.ndarray:
    """Chart-based EL residuals along a sampled unitary path.

    Each interior sample gets its own Cayley chart; the five-point window around it
    is pulled into that chart and el_residual_path's stencil is evaluated at the centre,
    dL/dqdot only at the two samples it differences: 6 n^2 evaluations per window.  Row
    i belongs to sample i + 2, as in el_residual_path.  _orbit_inputs checks the inputs,
    then the grid is checked as in el_residual_path; the windows go in blocks of at most
    COORDINATES_PER_CALL coordinates to a gradients call.

    With rho = u^dag sigma u the exact Euler-Lagrange covector of
    lagrangian_unitary in the left-invariant frame B_j works out to
    Tr((i rho_dot - [rho, H]) B_j), so its extremals satisfy
    rho_dot = -i [rho, H]: the orbit Lagrangian generates the conjugation
    flow opposite in time to lvn_rhs.  Numerically the rows returned
    here agree with el_residual_unitary, the residual of that equation,
    up to the O(grid^2) discretization error.
    """
    return _orbit_rows(times, *_orbit_inputs("unitaries", unitaries, sigma, hamiltonian))


def verify_unitary_path(times, unitaries, sigma, hamiltonian) -> VerificationReport:
    """The VerificationReport of el_residual_unitary_path's rows: 6 n^2 evaluations of
    lagrangian_heisenberg_chart a window.  Rows carry ~eps |L| / (GRADIENT_STEP dt) rounding,
    1.7e-9 to 3.5e-9 at dt = 1e-2; refine's ratio means something only on rows well above it."""
    us, root, lagrangian, basis = _orbit_inputs("unitaries", unitaries, sigma, hamiltonian)
    return _report(lambda counted: _orbit_rows(times, us, root, counted, basis), lagrangian)


def _orbit_rows(times, us, root, lagrangian, basis) -> np.ndarray:
    """el_residual_unitary_path's rows from the checked inputs that _orbit_inputs returns."""
    dt = _uniform_spacing(times, len(us))
    block = max(1, COORDINATES_PER_CALL // (4 * len(basis) ** 2))  # 2 x 2 dim bumps per window
    rows = []
    for start in range(2, len(us) - 2, block):
        centers = np.arange(start, min(start + block, len(us) - 2))
        lag = _unitary_chart(us[centers], root, lagrangian, basis)
        windows = chart_coordinates(us[centers, np.newaxis],
                                    us[centers[:, np.newaxis] + np.arange(-2, 3)], basis)
        velocities = (windows[:, 2:] - windows[:, :-2]) / (2 * dt)  # window samples 1..3
        momenta = gradients(lag, windows[:, 1:4:2], velocities[:, ::2], "qdot")  # samples 1, 3
        forces = gradients(lag, windows[:, 2], velocities[:, 1], "q")
        rows.append((momenta[:, 1] - momenta[:, 0]) / (2 * dt) - forces)
    return np.concatenate(rows)
