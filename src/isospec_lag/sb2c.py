"""Constrained first-order Lagrangian dynamics on the group SB(2,C).

SB(2,C) is the group of upper-triangular complex 2x2 matrices with unit
determinant and positive diagonal, parameterized as

    g(r, x, y) = [[r, x + i y], [0, 1/r]],   r > 0.

Acting on a reference operator A0 it sweeps the orbit {g A0}.  Pulling
the operator-space Lagrangian back to the orbit gives a velocity-linear
Lagrangian in the coordinates (r, x, y) whose Euler-Lagrange system is
implicit, A Xdot = Y with singular A, so one velocity direction is
undetermined and one combination of the equations is a velocity-free
configuration constraint.  In the real symmetric case the constraint
solves to x = Phi(r) and the dynamics reduces to two nonlinear ODEs in
(y, r).  All coefficient conventions follow the parameter matrices

    rho0 = A0 A0^dag = [[c, a+ib], [a-ib, d]]
    H = [[gamma, alpha+i beta], [alpha-i beta, delta]]
    A0 H A0^dag = [[h3, h1+i h2], [h1-i h2, h4]]
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .operator_core import (
    HERMITIAN_TOL,
    as_complex_matrix,
    dagger,
    require_hermitian,
)
from .trajectory import CSV_BLOCK_ROWS, Trajectory, time_grid


class SingularityError(RuntimeError):
    """A denominator of the reduced dynamics vanished."""


class SB2CElement(NamedTuple("SB2CElement", [("r", float), ("x", float), ("y", float)])):
    """Group coordinates (r, x, y) with r > 0."""

    __slots__ = ()

    def __new__(cls, r: float, x: float, y: float):
        if not (r > 0 and math.isfinite(r)):
            raise ValueError(f"r must be positive and finite, got {r}")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError("coordinates must be finite")
        return super().__new__(cls, r, x, y)


class SB2CSetup:
    """Reference operator A0 and Hamiltonian H, both 2x2."""

    def __init__(self, a0: np.ndarray, hamiltonian: np.ndarray):
        self.a0 = as_complex_matrix(a0, "a0", shape=(2, 2))
        self.hamiltonian = require_hermitian(hamiltonian, name="hamiltonian", shape=(2, 2))


class SB2CParameters(NamedTuple):
    """Scalar coefficients entering the coordinate equations of motion."""

    a: float
    b: float
    c: float
    d: float
    alpha: float
    beta: float
    gamma: float
    delta: float
    h1: float
    h2: float
    h3: float
    h4: float


class ReducedState(NamedTuple("ReducedState", [("y", float), ("r", float)])):
    """State (y, r) of the reduced dynamics on the constraint surface;
    integrate_reduced starts from one at t = 0."""

    __slots__ = ()

    def __new__(cls, y: float, r: float):
        if not (r > 0 and math.isfinite(r)):
            raise ValueError(f"r must be positive and finite, got {r}")
        if not math.isfinite(y):
            raise ValueError(f"y must be finite, got {y}")
        return super().__new__(cls, y, r)


def sb2c_matrices(r, x, y) -> np.ndarray:
    """Group matrices ``[[r, x + i y], [0, 1/r]]`` at unvalidated arrays of
    coordinates, which broadcast against each other; shape (..., 2, 2)."""
    r, x, y = np.broadcast_arrays(r, x, y)
    g = np.array([[r, x + 1j * y], [np.zeros_like(r), 1.0 / r]], dtype=complex)
    return np.moveaxis(g, (0, 1), (-2, -1))


def sb2c_to_matrix(g: SB2CElement) -> np.ndarray:
    return sb2c_matrices(g.r, g.x, g.y)


def derive_parameters(setup: SB2CSetup) -> SB2CParameters:
    """Extract the scalar coefficients from rho0, H and A0 H A0^dag.

    Raises ValueError where rho0 or A0 H A0^dag leaves float range."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        rho0 = setup.a0 @ dagger(setup.a0)
        h0 = setup.a0 @ setup.hamiltonian @ dagger(setup.a0)
    if not (np.isfinite(rho0).all() and np.isfinite(h0).all()):
        raise ValueError("sb2c parameters beyond float range: "
                         "rho0 = A0 A0^dag or A0 H A0^dag is not finite")
    h = setup.hamiltonian
    return SB2CParameters(
        a=float(rho0[0, 1].real), b=float(rho0[0, 1].imag),
        c=float(rho0[0, 0].real), d=float(rho0[1, 1].real),
        alpha=float(h[0, 1].real), beta=float(h[0, 1].imag),
        gamma=float(h[0, 0].real), delta=float(h[1, 1].real),
        h1=float(h0[0, 1].real), h2=float(h0[0, 1].imag),
        h3=float(h0[0, 0].real), h4=float(h0[1, 1].real),
    )


def _velocity_matrix(g: SB2CElement, gdot) -> np.ndarray:
    rdot, xdot, ydot = (float(v) for v in gdot)
    return np.array(
        [[rdot, xdot + 1j * ydot], [0.0, -rdot / g.r**2]], dtype=complex
    )


def lagrangian_sb2c(g: SB2CElement, gdot, setup: SB2CSetup) -> float:
    """Orbit Lagrangian in coordinates; ``gdot`` is ``(rdot, xdot, ydot)``.

    Closed-form expansion of the operator-space Lagrangian restricted to
    the orbit, so its value agrees with ``lagrangian_heisenberg`` at
    ``(g A0, gd A0)``.
    """
    p = derive_parameters(setup)
    r, x, y = g.r, g.x, g.y
    rdot, xdot, ydot = (float(v) for v in gdot)
    kinetic = (
        xdot * (p.b * r + p.d * y)
        - ydot * (p.a * r + p.d * x)
        + rdot * (p.a * y - p.b * x)
    )
    potential = (
        2 * p.a * p.alpha + 2 * p.b * p.beta
        + p.gamma * (p.c * r**2 + 2 * p.a * r * x + 2 * p.b * r * y
                     + p.d * (x**2 + y**2))
        + 2 * p.d * (p.alpha * x + p.beta * y) / r
        + p.d * p.delta / r**2
        - p.h3 * r**2 - 2 * p.h1 * r * x - 2 * p.h2 * r * y
        - p.h4 * (x**2 + y**2) - p.h4 / r**2
    )
    return float(kinetic + potential)


def _y_vector(r, x, y, p: SB2CParameters) -> np.ndarray:
    # Elementwise in r, x, y.  The 1/r^3 coefficient of y1 is (delta*d - h4),
    # which is what the Lagrangian actually produces; with it, the constraint
    # surface below coincides exactly with x = Phi(r) in the simplified case.
    y1 = (
        (p.gamma * p.c - p.h3) * r
        + (p.gamma * p.a - p.h1) * x
        + (p.gamma * p.b - p.h2) * y
        - (p.delta * p.d - p.h4) / r**3
        - p.d * (p.alpha * x + p.beta * y) / r**2
    )
    y2 = (p.gamma * p.a - p.h1) * r + (p.gamma * p.d - p.h4) * x + p.d * p.alpha / r
    y3 = (p.gamma * p.b - p.h2) * r + (p.gamma * p.d - p.h4) * y + p.d * p.beta / r
    return np.array([y1, y2, y3])


def build_matrix_system(g: SB2CElement, setup: SB2CSetup):
    """Implicit Euler-Lagrange system ``A Xdot = Y`` with Xdot = (xdot, ydot, rdot).

    ``A`` is the constant singular matrix built from rho0 entries; its
    right kernel is spanned by (a, b, -d).  ``Y`` depends on the point.
    """
    p = derive_parameters(setup)
    amat = np.array(
        [[-p.b, p.a, 0.0], [0.0, p.d, p.b], [-p.d, 0.0, -p.a]]
    )
    return amat, _y_vector(g.r, g.x, g.y, p)


def constraint_residual(g: SB2CElement, setup: SB2CSetup) -> float:
    """Velocity-free configuration constraint ``d Y1 - a Y2 - b Y3``.

    (d, -a, -b) spans the left kernel of the system matrix, so this
    combination of the equations of motion carries no velocities; it
    vanishes exactly on the admissible configuration surface.
    """
    return float(constraint_residual_values(g.r, g.x, g.y, derive_parameters(setup)))


def constraint_residual_values(r, x, y, params: SB2CParameters) -> np.ndarray:
    """``constraint_residual`` at unvalidated arrays of coordinates, elementwise."""
    yv = _y_vector(r, x, y, params)
    return params.d * yv[0] - params.a * yv[1] - params.b * yv[2]


def _require_simplified(p: SB2CParameters) -> None:
    if abs(p.b) > HERMITIAN_TOL or abs(p.h2) > HERMITIAN_TOL or abs(p.beta) > HERMITIAN_TOL:
        raise ValueError(
            "reduction requires the real symmetric case (b = h2 = beta = 0); "
            f"got b={p.b:.3e}, h2={p.h2:.3e}, beta={p.beta:.3e}"
        )


def _require_reducible(p: SB2CParameters) -> None:
    _require_simplified(p)
    if p.d == 0:
        raise ValueError("reduced dynamics requires d != 0")


def _reduced_flow(p: SB2CParameters):
    """Closures (terms, field) over coefficients computed once from
    unchecked parameters, none calling numpy; ValueError if a coefficient
    is not finite.  terms(r) = (Phi, Phi', den) takes every power of r as
    a product, over the one denominator den = r (k2 r^2 - k0):
    Phi = (n4 r^4 + n2 r^2 + n0) / den and Phi' = top / den^2.  It raises
    SingularityError where den rounds to 0 and OverflowError where Phi or
    Phi' is not finite.  field(y, r) (d != 0) checks 0 < r < inf, computes
    Phi, Phi' and den with terms' own lines, raising as terms does, rather
    than calling it, and raises where a + d Phi' rounds to 0; it returns
    (ydot, rdot, Phi, a + d Phi', den), the last two being the
    denominators whose sign changes stop the flow.  The field is
    ydot = (ga r + gd Phi + da / r) / d, rdot = -gd y / (a + d Phi')."""
    a, d = p.a, p.d
    n4 = p.a * (p.gamma * p.a - p.h1) - p.d * (p.gamma * p.c - p.h3)
    n2, n0 = p.a * p.d * p.alpha, (p.delta * p.d - p.h4) * p.d
    k2, k0 = p.h4 * p.a - p.d * p.h1, p.d * p.d * p.alpha
    ga, gd, da = p.gamma * p.a - p.h1, p.gamma * p.d - p.h4, p.d * p.alpha
    n4x4, n2x2, k2x3 = 4 * n4, 2 * n2, 3 * k2  # bound once: 4 * n4 * r2 is (4 * n4) * r2
    if not all(map(math.isfinite, (a, d, n4, n2, n0, k2, k0, ga, gd, da, n4x4, n2x2, k2x3))):
        raise ValueError("sb2c parameters beyond float range: a coefficient of "
                         "Phi or of the reduced field is not finite")
    isfinite, inf = math.isfinite, math.inf

    def terms(r):
        r2 = r * r
        den = r * (k2 * r2 - k0)
        if den == 0.0:
            raise SingularityError(f"constraint denominator vanishes at r={r}")
        num = n4 * (r2 * r2) + n2 * r2 + n0
        top = (n4x4 * r2 + n2x2) * r * den - num * (k2x3 * r2 - k0)
        phi, phi1 = num / den, top / (den * den)
        if not (isfinite(phi) and isfinite(phi1)):
            raise OverflowError(f"Phi or Phi' is not finite at r={r}")
        return phi, phi1, den

    def field(y, r):
        if not 0 < r < inf:
            raise SingularityError(f"an RK4 stage left r > 0: r={r}")
        # terms(r), written out line for line: with one Python call per RK4
        # stage instead of two, a 5,001-step integrate_reduced run took 14.0
        # ms, not 15.7 (timeit minima over 8 processes each, 2-CPU x86-64
        # host).  tests/test_sb2c.py checks that both agree bit for bit.
        r2 = r * r
        den = r * (k2 * r2 - k0)
        if den == 0.0:
            raise SingularityError(f"constraint denominator vanishes at r={r}")
        num = n4 * (r2 * r2) + n2 * r2 + n0
        top = (n4x4 * r2 + n2x2) * r * den - num * (k2x3 * r2 - k0)
        phi, phi1 = num / den, top / (den * den)
        if not (isfinite(phi) and isfinite(phi1)):
            raise OverflowError(f"Phi or Phi' is not finite at r={r}")
        denom = a + d * phi1
        if denom == 0.0:
            raise SingularityError(f"dynamical denominator a + d Phi'(r) vanishes at r={r}")
        return (ga * r + gd * phi + da / r) / d, -gd * y / denom, phi, denom, den

    return terms, field


def phi_of_r(r: float, params: SB2CParameters) -> float:
    """Constraint surface ``x = Phi(r)`` of the real symmetric case."""
    _require_simplified(params)
    if not (r > 0 and math.isfinite(r)):
        raise ValueError(f"r must be positive and finite, got {r}")
    return _reduced_flow(params)[0](r)[0]


def phi_prime(r: float, params: SB2CParameters) -> float:
    """Analytic derivative of the rational function Phi, the slope of the
    constraint surface x = Phi(r); the reduced velocity of r divides by
    a + d Phi'(r).  ``assert_pair_oracle_rows`` in tests/test_sb2c.py pins
    it bit for bit, and ``test_phi_prime_matches_finite_difference`` pins
    it against Phi."""
    _require_simplified(params)
    if not (r > 0 and math.isfinite(r)):
        raise ValueError(f"r must be positive and finite, got {r}")
    return _reduced_flow(params)[0](r)[1]


def reduced_rhs(state: ReducedState, params: SB2CParameters):
    """Right-hand sides (ydot, rdot) of the reduced dynamics: the two
    nonlinear ODEs in (y, r) that the implicit Euler-Lagrange system
    reduces to on x = Phi(r) in the real symmetric case.
    ``assert_pair_oracle_rows`` in tests/test_sb2c.py pins them bit for
    bit, and ``test_reduced_rhs_worked_closed_form`` in closed form.

    Raises
    ------
    SingularityError
        If ``a + d Phi'(r)`` vanishes (the velocity of r is undetermined
        there) or the constraint denominator vanishes.
    ArithmeticError
        If Phi(r) or Phi'(r) is not finite.
    ValueError
        If d = 0, the parameters are not in the real symmetric case or a
        coefficient of the field is not finite.
    """
    _require_reducible(params)
    return _reduced_flow(params)[1](state.y, state.r)[:2]


def integrate_reduced(initial: ReducedState, params: SB2CParameters,
                      t_final: float, step: float, stream=None) -> Trajectory:
    """RK4 trajectory of (y, r) on ``time_grid(t_final, step)``, with
    x = Phi(r) emitted alongside.

    Each classic RK4 step is written out on the float pair (y, r), each
    sum per component as the step acts on a float64 pair: k1 is the
    (ydot, rdot) of the field evaluation that accepted the point the step
    starts from, k2 to k4 are three field evaluations, and one more at
    the landing point gives the row's x, the signs of the two
    denominators, compared with those at the initial state, and the next
    step's k1.

    The first step that fails halts the run, and the partial trajectory
    is returned with a singularity record in ``meta``: its ``time`` is
    t_k, the time of the last row, its ``bracket`` the failing grid step
    [t_k, t_k+1], and its ``reason`` the check that failed.  A step fails
    where an RK4 stage leaves r > 0 or meets a denominator that rounds to
    0, where the field leaves float range, where it lands on a
    non-finite point or on r <= 0, or where a + d Phi' or Phi's
    denominator has changed sign.  The record is no more precise than the
    step: a finer step moves the time.  A field that is singular or out
    of float range at the initial state gives no rows and the record
    ``{"time": 0.0, "bracket": None, ...}``.  Raises ValueError for
    invalid grid inputs, d = 0, parameters outside the real symmetric
    case or a coefficient of the field that is not finite.

    ``stream``, if given, is called once, after those checks and before
    the first field evaluation, as ``stream(times, headers)``: the list of
    grid times and the trajectory's column names.  A function
    it returns is handed the rows as they are made, flat (y, r, x) floats:
    each completed block of ``CSV_BLOCK_ROWS`` rows, then, last, the rest,
    fewer rows or none.  The CLI renders them into trajectory.csv on a
    second CPU (``trajectory.stream_csv``) while this loop runs.
    """
    grid = time_grid(t_final, step).tolist()
    columns = ("y", "r", "x")
    _require_reducible(params)
    field = _reduced_flow(params)[1]
    send = stream(grid, columns) if stream is not None else None
    block = 3 * CSV_BLOCK_ROWS  # floats in a block of rows
    sent_at = CSV_BLOCK_ROWS - 2 if send is not None else -1  # the step that completes one
    isfinite, copysign, inf = math.isfinite, math.copysign, math.inf
    y, r = initial.y, initial.r
    meta: dict = {}
    try:
        k1y, k1r, x, denom, den = field(y, r)
        signs0 = (copysign(1.0, denom), copysign(1.0, den))
        rows = [y, r, x]
    except (SingularityError, ArithmeticError) as exc:
        rows, grid = [], grid[:1]
        reason = f"singular or overflowing field at r={r}: {exc}"
        meta["singularity"] = {"time": 0.0, "bracket": None, "reason": reason}

    last = len(grid) - 2  # the last step ends exactly on t_final
    for k, t in enumerate(grid[:-1]):
        dt = step if k < last else grid[-1] - t
        reason = None
        try:
            h = dt / 2
            k2y, k2r, _, _, _ = field(y + h * k1y, r + h * k1r)
            k3y, k3r, _, _, _ = field(y + h * k2y, r + h * k2r)
            k4y, k4r, _, _, _ = field(y + dt * k3y, r + dt * k3r)
            h = dt / 6
            y1, r1 = y + h * (k1y + 2 * k2y + 2 * k3y + k4y), r + h * (k1r + 2 * k2r + 2 * k3r + k4r)
            if not (isfinite(y1) and 0 < r1 < inf):
                reason = f"the step landed outside r > 0 or on a non-finite point: y={y1}, r={r1}"
            else:
                k1y, k1r, x, denom, den = field(y1, r1)
                signs = (copysign(1.0, denom), copysign(1.0, den))
                if signs != signs0:
                    names = ("a + d Phi'(r)", "Phi's denominator r (k2 r^2 - k0)")
                    reason = " and ".join(n for n, s, s0 in zip(names, signs, signs0) if s != s0)
                    reason += f" changed sign from r={r} to r={r1}"
        except SingularityError as exc:
            reason = str(exc)
        except ArithmeticError as exc:
            reason = f"the field left float range: {exc}"
        if reason is not None:
            meta["singularity"] = {"time": t, "bracket": [t, grid[k + 1]], "reason": reason}
            break
        y, r = y1, r1
        rows += (y, r, x)
        if k == sent_at:
            send(rows[-block:])
            sent_at += CSV_BLOCK_ROWS

    if send is not None:
        send(rows[len(rows) - len(rows) % block:])
    states = np.array(rows, dtype=float).reshape(-1, 3)
    return Trajectory(times=np.array(grid[:len(states)]), states=states,
                      column_names=columns, meta=meta)


def scalar_el_residuals(g: SB2CElement, gdot, setup: SB2CSetup) -> np.ndarray:
    """Row residuals of the implicit system, ``A Xdot - Y``: the coordinate
    Euler-Lagrange equations of the orbit Lagrangian.

    ``gdot`` is ``(rdot, xdot, ydot)``; rows follow the (xdot, ydot, rdot)
    ordering of the system matrix.  They vanish along the reduced flow
    (``test_scalar_residuals_vanish_on_reduced_solutions``).
    """
    rdot, xdot, ydot = (float(v) for v in gdot)
    amat, yv = build_matrix_system(g, setup)
    return amat @ np.array([xdot, ydot, rdot]) - yv


def matrix_el_residuals(g: SB2CElement, gdot, setup: SB2CSetup):
    """Anti-Hermitian and Hermitian matrix residuals of the orbit dynamics.

    With M = gdot g^-1 and rho_g = g rho0 g^dag the two residuals are

        E_a = i Re(M rho_g) - (1/2)[rho_g, H]
        E_h = Im(M rho_g) - (1/2){H, rho_g} + g A0 H A0^dag g^dag

    where Re/Im are the matrix real and imaginary parts with respect to
    the adjoint.  This is the matrix form of the coordinate equations:
    with P = E_a + E_h, projecting onto the group directions gives back
    the rows of ``scalar_el_residuals``,

        row2 =  r Re(P_21)
        row3 = -r Im(P_21)
        row1 = (Re(P_11 - P_22) - x row2 - y row3) / r

    which ``test_matrix_residuals_project_onto_the_scalar_rows`` pins.
    """
    gm = sb2c_to_matrix(g)
    gd = _velocity_matrix(g, gdot)
    m = gd @ np.linalg.inv(gm)
    rho_g = gm @ setup.a0 @ dagger(setup.a0) @ dagger(gm)
    h_g = gm @ setup.a0 @ setup.hamiltonian @ dagger(setup.a0) @ dagger(gm)
    h = setup.hamiltonian
    mrho = m @ rho_g
    re_part = (mrho + dagger(mrho)) / 2
    im_part = (mrho - dagger(mrho)) / 2j
    e_a = 1j * re_part - 0.5 * (rho_g @ h - h @ rho_g)
    e_h = im_part - 0.5 * (h @ rho_g + rho_g @ h) + h_g
    return e_a, e_h
