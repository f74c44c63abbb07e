"""Finite-difference Euler-Lagrange residual checks.

Everything here works on flat real coordinate charts.  A Lagrangian is
any callable L(q, qdot); the checker samples a path on a uniform time
grid, forms d/dt(dL/dqdot) - dL/dq with centered differences and
reports the residual vectors at the interior samples.  Both gradients
at a sample come from one batch of bumped points, evaluated in a single
call when the chart has a stacked evaluator.  Helpers chart
complex matrix spaces (entrywise real and imaginary parts) and the
unitary group (exponential coordinates around each sample) so the
analytic residuals of the operator and orbit Lagrangians can be
cross-checked without trusting their derivations.

Velocity-linear Lagrangians are degenerate; their residuals are
reported as-is, with no constraint reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .heisenberg import lagrangian_heisenberg_values
from .operator_core import as_complex_matrix, dagger, require_hermitian, unitary_algebra_basis
from .unitary_orbit import lagrangian_unitary, UnitaryTangent

DEFAULT_GRADIENT_STEP = 1e-5
UNIFORM_SPACING_RTOL = 1e-12


@dataclass(frozen=True)
class CoordinateLagrangian:
    """A Lagrangian on a flat chart: evaluate(q, qdot) -> float.

    evaluate_stack, when given, maps (k, dim) arrays of points and
    velocities to the k Lagrangian values in one call; the gradient
    routine then sends all bumped points of a sample through it at once.
    Without it the points are evaluated one by one.
    """

    dim: int
    evaluate: Callable[[np.ndarray, np.ndarray], float]
    evaluate_stack: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("chart dimension must be positive")

    def evaluate_points(self, qs: np.ndarray, qdots: np.ndarray) -> np.ndarray:
        """Lagrangian values at the rows of qs and qdots."""
        if self.evaluate_stack is not None:
            return np.asarray(self.evaluate_stack(qs, qdots), dtype=float)
        return np.array([float(self.evaluate(q, v)) for q, v in zip(qs, qdots)])


@dataclass(frozen=True)
class SampledPath:
    """Uniformly sampled path: times (N,), points (N, dim), N >= 5."""

    times: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        points = np.asarray(self.points, dtype=float)
        if times.ndim != 1 or points.ndim != 2 or len(times) != len(points):
            raise ValueError("need times (N,) and points (N, dim) of equal length")
        if len(times) < 5:
            raise ValueError("centered stencils need at least 5 samples")
        spacings = np.diff(times)
        if np.any(spacings <= 0):
            raise ValueError("times must be strictly increasing")
        dt = spacings[0]
        if np.max(np.abs(spacings - dt)) > UNIFORM_SPACING_RTOL * abs(dt):
            raise ValueError("time grid must be uniform")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", points)

    @property
    def spacing(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def gradients(lag: CoordinateLagrangian, q, qdot, h: float = DEFAULT_GRADIENT_STEP,
              wrt: Sequence[str] = ("q", "qdot")) -> tuple[np.ndarray, ...]:
    """Centered-difference dL/dq and/or dL/dqdot at (q, qdot), error O(h^2).

    wrt names the gradients wanted, in the order they are returned.  The
    2 dim bumped points of each (q +- h e_i with qdot fixed, or qdot +- h e_i
    with q fixed) are stacked and evaluated together.
    """
    if h <= 0:
        raise ValueError("gradient step must be positive")
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    bump = h * np.eye(lag.dim)
    fixed_q = np.broadcast_to(q, bump.shape)
    fixed_qdot = np.broadcast_to(qdot, bump.shape)
    qs, qdots, labels = [], [], []
    for name in wrt:
        if name == "q":
            qs += [q + bump, q - bump]
            qdots += [fixed_qdot, fixed_qdot]
        elif name == "qdot":
            qs += [fixed_q, fixed_q]
            qdots += [qdot + bump, qdot - bump]
        else:
            raise ValueError(f"unknown gradient {name!r}")
        labels += [f"grad_{name} +", f"grad_{name} -"]
    values = lag.evaluate_points(np.concatenate(qs), np.concatenate(qdots))
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"Lagrangian is not finite ({labels[bad[0] // lag.dim]}) near q={q}")
    values = values.reshape(len(labels), lag.dim)
    return tuple((values[2 * k] - values[2 * k + 1]) / (2 * h) for k in range(len(wrt)))


def grad_q(lag: CoordinateLagrangian, q, qdot, h: float = DEFAULT_GRADIENT_STEP) -> np.ndarray:
    """Centered-difference dL/dq, error O(h^2)."""
    return gradients(lag, q, qdot, h, wrt=("q",))[0]


def grad_qdot(lag: CoordinateLagrangian, q, qdot, h: float = DEFAULT_GRADIENT_STEP) -> np.ndarray:
    """Centered-difference dL/dqdot, error O(h^2)."""
    return gradients(lag, q, qdot, h, wrt=("qdot",))[0]


def _residuals(lag: CoordinateLagrangian, path: SampledPath, h: float):
    """el_residual_path rows plus the Lagrangian evaluations and calls they took."""
    if path.dim != lag.dim:
        raise ValueError(f"path dim {path.dim} does not match chart dim {lag.dim}")
    n = len(path.times)
    dt = path.spacing
    velocities = (path.points[2:] - path.points[:-2]) / (2 * dt)  # samples 1..n-2
    momenta = np.empty((n - 2, lag.dim))  # samples 1..n-2
    forces = np.empty((n - 4, lag.dim))  # samples 2..n-3
    for i in range(1, n - 1):
        q, v = path.points[i], velocities[i - 1]
        if 2 <= i <= n - 3:
            forces[i - 2], momenta[i - 1] = gradients(lag, q, v, h)
        else:  # the end samples only feed the momentum stencil
            (momenta[i - 1],) = gradients(lag, q, v, h, wrt=("qdot",))
    residuals = (momenta[2:] - momenta[:-2]) / (2 * dt) - forces
    evaluations = 2 * lag.dim * ((n - 2) + (n - 4))  # qdot bumps, then q bumps
    calls = n - 2 if lag.evaluate_stack is not None else evaluations
    return residuals, evaluations, calls


def el_residual_path(
    lag: CoordinateLagrangian,
    path: SampledPath,
    h: float = DEFAULT_GRADIENT_STEP,
) -> np.ndarray:
    """Residuals d/dt(dL/dqdot) - dL/dq along the path.

    Velocities exist at samples 1..N-2 and the momentum derivative at
    samples 2..N-3, so the returned array has shape (N-4, dim) and its
    row i belongs to path sample i + 2.  Each sample costs one gradient
    call, so one stacked Lagrangian evaluation on charts that have one.
    """
    return _residuals(lag, path, h)[0]


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    max_residual: float
    mean_residual: float
    worst_index: int
    tolerance: float
    lagrangian_evals: int
    lagrangian_calls: int


def verify_trajectory(
    lag: CoordinateLagrangian,
    path: SampledPath,
    tolerance: float = 1e-3,
    h: float = DEFAULT_GRADIENT_STEP,
) -> VerificationReport:
    """Pass iff the largest interior residual norm is within tolerance.

    worst_index refers to the original path sample, not the interior
    residual row.
    """
    residuals, evaluations, calls = _residuals(lag, path, h)
    norms = np.linalg.norm(residuals, axis=1)
    worst = int(np.argmax(norms))
    max_residual = float(norms[worst])
    return VerificationReport(
        passed=bool(max_residual <= tolerance),
        max_residual=max_residual,
        mean_residual=float(np.mean(norms)),
        worst_index=worst + 2,
        tolerance=float(tolerance),
        lagrangian_evals=evaluations,
        lagrangian_calls=calls,
    )


# ---------------------------------------------------------------------------
# charts


def flatten_complex(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    return np.concatenate([a.real.ravel(), a.imag.ravel()])


def unflatten_complex(v: np.ndarray, shape) -> np.ndarray:
    """Inverse of flatten_complex; leading axes of v are kept as stack axes."""
    v = np.asarray(v, dtype=float)
    half = v.shape[-1] // 2
    return (v[..., :half] + 1j * v[..., half:]).reshape(v.shape[:-1] + tuple(shape))


def operator_chart(n: int, lagrangian: Callable[[np.ndarray, np.ndarray], float]) -> CoordinateLagrangian:
    """Flatten an operator-space Lagrangian to 2 n^2 real coordinates."""

    def evaluate(q, qdot):
        a = unflatten_complex(q, (n, n))
        v = unflatten_complex(qdot, (n, n))
        return lagrangian(a, v)

    return CoordinateLagrangian(dim=2 * n * n, evaluate=evaluate)


def heisenberg_chart(hamiltonian) -> CoordinateLagrangian:
    """Operator Lagrangian for a fixed Hamiltonian as a flat-chart Lagrangian.

    The Hamiltonian is validated once, here.  The chart evaluates stacks
    of points through lagrangian_heisenberg_values, the same kernel as
    lagrangian_heisenberg.
    """
    hamiltonian = require_hermitian(hamiltonian, name="hamiltonian")
    n = hamiltonian.shape[0]

    def evaluate_stack(qs, qdots):
        a = unflatten_complex(qs, (n, n))
        v = unflatten_complex(qdots, (n, n))
        return lagrangian_heisenberg_values(a, v, hamiltonian)

    return CoordinateLagrangian(
        dim=2 * n * n,
        evaluate=lambda q, qdot: float(evaluate_stack(q, qdot)),
        evaluate_stack=evaluate_stack,
    )


def path_from_matrices(times, matrices) -> SampledPath:
    """Sample a matrix-valued path in the entrywise real chart."""
    points = np.array([flatten_complex(m) for m in matrices])
    return SampledPath(np.asarray(times, dtype=float), points)


def chart_coordinates(u_center, u, basis: Sequence[np.ndarray]) -> np.ndarray:
    """Exponential-chart coordinates of u around u_center.

    Solves u = u_center expm(sum_j s_j B_j) for s using the principal
    logarithm; u must be close enough to u_center for that branch.
    """
    x = scipy.linalg.logm(dagger(u_center) @ u)
    x = 0.5 * (x - dagger(x))  # kill rounding off the algebra
    return np.array([np.trace(dagger(b) @ x).real for b in basis])


def unitary_chart(u_center, sigma, hamiltonian) -> CoordinateLagrangian:
    """Orbit Lagrangian in exponential coordinates around u_center."""
    u_center = as_complex_matrix(u_center, name="u_center")
    n = u_center.shape[0]
    basis = unitary_algebra_basis(n)

    def evaluate(q, qdot):
        x = sum(q[j] * basis[j] for j in range(len(basis)))
        e = sum(qdot[j] * basis[j] for j in range(len(basis)))
        expx, frechet = scipy.linalg.expm_frechet(x, e, compute_expm=True)
        tangent = UnitaryTangent(u_center @ expx, u_center @ frechet)
        return lagrangian_unitary(tangent, sigma, hamiltonian)

    return CoordinateLagrangian(dim=n * n, evaluate=evaluate)


def el_residual_unitary_path(
    times,
    unitaries,
    sigma,
    hamiltonian,
    h: float = DEFAULT_GRADIENT_STEP,
) -> np.ndarray:
    """Chart-based EL residuals along a sampled unitary path.

    Each interior sample gets its own exponential chart; the five-point
    window around it is pulled into that chart and the flat-chart
    residual is evaluated at the center.  Row i belongs to sample
    i + 2, as in el_residual_path.

    With rho = u^dag sigma u the exact Euler-Lagrange covector of
    lagrangian_unitary in the left-invariant frame B_j works out to
    Tr((i rho_dot - [rho, H]) B_j), so its extremals satisfy
    rho_dot = -i [rho, H]: the orbit Lagrangian drives the conjugation
    flow opposite in time to lvn_rhs.  Numerically the rows returned
    here agree with el_residual_unitary evaluated with the sign of the
    Hamiltonian flipped, up to the O(grid^2) discretization error.
    """
    times = np.asarray(times, dtype=float)
    unitaries = [as_complex_matrix(u, name="unitary sample") for u in unitaries]
    if len(times) != len(unitaries) or len(times) < 5:
        raise ValueError("need at least 5 matched samples")
    n = unitaries[0].shape[0]
    basis = unitary_algebra_basis(n)
    rows = []
    for m in range(2, len(unitaries) - 2):
        lag = unitary_chart(unitaries[m], sigma, hamiltonian)
        window = np.array([
            chart_coordinates(unitaries[m], unitaries[i], basis)
            for i in range(m - 2, m + 3)
        ])
        path = SampledPath(times[m - 2:m + 3], window)
        rows.append(el_residual_path(lag, path, h)[0])
    return np.array(rows)
