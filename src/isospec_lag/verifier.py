"""Finite-difference Euler-Lagrange residual checks.

Everything here works on flat real coordinate charts.  A Lagrangian is
a callable L(q, qdot) over stacks of points; the checker samples a path
on a uniform time grid, forms d/dt(dL/dqdot) - dL/dq with centered
differences and reports the residual vectors at the interior samples.
Both gradients at a sample come from one batch of bumped points,
evaluated in a single call.  Helpers chart complex matrix spaces
(entrywise real and imaginary parts) and the unitary group (exponential
coordinates around each sample, with the exponential, its Frechet
derivative and the logarithm taken from numpy.linalg.eigh) so the
analytic residuals of the operator and orbit Lagrangians can be
cross-checked without trusting their derivations.

Velocity-linear Lagrangians are degenerate; their residuals are
reported as-is, with no constraint reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .heisenberg import lagrangian_heisenberg_values
from .operator_core import as_complex_matrix, dagger, require_hermitian, unitary_algebra_basis

#: Bump size h of every centered difference in gradients.
GRADIENT_STEP = 1e-5
UNIFORM_SPACING_RTOL = 1e-12


@dataclass(frozen=True)
class CoordinateLagrangian:
    """A Lagrangian on a flat chart of dimension dim.

    evaluate(q, qdot) maps points and velocities of shape (..., dim) to
    the Lagrangian values, shape (...): one call evaluates a whole stack,
    and a single point of shape (dim,) gives one value.  A per-point
    function f wraps as
    ``lambda qs, vs: np.array([f(q, v) for q, v in zip(qs, vs)])``.
    """

    dim: int
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("chart dimension must be positive")


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
        if not np.all(np.isfinite(times)):
            raise ValueError("times must be finite")
        spacings = np.diff(times)
        if not np.all(spacings > 0):
            raise ValueError("times must be strictly increasing")
        dt = spacings[0]
        if not np.all(np.abs(spacings - dt) <= UNIFORM_SPACING_RTOL * dt):
            raise ValueError("time grid must be uniform")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", points)

    @property
    def spacing(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def gradients(lag: CoordinateLagrangian, q, qdot,
              wrt: Sequence[str] = ("q", "qdot")) -> tuple[np.ndarray, ...]:
    """Centered-difference dL/dq and/or dL/dqdot at (q, qdot), error O(h^2)
    with h = GRADIENT_STEP.

    wrt names the gradients wanted, in the order they are returned.  The
    2 dim bumped points of each (q +- h e_i with qdot fixed, or qdot +- h e_i
    with q fixed) are stacked and evaluated together.
    """
    h = GRADIENT_STEP
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
        labels += [f"dL/d{name} +", f"dL/d{name} -"]
    values = np.asarray(lag.evaluate(np.concatenate(qs), np.concatenate(qdots)), dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"Lagrangian is not finite ({labels[bad[0] // lag.dim]}) near q={q}")
    values = values.reshape(len(labels), lag.dim)
    return tuple((values[2 * k] - values[2 * k + 1]) / (2 * h) for k in range(len(wrt)))


def el_residual_path(lag: CoordinateLagrangian, path: SampledPath) -> np.ndarray:
    """Residuals d/dt(dL/dqdot) - dL/dq along the path.

    Velocities exist at samples 1..N-2 and the momentum derivative at
    samples 2..N-3, so the returned array has shape (N-4, dim) and its
    row i belongs to path sample i + 2.  Each sample costs one gradient
    call, so one stacked Lagrangian evaluation.
    """
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
            forces[i - 2], momenta[i - 1] = gradients(lag, q, v)
        else:  # the end samples only feed the momentum stencil
            (momenta[i - 1],) = gradients(lag, q, v, wrt=("qdot",))
    return (momenta[2:] - momenta[:-2]) / (2 * dt) - forces


@dataclass(frozen=True)
class VerificationReport:
    max_residual: float
    worst_index: int
    lagrangian_evals: int
    lagrangian_calls: int


def verify_trajectory(lag: CoordinateLagrangian, path: SampledPath) -> VerificationReport:
    """The largest interior residual norm, where it occurs and what it cost.

    worst_index refers to the original path sample, not the interior
    residual row.  Each of the N-2 samples with a velocity is one
    Lagrangian call; the counts are those of el_residual_path.
    """
    norms = np.linalg.norm(el_residual_path(lag, path), axis=1)
    worst = int(np.argmax(norms))
    n = len(path.times)
    return VerificationReport(
        max_residual=float(norms[worst]),
        worst_index=worst + 2,
        lagrangian_evals=2 * lag.dim * ((n - 2) + (n - 4)),  # qdot bumps, then q bumps
        lagrangian_calls=n - 2,
    )


# ---------------------------------------------------------------------------
# charts


def flatten_complex(a: np.ndarray) -> np.ndarray:
    """Real then imaginary parts of the trailing (n, n) axes as one real axis;
    leading axes of a are kept as stack axes."""
    a = np.asarray(a, dtype=complex)
    flat = a.reshape(a.shape[:-2] + (-1,))
    return np.concatenate([flat.real, flat.imag], axis=-1)


def unflatten_complex(v: np.ndarray, shape) -> np.ndarray:
    """Inverse of flatten_complex; leading axes of v are kept as stack axes."""
    v = np.asarray(v, dtype=float)
    half = v.shape[-1] // 2
    return (v[..., :half] + 1j * v[..., half:]).reshape(v.shape[:-1] + tuple(shape))


def operator_chart(n: int, lagrangian: Callable[[np.ndarray, np.ndarray], np.ndarray]
                   ) -> CoordinateLagrangian:
    """Flatten an operator-space Lagrangian to 2 n^2 real coordinates.

    lagrangian(a, v) takes complex stacks of shape (..., n, n) and
    returns values of shape (...).
    """

    def evaluate(q, qdot):
        return lagrangian(unflatten_complex(q, (n, n)), unflatten_complex(qdot, (n, n)))

    return CoordinateLagrangian(dim=2 * n * n, evaluate=evaluate)


def heisenberg_chart(hamiltonian) -> CoordinateLagrangian:
    """Operator Lagrangian for a fixed Hamiltonian as a flat-chart Lagrangian.

    The Hamiltonian is validated once, here; the chart evaluates through
    lagrangian_heisenberg_values, the kernel of lagrangian_heisenberg.
    """
    hamiltonian = require_hermitian(hamiltonian, name="hamiltonian")
    return operator_chart(len(hamiltonian),
                          lambda a, v: lagrangian_heisenberg_values(a, v, hamiltonian))


def path_from_matrices(times, matrices) -> SampledPath:
    """Sample a matrix-valued path in the entrywise real chart."""
    return SampledPath(times, flatten_complex(matrices))


def chart_coordinates(u_center, u, basis: Sequence[np.ndarray]) -> np.ndarray:
    """Exponential-chart coordinates of u around u_center.

    Solves u = u_center exp(sum_j s_j B_j) for s with the principal
    logarithm of the unitary w = u_center^dag u, valid while no
    eigenvalue of w reaches -1 (inside the five-sample windows of
    el_residual_unitary_path they stay near 1).  The Cayley transform
    i (I + w)^-1 (I - w) is Hermitian with eigenvalues tan(theta/2) for
    the eigenvalues e^(i theta) of w, so one eigh of it gives
    log w = V diag(2i arctan(a)) V^dag.
    """
    w = dagger(u_center) @ u
    eye = np.eye(len(w))
    a, v = np.linalg.eigh(1j * np.linalg.solve(eye + w, eye - w))
    x = (v * (2j * np.arctan(a))) @ dagger(v)
    return np.array([np.trace(dagger(b) @ x).real for b in basis])


def _exp_frechet(x: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(x) and its Frechet derivative in the direction e, x anti-Hermitian.

    x and e are stacks of shape (..., n, n), decomposed by one stacked
    eigh.  With i x = V diag(lam) V^dag and mu = -i lam,
    exp(x) = V diag(e^mu) V^dag and L(x, e) = V (D o V^dag e V) V^dag,
    D_ij = (e^mu_i - e^mu_j) / (mu_i - mu_j), D_ii = e^mu_i (Daleckii-Krein;
    Higham, Functions of Matrices, 2008, ch. 3).  D is evaluated as
    e^((mu_i + mu_j)/2) sin(d/2) / (d/2), d = lam_i - lam_j, which stays
    exact as eigenvalues merge.
    """
    lam, v = np.linalg.eigh(1j * x)
    vh = dagger(v)
    lam_i, lam_j = lam[..., :, np.newaxis], lam[..., np.newaxis, :]
    d = np.exp(-0.5j * (lam_i + lam_j)) * np.sinc((lam_i - lam_j) / (2 * np.pi))
    return (v * np.exp(-1j * lam_j)) @ vh, v @ (d * (vh @ e @ v)) @ vh


def unitary_chart(u_center, sigma, hamiltonian) -> CoordinateLagrangian:
    """Orbit Lagrangian in exponential coordinates around u_center.

    The inputs are validated once, here: the chart's points and velocities
    are unitary and tangent by construction, so stacks of them go
    unchecked to lagrangian_unitary_values, the kernel of
    lagrangian_unitary.
    """
    u_center = as_complex_matrix(u_center, name="u_center")
    return _unitary_chart(u_center, require_hermitian(sigma, name="sigma"),
                          require_hermitian(hamiltonian, name="hamiltonian"),
                          np.array(unitary_algebra_basis(len(u_center))))


def _unitary_chart(u_center, sigma, hamiltonian, basis) -> CoordinateLagrangian:
    """unitary_chart over the stacked basis, of complex matrices with sigma and
    hamiltonian already checked Hermitian; u_center is still checked unitary."""
    # here, not at the top: a process that charts only operator spaces (the
    # verify kind) then never loads unitary_orbit
    from .unitary_orbit import TANGENT_TOL, lagrangian_unitary_values

    n = u_center.shape[0]
    if np.linalg.norm(dagger(u_center) @ u_center - np.eye(n)) > TANGENT_TOL:
        raise ValueError("u_center is not unitary")

    def evaluate(q, qdot):
        expx, frechet = _exp_frechet(np.tensordot(q, basis, 1), np.tensordot(qdot, basis, 1))
        return lagrangian_unitary_values(u_center @ expx, u_center @ frechet, sigma, hamiltonian)

    return CoordinateLagrangian(dim=n * n, evaluate=evaluate)


def el_residual_unitary_path(times, unitaries, sigma, hamiltonian) -> np.ndarray:
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
    sigma = require_hermitian(sigma, name="sigma")
    hamiltonian = require_hermitian(hamiltonian, name="hamiltonian")
    basis = np.array(unitary_algebra_basis(len(unitaries[0])))
    rows = []
    for m in range(2, len(unitaries) - 2):
        lag = _unitary_chart(unitaries[m], sigma, hamiltonian, basis)
        window = np.array([
            chart_coordinates(unitaries[m], unitaries[i], basis)
            for i in range(m - 2, m + 3)
        ])
        path = SampledPath(times[m - 2:m + 3], window)
        rows.append(el_residual_path(lag, path)[0])
    return np.array(rows)
