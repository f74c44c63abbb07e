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
from dataclasses import dataclass

import numpy as np

from .operator_core import (
    HERMITIAN_TOL,
    as_complex_matrix,
    dagger,
    frobenius_norm,
    hermitian_sqrt,
    require_hermitian,
)
from .trajectory import Trajectory, rk4_step, time_grid

#: Tolerance for the internal scalar/matrix residual consistency identity.
CONSISTENCY_TOL = 1e-9
#: Time resolution of the singularity bisection.
SINGULARITY_TIME_TOL = 1e-8


class SingularityError(RuntimeError):
    """A denominator of the reduced dynamics vanished."""

    def __init__(self, message, time=None, bracket=None):
        super().__init__(message)
        self.time = time
        self.bracket = bracket


@dataclass(frozen=True)
class SB2CElement:
    """Group coordinates (r, x, y) with r > 0."""

    r: float
    x: float
    y: float

    def __post_init__(self):
        if not (self.r > 0 and math.isfinite(self.r)):
            raise ValueError(f"r must be positive and finite, got {self.r}")
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("coordinates must be finite")


IDENTITY = SB2CElement(1.0, 0.0, 0.0)


@dataclass(eq=False)
class SB2CSetup:
    """Reference operator A0 and Hamiltonian H, both 2x2."""

    a0: np.ndarray
    hamiltonian: np.ndarray

    def __post_init__(self):
        self.a0 = as_complex_matrix(self.a0, "a0")
        self.hamiltonian = require_hermitian(self.hamiltonian, name="hamiltonian")
        if self.a0.shape != (2, 2) or self.hamiltonian.shape != (2, 2):
            raise ValueError("setup matrices must be 2x2")


@dataclass(frozen=True)
class SB2CParameters:
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


@dataclass(frozen=True)
class ReducedState:
    """State (y, r) of the reduced dynamics on the constraint surface."""

    y: float
    r: float
    time: float = 0.0

    def __post_init__(self):
        if not (self.r > 0 and math.isfinite(self.r)):
            raise ValueError(f"r must be positive and finite, got {self.r}")


def sb2c_matrices(r, x, y) -> np.ndarray:
    """Group matrices ``[[r, x + i y], [0, 1/r]]`` at unvalidated arrays of
    coordinates, which broadcast against each other; shape (..., 2, 2)."""
    r, x, y = np.broadcast_arrays(r, x, y)
    g = np.array([[r, x + 1j * y], [np.zeros_like(r), 1.0 / r]], dtype=complex)
    return np.moveaxis(g, (0, 1), (-2, -1))


def sb2c_to_matrix(g: SB2CElement) -> np.ndarray:
    return sb2c_matrices(g.r, g.x, g.y)


def sb2c_mul(g1: SB2CElement, g2: SB2CElement) -> SB2CElement:
    # (g1 g2) stays upper triangular: r = r1 r2, offdiag = r1*w2 + w1/r2
    w = g1.r * complex(g2.x, g2.y) + complex(g1.x, g1.y) / g2.r
    return SB2CElement(g1.r * g2.r, w.real, w.imag)


def sb2c_inv(g: SB2CElement) -> SB2CElement:
    # [[r, w],[0,1/r]]^-1 = [[1/r, -w],[0, r]]
    return SB2CElement(1.0 / g.r, -g.x, -g.y)


def orbit_point(g: SB2CElement, setup: SB2CSetup) -> np.ndarray:
    """Orbit element ``g A0``."""
    return sb2c_to_matrix(g) @ setup.a0


def derive_parameters(setup: SB2CSetup) -> SB2CParameters:
    """Extract the scalar coefficients from rho0, H and A0 H A0^dag."""
    rho0 = setup.a0 @ dagger(setup.a0)
    h0 = setup.a0 @ setup.hamiltonian @ dagger(setup.a0)
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


def constraint_residual(g: SB2CElement, setup: SB2CSetup,
                        params: SB2CParameters | None = None) -> float:
    """Velocity-free configuration constraint ``d Y1 - a Y2 - b Y3``.

    (d, -a, -b) spans the left kernel of the system matrix, so this
    combination of the equations of motion carries no velocities; it
    vanishes exactly on the admissible configuration surface.  Pass
    ``params = derive_parameters(setup)`` to skip deriving them again.
    """
    p = derive_parameters(setup) if params is None else params
    return float(constraint_residual_values(g.r, g.x, g.y, p))


def constraint_residual_values(r, x, y, params: SB2CParameters) -> np.ndarray:
    """``constraint_residual`` at unvalidated arrays of coordinates, elementwise."""
    yv = _y_vector(r, x, y, params)
    return params.d * yv[0] - params.a * yv[1] - params.b * yv[2]


def _require_simplified(p: SB2CParameters, tol: float = HERMITIAN_TOL) -> None:
    if abs(p.b) > tol or abs(p.h2) > tol or abs(p.beta) > tol:
        raise ValueError(
            "reduction requires the real symmetric case (b = h2 = beta = 0); "
            f"got b={p.b:.3e}, h2={p.h2:.3e}, beta={p.beta:.3e}"
        )


def _require_reducible(p: SB2CParameters) -> None:
    _require_simplified(p)
    if p.d == 0:
        raise ValueError("reduced dynamics requires d != 0")


def _phi_denominator(r: float, p: SB2CParameters) -> float:
    return r * ((p.h4 * p.a - p.d * p.h1) * r**2 - p.d**2 * p.alpha)


def _phi(r: float, p: SB2CParameters) -> float:
    den = _phi_denominator(r, p)
    if den == 0.0:
        raise SingularityError(f"constraint denominator vanishes at r={r}")
    num = (
        (p.a * (p.gamma * p.a - p.h1) - p.d * (p.gamma * p.c - p.h3)) * r**4
        + p.a * p.d * p.alpha * r**2
        + (p.delta * p.d - p.h4) * p.d
    )
    return num / den


def _phi_prime(r: float, p: SB2CParameters) -> float:
    n4 = p.a * (p.gamma * p.a - p.h1) - p.d * (p.gamma * p.c - p.h3)
    n2 = p.a * p.d * p.alpha
    n0 = (p.delta * p.d - p.h4) * p.d
    k2 = p.h4 * p.a - p.d * p.h1
    k0 = p.d**2 * p.alpha
    num = n4 * r**4 + n2 * r**2 + n0
    den = k2 * r**3 - k0 * r
    if den == 0.0:
        raise SingularityError(f"constraint denominator vanishes at r={r}")
    dnum = 4 * n4 * r**3 + 2 * n2 * r
    dden = 3 * k2 * r**2 - k0
    return (dnum * den - num * dden) / den**2


def phi_of_r(r: float, params: SB2CParameters) -> float:
    """Constraint surface ``x = Phi(r)`` of the real symmetric case."""
    _require_simplified(params)
    if r <= 0:
        raise ValueError(f"r must be positive, got {r}")
    return _phi(r, params)


def phi_prime(r: float, params: SB2CParameters) -> float:
    """Analytic derivative of the rational function Phi."""
    _require_simplified(params)
    return _phi_prime(r, params)


def _velocity(yv: float, r: float, p: SB2CParameters) -> tuple[float, float]:
    # p has passed _require_reducible and r > 0
    ydot = ((p.gamma * p.a - p.h1) * r
            + (p.gamma * p.d - p.h4) * _phi(r, p)
            + p.d * p.alpha / r) / p.d
    denom = p.a + p.d * _phi_prime(r, p)
    if denom == 0.0:
        raise SingularityError(f"dynamical denominator a + d Phi'(r) vanishes at r={r}")
    return ydot, -(p.gamma * p.d - p.h4) * yv / denom


def reduced_rhs(state: ReducedState, params: SB2CParameters):
    """Right-hand sides (ydot, rdot) of the reduced dynamics.

    Raises
    ------
    SingularityError
        If ``a + d Phi'(r)`` vanishes (the velocity of r is undetermined
        there) or the constraint denominator vanishes.
    ValueError
        If d = 0 or the parameters are not in the real symmetric case.
    """
    _require_reducible(params)
    ydot, rdot = _velocity(state.y, state.r, params)
    return float(ydot), float(rdot)


def _guard_signs(r: float, p: SB2CParameters) -> tuple[float, float]:
    """Signs of the two denominators whose zeros stop the flow."""
    return (math.copysign(1.0, p.a + p.d * _phi_prime(r, p)),
            math.copysign(1.0, _phi_denominator(r, p)))


def integrate_reduced(initial: ReducedState, params: SB2CParameters,
                      t_final: float, step: float) -> Trajectory:
    """RK4 trajectory of (y, r) on ``time_grid(t_final, step)``, with
    x = Phi(r) emitted alongside.

    If a denominator changes sign along the way, or an RK4 stage drives r
    to zero or below or to a non-finite value, or the field overflows,
    integration halts and the crossing time is bracketed by bisection to
    1e-8; the partial trajectory is returned with a singularity record in
    ``meta``; a field that is singular or overflows at the initial state
    gives no rows.  Raises ValueError for invalid grid inputs, d = 0 or
    parameters outside the real symmetric case.
    """
    grid = time_grid(t_final, step).tolist()
    p = params
    _require_reducible(p)
    states = [np.array([initial.y, initial.r])]
    meta: dict = {"step": step, "t_final": t_final}
    try:
        signs0 = _guard_signs(initial.r, p)
    except (SingularityError, OverflowError) as exc:
        states, grid = np.empty((0, 2)), grid[:1]
        reason = f"singular or overflowing field at r={initial.r}: {exc}"
        meta["singularity"] = {"time": initial.time, "bracket": None, "reason": reason}

    def field(state):
        yv, r = state.tolist()
        if not 0 < r < math.inf:
            raise SingularityError(f"an RK4 stage left r > 0: r={r}")
        return np.array(_velocity(yv, r, p))

    def advance(state, dt):
        """One step of size dt; None if it leaves the regular region."""
        try:
            nxt = rk4_step(field, state, dt)
            yv, r = nxt.tolist()
            if math.isfinite(yv) and 0 < r < math.inf and _guard_signs(r, p) == signs0:
                return nxt
        except (SingularityError, OverflowError):
            pass
        return None

    for k, t in enumerate(grid[:-1]):
        dt = step if k < len(grid) - 2 else grid[-1] - t
        nxt = advance(states[-1], dt)
        if nxt is None:
            lo, hi = 0.0, dt  # bisect the crossing within this step
            while hi - lo > SINGULARITY_TIME_TOL:
                mid = (lo + hi) / 2
                if advance(states[-1], mid) is None:
                    hi = mid
                else:
                    lo = mid
            t0 = initial.time + t
            meta["singularity"] = {
                "time": t0 + (lo + hi) / 2,
                "bracket": [t0 + lo, t0 + hi],
                "reason": "denominator sign change or blow-up",
            }
            break
        states.append(nxt)

    states = np.array(states)
    xs = [_phi(r, p) for r in states[:, 1].tolist()]
    return Trajectory(
        times=initial.time + np.array(grid[:len(states)]),
        states=np.column_stack([states, xs]),
        name="q", column_names=("y", "r", "x"), meta=meta,
    )


def scalar_el_residuals(g: SB2CElement, gdot, setup: SB2CSetup) -> np.ndarray:
    """Row residuals of the implicit system, ``A Xdot - Y``.

    ``gdot`` is ``(rdot, xdot, ydot)``; rows follow the (xdot, ydot, rdot)
    ordering of the system matrix.
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
    the adjoint.  Both vanish along extremals paired against the group
    directions.
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


def full_el_residual(g: SB2CElement, gdot, setup: SB2CSetup) -> float:
    """Summed Frobenius norms of the two matrix residuals.

    Also verifies, on every call, that projecting the matrix residuals
    onto the group directions reproduces the scalar row residuals:
    with P = E_a + E_h,

        row2 =  r Re(P_21)
        row3 = -r Im(P_21)
        row1 = (Re(P_11 - P_22) - x row2 - y row3) / r

    a derived identity that ties the coordinate equations to the matrix
    form.  A violation beyond tolerance means an internal inconsistency
    and raises.
    """
    e_a, e_h = matrix_el_residuals(g, gdot, setup)
    pmat = e_a + e_h
    rows = scalar_el_residuals(g, gdot, setup)
    row2 = g.r * pmat[1, 0].real
    row3 = -g.r * pmat[1, 0].imag
    row1 = ((pmat[0, 0] - pmat[1, 1]).real - g.x * row2 - g.y * row3) / g.r
    extracted = np.array([row1, row2, row3])
    scale = max(1.0, float(np.linalg.norm(rows)), float(np.linalg.norm(extracted)))
    err = float(np.linalg.norm(rows - extracted))
    if err > CONSISTENCY_TOL * scale:
        raise RuntimeError(
            f"scalar/matrix residual consistency violated: {err:.3e}"
        )
    return frobenius_norm(e_a) + frobenius_norm(e_h)


def rho1_projection(g: SB2CElement, sigma) -> np.ndarray:
    """Normalized conjugation ``g sigma g^dag / Tr(g sigma g^dag)``."""
    sigma = require_hermitian(sigma, name="sigma")
    gm = sb2c_to_matrix(g)
    m = gm @ sigma @ dagger(gm)
    tr = float(np.trace(m).real)
    if tr <= 1e-14:
        raise ValueError(f"projection trace is not positive: {tr:.3e}")
    return m / tr


def rho2_projection(g: SB2CElement, sigma) -> np.ndarray:
    """Normalized ``sqrt(sigma) g^dag g sqrt(sigma)``."""
    s = hermitian_sqrt(sigma)
    gm = sb2c_to_matrix(g)
    m = s @ dagger(gm) @ gm @ s
    tr = float(np.trace(m).real)
    if tr <= 1e-14:
        raise ValueError(f"projection trace is not positive: {tr:.3e}")
    return m / tr
