"""Operator-space Lagrangian mechanics for the Heisenberg equation.

The Heisenberg flow ``i dA/dt = [A, H]`` on the space of bounded
operators admits a first-order Lagrangian

    L(A, Adot) = (i/2) Tr(A^dag Adot - Adot^dag A) - Tr(A H A^dag - A^dag H A)

whose Euler-Lagrange equations reproduce the equation of motion on the
complexified operator space.  This module evaluates that Lagrangian,
its Poincare-Cartan one-form and Cartan two-form, the Euler-Lagrange
residual, and the exact and Runge-Kutta evolutions.  The auxiliary
state-vector (Schrodinger) Lagrangian lives here too.

Units take hbar = 1 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operator_core import (
    as_complex_matrix,
    commutator,
    dagger,
    frobenius_norm,
    hermitian_propagator,
    require_hermitian,
)
from .trajectory import Trajectory, rk4_trajectory, time_grid

#: Largest imaginary residue tolerated when a trace expression must be real,
#: relative to the size of its terms where that is known (and at least 1).
REALITY_TOL = 1e-12


@dataclass(eq=False)
class OperatorTangent:
    """A point ``A`` of operator space together with a velocity ``Adot``."""

    point: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        self.point = as_complex_matrix(self.point, "point")
        self.velocity = as_complex_matrix(self.velocity, "velocity")
        if self.point.shape != self.velocity.shape:
            raise ValueError("point and velocity dimensions differ")


@dataclass(eq=False)
class HeisenbergScenario:
    """Inputs of one Heisenberg integration run; ``times`` is their time grid."""

    hamiltonian: np.ndarray
    initial: np.ndarray
    t_final: float
    step: float
    times: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.hamiltonian = require_hermitian(self.hamiltonian, name="hamiltonian")
        self.initial = as_complex_matrix(self.initial, "initial")
        if self.initial.shape != self.hamiltonian.shape:
            raise ValueError("initial and hamiltonian dimensions differ")
        self.times = time_grid(self.t_final, self.step)


@dataclass(eq=False)
class KetTangent:
    """A state vector and its velocity."""

    ket: np.ndarray
    ket_velocity: np.ndarray

    def __post_init__(self):
        self.ket = np.asarray(self.ket, dtype=complex).reshape(-1)
        self.ket_velocity = np.asarray(self.ket_velocity, dtype=complex).reshape(-1)
        if self.ket.shape != self.ket_velocity.shape:
            raise ValueError("ket and ket_velocity lengths differ")
        if not (np.all(np.isfinite(self.ket.view(float)))
                and np.all(np.isfinite(self.ket_velocity.view(float)))):
            raise ValueError("ket entries must be finite")


def _real_values(values: np.ndarray, what: str, scale=lambda: 1.0) -> np.ndarray:
    """Real parts of ``values``, raising if an imaginary residue exceeds
    REALITY_TOL times ``max(1, scale())``; ``scale`` gives the size of the
    terms summed into each value, and is called only for a residue above
    REALITY_TOL."""
    residue = np.abs(values.imag)
    if np.max(residue, initial=0.0) > REALITY_TOL:
        excess = residue[residue > REALITY_TOL * np.maximum(1.0, scale())]
        if excess.size:
            raise ValueError(f"{what} has imaginary residue {np.max(excess):.3e}")
    return values.real


def _real_part(value: complex, what: str) -> float:
    return float(_real_values(np.asarray(value), what))


def heisenberg_rhs(a, h) -> np.ndarray:
    """Velocity of the Heisenberg flow: ``-i [a, h]``."""
    return -1j * commutator(a, h)


def evolve_heisenberg_exact(a0, h, t) -> np.ndarray:
    """Conjugation flow ``U^dag a0 U`` with ``U = exp(-i t h)``.

    ``t`` is one time or an array of times; an array gives the stack of
    states at those times, shape ``np.shape(t) + a0.shape``, from one
    eigendecomposition of ``h``.

    Raises
    ------
    ValueError
        If ``h`` is not Hermitian.
    """
    a0 = as_complex_matrix(a0, "initial")
    h = require_hermitian(h, name="hamiltonian")
    u = hermitian_propagator(h, t)
    return u.conj().swapaxes(-1, -2) @ a0 @ u


def evolve_heisenberg_rk4(scenario: HeisenbergScenario) -> Trajectory:
    """Classic fourth-order Runge-Kutta integration of ``Adot = -i[A, H]``."""
    h = scenario.hamiltonian
    # heisenberg_rhs without commutator's conversions and shape check: the
    # scenario holds validated complex matrices of one shape
    return rk4_trajectory(lambda a: -1j * (a @ h - h @ a), scenario.initial,
                          scenario.times, scenario.step, "A")


def lagrangian_heisenberg(tangent: OperatorTangent, h) -> float:
    """Operator-space Lagrangian, a real number.

    Kinetic part ``(i/2) Tr(A^dag Adot - Adot^dag A)``, potential part
    ``-Tr(A H A^dag - A^dag H A)``.  Vanishes identically on Hermitian
    (A, Adot) pairs.
    """
    a = tangent.point
    h = require_hermitian(h, name="hamiltonian")
    if h.shape != a.shape:
        raise ValueError("hamiltonian dimension differs from tangent")
    return float(lagrangian_heisenberg_values(a, tangent.velocity, h))


def lagrangian_heisenberg_values(a: np.ndarray, ad: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Operator-space Lagrangian over stacks of points and velocities.

    ``a`` and ``ad`` are complex arrays of shape ``(..., n, n)``; the result
    has shape ``(...)``.  ``h`` must already be a validated Hermitian
    ``(n, n)`` matrix: nothing but the reality of the result is checked
    here.  The expression is the one of ``lagrangian_heisenberg`` term for
    term, so a stacked evaluation rounds exactly like the per-point one.
    """
    a_dag = a.conj().swapaxes(-1, -2)
    ad_dag = ad.conj().swapaxes(-1, -2)
    kinetic = 0.5j * np.trace(a_dag @ ad - ad_dag @ a, axis1=-2, axis2=-1)
    potential = np.trace(a @ h @ a_dag - a_dag @ h @ a, axis1=-2, axis2=-1)

    def scale():  # |Tr(X Y)| <= |X|_F |Y|_F bounds every trace above
        norm_a = np.linalg.norm(a, axis=(-2, -1))
        return norm_a * (np.linalg.norm(ad, axis=(-2, -1)) + norm_a * np.linalg.norm(h))

    return _real_values(kinetic - potential, "Lagrangian", scale)


def cartan_one_form_heisenberg(point, v) -> float:
    """Poincare-Cartan one-form ``(i/2)[Tr(A^dag v) - Tr(A v^dag)]``.

    Zero whenever both arguments are Hermitian.
    """
    a = as_complex_matrix(point, "point")
    v = as_complex_matrix(v, "v")
    if a.shape != v.shape:
        raise ValueError("dimension mismatch")
    # (i/2)(z - conj(z)) = -Im z with z = Tr(A^dag v); real by construction
    return float(-np.trace(dagger(a) @ v).imag)


def cartan_two_form_heisenberg(v1, v2) -> float:
    """Cartan two-form ``i[Tr(v1 v2^dag) - Tr(v2 v1^dag)]``.

    Antisymmetric in its arguments and identically zero on pairs of
    Hermitian matrices.
    """
    v1 = as_complex_matrix(v1, "v1")
    v2 = as_complex_matrix(v2, "v2")
    if v1.shape != v2.shape:
        raise ValueError("dimension mismatch")
    # i(z - conj(z)) = -2 Im z with z = Tr(v1 v2^dag)
    return float(-2.0 * np.trace(v1 @ dagger(v2)).imag)


def el_residual_heisenberg(tangent: OperatorTangent, h) -> float:
    """Frobenius norm of ``[A, H] - i Adot``.

    This is the coefficient of ``dA^dag`` in the Euler-Lagrange one-form;
    for Hermitian ``H`` the ``dA`` coefficient is its adjoint and carries
    the same norm.  Zero exactly when the velocity solves the Heisenberg
    equation.
    """
    a, ad = tangent.point, tangent.velocity
    h = as_complex_matrix(h, "hamiltonian")
    if h.shape != a.shape:
        raise ValueError("hamiltonian dimension differs from tangent")
    return frobenius_norm(commutator(a, h) - 1j * ad)


def lagrangian_schrodinger(kt: KetTangent, h, potential_prefactor: float = 1.0) -> float:
    """State-vector Lagrangian
    ``(i/2)(<psi|psidot> - <psidot|psi>) - prefactor * <psi|H|psi>``.

    With ``potential_prefactor = 1`` the stationarity condition is the
    standard state-vector evolution ``i psidot = H psi``; the prefactor
    is exposed because conventions with 1/2 are also in circulation.
    """
    h = require_hermitian(h, name="hamiltonian")
    psi, psid = kt.ket, kt.ket_velocity
    if h.shape[0] != psi.shape[0]:
        raise ValueError("hamiltonian dimension differs from ket")
    z = np.vdot(psi, psid)  # <psi|psidot>
    kinetic = 0.5j * (z - np.conj(z))
    potential = potential_prefactor * np.vdot(psi, h @ psi)
    return _real_part(kinetic - potential, "Lagrangian")


def evolve_schrodinger_exact(psi0, h, t: float) -> np.ndarray:
    """Return ``exp(-i t h) psi0``; norm-preserving for Hermitian ``h``."""
    psi0 = np.asarray(psi0, dtype=complex).reshape(-1)
    h = require_hermitian(h, name="hamiltonian")
    if h.shape[0] != psi0.shape[0]:
        raise ValueError("hamiltonian dimension differs from ket")
    return hermitian_propagator(h, t) @ psi0
