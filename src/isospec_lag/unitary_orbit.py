"""Lagrangian dynamics on the isospectral orbit of a reference state.

A density matrix sigma and a unitary u produce the state u^dag sigma u;
the set of all such states is the isospectral orbit of sigma.  Through
the immersion phi_sigma(u) = sqrt(sigma) u the operator-space Lagrangian
pulls back to the unitary group as

    L_u = i Tr(sigma udot u^dag) - Tr(u^dag sigma u H - sigma H)

whose extremals project onto solutions of rho_dot = -i [rho, H]: with
A = sqrt(sigma) u the state is rho = A^dag A, and the operator
Lagrangian's extremal Adot = -i [A, H] carries it as the Heisenberg
picture does.  el_residual_unitary is the residual of that equation
(verifier.el_residual_unitary_path measures the same one from
Lagrangian values alone), while the ``lvn`` kind, through lvn_rhs and
the evolve_lvn_* functions below, integrates the Schroedinger-picture
rho_dot = +i [rho, H]: the same orbit traversed backwards in time.
This module evaluates that Lagrangian, the Euler-Lagrange residual
projected on an orthonormal basis of the unitary algebra, and the exact
and Runge-Kutta state evolutions.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .operator_core import (
    HERMITIAN_TOL,
    as_complex_matrix,
    commutator,
    dagger,
    frobenius_norm,
    require_hermitian,
    unitary_algebra_basis,
)
from .trajectory import Trajectory, exact_commutator_flow, rk4_commutator_trajectory

logger = logging.getLogger(__name__)


def validate_density(rho) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a density matrix,
    each within ``HERMITIAN_TOL``.

    Eigenvalues in ``[-HERMITIAN_TOL, 0)`` are clipped to zero (the result
    is renormalized and a warning is logged); worse violations raise.
    """
    rho = require_hermitian(rho, name="density matrix")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > HERMITIAN_TOL:
        raise ValueError(f"density matrix trace {tr} is not 1")
    w = np.linalg.eigvalsh(rho)
    if w[0] < -HERMITIAN_TOL:
        raise ValueError(f"density matrix has eigenvalue {w[0]:.3e} < 0")
    if w[0] < 0:
        logger.warning("clipping density matrix eigenvalue %.3e to zero", w[0])
        wc, v = np.linalg.eigh(rho)
        wc = np.clip(wc, 0.0, None)
        rho = (v * wc) @ dagger(v)
        rho = (rho + dagger(rho)) / 2
        rho = rho / float(np.trace(rho).real)
    return rho


@dataclass(eq=False)
class UnitaryTangent:
    """A unitary ``u`` with a tangent vector ``udot``.

    Tangency to the unitary group means ``u udot^dag = -udot u^dag``;
    unitarity and tangency are checked in Frobenius norm against
    ``HERMITIAN_TOL`` at construction; within it, ``udot`` keeps its tangent
    part ``udot - (u udot^dag + udot u^dag) u / 2``.
    """

    u: np.ndarray
    udot: np.ndarray

    def __post_init__(self):
        self.u = as_complex_matrix(self.u, "u")
        self.udot = as_complex_matrix(self.udot, "udot", shape=self.u.shape)
        n = self.u.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):  # overflowing defects fail below
            unitary_defect = frobenius_norm(dagger(self.u) @ self.u - np.eye(n))
            normal = self.u @ dagger(self.udot) + self.udot @ dagger(self.u)
            tangency = frobenius_norm(normal)
        if not unitary_defect <= HERMITIAN_TOL:
            raise ValueError(f"u is not unitary: defect {unitary_defect:.3e}")
        if not tangency <= HERMITIAN_TOL:
            raise ValueError(f"udot is not tangent: defect {tangency:.3e}")
        self.udot = self.udot - normal @ self.u / 2


def lagrangian_unitary(ut: UnitaryTangent, sigma, h) -> float:
    """Pulled-back Lagrangian ``i Tr(sigma udot u^dag) - Tr(u^dag sigma u H - sigma H)``.

    The paper's closed form; the verifier's unitary chart evaluates the
    operator Lagrangian at ``(sqrt(sigma) u, sqrt(sigma) udot)`` instead.
    """
    u, ud = ut.u, ut.udot
    sigma = require_hermitian(sigma, name="sigma", shape=u.shape)
    h = require_hermitian(h, name="hamiltonian", shape=u.shape)
    kinetic = 1j * np.trace(sigma @ ud @ dagger(u))
    potential = np.trace(dagger(u) @ sigma @ u @ h - sigma @ h)
    return float((kinetic - potential).real)


def lvn_rhs(rho, h) -> np.ndarray:
    """State-space velocity ``i [rho, H]``, H of rho's shape; traceless."""
    rho = as_complex_matrix(rho, "rho")
    return 1j * commutator(rho, as_complex_matrix(h, "hamiltonian", shape=rho.shape))


def evolve_lvn_exact(rho0, h, t) -> np.ndarray:
    """Conjugation flow ``U rho0 U^dag`` with ``U = exp(-i t h)``.

    Spectrum-preserving; its time derivative at t = 0 is ``lvn_rhs``.
    ``t`` is one time or an array of times; an array gives the stack of
    states at those times, shape ``np.shape(t) + rho0.shape``, from one
    eigendecomposition of ``h``.  A time, or its phase ``t * w`` at an eigenvalue
    ``w`` of it, that is not finite raises exact_commutator_flow's ValueError.
    """
    rho0 = validate_density(rho0)
    h = require_hermitian(h, name="hamiltonian", shape=rho0.shape)
    return exact_commutator_flow(rho0, h, 1, t)


def evolve_lvn_rk4(rho0, h, t_final: float, step: float) -> Trajectory:
    """Fourth-order Runge-Kutta integration of ``rho_dot = i [rho, H]``,
    evaluated in closed form in H's eigenbasis (``rk4_commutator_trajectory``).

    The first row of the trajectory is ``validate_density(rho0)``.
    """
    rho0 = validate_density(rho0)
    h = require_hermitian(h, name="hamiltonian", shape=rho0.shape)
    return rk4_commutator_trajectory(rho0, h, 1, t_final, step, "rho")


def el_residual_unitary(ut: UnitaryTangent, sigma, h) -> np.ndarray:
    """Euler-Lagrange residual projected on the unitary-algebra basis.

    Computes rho = u^dag sigma u, its velocity

        rho_dot = u^dag sigma udot - u^dag udot u^dag sigma u

    and returns the n^2 real projections ``i Tr((rho_dot + i[rho, H]) tau_j)``
    over the orthonormal anti-Hermitian basis: the residual of the
    Lagrangian's own Euler-Lagrange equation.  The vector vanishes
    exactly when the state follows rho_dot = -i [rho, H], the flow that
    lagrangian_unitary generates (opposite in time to lvn_rhs); in terms
    of the group tangent that is ``udot = -i u H + u k`` with k commuting
    with u^dag sigma u.
    """
    u, ud = ut.u, ut.udot
    sigma = require_hermitian(sigma, name="sigma", shape=u.shape)
    h = require_hermitian(h, name="hamiltonian", shape=u.shape)
    rho = dagger(u) @ sigma @ u
    rho_dot = dagger(u) @ sigma @ ud - dagger(u) @ ud @ dagger(u) @ sigma @ u
    defect = rho_dot + lvn_rhs(rho, h)
    projections = 1j * np.einsum("ab,jba->j", defect, unitary_algebra_basis(u.shape[0]))
    return projections.real
