"""Operator-space Lagrangian mechanics for the Heisenberg equation.

The Heisenberg flow ``i dA/dt = [A, H]`` on the space of bounded
operators admits a first-order Lagrangian

    L(A, Adot) = (i/2) Tr(A^dag Adot - Adot^dag A) - Tr(A H A^dag - A^dag H A)

whose Euler-Lagrange equations reproduce the equation of motion on the
complexified operator space.  This module evaluates that Lagrangian,
its Poincare-Cartan one-form and Cartan two-form, the Euler-Lagrange
residual, and the exact and Runge-Kutta evolutions.  On the real chart
q = [Re vec A, Im vec A] the Lagrangian is one fixed real quadratic form.

Units take hbar = 1 throughout.
"""

from __future__ import annotations

import numpy as np

from .operator_core import (
    as_complex_matrix,
    commutator,
    dagger,
    frobenius_norm,
    require_hermitian,
)
from .trajectory import Trajectory, exact_commutator_flow, rk4_commutator_trajectory


class OperatorTangent:
    """A point ``A`` of operator space together with a velocity ``Adot``."""

    def __init__(self, point: np.ndarray, velocity: np.ndarray):
        self.point = as_complex_matrix(point, "point")
        self.velocity = as_complex_matrix(velocity, "velocity", shape=self.point.shape)


def heisenberg_rhs(a, h) -> np.ndarray:
    """Velocity of the Heisenberg flow: ``-i [a, h]``, h of a's shape."""
    a = as_complex_matrix(a, "a")
    return -1j * commutator(a, as_complex_matrix(h, "hamiltonian", shape=a.shape))


def evolve_heisenberg_exact(a0, h, t) -> np.ndarray:
    """Conjugation flow ``U^dag a0 U`` with ``U = exp(-i t h)``.

    ``t`` is one time or an array of times; an array gives the stack of
    states at those times, shape ``np.shape(t) + a0.shape``, from one
    eigendecomposition of ``h``, which also gives the phases it checks.

    Raises
    ------
    ValueError
        If ``h`` is not Hermitian, or (exact_commutator_flow's check) a time
        or its phase ``t * w`` at an eigenvalue ``w`` of ``h`` is not finite.
    """
    a0 = as_complex_matrix(a0, "initial")
    h = require_hermitian(h, name="hamiltonian", shape=a0.shape)
    return exact_commutator_flow(a0, h, -1, t)


def evolve_heisenberg_rk4(a0, h, t_final: float, step: float) -> Trajectory:
    """Classic fourth-order Runge-Kutta integration of ``Adot = -i[A, H]``
    on ``time_grid(t_final, step)``, evaluated in closed form in H's
    eigenbasis (``rk4_commutator_trajectory``).

    Raises
    ------
    ValueError
        If ``h`` is not Hermitian, the dimensions differ, or the grid
        inputs are invalid.
    """
    a0 = as_complex_matrix(a0, "initial")
    h = require_hermitian(h, name="hamiltonian", shape=a0.shape)
    return rk4_commutator_trajectory(a0, h, -1, t_final, step, "A")


def lagrangian_heisenberg(tangent: OperatorTangent, h) -> float:
    """Operator-space Lagrangian, a real number.

    Kinetic part ``(i/2) Tr(A^dag Adot - Adot^dag A)``, potential part
    ``-Tr(A H A^dag - A^dag H A)``.  Vanishes identically on Hermitian
    (A, Adot) pairs.
    """
    a, ad = tangent.point, tangent.velocity
    h = require_hermitian(h, name="hamiltonian", shape=a.shape)
    return float(lagrangian_heisenberg_chart(h)(flatten_complex(a), flatten_complex(ad)))


def flatten_complex(a: np.ndarray) -> np.ndarray:
    """Real then imaginary parts of the trailing (n, n) axes, row-major, as
    one real axis; leading axes of a are kept as stack axes."""
    a = np.asarray(a, dtype=complex)
    flat = a.reshape(a.shape[:-2] + (-1,))
    return np.concatenate([flat.real, flat.imag], axis=-1)


def lagrangian_heisenberg_chart(h: np.ndarray):
    """evaluate(q, v), the operator Lagrangian of ``h`` at q = flatten_complex(A)
    and v = flatten_complex(Adot), over stacks of shape ``(..., 2 n^2)``.

    L(q, v) = -q.(M q + J v): q.M q = Re Tr(A^dag [A, H]), M the real form of
    A -> [A, H] on row-major vec A, built once, here; J v = [Im v, -Re v] is
    -i Adot.  ``h`` is checked square and finite (as_complex_matrix) once, here,
    but not Hermitian: an anti-Hermitian part adds only imaginary parts to the
    traces.  q and v, arrays or sequences, are converted to float and their
    widths checked once per stacked call.  q and v broadcast against each
    other, and the values have the broadcast shape without the last axis; M q
    is taken once per row of q, its own vector-matrix product, so a stacked
    evaluation rounds exactly like the per-point one.
    """
    h = as_complex_matrix(h, "hamiltonian")
    n, half = len(h), h.size
    c = np.kron(np.eye(n), h.T) - np.kron(h, np.eye(n))  # vec [A, H] = C vec A
    form_t = np.block([[c.real, -c.imag], [c.imag, c.real]]).T.copy()  # M^T, C-ordered

    def evaluate(q, v):
        q, v = np.asarray(q, dtype=float), np.asarray(v, dtype=float)
        if q.shape[-1] != 2 * half or v.shape[-1] != 2 * half:
            raise ValueError(f"the chart of a {n}x{n} hamiltonian has width {2 * half}, got "
                             f"points of width {q.shape[-1]} and velocities of width {v.shape[-1]}")
        # row by row, not one (stack, 2n^2) GEMM, whose rounding depends on the stack
        y = np.matmul(q[..., np.newaxis, :], form_t)[..., 0, :]
        y = y + np.concatenate([v[..., half:], -v[..., :half]], axis=-1)  # M q + J v
        return -np.einsum("...i,...i->...", q, y)

    return evaluate


def cartan_one_form_heisenberg(point, v) -> float:
    """Poincare-Cartan one-form ``(i/2)[Tr(A^dag v) - Tr(A v^dag)]``.

    Zero whenever both arguments are Hermitian.
    """
    a = as_complex_matrix(point, "point")
    v = as_complex_matrix(v, "v", shape=a.shape)
    # (i/2)(z - conj(z)) = -Im z with z = Tr(A^dag v); real by construction
    return float(-np.trace(dagger(a) @ v).imag)


def cartan_two_form_heisenberg(v1, v2) -> float:
    """Cartan two-form ``i[Tr(v1 v2^dag) - Tr(v2 v1^dag)]``.

    Antisymmetric in its arguments and identically zero on pairs of
    Hermitian matrices.
    """
    v1 = as_complex_matrix(v1, "v1")
    v2 = as_complex_matrix(v2, "v2", shape=v1.shape)
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
    h = require_hermitian(h, name="hamiltonian", shape=a.shape)
    return frobenius_norm(commutator(a, h) - 1j * ad)
