"""Qubit Bloch-ball geometry of the SB(2,C) action.

States are written as rho = (I + x . sigma)/2 with ||x|| <= 1.  The
three one-parameter subgroups of SB(2,C) act on normalized states by
conjugate-and-renormalize; their infinitesimal generators are the
vector fields Y1, Y2, Y3 on the ball.  The fields are tangent to the
pure sphere, fix the point P = (0, 0, 1), and their wedge product
vanishes only on the sphere, which splits the ball into three orbit
types.  The flows change the spectrum of the normalized state but
preserve the determinant of the unnormalized conjugated matrix.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .operator_core import dagger, mul2

BALL_TOL = 1e-10
CLASSIFY_TOL = 1e-9

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULIS = np.array([PAULI_X, PAULI_Y, PAULI_Z])

TAU_1 = np.array([[0, 1], [0, 0]], dtype=complex)
TAU_2 = np.array([[0, 1j], [0, 0]], dtype=complex)
TAU_3 = np.array([[1, 0], [0, -1]], dtype=complex)

#: Largest |t| at which the flows stay in float range: the diagonal flow
#: scales an entry of g sigma g^dag by e^|t|.
FLOW_T_MAX = math.log(np.finfo(float).max)
#: Step of the centered differences in t that check the flows' rates.
FD_STEP = 1e-5


def sb2c_generator(index: int) -> np.ndarray:
    """Lie algebra basis element tau_1, tau_2 or tau_3."""
    if index not in (1, 2, 3):
        raise ValueError(f"generator index must be 1, 2 or 3, got {index}")
    return {1: TAU_1, 2: TAU_2, 3: TAU_3}[index].copy()


def flow_generator(index: int) -> np.ndarray:
    """Generator whose exponential flow has t-derivative y_field(index)."""
    # exp(t G_k) reproduces Y_k exactly as its t-derivative.  The diagonal
    # direction needs the half-speed parameterization tau_3 / 2; with tau_3
    # itself the induced field is 2 Y3.
    return sb2c_generator(index) / (2 if index == 3 else 1)


def flow_exponential(index: int, t) -> np.ndarray:
    """Closed form of ``exp(t * flow_generator(index))``, shape ``np.shape(t) + (2, 2)``.

    tau_1 and tau_2 square to zero, so their flows are ``I + t tau``;
    tau_3 / 2 is diagonal, so its flow is ``diag(e^{t/2}, e^{-t/2})``.
    ``t`` is one time or an array of times; a ``|t|`` above FLOW_T_MAX
    raises ValueError, as does an index other than 1, 2 or 3.
    """
    generator = flow_generator(index)
    t = np.asarray(t, dtype=float)
    if not np.max(np.abs(t), initial=0.0) <= FLOW_T_MAX:
        raise ValueError(f"flow time leaves float range: |t| must be <= {FLOW_T_MAX:.2f}")
    if index == 3:
        diagonal = np.exp(np.multiply.outer(t, generator.diagonal().real))
        return diagonal[..., np.newaxis] * np.eye(2, dtype=complex)
    return np.eye(2) + np.multiply.outer(t, generator)


class BlochVector(NamedTuple("BlochVector", [("x1", float), ("x2", float), ("x3", float)])):
    __slots__ = ()

    def __new__(cls, x1: float, x2: float, x3: float):
        if not all(map(math.isfinite, (x1, x2, x3))):
            raise ValueError(f"Bloch vector {(x1, x2, x3)} is not finite")
        self = super().__new__(cls, x1, x2, x3)
        if self.norm > 1 + BALL_TOL:
            raise ValueError(f"Bloch vector has norm {self.norm} > 1")
        return self

    @property
    def norm(self) -> float:
        return math.hypot(self.x1, self.x2, self.x3)

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3])


class OrbitTag(Enum):
    FIXED_POINT_P = "FIXED_POINT_P"
    PURE_SPHERE = "PURE_SPHERE"
    BULK = "BULK"


class OrbitClass(NamedTuple):
    """Orbit type of a point plus its classification margin."""

    tag: OrbitTag
    detail: float


def _densities(points) -> np.ndarray:
    """States ``(I + x . sigma) / 2`` at points of shape (..., 3)."""
    return 0.5 * (np.eye(2) + np.einsum("...k,kij->...ij", points, _PAULIS))


def density_from_bloch(x: BlochVector) -> np.ndarray:
    return _densities(x.as_array())


def generator_frame(points) -> np.ndarray:
    """Frame (Y1, Y2, Y3) at points of shape (..., 3): row k - 1 of each
    (3, 3) block is the component vector of Y_k."""
    x1, x2, x3 = np.moveaxis(np.asarray(points, dtype=float), -1, 0)
    return np.moveaxis(np.array([
        [1 - x3 - x1**2, -x1 * x2, x1 * (1 - x3)],
        [x1 * x2, x3 - 1 + x2**2, -x2 * (1 - x3)],
        [-x3 * x1, -x3 * x2, 1 - x3**2],
    ]), (0, 1), (-2, -1))


def y_field(k: int, x: BlochVector) -> np.ndarray:
    """Component vector of the generator field Y_k at x."""
    if k not in (1, 2, 3):
        raise ValueError(f"field index must be 1, 2 or 3, got {k}")
    return generator_frame(x.as_array())[k - 1]


def wedge_determinant(x: BlochVector) -> float:
    """Determinant of the frame (Y1, Y2, Y3) at x.

    Equals -(1 - x3)^2 (1 - ||x||^2), so it vanishes exactly on the
    sphere of pure states.
    """
    return float(np.linalg.det(generator_frame(x.as_array())))


def wedge_closed_form_values(points) -> np.ndarray:
    """Closed-form frame determinant at points of shape (..., 3)."""
    x1, x2, x3 = np.moveaxis(np.asarray(points, dtype=float), -1, 0)
    r2 = x1**2 + x2**2 + x3**2
    return -((1 - x3) ** 2) * (1 - r2)


def wedge_closed_form(x: BlochVector) -> float:
    """Closed-form value of the frame determinant."""
    return float(wedge_closed_form_values(x.as_array()))


def classify_orbit(x: BlochVector) -> OrbitClass:
    p_dist = math.sqrt(x.x1**2 + x.x2**2 + (x.x3 - 1) ** 2)
    if p_dist <= CLASSIFY_TOL:
        return OrbitClass(OrbitTag.FIXED_POINT_P, p_dist)
    if abs(x.norm - 1) <= CLASSIFY_TOL:
        return OrbitClass(OrbitTag.PURE_SPHERE, abs(x.norm - 1))
    return OrbitClass(OrbitTag.BULK, 1 - x.norm)


def conjugate_flow(k: int, t, points) -> tuple[np.ndarray, np.ndarray]:
    """Flow of the k-th subgroup: ``m = g sigma g^dag``, formed by ``mul2``,
    and the Bloch coordinates of ``m / Tr m``, read off m's entries as
    ``(Re m01 + Re m10, Im m10 - Im m01, m00 - m11) / (m00 + m11)``.

    ``g = flow_exponential(k, t)``; times ``t`` broadcast against ``points``
    of shape (..., 3), whose states are ``sigma``, not checked against the
    ball.  Raises ValueError as ``flow_exponential`` does, or for a trace
    that is not positive and finite (m out of float range, say).  At a point
    of the ball ``m`` is PSD and nonzero, since g is invertible, but its
    trace can be tiny: ``e^-t`` at the south pole under the diagonal flow.
    """
    g = flow_exponential(k, t)
    with np.errstate(over="ignore", invalid="ignore"):  # out of float range fails below
        m = mul2(mul2(g, _densities(points)), dagger(g))
    m00, m11, m01, m10 = m[..., 0, 0].real, m[..., 1, 1].real, m[..., 0, 1], m[..., 1, 0]
    tr = m00 + m11
    if not np.all((tr > 0) & np.isfinite(tr)):
        raise ValueError("conjugated state has no positive finite trace")
    coords = (np.stack([m01.real + m10.real, m10.imag - m01.imag, m00 - m11], axis=-1)
              / tr[..., np.newaxis])
    # clamp rounding overshoot at the sphere
    nrm = np.linalg.norm(coords, axis=-1, keepdims=True)
    clamp = (1 < nrm) & (nrm <= 1 + BALL_TOL)
    return m, np.where(clamp, coords / np.where(clamp, nrm, 1.0), coords)


def sb2c_flow_on_state(k: int, t: float, x0: BlochVector) -> BlochVector:
    """Conjugate-and-renormalize flow of the k-th subgroup on the ball."""
    return BlochVector(*conjugate_flow(k, t, x0.as_array())[1].tolist())
