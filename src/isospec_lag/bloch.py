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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .operator_core import dagger, require_hermitian

BALL_TOL = 1e-10
CLASSIFY_TOL = 1e-9

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI = (PAULI_X, PAULI_Y, PAULI_Z)

TAU_1 = np.array([[0, 1], [0, 0]], dtype=complex)
TAU_2 = np.array([[0, 1j], [0, 0]], dtype=complex)
TAU_3 = np.array([[1, 0], [0, -1]], dtype=complex)

# Flow generators: exp(t G_k) reproduces Y_k exactly as its t-derivative.
# The diagonal direction needs the half-speed parameterization tau_3 / 2;
# with tau_3 itself the induced field is 2 Y3.
_FLOW_GENERATORS = {1: TAU_1, 2: TAU_2, 3: TAU_3 / 2}


def sb2c_generator(index: int) -> np.ndarray:
    """Lie algebra basis element tau_1, tau_2 or tau_3."""
    if index not in (1, 2, 3):
        raise ValueError(f"generator index must be 1, 2 or 3, got {index}")
    return {1: TAU_1, 2: TAU_2, 3: TAU_3}[index].copy()


def flow_generator(index: int) -> np.ndarray:
    """Generator whose exponential flow has t-derivative y_field(index)."""
    if index not in (1, 2, 3):
        raise ValueError(f"generator index must be 1, 2 or 3, got {index}")
    return _FLOW_GENERATORS[index].copy()


def flow_exponential(index: int, t: float) -> np.ndarray:
    """Closed form of ``exp(t * flow_generator(index))``.

    tau_1 and tau_2 square to zero, so their flows are ``I + t tau``;
    tau_3 / 2 is diagonal, so its flow is ``diag(e^{t/2}, e^{-t/2})``.
    """
    if index == 3:
        return np.diag([math.exp(t / 2), math.exp(-t / 2)]).astype(complex)
    return np.eye(2, dtype=complex) + t * flow_generator(index)


@dataclass(frozen=True)
class BlochVector:
    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        if self.norm > 1 + BALL_TOL:
            raise ValueError(f"Bloch vector has norm {self.norm} > 1")

    @property
    def norm(self) -> float:
        return math.sqrt(self.x1**2 + self.x2**2 + self.x3**2)

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3])


class OrbitTag(Enum):
    FIXED_POINT_P = "FIXED_POINT_P"
    PURE_SPHERE = "PURE_SPHERE"
    BULK = "BULK"


@dataclass(frozen=True)
class OrbitClass:
    """Orbit type of a point plus its classification margin."""

    tag: OrbitTag
    detail: float


def density_from_bloch(x: BlochVector) -> np.ndarray:
    arr = x.as_array()
    rho = 0.5 * (np.eye(2, dtype=complex) + sum(arr[k] * _PAULI[k] for k in range(3)))
    return rho


def bloch_from_density(rho) -> BlochVector:
    rho = require_hermitian(rho, name="density matrix")
    if rho.shape != (2, 2):
        raise ValueError("Bloch coordinates need a 2x2 state")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > BALL_TOL:
        raise ValueError(f"density matrix trace {tr} is not 1")
    comps = [float(np.trace(rho @ _PAULI[k]).real) for k in range(3)]
    return BlochVector(*comps)


def y_field(k: int, x: BlochVector) -> np.ndarray:
    """Component vector of the generator field Y_k at x."""
    x1, x2, x3 = x.x1, x.x2, x.x3
    if k == 1:
        return np.array([1 - x3 - x1**2, -x1 * x2, x1 * (1 - x3)])
    if k == 2:
        return np.array([x1 * x2, x3 - 1 + x2**2, -x2 * (1 - x3)])
    if k == 3:
        return np.array([-x3 * x1, -x3 * x2, 1 - x3**2])
    raise ValueError(f"field index must be 1, 2 or 3, got {k}")


def wedge_determinant(x: BlochVector) -> float:
    """Determinant of the frame (Y1, Y2, Y3) at x.

    Equals -(1 - x3)^2 (1 - ||x||^2), so it vanishes exactly on the
    sphere of pure states.
    """
    rows = np.array([y_field(k, x) for k in (1, 2, 3)])
    return float(np.linalg.det(rows))


def wedge_closed_form(x: BlochVector) -> float:
    """Closed-form value of the frame determinant."""
    r2 = x.x1**2 + x.x2**2 + x.x3**2
    return -((1 - x.x3) ** 2) * (1 - r2)


def classify_orbit(x: BlochVector) -> OrbitClass:
    p_dist = math.sqrt(x.x1**2 + x.x2**2 + (x.x3 - 1) ** 2)
    if p_dist <= CLASSIFY_TOL:
        return OrbitClass(OrbitTag.FIXED_POINT_P, p_dist)
    if abs(x.norm - 1) <= CLASSIFY_TOL:
        return OrbitClass(OrbitTag.PURE_SPHERE, abs(x.norm - 1))
    return OrbitClass(OrbitTag.BULK, 1 - x.norm)


def sb2c_flow_on_state(k: int, t: float, x0: BlochVector) -> BlochVector:
    """Conjugate-and-renormalize flow of the k-th subgroup on the ball."""
    if k not in (1, 2, 3):
        raise ValueError(f"flow index must be 1, 2 or 3, got {k}")
    sigma = density_from_bloch(x0)
    g = flow_exponential(k, t)
    m = g @ sigma @ dagger(g)
    tr = float(np.trace(m).real)
    if tr <= 1e-14:
        raise ValueError("conjugated state has vanishing trace")
    rho = m / tr
    comps = [float(np.trace(rho @ _PAULI[j]).real) for j in range(3)]
    # clamp rounding overshoot at the sphere
    nrm = math.sqrt(sum(c * c for c in comps))
    if 1 < nrm <= 1 + BALL_TOL:
        comps = [c / nrm for c in comps]
    return BlochVector(*comps)


def uniform_ball_sample(rng: np.random.Generator) -> BlochVector:
    """Uniform point of the open ball, by rejection from the cube."""
    while True:
        candidate = rng.uniform(-1.0, 1.0, size=3)
        if candidate @ candidate < 1.0:
            return BlochVector(*candidate)


@dataclass(frozen=True)
class TangencyReport:
    """Radial and determinant rates of the three flows at a bulk point.

    radial_rates[k-1] is d(||x||^2)/dt = 2 x . Y_k(x): nonzero rates
    witness that the flows leave the isospectral (constant-radius)
    orbits.  det_rates[k-1] is the numerical t-derivative of
    det(g_k sigma g_k^dag), which the unit-determinant group keeps at
    zero.
    """

    point: BlochVector
    radial_rates: tuple
    det_rates: tuple


def tangency_to_unitary_orbit(x: BlochVector, fd_step: float = 1e-5) -> TangencyReport:
    """Rates of spectrum change and determinant change along the flows.

    Raises
    ------
    ValueError
        If x is not a bulk (0 < ||x|| < 1) point.
    """
    cls = classify_orbit(x)
    if cls.tag is not OrbitTag.BULK:
        raise ValueError(f"tangency report needs a bulk point, got {cls.tag.value}")
    radial = tuple(float(2 * x.as_array() @ y_field(k, x)) for k in (1, 2, 3))
    sigma = density_from_bloch(x)
    dets = []
    for k in (1, 2, 3):
        def det_at(s):
            g = flow_exponential(k, s)
            return float(np.linalg.det(g @ sigma @ dagger(g)).real)
        dets.append((det_at(fd_step) - det_at(-fd_step)) / (2 * fd_step))
    return TangencyReport(point=x, radial_rates=radial, det_rates=tuple(dets))
