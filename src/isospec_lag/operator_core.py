"""Dense complex linear algebra and operator primitives.

Everything in this module is a pure function over small dense numpy
arrays.  Matrices are plain ``numpy.ndarray`` objects of complex dtype,
and a stack of them (the u(n) basis, say) is one array of shape
``(..., n, n)``; validation helpers raise ``ValueError`` on malformed
input and return inputs within tolerance projected onto their set (the
Hermitian part, the clipped PSD root).  Hermiticity, positivity,
unitarity and tangency are always judged against the one tolerance
``HERMITIAN_TOL``, so that long integrations with floating-point drift
remain checkable.
"""

from __future__ import annotations

import numpy as np

#: Frobenius-norm tolerance of every hermiticity, positivity, unitarity and
#: tangency check.
HERMITIAN_TOL = 1e-10


def as_complex_matrix(m, name: str = "matrix", shape=None) -> np.ndarray:
    """Validate and return ``m`` as a square complex matrix.

    Parameters
    ----------
    m : array_like
        Square matrix data.
    name : str
        Label used in error messages.
    shape : tuple of int, optional
        The (n, n) the caller needs, usually the shape of the matrix that
        ``m`` pairs with; ``None`` takes any square shape.

    Returns
    -------
    numpy.ndarray
        ``m`` as complex128: ``m`` itself when it already is one, so the
        caller must not write into the result.

    Raises
    ------
    ValueError
        If ``m`` is not square 2-D, has another shape than ``shape``, or
        contains non-finite entries.
    """
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def dagger(m) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack of
    shape (..., n, n): only the last two axes are swapped."""
    return np.asarray(m, dtype=complex).conj().swapaxes(-1, -2)


def mul2(a, b) -> np.ndarray:
    """``a @ b`` of stacked 2x2 matrices, written out elementwise."""
    return a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]


def det2(m) -> np.ndarray:
    """Determinants of stacked 2x2 matrices, written out elementwise."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def commutator(a, b) -> np.ndarray:
    """Return ``ab - ba`` of two finite square matrices of one shape."""
    a = as_complex_matrix(a, "a")
    b = as_complex_matrix(b, "b", shape=a.shape)
    return a @ b - b @ a


def frobenius_norm(m) -> float:
    """Frobenius norm of a matrix."""
    return float(np.linalg.norm(np.asarray(m)))


def require_hermitian(m, name: str = "matrix", shape=None) -> np.ndarray:
    """Return the Hermitian part ``(m + m^dag) / 2`` of ``m``, raising if
    ``m`` is not Hermitian; an exactly Hermitian ``m`` comes back as given.
    ``m`` is first checked by ``as_complex_matrix(m, name, shape)``.

    Raises
    ------
    ValueError
        If the Hermitian defect ``||m - m^dag||_F`` exceeds ``HERMITIAN_TOL``,
        or overflows.
    """
    arr = as_complex_matrix(m, name, shape)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing defect fails below
        defect = frobenius_norm(arr - dagger(arr))
    if not defect <= HERMITIAN_TOL:
        raise ValueError(
            f"{name} is not Hermitian: defect {defect:.3e} > tolerance {HERMITIAN_TOL:.3e}"
        )
    return arr / 2 + dagger(arr) / 2 if defect else arr  # halves: no sum overflows


def hermitian_sqrt(m, name: str = "matrix", shape=None) -> np.ndarray:
    """Hermitian PSD square root ``S`` with ``S @ S = m``.

    Eigenvalues in ``[-HERMITIAN_TOL, 0)`` are clipped to zero; anything
    more negative raises.  ``m`` is first checked by
    ``require_hermitian(m, name=name, shape=shape)``.

    Raises
    ------
    ValueError
        If ``m`` is not Hermitian, has another shape than ``shape``, or
        has an eigenvalue below ``-HERMITIAN_TOL``.
    """
    w, v = np.linalg.eigh(require_hermitian(m, name=name, shape=shape))
    if np.min(w) < -HERMITIAN_TOL:
        raise ValueError(
            f"{name} is not positive semidefinite: min eigenvalue {np.min(w):.3e}"
        )
    w = np.clip(w, 0.0, None)
    s = (v * np.sqrt(w)) @ dagger(v)
    return (s + dagger(s)) / 2


def unitary_algebra_basis(n: int) -> np.ndarray:
    """Anti-Hermitian basis of u(n), orthonormal for ``<X,Y> = Tr(X^dag Y)``.

    The n = 1 basis is ``[[i]]``.  For n = 2 the ordering is
    ``i*I/sqrt(2), i*sigma_x/sqrt(2), i*sigma_y/sqrt(2), i*sigma_z/sqrt(2)``.
    Higher n continues the same pattern: the scaled identity, then the
    symmetric and antisymmetric off-diagonal pairs in row-major order,
    then the traceless diagonal matrices.

    Returns
    -------
    numpy.ndarray
        Complex stack of shape ``(n**2, n, n)``: the matrices ``tau_j``,
        each with ``tau_j^dag = -tau_j``.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    basis = np.zeros((n * n, n, n), dtype=complex)
    basis[0] = 1j * np.eye(n) / np.sqrt(n)
    j = 1
    for p in range(n):
        for q in range(p + 1, n):
            basis[j, p, q] = basis[j, q, p] = 1j / np.sqrt(2)
            basis[j + 1, p, q], basis[j + 1, q, p] = 1 / np.sqrt(2), -1 / np.sqrt(2)
            j += 2
    for k in range(1, n):
        diag = np.zeros(n)
        diag[:k] = 1.0
        diag[k] = -float(k)
        diag /= np.linalg.norm(diag)
        basis[j] = np.diag(1j * diag)
        j += 1
    return basis
