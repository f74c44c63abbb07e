"""Shared random-matrix helpers for the test suite."""

import sys

import numpy as np

from isospec_lag import operator_core

SI = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def rand_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def rand_hermitian(rng, n):
    m = rand_complex(rng, n)
    return 0.5 * (m + m.conj().T)


def rand_antihermitian(rng, n):
    return 1j * rand_hermitian(rng, n)


def rand_unitary(rng, n):
    q, r = np.linalg.qr(rand_complex(rng, n))
    d = np.diag(r)
    return q * (d / np.abs(d))


def rand_density(rng, n):
    m = rand_complex(rng, n)
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def hermitian_check_names(monkeypatch):
    """Names passed to require_hermitian from here on, in call order."""
    names = []
    check = operator_core.require_hermitian

    def counting(m, *args, name="matrix", **kwargs):
        names.append(name)
        return check(m, *args, name=name, **kwargs)

    for module in list(sys.modules.values()):
        if (module.__name__.startswith("isospec_lag.")
                and getattr(module, "require_hermitian", None) is check):
            monkeypatch.setattr(module, "require_hermitian", counting)
    return names
