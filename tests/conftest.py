"""Shared random-matrix, process and reference-integrator helpers for the test suite."""

import importlib
import os
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import isospec_lag
from isospec_lag import operator_core, trajectory
from isospec_lag.bloch import BlochVector

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


#: Spectra of rand_density_and_stabilizer: n distinct eigenvalues, one
#: eigenvalue and another repeated n - 1 times, or the pure state.
SPECTRA = ("distinct", "repeated", "pure")


def rand_density_and_stabilizer(rng, n, spectrum):
    """A density sigma = W diag(lam) W^dag with W a random unitary, and a Hermitian D
    that commutes with it: W d W^dag, with d diagonal for a "distinct" spectrum and a
    U(1) x U(n-1) block for a "repeated" or "pure" one, which repeat every eigenvalue
    but the first."""
    w = rand_unitary(rng, n)
    d = np.zeros((n, n), dtype=complex)
    if spectrum == "distinct":
        lam = rng.uniform(0.1, 1.0, n)
        d[np.diag_indices(n)] = rng.standard_normal(n)
    else:
        lam = np.zeros(n)
        lam[0] = 1.0
        if spectrum == "repeated":
            lam[1:] = rng.uniform(0.05, 0.5)
        d[0, 0] = rng.standard_normal()
        d[1:, 1:] = rand_hermitian(rng, n - 1)
    return (w * (lam / lam.sum())) @ w.conj().T, w @ d @ w.conj().T


def euler_lagrange_system(lagrangian, point, h=1e-5):
    """(Omega, f) of a chart Lagrangian that is linear in the velocity, at q = point.

    With theta_k(q) = L(q, e_k) - L(q, 0), J[k, j] = d theta_k / d q_j and
    f = dL/dq(q, 0), both by centred differences of step h, and
    Omega = J - J^T, the Euler-Lagrange equations at point read Omega qdot = f.
    """
    dim = len(point)
    eye = np.eye(dim)
    bumped = point + h * np.concatenate([eye, -eye])[:, np.newaxis, :]  # q +- h e_j
    values = lagrangian(bumped, np.concatenate([np.zeros((1, dim)), eye]))  # qdot = 0, e_k
    theta = values[:, 1:] - values[:, :1]
    jac = ((theta[:dim] - theta[dim:]) / (2 * h)).T
    return jac - jac.T, (values[:dim, 0] - values[dim:, 0]) / (2 * h)


def uniform_ball_sample(rng):
    """Uniform point of the open Bloch ball, by rejection from the cube."""
    while True:
        candidate = rng.uniform(-1.0, 1.0, size=3)
        if candidate @ candidate < 1.0:
            return BlochVector(*candidate)


def rk4_step(f, y, dt: float):
    """One classic fourth-order Runge-Kutta step of ``dy/dt = f(y)``: the
    reference step that the package's integrators are tested against."""
    k1 = f(y)
    k2 = f(y + dt / 2 * k1)
    k3 = f(y + dt / 2 * k2)
    k4 = f(y + dt * k3)
    return y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def src_env():
    """The environment of a child process that imports the package under test."""
    src = str(Path(isospec_lag.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}


def hermitian_check_names(monkeypatch):
    """Names passed to require_hermitian from here on, in call order.

    Every submodule is imported first, so each binding of require_hermitian
    is patched whichever tests ran before, and none is left patched after.
    """
    for info in pkgutil.iter_modules(isospec_lag.__path__):
        importlib.import_module(f"isospec_lag.{info.name}")
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


def force_split(mp):
    """Split every write of two or more pieces, on any host with ``os.fork``."""
    mp.setattr(trajectory, "PARALLEL_MIN_FLOATS", 0)
    mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def count_forks(mp):
    """Make ``os.fork`` record in the returned list each fork this process makes."""
    forks, fork = [], os.fork

    def counting():
        pid = fork()
        forks.append(pid)
        return pid

    mp.setattr(os, "fork", counting)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_in(process, function):
    """``function``, raising RuntimeError when called in the parent or the
    child of the split write, as ``process`` says."""
    parent = os.getpid()

    def failing(*args, **kwargs):
        if (os.getpid() == parent) == (process == "parent"):
            raise RuntimeError(f"planted failure in the {process}")
        return function(*args, **kwargs)

    return failing
