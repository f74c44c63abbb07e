import logging
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from isospec_lag.heisenberg import OperatorTangent, heisenberg_rhs, lagrangian_heisenberg
from isospec_lag.operator_core import (
    commutator,
    dagger,
    frobenius_norm,
    hermitian_sqrt,
)
from isospec_lag.unitary_orbit import (
    UnitaryTangent,
    el_residual_unitary,
    evolve_lvn_exact,
    evolve_lvn_rk4,
    lagrangian_unitary,
    lvn_rhs,
    validate_density,
)

from conftest import (
    SI,
    SPECTRA,
    SX,
    SY,
    SZ,
    rand_antihermitian,
    rand_density,
    rand_density_and_stabilizer,
    rand_hermitian,
    rand_unitary,
)


def rand_tangent(rng, n):
    u = rand_unitary(rng, n)
    return UnitaryTangent(u, u @ rand_antihermitian(rng, n))


def test_validate_density_accepts_and_normalizes():
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    np.testing.assert_allclose(validate_density(rho), rho)


def test_validate_density_clips_tiny_negative(caplog):
    v = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    rho = v @ np.diag([1.0 + 5e-11, -5e-11]) @ v.T
    with caplog.at_level(logging.WARNING):
        out = validate_density(rho)
    assert "clipping" in caplog.text
    w = np.linalg.eigvalsh(out)
    assert w[0] >= 0.0
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)


def test_validate_density_rejects_bad_inputs():
    with pytest.raises(ValueError):
        validate_density(np.diag([0.45, 0.45]).astype(complex))  # trace != 1
    v = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    with pytest.raises(ValueError):
        validate_density(v @ np.diag([1.001, -1e-3]) @ v.T)  # too negative
    with pytest.raises(ValueError):
        validate_density(np.array([[1, 0.1], [0, 0]], dtype=complex))  # not Hermitian


def test_unitary_tangent_validation():
    rng = np.random.default_rng(0)
    u = rand_unitary(rng, 3)
    UnitaryTangent(u, u @ rand_antihermitian(rng, 3))
    with pytest.raises(ValueError):
        UnitaryTangent(2 * u, u)
    with pytest.raises(ValueError):
        UnitaryTangent(u, u @ rand_hermitian(rng, 3))  # not tangent
    with pytest.raises(ValueError):
        UnitaryTangent(u, np.zeros((2, 2)))


def test_lagrangian_unitary_examples():
    rng = np.random.default_rng(3)
    sigma = rand_density(rng, 2)
    h = rand_hermitian(rng, 2)
    ut = UnitaryTangent(SI, np.zeros((2, 2)))
    assert lagrangian_unitary(ut, sigma, h) == pytest.approx(0.0, abs=1e-14)
    ut = UnitaryTangent(SI, -1j * h)
    want = np.trace(sigma @ h).real
    assert lagrangian_unitary(ut, sigma, h) == pytest.approx(want, abs=1e-12)


def test_lagrangian_unitary_keeps_the_tangent_part_of_udot():
    # udot = i sigma_x + 3e-11 I is within HERMITIAN_TOL of the tangent
    # i sigma_x at u = I; UnitaryTangent keeps that tangent
    ut = UnitaryTangent(SI, 1j * SX + 3e-11 * SI)
    np.testing.assert_array_equal(ut.udot, 1j * SX)
    assert lagrangian_unitary(ut, np.diag([0.7, 0.3]), SZ) == 0.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_near_unitary_tangents_give_finite_values(n):
    # UnitaryTangent accepts a unitarity defect up to HERMITIAN_TOL, and
    # the traces' rounding at such a u is no error
    rng = np.random.default_rng(40 + n)
    for defect in (1e-12, 1e-11, 5e-11):
        for _ in range(20):
            x = rand_hermitian(rng, n)
            u = rand_unitary(rng, n) @ (np.eye(n) + defect / 2 * x / np.linalg.norm(x))
            ut = UnitaryTangent(u, u @ rand_antihermitian(rng, n))
            sigma, h = rand_density(rng, n), rand_hermitian(rng, n)
            assert np.isfinite(lagrangian_unitary(ut, sigma, h))
            assert np.all(np.isfinite(el_residual_unitary(ut, sigma, h)))


def test_lagrangian_unitary_pullback():
    rng = np.random.default_rng(4)
    for n in (2, 3, 4):
        for _ in range(40):
            sigma = rand_density(rng, n)
            h = rand_hermitian(rng, n)
            ut = rand_tangent(rng, n)
            root = hermitian_sqrt(sigma)
            pulled = lagrangian_heisenberg(
                OperatorTangent(root @ ut.u, root @ ut.udot), h
            )
            assert lagrangian_unitary(ut, sigma, h) == pytest.approx(pulled, abs=1e-10)


def test_lvn_rhs():
    rho = np.diag([0.2, 0.8]).astype(complex)
    np.testing.assert_allclose(lvn_rhs(rho, SZ), np.zeros((2, 2)))
    got = lvn_rhs(0.5 * (SI + SX), SZ)
    np.testing.assert_allclose(got, SY, atol=1e-14)
    rng = np.random.default_rng(7)
    for _ in range(20):
        out = lvn_rhs(rand_density(rng, 3), rand_hermitian(rng, 3))
        assert abs(np.trace(out)) <= 1e-12
        assert frobenius_norm(out - dagger(out)) <= 1e-12


@pytest.mark.parametrize("rhs", [heisenberg_rhs, lvn_rhs])
def test_rhs_names_a_hamiltonian_of_another_shape(rhs):
    with pytest.raises(ValueError, match=r"^hamiltonian must have shape \(2, 2\), got \(3, 3\)$"):
        rhs(np.eye(2) / 2, np.eye(3))


def test_evolve_lvn_exact_examples():
    rho0 = 0.5 * (SI + SX)
    np.testing.assert_allclose(evolve_lvn_exact(rho0, SZ, 0.0), rho0)
    # Bloch vector precesses about z at angular rate 2
    rho_quarter = evolve_lvn_exact(rho0, SZ, np.pi / 4)
    assert np.trace(rho_quarter @ SX).real == pytest.approx(0.0, abs=1e-12)
    assert abs(np.trace(rho_quarter @ SY).real) == pytest.approx(1.0, abs=1e-12)
    stationary = np.diag([0.3, 0.7]).astype(complex)
    np.testing.assert_allclose(evolve_lvn_exact(stationary, SZ, 2.2), stationary, atol=1e-12)


@pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan, [0.0, np.nan, 1.0]],
                         ids=["inf", "-inf", "nan", "array"])
def test_evolve_lvn_exact_rejects_a_non_finite_time(t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^t must be finite, got "):
            evolve_lvn_exact(0.5 * (SI + SX), SZ, t)


@pytest.mark.parametrize("t", [1e308, -1e308, [0.0, 1e308, 1.0]], ids=["t", "-t", "array"])
def test_evolve_lvn_exact_rejects_a_time_whose_phase_overflows(t):
    # t * 10 overflows: the flow would warn and then return NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^t times an eigenvalue of h must be finite, got "):
            evolve_lvn_exact(0.5 * SI, np.diag([10.0, -10.0]), t)


def test_evolve_lvn_exact_derivative_matches_rhs():
    rng = np.random.default_rng(8)
    rho0 = rand_density(rng, 3)
    h = rand_hermitian(rng, 3)
    eps = 1e-6
    fd = (evolve_lvn_exact(rho0, h, eps) - evolve_lvn_exact(rho0, h, -eps)) / (2 * eps)
    np.testing.assert_allclose(fd, lvn_rhs(rho0, h), atol=1e-9)


def test_evolve_lvn_exact_equivariance():
    rng = np.random.default_rng(9)
    for _ in range(20):
        rho0 = rand_density(rng, 3)
        h = rand_hermitian(rng, 3)
        v = rand_unitary(rng, 3)
        t = float(rng.uniform(-2, 2))
        lhs = evolve_lvn_exact(v @ rho0 @ dagger(v), v @ h @ dagger(v), t)
        rhs = v @ evolve_lvn_exact(rho0, h, t) @ dagger(v)
        assert frobenius_norm(lhs - rhs) <= 1e-9


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=-5.0, max_value=5.0),
)
def test_evolve_lvn_exact_invariants(seed, t):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    rho0 = rand_density(rng, n)
    h = rand_hermitian(rng, n)
    rho_t = evolve_lvn_exact(rho0, h, t)
    before = np.linalg.eigvalsh(rho0)
    after = np.linalg.eigvalsh(rho_t)
    assert np.max(np.abs(after - before)) <= 1e-10
    purity0 = np.trace(rho0 @ rho0).real
    purity_t = np.trace(rho_t @ rho_t).real
    assert abs(purity_t - purity0) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=1e-3, max_value=0.5),
)
def test_evolve_lvn_exact_stacked_over_times_matches_per_time(seed, n, step):
    rng = np.random.default_rng(seed)
    rho0, h = rand_density(rng, n), rand_hermitian(rng, n)
    times = np.arange(101) * step
    stacked = evolve_lvn_exact(rho0, h, times)
    assert stacked.shape == (101, n, n)
    for t, state in zip(times, stacked):
        np.testing.assert_array_equal(state, evolve_lvn_exact(rho0, h, t))


def test_evolve_lvn_rk4_matches_exact():
    rho0 = 0.5 * (SI + 0.6 * SX + 0.3 * SZ)
    traj = evolve_lvn_rk4(rho0, SZ, t_final=1.0, step=1e-3)
    exact = evolve_lvn_exact(rho0, SZ, 1.0)
    assert frobenius_norm(traj.final_state - exact) <= 1e-8
    assert traj.headers()[0] == "rho_re_0_0"
    for state in traj.states[:: traj.n_samples // 5]:
        assert abs(np.trace(state).real - 1.0) <= 1e-10


def test_evolve_lvn_rk4_stationary():
    rho0 = np.diag([0.3, 0.7]).astype(complex)
    traj = evolve_lvn_rk4(rho0, SZ, t_final=1.0, step=0.05)
    for state in traj.states:
        np.testing.assert_allclose(state, rho0, atol=1e-13)


def test_evolve_lvn_rk4_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match=r"^hamiltonian must have shape \(3, 3\), got \(2, 2\)$"):
        evolve_lvn_rk4(np.eye(3) / 3, SZ, t_final=1.0, step=0.05)


def test_evolve_lvn_rk4_rejects_negative_t_final():
    rho0 = np.diag([0.3, 0.7]).astype(complex)
    with pytest.raises(ValueError):
        evolve_lvn_rk4(rho0, SZ, t_final=-1.0, step=0.05)


def test_evolve_lvn_rk4_step_halving():
    rng = np.random.default_rng(10)
    rho0 = rand_density(rng, 3)
    h = rand_hermitian(rng, 3)
    exact = evolve_lvn_exact(rho0, h, 1.0)
    errs = []
    for step in (0.05, 0.025):
        traj = evolve_lvn_rk4(rho0, h, t_final=1.0, step=step)
        errs.append(frobenius_norm(traj.final_state - exact))
    assert 12.0 <= errs[0] / errs[1] <= 20.0


def test_el_residual_zero_on_own_flow_udot_minus_i_u_h():
    rng = np.random.default_rng(11)
    for n in (2, 3):
        for _ in range(25):
            sigma = rand_density(rng, n)
            h = rand_hermitian(rng, n)
            u = rand_unitary(rng, n)
            ut = UnitaryTangent(u, -1j * u @ h)
            res = el_residual_unitary(ut, sigma, h)
            assert res.shape == (n * n,)
            assert np.max(np.abs(res)) <= 1e-10


def test_el_residual_isotropy_directions_also_vanish():
    rng = np.random.default_rng(12)
    sigma = np.diag([0.5, 0.3, 0.2]).astype(complex)
    h = rand_hermitian(rng, 3)
    for _ in range(10):
        u = rand_unitary(rng, 3)
        k = dagger(u) @ (1j * np.diag(rng.standard_normal(3))) @ u
        assert frobenius_norm(commutator(k, dagger(u) @ sigma @ u)) <= 1e-12
        ut = UnitaryTangent(u, -1j * u @ h + u @ k)
        assert np.max(np.abs(el_residual_unitary(ut, sigma, h))) <= 1e-10


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), spectrum=st.sampled_from(SPECTRA))
def test_el_residual_is_gauge_invariant(n, seed, spectrum):
    # s = exp(i phi D) with [D, sigma] = 0 leaves rho = u^dag sigma u where it
    # is: the tangent (u, udot) moves to (s u, s udot + sdot u), sdot = i phidot D s
    rng = np.random.default_rng(seed)
    sigma, d = rand_density_and_stabilizer(rng, n, spectrum)
    h = rand_hermitian(rng, n)
    ut = rand_tangent(rng, n)
    phi, phidot = rng.uniform(-3.0, 3.0, 2)
    s = scipy.linalg.expm(1j * phi * d)
    moved = UnitaryTangent(s @ ut.u, s @ ut.udot + 1j * phidot * d @ s @ ut.u)
    np.testing.assert_allclose(el_residual_unitary(moved, sigma, h),
                               el_residual_unitary(ut, sigma, h), rtol=0, atol=1e-13)


def test_el_residual_detects_off_shell_motion():
    rng = np.random.default_rng(13)
    sigma = np.diag([0.7, 0.3]).astype(complex)
    h = SZ + 0.5 * SX
    u = rand_unitary(rng, 2)
    frozen = UnitaryTangent(u, np.zeros((2, 2)))
    res = el_residual_unitary(frozen, sigma, h)
    rho = dagger(u) @ sigma @ u
    assert np.linalg.norm(res) == pytest.approx(
        frobenius_norm(commutator(rho, h)), rel=1e-10
    )
    assert np.linalg.norm(res) > 0.1


def test_purity_and_entropy_constant_along_exact_flow():
    rng = np.random.default_rng(14)
    rho0 = rand_density(rng, 3)
    h = rand_hermitian(rng, 3)
    w0 = np.linalg.eigvalsh(rho0)
    s0 = -np.sum(w0 * np.log(w0))
    for t in (0.1, 1.0, 10.0):
        rho_t = evolve_lvn_exact(rho0, h, t)
        w = np.linalg.eigvalsh(rho_t)
        assert abs(np.trace(rho_t @ rho_t).real - np.trace(rho0 @ rho0).real) <= 1e-8
        assert abs(-np.sum(w * np.log(w)) - s0) <= 1e-8
