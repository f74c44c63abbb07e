import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isospec_lag.heisenberg import (
    HeisenbergScenario,
    KetTangent,
    OperatorTangent,
    cartan_one_form_heisenberg,
    cartan_two_form_heisenberg,
    el_residual_heisenberg,
    evolve_heisenberg_exact,
    evolve_heisenberg_rk4,
    evolve_schrodinger_exact,
    heisenberg_rhs,
    lagrangian_heisenberg,
    lagrangian_schrodinger,
)
from isospec_lag.operator_core import frobenius_norm

from conftest import SI, SX, SY, SZ, rand_complex, rand_hermitian


def test_rhs_examples():
    h = rand_hermitian(np.random.default_rng(0), 3)
    np.testing.assert_allclose(heisenberg_rhs(h, h), np.zeros((3, 3)), atol=1e-14)
    np.testing.assert_allclose(heisenberg_rhs(SX, SZ), -2 * SY, atol=1e-15)
    np.testing.assert_allclose(heisenberg_rhs(np.eye(3), h), np.zeros((3, 3)), atol=1e-14)


def test_rhs_preserves_hermiticity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rand_hermitian(rng, 3)
        h = rand_hermitian(rng, 3)
        out = heisenberg_rhs(a, h)
        assert frobenius_norm(out - out.conj().T) <= 1e-12


def test_exact_flow_examples():
    a0 = rand_complex(np.random.default_rng(2), 4)
    h = rand_hermitian(np.random.default_rng(3), 4)
    np.testing.assert_allclose(evolve_heisenberg_exact(a0, h, 0.0), a0, atol=1e-14)
    np.testing.assert_allclose(
        evolve_heisenberg_exact(SX, SZ, np.pi / 4), -SY, atol=1e-12
    )
    rho = np.diag([0.2, 0.8]).astype(complex)
    np.testing.assert_allclose(evolve_heisenberg_exact(rho, SZ, 2.7), rho, atol=1e-12)


def test_exact_flow_rejects_non_hermitian_h():
    with pytest.raises(ValueError):
        evolve_heisenberg_exact(SX, np.array([[0, 1], [0, 0]]), 1.0)


def test_exact_flow_group_property():
    rng = np.random.default_rng(4)
    for n in (2, 3, 4):
        a0 = rand_complex(rng, n)
        h = rand_hermitian(rng, n)
        one = evolve_heisenberg_exact(a0, h, 0.7 + 1.9)
        two = evolve_heisenberg_exact(evolve_heisenberg_exact(a0, h, 0.7), h, 1.9)
        assert frobenius_norm(one - two) <= 1e-9


def test_exact_flow_preserves_trace_and_norm():
    rng = np.random.default_rng(5)
    for t in (0.1, 1.0, 10.0):
        a0 = rand_complex(rng, 3)
        h = rand_hermitian(rng, 3)
        at = evolve_heisenberg_exact(a0, h, t)
        assert abs(np.trace(at) - np.trace(a0)) <= 1e-10
        assert abs(frobenius_norm(at) - frobenius_norm(a0)) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=4),
    st.floats(min_value=-10.0, max_value=10.0),
)
def test_exact_flow_isospectral(seed, n, t):
    rng = np.random.default_rng(seed)
    a0 = rand_hermitian(rng, n)
    h = rand_hermitian(rng, n)
    before = np.linalg.eigvalsh(a0)
    after = np.linalg.eigvalsh(evolve_heisenberg_exact(a0, h, t))
    assert np.max(np.abs(after - before)) <= 1e-10


def test_scenario_validation():
    with pytest.raises(ValueError):
        HeisenbergScenario(np.array([[0, 1], [0, 0]]), SX, t_final=1.0, step=1e-2)
    with pytest.raises(ValueError):
        HeisenbergScenario(SZ, SX, t_final=1.0, step=0.0)
    # a step longer than t_final is one shorter step, as on every kind's grid
    np.testing.assert_array_equal(
        HeisenbergScenario(SZ, SX, t_final=0.5, step=0.7).times, [0.0, 0.5])


def test_scenario_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimensions differ"):
        HeisenbergScenario(SZ, np.eye(3), t_final=1.0, step=1e-2)


def test_rk4_matches_exact_flow():
    traj = evolve_heisenberg_rk4(HeisenbergScenario(SZ, SX, t_final=1.0, step=1e-3))
    exact = evolve_heisenberg_exact(SX, SZ, 1.0)
    assert frobenius_norm(traj.final_state - exact) <= 1e-8
    assert traj.times[0] == 0.0
    assert abs(traj.times[-1] - 1.0) <= 1e-12


def test_rk4_constant_for_conserved_operators():
    traj = evolve_heisenberg_rk4(HeisenbergScenario(SZ, SZ, t_final=1.0, step=0.05))
    for state in traj.states:
        np.testing.assert_allclose(state, SZ, atol=1e-13)
    traj = evolve_heisenberg_rk4(HeisenbergScenario(SZ, SI, t_final=1.0, step=0.05))
    for state in traj.states:
        np.testing.assert_allclose(state, SI, atol=1e-13)


def test_rk4_fractional_last_step():
    traj = evolve_heisenberg_rk4(HeisenbergScenario(SZ, SX, t_final=0.35, step=0.1))
    np.testing.assert_allclose(traj.times, [0.0, 0.1, 0.2, 0.3, 0.35], atol=1e-12)
    exact = evolve_heisenberg_exact(SX, SZ, 0.35)
    assert frobenius_norm(traj.final_state - exact) <= 1e-4


def test_rk4_step_halving_ratio():
    h = rand_hermitian(np.random.default_rng(6), 3)
    a0 = rand_hermitian(np.random.default_rng(7), 3)
    exact = evolve_heisenberg_exact(a0, h, 1.0)
    errs = []
    for step in (0.05, 0.025):
        traj = evolve_heisenberg_rk4(HeisenbergScenario(h, a0, t_final=1.0, step=step))
        errs.append(frobenius_norm(traj.final_state - exact))
    assert 12.0 <= errs[0] / errs[1] <= 20.0


def test_lagrangian_examples():
    rng = np.random.default_rng(8)
    a = rand_hermitian(rng, 3)
    v = rand_hermitian(rng, 3)
    h = rand_hermitian(rng, 3)
    assert abs(lagrangian_heisenberg(OperatorTangent(a, v), h)) <= 1e-12
    assert lagrangian_heisenberg(OperatorTangent(SX, 1j * SX), SZ) == pytest.approx(-2.0)
    # velocity zero, point commuting with h: both terms drop
    assert abs(lagrangian_heisenberg(OperatorTangent(SZ, np.zeros((2, 2))), SZ)) <= 1e-14


def test_lagrangian_is_real_valued():
    rng = np.random.default_rng(9)
    for _ in range(50):
        tangent = OperatorTangent(rand_complex(rng, 3), rand_complex(rng, 3))
        value = lagrangian_heisenberg(tangent, rand_hermitian(rng, 3))
        assert isinstance(value, float)


def test_cartan_one_form():
    rng = np.random.default_rng(10)
    assert abs(cartan_one_form_heisenberg(rand_hermitian(rng, 4), rand_hermitian(rng, 4))) <= 1e-12
    assert cartan_one_form_heisenberg(SI, 1j * SI) == pytest.approx(-2.0)
    assert cartan_one_form_heisenberg(rand_complex(rng, 2), np.zeros((2, 2))) == 0.0


def test_cartan_two_form():
    rng = np.random.default_rng(11)
    for _ in range(100):
        v1 = rand_hermitian(rng, 3)
        v2 = rand_hermitian(rng, 3)
        assert abs(cartan_two_form_heisenberg(v1, v2)) <= 1e-12
    assert cartan_two_form_heisenberg(SI, 1j * SI) == pytest.approx(4.0)
    v = rand_complex(rng, 3)
    assert abs(cartan_two_form_heisenberg(v, v)) <= 1e-12


def test_cartan_two_form_antisymmetry():
    rng = np.random.default_rng(12)
    for _ in range(30):
        v1 = rand_complex(rng, 3)
        v2 = rand_complex(rng, 3)
        lhs = cartan_two_form_heisenberg(v1, v2)
        rhs = -cartan_two_form_heisenberg(v2, v1)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_el_residual_zero_iff_on_shell():
    rng = np.random.default_rng(13)
    for _ in range(50):
        a = rand_hermitian(rng, 3)
        h = rand_hermitian(rng, 3)
        v = heisenberg_rhs(a, h)
        assert el_residual_heisenberg(OperatorTangent(a, v), h) <= 1e-12
        bump = rand_hermitian(rng, 3)
        bump *= 1e-6 / frobenius_norm(bump)
        off = el_residual_heisenberg(OperatorTangent(a, v + bump), h)
        assert off > 1e-12
    a = SX
    assert el_residual_heisenberg(OperatorTangent(a, np.zeros((2, 2))), SZ) == pytest.approx(
        frobenius_norm(2j * SY)
    )


def test_el_residual_with_finite_difference_velocity():
    h = 1e-4
    t = 0.4
    a_minus = evolve_heisenberg_exact(SX, SZ, t - h)
    a_mid = evolve_heisenberg_exact(SX, SZ, t)
    a_plus = evolve_heisenberg_exact(SX, SZ, t + h)
    v = (a_plus - a_minus) / (2 * h)
    assert el_residual_heisenberg(OperatorTangent(a_mid, v), SZ) <= 1e-6


def test_schrodinger_lagrangian():
    psi = np.array([1.0, 0.0], dtype=complex)
    # eigenvector with eigenvalue 1, on-shell velocity: kinetic cancels potential
    kt = KetTangent(psi, -1j * psi)
    assert lagrangian_schrodinger(kt, SZ) == pytest.approx(0.0, abs=1e-14)
    # prefactor p leaves E(1 - p)
    assert lagrangian_schrodinger(kt, SZ, potential_prefactor=0.5) == pytest.approx(0.5)
    kt = KetTangent(psi, 1j * psi)
    assert lagrangian_schrodinger(kt, np.zeros((2, 2))) == pytest.approx(-1.0)
    psi_perp = np.array([0.0, 1.0], dtype=complex)
    h = np.diag([3.0, 0.0]).astype(complex)
    assert lagrangian_schrodinger(KetTangent(psi_perp, 0 * psi_perp), h) == pytest.approx(0.0)


def test_ket_tangent_validation():
    with pytest.raises(ValueError):
        KetTangent(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))


def test_schrodinger_exact_flow():
    psi = np.array([1.0, 0.0], dtype=complex)
    np.testing.assert_allclose(evolve_schrodinger_exact(psi, SZ, 0.0), psi)
    t = 1.3
    got = evolve_schrodinger_exact(psi, SZ, t)
    np.testing.assert_allclose(got, [np.exp(-1j * t), 0.0], atol=1e-13)
    rng = np.random.default_rng(14)
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    h = rand_hermitian(rng, 3)
    out = evolve_schrodinger_exact(psi, h, 10.0)
    assert abs(np.linalg.norm(out) - np.linalg.norm(psi)) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=1e-3, max_value=0.5),
)
def test_exact_flow_stacked_over_times_matches_per_time(seed, n, step):
    rng = np.random.default_rng(seed)
    a0, h = rand_hermitian(rng, n), rand_hermitian(rng, n)
    times = np.arange(101) * step
    stacked = evolve_heisenberg_exact(a0, h, times)
    assert stacked.shape == (101, n, n)
    for t, state in zip(times, stacked):
        assert frobenius_norm(state - evolve_heisenberg_exact(a0, h, t)) <= 1e-13
