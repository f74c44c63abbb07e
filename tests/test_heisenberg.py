import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isospec_lag.heisenberg import (
    OperatorTangent,
    cartan_one_form_heisenberg,
    cartan_two_form_heisenberg,
    el_residual_heisenberg,
    evolve_heisenberg_exact,
    evolve_heisenberg_rk4,
    flatten_complex,
    heisenberg_rhs,
    lagrangian_heisenberg,
    lagrangian_heisenberg_chart,
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


@pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan, [0.0, np.nan, 1.0]],
                         ids=["inf", "-inf", "nan", "array"])
def test_exact_flow_rejects_a_non_finite_time(t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^t must be finite, got "):
            evolve_heisenberg_exact(SX, SZ, t)


@pytest.mark.parametrize("t", [1e308, -1e308, [0.0, 1e308, 1.0]], ids=["t", "-t", "array"])
def test_exact_flow_rejects_a_time_whose_phase_overflows(t):
    # t * 10 overflows: the flow would warn and then return NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^t times an eigenvalue of h must be finite, got "):
            evolve_heisenberg_exact(SX, np.diag([10.0, -10.0]), t)


def test_exact_flow_is_finite_wherever_the_propagator_is():
    # one phase per eigenvalue: t (w_j - w_i) = 2e308 would overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = evolve_heisenberg_exact(SX, SZ, 1e308)
    phase = np.exp(1j * 1e308) ** 2  # U^dag SX U with U = exp(-i t SZ)
    np.testing.assert_allclose(state, [[0, phase], [np.conj(phase), 0]], rtol=0, atol=1e-15)


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
    with pytest.raises(ValueError, match="hamiltonian is not Hermitian"):
        evolve_heisenberg_rk4(SX, np.array([[0, 1], [0, 0]]), 1.0, 1e-2)
    with pytest.raises(ValueError, match="step must be positive and finite"):
        evolve_heisenberg_rk4(SX, SZ, 1.0, 0.0)
    # a step longer than t_final is one shorter step, as on every kind's grid
    np.testing.assert_array_equal(evolve_heisenberg_rk4(SX, SZ, 0.5, 0.7).times, [0.0, 0.5])


def test_scenario_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match=r"^hamiltonian must have shape \(3, 3\), got \(2, 2\)$"):
        evolve_heisenberg_rk4(np.eye(3), SZ, 1.0, 1e-2)


def test_rk4_matches_exact_flow():
    traj = evolve_heisenberg_rk4(SX, SZ, 1.0, 1e-3)
    exact = evolve_heisenberg_exact(SX, SZ, 1.0)
    assert frobenius_norm(traj.final_state - exact) <= 1e-8
    assert traj.times[0] == 0.0
    assert abs(traj.times[-1] - 1.0) <= 1e-12


def test_rk4_constant_for_conserved_operators():
    traj = evolve_heisenberg_rk4(SZ, SZ, 1.0, 0.05)
    for state in traj.states:
        np.testing.assert_allclose(state, SZ, atol=1e-13)
    traj = evolve_heisenberg_rk4(SI, SZ, 1.0, 0.05)
    for state in traj.states:
        np.testing.assert_allclose(state, SI, atol=1e-13)


def test_rk4_fractional_last_step():
    traj = evolve_heisenberg_rk4(SX, SZ, 0.35, 0.1)
    np.testing.assert_allclose(traj.times, [0.0, 0.1, 0.2, 0.3, 0.35], atol=1e-12)
    exact = evolve_heisenberg_exact(SX, SZ, 0.35)
    assert frobenius_norm(traj.final_state - exact) <= 1e-4


def test_rk4_step_halving_ratio():
    h = rand_hermitian(np.random.default_rng(6), 3)
    a0 = rand_hermitian(np.random.default_rng(7), 3)
    exact = evolve_heisenberg_exact(a0, h, 1.0)
    errs = []
    for step in (0.05, 0.025):
        traj = evolve_heisenberg_rk4(a0, h, 1.0, step)
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


def test_lagrangian_takes_the_hermitian_part_of_h():
    # H's defect 8.5e-11 is within HERMITIAN_TOL, so H is accepted and its
    # anti-Hermitian part 3e-11 i sigma_x is projected away
    tangent = OperatorTangent(3 * np.array([[1, 2j], [0.5, -1]]), np.zeros((2, 2)))
    assert lagrangian_heisenberg(tangent, SZ + 3e-11j * SX) == lagrangian_heisenberg(tangent, SZ)
    assert lagrangian_heisenberg(tangent, SZ) == pytest.approx(67.5)


def test_lagrangian_is_real_valued():
    rng = np.random.default_rng(9)
    for _ in range(50):
        tangent = OperatorTangent(rand_complex(rng, 3), rand_complex(rng, 3))
        value = lagrangian_heisenberg(tangent, rand_hermitian(rng, 3))
        assert isinstance(value, float)


def matmul_lagrangian(a, ad, h):
    """The Lagrangian as matrix products and traces, the kernel's former form."""
    a_dag, ad_dag = a.conj().swapaxes(-1, -2), ad.conj().swapaxes(-1, -2)
    kinetic = 0.5j * np.trace(a_dag @ ad - ad_dag @ a, axis1=-2, axis2=-1)
    potential = np.trace(a @ h @ a_dag - a_dag @ h @ a, axis1=-2, axis2=-1)
    return (kinetic - potential).real


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=40),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
    st.booleans(),
)
def test_elementwise_kernel_agrees_with_matmul_traces(seed, n, stack, size, h_size, hermitian):
    rng = np.random.default_rng(seed)
    a = size * rng.standard_normal((stack, n, n)) + 1j * size * rng.standard_normal((stack, n, n))
    ad = rng.standard_normal((stack, n, n)) + 1j * rng.standard_normal((stack, n, n))
    if hermitian:  # else both are general complex matrices
        a, ad = (0.5 * (m + m.conj().swapaxes(-1, -2)) for m in (a, ad))
    h = h_size * rand_hermitian(rng, n)
    values = lagrangian_heisenberg_chart(h)(flatten_complex(a), flatten_complex(ad))
    norm_a = np.linalg.norm(a, axis=(-2, -1))
    scale = norm_a * (np.linalg.norm(ad, axis=(-2, -1)) + norm_a * np.linalg.norm(h))
    assert np.all(np.abs(values - matmul_lagrangian(a, ad, h)) <= 1e-13 * np.maximum(1.0, scale))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=300),
    st.data(),
)
def test_chart_kernel_rounds_each_row_alike_in_any_stack(seed, n, stack, data):
    """Equal, not close: the verifier's centered differences amplify rounding."""
    rng = np.random.default_rng(seed)
    a, ad = rng.standard_normal((2, stack, n, n)) + 1j * rng.standard_normal((2, stack, n, n))
    h = rand_hermitian(rng, n)
    evaluate = lagrangian_heisenberg_chart(h)
    q, v = flatten_complex(a), flatten_complex(ad)
    values = evaluate(q, v)
    assert values.shape == (stack,)
    np.testing.assert_array_equal(values, [evaluate(x.copy(), y.copy()) for x, y in zip(q, v)])
    cuts = sorted(data.draw(st.lists(st.integers(0, stack), max_size=4)))
    parts = [evaluate(x, y) for x, y in zip(np.split(q, cuts), np.split(v, cuts))]
    np.testing.assert_array_equal(values, np.concatenate(parts))


def test_chart_kernel_takes_array_like_hamiltonians():
    rng = np.random.default_rng(9)
    q, v = rng.standard_normal((2, 5, 8))
    h = [[1.0, 0.5], [0.5, -1.0]]
    np.testing.assert_array_equal(lagrangian_heisenberg_chart(h)(q, v),
                                  lagrangian_heisenberg_chart(np.array(h, dtype=complex))(q, v))


@pytest.mark.parametrize("h, match", [
    pytest.param(np.ones((2, 3)), r"^hamiltonian must be a square matrix, got shape \(2, 3\)$",
                 id="2x3"),
    pytest.param(np.ones(4), r"^hamiltonian must be a square matrix, got shape \(4,\)$",
                 id="vector"),
    pytest.param([[1, np.nan], [np.nan, -1]], "^hamiltonian contains non-finite entries$",
                 id="nan"),
    pytest.param([[np.inf, 0], [0, 1]], "^hamiltonian contains non-finite entries$", id="inf"),
])
def test_chart_kernel_checks_its_hamiltonian_when_built(h, match):
    # checked when the chart is built, so that no evaluation meets a bad H
    with pytest.raises(ValueError, match=match):
        lagrangian_heisenberg_chart(h)


THREE = np.eye(3)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: OperatorTangent(SX, THREE),
                 r"^velocity must have shape \(2, 2\), got \(3, 3\)$", id="tangent"),
    pytest.param(lambda: lagrangian_heisenberg(OperatorTangent(THREE, THREE), SZ),
                 r"^hamiltonian must have shape \(3, 3\), got \(2, 2\)$", id="lagrangian"),
    pytest.param(lambda: cartan_one_form_heisenberg(SX, THREE),
                 r"^v must have shape \(2, 2\), got \(3, 3\)$", id="one-form"),
    pytest.param(lambda: cartan_two_form_heisenberg(SX, THREE),
                 r"^v2 must have shape \(2, 2\), got \(3, 3\)$", id="two-form"),
    pytest.param(lambda: el_residual_heisenberg(OperatorTangent(THREE, THREE), SZ),
                 r"^hamiltonian must have shape \(3, 3\), got \(2, 2\)$", id="el-residual"),
])
def test_operator_forms_reject_a_dimension_mismatch(call, match):
    with pytest.raises(ValueError, match=match):
        call()


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


def test_el_residual_rejects_non_hermitian_h():
    # the dA coefficient carries the norm of the dA^dag one only for Hermitian H
    with pytest.raises(ValueError, match="hamiltonian is not Hermitian"):
        el_residual_heisenberg(OperatorTangent(SX, np.zeros((2, 2))), np.array([[0, 1], [0, 0]]))


def test_el_residual_with_finite_difference_velocity():
    h = 1e-4
    t = 0.4
    a_minus = evolve_heisenberg_exact(SX, SZ, t - h)
    a_mid = evolve_heisenberg_exact(SX, SZ, t)
    a_plus = evolve_heisenberg_exact(SX, SZ, t + h)
    v = (a_plus - a_minus) / (2 * h)
    assert el_residual_heisenberg(OperatorTangent(a_mid, v), SZ) <= 1e-6


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
