import numpy as np
import pytest
import scipy.linalg

from isospec_lag.heisenberg import (
    OperatorTangent,
    el_residual_heisenberg,
    evolve_heisenberg_exact,
    heisenberg_rhs,
    lagrangian_heisenberg,
    lagrangian_heisenberg_values,
)
from isospec_lag.operator_core import unitary_algebra_basis
from isospec_lag.unitary_orbit import UnitaryTangent, el_residual_unitary
from isospec_lag.verifier import (
    CoordinateLagrangian,
    SampledPath,
    chart_coordinates,
    el_residual_path,
    el_residual_unitary_path,
    flatten_complex,
    grad_q,
    grad_qdot,
    heisenberg_chart,
    operator_chart,
    path_from_matrices,
    unflatten_complex,
    verify_trajectory,
)

from conftest import SX, SZ, rand_complex, rand_hermitian, rand_unitary

FREE = CoordinateLagrangian(dim=2, evaluate=lambda q, qdot: 0.5 * float(qdot @ qdot))
HARMONIC = CoordinateLagrangian(
    dim=1, evaluate=lambda q, qdot: 0.5 * float(qdot @ qdot) - 0.5 * float(q @ q)
)


def line_path(n=11, dt=0.1):
    times = np.arange(n) * dt
    points = np.outer(times, [1.0, -2.0]) + np.array([0.3, 0.7])
    return SampledPath(times, points)


def cosine_path(dt, n=21):
    times = np.arange(n) * dt
    return SampledPath(times, np.cos(times)[:, None])


def test_gradients_of_bilinear_lagrangian():
    lag = CoordinateLagrangian(dim=3, evaluate=lambda q, qdot: float(q @ qdot))
    q = np.array([0.3, -1.2, 0.5])
    qdot = np.array([2.0, 0.1, -0.7])
    np.testing.assert_allclose(grad_q(lag, q, qdot), qdot, atol=1e-8)
    np.testing.assert_allclose(grad_qdot(lag, q, qdot), q, atol=1e-8)


def test_gradients_of_constant_lagrangian():
    lag = CoordinateLagrangian(dim=2, evaluate=lambda q, qdot: 4.2)
    np.testing.assert_allclose(grad_q(lag, np.ones(2), np.ones(2)), np.zeros(2))
    np.testing.assert_allclose(grad_qdot(lag, np.ones(2), np.ones(2)), np.zeros(2))


def test_gradient_of_kinetic_term():
    qdot = np.array([1.5, -0.25])
    got = grad_qdot(FREE, np.zeros(2), qdot)
    np.testing.assert_allclose(got, qdot, atol=1e-8)


def test_gradient_step_must_be_positive():
    with pytest.raises(ValueError):
        grad_q(FREE, np.zeros(2), np.zeros(2), h=0.0)
    with pytest.raises(ValueError):
        grad_qdot(FREE, np.zeros(2), np.zeros(2), h=-1e-5)


def test_chart_dimension_must_be_positive():
    with pytest.raises(ValueError):
        CoordinateLagrangian(dim=0, evaluate=lambda q, qdot: 0.0)


def test_sampled_path_validation():
    with pytest.raises(ValueError):
        SampledPath(np.arange(4.0), np.zeros((4, 1)))
    with pytest.raises(ValueError):
        SampledPath(np.array([0.0, 0.1, 0.25, 0.3, 0.4]), np.zeros((5, 1)))
    with pytest.raises(ValueError):
        SampledPath(np.array([0.0, 0.1, 0.05, 0.2, 0.3]), np.zeros((5, 1)))
    with pytest.raises(ValueError):
        SampledPath(np.arange(5.0), np.zeros((6, 1)))


def test_el_residual_path_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        el_residual_path(HARMONIC, line_path())


def test_free_particle_line_is_extremal():
    report = verify_trajectory(FREE, line_path(), tolerance=1e-8)
    assert report.passed
    assert report.max_residual <= 1e-8


def test_constant_path_passes_for_velocity_only_lagrangian():
    path = SampledPath(np.arange(7) * 0.1, np.tile([0.4, -0.9], (7, 1)))
    report = verify_trajectory(FREE, path, tolerance=1e-10)
    assert report.passed


def test_harmonic_cosine_is_extremal():
    report = verify_trajectory(HARMONIC, cosine_path(1e-3), tolerance=1e-5)
    assert report.passed
    assert report.max_residual <= 1e-5


def test_residual_rows_map_to_interior_samples():
    rows = el_residual_path(FREE, line_path(n=9))
    assert rows.shape == (5, 2)


def test_worst_index_points_at_perturbed_sample():
    times = np.arange(9) * 0.1
    points = np.outer(times, [1.0, -2.0])
    points[4] += 0.01
    report = verify_trajectory(FREE, SampledPath(times, points), tolerance=1e-8)
    assert not report.passed
    assert report.worst_index == 4


def test_residual_shrinks_quadratically_with_grid():
    coarse = verify_trajectory(HARMONIC, cosine_path(2e-3)).max_residual
    fine = verify_trajectory(HARMONIC, cosine_path(1e-3)).max_residual
    ratio = coarse / fine
    assert 3.0 <= ratio <= 5.0


def test_verification_report_is_deterministic():
    path = cosine_path(1e-3)
    first = verify_trajectory(HARMONIC, path)
    second = verify_trajectory(HARMONIC, path)
    assert first == second


def test_flatten_round_trip():
    rng = np.random.default_rng(10)
    m = rand_complex(rng, 3)
    v = flatten_complex(m)
    assert v.shape == (18,)
    np.testing.assert_array_equal(unflatten_complex(v, (3, 3)), m)


def test_heisenberg_chart_passes_on_exact_flow():
    times = np.arange(9) * 1e-3
    mats = [evolve_heisenberg_exact(SX, SZ, t) for t in times]
    report = verify_trajectory(heisenberg_chart(SZ), path_from_matrices(times, mats))
    assert report.passed
    assert report.max_residual <= 1e-3


def test_heisenberg_chart_fails_on_wrong_hamiltonian():
    h_wrong = 1.1 * SZ
    times = np.arange(9) * 1e-3
    mats = [evolve_heisenberg_exact(SX, h_wrong, t) for t in times]
    report = verify_trajectory(heisenberg_chart(SZ), path_from_matrices(times, mats))
    assert not report.passed
    # residual norm is 0.1 * ||[A, H]||_F doubled by the real chart
    assert 0.5 <= report.max_residual <= 0.65


def test_flat_chart_residual_matches_analytic_factor_two():
    h_wrong = 1.1 * SZ
    times = np.arange(9) * 1e-3
    mats = [evolve_heisenberg_exact(SX, h_wrong, t) for t in times]
    rows = el_residual_path(heisenberg_chart(SZ), path_from_matrices(times, mats))
    for i, row in enumerate(rows):
        a = mats[i + 2]
        tangent = OperatorTangent(a, heisenberg_rhs(a, h_wrong))
        analytic = el_residual_heisenberg(tangent, SZ)
        assert abs(np.linalg.norm(row) - 2 * analytic) <= 1e-3


def scalar_heisenberg_chart(h):
    """The Heisenberg chart without a stacked evaluator: one call per point."""
    n = h.shape[0]
    return operator_chart(n, lambda a, v: lagrangian_heisenberg(OperatorTangent(a, v), h))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_heisenberg_chart_matches_per_point_chart_exactly(n):
    """Equal, not close: the centered difference amplifies rounding by 1/(2h)."""
    rng = np.random.default_rng(20 + n)
    h = rand_hermitian(rng, n)
    h_flow = 1.05 * h  # off the extremal, so the residuals are not pure rounding
    a0 = rand_hermitian(rng, n)
    times = np.arange(11) * 1e-2
    path = path_from_matrices(times, [evolve_heisenberg_exact(a0, h_flow, t) for t in times])
    stacked = el_residual_path(heisenberg_chart(h), path)
    np.testing.assert_array_equal(stacked, el_residual_path(scalar_heisenberg_chart(h), path))
    assert np.max(np.abs(stacked)) > 1e-3


def test_reported_evaluation_counts_match_actual_calls():
    times = np.arange(9) * 1e-3
    path = path_from_matrices(times, [evolve_heisenberg_exact(SX, SZ, t) for t in times])
    chart = heisenberg_chart(SZ)
    points, calls = [], []

    def evaluate(q, qdot):
        points.append(1)
        return chart.evaluate(q, qdot)

    def evaluate_stack(qs, qdots):
        calls.append(len(qs))
        return chart.evaluate_stack(qs, qdots)

    stacked = verify_trajectory(
        CoordinateLagrangian(chart.dim, evaluate, evaluate_stack), path)
    per_point = verify_trajectory(CoordinateLagrangian(chart.dim, evaluate), path)
    # 2 dim bumps for dL/dqdot at samples 1..7, 2 dim more for dL/dq at 2..6
    assert stacked.lagrangian_evals == sum(calls) == 2 * 8 * (7 + 5)
    assert stacked.lagrangian_calls == len(calls) == 7
    assert per_point.lagrangian_evals == per_point.lagrangian_calls == len(points) == 2 * 8 * 12
    assert stacked.max_residual == per_point.max_residual


def nan_at_one_bump(q, qdot):
    """FREE's Lagrangian, but NaN wherever the first velocity was bumped up."""
    values = 0.5 * np.sum(qdot * qdot, axis=-1)
    return np.where(qdot[..., 0] > 1.0 + 1e-7, np.nan, values)


@pytest.mark.parametrize("stacked", [True, False])
def test_non_finite_bumped_value_raises(stacked):
    lag = CoordinateLagrangian(
        dim=2, evaluate=lambda q, qdot: float(nan_at_one_bump(q, qdot)),
        evaluate_stack=nan_at_one_bump if stacked else None,
    )
    with pytest.raises(ValueError, match=r"not finite \(grad_qdot \+\)"):
        el_residual_path(lag, line_path())


def test_heisenberg_chart_rejects_non_hermitian_hamiltonian():
    with pytest.raises(ValueError, match="not Hermitian"):
        heisenberg_chart(np.array([[0, 1], [0, 0]], dtype=complex))


def test_stacked_evaluation_checks_reality_over_the_batch():
    # the kernel trusts its caller to pass a Hermitian H; this one is not
    h_bad = np.array([[1, 1], [0, -1]], dtype=complex)

    def evaluate_stack(qs, qdots):
        a, v = unflatten_complex(qs, (2, 2)), unflatten_complex(qdots, (2, 2))
        return lagrangian_heisenberg_values(a, v, h_bad)

    lag = CoordinateLagrangian(dim=8, evaluate=lambda q, qdot: float(evaluate_stack(q, qdot)),
                               evaluate_stack=evaluate_stack)
    times = np.arange(9) * 1e-3
    path = path_from_matrices(times, [evolve_heisenberg_exact(SX, SZ, t) for t in times])
    with pytest.raises(ValueError, match="imaginary residue"):
        el_residual_path(lag, path)


def test_chart_coordinates_recover_coefficients():
    rng = np.random.default_rng(11)
    for n in (2, 3):
        basis = unitary_algebra_basis(n)
        center = rand_unitary(rng, n)
        coeffs = 0.02 * rng.standard_normal(n * n)
        u = center @ scipy.linalg.expm(sum(c * b for c, b in zip(coeffs, basis)))
        got = chart_coordinates(center, u, basis)
        np.testing.assert_allclose(got, coeffs, atol=1e-10)


def test_unitary_path_needs_five_samples():
    rng = np.random.default_rng(12)
    u = rand_unitary(rng, 2)
    sigma = np.diag([0.7, 0.3]).astype(complex)
    with pytest.raises(ValueError):
        el_residual_unitary_path(np.arange(4) * 0.1, [u] * 4, sigma, SZ)
    with pytest.raises(ValueError):
        el_residual_unitary_path(np.arange(5) * 0.1, [u] * 4, sigma, SZ)


def test_unitary_chart_vanishes_on_orbit_solution():
    rng = np.random.default_rng(13)
    u0 = rand_unitary(rng, 2)
    h = rand_hermitian(rng, 2)
    sigma = np.diag([0.7, 0.3]).astype(complex)
    times = np.arange(7) * 1e-3
    us = [u0 @ scipy.linalg.expm(-1j * t * h) for t in times]
    rows = el_residual_unitary_path(times, us, sigma, h)
    assert np.max(np.abs(rows)) <= 1e-4


def test_unitary_chart_matches_analytic_residual():
    rng = np.random.default_rng(14)
    u0 = rand_unitary(rng, 2)
    h = rand_hermitian(rng, 2)
    g = rand_hermitian(rng, 2)
    sigma = np.diag([0.7, 0.3]).astype(complex)
    times = np.arange(7) * 1e-3
    us = [u0 @ scipy.linalg.expm(-1j * t * g) for t in times]
    rows = el_residual_unitary_path(times, us, sigma, h)
    for i, row in enumerate(rows):
        t = times[i + 2]
        u = u0 @ scipy.linalg.expm(-1j * t * g)
        udot = u @ (-1j * g)
        analytic = el_residual_unitary(UnitaryTangent(u, udot), sigma, -h)
        np.testing.assert_allclose(row, analytic, atol=5e-4)
    assert np.max(np.abs(rows)) > 1e-2  # g != h, so the path is not extremal
