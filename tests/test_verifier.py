import functools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isospec_lag import verifier
from isospec_lag.heisenberg import (
    OperatorTangent,
    el_residual_heisenberg,
    evolve_heisenberg_exact,
    heisenberg_rhs,
    lagrangian_heisenberg,
    lagrangian_heisenberg_chart,
)
from isospec_lag.operator_core import commutator, unitary_algebra_basis
from isospec_lag.trajectory import exact_commutator_flow, time_grid
from isospec_lag.unitary_orbit import UnitaryTangent, el_residual_unitary, lagrangian_unitary
from isospec_lag.verifier import (
    chart_coordinates,
    el_residual_path,
    el_residual_unitary_path,
    flatten_complex,
    gradients,
    heisenberg_chart,
    refine,
    unitary_chart,
    verify_trajectory,
    verify_unitary_path,
)

from conftest import (
    SPECTRA,
    SX,
    SZ,
    euler_lagrange_system,
    hermitian_check_names,
    rand_antihermitian,
    rand_complex,
    rand_density,
    rand_density_and_stabilizer,
    rand_hermitian,
    rand_unitary,
)

def free(q, qdot):
    return 0.5 * np.sum(qdot * qdot, axis=-1)


def harmonic(q, qdot):
    return 0.5 * np.sum(qdot * qdot, axis=-1) - 0.5 * np.sum(q * q, axis=-1)


def line_path(n=11, dt=0.1):
    """times (n,) and points (n, 2) of a straight line, free's extremal."""
    times = np.arange(n) * dt
    return times, np.outer(times, [1.0, -2.0]) + np.array([0.3, 0.7])


def cosine_path(dt, n=21):
    """times (n,) and points (n, 1) of cos t, harmonic's extremal."""
    times = np.arange(n) * dt
    return times, np.cos(times)[:, None]


def test_gradients_of_bilinear_lagrangian():
    def lag(q, qdot):
        return np.sum(q * qdot, axis=-1)

    q = np.array([0.3, -1.2, 0.5])
    qdot = np.array([2.0, 0.1, -0.7])
    np.testing.assert_allclose(gradients(lag, q, qdot, wrt="q"), qdot, atol=1e-8)
    np.testing.assert_allclose(gradients(lag, q, qdot, wrt="qdot"), q, atol=1e-8)


def test_gradients_of_constant_lagrangian():
    def lag(q, qdot):
        return np.full(q.shape[:-1], 4.2)

    for wrt in ("q", "qdot"):
        np.testing.assert_allclose(gradients(lag, np.ones(2), np.ones(2), wrt=wrt), np.zeros(2))
    with pytest.raises(ValueError, match="unknown gradient 'p'"):
        gradients(lag, np.ones(2), np.ones(2), wrt="p")


@pytest.mark.parametrize("wrt", ["q", "qdot"])
def test_gradients_reject_a_velocity_of_another_shape(wrt):
    # same size, other shape: the velocities must not be re-paired with the points
    with pytest.raises(ValueError, match=r"^q has shape \(2, 3\) but qdot has shape \(3, 2\)$"):
        gradients(free, np.zeros((2, 3)), np.arange(6.0).reshape(3, 2), wrt)


@pytest.mark.parametrize("shape, text", [
    pytest.param((), r"\(\)", id="0-d"),
    pytest.param((0,), r"\(0,\)", id="no-coordinates"),
    pytest.param((3, 0), r"\(3, 0\)", id="stack-without-coordinates"),
])
def test_gradients_name_a_shape_without_coordinates(shape, text):
    with pytest.raises(ValueError, match=r"^need q and qdot of shape \(\.\.\., dim\) with dim >= 1, "
                                         rf"got {text}$"):
        gradients(free, np.zeros(shape), np.zeros(shape), "qdot")


def repeated_gradients(lagrangian, q, qdot, wrt):
    """gradients from one call on explicit (m 2 dim, dim) stacks of both arguments,
    the fixed one repeated for each of its point's 2 dim bumps."""
    h, (m, dim) = verifier.GRADIENT_STEP, q.shape
    bumps = h * np.concatenate([np.eye(dim), -np.eye(dim)])

    def bumped(x):
        return (x[:, np.newaxis] + bumps).reshape(-1, dim)

    def repeated(x):
        return np.repeat(x, 2 * dim, axis=0)

    if wrt == "q":
        values = lagrangian(bumped(q), repeated(qdot))
    else:
        values = lagrangian(repeated(q), bumped(qdot))
    values = values.reshape(m, 2, dim)
    return (values[:, 0] - values[:, 1]) / (2 * h)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), points=st.integers(1, 300), wrt=st.sampled_from(["q", "qdot"]),
       seed=st.integers(0, 2**32 - 1))
def test_broadcast_gradients_equal_explicitly_repeated_stacks(n, points, wrt, seed):
    # the chart sees the fixed argument once per point, (m, 1, dim), and must
    # round each bumped row exactly as it does on the repeated stack
    rng = np.random.default_rng(seed)
    chart = heisenberg_chart(rand_hermitian(rng, n))
    q, qdot = rng.standard_normal((2, points, 2 * n * n))
    np.testing.assert_array_equal(gradients(chart, q, qdot, wrt),
                                  repeated_gradients(chart, q, qdot, wrt))


@pytest.mark.parametrize("wrt", ["q", "qdot"])
@pytest.mark.parametrize("lead", [(), (5,), (4, 2)], ids=["point", "stack", "pairs"])
def test_gradients_keep_the_callers_leading_axes(lead, wrt):
    # a point is a stack of one; (k, 2, dim) reaches the Lagrangian as (k, 2, 2 dim, dim)
    # bumped and (k, 2, 1, dim) fixed, and each row rounds as in its own call
    dim, shapes = 3, []

    def recording(q, qdot):
        shapes.append((q.shape, qdot.shape))
        return bumpy_lagrangian(q, qdot)

    q, qdot = np.random.default_rng(28).standard_normal((2,) + lead + (dim,))
    got = gradients(recording, q, qdot, wrt)
    bumped, fixed = (lead or (1,)) + (2 * dim, dim), (lead or (1,)) + (1, dim)
    assert shapes == [(bumped, fixed) if wrt == "q" else (fixed, bumped)]
    assert got.shape == q.shape
    rows = [gradients(bumpy_lagrangian, x, v, wrt)
            for x, v in zip(q.reshape(-1, dim), qdot.reshape(-1, dim))]
    np.testing.assert_array_equal(got.reshape(-1, dim), rows)


def test_a_non_finite_value_names_its_point_in_a_stack_of_pairs():
    q, qdot = np.arange(12.0).reshape(2, 3, 2), np.zeros((2, 3, 2))
    qdot[1, 2, 0] = 1.0  # only this point's first velocity, bumped up, reads NaN
    with pytest.raises(ValueError, match=r"not finite \(dL/dqdot \+\) near q=\[10\. 11\.\]$"):
        gradients(nan_at_one_bump, q, qdot, "qdot")


@pytest.mark.parametrize("wrt", ["q", "qdot"])
def test_gradients_broadcast_a_lagrangian_of_one_argument(wrt):
    shapes = []

    def potential(q, qdot):  # reads q alone
        shapes.append(np.shape(q)[:-1])
        return np.sum(np.sin(q), axis=-1)

    q, qdot = np.random.default_rng(25).standard_normal((2, 5, 3))
    got = gradients(potential, q, qdot, wrt)
    if wrt == "q":
        assert shapes == [(5, 6)]
        np.testing.assert_allclose(got, np.cos(q), rtol=0, atol=1e-9)
    else:  # one value per point, broadcast over the bumps of qdot
        assert shapes == [(5, 1)]
        np.testing.assert_array_equal(got, np.zeros((5, 3)))


@pytest.mark.parametrize("wrt", ["q", "qdot"])
def test_gradients_name_values_that_do_not_broadcast(wrt):
    # one value per point, as a Lagrangian of the one-shape contract sizes it by len(q)
    with pytest.raises(ValueError, match=r"^Lagrangian returned values of shape \(3,\), "
                                         r"need \(3, 4\) or \(3, 1\)$"):
        gradients(lambda q, v: np.zeros(len(q)), np.zeros((3, 2)), np.zeros((3, 2)), wrt)


@pytest.mark.parametrize("dim", [1, 3, 8])
def test_bumps_are_built_once_read_only_with_the_same_bits(dim):
    bumps = verifier._bumps(dim)
    expected = verifier.GRADIENT_STEP * np.concatenate([np.eye(dim), -np.eye(dim)])
    assert verifier._bumps(dim) is bumps
    assert not bumps.flags.writeable
    np.testing.assert_array_equal(bumps, expected)
    np.testing.assert_array_equal(np.signbit(bumps), np.signbit(expected))  # -0.0 kept
    with pytest.raises(ValueError, match="read-only"):
        bumps[0, 0] = 1.0


@pytest.mark.parametrize("wrt", ["q", "qdot"])
def test_a_lagrangian_that_writes_its_arguments_leaves_the_next_gradient_alone(wrt):
    def scribbler(q, qdot):  # harmonic, then overwrites both arguments in place
        values = harmonic(q, qdot)
        q[...] = 7.0
        qdot[...] = -3.0
        return values

    q, qdot = np.random.default_rng(26).standard_normal((2, 4, 3))
    expected = gradients(harmonic, q, qdot, wrt)
    gradients(scribbler, q.copy(), qdot.copy(), wrt)
    np.testing.assert_array_equal(gradients(harmonic, q, qdot, wrt), expected)


def overwrite_both(q, qdot):
    """A Lagrangian that writes 9.0 into both of its arguments and returns zeros."""
    q[...] = qdot[...] = 9.0
    return np.zeros((len(q), 1))


@pytest.mark.parametrize("wrt", ["q", "qdot"])
def test_gradients_leave_the_callers_arrays_alone(wrt):
    # the argument held fixed is a copy, as the bumped one is a fresh array
    q, qdot = np.zeros((3, 2)), np.ones((3, 2))
    gradients(overwrite_both, q, qdot, wrt)
    np.testing.assert_array_equal(q, np.zeros((3, 2)))
    np.testing.assert_array_equal(qdot, np.ones((3, 2)))


def test_el_residual_path_leaves_the_callers_points_alone():
    points = np.random.default_rng(27).standard_normal((9, 2))
    before = points.copy()
    el_residual_path(overwrite_both, np.arange(9.0), points)
    assert points.tobytes() == before.tobytes()


def test_gradient_of_kinetic_term():
    qdot = np.array([1.5, -0.25])
    got = gradients(free, np.zeros(2), qdot, wrt="qdot")
    np.testing.assert_allclose(got, qdot, atol=1e-8)


def test_chart_dimension_must_be_positive():
    # the chart's dimension is the width of the points; zero width is no chart
    with pytest.raises(ValueError, match="need points"):
        el_residual_path(free, np.arange(5.0), np.zeros((5, 0)))


def test_sampled_path_validation():
    with pytest.raises(ValueError, match="N >= 5"):
        el_residual_path(free, np.arange(4.0), np.zeros((4, 1)))
    with pytest.raises(ValueError, match="uniform"):
        el_residual_path(free, np.array([0.0, 0.1, 0.25, 0.3, 0.4]), np.zeros((5, 1)))
    with pytest.raises(ValueError, match="increasing"):
        el_residual_path(free, np.array([0.0, 0.1, 0.05, 0.2, 0.3]), np.zeros((5, 1)))
    with pytest.raises(ValueError, match="N >= 5"):
        el_residual_path(free, np.arange(5.0), np.zeros((6, 1)))
    # points that are not one row per sample are no path
    for points in (np.zeros(5), np.zeros((5, 1, 1))):
        with pytest.raises(ValueError, match="need points"):
            el_residual_path(free, np.arange(5.0), points)
    # NaN and inf fail every comparison, so they must not slip through as uniform
    for bad in ([0.0, 0.1, np.nan, 0.3, 0.4, 0.5], [np.nan, 0.1, 0.2, 0.3, 0.4],
                [0.0, np.nan, 0.2, 0.3, 0.4], [0.0, 0.1, 0.2, 0.3, np.inf],
                [-np.inf, 0.1, 0.2, 0.3, 0.4], [0.0, np.inf, 0.2, 0.3, 0.4]):
        with pytest.raises(ValueError):
            el_residual_path(free, np.array(bad), np.zeros((len(bad), 1)))
    # the gaps of a linspace grid round by up to half an ulp of its largest
    # time, 1.1e-12 of its step here; a gap off by 1e-9 of the step is no rounding
    times = np.linspace(0, 1, 10001)
    assert el_residual_path(free, times, np.zeros((len(times), 1))).shape == (len(times) - 4, 1)
    times[5000:] += 1e-9 * 1e-4
    with pytest.raises(ValueError, match="uniform"):
        el_residual_path(free, times, np.zeros((len(times), 1)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("sample", [0, 4, 8])
def test_non_finite_path_sample_is_named(value, sample):
    # the sample itself, not the Lagrangian near a neighbouring point
    times, points = line_path(n=9)
    points[sample, 1] = value
    for check in (el_residual_path, verify_trajectory):
        with pytest.raises(ValueError, match=f"^path sample {sample} is not finite$"):
            check(free, times, points)


def test_heisenberg_chart_rejects_points_of_another_width():
    # the chart of a 2 x 2 H takes points of width 8; the width is the points'
    times, points = line_path(n=9)
    message = ("^the chart of a 2x2 hamiltonian has width 8, "
               "got points of width {} and velocities of width {}$")
    with pytest.raises(ValueError, match=message.format(2, 2)):
        el_residual_path(heisenberg_chart(SZ), times, points)
    with pytest.raises(ValueError, match=message.format(8, 2)):
        heisenberg_chart(SZ)(np.zeros((3, 8)), np.zeros((3, 2)))
    with pytest.raises(ValueError, match=message.format(8, 6)):
        heisenberg_chart(SZ)([0.0] * 8, [0.0] * 6)


def test_heisenberg_chart_takes_sequences():
    chart = heisenberg_chart(np.diag([1.0, -1.0]))
    q, v = np.random.default_rng(27).standard_normal((2, 3, 8))
    assert chart([0.0] * 8, [0.0] * 8) == 0.0
    np.testing.assert_array_equal(chart(q.tolist(), v.tolist()), chart(q, v))
    np.testing.assert_array_equal(chart(q[0].tolist(), tuple(v[0])), chart(q[0], v[0]))


def test_free_particle_line_is_extremal():
    report = verify_trajectory(free, *line_path())
    assert report.max_residual <= 1e-8


def test_constant_path_passes_for_velocity_only_lagrangian():
    report = verify_trajectory(free, np.arange(7) * 0.1, np.tile([0.4, -0.9], (7, 1)))
    assert report.max_residual <= 1e-10


def test_harmonic_cosine_is_extremal():
    report = verify_trajectory(harmonic, *cosine_path(1e-3))
    assert report.max_residual <= 1e-5


def test_residual_rows_map_to_interior_samples():
    rows = el_residual_path(free, *line_path(n=9))
    assert rows.shape == (5, 2)


def test_worst_index_points_at_perturbed_sample():
    times = np.arange(9) * 0.1
    points = np.outer(times, [1.0, -2.0])
    points[4] += 0.01
    report = verify_trajectory(free, times, points)
    assert report.max_residual > 1e-8
    assert report.worst_index == 4


def test_residual_shrinks_quadratically_with_grid():
    coarse = verify_trajectory(harmonic, *cosine_path(2e-3)).max_residual
    fine = verify_trajectory(harmonic, *cosine_path(1e-3)).max_residual
    ratio = coarse / fine
    assert 3.0 <= ratio <= 5.0


def test_refine_ratio_on_a_harmonic_cosine():
    times, points = cosine_path(1e-3, n=41)
    fine, coarse, ratio = refine(functools.partial(verify_trajectory, harmonic), times, points)
    assert fine == verify_trajectory(harmonic, times, points)
    assert coarse == verify_trajectory(harmonic, times[::2], points[::2])
    assert ratio == coarse.max_residual / fine.max_residual
    assert 3.0 <= ratio <= 5.0


def test_refine_measures_no_ratio_on_a_stationary_path():
    check = functools.partial(verify_trajectory, harmonic)
    fine, coarse, ratio = refine(check, np.arange(9) * 0.1, np.zeros((9, 2)))
    assert ratio is None
    assert fine.max_residual < 1e-12 and coarse.max_residual < 1e-12


def test_refine_needs_nine_samples():
    check = functools.partial(verify_trajectory, harmonic)
    with pytest.raises(ValueError, match="^verify needs at least 9 grid samples"):
        refine(check, *cosine_path(1e-2, n=8))
    fine, coarse, ratio = refine(check, *cosine_path(1e-2, n=9))
    # the coarse pass keeps 5 samples, the stencil's one interior row
    assert coarse.worst_index == 2 and 2 <= fine.worst_index <= 6
    assert ratio is not None


def test_verification_report_is_deterministic():
    path = cosine_path(1e-3)
    first = verify_trajectory(harmonic, *path)
    second = verify_trajectory(harmonic, *path)
    assert first == second


def test_flatten_round_trip():
    # the chart layout: real parts, then imaginary parts, each row-major
    rng = np.random.default_rng(10)
    m = rand_complex(rng, 3)
    v = flatten_complex(m)
    assert v.shape == (18,)
    np.testing.assert_array_equal(v[:9] + 1j * v[9:], m.ravel())
    stack = np.array([m, rand_complex(rng, 3)])
    np.testing.assert_array_equal(flatten_complex(stack), [v, flatten_complex(stack[1])])


def test_heisenberg_chart_passes_on_exact_flow():
    times = np.arange(9) * 1e-3
    mats = [evolve_heisenberg_exact(SX, SZ, t) for t in times]
    report = verify_trajectory(heisenberg_chart(SZ), times, flatten_complex(mats))
    assert report.max_residual <= 1e-3


def test_heisenberg_chart_fails_on_wrong_hamiltonian():
    h_wrong = 1.1 * SZ
    times = np.arange(9) * 1e-3
    mats = [evolve_heisenberg_exact(SX, h_wrong, t) for t in times]
    report = verify_trajectory(heisenberg_chart(SZ), times, flatten_complex(mats))
    assert report.max_residual > 1e-3
    # residual norm is 0.1 * ||[A, H]||_F doubled by the real chart
    assert 0.5 <= report.max_residual <= 0.65


def test_flat_chart_residual_matches_analytic_factor_two():
    h_wrong = 1.1 * SZ
    times = np.arange(9) * 1e-3
    mats = [evolve_heisenberg_exact(SX, h_wrong, t) for t in times]
    rows = el_residual_path(heisenberg_chart(SZ), times, flatten_complex(mats))
    for i, row in enumerate(rows):
        a = mats[i + 2]
        tangent = OperatorTangent(a, heisenberg_rhs(a, h_wrong))
        analytic = el_residual_heisenberg(tangent, SZ)
        assert abs(np.linalg.norm(row) - 2 * analytic) <= 1e-3


@pytest.mark.parametrize("n", [2, 3, 4])
def test_exact_flow_residual_norms_tie_across_interior_samples(n):
    """The exact flow A(t) = U(t)^dagger A0 U(t) is a conjugation, which keeps
    each interior residual's norm: with A0 and H of unit spectral norm, as
    the benchmark's verify configs draw them, the 97 norms on 101 samples
    agree to 1e-3, so which sample is worst is a matter of rounding.  A
    1e-6 move of one sample's first coordinate breaks the tie."""

    def unit_hermitian(rng):
        h = rand_hermitian(rng, n)
        return h / np.linalg.norm(h, 2)

    def spread(points):
        norms = np.linalg.norm(el_residual_path(chart, times, points), axis=1)
        return norms.max() / norms.min() - 1

    times = time_grid(1, 1e-2)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a0, h = unit_hermitian(rng), unit_hermitian(rng)
        chart = lagrangian_heisenberg_chart(h)
        points = flatten_complex(exact_commutator_flow(a0, h, -1, times))
        assert len(el_residual_path(chart, times, points)) == 97
        assert spread(points) <= 1e-3, seed
        points[50, 0] += 1e-6
        assert spread(points) > 1e-3, seed


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-1.0, 2.0),
       h_norm=st.floats(0.1, 10.0), dt=st.floats(1e-3, 3e-2), samples=st.integers(9, 60))
def test_flat_chart_rows_are_the_analytic_residual_at_the_stencil_velocity(
        n, seed, log_scale, h_norm, dt, samples):
    # L is quadratic, so the +-h differences are exact but for rounding: on any
    # path, row k is 2 flatten([A_k, H] - i V_k), V_k the centred velocity
    rng = np.random.default_rng(seed)
    coefficients = 10.0**log_scale * np.array([rand_complex(rng, n) for _ in range(4)])
    h = rand_hermitian(rng, n)
    h *= h_norm / np.linalg.norm(h, 2)
    times = np.arange(samples) * dt
    path = sum(np.multiply.outer(times**k, c) for k, c in enumerate(coefficients))
    q = flatten_complex(path)
    rows = el_residual_path(heisenberg_chart(h), times, q)
    a, v = path[2:-2], (path[3:-1] - path[1:-3]) / (2 * dt)
    expected = 2 * flatten_complex(a @ h - h @ a - 1j * v)
    q_max, v_max = np.max(np.abs(q)), np.max(np.abs(q[2:] - q[:-2])) / (2 * dt)
    rounding = (np.finfo(float).eps * q.shape[1] * (q_max**2 * h_norm + q_max * v_max)
                / (verifier.GRADIENT_STEP * dt))
    np.testing.assert_allclose(rows, expected, rtol=0, atol=rounding)


def scalar_heisenberg_chart(h):
    """The Heisenberg chart through lagrangian_heisenberg, one point at a time."""
    n = h.shape[0]

    def matrix(x):  # inverse of flatten_complex on one point
        return (x[:n * n] + 1j * x[n * n:]).reshape(n, n)

    def value(x, y):
        return lagrangian_heisenberg(OperatorTangent(matrix(x), matrix(y)), h)

    return np.vectorize(value, signature="(d),(d)->()")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_heisenberg_chart_matches_per_point_chart_exactly(n):
    """Equal, not close: the centered difference amplifies rounding by 1/(2h)."""
    rng = np.random.default_rng(20 + n)
    h = rand_hermitian(rng, n)
    h_flow = 1.05 * h  # off the extremal, so the residuals are not pure rounding
    a0 = rand_hermitian(rng, n)
    times = np.arange(11) * 1e-2
    points = flatten_complex([evolve_heisenberg_exact(a0, h_flow, t) for t in times])
    stacked = el_residual_path(heisenberg_chart(h), times, points)
    np.testing.assert_array_equal(stacked,
                                  el_residual_path(scalar_heisenberg_chart(h), times, points))
    assert np.max(np.abs(stacked)) > 1e-3


@pytest.mark.parametrize("n", [2, 3, 4])
def test_strided_points_give_the_rows_of_a_contiguous_copy(n):
    # the verify runner's coarse pass hands over flatten_complex(states)[::2],
    # a view; 101 samples take 2/3/4 dL/dqdot calls at n = 2/3/4
    rng = np.random.default_rng(60 + n)
    h = rand_hermitian(rng, n)
    times = np.arange(201) * 1e-2
    a0 = rand_hermitian(rng, n)
    points = flatten_complex(evolve_heisenberg_exact(a0, 1.05 * h, times))[::2]
    copy = np.ascontiguousarray(points)
    assert not points.flags.c_contiguous
    chart = heisenberg_chart(h)
    np.testing.assert_array_equal(el_residual_path(chart, times[::2], points),
                                  el_residual_path(chart, times[::2], copy))
    assert verify_trajectory(chart, times[::2], points) == verify_trajectory(chart, times[::2],
                                                                             copy)


def evaluated_rows(q, qdot):
    """The rows a call evaluates: its broadcast shape without the last axis."""
    return int(np.prod(np.broadcast_shapes(np.shape(q), np.shape(qdot))[:-1]))


def counted_verification(n, samples):
    """verify_trajectory on an n x n Heisenberg path, with each call's size."""
    h = np.diag(np.arange(n) - 0.5).astype(complex)
    times = np.arange(samples) * 1e-3
    a0 = rand_hermitian(np.random.default_rng(n), n)
    points = flatten_complex(evolve_heisenberg_exact(a0, h, times))
    chart = heisenberg_chart(h)
    calls = []

    def evaluate(qs, qdots):
        calls.append(evaluated_rows(qs, qdots))
        return chart(qs, qdots)

    report = verify_trajectory(evaluate, times, points)
    dim = 2 * n * n
    assert report.lagrangian_evals == sum(calls) == 2 * dim * ((samples - 2) + (samples - 4))
    assert report.lagrangian_calls == len(calls)
    return calls


def test_reported_evaluation_counts_match_actual_calls():
    # 2 dim bumps for dL/dqdot at samples 1..7 in one call, 2 dim more for
    # dL/dq at 2..6 in another
    assert counted_verification(2, 9) == [2 * 8 * 7, 2 * 8 * 5]


@pytest.mark.parametrize("n, samples, calls_made", [
    (2, 70, [1024, 64, 1024, 32]),  # 64 samples to a call at dim 8
    (4, 9, [256, 192, 256, 64]),  # 4 samples to a call at dim 32
])
def test_long_paths_split_into_bounded_calls(n, samples, calls_made):
    calls = counted_verification(n, samples)
    assert calls == calls_made
    assert max(calls) * 2 * n * n <= verifier.COORDINATES_PER_CALL


def bumpy_lagrangian(q, qdot):
    """Neither quadratic nor separable, so every bump moves the value."""
    return np.sum(np.sin(q) * qdot ** 3 + np.cos(q * qdot), axis=-1) + np.sum(q, axis=-1) ** 2


def per_sample_residuals(lag, times, points):
    """el_residual_path as a loop of one gradients call per sample."""
    dt = times[1] - times[0]
    velocities = (points[2:] - points[:-2]) / (2 * dt)
    momenta = np.array([gradients(lag, q, v, wrt="qdot")
                        for q, v in zip(points[1:-1], velocities)])
    forces = np.array([gradients(lag, q, v, wrt="q")
                       for q, v in zip(points[2:-2], velocities[1:-1])])
    return (momenta[2:] - momenta[:-2]) / (2 * dt) - forces


# 64 samples to a call at dim 8 and 4 at dim 32: the first two examples fill
# their last dL/dqdot, then dL/dq, call exactly; the others end with a call of
# a single sample
@example(dim=8, samples=2 + 64, seed=0)
@example(dim=8, samples=4 + 64, seed=0)
@example(dim=8, samples=2 + 65, seed=0)
@example(dim=32, samples=4 + 3, seed=0)
@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 32), samples=st.integers(5, 400), seed=st.integers(0, 2**32 - 1))
def test_chunked_residuals_equal_per_sample_loop(dim, samples, seed):
    rng = np.random.default_rng(seed)
    times = 0.3 + np.arange(samples) * 1e-2
    points = np.cumsum(rng.normal(scale=0.1, size=(samples, dim)), axis=0)
    np.testing.assert_array_equal(el_residual_path(bumpy_lagrangian, times, points),
                                  per_sample_residuals(bumpy_lagrangian, times, points))


def nan_at_one_bump(q, qdot):
    """free's Lagrangian, but NaN wherever the first velocity was bumped up."""
    values = 0.5 * np.sum(qdot * qdot, axis=-1)
    return np.where(qdot[..., 0] > 1.0 + 1e-7, np.nan, values)


def test_non_finite_bumped_value_raises():
    with pytest.raises(ValueError, match=r"not finite \(dL/dqdot \+\)"):
        el_residual_path(nan_at_one_bump, *line_path())


def test_heisenberg_chart_rejects_non_hermitian_hamiltonian():
    with pytest.raises(ValueError, match="not Hermitian"):
        heisenberg_chart(np.array([[0, 1], [0, 0]], dtype=complex))


def test_stacked_kernel_reads_the_hermitian_part_of_h():
    # an anti-Hermitian part of H adds only imaginary parts to the traces
    rng = np.random.default_rng(24)
    for n in (2, 3, 4):
        a, ad = (rng.standard_normal((2, 64, n, n)) + 1j * rng.standard_normal((2, 64, n, n)))
        h = rand_complex(rng, n)
        q, v = flatten_complex(a), flatten_complex(ad)
        want = lagrangian_heisenberg_chart((h + h.conj().T) / 2)(q, v)
        np.testing.assert_allclose(lagrangian_heisenberg_chart(h)(q, v), want,
                                   rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


def cayley(x):
    """cay(x) = (I - x/2)^-1 (I + x/2), independently of the package."""
    eye = np.eye(x.shape[-1])
    return scipy.linalg.solve(eye - x / 2, eye + x / 2)


def test_chart_coordinates_recover_coefficients():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4):
        basis = unitary_algebra_basis(n)
        center = rand_unitary(rng, n)
        coeffs = 0.02 * rng.standard_normal(n * n)
        u = center @ cayley(sum(c * b for c, b in zip(coeffs, basis)))
        got = chart_coordinates(center, u, basis)
        np.testing.assert_allclose(got, coeffs, atol=1e-12)


@pytest.mark.parametrize("angles", [[0.3, np.pi - 0.3], [2.5, 1.0, -0.4], [3.0, -3.0, 0.0, 1.5]])
def test_chart_coordinates_cover_the_cayley_domain(angles):
    # eigenvalues e^(i theta) of u_center^dag u anywhere on the circle but -1,
    # including a pair mirrored across the imaginary axis (equal sin theta):
    # cay maps X = V diag(2i tan(theta/2)) V^dag onto them
    rng = np.random.default_rng(16)
    n = len(angles)
    basis = unitary_algebra_basis(n)
    v, center = rand_unitary(rng, n), rand_unitary(rng, n)
    w = (v * np.exp(1j * np.array(angles))) @ v.conj().T
    x = (v * (2j * np.tan(np.array(angles) / 2))) @ v.conj().T
    want = [np.trace(b.conj().T @ x).real for b in basis]
    got = chart_coordinates(center, center @ w, basis)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


def test_chart_coordinates_broadcast_over_stacks():
    rng = np.random.default_rng(17)
    basis = unitary_algebra_basis(3)
    centers = np.array([rand_unitary(rng, 3) for _ in range(4)])
    us = centers[:, np.newaxis] @ np.array([cayley(0.1 * rand_antihermitian(rng, 3))
                                             for _ in range(5)])
    got = chart_coordinates(centers[:, np.newaxis], us, basis)
    assert got.shape == (4, 5, 9)
    for i, j in np.ndindex(4, 5):
        np.testing.assert_allclose(got[i, j], chart_coordinates(centers[i], us[i, j], basis),
                                   rtol=0, atol=1e-14)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       spectrum=st.sampled_from(["random", "repeated", "close"]),
       scale=st.floats(1e-3, 3.0), log_gap=st.floats(-16.0, -5.0))
def test_unitary_chart_matches_scipy_frechet(n, seed, spectrum, scale, log_gap):
    # X = i theta I repeats one eigenvalue n times; "close" puts two of
    # them 10^log_gap apart, below and above 1e-8
    rng = np.random.default_rng(seed)
    basis = unitary_algebra_basis(n)
    lam = scale * rng.standard_normal(n)
    if spectrum == "repeated":
        lam[:] = lam[0]
    elif spectrum == "close" and n > 1:
        lam[1] = lam[0] + 10.0**log_gap
    v = rand_unitary(rng, n)
    x = (v * (1j * lam)) @ v.conj().T
    q = np.array([np.trace(b.conj().T @ x).real for b in basis])
    qdot = rng.standard_normal(n * n)
    qdot /= np.linalg.norm(qdot)
    e = sum(c * b for c, b in zip(qdot, basis))
    u_center, sigma = rand_unitary(rng, n), rand_density(rng, n)
    h = rand_hermitian(rng, n)
    h /= np.linalg.norm(h)
    got = unitary_chart(u_center, sigma, h)(q, qdot)
    # the Frechet derivative of cay along e is Y^-1 e Y^-1, Y = I - x/2 ...
    y = np.eye(n) - x / 2
    frechet = scipy.linalg.solve(y, scipy.linalg.solve(y.T, e.T).T)
    # ... which a central difference of cay along e confirms to its O(step^2) error
    step = 1e-5
    central = (cayley(x + step * e) - cayley(x - step * e)) / (2 * step)
    np.testing.assert_allclose(frechet, central, rtol=0, atol=1e-8)
    want = lagrangian_unitary(UnitaryTangent(u_center @ cayley(x), u_center @ frechet), sigma, h)
    # both terms of the Lagrangian are O(1) here, so the floor is relative to them
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unitary_chart_evaluates_stacks(n):
    # one stacked call agrees with k single-point calls; the stacked inverse
    # and matmuls may round differently, so equality is to 1e-13
    rng = np.random.default_rng(30 + n)
    h = rand_hermitian(rng, n)
    chart = unitary_chart(rand_unitary(rng, n), rand_density(rng, n), h / np.linalg.norm(h))
    qs = 0.5 * rng.standard_normal((40, n * n))
    qdots = rng.standard_normal((40, n * n))
    stacked = chart(qs, qdots)
    assert stacked.shape == (40,)
    per_point = [chart(q, v) for q, v in zip(qs, qdots)]
    np.testing.assert_allclose(stacked, per_point, rtol=0, atol=1e-13)
    # points and velocities broadcast: each point against the first 5 velocities
    grid = chart(qs[:, np.newaxis], qdots[:5])
    assert grid.shape == (40, 5)
    np.testing.assert_allclose(grid, [[chart(q, v) for v in qdots[:5]] for q in qs],
                               rtol=0, atol=1e-13)


def test_unitary_path_needs_five_samples():
    rng = np.random.default_rng(12)
    u = rand_unitary(rng, 2)
    sigma = np.diag([0.7, 0.3]).astype(complex)
    with pytest.raises(ValueError):
        el_residual_unitary_path(np.arange(4) * 0.1, [u] * 4, sigma, SZ)
    with pytest.raises(ValueError):
        el_residual_unitary_path(np.arange(5) * 0.1, [u] * 4, sigma, SZ)
    with pytest.raises(ValueError, match="unitaries"):
        el_residual_unitary_path(np.arange(5) * 0.1, [u[:1]] * 5, sigma, SZ)
    with pytest.raises(ValueError, match="uniform: gap 2"):
        el_residual_unitary_path(np.array([0, 0.1, 0.2, 0.35, 0.4]), [u] * 5, sigma, SZ)


NEITHER = np.array([[1.0, 1.0], [0.0, 1.0]])  # neither Hermitian nor unitary


@pytest.mark.parametrize("bad, value, match", [
    pytest.param("u_center", NEITHER, "u_center", id="u_center"),
    pytest.param("sigma", NEITHER, "sigma", id="sigma"),
    pytest.param("hamiltonian", NEITHER, "hamiltonian", id="hamiltonian"),
    # the chart takes sqrt(sigma), which a state's positive semidefinite sigma has
    pytest.param("sigma", np.diag([1.5, -0.5]), "sigma is not positive semidefinite",
                 id="sigma-indefinite"),
])
def test_unitary_chart_validates_its_inputs_at_construction(bad, value, match):
    # the chart evaluates through an unchecked kernel, so a bad input must
    # raise when the chart is built, before any evaluation
    args = {"u_center": np.eye(2), "sigma": np.diag([0.7, 0.3]), "hamiltonian": SZ}
    args[bad] = value
    with pytest.raises(ValueError, match=match):
        unitary_chart(args["u_center"], args["sigma"], args["hamiltonian"])


def test_unitary_path_checks_sigma_and_hamiltonian_once(monkeypatch):
    names = hermitian_check_names(monkeypatch)
    rng = np.random.default_rng(15)
    u0, h = rand_unitary(rng, 2), rand_hermitian(rng, 2)
    sigma = np.diag([0.7, 0.3]).astype(complex)
    times = np.arange(11) * 1e-3
    us = [u0 @ scipy.linalg.expm(-1j * t * h) for t in times]
    assert el_residual_unitary_path(times, us, sigma, h).shape == (7, 4)
    assert names == ["sigma", "hamiltonian"]
    # every sample is checked unitary, the first and last two too, which no
    # chart is centred on
    for bad in (0, 1, 5, 9, 10):
        scaled = list(us)
        scaled[bad] = 1.1 * us[bad]
        with pytest.raises(ValueError, match=f"unitary sample {bad} is not unitary"):
            el_residual_unitary_path(times, scaled, sigma, h)


def test_unitary_path_builds_the_basis_once(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return unitary_algebra_basis(n)

    monkeypatch.setattr(verifier, "unitary_algebra_basis", counting)
    rng = np.random.default_rng(16)
    u0, h = rand_unitary(rng, 2), rand_hermitian(rng, 2)
    times = np.arange(11) * 1e-3
    us = [u0 @ scipy.linalg.expm(-1j * t * h) for t in times]
    assert el_residual_unitary_path(times, us, np.diag([0.7, 0.3]), h).shape == (7, 4)
    assert calls == [2]
    unitary_chart(us[2], np.diag([0.7, 0.3]), h)
    assert calls == [2, 2]


def orbit_setup(n, samples, seed):
    """times, the flow u(t) = u0 exp(-iHt) sampled on them, sigma and a unit-norm H."""
    rng = np.random.default_rng(seed)
    h = rand_hermitian(rng, n)
    h /= np.linalg.norm(h)
    times = np.arange(samples) * 1e-2
    us = rand_unitary(rng, n) @ np.array([scipy.linalg.expm(-1j * t * h) for t in times])
    return times, us, rand_density(rng, n), h


@pytest.mark.parametrize("n", [2, 3, 4])
def test_an_orbit_extremal_refines_at_ratio_four(n):
    # u(t) = u0 exp(-iHt) is an extremal for every sigma, so halving the grid
    # quarters the largest residual row: within 0.05 of 4, beyond the rows'
    # rounding noise.  That noise is read on the same grid from the flow of
    # H = I, whose exact rows vanish: ~2e-9, set by the 1e-5 difference step
    # over dt = 1e-2.  It moves the ratio of a draw with 2.7e-8 rows to 3.90.
    for seed in range(5):
        times, us, _, h = orbit_setup(n, 101, seed=60 + seed)
        weights = np.random.default_rng(seed).random(n) + 0.1
        sigma = np.diag(weights / weights.sum())
        fine, _, ratio = refine(functools.partial(verify_unitary_path, sigma=sigma, hamiltonian=h),
                                times, us)
        still = us[0] * np.exp(-1j * times)[:, np.newaxis, np.newaxis]
        noise_fine, noise_coarse, _ = refine(functools.partial(
            verify_unitary_path, sigma=sigma, hamiltonian=np.eye(n)), times, still)
        slack = (noise_coarse.max_residual + 4 * noise_fine.max_residual) / fine.max_residual
        assert abs(ratio - 4) <= 0.05 + slack, seed


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), spectrum=st.sampled_from(SPECTRA))
def test_the_orbit_lagrangian_has_the_stabilizer_of_sigma_as_gauge(n, seed, spectrum):
    # s(t) = exp(i phi(t) D) with [D, sigma] = 0 leaves rho = u^dag sigma u
    # unchanged and moves L by the total derivative -phi' Tr(sigma D): s(t) u(t)
    # is an extremal whenever u(t) is.  A generator that does not commute with
    # sigma moves rho, and its path is no extremal.
    rng = np.random.default_rng(seed)
    sigma, d = rand_density_and_stabilizer(rng, n, spectrum)
    h = rand_hermitian(rng, n)
    h /= np.linalg.norm(h)
    times = time_grid(0.4, 1e-2)
    phi = 3 * np.sin(2 * times) + times**2
    flow = rand_unitary(rng, n) @ np.array([scipy.linalg.expm(-1j * t * h) for t in times])

    def gauged(generator):
        return np.array([scipy.linalg.expm(1j * p * generator) for p in phi]) @ flow

    check = functools.partial(verify_unitary_path, sigma=sigma, hamiltonian=h)
    assert 3.5 <= refine(check, times, gauged(d))[2] <= 4.5
    assert 0.9 <= refine(check, times, gauged(rand_hermitian(rng, n)))[2] <= 1.1


def significant_rank(omega) -> int:
    """Singular values of omega above 1e-6 of the largest."""
    singular = np.linalg.svd(omega, compute_uv=False)
    return int(np.sum(singular > 1e-6 * singular[0]))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), spectrum=st.sampled_from(SPECTRA))
def test_the_orbit_lagrangian_determines_the_flow_up_to_the_stabilizer(n, seed, spectrum):
    # the chart Lagrangian is linear in qdot, so its Euler-Lagrange system at u0
    # is Omega qdot = dL/dq: Omega's kernel is the stabilizer of rho = u0^dag
    # sigma u0, of dimension sum m_k^2 over the multiplicities of sigma's
    # spectrum, and every solution moves rho at -i [rho, H], not at lvn's +i
    rng = np.random.default_rng(seed)
    sigma, d = rand_density_and_stabilizer(rng, n, spectrum)
    u0 = rand_unitary(rng, n)
    h = rand_hermitian(rng, n)
    h /= np.linalg.norm(h)
    omega, force = euler_lagrange_system(unitary_chart(u0, sigma, h), np.zeros(n * n))
    multiplicities = [1] * n if spectrum == "distinct" else [1, n - 1]
    assert significant_rank(omega) == n * n - sum(m * m for m in multiplicities)
    largest = np.linalg.norm(omega, 2)

    basis = unitary_algebra_basis(n)
    gauge = np.einsum("jab,ab->j", basis.conj(), 1j * u0.conj().T @ d @ u0).real
    assert np.linalg.norm(omega @ gauge) <= 1e-6 * largest * np.linalg.norm(gauge)

    qdot = np.linalg.lstsq(omega, force, rcond=1e-6)[0]
    rho = u0.conj().T @ sigma @ u0
    rho_dot = commutator(rho, np.tensordot(qdot, basis, 1))
    flow = -1j * commutator(rho, h)
    assert np.linalg.norm(rho_dot - flow) <= 1e-6 * np.linalg.norm(flow)
    assert np.linalg.norm(rho_dot + flow) >= np.linalg.norm(flow)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_the_operator_lagrangian_determines_the_heisenberg_flow(n, seed):
    # on the operator chart Omega has full rank: one velocity, -i [A, H]
    rng = np.random.default_rng(seed)
    a = rand_hermitian(rng, n)
    h = rand_hermitian(rng, n)
    h /= np.linalg.norm(h)
    omega, force = euler_lagrange_system(heisenberg_chart(h), flatten_complex(a))
    assert significant_rank(omega) == 2 * n * n
    want = flatten_complex(heisenberg_rhs(a, h))
    assert np.linalg.norm(np.linalg.solve(omega, force) - want) <= 1e-6 * np.linalg.norm(want)


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e200])
def test_orbit_inputs_name_the_first_bad_unitary(value):
    # one check serves three entry points: NaN, inf and overflow fail it as a
    # large defect does, with no floating-point warning
    times, us, sigma, h = orbit_setup(2, 9, seed=19)
    us[[4, 6], 0, 1] = value
    for path_check in (el_residual_unitary_path, verify_unitary_path):
        with pytest.raises(ValueError, match="^unitary sample 4 is not unitary$"):
            path_check(times, us, sigma, h)
    with pytest.raises(ValueError, match="^u_center is not unitary$"):
        unitary_chart(us[4], sigma, h)


def test_orbit_inputs_name_the_shape_of_the_unitaries():
    times, us, sigma, h = orbit_setup(2, 9, seed=19)
    for path_check in (el_residual_unitary_path, verify_unitary_path):
        with pytest.raises(ValueError,
                           match=r"^need unitaries \(N, n, n\), got shape \(2, 2\)$"):
            path_check(times, us[0], sigma, h)
    with pytest.raises(ValueError, match=r"^need u_center \(n, n\), got shape \(9, 2, 2\)$"):
        unitary_chart(us, sigma, h)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_rows_match_a_chart_per_window(n):
    # the residual at each sample from its own chart and five-sample path,
    # built from the public pieces
    times, us, sigma, h = orbit_setup(n, 41, seed=40 + n)
    basis = unitary_algebra_basis(n)
    want = [el_residual_path(unitary_chart(us[m], sigma, h), times[m - 2:m + 3],
                             chart_coordinates(us[m], us[m - 2:m + 3], basis))[0]
            for m in range(2, len(times) - 2)]
    got = el_residual_unitary_path(times, us, sigma, h)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)


@pytest.mark.parametrize("n, samples, blocks", [
    (2, 11, 1), (2, 401, 4),  # 128 windows to a block at n = 2
    (4, 11, 1), (4, 401, 50),  # 8 windows to a block at n = 4
])
def test_unitary_path_splits_into_bounded_calls(monkeypatch, n, samples, blocks):
    calls = []
    chart = verifier._unitary_chart

    def counting(*args):
        lag = chart(*args)

        def evaluate(q, qdot):
            calls.append(evaluated_rows(q, qdot))
            return lag(q, qdot)

        return evaluate

    monkeypatch.setattr(verifier, "_unitary_chart", counting)
    times, us, sigma, h = orbit_setup(n, samples, seed=50)
    assert len(el_residual_unitary_path(times, us, sigma, h)) == samples - 4
    # 2 samples of 2 n^2 bumps for dL/dqdot and 1 for dL/dq in each window
    assert sum(calls) == 6 * n * n * (samples - 4)
    assert len(calls) == 2 * blocks
    assert max(calls) * n * n <= verifier.COORDINATES_PER_CALL


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_orbit_check_reports_its_rows_and_evaluations(monkeypatch, n):
    # 2328 / 5238 / 9312 evaluations in 2 / 8 / 26 calls at n = 2 / 3 / 4
    times, us, sigma, h = orbit_setup(n, 101, seed=60)
    norms = np.linalg.norm(el_residual_unitary_path(times, us, sigma, h), axis=1)
    calls = []
    chart = verifier.lagrangian_heisenberg_chart

    def counting(hamiltonian):
        lag = chart(hamiltonian)

        def evaluate(q, qdot):
            calls.append(evaluated_rows(q, qdot))
            return lag(q, qdot)

        return evaluate

    monkeypatch.setattr(verifier, "lagrangian_heisenberg_chart", counting)
    report = verify_unitary_path(times, us, sigma, h)
    windows = len(times) - 4
    assert report.lagrangian_evals == sum(calls) == 6 * n * n * windows
    assert report.lagrangian_calls == len(calls) == 2 * math.ceil(
        windows / max(1, 8192 // (4 * n**4)))
    assert report.max_residual == np.max(norms)
    assert report.worst_index == np.argmax(norms) + 2


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
        analytic = el_residual_unitary(UnitaryTangent(u, udot), sigma, h)
        np.testing.assert_allclose(row, analytic, atol=5e-4)
    assert np.max(np.abs(rows)) > 1e-2  # g != h, so the path is not extremal
