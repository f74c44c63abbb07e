import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from isospec_lag.bloch import (
    FD_STEP,
    FLOW_T_MAX,
    BlochVector,
    OrbitTag,
    classify_orbit,
    conjugate_flow,
    density_from_bloch,
    flow_exponential,
    flow_generator,
    generator_frame,
    sb2c_flow_on_state,
    sb2c_generator,
    wedge_closed_form,
    wedge_closed_form_values,
    wedge_determinant,
    y_field,
)
from isospec_lag.operator_core import dagger
from isospec_lag.trajectory import time_grid

from conftest import SI, SX, SY, SZ, uniform_ball_sample

ORIGIN = BlochVector(0.0, 0.0, 0.0)
P = BlochVector(0.0, 0.0, 1.0)


def sphere_point(rng):
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    return BlochVector(*v)


def test_bloch_vector_validation():
    BlochVector(0.6, 0.0, 0.8)  # exactly on the sphere is allowed
    with pytest.raises(ValueError):
        BlochVector(1.0, 0.5, 0.0)
    assert BlochVector(0.3, 0.0, -0.4).norm == pytest.approx(0.5)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_bloch_vector_rejects_non_finite_components(axis, value):
    # a NaN norm compares False with 1, so the ball check alone let NaN through
    coords = [0.1, -0.2, 0.3]
    coords[axis] = value
    with pytest.raises(ValueError, match=r"^Bloch vector \(.*\) is not finite$"):
        BlochVector(*coords)


def test_density_round_trip():
    np.testing.assert_allclose(density_from_bloch(ORIGIN), SI / 2)
    np.testing.assert_allclose(density_from_bloch(P), np.diag([1.0, 0.0]))
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = uniform_ball_sample(rng)
        rho = density_from_bloch(x)
        assert abs(np.trace(rho).real - 1.0) <= 1e-14
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-14
        for k in (1, 2, 3):  # at t = 0 every flow is the identity
            m, back = conjugate_flow(k, 0.0, x.as_array())
            np.testing.assert_array_equal(m, rho)
            np.testing.assert_allclose(back, x.as_array(), atol=1e-12)


def test_y_field_reference_points():
    np.testing.assert_allclose(y_field(1, ORIGIN), [1.0, 0.0, 0.0])
    np.testing.assert_allclose(y_field(2, ORIGIN), [0.0, -1.0, 0.0])
    np.testing.assert_allclose(y_field(3, ORIGIN), [0.0, 0.0, 1.0])
    for k in (1, 2, 3):
        np.testing.assert_allclose(y_field(k, P), np.zeros(3), atol=1e-15)
    with pytest.raises(ValueError):
        y_field(4, ORIGIN)


def test_wedge_determinant_reference_values():
    assert wedge_determinant(ORIGIN) == pytest.approx(-1.0)
    assert wedge_determinant(BlochVector(0, 0, 0.5)) == pytest.approx(-3.0 / 16.0)


def test_wedge_closed_form_matches_determinant():
    rng = np.random.default_rng(1)
    for _ in range(500):
        x = uniform_ball_sample(rng)
        assert abs(wedge_determinant(x) - wedge_closed_form(x)) <= 1e-9


def test_wedge_vanishes_only_on_sphere():
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = sphere_point(rng)
        assert abs(wedge_determinant(x)) <= 1e-9
    for _ in range(200):
        # away from the sphere the determinant is bounded below:
        # |det| = (1-x3)^2 (1-r^2) >= 0.01 * 0.19 for r <= 0.9
        v = uniform_ball_sample(rng).as_array() * 0.9
        x = BlochVector(*v)
        assert abs(wedge_determinant(x)) > 1e-3


def test_classify_orbit():
    assert classify_orbit(P).tag is OrbitTag.FIXED_POINT_P
    rng = np.random.default_rng(3)
    assert classify_orbit(sphere_point(rng)).tag is OrbitTag.PURE_SPHERE
    cls = classify_orbit(BlochVector(0.1, -0.2, 0.3))
    assert cls.tag is OrbitTag.BULK
    assert cls.detail == pytest.approx(1 - BlochVector(0.1, -0.2, 0.3).norm)
    # within the classification tolerance of P
    assert classify_orbit(BlochVector(0.0, 0.0, 1.0 - 1e-10)).tag is OrbitTag.FIXED_POINT_P


def test_generators():
    np.testing.assert_array_equal(sb2c_generator(1), np.array([[0, 1], [0, 0]]))
    np.testing.assert_array_equal(sb2c_generator(2), np.array([[0, 1j], [0, 0]]))
    np.testing.assert_array_equal(sb2c_generator(3), np.diag([1.0, -1.0]))
    np.testing.assert_array_equal(flow_generator(1), sb2c_generator(1))
    np.testing.assert_array_equal(flow_generator(2), sb2c_generator(2))
    np.testing.assert_array_equal(flow_generator(3), sb2c_generator(3) / 2)
    with pytest.raises(ValueError):
        flow_generator(0)


def test_flow_identity_and_composition():
    rng = np.random.default_rng(4)
    for k in (1, 2, 3):
        x = uniform_ball_sample(rng)
        np.testing.assert_allclose(
            sb2c_flow_on_state(k, 0.0, x).as_array(), x.as_array(), atol=1e-14
        )
        one = sb2c_flow_on_state(k, 1.1, x)
        two = sb2c_flow_on_state(k, 0.4, sb2c_flow_on_state(k, 0.7, x))
        np.testing.assert_allclose(one.as_array(), two.as_array(), atol=1e-9)


def test_flow_fixes_p():
    for k in (1, 2, 3):
        for t in (0.5, 1.0, 5.0, -3.0):
            moved = sb2c_flow_on_state(k, t, P)
            assert np.linalg.norm(moved.as_array() - P.as_array()) <= 1e-9


def test_flow_preserves_ball_and_sphere():
    rng = np.random.default_rng(5)
    for k in (1, 2, 3):
        for t in (-5.0, -1.0, 1.0, 5.0):
            x = uniform_ball_sample(rng)
            assert sb2c_flow_on_state(k, t, x).norm <= 1.0 + 1e-9
            s = sphere_point(rng)
            assert abs(sb2c_flow_on_state(k, t, s).norm - 1.0) <= 1e-9


def test_flow_derivative_matches_field():
    rng = np.random.default_rng(6)
    h = 1e-5
    for k in (1, 2, 3):
        for _ in range(40):
            x = uniform_ball_sample(rng)
            fd = (
                sb2c_flow_on_state(k, h, x).as_array()
                - sb2c_flow_on_state(k, -h, x).as_array()
            ) / (2 * h)
            assert np.max(np.abs(fd - y_field(k, x))) <= 1e-6


def test_flow_axis_solution():
    # on the x3 axis the third flow reduces to x3' = 1 - x3^2
    x0 = BlochVector(0.0, 0.0, 0.5)
    for t in (0.3, 1.0, 2.5):
        got = sb2c_flow_on_state(3, t, x0)
        want = np.tanh(t + np.arctanh(0.5))
        assert got.x1 == pytest.approx(0.0, abs=1e-14)
        assert got.x2 == pytest.approx(0.0, abs=1e-14)
        assert got.x3 == pytest.approx(want, abs=1e-12)


def test_flows_preserve_determinant_not_spectrum():
    x0 = BlochVector(0.0, 0.0, 0.5)
    sigma = density_from_bloch(x0)
    det0 = np.linalg.det(sigma).real
    for k in (1, 2, 3):
        for t in np.linspace(-5.0, 5.0, 11):
            g = scipy.linalg.expm(t * flow_generator(k))
            det_t = np.linalg.det(g @ sigma @ dagger(g)).real
            assert abs(det_t - det0) <= 1e-10
    # yet the normalized state's spectrum moves
    before = np.linalg.eigvalsh(sigma)
    after = np.linalg.eigvalsh(density_from_bloch(sb2c_flow_on_state(3, 1.0, x0)))
    assert np.max(np.abs(after - before)) > 1e-3


def det_rates(arr):
    """Centered-difference t-derivatives at t = 0 of det(g_k sigma g_k^dag)."""
    dets = np.linalg.det([conjugate_flow(k, [FD_STEP, -FD_STEP], arr)[0] for k in (1, 2, 3)])
    return (dets[:, 0].real - dets[:, 1].real) / (2 * FD_STEP)


def test_flows_move_the_radius_but_not_the_determinant():
    # d(|x|^2)/dt = 2 x . Y_k(x): the flows leave the isospectral spheres
    # |x| = const at these rates, while det(g sigma g^dag) stays put
    arr = np.array([0.0, 0.0, 0.5])
    np.testing.assert_allclose(2 * generator_frame(arr) @ arr, [0.0, 0.0, 0.75], atol=1e-12)
    assert np.max(np.abs(det_rates(arr))) <= 1e-10
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = uniform_ball_sample(rng)
        r2 = x.norm**2
        want = (
            2 * x.x1 * (1 - r2),
            -2 * x.x2 * (1 - r2),
            2 * x.x3 * (1 - r2),
        )
        np.testing.assert_allclose(2 * generator_frame(x.as_array()) @ x.as_array(), want,
                                   atol=1e-9)
        assert np.max(np.abs(det_rates(x.as_array()))) <= 1e-8


def test_uniform_ball_sampler_stays_inside():
    rng = np.random.default_rng(8)
    points = [uniform_ball_sample(rng) for _ in range(500)]
    assert all(p.norm < 1.0 for p in points)
    mean = np.mean([p.as_array() for p in points], axis=0)
    assert np.linalg.norm(mean) < 0.1  # crude centering check


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.floats(min_value=-5.0, max_value=5.0))
def test_flow_exponential_matches_matrix_exponential(k, t):
    expected = scipy.linalg.expm(t * flow_generator(k))
    got = flow_exponential(k, t)
    assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)


def test_flow_exponential_rejects_bad_index():
    with pytest.raises(ValueError):
        flow_exponential(4, 1.0)


def test_flow_exponential_over_an_array_of_times():
    times = np.linspace(-3.0, 3.0, 13)
    for k in (1, 2, 3):
        stacked = flow_exponential(k, times)
        assert stacked.shape == (13, 2, 2)
        np.testing.assert_array_equal(stacked, [flow_exponential(k, t) for t in times])


def test_flow_exponential_stays_in_float_range():
    assert np.all(np.isfinite(flow_exponential(3, [-FLOW_T_MAX, FLOW_T_MAX])))
    for t in (FLOW_T_MAX * (1 + 1e-12), -800.0, math.nan):
        with pytest.raises(ValueError, match="float range"):
            flow_exponential(3, [0.0, t])


def ball_points(rng, count):
    return np.array([uniform_ball_sample(rng).as_array() for _ in range(count)])


def test_conjugate_flow_matches_per_point_reference():
    # reference: scipy expm of the generator at each time, numpy's products and
    # traces; times against points, the last of them the centre of the ball,
    # whose norm is 0 at t = 0, then the bloch runner's two shapes: its rate
    # check's two times against 127 rows, and its 5,001-time grid against one point
    rng = np.random.default_rng(14)
    cases = [
        (np.array([[-2.0], [-0.3], [0.0], [0.7], [4.0]]),
         np.vstack([ball_points(rng, 5), np.zeros(3)])),
        (np.array([[FD_STEP], [-FD_STEP]]), ball_points(rng, 127)),
        (time_grid(5.0, 1e-3), ball_points(rng, 1)[0]),
    ]
    for times, points in cases:
        sigma = 0.5 * (SI + np.tensordot(points, [SX, SY, SZ], axes=1))
        shape = np.broadcast_shapes(times.shape, points.shape[:-1])
        for k in (1, 2, 3):
            m, coords = conjugate_flow(k, times, points)
            assert m.shape == shape + (2, 2) and coords.shape == shape + (3,)
            g = scipy.linalg.expm(np.multiply.outer(times, flow_generator(k)))
            want = g @ sigma @ dagger(g)
            np.testing.assert_allclose(m, want, rtol=1e-13, atol=1e-15)
            rho = want / np.trace(want, axis1=-2, axis2=-1).real[..., np.newaxis, np.newaxis]
            comps = np.stack([np.trace(rho @ s, axis1=-2, axis2=-1).real for s in (SX, SY, SZ)],
                             axis=-1)
            np.testing.assert_allclose(coords, comps, atol=1e-13)
    times, points = cases[0]
    for k in (1, 2, 3):
        coords = conjugate_flow(k, times, points)[1]
        for i, t in enumerate(times[:, 0]):
            for j, x in enumerate(points):
                np.testing.assert_array_equal(
                    sb2c_flow_on_state(k, t, BlochVector(*x)).as_array(), coords[i, j])


def test_conjugate_flow_keeps_the_south_pole_at_tiny_trace():
    # the diagonal flow fixes the south pole and scales its state by e^-t
    times = np.array([40.0, 700.0])
    m, coords = conjugate_flow(3, times[:, np.newaxis], np.array([[0.0, 0.0, -1.0]]))
    np.testing.assert_allclose(np.trace(m, axis1=-2, axis2=-1).real[:, 0], np.exp(-times),
                               rtol=1e-13)
    np.testing.assert_array_equal(coords, [[[0.0, 0.0, -1.0]]] * 2)


def test_conjugate_flow_rejects_a_state_without_positive_trace():
    # points are not checked against the ball: [0, 0, -3] is diag(-1, 2), whose
    # trace 2 e^-t - e^t under the diagonal flow is negative at t = 1
    with pytest.raises(ValueError, match="^conjugated state has no positive finite trace$"):
        conjugate_flow(3, 1.0, [0.0, 0.0, -3.0])
    # within the ball's tolerance of P, e^t (1 + 5e-11) leaves float range at
    # FLOW_T_MAX: the product overflows without a warning, and the trace check raises
    with pytest.raises(ValueError, match="^conjugated state has no positive finite trace$"):
        conjugate_flow(3, FLOW_T_MAX, [0.0, 0.0, 1 + 1e-10])


def test_stacked_frame_matches_per_point_fields():
    rng = np.random.default_rng(15)
    points = [uniform_ball_sample(rng) for _ in range(20)]
    stack = np.array([x.as_array() for x in points])
    frames = generator_frame(stack)
    assert frames.shape == (20, 3, 3)
    for x, frame in zip(points, frames):
        np.testing.assert_array_equal(frame, [y_field(k, x) for k in (1, 2, 3)])
        assert np.linalg.det(frame) == wedge_determinant(x)
    np.testing.assert_array_equal(wedge_closed_form_values(stack),
                                  [wedge_closed_form(x) for x in points])


def test_vector_with_huge_component_is_outside_the_ball():
    with pytest.raises(ValueError, match="norm"):
        BlochVector(1e300, 0.0, 0.0)
