import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isospec_lag.trajectory import (
    GRID_SNAP,
    Trajectory,
    format_float,
    rk4_step,
    time_grid,
    write_csv,
    write_json,
)


def matrix_traj():
    times = np.array([0.0, 0.1, 0.2])
    states = np.array(
        [
            [[1.0, 0.0], [0.0, -1.0]],
            [[0.9, 0.1j], [-0.1j, -0.9]],
            [[0.8, 0.2j], [-0.2j, -0.8]],
        ],
        dtype=complex,
    )
    return Trajectory(times, states)


def test_headers_column_major_matrix():
    traj = matrix_traj()
    assert traj.headers() == [
        "A_re_0_0",
        "A_im_0_0",
        "A_re_1_0",
        "A_im_1_0",
        "A_re_0_1",
        "A_im_0_1",
        "A_re_1_1",
        "A_im_1_1",
    ]


def test_headers_vector_states():
    traj = Trajectory(
        np.array([0.0, 1.0]),
        np.array([[1.0, 2.0], [3.0, 4.0]]),
        name="q",
        column_names=("y", "r"),
    )
    assert traj.headers() == ["y", "r"]
    unnamed = Trajectory(np.array([0.0, 1.0]), np.array([[1.0, 2.0], [3.0, 4.0]]), name="q")
    assert unnamed.headers() == ["q_0", "q_1"]


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.zeros((3, 2, 2)))


def test_final_state_and_counts():
    traj = matrix_traj()
    assert traj.n_samples == 3
    np.testing.assert_array_equal(traj.final_state, traj.states[-1])


def test_format_float_round_trips():
    for x in (0.1, 1.0 / 3.0, -2.5e-17, 75.0 ** 0.25, 0.0):
        assert float(format_float(x)) == x


def test_write_csv_round_trip(tmp_path):
    traj = matrix_traj()
    path = tmp_path / "out.csv"
    write_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t," + ",".join(traj.headers())
    assert len(lines) == 1 + traj.n_samples
    for k, line in enumerate(lines[1:]):
        values = [float(tok) for tok in line.split(",")]
        assert values[0] == traj.times[k]
        flat = traj.states[k].flatten(order="F")
        np.testing.assert_array_equal(values[1::2], flat.real)
        np.testing.assert_array_equal(values[2::2], flat.imag)
    assert path.read_text().endswith("\n")


def test_write_csv_deterministic(tmp_path):
    traj = matrix_traj()
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_csv(traj, a)
    write_csv(traj, b)
    assert a.read_bytes() == b.read_bytes()


def test_write_json_structure(tmp_path):
    traj = Trajectory(
        np.array([0.0, 0.5]),
        np.array([[1.0, 2.0], [3.0, 4.0]]),
        name="q",
        column_names=("y", "r"),
    )
    path = tmp_path / "out.json"
    write_json(traj, path)
    payload = json.loads(path.read_text())
    assert payload["t"] == [0.0, 0.5]
    assert payload["columns"]["y"] == [1.0, 3.0]
    assert payload["columns"]["r"] == [2.0, 4.0]


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=1e-4, max_value=1.0),
    st.floats(min_value=0.0, max_value=50.0),
)
def test_time_grid_properties(step, t_final):
    times = time_grid(t_final, step)
    full_steps = math.ceil(t_final / step - 1e-9)
    assert len(times) == max(full_steps, t_final > 0) + 1
    assert times[0] == 0.0
    assert times[-1] == t_final
    gaps = np.diff(times)
    assert np.all(gaps > 0)
    if len(gaps):
        # k*step rounds to within half an ulp of t_final
        noise = 4 * np.spacing(t_final)
        np.testing.assert_allclose(gaps[:-1], step, rtol=0, atol=noise)
        assert gaps[-1] <= step * (1 + 2 * GRID_SNAP)
        if full_steps > 0:
            assert gaps[-1] > GRID_SNAP * step / 2


@pytest.mark.parametrize("t_final, step, rows, last_gap", [
    (0.0, 0.1, 1, None),
    (0.35, 0.1, 5, 0.05),
    (5.0, 1e-2, 501, 1e-2),
    (2.0, 1e-4, 20001, 1e-4),
    (1.0, 1e-3, 1001, 1e-3),
    (1.0 + 1e-13, 1e-3, 1001, 1e-3),
    (1e-20, 1e-3, 2, 1e-20),
])
def test_time_grid_has_no_sliver_row(t_final, step, rows, last_gap):
    times = time_grid(t_final, step)
    assert len(times) == rows
    assert times[-1] == t_final
    if last_gap is not None:
        assert times[-1] - times[-2] == pytest.approx(last_gap, rel=1e-9)


@pytest.mark.parametrize("t_final, step", [
    (1.0, 0.0), (1.0, -0.1), (1.0, math.nan), (1.0, math.inf),
    (-1.0, 0.1), (math.nan, 0.1), (math.inf, 0.1), (1e300, 1e-300),
])
def test_time_grid_rejects_bad_inputs(t_final, step):
    with pytest.raises(ValueError):
        time_grid(t_final, step)


def test_rk4_step_is_exact_on_cubic_time_flow():
    # dy/dt = f(y) with y = (t, t^3 / 3): f = (1, y0^2) is integrated exactly
    y = rk4_step(lambda y: np.array([1.0, y[0] ** 2]), np.array([0.5, 0.5**3 / 3]), 0.25)
    np.testing.assert_allclose(y, [0.75, 0.75**3 / 3], rtol=1e-15)
