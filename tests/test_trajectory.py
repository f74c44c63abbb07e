import json
import logging
import math
import os
import re
import signal
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isospec_lag import trajectory
from isospec_lag.heisenberg import evolve_heisenberg_exact
from isospec_lag.trajectory import (
    CSV_BLOCK_ROWS,
    GRID_SNAP,
    Trajectory,
    exact_commutator_flow,
    format_float,
    rk4_commutator_trajectory,
    stream_csv,
    time_grid,
    write_csv,
    write_json,
)

from isospec_lag.unitary_orbit import evolve_lvn_exact

from conftest import (assert_no_child_left, count_forks, fail_in, force_split, rand_complex,
                      rand_density, rand_hermitian, rand_unitary, rk4_step)


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


def test_column_names_must_be_strings():
    # write_json writes each name as a JSON string key
    with pytest.raises(TypeError):
        Trajectory(np.array([0.0]), np.zeros((1, 2)), column_names=("y", 1))


@pytest.mark.parametrize("shape, names", [
    pytest.param((3, 2), ("a",), id="fewer"),
    pytest.param((3, 2), ("a", "b", "c"), id="more"),
    pytest.param((3, 2, 2), ("a", "b"), id="matrices"),
])
def test_column_names_must_match_the_columns(shape, names):
    # write_csv would write a header of another width, write_json drop a column
    want = f"^{len(names)} column names for states of shape {re.escape(str(shape))}$"
    with pytest.raises(ValueError, match=want):
        Trajectory(np.arange(3.0), np.zeros(shape), column_names=names)


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


def reference_csv(traj, path):
    """The per-value writer that write_csv must match byte for byte."""
    lines = [",".join(["t"] + traj.headers())]
    for t, row in zip(traj.times.tolist(), traj.table()):
        lines.append(",".join(map(repr, [t] + row.tolist())))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def stream_rows(traj, path):
    """Write traj's CSV as sb2c's CLI run does: where the table splits, its
    rows go to stream_csv in blocks of CSV_BLOCK_ROWS rows and then the
    rest, possibly none; else write_csv writes it."""
    table = traj.table()
    if not trajectory.splits(traj.n_samples * (table.shape[1] + 1)):
        return write_csv(traj, path)
    flat, block = table.ravel().tolist(), CSV_BLOCK_ROWS * table.shape[1]
    with stream_csv(path, traj.times.tolist(), traj.headers()) as send:
        for start in range(0, len(flat) + 1, block):
            send(flat[start:start + block])


def reference_json(traj, path):
    """The json.dump writer that write_json must match byte for byte."""
    columns = dict(zip(traj.headers(), traj.table().T.tolist()))
    doc = {"t": traj.times.tolist(), "columns": columns}
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310,
                  1e-300, 1e300, -1e300)
SB2C_COLUMNS = ("y", "r", "x")
BLOCH_COLUMNS = tuple(f"f{k}_x{i}" for k in (1, 2, 3) for i in (1, 2, 3))


#: How a drawn write may run: as it would (None), split into two processes
#: at any size, or at any size but without ``os.fork`` or a second CPU.
SPLITS = (None, "fork", "no fork", "one cpu")


@settings(max_examples=60, deadline=None)
@given(
    layout=st.sampled_from([1, 2, 3, 4, ("y",), SB2C_COLUMNS, BLOCH_COLUMNS,
                            ("b", "a\u00e9\"", "b")]),
    rows=st.sampled_from([0, 1, 2, 7, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                          CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 1]),
    seed=st.integers(0, 2**32 - 1),
    specials=st.lists(st.sampled_from(SPECIAL_FLOATS), max_size=12),
    split=st.sampled_from(SPLITS),
)
@example(layout=2, rows=3, seed=0, specials=[math.nan, math.inf, -math.inf, -0.0, 5e-324],
         split=None)
@example(layout=SB2C_COLUMNS, rows=0, seed=1, specials=[], split=None)
@example(layout=BLOCH_COLUMNS, rows=CSV_BLOCK_ROWS + 1, seed=2, specials=[1e-300, 1e300],
         split=None)
@example(layout=SB2C_COLUMNS, rows=0, seed=3, specials=[], split="fork")
@example(layout=1, rows=1, seed=4, specials=[math.nan, -0.0], split="fork")
@example(layout=2, rows=2, seed=5, specials=[math.inf, -math.inf, 5e-324], split="fork")
@example(layout=BLOCH_COLUMNS, rows=2 * CSV_BLOCK_ROWS + 1, seed=6,
         specials=[math.nan, math.inf, -math.inf, -0.0, -2.5e-310], split="fork")
# the narrowest row template, t and one column
@example(layout=("y",), rows=CSV_BLOCK_ROWS + 1, seed=9,
         specials=[math.nan, math.inf, -math.inf, -0.0, 5e-324], split=None)
# each process renders one full block
@example(layout=SB2C_COLUMNS, rows=2 * CSV_BLOCK_ROWS, seed=10,
         specials=[math.nan, -0.0, -2.5e-310], split="fork")
# 16,929 floats: split unforced where a second CPU is usable
@example(layout=4, rows=2 * CSV_BLOCK_ROWS + 1, seed=11, specials=[math.nan, -0.0], split=None)
@example(layout=3, rows=CSV_BLOCK_ROWS + 1, seed=7, specials=[], split="no fork")
@example(layout=3, rows=CSV_BLOCK_ROWS + 1, seed=8, specials=[], split="one cpu")
def test_writers_match_their_references_byte_for_byte(layout, rows, seed, specials, split):
    # special values land at random cells of the states and the times
    rng = np.random.default_rng(seed)
    times = np.arange(rows) * 1e-3
    if isinstance(layout, int):
        shape = (rows, layout, layout)
        states = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        traj = Trajectory(times, states)
        values = states.view(float).reshape(-1)
    else:
        states = rng.standard_normal((rows, len(layout))) * 10.0 ** rng.integers(-20, 20)
        traj = Trajectory(times, states, name="q", column_names=layout)
        values = traj.states.reshape(-1)
    if rows:
        for x in specials:
            target = values if rng.integers(4) else traj.times
            target[rng.integers(len(target))] = x
    # a table in two or more pieces is split when able to and forced to, or
    # unforced from PARALLEL_MIN_FLOATS floats on (513 rows at n = 4); a
    # stream forks whatever its number of rows
    pieces = {write_csv: -(-rows // CSV_BLOCK_ROWS), write_json: len(set(traj.headers())) + 1,
              stream_rows: 2}
    widths = {write_csv: traj.table().shape[1] + 1, write_json: pieces[write_json],
              stream_rows: traj.table().shape[1] + 1}
    large = {write: rows * width >= trajectory.PARALLEL_MIN_FLOATS and trajectory._can_split()
             for write, width in widths.items()}
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        forks = count_forks(mp)
        if split is not None:
            force_split(mp)
        if split == "no fork":
            mp.delattr(os, "fork")
        if split == "one cpu":
            mp.setattr(os, "sched_getaffinity", lambda pid: {0})
        new, ref = Path(tmp) / "new", Path(tmp) / "ref"
        for write, reference in ((write_csv, reference_csv), (write_json, reference_json),
                                 (stream_rows, reference_csv)):
            forks.clear()
            write(traj, new)
            reference(traj, ref)
            assert new.read_bytes() == ref.read_bytes(), write.__name__
            splits = split == "fork" or (split is None and large[write])
            assert len(forks) == (splits and pieces[write] > 1), write.__name__
    assert_no_child_left()


def split_traj(rows=2 * CSV_BLOCK_ROWS + 1):
    rng = np.random.default_rng(rows)
    return Trajectory(np.arange(rows) * 1e-3, rng.standard_normal((rows, 2, 2)) + 0j)


@pytest.mark.parametrize("write, renderer", [(write_csv, "_csv_block"), (write_json, "_json_member"),
                                             (stream_rows, "_csv_block")])
def test_a_failing_child_raises_oserror_and_is_reaped(tmp_path, monkeypatch, write, renderer):
    force_split(monkeypatch)
    monkeypatch.setattr(trajectory, renderer, fail_in("child", getattr(trajectory, renderer)))
    with pytest.raises(OSError, match="exited with status 1"):
        write(split_traj(), tmp_path / "out")
    assert_no_child_left()


@pytest.mark.parametrize("write, renderer", [(write_csv, "_csv_block"), (write_json, "_json_member")])
def test_a_failing_parent_still_reaps_the_child(tmp_path, monkeypatch, write, renderer):
    force_split(monkeypatch)
    monkeypatch.setattr(trajectory, renderer, fail_in("parent", getattr(trajectory, renderer)))
    forks = count_forks(monkeypatch)
    with pytest.raises(RuntimeError, match="planted failure in the parent"):
        write(split_traj(), tmp_path / "out")
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("write", [write_csv, write_json])
def test_an_output_directory_raises_before_any_fork(tmp_path, monkeypatch, write):
    force_split(monkeypatch)
    forks = count_forks(monkeypatch)
    with pytest.raises(IsADirectoryError):
        write(split_traj(), tmp_path)
    assert forks == []


@pytest.mark.parametrize("write, reference", [(write_csv, reference_csv),
                                              (write_json, reference_json)])
def test_a_process_that_ignores_sigchld_writes_serially(tmp_path, monkeypatch, write, reference):
    # the kernel would reap the child, and its exit status would be lost
    force_split(monkeypatch)
    forks = count_forks(monkeypatch)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        write(split_traj(), tmp_path / "new")
    finally:
        signal.signal(signal.SIGCHLD, previous)
    reference(split_traj(), tmp_path / "ref")
    assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes()
    assert forks == []


@pytest.mark.parametrize("write", [write_csv, write_json, stream_rows])
def test_a_split_write_lets_no_warning_escape(tmp_path, monkeypatch, write):
    # Python 3.12+ warns on a fork from a multi-threaded process; the
    # writer ignores exactly that warning, and nothing else escapes
    force_split(monkeypatch)
    forks = count_forks(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            write(split_traj(), tmp_path / "out")
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert len(forks) == 1
    assert [str(w.message) for w in caught] == []


def test_each_write_logs_its_shape_and_path(tmp_path, monkeypatch, caplog):
    caplog.set_level(logging.DEBUG, logger="isospec_lag.trajectory")
    traj = split_traj()
    write_csv(traj, tmp_path / "serial.csv")
    force_split(monkeypatch)
    write_json(traj, tmp_path / "split.json")
    stream_rows(traj, tmp_path / "streamed.csv")
    lines = [r.getMessage() for r in caplog.records]
    assert len(lines) == 3
    assert re.fullmatch(r"wrote csv .*serial\.csv: 513 x 9, 4617 floats, serial, \d+\.\d{4} s",
                        lines[0])
    assert re.fullmatch(r"wrote json .*split\.json: 513 x 9, 4617 floats, split, \d+\.\d{4} s",
                        lines[1])
    assert re.fullmatch(r"wrote csv .*streamed\.csv: 513 x 9, 4617 floats, streamed, "
                        r"\d+\.\d{4} s", lines[2])


@pytest.mark.parametrize("write, reference", [(write_csv, reference_csv),
                                              (write_json, reference_json)])
@pytest.mark.parametrize("cpus, mode", [(None, "serial"), (1, "serial"), (2, "split")])
def test_without_an_affinity_list_the_cpu_count_decides(tmp_path, monkeypatch, caplog, write,
                                                        reference, cpus, mode):
    # hosts such as macOS have no os.sched_getaffinity; os.cpu_count may be None
    caplog.set_level(logging.DEBUG, logger="isospec_lag.trajectory")
    monkeypatch.setattr(trajectory, "PARALLEL_MIN_FLOATS", 0)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    forks = count_forks(monkeypatch)
    write(split_traj(), tmp_path / "new")
    reference(split_traj(), tmp_path / "ref")
    assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes()
    [line] = [r.getMessage() for r in caplog.records]
    assert f" floats, {mode}, " in line
    assert len(forks) == (mode == "split")
    assert_no_child_left()


@pytest.mark.parametrize("write, reference", [(write_csv, reference_csv),
                                              (write_json, reference_json)])
@pytest.mark.parametrize("rows, layout, floats, splits", [
    (5001, SB2C_COLUMNS, 20_004, True),  # an sb2c run of t = 5, step 1e-3
    (1001, 2, 9_009, False),  # a heisenberg run of t = 1, step 1e-3 at n = 2
])
def test_the_split_threshold_lies_between_the_cli_tables(tmp_path, caplog, write, reference,
                                                         rows, layout, floats, splits):
    caplog.set_level(logging.DEBUG, logger="isospec_lag.trajectory")
    rng = np.random.default_rng(rows)
    times = np.arange(rows) * 1e-3
    if isinstance(layout, int):
        traj = Trajectory(times, rng.standard_normal((rows, layout, layout)) + 0j)
    else:
        traj = Trajectory(times, rng.standard_normal((rows, len(layout))), name="q",
                          column_names=layout)
    write(traj, tmp_path / "new")
    reference(traj, tmp_path / "ref")
    assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes()
    mode = "split" if splits and trajectory._can_split() else "serial"
    [line] = [r.getMessage() for r in caplog.records]
    assert f", {floats} floats, {mode}, " in line
    assert_no_child_left()


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
    (-1.0, 0.1), (math.nan, 0.1), (math.inf, 0.1), (1e300, 1e-300), (1e17, 1.0),
])
def test_time_grid_rejects_bad_inputs(t_final, step):
    with pytest.raises(ValueError):
        time_grid(t_final, step)


def test_rk4_step_is_exact_on_cubic_time_flow():
    # dy/dt = f(y) with y = (t, t^3 / 3): f = (1, y0^2) is integrated exactly
    y = rk4_step(lambda y: np.array([1.0, y[0] ** 2]), np.array([0.5, 0.5**3 / 3]), 0.25)
    np.testing.assert_allclose(y, [0.75, 0.75**3 / 3], rtol=1e-15)


def rk4_loop(y0, h, sign, times, step):
    """The reference for rk4_commutator_trajectory: rk4_step on
    sign * i [y, h], one step at a time over the grid."""
    states = [y0]
    for k in range(1, len(times)):
        dt = step if k < len(times) - 1 else times[-1] - times[-2]
        states.append(rk4_step(lambda y: sign * 1j * (y @ h - h @ y), states[-1], dt))
    return np.array(states)


def oracle_hamiltonian(spectrum, n, rng):
    """Unit-norm Hermitian (n, n) matrix: random, the identity, or the
    repeated spectrum (1, 1, -1, 0.5)[:n], diagonal or in a random eigenbasis."""
    if spectrum == "random":
        h = rand_hermitian(rng, n)
    elif spectrum == "identity":
        h = np.eye(n, dtype=complex)
    else:
        h = np.diag([1.0, 1.0, -1.0, 0.5][:n]).astype(complex)
        if spectrum == "repeated-rotated":
            u = rand_unitary(rng, n)
            h = u @ h @ u.conj().T
            h = (h + h.conj().T) / 2
    return h / np.linalg.norm(h)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    sign=st.sampled_from([-1, 1]),
    spectrum=st.sampled_from(["random", "identity", "repeated", "repeated-rotated"]),
    seed=st.integers(0, 2**32 - 1),
    t_final=st.floats(0.0, 2.0),
    step=st.floats(1e-3, 0.5),
)
@example(n=3, sign=-1, spectrum="repeated", seed=0, t_final=0.35, step=0.1)
@example(n=3, sign=1, spectrum="repeated-rotated", seed=6, t_final=0.35, step=0.1)
@example(n=4, sign=1, spectrum="random", seed=1, t_final=1.0005, step=1e-3)
@example(n=2, sign=1, spectrum="random", seed=2, t_final=0.04, step=0.1)
@example(n=2, sign=-1, spectrum="random", seed=7, t_final=0.05, step=1e300)
@example(n=4, sign=-1, spectrum="random", seed=3, t_final=0.0, step=0.1)
@example(n=1, sign=1, spectrum="random", seed=4, t_final=2.0, step=0.3)
@example(n=2, sign=-1, spectrum="identity", seed=5, t_final=1.25, step=0.1)
def test_rk4_commutator_trajectory_matches_the_step_loop(n, sign, spectrum, seed,
                                                          t_final, step):
    # the closed form rounds differently from the loop but must agree with
    # it row by row; rk4_exact_endpoint could not catch an eigh fault, since
    # the exact flow uses the same eigenbasis
    rng = np.random.default_rng(seed)
    h = oracle_hamiltonian(spectrum, n, rng)
    y0 = rand_complex(rng, n)
    y0 /= np.linalg.norm(y0)
    times = time_grid(t_final, step)
    traj = rk4_commutator_trajectory(y0, h, sign, t_final, step, "A")
    np.testing.assert_array_equal(traj.times, times)
    assert traj.name == "A"
    assert traj.states.shape == (len(times), n, n)
    np.testing.assert_array_equal(traj.states[0], y0)
    np.testing.assert_allclose(traj.states, rk4_loop(y0, h, sign, times, step),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("sign", [-1, 1])
def test_rk4_commutator_trajectory_keeps_a_commuting_state_beyond_the_stability_bound(sign):
    # |p(3i)| > 1, so the running product of the off-diagonal factors
    # overflows; the state's zero entries there must stay zero, as in the loop
    h = np.diag([1.0, -1.0]).astype(complex)
    y0 = np.diag([1.0, 0.25]).astype(complex)
    times = time_grid(3000.0, 1.5)
    traj = rk4_commutator_trajectory(y0, h, sign, 3000.0, 1.5, "A")
    np.testing.assert_array_equal(traj.states, rk4_loop(y0, h, sign, times, 1.5))
    np.testing.assert_array_equal(traj.states, np.broadcast_to(y0, traj.states.shape))


@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize("scale", [1e-7, 1.0, 1e7])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_rk4_commutator_trajectory_keeps_the_trace_by_construction(n, scale, sign):
    # in H's eigenbasis the field's diagonal is zero, so every RK4 factor there
    # is exactly 1 and the trace moves only by the rotation's rounding, whatever
    # the step count and the scale of A0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a0 = scale * rand_hermitian(rng, n)
        h = rand_hermitian(rng, n)
        h /= np.linalg.norm(h)
        states = rk4_commutator_trajectory(a0, h, sign, 5.0, 1e-3, "A").states
        traces = np.trace(states, axis1=1, axis2=2)
        assert np.max(np.abs(traces - np.trace(a0))) <= 1e-14 * np.linalg.norm(a0)


@pytest.mark.parametrize("sign", [-1, 1])
def test_the_exact_flow_checks_its_own_times_and_phases(sign):
    # the kernel itself rejects what would make it warn and return NaN
    y0 = np.array([[0, 1], [1, 0]], dtype=complex)
    h = np.diag([10.0, -10.0]).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (math.nan, math.inf, [0.0, math.nan, 1.0], [0.0, -math.inf]):
            with pytest.raises(ValueError, match=r"^t must be finite, got "):
                exact_commutator_flow(y0, h, sign, t)
        # t * 10 overflows, t itself does not
        for t in (1e308, -1e308, [0.0, 1e308, 1.0]):
            with pytest.raises(ValueError,
                               match=r"^t times an eigenvalue of h must be finite, got ") as info:
                exact_commutator_flow(y0, h, sign, t)
        assert str(info.value) == "t times an eigenvalue of h must be finite, got t=1e+308"


@pytest.mark.parametrize("kind", ["heisenberg", "lvn"])
def test_an_exact_call_decomposes_h_once(monkeypatch, kind):
    # the phase check uses the flow's own eigenvalues: one eigh of H and no
    # eigvalsh of it; lvn's validate_density keeps its eigvalsh of rho0
    rng = np.random.default_rng(5)
    y0 = rand_density(rng, 3) if kind == "lvn" else rand_hermitian(rng, 3)
    h = rand_hermitian(rng, 3)
    calls = {"eigh": [], "eigvalsh": []}

    def counting(name):
        original = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            calls[name].append(np.array(a))
            return original(a, *args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    evolve = evolve_lvn_exact if kind == "lvn" else evolve_heisenberg_exact
    evolve(y0, h, np.linspace(0.0, 1.0, 11))
    assert len(calls["eigh"]) == 1
    np.testing.assert_array_equal(calls["eigh"][0], h)
    assert not any(np.array_equal(a, h) for a in calls["eigvalsh"])
    assert len(calls["eigvalsh"]) == (kind == "lvn")
