import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isospec_lag import cli, unitary_orbit
from isospec_lag.heisenberg import evolve_heisenberg_exact

LINE = re.compile(
    r"^(?P<name>\w+) max=(?P<max>[^ ]+) tol=(?P<tol>[^ ]+) (?P<status>PASS|FAIL)$"
)


def pairs(matrix):
    """Nested [re, im] encoding of a complex matrix."""
    m = np.asarray(matrix, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def write_config(path, kind, matrices, t_final, step, **extra):
    doc = {
        "kind": kind,
        "matrices": {k: pairs(v) for k, v in matrices.items()},
        "times": {"t_final": t_final, "step": step},
        "output": {"path": ".", "format": "csv"},
    }
    doc.update(extra)
    path.write_text(json.dumps(doc))
    return path


def heisenberg_config(tmp_path, t_final=0.5, step=1e-3):
    return write_config(
        tmp_path / "cfg.json", "heisenberg",
        {"initial": [[0, 1], [1, 0]], "hamiltonian": [[1, 0], [0, -1]]},
        t_final, step,
    )


def run_cli(args):
    return cli.main([str(a) for a in args])


def parse_lines(text):
    out = {}
    for line in text.strip().splitlines():
        m = LINE.match(line)
        assert m is not None, f"unexpected stdout line: {line!r}"
        out[m["name"]] = (float(m["max"]), float(m["tol"]), m["status"])
    return out


def test_heisenberg_run_passes(tmp_path, capsys):
    cfg = heisenberg_config(tmp_path)
    assert run_cli(["heisenberg", "--config", cfg, "--out", tmp_path]) == 0
    lines = parse_lines(capsys.readouterr().out)
    assert set(lines) == {
        "spectrum_drift", "trace_drift", "frobenius_drift", "rk4_exact_endpoint",
    }
    for value, tol, status in lines.values():
        assert status == "PASS"
        assert value <= tol
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["kind"] == "heisenberg"
    assert report["singular"] is False
    assert set(report["invariants"]) == set(lines)
    assert (tmp_path / "trajectory.csv").exists()


def test_report_json_schema(tmp_path):
    cfg = heisenberg_config(tmp_path, t_final=0.05)
    run_cli(["heisenberg", "--config", cfg, "--out", tmp_path])
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report) == {
        "invariants", "kind", "scenario", "seed", "singular",
        "trajectory", "wall_time_s", "warnings",
    }
    for entry in report["invariants"].values():
        assert set(entry) == {"max", "pass", "tol"}
    assert report["scenario"] == "heisenberg-seed0"
    assert report["warnings"] == []


def test_csv_header_is_stable(tmp_path):
    cfg = heisenberg_config(tmp_path, t_final=0.05)
    run_cli(["heisenberg", "--config", cfg, "--out", tmp_path])
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    assert header == (
        "t,A_re_0_0,A_im_0_0,A_re_1_0,A_im_1_0,"
        "A_re_0_1,A_im_0_1,A_re_1_1,A_im_1_1"
    )


def test_lvn_run_passes(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json", "lvn",
        {"initial": [[0.5, 0.5], [0.5, 0.5]], "hamiltonian": [[1, 0], [0, -1]]},
        1.0, 1e-3,
    )
    assert run_cli(["lvn", "--config", cfg, "--out", tmp_path]) == 0
    lines = parse_lines(capsys.readouterr().out)
    assert set(lines) == {
        "spectrum_drift", "purity_drift", "entropy_drift", "trace_drift",
        "rk4_exact_endpoint",
    }


def test_sb2c_run_passes(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json", "sb2c",
        {
            "initial": [[-1.0, 6.0]],
            "a0": [[1, 1], [1, 2]],
            "hamiltonian": [[1, 0], [0, -1]],
        },
        1.0, 1e-3,
    )
    assert run_cli(["sb2c", "--config", cfg, "--out", tmp_path]) == 0
    lines = parse_lines(capsys.readouterr().out)
    assert set(lines) == {
        "constraint_residual", "determinant_conservation",
    }


def test_bloch_run_passes(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json", "bloch",
        {"initial": [[0.1, -0.2, 0.3]]},
        1.0, 0.25,
    )
    assert run_cli(["bloch", "--config", cfg, "--out", tmp_path]) == 0
    lines = parse_lines(capsys.readouterr().out)
    assert set(lines) == {
        "ball_invariance", "det_conservation", "wedge_closed_form",
        "flow_field_consistency", "fixed_point_p",
    }


def test_verify_run_passes(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json", "verify",
        {"initial": [[0, 1], [1, 0]], "hamiltonian": [[1, 0], [0, -1]]},
        0.016, 1e-3,
    )
    assert run_cli(["verify", "--config", cfg, "--out", tmp_path]) == 0
    lines = parse_lines(capsys.readouterr().out)
    assert set(lines) == {"el_residual_max", "convergence_ratio"}


def test_json_trajectory_format(tmp_path):
    cfg = heisenberg_config(tmp_path, t_final=0.01)
    run_cli(["heisenberg", "--config", cfg, "--out", tmp_path,
             "--format", "json"])
    doc = json.loads((tmp_path / "trajectory.json").read_text())
    assert set(doc) == {"t", "columns"}
    assert doc["t"][0] == 0.0
    assert "A_re_0_1" in doc["columns"]
    assert len(doc["columns"]["A_re_0_1"]) == len(doc["t"])


def test_repeated_runs_are_byte_identical(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json", "bloch",
        {"initial": [[0.0, 0.0, 0.5]]},
        1.0, 0.25, seed=3,
    )
    run_cli(["bloch", "--config", cfg, "--out", tmp_path / "one"])
    run_cli(["bloch", "--config", cfg, "--out", tmp_path / "two"])
    first = (tmp_path / "one" / "trajectory.csv").read_bytes()
    second = (tmp_path / "two" / "trajectory.csv").read_bytes()
    assert first == second
    r1 = json.loads((tmp_path / "one" / "report.json").read_text())
    r2 = json.loads((tmp_path / "two" / "report.json").read_text())
    assert r1["invariants"] == r2["invariants"]
    assert r1["seed"] == 3


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json", "bloch",
        {"initial": [[0.0, 0.0, 0.5]]},
        0.5, 0.25,
    )
    run_cli(["bloch", "--config", cfg, "--out", tmp_path, "--seed", 7])
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["seed"] == 7
    assert report["scenario"] == "bloch-seed7"


def test_tolerance_override_forces_failure(tmp_path, capsys):
    cfg = heisenberg_config(tmp_path, t_final=0.05)
    code = run_cli(["heisenberg", "--config", cfg, "--out", tmp_path,
                    "--tolerance", "rk4_exact_endpoint=1e-20"])
    assert code == 1
    lines = parse_lines(capsys.readouterr().out)
    assert lines["rk4_exact_endpoint"][2] == "FAIL"
    assert lines["rk4_exact_endpoint"][1] == 1e-20


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert run_cli(["heisenberg", "--config", tmp_path / "nope.json"]) == 2
    assert "config error" in capsys.readouterr().err


def test_ragged_matrix_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "matrices": {
            "initial": [[[0, 0], [1, 0]], [[1, 0]]],
            "hamiltonian": pairs([[1, 0], [0, -1]]),
        },
        "times": {"t_final": 0.1, "step": 0.01},
    }))
    assert run_cli(["heisenberg", "--config", cfg, "--out", tmp_path]) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_required_matrix_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json", "sb2c",
        {"initial": [[-1.0, 6.0]], "hamiltonian": [[1, 0], [0, -1]]},
        1.0, 1e-3,
    )
    assert run_cli(["sb2c", "--config", cfg, "--out", tmp_path]) == 2
    assert "a0" in capsys.readouterr().err


def test_kind_mismatch_exits_2(tmp_path, capsys):
    cfg = heisenberg_config(tmp_path)
    assert run_cli(["lvn", "--config", cfg, "--out", tmp_path]) == 2
    assert "does not match" in capsys.readouterr().err


def test_unknown_tolerance_exits_2(tmp_path, capsys):
    cfg = heisenberg_config(tmp_path, t_final=0.05)
    code = run_cli(["heisenberg", "--config", cfg, "--out", tmp_path,
                    "--tolerance", "bogus=1"])
    assert code == 2
    assert "unknown tolerance" in capsys.readouterr().err


def test_non_hermitian_hamiltonian_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json", "heisenberg",
        {"initial": [[0, 1], [1, 0]], "hamiltonian": [[0, 1], [0, 0]]},
        0.1, 0.01,
    )
    assert run_cli(["heisenberg", "--config", cfg, "--out", tmp_path]) == 2


@pytest.mark.parametrize("kind", ["heisenberg", "lvn", "verify"])
def test_initial_hamiltonian_shape_mismatch_exits_2(tmp_path, capsys, kind):
    cfg = write_config(
        tmp_path / "cfg.json", kind,
        {"initial": np.eye(3) / 3, "hamiltonian": [[1, 0], [0, -1]]},
        0.08, 0.01,
    )
    assert run_cli([kind, "--config", cfg, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert "same shape" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_tolerance_exits_2(tmp_path, capsys, value):
    cfg = write_config(
        tmp_path / "cfg.json", "heisenberg",
        {"initial": [[0, 1], [1, 0]], "hamiltonian": [[1, 0], [0, -1]]},
        0.05, 1e-3, tolerances={"trace_drift": value},
    )
    assert run_cli(["heisenberg", "--config", cfg, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert "must be finite" in err
    assert "Traceback" not in err


def test_non_finite_tolerance_override_exits_2(tmp_path, capsys):
    cfg = heisenberg_config(tmp_path, t_final=0.05)
    code = run_cli(["heisenberg", "--config", cfg, "--out", tmp_path,
                    "--tolerance", "spectrum_drift=nan"])
    assert code == 2
    assert "must be finite" in capsys.readouterr().err


def test_boolean_seed_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json", "bloch", {"initial": [[0.2, 0.1, 0.3]]},
        0.05, 1e-2, seed=True,
    )
    assert run_cli(["bloch", "--config", cfg, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert "seed must be a non-negative integer" in err
    assert "Traceback" not in err


def test_verify_logs_evaluation_counts_and_worst_sample(tmp_path, caplog):
    cfg = write_config(
        tmp_path / "cfg.json", "verify",
        {"initial": [[0, 1], [1, 0]], "hamiltonian": [[1, 0], [0, -1]]},
        0.016, 1e-3,
    )
    with caplog.at_level("INFO", logger="isospec_lag.cli"):
        run_cli(["verify", "--config", cfg, "--out", tmp_path])
    # N samples at dim 8 take 2*8*(2*(N-4) + 2) evaluations, one call per
    # sample 1..N-2: N = 17 on the fine grid, 9 on the coarse one
    assert "fine pass: 448 Lagrangian evaluations in 15 stacked calls" in caplog.text
    assert "coarse pass: 192 Lagrangian evaluations in 7 stacked calls" in caplog.text
    assert re.search(r"el_residual_max worst at sample \d+, t=", caplog.text)


def test_bad_step_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json", "heisenberg",
        {"initial": [[0, 1], [1, 0]], "hamiltonian": [[1, 0], [0, -1]]},
        0.1, 0.0,
    )
    assert run_cli(["heisenberg", "--config", cfg, "--out", tmp_path]) == 2


@pytest.mark.parametrize("kind, matrices", [
    ("heisenberg", {"initial": [[0, 1], [1, 0]], "hamiltonian": [[1, 0], [0, -1]]}),
    ("lvn", {"initial": [[0.5, 0.5], [0.5, 0.5]], "hamiltonian": [[1, 0], [0, -1]]}),
    ("sb2c", {"initial": [[-1.0, 6.0]], "a0": [[1, 1], [1, 2]],
              "hamiltonian": [[1, 0], [0, -1]]}),
    ("bloch", {"initial": [[0.1, -0.2, 0.3]]}),
    ("verify", {"initial": [[0, 1], [1, 0]], "hamiltonian": [[1, 0], [0, -1]]}),
])
@pytest.mark.parametrize("t_final, step", [
    (1.0, 0.0), (-1.0, 0.1), (float("inf"), 0.1), (1e300, 1e-300),
])
def test_bad_grid_exits_2_without_outputs(tmp_path, capsys, kind, matrices, t_final, step):
    cfg = write_config(tmp_path / "cfg.json", kind, matrices, t_final, step)
    out = tmp_path / "out"
    assert run_cli([kind, "--config", cfg, "--out", out]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_singularity_exits_3(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json", "sb2c",
        {
            "initial": [[1.0, 4.0]],
            "a0": [[1, 1], [1, 2]],
            "hamiltonian": [[1, 0], [0, -1]],
        },
        1.0, 1e-4,
    )
    assert run_cli(["sb2c", "--config", cfg, "--out", tmp_path]) == 3
    err = capsys.readouterr().err
    assert "singularity" in err
    assert "bracket" in err
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["singular"] is True
    # the partial trajectory up to the halt is kept
    body = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert body[0] == "t,y,r,x"
    assert len(body) > 10


def test_stage_through_zero_radius_exits_3(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json", "sb2c",
        {
            "initial": [[-1.0, 1.2]],
            "a0": [[1, 1], [1, 2]],
            "hamiltonian": [[1, 0], [0, -1]],
        },
        5.0, 1e-3,
    )
    assert run_cli(["sb2c", "--config", cfg, "--out", tmp_path]) == 3
    err = capsys.readouterr().err
    assert "config error" not in err
    assert "Traceback" not in err
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["singular"] is True
    assert len((tmp_path / "trajectory.csv").read_text().splitlines()) == 1 + 1264


@pytest.mark.parametrize("kind, initial", [
    ("heisenberg", None),
    ("bloch", [[0.1, -0.2, 0.3]]),
])
def test_non_divisible_grid_has_no_sliver_row(tmp_path, kind, initial):
    # 5 / 0.01 is 500 up to rounding: 501 rows, the last one at t = 5
    if initial is None:
        cfg = heisenberg_config(tmp_path, t_final=5.0, step=1e-2)
    else:
        cfg = write_config(tmp_path / "cfg.json", kind, {"initial": initial}, 5.0, 1e-2)
    # at step 1e-2 the heisenberg drifts may exceed their default tolerances
    assert run_cli([kind, "--config", cfg, "--out", tmp_path]) in (0, 1)
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
    assert len(rows) == 501
    assert float(rows[-1].split(",")[0]) == 5.0


def test_invalid_log_level_is_tolerated(tmp_path, monkeypatch):
    monkeypatch.setenv("ISOSPEC_LOG", "chatty")
    cfg = heisenberg_config(tmp_path, t_final=0.05)
    assert run_cli(["heisenberg", "--config", cfg, "--out", tmp_path]) == 0


def test_float_formatting_round_trips():
    for value in (0.1, 1e-300, 3.141592653589793, 4.2):
        assert float(cli.format_float(value)) == value


LVN_MATRICES = {"initial": [[0.75, 0.25], [0.25, 0.25]], "hamiltonian": [[1, 0.5], [0.5, -1]]}


def test_lvn_validates_the_density_once(tmp_path, monkeypatch):
    calls = []
    validate = unitary_orbit.validate_density

    def counting(*args, **kwargs):
        calls.append(1)
        return validate(*args, **kwargs)

    monkeypatch.setattr(unitary_orbit, "validate_density", counting)
    cfg = write_config(tmp_path / "cfg.json", "lvn", LVN_MATRICES, 0.1, 1e-2)
    assert run_cli(["lvn", "--config", cfg, "--out", tmp_path]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("name, value, message", [
    ("initial", [[1, 0], [0, 1]], "trace"),
    ("initial", [[1.5, 0], [0, -0.5]], "eigenvalue"),
    ("hamiltonian", [[0, 1], [0, 0]], "not Hermitian"),
])
def test_lvn_bad_input_exits_2(tmp_path, capsys, name, value, message):
    cfg = write_config(tmp_path / "cfg.json", "lvn",
                       {**LVN_MATRICES, name: value}, 0.1, 1e-2)
    assert run_cli(["lvn", "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_verify_states_are_the_exact_flow(tmp_path):
    rng = np.random.default_rng(5)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a0, h = g + g.conj().T, np.diag([0.3, -0.1, 0.7]) + 0.2
    cfg = write_config(tmp_path / "cfg.json", "verify",
                       {"initial": a0, "hamiltonian": h}, 0.5, 1e-2)
    assert run_cli(["verify", "--config", cfg, "--out", tmp_path]) == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
    assert len(lines) == 51
    for line in lines:
        t, *cols = (float(v) for v in line.split(","))
        state = (np.array(cols[0::2]) + 1j * np.array(cols[1::2])).reshape(3, 3).T
        assert np.linalg.norm(state - evolve_heisenberg_exact(a0, h, t)) <= 1e-13


def test_no_kind_imports_scipy(tmp_path):
    """All five kinds run in one fresh process without loading scipy."""
    runs = []
    for kind, matrices, t_final, step in [
        ("heisenberg", {"initial": [[0, 1], [1, 0]], "hamiltonian": [[1, 0], [0, -1]]},
         0.05, 1e-2),
        ("lvn", LVN_MATRICES, 0.05, 1e-2),
        ("sb2c", {"initial": [[-1.0, 6.0]], "a0": [[1, 1], [1, 2]],
                  "hamiltonian": [[1, 0], [0, -1]]}, 0.05, 1e-2),
        ("bloch", {"initial": [[0.1, -0.2, 0.3]]}, 0.05, 1e-2),
        ("verify", {"initial": [[0, 1], [1, 0]], "hamiltonian": [[1, 0], [0, -1]]},
         0.1, 1e-2),
    ]:
        cfg = write_config(tmp_path / f"{kind}.json", kind, matrices, t_final, step)
        runs.append([kind, "--config", str(cfg), "--out", str(tmp_path / kind)])
    script = (
        "import sys\n"
        "from isospec_lag import cli\n"
        f"codes = [cli.main(argv) for argv in {runs!r}]\n"
        "print(codes)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, scipy_modules = proc.stdout.splitlines()[-2:]
    assert codes == "[0, 0, 0, 0, 0]"
    assert scipy_modules == "[]"


def test_bloch_flow_beyond_float_range_exits_2(tmp_path, capsys):
    # the diagonal flow scales the state by e^t, which overflows past t ~ 709.78
    cfg = write_config(tmp_path / "cfg.json", "bloch", {"initial": [[0.1, -0.2, 0.3]]},
                       1500.0, 100.0)
    assert run_cli(["bloch", "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "config error: flow time leaves float range" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_sb2c_field_overflow_at_start_exits_3(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json", "sb2c",
        {"initial": [[-1.0, 1e80]], "a0": [[1, 1], [1, 2]],
         "hamiltonian": [[1, 0], [0, -1]]},
        1.0, 1e-2,
    )
    assert run_cli(["sb2c", "--config", cfg, "--out", tmp_path]) == 3
    captured = capsys.readouterr()
    assert "overflowing field" in captured.err
    assert "Traceback" not in captured.err
    # the zero-row trajectory: no sample to judge an invariant by
    assert all(value != value for value, _, _ in parse_lines(captured.out).values())
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["singular"] is True
    assert (tmp_path / "trajectory.csv").read_text().splitlines() == ["t,y,r,x"]


def test_verify_with_large_entries_has_no_rounding_error(tmp_path, capsys):
    # rounding leaves an imaginary Lagrangian residue of order eps |A|^2 |H| ~ 1e-10
    cfg = write_config(
        tmp_path / "cfg.json", "verify",
        {"initial": [[1e4, 2e4 - 3e4j], [2e4 + 3e4j, -1e4]],
         "hamiltonian": [[0.6, 0.8], [0.8, -0.6]]},
        0.08, 0.01,
    )
    assert run_cli(["verify", "--config", cfg, "--out", tmp_path]) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err


def test_step_longer_than_t_final_is_one_shorter_step(tmp_path):
    cfg = heisenberg_config(tmp_path, t_final=0.5, step=1.0)
    # one RK4 step of 0.5 need not meet the default drift tolerances
    assert run_cli(["heisenberg", "--config", cfg, "--out", tmp_path]) in (0, 1)
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [0.0, 0.5]


TINY_GRID = {"heisenberg": (0.05, 0.01), "lvn": (0.05, 0.01), "sb2c": (0.05, 0.01),
             "bloch": (0.05, 0.01), "verify": (0.08, 0.01)}
VALID_MATRICES = {
    "heisenberg": {"initial": [[0, 1], [1, 0]], "hamiltonian": [[1, 0], [0, -1]]},
    "lvn": LVN_MATRICES,
    "sb2c": {"initial": [[-1.0, 6.0]], "a0": [[1, 1], [1, 2]],
             "hamiltonian": [[1, 0], [0, -1]]},
    "bloch": {"initial": [[0.1, -0.2, 0.3]]},
    "verify": {"initial": [[0, 1], [1, 0]], "hamiltonian": [[1, 0], [0, -1]]},
}


def valid_doc(kind):
    """A config of the kind that exits 0, with every optional key set."""
    t_final, step = TINY_GRID[kind]
    return {
        "kind": kind,
        "matrices": {k: pairs(v) for k, v in VALID_MATRICES[kind].items()},
        "times": {"t_final": t_final, "step": step},
        "output": {"format": "csv"},
        "seed": 1,
        "tolerances": {next(iter(cli.DEFAULT_TOLERANCES[kind])): 1.0},
    }


def run_doc(doc, kind, out):
    """Exit code and stderr of cli.main on a config document, captured in-process."""
    out.mkdir(parents=True, exist_ok=True)
    cfg = out / "cfg.json"
    cfg.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([kind, "--config", str(cfg), "--out", str(out / "run")])
    return code, err.getvalue()


@pytest.mark.parametrize("kind, path, value", [
    pytest.param("heisenberg", ("times", "t_final"), True, id="bool-t_final"),
    pytest.param("heisenberg", ("times", "step"), 10**400, id="huge-int-step"),
    pytest.param("heisenberg", ("tolerances", "trace_drift"), False, id="bool-tolerance"),
    pytest.param("bloch", ("matrices", "initial"), [[[0.1, 0], [float("nan"), 0], [0.3, 0]]],
                 id="nan-bloch-row"),
    pytest.param("sb2c", ("matrices", "initial"), [[[-1.0, float("inf")], [6.0, 0]]],
                 id="inf-sb2c-row"),
])
def test_malformed_value_exits_2(tmp_path, kind, path, value):
    doc = valid_doc(kind)
    doc[path[0]][path[1]] = value
    code, err = run_doc(doc, kind, tmp_path)
    assert code == 2
    assert "config error" in err


def test_non_string_output_path_exits_2(tmp_path, capsys):
    doc = valid_doc("heisenberg")
    doc["output"]["path"] = 5
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(["heisenberg", "--config", cfg]) == 2
    assert "output path must be a string" in capsys.readouterr().err


WRONG_TYPES = ["x", None, True, [], [1, 2], {}]
EXTREMES = [1e300, -1e300, 1e-300, 10**400]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]
SHAPES = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]


def _numeric_leaves(doc):
    """Paths of the numbers in a config, matrix entries included."""
    paths = [("times", "t_final"), ("times", "step"), ("seed",)]
    paths += [("tolerances", key) for key in doc["tolerances"]]
    for name, m in doc["matrices"].items():
        paths += [("matrices", name, i, j, part) for i in range(len(m))
                  for j in range(len(m[0])) for part in (0, 1)]
    return paths


def _set(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


@st.composite
def mutated_configs(draw):
    """(kind, doc, malformed, overflow): one mutation of a valid config.

    ``overflow`` marks an extreme float in a matrix other than the bloch
    ball point, where the integration or an invariant may overflow float
    range on its way to a failed invariant.
    """
    kind = draw(st.sampled_from(cli.KINDS))
    doc = valid_doc(kind)
    required = [("matrices",), ("times",), ("times", "t_final"), ("times", "step")]
    required += [("matrices", name) for name in cli.REQUIRED_MATRICES[kind]]
    mutation = draw(st.sampled_from(["drop", "type", "non_finite", "extreme", "shape"]))
    if mutation == "drop":
        path = draw(st.sampled_from(required + [("kind",), ("output",), ("seed",),
                                                ("tolerances",)]))
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        return kind, doc, path in required, False
    if mutation == "type":
        path = draw(st.sampled_from(required + [
            ("kind",), ("output",), ("output", "format"), ("seed",), ("tolerances",),
            ("tolerances", next(iter(doc["tolerances"]))), (),
        ]))
        allowed = [v for v in WRONG_TYPES if not (v == {} and path in (("output",),
                                                                       ("tolerances",)))]
        value = draw(st.sampled_from(allowed))
        if path == ():
            doc = value
        else:
            _set(doc, path, value)
        return kind, doc, True, False
    if mutation == "shape":
        name = draw(st.sampled_from(sorted(doc["matrices"])))
        shape = draw(st.sampled_from(
            [s for s in SHAPES if s != np.shape(VALID_MATRICES[kind][name])]))
        doc["matrices"][name] = pairs(np.full(shape, 0.1))
        return kind, doc, True, False
    path = draw(st.sampled_from(_numeric_leaves(doc)))
    if mutation == "non_finite":
        _set(doc, path, draw(st.sampled_from(NON_FINITE)))
        return kind, doc, True, False
    value = draw(st.sampled_from(EXTREMES))
    _set(doc, path, value)
    if path == ("seed",):
        malformed = value != 10**400  # a float is no seed; a big integer is one
    else:
        malformed = value == 10**400  # a big integer is no float
    overflow = path[0] == "matrices" and kind != "bloch" and not malformed
    return kind, doc, malformed, overflow


@settings(max_examples=150, deadline=None)
@given(mutated_configs())
def test_mutated_configs_keep_the_exit_code_contract(case):
    kind, doc, malformed, overflow = case
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        if overflow:
            # entries ~ 1e300 overflow the integration or an invariant: numpy
            # warns, and the run ends in a failed invariant, exit 2 or exit 3
            warnings.simplefilter("ignore", RuntimeWarning)
        code, err = run_doc(doc, kind, Path(tmp))
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if malformed:
        assert code == 2, err


@pytest.mark.parametrize("kind, matrices, names", [
    ("heisenberg", {"initial": [[0, 1], [1, 0]], "hamiltonian": [[1, 0.5], [0.5, -1]]},
     ["spectrum_drift", "trace_drift", "frobenius_drift"]),
    ("lvn", LVN_MATRICES, ["spectrum_drift", "purity_drift", "entropy_drift", "trace_drift"]),
    ("sb2c", {"initial": [[-1.0, 6.0]], "a0": [[1, 1], [1, 2]],
              "hamiltonian": [[1, 0], [0, -1]]},
     ["constraint_residual", "determinant_conservation"]),
    ("bloch", {"initial": [[0.1, -0.2, 0.3]]}, ["ball_invariance", "det_conservation"]),
])
def test_grid_invariants_log_their_worst_sample(tmp_path, caplog, kind, matrices, names):
    cfg = write_config(tmp_path / "cfg.json", kind, matrices, 0.1, 1e-2)
    with caplog.at_level("INFO", logger="isospec_lag.cli"):
        assert run_cli([kind, "--config", cfg, "--out", tmp_path]) == 0
    logged = [m.groups() for m in (re.fullmatch(r"(\w+) worst at sample (\d+), t=(\S+)",
                                                 r.getMessage()) for r in caplog.records) if m]
    assert [name for name, _, _ in logged] == names
    times = [float(row.split(",")[0]) for row in
             (tmp_path / "trajectory.csv").read_text().splitlines()[1:]]
    for _, index, t in logged:
        assert float(t) == times[int(index)]


def _loop_drifts(states):
    """Per-sample drifts of a matrix trajectory, one sample at a time."""
    w0 = np.linalg.eigvalsh(states[0])
    out = {"spectrum_drift": [], "trace_drift": [], "frobenius_drift": [],
           "purity_drift": [], "entropy_drift": [], "lvn_trace_drift": []}

    def entropy(rho):
        w = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
        w = w[w > 1e-14]
        return -np.sum(w * np.log(w))

    for s in states:
        out["spectrum_drift"].append(np.max(np.abs(np.linalg.eigvalsh(s) - w0)))
        out["trace_drift"].append(abs(np.trace(s) - np.trace(states[0])))
        out["frobenius_drift"].append(abs(np.linalg.norm(s) - np.linalg.norm(states[0])))
        out["purity_drift"].append(abs(np.trace(s @ s).real
                                       - np.trace(states[0] @ states[0]).real))
        out["entropy_drift"].append(abs(entropy(s) - entropy(states[0])))
        out["lvn_trace_drift"].append(abs(np.trace(s) - 1.0))
    return {name: max(values) for name, values in out.items()}


def read_matrix_trajectory(path, n):
    rows = np.array([[float(v) for v in line.split(",")[1:]]
                     for line in path.read_text().splitlines()[1:]])
    return (rows[:, 0::2] + 1j * rows[:, 1::2]).reshape(-1, n, n).swapaxes(1, 2)


@pytest.mark.parametrize("kind", ["heisenberg", "lvn"])
def test_stacked_invariants_match_per_sample_loop(tmp_path, capsys, kind):
    rng = np.random.default_rng(9)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    initial = g @ g.conj().T
    initial = initial / np.trace(initial).real if kind == "lvn" else initial
    h = np.diag([0.4, -0.3, 0.1]) + 0.2
    cfg = write_config(tmp_path / "cfg.json", kind, {"initial": initial, "hamiltonian": h},
                       2.0, 0.05)
    # loose tolerances: the coarse step is for speed, not accuracy
    run_cli([kind, "--config", cfg, "--out", tmp_path])
    lines = parse_lines(capsys.readouterr().out)
    loop = _loop_drifts(read_matrix_trajectory(tmp_path / "trajectory.csv", 3))
    if kind == "lvn":
        loop["trace_drift"] = loop["lvn_trace_drift"]
    for name in set(lines) - {"rk4_exact_endpoint"}:
        assert lines[name][0] == pytest.approx(loop[name], rel=1e-9, abs=1e-13), name


@pytest.mark.parametrize("kind, calls", [("heisenberg", 1), ("lvn", 2)])
def test_one_stacked_eigvalsh_per_run(tmp_path, monkeypatch, kind, calls):
    # lvn's second call is validate_density's, on the initial state
    counted = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        counted.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    cfg = write_config(tmp_path / "cfg.json", kind, VALID_MATRICES[kind], 0.1, 1e-2)
    assert run_cli([kind, "--config", cfg, "--out", tmp_path]) == 0
    assert len(counted) == calls
    assert (11, 2, 2) in counted
