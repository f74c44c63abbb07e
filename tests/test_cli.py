import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
@pytest.mark.parametrize("t_final, step", [(1.0, 0.0), (-1.0, 0.1), (float("inf"), 0.1)])
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
