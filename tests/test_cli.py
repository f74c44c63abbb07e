import json
import re

import numpy as np
import pytest

from isospec_lag import cli

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
        "constraint_residual", "kernel_identity", "determinant_conservation",
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


def test_invalid_log_level_is_tolerated(tmp_path, monkeypatch):
    monkeypatch.setenv("ISOSPEC_LOG", "chatty")
    cfg = heisenberg_config(tmp_path, t_final=0.05)
    assert run_cli(["heisenberg", "--config", cfg, "--out", tmp_path]) == 0


def test_float_formatting_round_trips():
    for value in (0.1, 1e-300, 3.141592653589793, 4.2):
        assert float(cli.format_float(value)) == value
