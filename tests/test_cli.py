import contextlib
import gc
import io
import itertools
import json
import logging
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isospec_lag import bloch, cli, sb2c, trajectory, unitary_orbit
from isospec_lag.heisenberg import evolve_heisenberg_exact
from isospec_lag.sb2c import ReducedState, SB2CSetup, derive_parameters, integrate_reduced

from conftest import (assert_no_child_left, count_forks, fail_in, force_split,
                      hermitian_check_names, rand_hermitian, src_env)

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
        "invariants", "kind", "singular", "trajectory", "wall_time_s", "warnings",
    }
    for entry in report["invariants"].values():
        assert set(entry) == {"max", "pass", "tol"}
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
    # 5,001 rows of 9 floats: on two CPUs the write is split across two processes
    cfg = heisenberg_config(tmp_path, t_final=5.0)
    for fmt in ("json", "csv"):
        assert run_cli(["heisenberg", "--config", cfg, "--out", tmp_path / fmt,
                        "--format", fmt]) == 0
    text = (tmp_path / "json" / "trajectory.json").read_text()
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True) + "\n"
    assert set(doc) == {"t", "columns"}
    header, *rows = (tmp_path / "csv" / "trajectory.csv").read_text().splitlines()
    fields = [row.split(",") for row in rows]
    assert all(v == repr(float(v)) for row in fields for v in row)  # each float's repr
    columns = list(zip(*([float(v) for v in row] for row in fields)))
    headers = header.split(",")
    assert len(rows) == 5001 and headers[0] == "t" and "A_re_0_1" in headers
    assert sorted(doc["columns"]) == sorted(headers[1:])
    assert doc["t"] == list(columns[0])
    for name, column in zip(headers[1:], columns[1:]):
        assert doc["columns"][name] == list(column), name


def outputs(cfg, kind, out):
    """Exit code, stdout, trajectory bytes and report (without its wall
    time) of one run of a config into ``out``."""
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = run_cli([kind, "--config", cfg, "--out", out])
    report = json.loads((out / "report.json").read_text())
    del report["wall_time_s"]
    return code, stdout.getvalue(), (out / "trajectory.csv").read_bytes(), report


def test_repeated_runs_are_byte_identical(tmp_path, monkeypatch):
    # a run is a function of its config: run again into the same directory,
    # each kind writes the same bytes and report.  With two CPUs listed, the
    # 5,001-row heisenberg table is split and the sb2c one streamed while the
    # run steps
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    runs = [
        ("heisenberg", HEISENBERG_PAIR, 5.0, 1e-3),
        ("lvn", LVN_MATRICES, 1.0, 1e-3),
        ("sb2c", {"initial": [[-1.0, 6.0]], **WORKED_SB2C}, 5.0, 1e-3),
        ("bloch", {"initial": [[0.0, 0.0, 0.5]]}, 1.0, 0.25),
        ("bloch", {"initial": [[0.1, -0.2, 0.3]]}, 1.0, 0.01),
        ("verify", HEISENBERG_PAIR, 0.1, 0.01),
    ]
    for k, (kind, matrices, t_final, step) in enumerate(runs):
        cfg = write_config(tmp_path / f"{k}.json", kind, matrices, t_final, step)
        first = outputs(cfg, kind, tmp_path / f"out{k}")
        assert first[0] == 0, kind
        assert first == outputs(cfg, kind, tmp_path / f"out{k}"), kind


def test_a_legacy_seed_key_changes_nothing(tmp_path):
    # configs written for the former --seed carry a "seed" key, which the
    # loader ignores like any other unknown key
    matrices = {"initial": [[0.1, -0.2, 0.3]]}
    plain = write_config(tmp_path / "plain.json", "bloch", matrices, 1.0, 0.01)
    seeded = write_config(tmp_path / "seeded.json", "bloch", matrices, 1.0, 0.01, seed=7)
    assert outputs(seeded, "bloch", tmp_path / "out") == outputs(plain, "bloch", tmp_path / "out")


@pytest.mark.parametrize("point, verdict", [([0.1, -0.2, 0.3], "FAIL"), ([0, 0, 1], "PASS")],
                         ids=["bulk", "fixed-point-p"])
def test_bloch_flow_field_consistency_checks_the_run(tmp_path, capsys, monkeypatch,
                                                     point, verdict):
    # the diagonal flow at double speed, exp(t tau_3): its rate is 2 Y3, which
    # the rows of a bulk run show, while every row of a run from P stays at P
    monkeypatch.setattr(bloch, "flow_generator", bloch.sb2c_generator)
    cfg = write_config(tmp_path / "cfg.json", "bloch", {"initial": [point]}, 1.0, 0.01)
    code = run_cli(["bloch", "--config", cfg, "--out", tmp_path])
    lines = parse_lines(capsys.readouterr().out)
    assert lines["flow_field_consistency"][2] == verdict
    assert [name for name, (_, _, status) in lines.items() if status == "FAIL"] == (
        ["flow_field_consistency"] if verdict == "FAIL" else [])
    assert code == (1 if verdict == "FAIL" else 0)


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


@pytest.mark.parametrize("kind, name", [("heisenberg", "initial"), ("lvn", "density matrix"),
                                        ("verify", "initial")])
def test_an_overflowing_hermitian_defect_is_one_config_error(tmp_path, capsys, kind, name):
    # ||A - A^dag|| overflows: a config error, with no numpy warning (the suite
    # makes RuntimeWarning an error) and no output
    cfg = write_config(tmp_path / "cfg.json", kind,
                       {"initial": [[0, 1e200], [-1e200, 0]], "hamiltonian": [[1, 0], [0, -1]]},
                       0.1, 0.01)
    assert run_cli([kind, "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == (f"config error: {name} is not Hermitian: "
                                       "defect inf > tolerance 1.000e-10\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, initial", [("heisenberg", [[0, 1], [1, 0]]),
                                           ("lvn", np.eye(2) / 2),
                                           ("verify", [[0, 1], [1, 0]])],
                         ids=["heisenberg", "lvn", "verify"])
def test_an_overflowing_phase_is_one_config_error(tmp_path, capsys, kind, initial):
    # t_final * 1e10 overflows: the exact flow rejects its phases before any
    # output, with no numpy warning (the suite makes RuntimeWarning an error)
    cfg = write_config(tmp_path / "cfg.json", kind,
                       {"initial": initial, "hamiltonian": 1e10 * np.eye(2)}, 1e300, 1e299)
    assert run_cli([kind, "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: t times an eigenvalue of h must be finite, got t=")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "out").exists()


def test_a_non_finite_lagrangian_is_a_one_line_config_error(tmp_path, capsys):
    # the message names a point of dim 8, wider than numpy's 75-character lines
    cfg = write_config(tmp_path / "cfg.json", "verify",
                       {"initial": [[0.5, 1e200], [1e200, 0.5]], "hamiltonian": [[1, 0], [0, -1]]},
                       1.0, 0.01)
    assert run_cli(["verify", "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: Lagrangian is not finite (dL/dqdot +) near q=[")
    assert err.count("\n") == 1 and err.endswith("]\n")


@pytest.mark.parametrize("kind", ["heisenberg", "lvn", "verify"])
def test_initial_hamiltonian_shape_mismatch_exits_2(tmp_path, capsys, kind):
    cfg = write_config(
        tmp_path / "cfg.json", kind,
        {"initial": np.eye(3) / 3, "hamiltonian": [[1, 0], [0, -1]]},
        0.08, 0.01,
    )
    # each runner checks H against the initial state's shape, before any output
    assert run_cli([kind, "--config", cfg, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err == "config error: hamiltonian must have shape (3, 3), got (2, 2)\n"
    assert not (tmp_path / "report.json").exists()
    assert not list(tmp_path.glob("trajectory.*"))


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


@pytest.mark.parametrize("source", ["config", "override"])
def test_negative_tolerance_exits_2(tmp_path, capsys, source):
    # no run can pass a tolerance below 0, so it is a config error, not a FAIL
    declared = {"trace_drift": -1e-12} if source == "config" else {}
    cfg = write_config(
        tmp_path / "cfg.json", "heisenberg",
        {"initial": [[0, 1], [1, 0]], "hamiltonian": [[1, 0], [0, -1]]},
        0.05, 1e-3, tolerances=declared,
    )
    override = ["--tolerance", "trace_drift=-1e-12"] if source == "override" else []
    assert run_cli(["heisenberg", "--config", cfg, "--out", tmp_path / "out", *override]) == 2
    assert "must be finite and non-negative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_zero_tolerance_is_valid(tmp_path, capsys):
    cfg = heisenberg_config(tmp_path, t_final=0.05)
    assert run_cli(["heisenberg", "--config", cfg, "--out", tmp_path / "out",
                    "--tolerance", "rk4_exact_endpoint=0"]) == 1
    assert "rk4_exact_endpoint max=" in capsys.readouterr().out


#: A 4x4 verify config: (matrices, t_final, step), 21 grid samples at dim 32.
VERIFY_4X4 = (
    {"initial": [[1, 0.5 + 0.5j, 0, 0.2], [0.5 - 0.5j, -1, 0.3, 0],
                 [0, 0.3, 0.5, -0.4j], [0.2, 0, 0.4j, -0.5]],
     "hamiltonian": [[0.6, 0.1 + 0.2j, 0, 0], [0.1 - 0.2j, -0.3, 0.2, 0],
                     [0, 0.2, 0.1, 0.1 + 0.1j], [0, 0, 0.1 - 0.1j, -0.4]]},
    0.2, 0.01,
)


def test_verify_logs_evaluation_counts_and_no_worst_sample(tmp_path, caplog):
    # N samples at dim D take 2*D*(2*(N-4) + 2) evaluations.  At dim 8 the
    # fine (N = 17) and coarse (N = 9) passes take one call for dL/dqdot and
    # one for dL/dq.  At dim 32 a call holds the points of at most 4 samples:
    # the fine pass's 19 + 17 gradient points take 5 + 5 calls, the coarse
    # pass's 9 + 7 take 3 + 2
    cases = [
        ((HEISENBERG_PAIR, 0.016, 1e-3), 448, 2, 192, 2),
        (VERIFY_4X4, 2304, 10, 1024, 5),
    ]
    for (matrices, t_final, step), fine, fine_calls, coarse, coarse_calls in cases:
        cfg = write_config(tmp_path / "cfg.json", "verify", matrices, t_final, step)
        caplog.clear()
        with caplog.at_level("INFO", logger="isospec_lag.cli"):
            assert run_cli(["verify", "--config", cfg, "--out", tmp_path / str(fine)]) == 0
        assert (f"fine pass: {fine} Lagrangian evaluations in {fine_calls} stacked calls"
                in caplog.text)
        assert (f"coarse pass: {coarse} Lagrangian evaluations in {coarse_calls} stacked calls"
                in caplog.text)
        # the exact flow's interior residual norms tie up to rounding: no worst sample
        assert "worst at sample" not in caplog.text


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
    (1.0, 0.0), (-1.0, 0.1), (float("inf"), 0.1), (1e300, 1e-300), (1e17, 1.0),
])
def test_bad_grid_exits_2_without_outputs(tmp_path, capsys, kind, matrices, t_final, step):
    cfg = write_config(tmp_path / "cfg.json", kind, matrices, t_final, step)
    out = tmp_path / "out"
    assert run_cli([kind, "--config", cfg, "--out", out]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("t_final, step, codes", [
    # time_grid's k * step round by up to 0.7 ulp of t_final: 1.0e-12 and
    # 1.2e-12 of step here, which is no config error
    (1.0, 1e-4, (0, 1)), (10.0, 1e-3, (0, 1)),
    (0.095, 0.01, (2,)),  # a last gap of 0.005: the stencils need a full step
])
def test_verify_needs_a_grid_uniform_to_rounding(tmp_path, capsys, t_final, step, codes):
    cfg = write_config(tmp_path / "cfg.json", "verify",
                       {"initial": [[0, 1], [1, 0]], "hamiltonian": [[1, 0], [0, -1]]},
                       t_final, step)
    assert run_cli(["verify", "--config", cfg, "--out", tmp_path]) in codes
    err = capsys.readouterr().err
    assert ("config error: time grid must be uniform: gap 9 is not 0.01" in err) == (codes == (2,))


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
    # the bracket is the failing step: one step of the config wide, from
    # the last row kept
    (warning,) = report["warnings"]
    lo, hi = map(float, re.search(r"bracket=\[(\S+), (\S+)\]", warning).groups())
    assert hi - lo == pytest.approx(1e-4, rel=1e-12)
    assert lo == float(body[-1].split(",")[0])


def test_stage_through_zero_radius_exits_3(tmp_path, capsys):
    # the third RK4 stage of the step after t = 1.065 reaches r ~ -24.3
    cfg = write_config(
        tmp_path / "cfg.json", "sb2c",
        {
            "initial": [[-3.0, 0.5]],
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
    assert "an RK4 stage left r > 0: r=-" in report["warnings"][0]
    assert len((tmp_path / "trajectory.csv").read_text().splitlines()) == 1 + 1066


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


def test_heisenberg_checks_the_hamiltonian_once(tmp_path, monkeypatch):
    names = hermitian_check_names(monkeypatch)
    cfg = heisenberg_config(tmp_path, t_final=0.1, step=1e-2)
    assert run_cli(["heisenberg", "--config", cfg, "--out", tmp_path]) == 0
    assert names == ["initial", "hamiltonian"]


@pytest.mark.parametrize("kind, initial, bound", [
    ("heisenberg", [[0, 1], [1, 0]], 3e-11),
    ("lvn", LVN_MATRICES["initial"], 1e-14),
])
def test_endpoint_reference_uses_the_evolved_hamiltonian(tmp_path, capsys, kind, initial,
                                                        bound):
    # H is within HERMITIAN_TOL of Hermitian; RK4 evolves its Hermitian part,
    # and so must the exact reference (eigh of H itself reads one triangle)
    h = [[1, 1 + 4e-11], [1, -1]]
    cfg = write_config(tmp_path / "cfg.json", kind, {"initial": initial, "hamiltonian": h},
                       10.0, 1e-3)
    assert run_cli([kind, "--config", cfg, "--out", tmp_path]) == 0
    assert parse_lines(capsys.readouterr().out)["rk4_exact_endpoint"][0] <= bound


def test_verify_checks_each_input_once(tmp_path, monkeypatch):
    names = hermitian_check_names(monkeypatch)
    cfg = write_config(tmp_path / "cfg.json", "verify",
                       {"initial": [[0, 1], [1, 0]], "hamiltonian": [[1, 0], [0, -1]]}, 0.1, 1e-2)
    assert run_cli(["verify", "--config", cfg, "--out", tmp_path]) == 0
    assert names == ["initial", "hamiltonian"]


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


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("a_scale, h_scale", [(1, 1), (10, 1), (1, 3)],
                         ids=["unit", "a0x10", "hx3"])
def test_verify_residual_is_its_closed_form(tmp_path, capsys, n, a_scale, h_scale):
    """On the exact flow, el_residual_max is step^2/3 ||ad_H^3 A0||_F, with
    ad_H X = X H - H X, for unit-norm A0 and H and each scaled; the
    refinement ratio is then 4."""
    rng = np.random.default_rng(n)
    a0, h = (rand_hermitian(rng, n) for _ in range(2))
    a0 *= a_scale / np.linalg.norm(a0)
    h *= h_scale / np.linalg.norm(h)
    step = 1e-2
    cfg = write_config(tmp_path / "cfg.json", "verify",
                       {"initial": a0, "hamiltonian": h}, 1.0, step)
    assert run_cli(["verify", "--config", cfg, "--out", tmp_path]) in (0, 1)
    capsys.readouterr()
    invariants = json.loads((tmp_path / "report.json").read_text())["invariants"]
    ad = a0
    for _ in range(3):
        ad = ad @ h - h @ ad
    predicted = step**2 / 3 * np.linalg.norm(ad)
    assert invariants["el_residual_max"]["max"] == pytest.approx(predicted, rel=1e-3)
    assert invariants["convergence_ratio"]["max"] <= 5e-3


#: One short passing run of each kind: (kind, matrices, t_final, step).
SMALL_RUNS = [
    ("heisenberg", {"initial": [[0, 1], [1, 0]], "hamiltonian": [[1, 0], [0, -1]]},
     0.05, 1e-2),
    ("lvn", LVN_MATRICES, 0.05, 1e-2),
    ("sb2c", {"initial": [[-1.0, 6.0]], "a0": [[1, 1], [1, 2]],
              "hamiltonian": [[1, 0], [0, -1]]}, 0.05, 1e-2),
    ("bloch", {"initial": [[0.1, -0.2, 0.3]]}, 0.05, 1e-2),
    ("verify", {"initial": [[0, 1], [1, 0]], "hamiltonian": [[1, 0], [0, -1]]},
     0.1, 1e-2),
]


def test_no_kind_imports_scipy(tmp_path):
    """All five kinds, the unitary chart and refine over the orbit check run in
    one fresh process with scipy blocked, and no scipy module is loaded."""
    runs = []
    for kind, matrices, t_final, step in SMALL_RUNS:
        cfg = write_config(tmp_path / f"{kind}.json", kind, matrices, t_final, step)
        runs.append([kind, "--config", str(cfg), "--out", str(tmp_path / kind)])
    script = (
        "import functools, math, sys\n"
        "sys.modules['scipy'] = None\n"  # any scipy import now raises ImportError
        "import numpy as np\n"
        "from isospec_lag import cli\n"
        "from isospec_lag.verifier import el_residual_unitary_path, refine, verify_unitary_path\n"
        f"codes = [cli.main(argv) for argv in {runs!r}]\n"
        "h = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.5]])\n"
        "sigma = np.diag([0.7, 0.3])\n"
        "w, v = np.linalg.eigh(h)\n"
        "def flow(times):\n"  # exp(-iHt) at each time
        "    return (v * np.exp(-1j * np.multiply.outer(times, w))[:, None, :]) @ v.conj().T\n"
        "times = np.arange(7) * 1e-3\n"
        "rows = el_residual_unitary_path(times, flow(times), sigma, h)\n"
        "times = np.arange(9) * 1e-2\n"
        "check = functools.partial(verify_unitary_path, sigma=sigma, hamiltonian=h)\n"
        "fine = refine(check, times, flow(times))[0]\n"
        "print(codes, rows.shape, float(np.max(np.abs(rows))) <= 1e-4,\n"
        "      math.isfinite(fine.max_residual))\n"
        "print(sorted(m for m, mod in sys.modules.items()\n"
        "             if mod is not None and m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, scipy_modules = proc.stdout.splitlines()[-2:]
    assert codes == "[0, 0, 0, 0, 0] (3, 4) True True"
    assert scipy_modules == "[]"


#: The package's modules each kind runs, beside the root, trajectory and
#: operator_core, which every kind loads.
KIND_MODULES = {
    "heisenberg": set(),
    "lvn": {"unitary_orbit"},
    "sb2c": {"sb2c"},
    "bloch": {"bloch"},
    "verify": {"heisenberg", "verifier"},
}


@pytest.mark.parametrize("kind, matrices, t_final, step", SMALL_RUNS,
                         ids=[run[0] for run in SMALL_RUNS])
def test_each_kind_loads_only_its_modules(tmp_path, kind, matrices, t_final, step):
    """A fresh ``python -m isospec_lag.cli KIND`` process, the path of one
    command-line scenario, imports exactly its kind's package modules.
    ``-X importtime`` names every module the process imports, once."""
    cfg = write_config(tmp_path / "cfg.json", kind, matrices, t_final, step)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "isospec_lag.cli", kind,
         "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert {m for m in imported if m.split(".")[0] == "isospec_lag"} == (
        {"isospec_lag", "isospec_lag.trajectory", "isospec_lag.operator_core"}
        | {f"isospec_lag.{m}" for m in KIND_MODULES[kind]})


def test_bloch_flow_beyond_float_range_exits_2(tmp_path, capsys):
    # the diagonal flow scales the state by e^t, which overflows past t ~ 709.78
    cfg = write_config(tmp_path / "cfg.json", "bloch", {"initial": [[0.1, -0.2, 0.3]]},
                       1500.0, 100.0)
    assert run_cli(["bloch", "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "config error: flow time leaves float range" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("a0, message", [
    # rho0's d = 1e300 is finite, but d^2 in Phi's k0 is not
    pytest.param([[1, 1], [1e150, 2]], "a coefficient of Phi or of the reduced field",
                 id="field-coefficients"),
    pytest.param([[1, 1], [1e200, 2]], "rho0 = A0 A0^dag or A0 H A0^dag", id="rho0"),
])
def test_sb2c_parameters_beyond_float_range_exit_2(tmp_path, capsys, monkeypatch, a0, message):
    force_split(monkeypatch)  # a table of any size would be streamed
    forks = count_forks(monkeypatch)
    cfg = write_config(tmp_path / "cfg.json", "sb2c",
                       {"initial": [[-1.0, 6.0]], "a0": a0, "hamiltonian": [[1, 0], [0, -1]]},
                       1.0, 1e-2)
    assert run_cli(["sb2c", "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: sb2c parameters beyond float range: {message} is not finite\n"
    assert not (tmp_path / "out").exists()
    assert forks == []


def test_bloch_at_the_south_pole_exits_0(tmp_path, capsys):
    # the diagonal flow fixes the south pole and shrinks its state's trace to
    # e^-40; the centre of the ball, whose Bloch vector has norm 0 at t = 0,
    # must not reach the division of the rounding clamp
    for point in ([0, 0, -1], [0, 0, 0]):
        cfg = write_config(tmp_path / "cfg.json", "bloch", {"initial": [point]}, 40.0, 0.1)
        assert run_cli(["bloch", "--config", cfg, "--out", tmp_path / "out"]) == 0
        captured = capsys.readouterr()
        assert "FAIL" not in captured.out
        assert captured.err == ""


@pytest.mark.parametrize("point", [[0, 0, 1], [0, 0, -1], [0.6, 0, 0.8]],
                         ids=["north-pole", "south-pole", "sphere"])
def test_bloch_at_the_largest_flow_time_exits_0(tmp_path, capsys, point):
    # at t = FLOW_T_MAX the diagonal flow scales an entry of g sigma g^dag by
    # e^t, to the top of float range, and another by e^-t, to a subnormal
    cfg = write_config(tmp_path / "cfg.json", "bloch", {"initial": [point]},
                       bloch.FLOW_T_MAX, bloch.FLOW_T_MAX / 2)
    assert run_cli(["bloch", "--config", cfg, "--out", tmp_path / "out"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert all(math.isfinite(inv["max"]) for inv in report["invariants"].values())


def test_bloch_state_beyond_float_range_exits_2(tmp_path, capsys):
    # within the ball's tolerance of P, e^t (1 + 5e-11) overflows at FLOW_T_MAX:
    # the trace check's config error, and no numpy warning
    cfg = write_config(tmp_path / "cfg.json", "bloch", {"initial": [[0, 0, 1 + 1e-10]]},
                       bloch.FLOW_T_MAX, bloch.FLOW_T_MAX / 2)
    assert run_cli(["bloch", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == (
        "config error: conjugated state has no positive finite trace\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("via, under, kind", [("--out", False, "heisenberg"),
                                              ("output.path", True, "heisenberg"),
                                              ("--out", False, "sb2c")],
                         ids=["out-names-a-file", "output-path-under-a-file",
                              "sb2c-out-names-a-file"])
def test_unwritable_output_path_exits_2(tmp_path, capsys, monkeypatch, via, under, kind):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    out = blocker / "out" if under else blocker
    if kind == "sb2c":  # its table would be streamed while the run steps
        force_split(monkeypatch)
    cfg = heisenberg_config(tmp_path) if kind == "heisenberg" else worked_sb2c_config(tmp_path)
    args = [kind, "--config", cfg]
    if via == "--out":
        args += ["--out", out]
    else:
        doc = json.loads(cfg.read_text())
        doc["output"]["path"] = str(out)
        cfg.write_text(json.dumps(doc))
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot write outputs to {out}: " in err
    assert "Traceback" not in err
    assert blocker.read_text() == "a regular file\n"


def test_a_failing_split_write_exits_2(tmp_path, capsys, monkeypatch):
    # a finished heisenberg table's second half, and an sb2c table whose
    # child fails at its first block while the run goes on stepping
    force_split(monkeypatch)
    monkeypatch.setattr(trajectory, "_csv_block", fail_in("child", trajectory._csv_block))
    for kind, cfg in (("heisenberg", heisenberg_config(tmp_path)),
                      ("sb2c", worked_sb2c_config(tmp_path))):
        out = tmp_path / kind
        assert run_cli([kind, "--config", cfg, "--out", out]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"config error: cannot write outputs to {out}: ")
        assert line.endswith("exited with status 1")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


WORKED_SB2C = {"a0": [[1, 1], [1, 2]], "hamiltonian": [[1, 0], [0, -1]]}


def worked_sb2c_config(tmp_path, initial=(-2.0, 6.0), t_final=5.0):
    """The worked sb2c setup, stepped at 1e-3: from (y, r) = (-2, 6) to
    t = 5 it exits 0 with 5,001 rows, 20,004 floats, which stream."""
    return write_config(tmp_path / "sb2c.json", "sb2c",
                        {"initial": [list(initial)], **WORKED_SB2C}, t_final, 1e-3)


@pytest.mark.parametrize("initial, t_final, code, rows", [
    ((-2.0, 6.0), 5.0, 0, 5001),
    ((-3.0, 1.0), 2.0, 3, 1483),  # halts near t = 1.48: its last block has 203 rows
    ((-2.0, 6.0), 0.511, 0, 2 * trajectory.CSV_BLOCK_ROWS),
    ((-1.0, 1e80), 1.0, 3, 0),  # Phi is not finite at the start: the header only
], ids=["full", "halting", "two-blocks", "singular-at-start"])
def test_a_streamed_sb2c_table_is_write_csv_of_the_run(tmp_path, monkeypatch, caplog, initial,
                                                        t_final, code, rows):
    """sb2c's CSV is rendered by one forked child while integrate_reduced
    steps, and it is what write_csv writes for the returned trajectory."""
    params = derive_parameters(SB2CSetup(**WORKED_SB2C))
    traj = integrate_reduced(ReducedState(*initial), params, t_final, 1e-3)
    assert traj.n_samples == rows
    trajectory.write_csv(traj, tmp_path / "reference.csv")
    force_split(monkeypatch)
    forks = count_forks(monkeypatch)
    caplog.set_level(logging.DEBUG, logger="isospec_lag.trajectory")
    cfg = worked_sb2c_config(tmp_path, initial, t_final)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli(["sb2c", "--config", cfg, "--out", tmp_path / "out"]) == code
    assert ((tmp_path / "out" / "trajectory.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())
    assert len(forks) == 1
    [line] = [r.getMessage() for r in caplog.records if r.name == "isospec_lag.trajectory"]
    assert re.fullmatch(rf"wrote csv .*trajectory\.csv: {rows} x 4, {4 * rows} floats, "
                        r"streamed, \d+\.\d{4} s", line)
    assert_no_child_left()


@pytest.mark.parametrize("host", ["cli-mix grid", "one cpu", "no fork", "sigchld ignored"])
def test_an_sb2c_table_that_cannot_split_is_written_after_the_run(tmp_path, monkeypatch, caplog,
                                                                   host):
    """No fork, and today's one-process write_csv once the run ends: for a
    grid below PARALLEL_MIN_FLOATS (cli-mix's 1,001 rows, 4,004 floats)
    and wherever the table cannot split."""
    t_final = 1.0 if host == "cli-mix grid" else 5.0
    rows = round(t_final / 1e-3) + 1
    params = derive_parameters(SB2CSetup(**WORKED_SB2C))
    trajectory.write_csv(integrate_reduced(ReducedState(-2.0, 6.0), params, t_final, 1e-3),
                         tmp_path / "reference.csv")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if host == "one cpu" else {0, 1},
                        raising=False)
    forks = count_forks(monkeypatch)
    if host == "no fork":
        monkeypatch.delattr(os, "fork")
    caplog.set_level(logging.DEBUG, logger="isospec_lag.trajectory")
    cfg = worked_sb2c_config(tmp_path, t_final=t_final)
    previous = signal.signal(signal.SIGCHLD,
                             signal.SIG_IGN if host == "sigchld ignored" else signal.SIG_DFL)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli(["sb2c", "--config", cfg, "--out", tmp_path / "out"]) == 0
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert ((tmp_path / "out" / "trajectory.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())
    assert forks == []
    [line] = [r.getMessage() for r in caplog.records if r.name == "isospec_lag.trajectory"]
    assert f": {rows} x 4, {4 * rows} floats, serial, " in line


def test_a_failing_sb2c_run_still_reaps_its_streaming_child(tmp_path, monkeypatch):
    # the field raises at its 2,000th call, about step 500, after the first block is sent
    flow = sb2c._reduced_flow

    def failing_flow(params):
        terms, field = flow(params)
        calls = itertools.count(1)

        def failing(y, r):
            if next(calls) == 2000:
                raise RuntimeError("planted failure in the loop")
            return field(y, r)

        return terms, failing

    monkeypatch.setattr(sb2c, "_reduced_flow", failing_flow)
    force_split(monkeypatch)
    forks = count_forks(monkeypatch)
    with pytest.raises(RuntimeError, match="planted failure in the loop"):
        run_cli(["sb2c", "--config", worked_sb2c_config(tmp_path), "--out", tmp_path / "out"])
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("kind, fmt", [("heisenberg", "csv"), ("heisenberg", "json"),
                                       ("sb2c", "csv")], ids=["csv", "json", "sb2c-csv"])
def test_a_split_cli_run_prints_each_line_once(tmp_path, kind, fmt):
    """A command-line run whose table is split (5,001 rows x 9 floats) or
    streamed while the run steps (sb2c, 5,001 rows x 4): the forked child
    leaves without flushing what the parent has buffered, so stdout holds
    the marker printed before the run and each invariant line exactly
    once, and stderr holds no traceback.  Run again pinned to one CPU,
    where one process writes the table, it gives the same exit code,
    stdout and trajectory bytes.  Only the test's own child is pinned."""
    cfg = heisenberg_config(tmp_path, t_final=5.0) if kind == "heisenberg" else (
        worked_sb2c_config(tmp_path))
    script = ("import sys; from isospec_lag import cli; print('started'); "
              "sys.exit(cli.main(sys.argv[1:]))")
    # stdout is a pipe, so the marker stays in its buffer through the fork
    env = {k: v for k, v in src_env().items() if k != "PYTHONUNBUFFERED"}
    split = ("split" if kind == "heisenberg" else "streamed") if trajectory._can_split() else (
        "serial")
    runs = [("unpinned", split, None)]
    if hasattr(os, "sched_setaffinity"):
        cpu = min(os.sched_getaffinity(0))
        runs.append(("pinned", "serial", lambda: os.sched_setaffinity(0, {cpu})))
    results = []
    for run, mode, pin in runs:
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", script, kind, "--config",
             str(cfg), "--out", str(tmp_path / run), "--format", fmt],
            capture_output=True, text=True, env={**env, "ISOSPEC_LOG": "debug"},
            preexec_fn=pin, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "started"
        assert ([LINE.match(line)["name"] for line in lines[1:]]
                == list(cli.SCENARIO_KINDS[kind][2]))
        assert "Traceback" not in proc.stderr
        floats = {"heisenberg": "5001 x 9, 45009", "sb2c": "5001 x 4, 20004"}[kind]
        assert f": {floats} floats, {mode}, " in proc.stderr
        results.append((proc.stdout, (tmp_path / run / f"trajectory.{fmt}").read_bytes()))
    assert all(result == results[0] for result in results)


def _console_script():
    """The program of the ``isospec-lag`` console script, as ``-c`` arguments:
    what the wrapper that pip generates from pyproject.toml runs."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, func = re.search(r'^isospec-lag = "([\w.]+):(\w+)"$', text, re.M).groups()
    return ["-c", f"import sys; from {module} import {func}; sys.exit({func}())"]


ENTRY_POINTS = {"python -m": ["-m", "isospec_lag.cli"], "console script": _console_script()}
HEISENBERG_PAIR = {"initial": [[0, 1], [1, 0]], "hamiltonian": [[1, 0], [0, -1]]}


#: One config per exit code: (kind, matrices, t_final, step, extra arguments, exit code).
EXIT_CONTRACT = {
    "exit0": ("heisenberg", HEISENBERG_PAIR, 0.05, 1e-2, [], 0),
    "exit1": ("heisenberg", HEISENBERG_PAIR, 0.05, 1e-2,
              ["--tolerance", "rk4_exact_endpoint=0"], 1),
    "exit2": ("heisenberg", {"initial": [[0, 1], [1, 0]]}, 0.05, 1e-2, [], 2),
    "exit3": ("sb2c", {"initial": [[-3.0, 1.0]], **WORKED_SB2C}, 2.0, 1e-3, [], 3),
}


@pytest.fixture(scope="module")
def cli_process(tmp_path_factory):
    """``cli_process(entry, case)`` runs an EXIT_CONTRACT case through an
    entry point in a fresh process, once per module, and returns the
    completed process and its output directory.  Each process runs in a
    directory of its own on relative paths, so the outputs of the two
    entry points compare byte for byte."""
    done = {}

    def run(entry, case):
        if (entry, case) not in done:
            kind, matrices, t_final, step, args, _ = EXIT_CONTRACT[case]
            cwd = tmp_path_factory.mktemp(case)
            write_config(cwd / "cfg.json", kind, matrices, t_final, step)
            done[entry, case] = subprocess.run(
                [sys.executable, *ENTRY_POINTS[entry], kind, "--config", "cfg.json",
                 "--out", "out", *args],
                cwd=cwd, capture_output=True, text=True, env=src_env(), timeout=120), cwd / "out"
        return done[entry, case]

    return run


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("case", EXIT_CONTRACT)
def test_a_cli_process_keeps_the_exit_contract(cli_process, entry, case):
    """A command-line process, which freezes the collector once main has
    returned, exits with main's code, prints each invariant line once, says
    why on stderr for codes 2 and 3, prints no traceback, and writes
    report.json unless the config is rejected."""
    kind, code = EXIT_CONTRACT[case][0], EXIT_CONTRACT[case][-1]
    proc, out = cli_process(entry, case)
    assert proc.returncode == code, proc.stderr
    names = [m["name"] if (m := LINE.match(line)) else line for line in proc.stdout.splitlines()]
    assert names == ([] if code == 2 else list(cli.SCENARIO_KINDS[kind][2]))
    assert "Traceback" not in proc.stderr
    assert ("config error: " in proc.stderr) == (code == 2)
    assert ("warning: singularity near t=" in proc.stderr) == (code == 3)
    assert (out / "report.json").is_file() == (code != 2)


@pytest.mark.parametrize("case", EXIT_CONTRACT)
def test_both_entry_points_take_one_exit_path(cli_process, case):
    """The console script and ``python -m`` give the same exit code, stdout,
    stderr and trajectory bytes, for each exit code."""
    (script, script_out), (module, module_out) = (cli_process(entry, case)
                                                  for entry in ("console script", "python -m"))
    assert (script.returncode, script.stdout, script.stderr) == (
        module.returncode, module.stdout, module.stderr)
    trajectories = [sorted((p.name, p.read_bytes()) for p in out.glob("trajectory.*"))
                    for out in (script_out, module_out)]
    assert trajectories[0] == trajectories[1]
    assert trajectories[0] or EXIT_CONTRACT[case][-1] == 2


def test_a_4x4_verify_passes_alike_with_unpinned_blas_threads(tmp_path):
    """With the BLAS thread counts left to the library, two processes that
    run a 4x4 verify into one directory both pass, and write the same
    report.json but for wall_time_s."""
    matrices, t_final, step = VERIFY_4X4
    cfg = write_config(tmp_path / "cfg.json", "verify", matrices, t_final, step)
    env = {k: v for k, v in src_env().items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    reports = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, *ENTRY_POINTS["console script"], "verify", "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        del report["wall_time_s"]
        assert sorted(report["invariants"]) == ["convergence_ratio", "el_residual_max"]
        assert all(entry["pass"] for entry in report["invariants"].values())
        reports.append(report)
    assert reports[0] == reports[1]


def test_main_leaves_the_collector_alone(tmp_path):
    """Only the script entry freezes the collector: main, which tests,
    tools and the benchmark worker call in-process, does not."""
    before = gc.isenabled(), gc.get_freeze_count()
    assert run_cli(["heisenberg", "--config", heisenberg_config(tmp_path, t_final=0.05),
                    "--out", tmp_path]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_python_m_logs_as_isospec_lag_cli(tmp_path):
    """Under ``python -m`` the module runs as __main__, but its records
    still come from the isospec_lag.cli logger."""
    cfg = write_config(tmp_path / "cfg.json", "verify", HEISENBERG_PAIR, 0.1, 1e-2)
    proc = subprocess.run(
        [sys.executable, *ENTRY_POINTS["python -m"], "verify", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**src_env(), "ISOSPEC_LOG": "info"}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    info = [line for line in proc.stderr.splitlines() if line.startswith("INFO ")]
    assert len(info) == 3  # fine pass, coarse pass, ratio
    assert all(line.startswith("INFO isospec_lag.cli: ") for line in info), info


def test_isospec_log_applies_on_every_call(tmp_path, monkeypatch, caplog):
    """Each call of main reads ISOSPEC_LOG again, so a process that calls
    it twice logs at the second call's level."""
    cfg = write_config(tmp_path / "cfg.json", "verify", HEISENBERG_PAIR, 0.1, 1e-2)
    root = logging.getLogger()
    level = root.level
    try:
        for value, logged in (("warn", False), ("info", True)):
            monkeypatch.setenv("ISOSPEC_LOG", value)
            caplog.clear()
            assert run_cli(["verify", "--config", cfg, "--out", tmp_path / value]) == 0
            assert ("fine pass:" in caplog.text) == logged
    finally:
        root.setLevel(level)


def test_sb2c_field_overflow_at_start_exits_3(tmp_path, capsys, caplog):
    # at r = 1e-55 Phi'(r) divides by a den^2 that underflows to 0
    for r in (1e80, 1e-55):
        cfg = write_config(
            tmp_path / "cfg.json", "sb2c",
            {"initial": [[-1.0, r]], "a0": [[1, 1], [1, 2]],
             "hamiltonian": [[1, 0], [0, -1]]},
            1.0, 1e-2,
        )
        with caplog.at_level("INFO", logger="isospec_lag.cli"):
            assert run_cli(["sb2c", "--config", cfg, "--out", tmp_path]) == 3
        captured = capsys.readouterr()
        assert "overflowing field" in captured.err
        assert "Traceback" not in captured.err
        # the zero-row trajectory: no sample to judge an invariant by
        assert all(value != value for value, _, _ in parse_lines(captured.out).values())
        assert "worst at sample" not in caplog.text
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["singular"] is True
        assert set(report["invariants"]) == set(cli.SCENARIO_KINDS["sb2c"][2])
        for entry in report["invariants"].values():
            assert entry["max"] is None
            assert entry["pass"] is False
        assert (tmp_path / "trajectory.csv").read_text().splitlines() == ["t,y,r,x"]
        assert f"singular or overflowing field at r={r!r}: " in report["warnings"][0]


@pytest.mark.parametrize("a0, h, initial, step, t_final, rows, bracket, reason", [
    # a diagonal A0 gives a = 0, so a + d Phi'(r) = d Phi'(r) = 0 at every r
    pytest.param([[1, 0], [0, 2]], [[1, 0.5], [0.5, -1]], [-1.0, 2.0], 1e-2, 1.0, 0, None,
                 "a + d Phi'(r) vanishes at r=2.0", id="diagonal-a0"),
    pytest.param([[1, 1], [1, 2]], [[1, 0], [0, -1]], [-6.0, 0.16], 2.0, 2.0, 1, [0.0, 2.0],
                 "the step landed outside r > 0", id="landed-at-negative-r"),
    # the first stage reaches r ~ 1e198, where r^2 and so Phi leave float range
    pytest.param([[1, 1], [1, 2]], [[1, 0], [0, -1]], [1e200, 1.0], 1e-2, 1.0, 1, [0.0, 0.01],
                 "the field left float range", id="field-out-of-range"),
    # the worked setup from (-3, 1) halts near t = 1.48, where the landing
    # point's a + d Phi'(r) has the other sign
    pytest.param([[1, 1], [1, 2]], [[1, 0], [0, -1]], [-3.0, 1.0], 1e-3, 2.0, 1483,
                 [1.482, 1.483], "a + d Phi'(r) changed sign from r=", id="sign-change"),
])
def test_sb2c_halting_record(tmp_path, capsys, a0, h, initial, step, t_final, rows, bracket,
                             reason):
    cfg = write_config(tmp_path / "cfg.json", "sb2c",
                       {"initial": [initial], "a0": a0, "hamiltonian": h}, t_final, step)
    assert run_cli(["sb2c", "--config", cfg, "--out", tmp_path]) == 3
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and reason in captured.err
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["singular"] is True
    if initial[0] == 1e200:  # the row's group matrix is out of float range
        assert np.isnan(parse_lines(captured.out)["determinant_conservation"][0])
        assert report["invariants"]["determinant_conservation"]["max"] is None
    assert f"bracket={bracket!r}" in report["warnings"][0]
    assert reason in report["warnings"][0]
    assert len((tmp_path / "trajectory.csv").read_text().splitlines()) == 1 + rows
    if rows == 0:  # no sample to judge an invariant by
        assert all(entry["max"] is None and entry["pass"] is False
                   for entry in report["invariants"].values())


def test_verify_at_the_rounding_floor_skips_the_ratio(tmp_path, capsys):
    # A0 = H: the exact flow is stationary, so both residuals are rounding
    cfg = write_config(tmp_path / "cfg.json", "verify",
                       {"initial": [[1, 0], [0, -1]], "hamiltonian": [[1, 0], [0, -1]]},
                       0.1, 0.01)
    assert run_cli(["verify", "--config", cfg, "--out", tmp_path]) == 0
    captured = capsys.readouterr()
    lines = parse_lines(captured.out)
    assert lines["el_residual_max"][0] < 1e-12
    assert lines["convergence_ratio"][0] == 0.0
    assert {status for _, _, status in lines.values()} == {"PASS"}
    warning = "residuals at rounding floor; convergence ratio not measured"
    assert captured.err.splitlines() == [f"warning: {warning}"]
    assert json.loads((tmp_path / "report.json").read_text())["warnings"] == [warning]


def test_verify_with_large_entries_has_no_rounding_error(tmp_path, capsys):
    # entries of 1e4 make the Lagrangian's terms ~1e8: its finite differences
    # round at that scale
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
    """A config of the kind that exits 0, with every optional key set and
    the legacy key "seed", which the loader ignores."""
    t_final, step = TINY_GRID[kind]
    return {
        "kind": kind,
        "matrices": {k: pairs(v) for k, v in VALID_MATRICES[kind].items()},
        "times": {"t_final": t_final, "step": step},
        "output": {"format": "csv"},
        "seed": 1,
        "tolerances": {next(iter(cli.SCENARIO_KINDS[kind][2])): 1.0},
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
    pytest.param("heisenberg", ("matrices", "initial"), [[[True, 0], [1, False]], [[1, 0], [0, 0]]],
                 id="bool-heisenberg-initial"),
    pytest.param("sb2c", ("matrices", "initial"), [[[-1.0, 0], [True, 0]]], id="bool-sb2c-row"),
])
def test_malformed_value_exits_2(tmp_path, kind, path, value):
    doc = valid_doc(kind)
    doc[path[0]][path[1]] = value
    code, err = run_doc(doc, kind, tmp_path)
    assert code == 2
    assert "config error" in err
    assert not (tmp_path / "run").exists()


def test_non_string_output_path_exits_2(tmp_path, capsys):
    doc = valid_doc("heisenberg")
    doc["output"]["path"] = 5
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(["heisenberg", "--config", cfg]) == 2
    assert "output path must be a string" in capsys.readouterr().err


@pytest.mark.parametrize("kind, text, args, message", [
    pytest.param("heisenberg", "{not json", [], "config is not valid JSON", id="not-json"),
    pytest.param("heisenberg", "[]", [], "config root must be an object", id="list-root"),
    pytest.param("heisenberg", json.dumps({**valid_doc("heisenberg"), "matrices": []}), [],
                 "matrices must be an object", id="list-matrices"),
    pytest.param("heisenberg", json.dumps(valid_doc("heisenberg")), ["--tolerance", "foo"],
                 "--tolerance expects NAME=VALUE, got 'foo'", id="tolerance-without-value"),
    pytest.param("verify", json.dumps({**valid_doc("verify"),
                                       "times": {"t_final": 0.05, "step": 0.01}}), [],
                 "verify needs at least 9 grid samples", id="six-sample-verify"),
    pytest.param("verify", json.dumps({**valid_doc("verify"),
                                       "times": {"t_final": 0.07, "step": 0.01}}), [],
                 "verify needs at least 9 grid samples", id="eight-sample-verify"),
    pytest.param("heisenberg", json.dumps({**valid_doc("heisenberg"), "matrices": {
        **valid_doc("heisenberg")["matrices"], "initial": [[0, 1], [1, 0]]}}), [],
                 "matrix 'initial' must be a nested array of [re, im] pairs, got shape (2, 2)",
                 id="real-matrix"),
    pytest.param("heisenberg", json.dumps({**valid_doc("heisenberg"), "tolerances": [1.0]}), [],
                 "tolerances must be an object", id="list-tolerances"),
    pytest.param("heisenberg", json.dumps({**valid_doc("heisenberg"), "output": {"format": "xml"}}),
                 [], "format must be csv or json, got 'xml'", id="xml-format"),
    pytest.param("heisenberg", json.dumps({**valid_doc("heisenberg"), "output": []}), [],
                 "output must be an object", id="list-output"),
    pytest.param("sb2c", json.dumps({**valid_doc("sb2c"), "matrices": {
        **valid_doc("sb2c")["matrices"], "initial": [[[-1.0, 0.5], [6.0, 0.0]]]}}), [],
                 "matrix 'initial' must be real", id="imaginary-sb2c-initial"),
    pytest.param("sb2c", json.dumps({**valid_doc("sb2c"), "matrices": {
        **valid_doc("sb2c")["matrices"], "a0": pairs(np.eye(3))}}), [],
                 "a0 must have shape (2, 2), got (3, 3)", id="3x3-a0"),
    # rho0's second row is zero, so d = 0
    pytest.param("sb2c", json.dumps({**valid_doc("sb2c"), "matrices": {
        **valid_doc("sb2c")["matrices"], "a0": pairs([[1, 1], [0, 0]])}}), [],
                 "reduced dynamics requires d != 0", id="sb2c-d-zero"),
])
def test_config_error_exits_2_on_one_line_without_outputs(tmp_path, capsys, monkeypatch, kind,
                                                          text, args, message):
    force_split(monkeypatch)  # a table of any size would be split or streamed
    forks = count_forks(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run_cli([kind, "--config", cfg, "--out", out, *args]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: ") and message in line
    assert not out.exists()
    assert forks == []


def test_load_config_rejects_an_unknown_kind(tmp_path):
    # main's argparse choices keep such a kind from the loader; a direct caller meets this
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(valid_doc("heisenberg")))
    with pytest.raises(cli.ConfigError, match="^unknown kind 'nope'$"):
        cli.load_config(cfg, "nope")


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
    range on its way to a failed invariant.  A mutated "seed" is neither:
    the loader ignores that key, so the run exits as the valid config does.
    """
    kind = draw(st.sampled_from(list(cli.SCENARIO_KINDS)))
    doc = valid_doc(kind)
    required = [("matrices",), ("times",), ("times", "t_final"), ("times", "step")]
    required += [("matrices", name) for name in cli.SCENARIO_KINDS[kind][1]]
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
        return kind, doc, path != ("seed",), False
    if mutation == "shape":
        name = draw(st.sampled_from(sorted(doc["matrices"])))
        shape = draw(st.sampled_from(
            [s for s in SHAPES if s != np.shape(VALID_MATRICES[kind][name])]))
        doc["matrices"][name] = pairs(np.full(shape, 0.1))
        return kind, doc, True, False
    path = draw(st.sampled_from(_numeric_leaves(doc)))
    if mutation == "non_finite":
        _set(doc, path, draw(st.sampled_from(NON_FINITE)))
        return kind, doc, path != ("seed",), False
    value = draw(st.sampled_from(EXTREMES))
    _set(doc, path, value)
    # a big integer is no float, and no run can pass a negative tolerance
    malformed = (value == 10**400 or path[0] == "tolerances" and value < 0) and path != ("seed",)
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
    def without_seed(d):  # as JSON text, where True and 1.0 differ
        return json.dumps({k: v for k, v in d.items() if k != "seed"}, sort_keys=True)

    if isinstance(doc, dict) and without_seed(doc) == without_seed(valid_doc(kind)):
        assert code == 0, err  # only the seed moved: the valid config decides


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


@pytest.mark.parametrize("kind", list(cli.SCENARIO_KINDS))
def test_invariants_print_in_the_tolerance_table_order(tmp_path, capsys, kind):
    names = list(cli.SCENARIO_KINDS[kind][2])
    doc = valid_doc(kind)
    # the config file overrides the last tolerance, the command line the first
    doc["tolerances"] = {names[-1]: 2.0}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli([kind, "--config", cfg, "--out", tmp_path,
                    "--tolerance", f"{names[0]}=3.0"]) == 0
    printed = [LINE.match(line) for line in capsys.readouterr().out.splitlines()]
    assert [m["name"] for m in printed] == names
    assert float(printed[0]["tol"]) == 3.0
    assert float(printed[-1]["tol"]) == 2.0


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


HEISENBERG_DRIFTS = ("spectrum_drift", "trace_drift", "frobenius_drift", "rk4_exact_endpoint")


def heisenberg_maxima(tmp_path, a0, h):
    """report.json maxima of a heisenberg run from a0 under h, t 1, step 1e-3."""
    cfg = write_config(tmp_path / "cfg.json", "heisenberg", {"initial": a0, "hamiltonian": h},
                       1.0, 1e-3)
    assert run_cli(["heisenberg", "--config", cfg, "--out", tmp_path / "out"]) in (0, 1)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    return {name: report["invariants"][name]["max"] for name in HEISENBERG_DRIFTS}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_heisenberg_drifts_scale_with_the_initial_operator(tmp_path, capsys, n):
    # each drift is linear in A0.  A power-of-two factor is exact in every RK4
    # step, eigvalsh and norm, so it scales each maximum exactly; with H x 30,
    # where RK4's error and not rounding sets them, 1e6 scales the spectrum,
    # Frobenius and endpoint maxima to rounding (the trace drift is rounding alone)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a0, h = rand_hermitian(rng, n), rand_hermitian(rng, n)
        for norm in (1.0, 30.0):
            h_scaled = h * (norm / np.linalg.norm(h, 2))
            base = heisenberg_maxima(tmp_path, a0, h_scaled)
            for s in (2.0**20, 2.0**-20):
                assert heisenberg_maxima(tmp_path, s * a0, h_scaled) == {
                    name: s * value for name, value in base.items()}, (seed, norm, s)
            if norm == 30.0:
                scaled = heisenberg_maxima(tmp_path, 1e6 * a0, h_scaled)
                for name in ("spectrum_drift", "frobenius_drift", "rk4_exact_endpoint"):
                    assert scaled[name] == pytest.approx(1e6 * base[name], rel=1e-5), (seed, name)
