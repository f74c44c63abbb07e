"""Output checks of one scenario, against the benchmark's own references.

A scenario fails when any of these holds:

* its exit code is outside the allowed set ({0}; {0, 3} for sb2c);
* an invariant line is missing from stdout, or FAILs on an exit-0 run;
* report.json lacks one of the kind's invariant names;
* the last trajectory row differs from the numpy reference by more than
  ENDPOINT_TOL (the CLI's rk4_exact_endpoint default);
* the last t differs from t_final (runs that halt at a singularity,
  exit 3, are exempt);
* repeats of one config do not write byte-identical trajectories.

Row counts are deliberately not pinned.  An exit code outside the
allowed set makes the scenario fail; every other check also marks the
run's outputs as incorrect.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

ENDPOINT_TOL = 1e-8
T_FINAL_RTOL = 1e-12

ALLOWED_EXIT = {"sb2c": {0, 3}}
# kernel_identity is not required: it is a constant-matrix check slated to
# move from the sb2c run into a unit test.
INVARIANTS = {
    "heisenberg": ("spectrum_drift", "trace_drift", "frobenius_drift", "rk4_exact_endpoint"),
    "lvn": ("spectrum_drift", "purity_drift", "entropy_drift", "trace_drift",
            "rk4_exact_endpoint"),
    "sb2c": ("constraint_residual", "determinant_conservation"),
    "bloch": ("ball_invariance", "det_conservation", "wedge_closed_form",
              "flow_field_consistency", "fixed_point_p"),
    "verify": ("el_residual_max", "convergence_ratio"),
}
LINE = re.compile(r"^(\w+) max=\S+ tol=\S+ (PASS|FAIL)$")
MATRIX_COLUMN = re.compile(r"^[A-Za-z]+_(re|im)_(\d+)_(\d+)$")

PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex))


def _unpairs(node) -> np.ndarray:
    arr = np.asarray(node, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _conjugation(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t h) for Hermitian h, via eigh."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def reference_endpoint(kind: str, doc: dict) -> dict:
    """Expected last-row values by column name, or {} when there is none."""
    t = doc["times"]["t_final"]
    mats = {k: _unpairs(v) for k, v in doc["matrices"].items()}
    if kind in ("heisenberg", "verify", "lvn"):
        u = _conjugation(mats["hamiltonian"], t)
        a0 = mats["initial"]
        end = u @ a0 @ u.conj().T if kind == "lvn" else u.conj().T @ a0 @ u
        return {"matrix": end}
    if kind == "bloch":
        x = mats["initial"].real[0]
        sigma = 0.5 * (np.eye(2) + sum(x[k] * PAULI[k] for k in range(3)))
        flows = {1: np.array([[1, t], [0, 1]], dtype=complex),
                 2: np.array([[1, 1j * t], [0, 1]], dtype=complex),
                 3: np.diag([np.exp(t / 2), np.exp(-t / 2)]).astype(complex)}
        out = {}
        for k, g in flows.items():
            m = g @ sigma @ g.conj().T
            rho = m / np.trace(m).real
            for i in range(3):
                out[f"f{k}_x{i + 1}"] = float(np.trace(rho @ PAULI[i]).real)
        return out
    return {}


def read_last_row(path: Path):
    """(rows, last t, {column: last value}) of a CSV or JSON trajectory."""
    if path.suffix == ".csv":
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        if len(lines) < 2:
            return 0, None, {}
        last = [float(v) for v in lines[-1].split(",")]
        return len(lines) - 1, last[0], dict(zip(header[1:], last[1:]))
    doc = json.loads(path.read_text())
    if not doc["t"]:
        return 0, None, {}
    return (len(doc["t"]), doc["t"][-1],
            {name: col[-1] for name, col in doc["columns"].items()})


def _matrix_from_columns(row: dict) -> np.ndarray:
    entries = {}
    for name, value in row.items():
        m = MATRIX_COLUMN.match(name)
        if m:
            entries[(int(m[2]), int(m[3]), m[1])] = value
    n = 1 + max(i for i, _, _ in entries)
    out = np.zeros((n, n), dtype=complex)
    for (i, j, part), value in entries.items():
        out[i, j] += value if part == "re" else 1j * value
    return out


def check_outputs(kind: str, doc: dict, path: Path | None, exit_code: int) -> tuple[list, int]:
    """Content checks of a trajectory written by a first run of a config.

    Returns (problems, rows).
    """
    if path is None:
        return ([f"no trajectory file (exit {exit_code})"] if exit_code in (0, 3) else []), 0
    try:
        rows, t_last, row = read_last_row(path)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable trajectory: {exc!r}"], 0
    problems = []
    if exit_code == 0:
        t_final = doc["times"]["t_final"]
        if t_last is None or abs(t_last - t_final) > T_FINAL_RTOL * max(1.0, t_final):
            problems.append(f"last t {t_last!r} != t_final {t_final!r}")
    ref = reference_endpoint(kind, doc) if exit_code == 0 else {}
    if "matrix" in ref:
        try:
            err = float(np.linalg.norm(_matrix_from_columns(row) - ref["matrix"]))
        except ValueError:  # no matrix columns, or a shape other than the reference
            err = float("nan")
        if not err <= ENDPOINT_TOL:
            problems.append(f"endpoint off reference by {err:.3e}")
    elif ref:
        err = max(abs(row.get(k, np.nan) - v) for k, v in ref.items())
        if not err <= ENDPOINT_TOL:
            problems.append(f"endpoint off reference by {err:.3e}")
    return problems, rows


def check_report(kind: str, exit_code: int, stdout: str, out_dir: Path) -> tuple[list, list]:
    """(exit problems, output problems) from the exit code, stdout and report.json."""
    exit_problems, problems = [], []
    if exit_code not in ALLOWED_EXIT.get(kind, {0}):
        exit_problems.append(f"exit {exit_code}")
        return exit_problems, problems
    lines = {}
    for line in stdout.splitlines():
        m = LINE.match(line)
        if m:
            lines[m[1]] = m[2]
    for name in INVARIANTS[kind]:
        if name not in lines:
            problems.append(f"missing invariant line {name}")
    if exit_code == 0:
        problems += [f"{name} FAIL on exit 0" for name, s in lines.items() if s == "FAIL"]
    try:
        report = json.loads((out_dir / "report.json").read_text())
        missing = set(INVARIANTS[kind]) - set(report.get("invariants", {}))
    except (OSError, ValueError) as exc:
        problems.append(f"unreadable report.json: {exc}")
    else:
        problems += [f"report.json lacks {name}" for name in sorted(missing)]
    return exit_problems, problems
