"""Compare the CLI outputs of two source trees on the benchmark configs.

    python tools/same_outputs.py PARENT_SRC CHANGE_SRC

Each SRC is a directory holding the ``isospec_lag`` package, such as the
``src`` of a checkout.  For each tree, one child process imports the
package from it and runs the warm-up and the cycle of every workload in
``perfbench/workloads.py`` at seeds 11, 12 and 13, then the sb2c runs of
``ALPHA_SB2C`` below, through ``isospec_lag.cli.main``, one scenario
after another, with ``ISOSPEC_LOG=debug``.  Every run whose exit code,
stdout, stderr, ``report.json`` (without ``wall_time_s``, with
``trajectory`` relative to the output directory) or trajectory bytes
differ between the trees is printed, with what
decides whether the difference is only rounding: whether the exit codes
agree, whether every invariant's PASS/FAIL verdict agrees, the largest
absolute difference between the two trajectories' values, read from the
files, and how far each invariant's ``max`` in ``report.json`` moved,
relative to the larger of the two values and in absolute terms.  stderr
holds the INFO log and each trajectory write's DEBUG line, which names
its shape and write mode (``serial``, ``split`` or ``streamed``); in it
the tree's output root reads ``<out>`` and a write's trailing wall
seconds ``<s>``, so a run differs there only where its log, a table's
shape or its write mode does.

No CLI kind runs the orbit Lagrangian's check, so each child also runs
``verifier.el_residual_unitary_path`` on the fixed setups of
``ORBIT_SETUPS`` below.  Their rows are compared by the sha256 of their
bytes; where they differ, the largest absolute difference between the
two trees' rows is printed.  The summary line counts the differing CLI
runs of each kind, as in ``9 of 114 runs differ (bloch 9)``, and gives
the largest of each difference over all runs.  The exit status is 1 if
any run differs, else 0 (2 if a tree could not be run).  Of this
checkout only ``perfbench/`` is read; configs and outputs go to a
temporary directory.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (11, 12, 13)
FIELDS = ("exit", "stdout", "stderr", "report", "trajectory")
VERDICT = re.compile(r"(\S+) max=\S+ tol=\S+ (PASS|FAIL)")
WRITE_SECONDS = re.compile(r"^(.* wrote .*), \d+\.\d+ s$", re.M)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: sb2c runs of its own.  The first six have a real off-diagonal H, so
#: alpha != 0: every benchmark sb2c config has H = diag(1, -1), which leaves
#: the k0, n2 and d alpha terms of Phi out of the comparison.  The sixth
#: row's diagonal a0 gives a = 0, the record of a field singular at its
#: initial state.  The last three take the worked setup to three halting
#: reasons that the rows above do not reach.  Each row is (id, a0, H,
#: (y, r), t_final, step, format); the comment gives the exit code and what
#: decides it.
ALPHA_SB2C = (
    ("regular", [[1, 1], [1, 2]], [[1, 0.5], [0.5, -1]], (-1.0, 6.0), 2.0, 1e-2,
     "csv"),  # 0
    ("regular-json", [[1, 1], [1, 2]], [[1, 0.5], [0.5, -1]], (-2.0, 6.0), 2.0, 1e-2,
     "json"),  # 0
    ("halt", [[1, 1], [1, 2]], [[1, 0.5], [0.5, -1]], (1.0, 4.0), 2.0, 1e-2,
     "csv"),  # 3: the step [0.55, 0.56] lands past a root of a + d Phi'
    ("fail", [[-1.7, -1.9], [-1.1, -1.5]], [[1.2, -1.0], [-1.0, -1.9]], (-2.0, 6.0),
     2.0, 1e-2, "csv"),  # 1: constraint_residual 1.7e-8 > 1e-8
    ("pole", [[0, -2], [-0.3, 2]], [[-1.8, -1.6], [-1.6, 0.1]], (-2.0, 2.7), 1.0, 0.5,
     "csv"),  # 3: the first step [0, 0.5] jumps Phi's pole r = 2.953
    ("diagonal-a0", [[1, 0], [0, 2]], [[1, 0.5], [0.5, -1]], (-1.0, 2.0), 1.0, 1e-2,
     "csv"),  # 3: a = 0, so a + d Phi' = 0 at every r: no rows, bracket None
    ("stage-through-zero", [[1, 1], [1, 2]], [[1, 0], [0, -1]], (-3.0, 0.5), 5.0, 1e-3,
     "csv"),  # 3: the third RK4 stage of the step after t = 1.065 leaves r > 0; 1,066 rows
    ("landed-at-negative-r", [[1, 1], [1, 2]], [[1, 0], [0, -1]], (-6.0, 0.16), 2.0, 2.0,
     "csv"),  # 3: the one step [0, 2] lands on r <= 0
    ("field-out-of-range", [[1, 1], [1, 2]], [[1, 0], [0, -1]], (1e200, 1.0), 1.0, 1e-2,
     "csv"),  # 3: the first stage reaches r ~ 1e198, where r^2 and so Phi leave float range
)

#: (n, samples) of the el_residual_unitary_path runs: the flow u(t) = u0 exp(-iHt) on the
#: times 0.01 k, with u0, unit-norm H and a full-rank state sigma drawn from a seed of its own.
ORBIT_SETUPS = tuple((n, samples) for n in (1, 2, 3, 4) for samples in (11, 101, 401))


class _Buffer(io.TextIOBase):
    """Stand-in for stdout or stderr whose text is taken after each run, so
    a log handler bound to it once still lands in the right run."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return len(text)

    def take(self) -> str:
        text, self.parts = "".join(self.parts), []
        return text


def _real_pairs(m) -> list:
    return [[[float(v), 0.0] for v in row] for row in m]


def _scenarios(workloads):
    """(run id, scenario) of every run: the benchmark cycles, then ALPHA_SB2C."""
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            warmup, scenarios = workloads.cycle(name, seed)
            for sc in ([warmup] if warmup else []) + scenarios:
                yield f"{name}/seed{seed}/{sc.id}", sc
    for run, a0, h, (y, r), t_final, step, fmt in ALPHA_SB2C:
        doc = {"kind": "sb2c",
               "matrices": {"initial": _real_pairs([[y, r]]), "a0": _real_pairs(a0),
                            "hamiltonian": _real_pairs(h)},
               "times": {"t_final": t_final, "step": step},
               "output": {"format": fmt}}
        yield f"sb2c-alpha/{run}", workloads.Scenario(f"sb2c-alpha-{run}", "sb2c", doc)


def _run_tree(src: str, out_root: str) -> dict:
    """Outputs of every run, keyed by workload, seed and scenario (or by
    ``sb2c-alpha`` and the ALPHA_SB2C id); each run's files stay in
    ``out_root/<run id>/out``."""
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    from isospec_lag import cli
    import workloads

    if Path(src).resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"isospec_lag was imported from {cli.__file__}, not from {src}")
    out, err = _Buffer(), _Buffer()
    sys.stdout, sys.stderr = out, err
    results = {}
    for run_id, sc in _scenarios(workloads):
        run_dir = Path(out_root, run_id)
        run_dir.mkdir(parents=True)
        config = workloads.write_config(sc, run_dir)
        try:
            code = cli.main([sc.kind, "--config", str(config), "--out", str(run_dir / "out")])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is an output like any other
            code = 1
            traceback.print_exc()
        traj = _trajectory_file(out_root, run_id)
        digest = hashlib.sha256(traj.read_bytes()).hexdigest() if traj else None
        stderr = WRITE_SECONDS.sub(r"\1, <s> s", err.take().replace(out_root, "<out>"))
        results[run_id] = {"kind": sc.kind, "exit": code, "stdout": out.take(),
                           "stderr": stderr, "report": _report(run_dir / "out"),
                           "trajectory": digest}
    return results


def _orbit_setup(n: int, samples: int):
    """times, unitaries, sigma and H of one ORBIT_SETUPS run, from numpy alone."""
    rng = np.random.default_rng(1000 * n + samples)

    def gaussian():
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    g = gaussian()
    h = g + g.conj().T
    h /= np.linalg.norm(h)
    w, v = np.linalg.eigh(h)
    u0, basis = np.linalg.qr(gaussian())[0], np.linalg.qr(gaussian())[0]
    p = rng.random(n) + 0.1
    times = np.arange(samples) * 1e-2
    us = u0 @ (v * np.exp(-1j * np.multiply.outer(times, w))[:, np.newaxis, :]) @ v.conj().T
    return times, us, (basis * (p / p.sum())) @ basis.conj().T, h


def _orbit_rows(out_root: str) -> dict:
    """sha256 of each ORBIT_SETUPS run's rows, or the error it raised, keyed
    ``orbit/n<n>-<samples>``; the rows stay in ``out_root/<run id>.npy``."""
    from isospec_lag.verifier import el_residual_unitary_path

    Path(out_root, "orbit").mkdir(parents=True)
    results = {}
    for n, samples in ORBIT_SETUPS:
        run_id = f"orbit/n{n}-{samples}"
        try:
            rows = el_residual_unitary_path(*_orbit_setup(n, samples))
        except Exception as exc:  # an error is an output like any other
            results[run_id] = f"{type(exc).__name__}: {exc}"
            continue
        np.save(Path(out_root, f"{run_id}.npy"), rows)
        results[run_id] = hashlib.sha256(np.ascontiguousarray(rows).tobytes()).hexdigest()
    return results


def _largest_row_difference(parent_root: str, change_root: str, run_id: str) -> float | str:
    """Largest absolute difference between the trees' rows of an orbit run, or
    why they cannot be compared value by value."""
    paths = [Path(root, f"{run_id}.npy") for root in (parent_root, change_root)]
    if not all(p.is_file() for p in paths):
        return "no rows on " + ("both sides" if not any(p.is_file() for p in paths)
                                else "one side")
    a, b = (np.load(p) for p in paths)
    if a.shape != b.shape:
        return f"shapes differ: {a.shape} and {b.shape}"
    with np.errstate(invalid="ignore"):
        return float(np.max(np.abs(a - b), initial=0.0))


def _report(out_dir: Path) -> dict | None:
    """report.json without its wall time, with the trajectory path relative
    to ``out_dir``; None if the run wrote no report."""
    path = out_dir / "report.json"
    if not path.is_file():
        return None
    doc = json.loads(path.read_text())
    del doc["wall_time_s"]
    doc["trajectory"] = os.path.relpath(doc["trajectory"], out_dir)
    return doc


def _trajectory_file(out_root: str, run_id: str) -> Path | None:
    found = list(Path(out_root, run_id, "out").glob("trajectory.*"))
    return found[0] if found else None


def _table(path: Path) -> tuple[list, list]:
    """Column names (``t`` first) and rows of floats of a trajectory file."""
    if path.suffix == ".json":
        doc = json.loads(path.read_text())
        names = sorted(doc["columns"])
        return ["t"] + names, [list(row) for row in
                               zip(doc["t"], *(doc["columns"][k] for k in names))]
    header, *lines = path.read_text().splitlines()
    return header.split(","), [[float(x) for x in line.split(",")] for line in lines]


def _largest_difference(parent_root: str, change_root: str, run_id: str) -> float | str:
    """Largest absolute difference between the runs' trajectory values, or
    why they cannot be compared value by value."""
    paths = [_trajectory_file(root, run_id) for root in (parent_root, change_root)]
    if None in paths:
        return "no trajectory on " + ("both sides" if paths == [None, None]
                                      else "one side")
    (names_a, rows_a), (names_b, rows_b) = (_table(p) for p in paths)
    if names_a != names_b or len(rows_a) != len(rows_b):
        return f"shapes differ: {len(rows_a)} and {len(rows_b)} rows"
    a, b = np.array(rows_a, dtype=float), np.array(rows_b, dtype=float)
    with np.errstate(invalid="ignore"):  # inf - inf where both sides agree
        diff = np.where((a == b) | (np.isnan(a) & np.isnan(b)), 0.0, np.abs(a - b))
    return float(np.max(diff, initial=0.0))


def _value_drift(parent: dict | None, change: dict | None) -> dict | str:
    """{invariant: (relative, absolute difference)} of every invariant whose
    ``max`` differs between two reports, relative to the larger magnitude;
    or why the reports cannot be compared."""
    if parent is None or change is None:
        return "no report on " + ("both sides" if parent is change else "one side")
    maxima = [{name: inv["max"] for name, inv in doc["invariants"].items()}
              for doc in (parent, change)]
    if maxima[0].keys() != maxima[1].keys():
        return "the invariants differ"
    drift = {}
    for name, a in sorted(maxima[0].items()):
        b = maxima[1][name]
        if a == b:
            continue
        if a is None or b is None:  # a non-finite max is written as null
            return f"{name} max is {a} and {b}"
        drift[name] = (abs(a - b) / max(abs(a), abs(b)), abs(a - b))
    return drift


def _describe(drift: dict | str) -> str:
    if isinstance(drift, str):
        return drift
    return ", ".join(f"{name} {rel:.3g} relative ({diff:.3g} absolute)"
                     for name, (rel, diff) in drift.items()) or "none"


def _verdicts(stdout: str) -> list:
    return [m.groups() for m in map(VERDICT.fullmatch, stdout.splitlines()) if m]


def _outputs(src: str, out_root: str) -> dict | None:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({var: "1" for var in THREAD_VARS}, ISOSPEC_LOG="debug")
    proc = subprocess.run([sys.executable, __file__, "--child", src, out_root], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"{src}: child exited {proc.returncode}\n{proc.stderr[-2000:]}")
        return None
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        outputs = {"cli": _run_tree(argv[1], argv[2]), "orbit": _orbit_rows(argv[2])}
        print(json.dumps(outputs), file=sys.__stdout__)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        roots = str(Path(tmp, "parent")), str(Path(tmp, "change"))
        parent, change = _outputs(args.parent_src, roots[0]), _outputs(args.change_src, roots[1])
        if parent is None or change is None:
            return 2
        (parent, parent_orbit), (change, change_orbit) = ((d["cli"], d["orbit"])
                                                          for d in (parent, change))
        runs = sorted(parent.keys() | change.keys())
        differ = [run_id for run_id in runs if parent.get(run_id) != change.get(run_id)]
        kinds = Counter((parent.get(run_id) or change[run_id])["kind"] for run_id in differ)
        exits_differ, verdicts_differ, deltas, drifts = 0, 0, [], {}
        for run_id in differ:
            a, b = parent.get(run_id), change.get(run_id)
            if a is None or b is None:
                print(f"{run_id}: only in the {'change' if a is None else 'parent'}")
                continue
            print(f"{run_id}: {', '.join(f for f in FIELDS if a[f] != b[f])} differ")
            for f in FIELDS[:4]:
                if a[f] != b[f]:
                    print(f"  parent {f}: {a[f]!r}\n  change {f}: {b[f]!r}")
            same_exit = a["exit"] == b["exit"]
            same_verdicts = _verdicts(a["stdout"]) == _verdicts(b["stdout"])
            delta = _largest_difference(*roots, run_id)
            drift = _value_drift(a["report"], b["report"])
            exits_differ += not same_exit
            verdicts_differ += not same_verdicts
            if isinstance(delta, float):
                deltas.append(delta)
            if isinstance(drift, dict):
                for name, (rel, diff) in drift.items():
                    worst_rel, worst_diff = drifts.get(name, (0.0, 0.0))
                    drifts[name] = (max(worst_rel, rel), max(worst_diff, diff))
            print(f"  exit codes {'agree' if same_exit else 'DIFFER'}; "
                  f"PASS/FAIL verdicts {'agree' if same_verdicts else 'DIFFER'}; "
                  f"largest trajectory difference: {delta}; "
                  f"invariant max differences: {_describe(drift)}")
        orbit_runs = sorted(parent_orbit.keys() | change_orbit.keys())
        orbit_differ, row_deltas = [], []
        for run_id in orbit_runs:
            a, b = parent_orbit.get(run_id), change_orbit.get(run_id)
            if a == b:
                continue
            orbit_differ.append(run_id)
            delta = _largest_row_difference(*roots, run_id)
            if isinstance(delta, float):
                row_deltas.append(delta)
            print(f"{run_id}: rows differ\n  parent: {a}\n  change: {b}\n"
                  f"  largest row difference: {delta}")
    by_kind = ", ".join(f"{kind} {count}" for kind, count in sorted(kinds.items()))
    print(f"{len(differ)} of {len(runs)} runs differ{f' ({by_kind})' if by_kind else ''}; "
          f"of those, exit codes differ in "
          f"{exits_differ}, PASS/FAIL verdicts in {verdicts_differ}; "
          f"largest trajectory difference: {np.max(deltas, initial=0.0)}; "
          f"largest invariant max differences: {_describe(dict(sorted(drifts.items())))}; "
          f"{len(orbit_differ)} of {len(orbit_runs)} orbit residual runs differ "
          f"({sum(':' in v for v in parent_orbit.values())} raised in the parent); "
          f"largest row difference: {np.max(row_deltas, initial=0.0)}")
    return 1 if differ or orbit_differ else 0


if __name__ == "__main__":
    sys.exit(main())
