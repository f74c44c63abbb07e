"""Benchmark of the isospec-lag CLI: seeded workloads, output checks, layer traces.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package runs from ``src``
without being installed.  The workloads (see workloads.py) are closed
loops with one client, one scenario at a time:

* ``cli-mix``: each scenario is a fresh ``python -m isospec_lag.cli``
  process, cycling heisenberg, lvn, sb2c, bloch and verify at n = 2.
* ``long-evolve``, ``verify-fd``, ``orbit-flows``: one worker process
  imports the package once and calls ``isospec_lag.cli.main`` per
  scenario.

A run writes the seeded configs, repeats the workload's cycle a fixed
number of times (about ``--seconds`` of work at the seed commit), checks
every output (checks.py) and prints one line per metric followed, as
the last line, by one JSON object with the keys correct, attempted,
failed and metrics.

With ``--trace 0`` the metrics are the end-to-end ones:

* setup_s: median of three set-ups.  cli-mix: a fresh process running
  ``import isospec_lag.cli``.  Otherwise: the worker's import plus one
  small warm-up scenario.
* scenarios_per_s: finished scenarios per second of scenario time
  (bookkeeping between scenarios is excluded).
* scenario_p50_s, scenario_tail_s: median and the highest percentile
  with at least ten samples beyond it, of per-scenario wall time
  (cli-mix: the whole child process).  The percentile and sample count
  are printed beside it.
* peak_rss_mb: peak RSS of the worker, or of the largest cli-mix child.

failed_frac (failed / attempted) is printed too.  Failed scenarios count
in the timings like any other.

Scenario and set-up times are scaled to reference host speed by speed
kernels run before and after each of them (speed.py): an in-process
kernel in the worker around in-process scenarios, and a short child
process around cli-mix scenarios and set-ups.  Layer times of the
in-process workloads are scaled by the worker's kernel; those of cli-mix
and the process probes stay raw.  The raw wall times and the mean scale
factor are printed in the detail line.

With ``--trace 1`` the same scenarios run for half the cycles untraced,
then the same number of cycles under the layer tracer (tracer.py); the
metrics are the per-layer ones, averaged per traced scenario, plus
``trace.overhead_frac``, the traced over the untraced scenario time
minus one.  Functions the package no longer defines are listed as
absent and reported as 0.

BLAS and OpenMP pools are pinned to one thread for this process and its
children.  The Python, numpy and scipy versions, the CPU count and the
git commit (when the checkout is a git repository) are printed with
every result.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import fingerprint, trajectory_file  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
PROBE_REPEATS = 3
SCENARIO_TIMEOUT_S = 60
RUN_BUDGET_S = 170
END_TO_END_UNITS = {"setup_s": "s", "scenarios_per_s": "1/s", "scenario_p50_s": "s",
                    "scenario_tail_s": "s", "peak_rss_mb": "MiB"}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import isospec_lag.cli; "
                "print(time.perf_counter() - t)")
SCIPY_PROBE = ("import time, numpy; t = time.perf_counter(); import scipy.linalg; "
               "print(time.perf_counter() - t)")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Run:
    def __init__(self, args, root: Path):
        self.args = args
        self.root = root
        self.src = root / "src"
        self.work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
        self.in_process = workloads.WORKLOADS[args.workload].in_process
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ)
        self.env.pop("ISOSPEC_LOG", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    # -- child processes ------------------------------------------------
    def _spawn(self, cmd, timeout=SCENARIO_TIMEOUT_S):
        timeout = min(timeout, self.deadline - time.monotonic())
        if timeout <= 0:
            raise BenchError("run budget exhausted")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:  # subprocess.run kills and reaps it
            raise BenchError(f"timed out after {timeout:.0f} s: {cmd}") from exc
        return proc, time.perf_counter() - t0

    def _python(self, *args, timeout=SCENARIO_TIMEOUT_S):
        return self._spawn([sys.executable, *args], timeout)

    def _worker(self, name, plan, timeout=RUN_BUDGET_S):
        """Run worker.py on a plan; returns its result and the process wall time."""
        path = self.work / f"{name}.plan.json"
        plan = {"src": str(self.src), "result": str(self.work / f"{name}.result.json"), **plan}
        path.write_text(json.dumps(plan))
        proc, wall = self._python(str(HERE / "worker.py"), str(path), timeout=timeout)
        if proc.returncode != 0:
            raise BenchError(f"worker {name} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(Path(plan["result"]).read_text()), wall

    # -- phases ---------------------------------------------------------
    def prepare(self):
        warm, self.cycle = workloads.cycle(self.args.workload, self.args.seed)
        cfg_dir = self.work / "configs"
        cfg_dir.mkdir(parents=True)
        self.configs = {sc.id: workloads.write_config(sc, cfg_dir) for sc in self.cycle}
        self.warmup = None
        if warm is not None:
            self.warmup = self.argv(warm, workloads.write_config(warm, cfg_dir),
                                    self.work / "out" / "warmup")
        self.cycles = workloads.cycles_per_run(self.args.workload, self.args.seconds,
                                               len(self.cycle))
        if self.args.trace:
            self.cycles = max(1, self.cycles // 2)

    @staticmethod
    def argv(sc, config, out):
        return [sc.kind, "--config", str(config), "--out", str(out)]

    def plan(self, passes: int):
        items = []
        for rep in range(passes * self.cycles):
            for sc in self.cycle:
                out = self.work / "out" / sc.id / str(rep)
                items.append({"id": sc.id, "argv": self.argv(sc, self.configs[sc.id], out),
                              "out": str(out), "discard": rep > 0})
        return items

    def _process_kernel(self) -> float:
        proc, wall = self._python(*speed.PROCESS_KERNEL)
        if proc.returncode != 0:
            raise BenchError(f"speed kernel failed: {proc.stderr[-2000:]}")
        return wall

    def setups(self):
        """Set-up times at reference speed (process-level kernel)."""
        times = []
        cal = self._process_kernel()
        for i in range(SETUP_REPEATS):
            if self.in_process:
                res, _ = self._worker(f"setup{i}", {"warmup": self.warmup, "scenarios": []})
                wall = res["setup_s"]
            else:
                proc, wall = self._python("-c", "import isospec_lag.cli")
                if proc.returncode != 0:
                    raise BenchError(f"import failed: {proc.stderr[-2000:]}")
            after = self._process_kernel()
            times.append(speed.scaled(wall, cal, after, speed.PROCESS_REFERENCE_S))
            cal = after
        return times

    def run_scenarios(self, items, trace_from):
        """Rows of exit, stdout, wall and trajectory fingerprint, plus merged stats."""
        if self.in_process:
            res, _ = self._worker("main", {"warmup": self.warmup, "scenarios": items,
                                           "trace_from": trace_from})
            return (res["scenarios"], res.get("stats", {}), set(res.get("functions", ())),
                    res["peak_rss_mb"])
        rows, stats, functions = [], {}, set()
        cal = self._process_kernel()
        for i, item in enumerate(items):
            traced = trace_from is not None and i >= trace_from
            if traced:
                res, wall = self._worker("child", {"scenarios": [item], "trace_from": 0,
                                                   "speed": False}, SCENARIO_TIMEOUT_S)
                row = res["scenarios"][0]
                tracer.merge(stats, res["stats"])
                functions |= set(res["functions"])
            else:
                proc, wall = self._python("-m", "isospec_lag.cli", *item["argv"])
                row = {"id": item["id"], "exit": proc.returncode, "stdout": proc.stdout,
                       "stderr": proc.stderr, "traced": False}
                row.update(fingerprint(Path(item["out"]), item["discard"]))
            after = self._process_kernel()
            row.update(wall_s=wall, speed_cal_s=speed.REFERENCE_S,
                       time_s=speed.scaled(wall, cal, after, speed.PROCESS_REFERENCE_S))
            cal = after
            rows.append(row)
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        return rows, stats, functions, peak

    def check(self, items, rows):
        """Attach exit problems, output problems, kind and row count to each row."""
        by_id = {sc.id: sc for sc in self.cycle}
        first = {}
        for item, row in zip(items, rows):
            sc = by_id[item["id"]]
            out = Path(item["out"])
            exit_problems, problems = checks.check_report(sc.kind, row["exit"], row["stdout"], out)
            if item["id"] not in first:
                first[item["id"]] = (row["sha256"], *checks.check_outputs(
                    sc.kind, sc.doc, trajectory_file(out), row["exit"]))
            sha, content, nrows = first[item["id"]]
            # a repeat's trajectory was deleted after hashing: equal bytes, equal verdict
            problems += content
            if row["sha256"] != sha:
                problems.append("trajectory differs from the first run of this config")
            row["exit_problems"], row["problems"] = exit_problems, problems
            row["kind"], row["rows"] = sc.kind, nrows

    def probes(self):
        interp = [self._python("-c", "pass")[1] for _ in range(PROBE_REPEATS)]
        imports, scipy = [], []
        for _ in range(PROBE_REPEATS):
            for code, into in ((IMPORT_PROBE, imports), (SCIPY_PROBE, scipy)):
                proc, _ = self._python("-c", code)
                if proc.returncode != 0:
                    raise BenchError(f"probe failed: {proc.stderr[-2000:]}")
                into.append(float(proc.stdout.strip()))
        return {"process.interpreter_s": statistics.median(interp),
                "process.import_s": statistics.median(imports),
                "process.scipy_linalg_import_s": statistics.median(scipy)}

    def execute(self):
        self.prepare()
        trace = bool(self.args.trace)
        items = self.plan(2 if trace else 1)
        trace_from = len(items) // 2 if trace else None
        setup = None if trace else self.setups()
        rows, stats, functions, peak = self.run_scenarios(items, trace_from)
        self.check(items, rows)

        for r in rows:
            r["failed"] = bool(r["exit_problems"] or r["problems"])
        failed = [r for r in rows if r["failed"]]
        correct = not any(r["problems"] for r in rows)
        summary = {
            "workload": self.args.workload, "seed": self.args.seed,
            "trace": self.args.trace, "cycles": self.cycles, "cycle": [sc.id for sc in self.cycle],
            "sizes": workloads.WORKLOADS[self.args.workload].sizes,
            "attempted": len(rows), "failed": len(failed),
            "failed_frac": len(failed) / len(rows),
            "failures": [{"id": r["id"], "exit": r["exit"],
                          "why": r["exit_problems"] + r["problems"],
                          "stderr": r["stderr"].strip()[-300:]} for r in failed[:20]],
            "env": environment(self.root),
        }
        sb2c = [r for r in rows if r["kind"] == "sb2c"]
        if sb2c:
            summary["sb2c_failed_frac"] = sum(r["failed"] for r in sb2c) / len(sb2c)
        if trace:
            metrics = self.layer_metrics(rows, stats, functions, summary)
            units = tracer.LAYER_UNITS
        else:
            metrics = timing_metrics(rows, summary)
            metrics["setup_s"] = statistics.median(setup)
            metrics["peak_rss_mb"] = peak
            summary["setup_samples_s"] = setup
            units = END_TO_END_UNITS
        return correct, len(rows), len(failed), metrics, units, summary

    def layer_metrics(self, rows, stats, functions, summary):
        traced = [r for r in rows if r["traced"]]
        untraced = [r for r in rows if not r["traced"]]
        overhead = (sum(r["time_s"] for r in traced) / sum(r["time_s"] for r in untraced)) - 1
        files = [(r["kind"], r["rows"], r["bytes"]) for r in traced if r["sha256"]]
        metrics, absent = tracer.layer_metrics(stats, functions, files, len(traced),
                                               self.probes(), overhead)
        # layer times measured in a worker, at reference speed like its
        # scenario times (a factor of 1 for cli-mix); process probes stay raw
        factor = speed.REFERENCE_S / statistics.median(r["speed_cal_s"] for r in traced)
        for name, unit in tracer.LAYER_UNITS.items():
            if unit in ("s", "us") and not name.startswith("process."):
                metrics[name] *= factor
        summary["absent"] = absent
        summary["traced_scenarios"] = len(traced)
        summary["speed_factor"] = factor
        return metrics


def timing_metrics(rows, summary):
    ranked = sorted(r["time_s"] for r in rows)
    n = len(ranked)
    tail_rank = max(n - 11, 0)
    walls = [r["wall_s"] for r in rows]
    summary.update(samples=n, tail_percentile=100.0 * (tail_rank + 1) / n,
                   wall_s=sum(walls), wall_p50_s=statistics.median(walls),
                   speed_factor=sum(ranked) / sum(walls))
    return {
        "scenarios_per_s": n / sum(ranked),
        "scenario_p50_s": statistics.median(ranked),
        "scenario_tail_s": ranked[tail_rank],
    }


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "commit": git_commit(root),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    if not (root / "src" / "isospec_lag" / "cli.py").is_file():
        print("perfbench: run from the root of an isospec-lag checkout "
              "(src/isospec_lag/cli.py not found)", file=sys.stderr)
        return 2
    run = Run(args, root)
    try:
        correct, attempted, failed, metrics, units, summary = run.execute()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()
        except OSError:
            pass

    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    print(f"metric failed_frac = {summary['failed_frac']!r} 1")
    if "tail_percentile" in summary:
        print(f"scenario_tail_s is p{summary['tail_percentile']:.1f} of {summary['samples']} samples")
    print("detail " + json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
