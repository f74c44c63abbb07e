"""In-process scenario runner, started as a child of run.py.

    python perfbench/worker.py PLAN.json

The plan names the source directory, an optional warm-up scenario and
the scenarios to run, each as an argument list for
``isospec_lag.cli.main``.  Set-up time is measured from the start of
this script's own work to the end of the warm-up: the package import
plus one small scenario.  Scenarios from index ``trace_from`` on run
with the layer tracer installed.  Around each scenario the speed kernel
(speed.py) runs, to scale its wall time to reference host speed, unless
the plan sets ``speed`` false (the caller times the whole process).  After
each scenario, outside its timed interval, the trajectory file is hashed
and, for repeats, deleted to bound disk use.  The result goes to the plan's ``result`` path as
JSON.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _call(main, argv):
    """Run one scenario; returns (exit code, stdout, stderr, wall seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught traceback is a failed scenario, not a crash
            code = 1
            traceback.print_exc()
        wall = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), wall


def trajectory_file(out_dir: Path):
    for name in ("trajectory.csv", "trajectory.json"):
        if (out_dir / name).is_file():
            return out_dir / name
    return None


def fingerprint(out_dir: Path, discard: bool) -> dict:
    path = trajectory_file(out_dir)
    if path is None:
        return {"sha256": None, "bytes": 0}
    data = path.read_bytes()
    if discard:
        path.unlink()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, plan["src"])
    from isospec_lag import cli
    result = {"scenarios": []}

    if plan.get("warmup"):
        # stderr stays unredirected so the CLI's logging handler binds to it
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(plan["warmup"])
    result["setup_s"] = time.perf_counter() - _T0

    import speed
    kernel = speed.kernel_seconds if plan.get("speed", True) else (lambda: speed.REFERENCE_S)
    tracer = None
    cal = kernel()
    for i, sc in enumerate(plan["scenarios"]):
        if i == plan.get("trace_from"):
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        code, out, err, wall = _call(cli.main, sc["argv"])
        after = kernel()
        row = {"id": sc["id"], "exit": code, "stdout": out, "stderr": err,
               "wall_s": wall, "time_s": speed.scaled(wall, cal, after),
               "speed_cal_s": (cal + after) / 2, "traced": tracer is not None}
        cal = after
        row.update(fingerprint(Path(sc["out"]), sc["discard"]))
        result["scenarios"].append(row)

    if tracer is not None:
        result["stats"] = tracer.stats
        result["functions"] = sorted(tracer.functions)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
