"""Compare the CLI outputs of two source trees on the benchmark configs.

    python tools/same_outputs.py PARENT_SRC CHANGE_SRC

Each SRC is a directory holding the ``isospec_lag`` package, such as the
``src`` of a checkout.  For each tree, one child process imports the
package from it and runs the warm-up and the cycle of every workload in
``perfbench/workloads.py`` at seeds 11, 12 and 13 through
``isospec_lag.cli.main``, one scenario after another.  Every run whose
exit code, stdout, stderr or trajectory bytes differ between the trees
is printed, and the exit status is 1 if there is any, else 0 (2 if a
tree could not be run).  Of this checkout only ``perfbench/`` is read;
configs and outputs go to a temporary directory.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (11, 12, 13)
FIELDS = ("exit", "stdout", "stderr", "trajectory")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


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


def _run_tree(src: str) -> dict:
    """Outputs of every benchmark run, keyed by workload, seed and scenario."""
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    from isospec_lag import cli
    import workloads

    if Path(src).resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"isospec_lag was imported from {cli.__file__}, not from {src}")
    out, err = _Buffer(), _Buffer()
    sys.stdout, sys.stderr = out, err
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                warmup, scenarios = workloads.cycle(name, seed)
                for sc in ([warmup] if warmup else []) + scenarios:
                    run_id = f"{name}/seed{seed}/{sc.id}"
                    run_dir = Path(tmp, run_id)
                    run_dir.mkdir(parents=True)
                    config = workloads.write_config(sc, run_dir)
                    try:
                        code = cli.main([sc.kind, "--config", str(config),
                                         "--out", str(run_dir / "out")])
                    except SystemExit as exc:
                        code = exc.code if isinstance(exc.code, int) else 1
                    except Exception:  # a traceback is an output like any other
                        code = 1
                        traceback.print_exc()
                    traj = list((run_dir / "out").glob("trajectory.*"))
                    digest = hashlib.sha256(traj[0].read_bytes()).hexdigest() if traj else None
                    results[run_id] = {"exit": code, "stdout": out.take(),
                                       "stderr": err.take(), "trajectory": digest}
                    for p in traj:
                        p.unlink()
    return results


def _outputs(src: str) -> dict | None:
    env = {k: v for k, v in os.environ.items() if k not in ("ISOSPEC_LOG", "PYTHONPATH")}
    env.update({var: "1" for var in THREAD_VARS})
    proc = subprocess.run([sys.executable, __file__, "--child", src], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"{src}: child exited {proc.returncode}\n{proc.stderr[-2000:]}")
        return None
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        print(json.dumps(_run_tree(argv[1])), file=sys.__stdout__)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    args = parser.parse_args(argv)
    parent, change = _outputs(args.parent_src), _outputs(args.change_src)
    if parent is None or change is None:
        return 2
    runs = sorted(parent.keys() | change.keys())
    differ = [run_id for run_id in runs if parent.get(run_id) != change.get(run_id)]
    for run_id in differ:
        a, b = parent.get(run_id), change.get(run_id)
        if a is None or b is None:
            print(f"{run_id}: only in the {'change' if a is None else 'parent'}")
            continue
        print(f"{run_id}: {', '.join(f for f in FIELDS if a[f] != b[f])} differ")
        for f in FIELDS[:3]:
            if a[f] != b[f]:
                print(f"  parent {f}: {a[f]!r}\n  change {f}: {b[f]!r}")
    print(f"{len(differ)} of {len(runs)} runs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
