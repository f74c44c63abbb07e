"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload W --pairs N
                                [--seed S]

Each ROOT is the root of an isospec-lag checkout.  Pair k runs
``perfbench/run.py --workload W --seed S+k --seconds T --trace 0`` in
both, T being ``run_seconds`` of this checkout's BENCHMARK.json; the
parent runs first in even pairs and the change first in odd ones.  Of
each run only the last line of stdout is read: the JSON object with
correct, attempted, failed and metrics.

For each end-to-end metric of BENCHMARK.json the summary gives both
sides' median and quartiles and in how many pairs the change read
better, ties counting for neither; then each side's failed and attempted
scenarios.  A gain is claimed only on at least nine tenths of the pairs
and a median gap wider than the parent's quartile spread.

Before the first run and after the last, one probe line says whether two
busy processes ran in parallel: a second CPU that is listed need not be
free, and the split trajectory writer runs faster only where it is.
The exit status is 0, or 2 if a run failed or printed no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUSY = "n = 0\nfor i in range(1_500_000):\n    n += i"


class RunError(RuntimeError):
    """A benchmark run exited non-zero or printed no result line."""


def last_result(stdout: str) -> dict:
    """The JSON object on the last non-blank line of a run's stdout."""
    lines = stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise RunError(f"no result line: {exc}") from exc
    if not isinstance(doc, dict) or "metrics" not in doc:
        raise RunError(f"no result line: {lines[-1]!r}")
    return doc


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RunError(f"{root} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    return last_result(proc.stdout)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs, metrics) -> list:
    """Summary lines of ``pairs``, a list of (parent, change) result objects,
    over ``metrics``, BENCHMARK.json's end-to-end entries (name, unit, better)."""
    lines = []
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                  for p, c in pairs]
        parent, change = ([v[side] for v in values] for side in (0, 1))
        ahead = sum(sign * (c - p) > 0 for p, c in values)
        cells = [f"{statistics.median(side):.4g} [{q1:.4g}-{q3:.4g}]"
                 for side in (parent, change) for q1, q3 in [_quartiles(side)]]
        lines.append(f"{name} ({metric['unit']}, {metric['better']} is better): "
                     f"parent {cells[0]}, change {cells[1]}, "
                     f"change ahead in {ahead} of {len(values)}")
    for label, side in (("parent", 0), ("change", 1)):
        failed = sum(pair[side]["failed"] for pair in pairs)
        attempted = sum(pair[side]["attempted"] for pair in pairs)
        lines.append(f"{label}: {failed} of {attempted} scenarios failed")
    return lines


def probe() -> str:
    """Whether two busy processes, started together, finish in about the
    time one takes alone."""
    def wall(count):
        start = time.perf_counter()
        procs = [subprocess.Popen([sys.executable, "-c", BUSY]) for _ in range(count)]
        for proc in procs:
            proc.wait()
        return time.perf_counter() - start

    alone, together = wall(1), wall(2)
    verdict = "ran" if together < 1.5 * alone else "did not run"
    return f"probe: two busy processes {verdict} in parallel " \
           f"(one alone {alone:.2f} s, two at once {together:.2f} s)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    print(probe(), flush=True)
    pairs = []
    try:
        for k in range(args.pairs):
            pair = [None, None]
            for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                root = (args.parent, args.change)[side]
                pair[side] = run_once(root, args.workload, args.seed + k, bench["run_seconds"])
            pairs.append(pair)
            print(f"pair {k + 1} of {args.pairs} done", flush=True)
    except RunError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 2
    print(probe())
    for line in summarize(pairs, bench["end_to_end"]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
