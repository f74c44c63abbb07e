import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "scenarios_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "scenario_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def result_line(per_s, p50):
    """A result with BENCHMARK.json's end-to-end metrics, the last three fixed."""
    values = {"scenarios_per_s": per_s, "scenario_p50_s": p50, "scenario_tail_s": 0.02,
              "setup_s": 0.3, "peak_rss_mb": 40.0}
    return json.dumps({"correct": True, "attempted": 10, "failed": 0,
                       "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()}})


def stdout(line):
    """A run's stdout: metric lines, a detail line, then the result line."""
    return "metric scenarios_per_s = 1.0 1/s\ndetail {\"samples\": 10}\n" + line + "\n"


def test_the_summary_of_canned_result_lines():
    canned = [((90.0, 0.010), (88.0, 0.011)), ((86.0, 0.011), (89.0, 0.010)),
              ((88.0, 0.012), (88.0, 0.009)), ((84.0, 0.010), (91.0, 0.012))]
    pairs = [tuple(bench_pairs.last_result(stdout(result_line(*side))) for side in pair)
             for pair in canned]
    pairs[1][1]["failed"] = 1
    assert bench_pairs.summarize(pairs, METRICS) == [
        "scenarios_per_s (1/s, higher is better): parent 87 [85.5-88.5], "
        "change 88.5 [88-89.5], change ahead in 2 of 4",
        "scenario_p50_s (s, lower is better): parent 0.0105 [0.01-0.01125], "
        "change 0.0105 [0.00975-0.01125], change ahead in 2 of 4",
        "parent: 0 of 40 scenarios failed",
        "change: 1 of 40 scenarios failed",
    ]


@pytest.mark.parametrize("text", ["", "metric x = 1 s\n", "{\"correct\": true}\n"])
def test_a_run_without_a_result_line_is_an_error(text):
    with pytest.raises(bench_pairs.RunError, match="no result line"):
        bench_pairs.last_result(text)


def fake_checkout(root, per_s, log):
    """A checkout whose perfbench/run.py logs its seed and prints one result."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        "import sys\n"
        f"with open({str(log)!r}, 'a') as fh:\n"
        f"    fh.write({root.name!r} + ' ' + sys.argv[sys.argv.index('--seed') + 1] + '\\n')\n"
        f"print({stdout(result_line(per_s, 0.01))!r})\n")
    return root


def test_pairs_run_in_alternating_order(tmp_path, capsys, monkeypatch):
    log = tmp_path / "log"
    parent = fake_checkout(tmp_path / "parent", 80.0, log)
    change = fake_checkout(tmp_path / "change", 85.0, log)
    monkeypatch.setattr(bench_pairs, "probe", lambda: "probe: stubbed")
    assert bench_pairs.main([str(parent), str(change), "--workload", "verify-fd",
                             "--pairs", "3", "--seed", "51"]) == 0
    assert log.read_text().split("\n") == [
        "parent 51", "change 51", "change 52", "parent 52", "parent 53", "change 53", ""]
    out = capsys.readouterr().out.splitlines()
    assert out[0] == out[4] == "probe: stubbed"
    assert "parent 80 [80-80], change 85 [85-85], change ahead in 3 of 3" in out[5]


def test_a_failed_run_stops_the_pairs(tmp_path, capsys, monkeypatch):
    parent = fake_checkout(tmp_path / "parent", 80.0, tmp_path / "log")
    (tmp_path / "change" / "perfbench").mkdir(parents=True)
    (tmp_path / "change" / "perfbench" / "run.py").write_text("import sys\nsys.exit(1)\n")
    monkeypatch.setattr(bench_pairs, "probe", lambda: "probe: stubbed")
    assert bench_pairs.main([str(parent), str(tmp_path / "change"), "--workload", "cli-mix",
                             "--pairs", "2"]) == 2
    assert "exited 1" in capsys.readouterr().err


def test_the_probe_names_its_verdict():
    line = bench_pairs.probe()
    assert line.startswith("probe: two busy processes ")
    assert " in parallel (one alone " in line
