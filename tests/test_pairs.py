"""The summary of scripts/pairs.py on canned runs, and every committed
BENCH_*.json that declares its schema: each summary figure is what its
values give, and each bound is BENCHMARK.json's.  The timed runs
themselves (python scripts/pairs.py ...) run outside this suite."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _script():
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "scripts" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = _script()
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def _run(rate, wall, failed=0):
    return {"attempted": 10, "failed": failed,
            "metrics": {"functions_per_s": {"value": rate, "unit": "1/s"}, "wall_s": {"value": wall, "unit": "s"}}}


RATE = {"name": "functions_per_s", "better": "higher", "bound": 0.25}
WALL = {"name": "wall_s", "better": "lower", "bound": 0.25}


def test_the_change_is_the_second_side_of_every_figure():
    runs = {"w": {"base": [_run(100, 2.0), _run(110, 2.0), _run(90, 1.0, failed=1)],
                  "change": [_run(120, 1.5), _run(100, 2.5), _run(130, 0.5)]}}
    got = pairs.summary(runs, [RATE, WALL])["w"]
    assert got["operations"] == {"base": {"attempted": 30, "failed": 1}, "change": {"attempted": 30, "failed": 0}}
    rate, wall = got["metrics"]["functions_per_s"], got["metrics"]["wall_s"]
    assert rate["base"] == {"values": [100, 110, 90], "quartiles": [95.0, 100.0, 105.0]}
    assert rate["change"] == {"values": [120, 100, 130], "quartiles": [110.0, 120.0, 125.0]}
    assert (rate["pairs"], rate["pairs_better"], rate["within_bound"]) == (3, 2, True)
    # Lower is better: pairs 1 and 3 improve, pair 2 worsens.
    assert (wall["pairs"], wall["pairs_better"], wall["within_bound"]) == (3, 2, True)
    assert (rate["better"], rate["bound"], wall["better"]) == ("higher", 0.25, "lower")


@pytest.mark.parametrize("better, base, change, within", [
    ("higher", [100.0], [75.0], True),  # exactly the bound
    ("higher", [100.0], [74.9], False),
    ("lower", [100.0], [125.0], True),
    ("lower", [100.0], [125.1], False),
    ("lower", [100.0, 100.0], [100.0, 100.0], True),
])
def test_within_bound_compares_the_medians(better, base, change, within):
    got = pairs.metric_summary(base, change, better, 0.25)
    assert got["within_bound"] is within
    assert got["pairs_better"] == sum((c > b) if better == "higher" else (c < b) for b, c in zip(base, change))


def test_a_single_value_is_every_quartile():
    assert pairs.quartiles([3.0]) == [3.0, 3.0, 3.0]


def _declared():
    found = []
    for path in sorted(ROOT.glob("BENCH_*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if data.get("schema") == pairs.SCHEMA:
            found.append((path.name, data))
    return found


def test_every_bench_file_that_declares_the_schema():
    declared = _declared()
    assert declared, "no BENCH_*.json declares the schema"
    bounds = {m["name"]: m for m in END_TO_END}
    for name, data in declared:
        assert {"base", "change", "python", "cpu_count", "command", "protocol", "workloads"} <= data.keys(), name
        for side in pairs.SIDES:
            assert len(data[side]["rev"]) == 40 and data[side]["src_sha256"], (name, side)
        for workload, result in data["workloads"].items():
            assert set(result["operations"]) == set(pairs.SIDES), (name, workload)
            assert set(result["metrics"]) == set(bounds), (name, workload)
            for metric, got in result["metrics"].items():
                m = bounds[metric]
                base, change = got["base"]["values"], got["change"]["values"]
                assert len(base) == len(change) > 0, (name, workload, metric)
                assert got == pairs.metric_summary(base, change, m["better"], m["bound"]), (name, workload, metric)


def test_a_rev_git_cannot_export_exits_2_before_running_anything(tmp_path):
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "pairs.py"), "--base", "no-such-rev-xyz",
                          "--workload", "deg2_exhaustive", "--seed", "1", "--pairs", "1", "--out",
                          str(tmp_path / "out.json")], capture_output=True, text=True, timeout=60)
    assert run.returncode == 2 and run.stdout == "" and run.stderr.strip(), run
    assert not (tmp_path / "out.json").exists()
