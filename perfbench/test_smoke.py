"""Smoke test of the benchmark itself, at the smallest input sizes.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every metric BENCHMARK.json names is emitted with its unit,
that traced call counts repeat exactly, that a wrong expected result is
counted as a failure, and that the benchmark refuses to run without the
aritygap sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=300)


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.startswith("  ")}
    for name, unit in {**expected, "failed_frac": "ratio"}.items():
        assert printed.get(name) == unit, name
    if trace:
        assert (ROOT / ".bench_out" / f"spans-{workload}.csv").stat().st_size > 0


def test_traced_call_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        proc = bench("classifier_sampled", 1)
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: m["value"] for k, m in metrics.items() if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert counts[0]["anf.to_anf.calls"] > 0


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_wrong_expected_result_raises_failed_frac(workload):
    plan = run.make_plan(workload, seed=5, seconds=1, tiny=True)
    if plan["type"] == "sweep":
        plan["expect"] = {**plan["expect"], "checked": plan["expect"]["checked"] + 1}
    else:
        plan["expect"]["parity"]["ess"] += 1
    result = run.execute(plan, trace=False)
    assert not result["correct"]
    assert 0 < result["metrics"]["failed_frac"] <= 1
    assert result["metrics"]["failed_frac"] == result["failed"] / result["attempted"]


def test_refuses_to_run_without_sources():
    bare = ROOT / ".bench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("deg2_exhaustive", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
