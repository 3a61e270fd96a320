#!/usr/bin/env python3
"""Time a git revision against the working tree in alternating perfbench pairs.

    python scripts/pairs.py --base REV --workload W [W ...] --seed S --pairs N
                            [--seconds T] --out BENCH_NAME.json

REV is exported with `git archive` to a temporary directory, as
scripts/compare.py does, and the change is a copy of the working tree's
files that git tracks or would add, uncommitted changes included, beside
it.  For each workload, pair i runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each tree, REV first in pairs 1, 3, 5, ... and the change first
in pairs 2, 4, 6, ..., with PYTHONDONTWRITEBYTECODE=1.  Neither copy has
a __pycache__, so both sides compile the package sources they import; a
__pycache__ left in the working tree would spare the change that.
T defaults to BENCHMARK.json's run_seconds.

The file written declares "schema": "aritygap-bench/1".  It holds both
revs and their perfbench source digests, the Python version, the core
count and the command; per workload, each side's operations attempted and
failed; and per end-to-end metric of BENCHMARK.json, each side's values in
pair order and their quartiles (statistics.quantiles, n=4, inclusive), the
pairs, the pairs the change wins, the metric's bound, and whether the
change's median is within that bound of REV's.  tests/test_pairs.py checks
every BENCH_*.json that declares the schema.

Exits 0 when every run succeeded, 1 when one failed (nothing is written),
or 2 with git's message when REV cannot be exported.  Standard library and
git only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "aritygap-bench/1"
SIDES = ("base", "change")


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3]; a single value is all three."""
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def metric_summary(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric over paired runs: both sides' values and quartiles, the pairs
    whose change is strictly better, and whether the change's median is worse
    than the base's by at most bound, a fraction of the base's."""
    sign = 1 if better == "higher" else -1
    b, c = quartiles(base), quartiles(change)
    return {
        "better": better,
        "bound": bound,
        "base": {"values": base, "quartiles": b},
        "change": {"values": change, "quartiles": c},
        "pairs": len(base),
        "pairs_better": sum(sign * (y - x) > 0 for x, y in zip(base, change)),
        "within_bound": sign * (c[1] - b[1]) >= -bound * abs(b[1]),
    }


def summary(runs: dict, end_to_end: list[dict]) -> dict:
    """Per workload of runs, a dict from "base" and "change" to perfbench's
    final JSON objects in pair order: each side's operations, and
    metric_summary of each end-to-end metric."""
    out = {}
    for workload, sides in runs.items():
        def values(side, name):
            return [run["metrics"][name]["value"] for run in sides[side]]

        out[workload] = {
            "operations": {side: {key: sum(run[key] for run in sides[side]) for key in ("attempted", "failed")}
                           for side in SIDES},
            "metrics": {m["name"]: metric_summary(values("base", m["name"]), values("change", m["name"]),
                                                  m["better"], m["bound"]) for m in end_to_end},
        }
    return out


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def _copy_working_tree(dest: Path) -> None:
    """The files git tracks or would add, as they are in the working tree, copied to dest."""
    for name in filter(None, _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")):
        if (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def _run(tree: Path, argv: list[str]) -> dict:
    """perfbench's final JSON object for one run in tree, with its provenance."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    ran = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=tree, env=env, capture_output=True, text=True)
    lines = ran.stdout.splitlines()
    if ran.returncode or not lines:
        raise RuntimeError(f"perfbench/run.py {' '.join(argv)} exited {ran.returncode} in {tree}:\n{ran.stderr}")
    provenance = next(line for line in lines if line.startswith("provenance "))
    return {**json.loads(lines[-1]), "provenance": json.loads(provenance.split(" ", 1)[1])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, metavar="REV", help="the git revision to time the working tree against")
    parser.add_argument("--workload", required=True, nargs="+", help="perfbench workloads, each timed in turn")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", type=int, help="perfbench's timed phase (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--out", required=True, type=Path, help="the BENCH_*.json file to write")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    export = subprocess.run(["git", "archive", "--format=zip", args.base], cwd=ROOT, capture_output=True)
    if export.returncode:
        sys.stderr.write(export.stderr.decode(errors="replace"))
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    runs = {workload: {side: [] for side in SIDES} for workload in args.workload}
    with tempfile.TemporaryDirectory(prefix="aritygap-pairs-") as tmp:
        trees = {"base": Path(tmp, "base"), "change": Path(tmp, "change")}
        zipfile.ZipFile(io.BytesIO(export.stdout)).extractall(trees["base"])
        _copy_working_tree(trees["change"])
        for workload in args.workload:
            argv = ["--workload", workload, "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"]
            for i in range(args.pairs):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    try:
                        run = _run(trees[side], argv)
                    except RuntimeError as exc:
                        print(exc, file=sys.stderr)
                        return 1
                    runs[workload][side].append(run)
                    rate = run["metrics"]["functions_per_s"]["value"]
                    print(f"{workload} pair {i + 1}/{args.pairs} {side}: {rate:.6g} functions/s, failed {run['failed']}",
                          flush=True)
    provenance = runs[args.workload[0]]["change"][0]["provenance"]
    result = {
        "schema": SCHEMA,
        "base": {"rev": _git("rev-parse", f"{args.base}^{{commit}}")},
        "change": {"rev": _git("rev-parse", "HEAD"), "uncommitted_changes": bool(_git("status", "--porcelain"))},
        "python": provenance["python"],
        "cpu_count": provenance["cpu_count"],
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} --seconds {seconds} --trace 0",
        "protocol": f"{args.pairs} alternating pairs per workload, REV first in pairs 1, 3, 5, ...; REV in a git archive "
                    "export, the change in a copy of the working tree; PYTHONDONTWRITEBYTECODE=1",
        "workloads": summary(runs, bench["end_to_end"]),
    }
    for side in SIDES:
        result[side]["src_sha256"] = sorted({r["provenance"]["src_sha256"] for w in runs for r in runs[w][side]})
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
