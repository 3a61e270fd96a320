#!/usr/bin/env python3
"""aritygap benchmark: sweep throughput, CLI latency and per-module traces.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --trace 0

NAME is one of WORKLOADS below.  --trace 0 measures the end-to-end metrics
at workers=1 with tracing off; --trace 1 runs the same inputs once more with
every public aritygap function wrapped and reports per-layer calls and self
time, plus the all-cores rate and its scaling efficiency.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it print every metric by
name with its unit, the provenance, and where the full result was written.

The benchmark drives aritygap only through `aritygap.verifier.sweep` and
`python -m aritygap analyze|classify FILE --json`, always on this checkout's
`src/`.  Every input comes from --seed; every operation's output is checked
against counts and facts computed here, independently of the library.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import SPAN_NAMES
from worker import OUT, ROOT, SRC, child_env, reference_s

HERE = Path(__file__).resolve().parent

# Per workload: a round is one sweep of the run's population, or the five CLI
# calls.  Workers repeat rounds until the run's --seconds are used up, so each
# sweep repeats identical work.  The all-cores repeats run in the traced pass
# only.  TINY overrides make the smoke test fast and keep every code path.
# The non-Boolean sweep THM_GEN on Sampled(3,3,4) is left out: four
# workloads fit the time a full set of runs may take only at 28 s a run, and
# there analyze_large's times spread too widely between runs; three run 36 s.
WORKLOADS = {
    "deg2_exhaustive": {
        "type": "sweep", "theorem": "LEM_DEG2", "shape": [2, 2, 5], "count": None,
        "warmup": {"shape": [2, 2, 4], "count": None},
        "allcores": {"count": None, "repeats": 2},
    },
    "classifier_sampled": {
        "type": "sweep", "theorem": "THM_STR", "shape": [2, 2, 6], "count": 1000,
        "warmup": {"shape": [2, 2, 6], "count": 50},
        # Above the verifier's 200,000 pool threshold, below which it ignores workers.
        "allcores": {"count": 204_800, "repeats": 1},
    },
    "analyze_large": {
        "type": "cli",
        "files": {"parity": {"n": 14}, "quasilinear": {"k": 3, "n": 9}, "random": {"n": 16}},
        "allcores": {"repeats": 2},
    },
}

TINY = {
    "deg2_exhaustive": {"shape": [2, 2, 4], "allcores": {"count": None, "repeats": 1}},
    "classifier_sampled": {"count": 20, "allcores": {"count": 40, "repeats": 1}},
    "analyze_large": {
        "files": {"parity": {"n": 6}, "quasilinear": {"k": 3, "n": 4}, "random": {"n": 6}},
        "allcores": {"repeats": 1},
    },
}

SETUPS = 8  # fresh worker processes per run; setup_s is their median
TRACE_UNTRACED = 3  # untraced rounds before the traced one

END_TO_END = {
    "functions_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
}

PER_LAYER = {
    **{f"{name}.{stat}": unit for name in SPAN_NAMES for stat, unit in (("calls", "count"), ("self_s", "s"))},
    "verifier.checked": "count",
    "verifier.candidates": "count",
    "verifier.draws_per_checked": "ratio",
    "verifier.skip_ratio": "ratio",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace_overhead_frac": "ratio",
    "functions_per_s_allcores": "1/s",
    "scaling_efficiency": "ratio",
    "failed_frac": "ratio",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def deg2_expected(n: int) -> dict:
    """checked/skipped of the degree-2 sweep on n variables, counted here:
    a candidate (quadratic part q != 0, linear part l, constant c) is skipped
    when fewer than 4 variables occur in it."""
    pairs = [(1 << s) | (1 << t) for s in range(n) for t in range(s + 1, n)]
    skipped = total = 0
    for q in range(1, 1 << len(pairs)):
        support = 0
        for p, mask in enumerate(pairs):
            if q >> p & 1:
                support |= mask
        for lin in range(1 << n):
            total += 2
            if (support | lin).bit_count() < 4:
                skipped += 2
    return {"checked": total - skipped, "skipped": skipped}


def make_plan(workload: str, seed: int, seconds: int, tiny: bool = False) -> dict:
    """Everything a worker needs: sizes, seeds and expected results."""
    spec = {**WORKLOADS[workload], **(TINY[workload] if tiny else {})}
    rng = random.Random(f"{workload}:{seed}")
    plan = {
        "workload": workload, "seed": seed, "type": spec["type"],
        "seconds": 0 if tiny else seconds,
        "setups": 2 if tiny else SETUPS,
        "trace_untraced": 1 if tiny else TRACE_UNTRACED,
        "allcores": dict(spec["allcores"]),
    }
    if spec["type"] == "cli":
        n_par, n_ql = spec["files"]["parity"]["n"], spec["files"]["quasilinear"]["n"]
        plan["files"] = spec["files"]
        plan["expect"] = {
            "parity": {"ess": n_par, "essl": n_par - 2, "gap": 2, "tag": "LinearParity"},
            "quasilinear": {"ess": n_ql, "gap": 2},
        }
        return plan
    shape, count = spec["shape"], spec["count"]
    plan.update(theorem=spec["theorem"], shape=shape, count=count)
    plan["population_seed"] = rng.getrandbits(64)
    plan["expect"] = deg2_expected(shape[2]) if count is None else {"checked": count, "skipped": 0}
    plan["warmup"] = {**spec["warmup"], "seed": rng.getrandbits(64)}
    a = plan["allcores"]
    a["seed"] = rng.getrandbits(64)
    a["expect"] = plan["expect"] if a["count"] is None else {"checked": a["count"], "skipped": 0}
    return plan


# ---------------------------------------------------------------------------
# running workers
# ---------------------------------------------------------------------------

RUN_LIMIT_S = 165  # every worker of a run ends by then, so the run ends within 180 s


def run_worker(job: dict, deadline: float) -> tuple[dict | None, str | None]:
    """Start one fresh worker; return its result, or None and the reason.

    A worker still running at the deadline is killed with everything it
    started (CLI calls, sweep pools), which share its process group."""
    job["t0_ns"] = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT, env=child_env(),
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"worker killed at the run's {RUN_LIMIT_S}s limit"
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"worker exit {proc.returncode}: {stderr.strip()[-500:]}"
    try:
        return json.loads(lines[-1]), None
    except json.JSONDecodeError:
        return None, f"worker printed no result: {lines[-1][:200]}"


def quantile(values, q: int) -> float:
    """q-th percentile (q in 10..90 by 10), interpolated inside the data."""
    values = list(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


# reference_s() on the reference box (2-vCPU Xeon, Python 3.11.7) at the
# fastest the shared host ran it.
REFERENCE_S = 0.012


def normalized(wall_s: float, ref_s: float) -> float:
    """A wall time at the reference box's fastest speed.  The host's speed
    swung by up to 2x for tens of seconds at a time on the reference box, so
    raw times of the same code spread by 10 to 32% between runs; times
    divided by the reference loop's time around them spread by 2 to 10%."""
    return wall_s / ref_s * REFERENCE_S


def execute(plan: dict, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    cores = nproc()
    if trace:
        spans_path = OUT / f"spans-{plan['workload']}.csv"
        repeats = plan["allcores"]["repeats"]
        jobs = [{"role": "trace", "spans_path": str(spans_path),
                 "allcores": list(range(repeats)), "planned": 1 + repeats}]
    else:
        jobs = [{"role": "serial", "planned": 1} for _ in range(plan["setups"])]
    share = plan["seconds"] / len(jobs)
    results, errors = [], []
    attempted = failed = 0
    used = 0.0  # seconds of rounds run so far
    deadline = time.monotonic() + RUN_LIMIT_S
    for i, job in enumerate(jobs):
        # Each worker runs rounds until the first i+1 shares of --seconds are
        # used up (at least one round), so the run measures about --seconds
        # however the rounds fall.
        job["seconds"] = (i + 1) * share - used
        ref_before = reference_s()
        res, err = run_worker({**job, "plan": plan, "nproc": cores}, deadline)
        if res is None:
            errors.append(err)
            attempted += job["planned"]
            failed += job["planned"]
            used += share
            continue
        res["setup_ref_s"] = (ref_before + res["setup_ref_s"]) / 2
        results.append(res)
        used += res["serial_s"]
        for op in res["ops"]:
            attempted += 1
            if not op["ok"]:
                failed += 1
                errors.append(f"{op['phase']} {op['op']} round {op['round']}: {op['error']}")
    ops = [dict(op, worker=i) for i, res in enumerate(results) for op in res["ops"]]
    metrics = trace_metrics(results, ops, cores) if trace else end_to_end_metrics(results, ops)
    if metrics is not None:
        metrics["failed_frac"] = failed / max(attempted, 1)
    return {
        "correct": failed == 0, "attempted": max(attempted, 1), "failed": failed,
        "metrics": metrics, "errors": errors[:20], "ops": ops,
        "setups": [res["setup_s"] for res in results], "nproc": cores,
    }


def per_round(ops) -> tuple[int, list[float]]:
    """Functions per round, and each operation kind's median normalized
    time.  A round runs each kind (the sweep, or each CLI call) once; only
    operations that completed are timed."""
    groups: dict[int, list[dict]] = {}
    for op in ops:
        if op["functions"]:
            groups.setdefault(op["kind"], []).append(op)
    kinds = groups.values()
    functions = sum(max(op["functions"] for op in group) for group in kinds)
    times = [statistics.median(normalized(op["wall_s"], op["ref_s"]) for op in group)
             for group in kinds]
    return functions, times


def end_to_end_metrics(results, ops) -> dict | None:
    functions, call_s = per_round(op for op in ops if op["phase"] == "serial")
    if not call_s:
        return None
    round_s = sum(call_s)
    return {
        "functions_per_s": functions / round_s,
        "wall_s": round_s,
        "setup_s": statistics.median(normalized(res["setup_s"], res["setup_ref_s"])
                                     for res in results),
        "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in results),
        "call_p50_ms": quantile((s * 1e3 for s in call_s), 50),
        "call_p90_ms": quantile((s * 1e3 for s in call_s), 90),
    }


def untraced_rounds(ops) -> list[float]:
    """Wall time of each untraced round of the traced pass."""
    rounds: dict[int, float] = {}
    for op in ops:
        if op["phase"] == "untraced":
            rounds[op["round"]] = rounds.get(op["round"], 0.0) + op["wall_s"]
    return list(rounds.values())


def allcores_metrics(ops, cores) -> dict:
    """The all-cores rate, and its efficiency against the untraced rounds,
    both from raw median times.  Unlike the end-to-end metrics they are not
    normalized: the reference loop runs on one core only."""
    allcores = [op for op in ops if op["phase"] == "allcores" and op["functions"]]
    functions = sum(op["functions"] for op in ops if op["phase"] == "untraced" and op["round"] == 0)
    if not allcores or not functions:
        return {"functions_per_s_allcores": 0.0, "scaling_efficiency": 0.0}
    rate_all = (max(op["functions"] for op in allcores)
                / statistics.median(op["wall_s"] for op in allcores))
    serial_rate = functions / statistics.median(untraced_rounds(ops))
    return {"functions_per_s_allcores": rate_all,
            "scaling_efficiency": rate_all / (cores * serial_rate)}


def trace_metrics(results, ops, cores) -> dict | None:
    if not results:
        return None
    layers = results[0]["layers"]
    out: dict = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = layers[name]["calls"]
        out[f"{name}.self_s"] = layers[name]["self_s"]
    traced = [op for op in ops if op["phase"] == "traced"]
    checked = sum(op.get("checked", 0) for op in traced)
    skipped = sum(op.get("skipped", 0) for op in traced)
    draws = layers["generators.random_function"]["calls"]
    untraced = statistics.median(untraced_rounds(ops))
    traced_s = sum(op["wall_s"] for op in traced)
    out.update({
        "verifier.checked": checked,
        "verifier.candidates": checked + skipped,
        "verifier.draws_per_checked": draws / checked if checked else 0.0,
        "verifier.skip_ratio": skipped / (checked + skipped) if checked + skipped else 0.0,
        "trace.untraced_wall_s": untraced,
        "trace.traced_wall_s": traced_s,
        "trace_overhead_frac": traced_s / untraced - 1,
        **allcores_metrics(ops, cores),
    })
    return out


# ---------------------------------------------------------------------------
# provenance and output
# ---------------------------------------------------------------------------


def git_rev() -> str | None:
    # Only this checkout's own repository; never one found in a parent directory.
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "aritygap").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def raw_times(result: dict) -> dict:
    """The serial phase's times before normalization: the round's median
    wall time, the median set-up time and the median reference loop."""
    serial = [op for op in result["ops"] if op["phase"] == "serial" and op["functions"]]
    if not serial:
        return {}
    kinds: dict[int, list[float]] = {}
    for op in serial:
        kinds.setdefault(op["kind"], []).append(op["wall_s"])
    return {
        "wall_s": sum(statistics.median(v) for v in kinds.values()),
        "setup_s": statistics.median(result["setups"]),
        "reference_s": statistics.median(op["ref_s"] for op in serial),
    }


def provenance(plan: dict, result: dict, trace: bool) -> dict:
    ops = result["ops"]
    return {
        "workload": plan["workload"],
        "seed": plan["seed"],
        "trace": int(trace),
        "git_rev": git_rev(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity": result["nproc"],
        "workers": sorted({op.get("workers", 1) for op in ops}),
        "populations": sorted({op["population"] for op in ops if "population" in op}),
        "files": plan.get("files"),
        "seconds": plan["seconds"],
        "setups": result["setups"],
        "latency_samples": sum(1 for op in ops if op["phase"] == "serial"),
        "raw": raw_times(result),
    }


def report(plan: dict, trace: bool, result: dict) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    units = PER_LAYER if trace else {**END_TO_END, "failed_frac": "ratio"}
    metrics = result["metrics"]
    print(f"aritygap benchmark: workload={plan['workload']} seed={plan['seed']} trace={int(trace)}")
    if metrics is not None:
        for name, unit in units.items():
            print(f"  {name:<40} {metrics[name]:>16.6g} {unit}")
    print(f"  attempted={result['attempted']} failed={result['failed']}")
    for err in result["errors"]:
        print(f"  error: {err}")
    prov = provenance(plan, result, trace)
    print("provenance " + json.dumps(prov, sort_keys=True))
    path = OUT / f"result-{plan['workload']}-trace{int(trace)}-seed{plan['seed']}.json"
    path.write_text(json.dumps({"provenance": prov, "plan": plan, **result}, indent=1) + "\n")
    print(f"result written to {path.relative_to(ROOT)}")
    emitted = PER_LAYER if trace else END_TO_END
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {} if metrics is None else
        {name: {"value": metrics[name], "unit": unit} for name, unit in emitted.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            argv.append("--tiny")
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        part = json.loads(lines[-1])
        final["correct"] &= part["correct"]
        final["attempted"] += part["attempted"]
        final["failed"] += part["failed"]
        final["metrics"].update({f"{name}/{k}": v for k, v in part["metrics"].items()})
    print(json.dumps(final))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36, help="length of the serial timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "aritygap" / "__init__.py").is_file():
        print(f"error: no aritygap sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    plan = make_plan(args.workload, args.seed, args.seconds, args.tiny)
    result = execute(plan, bool(args.trace))
    final = report(plan, bool(args.trace), result)
    if result["metrics"] is None:
        print("error: no measurements; see the errors above", file=sys.stderr)
        return 1
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
