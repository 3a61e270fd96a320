"""One benchmark process: set up a workload, run its share of the operations,
print one JSON line with the measurements.

Usage: python3 worker.py JOB_JSON

run.py starts a fresh worker for every set-up it measures.  The job carries
the plan built by run.py (every input size, seed and expected result) and a
role: "serial" repeats rounds for the job's seconds, timing each operation
between two runs of the reference loop; "trace" runs untraced rounds, then
the all-cores repeats, then one traced round.
The worker drives aritygap only through `aritygap.verifier.sweep` and
`python -m aritygap analyze|classify FILE --json`.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def child_env() -> dict:
    """Environment for aritygap processes: only this checkout's sources."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


REFERENCE_ITERATIONS = 60_000


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop of tuple building, dict updates
    and integer arithmetic, the kind of work aritygap does.  Timed next to
    each operation, it tells how fast the host runs Python at that moment."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        t = (i, i & 7, i >> 3)
        counts[t[1]] = counts.get(t[1], 0) + t[2]
        total += len(t)
    return time.perf_counter() - start


def _op(name: str, kind: int, rnd: int, wall: float, functions: int, error: str | None,
        **extra) -> dict:
    """One timed operation.  functions is 0 when it did not complete (an
    exception, a nonzero exit, a timeout); a completed operation with a
    wrong result keeps its count and its time but is not ok."""
    return {"op": name, "kind": kind, "round": rnd, "wall_s": wall, "functions": functions,
            "ok": error is None, "error": error, **extra}


# ---------------------------------------------------------------------------
# sweep workloads
# ---------------------------------------------------------------------------


class SweepWorkload:
    """One round sweeps the run's population once, at workers=1."""

    def __init__(self, plan: dict) -> None:
        import aritygap.verifier as verifier

        self.plan = plan
        self.verifier = verifier
        self.theorem = verifier.TheoremId[plan["theorem"]]
        self.reference = False  # time reference_s() around each operation

    def population(self, shape, count, seed):
        if count is None:
            return self.verifier.Exhaustive(*shape)
        return self.verifier.Sampled(*shape, count, seed, reject_until_hypothesis=True)

    def run_sweep(self, rnd: int, population, expect: dict, workers: int = 1) -> dict:
        # Looked up at call time so that a tracer's wrapper is used.
        sweep = self.verifier.sweep
        before = reference_s() if self.reference else None
        start = time.perf_counter()
        try:
            report = sweep(self.theorem, population, workers=workers)
        except Exception as exc:  # a failed operation is counted, not fatal
            return _op("sweep", 0, rnd, time.perf_counter() - start, 0, repr(exc))
        wall = time.perf_counter() - start
        ref = (before + reference_s()) / 2 if self.reference else None
        problems = []
        if not report.passed or report.violation_count != 0:
            problems.append(f"passed={report.passed} violation_count={report.violation_count}")
        if (report.checked, report.skipped) != (expect["checked"], expect["skipped"]):
            problems.append(
                f"checked/skipped {report.checked}/{report.skipped}, "
                f"expected {expect['checked']}/{expect['skipped']}"
            )
        return _op("sweep", 0, rnd, wall, report.checked + report.skipped,
                   "; ".join(problems) or None, population=report.population,
                   checked=report.checked, skipped=report.skipped, workers=workers, ref_s=ref)

    def setup(self) -> None:
        w = self.plan["warmup"]
        self.verifier.sweep(self.theorem, self.population(w["shape"], w["count"], w["seed"]), workers=1)

    def round(self, rnd: int) -> list[dict]:
        p = self.plan
        pop = self.population(p["shape"], p["count"], p["population_seed"])
        return [self.run_sweep(rnd, pop, p["expect"])]

    def allcores(self, rep: int, nproc: int) -> dict:
        p, a = self.plan, self.plan["allcores"]
        count = p["count"] if a["count"] is None else a["count"]
        pop = self.population(p["shape"], count, a["seed"])
        return self.run_sweep(rep, pop, a["expect"], workers=nproc)

    def traced_round(self) -> tuple[list[dict], list]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            ops = self.round(0)
        finally:
            tracer.uninstall()
        return ops, tracer.spans

    def teardown(self) -> None:
        pass


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------

CALL_TIMEOUT_S = 120

# One round: every file through `analyze`, and the Boolean files through `classify`.
CLI_ROUND = (
    ("analyze", "parity"),
    ("classify", "parity"),
    ("analyze", "quasilinear"),
    ("analyze", "random"),
    ("classify", "random"),
)


def _decimal_file(k: int, n: int, values, comment: str) -> str:
    lines = [f"# {comment}", f"{k} {n} {k}"]
    for start in range(0, len(values), 32):
        lines.append(" ".join(map(str, values[start : start + 32])))
    return "\n".join(lines) + "\n"


def write_inputs(files: dict, seed: int, directory: Path) -> dict[str, Path]:
    """Write the three function files; every value comes from `seed`."""
    rng = random.Random(f"analyze_large:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    paths = {name: directory / f"{name}.txt" for name in files}

    n = files["parity"]["n"]
    c = rng.randrange(2)
    parity = [(bin(i).count("1") & 1) ^ c for i in range(1 << n)]
    paths["parity"].write_text(_decimal_file(2, n, parity, f"parity n={n} c={c}"))

    # g(h1(x1) xor ... xor hn(xn)) with each h_i equal to one non-constant h
    # or its complement: identifying two variables cancels both, so gap = 2.
    k, n = files["quasilinear"]["k"], files["quasilinear"]["n"]
    h = [0] * k
    while len(set(h)) < 2:
        h = [rng.randrange(2) for _ in range(k)]
    hs = [h if rng.randrange(2) else [1 - v for v in h] for _ in range(n)]
    g = rng.sample(range(k), 2)
    ql = []
    for point in itertools.product(range(k), repeat=n):
        acc = 0
        for hi, x in zip(hs, point):
            acc ^= hi[x]
        ql.append(g[acc])
    paths["quasilinear"].write_text(_decimal_file(k, n, ql, f"quasi-linear k={k} n={n}"))

    n = files["random"]["n"]
    paths["random"].write_text(f"hex:{rng.getrandbits(1 << n):0{(1 << n) // 4}x}\n")
    return paths


class CliWorkload:
    def __init__(self, plan: dict) -> None:
        self.plan = plan
        self.dir = OUT / f"inputs-{plan['workload']}-{os.getpid()}"
        self.env = child_env()
        self.paths: dict[str, Path] = {}
        self.reference = False  # time reference_s() around each call

    def setup(self) -> None:
        self.paths = write_inputs(self.plan["files"], self.plan["seed"], self.dir)
        # Warms the OS page cache and the bytecode cache, which every user call finds warm.
        self.call(CLI_ROUND.index(("classify", "parity")), -1)

    def call(self, kind: int, rnd: int, span_dir: Path | None = None) -> dict:
        command, file = CLI_ROUND[kind]
        path = str(self.paths[file])
        if span_dir is None:
            argv = [sys.executable, "-m", "aritygap", command, path, "--json"]
        else:
            argv = [sys.executable, str(HERE / "cli_child.py"), str(time.monotonic_ns()),
                    str(span_dir / f"spans-{kind}.csv"), str(kind), command, path, "--json"]
        name = f"{command} {file}"
        before = reference_s() if self.reference else None
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, env=self.env, cwd=ROOT,
                                  timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return _op(name, kind, rnd, time.perf_counter() - start, 0, "timed out")
        wall = time.perf_counter() - start
        ref = (before + reference_s()) / 2 if self.reference else None
        if proc.returncode != 0:
            return _op(name, kind, rnd, wall, 0, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        try:
            out = json.loads(proc.stdout)
        except json.JSONDecodeError as exc:
            return _op(name, kind, rnd, wall, 0, f"bad JSON output: {exc}")
        keys = ("gap", "tag") if command == "classify" else ("ess", "essl", "gap")
        expect = {key: v for key, v in self.plan["expect"].get(file, {}).items() if key in keys}
        wrong = {key: out.get(key) for key, value in expect.items() if out.get(key) != value}
        return _op(name, kind, rnd, wall, 1, f"got {wrong}, expected {expect}" if wrong else None,
                   result={key: out.get(key) for key in ("ess", "essl", "gap", "tag")}, ref_s=ref)

    def round(self, rnd: int, span_dir: Path | None = None) -> list[dict]:
        ops = [self.call(kind, rnd, span_dir) for kind in range(len(CLI_ROUND))]
        # classify's implied gap must equal analyze's on the same file.
        gaps = {}
        for op in ops:
            command, file = op["op"].split()
            gap = (op.get("result") or {}).get("gap")
            if command == "analyze":
                gaps[file] = gap
            elif op["ok"] and gap != gaps.get(file):
                op.update(ok=False, error=f"classify gap {gap} != analyze gap {gaps.get(file)}")
        return ops

    def allcores(self, rep: int, nproc: int) -> dict:
        """nproc closed-loop clients, each running one round at the same time."""
        results: list[list[dict]] = [[] for _ in range(nproc)]

        def client(slot: int) -> None:
            results[slot] = self.round(rep)

        threads = [threading.Thread(target=client, args=(slot,)) for slot in range(nproc)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - start
        calls = [op for r in results for op in r]
        errors = [op["error"] for op in calls if not op["ok"]]
        if len(calls) != nproc * len(CLI_ROUND):
            errors.append(f"{len(calls)} of {nproc * len(CLI_ROUND)} calls returned")
        done = sum(op["functions"] for op in calls)
        return _op("cli clients", 0, rep, wall, done, "; ".join(errors) or None, workers=nproc)

    def traced_round(self) -> tuple[list[dict], list]:
        from tracer import read_spans

        span_dir = self.dir / "spans"
        span_dir.mkdir()
        ops = self.round(0, span_dir)
        spans = []
        for kind in range(len(CLI_ROUND)):
            part = span_dir / f"spans-{kind}.csv"
            if part.exists():
                spans.extend(read_spans(part))
        return ops, spans

    def teardown(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


# ---------------------------------------------------------------------------


def main(argv) -> int:
    job = json.loads(argv[0])
    plan = job["plan"]
    sys.path.insert(0, str(SRC))
    import aritygap

    if Path(aritygap.__file__).resolve().parent != SRC / "aritygap":
        raise SystemExit(f"aritygap imported from {aritygap.__file__}, not from {SRC}")
    workload = SweepWorkload(plan) if plan["type"] == "sweep" else CliWorkload(plan)
    rusage = resource.RUSAGE_SELF if plan["type"] == "sweep" else resource.RUSAGE_CHILDREN
    try:
        workload.setup()
        out: dict = {"setup_s": (time.monotonic_ns() - job["t0_ns"]) / 1e9,
                     "setup_ref_s": reference_s(), "serial_s": 0.0}
        ops = []
        if job["role"] == "trace":
            from tracer import self_times, write_spans

            for rnd in range(plan["trace_untraced"]):
                ops += [dict(op, phase="untraced") for op in workload.round(rnd)]
            for rep in job["allcores"]:
                ops.append(dict(workload.allcores(rep, job["nproc"]), phase="allcores"))
            traced, spans = workload.traced_round()
            ops += [dict(op, phase="traced") for op in traced]
            write_spans(job["spans_path"], spans)
            out["layers"] = self_times(spans)
        else:
            workload.reference = True
            first = time.perf_counter()
            deadline = first + job["seconds"]
            for rnd in itertools.count():
                start = time.perf_counter()
                ops += [dict(op, phase="serial") for op in workload.round(rnd)]
                now = time.perf_counter()
                # Stop unless one more round would end within half a round of the deadline.
                if now + (now - start) / 2 >= deadline:
                    break
            out["serial_s"] = now - first
        out["ops"] = ops
        out["peak_rss_mb"] = resource.getrusage(rusage).ru_maxrss / 1024
    finally:
        workload.teardown()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
