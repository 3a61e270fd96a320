#!/usr/bin/env python3
"""Check that the working tree gives the same results as a git revision.

    python scripts/compare.py REV      # for example HEAD, or a pull request's base

REV is exported with `git archive` to a temporary directory; the working
tree, uncommitted changes included, is "head".  Each tree runs its own code
with PYTHONPATH=<tree>/src and PYTHONDONTWRITEBYTECODE=1, so neither gets a
__pycache__.  The checks:

- head's `run_all_sweeps.py --json --workers 1` exits 0;
- head's reports at 2 workers are its reports at 1 worker, in the same
  order, every key compared but elapsed_s;
- every report of REV reappears at head with each of REV's keys unchanged
  but elapsed_s; added keys and added reports pass, and a missing report,
  or no report at all from REV, fails;
- `generate --random` prints the same file in both trees for eight shapes,
  and a generate that fails at head is a difference even where REV fails
  alike;
- analyze, classify (each with and without --json) and anf on those eight
  files, the three files of gap 2, 3 and 4 that ladder_files() writes, a
  hex: file and two malformed ones, the help texts, a bare analyze,
  `anf FILE --json` and one small gap >= 3 search give the same
  (exit code, stdout, stderr) in both trees;
- the SWEEPS lines of `aritygap sweep --json` give the same exit code,
  stderr and stdout, a JSON report compared but for elapsed_s.

Prints one line per difference and exits 1, or exits 0 when there is none,
or 2 with git's message when REV cannot be exported.  Standard library and
git only.  The comparators are pure functions over parsed reports and
(exit code, stdout, stderr) triples; tests/test_compare.py feeds them
canned runs.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ONE = ("run_all_sweeps.py", "--json", "--workers", "1")
TWO = ("run_all_sweeps.py", "--json", "--workers", "2")
# generate --random K B N SEED; b = 4, 32 and 64 draw fields of 2, 5 and 6 bits, and
# 2 2 12 a Boolean table of 4,096 rows, drawn alone in four passes.
SHAPES = ("2 2 6 1", "2 2 10 2", "3 3 4 3", "3 2 5 4", "3 5 3 5", "2 4 5 6", "2 32 4 7", "2 64 3 8", "2 2 12 9")
SEARCH = ("search", "--k", "3", "--n", "4", "--count", "2000", "--seed", "0", "--json")
# A k = 1 table sweep that checks nothing (exit 4), Thm1's witnesses, a rejection-sampled
# ThmStr sweep, the degree-2 walk, and a LemDeg2 sample that is refused (exit 2).
SWEEPS = tuple(("sweep", "--theorem", *line.split(), "--json") for line in (
    "thmgen --k 1 --b 2 --n 3", "thm1 --k 2 --n 2", "thmstr --k 2 --n 4 --count 500 --seed 3 --reject-hypothesis",
    "lemdeg2 --k 2 --n 4", "lemdeg2 --k 2 --n 4 --count 5"))
PARTS = ("exit code", "stdout", "stderr")


def ladder_files() -> dict[str, str]:
    """Function files of gap 2, 3 and 4, on which analyze climbs gap_report's
    ladder past its first rung: parity at n = 8, and at k = n = 3 and 4 the
    table that is x1 where the coordinates are pairwise distinct and 0
    elsewhere (every variable essential, every identification minor constant)."""
    files = {"parity-8.fn": "2 8 2\n" + " ".join(str(bin(r).count("1") % 2) for r in range(256)) + "\n"}
    for k in (3, 4):
        rows = (p[0] if len(set(p)) == k else 0 for p in itertools.product(range(k), repeat=k))
        files[f"diagonal-{k}.fn"] = f"{k} {k} {k}\n" + " ".join(map(str, rows)) + "\n"
    return files


def _name(report: dict) -> str:
    return f"{report['theorem']} {report['population']}"


def _untimed(report: dict) -> dict:
    return {key: value for key, value in report.items() if key != "elapsed_s"}


def _reports(run) -> list[dict]:
    """The JSON reports a run of run_all_sweeps.py --json printed, one a line."""
    return [json.loads(line) for line in run[1].splitlines()]


def worker_differences(one: list[dict], two: list[dict]) -> list[str]:
    """The reports that differ, but for elapsed_s, between 1 and 2 workers."""
    lines = [f"{_name(a)}: differs between 1 and 2 workers" for a, b in zip(one, two) if _untimed(a) != _untimed(b)]
    if len(one) != len(two):
        lines.append(f"{len(one)} reports at 1 worker, {len(two)} at 2 workers")
    return lines


def report_differences(base: list[dict], head: list[dict]) -> list[str]:
    """REV's reports that head lacks or changes in a key other than elapsed_s."""
    if not base:
        return ["REV gave no sweep report"]
    found = {_name(r): _untimed(r) for r in head}
    lines = []
    for report in base:
        now = found.get(_name(report))
        if now is None:
            lines.append(f"{_name(report)}: missing at head")
        elif not _untimed(report).items() <= now.items():
            lines.append(f"{_name(report)}: differs from REV")
    return lines


def _untimed_stdout(out: bytes) -> bytes:
    """A sweep's stdout without elapsed_s, or as it is when it holds no JSON report."""
    try:
        return json.dumps(_untimed(json.loads(out)), sort_keys=True).encode()
    except ValueError:
        return out


def command_differences(base: dict, head: dict) -> list[str]:
    """The command lines of base whose (exit code, stdout, stderr) differ at
    head, a sweep's stdout but for elapsed_s, and each generate that fails at head."""
    lines = []
    for argv, was in base.items():
        now, line = head[argv], "aritygap " + " ".join(argv)
        if argv[0] == "sweep":
            was, now = [(code, _untimed_stdout(out), err) for code, out, err in (was, now)]
        if argv[0] == "generate" and now[0]:
            lines.append(f"{line}: exits {now[0]} at head")
        elif parts := [part for part, a, b in zip(PARTS, was, now) if a != b]:
            lines.append(f"{line}: differs from REV in {', '.join(parts)}")
    return lines


def differences(base: dict, head: dict) -> list[str]:
    """One line per difference between two trees' runs, each a dict from a
    command line to its (exit code, stdout, stderr): ONE and the aritygap
    command lines in both, and TWO at head."""
    one = head[ONE]
    lines = [f"{' '.join(ONE)}: exits {one[0]} at head"] if one[0] else []
    lines += worker_differences(_reports(one), _reports(head[TWO]))
    lines += report_differences(_reports(base[ONE]), _reports(one))
    return lines + command_differences({argv: run for argv, run in base.items() if argv != ONE}, head)


def _runs(tree: Path, files: Path, lines) -> dict:
    """Each command line's (exit code, stdout, stderr) in tree: run_all_sweeps.py
    from its scripts, the rest as python -m aritygap, in the directory files."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    runs = {}
    for argv in lines:
        command = [str(tree / "scripts" / argv[0]), *argv[1:]] if argv[0].endswith(".py") else ["-m", "aritygap", *argv]
        ran = subprocess.run([sys.executable, *command], cwd=files, env=env, capture_output=True)
        runs[argv] = ran.returncode, ran.stdout, ran.stderr
    return runs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("rev", help="the git revision to compare the working tree with")
    rev = parser.parse_args().rev
    export = subprocess.run(["git", "archive", "--format=zip", rev], cwd=ROOT, capture_output=True)
    if export.returncode:
        sys.stderr.write(export.stderr.decode(errors="replace"))
        return 2
    with tempfile.TemporaryDirectory(prefix="aritygap-compare-") as tmp:
        tree, files = Path(tmp, "base"), Path(tmp, "files")
        zipfile.ZipFile(io.BytesIO(export.stdout)).extractall(tree)
        files.mkdir()
        generates = [("generate", "--random", *shape.split()) for shape in SHAPES]
        base, head = _runs(tree, files, [ONE, *generates]), _runs(ROOT, files, [ONE, TWO, *generates])
        for argv in generates:
            (files / f"random-{'-'.join(argv[2:])}.fn").write_bytes(head[argv][1])
        for name, text in ladder_files().items():
            (files / name).write_text(text)
        (files / "hex.fn").write_text("hex:%064x\n" % random.Random(6).getrandbits(256))
        (files / "out-of-range.fn").write_text("2 2 2\n0 1 2 0\n")
        (files / "short.fn").write_text("3 2 3\n0 1 2\n")
        names = sorted(path.name for path in files.iterdir())
        lines = [(c, f, *j) for f in names for c in ("analyze", "classify") for j in ((), ("--json",))]
        lines += [("anf", f) for f in names]
        lines += [("--help",), ("analyze", "--help"), ("analyze",), ("anf", names[0], "--json"), SEARCH, *SWEEPS]
        base.update(_runs(tree, files, lines))
        head.update(_runs(ROOT, files, lines))
    found = differences(base, head)
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
