#!/usr/bin/env python3
"""Run the mutation catalogue: small deliberate faults the tests must catch.

Each entry names a file, an exact text that occurs once in it, the text
that replaces it, and a pytest selection.  For each entry the repository
is copied to a temporary directory (without .git and caches), the edit is
applied there, and the selection runs with PYTHONPATH=src.  The mutant is
`killed` when the selection fails, `survived` when it passes, and `error`
when its text is not found once or pytest cannot run the selection.
Before the mutants, every selection runs once on an unmutated copy: a
selection that already fails there could kill nothing.

    python scripts/mutants.py          # one line per mutant
    python scripts/mutants.py --json   # one JSON report

Exit status is 0 when every mutant is killed.  Standard library only;
it runs outside the tier-1 suite, which checks only that every catalogued
text still occurs in its file.  Mutation analysis follows DeMillo, Lipton
and Sayward, "Hints on test data selection", IEEE Computer (1978).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in file
    new: str
    selection: tuple[str, ...]  # pytest arguments


MUTANTS = [
    Mutant(
        "gap1-kernel-returns-meets",
        "src/aritygap/core.py",
        "    return meets, good\n\n\ndef is_essential",
        "    return meets, meets\n\n\ndef is_essential",
        ("tests/test_core.py::TestGap1Lanes",),
    ),
    Mutant(
        "carry-constant-off-by-one",
        "src/aritygap/core.py",
        "((1 << p) - least) * ones",
        "((1 << p) - least + 1) * ones",
        ("tests/test_core.py::TestGap1Lanes::test_ess_lanes_count_essential_variables",),
    ),
    Mutant(
        "ess-lanes-ignores-flags",
        "src/aritygap/core.py",
        "return (sum(flags) + ",
        "return (len(flags) * ones + ",
        ("tests/test_core.py::TestGap1Lanes",),
    ),
    Mutant(
        "identified-wrong-shift",
        "src/aritygap/core.py",
        "return on0 | on1 | (on0 >> si) | (on1 << si)",
        "return on0 | on1 | (on0 << si) | (on1 >> si)",
        ("tests/test_core.py::TestIdentify",),
    ),
    Mutant(
        "deg2-blocks-without-lane-shift",
        "src/aritygap/verifier.py",
        "block = block >> a * width & (1 << (b - a) * width) - 1",
        "block = block & (1 << (b - a) * width) - 1",
        ("tests/test_verifier.py::TestDeg2Walk",),
    ),
    Mutant(
        "skip-count-off-by-one",
        "src/aritygap/verifier.py",
        "count - meets.bit_count())",
        "count - meets.bit_count() + 1)",
        ("tests/test_verifier.py::TestDeg2Walk",),
    ),
    Mutant(
        "redraw-at-next-index",
        "src/aritygap/verifier.py",
        "yield (*_member(key, pop, start + m, budget), 1)",
        "yield (*_member(key, pop, start + m + 1, budget), 1)",
        ("tests/test_verifier.py::TestLaneClaims::test_sweep_records_the_failing_samples_in_index_order",),
    ),
    Mutant(
        "exhaustive-tables-in-wrong-lanes",
        "src/aritygap/verifier.py",
        "sum(m << m * width for m in range(lanes))",
        "sum(m << (lanes - 1 - m) * width for m in range(lanes))",
        ("tests/test_verifier.py::TestLaneClaims::test_exhaustive_sweep_counts_and_records_in_code_order",),
    ),
    Mutant(
        "redraw-from-attempt-0",
        "src/aritygap/verifier.py",
        "for attempt in range(1, 10000):",
        "for attempt in range(10000):",
        ("tests/test_verifier.py::TestLaneClaims::test_rejection_draws_each_attempt_once",),
    ),
    Mutant(
        "fallback-gap-fixed-at-2",
        "src/aritygap/verifier.py",
        "gap = 1 if gap1 & lane else gap_report(FiniteFunction(k, b, n, block >> m * width & table)).gap",
        "gap = 1 if gap1 & lane else 2",
        ("tests/test_verifier.py::TestLaneClaims::test_kernels_and_check_follow_the_claims",),
    ),
    Mutant(
        "thmgen-claim-gap-below-2",
        "src/aritygap/verifier.py",
        "lambda gap, k, *_: gap <= k",
        "lambda gap, k, *_: gap < 2",
        ("tests/test_verifier.py::TestTableKernels::test_gap_kernels_match_the_oracle",),
    ),
    Mutant(
        "scan-kernel-returns-meets",
        "src/aritygap/verifier.py",
        "return meets, sum(kept for *_, kept in scan(block, k, b, n, lanes, meets))",
        "return meets, meets",
        ("tests/test_verifier.py::TestTableKernels",),
    ),
    Mutant(
        "restriction-scan-skips-last-value",
        "src/aritygap/verifier.py",
        "for c in range(k):",
        "for c in range(k - 1):",
        ("tests/test_verifier.py::TestTableKernels::test_restriction_scan_and_kernel_match_the_oracle",),
    ),
    Mutant(
        "kplus1-scan-reads-first-k-variables",
        "src/aritygap/verifier.py",
        "for t in range(k + 1):",
        "for t in range(k):",
        ("tests/test_verifier.py::TestTableKernels::test_kplus1_scan_and_kernel_match_the_oracle",),
    ),
    Mutant(
        "shared-pass-keeps-rejections",
        "src/aritygap/generators.py",
        "        if kept == size * len(group):\n",
        "        if shared:\n",
        ("tests/test_generators.py::TestRandomLanes::test_lanes_are_the_tables_random_function_and_the_oracle_draw",),
    ),
    Mutant(
        "shared-pass-bases-one-counter-late",
        "src/aritygap/generators.py",
        "[s + GOLDEN for s in group]",
        "[s + 2 * GOLDEN for s in group]",
        ("tests/test_generators.py::TestRandomFunction::test_golden_tables",),
    ),
    Mutant(
        "pass-shared-whatever-b-rejects",
        "src/aritygap/generators.py",
        "_BLOCK * ((1 << 64) % b) < 1 << 64",
        "b <= 1 << 64",
        ("tests/test_generators.py::TestRandomLanes::test_a_pass_is_shared_only_while_it_expects_under_one_rejection",),
    ),
    Mutant(
        "cli-imports-the-sweep-engine",
        "src/aritygap/cli.py",
        "from .errors import ArityGapError, BudgetExceeded, ParseError, ValueOutOfRange\n",
        "from .errors import ArityGapError, BudgetExceeded, ParseError, ValueOutOfRange\n"
        "from .verifier import Exhaustive, Sampled, TheoremId, _function_dict, _Search, sweep\n",
        ("tests/test_package.py::TestCliImports",),
    ),
    Mutant(
        "core-imports-dataclasses",
        "src/aritygap/core.py",
        "from collections import namedtuple\n",
        "import dataclasses\nfrom collections import namedtuple\n",
        ("tests/test_package.py::TestCliImports",),
    ),
    Mutant(
        "lazy-name-returns-the-submodule",
        "src/aritygap/__init__.py",
        "loaded if name == module else getattr(loaded, name)",
        "loaded",
        ("tests/test_package.py::TestPackageSurface",),
    ),
    Mutant(
        "oracles-import-the-package",
        "tests/oracles.py",
        "from itertools import product\n",
        "from itertools import product\n\nfrom aritygap.core import pack\n",
        ("tests/test_oracles_independent.py",),
    ),
]

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out",
                                 ".bench_build", "*.egg-info")


def mutated(text: str, mutant: Mutant) -> str:
    """text with the mutant's edit applied; ValueError unless its old text occurs once."""
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs {text.count(mutant.old)} times in {mutant.file}")
    return text.replace(mutant.old, mutant.new)


def _pytest(copy: Path, selection) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(copy / "src"), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selection]
    return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def run(mutant: Mutant, workdir: Path) -> dict:
    """Apply one mutant to a fresh copy of the repository and run its selection."""
    copy = workdir / mutant.name
    shutil.copytree(ROOT, copy, ignore=_IGNORE)
    try:
        path = copy / mutant.file
        try:
            path.write_text(mutated(path.read_text(encoding="utf-8"), mutant), encoding="utf-8")
        except ValueError as exc:
            return {"outcome": "error", "returncode": None, "detail": str(exc)}
        code = _pytest(copy, mutant.selection)
        outcome = {0: "survived", 1: "killed"}.get(code, "error")
        return {"outcome": outcome, "returncode": code}
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--json", action="store_true", help="print one JSON report")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="aritygap-mutants-") as tmp:
        workdir = Path(tmp)
        clean = workdir / "clean"
        shutil.copytree(ROOT, clean, ignore=_IGNORE)
        selections = list(dict.fromkeys(s for m in MUTANTS for s in m.selection))
        clean_code = _pytest(clean, selections)
        shutil.rmtree(clean, ignore_errors=True)
        results = []
        if clean_code == 0:
            for m in MUTANTS:
                results.append({"name": m.name, "file": m.file, "selection": list(m.selection), **run(m, workdir)})
                if not args.json:
                    r = results[-1]
                    print(f"{r['outcome']:<9} {m.name:<34} {m.file}", flush=True)

    all_killed = clean_code == 0 and all(r["outcome"] == "killed" for r in results)
    if args.json:
        print(json.dumps({"clean_returncode": clean_code, "mutants": results, "all_killed": all_killed}, indent=1))
    elif clean_code != 0:
        print(f"the unmutated selections fail (pytest exit {clean_code}); no mutant was run")
    else:
        print(f"{sum(r['outcome'] == 'killed' for r in results)}/{len(results)} killed")
    return 0 if all_killed else 1


if __name__ == "__main__":
    sys.exit(main())
