"""The comparators of scripts/compare.py, on canned runs: what passes as the
same results and what is named as a difference, one line each.  The script's
full run (python scripts/compare.py REV) runs outside this suite."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from aritygap.cli import parse_function_text
from aritygap.core import gap_report

ROOT = Path(__file__).resolve().parent.parent


def _script():
    spec = importlib.util.spec_from_file_location("compare", ROOT / "scripts" / "compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare = _script()

MAIN = {"theorem": "SalomaaMain", "population": "exhaustive k=2 b=2 n=3 (256 tables)", "checked": 248,
        "skipped": 8, "passed": True, "violations": [], "elapsed_s": 0.01}
STR = {**MAIN, "theorem": "ThmStr", "checked": 240, "elapsed_s": 0.02}
GENERATE = ("generate", "--random", "2", "2", "6", "1")
ANALYZE = ("analyze", "short.fn")


def sweeps(*reports, code=0):
    return code, "".join(json.dumps(r, sort_keys=True) + "\n" for r in reports).encode(), b""


def runs(*reports, two=None, code=0, **commands):
    """A tree's runs: the sweeps at one worker (and at two, for head), and
    two aritygap command lines, each replaced by a keyword's triple."""
    out = {compare.ONE: sweeps(*reports, code=code),
           GENERATE: commands.get("generate", (0, b"2 2 6\n0110\n", b"")),
           ANALYZE: commands.get("analyze", (2, b"", b"error: table has 3 entries\n"))}
    if two is not None:
        out[compare.TWO] = sweeps(*two)
    return out


def head(*reports, **commands):
    return runs(*reports, two=reports, **commands)


@pytest.mark.parametrize("now", [
    head({**MAIN, "elapsed_s": 9.5}, STR),
    head({**MAIN, "gap_counts": [240, 8]}, STR),
    head(MAIN, STR, {**MAIN, "theorem": "ThmGen"}),
], ids=["changed-elapsed_s", "added-key", "added-report"])
def test_the_same_results_pass(now):
    assert compare.differences(runs(MAIN, STR), now) == []


@pytest.mark.parametrize("base,now,named", [
    (runs(MAIN, STR), head({**MAIN, "checked": 247}, STR), "SalomaaMain exhaustive k=2 b=2 n=3"),
    (runs(MAIN, STR), head(MAIN), "ThmStr exhaustive k=2 b=2 n=3"),
    (runs(), head(MAIN, STR), "no sweep report"),
    (runs(MAIN, STR), runs(MAIN, STR, two=[MAIN, {**STR, "passed": False}]), "between 1 and 2 workers"),
    (runs(MAIN, STR), head(MAIN, STR, analyze=(2, b"", b"error: table has 4 entries\n")), "analyze short.fn"),
    (runs(MAIN, STR), head(MAIN, STR, analyze=(3, b"", b"error: table has 3 entries\n")), "analyze short.fn"),
    (runs(MAIN, STR), runs(MAIN, STR, two=[MAIN, STR], code=1), "run_all_sweeps.py"),
    (runs(MAIN, STR, generate=(2, b"", b"error\n")), head(MAIN, STR, generate=(2, b"", b"error\n")),
     "generate --random 2 2 6 1"),
], ids=["changed-checked", "missing-report", "empty-base", "one-and-two-workers-differ",
        "changed-stderr", "changed-exit-code", "failing-head-sweeps", "failing-generate"])
def test_each_difference_is_one_line_that_names_it(base, now, named):
    lines = compare.differences(base, now)
    assert len(lines) == 1 and named in lines[0], lines


def test_a_changed_cli_line_names_what_changed():
    now = head(MAIN, STR, analyze=(3, b"", b"error: table has 4 entries\n"))
    assert compare.differences(runs(MAIN, STR), now) == ["aritygap analyze short.fn: differs from REV in exit code, stderr"]


def test_a_rev_git_cannot_export_exits_2_before_running_anything():
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "compare.py"), "no-such-rev"],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 2 and run.stdout == "" and run.stderr.strip(), run


def test_the_ladder_files_have_gap_2_3_and_4():
    # analyze compares gap_report's rungs past gap 1 with REV only on these files.
    gaps = {name: gap_report(parse_function_text(text)) for name, text in compare.ladder_files().items()}
    assert {name: (r.ess, r.gap) for name, r in gaps.items()} == {
        "parity-8.fn": (8, 2), "diagonal-3.fn": (3, 3), "diagonal-4.fn": (4, 4)}


@pytest.mark.parametrize("report,same", [
    ({**MAIN, "elapsed_s": 9.5}, True),
    ({**MAIN, "checked": 247}, False),
], ids=["changed-elapsed_s", "changed-checked"])
def test_a_sweep_line_is_compared_but_for_elapsed_s(report, same):
    # A sweep line's stdout is one JSON report; a refused sweep prints none.
    line, refused = compare.SWEEPS[1], compare.SWEEPS[-1]
    was = {line: (0, json.dumps(MAIN).encode(), b""), refused: (2, b"", b"error: use Exhaustive\n")}
    now = {**was, line: (0, json.dumps(report, indent=1).encode(), b"")}
    lines = compare.command_differences(was, now)
    assert lines == ([] if same else [f"aritygap {' '.join(line)}: differs from REV in stdout"])
