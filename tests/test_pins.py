"""Golden pins: sweep reports and search output captured before the theorem
records replaced the per-theorem checks.  Every byte except elapsed_s must
stay the same."""

import json

import pytest

from aritygap import Exhaustive, Sampled, TheoremId, sweep
from aritygap.cli import main

SWEEP_PINS = [
    (
        TheoremId.THM1,
        Exhaustive(k=2, b=2, n=2),
        (
            '{"checked": 16, "exhaustive": true, "passed": true, "population": "full '
            'search k=2 n=2 space=16", "schema": "aritygap/1", "skipped": 0, "theorem": '
            '"Thm1", "violation_count": 0, "violations": [], "witnesses": [{"b": 2, "k": '
            '2, "n": 2, "table": [0, 0, 1, 0]}, {"b": 2, "k": 2, "n": 2, "table": [0, 1, '
            '0, 0]}, {"b": 2, "k": 2, "n": 2, "table": [0, 1, 1, 0]}, {"b": 2, "k": 2, '
            '"n": 2, "table": [1, 0, 0, 1]}, {"b": 2, "k": 2, "n": 2, "table": [1, 0, 1, '
            '1]}, {"b": 2, "k": 2, "n": 2, "table": [1, 1, 0, 1]}]}'
        ),
    ),
    (
        TheoremId.THM1,
        Exhaustive(k=3, b=3, n=3),
        (
            '{"checked": 2187, "exhaustive": true, "passed": true, "population": '
            '"diagonal search k=3 n=3 space=2187", "schema": "aritygap/1", "skipped": 0, '
            '"theorem": "Thm1", "violation_count": 0, "violations": [], "witnesses": '
            '[{"b": 3, "k": 3, "n": 3, "table": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, '
            '0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0]}, {"b": 3, "k": 3, "n": 3, '
            '"table": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, '
            '0, 0, 0, 0, 0]}, {"b": 3, "k": 3, "n": 3, "table": [0, 0, 0, 0, 0, 0, 0, 0, '
            '0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]}, {"b": 3, "k": 3, '
            '"n": 3, "table": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, '
            '1, 0, 1, 0, 0, 0, 0, 0]}, {"b": 3, "k": 3, "n": 3, "table": [0, 0, 0, 0, 0, '
            '0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 0, 0, 0, 0, 0]}, {"b": 3,'
            ' "k": 3, "n": 3, "table": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, '
            '0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]}, {"b": 3, "k": 3, "n": 3, "table": [0, 0, '
            '0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1, 0, 0, 0, 0, 0]},'
            ' {"b": 3, "k": 3, "n": 3, "table": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, '
            '0, 0, 0, 0, 0, 0, 2, 0, 2, 0, 0, 0, 0, 0]}, {"b": 3, "k": 3, "n": 3, '
            '"table": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, '
            '0, 0, 0, 0, 0]}, {"b": 3, "k": 3, "n": 3, "table": [0, 0, 0, 0, 0, 0, 0, 0, '
            '0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0]}]}'
        ),
    ),
    (
        TheoremId.THM1,
        Exhaustive(k=3, b=3, n=4),
        (
            '{"checked": 3, "exhaustive": true, "passed": true, "population": "diagonal '
            'search k=3 n=4 space=3", "schema": "aritygap/1", "skipped": 0, "theorem": '
            '"Thm1", "violation_count": 0, "violations": [], "witnesses": []}'
        ),
    ),
    (
        TheoremId.THM_SALOMAA_MAIN,
        Exhaustive(k=2, b=2, n=3),
        (
            '{"checked": 248, "exhaustive": true, "passed": true, "population": '
            '"exhaustive k=2 b=2 n=3 (256 tables)", "schema": "aritygap/1", "skipped": 8,'
            ' "theorem": "ThmSalomaaMain", "violation_count": 0, "violations": [], '
            '"witnesses": []}'
        ),
    ),
    (
        TheoremId.THM_GEN,
        Sampled(k=3, b=3, n=4, count=50, seed=42, reject_until_hypothesis=True),
        (
            '{"checked": 50, "exhaustive": false, "passed": true, "population": "sampled '
            'k=3 b=3 n=4 count=50 seed=42 reject_until_hypothesis=True", "schema": '
            '"aritygap/1", "skipped": 0, "theorem": "ThmGen", "violation_count": 0, '
            '"violations": [], "witnesses": []}'
        ),
    ),
    (
        TheoremId.THM_GEN,
        Exhaustive(k=2, b=2, n=3),
        (
            '{"checked": 218, "exhaustive": true, "passed": true, "population": '
            '"exhaustive k=2 b=2 n=3 (256 tables)", "schema": "aritygap/1", "skipped": '
            '38, "theorem": "ThmGen", "violation_count": 0, "violations": [], '
            '"witnesses": []}'
        ),
    ),
    (
        TheoremId.THM_SALOMAA_AUX,
        Sampled(k=2, b=2, n=2, count=200, seed=13),
        (
            '{"checked": 133, "exhaustive": false, "passed": true, "population": "sampled'
            ' k=2 b=2 n=2 count=200 seed=13 reject_until_hypothesis=False", "schema": '
            '"aritygap/1", "skipped": 67, "theorem": "ThmSalomaaAux", "violation_count": '
            '0, "violations": [], "witnesses": []}'
        ),
    ),
    (
        TheoremId.LEM_KPLUS1,
        Exhaustive(k=2, b=2, n=3),
        (
            '{"checked": 218, "exhaustive": true, "passed": true, "population": '
            '"exhaustive k=2 b=2 n=3 (256 tables)", "schema": "aritygap/1", "skipped": '
            '38, "theorem": "LemKplus1", "violation_count": 0, "violations": [], '
            '"witnesses": []}'
        ),
    ),
    (
        TheoremId.THM_STR,
        Sampled(k=2, b=2, n=4, count=100, seed=9, reject_until_hypothesis=True),
        (
            '{"checked": 100, "exhaustive": false, "passed": true, "population": "sampled'
            ' k=2 b=2 n=4 count=100 seed=9 reject_until_hypothesis=True", "schema": '
            '"aritygap/1", "skipped": 0, "theorem": "ThmStr", "violation_count": 0, '
            '"violations": [], "witnesses": []}'
        ),
    ),
    (
        TheoremId.LEM_DEG2,
        Exhaustive(k=2, b=2, n=4),
        (
            '{"checked": 1616, "exhaustive": true, "passed": true, "population": '
            '"exhaustive degree-2 polynomials on n=4 variables (2016 candidates)", '
            '"schema": "aritygap/1", "skipped": 400, "theorem": "LemDeg2", '
            '"violation_count": 0, "violations": [], "witnesses": []}'
        ),
    ),
    # Captured when Thm1 samples became per-index diagonal codes; every other
    # pin predates that change.
    (
        TheoremId.THM1,
        Sampled(k=3, b=3, n=2, count=12, seed=21),
        (
            '{"checked": 12, "exhaustive": false, "passed": true, "population": '
            '"diagonal-sampled search k=3 n=2 space=3**7", "schema": "aritygap/1", '
            '"skipped": 0, "theorem": "Thm1", "violation_count": 0, "violations": [], '
            '"witnesses": [{"b": 3, "k": 3, "n": 2, "table": [2, 2, 2, 1, 2, 2, 2, 2, 2]}, '
            '{"b": 3, "k": 3, "n": 2, "table": [1, 1, 1, 2, 1, 2, 2, 0, 1]}, {"b": 3, '
            '"k": 3, "n": 2, "table": [0, 1, 2, 0, 0, 1, 0, 0, 0]}, {"b": 3, "k": 3, "n": '
            '2, "table": [0, 1, 0, 2, 0, 0, 2, 0, 0]}, {"b": 3, "k": 3, "n": 2, "table": '
            '[1, 1, 0, 1, 1, 2, 0, 2, 1]}, {"b": 3, "k": 3, "n": 2, "table": [0, 1, 2, 0, '
            '0, 2, 0, 2, 0]}, {"b": 3, "k": 3, "n": 2, "table": [1, 2, 0, 1, 1, 2, 2, 1, '
            '1]}, {"b": 3, "k": 3, "n": 2, "table": [1, 2, 2, 1, 1, 2, 1, 0, 1]}, {"b": 3, '
            '"k": 3, "n": 2, "table": [1, 1, 0, 1, 1, 2, 1, 0, 1]}, {"b": 3, "k": 3, "n": '
            '2, "table": [0, 1, 0, 0, 0, 1, 1, 2, 0]}]}'
        ),
    ),
]


@pytest.mark.parametrize("theorem,population,expected", SWEEP_PINS)
def test_sweep_report_pinned(theorem, population, expected):
    report = sweep(theorem, population, workers=1).to_dict()
    report.pop("elapsed_s")
    assert json.dumps(report, sort_keys=True) == expected


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_search_json_pinned(seed, capsys):
    argv = ["search", "--k", "3", "--n", "4", "--count", "300", "--seed", str(seed), "--json"]
    assert main(argv) == 0
    expected = (
        f'{{"count": 300, "found": [], "k": 3, "n": 4, "schema": "aritygap/1", "seed": {seed}}}\n'
    )
    assert capsys.readouterr().out == expected
