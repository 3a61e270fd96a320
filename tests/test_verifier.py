import math
import resource
import subprocess
import sys
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import aritygap.verifier as verifier
from aritygap import (
    Exhaustive,
    Sampled,
    SplitMix64,
    TheoremId,
    check,
    check_kplus1_lemma,
    decode_index,
    ess,
    find_restriction_witness,
    from_anf,
    gap_report,
    make_function,
    make_polynomial,
    gap_via_classifier,
    random_function,
    substream_seed,
    sweep,
)
from aritygap.generators import random_lanes
from aritygap.errors import (
    BudgetExceeded,
    HypothesisNotMet,
    NotBoolean,
    NotTotallyEssential,
    SpecInvalid,
    ValueOutOfRange,
)
from aritygap.core import FiniteFunction, _gap1_lanes, field_width
from aritygap.generators import DEFAULT_BUDGET
from aritygap.verifier import _var_masks

from oracles import (
    SplitMix64Stream,
    naive_ess,
    naive_gap_report,
    naive_kplus1_pair,
    naive_random_table,
    naive_restriction_witness,
)
from strategies import gap_two_tables

XOR = make_function(2, 2, 2, [0, 1, 1, 0])
AND = make_function(2, 2, 2, [0, 0, 0, 1])
MAJ3 = make_function(2, 2, 3, [0, 0, 0, 1, 0, 1, 1, 1])
XOR3 = make_function(2, 2, 3, [0, 1, 1, 0, 1, 0, 0, 1])


@st.composite
def witness_functions(draw, above_k, max_table):
    """Tables with k in {2, 3, 4}, b in {2, 3, 5} and at most max_table rows,
    n >= 2 or, when above_k, n > k.  A dense random table nearly always has
    the first witness, so draw one of two families instead:
    - a constant with up to eight rows changed: one changed row already
      depends on every variable, and the witnesses spread over c and pairs;
    - unless above_k, a selector: x_1 = c reads a table of its own over
      all but at least one of the other variables, so fixing x_1 loses one
      and restriction witnesses have j > 1, some of them c > 0."""
    k = draw(st.sampled_from((2, 3, 4)))
    b = draw(st.sampled_from((2, 3, 5)))
    low = top = k + 1 if above_k else 2
    while k ** (top + 1) <= max_table:
        top += 1
    n = draw(st.integers(low, top))
    values = st.integers(0, b - 1)
    if not above_k and n > 2 and draw(st.booleans()):
        reads = [sorted(draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=n - 2)))
                 for _ in range(k)]
        maps = [draw(st.lists(values, min_size=k ** len(r), max_size=k ** len(r))) for r in reads]
        table = [maps[x[0]][sum(x[t] * k**a for a, t in enumerate(reads[x[0]]))]
                 for x in product(range(k), repeat=n)]
    else:
        table = [draw(values)] * k**n
        for row, v in draw(st.lists(st.tuples(st.integers(0, k**n - 1), values), max_size=8)):
            table[row] = v
    return make_function(k, b, n, table)


class TestCheckGapBound:
    """ThmGen through check: gap <= k once ess f > k."""

    def test_xor3_within_bound(self):
        assert check(TheoremId.THM_GEN, XOR3)

    def test_hypothesis_needs_ess_above_k(self):
        with pytest.raises(HypothesisNotMet):
            check(TheoremId.THM_GEN, XOR)  # ess = 2 = k

    def test_ternary_random_samples(self):
        # Random k=3 n=4 tables nearly always have ess = 4 > k; the bound
        # then asserts essl >= 1.
        for seed in range(30):
            f = random_function(3, 3, 4, seed=seed)
            try:
                assert check(TheoremId.THM_GEN, f)
            except HypothesisNotMet:
                pass


class TestCheckBooleanBound:
    """ThmSalomaaMain through check: Boolean gap <= 2 once ess f >= 2."""

    def test_examples(self):
        assert check(TheoremId.THM_SALOMAA_MAIN, XOR)
        assert check(TheoremId.THM_SALOMAA_MAIN, AND)
        assert check(TheoremId.THM_SALOMAA_MAIN, MAJ3)

    def test_requires_boolean(self):
        with pytest.raises(NotBoolean):
            check(TheoremId.THM_SALOMAA_MAIN, make_function(3, 3, 2, [0] * 9))

    def test_requires_two_essential(self):
        # A constant misses the hypothesis ess f >= 2.
        with pytest.raises(HypothesisNotMet):
            check(TheoremId.THM_SALOMAA_MAIN, make_function(2, 2, 2, [0, 0, 0, 0]))


class TestCheck:
    """One check per theorem record, each reading the same hypothesis the
    sweeps skip on."""

    @pytest.mark.parametrize("theorem", [t for t in TheoremId if t is not TheoremId.THM1])
    def test_check_agrees_with_exhaustive_sweep(self, theorem):
        # Every Boolean table of arity 3: check raises exactly on the
        # members the sweep skips, and holds on all the others.
        checked = 0
        for code in range(256):
            f = FiniteFunction(2, 2, 3, code)
            try:
                assert check(theorem, f)
            except HypothesisNotMet:
                continue
            checked += 1
        r = sweep(theorem, Exhaustive(2, 2, 3), workers=1)
        assert (r.checked, r.violation_count) == (checked, 0)

    def test_deg2_check_reads_the_degree_hypothesis(self):
        # Over every arity-4 table, check holds on exactly the degree-2
        # polynomials with ess 4, which the degree-2 sweep also counts.
        checked = 0
        for code in range(1 << 16):
            try:
                assert check(TheoremId.LEM_DEG2, FiniteFunction(2, 2, 4, code))
            except HypothesisNotMet:
                continue
            checked += 1
        assert checked == 1616 == sweep(TheoremId.LEM_DEG2, Exhaustive(2, 2, 4), workers=1).checked
        # The 4-ary parity has gap 2, x1*x2*x3 + x4 gap 1; neither has degree 2.
        for monomials, deg in (([{1}, {2}, {3}, {4}], 1), ([{1, 2, 3}, {4}], 3)):
            f = from_anf(make_polynomial(4, monomials))
            with pytest.raises(HypothesisNotMet, match=f"LemDeg2 needs degree 2, ess f >= 4, .* degree={deg}"):
                check(TheoremId.LEM_DEG2, f)

    def test_thm1_has_no_per_function_check(self):
        with pytest.raises(SpecInvalid):
            check(TheoremId.THM1, XOR)

    def test_hypothesis_errors_name_the_theorem(self):
        with pytest.raises(NotTotallyEssential, match="LemKplus1 needs ess f = n > k"):
            check(TheoremId.LEM_KPLUS1, XOR)
        with pytest.raises(NotBoolean, match="ThmStr needs k = b = 2"):
            check(TheoremId.THM_STR, make_function(3, 3, 2, [0, 1, 2] * 3))


class TestRestrictionWitness:
    def test_xor3(self):
        assert find_restriction_witness(XOR3) == (1, 0)

    def test_majority(self):
        assert find_restriction_witness(MAJ3) == (1, 0)

    def test_and(self):
        assert find_restriction_witness(AND) == (1, 1)

    def test_requires_totally_essential(self):
        with pytest.raises(NotTotallyEssential):
            find_restriction_witness(make_function(2, 2, 2, [0, 0, 1, 1]))
        with pytest.raises(NotTotallyEssential):
            find_restriction_witness(make_function(2, 2, 1, [0, 1]))

    @given(witness_functions(above_k=False, max_table=256))
    @settings(deadline=None)
    def test_matches_oracle(self, f):
        if naive_ess(f) != f.n:
            return
        assert find_restriction_witness(f) == naive_restriction_witness(f)


class TestKplus1Lemma:
    def test_xor3(self):
        assert check_kplus1_lemma(XOR3) == (1, 2)

    def test_majority(self):
        assert check_kplus1_lemma(MAJ3) == (1, 2)

    def test_hypothesis(self):
        with pytest.raises(HypothesisNotMet):
            check_kplus1_lemma(XOR)  # n = 2 = k
        with pytest.raises(HypothesisNotMet):
            check_kplus1_lemma(make_function(2, 2, 3, [0, 1, 1, 0, 0, 1, 1, 0]))

    def test_ternary_samples(self):
        for seed in range(20):
            f = random_function(3, 3, 4, seed=seed)
            try:
                pair = check_kplus1_lemma(f)
            except HypothesisNotMet:
                continue
            assert pair is not None
            i, j = pair
            assert 1 <= i < j <= 4

    @given(witness_functions(above_k=True, max_table=1024))
    @settings(deadline=None)
    def test_matches_oracle(self, f):
        if naive_ess(f) != f.n:
            return
        assert check_kplus1_lemma(f) == naive_kplus1_pair(f)


def _outcome_or_error(call, f):
    try:
        return call(f)
    except HypothesisNotMet as exc:
        return type(exc), str(exc)


class TestWitnessScansRunOnce:
    PUBLIC = [
        (find_restriction_witness, TheoremId.THM_SALOMAA_AUX, "_restriction_scan"),
        (check_kplus1_lemma, TheoremId.LEM_KPLUS1, "_kplus1_scan"),
    ]

    @pytest.mark.parametrize("public, key, scan", PUBLIC)
    def test_one_scan_and_no_kernel_per_call(self, public, key, scan, monkeypatch):
        def no_kernel(*args):
            raise AssertionError("the claim kernel ran")

        calls = []
        real = getattr(verifier, scan)
        monkeypatch.setitem(verifier._THEOREMS, key, verifier._THEOREMS[key]._replace(lanes=no_kernel))
        monkeypatch.setattr(verifier, scan, lambda *args: calls.append(args) or real(*args))
        for f in (XOR3, MAJ3, random_function(3, 3, 4, 5)):
            expected = naive_restriction_witness(f) if key is TheoremId.THM_SALOMAA_AUX else naive_kplus1_pair(f)
            calls.clear()
            assert public(f) == expected
            assert len(calls) == 1

    @pytest.mark.parametrize("public, key, scan", PUBLIC)
    @pytest.mark.parametrize("k, b, n", [(2, 2, 1), (2, 2, 2), (2, 2, 3), (3, 3, 2), (3, 2, 2), (1, 2, 3), (2, 1, 2)])
    def test_hypothesis_errors_match_check(self, public, key, scan, k, b, n):
        # check runs the record's kernel; the public function only ess f.
        for code in range(min(b ** k**n, 600)):
            f = make_function(k, b, n, decode_index(code, b, k**n))
            from_check = _outcome_or_error(partial(check, key), f)
            from_public = _outcome_or_error(public, f)
            assert (from_public is None) == (from_check is False), f
            if isinstance(from_check, tuple):
                assert from_public == from_check, f

    def test_error_messages(self):
        with pytest.raises(NotTotallyEssential) as exc:
            find_restriction_witness(make_function(2, 2, 2, [0, 0, 1, 1]))
        assert str(exc.value) == "ThmSalomaaAux needs ess f = n >= 2, got ess=1 n=2 k=2"
        with pytest.raises(NotTotallyEssential) as exc:
            check_kplus1_lemma(XOR)
        assert str(exc.value) == "LemKplus1 needs ess f = n > k, got ess=2 n=2 k=2"


class TestSweep:
    def test_thmstr_exhaustive_small(self):
        r = sweep(TheoremId.THM_STR, Exhaustive(2, 2, 3), workers=1)
        assert r.checked + r.skipped == 256
        assert r.skipped == 8  # 2 constants, 6 single-variable tables
        assert r.violation_count == 0 and r.passed and r.exhaustive

    def test_salomaamain_exhaustive_small(self):
        r = sweep(TheoremId.THM_SALOMAA_MAIN, Exhaustive(2, 2, 2), workers=1)
        assert r.checked + r.skipped == 16
        assert r.violation_count == 0 and r.passed

    def test_sampled_reports_are_deterministic(self):
        pop = Sampled(2, 2, 4, 300, seed=9, reject_until_hypothesis=True)
        a = sweep(TheoremId.THM_STR, pop, workers=1)
        b = sweep(TheoremId.THM_STR, pop, workers=1)
        da, db = a.to_dict(), b.to_dict()
        da.pop("elapsed_s"), db.pop("elapsed_s")
        assert da == db
        assert a.checked == 300 and a.skipped == 0

    @pytest.mark.parametrize(
        "theorem,pop",
        [
            (TheoremId.LEM_DEG2, Exhaustive(2, 2, 4)),
            # Chunks of 38 samples against blocks of 128 lanes; many arity-3
            # samples have ess < 2 at attempt 0 and are redrawn.
            (TheoremId.THM_STR, Sampled(2, 2, 3, 300, 4, reject_until_hypothesis=True)),
        ],
        ids=["lemdeg2", "thmstr"],
    )
    def test_parallel_matches_serial(self, theorem, pop, monkeypatch):
        monkeypatch.setattr(verifier, "_PARALLEL_THRESHOLD", 100)
        serial = sweep(theorem, pop, workers=1)
        parallel = sweep(theorem, pop, workers=2)
        ds, dp = serial.to_dict(), parallel.to_dict()
        ds.pop("elapsed_s"), dp.pop("elapsed_s")
        assert ds == dp and ds["checked"] > 0

    def test_deg2_accounting(self):
        r = sweep(TheoremId.LEM_DEG2, Exhaustive(2, 2, 4), workers=1)
        # Nonzero quadratic parts times linear parts times constants.
        assert r.checked + r.skipped == (2 ** math.comb(4, 2) - 1) * 2 ** 5
        assert r.violation_count == 0

    def test_deg2_rejects_sampled(self):
        with pytest.raises(SpecInvalid):
            sweep(TheoremId.LEM_DEG2, Sampled(2, 2, 4, 10, 0))

    def test_thm1_exhaustive_boolean_pair(self):
        r = sweep(TheoremId.THM1, Exhaustive(2, 2, 2), workers=1, max_recorded=16)
        assert r.passed and r.exhaustive
        tables = {f.table for f in r.witnesses}
        assert (0, 1, 1, 0) in tables and (1, 0, 0, 1) in tables

    def test_thm1_requires_operation(self):
        with pytest.raises(SpecInvalid):
            sweep(TheoremId.THM1, Exhaustive(2, 3, 2))

    def test_thm1_samples_are_drawn_diagonal_codes(self):
        # Sample i is the base-3 code (constant, values on the rainbow rows
        # 1, 2, 3, 5, 6, 7) drawn from SplitMix64(substream_seed(seed, i)).
        r = sweep(TheoremId.THM1, Sampled(3, 3, 2, 40, seed=6), workers=1, max_recorded=40)
        expected = []
        for i in range(40):
            const, *values = decode_index(SplitMix64(substream_seed(6, i)).below(3**7), 3, 7)
            table = [const] * 9
            for row, v in zip((1, 2, 3, 5, 6, 7), values):
                table[row] = v
            f = make_function(3, 3, 2, table)
            if ess(f) == 2:
                expected.append(f)
        assert (r.checked, r.skipped, r.exhaustive) == (40, 0, False)
        assert r.population == "diagonal-sampled search k=3 n=2 space=3**7"
        assert r.witnesses == tuple(expected) and expected

    def test_thm1_sampled_parallel_matches_serial(self, monkeypatch):
        monkeypatch.setattr(verifier, "_PARALLEL_THRESHOLD", 100)
        pop = Sampled(3, 3, 3, 300, seed=5)
        serial = sweep(TheoremId.THM1, pop, workers=1, max_recorded=50).to_dict()
        parallel = sweep(TheoremId.THM1, pop, workers=2, max_recorded=50).to_dict()
        serial.pop("elapsed_s"), parallel.pop("elapsed_s")
        assert serial == parallel and serial["checked"] == 300 and serial["witnesses"]

    def test_thm1_wide_k_sample_in_bounded_memory(self):
        # 10**7 rows of 4 bits and 604,800 rainbow rows: the table is written
        # as binary text, and the masks are two per variable.
        def limit_address_space():
            # Applies in the child only, between fork and exec.
            resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

        code = (
            "from aritygap import Sampled, TheoremId, sweep\n"
            "r = sweep(TheoremId.THM1, Sampled(10, 10, 7, 1, 0))\n"
            "print(r.checked, r.passed)\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                preexec_fn=limit_address_space, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["1", "True"]

    def test_thm1_rejects_hypothesis_sampling(self):
        with pytest.raises(SpecInvalid):
            sweep(TheoremId.THM1, Sampled(2, 2, 2, 5, 3, reject_until_hypothesis=True))

    def test_thm1_exhaustive_over_budget(self):
        # Neither the 3**9 tables nor the 3**7 diagonal codes fit.
        with pytest.raises(BudgetExceeded, match="use a sampled sweep"):
            sweep(TheoremId.THM1, Exhaustive(3, 3, 2), budget=2000)
        assert sweep(TheoremId.THM1, Exhaustive(3, 3, 2), budget=3**7).population == (
            "diagonal search k=3 n=2 space=2187"
        )

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            sweep(TheoremId.THM_SALOMAA_MAIN, Exhaustive(2, 2, 5))
        with pytest.raises(BudgetExceeded):
            sweep(TheoremId.THM_STR, Sampled(2, 2, 4, 10**9, 0))

    def test_thmgen_sampled_ternary(self):
        r = sweep(TheoremId.THM_GEN, Sampled(3, 3, 4, 200, seed=3, reject_until_hypothesis=True), workers=1)
        assert r.checked == 200 and r.skipped == 0
        assert r.violation_count == 0

    def test_thmgen_exhaustive_boolean(self):
        # On two elements the general bound coincides with the Boolean one
        # but runs through the ess > k dispatch.
        r = sweep(TheoremId.THM_GEN, Exhaustive(2, 2, 4), workers=1)
        assert r.violation_count == 0
        assert r.checked + r.skipped == 65536

    def test_salomaaaux_exhaustive_ternary(self):
        # Restriction witnesses on a three-element domain, all 3**9 tables.
        r = sweep(TheoremId.THM_SALOMAA_AUX, Exhaustive(3, 3, 2), workers=1)
        assert r.violation_count == 0
        assert r.checked + r.skipped == 3**9
        assert r.checked > 0

    def test_nothing_checked_does_not_pass(self):
        r = sweep(TheoremId.THM_GEN, Exhaustive(2, 2, 2), workers=1)
        assert (r.checked, r.skipped, r.violation_count) == (0, 16, 0)
        assert not r.passed

    def test_nonpositive_count_rejected(self):
        for count in (0, -5):
            with pytest.raises(SpecInvalid):
                sweep(TheoremId.THM_STR, Sampled(2, 2, 3, count, 0), workers=1)
        for workers in (0, -3):
            with pytest.raises(SpecInvalid):
                sweep(TheoremId.THM_STR, Exhaustive(2, 2, 3), workers=workers)

    @pytest.mark.parametrize("shape", [(0, 2, 3), (2, 0, 3), (2, 2, 0), (2, 2, -1), (-3, 2, 2)])
    @pytest.mark.parametrize("key", list(verifier._THEOREMS), ids=lambda key: key.value)
    def test_nonpositive_shape_fails_before_drawing(self, key, shape, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("built a member of a malformed shape")

        for name in ("random_function", "random_lanes", "from_code", "_lane_members"):
            monkeypatch.setattr(verifier, name, no_draws)
        for pop in (Exhaustive(*shape), Sampled(*shape, 5, 0), Sampled(*shape, 5, 0, True)):
            with pytest.raises(ValueOutOfRange, match="must be >= 1"):
                sweep(key, pop, workers=1)

    @pytest.mark.parametrize(
        "theorem,shape",
        [(TheoremId.THM_STR, (2, 2, 3)), (TheoremId.THM_GEN, (3, 3, 4))],
        ids=["thmstr", "thmgen"],
    )
    def test_samples_are_drawn_under_the_sweep_budget(self, theorem, shape, monkeypatch):
        budgets, seeds = [], []

        def spy_function(k, b, n, seed, budget=None):
            budgets.append(budget)
            seeds.append(seed)
            return random_function(k, b, n, seed, budget)

        def spy_lanes(k, b, n, lane_seeds, budget=None):
            budgets.append(budget)
            seeds.extend(lane_seeds)
            return random_lanes(k, b, n, lane_seeds, budget)

        monkeypatch.setattr(verifier, "random_function", spy_function)
        monkeypatch.setattr(verifier, "random_lanes", spy_lanes)
        # 300 Boolean samples of arity 3 fill three blocks of 128 lanes.
        firsts = [substream_seed(7, i) for i in range(300)]
        sweep(theorem, Sampled(*shape, 300, 7), budget=1 << 30, workers=1)
        assert seeds == firsts
        seeds.clear()
        # With rejection, sample i starts at attempt 0 of stream firsts[i].
        sweep(theorem, Sampled(*shape, 300, 7, True), budget=1 << 30, workers=1)
        assert {substream_seed(s, 0) for s in firsts} <= set(seeds)
        assert set(budgets) == {1 << 30}

    @pytest.mark.parametrize("shape", [(3, 3, 4), (2, 5, 3), (1, 3, 2), (4, 4, 5)])
    def test_each_block_of_samples_is_one_lane_draw(self, shape, monkeypatch):
        # Without rejection no table is drawn alone: block j of a sampled
        # sweep is one random_lanes call on the seeds of its samples.
        calls = []

        def spy_lanes(k, b, n, lane_seeds, budget=None):
            calls.append(list(lane_seeds))
            return random_lanes(k, b, n, lane_seeds, budget)

        def no_draws(*args, **kwargs):
            raise AssertionError("drew a sampled table alone")

        monkeypatch.setattr(verifier, "random_lanes", spy_lanes)
        monkeypatch.setattr(verifier, "random_function", no_draws)
        k, b, n = shape
        lanes = max(1, 1024 // k**n) if k > 1 else 1
        r = sweep(TheoremId.THM_GEN, Sampled(*shape, 2 * lanes + 1, 3), workers=1)
        assert [len(c) for c in calls] == [lanes, lanes, 1]
        assert sum(calls, []) == [substream_seed(3, i) for i in range(2 * lanes + 1)]
        assert r.checked + r.skipped == 2 * lanes + 1

    @pytest.mark.parametrize(
        "theorem,shape",
        [
            (TheoremId.LEM_KPLUS1, (2, 2, 2)),
            (TheoremId.THM_GEN, (3, 3, 3)),
            (TheoremId.THM_SALOMAA_AUX, (2, 2, 1)),
            (TheoremId.THM_STR, (2, 1, 4)),
        ],
    )
    def test_infeasible_hypothesis_fails_before_drawing(self, theorem, shape, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew a sample for an infeasible hypothesis")

        monkeypatch.setattr(verifier, "random_function", no_draws)
        monkeypatch.setattr(verifier, "random_lanes", no_draws)
        with pytest.raises(HypothesisNotMet):
            sweep(theorem, Sampled(*shape, 5, 0, reject_until_hypothesis=True), workers=1)

    def test_sampled_without_rejection_counts_skips(self):
        r = sweep(TheoremId.THM_SALOMAA_AUX, Sampled(2, 2, 2, 200, seed=13), workers=1)
        assert r.checked + r.skipped == 200
        assert r.skipped > 0  # many 4-row tables are not totally essential
        assert r.violation_count == 0


def _lane_claim_functions(n):
    """The functions with ess >= 2 among every table of arity n <= 4, or
    among 700 (600 at n = 7) seeded tables of arity 5 to 7 with the gap-2
    shapes placed among them: 2,000 seeded tables in all."""
    if n <= 4:
        fs = [FiniteFunction(2, 2, n, code) for code in range(1 << (1 << n))]
    else:
        fs = [random_function(2, 2, n, substream_seed(31 + n, i)) for i in range(700 if n < 7 else 600)]
        fs[5:5] = [make_function(2, 2, n, t) for t in gap_two_tables(n)]
    return [f for f in fs if ess(f) >= 2]


def _lane_results(kernel, n, fs):
    """The kernel's verdict per function, fs packed 1024 >> n to a block;
    every function has ess >= 2, so every lane meets the hypothesis."""
    lanes, width = max(1, verifier._BLOCK >> n), 2 << n
    got = []
    for a in range(0, len(fs), lanes):
        part = fs[a : a + lanes]
        block = sum(f.bits << m * width for m, f in enumerate(part))
        meets, holds = kernel(block, 2, 2, n, lanes, 2)
        assert meets == sum(1 << m * width for m in range(len(part)))
        assert holds & ~meets == 0
        got += [bool(holds >> m * width & 1) for m in range(len(part))]
    return got


def _settles_nothing(block, k, b, n, lanes, least):
    """A gap-1 kernel that finds no lane of gap 1 but keeps the real meets."""
    return _gap1_lanes(block, k, b, n, lanes, least)[0], 0


class TestLaneClaims:
    """ThmStr's and SalomaaMain's lane kernels, which sweeps and check share,
    against their claims on one function.  Both claims hold everywhere, so
    the kernels also run with a broken part: a classifier that always says
    gap 1, or a gap_report that adds 1, must fail exactly the gap-2 tables;
    a gap-1 kernel that settles nothing sends every lane to gap_report."""

    @staticmethod
    def _gaps(n, fs):
        gaps = [gap_report(f).gap for f in fs]
        assert [gap_via_classifier(f) for f in fs] == gaps
        # The oracle on every table of arity <= 3, every 100th of arity 4,
        # every 25th above, and every gap-2 table up to arity 5; its ess >= 2
        # is the kernels' meets, which _lane_results expects on every lane.
        for i, f in enumerate(fs):
            if n <= 3 or i % (100 if n == 4 else 25) == 0 or (gaps[i] == 2 and n <= 5):
                e, _, gap, _ = naive_gap_report(f)
                assert e >= 2 and gap == gaps[i]
        return gaps

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_kernels_and_check_follow_the_claims(self, n, monkeypatch):
        fs = _lane_claim_functions(n)
        gaps = self._gaps(n, fs)
        assert 2 in gaps and 1 in gaps
        gap1 = [g == 1 for g in gaps]
        broken_gap = lambda f: gap_report(f)._replace(gap=gap_report(f).gap + 1)
        modes = [
            ({}, [True] * len(fs)),
            ({"_gap1_lanes": _settles_nothing}, [True] * len(fs)),
            ({"_coef_gap": lambda coef, n: 1}, {TheoremId.THM_STR: gap1}),
            ({"gap_report": broken_gap}, gap1),
        ]
        step = max(1, len(fs) // 60)  # check runs on every step-th function
        for patches, expected in modes:
            with monkeypatch.context() as mp:
                for name, fake in patches.items():
                    mp.setattr(verifier, name, fake)
                for key in (TheoremId.THM_STR, TheoremId.THM_SALOMAA_MAIN):
                    want = expected.get(key) if isinstance(expected, dict) else expected
                    if want is None:
                        continue
                    assert _lane_results(verifier._THEOREMS[key].lanes, n, fs) == want, (key, patches)
                    # check is the same kernel on one lane.
                    assert [check(key, f) for f in fs[::step]] == want[::step], (key, patches)

    def test_sweep_records_the_failing_samples_in_index_order(self, monkeypatch):
        # With a classifier that says gap 1, ThmStr fails exactly the
        # gap-2 samples; rejection redraws ess < 2 samples in between.
        monkeypatch.setattr(verifier, "_coef_gap", lambda coef, n: 1)
        expected = []
        for i in range(300):
            base = substream_seed(8, i)
            attempt = 0
            while ess(f := random_function(2, 2, 3, substream_seed(base, attempt))) < 2:
                attempt += 1
            if gap_report(f).gap == 2:
                expected.append(f)
        r = sweep(TheoremId.THM_STR, Sampled(2, 2, 3, 300, 8, True), workers=1, max_recorded=300)
        assert (r.checked, r.skipped) == (300, 0)
        assert r.violations == tuple(expected) and r.violation_count == len(expected) > 0

    @pytest.mark.parametrize("theorem,shape", [(TheoremId.THM_STR, (2, 2, 3)), (TheoremId.THM_SALOMAA_AUX, (2, 3, 2))])
    def test_rejection_draws_each_attempt_once(self, theorem, shape, monkeypatch):
        # A block draws attempt 0 of every sample; a sample it skips is
        # redrawn from attempt 1, so no attempt is drawn twice.
        seeds = []

        def spy_function(k, b, n, seed, budget=None):
            seeds.append(seed)
            return random_function(k, b, n, seed, budget)

        def spy_lanes(k, b, n, lane_seeds, budget=None):
            seeds.extend(lane_seeds)
            return random_lanes(k, b, n, lane_seeds, budget)

        monkeypatch.setattr(verifier, "random_function", spy_function)
        monkeypatch.setattr(verifier, "random_lanes", spy_lanes)
        r = sweep(theorem, Sampled(*shape, 300, 8, True), workers=1)
        expected = []
        for i in range(300):
            base, attempt = substream_seed(8, i), 0
            while ess(random_function(*shape, substream_seed(base, attempt))) < 2:
                expected.append(substream_seed(base, attempt))
                attempt += 1
            expected.append(substream_seed(base, attempt))
        assert len(expected) > 300 and len(set(seeds)) == len(seeds)
        assert sorted(seeds) == sorted(expected)
        assert (r.checked, r.skipped, r.violation_count, r.passed) == (300, 0, 0, True)

    def test_exhaustive_sweep_counts_and_records_in_code_order(self, monkeypatch):
        monkeypatch.setattr(verifier, "_coef_gap", lambda coef, n: 1)
        fs = [FiniteFunction(2, 2, 3, code) for code in range(256)]
        expected = [f for f in fs if ess(f) >= 2 and gap_report(f).gap == 2]
        r = sweep(TheoremId.THM_STR, Exhaustive(2, 2, 3), workers=1, max_recorded=256)
        assert (r.checked, r.skipped) == (sum(ess(f) >= 2 for f in fs), sum(ess(f) < 2 for f in fs))
        assert r.violations == tuple(expected) and r.violation_count == len(expected)


def _kernel_tables(k, b, n):
    """Tables of shape (k, b, n) for the table kernels: seeded random ones;
    constants with a few rows changed; selectors, where x_1 = c reads a
    table of all other variables but one, so that restriction witnesses
    have j > 1; g(h(x_1) + ... + h(x_n) mod 2) with one h for all variables
    (gap 2) and with h_t the indicator of t mod k; the indicator of the
    point (0, 1, ..., n-1) when n <= k (gap n); when n > k, x_{k+1} mod b
    and x_n mod b, on which the k+1 scan differs in its first pair or keeps
    no pair; and on two elements the gap-2 shapes."""
    rng = SplitMix64Stream(100 * k + 10 * b + n)
    points = list(product(range(k), repeat=n))
    tables = [list(naive_random_table(k, b, n, 1000 * k + 10 * b + s)) for s in range(6)]
    for _ in range(6):
        table = [rng.below(b)] * k**n
        for _ in range(rng.below(4) + 1):
            table[rng.below(k**n)] = rng.below(b)
        tables.append(table)
    for _ in range(4 if n >= 3 else 0):
        reads = [[t for t in range(1, n) if t != 1 + (c + rng.below(n - 1)) % (n - 1)] for c in range(k)]
        subs = [{tuple(x[t] for t in r): rng.below(b) for x in points} for r in reads]
        tables.append([subs[x[0]][tuple(x[t] for t in reads[x[0]])] for x in points])
    g = (0, b - 1)
    tables.append([g[sum(x) % 2] for x in points])
    tables.append([g[sum(x[t] == t % k for t in range(n)) % 2] for x in points])
    if n <= k:
        tables.append([int(x == tuple(range(n))) for x in points])
    else:
        tables += [[x[k] % b for x in points], [x[-1] % b for x in points]]
    if k == b == 2 and n >= 2:
        tables += gap_two_tables(n)
    return [make_function(k, b, n, t) for t in tables]


def _block(fs):
    """fs, of one shape, as the lanes of a block, and the lane width."""
    f = fs[0]
    width = 2 * f.k**f.n * field_width(f.b)
    return sum(g.bits << m * width for m, g in enumerate(fs)), width


def _lanes(width, keep):
    """The block mask (bottom bits) of the lanes m with keep[m]."""
    return sum(1 << m * width for m, x in enumerate(keep) if x)


def _first_steps(scan, block, f, lanes, pending, width):
    """Each lane's first step (x, y) in the scan; no lane is kept twice."""
    first = {}
    for x, y, kept in scan(block, f.k, f.b, f.n, lanes, pending):
        assert kept and kept & ~pending == 0
        for m in range(lanes):
            if kept >> m * width & 1:
                assert m not in first
                first[m] = (x, y)
    return first


# k in {2, 3, 4} and b in {2, 3, 4, 5}, n <= k among them; k + 1 < n for LemKplus1.
KERNEL_SHAPES = [(2, 2, 3), (2, 3, 4), (2, 4, 2), (2, 5, 3), (3, 2, 3), (3, 3, 2), (3, 4, 3), (3, 5, 1),
                 (4, 2, 2), (4, 3, 3), (4, 4, 1), (4, 5, 2)]
KPLUS1_SHAPES = [(2, 2, 3), (2, 3, 4), (2, 5, 3), (3, 2, 4), (3, 4, 4), (3, 5, 4), (4, 2, 5), (4, 3, 5)]


class TestTableKernels:
    """The kernels of ThmGen, the gap >= 3 search, SalomaaAux and LemKplus1,
    and the scans behind the last two, on blocks of many lanes against the
    oracles.  Floors below the hypothesis put lanes where the claim fails
    into meets, so a kernel that passes every lane is caught."""

    @pytest.mark.parametrize("k,b,n", KERNEL_SHAPES)
    def test_gap_kernels_match_the_oracle(self, k, b, n):
        fs = _kernel_tables(k, b, n)
        block, width = _block(fs)
        reports = [naive_gap_report(f) if naive_ess(f) >= 2 else (naive_ess(f), 0, 0, None) for f in fs]
        if n >= 2:
            assert 2 in {r[2] for r in reports} and (n > k or n in {r[2] for r in reports})
        for key, claim in ((TheoremId.THM_GEN, lambda gap: gap <= k), (verifier._Search.GAP3, lambda gap: gap < 3)):
            spec = verifier._THEOREMS[key]
            for least in sorted({2, 3, spec.min_ess(k, n)}):
                meets = _lanes(width, [r[0] >= least for r in reports])
                holds = _lanes(width, [r[0] >= least and claim(r[2]) for r in reports])
                assert spec.lanes(block, k, b, n, len(fs), least) == (meets, holds), (key, least)

    @pytest.mark.parametrize("k,b,n", KERNEL_SHAPES)
    def test_restriction_scan_and_kernel_match_the_oracle(self, k, b, n):
        fs = _kernel_tables(k, b, n)
        block, width = _block(fs)
        spec = verifier._THEOREMS[TheoremId.THM_SALOMAA_AUX]
        counts = [naive_ess(f) for f in fs]
        witnesses = [naive_restriction_witness(f) for f in fs]
        if n >= 3:
            assert any(w and w[0] > 1 for w in witnesses) and any(w and w[1] > 0 for w in witnesses)
        for least in sorted({1, 2, spec.min_ess(k, n)}):
            meets = _lanes(width, [e >= least for e in counts])
            first = _first_steps(verifier._restriction_scan, block, fs[0], len(fs), meets, width)
            assert first == {m: w for m, w in enumerate(witnesses) if w and counts[m] >= least}, least
            holds = _lanes(width, [m in first for m in range(len(fs))])
            assert spec.lanes(block, k, b, n, len(fs), least) == (meets, holds), least

    @pytest.mark.parametrize("k,b,n", KPLUS1_SHAPES)
    def test_kplus1_scan_and_kernel_match_the_oracle(self, k, b, n):
        fs = _kernel_tables(k, b, n)
        block, width = _block(fs)
        spec = verifier._THEOREMS[TheoremId.LEM_KPLUS1]
        counts = [naive_ess(f) for f in fs]
        pairs = [naive_kplus1_pair(f) for f in fs]
        if n > k + 1:
            assert any(p is None and e >= 1 for p, e in zip(pairs, counts))
        for least in sorted({1, 2, spec.min_ess(k, n)}):
            meets = _lanes(width, [e >= least for e in counts])
            first = _first_steps(verifier._kplus1_scan, block, fs[0], len(fs), meets, width)
            assert first == {m: p for m, p in enumerate(pairs) if p and counts[m] >= least}, least
            holds = _lanes(width, [m in first for m in range(len(fs))])
            assert spec.lanes(block, k, b, n, len(fs), least) == (meets, holds), least

    @pytest.mark.parametrize("k,b,n", [(2, 3, 2), (2, 2, 1), (3, 3, 3), (3, 2, 2), (4, 5, 3), (4, 4, 1)])
    def test_kplus1_with_n_at_most_k_ends_before_reading_a_mask(self, k, b, n):
        # ess f > k is out of reach, so nothing meets the floor, and the
        # scan must end before it indexes the mask of variable k + 1.
        fs = _kernel_tables(k, b, n)
        block, _ = _block(fs)
        spec = verifier._THEOREMS[TheoremId.LEM_KPLUS1]
        assert spec.lanes(block, k, b, n, len(fs), spec.min_ess(k, n)) == (0, 0)
        assert list(verifier._kplus1_scan(block, k, b, n, len(fs), 0)) == []

    @given(st.lists(witness_functions(above_k=False, max_table=81), min_size=1, max_size=6))
    @settings(deadline=None, max_examples=40)
    def test_restriction_lanes_of_drawn_witness_functions(self, fs):
        # The functions of each drawn shape share one block.
        spec = verifier._THEOREMS[TheoremId.THM_SALOMAA_AUX]
        for shape in {(f.k, f.b, f.n) for f in fs}:
            group = [f for f in fs if (f.k, f.b, f.n) == shape]
            block, width = _block(group)
            k, b, n = shape
            counts = [naive_ess(f) for f in group]
            witnesses = [naive_restriction_witness(f) for f in group]
            meets = _lanes(width, [e >= 1 for e in counts])
            first = _first_steps(verifier._restriction_scan, block, group[0], len(group), meets, width)
            assert first == {m: w for m, w in enumerate(witnesses) if w and counts[m] >= 1}
            meets = _lanes(width, [e == n for e in counts])
            holds = _lanes(width, [e == n and w is not None for e, w in zip(counts, witnesses)])
            assert spec.lanes(block, k, b, n, len(group), spec.min_ess(k, n)) == (meets, holds)


def test_chunk_bounds_partition_exactly():
    for total in (1, 7, 199, 200000, 4194176):
        for chunks in (1, 2, 7, 8):
            bounds = verifier._chunk_bounds(total, chunks)
            assert bounds[0][0] == 0 and bounds[-1][1] == total
            for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
                assert hi == lo


class TestDeg2MaskEngine:
    """The sweep builds tables from polynomial masks; they must agree with
    the ANF evaluator route."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_var_masks_match_from_anf(self, n):
        for t in range(1, n + 1):
            table = FiniteFunction(2, 2, n, _var_masks(n)[t - 1]).table
            assert table == from_anf(make_polynomial(n, [{t}])).table

    def test_composite_polynomial_masks(self):
        n = 4
        vm = _var_masks(n)
        # x1*x2 + x3 + 1
        tbl = (vm[0] & vm[1]) ^ vm[2] ^ ((1 << (1 << n)) - 1)
        expected = from_anf(make_polynomial(n, [{1, 2}, {3}, set()])).table
        assert FiniteFunction(2, 2, n, tbl).table == expected


def _deg2_candidate(n, index):
    """Candidate index of the degree-2 walk from its definition, and the
    number of variables occurring in it: quadratic part index // 2**(n+1) + 1
    over the pairs s < t in lex order, then linear part, then constant; the
    table is evaluated point by point."""
    pairs = [(s, t) for s in range(n) for t in range(s + 1, n)]
    q, rem = divmod(index, 2 << n)
    quad = [p for a, p in enumerate(pairs) if (q + 1) >> a & 1]
    linear = [t for t in range(n) if rem >> 1 + t & 1]
    table = [(rem & 1) ^ sum(x[s] & x[t] for s, t in quad) % 2 ^ sum(x[t] for t in linear) % 2
             for x in product((0, 1), repeat=n)]
    return make_function(2, 2, n, table), len({v for p in quad for v in p} | set(linear))


def _deg2_rule(n, index):
    """The walk's outcome by definition: skipped when fewer than four
    variables occur, otherwise a hit unless gap_report finds gap 1."""
    f, occurring = _deg2_candidate(n, index)
    if occurring < 4:
        return verifier._SKIP
    return verifier._OK if gap_report(f).gap == 1 else verifier._HIT


# Ranges of the walk crossing block boundaries (2**(n+1) candidates a block).
DEG2_RANGES = [(5, 3, 77), (5, 40, 41), (5, 100, 400), (6, 3, 77), (6, 40, 41), (6, 250, 700)]
DEG2_RANGES += [(n, total - 5, total) for n, total in ((5, 1023 << 6), (6, 32767 << 7))]


def _expand(runs):
    """A walker's counted runs (f, outcome, count) as one (f, outcome) per
    member; a hit is a run of its own."""
    out = []
    for f, outcome, count in runs:
        assert count >= 1 and (outcome != verifier._HIT or count == 1)
        out += [(f, outcome)] * count
    return out


def _deg2_members(n, lo, hi):
    """LemDeg2's walk of the degree-2 polynomials on n variables, lo..hi-1."""
    key = TheoremId.LEM_DEG2
    return verifier._THEOREMS[key].walk(key, Exhaustive(2, 2, n), DEFAULT_BUDGET)[2](lo, hi)


class TestDeg2Walk:
    """The lane-parallel walk against the per-candidate definition."""

    def test_every_candidate_at_n4(self):
        for index in range(2016):
            [(f, outcome, count)] = _deg2_members(4, index, index + 1)
            assert outcome == _deg2_rule(4, index) and count == 1

    @pytest.mark.parametrize("n,lo,hi", DEG2_RANGES)
    def test_ranges_across_blocks(self, n, lo, hi):
        expected = [_deg2_rule(n, i) for i in range(lo, hi)]
        singles = [o for i in range(lo, hi) for _, o in _expand(_deg2_members(n, i, i + 1))]
        assert singles == expected
        # A block with no hit yields its counts, not its order.
        assert sorted(o for _, o in _expand(_deg2_members(n, lo, hi))) == sorted(expected)

    @pytest.mark.parametrize("n,lo,hi", DEG2_RANGES)
    def test_hits_are_built_in_index_order(self, n, lo, hi, monkeypatch):
        # With a kernel that passes no lane, every candidate checked is a
        # hit; a block's skips follow its hits as one counted run.
        monkeypatch.setattr(verifier, "_gap1_lanes", _settles_nothing)
        got = _expand(_deg2_members(n, lo, hi))
        candidates = [_deg2_candidate(n, i) for i in range(lo, hi)]
        expected = [verifier._SKIP if occ < 4 else verifier._HIT for _, occ in candidates]
        assert sorted(o for _, o in got) == sorted(expected)
        assert [f for f, o in got if o == verifier._HIT] == [f for f, occ in candidates if occ >= 4]

    def test_chunks_cutting_quadratic_parts_merge_to_one_run(self, monkeypatch):
        # 65,472 candidates at n = 5 in eight chunks of 8,184: every chunk
        # boundary cuts one of the 64-lane quadratic parts.
        monkeypatch.setattr(verifier, "_gap1_lanes", _settles_nothing)
        key, pop = TheoremId.LEM_DEG2, Exhaustive(2, 2, 5)
        total = verifier._THEOREMS[key].walk(key, pop, DEFAULT_BUDGET)[0]
        bounds = verifier._chunk_bounds(total, 8)
        assert total == 65472 and all(lo % 64 for lo, _ in bounds[1:])
        parts = [verifier._run_range((key, pop, DEFAULT_BUDGET, lo, hi, 50)) for lo, hi in bounds]
        whole = verifier._run_range((key, pop, DEFAULT_BUDGET, 0, total, 50))
        assert tuple(sum(p[i] for p in parts) for i in range(3)) == whole[:3] == (64512, 960, 64512)
        assert [f for p in parts for f in p[3]][:50] == whole[3]

    def test_blocks_without_hits_are_counted_runs(self):
        # 2,016 candidates at n = 4, 32 to a block: none is a hit, so each
        # block is at most one run of skips and one of passes.
        runs = list(_deg2_members(4, 0, 2016))
        assert len(runs) <= 2 * 63 and all(f is None for f, _, _ in runs)
        assert sum(c for _, o, c in runs if o == verifier._OK) == 1616

    def test_recorded_violations_are_the_first_checked(self, monkeypatch):
        monkeypatch.setattr(verifier, "_gap1_lanes", _settles_nothing)
        r = sweep(TheoremId.LEM_DEG2, Exhaustive(2, 2, 5), workers=1, max_recorded=7)
        first = [f for f, occ in map(partial(_deg2_candidate, 5), range(300)) if occ >= 4][:7]
        assert r.violations == tuple(first) and r.violation_count == r.checked == 64512
        assert not r.passed

    def test_check_runs_the_walks_kernel(self, monkeypatch):
        f, occurring = _deg2_candidate(5, 5000)
        assert occurring == 5 and check(TheoremId.LEM_DEG2, f)
        monkeypatch.setattr(verifier, "_gap1_lanes", _settles_nothing)
        assert not check(TheoremId.LEM_DEG2, f)
