import math
import resource
import subprocess
import sys
from functools import partial
from itertools import combinations, product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import aritygap.core as core
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
    to_anf,
)
from aritygap.generators import _BLOCK, random_lanes
from aritygap.errors import (
    BudgetExceeded,
    HypothesisNotMet,
    NotBoolean,
    NotTotallyEssential,
    SpecInvalid,
    ValueOutOfRange,
)
from aritygap.classify import _coef_gap
from aritygap.core import FiniteFunction, _gap_lanes, _lane_width, field_width
from aritygap.generators import DEFAULT_BUDGET
from aritygap.verifier import _var_masks

from oracles import (
    SplitMix64Stream,
    lane_seeds,
    naive_anf_monomials_packed,
    naive_ess,
    naive_gap_report,
    naive_kplus1_pair,
    naive_random_table,
    naive_restriction_witness,
    naive_total_collapse,
)
from strategies import gap_two_tables, poly_table

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
            # Chunks of 38 samples, each one block of 38 lanes; many arity-3
            # samples have ess < 2 at attempt 0 and are redrawn.
            (TheoremId.THM_STR, Sampled(2, 2, 3, 300, 4, reject_until_hypothesis=True)),
            # Chunks of 75 samples, each one block of 75 lanes; over a third
            # of arity-2 samples are redrawn, some over several rounds.
            (TheoremId.THM_SALOMAA_MAIN, Sampled(2, 2, 2, 600, 5, reject_until_hypothesis=True)),
            # Full and diagonal Thm1 searches: chunks of 2,461 members against
            # blocks of 910 lanes, and of 274 members, each one block.
            (TheoremId.THM1, Exhaustive(3, 3, 2)),
            (TheoremId.THM1, Exhaustive(3, 3, 3)),
        ],
        ids=["lemdeg2", "thmstr", "salomaamain", "thm1-full", "thm1-diagonal"],
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

    @pytest.mark.parametrize("pop", [Exhaustive(3, 3, 15), Exhaustive(2, 2, 2), Sampled(3, 3, 3, 300, 5)])
    def test_thm1_builds_no_lane_masks(self, monkeypatch, pop):
        # Two masks per variable of a 3**15-row table would take about 108 MB;
        # Thm1's kernel and block source need none.
        def no_masks(*args):
            raise AssertionError(f"_layout{args} built")

        monkeypatch.setattr(verifier, "_layout", no_masks)
        r = sweep(TheoremId.THM1, pop, workers=1)
        assert r.passed and r.checked == (3 if pop.n == 15 else 16 if pop.k == 2 else 300)

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

    @pytest.mark.parametrize(
        "k,n,count",
        # n = 1: every non-constant unary operation.  n = 2: a constant c on
        # the diagonal and any other values on the k**2 - k other rows.
        [(k, 1, k**k - k) for k in (2, 3, 4)] + [(k, 2, k * (k ** (k * k - k) - 1)) for k in (2, 3)]
        + [(2, 3, 0), (2, 4, 0)],
    )
    def test_thm1_witness_census(self, k, n, count):
        r = sweep(TheoremId.THM1, Exhaustive(k, k, n), workers=1, max_recorded=3**9)
        assert r.population.startswith("full search")
        assert (r.checked, r.skipped, r.passed) == (k ** k**n, 0, True)
        assert len(r.witnesses) == len(set(r.witnesses)) == count
        assert all(naive_total_collapse(f) for f in r.witnesses)

    def test_thm1_builds_only_the_recorded_witnesses(self, monkeypatch):
        # 2,184 witnesses among the 3**9 tables: the walker counts them all
        # and builds a function for the ten it records alone.
        built = []
        real = verifier.FiniteFunction
        monkeypatch.setattr(verifier, "FiniteFunction", lambda *args: built.append(args) or real(*args))
        r = sweep(TheoremId.THM1, Exhaustive(3, 3, 2), workers=1, max_recorded=10)
        assert len(r.witnesses) == 10 and all(naive_total_collapse(f) for f in r.witnesses)
        assert len(built) <= 10

    def test_thm1_witnesses_lie_in_the_diagonal_family(self):
        full = sweep(TheoremId.THM1, Exhaustive(3, 3, 2), workers=1, max_recorded=3**9)
        diagonal = sweep(TheoremId.THM1, Exhaustive(3, 3, 2), budget=3**7, workers=1, max_recorded=3**9)
        assert diagonal.population.startswith("diagonal search") and diagonal.checked == 3**7
        assert sorted(full.witnesses) == sorted(diagonal.witnesses) and len(full.witnesses) == 2184

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

        for name in ("random_lanes", "from_code", "_run_range"):
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

        def spy_lanes(k, b, n, lanes, count, budget=None):
            budgets.append(budget)
            seeds.extend(lane_seeds(lanes, count))
            return random_lanes(k, b, n, lanes, count, budget)

        monkeypatch.setattr(verifier, "random_lanes", spy_lanes)
        # 300 Boolean samples of arity 3 fill one block of 300 lanes.
        firsts = [substream_seed(7, i) for i in range(300)]
        sweep(theorem, Sampled(*shape, 300, 7), budget=1 << 30, workers=1)
        assert seeds == firsts
        seeds.clear()
        # With rejection, sample i starts at attempt 0 of stream firsts[i];
        # its redraws are random_lanes calls too.
        sweep(theorem, Sampled(*shape, 300, 7, True), budget=1 << 30, workers=1)
        assert {substream_seed(s, 0) for s in firsts} <= set(seeds)
        assert set(budgets) == {1 << 30}

    @pytest.mark.parametrize("shape", [(3, 3, 4), (2, 5, 3), (1, 3, 2), (4, 4, 5)])
    def test_each_block_of_samples_is_one_lane_draw(self, shape, monkeypatch):
        # No table is drawn alone: verifier draws only by random_lanes, and
        # block j of a sampled sweep is one call on the seeds of its samples.
        calls = []

        def spy_lanes(k, b, n, lanes, count, budget=None):
            calls.append(lane_seeds(lanes, count))
            return random_lanes(k, b, n, lanes, count, budget)

        assert not hasattr(verifier, "random_function")
        monkeypatch.setattr(verifier, "random_lanes", spy_lanes)
        k, b, n = shape
        lanes = max(1, verifier._KERNEL_BLOCK // k**n) if k > 1 else 1
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
    lanes, width = max(1, _BLOCK >> n), _lane_width(1 << n)
    got = []
    for a in range(0, len(fs), lanes):
        part = fs[a : a + lanes]
        block = sum(f.bits << m * width for m, f in enumerate(part))
        meets, holds = kernel(block, 2, 2, n, lanes, 2)
        assert meets == sum(1 << m * width for m in range(len(part)))
        assert holds & ~meets == 0
        got += [bool(holds >> m * width & 1) for m in range(len(part))]
    return got


def _settles_nothing(block, k, b, n, lanes, least, flags=None, gap=1):
    """A gap kernel that holds no lane but keeps the real meets."""
    return _gap_lanes(block, k, b, n, lanes, least, flags)[0], 0


class TestLaneClaims:
    """ThmStr's and SalomaaMain's lane kernels, which sweeps and check share,
    against their claims on one function.  Both claims hold everywhere, so
    the kernels also run with a broken part, and must fail exactly the
    tables of the gap the part gets wrong: a classifier that always says
    gap 1 (or 2, with every lane sent to it), or a gap scan that holds gap
    1 alone, whatever its bound.  A cubic rule that settles nothing sends
    every lane to the classifier and changes nothing."""

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
        gap_at_most, no_cubic = core._gap_at_most, (verifier, "_cubic_lanes", lambda block, n, lanes: 0)
        modes = [
            ([], [True] * len(fs)),
            ([no_cubic], [True] * len(fs)),
            ([(verifier, "_coef_gap", lambda coef, n: 1)], {TheoremId.THM_STR: gap1}),
            ([no_cubic, (verifier, "_coef_gap", lambda coef, n: 2)], {TheoremId.THM_STR: [not g for g in gap1]}),
            ([(core, "_gap_at_most", lambda *args: gap_at_most(*args[:-1], 1))], gap1),
        ]
        step = max(1, len(fs) // 60)  # check runs on every step-th function
        for patches, expected in modes:
            with monkeypatch.context() as mp:
                for module, name, fake in patches:
                    mp.setattr(module, name, fake)
                for key in (TheoremId.THM_STR, TheoremId.THM_SALOMAA_MAIN):
                    want = expected.get(key) if isinstance(expected, dict) else expected
                    if want is None:
                        continue
                    assert _lane_results(verifier._THEOREMS[key].lanes, n, fs) == want, (key, patches)
                    # check is the same kernel on one lane.
                    assert [check(key, f) for f in fs[::step]] == want[::step], (key, patches)

    @pytest.mark.parametrize("n", [3, 2])
    def test_sweep_records_the_failing_samples_in_index_order(self, n, monkeypatch):
        # With a classifier that says gap 1, ThmStr fails exactly the
        # gap-2 samples; rejection redraws ess < 2 samples in between, at
        # arity 2 over several rounds of the block's lanes.
        monkeypatch.setattr(verifier, "_coef_gap", lambda coef, n: 1)
        expected = []
        for i in range(300):
            base = substream_seed(8, i)
            attempt = 0
            while ess(f := random_function(2, 2, n, substream_seed(base, attempt))) < 2:
                attempt += 1
            if gap_report(f).gap == 2:
                expected.append(f)
        r = sweep(TheoremId.THM_STR, Sampled(2, 2, n, 300, 8, True), workers=1, max_recorded=300)
        assert (r.checked, r.skipped) == (300, 0)
        assert r.violations == tuple(expected) and r.violation_count == len(expected) > 0

    def test_redraws_that_fail_the_claim_are_counted(self, monkeypatch):
        # With a claim that fails on every member, every sample is a
        # violation, those redrawn after attempt 0 too, recorded or not.
        spec = verifier._THEOREMS[TheoremId.THM_STR]
        fails = lambda block, k, b, n, lanes, least: (spec.lanes(block, k, b, n, lanes, least)[0], 0)
        monkeypatch.setitem(verifier._THEOREMS, TheoremId.THM_STR, spec._replace(lanes=fails))
        # Sample i's attempt 0 is drawn from the first output of the stream
        # seeded by output i of the stream seeded 8.
        stream = SplitMix64Stream(8)
        attempt0 = [SplitMix64Stream(stream.next()).next() for _ in range(300)]
        assert any(naive_ess(make_function(2, 2, 3, naive_random_table(2, 2, 3, s))) < 2 for s in attempt0)
        for room in (300, 3):
            r = sweep(TheoremId.THM_STR, Sampled(2, 2, 3, 300, 8, True), workers=1, max_recorded=room)
            assert (r.checked, r.skipped, r.violation_count) == (300, 0, 300)
            assert len(r.violations) == room and not r.passed

    @pytest.mark.parametrize("theorem,shape", [(TheoremId.THM_STR, (2, 2, 3)), (TheoremId.THM_SALOMAA_AUX, (2, 3, 2))])
    def test_rejection_draws_each_attempt_once(self, theorem, shape, monkeypatch):
        # A block draws attempt 0 of every sample; a sample it skips is
        # redrawn from attempt 1, so no attempt is drawn twice.
        seeds = []

        def spy_lanes(k, b, n, lanes, count, budget=None):
            seeds.extend(lane_seeds(lanes, count))
            return random_lanes(k, b, n, lanes, count, budget)

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

    @pytest.mark.parametrize("runs", [10000, 10001])
    def test_rejection_stops_after_ten_thousand_draws(self, runs, monkeypatch):
        # One sample whose kernel first meets the hypothesis on its runs-th
        # call, at attempt runs - 1: attempt 9,999 is the last one drawn.
        # The kernel then says every lane meets it; only the sample's counts.
        calls = []

        def late(block, k, b, n, lanes, least):
            calls.append(block)
            if len(calls) < runs:
                return 0, 0
            every = _lanes(_lane_width(1 << n), [True] * lanes)
            return every, every

        spec = verifier._THEOREMS[TheoremId.THM_STR]
        monkeypatch.setitem(verifier._THEOREMS, TheoremId.THM_STR, spec._replace(lanes=late))
        pop = Sampled(2, 2, 3, 1, 7, True)
        if runs > 10000:
            with pytest.raises(HypothesisNotMet, match="^rejection sampling found no function satisfying ThmStr"
                                                       " in 10000 draws$"):
                sweep(TheoremId.THM_STR, pop, workers=1)
        else:
            r = sweep(TheoremId.THM_STR, pop, workers=1)
            assert (r.checked, r.skipped, r.violation_count, r.passed) == (1, 0, 0, True)
        assert len(calls) == 10000

    def test_exhaustive_sweep_counts_and_records_in_code_order(self, monkeypatch):
        monkeypatch.setattr(verifier, "_coef_gap", lambda coef, n: 1)
        fs = [FiniteFunction(2, 2, 3, code) for code in range(256)]
        expected = [f for f in fs if ess(f) >= 2 and gap_report(f).gap == 2]
        r = sweep(TheoremId.THM_STR, Exhaustive(2, 2, 3), workers=1, max_recorded=256)
        assert (r.checked, r.skipped) == (sum(ess(f) >= 2 for f in fs), sum(ess(f) < 2 for f in fs))
        assert r.violations == tuple(expected) and r.violation_count == len(expected)


class TestLaneRules:
    """The rule by which ThmStr's kernel holds a lane without the classifier:
    the classifier says gap 1 on a polynomial with a monomial of three or
    more variables."""

    @pytest.mark.parametrize("n", range(2, 10))
    def test_cubic_lanes_agree_with_a_per_lane_brute_force(self, n):
        # x_{n-2}*x_{n-1}*x_n is the top cubic row and x_1*...*x_n the bottom
        # row; each alone, with every monomial of degree <= 2 added, and the
        # degree <= 2 polynomials themselves, next to seeded tables.
        low = [set()] + [{t} for t in range(1, n + 1)] + [set(m) for m in combinations(range(1, n + 1), 2)]
        shapes = [[], [set()], low, [{1, 2}], [{t} for t in range(1, n + 1)]]
        for top in [{n - 2, n - 1, n}, set(range(1, n + 1))] if n >= 3 else []:
            shapes += [[top], [top] + low, [top, {1}, set()]]
        tables = [poly_table(n, m) for m in shapes] + gap_two_tables(n)
        tables += [list(naive_random_table(2, 2, n, 7 * n + s)) for s in range(41 - len(tables) % 2)]
        fs = [make_function(2, 2, n, t) for t in tables]
        cubic = [any(len(m) >= 3 for m in naive_anf_monomials_packed(f)) for f in fs]
        assert False in cubic and (True in cubic) == (n >= 3)
        lanes, width = max(1, _BLOCK >> n), _lane_width(1 << n)
        assert len(fs) % lanes  # the last block is partial, its lanes above zero
        for a in range(0, len(fs), lanes):
            block = sum(f.bits << m * width for m, f in enumerate(fs[a : a + lanes]))
            assert verifier._cubic_lanes(block, n, lanes) == _lanes(width, cubic[a : a + lanes])
        assert [verifier._cubic_lanes(f.bits, n, 1) for f in fs] == [int(c) for c in cubic]

    def test_thm_str_asks_the_classifier_only_without_a_cubic_monomial(self, monkeypatch):
        # A uniform block of arity 6, with a gap-2 parity, a gap-1 monomial
        # x1*x2*x3 and a gap-1 monomial x1*x2 in its lanes: the cubic
        # x1*x2*x3 settles with the uniform lanes, and the other two reach
        # the classifier.
        seen = []
        monkeypatch.setattr(verifier, "_coef_gap", lambda coef, n: seen.append(coef) or _coef_gap(coef, n))
        fs = [random_function(2, 2, 6, substream_seed(5, i)) for i in range(13)]
        few = [make_function(2, 2, 6, t) for t in (gap_two_tables(6)[-1], poly_table(6, [{1, 2, 3}]),
                                                   poly_table(6, [{1, 2}]))]
        block, width = _block(fs + few)
        meets, holds = verifier._THEOREMS[TheoremId.THM_STR].lanes(block, 2, 2, 6, 16, 2)
        assert meets == holds == _lanes(width, [True] * 16)
        assert [gap_report(f).gap for f in few] == [2, 1, 1]
        assert seen == [to_anf(f).coef for f in few[::2]]


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


def _diagonal_tables(k, n):
    """Tables of shape (k, k, n) holding one value c on the rows with a
    repeated coordinate: for each c the constant, seeded values on the
    other rows, and c + 1 mod k on the row (0, 1, ..., n-1) alone."""
    rng = SplitMix64Stream(10 * k + n)
    points = list(product(range(k), repeat=n))
    tables = []
    for c in range(k):
        tables.append([c] * k**n)
        tables.append([c if len(set(x)) < n else rng.below(k) for x in points])
        tables.append([(c + 1) % k if x == tuple(range(n)) else c for x in points])
    return [make_function(k, k, n, t) for t in tables]


def _block(fs):
    """fs, of one shape, as the lanes of a block, and the lane width."""
    f = fs[0]
    width = _lane_width(f.k**f.n * field_width(f.b))
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


# k in {2, 3, 4, 5} and b in {2, 3, 4, 5}, n <= k among them; k + 1 < n for LemKplus1.
# At (5, 5, 2) ThmGen's bound k = 5 lies above 2**n.bit_length() = 4: the gap scan must cut it to n.
KERNEL_SHAPES = [(2, 2, 3), (2, 3, 4), (2, 4, 2), (2, 5, 3), (3, 2, 3), (3, 3, 2), (3, 4, 3), (3, 5, 1),
                 (4, 2, 2), (4, 3, 3), (4, 4, 1), (4, 5, 2), (5, 5, 2)]
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

    @pytest.mark.parametrize("k,n", [(k, n) for k in (2, 3, 4) for n in (1, 2, 3)])
    def test_thm1_kernel_and_walker_match_the_oracle(self, k, n, monkeypatch):
        fs = _kernel_tables(k, k, n) + _diagonal_tables(k, n)
        block, width = _block(fs)
        witness = [naive_total_collapse(f) for f in fs]
        assert any(witness) == (n <= k) and not all(witness)
        key, pop = TheoremId.THM1, Exhaustive(k, k, n)
        every, least = _lanes(width, [True] * len(fs)), verifier._THEOREMS[key].min_ess(k, n)
        assert verifier._thm1_lanes(block, k, k, n, len(fs), least) == (every, every ^ _lanes(width, witness))
        # One block starting three lanes below lo and running five past hi:
        # lanes outside lo..hi, witnesses or tables of any kind, are no members.
        outside = fs[-3:] + fs[:2] + [_diagonal_tables(k, n)[0]] * 3
        cut, _ = _block(outside[:3] + fs + outside[3:])
        walk = lambda key, pop, budget: (None, None, lambda lo, hi: [(7, len(fs) + 8, cut)])
        monkeypatch.setitem(verifier._THEOREMS, key, verifier._THEOREMS[key]._replace(walk=walk))
        hits = [f for f, w in zip(fs, witness) if w]
        for room in (len(fs), 1, 0):
            got = verifier._run_range((key, pop, DEFAULT_BUDGET, 10, 10 + len(fs), room))
            assert got == (len(fs), 0, len(hits), hits[:room]), room

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


def _spy_redraws(monkeypatch):
    """A list that collects every _redraw result, the redrawn members that fail the claim."""
    seen, real = [], verifier._redraw
    monkeypatch.setattr(verifier, "_redraw", lambda *args: seen.append(real(*args)) or seen[-1])
    return seen


class TestKernelBlocks:
    """A table walk's block size changes no report, and the per-lane helpers
    are the bit loop and the sum they stand for."""

    @pytest.mark.parametrize(
        "theorem,pop",
        [
            # With a classifier that says gap 1, the gap-2 samples fail; at
            # arity 2 some are redrawn, and the record keeps them in index order.
            (TheoremId.THM_STR, Sampled(2, 2, 3, 300, 8, True)),
            (TheoremId.THM_STR, Sampled(2, 2, 2, 300, 8, True)),
            (TheoremId.THM_SALOMAA_MAIN, Sampled(2, 2, 2, 600, 5, True)),
            (TheoremId.THM1, Exhaustive(3, 3, 2)),  # base-3 codes, in blocks of 3**d lanes
            (TheoremId.THM1, Exhaustive(3, 3, 3)),  # diagonal codes
            (TheoremId.THM_SALOMAA_AUX, Exhaustive(2, 2, 4)),
            (TheoremId.LEM_KPLUS1, Exhaustive(2, 2, 4)),
            (TheoremId.THM_GEN, Exhaustive(2, 3, 3)),
        ],
        ids=["thmstr", "thmstr-arity2", "salomaamain", "thm1-full", "thm1-diagonal", "salomaaaux", "lemkplus1",
             "thmgen-ternary"],
    )
    def test_reports_do_not_depend_on_the_block_size(self, theorem, pop, monkeypatch):
        monkeypatch.setattr(verifier, "_coef_gap", lambda coef, n: 1)
        redrawn = _spy_redraws(monkeypatch)
        reports = []
        for size in (verifier._KERNEL_BLOCK, 1024):
            monkeypatch.setattr(verifier, "_KERNEL_BLOCK", size)
            d = sweep(theorem, pop, workers=1, max_recorded=300).to_dict()
            d.pop("elapsed_s")
            reports.append(d)
        assert reports[0] == reports[1] and reports[0]["checked"] > 0
        if theorem is TheoremId.THM_STR:
            assert 0 < reports[0]["violation_count"] <= 300
            assert any(redrawn) or pop.n > 2  # the arity-2 sweep records redrawn hits

    def test_chunks_cutting_blocks_of_a_rejecting_sweep_add_up(self, monkeypatch):
        # Chunks of about 1,429 arity-3 samples, each a block of 1,024 lanes
        # and one of about 400 with padding above; the whole range's blocks
        # start at multiples of 1,024, so every chunk bound cuts one.
        monkeypatch.setattr(verifier, "_coef_gap", lambda coef, n: 1)
        redrawn = _spy_redraws(monkeypatch)
        key, pop, total = TheoremId.THM_STR, Sampled(2, 2, 3, 10000, 8, True), 10000
        bounds = verifier._chunk_bounds(total, 7)
        lanes = verifier._KERNEL_BLOCK // 8
        assert all(lo % lanes for lo, _ in bounds[1:]) and all(hi - lo > lanes for lo, hi in bounds)
        parts = [verifier._run_range((key, pop, DEFAULT_BUDGET, lo, hi, total)) for lo, hi in bounds]
        whole = verifier._run_range((key, pop, DEFAULT_BUDGET, 0, total, total))
        assert tuple(sum(p[i] for p in parts) for i in range(3)) == whole[:3]
        assert whole[:2] == (total, 0) and whole[2] > 0 and any(redrawn)
        assert [f for p in parts for f in p[3]] == whole[3] and len(whole[3]) == whole[2]

    @pytest.mark.parametrize("width", [8, 65])
    def test_set_lanes_is_the_bit_loop(self, width):
        def bit_loop(x):
            out = []
            while x:
                low = x & -x
                out.append((low.bit_length() - 1) // width)
                x ^= low
            return out

        top = 129
        for chosen in ([], [0], [top], [0, top], [1, 2, 40, top - 1], list(range(0, top + 1, 3)), list(range(top + 1))):
            x = _lanes(width, [m in chosen for m in range(top + 1)])
            assert list(verifier._set_lanes(x, width)) == bit_loop(x) == chosen

    @pytest.mark.parametrize("width", [8, 65])
    def test_pack_is_the_sum(self, width):
        full = (1 << width) - 1
        for count in (0, 1, 2, 3, 7, 64, 130):
            values = [(m * 0x9E3779B97F4A7C15 >> 7) & full for m in range(count)]
            values[-1:] = [full] * min(count, 1)  # the top lane filled
            assert verifier._pack(values, width) == sum(v << m * width for m, v in enumerate(values))
            assert verifier._pack(iter(values), width) == verifier._pack(values, width)


def _diagonal_code_table(k, n, code):
    """Thm1's diagonal code as a table, from its definition: the first of
    its base-k digits on the points with a repeated coordinate, the others
    on the rainbow points in ascending row order."""
    const, *values = decode_index(code, k, math.perm(k, n) + 1)
    rainbow = iter(values)
    table = [next(rainbow) if len(set(x)) == n else const for x in product(range(k), repeat=n)]
    return make_function(k, k, n, table).bits


class TestCodeBlocks:
    """An exhaustive walk's blocks: r**d lanes at a multiple of r**d, lane m
    holding the table of code start + m, built from one decode per block."""

    @pytest.mark.parametrize(
        "key,shape,lanes",
        [
            (TheoremId.THM_GEN, (2, 3, 3), 729),
            (TheoremId.THM_GEN, (2, 5, 3), 625),
            (TheoremId.THM_GEN, (2, 4, 3), 1024),
            (TheoremId.THM_SALOMAA_AUX, (3, 3, 2), 729),
            (TheoremId.THM_GEN, (3, 2, 2), 512),  # the walk is one block
            (TheoremId.THM_GEN, (1, 3, 2), 1),
            (TheoremId.THM1, (3, 3, 3), 243),  # diagonal codes
        ],
    )
    def test_every_lane_holds_its_code(self, key, shape, lanes):
        k, b, n = shape
        total, _, blocks = verifier._THEOREMS[key].walk(key, Exhaustive(*shape), DEFAULT_BUDGET)
        if key is TheoremId.THM1:
            assert total == 3**7
            bits = partial(_diagonal_code_table, k, n)
        else:
            assert total == b ** (k**n)
            bits = lambda code: core.from_code(k, b, n, code).bits
        width, table = _lane_width(k**n * field_width(b)), (1 << k**n * field_width(b)) - 1
        third = min(total // 3 + 5, total - 1)
        for lo, hi in [(0, min(total, 3000)), (third, min(total, third + 1500)), (max(0, total - 700), total),
                       (min(7, total - 1), min(12, total))]:
            got = list(blocks(lo, hi))
            starts = [start for start, _, _ in got]
            assert {m for _, m, _ in got} == {lanes}
            assert starts == list(range(lo - lo % lanes, hi, lanes)) and starts[-1] + lanes <= total
            for start, _, block in got:
                assert [block >> m * width & table for m in range(lanes)] == [bits(start + m) for m in range(lanes)]

    @pytest.mark.parametrize("b,n", [(2, n) for n in range(1, 15)] + [(4, 3), (4, 4), (8, 3), (8, 4)])
    def test_boolean_domain_powers_of_two_keep_their_lane_count(self, b, n):
        # r = 2: a block fills min(_KERNEL_BLOCK // 2**n, total) lanes, 2**9 at (2, 4, 4) and (2, 8, 4).
        total = b ** (2**n)
        _, lanes, _ = next(verifier._code_blocks(Exhaustive(2, b, n), total, 0, total))
        assert lanes == max(1, min(verifier._KERNEL_BLOCK // 2**n, total))

    @pytest.mark.parametrize("key,shape,calls", [
        (TheoremId.THM_GEN, (2, 3, 3), 9 + 6 * 3),  # 9 blocks of 3**6 lanes
        (TheoremId.THM_GEN, (2, 5, 3), 625 + 4 * 5),  # 625 blocks of 5**4
        (TheoremId.THM1, (3, 3, 2), 27 + 6 * 3),  # the full search's 3**9 tables
        (TheoremId.THM_STR, (2, 2, 4), 128 + 9 * 2),  # 128 blocks of 2**9
    ])
    def test_a_walk_decodes_once_per_block_and_for_its_ramp(self, key, shape, calls, monkeypatch):
        count = []
        real = verifier.from_code
        monkeypatch.setattr(verifier, "from_code", lambda *args: count.append(args) or real(*args))
        assert sweep(key, Exhaustive(*shape), workers=1).checked > 0
        assert len(count) == calls
        # Samples are drawn, never decoded.
        monkeypatch.setattr(verifier, "from_code", None)
        assert sweep(key, Sampled(*shape, 300, 2), workers=1).checked > 0

    def test_chunks_cutting_blocks_of_a_ternary_walk_add_up(self):
        # Thm1's full search of the 3**9 tables, in blocks of 729 lanes: seven
        # chunks start off a block, and the parts' witnesses are the whole's.
        key, pop, total = TheoremId.THM1, Exhaustive(3, 3, 2), 3**9
        bounds = verifier._chunk_bounds(total, 7)
        assert all(lo % 729 for lo, _ in bounds[1:])
        parts = [verifier._run_range((key, pop, DEFAULT_BUDGET, lo, hi, total)) for lo, hi in bounds]
        whole = verifier._run_range((key, pop, DEFAULT_BUDGET, 0, total, total))
        assert tuple(sum(p[i] for p in parts) for i in range(3)) == whole[:3] == (total, 0, 2184)
        assert [f for p in parts for f in p[3]] == whole[3] and all(naive_total_collapse(f) for f in whole[3])


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
    """The walk's (checked, skipped, hits) on one candidate by definition:
    skipped when fewer than four variables occur, otherwise checked, and a
    hit unless gap_report finds gap 1."""
    f, occurring = _deg2_candidate(n, index)
    if occurring < 4:
        return 0, 1, 0
    return 1, 0, int(gap_report(f).gap != 1)


# Ranges of the walk crossing block boundaries (2**(n+1) candidates a block).
DEG2_RANGES = [(5, 3, 77), (5, 40, 41), (5, 100, 400), (6, 3, 77), (6, 40, 41), (6, 250, 700)]
DEG2_RANGES += [(n, total - 5, total) for n, total in ((5, 1023 << 6), (6, 32767 << 7))]
# Walks the default budget refuses, for the blocks alone: n = 2 has one pair;
# n = 7 has 21, read in fields of 10, 10 and 1 bits of q + 1.  The n = 7
# ranges cross from block q - 1 into block q, where q + 1 is 1 << 10 (the
# second field alone) or 1 << 20 | 1025 (every field), and end at the last
# quadratic part, every bit of q + 1 set.
DEG2_WIDE = [(2, 0, 8), (3, 0, 7 << 4), (7, 0, 300)]
DEG2_WIDE += [(7, (q << 8) - 5, (q << 8) + 5) for q in (1023, (1 << 20) + 1024)]
DEG2_WIDE += [(7, ((1 << 21) - 1 << 8) - 5, (1 << 21) - 1 << 8)]


def _deg2_range(n, lo, hi, max_recorded=50):
    """LemDeg2's walk of the degree-2 polynomials on n variables, lo..hi-1:
    (checked, skipped, hits, the first max_recorded hits)."""
    return verifier._run_range((TheoremId.LEM_DEG2, Exhaustive(2, 2, n), DEFAULT_BUDGET, lo, hi, max_recorded))


class TestDeg2Walk:
    """The lane-parallel walk against the per-candidate definition."""

    def test_every_candidate_at_n4(self):
        for index in range(2016):
            rule = _deg2_rule(4, index)
            assert _deg2_range(4, index, index + 1) == (*rule, [_deg2_candidate(4, index)[0]] * rule[2])

    @pytest.mark.parametrize("n,lo,hi", DEG2_RANGES)
    def test_ranges_across_blocks(self, n, lo, hi):
        expected = [_deg2_rule(n, i) for i in range(lo, hi)]
        assert [_deg2_range(n, i, i + 1)[:3] for i in range(lo, hi)] == expected
        # A range's counts are the sums of its members'.
        assert _deg2_range(n, lo, hi)[:3] == tuple(map(sum, zip(*expected)))

    @pytest.mark.parametrize("n,lo,hi", DEG2_RANGES)
    def test_hits_are_built_in_index_order(self, n, lo, hi, monkeypatch):
        # With a kernel that passes no lane, every candidate checked is a
        # hit, and each is recorded in index order while there is room.
        monkeypatch.setattr(verifier, "_gap_lanes", _settles_nothing)
        candidates = [_deg2_candidate(n, i) for i in range(lo, hi)]
        hits = [f for f, occ in candidates if occ >= 4]
        counts = (len(hits), len(candidates) - len(hits), len(hits))
        assert _deg2_range(n, lo, hi, hi - lo) == (*counts, hits)
        assert _deg2_range(n, lo, hi, 2) == (*counts, hits[:2])
        # A block that finds one recording slot left still records its first hit.
        lanes = 2 << n
        cap = 1 + sum(occ >= 4 for _, occ in candidates[: lanes - lo % lanes])
        assert _deg2_range(n, lo, hi, cap) == (*counts, hits[:cap])

    def test_chunks_cutting_quadratic_parts_merge_to_one_run(self, monkeypatch):
        # 65,472 candidates at n = 5 in eight chunks of 8,184: every chunk
        # boundary cuts one of the 64-lane quadratic parts.
        monkeypatch.setattr(verifier, "_gap_lanes", _settles_nothing)
        key, pop = TheoremId.LEM_DEG2, Exhaustive(2, 2, 5)
        total = verifier._THEOREMS[key].walk(key, pop, DEFAULT_BUDGET)[0]
        bounds = verifier._chunk_bounds(total, 8)
        assert total == 65472 and all(lo % 64 for lo, _ in bounds[1:])
        parts = [verifier._run_range((key, pop, DEFAULT_BUDGET, lo, hi, 50)) for lo, hi in bounds]
        whole = verifier._run_range((key, pop, DEFAULT_BUDGET, 0, total, 50))
        assert tuple(sum(p[i] for p in parts) for i in range(3)) == whole[:3] == (64512, 960, 64512)
        assert [f for p in parts for f in p[3]][:50] == whole[3]

    def test_blocks_without_hits_build_no_function(self, monkeypatch):
        # 2,016 candidates at n = 4, 32 to a block: none is a hit, so the
        # walker counts every lane by popcount and builds no function.
        built = []
        real = verifier.FiniteFunction
        monkeypatch.setattr(verifier, "FiniteFunction", lambda *args: built.append(args) or real(*args))
        assert _deg2_range(4, 0, 2016) == (1616, 400, 0, [])
        assert built == []

    def test_recorded_violations_are_the_first_checked(self, monkeypatch):
        monkeypatch.setattr(verifier, "_gap_lanes", _settles_nothing)
        r = sweep(TheoremId.LEM_DEG2, Exhaustive(2, 2, 5), workers=1, max_recorded=7)
        first = [f for f, occ in map(partial(_deg2_candidate, 5), range(300)) if occ >= 4][:7]
        assert r.violations == tuple(first) and r.violation_count == r.checked == 64512
        assert not r.passed

    @pytest.mark.parametrize("n,lo,hi", DEG2_RANGES + DEG2_WIDE)
    def test_blocks_are_whole_quadratic_parts(self, n, lo, hi):
        # The walker alone trims a block to lo..hi: each block is every
        # candidate of one quadratic part, its lane 0 the bare quadratic part.
        lanes = 2 << n
        blocks = list(verifier._deg2_blocks(n, lo, hi))
        assert [start for start, _, _ in blocks] == list(range(lo - lo % lanes, hi, lanes))
        for start, block_lanes, block in blocks:
            assert start % lanes == 0 and block_lanes == lanes
            assert FiniteFunction(2, 2, n, block & (1 << (1 << n)) - 1) == _deg2_candidate(n, start)[0]

    def test_check_runs_the_walks_kernel(self, monkeypatch):
        f, occurring = _deg2_candidate(5, 5000)
        assert occurring == 5 and check(TheoremId.LEM_DEG2, f)
        monkeypatch.setattr(verifier, "_gap_lanes", _settles_nothing)
        assert not check(TheoremId.LEM_DEG2, f)


def _deg2_kernels_agree(block, n, lanes, least):
    """LemDeg2's kernel, which reads the flags from lane 0's polynomial,
    against the gap-1 kernel scanning the table: equal meets and holds on
    every lane, of one table or of a whole degree-2 block."""
    got = verifier._deg2_lanes(block, 2, 2, n, lanes, least)
    assert got == _gap_lanes(block, 2, 2, n, lanes, least), (n, block, least)


class TestDeg2Kernel:
    """LemDeg2's kernel against the gap-1 kernel with the table's flags."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_whole_block(self, n):
        total = ((1 << n * (n - 1) // 2) - 1) << n + 1
        for _, lanes, block in verifier._deg2_blocks(n, 0, total):
            _deg2_kernels_agree(block, n, lanes, 4)

    @pytest.mark.parametrize("n,lo,hi", [r for r in DEG2_RANGES if r[0] == 6])
    def test_blocks_of_the_n6_ranges(self, n, lo, hi):
        for _, lanes, block in verifier._deg2_blocks(n, lo, hi):
            _deg2_kernels_agree(block, n, lanes, 4)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_support_is_the_variables_of_the_quadratic_part(self, n, monkeypatch):
        # The flags the kernel hands the gap-1 scan: a variable is essential
        # in every lane iff it occurs in the block's quadratic part.
        flags = []
        monkeypatch.setattr(verifier, "_gap_lanes", lambda *args: flags.append(args[-1]) or (0, 0))
        pairs = list(combinations(range(n), 2))
        total = ((1 << len(pairs)) - 1) << n + 1
        for _, lanes, block in verifier._deg2_blocks(n, 0, total):
            verifier._deg2_lanes(block, 2, 2, n, lanes, 4)
        ones = verifier._spaced_ones(2 << n, _lane_width(1 << n))
        assert len(flags) == (1 << len(pairs)) - 1
        for q, (e, _) in enumerate(flags):
            occurring = {v for a, p in enumerate(pairs) if (q + 1) >> a & 1 for v in p}
            assert [x == ones for x in e] == [t in occurring for t in range(n)], (n, q)

    @pytest.mark.parametrize("n,least", [(4, 2), (4, 4)] + [(n, least) for n in (1, 2, 3) for least in range(5)])
    def test_one_lane_on_every_table(self, n, least):
        # Every degree up to n: a table's essential variables are its polynomial's.
        for code in range(1 << (1 << n)):
            _deg2_kernels_agree(code, n, 1, least)

    def test_check_on_a_wide_table_in_bounded_memory(self):
        # check runs the kernel on one lane before it reads the degree, so a
        # table of any degree must cost no block masks: 4**17 bits each at n = 16.
        def limit_address_space():
            # Applies in the child only, between fork and exec.
            resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

        code = (
            "import random\n"
            "from aritygap import FiniteFunction, TheoremId, check, from_anf, make_polynomial\n"
            "from aritygap.errors import HypothesisNotMet\n"
            "n = 16\n"
            "f = from_anf(make_polynomial(n, [(1, 2)] + [(t,) for t in range(3, n + 1)]))\n"
            "print(check(TheoremId.LEM_DEG2, f))\n"
            "try:\n"
            "    check(TheoremId.LEM_DEG2, FiniteFunction(2, 2, n, random.Random(3).getrandbits(1 << n)))\n"
            "except HypothesisNotMet as e:\n"
            "    print('degree' in str(e))\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                preexec_fn=limit_address_space, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["True", "True"]

    def test_walk_at_n10_in_bounded_memory(self):
        # The walk's lookup tables stay small at any n: 45 pairs at n = 10 in
        # five tables of at most 1024 masks, where two tables, one per half
        # of q + 1's bits, would hold 2**22 and 2**23.  The first block, x1*x2
        # plus every linear part and constant, meets the hypothesis on the
        # 2 * 4 * 247 lanes whose linear part has at least two of x3..x10.
        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

        code = (
            "from aritygap import verifier\n"
            "(_, lanes, block), = verifier._deg2_blocks(10, 0, 2048)\n"
            "meets, holds = verifier._deg2_lanes(block, 2, 2, 10, lanes, 4)\n"
            "print(lanes, meets.bit_count(), holds == meets)\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                preexec_fn=limit_address_space, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["2048", "1976", "True"]
