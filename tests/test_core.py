import random
import resource
import subprocess
import sys
from itertools import permutations, product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from aritygap import (
    GapReport,
    SplitMix64,
    decode_index,
    encode_point,
    ess,
    essential_vars,
    evaluate,
    gap_report,
    identify,
    is_essential,
    make_function,
)
from aritygap.core import (
    _dependence, _depends, _ess_lanes, _flags, _gap_at_most, _identified, _lane_width, _layout,
    field_width,
)
from aritygap.errors import (
    ArityMismatch,
    EssentialArityTooSmall,
    IndexOutOfRange,
    LengthMismatch,
    SameIndex,
    ValueOutOfRange,
)

from oracles import (
    max_ess_over_strict_minors,
    naive_ess,
    naive_essential,
    naive_gap_report,
    naive_identify,
    naive_losses,
    naive_random_table,
    naive_substitute,
)
from strategies import decided, finite_functions, gap_claim, gap_two_tables, poly_table

XOR = make_function(2, 2, 2, [0, 1, 1, 0])
AND = make_function(2, 2, 2, [0, 0, 0, 1])
MAJ3 = make_function(2, 2, 3, [0, 0, 0, 1, 0, 1, 1, 1])
XOR3 = make_function(2, 2, 3, [0, 1, 1, 0, 1, 0, 0, 1])


def diagonal_table(k, n, const, values):
    """const on the points with a repeated coordinate, values in row order
    on the others: every identification minor is constant, so a table that
    is not constant has gap ess = n."""
    values = iter(values)
    return [const if len(set(p)) < n else next(values) for p in product(range(k), repeat=n)]


class TestMakeFunction:
    def test_xor_table(self):
        assert XOR.k == XOR.b == XOR.n == 2
        assert XOR.table == (0, 1, 1, 0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            make_function(2, 2, 2, [0, 1, 1])

    def test_identity_on_three_elements(self):
        f = make_function(3, 3, 1, [0, 1, 2])
        assert evaluate(f, (2,)) == 2

    def test_entry_out_of_range(self):
        with pytest.raises(ValueOutOfRange):
            make_function(2, 2, 2, [0, 1, 2, 0])

    def test_entry_out_of_range_names_the_first_offender(self):
        with pytest.raises(ValueOutOfRange) as exc:
            make_function(2, 2, 2, [0, 5, -1, 7])
        assert str(exc.value) == "table entry 5 not in range(0, 2)"

    def test_bad_shape_parameters(self):
        with pytest.raises(ValueOutOfRange):
            make_function(0, 2, 2, [])


class TestEvaluate:
    @pytest.mark.parametrize("point,value", [((0, 0), 0), ((0, 1), 1), ((1, 0), 1), ((1, 1), 0)])
    def test_xor(self, point, value):
        assert evaluate(XOR, point) == value

    def test_coordinate_out_of_range(self):
        with pytest.raises(ValueOutOfRange):
            evaluate(XOR, (2, 0))

    def test_wrong_length(self):
        with pytest.raises(ArityMismatch):
            evaluate(XOR, (0, 0, 0))

    def test_index_round_trip(self):
        for k, n in [(2, 3), (3, 2), (4, 2), (2, 1)]:
            for idx in range(k**n):
                assert encode_point(decode_index(idx, k, n), k) == idx


class TestDecodeIndex:
    @staticmethod
    def digit_loop(idx, k, n):
        digits = []
        for _ in range(n):
            idx, d = divmod(idx, k)
            digits.append(d)
        return tuple(reversed(digits))

    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_long_codes_match_digit_loop(self, k):
        # Codes above 64 digits are split; codes with more than n digits
        # keep their n lowest, as the digit loop does.
        rng = SplitMix64(k)
        for n in (65, 66, 100, 127, 128, 129, 257, 999, 1000):
            for code in (rng.below(k**n), k**n - 1, k ** (n + 3) - 2, k ** (n // 2)):
                assert decode_index(code, k, n) == self.digit_loop(code, k, n)

    def test_long_code_decodes_in_a_child_under_20s(self):
        # 302,401 base-10 digits: one division of the whole code per digit
        # runs past this timeout; split, the decode takes about two seconds.
        code = (
            "from aritygap.core import decode_index\n"
            "d = decode_index((10**302401 - 1) // 7, 10, 302401)\n"
            "assert d == (1, 4, 2, 8, 5, 7) * 50400 + (1,)\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                timeout=20)
        assert result.returncode == 0, result.stderr


class TestEssential:
    def test_xor_depends_on_both(self):
        assert is_essential(XOR, 1) and is_essential(XOR, 2)

    def test_constant_has_no_essential(self):
        const = make_function(2, 2, 3, [0] * 8)
        assert not is_essential(const, 2)
        assert ess(const) == 0

    def test_dummy_variable(self):
        proj = make_function(2, 2, 2, [0, 0, 1, 1])  # f(x1, x2) = x1
        assert not is_essential(proj, 2)
        assert essential_vars(proj) == (1,)

    def test_index_validation(self):
        with pytest.raises(IndexOutOfRange):
            is_essential(XOR, 0)
        with pytest.raises(IndexOutOfRange):
            is_essential(XOR, 3)

    def test_majority_fully_essential(self):
        assert ess(MAJ3) == naive_ess(MAJ3) == 3

    @given(finite_functions(max_n=3, max_table=32))
    def test_matches_definition_scan(self, f):
        for i in range(1, f.n + 1):
            assert is_essential(f, i) == naive_essential(f, i)


class TestIdentify:
    def test_xor_collapses(self):
        assert identify(XOR, 1, 2) == make_function(2, 2, 2, [0, 0, 0, 0])

    def test_and_minor_is_projection(self):
        assert identify(AND, 2, 1).table == (0, 0, 1, 1)

    def test_majority_minor(self):
        minor = identify(MAJ3, 2, 1)
        assert minor.table == (0, 0, 0, 0, 1, 1, 1, 1)
        assert essential_vars(minor) == (1,)

    def test_same_index_rejected(self):
        with pytest.raises(SameIndex):
            identify(XOR, 1, 1)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            identify(XOR, 1, 3)

    @pytest.mark.parametrize("k,b,n", [(1, 3, 4), (2, 2, 4), (3, 5, 3), (4, 3, 3), (7, 16, 2), (10, 16, 2)])
    def test_every_pair_matches_point_oracle(self, k, b, n):
        # k > 2 reads every digit mask D_t(c) as a shift of D_t(0).
        f = make_function(k, b, n, naive_random_table(k, b, n, seed=k))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    assert identify(f, i, j).table == naive_identify(f, i, j)

    def test_one_element_domain_in_bounded_memory(self):
        # At k = 1 the one row's minor is f itself: no mask per variable, so
        # n = 10**8 fits 256 MiB.
        def limit_address_space():
            # Applies in the child only, between fork and exec.
            resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

        code = (
            "from aritygap import FiniteFunction, identify\n"
            "f = FiniteFunction(1, 2, 10**8, 1)\n"
            "print(identify(f, 1, 2) == f, identify(f, 10**8, 3).table)\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                preexec_fn=limit_address_space, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["True", "(1,)"]

    @given(finite_functions(max_n=4), st.data())
    def test_identified_variable_inessential(self, f, data):
        if f.n < 2:
            return
        i = data.draw(st.integers(1, f.n), label="i")
        j = data.draw(st.integers(1, f.n).filter(lambda v: v != i), label="j")
        minor = identify(f, i, j)
        assert minor.n == f.n
        assert not is_essential(minor, i)

    @given(finite_functions(max_n=4), st.data())
    def test_equals_substitution_route(self, f, data):
        if f.n < 2:
            return
        i = data.draw(st.integers(1, f.n), label="i")
        j = data.draw(st.integers(1, f.n).filter(lambda v: v != i), label="j")
        mapping = tuple(j if t == i else t for t in range(1, f.n + 1))
        assert identify(f, i, j).table == naive_substitute(f, f.n, mapping)

    @given(finite_functions(max_n=4), st.data())
    def test_essential_identification_strictly_drops_ess(self, f, data):
        ev = essential_vars(f)
        if len(ev) < 2:
            return
        i = data.draw(st.sampled_from(ev), label="i")
        j = data.draw(st.sampled_from([v for v in ev if v != i]), label="j")
        assert ess(identify(f, i, j)) < ess(f)


class TestGapReport:
    def test_xor(self):
        assert gap_report(XOR) == GapReport(ess=2, essl=0, gap=2, witness=(1, 2))

    def test_and(self):
        r = gap_report(AND)
        assert (r.ess, r.essl, r.gap, r.witness) == (2, 1, 1, (1, 2))

    def test_majority(self):
        r = gap_report(MAJ3)
        assert (r.ess, r.essl, r.gap) == (3, 1, 2)
        assert r.witness == (1, 2)

    def test_undefined_for_constants(self):
        with pytest.raises(EssentialArityTooSmall):
            gap_report(make_function(2, 2, 2, [1, 1, 1, 1]))

    def test_undefined_for_single_essential(self):
        with pytest.raises(EssentialArityTooSmall):
            gap_report(make_function(2, 2, 2, [0, 0, 1, 1]))

    def test_singleton_domain_rejected(self):
        with pytest.raises(EssentialArityTooSmall):
            gap_report(make_function(1, 2, 3, [0]))

    def test_witness_indices_essential_and_distinct(self):
        f = make_function(2, 2, 3, [0, 1, 1, 0, 0, 1, 1, 0])  # x2 xor x3, x1 dummy
        r = gap_report(f)
        assert r.witness == (2, 3)
        assert r.gap == 2

    def test_wide_k_table_in_bounded_memory(self):
        # 10**7 rows of 4 bits, 5 MB per mask: the layout keeps two per variable.
        def limit_address_space():
            # Applies in the child only, between fork and exec.
            resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

        code = (
            "import random\n"
            "from aritygap import FiniteFunction, gap_report\n"
            "f = FiniteFunction(10, 16, 7, random.Random(0).getrandbits(4 * 10**7))\n"
            "print(gap_report(f).ess)\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                preexec_fn=limit_address_space, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["7"]

    def test_largest_boolean_table_in_128_mib(self):
        # 2**24 rows, 2 MB per mask: at k = 2 the layout keeps one per variable.
        def limit_address_space():
            # Applies in the child only, between fork and exec.
            resource.setrlimit(resource.RLIMIT_AS, (128 << 20, 128 << 20))

        code = (
            "from aritygap import essential_vars, identify, random_function\n"
            "f = random_function(2, 2, 24, 0)\n"
            "print(len(essential_vars(f)), len(essential_vars(identify(f, 1, 2))))\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                preexec_fn=limit_address_space, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["24", "23"]

    def test_gaps_three_and_four_match_the_oracle_with_witness(self):
        # Random tables almost never reach gap 3: every diagonal code of
        # (3, 3, 3), then seeded diagonal tables of (4, 4, 3) and (4, 4, 4).
        rng = random.Random(24)
        cases = [(3, 3, [diagonal_table(3, 3, d[0], d[1:]) for d in product(range(3), repeat=7)])]
        cases += [(4, n, [diagonal_table(4, n, rng.randrange(4), [rng.randrange(4) for _ in range(24)])
                          for _ in range(count)]) for n, count in ((3, 40), (4, 12))]
        for k, n, tables in cases:
            gaps = set()
            for table in tables:
                f = make_function(k, k, n, table)
                if len(set(table)) == 1:
                    with pytest.raises(EssentialArityTooSmall):
                        gap_report(f)
                    continue
                r = gap_report(f)
                assert tuple(r) == naive_gap_report(f), table
                gaps.add(r.gap)
            assert gaps == {n}

    @given(finite_functions(max_n=3, max_table=32))
    @settings(deadline=None)
    def test_essl_matches_full_substitution_oracle(self, f):
        if ess(f) < 2:
            return
        assert gap_report(f).essl == max_ess_over_strict_minors(f)

    @given(finite_functions(max_n=4))
    @settings(deadline=None)
    def test_witness_contract(self, f):
        ev = essential_vars(f)
        if len(ev) < 2:
            return
        r = gap_report(f)
        i, j = r.witness
        assert i < j and i in ev and j in ev
        assert ess(identify(f, i, j)) == r.essl
        assert r.gap == r.ess - r.essl >= 1


class TestGap1Lanes:
    """The lane-parallel gap-1 kernel against the point-by-point oracle."""

    @staticmethod
    def _run(n, tables, least):
        """The kernel's (meets, gap1) and the oracle's, at the floor least."""
        width = _lane_width(1 << n)
        fs = [make_function(2, 2, n, t) for t in tables]
        block = sum(f.bits << m * width for m, f in enumerate(fs))
        got = decided(gap_claim(1), block, 2, 2, n, len(fs), least)
        meets = gap1 = 0
        for m, f in enumerate(fs):
            e = naive_ess(f)
            if e >= least:
                meets |= 1 << m * width
                if e >= 2 and naive_gap_report(f)[2] == 1:
                    gap1 |= 1 << m * width
        return got, (meets, gap1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_random_and_gap_two_lanes_match_oracle(self, n):
        # Random tables, then the gap-2 shapes and constants in the same block.
        tables = [naive_random_table(2, 2, n, 100 * n + s) for s in range(12)]
        tables += gap_two_tables(n) + [[0] * (1 << n), poly_table(n, [{1}])]
        width = _lane_width(1 << n)
        got, expected = self._run(n, tables, 2)
        assert got == expected
        assert expected[1] != expected[0]  # some lane meeting ess >= 2 is not gap 1
        # A higher floor: lanes below it are never returned.
        got3, expected3 = self._run(n, tables, 3)
        assert got3 == expected3
        assert expected3[1] == expected[1] & expected3[0]

    def test_gap_two_lanes_alone(self):
        # Only gap-2 lanes: the kernel must scan every pair and return none.
        for n in (3, 4, 5):
            tables = gap_two_tables(n)
            width = _lane_width(1 << n)
            got, expected = self._run(n, tables, 2)
            assert got == expected == (sum(1 << m * width for m in range(len(tables))), 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_ess_lanes_count_essential_variables(self, n):
        # Floors above n too: the carry constant must stay nonnegative and
        # within the lane (a bit position from n alone fails at n = 1, least 3).
        tables = [naive_random_table(2, 2, n, 50 * n + s) for s in range(8)]
        tables += gap_two_tables(n) + [[0] * (1 << n), [1] * (1 << n), poly_table(n, [{n}])]
        width, lanes = _lane_width(1 << n), len(tables)
        block = sum(make_function(2, 2, n, t).bits << m * width for m, t in enumerate(tables))
        counts = [naive_ess(make_function(2, 2, n, t)) for t in tables]
        _, strides, lower, ones, fill, _ = _layout(2, 1, n, lanes)
        flags = [_depends(block, 1 << n, ones, fill, s, low) for s, low in zip(strides, lower)]
        for least in (1, 2, 3, 4):
            expected = sum(1 << m * width for m, e in enumerate(counts) if e >= least)
            assert _ess_lanes(flags, ones, least) == expected
            assert _flags(block, 2, 2, n, lanes, least)[1] == expected

    def test_one_lane_is_gap_report(self):
        for code in range(1 << 8):
            f = make_function(2, 2, 3, [code >> (7 - r) & 1 for r in range(8)])
            if len(essential_vars(f)) >= 2:
                assert decided(gap_claim(1), f.bits, 2, 2, 3, 1, 2) == (1, int(gap_report(f).gap == 1))


class TestGapAtMost:
    """The gap scan on blocks, lane by lane, against the point oracle."""

    @staticmethod
    def _tables(k, n):
        """Random tables, tables of gap 2 to min(n, k), lanes of ess 2, constants;
        at k = 2 also x_n + x2*x3 + x1*x2*x3, whose first pair of gap 1 is
        (1, n) in lex order and (2, 3) in colex order, and x1 + x2 + x3*x4,
        whose pair (1, 2) loses 1 and (1, 3) none."""
        tables = [naive_random_table(k, k, n, 40 * k + n + s) for s in range(3)]
        if k == 2:
            return tables + gap_two_tables(n) + [poly_table(n, [{1, 2}]), poly_table(n, [{1}, {2}]),
                                                 poly_table(n, [{n}, {2, 3}, {1, 2, 3}]),
                                                 poly_table(n, [{1}, {2}, {3, 4}]),
                                                 [0] * (1 << n), [1] * (1 << n)]
        rng = random.Random(k * n)
        for m in (2, 3, n):
            # A table of x1..xm repeats each row k**(n - m) times.
            diagonal = diagonal_table(k, m, 1, [rng.randrange(k) for _ in range(24)])
            tables.append([v for v in diagonal for _ in range(k ** (n - m))])
        pair = naive_random_table(k, k, 2, k)
        return tables + [[v for v in pair for _ in range(k ** (n - 2))], [0] * k**n, [k - 1] * k**n]

    @pytest.mark.parametrize("k,n", [(3, 3), (3, 4), (4, 3), (4, 4), (2, 7), (2, 8)])
    def test_lanes_match_the_oracle(self, k, n):
        # At n = 7 and 8 the counter's bit p = n.bit_length() steps from 3 to 4.
        fs = [make_function(k, k, n, t) for t in self._tables(k, n)]
        lanes, width = len(fs), _lane_width(k**n * field_width(k))
        block = sum(f.bits << m * width for m, f in enumerate(fs))
        e, everyone = _dependence(block, k, k, n, lanes), sum(1 << m * width for m in range(lanes))
        losses = [naive_losses(f) for f in fs]
        gaps = {min(c for _, c in pairs) + 1 for pairs in losses if pairs}
        assert gaps >= ({1, 2} if k == 2 else {1, 2, 3, min(n, k)})
        # gap = k is ThmGen's bound and n + 1 is cut to n, as no lane loses n.
        for gap in sorted({1, 2, 3, k, n + 1}):
            held = sum(1 << m * width for m, pairs in enumerate(losses) if any(c < gap for _, c in pairs))
            # Constant lanes are never held, so not every lane is.
            assert _gap_at_most(block, k, k, n, lanes, e, everyone, gap) == (held, None)
            assert _gap_at_most(block, k, k, n, lanes, e, held, gap)[0] == held
            for m, pairs in enumerate(losses):
                # On one pending lane, pair is its least pair that loses fewer than gap.
                lane, pair = 1 << m * width, next((p for p, c in pairs if c < gap), None)
                assert _gap_at_most(block, k, k, n, lanes, e, lane, gap) == (lane if pair else 0, pair), (gap, m)
        # At gap 0, no bound, each lane's cut ends at its least loss (ess with
        # no pair), and on one lane the pair is the first attaining it.
        field = (1 << width) - 1
        least, _ = _gap_at_most(block, k, k, n, lanes, e, everyone, 0)
        for m, (f, pairs) in enumerate(zip(fs, losses)):
            low = min((c for _, c in pairs), default=naive_ess(f))
            assert least >> m * width & field == low, m
            if pairs:
                one, pair = _gap_at_most(block, k, k, n, lanes, e, 1 << m * width, 0)
                assert (one >> m * width & field, pair) == (low, next(p for p, c in pairs if c == low)), m


class TestBlockLayout:
    """Identification on a block of non-Boolean tables, lane by lane."""

    @pytest.mark.parametrize("k,b,n", [(3, 3, 3), (3, 5, 2), (4, 4, 3), (4, 2, 2), (5, 5, 2), (5, 3, 3)])
    def test_identified_on_a_block_is_identify_per_lane(self, k, b, n):
        # Every shift must keep a table bit in its lane's rows, so each
        # lane's minor is the point oracle's and the padding stays zero.
        w, lanes = field_width(b), 9
        size = k**n * w
        width = _lane_width(size)
        fs = [make_function(k, b, n, naive_random_table(k, b, n, 60 * k + s)) for s in range(lanes - 1)]
        # The last lane repeats one table of x2..xn k times: x1 is inessential there.
        fs.append(make_function(k, b, n, naive_random_table(k, b, n - 1, 60 * k) * k))
        block = sum(f.bits << m * width for m, f in enumerate(fs))
        zeros, strides, lower, ones, fill, _ = _layout(k, w, n, lanes)
        assert fill == ((1 << size) - 1) * ones and ones.bit_count() == lanes
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                minor = _identified(block, k, zeros, strides, i, j)
                assert minor & ~fill == 0, (i, j)
                for m, f in enumerate(fs):
                    lane = make_function(k, b, n, naive_identify(f, i + 1, j + 1)).bits
                    assert minor >> m * width & (1 << size) - 1 == lane, (i, j, m)
        # The block's dependence flags are the point oracle's, lane by lane.
        flags = _dependence(block, k, b, n, lanes)
        for t in range(n):
            for m, f in enumerate(fs):
                assert flags[t] >> m * width & 1 == naive_essential(f, t + 1), (t, m)

    def test_blocks_repeat_the_one_lane_masks(self):
        zeros, strides, lower, ones, fill, _ = _layout(4, 2, 3, 1)
        assert (ones, fill) == (1, (1 << 4**3 * 2) - 1)
        block = _layout(4, 2, 3, 5)
        assert block[1] is strides and block[4] == fill * block[3]
        assert block[0] == tuple(z * block[3] for z in zeros) and block[2] == tuple(m * block[3] for m in lower)

    @pytest.mark.parametrize("k, w, n, lanes", [(2, 1, 5, 1), (2, 1, 6, 9), (3, 2, 4, 5), (1, 1, 7, 1)])
    def test_the_pair_plan_walks_every_pair_in_lex_order_on_the_entry_masks(self, k, w, n, lanes):
        # The plan holds no mask of its own: each t's stride and lower mask are the entry's.
        # A pair (i, j) tests its partner x_j first, then every other t != i ascending.
        _, strides, lower, _, _, plan = _layout(k, w, n, lanes)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)] if k > 1 else []
        assert [(i, j) for i, j, _ in plan] == pairs
        for i, j, tests in plan:
            assert [t for t, _, _ in tests] == [j] + [t for t in range(n) if t not in (i, j)]
            assert all(s == strides[t] and low is lower[t] for t, s, low in tests), (i, j)

    @pytest.mark.parametrize("lanes", [1, 5])
    @pytest.mark.parametrize("w", [1, 3])
    def test_boolean_lower_masks_are_the_zero_masks(self, w, lanes):
        # At k = 2 a digit below k - 1 is digit 0, so one tuple serves both.
        for n in range(1, 12):
            zeros, _, lower, *_ = _layout(2, w, n, lanes)
            assert lower is zeros

    @pytest.mark.parametrize("lanes", [1, 5])
    @pytest.mark.parametrize("w, n", [(1, 1), (2, 3), (3, 4)])
    def test_lower_masks_at_k3_are_full_minus_the_top_digit(self, w, n, lanes):
        # lower[t] from its definition: every row of each lane but those
        # whose digit t is k - 1 = 2, row 0 in the most significant field.
        size, field, width = 3**n, (1 << w) - 1, _lane_width(3**n * w)
        for t in range(n):
            one = sum(field << (size - 1 - r) * w for r in range(size) if r // 3 ** (n - 1 - t) % 3 != 2)
            assert _layout(3, w, n, lanes)[2][t] == sum(one << m * width for m in range(lanes))


class TestMinors:
    @given(finite_functions(max_n=3, max_table=27), st.data())
    @settings(deadline=None, max_examples=50)
    def test_minors_never_gain_ess(self, f, data):
        mapping = tuple(data.draw(st.integers(1, f.n)) for _ in range(f.n))
        g = make_function(f.k, f.b, f.n, naive_substitute(f, f.n, mapping))
        assert ess(g) <= ess(f)


def test_permuted_functions_are_equivalent():
    for perm in permutations((1, 2, 3)):
        g = make_function(2, 2, 3, naive_substitute(MAJ3, 3, perm))
        assert g == MAJ3 and ess(g) == 3
