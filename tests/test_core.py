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
from aritygap.core import _depends, _ess_lanes, _gap1_lanes, _identified, _layout, field_width
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
    naive_random_table,
    naive_substitute,
)
from strategies import finite_functions, gap_two_tables, poly_table

XOR = make_function(2, 2, 2, [0, 1, 1, 0])
AND = make_function(2, 2, 2, [0, 0, 0, 1])
MAJ3 = make_function(2, 2, 3, [0, 0, 0, 1, 0, 1, 1, 1])
XOR3 = make_function(2, 2, 3, [0, 1, 1, 0, 1, 0, 0, 1])


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

    @pytest.mark.parametrize("k,b,n", [(2, 2, 4), (3, 5, 3), (4, 3, 3), (7, 16, 2), (10, 16, 2)])
    def test_every_pair_matches_point_oracle(self, k, b, n):
        # k > 2 reads every digit mask D_t(c) as a shift of D_t(0).
        f = make_function(k, b, n, naive_random_table(k, b, n, seed=k))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    assert identify(f, i, j).table == naive_identify(f, i, j)

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
        width = 2 << n
        fs = [make_function(2, 2, n, t) for t in tables]
        block = sum(f.bits << m * width for m, f in enumerate(fs))
        got = _gap1_lanes(block, 2, 2, n, len(fs), least)
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
        width = 2 << n
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
            width = 2 << n
            got, expected = self._run(n, tables, 2)
            assert got == expected == (sum(1 << m * width for m in range(len(tables))), 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_ess_lanes_count_essential_variables(self, n):
        # Floors above n too: the carry constant must stay nonnegative and
        # within the lane (a bit position from n alone fails at n = 1, least 3).
        tables = [naive_random_table(2, 2, n, 50 * n + s) for s in range(8)]
        tables += gap_two_tables(n) + [[0] * (1 << n), [1] * (1 << n), poly_table(n, [{n}])]
        width, lanes = 2 << n, len(tables)
        block = sum(make_function(2, 2, n, t).bits << m * width for m, t in enumerate(tables))
        counts = [naive_ess(make_function(2, 2, n, t)) for t in tables]
        _, strides, lower, ones, fill = _layout(2, 1, n, lanes)
        flags = [_depends(block, 1 << n, ones, fill, s, low) for s, low in zip(strides, lower)]
        for least in (1, 2, 3, 4):
            expected = sum(1 << m * width for m, e in enumerate(counts) if e >= least)
            assert _ess_lanes(flags, ones, least) == expected
            assert _gap1_lanes(block, 2, 2, n, lanes, least)[0] == expected

    def test_one_lane_is_gap_report(self):
        for code in range(1 << 8):
            f = make_function(2, 2, 3, [code >> (7 - r) & 1 for r in range(8)])
            if len(essential_vars(f)) >= 2:
                assert _gap1_lanes(f.bits, 2, 2, 3, 1, 2) == (1, int(gap_report(f).gap == 1))


class TestBlockLayout:
    """Identification on a block of non-Boolean tables, lane by lane."""

    @pytest.mark.parametrize("k,b,n", [(3, 3, 3), (3, 5, 2), (4, 4, 3), (4, 2, 2), (5, 5, 2), (5, 3, 3)])
    def test_identified_on_a_block_is_identify_per_lane(self, k, b, n):
        # Every shift must keep a table bit in its lane's rows, so each
        # lane's minor is the point oracle's and the padding stays zero.
        w, lanes = field_width(b), 9
        size = k**n * w
        width = 2 * size
        fs = [make_function(k, b, n, naive_random_table(k, b, n, 60 * k + s)) for s in range(lanes)]
        block = sum(f.bits << m * width for m, f in enumerate(fs))
        zeros, strides, lower, ones, fill = _layout(k, w, n, lanes)
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

    def test_blocks_repeat_the_one_lane_masks(self):
        zeros, strides, lower, ones, fill = _layout(4, 2, 3, 1)
        assert (ones, fill) == (1, (1 << 4**3 * 2) - 1)
        block = _layout(4, 2, 3, 5)
        assert block[1] is strides and block[4] == fill * block[3]
        assert block[0] == tuple(z * block[3] for z in zeros) and block[2] == tuple(m * block[3] for m in lower)


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
