"""The packed-int table engine against the definition-level oracles, and
the packed layout itself pinned on known tables."""

import pytest
from hypothesis import given, settings

from aritygap import (
    classify,
    essential_vars,
    essl,
    from_anf,
    gap_report,
    gap_via_classifier,
    identify,
    make_function,
    make_polynomial,
    to_anf,
)
from aritygap.cli import parse_function_text
from aritygap.core import _layout, from_code
from aritygap.errors import EssentialArityTooSmall
from aritygap.verifier import _var_masks

from oracles import naive_anf_monomials, naive_essential, naive_gap_report, naive_identify
from strategies import boolean_functions, finite_functions

# k in {2, ..., 5} and b in {2, ..., 16}: field widths 1 to 4, codomains that
# are not powers of two, and k > 2, where identify takes its general branch.
packed_functions = finite_functions(min_k=2, max_k=5, min_b=2, max_b=16, max_table=125)


class TestAgainstOracles:
    @given(packed_functions)
    @settings(deadline=None)
    def test_table_view_round_trip(self, f):
        assert make_function(f.k, f.b, f.n, f.table) == f
        assert all(0 <= v < f.b for v in f.table) and len(f.table) == f.k**f.n

    @given(packed_functions)
    @settings(deadline=None)
    def test_essential_vars(self, f):
        expected = tuple(i for i in range(1, f.n + 1) if naive_essential(f, i))
        assert essential_vars(f) == expected

    @given(packed_functions)
    @settings(deadline=None)
    def test_identify_every_pair(self, f):
        for i in range(1, f.n + 1):
            for j in range(1, f.n + 1):
                if i != j:
                    assert identify(f, i, j).table == naive_identify(f, i, j)

    @given(packed_functions)
    @settings(deadline=None)
    def test_gap_report(self, f):
        if len(essential_vars(f)) < 2:
            with pytest.raises(EssentialArityTooSmall):
                essl(f)
        else:
            r = gap_report(f)
            assert (r.ess, r.essl, r.gap, r.witness) == naive_gap_report(f)
            assert essl(f) == r.essl

    @given(boolean_functions(min_n=1, max_n=6))
    @settings(deadline=None, max_examples=60)
    def test_to_anf(self, f):
        assert to_anf(f).monomials == naive_anf_monomials(f)

    @given(boolean_functions(min_n=2, max_n=5))
    @settings(deadline=None)
    def test_gap_via_classifier(self, f):
        if len(essential_vars(f)) < 2:
            return
        assert gap_via_classifier(f) == naive_gap_report(f)[2]
        assert classify(to_anf(f)) == classify(make_polynomial(f.n, naive_anf_monomials(f)))


class TestLayout:
    """Row 0 sits in the most significant field of w = max(1, ceil(log2 b))
    bits."""

    def test_hex_file_is_the_table(self):
        f = parse_function_text("hex:e8")
        assert f.bits == 0xE8
        assert f.table == (1, 1, 1, 0, 1, 0, 0, 0)

    def test_exhaustive_code_is_the_table(self):
        # An Exhaustive(2, 2, n) table code read as a binary numeral.
        f = from_code(2, 2, 3, 0b00010111)
        assert f.bits == 0b00010111
        assert f.table == (0, 0, 0, 1, 0, 1, 1, 1)

    def test_non_power_of_two_code_is_decoded(self):
        f = from_code(3, 3, 2, 1 * 3**7 + 2 * 3**0)
        assert f.table == (0, 1, 0, 0, 0, 0, 0, 0, 2)
        assert f.bits == (0b01 << 14) | 0b10

    def test_three_bit_fields(self):
        f = make_function(3, 5, 1, [4, 0, 3])
        assert f.bits == 0b100_000_011

    def test_degree_two_masks(self):
        assert _var_masks(3) == (0b00001111, 0b00110011, 0b01010101)
        x1x2 = _var_masks(3)[0] & _var_masks(3)[1]
        assert x1x2 == from_anf(make_polynomial(3, [{1, 2}])).bits == 0b00000011

    @pytest.mark.parametrize("k,w,n", [(2, 1, 4), (3, 2, 3), (4, 2, 3), (5, 4, 2), (10, 4, 2), (3, 3, 1)])
    def test_digit_masks_are_shifts_of_the_first(self, k, w, n):
        # D_t(c) from its definition: the all-ones fields of the rows whose
        # digit t is c, row 0 in the most significant field.
        size, ones = k**n, (1 << w) - 1

        def digit_mask(t, c):
            return sum(ones << (size - 1 - r) * w for r in range(size) if r // k ** (n - 1 - t) % k == c)

        zeros, strides, lower, *_ = _layout(k, w, n, 1)
        assert len(zeros) == len(strides) == len(lower) == n
        for t in range(n):
            for c in range(k):
                assert zeros[t] >> c * strides[t] == digit_mask(t, c)
            assert lower[t] == sum(digit_mask(t, c) for c in range(k - 1))
