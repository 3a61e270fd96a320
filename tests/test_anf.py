from itertools import product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from aritygap import (
    degree,
    ess,
    from_anf,
    identify,
    is_essential,
    make_function,
    make_polynomial,
    occurs,
    polynomial_str,
    to_anf,
)
from aritygap.errors import BudgetExceeded, IndexOutOfRange, NotBoolean

from oracles import naive_anf_identify, naive_anf_monomials
from strategies import boolean_functions

AND = make_function(2, 2, 2, [0, 0, 0, 1])
XOR = make_function(2, 2, 2, [0, 1, 1, 0])
MAJ3 = make_function(2, 2, 3, [0, 0, 0, 1, 0, 1, 1, 1])


def mono(*sets):
    return frozenset(frozenset(s) for s in sets)


class TestToAnf:
    def test_and(self):
        assert to_anf(AND).monomials == mono({1, 2})

    def test_xor(self):
        assert to_anf(XOR).monomials == mono({1}, {2})

    def test_not_x1(self):
        f = make_function(2, 2, 1, [1, 0])
        assert to_anf(f).monomials == mono({1}, set())

    def test_majority(self):
        assert to_anf(MAJ3).monomials == mono({1, 2}, {1, 3}, {2, 3})

    def test_rejects_non_boolean(self):
        with pytest.raises(NotBoolean):
            to_anf(make_function(3, 3, 1, [0, 1, 2]))
        with pytest.raises(NotBoolean):
            to_anf(make_function(2, 3, 1, [0, 2]))

    def test_exhaustive_naive_oracle_small(self):
        for n in (1, 2, 3):
            for bits in product((0, 1), repeat=2**n):
                f = make_function(2, 2, n, bits)
                assert to_anf(f).monomials == naive_anf_monomials(f)

    @given(boolean_functions(min_n=4, max_n=5))
    @settings(max_examples=60, deadline=None)
    def test_naive_oracle_random(self, f):
        assert to_anf(f).monomials == naive_anf_monomials(f)


class TestFromAnf:
    def test_nor_polynomial(self):
        p = make_polynomial(2, [{1, 2}, {1}, {2}, set()])
        assert from_anf(p).table == (1, 0, 0, 0)

    def test_zero_polynomial(self):
        assert from_anf(make_polynomial(2, [])).table == (0, 0, 0, 0)

    def test_one_polynomial(self):
        assert from_anf(make_polynomial(2, [set()])).table == (1, 1, 1, 1)

    def test_round_trip_exhaustive_small(self):
        for n in (1, 2, 3):
            for bits in product((0, 1), repeat=2**n):
                f = make_function(2, 2, n, bits)
                assert from_anf(to_anf(f)) == f

    @given(boolean_functions(min_n=4, max_n=6))
    @settings(max_examples=80, deadline=None)
    def test_round_trip_random(self, f):
        p = to_anf(f)
        assert from_anf(p) == f
        assert to_anf(from_anf(p)) == p


class TestDegree:
    def test_cubic(self):
        assert degree(make_polynomial(3, [{1, 2, 3}, {1}])) == 3

    def test_constant_one(self):
        assert degree(make_polynomial(1, [set()])) == 0

    def test_zero_polynomial(self):
        assert degree(make_polynomial(1, [])) == 0

    def test_linear(self):
        assert degree(make_polynomial(2, [{1}, {2}])) == 1

    @given(boolean_functions(max_n=4))
    def test_degree_zero_iff_constant(self, f):
        assert (degree(to_anf(f)) == 0) == (ess(f) == 0)


class TestOccurs:
    def test_in_product(self):
        p = make_polynomial(2, [{1, 2}])
        assert occurs(p, 2)

    def test_absent_variable(self):
        p = make_polynomial(3, [{1, 2}])
        assert not occurs(p, 3)

    def test_validation(self):
        with pytest.raises(IndexOutOfRange):
            occurs(make_polynomial(2, [{1}]), 3)
        with pytest.raises(IndexOutOfRange):
            make_polynomial(2, [{1, 5}])

    @given(boolean_functions(max_n=4))
    def test_occurs_iff_essential(self, f):
        p = to_anf(f)
        for i in range(1, f.n + 1):
            assert occurs(p, i) == is_essential(f, i)


class TestAnfIdentify:
    """ANF of identification minors: x_i becomes x_j in every monomial."""

    def test_and_plus_var_collapses(self):
        f = from_anf(make_polynomial(2, [{1, 2}, {1}]))
        assert to_anf(identify(f, 2, 1)).monomials == frozenset()

    def test_majority_minor(self):
        assert to_anf(identify(MAJ3, 2, 1)).monomials == mono({1})

    def test_parity_collapse(self):
        assert to_anf(identify(XOR, 2, 1)).monomials == frozenset()

    @given(boolean_functions(min_n=2, max_n=5), st.data())
    @settings(deadline=None)
    def test_commutes_with_table_identify(self, f, data):
        i = data.draw(st.integers(1, f.n), label="i")
        j = data.draw(st.integers(1, f.n).filter(lambda v: v != i), label="j")
        expected = naive_anf_identify(naive_anf_monomials(f), i, j)
        assert to_anf(identify(f, i, j)).monomials == expected

    @given(boolean_functions(min_n=2, max_n=5), st.data())
    @settings(deadline=None)
    def test_degree_never_rises(self, f, data):
        i = data.draw(st.integers(1, f.n), label="i")
        j = data.draw(st.integers(1, f.n).filter(lambda v: v != i), label="j")
        assert degree(to_anf(identify(f, i, j))) <= degree(to_anf(f))


class TestPolynomialStr:
    def test_mixed_terms(self):
        p = make_polynomial(2, [{1, 2}, {1}, set()])
        assert polynomial_str(p) == "x1*x2 + x1 + 1"

    def test_constants(self):
        assert polynomial_str(make_polynomial(1, [])) == "0"
        assert polynomial_str(make_polynomial(1, [set()])) == "1"

    def test_parity(self):
        assert polynomial_str(to_anf(XOR)) == "x1 + x2"

    def test_sorted_by_size_then_lex(self):
        p = make_polynomial(3, [{2}, {1, 3}, {1, 2}, set(), {3}])
        assert polynomial_str(p) == "x1*x2 + x1*x3 + x2 + x3 + 1"


@st.composite
def monomial_lists(draw):
    """(n, monomials) with n <= 6: lists of variable indices, repeats allowed."""
    n = draw(st.integers(1, 6))
    return n, draw(st.lists(st.lists(st.integers(1, n), max_size=n), max_size=12))


class TestCoefficientTable:
    """The packed coefficient table against the subset-sum oracle."""

    @given(boolean_functions(max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_degree_and_occurs_read_the_oracle_monomials(self, f):
        expected = naive_anf_monomials(f)
        p = to_anf(f)
        assert degree(p) == max(map(len, expected), default=0)
        for i in range(1, f.n + 1):
            assert occurs(p, i) == any(i in m for m in expected)

    @given(monomial_lists(), st.data())
    @settings(deadline=None)
    def test_order_and_repeats_do_not_matter(self, drawn, data):
        n, monomials = drawn
        p = make_polynomial(n, monomials)
        assert p.monomials == frozenset(frozenset(m) for m in monomials)
        reordered = data.draw(st.permutations([m[::-1] for m in monomials] * 2), label="reordered")
        q = make_polynomial(n, reordered)
        assert q == p and hash(q) == hash(p)

    def test_arity_beyond_the_budget_is_refused(self):
        # 2**25 coefficients exceed the default budget of 2**24.
        with pytest.raises(BudgetExceeded, match="2\\*\\*25"):
            make_polynomial(25, [{1}])

    @given(monomial_lists())
    @settings(deadline=None)
    def test_round_trip_from_drawn_monomials(self, drawn):
        p = make_polynomial(*drawn)
        f = from_anf(p)
        assert naive_anf_monomials(f) == p.monomials
        assert to_anf(f) == p
