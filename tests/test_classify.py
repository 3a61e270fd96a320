from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from aritygap import (
    FormTag,
    NOT_SPECIAL,
    classify,
    ess,
    from_anf,
    gap_report,
    gap_via_classifier,
    make_function,
    make_polynomial,
    to_anf,
)
from aritygap.classify import _cubic
from aritygap.errors import EssentialArityTooSmall, NotBoolean

from oracles import naive_substitute
from strategies import boolean_functions


def poly(n, *monomials):
    return make_polynomial(n, monomials)


def parity(n, participants, c):
    monos = [{v} for v in participants]
    if c:
        monos.append(set())
    return poly(n, *monos)


def and_plus_var(n, i, j, c):
    monos = [{i, j}, {i}]
    if c:
        monos.append(set())
    return poly(n, *monos)


def triangle(n, i, j, k, c, linear=()):
    monos = [{i, j}, {i, k}, {j, k}] + [{v} for v in linear]
    if c:
        monos.append(set())
    return poly(n, *monos)


class TestClassify:
    def test_linear_parity(self):
        form = classify(poly(3, {1}, {2}, {3}))
        assert form.tag is FormTag.LINEAR_PARITY
        assert form.participants == (1, 2, 3)
        assert form.c == 0

    def test_and_plus_var(self):
        form = classify(poly(2, {1, 2}, {1}, set()))
        assert form.tag is FormTag.AND_PLUS_VAR
        assert form.participants == (1, 2)
        assert form.c == 1

    def test_and_plus_var_other_role(self):
        form = classify(poly(2, {1, 2}, {2}))
        assert form.tag is FormTag.AND_PLUS_VAR
        assert form.participants == (2, 1)

    def test_plain_and_not_special(self):
        assert classify(poly(2, {1, 2})) is NOT_SPECIAL
        assert gap_report(make_function(2, 2, 2, [0, 0, 0, 1])).gap == 1

    def test_triangle(self):
        form = classify(triangle(3, 1, 2, 3, c=1))
        assert form.tag is FormTag.TRIANGLE_MAJ
        assert form.participants == (1, 2, 3)
        assert form.c == 1

    def test_triangle_plus_two(self):
        form = classify(triangle(4, 1, 2, 4, c=0, linear=(2, 4)))
        assert form.tag is FormTag.TRIANGLE_MAJ_PLUS_TWO
        assert form.participants == (2, 4, 1)

    def test_triangle_plus_one_linear_not_special(self):
        assert classify(triangle(3, 1, 2, 3, c=0, linear=(2,))) is NOT_SPECIAL

    def test_triangle_plus_three_linear_not_special(self):
        assert classify(triangle(3, 1, 2, 3, c=0, linear=(1, 2, 3))) is NOT_SPECIAL

    def test_or_shape_not_special(self):
        assert classify(poly(2, {1, 2}, {1}, {2})) is NOT_SPECIAL

    def test_ignores_inessential_ambient_variables(self):
        form = classify(parity(6, (2, 5), c=1))
        assert form.tag is FormTag.LINEAR_PARITY
        assert form.participants == (2, 5)

    def test_too_few_occurring(self):
        with pytest.raises(EssentialArityTooSmall):
            classify(poly(3, {2}))
        with pytest.raises(EssentialArityTooSmall):
            classify(poly(3))


class TestCubicRule:
    """Every gap-2 shape has degree <= 2, so classify calls a polynomial
    with a monomial of three or more variables NotSpecial at once."""

    @pytest.mark.parametrize("n", range(13))
    def test_cubic_is_the_monomials_of_three_or_more_variables(self, n):
        # Bit 2**n - 1 - r of a coefficient table is the monomial of index r.
        assert _cubic(n) == sum(1 << 2**n - 1 - r for r in range(2**n) if r.bit_count() >= 3)

    def test_dense_degree_two_runs_the_shape_clauses(self):
        # All 15 pairs and all 6 singles at n = 6: 21 monomials, more than
        # any shape has, and none of degree 3.
        monos = [set(m) for m in combinations(range(1, 7), 2)] + [{t} for t in range(1, 7)]
        p = poly(6, *monos)
        assert p.coef & _cubic(6) == 0 and p.coef.bit_count() == 21
        assert classify(p) is NOT_SPECIAL
        f = from_anf(p)
        assert gap_via_classifier(f) == gap_report(f).gap == 1


class TestGapViaClassifier:
    def test_xor(self):
        assert gap_via_classifier(make_function(2, 2, 2, [0, 1, 1, 0])) == 2

    def test_and(self):
        assert gap_via_classifier(make_function(2, 2, 2, [0, 0, 0, 1])) == 1

    def test_majority_plus_two(self):
        f = from_anf(triangle(3, 1, 2, 3, c=0, linear=(1, 2)))
        assert gap_via_classifier(f) == 2

    def test_not_boolean(self):
        with pytest.raises(NotBoolean):
            gap_via_classifier(make_function(3, 3, 2, [0] * 9))

    def test_ess_too_small(self):
        with pytest.raises(EssentialArityTooSmall):
            gap_via_classifier(make_function(2, 2, 2, [0, 0, 1, 1]))
        for value in (0, 1):
            with pytest.raises(EssentialArityTooSmall):
                gap_via_classifier(make_function(2, 2, 3, [value] * 8))

    @given(boolean_functions(min_n=2, max_n=4))
    @settings(deadline=None)
    def test_agrees_with_brute_force(self, f):
        if ess(f) < 2:
            return
        assert gap_via_classifier(f) == gap_report(f).gap


class TestDegreeTwoGetsGapOneFromBothPaths:
    def test_exhaustive_on_four_variables(self):
        singles = [frozenset((t,)) for t in range(1, 5)]
        pairs = [frozenset(p) for p in combinations(range(1, 5), 2)]
        count = 0
        for qmask in range(1, 1 << 6):
            quad = [pairs[t] for t in range(6) if (qmask >> t) & 1]
            for lmask in range(1 << 4):
                lin = [singles[t] for t in range(4) if (lmask >> t) & 1]
                for c in (0, 1):
                    monos = quad + lin + ([frozenset()] if c else [])
                    if len({v for m in monos for v in m}) < 4:
                        continue
                    p = make_polynomial(4, monos)
                    f = from_anf(p)
                    assert gap_via_classifier(f) == 1
                    assert gap_report(f).gap == 1
                    count += 1
        assert count > 0

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_sampled_on_six_variables(self, data):
        n = 6
        pairs = [frozenset(p) for p in combinations(range(1, n + 1), 2)]
        quad = data.draw(st.sets(st.sampled_from(pairs), min_size=1), label="quadratic part")
        lin = data.draw(
            st.sets(st.integers(1, n)).map(lambda s: {frozenset((v,)) for v in s}),
            label="linear part",
        )
        monos = set(quad) | lin
        if data.draw(st.booleans(), label="constant"):
            monos.add(frozenset())
        if len({v for m in monos for v in m}) < 4:
            return
        f = from_anf(make_polynomial(n, monos))
        assert gap_via_classifier(f) == 1
        assert gap_report(f).gap == 1


def _role_map(form, perm):
    # perm maps old index -> new index (1-based); roles are preserved.
    mapped = [perm[v - 1] for v in form.participants]
    if form.tag is FormTag.LINEAR_PARITY or form.tag is FormTag.TRIANGLE_MAJ:
        return tuple(sorted(mapped))
    if form.tag is FormTag.TRIANGLE_MAJ_PLUS_TWO:
        return tuple(sorted(mapped[:2])) + (mapped[2],)
    return tuple(mapped)


class TestPermutationInvariance:
    @pytest.mark.parametrize(
        "p",
        [
            parity(4, (1, 2, 3, 4), c=1),
            and_plus_var(4, 2, 3, c=0),
            triangle(4, 1, 3, 4, c=1),
            triangle(4, 1, 2, 4, c=0, linear=(1, 4)),
            poly(4, {1, 2}, {3}),
        ],
        ids=["parity", "andvar", "triangle", "triangle2", "notspecial"],
    )
    def test_relabeling_preserves_tag_and_roles(self, p):
        f = from_anf(p)
        base = classify(p)
        for perm in permutations(range(1, 5)):
            # g(x) = f(x_perm(1), ..., x_perm(n)), so f's variable t shows
            # up in g as variable perm(t).
            g = make_function(2, 2, 4, naive_substitute(f, 4, perm))
            got = classify(to_anf(g))
            assert got.tag is base.tag
            assert got.c == base.c
            if base.tag is not FormTag.NOT_SPECIAL:
                assert _role_map(got, (1, 2, 3, 4)) == _role_map(base, perm)


class TestShapesHaveGapTwo:
    """Every instantiation of the four shapes must show essl = ess - 2:
    no minor reaches ess - 1 but one reaches ess - 2."""

    def test_parities(self):
        for n in (2, 3, 5):
            for c in (0, 1):
                for m in (2, n):
                    participants = tuple(range(1, m + 1))
                    r = gap_report(from_anf(parity(n, participants, c)))
                    assert (r.gap, r.essl) == (2, r.ess - 2)

    def test_and_plus_var_all_pairs(self):
        for i, j in permutations(range(1, 4), 2):
            for c in (0, 1):
                r = gap_report(from_anf(and_plus_var(3, i, j, c)))
                assert (r.ess, r.essl, r.gap) == (2, 0, 2)

    def test_triangles_all_choices(self):
        for i, j, k in combinations(range(1, 6), 3):
            for c in (0, 1):
                r = gap_report(from_anf(triangle(5, i, j, k, c)))
                assert (r.ess, r.essl, r.gap) == (3, 1, 2)

    def test_triangle_plus_two_all_role_choices(self):
        for i, j, k in combinations(range(1, 5), 3):
            for a, b in combinations((i, j, k), 2):
                for c in (0, 1):
                    r = gap_report(from_anf(triangle(4, i, j, k, c, linear=(a, b))))
                    assert (r.ess, r.essl, r.gap) == (3, 1, 2)
                    form = classify(triangle(4, i, j, k, c, linear=(a, b)))
                    assert form.tag is FormTag.TRIANGLE_MAJ_PLUS_TWO
