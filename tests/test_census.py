"""Census gates: the totals exhaustive sweeps report, against closed forms.

The forms are elementary counts derived from the definitions, computed
here in plain Python with math.comb and math.perm alone; nothing from
aritygap enters them, so they are independent of both the fast paths and
tests/oracles.py.
"""

from collections import Counter
from math import comb, perm

import pytest

import aritygap.verifier as verifier
from aritygap import DEFAULT_BUDGET, Exhaustive, TheoremId, sweep
from aritygap.core import _flags, _gap_at_most, _lane_width, field_width


def depending_on_all(k, b, m):
    """T(k, b, m): functions {0..k-1}^m -> {0..b-1} depending on all m
    variables, by inclusion-exclusion over the variables kept."""
    return sum((-1) ** (m - j) * comb(m, j) * b ** (k**j) for j in range(m + 1))


def quadratic_parts_on(s):
    """G(s): quadratic parts (sets of monomials x_i*x_j) whose variables are
    exactly a given s-set, the graphs on s vertices without isolated ones,
    by inclusion-exclusion over the vertices covered."""
    return sum((-1) ** (s - j) * comb(s, j) * 2 ** comb(j, 2) for j in range(s + 1))


def deg2_census(n, least=4):
    """(checked, skipped) of the walk of the degree-2 polynomials on n
    variables: a polynomial's variables are those of its quadratic part, a
    nonempty set S, and of its linear part L, and it is checked when
    |S | L| >= least; times 2 constants.  L holds any part of S and i of
    the n - |S| others."""
    checked = 2 * sum(
        comb(n, s) * quadratic_parts_on(s) * 2**s * sum(comb(n - s, i) for i in range(n - s + 1) if s + i >= least)
        for s in range(1, n + 1)
    )
    total = (2 ** comb(n, 2) - 1) * 2 ** (n + 1)
    return checked, total - checked


def test_the_forms_on_small_cases():
    # By hand: x1*x2 is the one quadratic part on {1, 2}; ten Boolean
    # functions depend on both of two variables, all but the constants,
    # x1, x2 and their negations.
    assert [quadratic_parts_on(s) for s in range(5)] == [1, 0, 1, 4, 41]
    assert sum(comb(4, s) * quadratic_parts_on(s) for s in range(5)) == 2 ** comb(4, 2)
    assert depending_on_all(2, 2, 2) == 10 and depending_on_all(2, 2, 1) == 2
    # With least 0 every polynomial is checked.
    assert deg2_census(4, least=0) == ((2**6 - 1) * 2**5, 0)


@pytest.mark.parametrize("n,expected", [(4, (1616, 400)), (5, (64512, 960)), (6, (4192296, 1880))])
def test_deg2_checked_and_skipped(n, expected):
    assert deg2_census(n) == expected
    r = sweep(TheoremId.LEM_DEG2, Exhaustive(2, 2, n))
    assert (r.checked, r.skipped) == expected


@pytest.mark.parametrize("theorem,shape,expected", [
    (TheoremId.THM_SALOMAA_AUX, (2, 2, 4), 64594),
    (TheoremId.LEM_KPLUS1, (2, 2, 4), 64594),
    (TheoremId.THM_GEN, (2, 3, 3), 6342),
])
def test_checked_are_the_functions_depending_on_all_variables(theorem, shape, expected):
    # Each hypothesis reads ess f = n on these shapes: SalomaaAux and
    # LemKplus1 ask for it, and ThmGen's ess f > k = 2 is ess f = 3.
    k, b, n = shape
    assert depending_on_all(k, b, n) == expected
    r = sweep(theorem, Exhaustive(k, b, n), workers=1)
    assert (r.checked, r.skipped) == (expected, b ** (k**n) - expected)


def boolean_gap_two(n):
    """Boolean functions of arity n with ess >= 2 and gap 2, from the
    paper's four forms on the essential variables: 6 per pair (parity 2,
    x_i*x_j + x_i + c 4), 10 per triple (parity 2, triangle 2, triangle
    plus two 6), and 2 per larger set (parity)."""
    return sum(comb(n, m) * (6 if m == 2 else 10 if m == 3 else 2) for m in range(2, n + 1))


def degree_two_with_two_variables(n):
    """Polynomials of degree <= 2 on n variables with at least 2 of them
    occurring: every set of the 1 + n + C(n, 2) monomials, less the
    constants and the 2n of the form x_t + c."""
    return 2 ** (1 + n + comb(n, 2)) - 2 - 2 * n


def test_the_boolean_forms_on_small_cases():
    assert [boolean_gap_two(n) for n in (2, 3, 4)] == [6, 28, 78]
    assert [degree_two_with_two_variables(n) for n in (2, 3, 4)] == [10, 120, 2038]
    # At n = 2 every function with ess 2 has degree <= 2.
    assert degree_two_with_two_variables(2) == depending_on_all(2, 2, 2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_thm_str_asks_the_classifier_on_the_degree_two_polynomials(n, monkeypatch):
    # A gap-1 lane with a monomial of degree >= 3 is settled; every other
    # lane with ess >= 2 reaches the classifier once.
    seen = []
    coef_gap = verifier._coef_gap
    monkeypatch.setattr(verifier, "_coef_gap", lambda coef, n: seen.append(coef) or coef_gap(coef, n))
    r = sweep(TheoremId.THM_STR, Exhaustive(2, 2, n), workers=1)
    assert r.passed
    assert len(seen) == len(set(seen)) == degree_two_with_two_variables(n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_salomaa_main_measures_exactly_the_gap_two_functions(n):
    # The lanes of SalomaaMain's walk of gap 2 are the paper's four forms, and none has gap 3.
    r = sweep(TheoremId.THM_SALOMAA_MAIN, Exhaustive(2, 2, n), workers=1)
    checked, gap2 = sum(comb(n, m) * depending_on_all(2, 2, m) for m in range(2, n + 1)), boolean_gap_two(n)
    assert r.passed and r.checked == checked
    assert gap_scan_census(TheoremId.THM_SALOMAA_MAIN, 2, 2, n) == [checked - gap2, gap2, 0]


def thm1_witnesses_of_arity_two(k):
    """Operations of arity 2 on k elements whose one identification minor,
    x1 = x2, is constant and which depend on both variables: a constant c
    on the k diagonal rows, any values on the k**2 - k others except c on
    all of them, which leaves f constant.  One value off the diagonal other
    than c makes both variables essential, since the diagonal holds c."""
    return k * (k ** (k * k - k) - 1)


@pytest.mark.parametrize("k,expected", [(2, 6), (3, 2184)])
def test_thm1_hits_are_the_witnesses_of_arity_two(k, expected):
    # The walker's hit count for Thm1 is its witness count; nothing is recorded.
    assert thm1_witnesses_of_arity_two(k) == expected
    total = k ** (k * k)
    got = verifier._run_range((TheoremId.THM1, Exhaustive(k, k, 2), DEFAULT_BUDGET, 0, total, 0))
    assert got == (total, 0, expected, [])


def gap_scan_census(key, k, b, n):
    """Lanes of gap 1, 2 and 3 over the blocks of key's walk of every table
    (Thm1: every diagonal code) of shape (k, b, n): the gap-1 kernel's, then
    the gap scan's on each block's lanes of ess >= 2 not yet held."""
    total, _, blocks, _ = verifier._THEOREMS[key].walk(key, Exhaustive(k, b, n), DEFAULT_BUDGET)
    counts = [0, 0, 0]
    for _, lanes, block in blocks(0, total):
        e, meets = _flags(block, k, b, n, lanes, 2)
        gap1 = _gap_at_most(block, k, b, n, lanes, e, meets, 1)[0]
        pending = meets & ~gap1
        counts[0] += gap1.bit_count()
        for gap in (2, 3):
            held = _gap_at_most(block, k, b, n, lanes, e, pending, gap)[0]
            counts[gap - 1] += held.bit_count()
            pending &= ~held
    return counts


@pytest.mark.parametrize("k,b", [(3, 3), (4, 2)])
def test_gap_two_lanes_of_arity_two_have_a_constant_diagonal(k, b):
    # An f of arity 2 has gap 2 iff its one minor, the diagonal x1 = x2, is
    # constant: b constants there, any other values off the diagonal but
    # that constant everywhere.  Every other f with ess 2 has gap 1.
    gap2 = b * (b ** (k * k - k) - 1)
    assert gap2 == {(3, 3): 2184, (4, 2): 8190}[k, b]
    assert depending_on_all(k, b, 2) - gap2 == {(3, 3): 17448, (4, 2): 57316}[k, b]
    # SalomaaAux walks every table of the shape.
    assert gap_scan_census(TheoremId.THM_SALOMAA_AUX, k, b, 2) == [depending_on_all(k, b, 2) - gap2, gap2, 0]


def test_gap_three_lanes_are_the_nonconstant_diagonal_codes():
    # Diagonal code = a constant on the points with a repeated coordinate,
    # any values on the P rainbow points; all its minors are constant, so
    # it has gap ess = 3 unless it is constant.
    k = n = 3
    rainbow = perm(k, n)
    assert k * (k**rainbow - 1) == 2184
    assert gap_scan_census(TheoremId.THM1, k, k, n) == [0, 0, k * (k**rainbow - 1)]


def one_scan_census(key, k, b, n):
    """Lanes of each gap over the blocks of key's walk of every table (Thm1:
    every diagonal code) of shape (k, b, n), from one unbounded gap scan
    per block of its lanes of ess >= 2: a lane's gap is 1 + its cut."""
    total, _, blocks, _ = verifier._THEOREMS[key].walk(key, Exhaustive(k, b, n), DEFAULT_BUDGET)
    width = _lane_width(k**n * field_width(b))
    gaps = Counter()
    for _, lanes, block in blocks(0, total):
        e, meets = _flags(block, k, b, n, lanes, 2)
        least = _gap_at_most(block, k, b, n, lanes, e, meets, 0)[0]
        gaps.update(1 + (least >> m * width & (1 << width) - 1) for m in range(lanes) if meets >> m * width & 1)
    return gaps


def boolean_gap_two(n):
    """Boolean functions of arity n and gap 2 (Salomaa): on each m of the n
    variables, 6 of ess 2 (a constant diagonal x1 = x2), 10 of ess 3 and,
    for m >= 4, parity and its negation."""
    return 6 * comb(n, 2) + 10 * comb(n, 3) + 2 * sum(comb(n, m) for m in range(4, n + 1))


@pytest.mark.parametrize("n,expected", [(2, 6), (3, 28), (4, 78)])
def test_one_scan_finds_the_boolean_gap_two_census(n, expected):
    # SalomaaMain walks every Boolean table of arity n.
    assert boolean_gap_two(n) == expected
    assert one_scan_census(TheoremId.THM_SALOMAA_MAIN, 2, 2, n)[2] == expected


def test_one_scan_finds_gap_three_on_every_nonconstant_diagonal_code():
    k = n = 3
    assert k * (k ** perm(k, n) - 1) == 2184
    assert one_scan_census(TheoremId.THM1, k, k, n) == {3: 2184}


def constant_diagonal(k, b):
    """Functions {0..k-1}^2 -> {0..b-1} of ess 2 whose one minor, x1 = x2,
    is constant: b constants on the k diagonal rows, any values on the
    k**2 - k others but that constant on all of them."""
    return b * (b ** (k * k - k) - 1)


@pytest.mark.parametrize("b,skipped,gap2", [(3, 219, 102), (4, 724, 240), (5, 1805, 460), (8, 12104, 1792)])
def test_thm_gen_walks_every_boolean_arity_three_table_into_b_values(b, skipped, gap2):
    # ThmGen skips the tables of ess <= 2 = k.  Of ess >= 2, gap 2 has each
    # f of ess 2 whose two variables' diagonal minor is constant, and each
    # f of ess 3 that takes two values and is one of the 10 Boolean gap-2
    # functions on them (parity 2, triangle 2, triangle plus two 6); every
    # other has gap 1, and none gap 3.  A table on {0,1}^3 takes at most 8
    # values, and relabelling values injectively keeps ess and the gap, so
    # b = 8 settles arity 3 for every b.
    n, ess2 = 3, comb(3, 2) * depending_on_all(2, b, 2)
    assert sum(comb(n, m) * depending_on_all(2, b, m) for m in range(3)) == skipped
    assert comb(n, 2) * constant_diagonal(2, b) + 10 * comb(b, 2) == gap2
    r = sweep(TheoremId.THM_GEN, Exhaustive(2, b, n), workers=1)
    assert r.passed and (r.checked, r.skipped) == (b**8 - skipped, skipped)
    assert gap_scan_census(TheoremId.THM_GEN, 2, b, n) == [ess2 + r.checked - gap2, gap2, 0]
