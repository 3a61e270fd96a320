"""The lane width at its tightest: core._lane_width(size) = max(size + 1, 8)
gives a table one guard bit, and the counters at least 8 bits.  Every carry
and count kernel runs on blocks whose lanes alternate between all-max tables
and target tables, so a carry or shift that leaks out of a lane shows in its
neighbour, and is checked lane by lane against the oracles.  The shapes lie
under the 8-bit floor ((2,2,1), (2,2,2), (7,2,1)), at the first table that
fills size + 1 bits ((2,2,3)), and at Boolean n = 4, 7, 8, where the
counter's bit n.bit_length() steps; Thm1's witnesses of more than 8 bits
need k >= 3, at (3,3,2)."""

from functools import lru_cache
from itertools import product

import pytest

from aritygap import make_function, verifier
from aritygap.core import _dependence, _ess_lanes, _gap_at_most, _lane_width, _layout, field_width

from oracles import (
    naive_anf_monomials_packed,
    naive_ess,
    naive_essential,
    naive_gap_report,
    naive_kplus1_pair,
    naive_random_table,
    naive_restriction_witness,
    naive_total_collapse,
)
from strategies import decided, gap_claim, gap_two_tables, poly_table

SHAPES = [(2, 2, 1), (2, 2, 2), (7, 2, 1), (2, 2, 3), (2, 2, 4), (2, 2, 7), (2, 2, 8)]
BOOLEAN = [s for s in SHAPES if s[:2] == (2, 2)]
THM1_SHAPES = BOOLEAN + [(3, 3, 2)]
LEASTS = (1, 2, 3, 4)


@lru_cache(maxsize=None)
def _guarded(k, b, n):
    """(fs, block, width): the target tables of the shape, every table when
    there are at most 256, in the odd lanes of a block whose even lanes, the
    lowest and the highest among them, hold the all-max table b - 1."""
    rows = k**n
    if b**rows <= 256:
        targets = [list(t) for t in product(range(b), repeat=rows)]
    elif k > 2:
        # Thm1's witnesses: c on the rows with a repeated coordinate, not constant.
        points = list(product(range(k), repeat=n))
        targets = [[c if len(set(x)) < n else (c + 1 + x[0]) % k for x in points] for c in range(k)]
        targets += [naive_random_table(k, b, n, 17 * n + s) for s in range(6)]
    else:
        # Gap-2 shapes, parity and the cubic x1*x2*x3, the table whose
        # coefficients are all 1 (1 on row 0 only), and random tables.
        targets = gap_two_tables(n) + [poly_table(n, [{1, 2, 3}]), [1] + [0] * (rows - 1)]
        targets += [naive_random_table(k, b, n, 17 * n + s) for s in range(3 if n > 4 else 12)]
    top = make_function(k, b, n, [b - 1] * rows)
    fs = [top]
    for t in targets:
        fs += [make_function(k, b, n, t), top]
    width = _lane_width(rows * field_width(b))
    return fs, sum(f.bits << m * width for m, f in enumerate(fs)), width


def _lanes(width, keep):
    """The block mask (bottom bits) of the lanes m with keep[m]."""
    return sum(1 << m * width for m, x in enumerate(keep) if x)


def _first_steps(scan, k, b, n, block, lanes, width):
    """Each lane's first step (x, y) in the scan of every lane."""
    first = {}
    for x, y, kept in scan(block, k, b, n, lanes, _lanes(width, [True] * lanes)):
        for m in range(lanes):
            if kept >> m * width & 1:
                assert m not in first
                first[m] = (x, y)
    return first


@pytest.mark.parametrize("k,b,n", SHAPES)
class TestCountKernels:
    """core's dependence carry, its count and its gap scan."""

    def test_dependence_and_ess_lanes(self, k, b, n):
        fs, block, width = _guarded(k, b, n)
        flags = _dependence(block, k, b, n, len(fs))
        for t in range(n):
            assert flags[t] == _lanes(width, [naive_essential(f, t + 1) for f in fs]), t
        ones, counts = _layout(k, field_width(b), n, len(fs))[3], [naive_ess(f) for f in fs]
        for least in LEASTS:
            assert _ess_lanes(flags, ones, least) == _lanes(width, [c >= least for c in counts]), least

    @pytest.mark.parametrize("gap", [1, 2])
    def test_gap_at_most(self, k, b, n, gap):
        fs, block, width = _guarded(k, b, n)
        gaps = [naive_gap_report(f)[2] if naive_ess(f) >= 2 else None for f in fs]
        held = _lanes(width, [g is not None and g <= gap for g in gaps])
        e, everyone = _dependence(block, k, b, n, len(fs)), _lanes(width, [True] * len(fs))
        # The all-max lanes are constant, never held: no pair is returned.
        assert _gap_at_most(block, k, b, n, len(fs), e, everyone, gap) == (held, None)
        if gap == 1:
            for least in LEASTS:
                meets = _lanes(width, [naive_ess(f) >= least for f in fs])
                assert decided(gap_claim(1), block, k, b, n, len(fs), least) == (meets, meets & held), least


class TestTableKernels:
    """verifier's Moebius carry, Thm1's row-0 carries and the two scans."""

    @pytest.mark.parametrize("k,b,n", BOOLEAN)
    def test_cubic_lanes(self, k, b, n):
        fs, block, width = _guarded(k, b, n)
        cubic = [any(len(m) >= 3 for m in naive_anf_monomials_packed(f)) for f in fs]
        assert verifier._cubic_lanes(block, n, len(fs)) == _lanes(width, cubic)

    @pytest.mark.parametrize("k,b,n", THM1_SHAPES)
    def test_thm1_lanes(self, k, b, n):
        fs, block, width = _guarded(k, b, n)
        everyone, witnesses = _lanes(width, [True] * len(fs)), [naive_total_collapse(f) for f in fs]
        assert any(witnesses) == (n <= k)
        witness = _lanes(width, witnesses)
        got = decided(verifier._thm1_claim, block, k, b, n, len(fs), n, verifier._every_lane)
        assert got == (everyone, everyone ^ witness)

    @pytest.mark.parametrize("k,b,n", SHAPES)
    def test_restriction_scan(self, k, b, n):
        fs, block, width = _guarded(k, b, n)
        first = _first_steps(verifier._restriction_scan, k, b, n, block, len(fs), width)
        witnesses = [naive_restriction_witness(f) for f in fs]
        assert first == {m: w for m, w in enumerate(witnesses) if w}

    @pytest.mark.parametrize("k,b,n", [s for s in SHAPES if s[2] > s[0]])
    def test_kplus1_scan(self, k, b, n):
        fs, block, width = _guarded(k, b, n)
        first = _first_steps(verifier._kplus1_scan, k, b, n, block, len(fs), width)
        pairs = [naive_kplus1_pair(f) for f in fs]
        assert first == {m: p for m, p in enumerate(pairs) if p}
