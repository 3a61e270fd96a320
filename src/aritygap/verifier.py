"""Exhaustive and sampled sweeps checking each statement of the theory.

Every sweep walks a deterministic population (all tables of a shape, all
degree-2 polynomials, or seeded samples), decides each member's hypothesis
and claim by one lane kernel per statement, and reports counterexamples.
Populations are indexable, so large sweeps partition the index range
across worker processes and merge chunk results in order; reports are
bit-identical across runs except for the elapsed time.
"""

from __future__ import annotations

import math
import os
import time
from collections import namedtuple
from enum import Enum
from functools import partial
from itertools import permutations

from .anf import _moebius, degree, to_anf
from .classify import _coef_gap
from .core import (
    DEFAULT_BUDGET,
    FiniteFunction,
    _depends,
    _ess_lanes,
    _gap1_lanes,
    _identified,
    _layout,
    decode_index,
    encode_point,
    ess,
    essential_vars,
    field_width,
    from_code,
    gap_report,
    power_exceeds,
    table_size,
)
from .errors import (
    BudgetExceeded,
    HypothesisNotMet,
    NotBoolean,
    NotTotallyEssential,
    SpecInvalid,
    ValueOutOfRange,
)
from .generators import _BLOCK, SplitMix64, random_function, random_lanes, substream_seed


class TheoremId(Enum):
    THM1 = "Thm1"
    THM_SALOMAA_MAIN = "ThmSalomaaMain"
    THM_GEN = "ThmGen"
    THM_SALOMAA_AUX = "ThmSalomaaAux"
    LEM_KPLUS1 = "LemKplus1"
    THM_STR = "ThmStr"
    LEM_DEG2 = "LemDeg2"


class Exhaustive(namedtuple("Exhaustive", "k b n")):
    """Every table of shape (k, b, n); for LemDeg2, every degree-2
    polynomial on n variables instead, and for Thm1 every table or, when
    those exceed the budget, every diagonal code."""

    __slots__ = ()


class Sampled(namedtuple("Sampled", "k b n count seed reject_until_hypothesis", defaults=(False,))):
    """count seeded samples of shape (k, b, n); sample i is drawn from the
    derived stream substream_seed(seed, i), for Thm1 as a diagonal code.
    With reject_until_hypothesis, each sample is redrawn until it satisfies
    the theorem's hypothesis, so nothing is skipped."""

    __slots__ = ()


class SweepReport(namedtuple("SweepReport", "theorem population checked skipped violation_count violations"
                                            " witnesses exhaustive passed elapsed_s")):
    """Outcome of one sweep: the statement checked, the population walked,
    the counts of members checked, skipped and failing the claim, up to
    max_recorded of the failing members (violations) or of Thm1's witnesses
    as FiniteFunctions, whether the walk was exhaustive, whether the sweep
    passed, and its wall time in seconds."""

    __slots__ = ()

    def to_dict(self) -> dict:
        d = {"schema": "aritygap/1"}
        d.update(self._asdict())
        d.update(theorem=self.theorem.value, violations=[_function_dict(f) for f in self.violations],
                 witnesses=[_function_dict(f) for f in self.witnesses])
        return d


def _function_dict(f: FiniteFunction) -> dict:
    return {"k": f.k, "b": f.b, "n": f.n, "table": list(f.table)}


# ---------------------------------------------------------------------------
# theorem records
# ---------------------------------------------------------------------------


class _Theorem(namedtuple("_Theorem", "above_k total boolean walk lanes least degree", defaults=(None, 2, None))):
    """One statement: a hypothesis on f, the lane kernel of its claim, and
    walk(key, population, budget) -> (member count, the report's population,
    members(lo, hi) yielding counted runs (f, outcome, count)), which refuses
    what it cannot walk.  A hit is yielded alone, with its f and count 1.

    lanes(block, k, b, n, lanes, least) -> (meets, holds) takes tables of
    shape (k, b, n) laid out as in core._layout and returns the lanes with
    ess f >= least and those of them where the claim holds: on blocks in
    sweeps, on one lane for one f.  Thm1, existential, has no kernel.

    The hypothesis is ess f >= min_ess(k, n), plus k = b = 2 when boolean
    and a polynomial of that degree when degree is set.  A shape is feasible
    iff k, b >= 2 and n >= min_ess(k, n): then some f depends on all n
    variables, and for n >= 2 one of degree 2 does, x1*x2 + x3 + ... + xn.
    """

    __slots__ = ()

    def min_ess(self, k: int, n: int) -> int:
        return max(k + 1 if self.above_k else self.least, n if self.total else 0)

    def need(self) -> str:
        return ((f"degree {self.degree}, " if self.degree else "") + "ess f" + (" = n" if self.total else "")
                + (" > k" if self.above_k else f" >= {self.least}"))

    def require_shape(self, name: str, k: int, b: int) -> None:
        if self.boolean and (k != 2 or b != 2):
            raise NotBoolean(f"{name} needs k = b = 2, got k={k} b={b}")


def _require(key, f: FiniteFunction, claim: bool = True) -> int:
    """f's outcome under key's record, once f is found to meet its
    hypothesis; without claim, _OK then, and the claim is left undecided."""
    spec = _THEOREMS[key]
    spec.require_shape(key.value, f.k, f.b)
    outcome = _outcome(key, f) if claim else _OK if ess(f) >= spec.min_ess(f.k, f.n) else _SKIP
    if outcome == _SKIP or spec.degree is not None and degree(to_anf(f)) != spec.degree:
        error = NotTotallyEssential if spec.total else HypothesisNotMet
        got = f"ess={ess(f)} n={f.n} k={f.k}" + (f" degree={degree(to_anf(f))}" if spec.degree else "")
        raise error(f"{key.value} needs {spec.need()}, got {got}")
    return outcome


def _outcome(key, f: FiniteFunction) -> int:
    """f's check outcome: its record's kernel on one lane."""
    spec = _THEOREMS[key]
    meets, holds = spec.lanes(f.bits, f.k, f.b, f.n, 1, spec.min_ess(f.k, f.n))
    return _OK if holds else _HIT if meets else _SKIP


def check(theorem: TheoremId, f: FiniteFunction) -> bool:
    """Whether the theorem's claim holds for f.

    Raises HypothesisNotMet (NotBoolean, NotTotallyEssential) when f misses
    the hypothesis, and SpecInvalid for Thm1, which has no per-function claim.
    """
    if _THEOREMS[theorem].lanes is None:
        raise SpecInvalid(f"{theorem.value} has no per-function check; sweep it")
    return _require(theorem, f) == _OK


def find_restriction_witness(f: FiniteFunction) -> tuple[int, int] | None:
    """First (j, c), j then c ascending, such that fixing variable j to c
    leaves a function depending on all remaining n - 1 variables.

    None means every restriction was tried without a hit, which would
    contradict the theory; sweeps record that as a violation.
    """
    # The hypothesis alone, so that the scan runs once.
    _require(TheoremId.THM_SALOMAA_AUX, f, claim=False)
    return next(((j, c) for j, c, _ in _restriction_scan(f.bits, f.k, f.b, f.n, 1, 1)), None)


def check_kplus1_lemma(f: FiniteFunction) -> tuple[int, int] | None:
    """First pair 1 <= i < j <= k+1 whose identification minor keeps one of
    the first k+1 variables essential; None would contradict the lemma."""
    _require(TheoremId.LEM_KPLUS1, f, claim=False)
    return next(((i, j) for i, j, _ in _kplus1_scan(f.bits, f.k, f.b, f.n, 1, 1)), None)


def _restriction_scan(block: int, k: int, b: int, n: int, lanes: int, pending: int):
    """(j, c, kept), j (1-based) then c ascending: the lanes of pending
    whose table with x_j fixed to c still depends on the other n - 1
    variables.  A lane leaves pending at its first (j, c)."""
    w = field_width(b)
    zeros, strides, lower, ones, fill = _layout(k, w, n, lanes)
    for j in range(n):
        for c in range(k):
            if not pending:
                return
            # Fixing x_j = c keeps x_t iff a row of D_t(0) & D_j(c) differs
            # from the row raising x_t: the table masked to D_j(c) shows that.
            fixed, kept = block & (zeros[j] >> c * strides[j]), pending
            for t in range(n):
                if t != j and kept:
                    kept &= _depends(fixed, k**n * w, ones, fill, strides[t], lower[t])
            if kept:
                yield j + 1, c, kept
                pending &= ~kept


def _kplus1_scan(block: int, k: int, b: int, n: int, lanes: int, pending: int):
    """(i, j, kept), pairs 1 <= i < j <= k+1 in lex order: the lanes of
    pending whose minor identifying x_i with x_j keeps one of x_1, ...,
    x_{k+1} essential.  A lane leaves pending at its first pair; with none
    pending, as whenever n <= k, the scan ends before it reads a mask."""
    w = field_width(b)
    zeros, strides, lower, ones, fill = _layout(k, w, n, lanes)
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            if not pending:
                return
            minor, kept = _identified(block, k, zeros, strides, i, j), 0
            for t in range(k + 1):
                kept |= _depends(minor, k**n * w, ones, fill, strides[t], lower[t])
            if kept & pending:
                yield i + 1, j + 1, kept & pending
                pending &= ~kept


def _scan_lanes(scan, block: int, k: int, b: int, n: int, lanes: int, least: int) -> tuple[int, int]:
    """The kernel of the claim that some step of the scan keeps f: the scan
    keeps each lane at one step at most, so its kept lanes add up."""
    w = field_width(b)
    _, strides, lower, ones, fill = _layout(k, w, n, lanes)
    flags = [_depends(block, k**n * w, ones, fill, s, low) for s, low in zip(strides, lower)]
    meets = _ess_lanes(flags, ones, least)
    return meets, sum(kept for *_, kept in scan(block, k, b, n, lanes, meets))


# A hit is a member failing the claim, or for Thm1 a witness.
_OK, _SKIP, _HIT = 0, 1, 2


# ---------------------------------------------------------------------------
# populations
# ---------------------------------------------------------------------------


def _sampled_total(pop: Sampled, budget: int) -> int:
    """The sample count, after checking it and the table size against the budget."""
    if pop.count > budget:
        raise BudgetExceeded(f"sample count {pop.count} exceeds budget {budget}")
    table_size(pop.k, pop.n, budget)
    return pop.count


def _table_walk(key, pop, budget: int):
    """Every table of the shape by code, or the samples by index, in blocks."""
    k, b, n = pop.k, pop.b, pop.n
    spec = _THEOREMS[key]
    if isinstance(pop, Exhaustive):
        size = table_size(k, n, budget)
        if power_exceeds(b, size, budget):
            raise BudgetExceeded(f"{b}**{size} tables exceed budget {budget}; use a sampled sweep")
        total = b**size
        desc = f"exhaustive k={k} b={b} n={n} ({total} tables)"
    else:
        total = _sampled_total(pop, budget)
        # Refuse a shape where rejection sampling could never stop.
        if pop.reject_until_hypothesis and (k < 2 or b < 2 or n < spec.min_ess(k, n)):
            raise HypothesisNotMet(
                f"{key.value} hypothesis holds for no function with k={k} b={b} n={n}"
                f" (needs {spec.need()})"
            )
        desc = (f"sampled k={k} b={b} n={n} count={pop.count} seed={pop.seed} "
                f"reject_until_hypothesis={pop.reject_until_hypothesis}")
    return total, desc, partial(_lane_members, key, pop, budget, partial(_table_blocks, pop, budget))


def _member(key, pop, index: int, budget: int) -> tuple[FiniteFunction, int]:
    """Sample index redrawn from attempt 1 of its rejection stream (its block
    drew attempt 0) until one is not skipped, 10000 draws in all; and its outcome."""
    base = substream_seed(pop.seed, index)
    for attempt in range(1, 10000):
        f = random_function(pop.k, pop.b, pop.n, substream_seed(base, attempt), budget)
        outcome = _outcome(key, f)
        if outcome != _SKIP:
            return f, outcome
    raise HypothesisNotMet(
        f"rejection sampling found no function satisfying {key.value} in 10000 draws"
    )


def _table_blocks(pop, budget: int, lo: int, hi: int):
    """Tables lo..hi-1 as blocks (start, count, lanes, block) of 1024 // k**n
    (at least one) lanes, as in core._layout: lane m holds member start + m
    and lanes from count on are zero.  Exhaustive codes are the tables for b
    a power of two, else from_code decodes them; the samples of a block
    (attempt 0 of each rejection stream) are one random_lanes call.  A k = 1
    lane is too narrow for core._ess_lanes's carry: alone."""
    k, b, n = pop.k, pop.b, pop.n
    lanes, width = max(1, _BLOCK // k**n) if k > 1 else 1, 2 * k**n * field_width(b)
    ones = _layout(k, field_width(b), n, lanes)[3]
    sampled = isinstance(pop, Sampled)
    reject = sampled and pop.reject_until_hypothesis
    ramp = sum(m << m * width for m in range(lanes))  # lane m holds m
    for start in range(lo, hi, lanes):
        count = min(lanes, hi - start)
        if sampled:
            seeds = [substream_seed(pop.seed, i) for i in range(start, start + count)]
            block = random_lanes(k, b, n, [substream_seed(s, 0) for s in seeds] if reject else seeds, budget)
        elif b & (b - 1):
            block = sum(from_code(k, b, n, start + m).bits << m * width for m in range(count))
        else:
            block = (start * ones + ramp) & (1 << count * width) - 1
        yield start, count, lanes, block


def _lane_members(key, pop, budget: int, blocks, lo: int, hi: int):
    """Members lo..hi-1 from the blocks (start, count, lanes, block) that
    blocks(lo, hi) yields, the record's kernel deciding every lane at once.
    Hits, and samples whose attempt 0 rejection must redraw, are yielded
    alone in index order; the rest as counted runs."""
    spec, k, b, n = _THEOREMS[key], pop.k, pop.b, pop.n
    size = k**n * field_width(b)
    width, table, least = 2 * size, (1 << size) - 1, spec.min_ess(k, n)
    reject = isinstance(pop, Sampled) and pop.reject_until_hypothesis
    for start, count, lanes, block in blocks(lo, hi):
        meets, holds = spec.lanes(block, k, b, n, lanes, least)
        redraw = _layout(k, field_width(b), n, lanes)[3] & (1 << count * width) - 1 & ~meets if reject else 0
        for m in _set_lanes(meets & ~holds | redraw, width):
            if redraw >> m * width & 1:
                yield (*_member(key, pop, start + m, budget), 1)
            else:
                yield FiniteFunction(k, b, n, block >> m * width & table), _HIT, 1
        for outcome, c in ((_OK, holds.bit_count()), (_SKIP, 0 if reject else count - meets.bit_count())):
            if c:
                yield None, outcome, c


def _set_lanes(x: int, width: int):
    """The lanes, ascending, whose bottom bit is set in x."""
    while x:
        low = x & -x
        yield (low.bit_length() - 1) // width
        x ^= low


def _gap_lanes(claim, block: int, k: int, b: int, n: int, lanes: int, least: int) -> tuple[int, int]:
    """The kernel of claim(gap, k, coefficient table, n): a lane's gap is 1
    on the lanes the gap-1 kernel returns, and gap_report measures the rest.
    Coefficient tables are taken on Boolean shapes only, and read 0 else."""
    meets, gap1 = _gap1_lanes(block, k, b, n, lanes, least)
    coef = _moebius(block, n, lanes) if k == b == 2 else 0
    size = k**n * field_width(b)
    width, table = 2 * size, (1 << size) - 1
    good = 0
    for m in _set_lanes(meets, width):
        lane = 1 << m * width
        gap = 1 if gap1 & lane else gap_report(FiniteFunction(k, b, n, block >> m * width & table)).gap
        if claim(gap, k, coef >> m * width & table, n):
            good |= lane
    return meets, good


def _var_masks(n: int) -> tuple[int, ...]:
    """For each variable t, the packed Boolean table of x_t: D_t(1)."""
    zeros, strides, _, _, _ = _layout(2, 1, n, 1)
    return tuple(z >> s for z, s in zip(zeros, strides))


def _deg2_walk(key, pop, budget: int):
    """Every degree-2 polynomial on n variables by candidate index."""
    if isinstance(pop, Sampled):
        raise SpecInvalid("LemDeg2 sweeps enumerate polynomials; use Exhaustive")
    n = pop.n
    npairs = n * (n - 1) // 2
    # At least 2**(npairs + n) candidates whenever there is a pair.
    if npairs and power_exceeds(2, npairs + n, budget):
        raise BudgetExceeded(f"degree-2 polynomials on n={n} variables exceed budget {budget}")
    total = ((1 << npairs) - 1) << (n + 1)
    if total > budget:
        raise BudgetExceeded(f"{total} polynomials exceed budget {budget}")
    desc = f"exhaustive degree-2 polynomials on n={n} variables ({total} candidates)"
    return total, desc, partial(_lane_members, key, pop, budget, partial(_deg2_blocks, n))


def _deg2_blocks(n: int, lo: int, hi: int):
    """Degree-2 polynomials (quadratic part, linear part, constant) lo..hi-1
    by candidate index, quadratic part slowest, in blocks as _table_blocks:
    a quadratic part's 2**(n+1) candidates are one block, lane 2 * linear
    part + constant, shifted to lane 0 and masked when lo..hi cuts it."""
    # 2**n linear parts times 2 constants; each lane holds a table and as many padding bits.
    lanes, width, all_ones = 2 << n, 2 << n, (1 << (1 << n)) - 1
    ones = _layout(2, 1, n, lanes)[3]
    vm = _var_masks(n)
    pairs = [vm[s] & vm[t] for s in range(n) for t in range(s + 1, n)]  # x_s*x_t, lex order
    lmasks = [0]  # lmasks[lset]: XOR of x_{t+1} over the bits t of lset
    for m in vm:
        lmasks += [x ^ m for x in lmasks]
    # Every linear part lset and constant c, in lane 2 * lset + c.
    lin = sum((x | (x ^ all_ones) << width) << 2 * width * lset for lset, x in enumerate(lmasks))
    for q_idx in range(lo // lanes + 1, (hi - 1) // lanes + 2):
        base = (q_idx - 1) * lanes
        a, b = max(lo - base, 0), min(hi - base, lanes)
        q_mask = 0
        for p, pm in enumerate(pairs):
            if q_idx >> p & 1:
                q_mask ^= pm
        block = q_mask * ones ^ lin
        if b - a < lanes:
            block = block >> a * width & (1 << (b - a) * width) - 1
        yield base + a, b - a, lanes, block


# Thm1 asks for operations with ess f = n whose identification minors are all
# constant.  Those minors are constant iff f is constant on the points with a
# repeated coordinate, so every witness lies in the diagonal family: one
# constant there and free values on the rainbow points, whose coordinates are
# pairwise distinct.  Diagonal code i holds (constant, rainbow values) as base-k
# digits, constant most significant, rainbow points in ascending row order.


def _thm1_walk(key, pop, budget: int):
    """Thm1's codes, each of `digits` base-k digits: member i is table code i
    in a full search, diagonal code i in a diagonal one and a drawn diagonal
    code in a diagonal-sampled one."""
    k, n = pop.k, pop.n
    sampled = isinstance(pop, Sampled)
    if sampled:
        if pop.reject_until_hypothesis:
            raise SpecInvalid("Thm1 searches for witnesses; it has no hypothesis to resample")
        _sampled_total(pop, budget)
    if pop.b != k:
        raise SpecInvalid("total-collapse witnesses are operations: need b = k")
    size = table_size(k, n, budget)
    digits = math.perm(k, n) + 1
    if sampled:
        mode = "diagonal-sampled"
    elif not power_exceeds(k, size, budget):
        mode, digits = "full", size
    elif not power_exceeds(k, digits, budget):
        mode = "diagonal"
    else:
        raise BudgetExceeded(f"{k}**{size} tables and {k}**{digits} diagonal codes exceed"
                             f" budget {budget}; use a sampled sweep")
    total = pop.count if sampled else k**digits
    desc = f"{mode} search k={k} n={n} space={f'{k}**{digits}' if sampled else total}"
    return total, desc, partial(_thm1_members, pop, mode, digits)


def _thm1_members(pop, mode: str, digits: int, lo: int, hi: int):
    """Thm1's members lo..hi-1; the hits are the total-collapse witnesses."""
    k, n = pop.k, pop.n
    size, w = k**n, field_width(k)
    top = (size - 1) * w
    field = (1 << w) - 1
    ones = ((1 << size * w) - 1) // field  # a 1 in every field
    # The rainbow rows' offsets in the table's binary text, and each value's field.
    rainbow = [encode_point(p, k) * w for p in permutations(range(k), n)]
    text = [format(v, f"0{w}b").encode() for v in range(k)]

    def fill(const: int, values) -> int:
        """The table holding const on the rows with a repeated coordinate
        and values on the rainbow rows, written as binary text of size * w
        digits, in time linear in its size."""
        if not rainbow:
            return const * ones
        line = bytearray(format(const, f"0{w}b").encode()) * size
        for at, v in zip(rainbow, values):
            line[at : at + w] = text[v]
        return int(line, 2)

    def diagonal(code: int) -> FiniteFunction:
        const, *values = decode_index(code, k, digits)
        return FiniteFunction(k, k, n, fill(const, values))

    repeated = fill(field, [0] * len(rainbow))  # all-ones fields off the rainbow rows
    build = partial(from_code, k, k, n) if mode == "full" else diagonal
    sampled, space = isinstance(pop, Sampled), k**digits
    for i in range(lo, hi):
        f = build(SplitMix64(substream_seed(pop.seed, i)).below(space) if sampled else i)
        # Row 0 has a repeated coordinate whenever any row does.
        filled = (f.bits >> top) * ones
        collapses = f.bits & repeated == filled & repeated
        witness = collapses and f.bits != filled and len(essential_vars(f)) == n
        yield f, _HIT if witness else _OK, 1


# _Theorem(above_k, total, boolean, walk, lanes, ...) per statement.  Thm1 is
# existential and checked by its witness search.
_THEOREMS = {
    TheoremId.THM1: _Theorem(False, True, False, _thm1_walk),
    TheoremId.THM_SALOMAA_MAIN: _Theorem(False, False, True, _table_walk,
                                         partial(_gap_lanes, lambda gap, *_: gap <= 2)),
    TheoremId.THM_GEN: _Theorem(True, False, False, _table_walk,
                                partial(_gap_lanes, lambda gap, k, *_: gap <= k)),
    TheoremId.THM_SALOMAA_AUX: _Theorem(False, True, False, _table_walk,
                                        partial(_scan_lanes, _restriction_scan)),
    TheoremId.LEM_KPLUS1: _Theorem(True, True, False, _table_walk, partial(_scan_lanes, _kplus1_scan)),
    # The classifier's gap, read from the coefficient table, is the gap.
    TheoremId.THM_STR: _Theorem(False, False, True, _table_walk,
                                partial(_gap_lanes, lambda gap, k, coef, n: _coef_gap(coef, n) == gap)),
    # A polynomial of degree 2 with at least four essential variables has
    # gap 1.  The kernel is looked up at each call, so it can be replaced.
    TheoremId.LEM_DEG2: _Theorem(False, False, True, _deg2_walk, lambda *args: _gap1_lanes(*args), 4, 2),
}
# The gap >= 3 search, keyed apart from the theorems: ThmGen's hypothesis,
# and its hits are the functions that fail the claim.
_Search = Enum("_Search", {"GAP3": "Gap3Search"})
_THEOREMS[_Search.GAP3] = _THEOREMS[TheoremId.THM_GEN]._replace(lanes=partial(_gap_lanes, lambda gap, *_: gap < 3))


def _run_range(args):
    key, pop, budget, lo, hi, max_recorded = args
    counts = [0, 0, 0]  # per outcome
    recorded: list[FiniteFunction] = []
    for f, outcome, count in _THEOREMS[key].walk(key, pop, budget)[2](lo, hi):
        counts[outcome] += count
        if outcome == _HIT and len(recorded) < max_recorded:
            recorded.append(f)
    return counts[_OK] + counts[_HIT], counts[_SKIP], counts[_HIT], recorded


# ---------------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------------

_PARALLEL_THRESHOLD = 200_000


def sweep(
    theorem: TheoremId,
    population,
    budget: int = DEFAULT_BUDGET,
    workers: int | None = None,
    max_recorded: int = 10,
) -> SweepReport:
    """Run one theorem sweep and return its report.

    Deterministic up to elapsed_s: exhaustive populations are walked in
    table-code order, sampled ones by sample index, and chunked worker
    results are merged in chunk order.  Each member that meets the
    theorem's hypothesis is checked against its claim; the rest are skipped.
    Thm1 checks every member and records its witnesses instead.
    """
    start = time.perf_counter()
    if not isinstance(population, (Exhaustive, Sampled)):
        raise SpecInvalid(f"unknown population spec {population!r}")
    k, b, n = population.k, population.b, population.n
    if min(k, b, n) < 1:
        raise ValueOutOfRange(f"k, b and n must be >= 1, got k={k} b={b} n={n}")
    exhaustive = isinstance(population, Exhaustive)
    if not exhaustive and population.count < 1:
        raise SpecInvalid(f"sample count must be >= 1, got {population.count}")
    if workers is not None and workers < 1:
        raise SpecInvalid(f"workers must be >= 1, got {workers}")
    spec = _THEOREMS[theorem]
    spec.require_shape(theorem.value, k, b)
    total, desc, _ = spec.walk(theorem, population, budget)

    nworkers = workers if workers is not None else max(1, min(os.cpu_count() or 1, 8))
    if total >= _PARALLEL_THRESHOLD and nworkers > 1:
        bounds = _chunk_bounds(total, nworkers * 4)
        tasks = [(theorem, population, budget, lo, hi, max_recorded) for lo, hi in bounds]
        import multiprocessing  # here only: a serial sweep or CLI call never pays for it

        with multiprocessing.Pool(nworkers) as pool:
            parts = pool.map(_run_range, tasks)
    else:
        parts = [_run_range((theorem, population, budget, 0, total, max_recorded))]

    checked = sum(p[0] for p in parts)
    hits = sum(p[2] for p in parts)
    recorded = tuple(f for p in parts for f in p[3])[:max_recorded]
    if spec.lanes is None:
        # Thm1 guarantees a witness for n <= k; a complete search that finds
        # none would disprove it.
        passed = not (exhaustive and n <= k and hits == 0)
        vcount, violations, witnesses = 0, (), recorded
    else:
        passed = hits == 0 and checked > 0
        vcount, violations, witnesses = hits, recorded, ()
    return SweepReport(
        theorem=theorem, population=desc, checked=checked, skipped=sum(p[1] for p in parts),
        violation_count=vcount, violations=violations, witnesses=witnesses,
        exhaustive=exhaustive, passed=passed, elapsed_s=time.perf_counter() - start,
    )


def _chunk_bounds(total: int, chunks: int) -> list[tuple[int, int]]:
    step = (total + chunks - 1) // chunks
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]
