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
from functools import lru_cache, partial
from itertools import islice, permutations

from .anf import _moebius, degree, to_anf
from .classify import _coef_gap, _cubic
from .core import (
    DEFAULT_BUDGET,
    FiniteFunction,
    _dependence,
    _depends,
    _ess_lanes,
    _gap_lanes,
    _identified,
    _lane_width,
    _layout,
    _spaced_ones,
    decode_index,
    encode_point,
    ess,
    field_width,
    from_code,
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
from .generators import GOLDEN, SplitMix64, _mixed, _substream_seeds, random_lanes, substream_seed


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
    With reject_until_hypothesis, attempt a of sample i is drawn from
    substream_seed(substream_seed(seed, i), a) for a = 0, 1, ... until one
    satisfies the theorem's hypothesis (10000 draws at most), so nothing is
    skipped."""

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
    blocks(lo, hi) yielding blocks as _code_blocks does), which refuses
    what it cannot walk; _run_range runs the kernel on the blocks.

    lanes(block, k, b, n, lanes, least) -> (meets, holds) takes tables of
    shape (k, b, n) laid out as in core._layout and returns the lanes with
    ess f >= least and those of them where the claim holds: on blocks in
    sweeps, on one lane for one f.  Thm1's meets are all lanes; LemDeg2's
    blocks are its walk's, each lane a polynomial of one quadratic part.

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


def _require(key, f: FiniteFunction, claim: bool = True) -> bool:
    """Whether f's claim holds under key's record, its kernel on one lane, once
    f is found to meet its hypothesis; without claim, True then, and the claim
    is left undecided."""
    spec = _THEOREMS[key]
    spec.require_shape(key.value, f.k, f.b)
    least = spec.min_ess(f.k, f.n)
    meets, holds = spec.lanes(f.bits, f.k, f.b, f.n, 1, least) if claim else (ess(f) >= least, True)
    if not meets or spec.degree is not None and degree(to_anf(f)) != spec.degree:
        error = NotTotallyEssential if spec.total else HypothesisNotMet
        got = f"ess={ess(f)} n={f.n} k={f.k}" + (f" degree={degree(to_anf(f))}" if spec.degree else "")
        raise error(f"{key.value} needs {spec.need()}, got {got}")
    return bool(holds)


def check(theorem: TheoremId, f: FiniteFunction) -> bool:
    """Whether the theorem's claim holds for f.

    Raises HypothesisNotMet (NotBoolean, NotTotallyEssential) when f misses
    the hypothesis, and SpecInvalid for Thm1, which has no per-function claim.
    """
    if theorem is TheoremId.THM1:
        raise SpecInvalid(f"{theorem.value} has no per-function check; sweep it")
    return _require(theorem, f)


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
    flags = _dependence(block, k, b, n, lanes)
    meets = _ess_lanes(flags, _layout(k, field_width(b), n, lanes)[3], least)
    return meets, sum(kept for *_, kept in scan(block, k, b, n, lanes, meets))


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
        return total, f"exhaustive k={k} b={b} n={n} ({total} tables)", partial(_code_blocks, pop, total)
    total = _sampled_total(pop, budget)
    # Refuse a shape where rejection sampling could never stop.
    if pop.reject_until_hypothesis and (k < 2 or b < 2 or n < spec.min_ess(k, n)):
        raise HypothesisNotMet(
            f"{key.value} hypothesis holds for no function with k={k} b={b} n={n}"
            f" (needs {spec.need()})"
        )
    return total, (f"sampled k={k} b={b} n={n} count={pop.count} seed={pop.seed} "
                   f"reject_until_hypothesis={pop.reject_until_hypothesis}"), partial(_table_blocks, pop, budget)


def _code_blocks(pop, total: int, lo: int, hi: int, bits=None):
    """Codes lo..hi-1 of a walk of total codes in whole blocks (start, lanes,
    block) as in core._layout: lane m holds bits(start + m), from_code's table
    unless bits is given.  A code's base-b digits have fields of their own, so
    bits(start + m) = bits(start) + bits(m) for start a multiple of r**d and
    m < r**d, r = 2 for b a power of two (a code bit is a table bit), else b.
    A block is r**d such lanes, d the largest that min(_KERNEL_BLOCK // k**n,
    total) admits: one decode plus the ramp of bits(m), built once per walk.
    A k = 1 lane is too narrow for _ess_lanes: alone."""
    k, b, n = pop.k, pop.b, pop.n
    bits = bits or (lambda code: from_code(k, b, n, code).bits)
    r, width = 2 if b & (b - 1) == 0 else b, _lane_width(k**n * field_width(b))
    cap, lanes, ones, ramp = min(_KERNEL_BLOCK // k**n, total) if k > 1 else 1, 1, 1, 0
    while lanes * r <= cap:  # run c of the next ramp is this one raised by bits(c * lanes)
        ramp = sum((ramp + bits(c * lanes) * ones) << c * lanes * width for c in range(r))
        ones, lanes = ones * _spaced_ones(r, lanes * width), lanes * r
    for start in range(lo - lo % lanes, hi, lanes):
        yield start, lanes, bits(start) * ones + ramp


def _table_blocks(pop, budget: int, lo: int, hi: int, table=None):
    """Samples lo..hi-1 as blocks (start, lanes, block) of _KERNEL_BLOCK // k**n
    lanes, or hi - lo if fewer, as in core._layout: lane m holds sample start + m,
    table(start + m) if given, and none past hi is drawn, so a last block's lanes
    there are zero.  Else a block's samples (attempt 0 of each rejection stream)
    are one random_lanes call of several shared passes.  A k = 1 sample: alone."""
    k, b, n = pop.k, pop.b, pop.n
    lanes, width = max(1, min(_KERNEL_BLOCK // k**n, hi - lo)) if k > 1 else 1, _lane_width(k**n * field_width(b))
    for start in range(lo, hi, lanes):
        count = min(lanes, hi - start)
        if table:
            block = _pack([table(start + m) for m in range(count)], width)
        else:
            seeds = _substream_seeds(pop.seed, start, count, pop.reject_until_hypothesis)
            block = random_lanes(k, b, n, seeds, count, budget)
        yield start, lanes, block


def _pack(values, width: int) -> int:
    """sum(v << m * width for m, v in enumerate(values)), built by joining
    neighbours pairwise into lanes twice as wide: linear time per round."""
    values = list(values)
    while len(values) > 1:
        values = [lo | hi << width for lo, hi in zip(values[::2], values[1::2] + [0])]
        width *= 2
    return values[0] if values else 0


def _set_lanes(x: int, width: int):
    """The lanes, ascending, whose bottom bit is set in x, x holding no other bit: one
    scan of its bytes, each holding one bottom bit at most, as lanes are 8 bits wide at least."""
    data = x.to_bytes(-(-x.bit_length() // 8), "little")
    flags = data.translate(_NONZERO)
    at = flags.find(b"1")
    while at >= 0:
        yield (8 * at + data[at].bit_length() - 1) // width
        at = flags.find(b"1", at + 1)


def _cubic_lanes(block: int, n: int, lanes: int) -> int:
    """The lanes (bottom bits, as in _layout) of a block of Boolean tables
    of arity n with a monomial of >= 3 variables, gap 1 at the classifier's
    first clause: the block's Moebius transform, masked to those monomials,
    carries each nonzero lane into its bit 2**n, as in core._depends."""
    _, _, _, ones, fill = _layout(2, 1, n, lanes)
    return ((_moebius(block, n, lanes) & _cubic(n) * ones) + fill) >> (1 << n) & ones


def _str_lanes(block: int, k: int, b: int, n: int, lanes: int, least: int) -> tuple[int, int]:
    """ThmStr's kernel: the classifier's gap is the gap.  A gap-1 lane with a
    cubic monomial holds without a call; the classifier reads every other
    lane's coefficient table.  Its gap 1 holds iff the lane has gap 1, and
    its gap 2 iff the gap-2 scan holds the lane, a scan of just the lanes
    the classifier calls 2 that the gap-1 scan left, on the same flags."""
    e = _dependence(block, k, b, n, lanes)
    meets, gap1 = _gap_lanes(block, k, b, n, lanes, least, (e, _ess_lanes(e, _layout(2, 1, n, lanes)[3], least)))
    width, table = _lane_width(1 << n), (1 << (1 << n)) - 1
    good, two = gap1 & _cubic_lanes(block, n, lanes), 0
    for m in _set_lanes(meets & ~good, width):
        if _coef_gap(_moebius(block >> m * width & table, n), n) == 1:
            good |= gap1 & 1 << m * width
        else:
            two |= ~gap1 & 1 << m * width
    return meets, good | _gap_lanes(block, k, b, n, lanes, least, (e, two), gap=2)[1] if two else good


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
    return total, desc, partial(_deg2_blocks, n)


def _subset_xors(masks) -> list[int]:
    """Entry i: the XOR of masks[t] over the set bits t of i."""
    table = [0]
    for m in masks:
        table += [x ^ m for x in table]
    return table


@lru_cache(maxsize=None)
def _deg2_layout(n: int):
    """The 2**(n+1) lanes of _lane_width(2**n) bits of a degree-2 block:
    lane 2 * lset + c holds the quadratic part plus linear part lset (bit t
    for x_{t+1}) plus constant c.  (vm, lin, has, slots) are _var_masks(n),
    the block of every linear part and constant, each variable's lanes whose
    linear part holds it, and (rep, spread, fill) on n slots of 2**n + 1
    bits, slot t for x_{t+1}: a 1 at the bottom of each slot, the monomials
    that hold x_{t+1} (vm[t]) in slot t, and 2**n - 1 in each slot."""
    vm, width, size = _var_masks(n), _lane_width(1 << n), 1 << n
    lin = sum((x | (x ^ (1 << size) - 1) << width) << 2 * width * lset for lset, x in enumerate(_subset_xors(vm)))
    pair = 1 | 1 << width  # lanes 2 * lset and 2 * lset + 1
    has = tuple(sum(pair << 2 * width * lset for lset in range(size) if lset >> t & 1) for t in range(n))
    slot = size + 1  # a coefficient table and its carry bit
    rep = _spaced_ones(n, slot)
    spread = sum(m << slot * t for t, m in enumerate(vm))
    return vm, lin, has, (rep, spread, ((1 << size) - 1) * rep)


def _deg2_blocks(n: int, lo: int, hi: int):
    """Degree-2 polynomials (quadratic part, linear part, constant) by
    candidate index, quadratic part slowest, in blocks as _code_blocks:
    each quadratic part with a candidate in lo..hi-1 is one whole block of
    its 2**(n+1) candidates, laid out as in _deg2_layout, at a start that is
    a multiple of 2**(n+1); lane 0 is the bare quadratic part.  Quadratic
    part q is the XOR of the pairs x_s*x_t (s < t, lex order) at the set
    bits of q + 1, read ten bits at a time from tables of at most 1024
    XORs, built once per call."""
    # 2**n linear parts times 2 constants, each lane a table and its guard bits.
    lanes = 2 << n
    ones = _layout(2, 1, n, lanes)[3]
    vm, lin = _deg2_layout(n)[:2]
    pairs = [vm[s] & vm[t] for s in range(n) for t in range(s + 1, n)]  # x_s*x_t, lex order
    tables = [(at, _subset_xors(pairs[at : at + 10])) for at in range(0, len(pairs), 10)]
    for q in range(lo // lanes, -(-hi // lanes)):
        q_mask = 0
        for at, table in tables:
            q_mask ^= table[(q + 1) >> at & 1023]
        yield q * lanes, lanes, q_mask * ones ^ lin


@lru_cache(maxsize=None)
def _deg2_flags(n: int, support: int, least: int):
    """_gap_lanes' flags (e, meets) on a whole degree-2 block whose quadratic
    part has the variables in support (bit (2**n + 1) * t for x_{t+1}, as
    _deg2_lanes reads it): those are essential in every lane, any other in
    the lanes whose linear part holds it."""
    ones, slot = _spaced_ones(2 << n, _lane_width(1 << n)), (1 << n) + 1
    e = tuple(ones if support >> slot * t & 1 else h for t, h in enumerate(_deg2_layout(n)[2]))
    return e, _ess_lanes(e, ones, least)


def _deg2_lanes(block: int, k: int, b: int, n: int, lanes: int, least: int) -> tuple[int, int]:
    """LemDeg2's kernel on a whole degree-2 block, as _deg2_blocks yields
    it, or on one Boolean table: the gap-1 scan, on a block with every
    lane's essential variables, those of its polynomial, read from the
    support of lane 0's, the bare quadratic part.  The support is one
    carry per slot of _deg2_layout, as in core._depends: slot t of
    coef * rep is a copy of lane 0's coefficients, and masked to the
    monomials that hold x_{t+1} it carries into bit 2**n iff one does."""
    if lanes == 1:
        return _gap_lanes(block, k, b, n, 1, least)
    rep, spread, fill = _deg2_layout(n)[3]
    coef = _moebius(block & (1 << (1 << n)) - 1, n)
    support = ((coef * rep & spread) + fill) >> (1 << n) & rep
    return _gap_lanes(block, k, b, n, lanes, least, _deg2_flags(n, support, least))


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
    fill, space = _diagonal_shape(k, n)[0], k**digits

    def diagonal(code: int) -> int:
        return fill(*decode_index(code, k, digits))

    if sampled:
        return total, desc, partial(_table_blocks, pop, budget,
                                    table=lambda i: diagonal(SplitMix64(substream_seed(pop.seed, i)).below(space)))
    return total, desc, partial(_code_blocks, pop, total, bits=None if mode == "full" else diagonal)


@lru_cache(maxsize=1)
def _diagonal_shape(k: int, n: int):
    """(fill, repeated, fields) on operations of shape (k, k, n): the table
    fill(const, *values) holds const on the rows with a repeated coordinate,
    values on the rainbow rows; repeated is all ones on the former rows, and
    fields has a 1 in every field of a table."""
    size, w = k**n, field_width(k)
    fields = _spaced_ones(size, w)
    # The rainbow rows' offsets in the table's binary text, and each value's field.
    rainbow = [encode_point(p, k) * w for p in permutations(range(k), n)]
    text = [format(v, f"0{w}b").encode() for v in range(k)]

    def fill(const: int, *values: int) -> int:
        if not rainbow:  # n > k: the constants
            return const * fields
        line = bytearray(format(const, f"0{w}b").encode()) * size
        for at, v in zip(rainbow, values):
            line[at : at + w] = text[v]
        return int(line, 2)

    return fill, fill((1 << w) - 1, *[0] * len(rainbow)), fields


def _thm1_lanes(block: int, k: int, b: int, n: int, lanes: int, least: int) -> tuple[int, int]:
    """Thm1's kernel (b = k): every lane meets the hypothesis, none, and the
    claim fails on the witnesses, the lanes with ess f = n (least is unread)
    equal to their row 0 on the rows with a repeated coordinate, if any.
    Such an f has ess f = n iff it is not constant: a rainbow row unlike
    row 0 changes value when any one of its coordinates copies another."""
    w, size = field_width(b), k**n * field_width(b)
    ones = _spaced_ones(lanes, _lane_width(size))
    fill, field = (ones << size) - ones, (1 << w) - 1
    _, repeated, fields = _diagonal_shape(k, n)
    # Each lane less its row 0 in every field: the product stays in the lane.
    off = block ^ (block >> size - w & field * ones) * fields
    # A witness is not constant, so its off is nonzero and the sum carries,
    witness = (off + fill) >> size & ones
    if witness:  # but its off is zero on the rows with a repeated coordinate.
        witness &= ~(((off & repeated * ones) + fill) >> size)
    return ones, ones ^ witness


# _Theorem(above_k, total, boolean, walk, lanes, ...) per statement.  Thm1 is
# existential: its kernel checks every member, and its hits are the witnesses.
# Every gap claim is a bound, decided by the gap scan at that bound.
_THEOREMS = {
    TheoremId.THM1: _Theorem(False, True, False, _thm1_walk, _thm1_lanes),
    TheoremId.THM_SALOMAA_MAIN: _Theorem(False, False, True, _table_walk, partial(_gap_lanes, gap=2)),
    TheoremId.THM_GEN: _Theorem(True, False, False, _table_walk, lambda block, k, *a: _gap_lanes(block, k, *a, gap=k)),
    TheoremId.THM_SALOMAA_AUX: _Theorem(False, True, False, _table_walk,
                                        partial(_scan_lanes, _restriction_scan)),
    TheoremId.LEM_KPLUS1: _Theorem(True, True, False, _table_walk, partial(_scan_lanes, _kplus1_scan)),
    TheoremId.THM_STR: _Theorem(False, False, True, _table_walk, _str_lanes),
    # A polynomial of degree 2 with at least four essential variables has gap 1.
    TheoremId.LEM_DEG2: _Theorem(False, False, True, _deg2_walk, _deg2_lanes, 4, 2),
}
# The gap >= 3 search, keyed apart from the theorems: ThmGen's hypothesis,
# and its hits are the functions that fail the claim gap <= 2.
_Search = Enum("_Search", {"GAP3": "search"})
_THEOREMS[_Search.GAP3] = _THEOREMS[TheoremId.THM_GEN]._replace(lanes=partial(_gap_lanes, gap=2))


def _run_range(args):
    """(checked, skipped, hits, the first max_recorded hits) of members
    lo..hi-1.  The record's walk yields blocks (start, lanes, block), lane m
    holding member start + m; a block's members are its lanes max(lo - start,
    0) up to min(hi - start, lanes) - 1, the kernel decides them at once, and
    popcounts count them.  Under rejection, _redraw redraws the members that
    miss the hypothesis until each meets it.  A function is built only for a
    recorded hit, in index order, the block's fails merged by lane with its
    redrawn ones: a block without a hit, or one past a full record, reads no lane."""
    key, pop, budget, lo, hi, max_recorded = args
    spec, k, b, n = _THEOREMS[key], pop.k, pop.b, pop.n
    size = k**n * field_width(b)
    width, table, least = _lane_width(size), (1 << size) - 1, spec.min_ess(k, n)
    reject = isinstance(pop, Sampled) and pop.reject_until_hypothesis
    checked = skipped = hits = 0
    recorded: list[FiniteFunction] = []
    for start, lanes, block in spec.walk(key, pop, budget)[2](lo, hi):
        first, end = max(lo - start, 0), min(hi - start, lanes)
        meets, holds = spec.lanes(block, k, b, n, lanes, least)
        members = -1
        if first or end < lanes:  # lo..hi cuts the block: its padding or other candidates count for nothing
            members = (1 << end * width) - (1 << first * width)
            meets, holds = meets & members, holds & members
        pending = _layout(k, field_width(b), n, lanes)[3] & members & ~meets if reject else 0
        fails, redrawn = meets & ~holds, ()
        if pending:
            redrawn = _redraw(key, pop, budget, start, end, pending, width, least)
            meets |= pending  # each pending member meets the hypothesis now
            hits += len(redrawn)
        checked += meets.bit_count()
        skipped += end - first - meets.bit_count()
        hits += fails.bit_count()
        if (fails or redrawn) and len(recorded) < max_recorded:
            room = max_recorded - len(recorded)
            for m in sorted([*islice(_set_lanes(fails, width), room), *redrawn])[:room]:
                recorded.append(FiniteFunction(k, b, n, redrawn[m] if m in redrawn else block >> m * width & table))
    return checked, skipped, hits, recorded


def _redraw(key, pop, budget: int, start: int, end: int, pending: int, width: int, least: int) -> dict:
    """{lane: table} of a block's pending lanes whose redraw fails the claim.  Attempt
    a of those lanes (10000 draws at most) is one mix pass of their samples' seeds and
    one random_lanes call, decided as a compact block whose lane j is lane pending[j];
    a lane leaves once it meets the hypothesis."""
    spec, k, b, n = _THEOREMS[key], pop.k, pop.b, pop.n
    table, pending = (1 << k**n * field_width(b)) - 1, list(_set_lanes(pending, width))
    bases, redrawn = _substream_seeds(pop.seed, start, end, False).to_bytes(16 * end, "little"), {}
    for attempt in range(1, 10000):  # the block drew attempt 0
        seeds = int.from_bytes(b"".join([bases[16 * m : 16 * m + 16] for m in pending]), "little")
        seeds, masks = _mixed(seeds + attempt * GOLDEN * _spaced_ones(len(pending), 128), len(pending), 1)
        drawn = random_lanes(k, b, n, seeds & masks, len(pending), budget)
        now, ok = spec.lanes(drawn, k, b, n, len(pending), least)
        redrawn.update((pending[j], drawn >> j * width & table) for j in _set_lanes(now & ~ok, width))
        pending = [pending[j] for j in _set_lanes(_spaced_ones(len(pending), width) & ~now, width)]
        if not pending:
            return redrawn
    raise HypothesisNotMet(f"rejection sampling found no function satisfying {key.value} in 10000 draws")


# ---------------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------------

_PARALLEL_THRESHOLD = 200_000
_KERNEL_BLOCK = 8192  # table entries per block of a table walk; generators._BLOCK is a draw pass's rows
_NONZERO = bytes([48] + [49] * 255)  # a byte's flag for _set_lanes: b"1" unless it is zero


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
    if theorem is TheoremId.THM1:
        # Thm1 promises a witness for n <= k once k >= 2 (nothing on one
        # element has an essential variable); a complete search without one disproves it.
        passed = not (exhaustive and 2 <= k and n <= k and hits == 0)
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
