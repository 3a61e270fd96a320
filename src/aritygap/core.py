"""Functions on finite sets as packed value tables.

Provides essential variables, variable identification minors, the arity
gap, and the table-size budget that every module checks.

A table is one Python int (Knuth, TAOCP 4A, 7.1): each row holds its value
in a field of w = max(1, ceil(log2 b)) bits, row 0 in the most significant
field.  Every primitive is a few shifts and masks over that int, built from
the digit masks D_t(c), the all-ones fields of the rows whose digit t is c.
Only D_t(0) and the rows whose digit t is below k-1 are stored per
variable; D_t(c) = D_t(0) >> c * stride_t is derived where it is used.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .errors import (
    ArityMismatch,
    BudgetExceeded,
    EssentialArityTooSmall,
    IndexOutOfRange,
    LengthMismatch,
    SameIndex,
    ValueOutOfRange,
)

#: Largest table/enumeration size walked by default; ARITYGAP_BUDGET
#: overrides it on the command line.
DEFAULT_BUDGET = 1 << 24


def power_exceeds(base: int, exp: int, budget: int) -> bool:
    """Whether base**exp > budget, decided without building a huge power:
    for base >= 2, exp >= budget.bit_length() already exceeds it."""
    if base >= 2 and exp >= budget.bit_length():
        return True
    return base**exp > budget


def table_size(k: int, n: int, budget: int) -> int:
    """Row count k**n of a table on n variables over k elements; raises
    BudgetExceeded, naming the size as k**n, when it exceeds the budget."""
    if power_exceeds(k, n, budget):
        raise BudgetExceeded(f"tables of {k}**{n} rows exceed budget {budget}")
    return k**n


def field_width(b: int) -> int:
    """Bits per table entry: max(1, ceil(log2 b))."""
    return (b - 1).bit_length() or 1


_FIELDS = tuple(tuple(format(v, f"0{w}b") for v in range(1 << w)) for w in range(9))


def pack(values, w: int) -> int:
    """Packed int of in-range values, the first in the most significant field."""
    if w < len(_FIELDS):
        text = "".join(map(_FIELDS[w].__getitem__, values))
    else:
        text = "".join([format(v, f"0{w}b") for v in values])
    return int(text or "0", 2)


def unpack(bits: int, w: int, size: int) -> tuple[int, ...]:
    """Inverse of pack for a table of size fields."""
    text = format(bits, f"0{size * w}b")
    if w == 1:
        return tuple(map(int, text))
    return tuple(int(text[p : p + w], 2) for p in range(0, size * w, w))


class FiniteFunction(namedtuple("FiniteFunction", "k b n bits")):
    """f: {0..k-1}^n -> {0..b-1} stored as a packed value table.

    Row order: x1 is the most significant mixed-radix digit, so the tuple
    (x1, ..., xn) is row sum(x_t * k**(n - t)).  bits holds row r in the
    field_width(b)-bit field that starts k**n - 1 - r fields from the
    bottom.  Instances are immutable and safe to share between threads.
    """

    __slots__ = ()

    @property
    def table(self) -> tuple[int, ...]:
        """The value table as a tuple, row 0 first."""
        return unpack(self.bits, field_width(self.b), self.k**self.n)


class GapReport(namedtuple("GapReport", "ess essl gap witness")):
    """Essential arity data of a function.

    witness is the lexicographically least pair (i, j), i < j, whose
    identification minor attains essl.
    """

    __slots__ = ()


def make_function(k: int, b: int, n: int, table) -> FiniteFunction:
    """Validate a value sequence and build a FiniteFunction."""
    if k < 1 or b < 1 or n < 1:
        raise ValueOutOfRange(f"k, b and n must be >= 1, got k={k} b={b} n={n}")
    entries = tuple(table)
    # For k >= 2, k**n > len(entries) once n reaches its bit length: no huge power.
    if (k > 1 and n >= len(entries).bit_length()) or k**n != len(entries):
        raise LengthMismatch(f"table has {len(entries)} entries, expected k**n = {k}**{n}")
    if min(entries) < 0 or max(entries) >= b:
        v = next(v for v in entries if not 0 <= v < b)
        raise ValueOutOfRange(f"table entry {v} not in range(0, {b})")
    return FiniteFunction(k, b, n, pack(entries, field_width(b)))


def from_code(k: int, b: int, n: int, code: int) -> FiniteFunction:
    """The function whose table, read as a base-b numeral with row 0 most
    significant, is code; for b a power of two the code is the packed int."""
    if b & (b - 1) == 0:
        return FiniteFunction(k, b, n, code)
    return FiniteFunction(k, b, n, pack(decode_index(code, b, k**n), field_width(b)))


def encode_point(point, k: int) -> int:
    """Mixed-radix index of an argument tuple, x1 most significant."""
    idx = 0
    for x in point:
        idx = idx * k + x
    return idx


def decode_index(idx: int, k: int, n: int) -> tuple[int, ...]:
    """Inverse of encode_point: the n base-k digits of idx, most significant
    first; also the decoder of table codes whose base is no power of two.
    Above 64 digits it splits on k**(n//2): no big division per digit."""
    if n > 64:
        high, low = divmod(idx, k ** (n // 2))
        return decode_index(high, k, n - n // 2) + decode_index(low, k, n // 2)
    digits = [0] * n
    for t in range(n - 1, -1, -1):
        idx, digits[t] = divmod(idx, k)
    return tuple(digits)


def evaluate(f: FiniteFunction, point) -> int:
    """Value of f at an argument tuple."""
    pt = tuple(point)
    if len(pt) != f.n:
        raise ArityMismatch(f"point has {len(pt)} coordinates, arity is {f.n}")
    for x in pt:
        if not 0 <= x < f.k:
            raise ValueOutOfRange(f"coordinate {x} not in range(0, {f.k})")
    w = field_width(f.b)
    return (f.bits >> (f.k**f.n - 1 - encode_point(pt, f.k)) * w) & ((1 << w) - 1)


@lru_cache(maxsize=8)
def _layout(k: int, w: int, n: int, lanes: int):
    """Masks of one table shape, variables 0-based: two per variable.

    strides[t] is the bit distance between rows that differ by one in digit
    t+1.  zeros[t] is D_{t+1}(0); every other digit mask is a shift of it,
    D_{t+1}(c) = zeros[t] >> c * strides[t], since within each block of
    k * strides[t] bits the run of digit c lies c runs below that of digit
    0.  lower[t] = full ^ D_{t+1}(k-1) marks the rows whose digit t+1 is
    below k-1.  zeros[t] repeats one block and is built by doubling a bit
    string, O(k**n * w).

    Returns (zeros, strides, lower, ones, fill), repeated in `lanes` lanes of
    2 * k**n * w bits, lane 0 lowest and each table in its low half, where
    ones and fill are 1 and 2**(k**n * w) - 1 per lane.  A stride shift keeps
    each table bit in its lane's rows or padding.  lanes has no default, so a
    shape has one cache entry, and a block multiplies its masks by ones.
    """
    if lanes > 1:
        zeros, strides, lower, _, full = _layout(k, w, n, 1)
        width = 2 * k**n * w
        ones = ((1 << lanes * width) - 1) // ((1 << width) - 1)
        return tuple(z * ones for z in zeros), strides, tuple(m * ones for m in lower), ones, full * ones
    total = k**n * w
    full = (1 << total) - 1
    strides = tuple(k ** (n - 1 - t) * w for t in range(n))
    zeros = []
    for run in strides:
        pattern, length = ((1 << run) - 1) << ((k - 1) * run), k * run
        while length < total:
            pattern |= pattern << length
            length *= 2
        zeros.append(pattern & full)
    lower = tuple(full ^ (z >> (k - 1) * run) for z, run in zip(zeros, strides))
    return tuple(zeros), strides, lower, 1, full


def _essential(bits: int, strides, lower, candidates) -> list[int]:
    """The candidate variables (0-based) the packed table depends on: t is
    inessential iff every row whose digit t is below k-1 equals the row one
    stride further, so one masked shift-XOR per variable decides it."""
    out = []
    for t in candidates:
        if ((bits << strides[t]) ^ bits) & lower[t]:
            out.append(t)
    return out


def _identified(bits: int, k: int, zeros, strides, i: int, j: int) -> int:
    """Packed table with x_j substituted for x_i (0-based indices).

    A row with x_j = c reads the row that also has x_i = c.  Those rows are
    D_i(0) & D_j(0) shifted by c strides of both variables, and a shift by
    c - a strides of x_i moves their values to the rows with x_i = a: k
    masks and k**2 shifts.
    """
    si, both = strides[i], zeros[i] & zeros[j]
    if k == 2:
        # The Boolean case unrolled: it dominates sweeps.
        on0, on1 = bits & both, bits & (both >> si + strides[j])
        return on0 | on1 | (on0 >> si) | (on1 << si)
    out = 0
    for c in range(k):
        on_c = bits & (both >> c * (si + strides[j]))
        for a in range(k):
            d = (c - a) * si
            out |= on_c << d if d >= 0 else on_c >> -d
    return out


def _depends(x: int, size: int, ones: int, fill: int, stride: int, lower: int) -> int:
    """The lanes of x (bottom bits, as in _layout) whose table depends on
    the variable of this stride and lower mask: one masked shift-XOR, plus
    fill per lane to carry a nonzero lane into bit size = k**n * w."""
    return ((((x << stride) ^ x) & lower) + fill) >> size & ones


def _ess_lanes(flags, ones: int, least: int) -> int:
    """The lanes with at least `least` of n = len(flags) variables essential,
    flags[t] being the lanes (bottom bits, as in _layout) that depend on t.
    Sideways addition (Knuth, TAOCP 4A, 7.1.3): each lane's flags plus
    2**p - least, p = max(n, least).bit_length(), lie in 0 .. 2**(p+1) - 1
    and set bit p iff the count reaches least; p must stay below the lane
    width 2 * k**n * w, or it carries into the next lane."""
    p = max(len(flags), least).bit_length()
    return (sum(flags) + ((1 << p) - least) * ones) >> p & ones


def _gap1_lanes(block: int, k: int, b: int, n: int, lanes: int, least: int) -> tuple[int, int]:
    """(meets, gap1): the lanes (bottom bits, as in _layout) with ess >=
    least, and those of them whose table has gap 1: some pair i < j of
    essential variables gives a minor keeping every essential t other than
    i, as a minor gains none.  Lanes with ess < 2 are never in gap1."""
    w = field_width(b)
    zeros, strides, lower, ones, fill = _layout(k, w, n, lanes)
    size = k**n * w
    e = [_depends(block, size, ones, fill, s, low) for s, low in zip(strides, lower)]
    meets = _ess_lanes(e, ones, least)
    good = 0
    for i in range(n):
        for j in range(i + 1, n):
            pending = e[i] & e[j] & meets & ~good
            if not pending:
                continue
            minor = _identified(block, k, zeros, strides, i, j)
            for t in range(n):
                if t != i and e[t] & pending:
                    pending &= ~e[t] | _depends(minor, size, ones, fill, strides[t], lower[t])
                    if not pending:
                        break
            good |= pending
            if good == meets:
                return meets, good
    return meets, good


def is_essential(f: FiniteFunction, i: int) -> bool:
    """Whether changing only the i-th argument can change the value of f."""
    if not 1 <= i <= f.n:
        raise IndexOutOfRange(f"variable index {i} not in 1..{f.n}")
    _, strides, lower, _, _ = _layout(f.k, field_width(f.b), f.n, 1)
    return bool(_essential(f.bits, strides, lower, (i - 1,)))


def essential_vars(f: FiniteFunction) -> tuple[int, ...]:
    """Indices of the essential variables of f, ascending."""
    _, strides, lower, _, _ = _layout(f.k, field_width(f.b), f.n, 1)
    return tuple(t + 1 for t in _essential(f.bits, strides, lower, range(f.n)))


def ess(f: FiniteFunction) -> int:
    """Essential arity: the number of essential variables (0 iff constant)."""
    return len(essential_vars(f))


def identify(f: FiniteFunction, i: int, j: int) -> FiniteFunction:
    """The variable identification minor obtained by substituting x_j for x_i.

    Arity stays n; variable i is inessential in the result.  Neither index
    is required to be essential here; gap_report restricts to essential
    pairs itself.
    """
    for v in (i, j):
        if not 1 <= v <= f.n:
            raise IndexOutOfRange(f"variable index {v} not in 1..{f.n}")
    if i == j:
        raise SameIndex(f"identification needs two distinct indices, got i = j = {i}")
    zeros, strides, _, _, _ = _layout(f.k, field_width(f.b), f.n, 1)
    return FiniteFunction(f.k, f.b, f.n, _identified(f.bits, f.k, zeros, strides, i - 1, j - 1))


def gap_report(f: FiniteFunction) -> GapReport:
    """Brute-force essl and arity gap over all identification minors.

    essl is the maximum essential arity over minors f with x_j substituted
    for x_i, taken over pairs of essential variables.  Swapping the roles
    of i and j permutes the minor's variables, so only i < j pairs are
    scanned; essl can never exceed ess - 1, so the scan stops early once a
    minor attains that.
    """
    zeros, strides, lower, _, _ = _layout(f.k, field_width(f.b), f.n, 1)
    bits, k = f.bits, f.k
    ev = _essential(bits, strides, lower, range(f.n))
    e = len(ev)
    if e < 2:
        raise EssentialArityTooSmall(f"arity gap needs ess >= 2, got ess = {e}")
    best = -1
    witness = (0, 0)
    for a, i in enumerate(ev):
        # Variables inessential in f stay inessential in any minor, and
        # x_i is inessential by construction: only the rest can count.
        rest = ev[:a] + ev[a + 1 :]
        for j in ev[a + 1 :]:
            minor = _identified(bits, k, zeros, strides, i, j)
            count = len(_essential(minor, strides, lower, rest))
            if count > best:
                best = count
                witness = (i + 1, j + 1)
            if best == e - 1:
                return GapReport(e, best, 1, witness)
    return GapReport(e, best, e - best, witness)


def essl(f: FiniteFunction) -> int:
    """Maximum essential arity of a variable identification minor of f."""
    return gap_report(f).essl
