"""Witness-family constructors and seeded random functions.

The PRNG is SplitMix64 (Steele/Lea/Flood): a counter-based 64-bit
generator whose c-th output for seed s is mix64(s + (c + 1) * GOLDEN),
all mod 2**64.  It is implemented here directly so tables are
bit-identical across platforms and interpreter versions; reference
outputs are frozen in the test suite.

random_lanes(k, b, n, seeds, count) is the one table draw: table m fills
its rows in order by SplitMix64(seed m).below(b), seed m (mod 2**64) being
the 128-bit lane m of seeds, and lies in lane m of the result as in
core._layout.  Up to b = 2**64 a candidate is one output, and a pass mixes
up to 1,024 outputs in the lanes of one int.  A pass of g tables is
row-major, lane j * g + i holding row j of table i: its counters are the
seed lanes, copied by doubling, plus (j + 1) * GOLDEN.  An entry is an
output's low w bits for b a power of two, else the outputs under below's
threshold are kept in order, mod b.  Low bits of a product, xor or sum
depend on its inputs' low bits alone (Warren, Hacker's Delight, 2-3), so t
output bits need the first product mod 2**(t + 58) and the second mod
2**(t + 31): _mix_lanes mixes only those in 128-bit lanes, and for b <= 2,
one bit, _low_bits mixes in 64-bit lanes, half the width.
1024 // k**n tables share a pass while it expects under one rejection,
1024 * (2**64 mod b) < 2**64, and if it rejects are drawn alone, in passes
of g = 1, as are tables of other b or more rows; b > 2**64 draws row by
row.  The seed of sample i of a sweep is output i of SplitMix64(seed), so
a block's are a pass too.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from functools import lru_cache
from itertools import product

from .core import (
    _FIELDS,
    DEFAULT_BUDGET,
    FiniteFunction,
    _lane_width,
    _spaced_ones,
    encode_point,
    field_width,
    pack,
    table_size,
)
from .errors import (
    GammaNotSurjective,
    PhiNotInjective,
    SpecInvalid,
    ValueOutOfRange,
)

GOLDEN = 0x9E3779B97F4A7C15
_C1, _C2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB  # mix64's multipliers
_C1_LOW, _C1_HIGH = _C1 & (1 << 30) - 1, _C1 >> 30 & (1 << 29) - 1  # C1 mod 2**59 split at bit 30
_MASK64 = (1 << 64) - 1
_BLOCK = 1024  # rows mixed per pass: 128 Kibit ints at any table size, 64 Kibit for b <= 2
_DIGITS = (b"0" * 256, b"01" * 128)  # a byte's entry for b = 1 and b = 2: its low bit
_STEP = 1 if sys.byteorder == "little" else -1  # the end a pass's native words count from


def mix64(z: int) -> int:
    """SplitMix64 finalizer."""
    return _mix_lanes(z & _MASK64, (_MASK64,) * 3, 64) & _MASK64


def _mix_lanes(z: int, masks: tuple[int, int, int], t: int) -> int:
    """mix64 of the 64-bit value at the bottom of each 128-bit lane of z, in
    the low t bits of its lane, 1 <= t <= 64.  masks are the lanes' 64-bit
    masks and those cut to t + 58 and t + 31 bits: t output bits need the
    first product mod 2**(t + 58) and the second mod 2**(t + 31), and at
    t = 64 every cut is whole.  A lane holds its 64-bit by (t + 58)-bit
    product, and the masks after the first two right shifts drop the bits
    they bring down from the lane above; the caller masks off what the
    last one brings."""
    lanes, high, low = masks
    z = ((z ^ z >> 30 & lanes) * (_C1 & (1 << t + 58) - 1)) & high
    z = ((z ^ z >> 27) & low) * (_C2 & (1 << t + 31) - 1) & low
    return z ^ z >> 31


class SplitMix64:
    """Sequential view of the counter-based generator."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & _MASK64
        return mix64(self._state)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by threshold rejection.  Each
        candidate is read from as many outputs as bound - 1 has 64-bit
        words (one at least), the first most significant."""
        if bound < 1:
            raise ValueOutOfRange(f"bound must be >= 1, got {bound}")
        words = max(1, -(-(bound - 1).bit_length() // 64))
        span = 1 << 64 * words
        limit = span - span % bound
        while True:
            z = int.from_bytes(b"".join(self.next_u64().to_bytes(8, "big") for _ in range(words)), "big")
            if z < limit:
                return z % bound


def substream_seed(seed: int, index: int) -> int:
    """Seed of the index-th derived stream: the index-th output of
    SplitMix64(seed), computed in O(1) from the counter form."""
    return mix64((seed + (index + 1) * GOLDEN) & _MASK64)


def _substream_seeds(seed: int, start: int, count: int, attempt0: bool) -> int:
    """substream_seed(seed, i) for i in start..start+count-1 in the lanes of
    a seed int: row i - start of a pass of the seed seed + start * GOLDEN.
    With attempt0, each one's substream_seed(s, 0): a pass of one row."""
    z, lanes = _mixed((seed + start * GOLDEN) & _MASK64, 1, count)
    return _mixed(z & lanes, count, 1)[0] & lanes if attempt0 else z & lanes


def random_function(k: int, b: int, n: int, seed: int, budget: int = DEFAULT_BUDGET) -> FiniteFunction:
    """Uniform i.i.d. table entries drawn from SplitMix64(seed)."""
    return FiniteFunction(k, b, n, random_lanes(k, b, n, seed & _MASK64, 1, budget))


def random_lanes(k: int, b: int, n: int, seeds: int, count: int, budget: int = DEFAULT_BUDGET) -> int:
    """The tables random_function(k, b, n, s) of the count seeds s in the
    lanes of seeds as the lanes of one int: lane m holds the m-th table at
    the bottom of its _lane_width(k**n * field_width(b)) bits."""
    if k < 1 or b < 1 or n < 1:
        raise ValueOutOfRange(f"k, b and n must be >= 1, got k={k} b={b} n={n}")
    size, w = table_size(k, n, budget), field_width(b)
    # b > 2**64 never shares: 2**64 mod b is 2**64.
    bits, shared = size * w, size <= _BLOCK and _BLOCK * ((1 << 64) % b) < 1 << 64
    per = _BLOCK // size if shared else 1
    tables = []
    for a in range(0, count, per):
        g = min(per, count - a)
        group = seeds >> 128 * a & (1 << 128 * g) - 1
        texts, kept = _pass(group, g, size, b, w) if shared else ([], 0)
        tables += texts if kept == size * g else [
            _table_text(group >> 128 * i & _MASK64, size, b, w) for i in range(g)]
    # The last table first, so that it ends up in the highest lane.
    return int(("0" * (_lane_width(bits) - bits)).join(reversed(tables)) or "0", 2)


def _table_text(seed: int, size: int, b: int, w: int) -> str:
    """Binary text of the table of one seed drawn alone: row by row for
    b > 2**64, else a pass per 1,024 outputs, until size entries are kept."""
    if b > 1 << 64:
        return format(pack(map(SplitMix64(seed).below, [b] * size), w), f"0{size * w}b")
    text, rows = [], 0
    while rows < size:
        block = min(_BLOCK, size - rows)
        (line,), kept = _pass(seed, 1, block, b, w)
        text.append(line)
        rows, seed = rows + kept, (seed + block * GOLDEN) & _MASK64
    return "".join(text)


@lru_cache(maxsize=128)
def _lanes(rows: int, g: int, width: int, cuts: tuple[int, ...]):
    """(j + 1) * GOLDEN mod 2**64 in lane j * g + i of rows * g lanes of width
    bits, and the lanes' masks of each number of bits in cuts.  Keyed by
    shape: redraws keep a block's."""
    steps = b"".join(((j + 1) * GOLDEN & _MASK64).to_bytes(width // 8, "little") * g for j in range(rows))
    ones = _spaced_ones(rows * g, width)
    return int.from_bytes(steps, "little"), tuple(((1 << c) - 1) * ones for c in cuts)


def _copies(x: int, g: int, rows: int, width: int) -> int:
    """The g lanes of width bits at the bottom of x copied to rows * g lanes by
    doubling (Knuth, TAOCP 4A, 7.1.3); lanes past them may hold more copies."""
    for e in range((rows - 1).bit_length()):
        x |= x << (width * g << e)
    return x


def _mixed(seeds: int, g: int, rows: int, t: int = 64) -> tuple[int, int]:
    """(z, lanes): lane j * g + i of z holds mix64 of seed i + (j + 1) *
    GOLDEN in its low t bits, for the g seeds in the 128-bit lanes of seeds,
    lanes being the 64-bit masks of the rows * g lanes, which drop the
    copies that overshoot and the counters' carries."""
    steps, masks = _lanes(rows, g, 128, (64, min(64, t + 58), min(64, t + 31)))
    return _mix_lanes(_copies(seeds, g, rows, 128) + steps & masks[0], masks, t), masks[0]


def _low_bits(seeds: int, g: int, rows: int) -> int:
    """Bit 0 of 64-bit lane j * g + i is the low bit of mix64 of seed i +
    (j + 1) * GOLDEN, for the g seeds in the 64-bit lanes of seeds.  The
    counters add mod 2**64 per lane without carries between lanes (Warren,
    2-18).  That bit is bits 0 and 31 of the second product, which read the
    first product mod 2**59.  With u = a + b * 2**30 and C1 = c0 + c1 * 2**30,
    a, b and c0 of 30 bits and c1 of 29, a * c0 + (a * c1 + b * c0 mod 2**30)
    * 2**30 is that product mod 2**59 and under 2**61, and C2 mod 2**32 is
    under 2**29, so every product fits its lane."""
    steps, (lanes, low, m34, m32, m30) = _lanes(rows, g, 64, (64, 63, 34, 32, 30))
    x = _copies(seeds, g, rows, 64)
    z = ((x & low) + (steps & low)) ^ (x ^ steps) & (lanes ^ low)
    z ^= z >> 30 & m34
    a, b = z & m30, z >> 30 & m30
    z = a * _C1_LOW + ((a * _C1_HIGH + b * _C1_LOW & m30) << 30)
    z = ((z ^ z >> 27) & m32) * (_C2 & 0xFFFFFFFF)
    return z ^ z >> 31


def _pass(seeds: int, g: int, rows: int, b: int, w: int) -> tuple[list[str], int]:
    """(texts, kept): the binary text of the entries below(b) reads from
    rows outputs of each of g seeds, and their count: the outputs under its
    threshold, in order, mod b.  Text i is every g-th kept output from
    output i, a table unless g > 1 and an output is rejected.  b = 2**w
    reads the low w bits of an output, all _mixed computes while w + 58 < 64,
    and b <= 2 bit 0 of _low_bits' 64-bit lanes, fed the seeds' low words."""
    if w == 1:
        seeds = int.from_bytes(memoryview(seeds.to_bytes(16 * g, "little")).cast("Q")[::2], "little")
        data = _low_bits(seeds, g, rows).to_bytes(8 * rows * g, sys.byteorder)
        digits = data[:: 8 * _STEP].translate(_DIGITS[b - 1]).decode()
        return [digits[i::g] for i in range(g)], rows * g
    data = _mixed(seeds, g, rows, w if b & b - 1 == 0 and w < 6 else 64)[0].to_bytes(16 * rows * g, sys.byteorder)
    words, limit = memoryview(data).cast("Q")[:: 2 * _STEP], (1 << 64) - (1 << 64) % b
    field = _FIELDS[w] if w < len(_FIELDS) else None  # each value's text
    fields = ([field[z % b] for z in words if z < limit] if field
              else [format(z % b, f"0{w}b") for z in words if z < limit])
    return ["".join(fields[i::g]) for i in range(g)], len(fields)


class QuasiLinearSpec(namedtuple("QuasiLinearSpec", "k n h_maps g_map")):
    """f = g(h1(x1) xor ... xor hn(xn)) with hi: A -> {0,1}, g: {0,1} -> A."""

    __slots__ = ()


def quasi_linear(spec: QuasiLinearSpec) -> FiniteFunction:
    """Pointwise table of the quasi-linear form, xor = addition mod 2."""
    k, n = spec.k, spec.n
    if k < 1 or n < 1:
        raise SpecInvalid(f"k and n must be >= 1, got k={k} n={n}")
    if len(spec.h_maps) != n:
        raise SpecInvalid(f"need {n} h maps, got {len(spec.h_maps)}")
    for h in spec.h_maps:
        if len(h) != k or any(v not in (0, 1) for v in h):
            raise SpecInvalid(f"each h map must send {{0..{k - 1}}} into {{0,1}}, got {h}")
    if len(spec.g_map) != 2 or any(not 0 <= v < k for v in spec.g_map):
        raise SpecInvalid(f"g map must send {{0,1}} into {{0..{k - 1}}}, got {spec.g_map}")
    table = []
    for point in product(range(k), repeat=n):
        acc = 0
        for h, x in zip(spec.h_maps, point):
            acc ^= h[x]
        table.append(spec.g_map[acc])
    return FiniteFunction(k, k, n, pack(table, field_width(k)))


class LiftSpec(namedtuple("LiftSpec", "base gamma phi")):
    """g = phi(f(gamma(x1), ..., gamma(xn))) carrying f from A to a larger B.

    gamma: B -> A surjective, phi: A -> B injective, both as value tuples
    indexed by their argument.
    """

    __slots__ = ()


def lift(spec: LiftSpec) -> FiniteFunction:
    """Transport the base operation to the set {0..len(gamma)-1}.

    Preserves ess always and gap whenever ess >= 2; those are verified by
    the test suite, not re-checked at runtime.
    """
    f = spec.base
    size_b = len(spec.gamma)
    if f.b != f.k:
        raise SpecInvalid(f"base must be an operation (b = k), got k={f.k} b={f.b}")
    if size_b < f.k:
        raise SpecInvalid(f"target set size {size_b} smaller than base size {f.k}")
    if any(not 0 <= v < f.k for v in spec.gamma):
        raise SpecInvalid(f"gamma values must lie in 0..{f.k - 1}")
    if set(spec.gamma) != set(range(f.k)):
        raise GammaNotSurjective(f"gamma misses {set(range(f.k)) - set(spec.gamma)}")
    if len(spec.phi) != f.k or any(not 0 <= v < size_b for v in spec.phi):
        raise SpecInvalid(f"phi must send 0..{f.k - 1} into 0..{size_b - 1}")
    if len(set(spec.phi)) != f.k:
        raise PhiNotInjective(f"phi is not injective: {spec.phi}")
    base = f.table
    table = []
    for point in product(range(size_b), repeat=f.n):
        base_point = tuple(spec.gamma[x] for x in point)
        table.append(spec.phi[base[encode_point(base_point, f.k)]])
    return FiniteFunction(size_b, size_b, f.n, pack(table, field_width(size_b)))
