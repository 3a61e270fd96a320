"""Witness-family constructors and seeded random functions.

The PRNG is SplitMix64 (Steele/Lea/Flood): a counter-based 64-bit
generator whose c-th output for seed s is mix64(s + (c + 1) * GOLDEN),
all mod 2**64.  It is implemented here directly so tables are
bit-identical across platforms and interpreter versions; reference
outputs are frozen in the test suite.

random_lanes(k, b, n, seeds) is the one table draw.  The table of each
seed fills its rows in order by SplitMix64.below(b), and the tables lie in
the lanes of one int, as in core._layout.  Up to b = 2**64 below reads one
output per candidate, so outputs are mixed in passes of up to 1,024, one
128-bit lane of an int per output, with mix64 run on all lanes at once;
for b a power of two the entry is the output's low bits, for other b the
outputs under below's threshold are kept in order and reduced mod b.  A
pass takes a counter base per table, so 1024 // k**n tables share one
when it expects less than one rejection, 1024 * (2**64 mod b) < 2**64; if
it rejects an output, each table of its group is drawn again alone.
Tables of a b that rejects more often are drawn alone from the start.
Larger tables take a pass per 1,024 outputs; b > 2**64 draws row by row.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from functools import lru_cache
from itertools import product

from .core import (
    DEFAULT_BUDGET,
    FiniteFunction,
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
_MASK64 = (1 << 64) - 1
_BLOCK = 1024  # rows mixed per pass: 128 Kibit ints at any table size
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def mix64(z: int) -> int:
    """SplitMix64 finalizer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


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
            z = 0
            for _ in range(words):
                z = z << 64 | self.next_u64()
            if z < limit:
                return z % bound


def substream_seed(seed: int, index: int) -> int:
    """Seed of the index-th derived stream: the index-th output of
    SplitMix64(seed), computed in O(1) from the counter form."""
    return mix64((seed + (index + 1) * GOLDEN) & _MASK64)


def random_function(k: int, b: int, n: int, seed: int, budget: int = DEFAULT_BUDGET) -> FiniteFunction:
    """Uniform i.i.d. table entries drawn from SplitMix64(seed)."""
    return FiniteFunction(k, b, n, random_lanes(k, b, n, [seed], budget))


def random_lanes(k: int, b: int, n: int, seeds, budget: int = DEFAULT_BUDGET) -> int:
    """The tables random_function(k, b, n, s) for s in seeds as the lanes of
    one int, laid out as in core._layout: lane m holds the m-th table in
    the low half of its 2 * k**n * field_width(b) bits."""
    if k < 1 or b < 1 or n < 1:
        raise ValueOutOfRange(f"k, b and n must be >= 1, got k={k} b={b} n={n}")
    size, w = table_size(k, n, budget), field_width(b)
    # b > 2**64 never shares: 2**64 mod b is 2**64.
    bits, shared = size * w, size <= _BLOCK and _BLOCK * ((1 << 64) % b) < 1 << 64
    per = _BLOCK // size if shared else 1
    tables = []
    for a in range(0, len(seeds), per):
        group = seeds[a : a + per]
        text, kept = _block_text([s + GOLDEN for s in group], size, b, w) if shared else ("", 0)
        if kept == size * len(group):
            tables += [text[c : c + bits] for c in range(0, len(text), bits)]
        else:
            tables += [_table_text(s, size, b, w) for s in group]
    # The last table first, so that it ends up in the highest lane.
    return int(("0" * bits).join(reversed(tables)) or "0", 2)


def _table_text(seed: int, size: int, b: int, w: int) -> str:
    """Binary text of the table of one seed drawn alone: row by row for
    b > 2**64, else a pass per 1,024 outputs, until size entries are kept."""
    if b > 1 << 64:
        rng = SplitMix64(seed)
        return format(pack([rng.below(b) for _ in range(size)], w), f"0{size * w}b")
    text, rows, drawn = [], 0, 0
    while rows < size:
        block = min(_BLOCK, size - rows)
        line, kept = _block_text([seed + (drawn + 1) * GOLDEN], block, b, w)
        text.append(line)
        rows += kept
        drawn += block
    return "".join(text)


@lru_cache(maxsize=8)
def _lanes(rows: int, groups: int, low: int):
    """For groups of rows lanes, lane j at bit 128j: j mod rows times GOLDEN
    mod 2**64, and the 64-bit and `low` masks of every lane."""
    ones = int.from_bytes((b"\1" + bytes(15)) * (rows * groups), "little")
    steps = b"".join((j * GOLDEN & _MASK64).to_bytes(16, "little") for j in range(rows))
    return int.from_bytes(steps * groups, "little"), _MASK64 * ones, low * ones


def _block_text(bases, rows: int, b: int, w: int) -> tuple[str, int]:
    """Binary text of the entries below(b) reads from mix64 at counters
    base + j * GOLDEN, j < rows, for each base in turn, and their count:
    the outputs under its threshold, in order, mod b.  For b a power of two
    none is rejected and a mask keeps the low bits.  A lane holds its
    64-bit by 64-bit product; masks after right shifts drop bits from the
    lane above."""
    limit = (1 << 64) - (1 << 64) % b
    steps, lanes, fields = _lanes(rows, len(bases), b - 1 if limit >> 64 else _MASK64)
    start = b"".join([(base & _MASK64).to_bytes(16, "little") * rows for base in bases])
    z = (int.from_bytes(start, "little") + steps) & lanes
    z = ((z ^ z >> 30 & lanes) * 0xBF58476D1CE4E5B9) & lanes
    z = ((z ^ z >> 27 & lanes) * 0x94D049BB133111EB) & lanes
    data = ((z ^ z >> 31) & fields).to_bytes(16 * rows * len(bases), "little")
    if w == 1:
        return data[::16].translate(_DIGITS).decode(), rows * len(bases)
    if limit >> 64:
        values = [z for z, _ in struct.iter_unpack("<QQ", data)]
    else:
        values = [z % b for z, _ in struct.iter_unpack("<QQ", data) if z < limit]
    return (format(pack(values, w), f"0{len(values) * w}b") if values else ""), len(values)


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
