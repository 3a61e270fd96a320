"""Witness-family constructors and seeded random functions.

The PRNG is SplitMix64 (Steele/Lea/Flood): a counter-based 64-bit
generator whose c-th output for seed s is mix64(s + (c + 1) * GOLDEN),
all mod 2**64.  It is implemented here directly so tables are
bit-identical across platforms and interpreter versions; reference
outputs are frozen in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

from .core import (
    FiniteFunction,
    decode_index,
    encode_point,
    essential_vars,
    field_width,
    from_code,
    pack,
)
from .errors import (
    BudgetExceeded,
    GammaNotSurjective,
    PhiNotInjective,
    SpecInvalid,
    ValueOutOfRange,
)

GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

#: Largest table/enumeration size walked by default; ARITYGAP_BUDGET
#: overrides it on the command line.
DEFAULT_BUDGET = 1 << 24


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
        """Uniform integer in [0, bound) by threshold rejection."""
        span = _MASK64 + 1
        limit = span - span % bound
        while True:
            z = self.next_u64()
            if z < limit:
                return z % bound


def substream_seed(seed: int, index: int) -> int:
    """Seed of the index-th derived stream: the index-th output of
    SplitMix64(seed), computed in O(1) from the counter form."""
    return mix64((seed + (index + 1) * GOLDEN) & _MASK64)


def random_function(
    k: int, b: int, n: int, seed: int, budget: int = DEFAULT_BUDGET
) -> FiniteFunction:
    """Uniform i.i.d. table entries drawn from SplitMix64(seed)."""
    if k < 1 or b < 1 or n < 1:
        raise ValueOutOfRange(f"k, b and n must be >= 1, got k={k} b={b} n={n}")
    size = table_size(k, n, budget)
    if b & (b - 1):
        rng = SplitMix64(seed)
        return FiniteFunction(k, b, n, pack([rng.below(b) for _ in range(size)], field_width(b)))
    # below(b) never rejects when b divides 2**64, so each entry is the low
    # bits of the next output; the stream is SplitMix64.next_u64 unrolled.
    low = b - 1
    state = seed & _MASK64
    values = []
    for _ in range(size):
        state = (state + GOLDEN) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        values.append((z ^ (z >> 31)) & low)
    return FiniteFunction(k, b, n, pack(values, field_width(b)))


@dataclass(frozen=True)
class QuasiLinearSpec:
    """f = g(h1(x1) xor ... xor hn(xn)) with hi: A -> {0,1}, g: {0,1} -> A."""

    k: int
    n: int
    h_maps: tuple[tuple[int, ...], ...]
    g_map: tuple[int, ...]


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


@dataclass(frozen=True)
class LiftSpec:
    """g = phi(f(gamma(x1), ..., gamma(xn))) carrying f from A to a larger B.

    gamma: B -> A surjective, phi: A -> B injective, both as value tuples
    indexed by their argument.
    """

    base: FiniteFunction
    gamma: tuple[int, ...]
    phi: tuple[int, ...]


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


@dataclass(frozen=True)
class WitnessSearch:
    """Outcome of a total-collapse witness search.

    exhaustive is True when the search provably saw every witness in the
    requested space (full table enumeration, or complete enumeration of
    the diagonal-constant family that all witnesses must belong to).
    """

    witnesses: tuple[FiniteFunction, ...]
    exhaustive: bool
    examined: int
    space: int
    total_found: int
    mode: str


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


def find_total_collapse_witnesses(
    k: int,
    n: int,
    limit: int,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
    samples: int = 20000,
) -> WitnessSearch:
    """Search for operations with ess = n whose every identification minor
    is constant.

    Enumerates all k**(k**n) tables when that fits the budget.  Otherwise
    it walks the diagonal-constant family (one constant on every point
    with a repeated coordinate, free values on the rest), which every
    witness belongs to; if even that family exceeds the budget, it is
    sampled from SplitMix64(seed) instead and the result is flagged
    non-exhaustive.
    """
    if k < 1 or n < 1:
        raise ValueOutOfRange(f"k and n must be >= 1, got k={k} n={n}")
    if limit < 1:
        raise ValueOutOfRange(f"limit must be >= 1, got {limit}")
    size = table_size(k, n, budget)
    # ones has a 1 in every field, so multiplying it by a value repeats that
    # value in every row.  shifts are the bit offsets of the rainbow rows, the
    # points with pairwise distinct coordinates, ascending: permutations
    # yields them in lexicographic order.  repeated covers the other rows.
    w = field_width(k)
    top = (size - 1) * w
    full = (1 << size * w) - 1
    ones = full // ((1 << w) - 1)
    shifts = tuple(top - encode_point(point, k) * w for point in permutations(range(k), n))
    repeated = full ^ sum(((1 << w) - 1) << s for s in shifts)

    if not power_exceeds(k, size, budget):
        space = examined = k**size
        functions = (from_code(k, k, n, code) for code in range(space))
        exhaustive, mode = True, "full"
    else:
        space = k ** (len(shifts) + 1)
        if space <= budget:
            codes, examined, exhaustive, mode = range(space), space, True, "diagonal"
        else:
            rng = SplitMix64(seed)
            codes = (rng.below(space) for _ in range(samples))
            examined, exhaustive, mode = samples, False, "diagonal-sampled"
        functions = (_diagonal_function(code, k, n, shifts, ones) for code in codes)

    # All identification minors of f are constant iff f is constant on the
    # points with a repeated coordinate (row 0 has one whenever any point
    # does), and then ess f = n must hold, which a constant f misses.
    found: list[FiniteFunction] = []
    total = 0
    for f in functions:
        filled = (f.bits >> top) * ones
        collapses = f.bits & repeated == filled & repeated
        if collapses and f.bits != filled and len(essential_vars(f)) == n:
            total += 1
            if len(found) < limit:
                found.append(f)
    return WitnessSearch(tuple(found), exhaustive, examined, space, total, mode)


def _diagonal_function(code: int, k: int, n: int, shifts, ones: int) -> FiniteFunction:
    # code = (constant, rainbow values) in base k, constant most significant.
    const, *values = decode_index(code, k, len(shifts) + 1)
    bits = const * ones
    for s, v in zip(shifts, values):
        bits ^= (v ^ const) << s
    return FiniteFunction(k, k, n, bits)
