"""Independent brute-force oracles the library is checked against.

Everything here recomputes results from the definitions, deliberately
avoiding the code paths under test: only f.k, f.b, f.n and the tuple view
f.table are read.  Essential variables come from scanning point pairs, ANF
coefficients from subset sums, minors from explicit point maps, and essl
from enumerating every simple variable substitution.  Random tables are
replayed from a sequential SplitMix64 stream, one output at a time.
"""

from collections import namedtuple
from itertools import product

# A bare value table with the FiniteFunction attributes the oracles read.
Table = namedtuple("Table", "k b n table")


def _tabled(f):
    """f with its tuple view read once, for oracles that read many rows."""
    return Table(f.k, f.b, f.n, f.table)


def _value(f, point):
    idx = 0
    for x in point:
        idx = idx * f.k + x
    return f.table[idx]


def naive_essential(f, i):
    """Definition-level scan: two points differing only in coordinate i."""
    f = _tabled(f)
    for point in product(range(f.k), repeat=f.n):
        for other in range(f.k):
            changed = point[: i - 1] + (other,) + point[i:]
            if _value(f, point) != _value(f, changed):
                return True
    return False


def naive_ess(f):
    return sum(1 for i in range(1, f.n + 1) if naive_essential(f, i))


def naive_identify(f, i, j):
    """Table of f with x_j substituted for x_i, point by point."""
    f = _tabled(f)
    return tuple(
        _value(f, point[: i - 1] + (point[j - 1],) + point[i:])
        for point in product(range(f.k), repeat=f.n)
    )


def naive_total_collapse(f):
    """Whether f depends on all n variables and every identification minor
    (x_j substituted for x_i, i != j) is constant: a Thm1 witness."""
    pairs = [(i, j) for i in range(1, f.n + 1) for j in range(1, f.n + 1) if i != j]
    return naive_ess(f) == f.n and all(len(set(naive_identify(f, i, j))) == 1 for i, j in pairs)


def naive_substitute(f, m, mapping):
    """Table of g(y1..ym) = f(y_mapping[0], ..., y_mapping[n-1]), point by point."""
    return tuple(
        _value(f, tuple(y[v - 1] for v in mapping)) for y in product(range(f.k), repeat=m)
    )


def naive_restriction_witness(f):
    """First (j, c), j then c ascending, such that fixing x_j = c leaves a
    function of the other n - 1 variables depending on all of them."""
    f = _tabled(f)
    for j in range(1, f.n + 1):
        for c in range(f.k):
            table = tuple(
                _value(f, y[: j - 1] + (c,) + y[j - 1 :])
                for y in product(range(f.k), repeat=f.n - 1)
            )
            if naive_ess(Table(f.k, f.b, f.n - 1, table)) == f.n - 1:
                return j, c
    return None


def naive_kplus1_pair(f):
    """First pair 1 <= i < j <= k+1 whose identification minor keeps one of
    x_1, ..., x_{k+1} essential."""
    f = _tabled(f)
    top = f.k + 1
    for i in range(1, top + 1):
        for j in range(i + 1, top + 1):
            minor = Table(f.k, f.b, f.n, naive_identify(f, i, j))
            if any(naive_essential(minor, t) for t in range(1, top + 1)):
                return i, j
    return None


def naive_gap_report(f):
    """(ess, essl, gap, witness) from the definitions: essl is the largest
    ess of an identification minor over essential pairs i < j, the witness
    the lexicographically least pair attaining it."""
    ev = [i for i in range(1, f.n + 1) if naive_essential(f, i)]
    best, witness = -1, None
    for a, i in enumerate(ev):
        for j in ev[a + 1 :]:
            count = naive_ess(Table(f.k, f.b, f.n, naive_identify(f, i, j)))
            if count > best:
                best, witness = count, (i, j)
    return len(ev), best, len(ev) - best, witness


def naive_anf_monomials(f):
    """Subset-sum Moebius oracle: the coefficient of a variable subset S is
    the XOR of f over all points whose support lies inside S."""
    n = f.n
    monomials = set()
    for mask in range(1 << n):
        positions = [t for t in range(n) if (mask >> t) & 1]
        acc = 0
        for bits in product((0, 1), repeat=len(positions)):
            point = [0] * n
            for pos, bit in zip(positions, bits):
                point[pos] = bit
            acc ^= _value(f, point)
        if acc:
            monomials.add(frozenset(pos + 1 for pos in positions))
    return frozenset(monomials)


def naive_anf_identify(monomials, i, j):
    """ANF of the minor with x_j substituted for x_i, by the monomial rule:
    rename x_i to x_j in every monomial (x_j * x_j = x_j), then cancel the
    monomials that now occur an even number of times."""
    out = set()
    for m in monomials:
        out ^= {frozenset(j if v == i else v for v in m)}
    return frozenset(out)


def naive_anf_monomials_packed(f):
    """Same subset-sum definition, folded over table indices: a point's
    support is contained in S exactly when its index is a submask of the
    index of S.  Fast enough for exhaustive arity-4 sweeps, and checked
    against the explicit-point oracle above."""
    n = f.n
    table = f.table
    monomials = set()
    for smask in range(1 << n):
        acc = 0
        sub = smask
        while True:
            acc ^= table[sub]
            if sub == 0:
                break
            sub = (sub - 1) & smask
        if acc:
            monomials.add(frozenset(t for t in range(1, n + 1) if (smask >> (n - t)) & 1))
    return frozenset(monomials)


def max_ess_over_strict_minors(f):
    """essl by the original definition: enumerate every sigma with target
    arity n, keep the strict minors (g <= f but not f <= g) and maximize
    their essential arity."""
    points = list(product(range(f.k), repeat=f.n))
    index = {point: idx for idx, point in enumerate(points)}
    # remaps[s][idx]: the row of the source that row idx of the minor reads.
    remaps = [
        [index[tuple(point[v] for v in sigma)] for point in points]
        for sigma in product(range(f.n), repeat=f.n)
    ]

    def minors(table):
        return {tuple(table[r] for r in remap) for remap in remaps}

    best = 0
    for g in minors(f.table):
        if f.table not in minors(g):
            best = max(best, naive_ess(Table(f.k, f.b, f.n, g)))
    return best


class SplitMix64Stream:
    """SplitMix64 (Steele, Lea and Flood, 2014) stepped one output at a
    time: add the golden gamma to the state, then apply the finalizer."""

    def __init__(self, seed):
        self.state = seed % 2**64

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) % 2**64
        z = self.state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        return z ^ (z >> 31)

    def below(self, bound):
        """Uniform in [0, bound): a candidate is the fewest outputs (one at
        least) that cover bound - 1, concatenated first-most-significant,
        rejected at or above the largest multiple of bound that fits."""
        words = max(1, -(-(bound - 1).bit_length() // 64))
        limit = 2 ** (64 * words) // bound * bound
        while True:
            z = 0
            for _ in range(words):
                z = z << 64 | self.next()
            if z < limit:
                return z % bound


def naive_random_table(k, b, n, seed):
    """k**n entries drawn by below(b) from one stream, row 0 first."""
    stream = SplitMix64Stream(seed)
    return tuple(stream.below(b) for _ in range(k**n))


def seed_lanes(seeds):
    """The seed int that random_lanes reads: seed m mod 2**64 in the 128-bit
    lane m."""
    return sum(s % 2**64 << 128 * m for m, s in enumerate(seeds))


def lane_seeds(lanes, count):
    """The count seeds of a seed int, lane 0 first."""
    return [lanes >> 128 * m & 2**64 - 1 for m in range(count)]
