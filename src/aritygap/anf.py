"""Zhegalkin polynomials (algebraic normal form) of Boolean value tables.

A polynomial is a set of monomials, each monomial the set of 1-based
variable indices it multiplies; the empty monomial is the constant 1.
Conversion both ways uses the butterfly Moebius transform over GF(2),
which is its own inverse, run on the packed table int.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FiniteFunction, _layout, pack
from .errors import IndexOutOfRange, NotBoolean, ValueOutOfRange

Monomial = frozenset[int]


@dataclass(frozen=True)
class ZhegalkinPolynomial:
    """Multilinear polynomial over the two-element field.

    monomials holds the subsets of {1..arity} with coefficient 1; absent
    subsets have coefficient 0, so the representation is unique.
    """

    arity: int
    monomials: frozenset[Monomial]


def make_polynomial(arity: int, monomials) -> ZhegalkinPolynomial:
    """Validate and build a polynomial from any iterable of index iterables."""
    if arity < 1:
        raise ValueOutOfRange(f"arity must be >= 1, got {arity}")
    normalized = frozenset(frozenset(m) for m in monomials)
    for mono in normalized:
        for v in mono:
            if not 1 <= v <= arity:
                raise IndexOutOfRange(f"variable index {v} not in 1..{arity}")
    return ZhegalkinPolynomial(arity, normalized)


def _moebius(bits: int, n: int) -> int:
    """Subset XOR transform of a packed Boolean table, n masked shift-XORs;
    self-inverse over GF(2).  Bit r of the result (row order) is the
    coefficient of the monomial whose index is r."""
    zeros, strides, _ = _layout(2, 1, n)
    for z, s in zip(zeros, strides):
        # Each row with x_t = 0 adds its value to the row with x_t = 1.
        bits ^= (bits & z) >> s
    return bits


def _variables(idx: int, n: int) -> tuple[int, ...]:
    """Variables of a monomial index, ascending: bit n - t carries x_t."""
    return tuple(t for t in range(1, n + 1) if (idx >> (n - t)) & 1)


def _monomial_indices(coef: int, n: int) -> list[int]:
    """Indices of the monomials whose coefficient bit is set, ascending."""
    return [idx for idx, bit in enumerate(format(coef, f"0{1 << n}b")) if bit == "1"]


def _monomial_to_index(mono: Monomial, n: int) -> int:
    idx = 0
    for t in mono:
        idx |= 1 << (n - t)
    return idx


def to_anf(f: FiniteFunction) -> ZhegalkinPolynomial:
    """The unique polynomial over GF(2) whose evaluation matches f."""
    if f.k != 2 or f.b != 2:
        raise NotBoolean(f"ANF needs k = b = 2, got k={f.k} b={f.b}")
    indices = _monomial_indices(_moebius(f.bits, f.n), f.n)
    return ZhegalkinPolynomial(f.n, frozenset(frozenset(_variables(i, f.n)) for i in indices))


def from_anf(p: ZhegalkinPolynomial) -> FiniteFunction:
    """Value table of a polynomial; inverse of to_anf."""
    n = p.arity
    coef = [0] * (1 << n)
    for mono in p.monomials:
        coef[_monomial_to_index(mono, n)] = 1
    return FiniteFunction(2, 2, n, _moebius(pack(coef, 1), n))


def degree(p: ZhegalkinPolynomial) -> int:
    """Largest monomial size; 0 for the constants, including the zero polynomial."""
    return max((len(m) for m in p.monomials), default=0)


def occurs(p: ZhegalkinPolynomial, i: int) -> bool:
    """Whether variable i appears in some monomial (iff it is essential)."""
    if not 1 <= i <= p.arity:
        raise IndexOutOfRange(f"variable index {i} not in 1..{p.arity}")
    return any(i in m for m in p.monomials)


def polynomial_str(p: ZhegalkinPolynomial) -> str:
    """Canonical rendering: monomials by descending size then ascending
    variable indices, variables printed as x1, x2, ...; "0" and "1" for
    the constants."""
    if not p.monomials:
        return "0"
    ordered = sorted(p.monomials, key=lambda m: (-len(m), sorted(m)))
    parts = ["*".join(f"x{v}" for v in sorted(m)) if m else "1" for m in ordered]
    return " + ".join(parts)
