"""Zhegalkin polynomials (algebraic normal form) of Boolean value tables.

A polynomial is held as its coefficient table, laid out as the packed
table of a Boolean FiniteFunction: the bit of row r is the coefficient of
the monomial whose variables are the digits of r that equal 1, row 0 (the
constant monomial) in the most significant bit.  The butterfly Moebius
transform over GF(2), which is its own inverse, turns a value table into
its coefficient table and back.
"""

from __future__ import annotations

from collections import namedtuple

from .core import DEFAULT_BUDGET, FiniteFunction, _layout, table_size
from .errors import IndexOutOfRange, NotBoolean, ValueOutOfRange


class ZhegalkinPolynomial(namedtuple("ZhegalkinPolynomial", "arity coef")):
    """Multilinear polynomial over the two-element field.

    coef is the packed coefficient table over the 2**arity subsets of
    {1..arity}, so the representation is unique.  The monomials view, built
    from coef on each access, is the set of subsets with coefficient 1, each
    the set of its 1-based variable indices; the empty one is the constant 1.
    """

    __slots__ = ()

    @property
    def monomials(self) -> frozenset[frozenset[int]]:
        n = self.arity
        return frozenset(frozenset(_variables(i, n)) for i in _monomial_indices(self.coef, n))


def make_polynomial(arity: int, monomials) -> ZhegalkinPolynomial:
    """Validate and build a polynomial from any iterable of index iterables,
    a repeated monomial or variable counting once; 2**arity is budgeted."""
    if arity < 1:
        raise ValueOutOfRange(f"arity must be >= 1, got {arity}")
    top = table_size(2, arity, DEFAULT_BUDGET) - 1
    coef = 0
    for mono in monomials:
        row = 0
        for v in mono:
            if not 1 <= v <= arity:
                raise IndexOutOfRange(f"variable index {v} not in 1..{arity}")
            row |= 1 << (arity - v)
        coef |= 1 << (top - row)
    return ZhegalkinPolynomial(arity, coef)


def _moebius(bits: int, n: int, lanes: int = 1) -> int:
    """Subset XOR transform of a packed Boolean table, n masked shift-XORs;
    self-inverse over GF(2).  Bit r of the result (row order) is the
    coefficient of the monomial whose index is r.  With lanes > 1, bits is
    a block laid out as in core._layout, and every lane is transformed
    with the masks repeated in every lane."""
    zeros, strides, *_ = _layout(2, 1, n, lanes)
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


def to_anf(f: FiniteFunction) -> ZhegalkinPolynomial:
    """The unique polynomial over GF(2) whose evaluation matches f."""
    if f.k != 2 or f.b != 2:
        raise NotBoolean(f"ANF needs k = b = 2, got k={f.k} b={f.b}")
    return ZhegalkinPolynomial(f.n, _moebius(f.bits, f.n))


def from_anf(p: ZhegalkinPolynomial) -> FiniteFunction:
    """Value table of a polynomial; inverse of to_anf."""
    return FiniteFunction(2, 2, p.arity, _moebius(p.coef, p.arity))


def degree(p: ZhegalkinPolynomial) -> int:
    """Largest monomial size; 0 for the constants, including the zero polynomial."""
    return max((idx.bit_count() for idx in _monomial_indices(p.coef, p.arity)), default=0)


def occurs(p: ZhegalkinPolynomial, i: int) -> bool:
    """Whether variable i appears in some monomial (iff it is essential):
    whether a set coefficient lies on a row of the table of x_i."""
    if not 1 <= i <= p.arity:
        raise IndexOutOfRange(f"variable index {i} not in 1..{p.arity}")
    zeros, strides, *_ = _layout(2, 1, p.arity, 1)
    return bool(p.coef & (zeros[i - 1] >> strides[i - 1]))


def polynomial_str(p: ZhegalkinPolynomial) -> str:
    """Canonical rendering: monomials by descending size then ascending
    variable indices, variables printed as x1, x2, ...; "0" and "1" for
    the constants."""
    terms = [_variables(idx, p.arity) for idx in _monomial_indices(p.coef, p.arity)]
    terms.sort(key=lambda m: (-len(m), m))
    return " + ".join("*".join(f"x{v}" for v in m) or "1" for m in terms) or "0"
