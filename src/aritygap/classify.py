"""Closed-form arity gap for Boolean functions with ess >= 2.

A Boolean function has gap 2 exactly when its polynomial, restricted to
the variables that occur in it, is a parity x_i1 + ... + x_im + c, the
form x_i*x_j + x_i + c, the majority triangle x_i*x_j + x_i*x_k + x_j*x_k + c,
or the triangle plus two linear terms x_i + x_j; every other function has
gap 1.  All four have degree <= 2, so a monomial of three or more
variables decides NotSpecial before any shape is read.  No brute force
involved: classify matches the shapes on the polynomial's packed
coefficient table, and gap_via_classifier on the Moebius transform of the
value table, which is the same int.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import lru_cache

from .anf import ZhegalkinPolynomial, _moebius, _monomial_indices, _variables
from .core import FiniteFunction
from .errors import EssentialArityTooSmall, NotBoolean


class FormTag(Enum):
    LINEAR_PARITY = "LinearParity"
    AND_PLUS_VAR = "AndPlusVar"
    TRIANGLE_MAJ = "TriangleMaj"
    TRIANGLE_MAJ_PLUS_TWO = "TriangleMajPlusTwo"
    NOT_SPECIAL = "NotSpecial"


class SpecialForm(namedtuple("SpecialForm", "tag participants c")):
    """Matched gap-2 shape.

    participants are the variable indices bound by the shape: all occurring
    variables for LinearParity; (i, j) with i carrying the linear term for
    AndPlusVar; the triangle (i, j, k) for TriangleMaj; and (i, j, k) with
    i, j carrying the linear terms for TriangleMajPlusTwo.  c is the
    constant term, None for NotSpecial.
    """

    __slots__ = ()


NOT_SPECIAL = SpecialForm(FormTag.NOT_SPECIAL, (), None)


def classify(p: ZhegalkinPolynomial) -> SpecialForm:
    """Match p, restricted to its occurring variables, against the four
    gap-2 shapes; inessential variables of the ambient arity are ignored."""
    return _match(p.coef, p.arity)


@lru_cache(maxsize=None)
def _cubic(n: int) -> int:
    """The bits of a packed coefficient table of arity n whose monomial has
    three or more variables (bit 2**n - 1 - r is monomial index r).  One
    more variable puts the monomials without it in the high half and those
    with it in the low half, so the masks of >= 3, 2, 1 and 0 variables
    double from those of one variable less."""
    p3, p2, p1, full = 0, 0, 0, 1
    for m in range(n):
        s = 1 << m
        p3, p2, p1, full = p3 << s | p2, p2 << s | p1, p1 << s | full, full << s | full
    return p3


def _match(coef: int, n: int) -> SpecialForm:
    """classify on a packed coefficient table of arity n."""
    if coef & _cubic(n):
        return NOT_SPECIAL
    c = coef >> ((1 << n) - 1)
    body = _monomial_indices(coef, n)[c:]  # the nonconstant monomials; bit n - t is x_t
    occ = 0
    for m in body:
        occ |= m
    occ_vars = _variables(occ, n)
    if len(occ_vars) < 2:
        raise EssentialArityTooSmall(
            f"classification needs at least 2 occurring variables, got {len(occ_vars)}"
        )
    singles = sorted(n + 1 - m.bit_length() for m in body if m.bit_count() == 1)
    if len(singles) == len(body):
        return SpecialForm(FormTag.LINEAR_PARITY, occ_vars, c)
    if len(occ_vars) == 2 and len(body) == 2 and occ in body:
        (i,) = singles
        return SpecialForm(FormTag.AND_PLUS_VAR, (i, sum(occ_vars) - i), c)
    if len(occ_vars) == 3 and all(occ ^ (1 << (n - t)) in body for t in occ_vars):
        if len(body) == 3:
            return SpecialForm(FormTag.TRIANGLE_MAJ, occ_vars, c)
        if len(body) == 5 and len(singles) == 2:
            rest = sum(occ_vars) - sum(singles)
            return SpecialForm(FormTag.TRIANGLE_MAJ_PLUS_TWO, (*singles, rest), c)
    return NOT_SPECIAL


def gap_via_classifier(f: FiniteFunction) -> int:
    """Arity gap of a Boolean f with ess >= 2, decided in closed form from
    its coefficient table without building the polynomial."""
    if f.k != 2 or f.b != 2:
        raise NotBoolean(f"classifier needs k = b = 2, got k={f.k} b={f.b}")
    return _coef_gap(_moebius(f.bits, f.n), f.n)


def _coef_gap(coef: int, n: int) -> int:
    """The gap the classifier gives a packed coefficient table of arity n."""
    return 1 if _match(coef, n) is NOT_SPECIAL else 2
