"""Shared hypothesis strategies for drawing small finite functions,
families of Boolean tables with known gap, and a record's hypothesis and
claim run together on a block."""

from itertools import product

import hypothesis.strategies as st

import aritygap.core as core
from aritygap import make_function


@st.composite
def finite_functions(draw, max_k=3, max_b=3, max_n=4, max_table=128, min_k=1, min_b=1):
    k = draw(st.integers(min_value=min_k, max_value=max_k))
    b = draw(st.integers(min_value=min_b, max_value=max_b))
    top_n = max_n
    while k**top_n > max_table:
        top_n -= 1
    n = draw(st.integers(min_value=1, max_value=max(top_n, 1)))
    size = k**n
    table = draw(st.lists(st.integers(0, b - 1), min_size=size, max_size=size))
    return make_function(k, b, n, table)


@st.composite
def boolean_functions(draw, min_n=1, max_n=5):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    size = 2**n
    table = draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
    return make_function(2, 2, n, table)


def poly_table(n, monomials):
    """Boolean table of the sum mod 2 of the monomials, each a set of
    1-based variables (the empty set is the constant 1), row by row."""
    return [sum(all(point[v - 1] for v in m) for m in monomials) % 2
            for point in product((0, 1), repeat=n)]


def gap_two_tables(n):
    """The four gap-2 shapes, with and without constant 1 and with the
    other variables inessential: parity, x_i*x_j + x_i, the triangle and
    the triangle plus two, on the last variables and on spread-out ones."""
    tables = []
    for a, b, c in {(n - 2, n - 1, n), (1, n // 2 + 1, n)} if n >= 3 else ():
        for shape in ([{a}, {b}, {c}], [{a, b}, {a, c}, {b, c}], [{a, b}, {a, c}, {b, c}, {a}, {b}]):
            tables += [poly_table(n, shape), poly_table(n, shape + [set()])]
    tables += [poly_table(n, [{n - 1}, {n}]), poly_table(n, [{n - 1, n}, {n - 1}]),
               poly_table(n, [{1, n}, {n}, set()])]
    tables.append(poly_table(n, [{t} for t in range(1, n + 1)]))  # parity of all n
    return tables


def decided(claim, block, k, b, n, lanes, least, flags=None):
    """(meets, holds) of a block, as a sweep decides them: flags (core._flags
    unless given) yield the lanes with ess f >= least, and claim, run only
    when some lane meets, the lanes of those where the claim holds."""
    e, meets = (flags or core._flags)(block, k, b, n, lanes, least)
    return meets, claim(block, k, b, n, lanes, e, meets) if meets else 0


def gap_claim(gap):
    """The claim gap f <= gap: one gap scan of the lanes that meet."""
    return lambda *args: core._gap_at_most(*args, gap)[0]
