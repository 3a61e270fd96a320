"""Shared hypothesis strategies for drawing small finite functions."""

import hypothesis.strategies as st

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
