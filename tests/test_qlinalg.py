"""Exact linear algebra over Q: the zero-skipping row reduction."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from supdeform import qlinalg


def _dense_rref(rows):
    """Reference: Gauss-Jordan that updates every entry of every row."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


@st.composite
def _sparse_rational_matrices(draw):
    nrows, ncols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    entry = st.one_of(
        st.just(0),
        st.just(Fraction(0)),
        st.integers(-3, 3),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    )
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    if draw(st.booleans()):  # a dependent row
        a = draw(st.integers(-2, 2))
        rows.append([a * x + y for x, y in zip(rows[0], rows[-1])])
    return rows


@settings(max_examples=150, deadline=None)
@given(_sparse_rational_matrices())
def test_rref_matches_dense_reference(rows):
    before = [row[:] for row in rows]
    reduced, pivots = qlinalg.rref(rows)
    assert (reduced, pivots) == _dense_rref(rows)
    assert all(type(x) is Fraction for row in reduced for x in row)
    assert rows == before
