"""Exact linear algebra over a field: the zero-skipping row reduction."""

from fractions import Fraction

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supdeform import qlinalg
from supdeform.scalars import ONE, PolyT, T, ZERO, poly, poly_xgcd


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


def _sympy_rref(rows, ncols):
    """sympy's reduced form over Q (nonzero rows) and its pivots, which
    share no code with ``qlinalg``."""
    M = sympy.Matrix(len(rows), ncols, [sympy.Rational(x.numerator, x.denominator) for row in rows for x in row])
    reduced, pivots = M.rref()
    return reduced[: len(pivots), :], pivots


def _assert_echelon_shape(reduced, pivots):
    """Pivot columns strictly increase, and each row is zero left of its pivot."""
    assert len(reduced) == len(pivots)
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for row, c in zip(reduced, pivots):
        assert row[c] and not any(row[:c])


@settings(max_examples=150, deadline=None)
@given(_sparse_rational_matrices())
@example([[1, 0], [1, 1]])  # the entry below the first pivot must end exactly zero
def test_echelon_over_q_keeps_the_row_space(rows):
    ncols = len(rows[0])
    reduced, pivots = qlinalg.echelon([[Fraction(x) for x in row] for row in rows], lambda x: 1 / x)
    _assert_echelon_shape(reduced, pivots)
    expected, expected_pivots = _sympy_rref(rows, ncols)
    assert _sympy_rref(reduced, ncols) == (expected, expected_pivots)
    assert len(pivots) == len(expected_pivots)


@st.composite
def _sparse_poly_matrices(draw):
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.one_of(
        st.just(ZERO),
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3), min_size=1, max_size=4).map(PolyT),
    )
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    if draw(st.booleans()):  # a Q[t]-combination of two rows
        a, b = draw(entry), draw(entry)
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
    return rows


def _expand_over_q(rows, p):
    """Each row r of a matrix over K = Q[t]/(p) as the deg p rows t^s * r
    over Q, in the coordinates 1, t, .., t^(deg p - 1) of each entry.  Their
    Q-span is the K-span of r, so rank over Q = deg p * rank over K, and two
    matrices have the same K-row space exactly when their expansions have
    the same Q-row space."""
    d = p.degree
    out = []
    for row in rows:
        for _ in range(d):
            out.append([c for e in row for c in e.coeffs + (Fraction(0),) * (d - len(e.coeffs))])
            row = [(T * e) % p for e in row]
    return out


@settings(max_examples=100, deadline=None)
@given(_sparse_poly_matrices(), st.sampled_from([poly(1, 0, 1), poly(-2, 0, 1), poly(-2, 0, 0, 1)]))
def test_echelon_modulo_irreducible_keeps_the_row_space(rows, p):
    """t^2 + 1, t^2 - 2 and t^3 - 2 are irreducible over Q, so Q[t]/(p) is a field."""

    def inverse(x):
        g, s, _ = poly_xgcd(x, p)
        assert g == ONE
        return s

    rows = [[e % p for e in row] for row in rows]
    reduced, pivots = qlinalg.echelon([row[:] for row in rows], inverse, lambda x: x % p)
    _assert_echelon_shape(reduced, pivots)
    assert all(e == e % p for row in reduced for e in row)
    ncols = len(rows[0]) * p.degree
    expected, expected_pivots = _sympy_rref(_expand_over_q(rows, p), ncols)
    assert _sympy_rref(_expand_over_q(reduced, p), ncols) == (expected, expected_pivots)
    assert p.degree * len(pivots) == len(expected_pivots)
