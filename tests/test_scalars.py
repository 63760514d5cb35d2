"""Exact arithmetic: polynomial ring operations, gcd, factoring, rational roots, evaluation."""

import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from supdeform.scalars import (
    ONE,
    PolyT,
    T,
    ZERO,
    _zadd_term,
    format_over,
    irreducible_factors,
    poly,
    poly_gcd,
    poly_xgcd,
    rational_roots,
    squarefree_part,
)


def test_gcd_with_zero():
    assert poly_gcd(T, ZERO) == T
    assert poly_gcd(ZERO, ZERO) == ZERO


def test_gcd_common_factor_monic():
    # gcd(t*(2+3t), 2+3t) is the monic scalar multiple t + 2/3
    p = T * poly(2, 3)
    assert poly_gcd(p, poly(2, 3)) == poly(Fraction(2, 3), 1)


def test_gcd_euclid_by_hand():
    # (t^2 - 1) = (t + 1)(t - 1), so gcd with t - 1 is t - 1
    assert poly_gcd(poly(-1, 0, 1), poly(-1, 1)) == poly(-1, 1)


def test_rational_roots_paper_locus():
    # t(1 + 3t/2) = 0 exactly at t = 0 and t = -2/3
    p = T * poly(1, Fraction(3, 2))
    assert rational_roots(p) == {Fraction(0), Fraction(-2, 3)}


def test_rational_roots_constant_and_linear():
    assert rational_roots(poly(1)) == set()
    assert rational_roots(poly(2, 3)) == {Fraction(-2, 3)}


def test_rational_roots_zero_rejected():
    with pytest.raises(ValueError):
        rational_roots(ZERO)


def test_eval_examples():
    p = poly(1, Fraction(3, 2))
    assert p(0) == 1
    assert p(Fraction(-2, 3)) == 0
    assert T(5) == 5


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def polys(max_degree=4):
    return st.lists(small_fractions, min_size=0, max_size=max_degree + 1).map(PolyT)


@given(polys(), polys())
def test_gcd_divides_both(p, q):
    g = poly_gcd(p, q)
    if g.is_zero():
        assert p.is_zero() and q.is_zero()
    else:
        assert (p % g).is_zero()
        assert (q % g).is_zero()


@given(polys(), polys())
def test_xgcd_certificate(p, q):
    g, u, v = poly_xgcd(p, q)
    assert u * p + v * q == g
    assert g == poly_gcd(p, q)


@given(polys(), polys(), small_fractions)
def test_eval_is_ring_homomorphism(p, q, t0):
    assert (p * q)(t0) == p(t0) * q(t0)
    assert (p + q)(t0) == p(t0) + q(t0)


def test_squarefree_and_factors():
    p = T * T * poly(2, 3)
    assert squarefree_part(p) == (T * poly(Fraction(2, 3), 1)).monic()
    factors = irreducible_factors(p)
    assert factors == [T, poly(Fraction(2, 3), 1)]
    # a rational-root-free quadratic is irreducible over Q
    assert irreducible_factors(poly(1, 0, 1)) == [poly(1, 0, 1)]


_quadratics_and_cubics = st.lists(st.integers(-5, 5), min_size=3, max_size=4).filter(lambda cs: cs[-1]).map(PolyT)


def _sympy_factors(p: PolyT) -> list[PolyT]:
    """The distinct monic factors of p from sympy's factor_list, sorted."""
    t = sympy.Symbol("t")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * t**k for k, c in enumerate(p.coeffs))
    monic = [sympy.Poly(f, t).monic().all_coeffs()[::-1] for f, _ in sympy.factor_list(expr, t)[1]]
    return sorted((PolyT([Fraction(int(c.p), int(c.q)) for c in cs]) for cs in monic), key=lambda f: (f.degree, f.coeffs))


@settings(max_examples=100, deadline=None)
@given(st.lists(_quadratics_and_cubics, min_size=1, max_size=3), st.data())
def test_irreducible_factors_match_sympy(factors, data):
    p = PolyT.const(data.draw(st.sampled_from([1, 2, Fraction(-3, 4)])))
    for f in factors:
        p = p * f
    p = p * data.draw(st.sampled_from(factors))  # a repeated factor
    assert irreducible_factors(p) == _sympy_factors(p)


def test_swinnerton_dyer_octic_is_irreducible():
    # the minimal polynomial of sqrt(2) + sqrt(3) + sqrt(5): it splits into
    # factors of degree <= 2 modulo every prime
    sd = poly(576, 0, -960, 0, 352, 0, -40, 0, 1)
    assert irreducible_factors(sd) == [sd]
    assert irreducible_factors(sd * poly(1, 0, -10, 0, 1)) == [poly(1, 0, -10, 0, 1), sd]


def test_factoring_with_a_large_constant_is_fast():
    quadratic = poly(10**30 + 3, 0, 1)
    start = time.perf_counter()
    assert irreducible_factors(quadratic * poly(-1, 3)) == [poly(Fraction(-1, 3), 1), quadratic]
    assert time.perf_counter() - start < 1
    assert rational_roots(quadratic * poly(-1, 3)) == {Fraction(1, 3)}


def test_divmod_exactness():
    q, r = divmod(poly(-1, 0, 1), poly(-1, 1))
    assert q == poly(1, 1) and r.is_zero()
    with pytest.raises(ArithmeticError):
        poly(1, 1).exact_div(T)


def _convolution(p: PolyT, q: PolyT) -> PolyT:
    """Schoolbook product of the coefficient lists, normalized by PolyT."""
    out = [Fraction(0)] * max(len(p.coeffs) + len(q.coeffs) - 1, 0)
    for i, ci in enumerate(p.coeffs):
        for j, cj in enumerate(q.coeffs):
            out[i + j] += ci * cj
    return PolyT(out)


factors = st.one_of(
    st.sampled_from([ZERO, ONE, -ONE, PolyT.const(Fraction(-3, 2))]),
    small_fractions.map(PolyT.const),
    polys(),
)


@given(factors, factors)
def test_product_matches_convolution(p, q):
    for prod in (p * q, q * p):
        assert prod == _convolution(p, q)
        # normalized as PolyT.__init__ would leave it: Fractions, no trailing zero
        assert all(type(c) is Fraction for c in prod.coeffs)
        assert not prod.coeffs or prod.coeffs[-1] != 0
    assert p * 1 == p == 1 * p
    if p and p != ONE:  # ONE * ONE may return either factor
        assert (ONE * p) is p and (p * ONE) is p


@given(polys(), factors.filter(bool))
def test_divmod_identity_including_unit_divisors(p, d):
    q, r = divmod(p, d)
    assert q * d + r == p
    assert r.degree < d.degree or r.is_zero()
    assert all(type(c) is Fraction for c in q.coeffs + r.coeffs)
    if d.degree == 0:
        assert r.is_zero() and p.exact_div(d) == q


def _plain_sum(p: PolyT, q: PolyT, sign: int) -> PolyT:
    """p + sign * q on zero-padded coefficient lists, normalized by PolyT."""
    n = max(len(p.coeffs), len(q.coeffs))
    a = list(p.coeffs) + [Fraction(0)] * (n - len(p.coeffs))
    b = list(q.coeffs) + [Fraction(0)] * (n - len(q.coeffs))
    return PolyT([x + sign * y for x, y in zip(a, b)])


def _plain_divmod(p: PolyT, d: PolyT) -> tuple[PolyT, PolyT]:
    """Schoolbook long division on coefficient lists, normalized by PolyT."""
    rem, n = list(p.coeffs), len(d.coeffs) - 1
    quo = [Fraction(0)] * max(len(rem) - n, 0)
    for k in range(len(quo) - 1, -1, -1):
        quo[k] = rem[k + n] / d.coeffs[n]
        for j, dj in enumerate(d.coeffs):
            rem[k + j] -= quo[k] * dj
    return PolyT(quo), PolyT(rem)


def _normalized(p: PolyT) -> bool:
    """As PolyT.__init__ would leave it: Fractions, no trailing zero."""
    return all(type(c) is Fraction for c in p.coeffs) and (not p.coeffs or p.coeffs[-1] != 0)


@given(factors, factors)
def test_sums_match_coefficient_lists(p, q):
    for result, expected in (
        (p + q, _plain_sum(p, q, 1)),
        (q + p, _plain_sum(p, q, 1)),
        (p - q, _plain_sum(p, q, -1)),
        (-p, _plain_sum(ZERO, p, -1)),
        (p - p, ZERO),
        (p + (-p), ZERO),
    ):
        assert result == expected and _normalized(result)
    assert p + 1 == _plain_sum(p, ONE, 1) == 1 + p
    assert p - 1 == _plain_sum(p, ONE, -1) == -(1 - p)


@given(polys(), factors.filter(bool))
def test_divmod_matches_long_division(p, d):
    q, r = divmod(p, d)
    assert (q, r) == _plain_divmod(p, d)
    assert _normalized(q) and _normalized(r)


def test_text_of_pinned_polynomials():
    for p, text in (
        (ZERO, "0"),
        (poly(-1, Fraction(-3, 2)), "-1 - 3/2*t"),
        (T, "t"),
        (poly(0, 0, -1), "-t^2"),
        (poly(Fraction(1, 2), 1, 0, Fraction(-2, 3)), "1/2 + t - 2/3*t^3"),
        (poly(0, -1, 3), "-t + 3*t^2"),
    ):
        assert str(p) == text


@given(st.lists(st.integers(-12, 12), max_size=4).filter(lambda xs: not xs or xs[-1]).map(tuple), st.integers(1, 6))
def test_format_over_matches_the_rational_polynomial(numerators, den):
    assert format_over(numerators, den) == str(PolyT([Fraction(n, den) for n in numerators]))


@given(factors.filter(bool), factors.filter(bool))
def test_integer_term_sum_matches_polynomial_sum(p, q):
    """60 clears every denominator of ``small_fractions``; a zero sum drops
    its key, as ``add_term`` does."""
    a, b = (tuple(int(60 * c) for c in x.coeffs) for x in (p, q))
    terms = {"x": a}
    _zadd_term(terms, "y", b)
    _zadd_term(terms, "x", b)
    assert terms.get("x", ()) == tuple(int(60 * c) for c in (p + q).coeffs) and terms["y"] == b
