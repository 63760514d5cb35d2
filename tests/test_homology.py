"""Boundary matrices, parametric ranks, special loci, and Betti reports."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from supdeform import homology
from supdeform.brackets import DeformationSpec, FSpec
from supdeform.chains import ChainComplexSystem, ChainElement, normalize
from supdeform.cli import main
from supdeform.config import load_config
from supdeform.homology import (
    BoundaryMatrix,
    _cancel_units,
    _check_complex,
    _integer_columns,
    _ranks_and_locus,
    bareiss,
    betti_piecewise,
    boundary_matrix,
    generic_rank,
    minors_gcd,
    rank_at_rational,
    rank_modulo,
    special_locus,
    special_locus_for_matrix,
)
from supdeform.liealg import OneForm, VectorField, heisenberg3, solvable2
from supdeform.scalars import ONE, PolyT, T, ZERO, add_term, irreducible_factors, poly, poly_gcd, poly_xgcd

AFF_G0P = str(Path(__file__).resolve().parent.parent / "bench" / "configs" / "aff1-aff1-g0prime.cfg")

ALG2 = solvable2()
Z2 = OneForm.dual_basis(2, 2)
STD = DeformationSpec.standard(ALG2, Z2)
TRIV = DeformationSpec.trivial(ALG2, Z2, FSpec.const(1))


@pytest.fixture(scope="module")
def sys_std():
    return ChainComplexSystem(STD, "none")


@pytest.fixture(scope="module")
def sys_ext():
    return ChainComplexSystem(STD, "g0prime")


def test_boundary_matrix_shapes_and_entries(sys_std):
    M2 = boundary_matrix(sys_std, 2, -3)
    assert M2.shape == (1, 2)
    # columns (1Az1, 1Az2) against row (z1^z2); paper row [1 + 3t/2, 0] up to sign
    assert {str(e) for e in M2.entries[0]} == {"-1 - 3/2*t", "0"}
    M3 = boundary_matrix(sys_std, 3, -3)
    assert M3.shape == (2, 1)
    flat = [str(e) for row in M3.entries for e in row]
    assert sorted(flat) == ["-3*t", "0"]
    M1 = boundary_matrix(sys_std, 1, -3)
    assert M1.shape == (0, 1)
    assert generic_rank(M1.entries) == 0


def test_generic_rank_examples(sys_std):
    assert generic_rank(boundary_matrix(sys_std, 2, -3).entries) == 1
    assert generic_rank([[ZERO, ZERO]]) == 0
    assert generic_rank([[poly(1, Fraction(3, 2)), ZERO]]) == 1


def _to_sympy(entries):
    t = sympy.Symbol("t")
    return sympy.Matrix(
        [[sympy.Poly(list(reversed([sympy.Rational(c) for c in e.coeffs])) or [0], t).as_expr() for e in row] for row in entries]
    )


def test_extended_m4_rank_against_sympy_oracle(sys_ext):
    M4 = boundary_matrix(sys_ext, 4, -3)
    assert generic_rank(M4.entries) == 3
    assert _to_sympy(M4.entries).rank() == 3
    # and the generic ranks of the whole extended complex
    for m, expected in [(2, 1), (3, 3), (5, 1)]:
        M = boundary_matrix(sys_ext, m, -3)
        assert generic_rank(M.entries) == expected
        assert _to_sympy(M.entries).rank() == expected


def test_bareiss_matches_sympy_on_random_matrices():
    rng = random.Random(21)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        entries = [
            [PolyT([Fraction(rng.randint(-2, 2)) for _ in range(rng.randint(0, 3))]) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        assert generic_rank(entries) == _to_sympy(entries).rank()


def test_special_locus_standard(sys_std):
    locus = special_locus(sys_std, -3)
    assert [str(p) for p in locus] == ["t", "2/3 + t"]


def test_special_locus_trivial():
    system = ChainComplexSystem(TRIV, "none")
    locus = special_locus(system, -3)
    assert [str(p) for p in locus] == ["t"]


def test_special_locus_undeformed():
    system = ChainComplexSystem(DeformationSpec.undeformed(ALG2), "none")
    assert special_locus(system, -3) == []


@pytest.mark.filterwarnings("ignore:phi is not closed")
def test_special_locus_checks_the_complex_first():
    """phi = z3 is not closed on the Heisenberg algebra, so d.d != 0 at
    w = -3: the locus is that of a Betti report, which is refused there."""
    config = load_config(str(Path(__file__).resolve().parent.parent / "configs" / "heisenberg-nonclosed.cfg"))
    system = ChainComplexSystem(config.deformation, config.extension)
    with pytest.raises(RuntimeError, match=r"d\.d != 0"):
        special_locus(system, -3)


def _minors_locus(entries):
    """Reference locus: the factors of the gcd of the maximal nonzero minors."""
    g = minors_gcd(entries, generic_rank(entries))
    return sorted(irreducible_factors(g), key=lambda p: (p.degree, p.coeffs)) if g.degree >= 1 else []


def test_locus_paths_agree_on_paper_matrices(sys_std, sys_ext):
    for system, weights in ((sys_std, [-3]), (sys_ext, [-3, -2, -4])):
        for w in weights:
            for m in range(1, system.max_length(w) + 1):
                M = boundary_matrix(system, m, w)
                if not M.entries or not M.entries[0]:
                    continue
                assert special_locus_for_matrix(M.entries) == _minors_locus(M.entries)


def test_rank_specializations(sys_std):
    M2 = boundary_matrix(sys_std, 2, -3).entries
    assert rank_at_rational(M2, Fraction(0)) == 1
    assert rank_at_rational(M2, Fraction(-2, 3)) == 0
    M3 = boundary_matrix(sys_std, 3, -3).entries
    assert rank_at_rational(M3, Fraction(0)) == 0
    assert rank_at_rational(M3, Fraction(1)) == 1
    # rank over Q[t]/(t^2 + 1), an irreducible non-rational condition
    assert rank_modulo(M2, poly(1, 0, 1)) == 1


def test_rank_modulo_splits_reducible_modulus():
    entries = [[T]]
    with pytest.raises(RuntimeError):
        # t*(t+1) is reducible, so Q[t]/(t*(t+1)) is no field: the pivot t
        # has no inverse there
        rank_modulo(entries, poly(0, 1, 1))


def test_betti_standard_table(sys_std):
    report = betti_piecewise(sys_std, -3)
    assert report.dims == [1, 2, 1]
    assert report.generic_kernels == [1, 1, 0]
    assert report.generic_betti == [0, 0, 0]
    assert [str(p) for p in report.locus] == ["t", "2/3 + t"]
    by_label = {case.label(): case for case in report.special}
    assert by_label["t = 0"].kernels == [1, 1, 1]
    assert by_label["t = 0"].betti == [0, 1, 1]
    assert by_label["t = -2/3"].kernels == [1, 2, 0]
    assert by_label["t = -2/3"].betti == [1, 1, 0]


def test_betti_trivial_table():
    report = betti_piecewise(ChainComplexSystem(TRIV, "none"), -3)
    assert report.dims == [1, 2, 1]
    assert report.generic_betti == [0, 0, 0]
    assert len(report.special) == 1
    case = report.special[0]
    assert case.label() == "t = 0"
    assert case.kernels == [1, 2, 1]
    assert case.betti == [1, 2, 1]


def test_betti_extended_table(sys_ext):
    report = betti_piecewise(sys_ext, -3)
    assert report.dims == [1, 4, 6, 4, 1]
    assert report.generic_betti == [0, 0, 0, 0, 0]
    assert [str(p) for p in report.locus] == ["t", "2/3 + t"]
    for case in report.special:
        assert case.betti == [0, 1, 2, 1, 0]
        assert case.kernels == [1, 3, 4, 2, 0]


def test_betti_empty_weight(sys_std):
    report = betti_piecewise(sys_std, 1)
    assert all(d == 0 for d in report.dims)
    assert all(b == 0 for b in report.generic_betti)
    assert report.locus == []


def test_rank_nullity_and_euler_at_all_specializations(sys_ext):
    report = betti_piecewise(sys_ext, -3)
    chi = sum((-1) ** m * d for m, d in enumerate(report.dims))
    assert chi == sum((-1) ** m * b for m, b in enumerate(report.generic_betti))
    for case in report.special:
        for dim, r, k in zip(report.dims, case.ranks, case.kernels):
            assert dim == r + k
        for r, g in zip(case.ranks, report.generic_ranks):
            assert r <= g
        assert chi == sum((-1) ** m * b for m, b in enumerate(case.betti))


def test_boundary_image_spans_match_paper(sys_ext):
    """Row spans of the boundary images equal the paper's listed spanning
    sets over Q(t), modulo the documented factor-3 convention at m = 3."""
    def chain_vector(element, m):
        basis = sys_ext.enumerate_basis(m, -3)
        return [element.coefficient(word) for word in basis]

    y1, y2 = 0, 1  # the vector basis comes first
    one = sys_ext.form_index[()]
    z1, z2 = sys_ext.form_index[(1,)], sys_ext.form_index[(2,)]
    V = sys_ext.form_index[(1, 2)]
    q = poly(1, Fraction(3, 2))  # 1 + 3t/2

    def C(*pairs):
        total = ChainElement.zero()
        for coeff, raw in pairs:
            from supdeform.chains import normalize

            sign, word = normalize(raw, sys_ext.parity)
            total = total + ChainElement.of_word(word, PolyT.const(sign) * coeff)
        return total

    paper_spans = {
        2: [C((q, (V,))), C((ONE, (V,)))],
        3: [
            C((poly(0, 3), (z2, one))),
            C((ONE, (z2, one)), (q, (y1, V))),
            C((ONE, (z1, one)), (-q, (y2, V))),
        ],
        4: [
            C((T, (y1, z2, one))),
            C((T, (y2, z2, one))),
            C((-ONE, (y2, z2, one)), (q, (y1, y2, V))),
            C((ONE, (y1, z2, one))),
        ],
        5: [C((ONE, (y1, one, one, one)), (poly(0, 3), (y1, y2, z2, one)))],
    }
    for m, span in paper_spans.items():
        M = boundary_matrix(sys_ext, m, -3)
        entries = M.entries
        image_rows = [[entries[r][c] for r in range(len(M.rows))] for c in range(len(M.cols))]
        listed = _to_sympy([chain_vector(v, m - 1) for v in span])
        image = _to_sympy(image_rows)
        stacked = listed.col_join(image)
        # equal row spaces over Q(t): rank A = rank B = rank [A; B]
        assert listed.rank() == image.rank() == stacked.rank()


def test_minors_gcd_values(sys_ext):
    M3 = boundary_matrix(sys_ext, 3, -3)
    g = minors_gcd(M3.entries, generic_rank(M3.entries))
    # t(t + 2/3) up to monic normalization
    assert g == (T * poly(Fraction(2, 3), 1)).monic()
    assert special_locus_for_matrix(M3.entries) == [T, poly(Fraction(2, 3), 1)]


def test_proper_extension_subalgebra_complex():
    """A non-closed phi whose g0' is a genuine combination vector, end to end."""
    from supdeform.brackets import solve_g0_prime
    from supdeform.liealg import LieAlgebraSpec

    solv3 = LieAlgebraSpec(3, {(1, 3, 1): 1, (2, 3, 2): 1})
    phi = OneForm.make([1, 1, 0])
    basis = solve_g0_prime(solv3, phi)
    assert [v.coeffs for v in basis.vectors] == [(Fraction(-1), Fraction(1), Fraction(0))]
    assert basis.bracket_closed
    spec = DeformationSpec.trivial(
        solv3, phi, FSpec.from_table({(a, b): Fraction(1) for a in range(4) for b in range(4)})
    )
    system = ChainComplexSystem(spec, "g0prime")
    report = betti_piecewise(system, -2)
    assert report.dims == [3, 4, 1]
    assert report.generic_betti == [1, 1, 0]
    # at t = 0 the form bracket vanishes but the Lie-derivative action stays
    case = report.special[0]
    assert case.label() == "t = 0" and case.betti == [2, 3, 1]


def test_complex_property_dd_zero_matrixwise(sys_ext):
    for w in (-3, -2, -4):
        mats = [boundary_matrix(sys_ext, m, w) for m in range(1, sys_ext.max_length(w) + 1)]
        for A, B in zip(mats, mats[1:]):
            if not A.rows or not B.cols:
                continue
            a, b = A.entries, B.entries
            for i in range(len(A.rows)):
                for j in range(len(B.cols)):
                    acc = ZERO
                    for k in range(len(A.cols)):
                        acc = acc + a[i][k] * b[k][j]
                    assert acc.is_zero()


def _dense_bareiss(entries):
    """Reference: Bareiss with every cross term formed and every entry divided."""
    M = [row[:] for row in entries]
    nrows = len(M)
    ncols = len(M[0]) if nrows else 0
    pivots = []
    prev = ONE
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        best = None
        for i in range(r, nrows):
            if not M[i][c].is_zero() and (best is None or M[i][c].degree < M[best][c].degree):
                best = i
        if best is None:
            continue
        M[r], M[best] = M[best], M[r]
        piv = M[r][c]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                M[i][j] = (piv * M[i][j] - M[i][c] * M[r][j]).exact_div(prev)
            M[i][c] = ZERO
        pivots.append(piv)
        prev = piv
        r += 1
    return len(pivots), pivots


_small_polys = st.lists(st.integers(-3, 3).map(Fraction), min_size=1, max_size=3).map(PolyT)
_rational_polys = st.lists(
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5])), min_size=1, max_size=3
).map(PolyT)


@st.composite
def _sparse_matrices(draw, polys=_small_polys):
    """Mostly-zero matrices, some with dependent rows and all-zero columns."""
    nrows, ncols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    density = draw(st.sampled_from([0.0, 0.2, 0.4, 0.7]))
    rows = [
        [draw(polys) if draw(st.floats(0, 1)) < density else ZERO for _ in range(ncols)]
        for _ in range(nrows)
    ]
    if draw(st.booleans()):  # a Q[t]-combination of two rows: rank deficient
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        a, b = draw(polys), draw(polys)
        rows.insert(draw(st.integers(0, nrows)), [a * x + b * y for x, y in zip(rows[i], rows[j])])
    for c in draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)):
        for row in rows:
            row[c] = ZERO
    return rows


def _integer_rows(entries):
    """The rows of a matrix over Z[t] as integer coefficient tuples, () for zero."""
    return [[tuple(int(x) for x in e.coeffs) for e in row] for row in entries]


@settings(max_examples=150, deadline=None)
@given(_sparse_matrices())
def test_zero_aware_bareiss_matches_dense_reference(entries):
    rows = _integer_rows(entries)
    before = [row[:] for row in rows]
    rank, pivots = bareiss(rows)
    assert (rank, [PolyT(p) for p in pivots]) == _dense_bareiss(entries)
    assert all(_is_integer_tuple(p) for p in pivots)
    assert rows == before


_square_rational_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(_rational_polys, min_size=n, max_size=n), min_size=n, max_size=n)
)


@settings(max_examples=150, deadline=None)
@given(_square_rational_matrices)
def test_det_poly_matches_sympy_up_to_a_constant(entries):
    """Over Q[t], with denominators 2, 3 and 5: sympy's determinant shares
    no code with ``_integer_columns`` or ``bareiss``."""
    t = sympy.Symbol("t")
    matrix = DomainMatrix.from_Matrix(_to_sympy(entries))
    reference = sympy.Poly(matrix.domain.to_sympy(matrix.det()), t)
    det = sympy.Poly(_to_sympy([[homology.det_poly(entries)]])[0, 0], t)
    if reference.is_zero:
        assert det.is_zero
    else:
        assert not det.is_zero and det.monic() == reference.monic()


_integer_units = st.sampled_from([-3, -2, -1, 1, 2, 3]).map(PolyT.const)
_rational_units = st.sampled_from([-2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3)]).map(PolyT.const)
_linear_polys = st.builds(
    lambda c, lead: PolyT([Fraction(c), Fraction(lead)]), st.integers(-3, 3), st.sampled_from([-2, -1, 1, 2, 3])
)
_rational_linear_polys = st.builds(
    lambda c, lead: PolyT([c, lead]),
    st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3])),
    st.sampled_from([-2, -1, Fraction(1, 2), Fraction(-3, 2), 3]),
)


@st.composite
def _unit_matrices(draw, units, linear):
    """Up to 5 x 5, often square; a nonzero entry is a constant with
    probability 0 (so no unit pivot exists), 0.3 or 0.7, else of degree 1.
    The last row is sometimes a rational combination of two others."""
    nrows = draw(st.integers(1, 5))
    ncols = nrows if draw(st.booleans()) else draw(st.integers(1, 5))
    density = draw(st.sampled_from([0.3, 0.6, 0.9]))
    unit_share = draw(st.sampled_from([0.0, 0.3, 0.7]))

    def entry():
        if draw(st.floats(0, 1)) >= density:
            return ZERO
        return draw(units if draw(st.floats(0, 1)) < unit_share else linear)

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 3 and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


def _is_integer_tuple(e):
    return isinstance(e, tuple) and e and e[-1] and all(type(x) is int for x in e)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(_unit_matrices(_integer_units, _linear_polys), _unit_matrices(_rational_units, _rational_linear_polys)),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
)
def test_unit_cancellation_matches_whole_matrix(entries, t0):
    """On the integer columns of a matrix over Z[t] (unit pivots +-1, +-2,
    +-3) or over Q[t] (columns scaled by ``_integer_columns``), k unit pivots
    plus the residual's rank is the whole matrix's rank, generically, at t0
    and modulo irreducible quadratics, and both paths print the same special
    conditions with the same ranks."""
    columns = _integer_columns(entries)
    for c, column in enumerate(columns):
        assert set(column) == {r for r, row in enumerate(entries) if row[c]}
        assert all(_is_integer_tuple(e) for e in column.values())
        if column:  # the column over Q[t] times one positive integer, 1 if it is over Z[t]
            r, e = next(iter(column.items()))
            scale = e[-1] / entries[r][c].leading
            assert scale > 0 and scale.denominator == 1
            assert scale == 1 or any(x.denominator > 1 for r in column for x in entries[r][c].coeffs)
            assert all(e == tuple(x * scale for x in entries[r][c].coeffs) for r, e in column.items())
    k, residual = _cancel_units(columns)
    if all(e.degree != 0 for row in entries for e in row):
        assert k == 0
    assert all(any(row) for row in residual) and all(any(col) for col in zip(*residual))
    assert all(e == () or _is_integer_tuple(e) for row in residual for e in row)
    dense = [[column.get(r, ()) for column in columns] for r in range(len(entries))]
    rank, pivots = bareiss(dense)
    residual_rank, residual_pivots = bareiss(residual)
    assert k + residual_rank == rank
    rational = [[PolyT(e) for e in row] for row in residual]
    assert k + rank_at_rational(rational, t0) == rank_at_rational(entries, t0)
    for p in (poly(1, 0, 1), poly(-2, 0, 1)):
        assert k + rank_modulo(rational, p) == rank_modulo(entries, p)
    whole = homology._special_ranks([dense], [rank], [PolyT(pivots[-1]) if rank else ONE])
    assert [(str(c), r) for c, r in _ranks_and_locus([columns])[1]] == [(str(c), r) for c, r in whole]
    if len(entries) == len(entries[0]) == rank:
        # det M = (a nonzero constant: unit pivots, row and column scales) * det S
        last = PolyT(residual_pivots[-1]) if residual_rank else ONE
        ratio, rest = divmod(homology.det_poly(entries), last)
        assert rest.is_zero() and ratio.degree == 0


def test_integer_exact_division_raises_on_a_remainder():
    assert homology._zexact_div((-1, 0, 1), (1, 1)) == (-1, 1)
    assert homology._zexact_div((4, 6), (2,)) == (2, 3)
    assert homology._zexact_div((), (3, 1)) == ()
    for a, b in [((3, 1), (2,)), ((1, 0, 1), (1, 1)), ((0, 1), (1, 2)), ((3,), (1, 1))]:
        with pytest.raises(ArithmeticError):
            homology._zexact_div(a, b)


def _gauss_jordan_rank_modulo(entries, p):
    """Reference: Gauss-Jordan over Q[t]/(p), scaling each pivot row to 1
    and clearing its column in every other row."""
    rows = [[e % p for e in row] for row in entries]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        piv_row = next((i for i in range(r, nrows) if not rows[i][c].is_zero()), None)
        if piv_row is None:
            continue
        rows[r], rows[piv_row] = rows[piv_row], rows[r]
        g, inv, _ = poly_xgcd(rows[r][c], p)
        assert g == ONE
        rows[r] = [(inv * e) % p for e in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [(e - f * q) % p for e, q in zip(rows[i], rows[r])]
        r += 1
    return r


@settings(max_examples=150, deadline=None)
@given(
    _sparse_matrices(_rational_polys),
    st.sampled_from([poly(1, 0, 1), poly(-2, 0, 1), poly(-2, 0, 0, 1)]),
)
def test_forward_rank_modulo_matches_gauss_jordan_reference(entries, p):
    """t^2 + 1, t^2 - 2 and t^3 - 2 are irreducible, so both are ranks over a field."""
    before = [row[:] for row in entries]
    assert rank_modulo(entries, p) == _gauss_jordan_rank_modulo(entries, p)
    assert entries == before


@settings(max_examples=150, deadline=None)
@given(
    _sparse_matrices(_rational_polys),
    st.sampled_from([Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(-2, 3)]),
)
def test_forward_rank_at_rational_matches_rref(entries, t0):
    """Against sympy's rref, which shares no code with ``qlinalg.echelon``."""
    rows = [[sympy.Rational(e(t0).numerator, e(t0).denominator) for e in row] for row in entries]
    assert rank_at_rational(entries, t0) == len(sympy.Matrix(rows).rref()[1])


@st.composite
def _locus_matrices(draw):
    """At most 4 x 4, entries of degree <= 2 and often zero; the last row is
    sometimes a rational combination of earlier rows."""
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    density = draw(st.sampled_from([0.4, 0.7, 1.0]))
    rows = [
        [draw(_small_polys) if draw(st.floats(0, 1)) < density else ZERO for _ in range(ncols)]
        for _ in range(nrows)
    ]
    if nrows >= 2 and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[-2])]
    return rows


@settings(max_examples=150, deadline=None)
@given(_locus_matrices())
def test_verified_pivot_locus_matches_minors_reference(entries):
    """The same irreducible conditions, in the same order."""
    locus = special_locus_for_matrix(entries)
    assert locus == _minors_locus(entries)
    for p in locus:
        assert p == p.monic() and poly_gcd(p, p.derivative()) == ONE
    for p, q in combinations(locus, 2):
        assert poly_gcd(p, q) == ONE


def test_verified_pivot_locus_splits_reducible_quartic():
    a, b = poly(Fraction(1, 2), 0, 1), poly(Fraction(2, 3), 0, 1)
    entries = [[a, ZERO], [ZERO, b]]
    assert _minors_locus(entries) == [a, b]
    assert special_locus_for_matrix(entries) == [a, b]


@settings(max_examples=100, deadline=None)
@given(_locus_matrices(), st.randoms(use_true_random=False))
def test_special_locus_does_not_depend_on_basis_order(entries, rng):
    rows, cols = list(range(len(entries))), list(range(len(entries[0])))
    rng.shuffle(rows)
    rng.shuffle(cols)
    permuted = [[entries[i][j] for j in cols] for i in rows]
    assert [str(p) for p in special_locus_for_matrix(permuted)] == [str(p) for p in special_locus_for_matrix(entries)]


def test_special_locus_of_a_permuted_matrix_pinned():
    """The locus of this matrix once came back as the quintic product of its
    two conditions after rows 0, 1 and columns 0, 1 were swapped."""
    entries = [
        [ZERO, poly(2, -3, -1)],
        [poly(-1, -2, -3, 2), poly(-1, -3, 1, -1)],
        [poly(1, 2, 3, -2), poly(-3, 9, 1, 1)],
    ]
    swapped = [[entries[i][j] for j in (1, 0)] for i in (1, 0, 2)]
    expected = [poly(-2, 3, 1), poly(Fraction(-1, 2), -1, Fraction(-3, 2), 1)]
    assert special_locus_for_matrix(entries) == expected
    assert special_locus_for_matrix(swapped) == expected


def test_locus_union_stays_pairwise_coprime():
    """One matrix's last pivot is a reducible quartic, another's one of its
    factors; the union holds each irreducible factor once."""
    a, b = poly(Fraction(1, 2), 0, 1), poly(Fraction(2, 3), 0, 1)
    # a * b = 1/3 + 7/6 t^2 + t^4 and a = 1/2 + t^2, over the scales 6 and 2
    whole = BoundaryMatrix(2, 0, ["u"], ["v"], [{0: (2, 0, 7, 0, 6)}], 6)
    part = BoundaryMatrix(3, 0, ["v"], ["x"], [{0: (1, 0, 2)}], 2)
    assert whole.entries == [[a * b]] and part.entries == [[a]]
    assert special_locus_for_matrix(whole.entries) == [a, b]
    assert _ranks_and_locus([whole.columns, part.columns]) == ([1, 1], [(a, [0, 0]), (b, [0, 1])])


def test_report_locus_is_its_special_conditions(monkeypatch):
    """d_2 = [[a*b]] drops rank on a and on b; d_4 = [[a], [1]] has last
    pivot 1, so it keeps its rank there and is never reduced modulo a."""
    a, b = poly(Fraction(1, 2), 0, 1), poly(Fraction(2, 3), 0, 1)
    matrices = [
        BoundaryMatrix(1, 0, [], ["u"], [{}]),
        BoundaryMatrix(2, 0, ["u"], ["v"], [{0: (2, 0, 7, 0, 6)}], 6),
        BoundaryMatrix(3, 0, ["v"], ["x0", "x1"], [{}, {}]),
        BoundaryMatrix(4, 0, ["x0", "x1"], ["y"], [{0: (1, 0, 2), 1: (2,)}], 2),
    ]
    assert matrices[1].entries == [[a * b]] and matrices[3].entries == [[a], [ONE]]
    reduced = []
    original = homology.rank_modulo

    def recording(entries, p):
        reduced.append(entries)
        return original(entries, p)

    monkeypatch.setattr(homology, "rank_modulo", recording)
    monkeypatch.setattr(homology, "boundary_matrices", lambda *_args: matrices)
    report = betti_piecewise(None, 0)
    assert report.locus == [a, b]
    assert [case.condition for case in report.special] == report.locus
    assert [case.ranks for case in report.special] == [[0, 0, 0, 1], [0, 0, 0, 1]]
    assert reduced and all(entries == [[6 * a * b]] for entries in reduced)  # d_2's residual only
    assert special_locus(None, 0) == [a, b]


def test_betti_piecewise_enumerates_the_words_once(monkeypatch):
    """One word search per weight: each d_m takes its bases from lists m - 1
    and m of that one result, so the rows of d_{m+1} are the columns of d_m,
    and the matrices equal those ``boundary_matrix`` builds one by one."""
    config = load_config(AFF_G0P)
    system = ChainComplexSystem(config.deformation, config.extension)
    searches = []
    original_words = ChainComplexSystem.words

    def words(self, w):
        searches.append(w)
        return original_words(self, w)

    monkeypatch.setattr(ChainComplexSystem, "words", words)
    for w in (-2, -4):
        matrices = list(homology.boundary_matrices(system, w))
        assert searches == [w]
        assert all(B.rows is A.cols for A, B in zip(matrices, matrices[1:]))
        searches.clear()
        betti_piecewise(system, w)
        assert searches == [w]
        searches.clear()
        singles = [boundary_matrix(system, m, w) for m in range(1, system.max_length(w) + 1)]
        assert [(M.rows, M.cols, M.columns) for M in singles] == [(M.rows, M.cols, M.columns) for M in matrices]
        searches.clear()


def test_betti_piecewise_eliminates_each_matrix_once(monkeypatch):
    """Each matrix's unit pivots are cancelled on its integer columns, and
    only the non-empty residuals are eliminated and specialized."""
    config = load_config(AFF_G0P)
    system = ChainComplexSystem(config.deformation, config.extension)
    calls = {"bareiss": 0, "det_poly": 0}
    built = []
    residuals = []
    specialized = []  # (residual entries, condition) per rank at a condition

    def counting(name):
        original = getattr(homology, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    original_matrices = homology.boundary_matrices

    def building(system, w):
        for M in original_matrices(system, w):
            built.append(M)
            yield M

    def cancelling(columns):
        assert columns is built[len(residuals)].columns
        assert all(_is_integer_tuple(e) for column in columns for e in column.values())
        k, residual = _cancel_units(columns)
        residuals.append(residual)
        return k, residual

    original_rank_at = homology._rank_at

    def rank_at(entries, cond):
        specialized.append((entries, cond))
        return original_rank_at(entries, cond)

    for name in calls:
        monkeypatch.setattr(homology, name, counting(name))
    monkeypatch.setattr(homology, "boundary_matrices", building)
    monkeypatch.setattr(homology, "_cancel_units", cancelling)
    monkeypatch.setattr(homology, "_rank_at", rank_at)
    report = betti_piecewise(system, -4)
    assert [M.m for M in built] == report.degrees
    assert all(M.cols for M in built)
    assert len(residuals) == len(built)
    # the locus factors each residual's last pivot; no minor is formed
    assert calls["det_poly"] == 0
    assert calls["bareiss"] == sum(1 for S in residuals if S) == 3
    # a residual is specialized only where its last pivot vanishes, once each,
    # and converted to PolyT entries once, however many conditions it meets
    converted = [([[PolyT(e) for e in row] for row in S], PolyT(bareiss(S)[1][-1])) for S in residuals if S]
    assert len(specialized) == 6
    assert len({(id(entries), tuple(p.coeffs)) for entries, p in specialized}) == len(specialized)
    matched = {}
    for entries, p in specialized:
        (k,) = [k for k, (poly, _) in enumerate(converted) if poly == entries]
        assert matched.setdefault(k, id(entries)) == id(entries)
        assert (converted[k][1] % p).is_zero()
    assert [str(p) for p in report.locus] == ["t"]
    assert report.generic_betti == [0, 0, 3, 6, 3, 0, 0, 0]
    assert [(case.label(), case.betti) for case in report.special] == [("t = 0", [0, 0, 4, 9, 6, 1, 0, 0])]


def test_check_complex_raises_on_nonzero_composite():
    """A.B vanishes except in its last entry, which only the full sparse
    product reaches."""
    # A = [[1, t, 0], [0, 0, t]], B_ok = [[t, 0], [-1, 0], [0, 0]]; B_bad has a 1 in its last entry
    A = BoundaryMatrix(2, 0, ["u0", "u1"], ["v0", "v1", "v2"], [{0: (1,)}, {0: (0, 1)}, {1: (0, 1)}])
    B_ok = BoundaryMatrix(3, 0, ["v0", "v1", "v2"], ["x0", "x1"], [{0: (0, 1), 1: (-1,)}, {}])
    _check_complex([A, B_ok])
    B_bad = BoundaryMatrix(3, 0, ["v0", "v1", "v2"], ["x0", "x1"], [{0: (0, 1), 1: (-1,)}, {2: (1,)}])
    with pytest.raises(RuntimeError, match=r"^d\.d != 0 between degrees 2 and 3$"):
        _check_complex([A, B_bad])


def test_check_complex_across_different_scales():
    """Adjacent matrices over the scales 2 and 3: A = [[1/2, t/2, 1]] and
    B = [[t/3, 2/3], [-1/3, -2/3], [0, (t - 1)/3]], so A.B = 0; with B's
    last entry t/3 instead, A.B = [[0, 1/3]]."""
    A = BoundaryMatrix(1, 0, ["u"], ["v0", "v1", "v2"], [{0: (1,)}, {0: (0, 1)}, {0: (2,)}], 2)
    first = {0: (0, 1), 1: (-1,)}
    B_ok = BoundaryMatrix(2, 0, A.cols, ["x0", "x1"], [first, {0: (2,), 1: (-2,), 2: (-1, 1)}], 3)
    B_bad = BoundaryMatrix(2, 0, A.cols, ["x0", "x1"], [first, {0: (2,), 1: (-2,), 2: (0, 1)}], 3)
    (a_row,) = A.entries
    products = [[sum((a * b for a, b in zip(a_row, col)), ZERO) for col in zip(*B.entries)] for B in (B_ok, B_bad)]
    assert products == [[ZERO, ZERO], [ZERO, poly(Fraction(1, 3))]]
    _check_complex([A, B_ok])
    with pytest.raises(RuntimeError, match=r"^d\.d != 0 between degrees 1 and 2$"):
        _check_complex([A, B_bad])


def test_betti_g0p_weight_minus_five_answer_pinned(capsys):
    """The w = -5 report on aff(1)+aff(1) extended by g0', as two independent
    computations gave it."""
    assert main(["betti", "--config", AFF_G0P, "--weight", "-5", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0e9bba05ba8125c88f78fdb4f76e3c2dd421a7840280ea9627846bed9fd98c89"
    )


def test_betti_g0p_weight_minus_six_answer_pinned(capsys):
    """Generic Betti (0,0,0,4,8,4,0,0,0,0), locus {t}: the report that the
    whole-matrix elimination and a block-by-grading one both gave."""
    assert main(["betti", "--config", AFF_G0P, "--weight", "-6", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "063a9ca886a18578c47a8929b09f49fd121859e98af575eede6448fcb8c06b98"
    )


def test_betti_g0p_weight_minus_seven_answer_pinned(capsys):
    """Generic Betti (0,0,0,1,4,5,2,0,0,0,0), locus {t}, and at t = 0
    (0,0,0,1,5,9,8,4,1,0,0): the report that the whole-matrix elimination
    and the unit-pivot cancellation both gave."""
    assert main(["betti", "--config", AFF_G0P, "--weight", "-7", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1e6056deda6b08f4ae8b67ef05f98f2c68aa8c189d717a459550c7b1a4d79932"
    )


def test_betti_g0p_weight_minus_eight_answer_pinned(capsys):
    """dims (0,12,184,691,1196,1146,680,292,108,34,8,1), generic Betti
    (0,0,0,0,6,12,6,0,0,0,0,0), locus {t}, and at t = 0
    (0,0,0,0,7,16,13,7,4,1,0,0): the report that the whole-matrix
    elimination and the unit-pivot cancellation both gave."""
    assert main(["betti", "--config", AFF_G0P, "--weight", "-8", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "57c49da59e25c38412fdc1e990ce8d9cf19b4758f0cda0b0cd332f4293d76cc5"
    )


def test_chain_g0p_weight_minus_four_dump_pinned(capsys):
    """Word labels, canonical word order and every boundary entry of the
    w = -4 chain dump on aff(1)+aff(1) extended by g0'."""
    assert main(["chain", "--config", AFF_G0P, "--weight", "-4", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "49880145f6923c913fe05b425ac4e4f7dd6a68d8c275f3264c58b39f0fb26bf5"
    )


def test_chain_g0p_weight_minus_four_text_dump_pinned(capsys):
    """The same dump in text format: bases and boundary rows, zeros included."""
    assert main(["chain", "--config", AFF_G0P, "--weight", "-4", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f8f2a84e6c9844557b66ac42da87a579e02f54806b8d76de7e1f244a30235d47"
    )


FILIFORM6_G0P = """
[algebra]
dim = 6
bracket 1 2 -> 3 : 1
bracket 1 3 -> 4 : 1
bracket 1 4 -> 5 : 1
bracket 1 5 -> 6 : 1

[phi]
coeffs = 0 1 0 0 0 0

[deformation]
kind = standard

[extension]
subalgebra = g0prime
"""


def test_filiform6_g0p_weight_minus_three_answer_pinned(tmp_path, capsys):
    """filiform-6 extended by g0'. Generic Betti (2,7,12,13,9,4,1,0,0),
    locus {t}: the report that the whole-matrix elimination and a
    block-by-grading one both gave."""
    path = tmp_path / "filiform6-g0prime.cfg"
    path.write_text(FILIFORM6_G0P)
    assert main(["betti", "--config", str(path), "--weight", "-3", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "dd5d74e162f87c873db62cbc40453614cb6a9efc62f8cb5370ba27e8672aadf8"
    )


def test_filiform6_g0p_weight_minus_four_answer_pinned(tmp_path, capsys):
    """filiform-6 extended by g0' at w = -4, locus {t}: its residual pivots
    are of higher degree than on aff(1)+aff(1), so the entries of the
    integer residual grow.  Bareiss and exact substitution at t = 0 on the
    whole matrices give the same ranks."""
    path = tmp_path / "filiform6-g0prime.cfg"
    path.write_text(FILIFORM6_G0P)
    assert main(["betti", "--config", str(path), "--weight", "-4", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "314adbaae980af5d3a1025ea53e501350cd4cf83d8f3eeaf255925cb073cd038"
    )


def test_filiform6_g0p_axioms_report_pinned(tmp_path, capsys):
    """Both axioms pass on the forms and on h (+) g0' of filiform-6, with
    every pair and triple counted."""
    path = tmp_path / "filiform6-g0prime.cfg"
    path.write_text(FILIFORM6_G0P)
    assert main(["axioms", "--config", str(path), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "dff972b1ac86490275b5ec78c3b6411ef8ec28a2e3a7e32799a57063e662cf62"
    )


FILIFORM7_G0P = """
[algebra]
dim = 7
bracket 1 2 -> 3 : 1
bracket 1 3 -> 4 : 1
bracket 1 4 -> 5 : 1
bracket 1 5 -> 6 : 1
bracket 1 6 -> 7 : 1

[phi]
coeffs = 0 1 0 0 0 0 0

[deformation]
kind = standard

[extension]
subalgebra = g0prime
"""


def test_filiform7_g0p_axioms_report_pinned(tmp_path, capsys):
    """Both axioms pass on the forms and on h (+) g0' of filiform-7: the
    super Jacobi contraction on 135 items, with 2 460 375 triples counted."""
    path = tmp_path / "filiform7-g0prime.cfg"
    path.write_text(FILIFORM7_G0P)
    assert main(["axioms", "--config", str(path), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert '"checked": 2460375' in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b115e2551a870fbd37b6a0dff62abbc1a3c2008ce79c49d5528b6f49f3a80195"
    )


FILIFORM8_G0P = """
[algebra]
dim = 8
bracket 1 2 -> 3 : 1
bracket 1 3 -> 4 : 1
bracket 1 4 -> 5 : 1
bracket 1 5 -> 6 : 1
bracket 1 6 -> 7 : 1
bracket 1 7 -> 8 : 1

[phi]
coeffs = 0 1 0 0 0 0 0 0

[deformation]
kind = standard

[extension]
subalgebra = g0prime
"""


def test_filiform8_g0p_axioms_report_pinned(tmp_path, capsys):
    """Both axioms pass on the forms and on h (+) g0' of filiform-8: 264
    items, of whose 69 696 ordered pairs only the nonzero ones are held,
    and 18 399 744 triples counted."""
    path = tmp_path / "filiform8-g0prime.cfg"
    path.write_text(FILIFORM8_G0P)
    assert main(["axioms", "--config", str(path), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert '"checked": 18399744' in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "860c4af10db29c92d8328d4dc86518f042e490e9011479350b4fe75b88459bd3"
    )


FILIFORM9_G0P = """
[algebra]
dim = 9
bracket 1 2 -> 3 : 1
bracket 1 3 -> 4 : 1
bracket 1 4 -> 5 : 1
bracket 1 5 -> 6 : 1
bracket 1 6 -> 7 : 1
bracket 1 7 -> 8 : 1
bracket 1 8 -> 9 : 1

[phi]
coeffs = 0 1 0 0 0 0 0 0 0

[deformation]
kind = standard

[extension]
subalgebra = g0prime
"""


def test_filiform9_g0p_axioms_report_pinned(tmp_path, capsys):
    """Both axioms pass on the forms and on h (+) g0' of filiform-9: 521
    items, whose form rows try only the 3^9 disjoint pairs, and
    141 420 761 triples counted."""
    path = tmp_path / "filiform9-g0prime.cfg"
    path.write_text(FILIFORM9_G0P)
    assert main(["axioms", "--config", str(path), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert '"checked": 141420761' in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9a7a48fe966a627ae301b4da7911fffe904c4e103b7cbcb2ba6721df0bcc18df"
    )


def _reference_bracket(system, g1, g2):
    """Reference: [g1, g2] in chain generators over Q[t], a list of
    (generator, PolyT) read straight from the bilinear bracket ``image``."""
    items = system.brackets.items
    return system._expand(system.brackets.image(items[g1].element.terms, items[g2].element.terms))


def _reference_boundary_word(system, word):
    """Reference: the boundary of one word as {canonical word: PolyT}, by the
    pair loop and sign rule of ``boundary_word`` on Q[t] coefficients."""
    parity = system.parity
    terms = {}
    for i in range(len(word)):
        for j in range(i + 1, len(word)):
            between = sum(parity[g] for g in word[i + 1 : j]) if parity[word[i]] else 0
            sgn = -1 if (i + between) % 2 else 1
            for gen, coeff in _reference_bracket(system, word[i], word[j]):
                norm = normalize(word[:i] + word[i + 1 : j] + (gen,) + word[j + 1 :], parity)
                if norm is not None:
                    add_term(terms, norm[1], coeff if sgn * norm[0] > 0 else -coeff)
    return terms


def _dense_boundary(system, m, w):
    """Reference: the dense matrix entries[r][c] = coefficient of row word r
    in the boundary of column word c over Q[t], every entry stored."""
    cols = system.enumerate_basis(m, w)
    rows = system.enumerate_basis(m - 1, w) if m >= 2 else []
    entries = [[ZERO] * len(cols) for _ in rows]
    for c, word in enumerate(cols):
        image = _reference_boundary_word(system, word)
        for r, target in enumerate(rows):
            entries[r][c] = image.get(target, ZERO)
        assert sum(1 for row in entries if not row[c].is_zero()) == len(image)
    return entries


def _shipped_complexes():
    """(system, weight) of every shipped config at its weights, of
    aff(1)+aff(1) + g0' at w = -4 and -5, of the Heisenberg trivial-kappa
    bench config at w = -5 (den 3), and of the Heisenberg algebra extended
    by two non-coordinate vector bases at w = -3."""
    root = Path(__file__).resolve().parent.parent
    for path in sorted((root / "configs").glob("*.cfg")):
        config = load_config(str(path))
        system = ChainComplexSystem(config.deformation, config.extension)
        for w in config.weights:
            yield system, w
    config = load_config(AFF_G0P)
    system = ChainComplexSystem(config.deformation, config.extension)
    yield system, -4
    yield system, -5
    config = load_config(str(root / "bench" / "configs" / "heisenberg-trivial-kappa.cfg"))
    yield ChainComplexSystem(config.deformation, config.extension), -5
    spec = DeformationSpec.standard(heisenberg3(), OneForm.dual_basis(3, 1))
    for vectors in [((1, 1, 0), (0, 0, 1)), ((1, 1, 0), (0, 1, 0), (1, 0, 1))]:
        yield ChainComplexSystem(spec, vectors=[VectorField(v) for v in vectors]), -3


@pytest.mark.filterwarnings("ignore:phi is not closed")
def test_sparse_assembly_matches_dense_reference(tmp_path):
    """Every column over the matrix's scale is the boundary that the pair
    loop gives over Q[t]; entries are nonzero integer tuples without trailing
    zeros, and the scale is the system's den."""
    path = tmp_path / "filiform6-g0prime.cfg"
    path.write_text(FILIFORM6_G0P)
    config = load_config(str(path))
    filiform = (ChainComplexSystem(config.deformation, config.extension), -3)
    checked = 0
    scales = set()
    for system, w in [*_shipped_complexes(), filiform]:
        for M in homology.boundary_matrices(system, w):
            dense = _dense_boundary(system, M.m, w)
            assert len(M.columns) == len(M.cols)
            assert all(_is_integer_tuple(e) for column in M.columns for e in column.values())
            assert M.scale == system.den
            rational = [{r: PolyT([Fraction(x, M.scale) for x in e]) for r, e in column.items()} for column in M.columns]
            assert rational == [
                {r: row[c] for r, row in enumerate(dense) if not row[c].is_zero()} for c in range(len(M.cols))
            ]
            assert M.entries == dense
            scales.add(M.scale)
            checked += 1
    # 38 matrices from the configs and aff(1)+aff(1), 5 from trivial-kappa,
    # 5 and 6 from the two vector bases, 9 from filiform-6
    assert checked == 63
    assert scales == {1, 2, 3}
