"""Ground data: Jacobi validation, the CE differential, closedness of phi."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supdeform.exterior import FORM, GradedElement, ce_differential, d, is_closed
from supdeform.liealg import (
    LieAlgebraSpec,
    OneForm,
    abelian,
    heisenberg3,
    solvable2,
    validate_jacobi,
)

ALGEBRAS = [solvable2(), heisenberg3(), abelian(3)]


def test_jacobi_ok_on_reference_algebras():
    for alg in ALGEBRAS:
        assert validate_jacobi(alg) is None


def test_jacobi_violation_detected():
    fake = LieAlgebraSpec(3, {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 1): 1})
    violation = validate_jacobi(fake)
    assert violation is not None
    assert violation.triple == (1, 2, 3)
    # sum of cyclic double brackets is [[y3,y1],y2] = [y1,y2] = y3
    assert violation.defect == (0, 0, 1)


def _dense_validate_jacobi(spec):
    """The dense reference: every cyclic double bracket of basis vectors as
    a full coordinate vector of ``bracket_coeffs``."""
    n = spec.n
    basis = [tuple(Fraction(1 if m == i else 0) for m in range(1, n + 1)) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                yi, yj, yk = basis[i - 1], basis[j - 1], basis[k - 1]
                defect = [Fraction(0)] * n
                for a, b, c in ((yi, yj, yk), (yj, yk, yi), (yk, yi, yj)):
                    outer = spec.bracket_coeffs(spec.bracket_coeffs(a, b), c)
                    for m in range(n):
                        defect[m] += outer[m]
                if any(defect):
                    return (i, j, k), tuple(defect)
    return None


@st.composite
def _structure_constants(draw):
    """Random constants c^k_ij on i < j, most of them zero: some satisfy
    Jacobi (few brackets, or brackets landing outside the others' span), many
    do not."""
    n = draw(st.integers(1, 6))
    values = st.sampled_from([Fraction(0)] * 6 + [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 2), Fraction(2)])
    return n, {(i, j, k): draw(values) for i in range(1, n + 1) for j in range(i + 1, n + 1) for k in range(1, n + 1)}


@settings(max_examples=200, deadline=None)
@given(_structure_constants())
def test_sparse_jacobi_matches_dense_reference(case):
    """The first violating triple and its dense defect equal the dense
    reference's, and None where it finds none."""
    n, structure = case
    spec = LieAlgebraSpec(n, structure)
    violation = validate_jacobi(spec)
    expected = _dense_validate_jacobi(spec)
    assert (violation and (violation.triple, violation.defect)) == expected
    if violation:
        assert len(violation.defect) == n and all(isinstance(c, Fraction) for c in violation.defect)


def test_sparse_jacobi_examples_both_ways():
    """The oracle comparison above meets both answers."""
    good = LieAlgebraSpec(5, {(1, i, i + 1): 1 for i in range(2, 5)})
    bad = LieAlgebraSpec(4, {(1, 2, 3): 1, (1, 3, 4): 1, (2, 4, 1): 1})
    assert validate_jacobi(good) is None is _dense_validate_jacobi(good)
    violation = validate_jacobi(bad)
    assert violation is not None
    assert (violation.triple, violation.defect) == _dense_validate_jacobi(bad)


def test_ce_differential_two_dim():
    alg = solvable2()
    assert ce_differential(alg, 1) == -GradedElement.monomial(FORM, 2, (1, 2))
    assert ce_differential(alg, 2).is_zero()


def test_ce_differential_heisenberg():
    alg = heisenberg3()
    assert ce_differential(alg, 3) == -GradedElement.monomial(FORM, 3, (1, 2))
    assert ce_differential(alg, 1).is_zero()


def test_ce_differential_index_range():
    with pytest.raises(IndexError):
        ce_differential(solvable2(), 3)


def test_is_closed_examples():
    alg = solvable2()
    assert is_closed(alg, OneForm.dual_basis(2, 2))
    assert not is_closed(alg, OneForm.dual_basis(2, 1))
    assert is_closed(alg, OneForm.zero(2))


def test_d_squared_zero_on_every_basis_form():
    from itertools import combinations

    for alg in ALGEBRAS:
        for deg in range(alg.n + 1):
            for ids in combinations(range(1, alg.n + 1), deg):
                form = GradedElement.monomial(FORM, alg.n, ids)
                assert d(alg, d(alg, form)).is_zero()


def test_d_is_a_derivation_on_pairs():
    for alg in ALGEBRAS:
        n = alg.n
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                zi = GradedElement.monomial(FORM, n, (i,))
                zj = GradedElement.monomial(FORM, n, (j,))
                left = d(alg, zi.wedge(zj))
                right = d(alg, zi).wedge(zj) - zi.wedge(d(alg, zj))
                assert left == right


def test_structure_constant_antisymmetry_and_duplicates():
    alg = solvable2()
    assert alg.c(1, 2, 1) == 1
    assert alg.c(2, 1, 1) == -1
    with pytest.raises(ValueError):
        LieAlgebraSpec(2, {(1, 1, 2): 1})
    with pytest.raises(ValueError):
        LieAlgebraSpec(2, {(1, 2, 1): 1, (2, 1, 1): 1})  # inconsistent duplicate
