"""Deformed brackets: paper values, reductions, defect identities, subalgebras."""

import itertools
import random
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supdeform.brackets import (
    DeformationKind,
    DeformationSpec,
    FSpec,
    SuperElement,
    deformed_schouten,
    extension_bracket,
    form_bracket,
    multivector_monomial_bracket,
    solve_g0_doubleprime,
    solve_g0_prime,
)
from supdeform.exterior import (
    FORM,
    MULTIVECTOR,
    GradedElement,
    contract,
    d,
    is_closed,
    lie_derivative,
    schouten,
    wedge,
)
from supdeform.chains import ChainElement
from supdeform.config import load_config
from supdeform.liealg import LieAlgebraSpec, OneForm, VectorField, abelian, heisenberg3, solvable2
from supdeform.scalars import PolyT, T, poly

ROOT = Path(__file__).resolve().parent.parent


def mono(kind, n, *ids):
    return GradedElement.monomial(kind, n, ids)


def form_basis(n):
    return [
        mono(FORM, n, *ids)
        for deg in range(n + 1)
        for ids in itertools.combinations(range(1, n + 1), deg)
    ]


ALG2 = solvable2()
Z1 = OneForm.dual_basis(2, 1)
Z2 = OneForm.dual_basis(2, 2)
ONE_FORM = GradedElement.unit_form(2)


class TestTrivialDeformed:
    def test_paper_value(self):
        spec = DeformationSpec.trivial(ALG2, Z2, FSpec.from_table({(a, b): 1 for a in range(2) for b in range(2)}))
        # [z1, 1] = c1 * t * z1^z2 with c1 = F(1,0) = 1
        assert form_bracket(spec, mono(FORM, 2, 1), ONE_FORM) == mono(FORM, 2, 1, 2).scale(T)
        # [z2, 1] has a repeated z2 factor
        assert form_bracket(spec, mono(FORM, 2, 2), ONE_FORM).is_zero()

    def test_double_bracket_vanishes(self):
        spec = DeformationSpec.trivial(ALG2, Z2, FSpec.kappa_family(Fraction(1, 2)))
        basis = form_basis(2)
        for alpha, beta, gamma in itertools.product(basis, repeat=3):
            inner = form_bracket(spec, alpha, beta)
            total = GradedElement.zero(FORM, 2)
            for deg in {len(ids) for ids in inner.terms}:
                total = total + form_bracket(spec, inner.homogeneous_part(deg), gamma)
            assert total.is_zero(), "[[h,h],h] must vanish for the trivial deformation"

    def test_asymmetric_table_rejected_by_default(self):
        with pytest.raises(ValueError):
            DeformationSpec.trivial(ALG2, Z2, FSpec.from_table({(1, 0): 1, (0, 1): 0}))

    def test_supersymmetry_defect_identity(self):
        # [a,b] + (-1)^((1+a)(1+b)) [b,a] = (F(a,b) - F(b,a)) a^(t phi)^b
        rng = random.Random(23)
        table = {(a, b): Fraction(rng.randint(-3, 3)) for a in range(3) for b in range(3)}
        spec = DeformationSpec.trivial(ALG2, Z2, FSpec.from_table(table), require_symmetric=False)
        tphi = GradedElement.from_one_form(Z2).scale(T)
        for alpha in form_basis(2):
            for beta in form_basis(2):
                a, b = alpha.degree(), beta.degree()
                lhs = form_bracket(spec, alpha, beta)
                rhs = form_bracket(spec, beta, alpha)
                if ((1 + a) * (1 + b)) % 2 == 0:
                    lhs = lhs + rhs
                else:
                    lhs = lhs - rhs
                expected = (
                    wedge(wedge(alpha, tphi), beta).scale(table[(a, b)] - table[(b, a)])
                    if a + b + 1 <= 2
                    else GradedElement.zero(FORM, 2)
                )
                assert lhs == expected

    def test_any_phi_allowed(self):
        # the trivial deformation does not require a closed phi
        spec = DeformationSpec.trivial(ALG2, Z1, FSpec.const(1))
        assert not spec.phi_closed
        assert form_bracket(spec, ONE_FORM, ONE_FORM) == mono(FORM, 2, 1).scale(T)


class TestStandardDeformed:
    def test_paper_values(self):
        spec = DeformationSpec.standard(ALG2, Z2)
        assert form_bracket(spec, mono(FORM, 2, 1), ONE_FORM) == mono(FORM, 2, 1, 2).scale(
            poly(1, Fraction(3, 2))
        )
        assert form_bracket(spec, ONE_FORM, ONE_FORM) == mono(FORM, 2, 2).scale(T)

    def test_t_zero_reduces_to_standard_bracket(self):
        spec = DeformationSpec.standard(ALG2, Z2)
        for alpha in form_basis(2):
            for beta in form_basis(2):
                a = alpha.degree()
                value = form_bracket(spec, alpha, beta)
                at_zero = GradedElement(
                    FORM, 2, {ids: c(0) for ids, c in value.terms.items()}
                )
                base = d(ALG2, wedge(alpha, beta))
                if a % 2:
                    base = -base
                assert at_zero == base

    def test_nonclosed_phi_warns_but_constructs(self):
        with pytest.warns(UserWarning):
            spec = DeformationSpec.standard(ALG2, Z1)
        assert spec.kind is DeformationKind.STANDARD
        assert not spec.phi_closed

    def test_requires_homogeneous_input(self):
        spec = DeformationSpec.standard(ALG2, Z2)
        mixed = ONE_FORM + mono(FORM, 2, 1)
        with pytest.raises(ValueError):
            form_bracket(spec, mixed, ONE_FORM)


# -- the monomial kernel of form_bracket against d and wedge -----------------


def _reference_form_bracket(spec, alpha, beta):
    """(-1)^a d(alpha ^ beta) + F(a, b) alpha ^ t phi ^ beta, composed from
    ``d`` and ``wedge`` (the first term for the standard and naive d_t kinds)."""
    a, b = alpha.degree(), beta.degree()
    n = spec.algebra.n
    result = GradedElement.zero(FORM, n)
    if spec.kind in (DeformationKind.STANDARD, DeformationKind.NAIVE_DT):
        base = d(spec.algebra, alpha.wedge(beta))
        result = result + (base if a % 2 == 0 else -base)
    if a + b + 1 <= n and not spec.phi.is_zero():
        # beyond a+b+1 > n the wedge vanishes and F need not be defined
        coeff = spec.F.value(a, b)
        if coeff:
            result = result + alpha.wedge(spec.tphi).wedge(beta).scale(coeff)
    return result


def _filiform(n):
    """L_n: [y1, yi] = y(i+1) for i = 2..n-1."""
    return LieAlgebraSpec(n, {(1, i, i + 1): 1 for i in range(2, n)})


def _heisenberg(k):
    """H_(2k+1): [yi, y(k+i)] = y(2k+1)."""
    return LieAlgebraSpec(2 * k + 1, {(i, k + i, 2 * k + 1): 1 for i in range(1, k + 1)})


def _direct_sum(g, h):
    structure = {(i, j, k): c for (i, j), row in g.structure.items() for k, c in row.items()}
    for (i, j), row in h.structure.items():
        for k, c in row.items():
            structure[(g.n + i, g.n + j, g.n + k)] = c
    return LieAlgebraSpec(g.n + h.n, structure)


KERNEL_ALGEBRAS = [
    _filiform(3),
    _filiform(4),
    _filiform(5),
    _heisenberg(1),
    _heisenberg(2),
    _direct_sum(solvable2(), solvable2()),
    _direct_sum(solvable2(), _heisenberg(1)),
]
SMALL_RATIONALS = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 2), Fraction(2)])


@st.composite
def _deformations(draw):
    """Any kind with any F: kappa, constant, a full table, or a table with no
    entry for a + b + 1 > n; phi closed (on the closed basis forms) or not."""
    algebra = draw(st.sampled_from(KERNEL_ALGEBRAS))
    n = algebra.n
    variant = draw(st.sampled_from(["kappa", "constant", "table", "table without a + b + 1 > n"]))
    if variant == "kappa":
        F = FSpec.kappa_family(draw(SMALL_RATIONALS))
    elif variant == "constant":
        F = FSpec.const(draw(SMALL_RATIONALS))
    else:
        bound = 2 * n if variant == "table" else n - 1
        F = FSpec.from_table({(a, b): draw(SMALL_RATIONALS) for a in range(n + 1) for b in range(n + 1) if a + b <= bound})
    closed = draw(st.booleans())
    support = [k for k in range(1, n + 1) if not closed or not algebra.differential[k]]
    coeffs = {k: draw(SMALL_RATIONALS) for k in support}
    phi = OneForm.make([coeffs.get(k, 0) for k in range(1, n + 1)])
    kind = draw(st.sampled_from(list(DeformationKind)))
    spec = DeformationSpec(algebra, kind, F, phi, is_closed(algebra, phi))
    assert spec.phi_closed or not closed
    return spec


@settings(max_examples=30, deadline=None)
@given(_deformations(), st.randoms(use_true_random=False))
def test_form_bracket_matches_d_and_wedge_composition(spec, rng):
    """On every pair of form monomials, and on random homogeneous forms,
    ``form_bracket`` equals the composition from ``d`` and ``wedge``; a
    non-homogeneous argument raises in either place."""
    n = spec.algebra.n
    basis = form_basis(n)
    for alpha, beta in itertools.product(basis, repeat=2):
        assert form_bracket(spec, alpha, beta) == _reference_form_bracket(spec, alpha, beta)
    by_degree = [[m for m in basis if m.degree() == deg] for deg in range(n + 1)]

    def homogeneous(deg):
        out = GradedElement.zero(FORM, n)
        for m in by_degree[deg]:
            out = out + m.scale(PolyT([rng.randint(-2, 2), rng.randint(-2, 2)]))
        return out

    for a, b in itertools.product(range(n + 1), repeat=2):
        alpha, beta = homogeneous(a), homogeneous(b)
        assert form_bracket(spec, alpha, beta) == _reference_form_bracket(spec, alpha, beta)
    mixed = mono(FORM, n) + mono(FORM, n, 1)
    for args in ((mixed, mono(FORM, n)), (mono(FORM, n), mixed)):
        with pytest.raises(ValueError):
            form_bracket(spec, *args)


# -- independent oracle for the deformed Schouten bracket --------------------


def _wedge_tuples_oracle(*tuples):
    """Sign and sorted tuple by explicit inversion count (test-local oracle)."""
    seq = [i for tup in tuples for i in tup]
    if len(set(seq)) != len(seq):
        return None
    inversions = sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
    )
    return (-1) ** inversions, tuple(sorted(seq))


def _deformed_schouten_oracle(alg, phi, ids_p, ids_q):
    """Term-by-term expansion of the displayed formula on monomials."""
    n = alg.n
    p, q = len(ids_p), len(ids_q)
    acc: dict[tuple, Fraction] = {}

    def add(ids, coeff):
        if coeff:
            acc[ids] = acc.get(ids, Fraction(0)) + coeff

    # Schouten double sum
    for s in range(p):
        for r in range(q):
            lie = alg.bracket_basis(ids_p[s], ids_q[r])
            for k, ck in lie.items():
                merged = _wedge_tuples_oracle((k,), ids_p[:s] + ids_p[s + 1 :], ids_q[:r] + ids_q[r + 1 :])
                if merged:
                    sign, ids = merged
                    add(ids, ck * sign * (-1) ** (s + r))
    base = {ids: PolyT.const(c) for ids, c in acc.items() if c}

    corr: dict[tuple, Fraction] = {}

    def iota(ids):
        out = {}
        for s, idx in enumerate(ids):
            val = phi.coeffs[idx - 1] * (-1) ** s
            if val:
                out[ids[:s] + ids[s + 1 :]] = out.get(ids[:s] + ids[s + 1 :], Fraction(0)) + val
        return out

    for ids, val in iota(ids_p).items():
        merged = _wedge_tuples_oracle(ids, ids_q)
        if merged:
            sign, out_ids = merged
            corr[out_ids] = corr.get(out_ids, Fraction(0)) + val * sign * (q - 1) * (-1) ** p
    for ids, val in iota(ids_q).items():
        merged = _wedge_tuples_oracle(ids_p, ids)
        if merged:
            sign, out_ids = merged
            corr[out_ids] = corr.get(out_ids, Fraction(0)) + val * sign * (p - 1)

    terms = dict(base)
    for ids, c in corr.items():
        terms[ids] = terms.get(ids, PolyT()) + PolyT.const(c)
    return GradedElement(MULTIVECTOR, n, terms)


class TestDeformedSchouten:
    def test_matches_independent_expansion(self):
        for alg, phi in [
            (ALG2, Z2),
            (heisenberg3(), OneForm.dual_basis(3, 1)),
            (heisenberg3(), OneForm.make([1, -2, 0])),
        ]:
            n = alg.n
            monos = [
                ids
                for deg in range(1, n + 1)
                for ids in itertools.combinations(range(1, n + 1), deg)
            ]
            for ids_p, ids_q in itertools.product(monos, repeat=2):
                got = deformed_schouten(
                    alg, mono(MULTIVECTOR, n, *ids_p), mono(MULTIVECTOR, n, *ids_q), phi
                )
                assert got == _deformed_schouten_oracle(alg, phi, ids_p, ids_q)

    def test_degree_one_reduces_to_lie_bracket(self):
        y1, y2 = mono(MULTIVECTOR, 2, 1), mono(MULTIVECTOR, 2, 2)
        assert deformed_schouten(ALG2, y1, y2, Z2) == schouten(ALG2, y1, y2)

    def test_zero_phi_reduces_to_schouten(self):
        zero = OneForm.zero(2)
        basis = [mono(MULTIVECTOR, 2, 1), mono(MULTIVECTOR, 2, 2), mono(MULTIVECTOR, 2, 1, 2)]
        for P, Q in itertools.product(basis, repeat=2):
            assert deformed_schouten(ALG2, P, Q, zero) == schouten(ALG2, P, Q)


# -- the monomial kernel of deformed_schouten against the composed formula ---


def _reference_deformed_schouten(spec, P, Q, phi):
    """[P, Q] + (-1)^p (q-1) iota_phi(P) ^ Q + (p-1) P ^ iota_phi(Q), composed
    from ``schouten``, ``contract`` and ``wedge``."""
    p, q = P.degree(), Q.degree()
    result = schouten(spec, P, Q)
    if not phi.is_zero():
        if q != 1:
            left = contract(P, phi).wedge(Q).scale(q - 1)
            result = result + (left if p % 2 == 0 else -left)
        if p != 1:
            result = result + P.wedge(contract(Q, phi)).scale(p - 1)
    return result


def _shipped_algebras():
    """(algebra, phi) of every shipped config."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        configs = [load_config(path) for path in sorted((ROOT / "configs").glob("*.cfg"))]
    return [(config.algebra, config.phi) for config in configs]


SCHOUTEN_CASES = _shipped_algebras() + [(algebra, None) for algebra in KERNEL_ALGEBRAS]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(SCHOUTEN_CASES), st.data(), st.randoms(use_true_random=False))
def test_multivector_kernel_matches_composed_deformed_schouten(case, data, rng):
    """On every pair of multivector monomials, with the config's phi and with
    a drawn one, ``multivector_monomial_bracket`` gives the terms of the
    composed formula; ``deformed_schouten``, its bilinear sum, equals the
    formula on random homogeneous multivectors."""
    algebra, shipped_phi = case
    n = algebra.n
    drawn = OneForm.make(data.draw(st.lists(SMALL_RATIONALS, min_size=n, max_size=n)))
    monomials = [ids for deg in range(n + 1) for ids in itertools.combinations(range(1, n + 1), deg)]

    def homogeneous(deg):
        out = GradedElement.zero(MULTIVECTOR, n)
        for ids in monomials:
            if len(ids) == deg:
                out = out + mono(MULTIVECTOR, n, *ids).scale(PolyT([rng.randint(-2, 2), rng.randint(-2, 2)]))
        return out

    for phi in [drawn] + ([shipped_phi] if shipped_phi else []):
        for I, J in itertools.product(monomials, repeat=2):
            expected = _reference_deformed_schouten(algebra, mono(MULTIVECTOR, n, *I), mono(MULTIVECTOR, n, *J), phi)
            assert multivector_monomial_bracket(algebra, phi, I, J) == expected.terms
        for p, q in itertools.product(range(n + 1), repeat=2):
            P, Q = homogeneous(p), homogeneous(q)
            assert deformed_schouten(algebra, P, Q, phi) == _reference_deformed_schouten(algebra, P, Q, phi)


class TestExtensionBracket:
    def test_dispatch_values(self):
        spec = DeformationSpec.standard(ALG2, Z2)
        y2 = SuperElement.from_vector(VectorField.basis(2, 2))
        V = SuperElement.from_form(mono(FORM, 2, 1, 2))
        assert extension_bracket(spec, y2, V) == V  # L_y2 (z1^z2) = z1^z2
        assert extension_bracket(spec, V, y2) == -V
        y1 = SuperElement.from_vector(VectorField.basis(2, 1))
        lie = extension_bracket(spec, y1, y2)
        assert lie == SuperElement.from_vector(VectorField.basis(2, 1))

    def test_bilinear_over_mixed_elements(self):
        spec = DeformationSpec.standard(ALG2, Z2)
        u = SuperElement.from_vector(VectorField.basis(2, 2)) + SuperElement.from_form(ONE_FORM)
        v = SuperElement.from_form(mono(FORM, 2, 1))
        got = extension_bracket(spec, u, v)
        parts = extension_bracket(spec, SuperElement.from_vector(VectorField.basis(2, 2)), v)
        parts = parts + extension_bracket(spec, SuperElement.from_form(ONE_FORM), v)
        assert got == parts


    def test_matches_componentwise_reference_on_random_elements(self):
        rng = random.Random(19)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            specs = [
                DeformationSpec.standard(ALG2, Z2),
                DeformationSpec.trivial(ALG2, Z1, FSpec.const(Fraction(2, 3)), require_symmetric=False),
                DeformationSpec.naive_dt(ALG2, Z1),
                DeformationSpec.standard(heisenberg3(), OneForm.dual_basis(3, 3), warn=False),
                DeformationSpec.trivial(heisenberg3(), OneForm.make((1, 0, 2)), FSpec.kappa_family(Fraction(1, 3))),
            ]
        for spec in specs:
            for _ in range(25):
                u, v = _random_super(rng, spec.algebra.n), _random_super(rng, spec.algebra.n)
                assert extension_bracket(spec, u, v) == _reference_extension_bracket(spec, u, v)

    def test_strings_pinned(self):
        spec = load_config(ROOT / "configs" / "dim2-extended.cfg").deformation
        y1, y2 = (SuperElement.from_vector(VectorField.basis(2, i)) for i in (1, 2))
        u = y1 + y2.scale(2) + SuperElement.from_form(mono(FORM, 2, 2) + mono(FORM, 2).scale(3 * T))
        v = y2.scale(Fraction(-1, 2)) + SuperElement.from_form(mono(FORM, 2, 1) + mono(FORM, 2, 1, 2).scale(T))
        assert str(u) == "y1 + (2)*y2 + 3*t*1 + z2"
        assert str(v) == "(-1/2)*y2 + z1 + t*z1^z2"
        assert str(-u) == "(-1)*y1 + (-2)*y2 + -3*t*1 - z2"
        assert str(u.scale(T + 1)) == "(1 + t)*y1 + (2 + 2*t)*y2 + (3*t + 3*t^2)*1 + (1 + t)*z2"
        assert str(extension_bracket(spec, v, u)) == "(1/2)*y1 + -2*z1 + z2 + (t + 9/2*t^2)*z1^z2"
        assert str(extension_bracket(spec, u, v)) == "(-1/2)*y1 + 2*z1 - z2 + (-t - 9/2*t^2)*z1^z2"
        assert str(SuperElement.zero(2)) == "0"


def _random_super(rng, n):
    """Mixed form degrees, a vector that is rarely a coordinate vector, and
    Q[t] coefficients (often zero, so some components are missing)."""

    def coeff():
        return PolyT([Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(rng.randint(0, 2))])

    terms = {i: coeff() for i in range(1, n + 1)}
    for deg in range(n + 1):
        for ids in itertools.combinations(range(1, n + 1), deg):
            if rng.random() < 0.4:
                terms[ids] = coeff()
    return SuperElement(n, terms)


def _reference_extension_bracket(spec, u, v):
    """Reference: the vector and form components taken apart, the mixed
    terms by the Lie derivative along each coordinate, and the form bracket
    once per pair of homogeneous components."""
    algebra, n = spec.algebra, spec.algebra.n

    def parts(e):
        form = GradedElement(FORM, n, {ids: c for ids, c in e.terms.items() if isinstance(ids, tuple)})
        return form, {i: c for i, c in e.terms.items() if isinstance(i, int)}

    def homogeneous(form, deg):
        return GradedElement(FORM, n, {ids: c for ids, c in form.terms.items() if len(ids) == deg})

    (u_form, u_vec), (v_form, v_vec) = parts(u), parts(v)
    vec = {}
    for i, ci in u_vec.items():
        for j, cj in v_vec.items():
            for k, c in algebra.bracket_basis(i, j).items():
                vec[k] = vec.get(k, PolyT()) + ci * cj * c
    form = GradedElement.zero(FORM, n)
    for vector, other, sign in ((u_vec, v_form, 1), (v_vec, u_form, -1)):
        for i, c in vector.items():
            form = form + lie_derivative(algebra, VectorField.basis(n, i), other).scale(c * sign)
    for a in {len(ids) for ids in u_form.terms}:
        for b in {len(ids) for ids in v_form.terms}:
            form = form + form_bracket(spec, homogeneous(u_form, a), homogeneous(v_form, b))
    return SuperElement.from_form(form) + SuperElement(n, vec)


class TestTerms:
    def test_combining_a_different_kind_or_dimension_raises(self):
        pairs = [
            (mono(FORM, 2, 1), mono(MULTIVECTOR, 2, 1)),
            (mono(FORM, 2, 1), mono(FORM, 3, 1)),
            (SuperElement.from_form(mono(FORM, 2, 1)), SuperElement.from_form(mono(FORM, 3, 1))),
            (SuperElement.from_form(mono(FORM, 2, 1)), mono(FORM, 2, 1)),
            (ChainElement.of_word(()), SuperElement.zero(2)),
        ]
        for a, b in pairs:
            for x, y in ((a, b), (b, a)):
                with pytest.raises(ValueError):
                    x + y
                with pytest.raises(ValueError):
                    x - y
                assert x != y

    def test_equal_elements_hash_equal(self):
        a = SuperElement(2, {(1, 2): T, 1: 2, (): Fraction(1, 2)})
        b = SuperElement(2, {(): Fraction(1, 2), 1: 2}) + SuperElement(2, {(1, 2): T})
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        f = mono(FORM, 2, 1) + mono(FORM, 2, 2).scale(T)
        g = mono(FORM, 2, 2).scale(T) + mono(FORM, 2, 1)
        assert f == g and hash(f) == hash(g)
        assert len({f, g, SuperElement.from_form(f)}) == 2
        zero = (f - g).scale(3)
        assert zero.is_zero() and zero == GradedElement.zero(FORM, 2) and hash(zero) == hash(GradedElement.zero(FORM, 2))

    def test_super_element_checks_its_atoms(self):
        for terms in ({3: 1}, {0: 1}, {1: "x"}):
            with pytest.raises(ValueError, match="bad vector component"):
                SuperElement(2, terms)
        with pytest.raises(ValueError):
            SuperElement(2, {(2, 1): 1})
        with pytest.raises(TypeError):
            SuperElement(2, {(1,): "x"})


class TestAdmissibleSubalgebras:
    def test_g0prime_full_for_closed_phi(self):
        result = solve_g0_prime(ALG2, Z2)
        assert result.dim == 2 and result.bracket_closed

    def test_g0prime_zero_phi(self):
        assert solve_g0_prime(ALG2, OneForm.zero(2)).dim == 2

    def test_g0prime_nonclosed_phi_by_hand(self):
        # L_X z1 = iota_X d(z1): d z1 = -z1^z2 gives x2 z1 - x1 z2 = 0,
        # so the solution space is zero
        result = solve_g0_prime(ALG2, Z1)
        assert result.dim == 0 and result.bracket_closed

    def test_g0doubleprime_examples(self):
        result = solve_g0_doubleprime(ALG2, Z2)
        assert [v.coeffs for v in result.vectors] == [(Fraction(1), Fraction(0))]
        assert solve_g0_doubleprime(ALG2, OneForm.zero(2)).dim == 2

    def test_g0doubleprime_contained_in_g0prime(self):
        for alg in (ALG2, heisenberg3(), abelian(3)):
            n = alg.n
            for coeffs in itertools.product((-1, 0, 1), repeat=n):
                phi = OneForm.make(coeffs)
                prime = solve_g0_prime(alg, phi)
                double = solve_g0_doubleprime(alg, phi)
                assert double.dim <= prime.dim
                span = [list(v.coeffs) for v in prime.vectors]
                from supdeform import qlinalg

                for v in double.vectors:
                    assert qlinalg.solve_in_span(span, list(v.coeffs)) is not None


class TestMixedJacobiDefect:
    """J(X, alpha, beta) cyclic defect against t*F(a,b)*alpha^(L_X phi)^beta."""

    def _cyclic_defect(self, spec, X, alpha, beta):
        sx = SuperElement.from_vector(X)
        sa, sb = SuperElement.from_form(alpha), SuperElement.from_form(beta)
        pa = (alpha.degree() + 1) % 2
        pb = (beta.degree() + 1) % 2
        terms = []
        for (u, pu), (v, pv), (w, pw) in (
            ((sx, 0), (sa, pa), (sb, pb)),
            ((sa, pa), (sb, pb), (sx, 0)),
            ((sb, pb), (sx, 0), (sa, pa)),
        ):
            t = extension_bracket(spec, extension_bracket(spec, u, v), w)
            terms.append(-t if (pu * pw) % 2 else t)
        return terms[0] + terms[1] + terms[2]

    @pytest.mark.parametrize("make_spec", [
        lambda: DeformationSpec.trivial(ALG2, Z1, FSpec.from_table(
            {(a, b): Fraction(2, 3) if (a, b) in ((0, 0),) else 1 for a in range(3) for b in range(3)})),
        lambda: DeformationSpec.standard(ALG2, Z1, warn=False),
        lambda: DeformationSpec.standard(ALG2, Z2),
    ])
    def test_defect_formula(self, make_spec):
        spec = make_spec()
        phi_elt = GradedElement.from_one_form(spec.phi)
        for i in (1, 2):
            X = VectorField.basis(2, i)
            in_g0prime = lie_derivative(ALG2, X, phi_elt).is_zero()
            for alpha in form_basis(2):
                for beta in form_basis(2):
                    a, b = alpha.degree(), beta.degree()
                    jac = self._cyclic_defect(spec, X, alpha, beta)
                    if a + b + 1 <= 2:
                        expect = wedge(wedge(alpha, lie_derivative(ALG2, X, phi_elt)), beta).scale(
                            T
                        ).scale(spec.F.value(a, b))
                    else:
                        expect = GradedElement.zero(FORM, 2)
                    # J = -(defect_L) for an even first slot
                    assert jac == -SuperElement.from_form(expect)
                    if in_g0prime:
                        assert jac.is_zero()

    def test_negative_case_has_nonzero_defect(self):
        spec = DeformationSpec.trivial(
            ALG2, Z1, FSpec.from_table({(a, b): 1 for a in range(3) for b in range(3)})
        )
        X = VectorField.basis(2, 2)  # not in g0' for phi = z1
        jac = self._cyclic_defect(spec, X, ONE_FORM, ONE_FORM)
        assert not jac.is_zero()
        # defect_L = t * F(0,0) * 1 ^ (L_y2 z1) ^ 1 = t z1
        assert -jac == SuperElement.from_form(mono(FORM, 2, 1).scale(T))
