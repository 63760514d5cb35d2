"""Axiom checkers and the F-admissibility solvers, with independent oracles."""

import dataclasses
import itertools
import math
import random
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from supdeform import axioms
from supdeform.axioms import (
    BasisItem,
    BracketSystem,
    _grid_variables,
    _solve_f_system,
    check_superjacobi,
    check_supersymmetry,
    extension_system,
    form_system,
    jacobi_closed_form,
    multivector_system,
    satisfies_difference_identity,
    solve_F_closed,
    solve_F_nonclosed,
    superjacobi_defect,
    supersymmetry_defect,
)
from supdeform.brackets import DeformationSpec, FSpec, solve_g0_doubleprime, solve_g0_prime
from supdeform.config import load_config
from supdeform.exterior import FORM, GradedElement, d, wedge
from supdeform.liealg import LieAlgebraSpec, OneForm, VectorField, heisenberg3, solvable2
from supdeform.scalars import ONE, T


ALG2 = solvable2()
Z2 = OneForm.dual_basis(2, 2)


def test_standard_two_dim_passes_both_axioms():
    system = form_system(DeformationSpec.standard(ALG2, Z2))
    assert check_supersymmetry(system).passed
    assert check_superjacobi(system).passed


def test_standard_heisenberg_closed_phi_passes():
    spec = DeformationSpec.standard(heisenberg3(), OneForm.dual_basis(3, 1))
    system = form_system(spec)
    assert check_supersymmetry(system).passed
    assert check_superjacobi(system).passed


def test_asymmetric_table_fails_supersymmetry_with_witness():
    table = {(a, b): Fraction(0) for a in range(2) for b in range(2)}
    table[(1, 0)] = Fraction(1)
    spec = DeformationSpec.trivial(ALG2, Z2, FSpec.from_table(table), require_symmetric=False)
    report = check_supersymmetry(form_system(spec))
    assert not report.passed
    assert set(report.witness.labels) == {"1", "z1"}
    # defect equals (F(a,b) - F(b,a)) * alpha ^ t phi ^ beta on the witness pair
    tphi = GradedElement.from_one_form(Z2).scale(T)
    one = GradedElement.unit_form(2)
    z1 = GradedElement.monomial(FORM, 2, (1,))
    expected = wedge(wedge(one, tphi), z1).scale(Fraction(0) - Fraction(1))
    assert report.witness.defect == expected


def test_zero_bracket_passes():
    items = [BasisItem("1", GradedElement.unit_form(2), -1)]
    system = BracketSystem("zero", items, lambda x, y: {})
    assert check_supersymmetry(system).passed
    assert check_superjacobi(system).passed


def test_heisenberg_nonclosed_jacobi_witness():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = DeformationSpec.standard(heisenberg3(), OneForm.dual_basis(3, 3))
    report = check_superjacobi(form_system(spec))
    assert not report.passed
    assert report.witness.labels == ("1", "1", "1")
    dphi = d(heisenberg3(), GradedElement.from_one_form(OneForm.dual_basis(3, 3)))
    assert report.witness.defect == dphi.scale(T).scale(3)  # a nonzero multiple of t d(phi)
    assert not dphi.is_zero()


def test_witness_defect_recomputable():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = DeformationSpec.standard(heisenberg3(), OneForm.dual_basis(3, 3))
    system = form_system(spec)
    report = check_superjacobi(system)
    by_label = {item.label: item for item in system.items}
    a, b, c = (by_label[l] for l in report.witness.labels)
    assert superjacobi_defect(system, a, b, c) == report.witness.defect


def _solvable4_pool():
    """A few 4-dimensional solvable algebras with a choice of closed phi."""
    pool = []
    # Heisenberg (+) R: [y1,y2] = y4; closed phi can hit z3 freely
    pool.append((LieAlgebraSpec(4, {(1, 2, 4): 1}), OneForm.dual_basis(4, 3)))
    # solvable: [y1,y4] = y1, [y2,y4] = y2, [y3,y4] = y3; cocycles kill y1..y3
    pool.append(
        (LieAlgebraSpec(4, {(1, 4, 1): 1, (2, 4, 2): 1, (3, 4, 3): 1}), OneForm.dual_basis(4, 4))
    )
    # 2-step: [y1,y2] = y3, [y1,y3] = y4
    pool.append((LieAlgebraSpec(4, {(1, 2, 3): 1, (1, 3, 4): 1}), OneForm.dual_basis(4, 1)))
    return pool


def test_naive_dt_leftover_term_search_dim4():
    """The printed leftover S (-1)^(ac) d(alpha)^beta^d(gamma)^(t phi) needs
    degree >= 5, so it vanishes identically on every dim-4 algebra: the
    search reports no witness <= dim 4.  The genuine naive-bracket
    obstruction (the closed-form expansion with F = 1) is still exhibited
    where it is nonzero, and the checker agrees with it exactly."""
    found_leftover_witness = False
    for alg, phi in _solvable4_pool():
        n = alg.n
        tphi = GradedElement.from_one_form(phi).scale(T)
        monos = [
            GradedElement.monomial(FORM, n, ids)
            for deg in range(n + 1)
            for ids in itertools.combinations(range(1, n + 1), deg)
        ]
        for alpha, beta, gamma in itertools.product(monos, repeat=3):
            total = GradedElement.zero(FORM, n)
            for u, v, w in ((alpha, beta, gamma), (beta, gamma, alpha), (gamma, alpha, beta)):
                term = wedge(wedge(wedge(d(alg, u), v), d(alg, w)), tphi)
                if (u.degree() * w.degree()) % 2:
                    term = -term
                total = total + term
            if not total.is_zero():
                found_leftover_witness = True
    assert not found_leftover_witness, "no witness <= dim 4 expected for the printed term"

    # checker ground truth: naive d_t fails on Heisenberg (+) R via the true
    # obstruction, and the defect matches the closed-form expansion
    alg, phi = _solvable4_pool()[0]
    spec = DeformationSpec.naive_dt(alg, phi)
    report = check_superjacobi(form_system(spec))
    assert not report.passed
    system = form_system(spec)
    by_label = {item.label: item for item in system.items}
    a, b, c = (by_label[l] for l in report.witness.labels)
    assert report.witness.defect == jacobi_closed_form(spec, a.element, b.element, c.element)


def test_naive_dt_passes_on_low_dim_closed_phi():
    for alg, phi in [(ALG2, Z2), (heisenberg3(), OneForm.dual_basis(3, 1))]:
        spec = DeformationSpec.naive_dt(alg, phi)
        assert check_superjacobi(form_system(spec)).passed


def test_closed_form_expansion_matches_brute_force():
    rng = random.Random(7)
    specs = []
    for alg, phi in [(ALG2, Z2), (heisenberg3(), OneForm.dual_basis(3, 3)), (heisenberg3(), OneForm.dual_basis(3, 1))]:
        table = {}
        for a in range(0, 9):
            for b in range(a, 9):
                v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                table[(a, b)] = v
                table[(b, a)] = v
        specs.append(DeformationSpec(alg, DeformationSpec.standard(ALG2, Z2).kind, FSpec.from_table(table), phi, None))
    for spec in specs:
        system = form_system(spec)
        for a, b, c in itertools.product(system.items, repeat=3):
            brute = superjacobi_defect(system, a, b, c)
            closed = jacobi_closed_form(spec, a.element, b.element, c.element)
            assert brute == closed


def test_extension_system_axioms():
    spec = DeformationSpec.standard(ALG2, Z2)
    vectors = solve_g0_prime(ALG2, Z2).vectors
    system = extension_system(spec, vectors)
    assert check_supersymmetry(system).passed
    assert check_superjacobi(system).passed


def test_multivector_system_axioms_dim_le_3():
    for alg, phi in [
        (ALG2, Z2),
        (heisenberg3(), OneForm.dual_basis(3, 1)),
        (heisenberg3(), OneForm.make([2, -3, 0])),
    ]:
        system = multivector_system(alg, phi)
        assert check_supersymmetry(system).passed
        assert check_superjacobi(system).passed


# -- bracket table against direct composition -----------------------------

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = ["dim2-standard", "dim2-trivial", "dim2-extended", "heisenberg-closed", "heisenberg-nonclosed"]


def _direct_check(system, arity):
    """(checked, witness labels, witness defect string) by composing the bracket
    directly on every pair or triple, in the checkers' enumeration order."""
    defect_of = supersymmetry_defect if arity == 2 else superjacobi_defect
    checked = 0
    for combo in itertools.product(system.items, repeat=arity):
        checked += 1
        defect = defect_of(system, *combo)
        if not defect.is_zero():
            return checked, tuple(item.label for item in combo), str(defect)
    return checked, None, None


def _report_triple(report):
    w = report.witness
    return report.checked, (w.labels if w else None), (str(w.defect) if w else None)


def _assert_table_matches_direct(system):
    assert _report_triple(check_supersymmetry(system)) == _direct_check(system, 2)
    assert _report_triple(check_superjacobi(system)) == _direct_check(system, 3)


def _shipped_systems(name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = load_config(str(ROOT / "configs" / f"{name}.cfg"))
    systems = [form_system(config.deformation), multivector_system(config.algebra, config.phi)]
    if config.extension != "none":
        solver = solve_g0_prime if config.extension == "g0prime" else solve_g0_doubleprime
        systems.append(extension_system(config.deformation, solver(config.algebra, config.phi).vectors))
    return systems


@pytest.mark.parametrize("name", SHIPPED)
def test_table_checkers_match_direct_composition_on_shipped_configs(name):
    for system in _shipped_systems(name):
        _assert_table_matches_direct(system)


def test_table_checkers_match_direct_composition_on_filiform5_prefix():
    config = load_config(str(ROOT / "bench" / "configs" / "filiform5-standard.cfg"))
    full = form_system(config.deformation)
    system = BracketSystem(full.label, full.items[:12], full.atom_bracket)
    _assert_table_matches_direct(system)


def test_table_checkers_match_direct_composition_on_non_coordinate_vector():
    system = extension_system(DeformationSpec.standard(ALG2, Z2), [VectorField.make((1, 1))])
    assert system.items[0].label == "x1"
    _assert_table_matches_direct(system)


def test_table_contraction_matches_every_direct_defect():
    """Not only the first witness: on systems where many triples fail, every
    triple's contraction through the table equals the direct cyclic sum."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = DeformationSpec.standard(heisenberg3(), OneForm.dual_basis(3, 3))
    vectors = [VectorField.basis(3, 1), VectorField.make((2, 0, -1))]
    for system in (form_system(spec), extension_system(spec, vectors)):
        failing = 0
        for a, b, c in itertools.product(system.items, repeat=3):
            total = None
            for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
                uv = system.image(u.element.terms, v.element.terms)
                term = u.element.like(system.image(uv, w.element.terms))
                term = -term if (u.parity * w.parity) % 2 else term
                total = term if total is None else total + term
            assert total == superjacobi_defect(system, a, b, c)
            failing += not total.is_zero()
        assert failing


def test_bracket_table_evaluates_each_atom_pair_once():
    """Both checkers together evaluate the atom bracket through the form
    system's own partners: once per ordered pair of disjoint monomials and
    never on an overlapping pair: 3^n calls, 27 on Heisenberg and 243 on
    filiform-5, against 64 and 1 024 ordered pairs of items."""
    for config, pairs in (("configs/heisenberg-closed.cfg", 27), ("bench/configs/filiform5-standard.cfg", 243)):
        calls = []
        base = form_system(load_config(str(ROOT / config)).deformation)

        def counted(x, y):
            calls.append((x, y))
            return base.atom_bracket(x, y)

        system = dataclasses.replace(base, atom_bracket=counted)
        assert system.partners is base.partners is not None
        assert check_supersymmetry(system).passed
        assert check_superjacobi(system).passed
        atoms = [atom for item in system.items for atom in item.element.terms]
        disjoint = {(x, y) for x, y in itertools.product(atoms, repeat=2) if not set(x) & set(y)}
        assert len(calls) == len(set(calls)) == len(disjoint) == pairs
        assert set(calls) == disjoint


def _h5():
    return LieAlgebraSpec(5, {(1, 3, 5): 1, (2, 4, 5): 1})


def _aff_aff():
    return LieAlgebraSpec(4, {(1, 2, 1): 1, (3, 4, 3): 1})


def _filiform(n):
    return LieAlgebraSpec(n, {(1, i, i + 1): 1 for i in range(2, n)})


def _partner_cases():
    """(spec, extension vectors, the outcomes of the four reports), with the
    case's name as its id."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        nonclosed = DeformationSpec.standard(_filiform(5), OneForm.dual_basis(5, 3))
    aff_phi = OneForm.make((0, 1, 0, 1))
    h5_phi = OneForm.dual_basis(5, 1)
    asymmetric = {(a, b): Fraction(1) for a in range(5) for b in range(5) if a + b <= 4}
    asymmetric[(2, 1)] = Fraction(3)
    cases = [
        (f"filiform{n}", DeformationSpec.standard(_filiform(n), OneForm.dual_basis(n, 2)), "pass pass pass pass")
        for n in (4, 5, 6)
    ]
    cases += [
        ("heisenberg5", DeformationSpec.standard(_h5(), h5_phi), "pass pass pass pass"),
        ("aff+aff", DeformationSpec.standard(_aff_aff(), aff_phi), "pass pass pass pass"),
        ("trivial-kappa", DeformationSpec.trivial(_h5(), h5_phi, FSpec.kappa_family(3)), "pass pass pass pass"),
        ("naive-dt", DeformationSpec.naive_dt(_filiform(5), OneForm.dual_basis(5, 2)), "pass fail pass fail"),
        ("nonclosed-phi", nonclosed, "pass fail pass fail"),
        (
            "asymmetric-table",
            DeformationSpec.trivial(_h5(), h5_phi, FSpec.from_table(asymmetric), require_symmetric=False),
            "fail pass fail fail",
        ),
    ]
    out = [
        pytest.param(spec, solve_g0_prime(spec.algebra, spec.phi).vectors, outcomes, id=name)
        for name, spec, outcomes in cases
    ]
    aff = DeformationSpec.standard(_aff_aff(), aff_phi)
    vectors = solve_g0_doubleprime(aff.algebra, aff_phi).vectors
    assert any(sum(map(bool, v.coeffs)) > 1 for v in vectors)  # y2 - y4 is no coordinate vector
    out.append(pytest.param(aff, vectors, "pass pass pass pass", id="aff+aff-g0doubleprime"))
    return out


@pytest.mark.parametrize("spec, vectors, outcomes", _partner_cases())
def test_partner_rows_match_the_full_fill(spec, vectors, outcomes):
    """The form and extension systems, whose rows try only the partners of
    each item, hold the same rows and give the same four reports as the
    same systems filled over all n^2 pairs."""
    reports = []
    for system in (form_system(spec), extension_system(spec, vectors)):
        full = dataclasses.replace(system, partners=None)
        assert system.partners is not None
        assert system.pair_images == full.pair_images
        for check in (check_supersymmetry, check_superjacobi):
            report = check(system)
            assert report.to_json() == check(full).to_json()
            reports.append(report.outcome)
    assert " ".join(reports) == outcomes


@pytest.mark.parametrize("name", SHIPPED + ["filiform5"])
def test_pair_table_rows_hold_exactly_the_nonzero_brackets(name):
    """Every row of the pair table holds [u, v] for the items v with a
    nonzero bracket, and nothing else: no empty image is stored, and no
    nonzero one is missing."""
    if name == "filiform5":
        systems = [form_system(load_config(str(ROOT / "bench" / "configs" / "filiform5-standard.cfg")).deformation)]
    else:
        systems = _shipped_systems(name)
    for system in systems:
        stored = {(u, v): image for u, row in enumerate(system.pair_images) for v, image in row.items()}
        nonzero = {}
        for (u, x), (v, y) in itertools.product(enumerate(system.items), repeat=2):
            value = system.bracket(x.element, y.element)
            if not value.is_zero():
                nonzero[(u, v)] = value.terms
        assert stored == nonzero
        assert len(stored) < len(system.items) ** 2


# -- sorted scans against the ordered oracle ---------------------------------


def _structure_system(superdegrees, constants):
    """Basis z1..zn (form monomials standing for abstract basis vectors) with
    the given superdegrees and the bilinear bracket [z(i+1), z(j+1)] =
    sum_k constants[(i, j)][k] z(k+1)."""
    n = len(superdegrees)
    items = [BasisItem(f"z{i + 1}", GradedElement.monomial(FORM, n, (i + 1,)), s) for i, s in enumerate(superdegrees)]

    def atom_bracket(x, y):
        return {(k + 1,): c for k, c in constants.get((x[0] - 1, y[0] - 1), {}).items()}

    return BracketSystem("structure constants", items, atom_bracket)


@st.composite
def _brackets(draw, antisymmetric):
    """Superdegrees and sparse structure constants on n <= 6 basis vectors;
    super-antisymmetric, or with one image redrawn when not."""
    n = draw(st.integers(1, 6))
    superdegrees = draw(st.lists(st.integers(-3, 0), min_size=n, max_size=n))
    coeff = st.sampled_from([ONE, -ONE, ONE + ONE, T])
    nonzero = st.dictionaries(st.integers(0, n - 1), coeff, min_size=1, max_size=2)
    image = st.one_of(st.just({}), st.just({}), nonzero)  # sparse, so that witnesses come late too
    constants = {}
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        odd = superdegrees[i] * superdegrees[j] % 2
        if i == j and not odd:
            continue  # [x, x] = -[x, x] for x even
        constants[(i, j)] = draw(image)
        constants[(j, i)] = constants[(i, j)] if odd else {k: -c for k, c in constants[(i, j)].items()}
    if not antisymmetric:
        constants[draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))] = draw(image)
    return superdegrees, constants


@settings(max_examples=40, deadline=None)
@given(_brackets(antisymmetric=True))
def test_sorted_scans_match_ordered_oracle_on_random_super_antisymmetric_brackets(case):
    system = _structure_system(*case)
    direct = _direct_check(system, 3)
    assume(direct[1] is not None)
    assert _report_triple(check_superjacobi(system)) == direct
    assert _report_triple(check_supersymmetry(system)) == _direct_check(system, 2) == (len(case[0]) ** 2, None, None)


@settings(max_examples=25, deadline=None)
@given(_brackets(antisymmetric=False))
def test_scans_match_ordered_oracle_on_random_brackets(case):
    _assert_table_matches_direct(_structure_system(*case))


def test_superjacobi_keeps_ordered_scan_without_supersymmetry():
    """[z1, z1] = z2 breaks super-antisymmetry.  With [z3, z2] = z1 the first
    failing ordered triple is (z1, z3, z2), while its sorted permutation
    (z1, z2, z3) passes: only the ordered scan finds that witness."""
    system = _structure_system([0, 0, 0], {(0, 0): {1: ONE}, (2, 1): {0: ONE}})
    assert not check_supersymmetry(system).passed
    assert _direct_check(system, 3) == (8, ("z1", "z3", "z2"), "z2")
    _assert_table_matches_direct(system)


@pytest.mark.parametrize("mirror", [False, True])
def test_one_sided_bracket_breaks_antisymmetry(mirror):
    """[z1, z2] = z3 with [z2, z1] = 0, or the mirror case: the pair sits in
    one row of the table only and still breaks antisymmetry at (z1, z2),
    with defect z3 either way.  [z3, z1] = z2 makes super Jacobi fail on
    (z1, z1, z2), with defect z2 either way."""
    one_sided = {(1, 0) if mirror else (0, 1): {2: ONE}}
    system = _structure_system([0, 0, 0], {**one_sided, (2, 0): {1: ONE}})
    assert (1 in system.pair_images[0]) != mirror and (0 in system.pair_images[1]) == mirror
    assert _direct_check(system, 2) == (2, ("z1", "z2"), "z3")
    assert _direct_check(system, 3) == (2, ("z1", "z1", "z2"), "z2")
    _assert_table_matches_direct(system)


def test_superjacobi_cancels_terms_from_different_pairs():
    """sl(2) on z1 = h, z2 = e, z3 = f, plus [z4, z5] = h.  On (z1, z2, z3) the
    terms of the pairs (z1, z2) and (z3, z1), 2h and -2h, cancel exactly, so
    it passes; the first failure is the later (z2, z4, z5), with defect
    [[z4, z5], z2] = [h, e] = 2e."""
    two = ONE + ONE
    constants = {
        (0, 1): {1: two}, (1, 0): {1: -two},
        (0, 2): {2: -two}, (2, 0): {2: two},
        (1, 2): {0: ONE}, (2, 1): {0: -ONE},
        (3, 4): {0: ONE}, (4, 3): {0: -ONE},
    }  # fmt: skip
    system = _structure_system([0] * 5, constants)
    z1, z2, z3 = system.items[:3]
    rotations = ((z1, z2, z3), (z2, z3, z1), (z3, z1, z2))
    terms = [system.bracket(system.bracket(u.element, v.element), w.element) for u, v, w in rotations]
    assert [str(term) for term in terms] == ["2*z1", "0", "-2*z1"]
    assert superjacobi_defect(system, z1, z2, z3).is_zero()
    assert _direct_check(system, 3) == (45, ("z2", "z4", "z5"), "2*z2")
    _assert_table_matches_direct(system)


def test_superjacobi_odd_generator_fails_on_its_repeated_triple():
    """z2 odd with [z2, z2] = z3 and [z3, z2] = z2: the one rotation of
    (z2, z2, z2), -[[z2, z2], z2] = -z2, counts three times, and no earlier
    triple fails."""
    constants = {(1, 1): {2: ONE}, (2, 1): {1: ONE}, (1, 2): {1: -ONE}}
    system = _structure_system([0, -1, 0], constants)
    assert check_supersymmetry(system).passed
    assert _direct_check(system, 3) == (14, ("z2", "z2", "z2"), "-3*z2")
    _assert_table_matches_direct(system)


def test_superjacobi_contracts_only_sorted_triples_on_a_passing_system(monkeypatch):
    """On filiform-5 the contraction adds only the nonzero terms [[u, v], w]
    that are rotations of sorted triples: 30 terms, against the 17 952
    rotations of the C(n + 2, 3) sorted triples.  It reads the pair table
    ``check_supersymmetry`` filled, with no second antisymmetry test, and
    the report still counts all n^3 ordered triples."""
    config = load_config(str(ROOT / "bench" / "configs" / "filiform5-standard.cfg"))
    system = form_system(config.deformation)
    n = len(system.items)
    assert check_supersymmetry(system).passed
    added = []
    add_terms = axioms._add_terms

    def counted(defect, terms, negate):
        added.append(terms)
        add_terms(defect, terms, negate)

    monkeypatch.setattr(axioms, "_add_terms", counted)
    report = check_superjacobi(system)
    assert report.passed and report.checked == n**3 == 32768
    assert len(added) == 30 and all(added)
    # the same count, rotation by rotation over every sorted triple
    sorted_triples = list(itertools.combinations_with_replacement(range(n), 3))
    rotations = [(u, v, w) for a, b, c in sorted_triples for u, v, w in ((a, b, c), (b, c, a), (c, a, b))]
    assert len(rotations) == 3 * math.comb(n + 2, 3) == 17952
    atoms = [item.element.terms for item in system.items]
    assert sum(bool(system.image(system.image(atoms[u], atoms[v]), atoms[w])) for u, v, w in rotations) == 30


# -- F solution spaces -------------------------------------------------------


def test_solve_F_closed_grid8():
    space = solve_F_closed(8)
    assert space.dimension == 1
    assert space.contains_table(lambda a, b: a + b + 2)
    assert space.contains_table(lambda a, b: Fraction(a + b + 2, 2))
    assert space.contains_table(lambda a, b: 0)


def test_solve_F_closed_containment_and_stability():
    for N in range(2, 9):
        space = solve_F_closed(N)
        assert space.contains_table(lambda a, b: a + b + 2)
        if N >= 4:
            assert space.dimension == 1


def test_difference_identity_on_solutions():
    space = solve_F_closed(8)
    for table in space.basis:
        assert satisfies_difference_identity(table, 8)


def test_solve_F_nonclosed_trivial():
    assert solve_F_nonclosed(8).dimension == 0
    # a + b + 2 fails the pure-sum condition: at a=b=c=0 it gives 6 != 0
    assert 3 * (0 + 0 + 2) != 0


def test_solve_F_grid_too_small():
    with pytest.raises(ValueError):
        solve_F_closed(1)
    with pytest.raises(ValueError):
        solve_F_nonclosed(0)


def _sympy_nullspace_dim(N: int, closed: bool) -> int:
    """Independent row-reduction oracle on the same condition families."""
    variables = [(a, b) for a in range(N + 1) for b in range(a, N + 1 - a)]
    index = {v: i for i, v in enumerate(variables)}

    def col(a, b):
        return index[(a, b) if a <= b else (b, a)]

    rows = []
    for a in range(N + 1):
        for b in range(N + 1):
            for c in range(N + 1):
                shifted = [(1 + b + c, a), (1 + c + a, b), (1 + a + b, c)]
                if a + b + c + 1 <= N:
                    for drop in range(3):
                        row = [0] * len(variables)
                        for k, pair in enumerate(shifted):
                            if k != drop:
                                row[col(*pair)] += 1
                        if closed:
                            for pair in ((a, b), (b, c), (c, a)):
                                row[col(*pair)] -= 1
                        rows.append(row)
                if not closed and a + b <= N and b + c <= N and c + a <= N:
                    row = [0] * len(variables)
                    for pair in ((a, b), (b, c), (c, a)):
                        row[col(*pair)] += 1
                    rows.append(row)
    matrix = sympy.Matrix(rows)
    return len(matrix.nullspace())


@pytest.mark.parametrize("N", [2, 3, 4])
def test_solution_space_dims_against_sympy(N):
    assert solve_F_closed(N).dimension == _sympy_nullspace_dim(N, closed=True)
    assert solve_F_nonclosed(N).dimension == _sympy_nullspace_dim(N, closed=False)


def _ordered_triple_rows(N: int, closed: bool) -> list[list[Fraction]]:
    """The condition rows as the solvers once built them: one set per
    ordered triple (a, b, c), so permuted triples repeat rows."""
    variables = _grid_variables(N)
    index = {v: i for i, v in enumerate(variables)}

    def add(row, a, b, coeff):
        row[index[(a, b) if a <= b else (b, a)]] += coeff

    rows = []
    for a in range(N + 1):
        for b in range(N + 1):
            for c in range(N + 1):
                shifted = [(1 + b + c, a), (1 + c + a, b), (1 + a + b, c)]
                if a + b + c + 1 <= N:
                    for drop in range(3):
                        row = [Fraction(0)] * len(variables)
                        for k, pair in enumerate(shifted):
                            if k != drop:
                                add(row, *pair, Fraction(1))
                        if closed:
                            for pair in ((a, b), (b, c), (c, a)):
                                add(row, *pair, Fraction(-1))
                        rows.append(row)
                if not closed and a + b <= N and b + c <= N and c + a <= N:
                    row = [Fraction(0)] * len(variables)
                    for pair in ((a, b), (b, c), (c, a)):
                        add(row, *pair, Fraction(1))
                    rows.append(row)
    return rows


@pytest.mark.parametrize("N", range(2, 11))
def test_sorted_triple_rows_give_the_ordered_triple_answer(N):
    for solver, closed in ((solve_F_closed, True), (solve_F_nonclosed, False)):
        constraints = "closed" if closed else "nonclosed"
        reference = _solve_f_system(N, _ordered_triple_rows(N, closed), constraints)
        assert solver(N).to_json() == reference.to_json()


def test_closed_solutions_satisfy_conditions_exactly():
    N = 6
    space = solve_F_closed(N)
    for table in space.basis:
        for a in range(N):
            for b in range(N - a):
                for c in range(N - a - b):
                    F = lambda x, y: table[(x, y) if x <= y else (y, x)]
                    total = F(a, b) + F(b, c) + F(c, a)
                    assert F(1 + b + c, a) + F(1 + c + a, b) == total
                    assert F(1 + a + b, c) + F(1 + b + c, a) == total
                    assert F(1 + c + a, b) + F(1 + a + b, c) == total
