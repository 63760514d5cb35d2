"""Acceptance criteria.

Each test prints one PASS/FAIL line.  All comparisons are exact: Betti
integers, polynomial conditions, and bracket defects are matched in Q[t],
never within a numeric tolerance.
"""

import itertools
import random
import time
import warnings
from contextlib import contextmanager
from fractions import Fraction

from supdeform.axioms import (
    check_superjacobi,
    check_supersymmetry,
    form_system,
    jacobi_closed_form,
    multivector_system,
    solve_F_closed,
    solve_F_nonclosed,
    superjacobi_defect,
)
from supdeform.brackets import DeformationSpec, FSpec, deformed_schouten
from supdeform.chains import ChainComplexSystem, ChainElement, normalize
from supdeform.exterior import MULTIVECTOR, GradedElement, d, is_closed, schouten
from supdeform.homology import betti_piecewise, boundary_matrix, generic_rank
from supdeform.liealg import OneForm, abelian, heisenberg3, solvable2
from supdeform.scalars import ONE, PolyT, T, poly

ALG2 = solvable2()
Z2 = OneForm.dual_basis(2, 2)


@contextmanager
def criterion(number: int, name: str):
    start = time.perf_counter()
    try:
        yield lambda: time.perf_counter() - start
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {name}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {name} ({time.perf_counter() - start:.3f}s)")


def test_criterion_1_golden_trivial_table():
    with criterion(1, "golden table 1: trivial deformation, weight -3") as elapsed:
        spec = DeformationSpec.trivial(ALG2, Z2, FSpec.const(1))  # c0 = c1 = 1, nonzero
        report = betti_piecewise(ChainComplexSystem(spec, "none"), -3)
        assert report.dims == [1, 2, 1]
        assert report.generic_betti == [0, 0, 0]
        assert len(report.special) == 1 and report.special[0].label() == "t = 0"
        assert report.special[0].betti == [1, 2, 1]
        assert elapsed() < 1.0


def test_criterion_2_golden_standard_table():
    with criterion(2, "golden table 2: standard deformation, weight -3") as elapsed:
        report = betti_piecewise(ChainComplexSystem(DeformationSpec.standard(ALG2, Z2), "none"), -3)
        assert report.dims == [1, 2, 1]
        # kernel dims (1, 1 + d_{2+3t}, d_t)
        assert report.generic_kernels == [1, 1, 0]
        by_label = {case.label(): case for case in report.special}
        assert by_label["t = -2/3"].kernels == [1, 2, 0]
        assert by_label["t = 0"].kernels == [1, 1, 1]
        # Betti (d_{2+3t}, d_{2+3t} + d_t, d_t)
        assert report.generic_betti == [0, 0, 0]
        assert by_label["t = -2/3"].betti == [1, 1, 0]
        assert by_label["t = 0"].betti == [0, 1, 1]
        assert [str(p) for p in report.locus] == ["t", "2/3 + t"]
        assert elapsed() < 1.0


def _row_spans_equal(rows_a, rows_b, width):
    """Row spans over Q(t), compared by rank of the stacked matrix."""
    if not rows_a or not rows_b:
        return not rows_a and not rows_b
    ra = generic_rank(rows_a)
    rb = generic_rank(rows_b)
    return ra == rb == generic_rank(rows_a + rows_b)


def test_criterion_3_golden_extension_table():
    with criterion(3, "golden table 3: extension, weight -3") as elapsed:
        system = ChainComplexSystem(DeformationSpec.standard(ALG2, Z2), "g0prime")
        report = betti_piecewise(system, -3)
        assert report.dims == [1, 4, 6, 4, 1]
        assert report.generic_betti == [0, 0, 0, 0, 0]
        labels = {case.label() for case in report.special}
        assert labels == {"t = 0", "t = -2/3"}
        for case in report.special:
            assert case.betti == [0, 1, 2, 1, 0]

        # boundary images row-span-equal to the paper's listed spanning sets
        y1, y2 = 0, 1  # the vector basis comes first
        one = system.form_index[()]
        z1, z2 = system.form_index[(1,)], system.form_index[(2,)]
        V = system.form_index[(1, 2)]
        q = poly(1, Fraction(3, 2))
        t3 = poly(0, 3)

        def combo(*pairs):
            total = ChainElement.zero()
            for coeff, raw in pairs:
                sign, word = normalize(raw, system.parity)
                total = total + ChainElement.of_word(word, PolyT.const(sign) * coeff)
            return total

        paper_spans = {
            2: [combo((q, (V,))), combo((ONE, (V,)))],
            3: [
                combo((t3, (z2, one))),  # 3t z2^1 (the documented factor-3 convention)
                combo((ONE, (z2, one)), (q, (y1, V))),
                combo((ONE, (z1, one)), (-q, (y2, V))),
            ],
            4: [
                combo((T, (y1, z2, one))),
                combo((T, (y2, z2, one))),
                combo((-ONE, (y2, z2, one)), (q, (y1, y2, V))),
                combo((ONE, (y1, z2, one))),
            ],
            5: [combo((ONE, (y1, one, one, one)), (t3, (y1, y2, z2, one)))],
        }
        for m, span in paper_spans.items():
            M = boundary_matrix(system, m, -3)
            entries = M.entries
            image_rows = [[entries[r][c] for r in range(len(M.rows))] for c in range(len(M.cols))]
            image_rows = [row for row in image_rows if any(not e.is_zero() for e in row)]
            basis = system.enumerate_basis(m - 1, -3)
            listed_rows = [[v.coefficient(word) for word in basis] for v in span]
            assert _row_spans_equal(listed_rows, image_rows, len(basis)), f"span mismatch at m={m}"
        assert elapsed() < 5.0


def test_criterion_4_f_family():
    with criterion(4, "F-family solution spaces on the grid N = 8") as elapsed:
        closed = solve_F_closed(8)
        assert closed.dimension == 1
        assert closed.contains_table(lambda a, b: a + b + 2)
        nonclosed = solve_F_nonclosed(8)
        assert nonclosed.dimension == 0
        assert elapsed() < 1.0


def test_criterion_5_axiom_suite():
    with criterion(5, "axiom suite: standard bracket, closed and non-closed phi"):
        # 2-dim algebra with phi = z2, symbolic t
        system = form_system(DeformationSpec.standard(ALG2, Z2))
        assert check_supersymmetry(system).passed
        assert check_superjacobi(system).passed
        # 3-dim algebra with a closed phi
        heis = heisenberg3()
        phi3 = OneForm.dual_basis(3, 1)
        assert is_closed(heis, phi3)
        system3 = form_system(DeformationSpec.standard(heis, phi3))
        assert check_supersymmetry(system3).passed
        assert check_superjacobi(system3).passed
        # Heisenberg with non-closed z3: a concrete violating triple whose
        # defect is a nonzero multiple of t d(phi)
        zeta3 = OneForm.dual_basis(3, 3)
        assert not is_closed(heis, zeta3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bad = DeformationSpec.standard(heis, zeta3)
        report = check_superjacobi(form_system(bad))
        assert not report.passed
        assert report.witness.labels == ("1", "1", "1")
        dphi = d(heis, GradedElement.from_one_form(zeta3))
        assert not dphi.is_zero()
        assert report.witness.defect == dphi.scale(T).scale(3)


def _random_passing_spec(rng, algebra):
    """A deformation drawn from the families guaranteed to pass the axiom lab."""
    n = algebra.n
    closed_choices = []
    for coeffs in itertools.product((-1, 0, 1), repeat=n):
        phi = OneForm.make(coeffs)
        if is_closed(algebra, phi):
            closed_choices.append(phi)
    kind = rng.choice(("trivial", "standard", "undeformed"))
    if kind == "standard":
        phi = rng.choice(closed_choices)
        spec = DeformationSpec.standard(algebra, phi)
    elif kind == "undeformed":
        spec = DeformationSpec.undeformed(algebra)
    else:
        table = {}
        for a in range(n):
            for b in range(a, n):
                v = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                table[(a, b)] = v
                table[(b, a)] = v
        phi = OneForm.make([rng.randint(-2, 2) for _ in range(n)])
        spec = DeformationSpec.trivial(algebra, phi, FSpec.from_table(table))
    if spec.phi_closed:
        extension = rng.choice(("none", "g0prime", "g0doubleprime"))
    else:
        extension = rng.choice(("none", "g0prime"))
    return spec, extension


def test_criterion_6_structural_invariants():
    with criterion(6, "structural invariants: dd = 0, weights, SbtES, closed form"):
        rng = random.Random(2024)
        algebras = [solvable2(), heisenberg3(), abelian(3)]
        cases = 0
        while cases < 200:
            algebra = rng.choice(algebras)
            spec, extension = _random_passing_spec(rng, algebra)
            system = ChainComplexSystem(spec, extension)
            w = rng.randint(-5, 0)
            m = rng.randint(1, max(1, min(system.max_length(w), 4)))
            words = system.enumerate_basis(m, w)
            for word in words[:10]:
                image = system.boundary_word(word)
                for out_word, _ in image.terms.items():
                    assert sum(system.degree[g] for g in out_word) == w
                    assert len(out_word) == len(word) - 1
                assert system.boundary(image).is_zero()
            cases += 1

        # SbtES: the defining difference equals the double sum on >= 100 pairs
        system = ChainComplexSystem(DeformationSpec.standard(ALG2, Z2), "g0prime")
        gens = range(len(system.degree))
        pairs = 0
        while pairs < 100:
            u = tuple(rng.choice(gens) for _ in range(rng.randint(1, 2)))
            v = tuple(rng.choice(gens) for _ in range(rng.randint(1, 2)))
            nu, nv = normalize(u, system.parity), normalize(v, system.parity)
            if nu is None or nv is None:
                continue
            system.sbt_es(ChainElement.of_word(nu[1], nu[0]), ChainElement.of_word(nv[1], nv[0]))
            pairs += 1

        # brute-force Jacobi defect == closed-form expansion, all triples, 2-dim
        table = {}
        for a in range(0, 7):
            for b in range(a, 7):
                v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                table[(a, b)] = v
                table[(b, a)] = v
        spec = DeformationSpec(
            ALG2, DeformationSpec.standard(ALG2, Z2).kind, FSpec.from_table(table), Z2, True
        )
        sysf = form_system(spec)
        for a, b, c in itertools.product(sysf.items, repeat=3):
            assert superjacobi_defect(sysf, a, b, c) == jacobi_closed_form(
                spec, a.element, b.element, c.element
            )


def test_criterion_7_deformed_schouten():
    with criterion(7, "deformed Schouten axioms and reductions"):
        # phi = z2 is a 1-cocycle: it kills [y1, y2] = y1 (this is checked)
        assert is_closed(ALG2, Z2)
        assert Z2.coeffs[0] == 0  # phi(y1) = 0 where [y1,y2] = y1
        system = multivector_system(ALG2, Z2)
        assert check_supersymmetry(system).passed
        assert check_superjacobi(system).passed
        # degree-1 case is the Lie bracket
        y1 = GradedElement.monomial(MULTIVECTOR, 2, (1,))
        y2 = GradedElement.monomial(MULTIVECTOR, 2, (2,))
        assert deformed_schouten(ALG2, y1, y2, Z2) == schouten(ALG2, y1, y2) == y1
        # phi = 0 reduces to the undeformed Schouten bracket
        zero = OneForm.zero(2)
        basis = [
            GradedElement.monomial(MULTIVECTOR, 2, ids)
            for deg in (1, 2)
            for ids in itertools.combinations((1, 2), deg)
        ]
        for P, Q in itertools.product(basis, repeat=2):
            assert deformed_schouten(ALG2, P, Q, zero) == schouten(ALG2, P, Q)
