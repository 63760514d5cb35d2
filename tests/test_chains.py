"""Super words, the boundary operator, and the Leibniz decomposition."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from supdeform.brackets import DeformationSpec, SuperElement, extension_bracket
from supdeform.chains import ChainComplexSystem, ChainElement, normalize
from supdeform.config import load_config
from supdeform.exterior import FORM, GradedElement, lie_derivative
from supdeform.liealg import OneForm, VectorField, heisenberg3, solvable2
from supdeform.scalars import ZERO, _zadd_term, poly

ROOT = Path(__file__).resolve().parent.parent


ALG2 = solvable2()
Z2 = OneForm.dual_basis(2, 2)
STD = DeformationSpec.standard(ALG2, Z2)


@pytest.fixture(scope="module")
def sys_h():
    return ChainComplexSystem(STD, "none")


@pytest.fixture(scope="module")
def sys_ext():
    return ChainComplexSystem(STD, "g0prime")


class TestNormalize:
    def test_odd_generator_repeats(self, sys_h):
        one = sys_h.form_index[()]
        assert normalize((one, one, one), sys_h.parity) == (1, (one, one, one))

    def test_odd_two_form_symmetric(self, sys_h):
        V = sys_h.form_index[(1, 2)]
        assert sys_h.degree[V] == -3
        assert normalize((V, V), sys_h.parity) == (1, (V, V))

    def test_even_repeat_is_zero(self, sys_h):
        z1 = sys_h.form_index[(1,)]
        assert sys_h.degree[z1] == -2
        assert normalize((z1, z1), sys_h.parity) is None

    def test_swap_signs(self, sys_h):
        one = sys_h.form_index[()]
        z1 = sys_h.form_index[(1,)]
        # even-odd adjacent swap anticommutes
        assert normalize((z1, one), sys_h.parity) == (-1, (one, z1))

    def test_permutation_invariance(self, sys_ext):
        rng = random.Random(99)
        parity = sys_ext.parity
        gens = range(len(parity))
        for _ in range(200):
            word = tuple(rng.choice(gens) for _ in range(rng.randint(2, 5)))
            base = normalize(word, parity)
            perm = list(word)
            rng.shuffle(perm)
            permuted = normalize(tuple(perm), parity)
            if base is None:
                assert permuted is None
                continue
            # recompute the super-sign of the permutation independently by
            # tracking element moves pairwise
            sign_oracle = _super_sign(word, tuple(perm), parity)
            if sign_oracle is None:
                assert permuted is None or permuted[1] == base[1]
                continue
            assert permuted is not None
            assert permuted[1] == base[1]
            assert permuted[0] == base[0] * sign_oracle


def _super_sign(src, dst, parity):
    """Sign relating two orderings of the same multiset (None if ambiguous)."""
    work = list(src)
    sign = 1
    for target_pos, g in enumerate(dst):
        pos = next((i for i in range(target_pos, len(work)) if work[i] == g), None)
        if pos is None:
            return None
        while pos > target_pos:
            a, b = work[pos - 1], work[pos]
            sign *= 1 if (parity[a] and parity[b]) else -1
            work[pos - 1], work[pos] = b, a
            pos -= 1
    return sign


class _OnePairSystem(ChainComplexSystem):
    """Generators 0 .. len(parity) - 1 of the given parities, and a bracket
    that is zero except [a, b] = gen with coefficient 1."""

    def __init__(self, parity, a, b, gen):
        self.parity = list(parity)
        self._bracket_cache = {(a, b): (1, ((gen, (1,)),))}

    def _bracket_numerators(self, g1, g2):
        return self._bracket_cache.get((g1, g2), (1, ()))


@st.composite
def _words_and_pairs(draw):
    """Random parities, a canonical word over them (each even generator at
    most once, an odd one up to three times in a run) and a pair i < j of
    its positions."""
    n = draw(st.integers(1, 6))
    parity = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    word = ()
    for g in range(n):
        word += (g,) * draw(st.integers(0, 3 if parity[g] else 1))
    assume(len(word) >= 2)
    i = draw(st.integers(0, len(word) - 2))
    j = draw(st.integers(i + 1, len(word) - 1))
    return parity, word, i, j


@settings(max_examples=400, deadline=None)
@given(_words_and_pairs())
def test_boundary_insertion_matches_normalize(case):
    """``_boundary_terms`` places each bracket generator into the canonical
    rest of the word by bisection; ``normalize`` of the raw sequence must
    give the same (sign, word), or None for a repeated even generator.
    Every generator is tried as [Y_i, Y_j], so it lands at every place of
    the rest, on either end, and next to an equal neighbour or odd run."""
    parity, word, i, j = case
    a, b = word[i], word[j]
    # an odd generator can repeat, so the pair may stand at several places
    places = [(p, q) for p in range(len(word)) for q in range(p + 1, len(word)) if (word[p], word[q]) == (a, b)]
    for gen in range(len(parity)):
        expected = {}
        for p, q in places:
            norm = normalize(word[:p] + word[p + 1 : q] + (gen,) + word[q + 1 :], parity)
            if norm is not None:
                between = sum(parity[g] for g in word[p + 1 : q]) if parity[a] else 0
                _zadd_term(expected, norm[1], (norm[0] * (-1) ** (p + between),))
        assert _OnePairSystem(parity, a, b, gen)._boundary_terms(word) == (1, expected)


class TestEnumerateBasis:
    def test_h_only_weight_minus3(self, sys_h):
        labels = [[sys_h.word_label(w) for w in sys_h.enumerate_basis(m, -3)] for m in (1, 2, 3)]
        assert labels[0] == ["z1^z2"]
        assert labels[1] == ["1Az1", "1Az2"]
        assert labels[2] == ["1A1A1"]

    def test_extended_weight_minus3_dims(self, sys_ext):
        dims = [len(sys_ext.enumerate_basis(m, -3)) for m in range(1, 6)]
        assert dims == [1, 4, 6, 4, 1]

    def test_extended_m3_word_set(self, sys_ext):
        words = {sys_ext.word_label(w) for w in sys_ext.enumerate_basis(3, -3)}
        assert words == {"1A1A1", "y1A1Az1", "y1A1Az2", "y2A1Az1", "y2A1Az2", "y1Ay2Az1^z2"}

    def test_weight_zero_needs_vectors(self, sys_h, sys_ext):
        assert sys_h.enumerate_basis(1, 0) == []
        assert [sys_ext.word_label(w) for w in sys_ext.enumerate_basis(2, 0)] == ["y1Ay2"]

    def test_no_words_of_positive_weight(self, sys_ext):
        for m in (1, 2, 3):
            assert sys_ext.enumerate_basis(m, 1) == []


class TestBoundary:
    def test_boundary_of_one_form_words(self, sys_h):
        one = sys_h.form_index[()]
        z1 = sys_h.form_index[(1,)]
        V = sys_h.form_index[(1, 2)]
        # paper's d(z1 A 1) = (1 + 3t/2) z1^z2, written here on the raw word
        value = sys_h.boundary_word((z1, one))
        assert value == ChainElement.of_word((V,), poly(1, Fraction(3, 2)))

    def test_boundary_cube_of_ones(self, sys_h):
        one = sys_h.form_index[()]
        z2 = sys_h.form_index[(2,)]
        value = sys_h.boundary_word((one, one, one))
        # 3t * (z2 A 1) in the paper's labels; canonically -3t * (1 A z2)
        assert value == ChainElement.of_word((one, z2), poly(0, -3))

    def test_boundary_top_extended_word(self, sys_ext):
        y1, y2 = 0, 1  # the vector basis comes first
        one = sys_ext.form_index[()]
        z2 = sys_ext.form_index[(2,)]
        word = (y1, y2, one, one, one)
        value = sys_ext.boundary_word(word)
        expected = ChainElement.of_word((y1, one, one, one)) + ChainElement.of_word(
            (y1, y2, one, z2), poly(0, -3)
        )
        assert value == expected

    def test_weight_preserved(self, sys_ext):
        rng = random.Random(4)
        for _ in range(150):
            m = rng.randint(1, 4)
            w = rng.randint(-5, 0)
            for word in sys_ext.enumerate_basis(m, w):
                image = sys_ext.boundary_word(word)
                for out_word in image.terms:
                    assert sum(sys_ext.degree[g] for g in out_word) == w
                    assert len(out_word) == len(word) - 1

    def test_boundary_squares_to_zero_everywhere(self, sys_ext):
        for w in range(-5, 1):
            for m in range(1, sys_ext.max_length(w) + 1):
                for word in sys_ext.enumerate_basis(m, w):
                    assert sys_ext.boundary(sys_ext.boundary_word(word)).is_zero()


def _all_even_boundary(system, word):
    """Appendix specialization when every generator is even."""
    out = ChainElement.zero()
    m = len(word)
    for i in range(m):
        for j in range(i + 1, m):
            rest = word[:i] + word[i + 1 : j] + word[j + 1 :]
            sgn = -((-1) ** (i + 1 + j + 1))
            for gen, coeff in system.bracket_generators(word[i], word[j]):
                norm = normalize((gen,) + rest, system.parity)
                if norm is None:
                    continue
                s2, canon = norm
                out = out + ChainElement.of_word(canon, coeff if sgn * s2 > 0 else -coeff)
    return out


def _all_odd_boundary(system, word):
    """Appendix specialization when every generator is odd."""
    out = ChainElement.zero()
    m = len(word)
    for i in range(m):
        for j in range(i + 1, m):
            rest = word[:i] + word[i + 1 : j] + word[j + 1 :]
            for gen, coeff in system.bracket_generators(word[i], word[j]):
                norm = normalize((gen,) + rest, system.parity)
                if norm is None:
                    continue
                s2, canon = norm
                out = out + ChainElement.of_word(canon, coeff if s2 > 0 else -coeff)
    return out


def _pairwise_boundary(system, word):
    """Reference: the boundary formula with one ChainElement per (i, j) pair,
    summed pair by pair."""
    m = len(word)
    acc = ChainElement.zero()
    for i in range(m):
        par_i = system.parity[word[i]]
        for j in range(i + 1, m):
            values = system.bracket_generators(word[i], word[j])
            if not values:
                continue
            between = sum(system.parity[word[s]] for s in range(i + 1, j)) if par_i else 0
            sgn = -1 if (i + between) % 2 else 1
            prefix = word[:i] + word[i + 1 : j]
            suffix = word[j + 1 :]
            terms = {}
            for gen, coeff in values:
                norm = normalize(prefix + (gen,) + suffix, system.parity)
                if norm is None:
                    continue
                s2, canon = norm
                prev = terms.get(canon, ZERO) + (coeff if sgn * s2 > 0 else -coeff)
                if prev.is_zero():
                    terms.pop(canon, None)
                else:
                    terms[canon] = prev
            acc = acc + ChainElement(terms)
    return acc


@pytest.mark.parametrize(
    "config_path, weights",
    [("bench/configs/aff1-aff1-g0prime.cfg", [-4]), ("configs/heisenberg-closed.cfg", None)],
)
def test_boundary_word_matches_pairwise_sum(config_path, weights):
    config = load_config(str(ROOT / config_path))
    system = ChainComplexSystem(config.deformation, config.extension)
    words = 0
    for w in weights or config.weights:
        for m in range(1, system.max_length(w) + 1):
            for word in system.enumerate_basis(m, w):
                image = system.boundary_word(word)
                assert image == _pairwise_boundary(system, word)
                assert all(not c.is_zero() for c in image.terms.values())
                words += 1
    assert words > 0


class TestBoundarySpecializations:
    def test_all_even_words_match_classic_formula(self, sys_ext):
        # vector generators are even and closed under bracketing
        word = (0, 1)
        assert sys_ext.boundary_word(word) == _all_even_boundary(sys_ext, word)

    def test_all_even_random_vector_words(self):
        heis = heisenberg3()
        spec = DeformationSpec.standard(heis, OneForm.dual_basis(3, 1))
        system = ChainComplexSystem(spec, "g0prime")
        vecs = range(len(system.vector_basis))
        rng = random.Random(12)
        for _ in range(50):
            word = tuple(rng.sample(vecs, rng.randint(2, len(vecs))))
            norm = normalize(word, system.parity)
            if norm is None:
                continue
            _, canon = norm
            assert system.boundary_word(canon) == _all_even_boundary(system, canon)

    def test_all_odd_random_words(self, sys_ext):
        odd = [g for g, par in enumerate(sys_ext.parity) if par]
        rng = random.Random(13)
        for _ in range(50):
            word = tuple(sorted(rng.choices(odd, k=rng.randint(2, 4))))
            assert sys_ext.boundary_word(word) == _all_odd_boundary(sys_ext, word)


class TestSbtES:
    def test_unit_word(self, sys_ext):
        one = sys_ext.form_index[()]
        A = ChainElement.of_word((one, one))
        assert sys_ext.sbt_es(A, ChainElement.of_word(())).is_zero()

    def test_single_generators_give_bracket(self, sys_ext):
        y2 = 1
        V = sys_ext.form_index[(1, 2)]
        lhs = sys_ext.sbt_es(ChainElement.of_word((y2,)), ChainElement.of_word((V,)))
        assert lhs == sys_ext.boundary_word((y2, V))

    def test_random_pairs_agree(self, sys_ext):
        rng = random.Random(3)
        parity = sys_ext.parity
        gens = range(len(parity))
        checked = 0
        while checked < 120:
            u = tuple(rng.choice(gens) for _ in range(rng.randint(1, 2)))
            v = tuple(rng.choice(gens) for _ in range(rng.randint(1, 2)))
            nu, nv = normalize(u, parity), normalize(v, parity)
            if nu is None or nv is None:
                continue
            A = ChainElement.of_word(nu[1], nu[0])
            B = ChainElement.of_word(nv[1], nv[0])
            sys_ext.sbt_es(A, B)  # raises on disagreement
            checked += 1


class TestVectorReexpression:
    def test_bracket_lands_in_subalgebra_basis(self):
        # g0' of the Heisenberg algebra with phi = z1 is all of g
        heis = heisenberg3()
        spec = DeformationSpec.standard(heis, OneForm.dual_basis(3, 1))
        system = ChainComplexSystem(spec, "g0prime")
        assert len(system.vector_basis) == 3
        values = dict(system.bracket_generators(0, 1))
        assert {system.word_label((g,)) for g in values} == {"y3"}

    def test_generator_ordering_vectors_before_forms(self, sys_ext):
        nvec = len(sys_ext.vector_basis)
        assert sys_ext.degree[:nvec] == [0] * nvec
        assert list(sys_ext.form_index.values()) == list(range(nvec, len(sys_ext.degree)))
        assert list(sys_ext.form_index) == sorted(sys_ext.form_index, key=lambda ids: (len(ids), ids))


def _bracket_systems():
    for path in ("configs/dim2-extended.cfg", "bench/configs/aff1-aff1-g0prime.cfg"):
        config = load_config(str(ROOT / path))
        yield ChainComplexSystem(config.deformation, config.extension)
    # non-coordinate vector bases: atoms of a vector are several y_i, and
    # [y1 + y2, y2] = y3 = (y1 + y3) - (y1 + y2) + y2 is re-expressed
    spec = DeformationSpec.standard(heisenberg3(), OneForm.dual_basis(3, 1))
    yield ChainComplexSystem(spec, vectors=[VectorField((1, 1, 0)), VectorField((0, 0, 1))])
    yield ChainComplexSystem(spec, vectors=[VectorField((1, 1, 0)), VectorField((0, 1, 0)), VectorField((1, 0, 1))])


@pytest.mark.parametrize("system", list(_bracket_systems()), ids=["dim2-extended", "aff1-aff1-g0prime", "heis-span2", "heis-span3"])
def test_bracket_generators_match_extension_bracket(system):
    """Summing each generator-pair expansion back into a SuperElement gives
    extension_bracket on the two generators' elements, and on a vector and a
    form it is the Lie derivative, [X, beta] = L_X beta = -[beta, X]."""
    elements = [item.element for item in system.brackets.items]
    algebra, n = system.spec.algebra, system.spec.algebra.n
    nvec = len(system.vector_basis)
    zero = SuperElement.zero(n)
    for g1, u in enumerate(elements):
        for g2, v in enumerate(elements):
            total = zero
            for g, coeff in system.bracket_generators(g1, g2):
                total = total + elements[g].scale(coeff)
            assert total == extension_bracket(system.spec, u, v)
            if (g1 < nvec) != (g2 < nvec):
                (x, beta), sign = ((g1, v), 1) if g1 < nvec else ((g2, u), -1)
                lie = lie_derivative(algebra, system.vector_basis[x], GradedElement(FORM, n, beta.terms))
                assert total == SuperElement.from_form(lie).scale(sign)
