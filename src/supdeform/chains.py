"""Weighted super chain complexes over the generators of h (+) g0'.

Chain generators are *all* exterior-form basis monomials (each monomial is a
generator in its own right; products of forms are not re-identified with
longer words) plus a chosen basis of the admissible vector subalgebra.  The
chain algebra is free super-commutative on that set with the chain parity
convention: generators of even super degree anticommute (no repeats),
generators of odd super degree commute (repeats allowed).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence, Union

from . import qlinalg
from .brackets import DeformationSpec, SuperElement, extension_bracket, extension_vectors
from .exterior import FORM, monomial_label
from .liealg import VectorField
from .scalars import ONE, PolyT, Terms, ZERO, _as_poly, add_term


@dataclass(frozen=True)
class Generator:
    """A chain generator: a form monomial or a vector-subalgebra basis element.

    ``key`` is the increasing index tuple for forms, or the position in the
    chosen vector basis.  Parity of the super degree drives every sign.
    """

    kind: str  # "v" | "f"
    key: Union[int, tuple[int, ...]]
    superdegree: int

    @property
    def parity(self) -> int:
        return self.superdegree % 2

    def sort_key(self):
        if self.kind == "v":
            return (0, self.key, ())
        return (1, len(self.key), self.key)

    def __lt__(self, other: "Generator") -> bool:
        return self.sort_key() < other.sort_key()


SuperWord = tuple[Generator, ...]


def word_weight(word: SuperWord) -> int:
    return sum(g.superdegree for g in word)


def normalize(word: Sequence[Generator]):
    """Canonical form of a raw generator sequence.

    Returns (sign, word) or None when the word is zero (a repeated generator
    of even super degree).  Each adjacent transposition of generators with
    parities x, y contributes the factor -(-1)^(x y): odd pairs commute,
    anything touching an even generator anticommutes.
    """
    gens = list(word)
    sign = 1
    for i in range(1, len(gens)):
        j = i
        while j > 0 and gens[j].sort_key() < gens[j - 1].sort_key():
            if not (gens[j].parity and gens[j - 1].parity):
                sign = -sign
            gens[j - 1], gens[j] = gens[j], gens[j - 1]
            j -= 1
    for a, b in zip(gens, gens[1:]):
        if a == b and a.parity == 0:
            return None
    return sign, tuple(gens)


class ChainElement(Terms):
    """A Q[t]-linear combination of canonical super words."""

    __slots__ = ()

    def __init__(self, terms=None):
        clean: dict[SuperWord, PolyT] = {}
        for word, coeff in (terms or {}).items():
            coeff = _as_poly(coeff)
            if coeff is None:
                raise TypeError("chain coefficients must be PolyT or rational")
            if coeff:
                clean[tuple(word)] = coeff
        self.terms = clean

    @property
    def header(self) -> tuple:
        return ()

    def like(self, terms) -> "ChainElement":
        return ChainElement(terms)

    @classmethod
    def zero(cls) -> "ChainElement":
        return cls()

    @classmethod
    def of_word(cls, word: SuperWord, coeff=1) -> "ChainElement":
        return cls({word: coeff})

    def coefficient(self, word: SuperWord) -> PolyT:
        return self.terms.get(tuple(word), ZERO)


class ChainComplexSystem:
    """Generator set, extension bracket, and boundary for one deformation."""

    def __init__(self, spec: DeformationSpec, extension: str = "none", vectors: Optional[Iterable[VectorField]] = None):
        self.spec = spec
        n = spec.algebra.n
        if vectors is not None:
            self.vector_basis = tuple(vectors)
        else:
            self.vector_basis = extension_vectors(spec.algebra, spec.phi, extension)
        self.extension = extension
        gens = [Generator("v", pos, 0) for pos in range(len(self.vector_basis))]
        for deg in range(0, n + 1):
            gens.extend(
                Generator("f", ids, -deg - 1) for ids in _increasing_tuples(n, deg)
            )
        self.generators = sorted(gens)
        self._span_rows = [list(v.coeffs) for v in self.vector_basis]
        self._bracket_cache: dict[tuple[Generator, Generator], tuple] = {}

    # -- generators ---------------------------------------------------------

    def form_generator(self, ids) -> Generator:
        ids = tuple(ids)
        return Generator("f", ids, -len(ids) - 1)

    def vector_generator(self, pos: int) -> Generator:
        return Generator("v", pos, 0)

    def generator_label(self, g: Generator) -> str:
        if g.kind == "f":
            return monomial_label(FORM, g.key)
        v = self.vector_basis[g.key]
        nonzero = [(i, c) for i, c in enumerate(v.coeffs) if c]
        if len(nonzero) == 1 and nonzero[0][1] == 1:
            return f"y{nonzero[0][0] + 1}"
        return f"x{g.key + 1}"

    def word_label(self, word: SuperWord) -> str:
        return "A".join(self.generator_label(g) for g in word) if word else "(empty)"

    # -- bracket on generators ----------------------------------------------

    def _to_super(self, g: Generator) -> SuperElement:
        if g.kind == "f":
            return SuperElement(self.spec.algebra.n, {g.key: ONE})
        return SuperElement.from_vector(self.vector_basis[g.key])

    def bracket_generators(self, g1: Generator, g2: Generator):
        """[g1, g2] expanded in chain generators: tuple of (Generator, PolyT)."""
        cached = self._bracket_cache.get((g1, g2))
        if cached is not None:
            return cached
        value = extension_bracket(self.spec, self._to_super(g1), self._to_super(g2)).terms
        out = [(self.form_generator(ids), coeff) for ids, coeff in value.items() if isinstance(ids, tuple)]
        coords = [value.get(i, ZERO) for i in range(1, self.spec.algebra.n + 1)]
        if any(coords):
            out.extend(self._vector_to_generators(coords))
        result = tuple(out)
        self._bracket_cache[(g1, g2)] = result
        return result

    def _vector_to_generators(self, coords: list[PolyT]):
        """Re-express a g-vector with Q[t] coordinates in the chosen basis."""
        degree = max((c.degree for c in coords), default=-1)
        out: dict[int, list] = {}
        for k in range(degree + 1):
            component = [c.coeffs[k] if k <= c.degree else Fraction(0) for c in coords]
            if not any(component):
                continue
            sol = qlinalg.solve_in_span(self._span_rows, component)
            if sol is None:
                raise ValueError("bracket value leaves the chosen vector subalgebra")
            for pos, coeff in enumerate(sol):
                if coeff:
                    out.setdefault(pos, [Fraction(0)] * (degree + 1))[k] = coeff
        return [(self.vector_generator(pos), PolyT(cs)) for pos, cs in sorted(out.items())]

    # -- chain bases ----------------------------------------------------------

    def max_length(self, w: int) -> int:
        """Words of weight w cannot be longer than |w| + dim(vector basis)."""
        return max(0, -w) + len(self.vector_basis)

    def enumerate_basis(self, m: int, w: int) -> list[SuperWord]:
        """All canonical super words of length m and weight w, in word order."""
        if m < 1:
            raise ValueError("chain degree m must be >= 1")
        gens = self.generators
        degs = [g.superdegree for g in gens]
        suffix_min = [0] * (len(gens) + 1)
        suffix_max = [0] * (len(gens) + 1)
        for i in range(len(gens) - 1, -1, -1):
            suffix_min[i] = min(degs[i], suffix_min[i + 1] if i + 1 < len(gens) else degs[i])
            suffix_max[i] = max(degs[i], suffix_max[i + 1] if i + 1 < len(gens) else degs[i])
        out: list[SuperWord] = []
        acc: list[Generator] = []

        def rec(start: int, weight: int):
            length = len(acc)
            if length == m:
                if weight == w:
                    out.append(tuple(acc))
                return
            if start >= len(gens):
                return
            remaining = m - length
            if weight + remaining * suffix_min[start] > w:
                return
            if weight + remaining * suffix_max[start] < w:
                return
            for idx in range(start, len(gens)):
                g = gens[idx]
                if weight + g.superdegree + (remaining - 1) * suffix_min[idx] > w:
                    continue
                if weight + g.superdegree + (remaining - 1) * suffix_max[idx] < w:
                    continue
                acc.append(g)
                rec(idx if g.parity else idx + 1, weight + g.superdegree)
                acc.pop()

        rec(0, 0)
        return out

    # -- boundary -------------------------------------------------------------

    def boundary_word(self, word: SuperWord) -> ChainElement:
        """Boundary of one word:

        d(Y_1 A ... A Y_m) = sum_{i<j} (-1)^(i-1 + y_i * sum_{i<s<j} y_s)
                             Y_1 A ... ^Y_i ... A [Y_i,Y_j]@j A ... A Y_m
        """
        m = len(word)
        terms: dict[SuperWord, PolyT] = {}
        for i in range(m):
            par_i = word[i].parity
            for j in range(i + 1, m):
                values = self.bracket_generators(word[i], word[j])
                if not values:
                    continue
                between = sum(word[s].parity for s in range(i + 1, j)) if par_i else 0
                sgn = -1 if (i + between) % 2 else 1  # i-1 with 1-based i == i with 0-based
                prefix = word[:i] + word[i + 1 : j]
                suffix = word[j + 1 :]
                for gen, coeff in values:
                    norm = normalize(prefix + (gen,) + suffix)
                    if norm is None:
                        continue
                    s2, canon = norm
                    add_term(terms, canon, coeff if sgn * s2 > 0 else -coeff)
        return ChainElement(terms)

    def boundary(self, element: ChainElement) -> ChainElement:
        out = ChainElement.zero()
        for word, coeff in element.terms.items():
            out = out + self.boundary_word(word).scale(coeff)
        return out

    # -- wedge of chains and the boundary Leibniz decomposition ---------------

    def wedge_words(self, u: SuperWord, v: SuperWord) -> ChainElement:
        norm = normalize(u + v)
        if norm is None:
            return ChainElement.zero()
        sign, word = norm
        return ChainElement.of_word(word, sign)

    def wedge(self, x: ChainElement, y: ChainElement) -> ChainElement:
        out = ChainElement.zero()
        for u, cu in x.terms.items():
            for v, cv in y.terms.items():
                out = out + self.wedge_words(u, v).scale(cu * cv)
        return out

    def sbt_es(self, A: ChainElement, B: ChainElement) -> ChainElement:
        """Boundary Leibniz defect d(A^B) - (dA)^B - (-1)^len(A) A^(dB).

        Computed both from that definition and from the explicit double sum
        over generator pairs; the two must agree exactly (a mismatch signals
        a sign bug, so it raises).
        """
        difference = ChainElement.zero()
        double_sum = ChainElement.zero()
        for u, cu in A.terms.items():
            for v, cv in B.terms.items():
                c = cu * cv
                difference = difference + self._sbt_es_difference(u, v).scale(c)
                double_sum = double_sum + self._sbt_es_double_sum(u, v).scale(c)
        if difference != double_sum:
            raise ArithmeticError("sbt_es: difference form and double-sum form disagree")
        return difference

    def _sbt_es_difference(self, u: SuperWord, v: SuperWord) -> ChainElement:
        total = self.boundary(self.wedge_words(u, v))
        total = total - self.wedge(self.boundary_word(u), ChainElement.of_word(v))
        right = self.wedge(ChainElement.of_word(u), self.boundary_word(v))
        # subtract (-1)^len(u) * u ^ dv
        return total + right if len(u) % 2 else total - right

    def _sbt_es_double_sum(self, u: SuperWord, v: SuperWord) -> ChainElement:
        out = ChainElement.zero()
        parities_u = [g.parity for g in u]
        parities_v = [g.parity for g in v]
        for i in range(len(u)):
            tail_u = sum(parities_u[i + 1 :])
            for j in range(len(v)):
                values = self.bracket_generators(u[i], v[j])
                if not values:
                    continue
                head_v = sum(parities_v[: j + 1])
                expo = (i + 1) + parities_u[i] * tail_u + (j + 1) + parities_v[j] * (1 + head_v)
                sgn = -1 if expo % 2 else 1
                seq_prefix = u[:i] + u[i + 1 :]
                seq_suffix = v[:j] + v[j + 1 :]
                for gen, coeff in values:
                    norm = normalize(seq_prefix + (gen,) + seq_suffix)
                    if norm is None:
                        continue
                    s2, canon = norm
                    out = out + ChainElement.of_word(canon, coeff if sgn * s2 > 0 else -coeff)
        return out


def _increasing_tuples(n: int, deg: int):
    return combinations(range(1, n + 1), deg)
