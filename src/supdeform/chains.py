"""Weighted super chain complexes over the generators of h (+) g0'.

Chain generators are the items of the extension system
(``axioms.extension_system``): a chosen basis of the admissible vector
subalgebra, then *all* exterior-form basis monomials by (degree, index tuple)
(each monomial is a generator in its own right; products of forms are not
re-identified with longer words).  Generator g is the int index of item g,
and item order is the canonical word order.  The chain algebra is free
super-commutative on that set with the chain parity convention: generators
of even super degree anticommute (no repeats), generators of odd super
degree commute (repeats allowed).

The generator brackets are the extension system's pair table, its nonzero
pairs only, re-expressed once in chain generators over one denominator for
the whole complex (``ChainComplexSystem.pairs`` and ``den``); the boundary
of a word is then integer over that denominator, and every boundary matrix
shares it as its scale.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

from . import qlinalg
from .axioms import extension_system
from .brackets import DeformationSpec, extension_vectors
from .liealg import VectorField
from .scalars import PolyT, Terms, ZERO, _as_poly, _zadd_term

SuperWord = tuple[int, ...]


def normalize(word: Sequence[int], parity: Sequence[int]):
    """Canonical form of a raw generator sequence; ``parity[g]`` is the
    parity of generator g's super degree.

    Returns (sign, word) or None when the word is zero (a repeated generator
    of even super degree).  Each adjacent transposition of generators with
    parities x, y contributes the factor -(-1)^(x y): odd pairs commute,
    anything touching an even generator anticommutes.
    """
    gens = list(word)
    sign = 1
    for i in range(1, len(gens)):
        j = i
        while j > 0 and gens[j] < gens[j - 1]:
            if not (parity[gens[j]] and parity[gens[j - 1]]):
                sign = -sign
            gens[j - 1], gens[j] = gens[j], gens[j - 1]
            j -= 1
    for a, b in zip(gens, gens[1:]):
        if a == b and not parity[a]:
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

    @classmethod
    def zero(cls) -> "ChainElement":
        return cls()

    @classmethod
    def of_word(cls, word: SuperWord, coeff=1) -> "ChainElement":
        return cls({word: coeff})

    def coefficient(self, word: SuperWord) -> PolyT:
        return self.terms.get(tuple(word), ZERO)


class ChainComplexSystem:
    """Generators, their bracket, and the boundary for one deformation.

    ``brackets`` is the extension system whose items are the generators,
    and its pair table ``pair_images`` is the one bracket store: ``pairs``
    re-expresses it once in chain generators, over one integer ``den`` for
    the whole complex.  ``pairs[g1]`` maps each g2 with [g1, g2] != 0 to
    ((generator, numerators), ...), the coefficient of each generator its
    integer coefficient tuple over ``den``, the lcm of every denominator in
    the table; a missing pair has bracket zero.  ``degree[g]`` and
    ``parity[g]`` are item g's super degree and its parity.
    """

    def __init__(self, spec: DeformationSpec, extension: str = "none", vectors: Optional[Iterable[VectorField]] = None):
        self.spec = spec
        if vectors is not None:
            self.vector_basis = tuple(vectors)
        else:
            self.vector_basis = extension_vectors(spec.algebra, spec.phi, extension)
        self.brackets = extension_system(spec, self.vector_basis)
        items = self.brackets.items
        self.degree = [item.superdegree for item in items]
        self.parity = [item.parity for item in items]
        nvec = len(self.vector_basis)
        # form item g holds the single atom (its index tuple) with coefficient 1
        self.form_index = {ids: g for g, item in enumerate(items[nvec:], nvec) for ids in item.element.terms}
        self._span_rows = [list(v.coeffs) for v in self.vector_basis]
        rows = [{g2: self._expand(value) for g2, value in row.items()} for row in self.brackets.pair_images]
        den = self.den = lcm(*(c.denominator for row in rows for out in row.values() for _, p in out for c in p.coeffs))

        def numerators(p: PolyT) -> tuple[int, ...]:
            return tuple(c.numerator * (den // c.denominator) for c in p.coeffs)

        self.pairs = [{g2: tuple((gen, numerators(p)) for gen, p in out) for g2, out in row.items()} for row in rows]

    def word_label(self, word: SuperWord) -> str:
        items = self.brackets.items
        return "A".join(items[g].label for g in word) if word else "(empty)"

    # -- bracket on generators ----------------------------------------------

    def bracket_generators(self, g1: int, g2: int):
        """[g1, g2] expanded in chain generators: tuple of (generator, PolyT)."""
        den = self.den
        return tuple((gen, PolyT._wrap(tuple(Fraction(x, den) for x in nums))) for gen, nums in self.pairs[g1].get(g2, ()))

    def _expand(self, value: dict) -> list[tuple[int, PolyT]]:
        """A bracket value of h (+) g0 in chain generators: each form atom is
        its own generator, and the vector part, with Q[t] coordinates, is
        re-expressed in the chosen basis."""
        out = [(self.form_index[ids], coeff) for ids, coeff in value.items() if isinstance(ids, tuple)]
        coords = [value.get(i, ZERO) for i in range(1, self.spec.algebra.n + 1)]
        degree = max((c.degree for c in coords), default=-1)
        vector: dict[int, list] = {}
        for k in range(degree + 1):
            component = [c.coeffs[k] if k <= c.degree else Fraction(0) for c in coords]
            if not any(component):
                continue
            sol = qlinalg.solve_in_span(self._span_rows, component)
            if sol is None:
                raise ValueError("bracket value leaves the chosen vector subalgebra")
            for pos, coeff in enumerate(sol):
                if coeff:
                    vector.setdefault(pos, [Fraction(0)] * (degree + 1))[k] = coeff
        out.extend((pos, PolyT(cs)) for pos, cs in sorted(vector.items()))
        return out

    # -- chain bases ----------------------------------------------------------

    def max_length(self, w: int) -> int:
        """Words of weight w cannot be longer than |w| + dim(vector basis)."""
        return max(0, -w) + len(self.vector_basis)

    def enumerate_basis(self, m: int, w: int) -> list[SuperWord]:
        """All canonical super words of length m and weight w, in word order."""
        if m < 1:
            raise ValueError("chain degree m must be >= 1")
        degs, parity = self.degree, self.parity
        count = len(degs)
        suffix_min = [0] * (count + 1)
        suffix_max = [0] * (count + 1)
        for i in range(count - 1, -1, -1):
            suffix_min[i] = min(degs[i], suffix_min[i + 1] if i + 1 < count else degs[i])
            suffix_max[i] = max(degs[i], suffix_max[i + 1] if i + 1 < count else degs[i])
        out: list[SuperWord] = []
        acc: list[int] = []

        def rec(start: int, weight: int):
            length = len(acc)
            if length == m:
                if weight == w:
                    out.append(tuple(acc))
                return
            if start >= count:
                return
            remaining = m - length
            if weight + remaining * suffix_min[start] > w:
                return
            if weight + remaining * suffix_max[start] < w:
                return
            for g in range(start, count):
                if weight + degs[g] + (remaining - 1) * suffix_min[g] > w:
                    continue
                if weight + degs[g] + (remaining - 1) * suffix_max[g] < w:
                    continue
                acc.append(g)
                rec(g if parity[g] else g + 1, weight + degs[g])
                acc.pop()

        rec(0, 0)
        return out

    # -- boundary -------------------------------------------------------------

    def boundary_word(self, word: SuperWord) -> ChainElement:
        """Boundary of one word:

        d(Y_1 A ... A Y_m) = sum_{i<j} (-1)^(i-1 + y_i * sum_{i<s<j} y_s)
                             Y_1 A ... ^Y_i ... A [Y_i,Y_j]@j A ... A Y_m
        """
        den = self.den
        return ChainElement.zero().like(
            {canon: PolyT._wrap(tuple(Fraction(x, den) for x in nums)) for canon, nums in self._boundary_terms(word).items()}
        )

    def _boundary_terms(self, word: SuperWord) -> dict[SuperWord, tuple]:
        """The boundary of one word (see ``boundary_word``) times ``den``:
        canonical word -> its nonzero integer coefficient tuple.

        Without Y_i and Y_j the word stays canonical, so each generator of
        [Y_i, Y_j] is placed into that rest by bisection where the insertion
        sort of ``normalize`` stops: after the equal generators left of Y_j's
        place, before those right of it.  Each generator it passes flips the
        sign unless both are odd, the odd ones counted from prefix sums of
        the word's parities, and an even generator gives zero exactly when a
        neighbour equals it.  ``normalize`` is the oracle the tests compare
        these placements with."""
        parity, pairs = self.parity, self.pairs
        m = len(word)
        odd = [0]  # odd[k]: the odd generators among word[:k]
        for g in word:
            odd.append(odd[-1] + parity[g])
        terms: dict[SuperWord, tuple] = {}
        for i in range(m):
            gi = word[i]
            row = pairs[gi]
            par_i = parity[gi]
            for j in range(i + 1, m):
                values = row.get(word[j])
                if values is None:
                    continue
                # (-1)^(i-1 + y_i * between) with 1-based i is (-1)^(i + ...) with 0-based i
                sgn = i + (odd[j] - odd[i + 1] if par_i else 0)
                rest = word[:i] + word[i + 1 : j] + word[j + 1 :]
                left = j - 1  # rest[:left] stood before Y_j, rest[left:] after it
                for gen, nums in values:
                    k = bisect_right(rest, gen, 0, left)
                    if k < left:  # gen passes rest[k:left] leftwards
                        flips = left - k
                        odd_passed = odd[j] - (odd[k] + par_i if k < i else odd[k + 1])
                    else:  # gen passes rest[left:k] = word[j + 1 : k + 2] rightwards
                        k = bisect_left(rest, gen, left)
                        flips = k - left
                        odd_passed = odd[k + 2] - odd[j + 1]
                    if parity[gen]:
                        flips -= odd_passed  # odd past odd commutes
                    elif (k and rest[k - 1] == gen) or (k < m - 2 and rest[k] == gen):
                        continue
                    _zadd_term(terms, rest[:k] + (gen,) + rest[k:], tuple(-x for x in nums) if (sgn + flips) % 2 else nums)
        return terms

    def boundary(self, element: ChainElement) -> ChainElement:
        out = ChainElement.zero()
        for word, coeff in element.terms.items():
            out = out + self.boundary_word(word).scale(coeff)
        return out

    # -- wedge of chains and the boundary Leibniz decomposition ---------------

    def wedge_words(self, u: SuperWord, v: SuperWord) -> ChainElement:
        norm = normalize(u + v, self.parity)
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
        parity = self.parity
        parities_u = [parity[g] for g in u]
        parities_v = [parity[g] for g in v]
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
                    norm = normalize(seq_prefix + (gen,) + seq_suffix, parity)
                    if norm is None:
                        continue
                    s2, canon = norm
                    out = out + ChainElement.of_word(canon, coeff if sgn * s2 > 0 else -coeff)
        return out
