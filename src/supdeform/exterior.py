"""Exterior algebras over a Lie algebra: forms, multivectors, and their calculus.

Elements carry Q[t] coefficients so deformed brackets stay inside the ring.
Terms are sparse maps from strictly increasing index tuples to coefficients;
zero coefficients are always pruned, and the term order is lexicographic.
"""

from __future__ import annotations

from itertools import combinations

from .liealg import LieAlgebraSpec, OneForm, VectorField
from .scalars import PolyT, Terms, _as_poly, add_term

FORM = "form"
MULTIVECTOR = "mv"


def _merge_tuples(a: tuple[int, ...], b: tuple[int, ...]):
    """Merge two increasing tuples; returns (sign, merged) or None on a repeat."""
    if not a:
        return 1, b
    if not b:
        return 1, a
    out = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining len(a)-i factors
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


def monomials(n: int) -> list[tuple[int, ...]]:
    """The 2^n increasing index tuples over 1..n, by (degree, index tuple):
    the order of the form and multivector basis items."""
    return [ids for deg in range(n + 1) for ids in combinations(range(1, n + 1), deg)]


def monomial_key(ids, n: int) -> tuple[int, ...]:
    """ids as a strictly increasing tuple of 1-based indices up to n."""
    ids = tuple(ids)
    if any(not 1 <= i <= n for i in ids) or any(ids[k] >= ids[k + 1] for k in range(len(ids) - 1)):
        raise ValueError(f"bad monomial index tuple {ids} for n={n}")
    return ids


class GradedElement(Terms):
    """A linear combination of exterior monomials, either forms or multivectors.

    ``terms`` maps strictly increasing 1-based index tuples to nonzero PolyT
    coefficients.  The empty tuple is the scalar monomial (the constant
    0-form "1", or a 0-vector).
    """

    __slots__ = ("kind", "n")

    def __init__(self, kind: str, n: int, terms=None):
        if kind not in (FORM, MULTIVECTOR):
            raise ValueError(f"unknown kind {kind!r}")
        self.kind = kind
        self.n = n
        clean: dict[tuple[int, ...], PolyT] = {}
        for ids, coeff in (terms or {}).items():
            coeff = _as_poly(coeff)
            if coeff is None:
                raise TypeError("coefficients must be PolyT or rational")
            if coeff:
                clean[monomial_key(ids, n)] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, kind: str, n: int) -> "GradedElement":
        return cls(kind, n)

    @classmethod
    def monomial(cls, kind: str, n: int, ids, coeff=1) -> "GradedElement":
        return cls(kind, n, {tuple(ids): coeff})

    @classmethod
    def unit_form(cls, n: int) -> "GradedElement":
        """The constant 0-form 1."""
        return cls(FORM, n, {(): 1})

    @classmethod
    def from_one_form(cls, phi: OneForm) -> "GradedElement":
        n = len(phi)
        return cls(FORM, n, {(i,): phi.coeffs[i - 1] for i in range(1, n + 1)})

    @classmethod
    def from_vector(cls, x: VectorField) -> "GradedElement":
        n = len(x)
        return cls(MULTIVECTOR, n, {(i,): x.coeffs[i - 1] for i in range(1, n + 1)})

    # -- structure ---------------------------------------------------------

    def is_homogeneous(self) -> bool:
        degs = {len(ids) for ids in self.terms}
        return len(degs) <= 1

    def degree(self) -> int:
        """Degree of a homogeneous element; the zero element has degree 0."""
        degs = {len(ids) for ids in self.terms}
        if not degs:
            return 0
        if len(degs) > 1:
            raise ValueError(f"element is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def superdegree(self) -> int:
        """-a-1 for an a-form, p-1 for a p-multivector."""
        a = self.degree()
        return -a - 1 if self.kind == FORM else a - 1

    def homogeneous_part(self, deg: int) -> "GradedElement":
        return GradedElement(
            self.kind, self.n, {ids: c for ids, c in self.terms.items() if len(ids) == deg}
        )

    # -- products ----------------------------------------------------------

    def wedge(self, other: "GradedElement") -> "GradedElement":
        self._require_like(other)
        terms: dict[tuple[int, ...], PolyT] = {}
        for ids_a, ca in self.terms.items():
            for ids_b, cb in other.terms.items():
                merged = _merge_tuples(ids_a, ids_b)
                if merged is not None:
                    sign, ids = merged
                    add_term(terms, ids, ca * cb if sign > 0 else -(ca * cb))
        return self.like(terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        sym = "z" if self.kind == FORM else "y"
        parts = []
        for ids in sorted(self.terms, key=lambda s: (len(s), s)):
            c = self.terms[ids]
            mono = "^".join(f"{sym}{i}" for i in ids) if ids else "1"
            cs = str(c)
            if cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            elif "+" in cs or (("-" in cs[1:]) if cs else False):
                parts.append(f"({cs})*{mono}")
            else:
                parts.append(f"{cs}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"<{self.kind} {self}>"


def wedge(u: GradedElement, v: GradedElement) -> GradedElement:
    return u.wedge(v)


def monomial_label(kind: str, ids: tuple[int, ...]) -> str:
    sym = "z" if kind == FORM else "y"
    return "^".join(f"{sym}{i}" for i in ids) if ids else "1"


def _interior(covector, element: GradedElement) -> GradedElement:
    """Derivation-style contraction: sum_s (-1)^(s-1) c_{i_s} * (omit s)."""
    terms: dict[tuple[int, ...], PolyT] = {}
    for ids, coeff in element.terms.items():
        for s, idx in enumerate(ids):
            pairing = covector[idx - 1]
            if pairing == 0:
                continue
            rest = ids[:s] + ids[s + 1 :]
            add = coeff * pairing
            add_term(terms, rest, -add if s % 2 else add)
    return element.like(terms)


def contract(P: GradedElement, phi: OneForm) -> GradedElement:
    """Interior product iota_phi P of a 1-form against a multivector."""
    if P.kind != MULTIVECTOR:
        raise ValueError("contract expects a multivector")
    return _interior(phi.coeffs, P)


def interior_vector(X: VectorField, alpha: GradedElement) -> GradedElement:
    """Interior product iota_X alpha of a vector against a form."""
    if alpha.kind != FORM:
        raise ValueError("interior_vector expects a form")
    return _interior(X.coeffs, alpha)


def ce_differential(spec: LieAlgebraSpec, k: int) -> GradedElement:
    """d zeta_k = -sum_{i<j} c^k_ij zeta_i ^ zeta_j."""
    if not 1 <= k <= spec.n:
        raise IndexError(f"basis index {k} out of range 1..{spec.n}")
    return GradedElement(FORM, spec.n, spec.differential[k])


def d(spec: LieAlgebraSpec, alpha: GradedElement) -> GradedElement:
    """Chevalley-Eilenberg differential, extended to all forms as a derivation:
    d(zeta_i1 ^ ... ^ zeta_ia) = sum_s (-1)^(s-1) d(zeta_is) ^ (omit s)."""
    if alpha.kind != FORM:
        raise ValueError("d expects a form")
    terms: dict[tuple[int, ...], PolyT] = {}
    for ids, coeff in alpha.terms.items():
        for s, idx in enumerate(ids):
            rest = ids[:s] + ids[s + 1 :]
            for pair, c in spec.differential[idx].items():
                merged = _merge_tuples(pair, rest)
                if merged is not None:
                    sign, out = merged
                    add = coeff * c
                    add_term(terms, out, add if sign * (-1) ** s > 0 else -add)
    return alpha.like(terms)


def is_closed(spec: LieAlgebraSpec, phi: OneForm) -> bool:
    """True iff d phi = 0; on a Lie algebra this is the 1-cocycle condition."""
    return d(spec, GradedElement.from_one_form(phi)).is_zero()


def lie_derivative(spec: LieAlgebraSpec, X: VectorField, alpha: GradedElement) -> GradedElement:
    """Cartan formula L_X = iota_X d + d iota_X on forms."""
    return interior_vector(X, d(spec, alpha)) + d(spec, interior_vector(X, alpha))


def schouten(spec: LieAlgebraSpec, P: GradedElement, Q: GradedElement) -> GradedElement:
    """Schouten-Nijenhuis bracket of multivectors.

    On decomposables X_1^...^X_p, Y_1^...^Y_q this is
    sum_{s,r} (-1)^(s+r) [X_s, Y_r] ^ (omit s) ^ (omit r),
    the biderivation extension that agrees with the Lie bracket in degree 1.
    """
    if P.kind != MULTIVECTOR or Q.kind != MULTIVECTOR:
        raise ValueError("schouten expects multivectors")
    terms: dict[tuple[int, ...], PolyT] = {}
    for ids_p, cp in P.terms.items():
        for ids_q, cq in Q.terms.items():
            base = cp * cq
            for s in range(len(ids_p)):
                rest_p = ids_p[:s] + ids_p[s + 1 :]
                for r in range(len(ids_q)):
                    lie = spec.bracket_basis(ids_p[s], ids_q[r])
                    if not lie:
                        continue
                    rest_q = ids_q[:r] + ids_q[r + 1 :]
                    merged_rest = _merge_tuples(rest_p, rest_q)
                    if merged_rest is None:
                        continue
                    sign_rest, rest = merged_rest
                    sign0 = -1 if (s + r) % 2 else 1  # (-1)^(s+r) with 1-based s,r
                    for k, ck in lie.items():
                        merged = _merge_tuples((k,), rest)
                        if merged is None:
                            continue
                        sign_k, ids = merged
                        coeff = base * ck
                        add_term(terms, ids, coeff if sign0 * sign_rest * sign_k > 0 else -coeff)
    return GradedElement(MULTIVECTOR, spec.n, terms)
