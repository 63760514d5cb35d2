"""The deformed super brackets and the admissible extension subalgebras.

Three brackets on forms are supported:

* trivial deformation      [a, b] = F(a,b) * alpha ^ (t phi) ^ beta
* standard deformation     [a, b] = (-1)^a d(alpha^beta) + F(a,b) * alpha ^ (t phi) ^ beta
  with F(a,b) = (a+b+2)/2
* naive d_t bracket        same shape with F constant 1

plus the contraction-corrected Schouten bracket on multivectors and the
extension of the form brackets by vectors acting through the Lie derivative.
"""

from __future__ import annotations

import enum
import itertools
import warnings
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from . import qlinalg
from .exterior import (
    FORM,
    MULTIVECTOR,
    GradedElement,
    _merge_tuples,
    d,
    is_closed,
    monomial_key,
)
from .liealg import LieAlgebraSpec, OneForm, VectorField
from .scalars import PolyT, T, Terms, _as_poly, add_term, bilinear, rat


class DeformationKind(enum.Enum):
    TRIVIAL = "trivial"
    STANDARD = "standard"
    NAIVE_DT = "naive_dt"


class FSpec:
    """The deformation function F(a, b).

    Variants: an explicit symmetric-or-not table on the grid
    {(a, b) : a + b <= bound}, the one-parameter family kappa*(a+b+2), or a
    constant.  The standard bracket is the kappa = 1/2 member.
    """

    def __init__(self, variant: str, *, table=None, kappa=None, constant=None):
        if variant not in ("table", "kappa", "constant"):
            raise ValueError(f"unknown F variant {variant!r}")
        self.variant = variant
        if variant == "table":
            if table is None:
                raise ValueError("table variant needs a table")
            self.table = {(a, b): rat(v) for (a, b), v in table.items()}
        elif variant == "kappa":
            self.kappa = rat(kappa)
        else:
            self.constant = rat(constant)

    @classmethod
    def from_table(cls, table) -> "FSpec":
        return cls("table", table=table)

    @classmethod
    def kappa_family(cls, kappa) -> "FSpec":
        return cls("kappa", kappa=kappa)

    @classmethod
    def const(cls, c) -> "FSpec":
        return cls("constant", constant=c)

    def value(self, a: int, b: int) -> Fraction:
        if self.variant == "kappa":
            return self.kappa * (a + b + 2)
        if self.variant == "constant":
            return self.constant
        try:
            return self.table[(a, b)]
        except KeyError:
            raise KeyError(f"F table has no entry for degrees ({a},{b})") from None

    def is_symmetric(self, bound: int) -> bool:
        """Symmetry on the pairs with a + b <= bound that the table defines."""
        if self.variant != "table":
            return True
        for (a, b), v in self.table.items():
            if a + b <= bound and self.table.get((b, a)) != v:
                return False
        return True

    def describe(self) -> str:
        if self.variant == "kappa":
            return f"{self.kappa}*(a+b+2)"
        if self.variant == "constant":
            return f"constant {self.constant}"
        return f"table on {len(self.table)} pairs"


STANDARD_F = FSpec.kappa_family(Fraction(1, 2))
_ZERO = Fraction(0)


@dataclass(frozen=True)
class DeformationSpec:
    """A choice of bracket on forms: kind, deformation function, and phi."""

    algebra: LieAlgebraSpec
    kind: DeformationKind
    F: FSpec
    phi: OneForm
    phi_closed: bool
    tphi: GradedElement = field(init=False, repr=False, compare=False)  # t * phi as a 1-form

    def __post_init__(self):
        object.__setattr__(self, "tphi", GradedElement.from_one_form(self.phi).scale(T))

    @cached_property
    def d_monomials(self) -> dict[tuple[int, ...], dict]:
        """The terms of d(z_I) for each of the 2^n form monomials z_I,
        computed once per spec."""
        n = self.algebra.n
        return {
            ids: d(self.algebra, GradedElement.monomial(FORM, n, ids)).terms
            for deg in range(n + 1)
            for ids in itertools.combinations(range(1, n + 1), deg)
        }

    @cached_property
    def phi_wedges(self) -> dict[tuple[int, ...], tuple[tuple[tuple[int, ...], Fraction], ...]]:
        """z_U ^ phi for each of the 2^n form monomials z_U, computed once per
        spec: U -> the pairs (U + k, +-phi_k) over the k not in U with
        phi_k != 0, the sign that of z_U ^ z_k = +-z_{U+k}.  Empty when phi
        is zero."""
        n, coeffs = self.algebra.n, self.phi.coeffs
        if not any(coeffs):
            return {}
        out = {}
        for deg in range(n + 1):
            for U in itertools.combinations(range(1, n + 1), deg):
                wedges = []
                for k, phi_k in enumerate(coeffs, 1):
                    if phi_k and k not in U:
                        pos = bisect_left(U, k)
                        # z_k passes the len(U) - pos factors of z_U after it
                        wedges.append((U[:pos] + (k,) + U[pos:], -phi_k if (len(U) - pos) % 2 else phi_k))
                out[U] = tuple(wedges)
        return out

    @classmethod
    def standard(cls, algebra: LieAlgebraSpec, phi: OneForm, warn: bool = True) -> "DeformationSpec":
        closed = is_closed(algebra, phi)
        if not closed and warn:
            warnings.warn(
                "phi is not closed: the standard deformed bracket will violate "
                "super Jacobi (constructed anyway for counterexample studies)",
                stacklevel=2,
            )
        return cls(algebra, DeformationKind.STANDARD, STANDARD_F, phi, closed)

    @classmethod
    def trivial(
        cls, algebra: LieAlgebraSpec, phi: OneForm, F: FSpec, require_symmetric: bool = True
    ) -> "DeformationSpec":
        if require_symmetric and not F.is_symmetric(algebra.n - 1):
            raise ValueError("trivial deformation needs a symmetric F table")
        return cls(algebra, DeformationKind.TRIVIAL, F, phi, is_closed(algebra, phi))

    @classmethod
    def naive_dt(cls, algebra: LieAlgebraSpec, phi: OneForm) -> "DeformationSpec":
        return cls(algebra, DeformationKind.NAIVE_DT, FSpec.const(1), phi, is_closed(algebra, phi))

    @classmethod
    def undeformed(cls, algebra: LieAlgebraSpec) -> "DeformationSpec":
        return cls.standard(algebra, OneForm.zero(algebra.n))

    def describe(self) -> str:
        return f"{self.kind.value} deformation, F = {self.F.describe()}"


def _require_homogeneous(alpha: GradedElement, what: str) -> int:
    if not alpha.is_homogeneous():
        raise ValueError(f"{what} expects homogeneous forms")
    return alpha.degree()


def form_monomial_bracket(spec: DeformationSpec, I: tuple[int, ...], J: tuple[int, ...]) -> dict:
    """The terms of the configured deformed bracket [z_I, z_J] of two form
    monomials, of degrees a and b: zero unless I and J are disjoint.

    With z_I ^ z_J = s z_U it is (-1)^a s d(z_U), read from the spec's
    d-images (standard and naive d_t kinds only), plus
    F(a, b) t sum_k phi_k z_I ^ z_k ^ z_J, where
    z_I ^ z_k ^ z_J = (-1)^b s z_U ^ z_k, read from the spec's phi-wedges.
    """
    merged = _merge_tuples(I, J)
    if merged is None:
        return {}
    sign, U = merged
    a, b = len(I), len(J)
    out: dict = {}
    if spec.kind is not DeformationKind.TRIVIAL:
        negate = (sign < 0) != (a % 2 == 1)
        for ids, c in spec.d_monomials[U].items():
            out[ids] = -c if negate else c
    wedges = spec.phi_wedges
    # beyond a+b+1 > n the wedge vanishes and F need not be defined
    if wedges and a + b + 1 <= spec.algebra.n:
        coeff = spec.F.value(a, b)
        if coeff:
            if (sign < 0) != (b % 2 == 1):
                coeff = -coeff
            for ids, phi_k in wedges[U]:
                add_term(out, ids, PolyT._wrap((_ZERO, coeff * phi_k)))
    return out


def form_bracket(spec: DeformationSpec, alpha: GradedElement, beta: GradedElement) -> GradedElement:
    """The configured deformed bracket of two homogeneous forms, the bilinear
    sum of ``form_monomial_bracket``."""
    proto = GradedElement.zero(FORM, spec.algebra.n)
    for x in (alpha, beta):
        proto._require_like(x)
        _require_homogeneous(x, "form_bracket")
    return proto.like(bilinear(alpha.terms, beta.terms, lambda I, J: form_monomial_bracket(spec, I, J)))


def multivector_monomial_bracket(
    spec: LieAlgebraSpec, phi: OneForm, I: tuple[int, ...], J: tuple[int, ...]
) -> dict:
    """The terms of the phi-deformed Schouten bracket [y_I, y_J]^phi of two
    multivector monomials, of degrees p and q.  With s and r counted from 0,

        sum_{s,r} (-1)^(s+r) [y_{I_s}, y_{J_r}] ^ y_{I - I_s} ^ y_{J - J_r}
        + (-1)^p (q-1) sum_s (-1)^s phi_{I_s} y_{I - I_s} ^ y_J
        + (p-1) sum_r (-1)^r phi_{J_r} y_I ^ y_{J - J_r}.
    """
    p, q = len(I), len(J)
    acc: dict = {}

    def add(left, right, coeff):
        merged = _merge_tuples(left, right)
        if merged is not None:
            sign, ids = merged
            acc[ids] = acc.get(ids, 0) + (coeff if sign > 0 else -coeff)

    for s, i in enumerate(I):
        rest_i = I[:s] + I[s + 1 :]
        for r, j in enumerate(J):
            lie = spec.bracket_basis(i, j)
            if not lie:
                continue
            merged = _merge_tuples(rest_i, J[:r] + J[r + 1 :])
            if merged is None:
                continue
            sign, rest = merged
            if (s + r) % 2:
                sign = -sign
            for k, ck in lie.items():
                add((k,), rest, ck if sign > 0 else -ck)
    if not phi.is_zero():
        if q != 1:
            scale = q - 1 if p % 2 == 0 else 1 - q
            for s, i in enumerate(I):
                if phi.coeffs[i - 1]:
                    add(I[:s] + I[s + 1 :], J, scale * phi.coeffs[i - 1] * (-1) ** s)
        if p != 1:
            for r, j in enumerate(J):
                if phi.coeffs[j - 1]:
                    add(I, J[:r] + J[r + 1 :], (p - 1) * phi.coeffs[j - 1] * (-1) ** r)
    return {ids: PolyT.const(c) for ids, c in acc.items() if c}


def deformed_schouten(
    spec: LieAlgebraSpec, P: GradedElement, Q: GradedElement, phi: OneForm
) -> GradedElement:
    """Schouten bracket corrected by phi-contractions, the bilinear sum of
    ``multivector_monomial_bracket``:

    [P,Q]^phi = [P,Q] + (-1)^p (q-1) iota_phi(P) ^ Q + (p-1) P ^ iota_phi(Q)

    The super bracket axioms are guaranteed when phi is a 1-cocycle.
    """
    proto = GradedElement.zero(MULTIVECTOR, spec.n)
    for x in (P, Q):
        proto._require_like(x)
        _require_homogeneous(x, "deformed_schouten")
    return proto.like(bilinear(P.terms, Q.terms, lambda I, J: multivector_monomial_bracket(spec, phi, I, J)))


class SuperElement(Terms):
    """An element of h (+) g0: a Q[t]-combination of atoms.

    An atom is a strictly increasing index tuple (a form monomial) or a
    1-based int (the coordinate vector y_i).  Super degree is -a-1 on a-form
    atoms and 0 on vectors.
    """

    __slots__ = ("n",)

    def __init__(self, n: int, terms=None):
        self.n = n
        clean: dict = {}
        for atom, coeff in (terms or {}).items():
            coeff = _as_poly(coeff)
            if isinstance(atom, int):
                if coeff is None or not 1 <= atom <= n:
                    raise ValueError("bad vector component")
            elif coeff is None:
                raise TypeError("coefficients must be PolyT or rational")
            else:
                atom = monomial_key(atom, n)
            if coeff:
                clean[atom] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, n: int) -> "SuperElement":
        return cls(n)

    @classmethod
    def from_form(cls, form: GradedElement) -> "SuperElement":
        if form.kind != FORM:
            raise ValueError("form component mismatch")
        return cls(form.n, form.terms)

    @classmethod
    def from_vector(cls, x: VectorField) -> "SuperElement":
        return cls(len(x), {i + 1: c for i, c in enumerate(x.coeffs) if c})

    def __str__(self) -> str:
        parts = []
        for i in sorted(atom for atom in self.terms if isinstance(atom, int)):
            cs = str(self.terms[i])
            parts.append(f"y{i}" if cs == "1" else f"({cs})*y{i}")
        form = GradedElement(FORM, self.n, {ids: c for ids, c in self.terms.items() if isinstance(ids, tuple)})
        if not form.is_zero():
            parts.append(str(form))
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def _lie_derivative_monomial(spec: DeformationSpec, i: int, J: tuple[int, ...]) -> dict:
    """The terms of L_{y_i} z_J = iota_{y_i} d(z_J) + d(iota_{y_i} z_J), from
    the spec's d-images."""
    d_images = spec.d_monomials
    out: dict = {}
    for ids, c in d_images[J].items():
        if i in ids:
            s = ids.index(i)
            out[ids[:s] + ids[s + 1 :]] = -c if s % 2 else c
    if i in J:
        s = J.index(i)
        for ids, c in d_images[J[:s] + J[s + 1 :]].items():
            add_term(out, ids, -c if s % 2 else c)
    return out


def extension_atom_bracket(spec: DeformationSpec, x, y) -> dict:
    """The terms of [x, y] for two atoms of h (+) g0: Lie on vectors,
    [X, beta] = L_X beta = -[beta, X] mixed, and the deformed bracket on form
    monomials, so F sees their true degrees."""
    if isinstance(x, int):
        if isinstance(y, int):
            return {k: PolyT.const(c) for k, c in spec.algebra.bracket_basis(x, y).items()}
        return _lie_derivative_monomial(spec, x, y)
    if isinstance(y, int):
        return {ids: -c for ids, c in _lie_derivative_monomial(spec, y, x).items()}
    return form_monomial_bracket(spec, x, y)


def extension_bracket(spec: DeformationSpec, u: SuperElement, v: SuperElement) -> SuperElement:
    """Bracket on h (+) g0, the bilinear sum of ``extension_atom_bracket``."""
    return SuperElement(spec.algebra.n, bilinear(u.terms, v.terms, lambda x, y: extension_atom_bracket(spec, x, y)))


@dataclass(frozen=True)
class SubalgebraBasis:
    """Exact basis of an admissible extension subalgebra of g0."""

    vectors: tuple[VectorField, ...]
    bracket_closed: bool

    @property
    def dim(self) -> int:
        return len(self.vectors)


def _closed_under_bracket(spec: LieAlgebraSpec, vectors) -> bool:
    if not vectors:
        return True
    span_rows = [list(v.coeffs) for v in vectors]
    for i, x in enumerate(vectors):
        for y in vectors[i + 1 :]:
            b = spec.bracket(x, y)
            if qlinalg.solve_in_span(span_rows, list(b.coeffs)) is None:
                return False
    return True


def _lie_derivative_rows(spec: LieAlgebraSpec, phi: OneForm) -> list[list[Fraction]]:
    """Rows of the linear map X |-> -phi([X, .]), one per basis vector y_k."""
    n = spec.n
    rows = []
    for k in range(1, n + 1):
        row = []
        for i in range(1, n + 1):
            val = Fraction(0)
            for m, c in spec.bracket_basis(i, k).items():
                val -= c * phi.coeffs[m - 1]
            row.append(val)
        rows.append(row)
    return rows


def _subalgebra(spec: LieAlgebraSpec, rows: list[list[Fraction]]) -> SubalgebraBasis:
    basis = [VectorField(vec) for vec in qlinalg.nullspace(rows, spec.n)]
    return SubalgebraBasis(tuple(basis), _closed_under_bracket(spec, basis))


def solve_g0_prime(spec: LieAlgebraSpec, phi: OneForm) -> SubalgebraBasis:
    """Basis of g0' = {X : L_X phi = 0}, with a bracket-closure check.

    For invariant data L_X phi = iota_X d(phi), so this is the kernel of
    the linear map X |-> -phi([X, .]).
    """
    return _subalgebra(spec, _lie_derivative_rows(spec, phi))


def solve_g0_doubleprime(spec: LieAlgebraSpec, phi: OneForm) -> SubalgebraBasis:
    """Basis of g0'' = g0' intersected with ker phi (a subalgebra for cocycle phi)."""
    return _subalgebra(spec, _lie_derivative_rows(spec, phi) + [list(phi.coeffs)])


def extension_vectors(spec: LieAlgebraSpec, phi: OneForm, extension: str) -> tuple[VectorField, ...]:
    """Basis of the extension subalgebra chosen by name: ``none``,
    ``g0prime`` or ``g0doubleprime``."""
    if extension == "none":
        return ()
    if extension == "g0prime":
        return solve_g0_prime(spec, phi).vectors
    if extension == "g0doubleprime":
        return solve_g0_doubleprime(spec, phi).vectors
    raise ValueError(f"unknown extension choice {extension!r}")
