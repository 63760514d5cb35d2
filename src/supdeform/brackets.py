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
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import qlinalg
from .exterior import (
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
from .liealg import LieAlgebraSpec, OneForm, VectorField
from .scalars import PolyT, T, ZERO, _as_poly, rat


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


@dataclass(frozen=True)
class DeformationSpec:
    """A choice of bracket on forms: kind, deformation function, and phi."""

    algebra: LieAlgebraSpec
    kind: DeformationKind
    F: FSpec
    phi: OneForm
    phi_closed: bool

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


def form_bracket(spec: DeformationSpec, alpha: GradedElement, beta: GradedElement) -> GradedElement:
    """The configured deformed bracket of two homogeneous forms."""
    a = _require_homogeneous(alpha, "form_bracket")
    b = _require_homogeneous(beta, "form_bracket")
    n = spec.algebra.n
    result = GradedElement.zero(FORM, n)
    if spec.kind in (DeformationKind.STANDARD, DeformationKind.NAIVE_DT):
        base = d(spec.algebra, alpha.wedge(beta))
        result = result + (base if a % 2 == 0 else -base)
    if a + b + 1 <= n and not spec.phi.is_zero():
        # beyond a+b+1 > n the wedge vanishes and F need not be defined
        coeff = spec.F.value(a, b)
        if coeff:
            tphi = GradedElement.from_one_form(spec.phi).scale(T)
            result = result + alpha.wedge(tphi).wedge(beta).scale(coeff)
    return result


def deformed_schouten(
    spec: LieAlgebraSpec, P: GradedElement, Q: GradedElement, phi: OneForm
) -> GradedElement:
    """Schouten bracket corrected by phi-contractions:

    [P,Q]^phi = [P,Q] + (-1)^p (q-1) iota_phi(P) ^ Q + (p-1) P ^ iota_phi(Q)

    The super bracket axioms are guaranteed when phi is a 1-cocycle.
    """
    p = _require_homogeneous(P, "deformed_schouten")
    q = _require_homogeneous(Q, "deformed_schouten")
    result = schouten(spec, P, Q)
    if not phi.is_zero():
        if q != 1:
            left = contract(P, phi).wedge(Q).scale(q - 1)
            result = result + (left if p % 2 == 0 else -left)
        if p != 1:
            result = result + P.wedge(contract(Q, phi)).scale(p - 1)
    return result


class SuperElement:
    """An element of h (+) g0: a form component plus a vector component.

    The vector component is a sparse map from 1-based basis indices to Q[t]
    coefficients.  Super degree is -a-1 on a-form terms and 0 on vectors.
    """

    __slots__ = ("n", "form", "vector")

    def __init__(self, n: int, form: Optional[GradedElement] = None, vector=None):
        self.n = n
        self.form = form if form is not None else GradedElement.zero(FORM, n)
        if self.form.kind != FORM or self.form.n != n:
            raise ValueError("form component mismatch")
        vec: dict[int, PolyT] = {}
        for i, c in (vector or {}).items():
            c = _as_poly(c)
            if c is None or not 1 <= i <= n:
                raise ValueError("bad vector component")
            if not c.is_zero():
                vec[i] = c
        self.vector = vec

    @classmethod
    def zero(cls, n: int) -> "SuperElement":
        return cls(n)

    @classmethod
    def from_form(cls, form: GradedElement) -> "SuperElement":
        return cls(form.n, form=form)

    @classmethod
    def from_vector(cls, x: VectorField) -> "SuperElement":
        return cls(len(x), vector={i + 1: PolyT.const(c) for i, c in enumerate(x.coeffs) if c})

    def is_zero(self) -> bool:
        return self.form.is_zero() and not self.vector

    def __add__(self, other: "SuperElement") -> "SuperElement":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        vec = dict(self.vector)
        for i, c in other.vector.items():
            s = vec.get(i, ZERO) + c
            if s.is_zero():
                vec.pop(i, None)
            else:
                vec[i] = s
        return SuperElement(self.n, self.form + other.form, vec)

    def __neg__(self) -> "SuperElement":
        return SuperElement(self.n, -self.form, {i: -c for i, c in self.vector.items()})

    def __sub__(self, other: "SuperElement") -> "SuperElement":
        return self + (-other)

    def scale(self, factor) -> "SuperElement":
        return SuperElement(
            self.n,
            self.form.scale(factor),
            {i: _as_poly(factor) * c for i, c in self.vector.items()},
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SuperElement):
            return NotImplemented
        return self.n == other.n and self.form == other.form and self.vector == other.vector

    def __hash__(self):
        return hash((self.n, self.form, tuple(sorted(self.vector.items()))))

    def __str__(self) -> str:
        parts = []
        if self.vector:
            for i in sorted(self.vector):
                c = self.vector[i]
                cs = str(c)
                parts.append(f"y{i}" if cs == "1" else f"({cs})*y{i}")
        if not self.form.is_zero():
            parts.append(str(self.form))
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def _lie_derivative_mixed(spec: DeformationSpec, vector: dict[int, PolyT], form: GradedElement) -> GradedElement:
    """L_X form for X with Q[t] coordinates, by linearity over the basis."""
    out = GradedElement.zero(FORM, spec.algebra.n)
    for i, coeff in vector.items():
        base = lie_derivative(spec.algebra, VectorField.basis(spec.algebra.n, i), form)
        out = out + base.scale(coeff)
    return out


def extension_bracket(spec: DeformationSpec, u: SuperElement, v: SuperElement) -> SuperElement:
    """Bracket on h (+) g0: deformed on forms, Lie on vectors,
    [X, beta] = L_X beta = -[beta, X] mixed."""
    n = spec.algebra.n
    out = SuperElement.zero(n)
    # vector-vector
    if u.vector and v.vector:
        vec: dict[int, PolyT] = {}
        for i, ci in u.vector.items():
            for j, cj in v.vector.items():
                for k, c in spec.algebra.bracket_basis(i, j).items():
                    s = vec.get(k, ZERO) + ci * cj * c
                    if s.is_zero():
                        vec.pop(k, None)
                    else:
                        vec[k] = s
        out = out + SuperElement(n, vector=vec)
    # mixed
    if u.vector and not v.form.is_zero():
        out = out + SuperElement.from_form(_lie_derivative_mixed(spec, u.vector, v.form))
    if v.vector and not u.form.is_zero():
        out = out - SuperElement.from_form(_lie_derivative_mixed(spec, v.vector, u.form))
    # form-form, per homogeneous component so F sees true degrees
    if not u.form.is_zero() and not v.form.is_zero():
        acc = GradedElement.zero(FORM, n)
        for a in {len(ids) for ids in u.form.terms}:
            for b in {len(ids) for ids in v.form.terms}:
                acc = acc + form_bracket(spec, u.form.homogeneous_part(a), v.form.homogeneous_part(b))
        out = out + SuperElement.from_form(acc)
    return out


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
