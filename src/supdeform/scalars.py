"""Exact scalar arithmetic: rationals, polynomials in t, gcds and factoring.

Everything downstream (brackets, boundary matrices, Betti numbers) depends on
exact vanishing of polynomial coefficients such as 2+3t, so there is no
floating point anywhere in this package.  Rationals are stdlib ``Fraction``;
polynomials are dense coefficient tuples (degrees stay tiny in practice).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable

Rational = Fraction


def rat(value) -> Fraction:
    """Coerce an int, string like ``"-3/2"``, or Fraction to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class PolyT:
    """Dense univariate polynomial in the deformation parameter t over Q.

    Immutable.  ``coeffs[k]`` is the coefficient of t**k; the tuple never has
    trailing zeros, and the zero polynomial is the empty tuple (degree -1).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("PolyT is immutable")

    @classmethod
    def const(cls, value) -> "PolyT":
        return cls((rat(value),))

    @classmethod
    def _wrap(cls, coeffs: tuple) -> "PolyT":
        """A polynomial from a tuple of Fractions whose last entry is nonzero,
        taken as is (no coercion, no strip)."""
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", coeffs)
        return p

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    @classmethod
    def _trim(cls, coeffs: list) -> "PolyT":
        """A polynomial from a list of Fractions, dropping trailing zeros
        (which cancellation can leave) but coercing nothing."""
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return cls._wrap(tuple(coeffs))

    def __add__(self, other) -> "PolyT":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return PolyT._trim(out)

    __radd__ = __add__

    def __neg__(self) -> "PolyT":
        return PolyT._wrap(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "PolyT":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = list(a) + [Fraction(0)] * (len(b) - len(a))
        for k, c in enumerate(b):
            out[k] -= c
        return PolyT._trim(out)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "PolyT":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        if len(b) == 1 and b[0] == 1:
            return self
        if len(a) == 1 and a[0] == 1:
            return other
        # the product of nonzero rationals is nonzero, so neither product
        # below ends in a zero coefficient
        if len(b) == 1 or len(a) == 1:
            scale, poly_ = (b[0], self) if len(b) == 1 else (a[0], other)
            return PolyT._wrap(tuple(scale * c for c in poly_.coeffs))
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ci in enumerate(a):
            if ci:
                for j, cj in enumerate(b):
                    out[i + j] += ci * cj
        return PolyT._wrap(tuple(out))

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if len(other.coeffs) == 1:  # a unit: exact, remainder 0
            c = other.coeffs[0]
            if c == 1:
                return self, ZERO
            inv = 1 / c
            return PolyT._wrap(tuple(x * inv for x in self.coeffs)), ZERO
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return ZERO, self
        quo = [Fraction(0)] * (dq + 1)
        inv_lead = 1 / other.leading
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] * inv_lead
            if c:
                quo[k] = c
                for j, oj in enumerate(other.coeffs):
                    rem[k + j] -= c * oj
        # quo[dq] is self's leading coefficient over other's, so nonzero
        return PolyT._wrap(tuple(quo)), PolyT._trim(rem)

    def __mod__(self, other) -> "PolyT":
        return divmod(self, other)[1]

    def exact_div(self, other) -> "PolyT":
        """Quotient, raising if the division leaves a remainder."""
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ArithmeticError(f"{self} is not divisible by {other}")
        return q

    def __call__(self, t0) -> Fraction:
        t0 = rat(t0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t0 + c
        return acc

    def monic(self) -> "PolyT":
        if self.is_zero():
            return self
        lead = self.leading
        if lead == 1:
            return self
        return PolyT(tuple(c / lead for c in self.coeffs))

    def derivative(self) -> "PolyT":
        return PolyT(tuple(k * c for k, c in enumerate(self.coeffs) if k))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(format_rational(c))
            else:
                var = "t" if k == 1 else f"t^{k}"
                if c == 1:
                    parts.append(var)
                elif c == -1:
                    parts.append(f"-{var}")
                else:
                    parts.append(f"{format_rational(c)}*{var}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"PolyT({self})"


ZERO = PolyT()
ONE = PolyT((1,))
T = PolyT((0, 1))


def _as_poly(x):
    if isinstance(x, PolyT):
        return x
    if isinstance(x, (int, Fraction)):
        return PolyT((rat(x),))
    return None


def poly(*coeffs) -> PolyT:
    """Convenience constructor, coefficients ascending in t."""
    return PolyT(coeffs)


def add_term(terms: dict, key, coeff) -> None:
    """Add coeff to terms[key], dropping the key when the sum is zero."""
    total = terms.get(key)
    total = coeff if total is None else total + coeff
    if total:
        terms[key] = total
    else:
        terms.pop(key, None)


class Terms:
    """A Q[t]-linear combination: ``terms`` maps keys to nonzero PolyT
    coefficients.

    This is the arithmetic of every sparse element of the package (forms and
    multivectors, super elements, chains).  A subclass's own ``__slots__``
    make up its ``header``, what two elements must share to be combined; its
    constructor checks keys and coefficients.  Immutable in practice:
    operations return fresh elements.
    """

    __slots__ = ("terms",)

    @property
    def header(self) -> tuple:
        return tuple(getattr(self, slot) for slot in type(self).__slots__)

    def like(self, terms) -> "Terms":
        """An element of this kind and header that holds ``terms`` unchecked:
        its keys must be valid keys of this kind and its coefficients nonzero
        PolyT, as arithmetic on checked elements leaves them."""
        out = object.__new__(type(self))
        for slot in type(self).__slots__:
            setattr(out, slot, getattr(self, slot))
        out.terms = terms
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def _require_like(self, other: "Terms"):
        if type(other) is not type(self) or other.header != self.header:
            raise ValueError(f"cannot combine {type(self).__name__} {self.header} with {other!r}")

    def __add__(self, other: "Terms") -> "Terms":
        self._require_like(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            add_term(terms, key, c)
        return self.like(terms)

    def __neg__(self) -> "Terms":
        return self.like({key: -c for key, c in self.terms.items()})

    def __sub__(self, other: "Terms") -> "Terms":
        return self + (-other)

    def scale(self, factor) -> "Terms":
        factor = _as_poly(factor)
        if factor is None:
            raise TypeError("scale factor must be PolyT or rational")
        if factor.is_zero():
            return self.like({})
        return self.like({key: factor * c for key, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.header == other.header and self.terms == other.terms

    def __hash__(self):
        return hash((self.header, frozenset(self.terms.items())))


def poly_gcd(p: PolyT, q: PolyT) -> PolyT:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    a, b = p, q
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_xgcd(p: PolyT, q: PolyT):
    """Extended Euclid: returns (g, u, v) with u*p + v*q = g, g monic."""
    a, b = p, q
    ua, va = ONE, ZERO
    ub, vb = ZERO, ONE
    while not b.is_zero():
        quo, rem = divmod(a, b)
        a, b = b, rem
        ua, ub = ub, ua - quo * ub
        va, vb = vb, va - quo * vb
    if a.is_zero():
        return a, ua, va
    scale = PolyT.const(1 / a.leading)
    return a.monic(), scale * ua, scale * va


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def rational_roots(p: PolyT) -> set[Fraction]:
    """All rational roots of p, via the rational root theorem.

    Raises on the zero polynomial (every t would be a root).
    """
    if p.is_zero():
        raise ValueError("rational_roots of the zero polynomial")
    roots: set[Fraction] = set()
    coeffs = list(p.coeffs)
    # strip t^k so the constant term is nonzero
    k = 0
    while coeffs[k] == 0:
        k += 1
    if k > 0:
        roots.add(Fraction(0))
        coeffs = coeffs[k:]
    if len(coeffs) == 1:
        return roots
    # primitive integer form
    denom_lcm = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denom_lcm) for c in coeffs]
    for num in _divisors(ints[0]):
        for den in _divisors(ints[-1]):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if cand not in roots and p(cand) == 0:
                    roots.add(cand)
    return roots


def squarefree_part(p: PolyT) -> PolyT:
    """Monic squarefree part p / gcd(p, p')."""
    if p.is_zero():
        return p
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p.monic()
    return p.exact_div(g * PolyT.const(1 / p.leading)).monic()


def irreducible_factors(p: PolyT) -> list[PolyT]:
    """Distinct monic irreducible factors of a nonzero p, ignoring multiplicity.

    Rational roots give the linear factors.  A root-free residual of degree
    <= 3 is irreducible over Q.  Residuals of degree >= 4 are returned
    squarefree and coprime to the rest but may in principle still split;
    callers that need a field refine them lazily (see homology.rank_modulo).
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    work = squarefree_part(p)
    factors = []
    for root in sorted(rational_roots(work)):
        lin = PolyT((-root, 1))
        factors.append(lin)
        while True:
            q, r = divmod(work, lin)
            if r.is_zero():
                work = q
            else:
                break
    if work.degree >= 1:
        factors.append(work.monic())
    factors.sort(key=lambda f: (f.degree, f.coeffs))
    return factors
