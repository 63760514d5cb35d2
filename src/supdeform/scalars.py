"""Exact scalar arithmetic: rationals, polynomials in t, gcds and factoring.

Everything downstream (brackets, boundary matrices, Betti numbers) depends on
exact vanishing of polynomial coefficients such as 2+3t, so there is no
floating point anywhere in this package.  Rationals are stdlib ``Fraction``;
polynomials are dense coefficient tuples (degrees stay tiny in practice).
Factoring over Q is complete (Berlekamp-Hensel-Zassenhaus over Z), so the
conditions of a special locus are irreducible; it shares the arithmetic of
integer coefficient tuples with the boundary matrices over Z[t] (assembly,
the d.d check, unit cancellation and the Bareiss elimination).
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations, count
from math import gcd, isqrt, lcm
from typing import Iterable

from . import qlinalg

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
        return _poly_text((c.numerator, c.denominator) for c in self.coeffs)

    def __repr__(self) -> str:
        return f"PolyT({self})"


ZERO = PolyT()
ONE = PolyT((1,))
T = PolyT((0, 1))


def _poly_text(coeffs) -> str:
    """The text of a polynomial from its coefficients, ascending in t, each
    a (numerator, positive denominator) pair in lowest terms."""
    parts = []
    for k, (n, d) in enumerate(coeffs):
        if not n:
            continue
        text = str(n) if d == 1 else f"{n}/{d}"
        if k == 0:
            parts.append(text)
        else:
            var = "t" if k == 1 else f"t^{k}"
            if d != 1 or n not in (1, -1):
                parts.append(f"{text}*{var}")
            else:
                parts.append(var if n == 1 else f"-{var}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def format_over(numerators: tuple, den: int) -> str:
    """``str`` of the polynomial with coefficients n / den (den > 0) for n in
    the integer tuple numerators, without building its Fractions."""
    pairs = []
    for n in numerators:
        g = gcd(n, den)  # den when n is 0
        pairs.append((n // g, den // g))
    return _poly_text(pairs)


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


def bilinear(u: dict, v: dict, pair) -> dict:
    """The terms of sum_{x, y} u[x] v[y] pair(x, y), for two sparse maps u
    and v from atoms to coefficients, where pair(x, y) gives the terms of the
    product of two atoms.  A pair with no terms costs no coefficient
    product."""
    out: dict = {}
    for x, cx in u.items():
        for y, cy in v.items():
            terms = pair(x, y)
            if terms:
                c = cx * cy
                for z, cz in terms.items():
                    add_term(out, z, c * cz)
    return out


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


def squarefree_part(p: PolyT) -> PolyT:
    """Monic squarefree part p / gcd(p, p')."""
    if p.is_zero():
        return p
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p.monic()
    return p.exact_div(g * PolyT.const(1 / p.leading)).monic()


def irreducible_factors(p: PolyT) -> list[PolyT]:
    """Distinct monic irreducible factors over Q of a nonzero p, sorted by
    degree and then coefficients.

    Berlekamp-Hensel-Zassenhaus (von zur Gathen & Gerhard, *Modern Computer
    Algebra*, ch. 14-15) on the squarefree part, as a primitive integer
    polynomial f: factor f modulo the least prime that keeps it squarefree,
    lift those factors past the Mignotte bound, and recombine them.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    work = squarefree_part(p)
    n = work.degree
    if n < 2:
        return [work] if n == 1 else []
    # work is monic, so f is primitive: for each prime q | denom, the
    # coefficient whose denominator holds all of denom's q-part turns prime to q
    denom = lcm(*(c.denominator for c in work.coeffs))
    f = tuple(c.numerator * (denom // c.denominator) for c in work.coeffs)
    derivative = tuple(k * c for k, c in enumerate(f))[1:]
    for prime in count(2):
        if denom % prime and all(prime % d for d in range(2, isqrt(prime) + 1)):
            if len(_pgcd(_ptrim(f, prime), _ptrim(derivative, prime), prime)) == 1:
                break
    inv = pow(denom, -1, prime)
    modular = _berlekamp(_ptrim([c * inv for c in f], prime), prime)
    if len(modular) == 1:
        return [work]
    # a factor g of f has |coefficients| <= 2^deg(g) ||f||_2 (Mignotte), so
    # those of denom * g / lc(g), which recombination builds, are <= bound
    bound = denom * 2**n * (isqrt(n + 1) + 1) * max(map(abs, f))
    lifted, m = _hensel_lift(f, modular, prime, bound)
    factors = [PolyT._wrap(tuple(Fraction(c, g[-1]) for c in g)) for g in _recombine(f, lifted, m)]
    return sorted(factors, key=lambda g: (g.degree, g.coeffs))


def rational_roots(p: PolyT) -> set[Fraction]:
    """The rational roots of a nonzero p: those of its linear factors."""
    return {-f.coeffs[0] for f in irreducible_factors(p) if f.degree == 1}


# Integer coefficient tuples, ascending in t: Z[t] for the boundary matrices,
# the Bareiss elimination and the factorization, and F_p[t] (coefficients in
# [0, p), no trailing zeros).
def _zmul(a: tuple, b: tuple) -> tuple:
    """Product of two nonzero integer coefficient tuples."""
    if len(b) == 1:
        b0 = b[0]
        return a if b0 == 1 else tuple(b0 * x for x in a)
    if len(a) == 1:
        a0 = a[0]
        return b if a0 == 1 else tuple(a0 * y for y in b)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)  # Z is a domain: the leading coefficient is nonzero


def _zadd_term(terms: dict, key, nums: tuple) -> None:
    """Add the nonzero integer coefficient tuple nums to terms[key], dropping
    the key when the sum is zero: ``add_term`` over Z[t]."""
    a = terms.get(key)
    if a is None:
        terms[key] = nums
        return
    if len(a) < len(nums):
        a, nums = nums, a
    out = list(a)
    for k, y in enumerate(nums):
        out[k] += y
    while out and not out[-1]:
        out.pop()
    if out:
        terms[key] = tuple(out)
    else:
        del terms[key]


def _zsub(a: tuple, b: tuple) -> tuple:
    """a - b for integer coefficient tuples, without trailing zeros."""
    out = list(a)
    out.extend([0] * (len(b) - len(a)))
    for k, y in enumerate(b):
        out[k] -= y
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _zexact_div(a: tuple, b: tuple) -> tuple:
    """a / b in Z[t] for nonzero b, raising ArithmeticError on a remainder."""
    if len(b) == 1:
        d = b[0]
        if d == 1:
            return a
        out = []
        for x in a:
            q, rem = divmod(x, d)
            if rem:
                raise ArithmeticError(f"{a} is not divisible by {b} in Z[t]")
            out.append(q)
        return tuple(out)
    rem = list(a)
    db = len(b) - 1
    lead = b[-1]
    quo = [0] * max(len(rem) - db, 0)
    for k in range(len(quo) - 1, -1, -1):
        # a floor quotient leaves rem[k + db] nonzero unless lead divides it,
        # and no later step touches that coefficient again
        q = rem[k + db] // lead
        if q:
            quo[k] = q
            for j, y in enumerate(b):
                rem[k + j] -= q * y
    if any(rem):
        raise ArithmeticError(f"{a} is not divisible by {b} in Z[t]")
    return tuple(quo)


def _ptrim(a, p: int) -> tuple:
    """The coefficients of a reduced modulo p, without trailing zeros."""
    out = [x % p for x in a]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _pmod(a: tuple, m: tuple, p: int) -> tuple:
    """a (any integer coefficients) modulo the nonzero m in F_p[t]."""
    rem, dm, inv = list(a), len(m) - 1, pow(m[-1], -1, p)
    for k in range(len(rem) - 1 - dm, -1, -1):
        q = rem[k + dm] * inv % p
        if q:
            for j, y in enumerate(m):
                rem[k + j] -= q * y
    return _ptrim(rem, p)


def _pgcd(a: tuple, b: tuple, p: int) -> tuple:
    """Monic gcd in F_p[t] of a nonzero a and any b."""
    while b:
        a, b = b, _pmod(a, b, p)
    inv = pow(a[-1], -1, p)
    return tuple(x * inv % p for x in a)


def _ppowmod(a: tuple, e: int, m: tuple, p: int) -> tuple:
    """a^e modulo m in F_p[t], for a nonzero a and a squarefree m."""
    out = (1,)
    while e:
        if e & 1:
            out = _pmod(_zmul(out, a), m, p)
        a = _pmod(_zmul(a, a), m, p)
        e >>= 1
    return out


def _berlekamp(f: tuple, p: int) -> list[tuple]:
    """Monic irreducible factors modulo the prime p of a monic squarefree f.

    The g with g^p = g mod f are the left kernel of the rows t^(ip) - t^i
    mod f; ``qlinalg.echelon`` of those rows, each followed by the identity
    row e_i, leaves a basis of it in the rows whose first part it clears.
    Its dimension is the number of factors, and gcd(f, g - s) splits f."""
    n = len(f) - 1
    rows = []
    for i in range(n):
        power = _ppowmod((0, 1), i * p, f, p)
        row = list(power) + [0] * (2 * n - len(power))
        row[i] -= 1
        row[n + i] = 1
        rows.append([x % p for x in row])
    reduced, pivots = qlinalg.echelon(rows, lambda x: pow(x, -1, p), lambda x: x % p)
    kernel = [_ptrim(row[n:], p) for row, c in zip(reduced, pivots) if c >= n]
    factors = [f]
    for g in kernel:
        if len(factors) == len(kernel):
            break
        # pairwise coprime pieces, since g^p - g = prod_s (g - s)
        factors = [h for a in factors for s in range(p) if len(h := _pgcd(a, _ptrim((g[0] - s,) + g[1:], p), p)) > 1]
    return factors


def _hensel_lift(f: tuple, factors: list[tuple], p: int, bound: int) -> tuple[list[tuple], int]:
    """(The factors g_i of f modulo p, lifted to factors modulo q, q): one
    p-adic digit per step until q > 2 * bound.  With a_i the inverse of
    prod_{j != i} g_j modulo g_i, adding q (a_i e / lc(f) mod g_i) to each
    g_i, where f - lc(f) prod g_i = q e, makes the product exact modulo q p."""
    inverses = []
    for i, g in enumerate(factors):
        rest = _pmod(reduce(_zmul, factors[:i] + factors[i + 1 :], (1,)), g, p)
        inverses.append(_ppowmod(rest, p ** (len(g) - 1) - 2, g, p))
    inv_lead = pow(f[-1], -1, p)
    lifted, q = list(factors), p
    while q <= 2 * bound:
        product = reduce(_zmul, lifted, (f[-1],))
        e = _ptrim([(x - y) // q * inv_lead for x, y in zip(f, product)], p)
        if e:
            steps = [_pmod(_zmul(e, a), g, p) + (0,) * len(g) for g, a in zip(factors, inverses)]
            lifted = [tuple(x + q * y for x, y in zip(g, step)) for g, step in zip(lifted, steps)]
        q *= p
    return lifted, q


def _recombine(f: tuple, lifted: list[tuple], m: int) -> list[tuple]:
    """The irreducible factors of f over Z, from its monic factors modulo m:
    the primitive part of lc(f) times each subset's product, in symmetric
    residues, smallest subsets first, is kept where it divides f exactly."""
    found, size = [], 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            candidate = reduce(_zmul, [lifted[i] for i in subset], (f[-1],))
            candidate = [x % m - m if x % m > m // 2 else x % m for x in candidate]
            content = gcd(*candidate)
            candidate = tuple(x // content for x in candidate)
            try:
                f = _zexact_div(f, candidate)
            except ArithmeticError:
                continue
            found.append(candidate)
            lifted = [g for i, g in enumerate(lifted) if i not in subset]
            break
        else:
            size += 1
    return found + [f]
