"""Lie algebra ground data: structure constants, duals, Jacobi validation.

The deformation theory is realized at the level of a finite-dimensional Lie
algebra with left-invariant forms, so a ``LieAlgebraSpec`` (dimension plus
structure constants over Q) is the ground data for everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .scalars import rat


@dataclass(frozen=True)
class OneForm:
    """A 1-form phi = sum phi_i zeta_i with rational coefficients."""

    coeffs: tuple[Fraction, ...]

    @classmethod
    def make(cls, coeffs) -> "OneForm":
        return cls(tuple(rat(c) for c in coeffs))

    @classmethod
    def zero(cls, n: int) -> "OneForm":
        return cls((Fraction(0),) * n)

    @classmethod
    def dual_basis(cls, n: int, k: int) -> "OneForm":
        """zeta_k (1-based)."""
        return cls(tuple(Fraction(1 if i == k else 0) for i in range(1, n + 1)))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class VectorField:
    """A vector X = sum x_i y_i with rational coefficients."""

    coeffs: tuple[Fraction, ...]

    @classmethod
    def make(cls, coeffs) -> "VectorField":
        return cls(tuple(rat(c) for c in coeffs))

    @classmethod
    def basis(cls, n: int, i: int) -> "VectorField":
        """y_i (1-based)."""
        return cls(tuple(Fraction(1 if j == i else 0) for j in range(1, n + 1)))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class JacobiViolation:
    """First failing triple of basis indices with its nonzero defect vector."""

    triple: tuple[int, int, int]
    defect: tuple[Fraction, ...]


class LieAlgebraSpec:
    """Dimension n and structure constants [y_i, y_j] = sum_k c^k_ij y_k.

    Only i < j is stored; the antisymmetric values are derived.  The Jacobi
    identity is *validated* by ``validate_jacobi``, not assumed.
    ``differential[k]`` is d zeta_k = -sum_{i<j} c^k_ij zeta_i ^ zeta_j as
    the sparse map (i, j) -> -c^k_ij.
    """

    def __init__(self, n: int, structure: dict, names=None):
        if n <= 0:
            raise ValueError("dimension must be positive")
        self.n = n
        table: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j, k), c in structure.items():
            if not (1 <= i <= n and 1 <= j <= n and 1 <= k <= n):
                raise ValueError(f"structure constant index out of range: ({i},{j},{k})")
            if i == j:
                raise ValueError(f"structure constant with repeated index ({i},{i})")
            c = rat(c)
            if i > j:
                i, j, c = j, i, -c
            row = table.setdefault((i, j), {})
            if k in row:
                raise ValueError(f"duplicate structure constant for ({i},{j})->{k}")
            if c != 0:
                row[k] = c
        self.structure = {ij: row for ij, row in table.items() if row}
        self.differential: dict[int, dict[tuple[int, int], Fraction]] = {k: {} for k in range(1, n + 1)}
        for ij, row in self.structure.items():
            for k, c in row.items():
                self.differential[k][ij] = -c
        self.names = tuple(names) if names else tuple(f"y{i}" for i in range(1, n + 1))
        if len(self.names) != n:
            raise ValueError("need exactly n basis names")

    def c(self, i: int, j: int, k: int) -> Fraction:
        """Structure constant c^k_ij, antisymmetric in (i, j)."""
        if i == j:
            return Fraction(0)
        if i < j:
            return self.structure.get((i, j), {}).get(k, Fraction(0))
        return -self.structure.get((j, i), {}).get(k, Fraction(0))

    def bracket_basis(self, i: int, j: int) -> dict[int, Fraction]:
        """[y_i, y_j] as a sparse coefficient map."""
        if i == j:
            return {}
        if i < j:
            return dict(self.structure.get((i, j), {}))
        return {k: -c for k, c in self.structure.get((j, i), {}).items()}

    def bracket_coeffs(self, x, y) -> tuple[Fraction, ...]:
        """[X, Y] for coordinate vectors x, y."""
        out = [Fraction(0)] * self.n
        for (i, j), row in self.structure.items():
            # indices are 1-based
            factor = x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]
            if factor:
                for k, c in row.items():
                    out[k - 1] += factor * c
        return tuple(out)

    def bracket(self, x: VectorField, y: VectorField) -> VectorField:
        return VectorField(self.bracket_coeffs(x.coeffs, y.coeffs))

    def __repr__(self) -> str:
        rels = ", ".join(
            f"[{self.names[i - 1]},{self.names[j - 1]}]="
            + "+".join(f"{c}*{self.names[k - 1]}" for k, c in row.items())
            for (i, j), row in sorted(self.structure.items())
        )
        return f"LieAlgebraSpec(n={self.n}, {rels or 'abelian'})"


def validate_jacobi(spec: LieAlgebraSpec) -> Optional[JacobiViolation]:
    """None if the Jacobi identity holds; else the first violating triple
    i < j < k.

    The defect is sum_cyclic [[y_i, y_j], y_k] in basis coordinates, summed
    from the sparse brackets of basis vectors: each nonzero c^m_ij y_m of an
    inner bracket adds c^m_ij [y_m, y_k].
    """
    n = spec.n
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                defect: dict[int, Fraction] = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, cm in spec.bracket_basis(a, b).items():
                        for p, cp in spec.bracket_basis(m, c).items():
                            defect[p] = defect.get(p, 0) + cm * cp
                if any(defect.values()):
                    return JacobiViolation((i, j, k), tuple(defect.get(p, Fraction(0)) for p in range(1, n + 1)))
    return None


def solvable2() -> LieAlgebraSpec:
    """The 2-dimensional non-abelian algebra, [y1, y2] = y1."""
    return LieAlgebraSpec(2, {(1, 2, 1): 1})


def heisenberg3() -> LieAlgebraSpec:
    """The 3-dimensional Heisenberg algebra, [y1, y2] = y3."""
    return LieAlgebraSpec(3, {(1, 2, 3): 1})


def abelian(n: int) -> LieAlgebraSpec:
    return LieAlgebraSpec(n, {})
