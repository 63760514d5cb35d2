"""Boundary matrices over Q[t], parametric ranks, and piecewise Betti numbers.

Each boundary matrix is first reduced by its unit pivots (``_cancel_units``):
while some entry is a nonzero constant, the one of least Markowitz cost
clears its column over Q[t], and its row and column go.  A nonzero constant
is invertible at every t and in every Q[t]/(p), so the rank of the matrix is
k (the number of unit pivots) plus the rank of the Schur complement S left
over, generically, at every point and modulo every condition; and each
maximal minor of S is a maximal minor of the matrix divided by the product
of the unit pivots, a nonzero constant.  This is the reduction of a chain
complex by its invertible incidences.

S, usually small, is then eliminated once, fraction-free (Bareiss), skipping
work on zero entries.  The elimination runs over Z[t], on integer
coefficient tuples, after each row is scaled by the lcm of its denominators;
dividing the pivots by the row scales gives back the pivots of the same
elimination over Q[t].  k plus its rank is the generic rank, and its last
pivot, a nonzero maximal minor (Sylvester's identity), is kept for the
special locus.  Every condition where some rank drops divides some last
pivot, so the candidates are the distinct irreducible factors over Q of the
last pivots.  One pass (``_special_ranks``) computes the exact ranks of the
residuals on each candidate with ``qlinalg.echelon``: by exact substitution
at a rational root, over the field Q[t]/(p) otherwise, and only for the
residuals whose last pivot it divides; every other one keeps its generic
rank there.  A candidate is special exactly when some rank drops, and those
ranks (plus each k) are the ones the Betti report prints, so the report's
locus is the list of its special conditions: monic, irreducible and
distinct, whatever the order of the bases or of the unit pivots.  The gcd
of all maximal minors (``minors_gcd``) defines a matrix's locus; it forms
every minor, so it serves only as the reference the tests compare against,
as ``bareiss`` on a whole matrix does for the ranks.  d.d = 0 is checked
exactly on the column nonzeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import lcm
from typing import Iterator, Optional

from . import qlinalg
from .chains import ChainComplexSystem, SuperWord
from .scalars import ONE, PolyT, ZERO, add_term, format_rational, irreducible_factors, poly_gcd, poly_xgcd
from .scalars import _zexact_div, _zmul, _zsub  # the Z[t] arithmetic the factorization shares


@dataclass
class BoundaryMatrix:
    """The boundary map C_m^w -> C_{m-1}^w in the canonical word bases."""

    m: int
    w: int
    rows: list[SuperWord]
    cols: list[SuperWord]
    entries: list[list[PolyT]]  # entries[r][c] = coefficient of rows[r] in d(cols[c])

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.cols)

    def column_nonzeros(self) -> list[list[tuple[int, PolyT]]]:
        """Per column, the (row index, entry) pairs with a nonzero entry."""
        columns: list[list[tuple[int, PolyT]]] = [[] for _ in self.cols]
        for r, row in enumerate(self.entries):
            for c, e in enumerate(row):
                if e:
                    columns[c].append((r, e))
        return columns


def boundary_matrix(system: ChainComplexSystem, m: int, w: int) -> BoundaryMatrix:
    cols = system.enumerate_basis(m, w)
    rows = system.enumerate_basis(m - 1, w) if m >= 2 else []
    row_index = {word: i for i, word in enumerate(rows)}
    entries = [[ZERO] * len(cols) for _ in rows]
    for c, word in enumerate(cols):
        image = system.boundary_word(word)
        for target, coeff in image.terms.items():
            r = row_index.get(target)
            if r is None:
                raise RuntimeError("boundary image left the expected weight space")
            entries[r][c] = coeff
    return BoundaryMatrix(m, w, rows, cols, entries)


def bareiss(entries: list[list[PolyT]]) -> tuple[int, list[PolyT]]:
    """Fraction-free elimination; returns (rank, pivot sequence) over Q[t].

    Each row is first scaled by the lcm of its coefficient denominators, and
    the elimination runs on integer coefficient tuples, over Z[t].  Pivots
    are chosen of minimal degree so the entries stay small (first such row;
    a row's scale swaps with it).  A cross term with a zero factor is
    skipped, and an entry that stays zero is not divided.  The k-th pivot is
    a k x k minor of the scaled matrix (Sylvester's identity), so dividing it
    by the scales of the first k pivot rows gives the k-th pivot of the same
    elimination over Q[t].
    """
    M, scales = [], []
    for row in entries:
        s = lcm(*(c.denominator for e in row for c in e.coeffs))
        M.append([tuple(c.numerator * (s // c.denominator) for c in e.coeffs) for e in row])
        scales.append(s)
    nrows = len(M)
    ncols = len(M[0]) if nrows else 0
    pivots: list[PolyT] = []
    prev = (1,)
    scale = 1
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        best = None
        for i in range(r, nrows):
            if M[i][c] and (best is None or len(M[i][c]) < len(M[best][c])):
                best = i
        if best is None:
            continue
        M[r], M[best] = M[best], M[r]
        scales[r], scales[best] = scales[best], scales[r]
        pivot_row = M[r]
        piv = pivot_row[c]
        for i in range(r + 1, nrows):
            row = M[i]
            lead = row[c]
            if lead:
                neg_lead = tuple(-x for x in lead)
                for j in range(c + 1, ncols):
                    x, e = row[j], pivot_row[j]
                    if e:
                        num = _zsub(_zmul(piv, x), _zmul(lead, e)) if x else _zmul(neg_lead, e)
                    elif x:
                        num = _zmul(piv, x)
                    else:
                        continue
                    row[j] = _zexact_div(num, prev)
                row[c] = ()
            else:
                for j in range(c + 1, ncols):
                    if row[j]:
                        row[j] = _zexact_div(_zmul(piv, row[j]), prev)
        scale *= scales[r]
        pivots.append(PolyT._wrap(tuple(Fraction(x, scale) for x in piv)))
        prev = piv
        r += 1
    return len(pivots), pivots


def _cancel_units(entries: list[list[PolyT]]) -> tuple[int, list[list[PolyT]]]:
    """(k, S): the number k of unit pivots cancelled, and the Schur
    complement S left over, without its empty rows and columns.

    While some entry is a nonzero constant a, the one of least Markowitz cost
    (row nonzeros - 1) * (column nonzeros - 1), then least row and column,
    is the pivot: each other row of its column takes away its entry / a
    times the pivot row, over Q[t], and the pivot's row and column go.  The
    costs sit in a heap; a pivot changes the costs of the entries of the
    rows it cleared and of the columns of its row, which are pushed again,
    and an entry popped with a cost other than its current one is stale.
    S keeps the order of the rows and columns it has left.
    """
    rows = [{j: e for j, e in enumerate(row) if e.coeffs} for row in entries]  # no __bool__ call per entry
    cols: list[set[int]] = [set() for _ in (entries[0] if entries else ())]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)

    def cost(i: int, j: int) -> int:
        return (len(rows[i]) - 1) * (len(cols[j]) - 1)

    heap = [(cost(i, j), i, j) for i, row in enumerate(rows) for j, e in row.items() if len(e.coeffs) == 1]
    heapify(heap)
    k = 0
    while heap:
        c, p, q = heappop(heap)
        a = rows[p].get(q)
        if a is None or len(a.coeffs) != 1 or c != cost(p, q):
            continue
        pivot_row, rows[p] = rows[p], {}
        del pivot_row[q]
        for j in pivot_row:
            cols[j].discard(p)
        cleared, cols[q] = cols[q], set()
        cleared.discard(p)
        inv = 1 / a.coeffs[0]
        for i in cleared:
            row = rows[i]
            f = row.pop(q) * inv
            for j, x in pivot_row.items():
                y = row.get(j)
                z = -(f * x) if y is None else y - f * x
                if z:
                    row[j] = z
                    cols[j].add(i)
                elif y is not None:
                    del row[j]
                    cols[j].discard(i)
        k += 1
        for i in cleared:
            for j, e in rows[i].items():
                if len(e.coeffs) == 1:
                    heappush(heap, (cost(i, j), i, j))
        for j in pivot_row:
            for i in cols[j]:
                if len(rows[i][j].coeffs) == 1:
                    heappush(heap, (cost(i, j), i, j))
    live = [row for row in rows if row]
    kept = sorted({j for row in live for j in row})
    return k, [[row.get(j, ZERO) for j in kept] for row in live]


def generic_rank(entries: list[list[PolyT]]) -> int:
    """Rank over the fraction field Q(t)."""
    k, residual = _cancel_units(entries)
    return k + bareiss(residual)[0]


def det_poly(entries: list[list[PolyT]]) -> PolyT:
    """Determinant up to sign (row swaps untracked); exact via Bareiss."""
    n = len(entries)
    if n == 0:
        return ONE
    rank, pivots = bareiss(entries)
    return pivots[-1] if rank == n else ZERO


def minors_gcd(entries: list[list[PolyT]], r: int) -> PolyT:
    """Monic gcd of all r x r minors; ONE when r = 0.

    The reference definition of a matrix's special locus (with r its generic
    rank): it eliminates every minor on its own, so nothing in the program
    calls it; tests compare ``special_locus_for_matrix`` against it.
    """
    if r == 0:
        return ONE
    nrows, ncols = len(entries), len(entries[0])
    g = ZERO
    for rows_sel in combinations(range(nrows), r):
        for cols_sel in combinations(range(ncols), r):
            sub = [[entries[i][j] for j in cols_sel] for i in rows_sel]
            det = det_poly(sub)
            if det.is_zero():
                continue
            g = det.monic() if g.is_zero() else poly_gcd(g, det)
            if g == ONE:
                return g
    return g


def rank_at_rational(entries: list[list[PolyT]], t0: Fraction) -> int:
    zero = Fraction(0)
    rows = [[e(t0) if e else zero for e in row] for row in entries]
    return len(qlinalg.echelon(rows, lambda x: 1 / x)[1])


def rank_modulo(entries: list[list[PolyT]], p: PolyT) -> int:
    """Rank over the field Q[t]/(p), for p monic and irreducible over Q."""
    if p.degree < 1:
        raise ValueError("modulus must have degree >= 1")

    def inverse(x: PolyT) -> PolyT:
        g, s, _ = poly_xgcd(x, p)
        if g.degree > 0:
            raise RuntimeError(f"{p} is reducible: it shares the factor {g} with a pivot")
        return s  # s * x == 1 (mod p) since the xgcd is normalized monic

    return len(qlinalg.echelon([[e % p for e in row] for row in entries], inverse, lambda x: x % p)[1])


def special_locus_for_matrix(entries: list[list[PolyT]]) -> list[PolyT]:
    """Monic irreducible conditions where this matrix's rank drops; the
    one-matrix case of ``_ranks_and_locus``."""
    return [cond for cond, _ in _ranks_and_locus([entries])[1]]


def _special_ranks(
    matrices: list[list[list[PolyT]]], generic: list[int], last_pivots: list[PolyT]
) -> list[tuple[PolyT, list[int]]]:
    """Each condition where some rank leaves its generic value, with the
    ranks of all matrices there, sorted.

    The candidates are the distinct irreducible factors of the last pivots.
    A last pivot is a nonzero maximal minor (Sylvester's identity), so it is
    nonzero at every root of a candidate that does not divide it: such a
    matrix keeps its generic rank there and is not eliminated.
    """
    candidates = {factor for pivot in last_pivots if pivot.degree >= 1 for factor in irreducible_factors(pivot)}
    special = []
    for cond in candidates:
        ranks = [
            _rank_at(entries, cond) if (pivot % cond).is_zero() else rank
            for entries, rank, pivot in zip(matrices, generic, last_pivots)
        ]
        if ranks != generic:  # a rank can only fall; betti_piecewise checks that
            special.append((cond, ranks))
    return sorted(special, key=lambda case: _poly_sort_key(case[0]))


def _rank_at(entries: list[list[PolyT]], cond: PolyT) -> int:
    """Exact rank on the zero set of the monic condition cond."""
    if cond.degree == 1:
        return rank_at_rational(entries, -cond.coeffs[0])
    return rank_modulo(entries, cond)


def _poly_sort_key(p: PolyT):
    return (p.degree, tuple(p.coeffs))


def boundary_matrices(system: ChainComplexSystem, w: int, max_degree: Optional[int]) -> Iterator[BoundaryMatrix]:
    """d_1 .. d_bound of the weight-w complex, bound capped by max_degree,
    built one at a time as they are consumed (``chain`` renders each one and
    lets it go)."""
    bound = system.max_length(w)
    if max_degree is not None:
        bound = min(bound, max_degree)
    return (boundary_matrix(system, m, w) for m in range(1, bound + 1))


def _ranks_and_locus(matrices: list[list[list[PolyT]]]) -> tuple[list[int], list[tuple[PolyT, list[int]]]]:
    """Generic ranks, and the special conditions with the ranks of all
    matrices there.  Each matrix's unit pivots are cancelled, then its
    residual, if not empty, is eliminated once (only the rank and the last
    pivot are kept) and ``_special_ranks`` runs on the residuals; the k unit
    pivots add to every rank."""
    units, residuals, ranks, last_pivots = [], [], [], []
    for entries in matrices:
        k, residual = _cancel_units(entries)
        rank, pivots = bareiss(residual) if residual else (0, [])
        units.append(k)
        residuals.append(residual)
        ranks.append(rank)
        last_pivots.append(pivots[-1] if rank else ONE)
    special = _special_ranks(residuals, ranks, last_pivots)
    return [k + r for k, r in zip(units, ranks)], [
        (cond, [k + r for k, r in zip(units, at)]) for cond, at in special
    ]


def special_locus(system: ChainComplexSystem, w: int, max_degree: Optional[int] = None) -> list[PolyT]:
    """The conditions where some boundary rank of the weight-w complex drops."""
    return [cond for cond, _ in _ranks_and_locus([M.entries for M in boundary_matrices(system, w, max_degree)])[1]]


@dataclass
class SpecialCase:
    """Ranks, kernels, and Betti numbers on one component of the locus."""

    condition: PolyT
    ranks: list[int]
    kernels: list[int]
    betti: list[int]

    @property
    def point(self) -> Optional[Fraction]:
        """The rational root of a linear condition (monic t - point), else None."""
        return -self.condition.coeffs[0] if self.condition.degree == 1 else None

    def label(self) -> str:
        if self.point is not None:
            return f"t = {format_rational(self.point)}"
        return f"{self.condition} = 0"

    def to_json(self) -> dict:
        return {
            "condition": [format_rational(c) for c in self.condition.coeffs],
            "point": None if self.point is None else format_rational(self.point),
            "ranks": self.ranks,
            "kernels": self.kernels,
            "betti": self.betti,
        }


@dataclass
class BettiReport:
    """Piecewise Betti table of one weighted complex."""

    weight: int
    degrees: list[int]
    dims: list[int]
    generic_ranks: list[int]
    generic_kernels: list[int]
    generic_betti: list[int]
    special: list[SpecialCase] = field(default_factory=list)

    @property
    def locus(self) -> list[PolyT]:
        """The special conditions, in order."""
        return [case.condition for case in self.special]

    def to_json(self) -> dict:
        return {
            "weight": self.weight,
            "degrees": self.degrees,
            "dims": self.dims,
            "generic": {
                "ranks": self.generic_ranks,
                "kernels": self.generic_kernels,
                "betti": self.generic_betti,
            },
            "special_locus": [[format_rational(c) for c in p.coeffs] for p in self.locus],
            "special": [case.to_json() for case in self.special],
        }

    def to_text(self) -> str:
        lines = [f"weight {self.weight}"]
        lines.append("  m:        " + "  ".join(f"{m:3d}" for m in self.degrees))
        lines.append("  dim:      " + "  ".join(f"{d:3d}" for d in self.dims))
        lines.append("  ker:      " + "  ".join(f"{k:3d}" for k in self.generic_kernels) + "   (generic)")
        lines.append("  betti:    " + "  ".join(f"{b:3d}" for b in self.generic_betti) + "   (generic)")
        if self.locus:
            lines.append("  special locus: " + ", ".join(str(p) for p in self.locus))
            for case in self.special:
                lines.append(f"  at {case.label()}:")
                lines.append("    ker:    " + "  ".join(f"{k:3d}" for k in case.kernels))
                lines.append("    betti:  " + "  ".join(f"{b:3d}" for b in case.betti))
        else:
            lines.append("  special locus: (empty)")
        return "\n".join(lines)


def _betti_from_ranks(dims: list[int], ranks: list[int]) -> tuple[list[int], list[int]]:
    kernels = [dims[i] - ranks[i] for i in range(len(dims))]
    betti = [kernels[i] - (ranks[i + 1] if i + 1 < len(ranks) else 0) for i in range(len(dims))]
    return kernels, betti


def _check_euler(dims: list[int], betti: list[int], context: str):
    chi_dims = sum((-1) ** m * d for m, d in enumerate(dims))
    chi_betti = sum((-1) ** m * b for m, b in enumerate(betti))
    if chi_dims != chi_betti:
        raise RuntimeError(f"Euler characteristic mismatch ({context})")


def betti_piecewise(system: ChainComplexSystem, w: int, max_degree: Optional[int] = None) -> BettiReport:
    """Assemble the piecewise Betti report of the weight-w complex."""
    matrices = list(boundary_matrices(system, w, max_degree))
    degrees = [M.m for M in matrices]
    dims = [len(M.cols) for M in matrices]
    _check_complex(matrices)

    gen_ranks, special_ranks = _ranks_and_locus([M.entries for M in matrices])
    gen_kernels, gen_betti = _betti_from_ranks(dims, gen_ranks)
    _check_euler(dims, gen_betti, f"generic, weight {w}")

    special = []
    for cond, ranks in special_ranks:
        if any(r > g for r, g in zip(ranks, gen_ranks)):
            raise RuntimeError("specialized rank exceeds generic rank")
        kernels, betti = _betti_from_ranks(dims, ranks)
        _check_euler(dims, betti, f"{cond} = 0, weight {w}")
        special.append(SpecialCase(cond, ranks, kernels, betti))
    return BettiReport(w, degrees, dims, gen_ranks, gen_kernels, gen_betti, special)


def _check_complex(matrices: list[BoundaryMatrix]):
    """d_m . d_{m+1} = 0 as matrices over Q[t], on the column nonzeros.

    Column j of the product is the sum of B[k][j] times column k of A over
    the nonzero B[k][j]; every entry it does not reach is an empty sum.
    """
    columns = [M.column_nonzeros() for M in matrices]
    for A, B, a_cols, b_cols in zip(matrices, matrices[1:], columns, columns[1:]):
        for b_col in b_cols:
            acc: dict[int, PolyT] = {}
            for k, b in b_col:
                for i, a in a_cols[k]:
                    add_term(acc, i, a * b)
            if acc:
                raise RuntimeError(f"d.d != 0 between degrees {A.m} and {B.m}")
