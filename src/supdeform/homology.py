"""Boundary matrices over Z[t], parametric ranks, and piecewise Betti numbers.

A boundary matrix is held over Z[t], one scale per matrix: sparse columns,
row index -> nonzero integer coefficient tuple, over one positive integer
scale, filled straight from the integer boundary of each word
(``ChainComplexSystem._boundary_terms``); only the small residual S below
is stored dense, still over Z[t].  d.d = 0 is checked exactly on the integer
columns: the product of two of them is the product of the matrices times
the two scales, which are nonzero.  Each matrix is then reduced by its unit
pivots (``_cancel_units``): while some entry is a nonzero constant a, the
one of least Markowitz cost clears its column, each cleared row first
multiplied by a unless a = +-1, so the rows stay over Z[t]; its row and
column go.  A nonzero constant is invertible at every t and in every
Q[t]/(p), so the rank of the matrix is k (the number of unit pivots) plus
the rank of the Schur complement S left over, generically, at every point
and modulo every condition; and each maximal minor of S is a maximal minor
of the matrix times a nonzero constant.  This is the reduction of a chain
complex by its invertible incidences.

S, usually small, is then eliminated once, fraction-free (Bareiss) on its
integer coefficient tuples, skipping work on zero entries.  k plus its rank
is the generic rank, and its last pivot, a nonzero maximal minor
(Sylvester's identity), is kept for the special locus.  Every condition
where some rank drops divides some last pivot, so the candidates are the
distinct irreducible factors over Q of the last pivots.  One pass
(``_special_ranks``) computes the exact ranks of the residuals on each
candidate with ``qlinalg.echelon``: by exact substitution at a rational
root, over the field Q[t]/(p) otherwise, and only for the residuals whose
last pivot it divides; every other one keeps its generic rank there.  A
candidate is special exactly when some rank drops, and those ranks (plus
each k) are the ones the Betti report prints, so the report's locus is the
list of its special conditions: monic, irreducible and distinct, whatever
the order of the bases, of the unit pivots or the scales.  The gcd of all
maximal minors (``minors_gcd``) defines a matrix's locus; it forms every
minor, so it serves only as the reference the tests compare against, as
``bareiss`` on a whole matrix does for the ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd, lcm
from typing import Iterator, Optional

from . import qlinalg
from .chains import ChainComplexSystem, SuperWord
from .scalars import ONE, PolyT, ZERO, format_rational, irreducible_factors, poly_gcd, poly_xgcd
from .scalars import _zadd_term, _zexact_div, _zmul, _zsub  # the Z[t] arithmetic the factorization shares


@dataclass
class BoundaryMatrix:
    """The boundary map C_m^w -> C_{m-1}^w in the canonical word bases, over
    Z[t] with one scale: the matrix is columns / scale, where columns[c]
    maps each row index r to the integer coefficient tuple (ascending in t,
    no trailing zeros) of rows[r] in scale * d(cols[c]); no column holds a
    zero entry, and scale is the lcm of the denominators of the generator
    pairs met in the column words."""

    m: int
    w: int
    rows: list[SuperWord]
    cols: list[SuperWord]
    columns: list[dict[int, tuple[int, ...]]]
    scale: int = 1

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.cols)

    @property
    def entries(self) -> list[list[PolyT]]:
        """A dense copy over Q[t], entries[r][c], built on each read; nothing
        in the package reads it (the benchmark's tracer counts nonzeros on it)."""
        dense = [[ZERO] * len(self.cols) for _ in self.rows]
        for c, column in enumerate(self.columns):
            for r, e in column.items():
                dense[r][c] = PolyT._wrap(tuple(Fraction(x, self.scale) for x in e))
        return dense


def boundary_matrix(system: ChainComplexSystem, m: int, w: int) -> BoundaryMatrix:
    cols = system.enumerate_basis(m, w)
    rows = system.enumerate_basis(m - 1, w) if m >= 2 else []
    row_index = {word: i for i, word in enumerate(rows)}
    dens, columns = [], []
    for word in cols:
        den, terms = system._boundary_terms(word)
        try:
            columns.append({row_index[target]: nums for target, nums in terms.items()})
        except KeyError:
            raise RuntimeError("boundary image left the expected weight space") from None
        dens.append(den)
    scale = lcm(*dens)
    for c, den in enumerate(dens):
        if den != scale:
            up = scale // den
            columns[c] = {r: tuple(up * x for x in e) for r, e in columns[c].items()}
    return BoundaryMatrix(m, w, rows, cols, columns, scale)


def _integer_columns(entries: list[list[PolyT]]) -> list[dict[int, tuple[int, ...]]]:
    """The nonzero entries of a dense matrix over Q[t] by column, each column
    scaled by the lcm of its denominators to integer coefficient tuples, as
    in ``BoundaryMatrix.columns``; the ranks and the locus do not change."""
    columns = []
    for c in range(len(entries[0]) if entries else 0):
        column = {r: row[c].coeffs for r, row in enumerate(entries) if row[c].coeffs}
        s = lcm(*(x.denominator for e in column.values() for x in e))
        columns.append({r: tuple(x.numerator * (s // x.denominator) for x in e) for r, e in column.items()})
    return columns


def bareiss(rows: list[list[tuple[int, ...]]]) -> tuple[int, list[tuple[int, ...]]]:
    """Fraction-free elimination over Z[t]; returns (rank, pivot sequence).

    The rows are dense, each entry an integer coefficient tuple (ascending in
    t, no trailing zeros, () for zero); they are copied, not changed.  Pivots
    are chosen of minimal degree so the entries stay small (first such row).
    A cross term with a zero factor is skipped, and an entry that stays zero
    is not divided.  The k-th pivot is a k x k minor of the matrix
    (Sylvester's identity), an integer coefficient tuple like the entries.
    """
    M = [row[:] for row in rows]
    nrows = len(M)
    ncols = len(M[0]) if nrows else 0
    pivots: list[tuple[int, ...]] = []
    prev = (1,)
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
        pivots.append(piv)
        prev = piv
        r += 1
    return len(pivots), pivots


def _cancel_units(columns: list[dict[int, tuple[int, ...]]]) -> tuple[int, list[list[tuple[int, ...]]]]:
    """(k, S): the number k of unit pivots cancelled from the matrix with
    these sparse integer columns, and the Schur complement S left over,
    dense over Z[t] (integer coefficient tuples, () for zero) and without
    its empty rows and columns.

    While some entry is a nonzero constant a, the one of least Markowitz cost
    (row nonzeros - 1) * (column nonzeros - 1), then least row and column,
    is the pivot, and its row and column go.  Each other row of its column,
    with entry f there, becomes a * row - f * (pivot row), or row - a * f *
    (pivot row) when a = +-1, so every row stays over Z[t]: a row scaled by
    a nonzero constant keeps every rank, at every t and modulo every p, and
    S's maximal minors are the matrix's times nonzero constants.  The costs
    sit in a heap; a pivot changes the costs of the entries of the rows it
    cleared and of the columns of its row, which are pushed again, and an
    entry popped with a cost other than its current one is stale.  S keeps
    the order of the rows and columns it has left, each row divided by the
    content of its integer coefficients.
    """
    nrows = 1 + max((max(column) for column in columns if column), default=-1)
    rows: list[dict[int, tuple]] = [{} for _ in range(nrows)]
    for j, column in enumerate(columns):
        for i, e in column.items():
            rows[i][j] = e
    cols = [set(column) for column in columns]

    def cost(i: int, j: int) -> int:
        return (len(rows[i]) - 1) * (len(cols[j]) - 1)

    heap = [(cost(i, j), i, j) for i, row in enumerate(rows) for j, e in row.items() if len(e) == 1]
    heapify(heap)
    k = 0
    while heap:
        c, p, q = heappop(heap)
        a = rows[p].get(q)
        if a is None or len(a) != 1 or c != cost(p, q):
            continue
        pivot_row, rows[p] = rows[p], {}
        del pivot_row[q]
        for j in pivot_row:
            cols[j].discard(p)
        cleared, cols[q] = cols[q], set()
        cleared.discard(p)
        a = a[0]
        for i in cleared:
            row = rows[i]
            f = row.pop(q)
            if a == -1:
                f = tuple(-x for x in f)
            elif a != 1:
                for j, y in row.items():
                    row[j] = tuple(a * x for x in y)
            neg_f = tuple(-x for x in f)
            for j, x in pivot_row.items():
                y = row.get(j)
                z = _zmul(neg_f, x) if y is None else _zsub(y, _zmul(f, x))
                if z:
                    row[j] = z
                    cols[j].add(i)
                elif y is not None:
                    del row[j]
                    cols[j].discard(i)
        k += 1
        for i in cleared:
            for j, e in rows[i].items():
                if len(e) == 1:
                    heappush(heap, (cost(i, j), i, j))
        for j in pivot_row:
            for i in cols[j]:
                if len(rows[i][j]) == 1:
                    heappush(heap, (cost(i, j), i, j))
    live = [row for row in rows if row]
    kept = sorted({j for row in live for j in row})
    residual = []
    for row in live:  # divided by its content, which the row scalings build up
        g = gcd(*(x for e in row.values() for x in e))
        residual.append([tuple(x // g for x in row.get(j, ())) for j in kept])
    return k, residual


def generic_rank(entries: list[list[PolyT]]) -> int:
    """Rank over the fraction field Q(t)."""
    k, residual = _cancel_units(_integer_columns(entries))
    return k + bareiss(residual)[0]


def det_poly(entries: list[list[PolyT]]) -> PolyT:
    """Determinant up to a nonzero rational factor (row swaps and the column
    scales of ``_integer_columns`` untracked); exact via Bareiss."""
    n = len(entries)
    if n == 0:
        return ONE
    columns = _integer_columns(entries)
    rank, pivots = bareiss([[column.get(r, ()) for column in columns] for r in range(n)])
    return PolyT(pivots[-1]) if rank == n else ZERO


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
    return [cond for cond, _ in _ranks_and_locus([_integer_columns(entries)])[1]]


def _special_ranks(
    matrices: list[list[list[tuple[int, ...]]]], generic: list[int], last_pivots: list[PolyT]
) -> list[tuple[PolyT, list[int]]]:
    """Each condition where some rank leaves its generic value, with the
    ranks of all matrices there, sorted; each matrix is dense over Z[t], as
    ``bareiss`` takes it.

    The candidates are the distinct irreducible factors of the last pivots.
    A last pivot is a nonzero maximal minor (Sylvester's identity), so it is
    nonzero at every root of a candidate that does not divide it: such a
    matrix keeps its generic rank there and is not eliminated.  A matrix is
    converted to PolyT entries once, when a first candidate divides its last
    pivot.
    """
    candidates = {factor for pivot in last_pivots if pivot.degree >= 1 for factor in irreducible_factors(pivot)}
    converted: list[Optional[list[list[PolyT]]]] = [None] * len(matrices)
    special = []
    for cond in candidates:
        ranks = []
        for i, (rows, rank, pivot) in enumerate(zip(matrices, generic, last_pivots)):
            if (pivot % cond).is_zero():
                if converted[i] is None:
                    converted[i] = [[PolyT(e) for e in row] for row in rows]
                rank = _rank_at(converted[i], cond)
            ranks.append(rank)
        if ranks != generic:  # a rank can only fall; betti_piecewise checks that
            special.append((cond, ranks))
    return sorted(special, key=lambda case: _poly_sort_key(case[0]))


def _rank_at(entries: list[list[PolyT]], cond: PolyT) -> int:
    """Exact rank of the matrix on the zero set of the monic condition cond."""
    if cond.degree == 1:
        return rank_at_rational(entries, -cond.coeffs[0])
    return rank_modulo(entries, cond)


def _poly_sort_key(p: PolyT):
    return (p.degree, tuple(p.coeffs))


def boundary_matrices(system: ChainComplexSystem, w: int) -> Iterator[BoundaryMatrix]:
    """d_1 .. d_bound of the weight-w complex, bound its longest word, built
    one at a time as they are consumed."""
    return (boundary_matrix(system, m, w) for m in range(1, system.max_length(w) + 1))


def _ranks_and_locus(
    matrices: list[list[dict[int, tuple[int, ...]]]],
) -> tuple[list[int], list[tuple[PolyT, list[int]]]]:
    """Generic ranks, and the special conditions with the ranks of all
    matrices there, each matrix given by its sparse integer columns (a
    matrix's scale changes none of them).  Each matrix's
    unit pivots are cancelled, then its residual, if not empty, is
    eliminated once (only the rank and the last pivot are kept) and
    ``_special_ranks`` runs on the residuals; the k unit pivots add to every
    rank."""
    units, residuals, ranks, last_pivots = [], [], [], []
    for columns in matrices:
        k, residual = _cancel_units(columns)
        rank, pivots = bareiss(residual) if residual else (0, [])
        units.append(k)
        residuals.append(residual)
        ranks.append(rank)
        last_pivots.append(PolyT(pivots[-1]) if rank else ONE)
    special = _special_ranks(residuals, ranks, last_pivots)
    return [k + r for k, r in zip(units, ranks)], [
        (cond, [k + r for k, r in zip(units, at)]) for cond, at in special
    ]


def special_locus(system: ChainComplexSystem, w: int) -> list[PolyT]:
    """The conditions where some boundary rank of the weight-w complex drops."""
    return [cond for cond, _ in _ranks_and_locus([M.columns for M in boundary_matrices(system, w)])[1]]


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


def betti_piecewise(system: ChainComplexSystem, w: int) -> BettiReport:
    """Assemble the piecewise Betti report of the weight-w complex."""
    matrices = list(boundary_matrices(system, w))
    degrees = [M.m for M in matrices]
    dims = [len(M.cols) for M in matrices]
    _check_complex(matrices)

    gen_ranks, special_ranks = _ranks_and_locus([M.columns for M in matrices])
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
    """d_m . d_{m+1} = 0, exactly, on the sparse integer columns.

    Column j of the product is the sum of B[k][j] times column k of A over
    the nonzero B[k][j]; every entry it does not reach is an empty sum.  The
    product of the integer columns is the product of the matrices times
    A.scale * B.scale, which is nonzero, so it vanishes exactly when d.d does.
    """
    for A, B in zip(matrices, matrices[1:]):
        a_cols = A.columns
        for b_col in B.columns:
            acc: dict[int, tuple] = {}
            for k, b in b_col.items():
                for i, a in a_cols[k].items():
                    _zadd_term(acc, i, _zmul(a, b))
            if acc:
                raise RuntimeError(f"d.d != 0 between degrees {A.m} and {B.m}")
