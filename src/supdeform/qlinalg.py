"""Small exact linear algebra over a field: one elimination (``echelon``),
and over Q the reduced form, nullspaces and span solves built on it."""

from __future__ import annotations

from fractions import Fraction


def echelon(rows: list[list], inverse, reduce=None) -> tuple[list[list], list[int]]:
    """Row echelon form over a field, eliminating in place; returns (the
    nonzero rows, their pivot columns).

    Each pivot (the first nonzero entry of its column) clears only the rows
    below it, and only on its own row's support, which starts at the pivot,
    so the entries below it end exactly zero.  ``inverse`` inverts a nonzero
    entry, ``reduce`` (if given) brings a computed entry to normal form; a
    zero entry is falsy.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pivot_row = rows[r]
        inv = inverse(pivot_row[c])
        support = [j for j in range(c, ncols) if pivot_row[j]]
        for row in rows[r + 1 :]:
            if row[c]:
                f = row[c] * inv
                if reduce is None:
                    for j in support:
                        row[j] -= f * pivot_row[j]
                else:
                    f = reduce(f)
                    for j in support:
                        row[j] = reduce(row[j] - f * pivot_row[j])
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q; returns (nonzero rows, pivot column
    indices).  ``echelon``, then each pivot row, last first, is scaled to a
    leading 1 and clears its pivot column in the rows above it."""
    m = [[x if isinstance(x, Fraction) else Fraction(x) for x in r] for r in rows]
    reduced, pivots = echelon(m, lambda x: 1 / x)
    for k in reversed(range(len(pivots))):
        row, c = reduced[k], pivots[k]
        inv = 1 / row[c]
        support = [j for j in range(c, len(row)) if row[j]]
        for j in support:
            row[j] *= inv
        for above in reduced[:k]:
            f = above[c]
            if f:
                for j in support:
                    above[j] -= f * row[j]
    return reduced, pivots


def nullspace(rows: list[list[Fraction]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of {x : A x = 0}, one vector per free column, free coordinate = 1."""
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[free]
        basis.append(tuple(vec))
    return basis


def solve_in_span(span_rows: list[list[Fraction]], target: list[Fraction]):
    """Coefficients c with sum_i c_i span_rows[i] = target, or None."""
    if not span_rows:
        return None if any(target) else ()
    cols = len(span_rows)
    # the augmented system [A | b] whose columns are the span rows and target
    aug = [[span_rows[j][i] for j in range(cols)] + [b] for i, b in enumerate(target)]
    reduced, pivots = rref(aug)
    if pivots and pivots[-1] == cols:
        return None
    x = [Fraction(0)] * cols
    for row, pc in zip(reduced, pivots):
        x[pc] = row[-1]
    return tuple(x)
