"""Small exact linear algebra over Q (Fraction entries)."""

from __future__ import annotations

from fractions import Fraction


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices)."""
    m = [[x if isinstance(x, Fraction) else Fraction(x) for x in r] for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r]
        support = [j for j in range(c, ncols) if pivot[j]]  # a zero entry changes no row
        inv = 1 / pivot[c]
        for j in support:
            pivot[j] *= inv
        for i in range(len(m)):
            row = m[i]
            if i != r and row[c] != 0:
                f = row[c]
                for j in support:
                    row[j] -= f * pivot[j]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def nullspace(rows: list[list[Fraction]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of {x : A x = 0}, one vector per free column, free coordinate = 1."""
    reduced, pivots = rref(rows) if rows else ([], [])
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
