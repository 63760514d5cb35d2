"""Verification of the super bracket axioms, and the linear systems that pin
down admissible deformation functions F.

Checkers work on a ``BracketSystem``: an ordered graded basis plus the
bracket of two basis atoms (the keys of an element's ``terms``).  From it
each system computes, once, its one bracket store, the pair table: a sparse
row per item with only the nonzero brackets of that item and the others,
and from the table the first sorted pair that breaks super-antisymmetry;
both checkers read them.  No atom pair is memoized.  A row tries only the
items its system names as partners: a form bracket [z_I, z_J] vanishes
unless I and J are disjoint, so the row of a form monomial tries the 2^(n-a)
monomials disjoint from it (3^n pairs of the 4^n), plus every vector of an
extension; other rows try every item.  "Pass" always means
the defect is the exact zero element of Q[t] coefficients, never
numerically small.
Each report is that of a scan over every ordered pair or triple: its witness
is the lexicographically first failure, and ``checked`` counts the pairs or
triples up to it.  No triple is scanned, though: ``check_superjacobi`` adds
only the nonzero terms [[u, v], w] to the defects of the triples they are a
rotation of, so its work grows with the nonzero brackets, and keeps only
sorted triples when the bracket is super-antisymmetric, because there the
first failure is always sorted (see ``check_supersymmetry`` and
``check_superjacobi``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Optional, Sequence

from . import qlinalg
from .brackets import (
    DeformationSpec,
    SuperElement,
    extension_atom_bracket,
    form_monomial_bracket,
    multivector_monomial_bracket,
)
from .exterior import FORM, MULTIVECTOR, GradedElement, d, monomial_label, monomials
from .liealg import LieAlgebraSpec, OneForm
from .scalars import ONE, add_term, bilinear, rat


@dataclass(frozen=True)
class BasisItem:
    label: str
    element: object
    superdegree: int

    @property
    def parity(self) -> int:
        return self.superdegree % 2


@dataclass
class BracketSystem:
    """An ordered homogeneous basis together with the bracket to test.

    Elements are handled through their ``terms``, sparse maps from atoms to
    Q[t] coefficients.  An atom is a key of ``terms``: an index tuple (a
    monomial of a ``GradedElement`` or a form monomial of a
    ``SuperElement``) or a 1-based int (the coordinate vector y_i of a
    ``SuperElement``).  ``atom_bracket(x, y)`` gives the terms of the bracket
    of two atoms, and the bracket of two elements is its bilinear sum: every
    bracket built here is Q[t]-bilinear, because F depends only on degrees.
    The one bracket store is ``pair_images``, the nonzero brackets of the
    ordered pairs of items, computed once and kept as long as the system;
    nothing is memoized per atom pair.  ``partners(x)`` names, in increasing
    order, the item indices whose bracket with x can be nonzero, the only
    ones ``row`` tries; None (the default) tries every item.
    """

    label: str
    items: list[BasisItem]
    atom_bracket: Callable
    partners: Optional[Callable[[dict], Sequence[int]]] = None

    def image(self, u: dict, v: dict) -> dict:
        """[u, v] for two sparse elements, the bilinear sum of ``atom_bracket``."""
        return bilinear(u, v, self.atom_bracket)

    def bracket(self, u, v):
        """[u, v] for two elements: the bracket the direct references compose."""
        return u.like(self.image(u.terms, v.terms))

    def row(self, x: dict) -> dict[int, dict]:
        """The sparse row of x: item index v -> the terms of [x, v], for every
        item v with [x, v] != 0.  Only the items ``partners(x)`` names are
        tried, every item when ``partners`` is None."""
        items = self.items
        tried = range(len(items)) if self.partners is None else self.partners(x)
        return {v: xv for v in tried if (xv := self.image(x, items[v].element.terms))}

    @cached_property
    def pair_images(self) -> list[dict[int, dict]]:
        """The pair table, ``pair_images[u]`` the row of item u: a pair
        missing from its row has bracket zero."""
        return [self.row(item.element.terms) for item in self.items]

    def antisymmetry_defect(self, i: int, j: int) -> dict:
        """The terms of [x, y] + (-1)^(x'y') [y, x] for the items x, y of
        indices i, j, read from the pair table."""
        images, items = self.pair_images, self.items
        defect = dict(images[i].get(j, {}))
        _add_terms(defect, images[j].get(i, {}), items[i].parity * items[j].parity % 2)
        return defect

    @cached_property
    def antisymmetry_break(self) -> Optional[tuple[int, int]]:
        """The first sorted pair of item indices i <= j whose
        super-antisymmetry defect is nonzero, or None when the bracket is
        super-antisymmetric on the items.  A pair whose brackets are zero
        both ways has no defect, so only the sorted pairs with a nonzero
        bracket in either order are scanned."""
        pairs = sorted({(min(i, j), max(i, j)) for i, row in enumerate(self.pair_images) for j in row})
        return next((pair for pair in pairs if self.antisymmetry_defect(*pair)), None)


def _disjoint_partners(n: int, offset: int) -> dict[tuple[int, ...], list[int]]:
    """For each form monomial z_I, the positions of the monomials z_J with
    I and J disjoint, in increasing order, when the 2^n monomials are items
    offset, offset + 1, ... in the order of ``exterior.monomials``.  Those J
    are the submasks of the complement of I: 3^n pairs in all."""
    basis = monomials(n)
    masks = [sum(1 << (i - 1) for i in ids) for ids in basis]
    position = {mask: offset + pos for pos, mask in enumerate(masks)}
    full = (1 << n) - 1
    out = {}
    for ids, mask in zip(basis, masks):
        rest = full ^ mask
        found, sub = [], rest
        while True:
            found.append(position[sub])
            if not sub:
                break
            sub = (sub - 1) & rest
        out[ids] = sorted(found)
    return out


def _form_partners(disjoint: dict, every: Sequence[int], x: dict) -> Sequence[int]:
    """The items to try for the row of x: the ``disjoint`` entry of a single
    form atom, ``every`` item otherwise."""
    if len(x) == 1:
        (atom,) = x
        if isinstance(atom, tuple):
            return disjoint[atom]
    return every


def form_system(spec: DeformationSpec) -> BracketSystem:
    """The superalgebra of forms with the configured deformed bracket.  A
    form bracket [z_I, z_J] is zero unless I and J are disjoint, so the row
    of a monomial tries only the monomials disjoint from it."""
    n = spec.algebra.n
    items = [
        BasisItem(monomial_label(FORM, ids), GradedElement.monomial(FORM, n, ids), -len(ids) - 1)
        for ids in monomials(n)
    ]
    partners = partial(_form_partners, _disjoint_partners(n, 0), range(len(items)))
    return BracketSystem(f"forms[{spec.describe()}]", items, partial(form_monomial_bracket, spec), partners)


def multivector_system(spec: LieAlgebraSpec, phi: OneForm) -> BracketSystem:
    """Multivectors of degree >= 1 with the phi-deformed Schouten bracket.
    Two multivector monomials that share an index can have a nonzero
    bracket, so every row tries every item."""
    n = spec.n
    items = [
        BasisItem(monomial_label(MULTIVECTOR, ids), GradedElement.monomial(MULTIVECTOR, n, ids), len(ids) - 1)
        for ids in monomials(n)[1:]
    ]
    return BracketSystem("multivectors[deformed Schouten]", items, partial(multivector_monomial_bracket, spec, phi))


def extension_system(spec: DeformationSpec, vectors) -> BracketSystem:
    """h (+) g0' with the Lie-derivative extension bracket."""
    n = spec.algebra.n
    items = []
    for pos, v in enumerate(vectors):
        label = next(
            (f"y{i + 1}" for i, c in enumerate(v.coeffs) if c == 1 and sum(map(bool, v.coeffs)) == 1),
            f"x{pos + 1}",
        )
        items.append(BasisItem(label, SuperElement.from_vector(v), 0))
    for ids in monomials(n):
        items.append(BasisItem(monomial_label(FORM, ids), SuperElement(n, {ids: ONE}), -len(ids) - 1))
    # a form atom tries every vector item and the form items disjoint from it
    m = len(vectors)
    disjoint = {ids: [*range(m), *forms] for ids, forms in _disjoint_partners(n, m).items()}
    partners = partial(_form_partners, disjoint, range(len(items)))
    return BracketSystem(f"extension[{spec.describe()}]", items, partial(extension_atom_bracket, spec), partners)


@dataclass
class Witness:
    labels: tuple[str, ...]
    defect: object

    def to_json(self) -> dict:
        return {"elements": list(self.labels), "defect": str(self.defect)}


@dataclass
class AxiomReport:
    bracket_id: str
    axiom: str
    outcome: str  # "pass" | "fail"
    witness: Optional[Witness]
    checked: int

    @property
    def passed(self) -> bool:
        return self.outcome == "pass"

    def to_json(self) -> dict:
        return {
            "bracket": self.bracket_id,
            "axiom": self.axiom,
            "outcome": self.outcome,
            "checked": self.checked,
            "witness": self.witness.to_json() if self.witness else None,
        }

    def __str__(self) -> str:
        head = f"{self.bracket_id} {self.axiom}: {self.outcome} ({self.checked} checked)"
        if self.witness:
            head += f"\n  witness {self.witness.labels}: defect {self.witness.defect}"
        return head


def supersymmetry_defect(system: BracketSystem, x: BasisItem, y: BasisItem):
    """[x, y] + (-1)^(x'y') [y, x], with shifted-degree parities in the sign."""
    xy = system.bracket(x.element, y.element)
    yx = system.bracket(y.element, x.element)
    return xy + yx if (x.parity * y.parity) % 2 == 0 else xy - yx


def superjacobi_defect(system: BracketSystem, a: BasisItem, b: BasisItem, c: BasisItem):
    """Graded cyclic sum  S (-1)^(a'c') [[a, b], c]."""
    total = None
    for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
        term = system.bracket(system.bracket(u.element, v.element), w.element)
        if (u.parity * w.parity) % 2:
            term = -term
        total = term if total is None else total + term
    return total


def _add_terms(defect: dict, terms: dict, negate) -> None:
    """Add ``terms`` into ``defect``, negated when ``negate`` is true."""
    for z, c in terms.items():
        add_term(defect, z, -c if negate else c)


def check_supersymmetry(system: BracketSystem) -> AxiomReport:
    """[x, y] against -(-1)^(x'y') [y, x] for every pair, read from the pair
    table; ``supersymmetry_defect`` is the direct reference.

    The defect of (y, x) is (-1)^(x'y') times the defect of (x, y), so the
    first failing ordered pair is sorted: it is the system's
    ``antisymmetry_break``.  The report is the ordered scan's: a pass counts
    n^2 pairs, and a failure at (i, j) counts i*n + j + 1, with the same
    witness.
    """
    items = system.items
    n = len(items)
    if system.antisymmetry_break is None:
        return AxiomReport(system.label, "supersymmetry", "pass", None, n * n)
    i, j = system.antisymmetry_break
    witness = Witness((items[i].label, items[j].label), items[0].element.like(system.antisymmetry_defect(i, j)))
    return AxiomReport(system.label, "supersymmetry", "fail", witness, i * n + j + 1)


def check_superjacobi(system: BracketSystem) -> AxiomReport:
    """Graded cyclic sum J(a, b, c) of (-1)^(u'w') [[u, v], w] over the
    rotations (u, v, w) of (a, b, c), for the triples of basis items, by
    contracting only the nonzero terms; ``superjacobi_defect`` is the direct
    reference.

    No triple is visited.  [u, v] is read from the pair table, and for each
    atom z of some [u, v] the items w with [z, w] != 0 are indexed once (from
    the pair table too when z is an item), so the work grows with the nonzero
    brackets, not with the n^3 triples.  A nonzero term (u, v, w) is a
    rotation of the triples (u, v, w), (w, u, v) and (v, w, u), counted with
    multiplicity ((a, a, a) gets its one rotation three times), and is added
    with its sign to the defect of each: every triple receives exactly its
    three rotations.

    When the bracket is super-antisymmetric on the items (the system has no
    ``antisymmetry_break``), only sorted triples a <= b <= c keep their
    defects, repeats included.  J is cyclic, and by bilinearity and
    super-antisymmetry alone J(b, a, c) = -(-1)^(a'b' + b'c' + c'a') J(a, b, c),
    so every permutation of a triple gives +-J of its sorted form.  A failing
    triple's sorted permutation therefore fails too and comes no later, so
    the first failing ordered triple is sorted.  Otherwise every ordered
    triple keeps its defect.  Either way the first failure is the least
    triple with a nonzero defect, and its witness defect is recomputed
    rotation by rotation.  The report is the ordered scan's: a pass counts
    n^3 triples, and a failure at (a, b, c) counts a*n^2 + b*n + c + 1.
    """
    items = system.items
    n = len(items)
    atoms = [item.element.terms for item in items]
    parity = [item.parity for item in items]
    images = system.pair_images
    sorted_only = system.antisymmetry_break is None
    item_of = {z: k for k, terms in enumerate(atoms) for z in terms if terms == {z: ONE}}  # the items that are atoms
    atom_rows: dict = {}  # atom z -> {w: terms of [z, w]} for the items w with [z, w] != 0
    defects: dict = {}
    for u, v, uv in ((u, v, uv) for u, row in enumerate(images) for v, uv in row.items()):
        outer: dict = {}  # w -> terms of [[u, v], w]
        for z, coeff in uv.items():
            if z not in atom_rows:
                atom_rows[z] = images[item_of[z]] if z in item_of else system.row({z: ONE})
            for w, zw in atom_rows[z].items():
                term = outer.setdefault(w, {})
                for k, c in zw.items():
                    add_term(term, k, coeff * c)
        for w, term in outer.items():
            if not term:
                continue
            for triple in ((u, v, w), (w, u, v), (v, w, u)):
                if not sorted_only or triple[0] <= triple[1] <= triple[2]:
                    _add_terms(defects.setdefault(triple, {}), term, parity[u] * parity[w] % 2)
    failing = [triple for triple, defect in defects.items() if defect]
    if not failing:
        return AxiomReport(system.label, "superjacobi", "pass", None, n**3)
    a, b, c = min(failing)
    defect: dict = {}
    for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
        _add_terms(defect, system.image(images[u].get(v, {}), atoms[w]), parity[u] * parity[w] % 2)
    witness = Witness((items[a].label, items[b].label, items[c].label), items[0].element.like(defect))
    return AxiomReport(system.label, "superjacobi", "fail", witness, (a * n + b) * n + c + 1)


def jacobi_closed_form(
    spec: DeformationSpec, alpha: GradedElement, beta: GradedElement, gamma: GradedElement
) -> GradedElement:
    """Closed-form value of the graded Jacobi cyclic sum for a standard-shape
    bracket (-1)^a d(alpha^beta) + F(a,b) alpha^(t phi)^beta.

    Four terms, each an F-coefficient combination against a fixed wedge; this
    is the independent counterpart of the brute-force ``superjacobi_defect``
    and the two must agree exactly on every basis triple.
    """
    algebra, F = spec.algebra, spec.F
    a, b, g = alpha.degree(), beta.degree(), gamma.degree()
    n = algebra.n
    tphi = spec.tphi
    dtphi = d(algebra, tphi)

    def sgn(exponent: int) -> int:
        return -1 if exponent % 2 else 1

    out = GradedElement.zero(FORM, n)
    w1 = alpha.wedge(tphi).wedge(beta).wedge(d(algebra, gamma))
    if not w1.is_zero():
        coeff = F.value(1 + b + g, a) - F.value(a, b) - F.value(b, g) - F.value(g, a) + F.value(1 + g + a, b)
        out = out + w1.scale(coeff * sgn(a * g + a + g))
    w2 = alpha.wedge(d(algebra, beta)).wedge(tphi).wedge(gamma)
    if not w2.is_zero():
        coeff = F.value(1 + a + b, g) + F.value(1 + b + g, a) - F.value(a, b) - F.value(b, g) - F.value(g, a)
        out = out - w2.scale(coeff * sgn(a * g + a + g))
    w3 = alpha.wedge(dtphi).wedge(beta).wedge(gamma)
    if not w3.is_zero():
        coeff = F.value(a, b) + F.value(b, g) + F.value(g, a)
        out = out + w3.scale(coeff * sgn(a * g + a + b + g))
    w4 = d(algebra, alpha).wedge(beta).wedge(tphi).wedge(gamma)
    if not w4.is_zero():
        coeff = F.value(1 + a + b, g) - F.value(a, b) - F.value(b, g) - F.value(g, a) + F.value(1 + g + a, b)
        out = out - w4.scale(coeff * sgn(a * g + g))
    return out


# ---------------------------------------------------------------------------
# Admissibility conditions on F
# ---------------------------------------------------------------------------


@dataclass
class FSolutionSpace:
    """Solution space of the admissibility conditions on a bounded grid.

    ``basis`` holds symmetric tables on {(a,b) : a+b <= grid}; every table
    satisfies all imposed linear conditions exactly.
    """

    grid: int
    constraints: str  # "closed" | "nonclosed"
    basis: list[dict[tuple[int, int], Fraction]] = field(default_factory=list)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def _variables(self) -> list[tuple[int, int]]:
        return _grid_variables(self.grid)

    def contains_table(self, value_of) -> bool:
        """Is the symmetric table (a,b) -> value_of(a,b) in the span?"""
        variables = self._variables()
        target = [rat(value_of(a, b)) for a, b in variables]
        span = [[tab[v] for v in variables] for tab in self.basis]
        if not any(target):
            return True
        return qlinalg.solve_in_span(span, target) is not None

    def to_json(self) -> dict:
        return {
            "grid": self.grid,
            "constraints": self.constraints,
            "dimension": self.dimension,
            "basis": [
                {f"{a},{b}": str(v) for (a, b), v in sorted(tab.items())} for tab in self.basis
            ],
        }


def _grid_variables(N: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(N + 1) for b in range(a, N + 1 - a)]


def _solve_f_system(N: int, rows: list[list[Fraction]], constraints: str) -> FSolutionSpace:
    variables = _grid_variables(N)
    basis = []
    for vec in qlinalg.nullspace(rows, len(variables)):
        lead = next((v for v in vec if v != 0), None)
        if lead is not None and lead != 1:
            vec = tuple(v / lead for v in vec)
        table = {}
        for (a, b), v in zip(variables, vec):
            table[(a, b)] = v
            table[(b, a)] = v
        basis.append(table)
    return FSolutionSpace(N, constraints, basis)


def _condition_rows(N: int, closed: bool) -> list[list[Fraction]]:
    """The condition rows of ``solve_F_closed`` (closed) or
    ``solve_F_nonclosed``, one set per sorted triple a <= b <= c: a permuted
    triple gives the same rows."""
    if N < 2:
        raise ValueError("grid bound too small to impose any condition")
    variables = _grid_variables(N)
    index = {v: i for i, v in enumerate(variables)}

    def row(plus, minus=()) -> list[Fraction]:
        out = [Fraction(0)] * len(variables)
        for pairs, sign in ((plus, 1), (minus, -1)):
            for x, y in pairs:
                out[index[(x, y) if x <= y else (y, x)]] += sign
        return out

    rows = []
    for a in range(N + 1):
        for b in range(a, N + 1 - a):
            for c in range(b, N + 1 - b):  # so a + b, b + c and c + a are <= N
                cyclic = ((a, b), (b, c), (c, a))
                if a + b + c < N:  # all shifted pairs have coordinate sum <= N
                    shifted = [(1 + b + c, a), (1 + c + a, b), (1 + a + b, c)]
                    rows += [row(shifted[:k] + shifted[k + 1 :], cyclic if closed else ()) for k in range(3)]
                if not closed:
                    rows.append(row(cyclic))
    return rows


def solve_F_closed(N: int) -> FSolutionSpace:
    """Symmetric F with, for every triple (a, b, c) fully inside the grid,

        F(1+b+c, a) + F(1+c+a, b) = F(a,b) + F(b,c) + F(c,a)

    and its two cyclic partners.  The expected solution line is kappa*(a+b+2).
    """
    return _solve_f_system(N, _condition_rows(N, closed=True), "closed")


def solve_F_nonclosed(N: int) -> FSolutionSpace:
    """Symmetric F subject to the non-closed-phi condition families

        F(1+b+c,a) + F(1+c+a,b) = 0        (and the two cyclic partners)
        F(a,b) + F(b,c) + F(c,a) = 0

    which force F = 0.
    """
    return _solve_f_system(N, _condition_rows(N, closed=False), "nonclosed")


def satisfies_difference_identity(table: dict[tuple[int, int], Fraction], N: int) -> bool:
    """F(1+c+a, b) = F(1+a+b, c) wherever both arguments sit in the grid."""
    for a in range(N):
        for b in range(N - a):
            for c in range(N - a - b):
                left = table.get((1 + c + a, b), table.get((b, 1 + c + a)))
                right = table.get((1 + a + b, c), table.get((c, 1 + a + b)))
                if left != right:
                    return False
    return True
