"""Contact relations on finite Boolean algebras and their axiom checkers.

A contact relation is stored only on atoms: full additivity forces a contact
relation on a finite powerset algebra to be determined by its restriction to
atoms, which collapses storage from square-of-element-count to square-of-atom
-count and turns cluster theory into clique theory on the atom graph.

Derived relations are atom relations too: the Alexandroff extension of a
local contact structure only adds contact between atoms outside the ideal
generator.  Each relation keeps one table, of everything each element
touches; well-inside is read from it by complement (b is well inside c
exactly when b avoids what the complement of c touches), and the CA, NCA,
CON and LL axioms are decided on the rows only: check_axioms refuses any
other relation.
ElementContact, an element-pair relation given by a predicate, shares the
query surface; it is what the brute-force oracles in the tests build (the
element scans of the axioms, the extension as a predicate), and
check_cluster still accepts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .boolalg import FiniteBooleanAlgebra, atom_join, atom_unions
from .errors import StructureError
from .report import Report, Violation

_TABLE_LIMIT = 16  # the per-element reach table is kept only up to this width


class ContactQuery:
    """Query surface shared by atom-backed and element-backed relations."""

    algebra: FiniteBooleanAlgebra

    def contact(self, a: int, b: int) -> bool:
        raise NotImplementedError

    def way_below(self, a: int, b: int) -> bool:
        """a is well inside b: a avoids the complement of b entirely."""
        return not self.contact(a, self.algebra.complement(b))


@dataclass(frozen=True)
class ContactRelation(ContactQuery):
    """Reflexive symmetric atom relation, lifted to elements on demand.

    rows[i] is the bit mask of atoms in contact with atom i.  Reflexivity is
    required at construction: a relation whose atom restriction misses the
    diagonal cannot satisfy the axiom that nonzero elements touch themselves,
    so such inputs are rejected outright.
    """

    algebra: FiniteBooleanAlgebra
    rows: tuple[int, ...]

    def __post_init__(self):
        n = self.algebra.atom_count
        if len(self.rows) != n:
            raise StructureError("atom relation must have one row per atom")
        for i, row in enumerate(self.rows):
            self.algebra.check_element(row)
            if not row >> i & 1:
                raise StructureError(f"atom relation must be reflexive; atom {i} misses itself")
        for i in range(n):
            for j in range(i + 1, n):
                if (self.rows[i] >> j & 1) != (self.rows[j] >> i & 1):
                    raise StructureError(f"atom relation must be symmetric; see atoms {i},{j}")

    @cached_property
    def _reach(self) -> tuple[int, ...] | None:
        """R(a) for every a: the join of the rows of a's atoms, everything a touches."""
        if self.algebra.atom_count > _TABLE_LIMIT:
            return None
        return atom_unions(self.rows)

    def reach_table(self) -> tuple[int, ...]:
        """R(a) for every a: the kept table, or above its width one built per call."""
        return self._reach or atom_unions(self.rows)

    def contact(self, a: int, b: int) -> bool:
        self.algebra.check_element(a)
        self.algebra.check_element(b)
        reach = self._reach
        if reach is not None:
            return reach[a] & b != 0
        return atom_join(self.rows, a) & b != 0

    def inner(self, c: int) -> int:
        """Largest element well inside c: the join of the atoms whose row lies in c.

        b is well inside c exactly when b lies below inner(c), since b avoids
        the complement of c exactly when every atom of b does.  The rows are
        symmetric, so atom i's row lies in c exactly when the complement of c
        does not touch i: inner(c) is the complement of R(top ^ c).
        """
        top = self.algebra.top
        outside = top ^ self.algebra.check_element(c)
        reach = self._reach
        return top ^ (atom_join(self.rows, outside) if reach is None else reach[outside])

    def way_below(self, a: int, b: int) -> bool:
        inner = self.inner(b)
        return self.algebra.check_element(a) | inner == inner

    def atom_pairs(self) -> list[tuple[int, int]]:
        """Strictly-above-diagonal atom pairs in contact, ascending."""
        n = self.algebra.atom_count
        return [(i, j) for i in range(n) for j in range(i + 1, n) if self.rows[i] >> j & 1]


class ElementContact(ContactQuery):
    """Element-level contact relation answered by a predicate.

    Nothing checks the predicate against the contact axioms, so the axiom
    checkers and the cluster enumerators refuse it; atom_restriction turns a
    lawful one into a ContactRelation.
    """

    def __init__(self, algebra: FiniteBooleanAlgebra, predicate, *,
                 label: str = "element contact"):
        self.algebra = algebra
        self._predicate = predicate
        self.label = label

    def contact(self, a: int, b: int) -> bool:
        self.algebra.check_element(a)
        self.algebra.check_element(b)
        return bool(self._predicate(a, b))

    def __repr__(self):
        return f"ElementContact({self.label!r}, atoms={self.algebra.atom_count})"


def overlap_contact(algebra: FiniteBooleanAlgebra) -> ContactRelation:
    """Smallest contact relation: elements touch exactly when they overlap."""
    return ContactRelation(algebra, tuple(1 << i for i in range(algebra.atom_count)))


def universal_contact(algebra: FiniteBooleanAlgebra) -> ContactRelation:
    """Largest contact relation: any two nonzero elements touch."""
    return ContactRelation(algebra, tuple(algebra.top for _ in range(algebra.atom_count)))


def extremal_contacts(algebra: FiniteBooleanAlgebra) -> tuple[ContactRelation, ContactRelation]:
    return overlap_contact(algebra), universal_contact(algebra)


def atom_restriction(relation: ContactQuery) -> ContactRelation:
    """Atom-backed relation agreeing with `relation` on atom pairs."""
    algebra = relation.algebra
    n = algebra.atom_count
    rows = []
    for i in range(n):
        row = 0
        for j in range(n):
            if relation.contact(1 << i, 1 << j):
                row |= 1 << j
        rows.append(row)
    return ContactRelation(algebra, tuple(rows))


def require_rows(relation: ContactQuery, task: str) -> ContactRelation:
    """The relation itself if it has atom rows; task names what needs them."""
    if not isinstance(relation, ContactRelation):
        raise StructureError(f"{task} runs on atom rows, which {relation!r} lacks")
    return relation


AXIOM_KINDS = ("CA", "NCA", "CON", "LL")


def check_axioms(relation: ContactRelation, kind: str) -> Report:
    """Check one axiom family; report the least witness per axiom.

    CA checks the four contact axioms, NCA adds interpolation and co-density,
    CON checks connectedness, LL checks the seven laws of the derived
    well-inside relation.  Every axiom is checked independently even when one
    is derivable from others.

    The relation is decided on its atom rows, in time quadratic in the atom
    count; the report, least witnesses included, equals the element scan's
    (tests/test_oracles.py keeps the scan).  Only a ContactRelation has rows,
    so any other relation is refused.
    """
    if kind not in AXIOM_KINDS:
        raise StructureError(f"unknown axiom kind {kind!r}; expected one of {AXIOM_KINDS}")
    require_rows(relation, "the axiom check")
    violations = []
    for check in _ROW_CHECKS[kind]:
        found = check(relation, relation.algebra)
        if found is not None:
            violations.append(found)
    return Report(f"{kind} axioms", tuple(violations))


def _witness(algebra, axiom, *masks) -> Violation:
    return Violation(axiom, tuple(algebra.names_of(m) for m in masks))


# Atom-row decisions.  Write R(a) for the join of the rows of a's atoms, so
# that a touches b exactly when R(a) meets b.  C1-C4 need no check: the rows
# are reflexive and symmetric (ContactRelation.__post_init__), so a nonzero a
# touches itself, 0 touches nothing, contact is symmetric, and "R(a) meets
# b or c" is additive in b.  Nor do LL1-LL4 and LL7, as inner(b) lies below
# b, grows with b and takes joins, and symmetric rows make << self-dual under
# complement.  A failing first element of C5, LL5, LL6 or BC1-BC3 has a
# failing atom, so each least witness starts with an atom.


def _row_c5(r, alg):
    # The scan's witness is the least (a, b) with R(a) disjoint from b and
    # R(a) meeting R(b).  Any such pair shrinks to atoms i of a and j of b
    # that still witness it, so the least a is {i} for the least atom i with
    # R(R({i})) larger than R({i}), and the least b is {j} for the least
    # atom j in the difference.
    for i, row in enumerate(r.rows):
        outside = atom_join(r.rows, row) & ~row
        if outside:
            return _witness(alg, "C5", 1 << i, outside & -outside)
    return None


def _row_c6(r, alg):
    # a is a witness when it is not top and every nonzero b touches it, that
    # is, when a meets every row.  Those a are closed upwards, so the least
    # one is found by dropping atoms from top, highest first, while it still
    # meets every row; when no atom can be dropped, C6 holds.
    a = alg.top
    for i in reversed(range(alg.atom_count)):
        smaller = a & ~(1 << i)
        if all(row & smaller for row in r.rows):
            a = smaller
    return None if a == alg.top else _witness(alg, "C6", a)


def _row_con(r, alg):
    # a misses its complement exactly when R(a) = a, i.e. when a is a union
    # of connected components of the atom graph.  Components are disjoint,
    # so the least such a is the component with the lowest highest atom.
    left = alg.top
    least = alg.top
    while left:
        component = left & -left
        grown = atom_join(r.rows, component)
        while grown != component:
            component = grown
            grown = atom_join(r.rows, component)
        least = min(least, component)
        left &= ~component
    return None if least == alg.top else _witness(alg, "CON", least)


def interpolation_gap(relation: ContactRelation, bound: int) -> int | None:
    """Least atom j of bound with no b below bound such that {j} << b << R[j];
    the largest candidate b is inner(R[j]) & bound, and {j} << b exactly when
    R[j] lies in b.  Decides BC1, and LL5 at top."""
    rows, top = relation.rows, relation.algebra.top
    return next((j for j, row in enumerate(rows)
                 if bound >> j & 1 and row & ~(bound & ~atom_join(rows, top ^ row))), None)


def isolation_gap(relation: ContactRelation, bound: int) -> int | None:
    """Least atom i with no nonzero b below bound well inside {i}, that is,
    unless R[i] = {i} and i lies in bound.  Decides BC3, and LL6 at top."""
    return next((i for i, row in enumerate(relation.rows)
                 if row != 1 << i or not bound >> i & 1), None)


def _row_ll5(r, alg):
    j = interpolation_gap(r, alg.top)
    return None if j is None else _witness(alg, "LL5", 1 << j, r.rows[j])


def _row_ll6(r, alg):
    i = isolation_gap(r, alg.top)
    return None if i is None else _witness(alg, "LL6", 1 << i)


_ROW_CHECKS = {"CA": (), "NCA": (_row_c5, _row_c6), "CON": (_row_con,),
               "LL": (_row_ll5, _row_ll6)}
