"""Cluster theory: condition checking, enumeration, bounded filtering.

A cluster is a maximal pairwise-touching, join-prime set of elements; on a
finite powerset algebra every such set is the up-closure of a nonempty atom
set, so clusters are represented by their atom support.

supports_cluster decides on the atom rows whether a support's up-closure is
a cluster, and it is the one cluster test of both enumeration backends.
Both take a ContactRelation only and give the same ascending list: the
clique path keeps the maximal cliques of the atom graph that pass it, and
the grill path, on which dual spaces are still built, tests every atom
support under TABLE_ELEMENT_CAP.  check_cluster, the element-level test,
accepts any relation with the shared query surface; the package runs it
only to name the witness of a support that fails supports_cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .contact import ContactQuery, ContactRelation, require_rows
from .errors import CapExceeded, StructureError
from .localcontact import LocalContactAlgebra, alexandroff_extension
from .report import Report, Violation

# the grill scans 2^n supports for a dual space whose region table has 2^n
# entries, one output line each under dualize
TABLE_ELEMENT_CAP = 1 << 16


@dataclass(frozen=True)
class Cluster:
    """Up-closure of a nonempty atom support, tied to its ambient relation."""

    relation: ContactQuery
    support: int

    def __post_init__(self):
        self.relation.algebra.check_element(self.support)
        if self.support == 0:
            raise StructureError("cluster support must be nonempty")

    def contains(self, a: int) -> bool:
        return a & self.support != 0

    def members(self) -> tuple[int, ...]:
        return tuple(a for a in self.relation.algebra.elements() if a & self.support)

    def support_names(self) -> tuple[str, ...]:
        return self.relation.algebra.names_of(self.support)


def check_cluster(relation: ContactQuery, members: Iterable[int]) -> Report:
    """Direct element-level test of the three cluster conditions.

    K1: members touch pairwise.  K2: a member join has a member summand.
    K3: anything touching every member is itself a member.  Reports the first
    violated condition with its least witness.
    """
    alg = relation.algebra
    sigma = sorted({alg.check_element(a) for a in members})
    if not sigma:
        return Report("cluster conditions", (Violation("K1", ()),),
                      notes=("a cluster must be nonempty",))
    member_set = set(sigma)

    for a in sigma:
        for b in sigma:
            if not relation.contact(a, b):
                return Report("cluster conditions",
                              (Violation("K1", (alg.names_of(a), alg.names_of(b))),))

    for a in alg.elements():
        for b in alg.elements():
            if (a | b) in member_set and a not in member_set and b not in member_set:
                return Report("cluster conditions",
                              (Violation("K2", (alg.names_of(a), alg.names_of(b))),))

    for a in alg.elements():
        if a in member_set:
            continue
        if all(relation.contact(a, b) for b in sigma):
            return Report("cluster conditions", (Violation("K3", (alg.names_of(a),)),))

    return Report("cluster conditions")


def supports_cluster(rows: tuple[int, ...], s: int) -> bool:
    """Is the up-closure of the nonempty atom set s a cluster?

    K1 holds exactly when s is a clique, diagonal included.  K2 holds for
    every up-closure.  K3 fails exactly when the largest non-member, the
    complement of s, touches every atom of s, so it holds exactly when some
    atom of s has its whole row inside s (none does when s is empty).
    """
    closed = False
    for i, row in enumerate(rows):
        if s >> i & 1:
            if row & s != s:
                return False
            closed = closed or row & ~s == 0
    return closed


def maximal_cliques(neighbour_rows: tuple[int, ...]) -> list[int]:
    """All maximal cliques of an undirected graph, as vertex masks.

    Pivoting Bron-Kerbosch over bit masks; neighbour_rows may carry the
    diagonal, it is stripped internally.
    """
    n = len(neighbour_rows)
    adj = tuple(row & ~(1 << i) for i, row in enumerate(neighbour_rows))
    out: list[int] = []

    def bits(mask: int):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def walk(r: int, p: int, x: int) -> None:
        if not p and not x:
            out.append(r)
            return
        pool = p | x
        pivot = max(bits(pool), key=lambda u: bin(p & adj[u]).count("1"))
        for v in bits(p & ~adj[pivot]):
            bit = 1 << v
            walk(r | bit, p & adj[v], x & adj[v])
            p &= ~bit
            x |= bit

    walk(0, (1 << n) - 1 if n else 0, 0)
    return sorted(out)


def enumerate_clusters(relation: ContactRelation) -> list[Cluster]:
    """All clusters, canonically ordered by ascending support mask.

    Every cluster support is a clique of the atom graph, and a maximal one:
    an atom touching all of s would make the complement of s touch every
    member.  So the maximal cliques are filtered by supports_cluster.
    """
    rows = require_rows(relation, "cluster enumeration").rows
    supports = [s for s in maximal_cliques(rows) if supports_cluster(rows, s)]
    return [Cluster(relation, s) for s in sorted(supports)]


def grill_clusters(relation: ContactRelation) -> list[Cluster]:
    """Cluster enumeration by scanning every nonempty atom support.

    Every cluster of a finite powerset algebra is the up-closure of its atom
    support, and supports_cluster is exact for up-closures, so testing each
    support in ascending order gives every cluster in canonical order.
    TABLE_ELEMENT_CAP bounds the scan together with the region table of the
    dual space built on it.
    """
    rows = require_rows(relation, "grill enumeration").rows
    alg = relation.algebra
    if alg.size > TABLE_ELEMENT_CAP:
        raise CapExceeded(
            f"grill enumeration capped at {TABLE_ELEMENT_CAP} elements, got {alg.size}")
    return [Cluster(relation, s) for s in range(1, alg.size) if supports_cluster(rows, s)]


def bounded_clusters(structure: LocalContactAlgebra) -> list[Cluster]:
    """Clusters of the Alexandroff extension that contain a bounded element.

    For an up-closure, meeting the ideal is the same as the support meeting
    the generator, which is what is tested here; the equivalence with the
    element-level definition is covered by the unit tests.
    """
    extension = alexandroff_extension(structure)
    gen = structure.ideal.generator
    return [c for c in enumerate_clusters(extension) if c.support & gen]
