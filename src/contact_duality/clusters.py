"""Cluster theory: condition checking, enumeration, bounded filtering.

A cluster is a maximal pairwise-touching, join-prime set of elements; on a
finite powerset algebra every such set is the up-closure of a nonempty atom
set, so clusters are represented by their atom support.

Two enumeration backends share one output contract.  The clique path walks
maximal cliques of the atom graph with pivoting and keeps those whose up
-closure is genuinely maximal; it is the fast path but only applies to atom
-backed relations.  The grill path iterates all atom supports and tests the
cluster conditions directly at element level; it works for any relation with
the shared query surface and doubles as the independent test oracle for the
clique path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .contact import ContactQuery, ContactRelation, ElementContact, check_axioms
from .errors import CapExceeded, Refusal, StructureError
from .localcontact import LocalContactAlgebra, alexandroff_extension
from .report import Report, Violation

TABLE_ELEMENT_CAP = 1 << 16
UNVERIFIED_TABLE_ATOM_CAP = 6  # additivity re-check is cubic in element count


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


def is_cluster(relation: ContactQuery, members: Iterable[int]) -> bool:
    return check_cluster(relation, members).ok


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


def enumerate_clusters(relation: ContactQuery) -> list[Cluster]:
    """All clusters, canonically ordered by ascending support mask.

    Atom-backed relations go through maximal-clique search: every cluster
    support is a maximal clique, but a maximal clique only supports a cluster
    when some atom's whole contact row stays inside it (otherwise the atoms
    outside jointly touch everything and defeat maximality), so cliques are
    filtered by that condition.  Element-backed relations go through the
    grill brute force.
    """
    if isinstance(relation, ContactRelation):
        n = relation.algebra.atom_count
        cliques = maximal_cliques(relation.rows)
        supports = [s for s in cliques
                    if any(relation.rows[i] & ~s == 0 for i in range(n) if s >> i & 1)]
        return [Cluster(relation, s) for s in sorted(supports)]
    return grill_clusters(relation)


def grill_clusters(relation: ContactQuery) -> list[Cluster]:
    """Brute-force cluster enumeration over all nonempty atom supports.

    Every join-prime upward-closed set of a finite powerset algebra is the
    up-closure of an atom set, so scanning supports is exhaustive.  Join
    primality of an up-closure holds by construction (non-members form a
    principal down-set), which the unit tests re-verify against the full
    condition checker; here only pairwise contact and maximality are tested,
    at element level.
    """
    alg = relation.algebra
    if alg.size > TABLE_ELEMENT_CAP:
        raise CapExceeded(
            f"grill enumeration capped at {TABLE_ELEMENT_CAP} elements, got {alg.size}")
    if isinstance(relation, ElementContact):
        if alg.atom_count > UNVERIFIED_TABLE_ATOM_CAP:
            raise Refusal(
                "additivity of an unverified element relation cannot be checked at this size")
        ca = check_axioms(relation, "CA")
        if not ca.ok:
            raise Refusal("element relation fails the contact axioms", ca)

    contact = relation.contact
    elements = range(alg.size)
    found = []
    for support in range(1, alg.size):
        members = [a for a in elements if a & support]
        ok = True
        for a in members:
            if not ok:
                break
            for b in members:
                if not contact(a, b):
                    ok = False
                    break
        if not ok:
            continue
        for a in elements:
            if a & support:
                continue
            if all(contact(a, b) for b in members):
                ok = False
                break
        if ok:
            found.append(support)
    return [Cluster(relation, s) for s in found]


def bounded_clusters(structure: LocalContactAlgebra) -> list[Cluster]:
    """Clusters of the Alexandroff extension that contain a bounded element.

    For an up-closure, meeting the ideal is the same as the support meeting
    the generator, which is what is tested here; the equivalence with the
    element-level definition is covered by the unit tests.
    """
    extension = alexandroff_extension(structure)
    gen = structure.ideal.generator
    return [c for c in enumerate_clusters(extension) if c.support & gen]
