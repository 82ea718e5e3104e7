"""Local contact structures: a contact relation together with a bounded ideal.

Every ideal of a finite powerset algebra is principal, so the ideal is stored
as a single generator element; membership is one mask comparison and closure
properties need no maintenance.

Validity (the three boundedness axioms) is checked by check_lca_axioms, never
assumed by construction: several operations here are defined for arbitrary
(contact, ideal) pairs and the tests deliberately probe invalid ones.  A
structure is a frozen value, so its BC report, its Alexandroff extension, its
dual space and its double-dual certificate are computed once per structure
object and kept on it; the gates read the kept report.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .boolalg import FiniteBooleanAlgebra
from .contact import (ContactRelation, check_axioms, interpolation_gap, isolation_gap,
                      overlap_contact)
from .errors import Refusal, StructureError
from .report import Report, Violation


@dataclass(frozen=True)
class BoundedIdeal:
    """Principal ideal of everything below a generator element."""

    algebra: FiniteBooleanAlgebra
    generator: int

    def __post_init__(self):
        self.algebra.check_element(self.generator)

    def contains(self, a: int) -> bool:
        return self.algebra.le(a, self.generator)

    @property
    def improper(self) -> bool:
        return self.generator == self.algebra.top


@dataclass(frozen=True)
class LocalContactAlgebra:
    contact: ContactRelation
    ideal: BoundedIdeal

    def __post_init__(self):
        if self.ideal.algebra is not self.contact.algebra and self.ideal.algebra != self.contact.algebra:
            raise StructureError("ideal and contact relation live on different algebras")

    @property
    def algebra(self) -> FiniteBooleanAlgebra:
        return self.contact.algebra

    def bounded(self, a: int) -> bool:
        return self.ideal.contains(a)

    @property
    def improper(self) -> bool:
        return self.ideal.improper

    @cached_property
    def bc_report(self) -> Report:
        """check_lca_axioms of this structure, computed once."""
        return check_lca_axioms(self)

    @cached_property
    def extension(self) -> ContactRelation:
        """alexandroff_extension of this structure, built once."""
        rel = self.contact
        cogen = self.algebra.complement(self.ideal.generator)
        if not cogen:
            return rel
        rows = tuple(row | cogen if cogen >> i & 1 else row for i, row in enumerate(rel.rows))
        return ContactRelation(rel.algebra, rows)

    @cached_property
    def dual(self):
        """Dual space, built once without the BC gate; see duality.dual_space."""
        from .duality import _build_dual_space

        return _build_dual_space(self)

    @cached_property
    def double_dual(self) -> Report:
        """verify_double_dual of this structure and its dual, computed once;
        callers apply the BC gate first (see duality.roundtrip_report)."""
        from .duality import verify_double_dual

        return verify_double_dual(self, self.dual)


def nca_as_lca(contact: ContactRelation) -> LocalContactAlgebra:
    """View a plain contact algebra as a local one with the improper ideal."""
    return LocalContactAlgebra(contact, BoundedIdeal(contact.algebra, contact.algebra.top))


def check_lca_axioms(structure: LocalContactAlgebra) -> Report:
    """Check the three boundedness axioms on the atom rows.

    BC1: bounded elements interpolate into the ideal below anything they are
    well inside of.  BC2: contact is witnessed through a bounded trace of the
    second argument.  BC3: every nonzero element has a nonzero bounded element
    well inside it.  Each is decided in time quadratic in the atom count, with
    the least witnesses of the scan over bounded elements and element pairs.
    """
    alg = structure.algebra
    rows = structure.contact.rows
    gen = structure.ideal.generator
    violations = []

    j = interpolation_gap(structure.contact, gen)
    if j is not None:  # the least c that {j} is well inside is R[j]
        violations.append(Violation("BC1", (alg.names_of(1 << j), alg.names_of(rows[j]))))

    # a touching b misses b & gen exactly when R(a) meets b outside gen
    outside = next(((1 << i, row & ~gen) for i, row in enumerate(rows) if row & ~gen), None)
    if outside is not None:
        atom, rest = outside
        violations.append(Violation("BC2", (alg.names_of(atom), alg.names_of(rest & -rest))))

    i = isolation_gap(structure.contact, gen)
    if i is not None:
        violations.append(Violation("BC3", (alg.names_of(1 << i),)))

    return Report("BC axioms", tuple(violations))


def alexandroff_extension(structure: LocalContactAlgebra) -> ContactRelation:
    """Contact enlarged so that any two unbounded elements touch.

    This is the algebraic one-point compactification: with the improper ideal
    nothing changes, otherwise unbounded elements acquire mutual contact.  An
    element is unbounded exactly when it meets the complement of the ideal
    generator, so the extension is the atom relation whose rows for atoms of
    that complement gain the whole complement; contact stays additive.  The
    relation is built once per structure (LocalContactAlgebra.extension), so
    every caller shares it and its tables.
    """
    return structure.extension


def alexandroff_certificate(structure: LocalContactAlgebra) -> Report:
    """Full NCA check of the Alexandroff extension."""
    return check_axioms(alexandroff_extension(structure), "NCA")


def infinity_cluster(structure: LocalContactAlgebra, *, check: bool = True):
    """The set of unbounded elements, packaged as a cluster at infinity.

    Returns None when the ideal is improper (everything is bounded).  The
    unbounded elements are exactly those meeting the generator's complement,
    so their up-set is supported on the co-generator atoms.  With check=True
    the cluster conditions are decided on the Alexandroff extension's rows,
    and a Refusal carries check_cluster's report if they fail; structures
    that violate the boundedness axioms genuinely can fail here.
    """
    from .clusters import Cluster, check_cluster, supports_cluster

    if structure.improper:
        return None
    support = structure.algebra.complement(structure.ideal.generator)
    cluster = Cluster(alexandroff_extension(structure), support)
    if check and not supports_cluster(cluster.relation.rows, support):
        raise Refusal("set of unbounded elements is not a cluster here",
                      check_cluster(cluster.relation, cluster.members()))
    return cluster


def overlap_companion(
    structure: LocalContactAlgebra,
    *,
    improper_target: bool = False,
    validate: bool = True,
):
    """Same algebra and ideal with contact weakened to plain overlap.

    Returns the companion structure and the identity-carried morphism into
    it.  improper_target forces the companion's ideal to be everything, which
    is the classic way to break the ideal-covering morphism axiom when the
    source ideal is proper.  validate=False skips the precondition check so
    that deliberately invalid sources can be paired with the companion.
    """
    from .duality import AlgebraMorphism

    if validate and not structure.bc_report.ok:
        raise Refusal("input fails the boundedness axioms", structure.bc_report)
    alg = structure.algebra
    ideal = BoundedIdeal(alg, alg.top) if improper_target else structure.ideal
    companion = LocalContactAlgebra(overlap_contact(alg), ideal)
    identity = AlgebraMorphism(structure, companion, tuple(alg.elements()))
    return companion, identity
