"""The two contravariant functors and the morphism calculus.

Morphisms between local contact structures are total element tables checked
against the six morphism axioms by the same passes over every table, so the
atom caps bound the check.  Composition is table composition followed
by regularization (each value replaced by the join of the map over the lower
well-inside set), which keeps the sixth axiom stable.

Direction bookkeeping is fixed once: the dual of a space map f from X to Y is
a morphism from the regular closed structure of Y to that of X, and the dual
of a morphism from A to B is a space map from the dual space of B to the dual
space of A.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import and_

from .boolalg import atom_unions, subset_joins
from .clusters import Cluster, check_cluster, grill_clusters, supports_cluster
from .errors import IntegrityError, Refusal, StructureError
from .localcontact import LocalContactAlgebra, alexandroff_extension, nca_as_lca
from .report import Report, Violation
from .spaces import (
    FiniteSpace,
    RegularClosedAlgebra,
    SpaceMap,
    map_predicates,
    rc_algebra,
    rc_law_violation,
    space_predicates,
)

MORPHISM_KINDS = ("PAL", "DVAL")


@dataclass(frozen=True)
class AlgebraMorphism:
    """Total function between local contact structures, one value per element."""

    source: LocalContactAlgebra
    target: LocalContactAlgebra
    table: tuple[int, ...]

    def __post_init__(self):
        if len(self.table) != self.source.algebra.size:
            raise StructureError("morphism table must cover every source element")
        for v in self.table:
            self.target.algebra.check_element(v)

    def __call__(self, a: int) -> int:
        self.source.algebra.check_element(a)
        return self.table[a]


def identity_morphism(structure: LocalContactAlgebra) -> AlgebraMorphism:
    return AlgebraMorphism(structure, structure, tuple(structure.algebra.elements()))


def check_morphism(phi: AlgebraMorphism, kind: str = "PAL") -> Report:
    """Check the six morphism axioms; report the least witness per axiom.

    PAL reads the declared ideals.  DVAL is the improper-ideal reading of the
    same axioms: with every element bounded the two ideal axioms trivialize
    and the extension used in the supremum axiom collapses to the plain
    contact, which is the classical compact-side morphism notion.

    Every table is decided by the same passes over it, in O((n + m) * 2^n)
    steps for n source and m target atoms, and the report, least witnesses
    included, is the walk's over all element pairs (tests/test_oracles.py
    keeps that walk as oracle_check_morphism).  One pass per source atom
    builds the subset joins of the table (PAL6 reads them at the extension's
    inner parts), the superset joins of what its values miss (PAL3 reads them
    at R(a)) and the target atoms each source atom moves (PAL2).  PAL4 is a
    greedy search over the bounded images, from the generator's highest atom
    down; only the least failing element of an axiom is walked to name the
    rest of its witness.
    """
    if kind not in MORPHISM_KINDS:
        raise StructureError(f"unknown morphism kind {kind!r}; expected one of {MORPHISM_KINDS}")
    src, tgt = phi.source, phi.target
    if kind == "DVAL":
        src, tgt = nca_as_lca(src.contact), nca_as_lca(tgt.contact)
    A, B = src.algebra, tgt.algebra
    table, top, size = list(phi.table), A.top, A.size
    src_gen, tgt_gen = src.ideal.generator, tgt.ideal.generator
    bounded = [a for a in range(size) if a | src_gen == src_gen]
    found = []
    if table[0] != 0:
        found.append(Violation("PAL1", (B.names_of(table[0]),)))

    # One pass per source atom over the pairs (a, a | bit) builds three
    # tables: joins[c], the join of table[b] over every b below c; gaps[c],
    # the join of what table[b] misses over every b above c; and moves[j],
    # the target atoms whose holding changes when atom j is added.
    joins, gaps, moves = table[:], [B.top ^ v for v in table], []
    for j in range(A.atom_count):
        bit, moved = 1 << j, 0
        for low in range(0, size, bit << 1):
            for a in range(low, low | bit):
                moved |= table[a] ^ table[a | bit]
                joins[a | bit] |= joins[a]
                gaps[a] |= gaps[a | bit]
        moves.append(moved)

    # PAL2: some b fails for a when an atom outside a moves a target atom of
    # table[a].  The only other way for b to fail is that some c below a has
    # a value outside table[a]; an atom of a outside c then moves a target
    # atom of table[c], so c fails the first way.  The least a with a failing
    # b is therefore the least a of the first kind.
    outside = atom_unions(moves)[::-1]  # entry a: the atoms moved from outside a
    if any(map(and_, outside, table)):
        a = next(a for a in range(size) if outside[a] & table[a])
        b = next(b for b in range(size) if table[a & b] != table[a] & table[b])
        found.append(Violation("PAL2", (A.names_of(a), A.names_of(b))))

    # PAL3: a is well inside b exactly when R(a) lies below b, and the
    # complement of table[top ^ a] is well inside table[b] exactly when
    # table[b] holds all that the complement touches; some b above R(a)
    # fails exactly when gaps[R(a)] meets what it touches
    reach, eta = src.contact.reach_table(), tgt.contact
    for a in bounded:
        touched, least = B.top ^ eta.inner(table[top ^ a]), reach[a]
        if touched & gaps[least]:
            rest, extra = top ^ least, 0
            while touched | table[least | extra] == table[least | extra]:  # R(a) and up
                extra = extra - rest & rest
            found.append(Violation("PAL3", (A.names_of(a), A.names_of(least | extra))))
            break

    # PAL4: the least bounded target element below no bounded image.  It
    # exists exactly when no image holds the whole generator, and it holds
    # atom t exactly when the atoms it holds above t, with every generator
    # atom below t, lie below some image.
    images = {table[a] & tgt_gen for a in bounded}
    if tgt_gen not in images:
        uncovered = 0
        for t in reversed(B.atoms_of(tgt_gen)):
            rest = uncovered | tgt_gen & (1 << t) - 1
            if any(rest | image == image for image in images):
                uncovered |= 1 << t
        found.append(Violation("PAL4", (B.names_of(uncovered),)))

    for a in bounded:
        if table[a] | tgt_gen != tgt_gen:
            found.append(Violation("PAL5", (A.names_of(a),)))
            break

    lower = _lower_joins(src, joins)
    if lower != table:
        a = next(a for a, sup in enumerate(lower) if sup != table[a])
        found.append(Violation("PAL6", (A.names_of(a),)))

    subject = "PAL axioms" if kind == "PAL" else "DVAL axioms (improper-ideal reading)"
    return Report(subject, tuple(found))


def _lower_joins(structure: LocalContactAlgebra, joins: list[int]) -> list[int]:
    """For each a ascending, the join of table[b] over the b well inside a in
    the Alexandroff extension of the structure, given joins =
    subset_joins(table): those b are exactly the elements below the
    extension's inner(a), so it is entry inner(a) of joins, for every table."""
    top = len(joins) - 1
    return [joins[top ^ r] for r in reversed(alexandroff_extension(structure).reach_table())]


def regularize(phi: AlgebraMorphism) -> AlgebraMorphism:
    """Replace each value by the join of the map over the lower well-inside set.

    The well-inside relation is taken in the Alexandroff extension of the
    source.  On meet-preserving maps this is idempotent and forces the
    supremum axiom.
    """
    lower = _lower_joins(phi.source, subset_joins(phi.table))
    return AlgebraMorphism(phi.source, phi.target, tuple(lower))


def compose(second: AlgebraMorphism, first: AlgebraMorphism) -> AlgebraMorphism:
    """Diamond composition: apply first, then second, then regularize."""
    if first.target != second.source:
        raise StructureError("morphisms do not compose: middle structures differ")
    raw = AlgebraMorphism(
        first.source, second.target,
        tuple(second.table[first.table[a]] for a in first.source.algebra.elements()))
    return regularize(raw)


@dataclass(frozen=True)
class DualSpace:
    """Dual space of a local contact structure, with the region table.

    Points are the bounded clusters of the Alexandroff extension in canonical
    support order (every cluster, when the ideal is improper).  regions maps
    each source element to the mask of points containing it; the topology is
    generated from those regions as a closed base.
    """

    source: LocalContactAlgebra
    space: FiniteSpace
    clusters: tuple[Cluster, ...]
    regions: tuple[int, ...]
    case: str
    infinity: Cluster | None

    def region_of(self, a: int) -> int:
        self.source.algebra.check_element(a)
        return self.regions[a]

    @cached_property
    def point_index(self) -> dict[int, int]:
        """Index of each point, keyed by the atom support of its cluster."""
        return {c.support: i for i, c in enumerate(self.clusters)}


def dual_space(structure: LocalContactAlgebra, *, validate: bool = True) -> DualSpace:
    """Build the dual space from clusters of the Alexandroff extension.

    With a proper ideal only the bounded clusters are points and the cluster
    of unbounded elements is set aside; with the improper ideal every cluster
    is a point.  validate=False skips the boundedness-axiom gate so that the
    construction can be explored on structures that fail it.

    The dual space and the BC report are built once per structure object and
    kept on it (LocalContactAlgebra.dual, .bc_report): repeated calls return
    the same DualSpace, and a structure failing the axioms is refused on every
    validated call, whatever unvalidated calls came before.
    """
    if validate and not structure.bc_report.ok:
        raise Refusal("dual space requires the boundedness axioms", structure.bc_report)
    return structure.dual


def _build_dual_space(structure: LocalContactAlgebra) -> DualSpace:
    alg = structure.algebra
    extension = alexandroff_extension(structure)
    everything = grill_clusters(extension)
    if structure.improper:
        case = "compact"
        points = everything
        infinity = None
    else:
        case = "local"
        gen = structure.ideal.generator
        points = [c for c in everything if c.support & gen]
        infinity = Cluster(extension, alg.complement(gen))
    if not points:
        raise StructureError("dual space has no points; the structure is degenerate here")

    names = tuple("{" + ",".join(c.support_names()) + "}" for c in points)
    # The region of a holds the points whose support meets a: it is the join
    # of the regions of a's atoms.
    regions = atom_unions([sum(1 << i for i, c in enumerate(points) if c.support >> k & 1)
                           for k in range(alg.atom_count)])
    # The regions generate the closed sets under union and intersection, so
    # point j lies in the least open set around point i exactly when every
    # region holding j holds i, that is, when j's support lies inside i's.
    nbhd = [sum(1 << j for j, d in enumerate(points) if d.support & ~c.support == 0)
            for c in points]
    space = FiniteSpace(names, tuple(nbhd))
    return DualSpace(structure, space, tuple(points), regions, case, infinity)


def verify_double_dual(structure: LocalContactAlgebra, dual: DualSpace) -> Report:
    """Certify that the region table is an isomorphism onto the double dual.

    Checks bijectivity onto the regular closed sets of the dual space, then
    the Boolean homomorphism laws and agreement of contact with intersection
    (spaces.rc_law_violation, decided on the atom regions; its element walk
    runs only to name the least failing elements), then the bounded-element
    correspondence.  In the compact case the bounded correspondence holds
    identically because every regular closed set of a finite space is
    compact; that is recorded as a note.
    roundtrip_report reads this report from LocalContactAlgebra.double_dual,
    which computes it once per structure.
    """
    alg = structure.algebra
    violations = []
    notes = []

    if len(set(dual.regions)) != alg.size:
        violations.append(Violation("injective"))
    rc = rc_algebra(dual.space)
    if sorted(dual.regions) != sorted(rc.carrier):
        violations.append(Violation("onto-regular-closed"))

    if not violations:
        law = rc_law_violation(dual.regions, structure.contact, rc)
        if law is not None:
            violations.append(law)

    if dual.case == "compact":
        notes.append("bounded correspondence holds identically: "
                     "finite dual spaces are compact, so compact regular closed "
                     "sets are all regular closed sets")
    else:
        for a in alg.elements():
            if not structure.bounded(a):
                violations.append(Violation("bounded-correspondence", (alg.names_of(a),)))
                break

    return Report("double dual isomorphism", tuple(violations), tuple(notes))


@dataclass(frozen=True)
class PointEmbedding:
    """Canonical map sending a point to the set of regular closed sets holding it."""

    space: FiniteSpace
    rc: RegularClosedAlgebra
    sigma: tuple[int, ...]  # per point, the support of that set: the atoms holding it
    dual: DualSpace | None
    map: SpaceMap | None
    homeomorphism: bool
    report: Report


def point_embedding(space: FiniteSpace) -> PointEmbedding:
    """Compute the canonical point map into the dual of the regular closed side.

    For a Hausdorff (hence discrete) finite space the map is matched against
    the dual space and certified a homeomorphism.  Other spaces still get the
    per-point tables, but no claim is made: the certificate is withheld with a
    note instead of being faked.  Computed once per space object and kept on
    it (FiniteSpace.embedding).
    """
    return space.embedding


def _build_point_embedding(space: FiniteSpace) -> PointEmbedding:
    rc = rc_algebra(space)
    sigma = tuple(sum(1 << k for k, atom in enumerate(rc.atoms) if atom >> x & 1)
                  for x in range(space.point_count))
    if not space_predicates(space).hausdorff:
        return PointEmbedding(
            space, rc, sigma, None, None, False,
            Report("point embedding", notes=("map computed, homeomorphism not asserted: "
                                             "space is not Hausdorff",)))

    dual = dual_space(rc.lca())
    assignment = []
    violations = []
    for x in range(space.point_count):
        if sigma[x] not in dual.point_index:
            violations.append(Violation("point-to-cluster", (space.points[x],)))
            break
        assignment.append(dual.point_index[sigma[x]])
    if violations:
        return PointEmbedding(space, rc, sigma, dual, None, False,
                              Report("point embedding", tuple(violations)))

    t = SpaceMap(space, dual.space, tuple(assignment))
    if len(set(assignment)) != dual.space.point_count or len(assignment) != dual.space.point_count:
        violations.append(Violation("bijective"))
    preds = map_predicates(t)
    if not preds.continuous:
        violations.append(Violation("continuous"))
    if not violations:
        inverse = SpaceMap(dual.space, space,
                           tuple(assignment.index(i) for i in range(dual.space.point_count)))
        if not map_predicates(inverse).continuous:
            violations.append(Violation("inverse-continuous"))
    ok = not violations
    return PointEmbedding(space, rc, sigma, dual, t, ok,
                          Report("point embedding homeomorphism", tuple(violations)))


def dual_of_map(f: SpaceMap) -> AlgebraMorphism:
    """Dual morphism of a perfect map: closure of preimage of interior.

    Contravariant: the result runs from the regular closed structure of the
    map's target to that of its source.  Non-perfect maps are refused with
    the failing predicate named.
    """
    preds = map_predicates(f)
    if not preds.perfect:
        failed = "continuous" if not preds.continuous else "closed"
        raise Refusal(f"map is not perfect: fails the {failed} predicate")
    rc_src = rc_algebra(f.source)
    rc_tgt = rc_algebra(f.target)
    # every entry is read from tables: the interior of P is the complement
    # of the closure of its complement, and preimage preserves unions
    top, cl_tgt, cl_src = f.target.everything, f.target.closure_table, f.source.closure_table
    pre = atom_unions([f.preimage(1 << y) for y in range(f.target.point_count)])
    table = tuple(rc_src.to_element(cl_src[pre[top ^ cl_tgt[top ^ pointset]]])
                  for pointset in rc_tgt.pointsets)
    return AlgebraMorphism(rc_tgt.lca(), rc_src.lca(), table)


def dual_of_morphism(phi: AlgebraMorphism) -> SpaceMap:
    """Dual space map of a morphism, defined cluster by cluster.

    For each point of the dual of the morphism's target the defining set is
    computed, certified on the atom rows to be a bounded cluster of the
    morphism's source side (anything else is an internal bug, not bad input),
    and matched by its support to a point of the source's dual space.  Only
    a set that fails is walked by check_cluster, to name the witness.
    """
    report = check_morphism(phi, "PAL")
    if not report.ok:
        raise Refusal("dual of a morphism requires the morphism axioms", report)
    src_dual = dual_space(phi.source)
    tgt_dual = dual_space(phi.target)
    A = phi.source.algebra
    B = phi.target.algebra
    ext_src = alexandroff_extension(phi.source)
    # a is traced when the cluster holds the complement of phi(b) for every b
    # well inside the complement of a.  PAL2 has passed, so phi is monotone
    # and those complements all lie above the one at the largest such b,
    # inner(complement of a); a cluster is up-closed, so that one decides.
    least = [B.complement(phi.table[ext_src.inner(A.complement(a))]) for a in A.elements()]

    atoms, elements, index = range(A.atom_count), range(A.size), src_dual.point_index
    assignment = []
    for cluster in tgt_dual.clusters:
        traced = [x & cluster.support != 0 for x in least]
        support = sum(1 << i for i in atoms if traced[1 << i])
        # a point is the up-closure of its support, and a cluster
        if (traced != [a & support != 0 for a in elements]
                or not supports_cluster(ext_src.rows, support)):
            check = check_cluster(ext_src, (a for a, t in enumerate(traced) if t))
            raise IntegrityError(f"traced point set is not a cluster: {check.render()}")
        if not support & phi.source.ideal.generator:
            raise IntegrityError("traced cluster is not bounded")
        if support not in index:
            raise IntegrityError("traced cluster missing from the dual point list")
        assignment.append(index[support])

    result = SpaceMap(tgt_dual.space, src_dual.space, tuple(assignment))
    preds = map_predicates(result)
    if not preds.perfect:
        raise IntegrityError("dual of a morphism failed the perfectness certificate")
    return result


@dataclass(frozen=True)
class EmbeddingResult:
    is_embedding: bool
    report: Report


def check_closed_embedding(phi: AlgebraMorphism) -> EmbeddingResult:
    """Algebraic test for the dual of a map being a closed embedding.

    EMB1: every well-inside pair a << b on the morphism's target side
    interpolates through a value.  EMB2: a value is well inside another
    exactly when some arguments with those values are.  Well-inside is taken
    in each side's Alexandroff extension; the report names each condition's
    least failing pair.

    The gates require PAL, and BC on both sides.  BC3 then leaves every row
    its own atom and the ideal improper, so each extension is the relation
    and well-inside is the order; that premise is read off the extension
    rows, and a row breaking it is an internal bug.  So EMB1 fails exactly at
    (a, a) for the least a that is not a value: a value a passes with v = a,
    and any other a fails at b = a, the least b above it.  EMB2 never fails:
    if phi(a) <= phi(b), then phi(a & b) = phi(a) by PAL2, so a & b lies in
    the fibre of phi(a) and below b; conversely a1 <= b1 gives
    phi(a1) <= phi(b1), a meet-preserving table being monotone.
    """
    pal = check_morphism(phi, "PAL")
    if not pal.ok:
        raise Refusal("closed embedding test requires a morphism", pal)
    for side in (phi.source, phi.target):
        if not side.bc_report.ok:
            raise Refusal("closed embedding test requires validated structures",
                          side.bc_report)
        if any(row != 1 << i for i, row in enumerate(alexandroff_extension(side).rows)):
            raise IntegrityError("validated structure has a row that is not its own atom")

    A = phi.target.algebra
    missing = min(set(A.elements()) - set(phi.table), default=None)
    violations = () if missing is None else (Violation("EMB1", (A.names_of(missing),) * 2),)
    report = Report("closed embedding conditions", violations)
    return EmbeddingResult(report.ok, report)


def roundtrip_report(item) -> Report:
    """Object and naturality round trips, dispatched on the item kind.

    Spaces are checked through the point embedding, structures through the
    double dual isomorphism, maps and morphisms additionally through their
    naturality squares, compared entry by entry.
    """
    if isinstance(item, FiniteSpace):
        emb = point_embedding(item)
        if emb.map is None:
            return Report("roundtrip", (Violation("point-embedding"),), emb.report.notes)
        return Report("roundtrip: space", emb.report.violations, emb.report.notes)

    if isinstance(item, LocalContactAlgebra):
        dual_space(item)  # the boundedness gate, on every call
        inner = item.double_dual
        return Report("roundtrip: structure", inner.violations, inner.notes)

    if isinstance(item, SpaceMap):
        violations = list(roundtrip_report(item.source).violations)
        violations.extend(roundtrip_report(item.target).violations)
        phi = dual_of_map(item)
        back = dual_of_morphism(phi)
        t_src = point_embedding(item.source).map
        t_tgt = point_embedding(item.target).map
        if t_src is None or t_tgt is None:
            violations.append(Violation("naturality-square"))
        else:
            for x in range(item.source.point_count):
                if t_tgt.assignment[item(x)] != back.assignment[t_src.assignment[x]]:
                    violations.append(
                        Violation("naturality-square", (item.source.points[x],)))
                    break
        return Report("roundtrip: map naturality", tuple(violations))

    if isinstance(item, AlgebraMorphism):
        violations = list(roundtrip_report(item.source).violations)
        violations.extend(roundtrip_report(item.target).violations)
        src_dual = dual_space(item.source)
        tgt_dual = dual_space(item.target)
        g = dual_of_morphism(item)
        phi_back = dual_of_map(g)
        rc_src = rc_algebra(src_dual.space)
        rc_tgt = rc_algebra(tgt_dual.space)
        for a in item.source.algebra.elements():
            left = rc_tgt.to_element(tgt_dual.regions[item.table[a]])
            right = phi_back.table[rc_src.to_element(src_dual.regions[a])]
            if left != right:
                violations.append(
                    Violation("naturality-square", (item.source.algebra.names_of(a),)))
                break
        return Report("roundtrip: morphism naturality", tuple(violations))

    raise StructureError(f"cannot round-trip a {type(item).__name__}")
