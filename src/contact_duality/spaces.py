"""Finite topological spaces in minimal-neighbourhood form, and maps.

A finite space is determined by the minimal open set around each point, so a
space is a point list plus one mask per point.  Closure, interior, and a
map's images and preimages join per-point rows over the points of a set, in
time linear in its size.  Point sets are int masks over the point list,
mirroring the element encoding of the Boolean algebra kernel.

The regular closed sets of a finite space form a Boolean algebra carrying the
standard contact relation (nonempty intersection); rc_algebra materializes it
over its atoms and exports the contact relation in atom-backed form, which is
what the duality machinery consumes.  Spaces are frozen values, so the
closure of every point set (one 2ⁿ table, which the regular closed and
regular open sets are read off), the regular closed algebra and the point
embedding are built once per space object and kept on it
(FiniteSpace.closure_table, .rc, .embedding); they are dropped with the space.

Every claim that a map is a Boolean isomorphism (preserving contact where
that is claimed too) is decided by isomorphism_violation on the images of
the atoms of a powerset algebra: the rc_algebra table, the double dual,
ro_algebra and dense_subspace_isomorphism each reduce to it.  Only a table
that fails it is walked by first_law_violation, which checks the laws in one
fixed order over the caller's own domain, to name the least witness.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

from .boolalg import FiniteBooleanAlgebra, atom_join, atom_unions, cached_property, transpose
from .contact import ContactRelation
from .errors import CapExceeded, Refusal, StructureError
from .localcontact import LocalContactAlgebra, nca_as_lca
from .report import Report, Violation, first_mismatch

RC_POINT_CAP = 16


@dataclass(frozen=True)
class FiniteSpace:
    points: tuple[str, ...]
    min_nbhd: tuple[int, ...]

    def __post_init__(self):
        n = len(self.points)
        if n == 0:
            raise StructureError("a space needs at least one point")
        if len(set(self.points)) != n:
            raise StructureError("point names must be distinct")
        if len(self.min_nbhd) != n:
            raise StructureError("one minimal neighbourhood per point is required")
        for x, u in enumerate(self.min_nbhd):
            if type(u) is not int or u < 0 or u >> n:
                raise StructureError(f"neighbourhood mask {u!r} is not a point set of this space")
            if not u >> x & 1:
                raise StructureError(f"point {self.points[x]!r} misses its own neighbourhood")
        for x in range(n):
            for y in range(n):
                if self.min_nbhd[x] >> y & 1 and self.min_nbhd[y] | self.min_nbhd[x] != self.min_nbhd[x]:
                    raise StructureError(
                        f"neighbourhoods of {self.points[x]!r} and {self.points[y]!r} "
                        "do not generate a topology")

    @cached_property
    def point_count(self) -> int:
        return len(self.points)

    @cached_property
    def everything(self) -> int:
        return (1 << self.point_count) - 1

    def check_set(self, m: int) -> int:
        if type(m) is not int or m < 0 or m > self.everything:
            raise StructureError(f"{m!r} is not a point set of this space")
        return m

    @cached_property
    def _point_positions(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.points)}

    def point_index(self, name: str) -> int:
        try:
            return self._point_positions[name]
        except (KeyError, TypeError) as exc:
            raise StructureError(f"unknown point {name!r}") from exc

    def names_of(self, m: int) -> tuple[str, ...]:
        self.check_set(m)
        return tuple(self.points[i] for i in range(self.point_count) if m >> i & 1)

    @cached_property
    def point_closures(self) -> tuple[int, ...]:
        """The closure of each point: the points whose neighbourhood holds it."""
        return transpose(self.min_nbhd, self.point_count)

    def closure(self, m: int) -> int:
        return atom_join(self.point_closures, self.check_set(m))

    def interior(self, m: int) -> int:
        top = self.everything
        return top ^ atom_join(self.point_closures, top ^ self.check_set(m))

    def is_open(self, m: int) -> bool:
        return self.interior(m) == m

    def is_closed(self, m: int) -> bool:
        return self.closure(m) == m

    @cached_property
    def closure_table(self) -> tuple[int, ...]:
        """The closure of every point set, by mask: closure preserves unions,
        so the closure of m joins the closures of its points."""
        return atom_unions(self.point_closures)

    @cached_property
    def rc(self) -> "RegularClosedAlgebra":
        """Regular closed algebra, built and verified once; see rc_algebra."""
        return _build_rc_algebra(self)

    @cached_property
    def embedding(self):
        """Point embedding into the dual space; see duality.point_embedding."""
        from .duality import _build_point_embedding

        return _build_point_embedding(self)

    def subspace(self, subset: int) -> "FiniteSpace":
        """Induced space on a nonempty point subset."""
        names = self.names_of(subset)
        if subset == 0:
            raise StructureError("a subspace needs at least one point")
        kept = [i for i in range(self.point_count) if subset >> i & 1]
        # per point, its singleton in the subspace (0 for a dropped point)
        position = transpose([1 << i for i in kept], self.point_count)
        return FiniteSpace(names, tuple(atom_join(position, self.min_nbhd[i]) for i in kept))


def discrete_space(names) -> FiniteSpace:
    names = tuple(names)
    return FiniteSpace(names, tuple(1 << i for i in range(len(names))))


@dataclass(frozen=True)
class SpaceMap:
    source: FiniteSpace
    target: FiniteSpace
    assignment: tuple[int, ...]

    def __post_init__(self):
        if len(self.assignment) != self.source.point_count:
            raise StructureError("map must assign every source point")
        for v in self.assignment:
            if type(v) is not int or not 0 <= v < self.target.point_count:
                raise StructureError(f"map value {v!r} is not a point index of the target")

    def __call__(self, index: int) -> int:
        return self.assignment[index]

    @cached_property
    def images(self) -> tuple[int, ...]:
        """The image of each source point, as a target point set."""
        return tuple(1 << v for v in self.assignment)

    @cached_property
    def fibres(self) -> tuple[int, ...]:
        """The preimage of each target point, as a source point set."""
        return transpose(self.images, self.target.point_count)

    def image(self, m: int) -> int:
        return atom_join(self.images, self.source.check_set(m))

    def preimage(self, m: int) -> int:
        return atom_join(self.fibres, self.target.check_set(m))

    @staticmethod
    def identity(space: FiniteSpace) -> "SpaceMap":
        return SpaceMap(space, space, tuple(range(space.point_count)))

    def after(self, other: "SpaceMap") -> "SpaceMap":
        """Composite self(other(x)); other is applied first."""
        if other.target != self.source:
            raise StructureError("maps do not compose: middle spaces differ")
        return SpaceMap(other.source, self.target,
                        tuple(self.assignment[v] for v in other.assignment))


@dataclass(frozen=True)
class SpacePredicates:
    connected: bool
    hausdorff: bool
    extremally_disconnected: bool
    compact: bool = True


def space_predicates(space: FiniteSpace) -> SpacePredicates:
    """Connectedness, separation and extremal disconnectedness of a finite space.

    A finite space is connected exactly when its points are linked by the
    graph with an edge x-y for each y in min_nbhd[x]: the component of a point
    grows by every minimal neighbourhood it meets, those of the points of its
    closure, and a component that meets no further one is clopen.  A finite
    Hausdorff space is discrete; a finite space is extremally disconnected
    exactly when closures of the basic opens are open; finite spaces are
    always compact.
    """
    component, grown = 0, 1
    while grown != component:
        component = grown
        grown = atom_join(space.min_nbhd, space.closure(component))
    connected = component == space.everything
    hausdorff = all(u == 1 << i for i, u in enumerate(space.min_nbhd))
    extremal = all(space.is_open(space.closure(u)) for u in space.min_nbhd)
    return SpacePredicates(connected, hausdorff, extremal)


@dataclass(frozen=True)
class MapPredicates:
    continuous: bool
    closed: bool
    perfect: bool
    injective: bool
    surjective: bool
    dense_image: bool


def map_predicates(f: SpaceMap) -> MapPredicates:
    """Pointwise map properties; perfect means continuous with closed images.

    Point inverses in a finite space are automatically compact, so perfection
    reduces to continuity plus closedness.  Closedness alone is the image
    condition and does not imply continuity here.  Every closed set is the
    union of the closures of its points, so the map is closed exactly when
    the image of each point closure is closed.
    """
    continuous = all(
        f.image(f.source.min_nbhd[x]) | f.target.min_nbhd[f(x)] == f.target.min_nbhd[f(x)]
        for x in range(f.source.point_count)
    )
    closed = all(f.target.is_closed(f.image(c)) for c in f.source.point_closures)
    injective = len(set(f.assignment)) == f.source.point_count
    surjective = len(set(f.assignment)) == f.target.point_count
    dense = f.target.closure(f.image(f.source.everything)) == f.target.everything
    return MapPredicates(continuous, closed, continuous and closed, injective, surjective, dense)


class BooleanOps(NamedTuple):
    """The operations a Boolean isomorphism preserves; contact is optional."""

    join: Callable[[int, int], int]
    meet: Callable[[int, int], int]
    complement: Callable[[int], int]
    contact: Callable[[int, int], bool] | None = None


def element_ops(contact: ContactRelation) -> BooleanOps:
    """Operations on the element masks of a contact relation's algebra."""
    return BooleanOps(operator.or_, operator.and_, contact.algebra.complement, contact.contact)


def first_law_violation(domain, image, source: BooleanOps, target: BooleanOps,
                        name) -> Violation | None:
    """Least failure of image, a table over domain, to preserve the operations.

    domain is walked in ascending order: for each x, every pair (x, y) is
    checked for join, meet and then contact (when source has a contact),
    after which the complement of x is checked.  The first failure is
    returned with its arguments named by name; None means every law holds.
    Bijectivity is not checked here: each caller prechecks it in its own
    terms.
    """
    domain = tuple(domain)
    join, meet, complement, contact = source
    t_join, t_meet, t_complement, t_contact = target
    for x in domain:
        fx = image[x]
        for y in domain:
            fy = image[y]
            if image[join(x, y)] != t_join(fx, fy):
                return Violation("join", (name(x), name(y)))
            if image[meet(x, y)] != t_meet(fx, fy):
                return Violation("meet", (name(x), name(y)))
            if contact is not None and contact(x, y) != t_contact(fx, fy):
                return Violation("contact", (name(x), name(y)))
        if image[complement(x)] != t_complement(fx):
            return Violation("complement", (name(x),))
    return None


def _meeting_rows(sets, touch=operator.and_) -> tuple[int, ...]:
    """Per set, the mask of the positions of the sets it touches."""
    return tuple(sum(1 << j for j, g in enumerate(sets) if touch(f, g)) for f in sets)


def isomorphism_violation(table, carrier, target: BooleanOps, rows,
                          walk: Callable[[], Violation | None]) -> Violation | None:
    """None when table, over the atom masks of a powerset algebra, is a Boolean
    isomorphism onto carrier under target's operations that keeps contact
    (the source's atom rows; rows None claims no contact), else walk().

    The table passes when it preserves target.join by the lowest-bit
    recurrence table[a] == join(table[a & (a - 1)], table[a & -a]), is a
    bijection onto carrier, and its atom images touch under target.contact
    where rows say.  That is exact: a join-preserving bijection f of finite
    lattices reflects order (a <= b iff f(a v b) = f(b) iff f(a) v f(b) =
    f(b)), so it is an order isomorphism, which keeps meet and complement;
    contact is additive over joins on both sides, so atom pairs decide it.
    Any other table breaks a law, and walk, the caller's first_law_violation,
    names the least one.
    """
    images = [table[1 << i] for i in range(len(table).bit_length() - 1)]
    join = target.join
    if (all(table[a] == join(table[a & a - 1], table[a & -a]) for a in range(1, len(table)))
            and sorted(table) == sorted(carrier)
            and (rows is None or _meeting_rows(images, target.contact) == rows)):
        return None
    return walk()


def rc_law_violation(table, contact: ContactRelation,
                     rc: RegularClosedAlgebra) -> Violation | None:
    """isomorphism_violation of table, over contact's algebra, onto the
    regular closed sets with their contact; the walk is over every element."""
    return isomorphism_violation(
        table, rc.carrier, rc.set_ops, contact.rows,
        lambda: first_law_violation(range(len(table)), table, element_ops(contact), rc.set_ops,
                                    contact.algebra.names_of))


@dataclass(frozen=True)
class RegularClosedAlgebra:
    """The regular closed sets of a space as an atom-backed contact structure.

    carrier holds the regular closed point sets ascending; atoms are its
    minimal nonzero members.  algebra is the powerset over those atoms, with
    one named atom per minimal set, pointsets holds the point set of each
    element, and contact is nonempty intersection of the underlying point
    sets.  Finite spaces are compact, so every regular closed set is bounded
    and the exported local structure has the improper ideal.
    """

    space: FiniteSpace
    carrier: tuple[int, ...]
    atoms: tuple[int, ...]
    algebra: FiniteBooleanAlgebra
    contact: ContactRelation

    @cached_property
    def pointsets(self) -> tuple[int, ...]:
        """The union of the atoms of each element, in element order."""
        return atom_unions(self.atoms)

    @cached_property
    def _elements(self) -> dict[int, int]:
        """The element of each point set in pointsets, 2ᵏ entries for k atoms."""
        return {pointset: element for element, pointset in enumerate(self.pointsets)}

    def to_element(self, pointset: int) -> int:
        if pointset not in self._elements:
            raise StructureError("point set is not regular closed in this space")
        return self._elements[pointset]

    def to_pointset(self, element: int) -> int:
        return self.pointsets[self.algebra.check_element(element)]

    def lca(self) -> LocalContactAlgebra:
        """The structure with the improper ideal, the same object on every call,
        so that its cached BC report and dual space are shared."""
        return self._lca

    @cached_property
    def _lca(self) -> LocalContactAlgebra:
        return nca_as_lca(self.contact)

    # point-set operations of the regular closed algebra
    def meet_sets(self, f: int, g: int) -> int:
        return self.space.closure(self.space.interior(f & g))

    def complement_set(self, f: int) -> int:
        return self.space.closure(self.space.everything ^ f)

    def in_contact(self, f: int, g: int) -> bool:
        return bool(f & g)

    @property
    def set_ops(self) -> BooleanOps:
        return BooleanOps(operator.or_, self.meet_sets, self.complement_set, self.in_contact)


def regular_closed_sets(space: FiniteSpace) -> tuple[int, ...]:
    """The fixpoints of closure-of-interior, read off the closure table: the
    interior of m is the complement of the closure of the complement of m.
    Beyond RC_POINT_CAP points it refuses before building the 2ⁿ table."""
    if space.point_count > RC_POINT_CAP:
        raise CapExceeded(f"regular closed enumeration capped at {RC_POINT_CAP} points")
    top, cl = space.everything, space.closure_table
    return tuple(m for m in range(top + 1) if cl[top ^ cl[top ^ m]] == m)


def rc_algebra(space: FiniteSpace) -> RegularClosedAlgebra:
    """The regular closed algebra with its standard contact relation.

    Built once per space object and kept on it (FiniteSpace.rc), so repeated
    calls return the same algebra and its table verification runs once.
    """
    return space.rc


def _build_rc_algebra(space: FiniteSpace) -> RegularClosedAlgebra:
    """Build the regular closed algebra.

    Enumerates the fixpoints of closure-of-interior, takes the minimal
    nonzero ones as atoms, and checks the carrier really is the powerset of
    those atoms (count, unique decomposition, and the operation tables).
    Contact between atoms is plain intersection, and the lift of that atom
    relation is verified to agree with intersection on the whole carrier.
    """
    carrier = regular_closed_sets(space)  # refuses spaces beyond RC_POINT_CAP
    # The carrier ascends, so every subset of f comes before f: f is minimal
    # when no atom found before it lies below it.
    minimal = []
    for f in carrier[1:]:  # carrier[0] is the empty set
        for atom in minimal:
            if atom | f == f:
                break
        else:
            minimal.append(f)
    atoms = tuple(minimal)

    if len(carrier) != 1 << len(atoms):
        raise StructureError("regular closed carrier is not a powerset of its atoms")
    if not atoms:
        raise StructureError("a nonempty space has at least one regular closed atom")

    algebra = FiniteBooleanAlgebra(tuple("+".join(space.names_of(atom)) for atom in atoms))
    contact = ContactRelation(algebra, _meeting_rows(atoms))

    rc = RegularClosedAlgebra(space, carrier, atoms, algebra, contact)
    if sorted(rc.pointsets) != sorted(carrier):
        raise StructureError("regular closed sets do not decompose over the atoms")
    _verify_rc_tables(rc)
    return rc


_RC_TABLE_ERRORS = {
    "join": "join disagrees with union",
    "meet": "meet disagrees with closure of interior of intersection",
    "contact": "lifted contact disagrees with intersection",
    "complement": "complement disagrees with closure of the set complement",
}


def _verify_rc_tables(rc: RegularClosedAlgebra) -> None:
    """The atom-union table must be a contact-keeping isomorphism onto the
    regular closed carrier (rc_law_violation), else its first broken law is named."""
    law = rc_law_violation(rc.pointsets, rc.contact, rc)
    if law is not None:
        raise StructureError(_RC_TABLE_ERRORS[law.axiom])


@dataclass(frozen=True)
class RegularOpenAlgebra:
    """Regular open sets with the closure map onto the regular closed algebra."""

    space: FiniteSpace
    carrier: tuple[int, ...]
    to_closed: dict[int, int]
    certificate: Report

    # interior of closure of the union, interior of the complement, closures meeting
    def join_sets(self, u: int, v: int) -> int:
        top, cl = self.space.everything, self.space.closure_table
        return top ^ cl[top ^ cl[u | v]]

    def complement_set(self, u: int) -> int:
        return self.space.everything ^ self.space.closure_table[u]

    def in_contact(self, u: int, v: int) -> bool:
        return bool(self.space.closure_table[u] & self.space.closure_table[v])

    @property
    def set_ops(self) -> BooleanOps:
        return BooleanOps(self.join_sets, operator.and_, self.complement_set, self.in_contact)


def ro_algebra(space: FiniteSpace) -> RegularOpenAlgebra:
    """Regular open algebra and its canonical isomorphism onto regular closed.

    The carrier is read off the closure table (u is regular open exactly when
    it is the interior of its closure), and the map sends a regular open set
    to its closure.  The certificate (ro_law_violation) records bijectivity
    and then the first law the map breaks; it is empty for every finite space.
    """
    if space.point_count > RC_POINT_CAP:
        raise CapExceeded(f"regular open enumeration capped at {RC_POINT_CAP} points")
    top, cl = space.everything, space.closure_table
    carrier = tuple(u for u in range(top + 1) if top ^ cl[top ^ cl[u]] == u)
    subject = "regular open to regular closed isomorphism"
    ro = RegularOpenAlgebra(space, carrier, {u: cl[u] for u in carrier}, Report(subject))
    law = ro_law_violation(ro, rc_algebra(space))
    return ro if law is None else replace(ro, certificate=Report(subject, (law,)))


def ro_law_violation(ro: RegularOpenAlgebra, rc: RegularClosedAlgebra) -> Violation | None:
    """Violation("bijection") unless ro.to_closed is a bijection onto rc.carrier,
    else its first broken law (first_law_violation over the regular open sets).

    rc.pointsets is a certified contact-keeping isomorphism, so to_closed is
    one exactly when to_closed⁻¹ ∘ rc.pointsets is, with rc.contact against
    closures meeting: isomorphism_violation decides that table.
    """
    if sorted(ro.to_closed.values()) != sorted(rc.carrier):
        return Violation("bijection")
    opened = {f: u for u, f in ro.to_closed.items()}
    table = [opened[f] for f in rc.pointsets]
    return isomorphism_violation(
        table, ro.carrier, ro.set_ops, rc.contact.rows,
        lambda: first_law_violation(ro.carrier, ro.to_closed, ro.set_ops, rc.set_ops,
                                    ro.space.names_of))


@dataclass(frozen=True)
class DenseSubspaceIso:
    """Mutually inverse Boolean isomorphisms between the regular closed
    algebras of a space and a dense subspace.

    restrict sends a regular closed set of the big space to its trace on the
    subspace; extend sends a regular closed set of the subspace to its
    closure in the big space.  Keys and values are point sets of the
    respective spaces.
    """

    space: FiniteSpace
    subspace: FiniteSpace
    subset: int
    restrict: dict[int, int]
    extend: dict[int, int]
    certificate: Report


def dense_subspace_isomorphism(space: FiniteSpace, subset: int) -> DenseSubspaceIso:
    """Build the trace/closure isomorphism pair for a dense point subset.

    Refuses when the subset is not dense, and (as rc_algebra does) spaces
    beyond RC_POINT_CAP points.  The certificate checks that the two maps are
    mutually inverse bijections, then that restrict preserves join, meet and
    complement (trace_law_violation).
    """
    space.check_set(subset)
    if space.closure(subset) != space.everything:
        raise Refusal("subset is not dense, so the trace maps need not be isomorphisms")
    sub = space.subspace(subset)
    big, small = rc_algebra(space), rc_algebra(sub)
    big_rc, small_rc = big.carrier, small.carrier

    # the trace is the preimage under the inclusion, the extension the closure of the image
    inclusion = SpaceMap(sub, space, tuple(i for i in range(space.point_count) if subset >> i & 1))
    restrict = {f: inclusion.preimage(f) for f in big_rc}
    extend = {g: space.closure_table[inclusion.image(g)] for g in small_rc}

    violations = []
    if sorted(restrict.values()) != sorted(small_rc):
        violations.append(Violation("restrict-range"))
    if sorted(extend.values()) != sorted(big_rc):
        violations.append(Violation("extend-range"))
    if not violations:
        i = first_mismatch((extend[restrict[f]] for f in big_rc), big_rc)
        if i is not None:
            violations.append(Violation("extend-restrict", (space.names_of(big_rc[i]),)))
        j = first_mismatch((restrict[extend[g]] for g in small_rc), small_rc)
        if j is not None:
            violations.append(Violation("restrict-extend", (sub.names_of(small_rc[j]),)))
    if not violations:
        law = trace_law_violation(restrict, big, small)
        if law is not None:
            violations.append(law)
    report = Report("dense subspace isomorphism", tuple(violations))
    return DenseSubspaceIso(space, sub, subset, restrict, extend, report)


def trace_law_violation(restrict, big: RegularClosedAlgebra,
                        small: RegularClosedAlgebra) -> Violation | None:
    """The first law restrict, a table over big.carrier, breaks onto small.carrier.

    big.pointsets is a certified isomorphism, so restrict is one exactly when
    restrict ∘ big.pointsets is: isomorphism_violation decides that table.  A
    trace need not keep two closed sets meeting, so contact is not claimed.
    """
    table = [restrict[f] for f in big.pointsets]
    return isomorphism_violation(
        table, small.carrier, small.set_ops, None,
        lambda: first_law_violation(big.carrier, restrict, big.set_ops._replace(contact=None),
                                    small.set_ops, big.space.names_of))
