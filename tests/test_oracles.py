"""Differential tests: the atom-table fast paths against brute-force oracles.

The oracles are the element-level definitions the fast paths replaced: the
Alexandroff extension as a contact predicate, well-inside as "avoids the
complement" asked of that predicate, and the morphism checker,
regularization, dual of a morphism and closed-embedding test written with
those two.  The CA, NCA, CON and LL decisions on atom rows are checked
against the element scans of the axioms (oracle_check_axioms), the
boundedness axioms against their element scan, the grill's row test over
every atom support against the element loop it replaced, and the dual
topology against the closure of the regions under union and intersection.
Every report, table, assignment and refusal must agree exactly, least
witnesses and messages included.

The region calculator's sweeps over the normal form are checked against
the pairwise definitions they replaced, its endpoint order against
Fraction's own, its stored endpoints for being plain Fractions or its two
infinities, and the region laws sampler against the same draws made with
Fraction arithmetic.  The polynomial connectedness and closed-map tests and
the regular closed sets from one closure table are checked against the
scans over all point sets, the regular closed atoms against the all-pairs
scan, the dual of a map from closure and preimage tables against the
per-set loop of point scans, the element index of a regular closed algebra
against the atom scan, and the atom test of the isomorphism certificates (the regular
closed table, the regular open closure map and the dense-subspace trace)
against the element walk of first_law_violation.
"""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from contact_duality import cli, jsonio
from contact_duality.boolalg import FiniteBooleanAlgebra, atom_unions
from contact_duality.clusters import check_cluster, grill_clusters
from contact_duality import contact
from contact_duality.contact import (
    ContactQuery,
    ContactRelation,
    ElementContact,
    check_axioms,
    overlap_contact,
)
from corpus import (
    CORPUS_SEED,
    all_maps,
    all_preorder_spaces,
    atom_relations,
    discrete,
    dual_morphism_corpus,
    ideal_structures,
    random_atom_relation,
    sampled_preorder_spaces,
    small_algebra,
)
from contact_duality.duality import (
    AlgebraMorphism,
    EmbeddingResult,
    check_closed_embedding,
    check_morphism,
    dual_of_map,
    dual_of_morphism,
    dual_space,
    regularize,
)
from contact_duality.errors import IntegrityError, Refusal, StructureError
from contact_duality.localcontact import (
    BoundedIdeal,
    LocalContactAlgebra,
    alexandroff_extension,
    check_lca_axioms,
)
from contact_duality.regions import (
    NEG_INF,
    POS_INF,
    RationalRegion,
    _before,
    affine_preimage,
    expand,
    interpolate,
)
from contact_duality.report import Report, Violation
from contact_duality.spaces import (
    FiniteSpace,
    SpaceMap,
    dense_subspace_isomorphism,
    element_ops,
    first_law_violation,
    map_predicates,
    rc_algebra,
    rc_law_violation,
    regular_closed_sets,
    ro_algebra,
    ro_law_violation,
    space_predicates,
    trace_law_violation,
)
from test_duality import (boolean_homomorphisms, improper_overlap, large_pair_table,
                          morphism_candidates)


# oracles -------------------------------------------------------------------


def oracle_extension(structure):
    rel = structure.contact
    ideal = structure.ideal

    def extended(a, b):
        if rel.contact(a, b):
            return True
        return not ideal.contains(a) and not ideal.contains(b)

    return ElementContact(structure.algebra, extended, label="alexandroff extension")


def wb(relation, a, b):
    """Well-inside by the contact predicate, never by the inner tables."""
    return ContactQuery.way_below(relation, a, b)


# The contact axioms by element scan, straight from their definitions: the
# reference for the row decisions.  They take any relation with the query
# surface.

_witness = contact._witness


def _check_c1(r, alg):
    for a in alg.elements():
        if a != 0 and not r.contact(a, a):
            return _witness(alg, "C1", a)
    return None


def _check_c2(r, alg):
    for a in alg.elements():
        for b in alg.elements():
            if r.contact(a, b) and (a == 0 or b == 0):
                return _witness(alg, "C2", a, b)
    return None


def _check_c3(r, alg):
    for a in alg.elements():
        for b in alg.elements():
            if r.contact(a, b) and not r.contact(b, a):
                return _witness(alg, "C3", a, b)
    return None


def _check_c4(r, alg):
    for a in alg.elements():
        for b in alg.elements():
            for c in alg.elements():
                if r.contact(a, b | c) != (r.contact(a, b) or r.contact(a, c)):
                    return _witness(alg, "C4", a, b, c)
    return None


def _check_c5(r, alg):
    for a in alg.elements():
        for b in alg.elements():
            if r.contact(a, b):
                continue
            if not any(not r.contact(a, c) and not r.contact(b, alg.complement(c))
                       for c in alg.elements()):
                return _witness(alg, "C5", a, b)
    return None


def _check_c6(r, alg):
    for a in alg.elements():
        if a == alg.top:
            continue
        if not any(b != 0 and not r.contact(b, a) for b in alg.elements()):
            return _witness(alg, "C6", a)
    return None


def _check_con(r, alg):
    for a in alg.elements():
        if a in (0, alg.top):
            continue
        if not r.contact(a, alg.complement(a)):
            return _witness(alg, "CON", a)
    return None


def _check_ll1(r, alg):
    for a in alg.elements():
        for b in alg.elements():
            if r.way_below(a, b) and not alg.le(a, b):
                return _witness(alg, "LL1", a, b)
    return None


def _check_ll2(r, alg):
    if not r.way_below(0, 0):
        return Violation("LL2")
    return None


def _check_ll3(r, alg):
    for b in alg.elements():
        for c in alg.elements():
            if not r.way_below(b, c):
                continue
            for a in alg.elements():
                if not alg.le(a, b):
                    continue
                for t in alg.elements():
                    if alg.le(c, t) and not r.way_below(a, t):
                        return _witness(alg, "LL3", a, b, c, t)
    return None


def _check_ll4(r, alg):
    for a in alg.elements():
        for b in alg.elements():
            for c in alg.elements():
                if r.way_below(a, c) and r.way_below(b, c) and not r.way_below(a | b, c):
                    return _witness(alg, "LL4", a, b, c)
    return None


def _check_ll5(r, alg):
    for a in alg.elements():
        for c in alg.elements():
            if not r.way_below(a, c):
                continue
            if not any(r.way_below(a, b) and r.way_below(b, c) for b in alg.elements()):
                return _witness(alg, "LL5", a, c)
    return None


def _check_ll6(r, alg):
    for a in alg.elements():
        if a == 0:
            continue
        if not any(b != 0 and r.way_below(b, a) for b in alg.elements()):
            return _witness(alg, "LL6", a)
    return None


def _check_ll7(r, alg):
    for a in alg.elements():
        for b in alg.elements():
            if r.way_below(a, b) and not r.way_below(alg.complement(b), alg.complement(a)):
                return _witness(alg, "LL7", a, b)
    return None


_ELEMENT_CHECKS = {
    "CA": (_check_c1, _check_c2, _check_c3, _check_c4),
    "NCA": (_check_c1, _check_c2, _check_c3, _check_c4, _check_c5, _check_c6),
    "CON": (_check_con,),
    "LL": (_check_ll1, _check_ll2, _check_ll3, _check_ll4, _check_ll5, _check_ll6, _check_ll7),
}


def oracle_check_axioms(relation, kind):
    """One axiom family by scanning elements, least witness per axiom."""
    violations = []
    for check in _ELEMENT_CHECKS[kind]:
        found = check(relation, relation.algebra)
        if found is not None:
            violations.append(found)
    return Report(f"{kind} axioms", tuple(violations))


def oracle_check_morphism(phi, kind="PAL"):
    src, tgt = phi.source, phi.target
    if kind == "DVAL":
        src = LocalContactAlgebra(src.contact, BoundedIdeal(src.algebra, src.algebra.top))
        tgt = LocalContactAlgebra(tgt.contact, BoundedIdeal(tgt.algebra, tgt.algebra.top))
    A, B = src.algebra, tgt.algebra
    rho, eta = src.contact, tgt.contact
    ext_src = oracle_extension(src)
    table = phi.table
    src_bounded = [a for a in A.elements() if src.bounded(a)]
    tgt_bounded = [b for b in B.elements() if tgt.bounded(b)]
    violations = []

    if table[0] != 0:
        violations.append(Violation("PAL1", (B.names_of(table[0]),)))

    done = False
    for a in A.elements():
        if done:
            break
        for b in A.elements():
            if table[a & b] != table[a] & table[b]:
                violations.append(Violation("PAL2", (A.names_of(a), A.names_of(b))))
                done = True
                break

    done = False
    for a in src_bounded:
        if done:
            break
        for b in A.elements():
            if wb(rho, a, b):
                value = B.complement(table[A.complement(a)])
                if not wb(eta, value, table[b]):
                    violations.append(Violation("PAL3", (A.names_of(a), A.names_of(b))))
                    done = True
                    break

    for b in tgt_bounded:
        if not any(B.le(b, table[a]) for a in src_bounded):
            violations.append(Violation("PAL4", (B.names_of(b),)))
            break

    for a in src_bounded:
        if not tgt.bounded(table[a]):
            violations.append(Violation("PAL5", (A.names_of(a),)))
            break

    for a in A.elements():
        sup = 0
        for b in A.elements():
            if wb(ext_src, b, a):
                sup |= table[b]
        if sup != table[a]:
            violations.append(Violation("PAL6", (A.names_of(a),)))
            break

    subject = "PAL axioms" if kind == "PAL" else "DVAL axioms (improper-ideal reading)"
    return Report(subject, tuple(violations))


def oracle_check_lca_axioms(structure):
    """The boundedness axioms by scanning bounded elements and element pairs."""
    alg = structure.algebra
    rel = structure.contact
    bounded = [a for a in alg.elements() if structure.bounded(a)]
    violations = []

    witness = None
    for a in bounded:
        if witness:
            break
        for c in alg.elements():
            if wb(rel, a, c) and not any(wb(rel, a, b) and wb(rel, b, c) for b in bounded):
                witness = Violation("BC1", (alg.names_of(a), alg.names_of(c)))
                break
    if witness:
        violations.append(witness)

    witness = None
    for a in alg.elements():
        if witness:
            break
        for b in alg.elements():
            if rel.contact(a, b) and not any(rel.contact(a, c & b) for c in bounded):
                witness = Violation("BC2", (alg.names_of(a), alg.names_of(b)))
                break
    if witness:
        violations.append(witness)

    for a in alg.elements():
        if a == 0:
            continue
        if not any(b != 0 and wb(rel, b, a) for b in bounded):
            violations.append(Violation("BC3", (alg.names_of(a),)))
            break

    return Report("BC axioms", tuple(violations))


def oracle_dual_nbhd(regions, point_count):
    """Least open sets of the space whose closed sets the regions generate."""
    full = (1 << point_count) - 1
    closed = {0, full}
    closed.update(regions)
    frontier = list(closed)
    while frontier:
        new = []
        for f in frontier:
            for g in list(closed):
                for h in (f | g, f & g):
                    if h not in closed:
                        closed.add(h)
                        new.append(h)
        frontier = new
    nbhd = []
    for i in range(point_count):
        avoid = 0
        for f in closed:
            if not f >> i & 1:
                avoid |= f
        nbhd.append(full ^ avoid)
    return tuple(nbhd)


def oracle_regularize(phi):
    A = phi.source.algebra
    ext = oracle_extension(phi.source)
    table = []
    for a in A.elements():
        sup = 0
        for b in A.elements():
            if wb(ext, b, a):
                sup |= phi.table[b]
        table.append(sup)
    return AlgebraMorphism(phi.source, phi.target, tuple(table))


def oracle_dual_of_morphism(phi):
    report = oracle_check_morphism(phi, "PAL")
    if not report.ok:
        raise Refusal("dual of a morphism requires the morphism axioms", report)
    src_dual = dual_space(phi.source)
    tgt_dual = dual_space(phi.target)
    A = phi.source.algebra
    B = phi.target.algebra
    ext_src = oracle_extension(phi.source)
    src_members = [frozenset(c.members()) for c in src_dual.clusters]

    assignment = []
    for cluster in tgt_dual.clusters:
        traced = frozenset(
            a for a in A.elements()
            if all(cluster.contains(B.complement(phi.table[b]))
                   for b in A.elements() if wb(ext_src, b, A.complement(a)))
        )
        check = check_cluster(ext_src, traced)
        if not check.ok:
            raise IntegrityError(f"traced point set is not a cluster: {check.render()}")
        if phi.source.improper:
            bounded = True
        else:
            bounded = any(phi.source.bounded(a) for a in traced)
        if not bounded:
            raise IntegrityError("traced cluster is not bounded")
        try:
            assignment.append(src_members.index(traced))
        except ValueError as exc:
            raise IntegrityError("traced cluster missing from the dual point list") from exc

    result = SpaceMap(tgt_dual.space, src_dual.space, tuple(assignment))
    if not map_predicates(result).perfect:
        raise IntegrityError("dual of a morphism failed the perfectness certificate")
    return result


def oracle_check_closed_embedding(phi):
    pal = oracle_check_morphism(phi, "PAL")
    if not pal.ok:
        raise Refusal("closed embedding test requires a morphism", pal)
    for side in (phi.source, phi.target):
        if not side.bc_report.ok:
            raise Refusal("closed embedding test requires validated structures",
                          side.bc_report)

    A = phi.target.algebra
    B = phi.source.algebra
    ext_a = oracle_extension(phi.target)
    ext_b = oracle_extension(phi.source)
    values = set(phi.table)
    violations = []

    done = False
    for a in A.elements():
        if done:
            break
        for b in A.elements():
            if not wb(ext_a, a, b):
                continue
            if not any(wb(ext_a, a, v) and wb(ext_a, v, b) for v in values):
                violations.append(Violation("EMB1", (A.names_of(a), A.names_of(b))))
                done = True
                break

    done = False
    for a in B.elements():
        if done:
            break
        for b in B.elements():
            left = wb(ext_a, phi.table[a], phi.table[b])
            right = any(
                wb(ext_b, a1, b1)
                for a1 in B.elements() if phi.table[a1] == phi.table[a]
                for b1 in B.elements() if phi.table[b1] == phi.table[b]
            )
            if left != right:
                violations.append(Violation("EMB2", (B.names_of(a), B.names_of(b))))
                done = True
                break

    report = Report("closed embedding conditions", tuple(violations))
    return EmbeddingResult(report.ok, report)


# The region operations as pairwise scans, each interval against each, with
# every result normalized by a full sort and merge: the definitions the
# sweeps over the normal form replaced.


def oracle_merged(pairs):
    out = []
    for lo, hi in sorted(pairs):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return RationalRegion(tuple(out))


def oracle_join(f, g):
    return oracle_merged(list(f.intervals) + list(g.intervals))


def oracle_meet(f, g):
    pairs = []
    for alo, ahi in f.intervals:
        for blo, bhi in g.intervals:
            lo = max(alo, blo)
            hi = min(ahi, bhi)
            if lo < hi:
                pairs.append((lo, hi))
    return oracle_merged(pairs)


def oracle_complement(f):
    if not f.intervals:
        return RationalRegion.whole_line()
    pairs = []
    cursor = NEG_INF
    for lo, hi in f.intervals:
        if cursor < lo:
            pairs.append((cursor, lo))
        cursor = hi
    if cursor < POS_INF:
        pairs.append((cursor, POS_INF))
    return oracle_merged(pairs)


def oracle_le(f, g):
    return all(any(blo <= alo and ahi <= bhi for blo, bhi in g.intervals)
               for alo, ahi in f.intervals)


def oracle_touches(f, g):
    return any(max(alo, blo) <= min(ahi, bhi)
               for alo, ahi in f.intervals for blo, bhi in g.intervals)


def _oracle_enclosing(lo, hi, g):
    for blo, bhi in g.intervals:
        left = blo < lo or (blo == NEG_INF and lo == NEG_INF)
        right = hi < bhi or (bhi == POS_INF and hi == POS_INF)
        if left and right:
            return blo, bhi
    return None


def oracle_well_inside(f, g):
    return all(_oracle_enclosing(lo, hi, g) is not None for lo, hi in f.intervals)


def oracle_well_inside_extended(f, g):
    return oracle_well_inside(f, g) and (f.is_bounded or oracle_complement(g).is_bounded)


def oracle_interpolate(inner, outer):
    if not inner.is_bounded:
        raise Refusal("interpolation needs a bounded inner region")
    if not oracle_well_inside(inner, outer):
        raise Refusal("interpolation needs the inner region well inside the outer one")
    pairs = []
    for lo, hi in inner.intervals:
        blo, bhi = _oracle_enclosing(lo, hi, outer)
        new_lo = lo - 1 if blo == NEG_INF else (lo + blo) / 2
        new_hi = hi + 1 if bhi == POS_INF else (hi + bhi) / 2
        pairs.append((new_lo, new_hi))
    return oracle_merged(pairs)


# (name, operation on two regions, its oracle); complement ignores the second
REGION_SWEEPS = (
    ("join", RationalRegion.join, oracle_join),
    ("meet", RationalRegion.meet, oracle_meet),
    ("complement", lambda f, g: f.complement(), lambda f, g: oracle_complement(f)),
    ("le", RationalRegion.le, oracle_le),
    ("touches", RationalRegion.touches, oracle_touches),
    ("well_inside", RationalRegion.well_inside, oracle_well_inside),
    ("well_inside_extended", RationalRegion.well_inside_extended, oracle_well_inside_extended),
    ("interpolate", interpolate, oracle_interpolate),
)


def oracle_random_region(rng):
    """The region laws sample: the same randrange calls as cli._random_region,
    with Fraction arithmetic and the full sort and merge."""
    pairs = []
    for _ in range(rng.randrange(0, 4)):
        lo = Fraction(rng.randrange(-24, 24), rng.randrange(1, 8))
        width = Fraction(rng.randrange(1, 24), rng.randrange(1, 8))
        pairs.append((lo, lo + width))
    return oracle_merged(pairs)


# Connectedness and closedness of finite spaces and maps by scans over all
# 2^n point sets.


def oracle_connected(space):
    return not any(space.is_open(m) and space.is_closed(m) for m in range(1, space.everything))


def oracle_closed_sets(space):
    return tuple(m for m in range(space.everything + 1) if space.is_closed(m))


def oracle_regular_closed_sets(space):
    cl, iv = space.closure, space.interior
    return tuple(m for m in range(space.everything + 1) if cl(iv(m)) == m)


def oracle_rc_atoms(carrier):
    """The minimal nonzero sets of a carrier, each tested against all the others."""
    nonzero = [f for f in carrier if f]
    return tuple(f for f in nonzero if not any(g and g != f and g | f == f for g in nonzero))


def oracle_closed(f):
    return all(f.target.is_closed(f.image(s)) for s in oracle_closed_sets(f.source))


# The dual of a map one regular closed set at a time, with three point scans
# per set, and the element of a point set by a scan over the atoms: the loop
# and the scan that dual_of_map's tables and to_element's index replaced.


def oracle_to_element(rc, pointset):
    mask = 0
    for k, atom in enumerate(rc.atoms):
        if atom & pointset == atom:
            mask |= 1 << k
    if rc.pointsets[mask] != pointset:
        raise StructureError("point set is not regular closed in this space")
    return mask


def oracle_dual_of_map(f):
    preds = map_predicates(f)
    if not preds.perfect:
        failed = "continuous" if not preds.continuous else "closed"
        raise Refusal(f"map is not perfect: fails the {failed} predicate")
    rc_src = rc_algebra(f.source)
    rc_tgt = rc_algebra(f.target)
    table = []
    for pointset in rc_tgt.pointsets:
        pulled = f.source.closure(f.preimage(f.target.interior(pointset)))
        table.append(oracle_to_element(rc_src, pulled))
    return AlgebraMorphism(rc_tgt.lca(), rc_src.lca(), tuple(table))


# Point sets rewritten between a space and its subspace one set at a time:
# the per-set loops that dense_subspace_isomorphism's tables replaced.


def oracle_restrict_set(space, subset, m):
    """Rewrite a point set of space as a set of the subspace on subset."""
    kept = [i for i in range(space.point_count) if subset >> i & 1]
    out = 0
    for k, i in enumerate(kept):
        if m >> i & 1:
            out |= 1 << k
    return out


def oracle_embed_set(space, subset, m):
    """Rewrite a point set of the subspace on subset as a set of space."""
    kept = [i for i in range(space.point_count) if subset >> i & 1]
    out = 0
    for k, i in enumerate(kept):
        if m >> k & 1:
            out |= 1 << i
    return out


# helpers -------------------------------------------------------------------


def outcome(fn, *args):
    """A result, or the exception's type, message and carried report."""
    try:
        return "value", fn(*args)
    except (Refusal, IntegrityError, StructureError) as exc:
        report = getattr(exc, "report", None)
        return type(exc).__name__, str(exc), report


def structures_up_to(n):
    return [s for k in range(1, n + 1) for s in ideal_structures(k)]


def seeded_tables(seed=20071):
    """Every structure up to 3 atoms as source and as target, with random,
    atomwise-join, Boolean-homomorphism and regularized tables."""
    rng = random.Random(seed)
    structures = structures_up_to(3)
    out = []
    for s in structures:
        for t in [s] + rng.sample(structures, 3):
            A, B = s.algebra, t.algebra
            out.append(AlgebraMorphism(s, t, tuple(rng.randrange(B.size) for _ in A.elements())))
            images = [rng.randrange(B.size) for _ in range(A.atom_count)]
            joins = tuple(_join(images[i] for i in range(A.atom_count) if a >> i & 1)
                          for a in A.elements())
            out.append(AlgebraMorphism(s, t, joins))
            out.append(AlgebraMorphism(s, t, tuple(regularize(out[-1]).table)))
            # a Boolean homomorphism: atom j of B goes to the atom pick[j] of A
            pick = [rng.randrange(A.atom_count) for _ in range(B.atom_count)]
            hom = tuple(_join(1 << j for j in range(B.atom_count) if a >> pick[j] & 1)
                        for a in A.elements())
            out.append(AlgebraMorphism(s, t, hom))
    return out


def _join(masks):
    out = 0
    for m in masks:
        out |= m
    return out


@pytest.fixture(scope="module")
def corpus():
    phis = morphism_candidates() + dual_morphism_corpus(3) + seeded_tables()
    assert any(not s.improper for phi in phis for s in (phi.source, phi.target))
    return phis


# extension and inner tables ---------------------------------------------------


class TestExtensionRows:
    def test_rows_agree_with_the_element_predicate(self):
        pairs = 0
        for n in (1, 2, 3, 4):
            for rel in atom_relations(n):
                for gen in rel.algebra.elements():
                    s = LocalContactAlgebra(rel, BoundedIdeal(rel.algebra, gen))
                    ext, oracle = alexandroff_extension(s), oracle_extension(s)
                    assert isinstance(ext, ContactRelation)
                    for a in rel.algebra.elements():
                        for b in rel.algebra.elements():
                            assert ext.contact(a, b) == oracle.contact(a, b), (rel.rows, gen)
                    pairs += 1
        assert pairs == 1098

    def test_well_inside_agrees_with_the_element_predicate(self):
        for n in (1, 2, 3, 4):
            for rel in atom_relations(n):
                for gen in rel.algebra.elements():
                    s = LocalContactAlgebra(rel, BoundedIdeal(rel.algebra, gen))
                    ext, oracle = alexandroff_extension(s), oracle_extension(s)
                    for c in rel.algebra.elements():
                        below = [b for b in rel.algebra.elements() if wb(oracle, b, c)]
                        assert ext.inner(c) == max(below)
                        assert [b for b in rel.algebra.elements()
                                if ext.way_below(b, c)] == below

    def test_one_relation_per_structure_equal_to_a_fresh_build(self):
        for s in structures_up_to(3):
            ext, oracle, n = alexandroff_extension(s), oracle_extension(s), s.algebra.atom_count
            assert alexandroff_extension(s) is ext
            rows = tuple(_join(1 << j for j in range(n) if oracle.contact(1 << i, 1 << j))
                         for i in range(n))
            assert ext == ContactRelation(s.algebra, rows)

    def test_improper_ideal_returns_the_relation_itself(self):
        for rel in atom_relations(3):
            s = LocalContactAlgebra(rel, BoundedIdeal(rel.algebra, rel.algebra.top))
            assert alexandroff_extension(s) is rel

    def test_inner_without_a_table_above_the_width_limit(self):
        alg = FiniteBooleanAlgebra(tuple(f"a{i}" for i in range(17)))
        path = tuple((0b111 << i >> 1) & alg.top for i in range(17))
        rel = ContactRelation(alg, path)
        assert rel._reach is None
        for c in (0, 1, 0b11, 0b111, 0b1110, alg.top, alg.top ^ 1, alg.top ^ (1 << 8)):
            expected = _join(1 << i for i in range(17) if path[i] & ~c == 0)
            assert rel.inner(c) == expected
            for b in (1, 1 << 1, 1 << 8, 0b110):
                assert rel.way_below(b, c) == wb(rel, b, c)

    def test_well_inside_checks_its_arguments_in_the_old_order(self):
        rel = atom_relations(2)[0]
        for a, b in ((0, 7), (9, 1), (-1, 8)):
            with pytest.raises(StructureError) as fast:
                rel.way_below(a, b)
            with pytest.raises(StructureError) as slow:
                wb(rel, a, b)
            assert str(fast.value) == str(slow.value)


# morphism calculus ------------------------------------------------------------


class TestMorphismCalculus:
    def test_check_morphism_reports(self, corpus):
        for phi in corpus:
            for kind in ("PAL", "DVAL"):
                assert check_morphism(phi, kind) == oracle_check_morphism(phi, kind), phi.table

    def test_regularize_tables(self, corpus):
        for phi in corpus:
            assert regularize(phi) == oracle_regularize(phi), phi.table

    def test_dual_of_morphism(self, corpus):
        mapped = 0
        for phi in corpus:
            ours, theirs = outcome(dual_of_morphism, phi), outcome(oracle_dual_of_morphism, phi)
            assert ours == theirs, phi.table
            mapped += ours[0] == "value"
        assert mapped >= 75  # only the overlap structures pass the boundedness axioms

    def test_closed_embedding(self, corpus):
        for phi in corpus:
            assert outcome(check_closed_embedding, phi) == \
                outcome(oracle_check_closed_embedding, phi), phi.table

    def test_regularize_on_seeded_non_monotone_tables_with_proper_ideals(self):
        # the corpus stops at 3 atoms; every table here fails monotonicity
        rng = random.Random(1914)
        for n in (4, 5, 6):
            for _ in range(4):
                gen = rng.randrange(1, (1 << n) - 1)
                s = LocalContactAlgebra(random_atom_relation(n, rng),
                                        BoundedIdeal(small_algebra(n), gen))
                m = rng.randint(1, 4)
                t = LocalContactAlgebra(random_atom_relation(m, rng),
                                        BoundedIdeal(small_algebra(m), rng.randrange(1 << m)))
                table = tuple(rng.randrange(t.algebra.size) for _ in s.algebra.elements())
                assert any(table[a] & ~table[a | 1 << i] for a in range(1 << n) for i in range(n))
                phi = AlgebraMorphism(s, t, table)
                assert regularize(phi) == oracle_regularize(phi), (s, table)

    def test_closed_embedding_of_every_small_boolean_homomorphism(self):
        homomorphisms = not_onto = 0
        for n, m in ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2)):
            s, t = improper_overlap(n), improper_overlap(m)
            for table in sorted(boolean_homomorphisms(s, t)):
                phi = AlgebraMorphism(s, t, table)
                found = check_closed_embedding(phi)
                assert found == oracle_check_closed_embedding(phi), table
                onto = len(set(table)) == t.algebra.size
                assert found.is_embedding == onto
                homomorphisms += 1
                not_onto += not onto
        assert (homomorphisms, not_onto) == (25, 14)


def filter_table(source, target, least):
    """The meet-preserving table in which target atom t lies in the image of
    exactly the elements above least[t], or of none when least[t] is None."""
    return tuple(_join(1 << t for t, m in enumerate(least) if m is not None and a | m == a)
                 for a in source.algebra.elements())


def every_table(source, target):
    """Every table from source to target, in lexicographic order."""
    return [AlgebraMorphism(source, target, table) for table in
            itertools.product(target.algebra.elements(), repeat=source.algebra.size)]


def seeded_arbitrary_tables(seed=2101):
    """Tables between seeded 3- and 4-atom structures: uniform random tables,
    and atomwise joins with one or two seeded bits flipped, which break PAL2
    at an element of any size."""
    rng = random.Random(seed)
    pool = ideal_structures(3) + rng.sample(ideal_structures(4), 60)
    out = []
    for _ in range(300):
        s, t = rng.choice(pool), rng.choice(pool)
        A, B = s.algebra, t.algebra
        out.append(AlgebraMorphism(s, t, tuple(rng.randrange(B.size) for _ in A.elements())))
        table = list(atom_unions([rng.randrange(B.size) for _ in range(A.atom_count)]))
        for _ in range(rng.randrange(1, 3)):
            table[rng.randrange(A.size)] ^= 1 << rng.randrange(B.atom_count)
        out.append(AlgebraMorphism(s, t, tuple(table)))
    return out


def seeded_filter_tables(seed=1907):
    """Filter-built tables between seeded 3- and 4-atom structures, each
    followed by a copy with one seeded entry changed, which mostly breaks PAL2."""
    rng = random.Random(seed)
    pool = ideal_structures(3) + rng.sample(ideal_structures(4), 60)
    out = []
    for _ in range(300):
        s, t = rng.choice(pool), rng.choice(pool)
        A, B = s.algebra, t.algebra
        gen = s.ideal.generator
        least = [rng.choice((None, rng.randrange(A.size), rng.randrange(A.size) & gen))
                 for _ in range(B.atom_count)]
        phi = AlgebraMorphism(s, t, filter_table(s, t, least))
        a = rng.randrange(A.size)
        changed = phi.table[a] ^ 1 << rng.randrange(B.atom_count)
        out += [phi, AlgebraMorphism(s, t, phi.table[:a] + (changed,) + phi.table[a + 1:])]
    return out


def report_axioms(phis):
    """Check every table on both readings against the oracle; return the
    axioms violated, for the coverage checks."""
    seen = set()
    for phi in phis:
        for kind in ("PAL", "DVAL"):
            report = check_morphism(phi, kind)
            assert report == oracle_check_morphism(phi, kind), (kind, phi.table)
            seen.update(v.axiom for v in report.violations)
    return seen


class TestMorphismAxiomsPerAtom:
    """check_morphism decides every table by the same table passes; they
    must give the oracle's report, least witnesses included."""

    STRUCTURES = structures_up_to(2)

    def meet_preserving(self):
        out = []
        for s in self.STRUCTURES:
            for t in self.STRUCTURES:
                choices = [None] + list(s.algebra.elements())
                for least in itertools.product(choices, repeat=t.algebra.atom_count):
                    out.append(AlgebraMorphism(s, t, filter_table(s, t, least)))
        return out

    def test_every_meet_preserving_table_up_to_two_atoms(self):
        phis = self.meet_preserving()
        assert len(phis) == 1836
        assert report_axioms(phis) == {"PAL1", "PAL3", "PAL4", "PAL5", "PAL6"}

    def test_every_table_up_to_two_atoms(self):
        phis = [phi for s in self.STRUCTURES for t in self.STRUCTURES for phi in every_table(s, t)]
        assert len(phis) == 16912
        assert report_axioms(phis) == {"PAL1", "PAL2", "PAL3", "PAL4", "PAL5", "PAL6"}

    def test_seeded_filter_tables_on_three_and_four_atoms(self):
        phis = seeded_filter_tables()
        assert {phi.source.algebra.atom_count for phi in phis} == {3, 4}
        assert report_axioms(phis) == {"PAL1", "PAL2", "PAL3", "PAL4", "PAL5", "PAL6"}

    def test_seeded_arbitrary_tables_on_three_and_four_atoms(self):
        phis = seeded_arbitrary_tables()
        assert {phi.source.algebra.atom_count for phi in phis} == {3, 4}
        assert report_axioms(phis) == {"PAL1", "PAL2", "PAL3", "PAL4", "PAL5", "PAL6"}

    def test_large_pair_tables_on_four_and_five_atoms(self):
        rng = random.Random(2102)
        for n in (4, 5):
            pool = rng.sample(ideal_structures(n), 40)
            phis = [large_pair_table(rng.choice(pool), rng.choice(pool)) for _ in range(40)]
            report_axioms(phis)
            top = (1 << n) - 1
            for phi in phis:
                names = phi.source.algebra.names_of
                assert check_morphism(phi).violations[0] == \
                    Violation("PAL2", (names(top ^ 2), names(top ^ 1)))


# axiom checks on atom rows ----------------------------------------------------


def element_scan(relation):
    return ElementContact(relation.algebra, relation.contact, label="element scan")


# element scans of the axioms whose row decision does work; on a
# ContactRelation C1-C4 hold by construction and are not checked
ROW_DECIDED = {"NCA": (_check_c5, _check_c6), "CON": (_check_con,)}


def scanned_report(relation, kind):
    """oracle_check_axioms(element_scan(relation), kind) without the C1-C4 scans."""
    scan = element_scan(relation)
    found = (check(scan, relation.algebra) for check in ROW_DECIDED[kind])
    return Report(f"{kind} axioms", tuple(v for v in found if v is not None))


def seeded_relations(seed=2005):
    """Relations on 6 to 8 atoms: random graphs of low, middle and high edge
    density, and (on 6 atoms, where its scan is cheap) a disjoint union of
    cliques and the overlap relation, on which C5 holds."""
    rng = random.Random(seed)
    out = []
    for n in (6, 7, 8):
        alg = small_algebra(n)
        for density in (0.15, 0.5, 0.85):
            rows = [1 << i for i in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < density:
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
            out.append(ContactRelation(alg, tuple(rows)))
    alg = small_algebra(6)
    block = [rng.randrange(3) for _ in range(6)]
    cliques = tuple(_join(1 << j for j in range(6) if block[j] == block[i]) for i in range(6))
    return out + [ContactRelation(alg, cliques), overlap_contact(alg)]


class TestAxiomRows:
    def test_reports_equal_the_element_scan(self):
        # full reports, C1-C4 scans included, on every relation up to 4
        # atoms; the 8^n C4 scan makes all 1,024 on 5 atoms take minutes
        for n in (1, 2, 3, 4):
            for rel in atom_relations(n):
                scan = element_scan(rel)
                for kind in ("CA", "NCA", "CON"):
                    assert check_axioms(rel, kind) == oracle_check_axioms(scan, kind), \
                        (rel.rows, kind)

    def test_witnesses_equal_the_element_scan_on_five_atoms(self):
        for rel in atom_relations(5):
            assert check_axioms(rel, "CA") == Report("CA axioms")
            for kind in ("NCA", "CON"):
                assert check_axioms(rel, kind) == scanned_report(rel, kind), (rel.rows, kind)

    def test_witnesses_equal_the_element_scan_on_seeded_relations(self):
        relations = seeded_relations()
        outcomes = set()
        for rel in relations:
            assert check_axioms(rel, "CA") == Report("CA axioms")
            for kind in ("NCA", "CON"):
                report = check_axioms(rel, kind)
                assert report == scanned_report(rel, kind), (rel.rows, kind)
                outcomes.update((kind, v.axiom) for v in report.violations)
                outcomes.add((kind, report.ok))
        # every decision is seen both passing and failing
        assert outcomes >= {("NCA", "C5"), ("NCA", "C6"), ("NCA", True),
                            ("CON", "CON"), ("CON", True)}

    def test_ll_reports_equal_the_element_scan(self):
        # all seven scans, on all 75 relations up to 4 atoms
        outcomes = set()
        relations = [rel for n in (1, 2, 3, 4) for rel in atom_relations(n)]
        for rel in relations:
            report = check_axioms(rel, "LL")
            assert report == oracle_check_axioms(element_scan(rel), "LL"), rel.rows
            outcomes.update(v.axiom for v in report.violations)
            outcomes.add(report.ok)
        assert len(relations) == 75
        assert outcomes == {"LL5", "LL6", True, False}


# boundedness axioms and dual topology ---------------------------------------------


class TestBoundednessRows:
    def test_reports_equal_the_element_scan(self):
        outcomes = set()
        structures = structures_up_to(4)
        for s in structures:
            report = check_lca_axioms(s)
            assert report == oracle_check_lca_axioms(s), (s.contact.rows, s.ideal.generator)
            outcomes.update(v.axiom for v in report.violations)
            outcomes.add(report.ok)
        assert len(structures) == 1098
        assert outcomes == {"BC1", "BC2", "BC3", True, False}


class TestDualTopology:
    def test_least_open_sets_equal_the_region_closure(self):
        built = 0
        for s in structures_up_to(4):
            try:
                dual = dual_space(s, validate=False)
            except StructureError:
                continue  # no points: every cluster is the one at infinity
            assert dual.space.min_nbhd == \
                oracle_dual_nbhd(dual.regions, len(dual.clusters)), \
                (s.contact.rows, s.ideal.generator)
            built += 1
        assert built == 984


# cluster enumeration ------------------------------------------------------------


def oracle_grill_supports(relation):
    """Every nonempty atom support whose up-closure touches pairwise and is
    maximal, tested on the up-closure's elements."""
    alg = relation.algebra
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
    return found


class TestGrillRows:
    def test_supports_equal_the_element_scan_up_to_four_atoms(self):
        relations = [rel for n in (1, 2, 3, 4) for rel in atom_relations(n)]
        assert len(relations) == 75
        counts = set()
        for rel in relations:
            supports = [c.support for c in grill_clusters(rel)]
            assert supports == oracle_grill_supports(rel), rel.rows
            counts.add(len(supports))
        assert counts == {0, 1, 2, 3, 4}

    def test_supports_equal_the_element_scan_on_seeded_six_atom_relations(self):
        rng = random.Random(1966)
        for _ in range(30):
            rel = random_atom_relation(6, rng)
            assert [c.support for c in grill_clusters(rel)] == oracle_grill_supports(rel), \
                rel.rows


# region sweeps ----------------------------------------------------------------

GRID = (NEG_INF, Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), POS_INF)


def grid_regions():
    """Every normal region of at most two intervals with endpoints on GRID."""
    out = [RationalRegion.empty()]
    for count in (2, 4):
        for ends in itertools.combinations(GRID, count):
            out.append(RationalRegion(tuple(zip(ends[::2], ends[1::2]))))
    return out


class TestRegionSweeps:
    def test_sweeps_equal_the_pairwise_scans_on_the_grid(self):
        regions = grid_regions()
        assert len(regions) == 1 + 21 + 35
        outcomes = {name: set() for name, _, _ in REGION_SWEEPS}
        for f in regions:
            for g in regions:
                for name, fast, oracle in REGION_SWEEPS:
                    result = outcome(fast, f, g)
                    assert result == outcome(oracle, f, g), (name, f.to_text(), g.to_text())
                    outcomes[name].add(result[1] if isinstance(result[1], bool) else result[0])
        for name in ("le", "touches", "well_inside", "well_inside_extended"):
            assert outcomes[name] == {True, False}, name
        assert outcomes["interpolate"] == {"value", "Refusal"}

    def test_normal_form_of_unsorted_pairs_equals_the_full_sort(self):
        intervals = list(itertools.combinations(GRID, 2))
        for pairs in itertools.product(intervals, repeat=2):
            assert RationalRegion.of(*pairs) == oracle_merged(pairs), pairs


class TestEndpointOrder:
    def test_before_equals_fraction_order_on_a_grid(self):
        # both signs and denominators 1 to 7, so equal values occur as
        # distinct objects spelled differently (2/4 and 1/2, 6/3 and 2)
        finite = [Fraction(n, d) for n in range(-8, 9) for d in range(1, 8)]
        ends = [NEG_INF, POS_INF, *finite]
        assert len({id(end) for end in ends}) == len(ends)
        verdicts = set()
        for a in ends:
            for b in ends:
                assert _before(a, b) == (a < b), (a, b)
                verdicts.add((a == b, _before(a, b)))
        assert verdicts == {(True, False), (False, True), (False, False)}


class TestNoFractionOrder:
    """The sweeps and the normal form of unsorted pairs order endpoints with
    _before alone.

    The grid regions are built before the count starts; the results of the
    operations, which the constructor checks for normal form, are built
    inside it.
    """

    def test_sweeps_make_no_fraction_comparison(self, fraction_orderings):
        regions = grid_regions()
        sweeps = [fast for name, fast, _ in REGION_SWEEPS if name != "interpolate"]
        assert len(sweeps) == 7
        for f in regions:
            for g in regions:
                for fast in sweeps:
                    fast(f, g)
        assert fraction_orderings == []

    def test_normal_form_of_unsorted_pairs_makes_no_fraction_comparison(
            self, fraction_orderings):
        # intervals as GRID index pairs, so that choosing them compares no Fraction
        spans = list(itertools.combinations(range(len(GRID)), 2))
        unsorted = 0
        for chosen in itertools.product(spans, repeat=3):
            if sorted(chosen) != list(chosen):
                RationalRegion.of(*((GRID[i], GRID[j]) for i, j in chosen))
                unsorted += 1
        assert unsorted == 21 ** 3 - 1771  # all triples less the sorted ones
        assert fraction_orderings == []


class _Rat(Fraction):
    """A Fraction subclass, which a region must store as a plain Fraction."""


def _respelled(end):
    """A grid endpoint as an int or a _Rat, for the conversion to undo."""
    if end is NEG_INF or end is POS_INF:
        return end
    return int(end) if end.denominator == 1 else _Rat(end)


def _json_text(region):
    """A region file with each finite endpoint as a JSON number."""
    def number(end):
        return f'"{end}"' if end in (NEG_INF, POS_INF) else str(float(end))
    return '{"intervals": [%s]}' % ", ".join(
        f"[{number(lo)}, {number(hi)}]" for lo, hi in region.intervals)


class TestStoredEndpoints:
    """Every endpoint a region holds is a plain Fraction or the module's own
    NEG_INF or POS_INF object: the invariant _before's reads of Fraction's
    integer slots rely on."""

    def test_every_constructor_and_operation_stores_plain_endpoints(self):
        regions = grid_regions()
        built = []
        producers = set()
        for f in regions:
            for g in regions:
                for name, fast, _ in REGION_SWEEPS:
                    result = outcome(fast, f, g)
                    if isinstance(result[1], RationalRegion):
                        built.append(result[1])
                        producers.add(name)
            built.append(RationalRegion.of(*((_respelled(lo), _respelled(hi))
                                             for lo, hi in f.intervals)))
            built.append(RationalRegion.from_text(f.to_text()))
            kind, read = jsonio.loads(_json_text(f))  # through jsonio.region_from_json
            assert kind == "region" and read == f
            built.append(read)
            built += [expand(f, margin) for margin in (Fraction(1, 2), 1, _Rat(3))]
            built += [affine_preimage(alpha, beta, f)
                      for alpha, beta in ((2, 1), (Fraction(-1, 2), 0), (_Rat(-3), _Rat(1, 3)))]
        assert producers == {"join", "meet", "complement", "interpolate"}
        ends = [end for region in built for pair in region.intervals for end in pair]
        kinds = {"fraction" if type(end) is Fraction
                 else "infinity" if end is NEG_INF or end is POS_INF
                 else type(end).__name__ for end in ends}
        assert kinds == {"fraction", "infinity"}


class TestSampledRegions:
    def test_region_laws_samples_equal_the_oracle_draws(self):
        # region laws always passes, so its transcript cannot see its samples
        counts = set()
        for seed in range(50):
            fast, slow = random.Random(seed), random.Random(seed)
            for _ in range(120):
                region = cli._random_region(fast)
                assert region == oracle_random_region(slow), seed
                counts.add(len(region.intervals))
            assert fast.getstate() == slow.getstate(), seed
        assert counts == {0, 1, 2, 3}


# space and map predicates ----------------------------------------------------------


class TestSpacePredicates:
    SPACES = {n: all_preorder_spaces(n) for n in (1, 2, 3, 4)}

    def test_connectedness_equals_the_clopen_scan(self):
        spaces = [space for n in (1, 2, 3, 4) for space in self.SPACES[n]]
        assert len(spaces) == 389
        verdicts = set()
        for space in spaces:
            connected = space_predicates(space).connected
            assert connected == oracle_connected(space), space.min_nbhd
            verdicts.add(connected)
        assert verdicts == {True, False}

    def test_regular_closed_sets_equal_the_closure_interior_scan(self):
        spaces = [space for n in (1, 2, 3, 4) for space in self.SPACES[n]]
        sizes = set()
        for space in spaces:
            carrier = regular_closed_sets(space)
            assert carrier == oracle_regular_closed_sets(space), space.min_nbhd
            sizes.add(len(carrier))
        assert sizes == {2, 4, 8, 16}

    def test_rc_atoms_equal_the_all_pairs_scan(self):
        spaces = [space for n in (1, 2, 3, 4) for space in self.SPACES[n]]
        counts = set()
        for space in spaces:
            atoms = rc_algebra(space).atoms
            assert atoms == oracle_rc_atoms(regular_closed_sets(space)), space.min_nbhd
            counts.add(len(atoms))
        assert counts == {1, 2, 3, 4}

    def test_closedness_equals_the_closed_set_scan(self):
        # every map between spaces of at most 3 points, and every map between
        # a 4-point space and a 2-point space in either direction (all maps
        # between 4-point spaces would be 355 * 355 * 256 of them)
        small = [space for n in (1, 2, 3) for space in self.SPACES[n]]
        pairs = [(a, b) for a in small for b in small]
        pairs += [pair for a in self.SPACES[4] for b in self.SPACES[2] for pair in ((a, b), (b, a))]
        verdicts = set()
        count = 0
        for source, target in pairs:
            for f in all_maps(source, target):
                closed = map_predicates(f).closed
                assert closed == oracle_closed(f), (source.min_nbhd, target.min_nbhd, f.assignment)
                verdicts.add(closed)
                count += 1
        assert count == 24872 + 2 * 355 * 4 * 16
        assert verdicts == {True, False}


# regular closed laws on atom images --------------------------------------------


def walked_law(table, contact, rc):
    """The element walk that rc_law_violation decides on atom images."""
    return first_law_violation(range(len(table)), table, element_ops(contact), rc.set_ops,
                               contact.algebra.names_of)


class TestRegularClosedLawsOnAtoms:
    """rc_law_violation equals the element walk.

    A table failing the atom test gets the walk itself, so what these cases
    pin is that a table passing it breaks no law; each test also checks that
    both outcomes, and the failing laws it names, occur.
    """

    def compare(self, cases):
        passed, laws = 0, set()
        for table, contact, rc in cases:
            law = walked_law(table, contact, rc)
            assert rc_law_violation(table, contact, rc) == law, (table, contact.rows)
            passed += law is None
            laws.add(law and law.axiom)
        return passed, laws

    def test_permuted_region_tables_against_every_atom_relation(self):
        cases = []
        rng = random.Random(CORPUS_SEED)
        for n in (1, 2, 3):
            rc = rc_algebra(discrete(n))
            if n < 3:
                tables = list(itertools.permutations(rc.pointsets))
            else:
                # the atom permutations, and a sample of the 8! permutations
                tables = [atom_unions(atoms) for atoms in itertools.permutations(rc.atoms)]
                for _ in range(3000):
                    table = list(rc.pointsets)
                    rng.shuffle(table)
                    tables.append(tuple(table))
            relations = [ContactRelation(rc.algebra, r.rows) for r in atom_relations(n)]
            cases += [(table, relation, rc) for table in tables for relation in relations]
        assert len(cases) == 2 + 24 * 2 + 3006 * 8
        passed, laws = self.compare(cases)
        assert passed == 1 + 2 + 6
        assert laws == {None, "join", "contact", "complement"}

    def test_tampered_atom_lists_of_every_space_up_to_three_points(self):
        cases = []
        for n in (1, 2, 3):
            for space in all_preorder_spaces(n):
                rc = rc_algebra(space)
                for atoms in itertools.product(range(space.everything + 1), repeat=len(rc.atoms)):
                    tampered = dataclasses.replace(rc, atoms=atoms)
                    cases.append((tampered.pointsets, rc.contact, tampered))
                    if all(atoms):
                        # the relation the tampered atoms meet by, so that
                        # only the bijection test can reject the table
                        rows = tuple(sum(1 << j for j, g in enumerate(atoms) if f & g)
                                     for f in atoms)
                        cases.append((tampered.pointsets, ContactRelation(rc.algebra, rows),
                                      tampered))
        passed, laws = self.compare(cases)
        assert passed > 0
        assert laws == {None, "meet", "contact", "complement"}


# open points a, b, c with x in the closures of a and b, y in those of b and
# c: three regular closed atoms in a path, so an atom swap can break contact
PATH_SPACE = FiniteSpace(tuple("abcxy"), (0b00001, 0b00010, 0b00100, 0b01011, 0b10110))


def tampered_tables(table, rc, rng):
    """Bijective retablings of table, a dict onto rc.carrier: every permutation
    of rc's atoms applied to the values, every transposition of two values, and
    five seeded shuffles."""
    keys = list(table)
    position = {f: a for a, f in enumerate(rc.pointsets)}
    n = rc.algebra.atom_count
    for perm in itertools.permutations(range(n)):
        moved = [sum(1 << perm[i] for i in range(n) if a >> i & 1) for a in range(1 << n)]
        yield {u: rc.pointsets[moved[position[f]]] for u, f in table.items()}
    for i, j in itertools.combinations(range(len(keys)), 2):
        swapped = dict(table)
        swapped[keys[i]], swapped[keys[j]] = table[keys[j]], table[keys[i]]
        yield swapped
    for _ in range(5):
        values = list(table.values())
        rng.shuffle(values)
        yield dict(zip(keys, values))


class TestRegularOpenAndTraceLawsOnAtoms:
    """ro_law_violation and trace_law_violation equal the element walk on
    tampered closure and trace tables of every space up to three points and
    of PATH_SPACE, with both outcomes and the failing laws named."""

    def test_tampered_closure_maps(self):
        rng = random.Random(CORPUS_SEED)
        passed, laws = 0, set()
        for space in [s for n in (1, 2, 3) for s in all_preorder_spaces(n)] + [PATH_SPACE]:
            ro, rc = ro_algebra(space), rc_algebra(space)
            for to_closed in tampered_tables(ro.to_closed, rc, rng):
                tampered = dataclasses.replace(ro, to_closed=to_closed)
                law = first_law_violation(ro.carrier, to_closed, ro.set_ops, rc.set_ops,
                                          space.names_of)
                assert ro_law_violation(tampered, rc) == law, (space.min_nbhd, to_closed)
                passed += law is None
                laws.add(law and law.axiom)
        assert passed > 0
        assert laws == {None, "join", "contact", "complement"}

    def test_tampered_traces(self):
        rng = random.Random(CORPUS_SEED)
        passed, laws = 0, set()
        for space in [s for n in (1, 2, 3) for s in all_preorder_spaces(n)] + [PATH_SPACE]:
            for subset in range(1, space.everything + 1):
                if space.closure(subset) != space.everything:
                    continue
                iso = dense_subspace_isomorphism(space, subset)
                big, small = rc_algebra(space), rc_algebra(iso.subspace)
                no_contact = big.set_ops._replace(contact=None)
                for restrict in tampered_tables(iso.restrict, small, rng):
                    law = first_law_violation(big.carrier, restrict, no_contact, small.set_ops,
                                              space.names_of)
                    assert trace_law_violation(restrict, big, small) == law, (space.min_nbhd,
                                                                              restrict)
                    passed += law is None
                    laws.add(law and law.axiom)
        assert passed > 0
        assert laws == {None, "join", "complement"}


class TestDenseSubspaceTables:
    def test_tables_equal_the_per_set_rewrites_up_to_four_points(self):
        pairs = 0
        for space in [s for n in range(1, 5) for s in all_preorder_spaces(n)]:
            for subset in range(1, space.everything + 1):
                if space.closure(subset) != space.everything:
                    continue
                iso = dense_subspace_isomorphism(space, subset)
                big, small = rc_algebra(space).carrier, rc_algebra(iso.subspace).carrier
                assert list(iso.restrict.items()) == [
                    (f, oracle_restrict_set(space, subset, f)) for f in big]
                assert list(iso.extend.items()) == [
                    (g, space.closure(oracle_embed_set(space, subset, g))) for g in small]
                pairs += 1
        assert pairs == 2271


# dual of a map from tables -------------------------------------------------------


def seeded_maps(seed=CORPUS_SEED):
    """Maps between sampled spaces of 4-6 points: the identity of each space,
    every constant map and four seeded assignments per pair."""
    rng = random.Random(seed)
    spaces = [s for n in (4, 5, 6) for s in [discrete(n)] + sampled_preorder_spaces(n, 3, seed)]
    for source in spaces:
        yield SpaceMap.identity(source)
        for target in spaces:
            for y in range(target.point_count):
                yield SpaceMap(source, target, (y,) * source.point_count)
            for _ in range(4):
                yield SpaceMap(source, target, tuple(rng.randrange(target.point_count)
                                                     for _ in range(source.point_count)))


class TestDualOfMapTables:
    """dual_of_map equals the per-set loop, table or refusal text alike, and
    to_element equals the atom scan, element or StructureError text alike."""

    def compare(self, maps):
        outcomes = []
        for f in maps:
            found = outcome(dual_of_map, f)
            assert found == outcome(oracle_dual_of_map, f), (
                f.source.min_nbhd, f.target.min_nbhd, f.assignment)
            outcomes.append(found[0] if found[0] == "value" else found[1])
        return outcomes

    def test_every_map_between_spaces_up_to_three_points(self):
        spaces = [s for n in (1, 2, 3) for s in all_preorder_spaces(n)]
        outcomes = self.compare(f for a in spaces for b in spaces for f in all_maps(a, b))
        assert len(outcomes) == 24872
        assert set(outcomes) == {"value", "map is not perfect: fails the continuous predicate",
                                 "map is not perfect: fails the closed predicate"}

    def test_seeded_maps_between_spaces_of_four_to_six_points(self):
        outcomes = self.compare(seeded_maps())
        assert len(set(outcomes)) == 3
        assert outcomes.count("value") > len(outcomes) // 4

    def test_to_element_equals_the_atom_scan_up_to_four_points(self):
        found = set()
        for space in [s for n in (1, 2, 3, 4) for s in all_preorder_spaces(n)]:
            rc = rc_algebra(space)
            for m in range(space.everything + 1):
                result = outcome(rc.to_element, m)
                assert result == outcome(oracle_to_element, rc, m), (space.min_nbhd, m)
                found.add(result[0])
        assert found == {"value", "StructureError"}
