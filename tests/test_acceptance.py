"""Acceptance suite: one test per criterion, each printing one pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is exact (table equality, exhaustive
enumeration, or zero violations over a seeded sample); time budgets are
asserted as stated.
"""

import random
import time
from fractions import Fraction as Fr

from contact_duality.clusters import check_cluster, enumerate_clusters, grill_clusters
from contact_duality.contact import check_axioms, overlap_contact, universal_contact
from corpus import (
    all_maps,
    all_preorder_spaces,
    atom_relations,
    discrete,
    overlap_structures_with_proper_ideal,
    random_atom_relation,
    sampled_preorder_spaces,
    small_algebra,
    validated_structures,
)
from contact_duality.duality import (
    AlgebraMorphism,
    check_closed_embedding,
    check_morphism,
    compose,
    dual_of_map,
    dual_of_morphism,
    point_embedding,
    roundtrip_report,
    verify_double_dual,
)
from contact_duality.localcontact import (
    BoundedIdeal,
    LocalContactAlgebra,
    alexandroff_certificate,
    infinity_cluster,
)
from contact_duality.regions import RationalRegion, affine_preimage, expand, interpolate
from contact_duality.spaces import (
    SpaceMap,
    dense_subspace_isomorphism,
    map_predicates,
    rc_algebra,
    space_predicates,
)

SEED = 1729


class _Timer:
    def __init__(self, name, budget):
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} {self.name} ({elapsed:.2f}s, budget {self.budget}s)")
        assert elapsed < self.budget, f"{self.name} exceeded its time budget"


def test_criterion_01_axiom_checker_soundness():
    with _Timer("criterion 1: axiom checker soundness", 1.0):
        for n in (1, 2, 3, 4):
            assert check_axioms(overlap_contact(small_algebra(n)), "NCA").ok
        report = check_axioms(universal_contact(small_algebra(2)), "NCA")
        assert [v.axiom for v in report.violations] == ["C6"]
        assert report.violations[0].witness == (("p",),)


def test_criterion_02_cluster_oracle_equivalence():
    with _Timer("criterion 2: clique path equals grill oracle", 10.0):
        for n in (1, 2, 3):
            relations = atom_relations(n)
            assert len(relations) == 1 << (n * (n - 1) // 2)
            for r in relations:
                assert [c.support for c in enumerate_clusters(r)] == \
                       [c.support for c in grill_clusters(r)]
        rng = random.Random(SEED)
        for _ in range(100):
            r = random_atom_relation(6, rng)
            assert [c.support for c in enumerate_clusters(r)] == \
                   [c.support for c in grill_clusters(r)]


def test_criterion_03_alexandroff_extension_and_infinity_cluster():
    with _Timer("criterion 3: extension normality and the cluster at infinity", 10.0):
        proper_seen = 0
        for n in (1, 2, 3):
            for s in validated_structures(n):
                assert alexandroff_certificate(s).ok
                if not s.improper:
                    proper_seen += 1
                    sigma = infinity_cluster(s, check=False)
                    assert check_cluster(sigma.relation, sigma.members()).ok
        # No finite structure with a proper ideal passes the boundedness
        # axioms, so the clause above is vacuous over the validated corpus;
        # the supplementary overlap family exercises it non-vacuously.
        assert proper_seen == 0
        exercised = 0
        for n in (2, 3):
            for s in overlap_structures_with_proper_ideal(n):
                sigma = infinity_cluster(s, check=False)
                assert check_cluster(sigma.relation, sigma.members()).ok
                exercised += 1
        assert exercised > 0
        print(f"  (validated corpus proper-ideal cases: {proper_seen}, "
              f"supplementary cases exercised: {exercised})")


def test_criterion_04_duality_round_trip():
    with _Timer("criterion 4: homeomorphism, isomorphism, naturality squares", 60.0):
        spaces = [discrete(n) for n in (1, 2, 3, 4)]
        for X in spaces:
            emb = point_embedding(X)
            assert emb.homeomorphism
            assert verify_double_dual(emb.rc.lca(), emb.dual).ok
        checked_maps = 0
        for X in spaces:
            for Y in spaces:
                for f in all_maps(X, Y):
                    assert roundtrip_report(f).ok
                    assert roundtrip_report(dual_of_map(f)).ok
                    checked_maps += 1
        assert checked_maps == sum(
            len(Y.points) ** len(X.points) for X in spaces for Y in spaces)
        print(f"  ({checked_maps} maps, both squares each)")


def test_criterion_05_functoriality_and_associativity():
    with _Timer("criterion 5: contravariant functoriality and composition", 60.0):
        spaces = {n: discrete(n) for n in (1, 2, 3)}
        duals = {}
        for a, X in spaces.items():
            for b, Y in spaces.items():
                for f in all_maps(X, Y):
                    duals[(a, b, f.assignment)] = dual_of_map(f)
        pairs = 0
        for a, X in spaces.items():
            for b, Y in spaces.items():
                for c, Z in spaces.items():
                    for f in all_maps(X, Y):
                        for g in all_maps(Y, Z):
                            composite = duals[(a, c, g.after(f).assignment)]
                            split = compose(duals[(a, b, f.assignment)],
                                            duals[(b, c, g.assignment)])
                            assert composite.table == split.table
                            pairs += 1
        triples = 0
        small = {k: v for k, v in duals.items() if k[0] <= 2 and k[1] <= 2}
        for k1, p1 in small.items():
            for k2, p2 in small.items():
                if k2[1] != k1[0]:
                    continue
                for k3, p3 in small.items():
                    if k3[1] != k2[0]:
                        continue
                    assert compose(compose(p3, p2), p1).table == \
                           compose(p3, compose(p2, p1)).table
                    triples += 1
        rng = random.Random(SEED)
        endos = [v for k, v in duals.items() if k[0] == k[1] == 3]
        for _ in range(200):
            p1, p2, p3 = (rng.choice(endos) for _ in range(3))
            assert compose(compose(p3, p2), p1).table == \
                   compose(p3, compose(p2, p1)).table
        print(f"  ({pairs} composable pairs, {triples} exhaustive small triples, "
              "200 seeded size-3 triples)")


def test_criterion_06_injective_iff_dual_surjective():
    with _Timer("criterion 6: injectivity against dual surjectivity", 30.0):
        injective_seen = non_injective_seen = 0
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                for f in all_maps(discrete(n), discrete(m)):
                    phi = dual_of_map(f)
                    collisions = [
                        (a, b)
                        for a in phi.source.algebra.elements()
                        for b in phi.source.algebra.elements()
                        if a < b and phi.table[a] == phi.table[b]
                    ]
                    g = dual_of_morphism(phi)
                    hit = set(g.assignment)
                    missed = [p for p in range(g.target.point_count) if p not in hit]
                    assert bool(collisions) == bool(missed)
                    if collisions:
                        non_injective_seen += 1
                    else:
                        injective_seen += 1
        assert injective_seen and non_injective_seen
        print(f"  ({injective_seen} injective with surjective duals, "
              f"{non_injective_seen} witnessed failures on both sides)")


def test_criterion_07_closed_embedding_agreement():
    with _Timer("criterion 7: embedding conditions against the space side", 30.0):
        positives = negatives = 0
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                for f in all_maps(discrete(n), discrete(m)):
                    phi = dual_of_map(f)
                    algebraic = check_closed_embedding(phi).is_embedding
                    g = dual_of_morphism(phi)
                    preds = map_predicates(g)
                    direct = preds.injective and preds.perfect
                    if direct:
                        image = g.image(g.source.everything)
                        direct = g.target.is_closed(image)
                    if direct:
                        sub = g.target.subspace(image)
                        kept = [i for i in range(g.target.point_count) if image >> i & 1]
                        core = SpaceMap(g.source, sub,
                                        tuple(kept.index(v) for v in g.assignment))
                        inverse = SpaceMap(sub, g.source,
                                           tuple(g.assignment.index(kept[k])
                                                 for k in range(sub.point_count)))
                        direct = (map_predicates(core).continuous
                                  and map_predicates(inverse).continuous)
                    assert algebraic == direct
                    positives += algebraic
                    negatives += not algebraic
        inclusion = dual_of_map(SpaceMap(discrete(1), discrete(2), (0,)))
        assert check_closed_embedding(inclusion).is_embedding
        collapse = dual_of_map(SpaceMap(discrete(2), discrete(1), (0, 0)))
        assert not check_closed_embedding(collapse).is_embedding
        assert positives and negatives
        print(f"  ({positives} embeddings, {negatives} non-embeddings, all agreeing)")


def test_criterion_08_ideal_covering_regression():
    with _Timer("criterion 8: identity into the overlap companion", 1.0):
        for n, generator in ((2, 0b01), (3, 0b011)):
            alg = small_algebra(n)
            source = LocalContactAlgebra(overlap_contact(alg),
                                         BoundedIdeal(alg, generator))
            target = LocalContactAlgebra(overlap_contact(alg),
                                         BoundedIdeal(alg, alg.top))
            ident = AlgebraMorphism(source, target, tuple(alg.elements()))
            assert [v.axiom for v in check_morphism(ident).violations] == ["PAL4"]
        for n in (1, 2, 3):
            alg = small_algebra(n)
            whole = LocalContactAlgebra(overlap_contact(alg),
                                        BoundedIdeal(alg, alg.top))
            ident = AlgebraMorphism(whole, whole, tuple(alg.elements()))
            assert check_morphism(ident).ok


def _predicate_corpus():
    corpus = []
    for n in (1, 2, 3, 4):
        corpus.extend(all_preorder_spaces(n))
    corpus.extend(sampled_preorder_spaces(5, 120, seed=SEED))
    return corpus


def test_criterion_09_extremal_disconnection_is_overlap_contact():
    with _Timer("criterion 9: extremally disconnected means overlap contact", 120.0):
        corpus = _predicate_corpus()
        for space in corpus:
            rc = rc_algebra(space)
            is_overlap = rc.contact.rows == tuple(
                1 << i for i in range(rc.algebra.atom_count))
            assert space_predicates(space).extremally_disconnected == is_overlap
        print(f"  ({len(corpus)} spaces: all labeled preorders on up to 4 points "
              f"plus a seeded sample of 120 on 5 points)")


def test_criterion_10_connectedness_correspondence():
    with _Timer("criterion 10: space connected means contact connected", 120.0):
        for space in _predicate_corpus():
            rc = rc_algebra(space)
            assert space_predicates(space).connected == check_axioms(rc.contact, "CON").ok


def _random_region(rng, allow_rays=True):
    pairs = []
    for _ in range(rng.randrange(0, 4)):
        lo = Fr(rng.randrange(-60, 60), rng.randrange(1, 9))
        width = Fr(rng.randrange(1, 40), rng.randrange(1, 9))
        pairs.append((lo, lo + width))
    if allow_rays and pairs and rng.random() < 0.2:
        lo, hi = pairs[0]
        pairs[0] = (float("-inf"), hi) if rng.random() < 0.5 else (lo, float("inf"))
    return RationalRegion.of(*pairs) if pairs else RationalRegion.empty()


def test_criterion_11_line_model():
    with _Timer("criterion 11: rational line model", 60.0):
        rng = random.Random(SEED)
        for _ in range(10_000):
            f = _random_region(rng)
            g = _random_region(rng)
            h = _random_region(rng)
            if not f.is_empty:
                assert f.touches(f)
            if f.touches(g):
                assert not f.is_empty and not g.is_empty
            assert f.touches(g) == g.touches(f)
            assert f.touches(g | h) == (f.touches(g) or f.touches(h))
        interpolations = 0
        while interpolations < 1000:
            f = _random_region(rng, allow_rays=False)
            if f.is_empty:
                continue
            g = expand(f, Fr(rng.randrange(1, 9), rng.randrange(1, 5))) | _random_region(rng)
            if not f.well_inside(g):
                continue
            h = interpolate(f, g)
            assert h.is_bounded and f.well_inside(h) and h.well_inside(g)
            interpolations += 1
        for _ in range(1000):
            alpha = Fr(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randrange(1, 4))
            beta = Fr(rng.randrange(-12, 12), rng.randrange(1, 4))

            def phi(r):
                return affine_preimage(alpha, beta, r)

            f = _random_region(rng)
            g = _random_region(rng)
            assert phi(RationalRegion.empty()).is_empty
            assert phi(f & g) == phi(f) & phi(g)
            if f.is_bounded:
                assert phi(f).is_bounded
                if f.well_inside(g):
                    assert (~phi(~f)).well_inside(phi(g))
            bounded = f if f.is_bounded else f & RationalRegion.of((Fr(-100), Fr(100)))
            witness = affine_preimage(1 / alpha, -beta / alpha, bounded)
            assert witness.is_bounded
            assert bounded.le(phi(witness))


def test_criterion_12_dense_subspace_isomorphisms():
    with _Timer("criterion 12: dense subspace trace and closure maps", 10.0):
        pairs = 0
        for space in all_preorder_spaces(3) + sampled_preorder_spaces(4, 25, seed=SEED):
            for subset in range(1, space.everything + 1):
                if space.closure(subset) != space.everything:
                    continue
                if subset == space.everything and space.point_count > 2:
                    continue  # keep the corpus focused on proper dense subsets
                iso = dense_subspace_isomorphism(space, subset)
                assert iso.certificate.ok
                for f, g in iso.restrict.items():
                    assert iso.extend[g] == f
                for g, f in iso.extend.items():
                    assert iso.restrict[f] == g
                sub = iso.subspace
                for f1 in iso.restrict:
                    for f2 in iso.restrict:
                        assert iso.restrict[f1 | f2] == iso.restrict[f1] | iso.restrict[f2]
                        meet_big = space.closure(space.interior(f1 & f2))
                        meet_small = sub.closure(sub.interior(
                            iso.restrict[f1] & iso.restrict[f2]))
                        assert iso.restrict[meet_big] == meet_small
                    comp_big = space.closure(space.everything ^ f1)
                    assert iso.restrict[comp_big] == sub.closure(
                        sub.everything ^ iso.restrict[f1])
                for g1 in iso.extend:
                    for g2 in iso.extend:
                        assert iso.extend[g1 | g2] == iso.extend[g1] | iso.extend[g2]
                        meet_small = sub.closure(sub.interior(g1 & g2))
                        meet_big = space.closure(space.interior(
                            iso.extend[g1] & iso.extend[g2]))
                        assert iso.extend[meet_small] == meet_big
                    comp_small = sub.closure(sub.everything ^ g1)
                    assert iso.extend[comp_small] == space.closure(
                        space.everything ^ iso.extend[g1])
                pairs += 1
                if pairs >= 60:
                    break
            if pairs >= 60:
                break
        assert pairs >= 20
        print(f"  ({pairs} dense pairs checked)")
