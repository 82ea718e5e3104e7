import dataclasses
import random
import time
from itertools import product

import pytest

import contact_duality.duality as duality_module
from contact_duality.boolalg import FiniteBooleanAlgebra, atom_unions
from contact_duality.clusters import check_cluster, grill_clusters
from contact_duality.contact import ContactRelation, check_axioms, overlap_contact
from corpus import (
    all_maps,
    all_preorder_spaces,
    constant_to_one,
    discrete,
    repaired_random_morphisms,
    validated_structures,
)
from contact_duality.duality import (
    AlgebraMorphism,
    DualSpace,
    check_closed_embedding,
    check_morphism,
    compose,
    dual_of_map,
    dual_of_morphism,
    dual_space,
    identity_morphism,
    point_embedding,
    regularize,
    roundtrip_report,
    verify_double_dual,
)
from contact_duality.errors import IntegrityError, Refusal, StructureError
from contact_duality.report import Report, Violation
from contact_duality.localcontact import (
    BoundedIdeal,
    LocalContactAlgebra,
    alexandroff_extension,
    nca_as_lca,
)
from contact_duality.spaces import (
    FiniteSpace,
    SpaceMap,
    SpacePredicates,
    map_predicates,
    rc_algebra,
    space_predicates,
)


def failed_axioms(phi):
    return {v.axiom for v in check_morphism(phi).violations}


def raw_compose(second, first):
    return AlgebraMorphism(
        first.source, second.target,
        tuple(second.table[first.table[a]] for a in first.source.algebra.elements()))


def improper_overlap(n):
    return nca_as_lca(overlap_contact(FiniteBooleanAlgebra(tuple("pqrs"[:n]))))


def proper_overlap(n, generator):
    alg = FiniteBooleanAlgebra(tuple("pqrs"[:n]))
    return LocalContactAlgebra(overlap_contact(alg), BoundedIdeal(alg, generator))


def boolean_homomorphisms(source, target):
    """Every Boolean homomorphism table: atom j of the target goes to the
    atom pick[j] of the source."""
    A, B = source.algebra, target.algebra
    return {tuple(sum(1 << j for j in range(B.atom_count) if a >> pick[j] & 1)
                  for a in A.elements())
            for pick in product(range(A.atom_count), repeat=B.atom_count)}


def morphism_candidates():
    """Mixed bag for the law suite: lawful duals, identities, and rejects."""
    out = []
    for n in (1, 2):
        for m in (1, 2):
            for f in all_maps(discrete(n), discrete(m)):
                out.append(dual_of_map(f))
    for n in (1, 2, 3):
        s = improper_overlap(n)
        out.append(identity_morphism(s))
        out.append(constant_to_one(s, s))
        out.extend(repaired_random_morphisms(s, 6, seed=23))
    return out


class TestDualSpace:
    def test_two_atom_overlap_dualizes_to_discrete_pair(self):
        dual = dual_space(improper_overlap(2))
        assert dual.case == "compact"
        assert dual.space.point_count == 2
        assert space_predicates(dual.space).hausdorff

    def test_one_atom_dualizes_to_a_point(self):
        dual = dual_space(improper_overlap(1))
        assert dual.space.point_count == 1

    def test_region_table_edges(self):
        for n in (1, 2, 3):
            s = improper_overlap(n)
            dual = dual_space(s)
            assert dual.region_of(0) == 0
            assert dual.region_of(s.algebra.top) == dual.space.everything
            for a in s.algebra.elements():
                for b in s.algebra.elements():
                    assert dual.region_of(a | b) == dual.region_of(a) | dual.region_of(b)

    def test_double_dual_isomorphism_on_validated_corpus(self):
        for n in (1, 2, 3):
            for s in validated_structures(n):
                assert verify_double_dual(s, dual_space(s)).ok

    def test_refuses_structures_failing_boundedness(self):
        with pytest.raises(Refusal):
            dual_space(proper_overlap(2, 0b01))

    def test_built_once_per_structure(self):
        for n in (1, 2, 3):
            s = improper_overlap(n)
            assert dual_space(s) is dual_space(s)
            assert s.dual is dual_space(s)

    def test_refusal_repeats_and_survives_an_unvalidated_call(self):
        s = proper_overlap(2, 0b01)
        for _ in range(2):
            with pytest.raises(Refusal) as raised:
                dual_space(s)
            assert "BC3" in raised.value.report.render()
        assert s.dual.case == "local"
        with pytest.raises(Refusal):
            dual_space(s)
        fresh = proper_overlap(2, 0b01)
        assert fresh.dual.case == "local"
        with pytest.raises(Refusal):
            dual_space(fresh)

    def test_equal_copies_give_equal_duals(self):
        for n in (1, 2, 3):
            for s in validated_structures(n):
                copy = LocalContactAlgebra(s.contact, BoundedIdeal(s.algebra, s.ideal.generator))
                assert copy is not s and copy == s
                ours, theirs = dual_space(s), dual_space(copy)
                assert ours is not theirs
                assert (ours.space, ours.regions, ours.case) == \
                    (theirs.space, theirs.regions, theirs.case)
                assert [c.support for c in ours.clusters] == \
                    [c.support for c in theirs.clusters]

    def test_local_case_drops_the_infinity_cluster(self):
        s = proper_overlap(2, 0b01)
        dual = s.dual
        assert dual.case == "local"
        assert dual.space.point_count == 1
        assert dual.infinity is not None
        assert dual.infinity.support == 0b10
        everything = {c.support for c in grill_clusters(alexandroff_extension(s))}
        assert everything == {c.support for c in dual.clusters} | {dual.infinity.support}

    def test_local_case_region_table_is_not_injective(self):
        s = proper_overlap(2, 0b01)
        report = verify_double_dual(s, s.dual)
        assert not report.ok

    def test_dual_topology_closed_sets_are_the_region_lattice(self):
        # The closed sets of the built space are exactly the lattice the
        # regions generate under union and intersection.
        from test_oracles import oracle_closed_sets  # test_oracles imports this module

        for n in (1, 2, 3):
            for s in validated_structures(n):
                dual = dual_space(s)
                family = {0, dual.space.everything}
                family.update(dual.regions)
                changed = True
                while changed:
                    changed = False
                    for f in list(family):
                        for g in list(family):
                            for h in (f | g, f & g):
                                if h not in family:
                                    family.add(h)
                                    changed = True
                assert family == set(oracle_closed_sets(dual.space))


def tampered_dual(n, moves):
    """The overlap structure on n atoms and its dual with some regions moved.

    The untouched table sends each element to the mask with the same bits.
    moves maps an element to the region it now gets; every move keeps the
    table a bijection onto the regular closed sets, so only the Boolean laws
    and contact can fail.
    """
    s = improper_overlap(n)
    dual = dual_space(s)
    assert dual.regions == tuple(range(s.algebra.size))
    regions = list(dual.regions)
    for a, region in moves.items():
        regions[a] = region
    assert sorted(regions) == sorted(dual.regions)
    return s, dataclasses.replace(dual, regions=tuple(regions))


class TestDoubleDualWitnesses:
    """Least witnesses of the double-dual certificate on tampered tables."""

    @pytest.mark.parametrize("n, moves, law, witness", [
        # p and q swapped: the first pair whose join leaves the table is (p, r)
        (3, {1: 2, 2: 1}, "join", (("p",), ("r",))),
        # p gets the region of p+q and q that of q+r: joins still land, but
        # the two regions overlap although p and q do not
        (4, {1: 3, 2: 6, 3: 7, 6: 1, 7: 2}, "meet", (("p",), ("q",))),
        # the bottom gets a nonempty region, which touches itself
        (3, {0: 1, 1: 0}, "contact", ((), ())),
        # the top no longer goes to the whole space
        (3, {1: 7, 7: 1}, "complement", ((),)),
    ])
    def test_first_failing_law_and_its_witness(self, n, moves, law, witness):
        s, dual = tampered_dual(n, moves)
        report = verify_double_dual(s, dual)
        assert report.subject == "double dual isomorphism"
        assert [(v.axiom, v.witness) for v in report.violations] == [(law, witness)]
        assert report.notes == verify_double_dual(s, dual_space(s)).notes


class TestPointEmbedding:
    def test_discrete_spaces_certified(self):
        for n in (1, 2, 3, 4):
            emb = point_embedding(discrete(n))
            assert emb.homeomorphism
            assert emb.report.ok
            assert emb.map is not None

    def test_sierpinski_certificate_withheld(self):
        emb = point_embedding(FiniteSpace(("a", "b"), (0b01, 0b11)))
        assert not emb.homeomorphism
        assert emb.map is None
        assert any("not asserted" in note for note in emb.report.notes)
        # the per-point tables are still computed
        assert emb.sigma[0] == emb.sigma[1]

    def test_sigma_holds_the_support_of_the_regular_closed_sets_at_each_point(self):
        for n in (1, 2, 3, 4):
            for space in all_preorder_spaces(n):
                emb = point_embedding(space)
                for x in range(n):
                    holding = {e for e, f in enumerate(emb.rc.pointsets) if f >> x & 1}
                    assert holding == {e for e in emb.rc.algebra.elements() if e & emb.sigma[x]}
                if emb.map is not None:
                    assert emb.map.assignment == tuple(emb.dual.point_index[emb.sigma[x]]
                                                       for x in range(n))

    def test_built_once_per_space(self):
        for space in (discrete(3), FiniteSpace(("a", "b"), (0b01, 0b11))):
            emb = point_embedding(space)
            assert point_embedding(space) is emb
            assert emb.rc is rc_algebra(space)
        space = discrete(2)
        assert point_embedding(space).dual is dual_space(rc_algebra(space).lca())

    def test_equal_copies_give_equal_embeddings(self):
        for n in (1, 2, 3):
            ours, theirs = point_embedding(discrete(n)), point_embedding(discrete(n))
            assert ours is not theirs
            assert (ours.map, ours.sigma, ours.homeomorphism, ours.report) == \
                (theirs.map, theirs.sigma, theirs.homeomorphism, theirs.report)


def forged_dual(space, index):
    """A dual space holding only what the point embedding reads: its space
    and its point index, keyed by support."""
    dual = DualSpace(None, space, (), (), "compact", None)
    dual.__dict__["point_index"] = index
    return dual


class TestPointEmbeddingCertificate:
    """Each violation of the homeomorphism certificate, on forged duals."""

    sierpinski_dual = FiniteSpace(("{a}", "{b}"), (0b01, 0b11))

    @staticmethod
    def vee():
        """a and b are open, c lies in the closure of both; the regular
        closed atoms are {a,c} and {b,c}, so the supports are 1, 2 and 3.
        A fresh space per call, as the embedding is kept on it."""
        return FiniteSpace(("a", "b", "c"), (0b001, 0b010, 0b111))

    def report(self, monkeypatch, space, dual, hausdorff=False):
        monkeypatch.setattr(duality_module, "dual_space", lambda structure: dual)
        if hausdorff:
            monkeypatch.setattr(duality_module, "space_predicates",
                                lambda space: SpacePredicates(True, True, True))
        return point_embedding(space).report

    def test_point_outside_the_dual_names_the_least_such_point(self, monkeypatch):
        report = self.report(monkeypatch, discrete(3), forged_dual(discrete(3), {0b001: 0}))
        assert report == Report("point embedding", (Violation("point-to-cluster", ("b",)),))

    def test_two_points_on_one_cluster(self, monkeypatch):
        report = self.report(monkeypatch, discrete(2),
                             forged_dual(discrete(2), {0b01: 0, 0b10: 0}))
        assert report == Report("point embedding homeomorphism", (Violation("bijective"),))

    def test_a_map_onto_too_few_points_that_tears_a_neighbourhood(self, monkeypatch):
        dual = forged_dual(discrete(2), {0b01: 0, 0b10: 0, 0b11: 1})
        report = self.report(monkeypatch, self.vee(), dual, hausdorff=True)
        assert report == Report("point embedding homeomorphism",
                                (Violation("bijective"), Violation("continuous")))

    def test_a_bijection_that_tears_a_neighbourhood(self, monkeypatch):
        dual = forged_dual(discrete(3), {0b01: 0, 0b10: 1, 0b11: 2})
        report = self.report(monkeypatch, self.vee(), dual, hausdorff=True)
        assert report == Report("point embedding homeomorphism", (Violation("continuous"),))

    def test_a_continuous_bijection_onto_a_coarser_space(self, monkeypatch):
        dual = forged_dual(self.sierpinski_dual, {0b01: 0, 0b10: 1})
        report = self.report(monkeypatch, discrete(2), dual)
        assert report == Report("point embedding homeomorphism",
                                (Violation("inverse-continuous"),))

    def test_a_homeomorphism_onto_the_same_preorder(self, monkeypatch):
        report = self.report(monkeypatch, self.vee(),
                             forged_dual(self.vee(), {0b01: 0, 0b10: 1, 0b11: 2}), hausdorff=True)
        assert report == Report("point embedding homeomorphism")


class TestDualOfMap:
    def test_identity_dualizes_to_identity(self):
        for n in (1, 2, 3):
            X = discrete(n)
            phi = dual_of_map(SpaceMap.identity(X))
            assert phi.table == tuple(phi.source.algebra.elements())

    def test_collapse_to_point(self):
        f = SpaceMap(discrete(2), discrete(1), (0, 0))
        phi = dual_of_map(f)
        assert phi.source.algebra.size == 2
        assert phi.table == (0, phi.target.algebra.top)

    def test_swap_swaps_the_atoms(self):
        X = discrete(2)
        phi = dual_of_map(SpaceMap(X, X, (1, 0)))
        assert phi.table == (0b00, 0b10, 0b01, 0b11)

    def test_refuses_non_perfect_maps(self):
        sierpinski = FiniteSpace(("a", "b"), (0b01, 0b11))
        f = SpaceMap(FiniteSpace(("a",), (0b1,)), sierpinski, (0,))
        with pytest.raises(Refusal) as err:
            dual_of_map(f)
        assert "closed" in str(err.value)

    def test_reads_tables_in_place_of_point_scans(self, monkeypatch):
        # with the regular closed algebra built, the per-set loop made one
        # interior and one preimage call per regular closed set: 256 each here
        f = SpaceMap.identity(discrete(8))
        rc_algebra(f.source)
        calls = {"interior": 0, "preimage": 0}
        for cls, name in ((FiniteSpace, "interior"), (SpaceMap, "preimage")):
            def counting(self, m, original=getattr(cls, name), name=name):
                calls[name] += 1
                return original(self, m)
            monkeypatch.setattr(cls, name, counting)
        assert dual_of_map(f).table == tuple(range(256))
        assert calls["interior"] == 0
        assert calls["preimage"] <= 8

    def test_duals_of_perfect_maps_are_lawful(self):
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                for f in all_maps(discrete(n), discrete(m)):
                    assert check_morphism(dual_of_map(f)).ok


class TestCheckMorphism:
    def test_identity_is_lawful(self):
        for n in (1, 2, 3):
            assert check_morphism(identity_morphism(improper_overlap(n))).ok

    def test_constant_to_one_fails_exactly_meet_preservation(self):
        s = improper_overlap(2)
        assert failed_axioms(constant_to_one(s, s)) == {"PAL2"}

    def test_dval_mode_ignores_declared_ideals(self):
        # With generator one atom of three, the supremum axiom truncates and
        # the identity fails PAL; the improper-ideal reading does not care.
        s = proper_overlap(3, 0b001)
        ident = AlgebraMorphism(s, s, tuple(s.algebra.elements()))
        assert "PAL6" in {v.axiom for v in check_morphism(ident, "PAL").violations}
        assert check_morphism(ident, "DVAL").ok

    def test_short_table_is_refused(self):
        s = improper_overlap(2)
        with pytest.raises(StructureError) as caught:
            AlgebraMorphism(s, s, (0, 1, 2))
        assert str(caught.value) == "morphism table must cover every source element"

    def test_unknown_kind_rejected(self):
        with pytest.raises(StructureError):
            check_morphism(identity_morphism(improper_overlap(1)), "NAL")

    def test_lawful_endotables_are_exactly_the_self_map_duals(self):
        # Independent oracle: enumerate every table on the two-atom overlap
        # structure and keep the lawful ones.  They must be precisely the
        # value tables of the duals of the four self-maps of a two-point
        # discrete space.
        from itertools import product

        s = improper_overlap(2)
        lawful = set()
        for table in product(range(4), repeat=4):
            if check_morphism(AlgebraMorphism(s, s, table)).ok:
                lawful.add(table)
        X = discrete(2)
        expected = {dual_of_map(f).table for f in all_maps(X, X)}
        assert lawful == expected
        assert lawful == {(0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 0, 3), (0, 0, 3, 3)}

    def test_lawful_tables_between_unequal_sizes(self):
        from itertools import product

        one, two = improper_overlap(1), improper_overlap(2)
        into_wide = {t for t in product(range(4), repeat=2)
                     if check_morphism(AlgebraMorphism(one, two, t)).ok}
        assert into_wide == {(0, 3)}  # dual of the only map from two points to one
        into_narrow = {t for t in product(range(2), repeat=4)
                       if check_morphism(AlgebraMorphism(two, one, t)).ok}
        # dual of each inclusion of the point into the pair
        assert into_narrow == {(0, 1, 0, 1), (0, 0, 1, 1)}

    def test_lawful_tables_between_compact_overlap_structures_are_the_homomorphisms(self):
        # every table, at each size pair whose tables number at most 8^4
        counts = {}
        for n, m in ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3)):
            s, t = improper_overlap(n), improper_overlap(m)
            lawful = {table for table in product(range(t.algebra.size), repeat=s.algebra.size)
                      if check_morphism(AlgebraMorphism(s, t, table)).ok}
            assert lawful == boolean_homomorphisms(s, t), (n, m)
            counts[n, m] = len(lawful)
        assert counts == {(1, 1): 1, (1, 2): 1, (2, 1): 2, (2, 2): 4, (2, 3): 8}

    def test_lawful_tables_from_three_atoms_to_two_are_the_homomorphisms(self):
        # all 4^6 tables that send bottom to bottom and top to top, and a
        # seeded sample of the 61,440 others, of which none is lawful
        s, t = improper_overlap(3), improper_overlap(2)
        fixed = [(0, *middle, 3) for middle in product(range(4), repeat=6)]
        lawful = {table for table in fixed if check_morphism(AlgebraMorphism(s, t, table)).ok}
        assert lawful == boolean_homomorphisms(s, t)
        assert len(lawful) == 9
        rng = random.Random(1907)
        ends = [pair for pair in product(range(4), repeat=2) if pair != (0, 3)]
        for _ in range(1500):
            bottom, top = rng.choice(ends)
            table = (bottom, *(rng.randrange(4) for _ in range(6)), top)
            assert not check_morphism(AlgebraMorphism(s, t, table)).ok, table


class TestRegularize:
    def test_fixpoint_on_lawful_morphisms(self):
        for phi in morphism_candidates():
            if check_morphism(phi).ok:
                assert regularize(phi).table == phi.table

    def test_constant_to_one_is_already_regular(self):
        s = improper_overlap(3)
        phi = constant_to_one(s, s)
        assert regularize(phi).table == phi.table

    def test_proper_ideal_source_truncates_at_the_generator(self):
        # Values at elements with unbounded complement collapse to the
        # bounded trace; elements with bounded complement keep their value.
        s = proper_overlap(3, 0b001)
        ident = AlgebraMorphism(s, s, tuple(s.algebra.elements()))
        reg = regularize(ident)
        assert reg.table[0b011] == 0b001
        assert reg.table[0b110] == 0b110


class TestMorphismLaws:
    def setup_method(self):
        self.candidates = morphism_candidates()

    def test_meet_preservation_implies_monotone(self):
        for phi in self.candidates:
            if "PAL2" in failed_axioms(phi):
                continue
            A, B = phi.source.algebra, phi.target.algebra
            for a in A.elements():
                for b in A.elements():
                    if A.le(a, b):
                        assert B.le(phi.table[a], phi.table[b])

    def test_zero_and_meets_bound_the_complement(self):
        for phi in self.candidates:
            failed = failed_axioms(phi)
            if failed & {"PAL1", "PAL2"}:
                continue
            A, B = phi.source.algebra, phi.target.algebra
            for a in A.elements():
                assert B.le(phi.table[A.complement(a)], B.complement(phi.table[a]))

    def test_extension_compatibility_from_ideal_axioms(self):
        for phi in self.candidates:
            failed = failed_axioms(phi)
            if failed & {"PAL3", "PAL5"}:
                continue
            ext_src = alexandroff_extension(phi.source)
            ext_tgt = alexandroff_extension(phi.target)
            A, B = phi.source.algebra, phi.target.algebra
            for a in A.elements():
                for b in A.elements():
                    if ext_src.way_below(a, b):
                        value = B.complement(phi.table[A.complement(a)])
                        assert ext_tgt.way_below(value, phi.table[b])

    def test_top_goes_to_top(self):
        for phi in self.candidates:
            if failed_axioms(phi) & {"PAL1", "PAL3"}:
                continue
            assert phi.table[phi.source.algebra.top] == phi.target.algebra.top

    def test_regularized_map_keeps_meets_and_gains_suprema(self):
        for phi in self.candidates:
            if "PAL2" in failed_axioms(phi):
                continue
            reg = regularize(phi)
            assert not failed_axioms(reg) & {"PAL2", "PAL6"}

    def test_supremum_law_means_fixpoint(self):
        for phi in self.candidates:
            if "PAL6" in failed_axioms(phi):
                continue
            assert regularize(phi).table == phi.table

    def test_regularization_is_idempotent_given_meets(self):
        for phi in self.candidates:
            if "PAL2" in failed_axioms(phi):
                continue
            once = regularize(phi)
            assert regularize(once).table == once.table

    def test_composition_law_for_regularization(self):
        seconds = [phi for phi in self.candidates
                   if phi.source == phi.target and not failed_axioms(phi) & {"PAL2"}]
        firsts = [phi for phi in seconds
                  if not failed_axioms(phi) & {"PAL1", "PAL2", "PAL3", "PAL5"}]
        for phi in firsts:
            for psi in seconds:
                if phi.target != psi.source:
                    continue
                left = regularize(raw_compose(psi, phi))
                right = regularize(raw_compose(regularize(psi), regularize(phi)))
                assert left.table == right.table


class TestCompositionLaws:
    def test_plain_composition_keeps_the_first_five(self):
        lawful = []
        for n in (1, 2):
            for m in (1, 2):
                for f in all_maps(discrete(n), discrete(m)):
                    lawful.append(dual_of_map(f))
        for phi in lawful:
            for psi in lawful:
                if phi.target != psi.source:
                    continue
                failed = failed_axioms(raw_compose(psi, phi))
                assert not failed & {"PAL1", "PAL2", "PAL3", "PAL4", "PAL5"}

    def test_regularizing_the_first_five_gives_all_six(self):
        for phi in morphism_candidates():
            if failed_axioms(phi) & {"PAL1", "PAL2", "PAL3", "PAL4", "PAL5"}:
                continue
            assert check_morphism(regularize(phi)).ok

    def test_identity_is_neutral_for_diamond(self):
        for n in (1, 2, 3):
            s = improper_overlap(n)
            for f in all_maps(discrete(n), discrete(n)):
                phi = dual_of_map(f)
                ident = identity_morphism(phi.source)
                assert compose(phi, ident).table == phi.table

    def test_contravariant_functoriality(self):
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                for c in (1, 2):
                    X, Y, Z = discrete(a), discrete(b), discrete(c)
                    for f in all_maps(X, Y):
                        for g in all_maps(Y, Z):
                            composite = dual_of_map(g.after(f))
                            split = compose(dual_of_map(f), dual_of_map(g))
                            assert composite.table == split.table

    def test_diamond_associativity_on_small_duals(self):
        duals = {}
        for n in (1, 2):
            for m in (1, 2):
                duals[(n, m)] = [dual_of_map(f) for f in all_maps(discrete(n), discrete(m))]
        for a in (1, 2):
            for b in (1, 2):
                for c in (1, 2):
                    for d in (1, 2):
                        for p1 in duals[(c, d)]:
                            for p2 in duals[(b, c)]:
                                for p3 in duals[(a, b)]:
                                    left = compose(compose(p3, p2), p1)
                                    right = compose(p3, compose(p2, p1))
                                    assert left.table == right.table

    def test_mismatched_composition_is_structural(self):
        with pytest.raises(StructureError):
            compose(identity_morphism(improper_overlap(1)),
                    identity_morphism(improper_overlap(2)))


class TestDualOfMorphism:
    def test_identity_gives_identity(self):
        s = improper_overlap(2)
        back = dual_of_morphism(identity_morphism(s))
        assert back.assignment == (0, 1)

    def test_swap_round_trips(self):
        X = discrete(2)
        swap = SpaceMap(X, X, (1, 0))
        back = dual_of_morphism(dual_of_map(swap))
        emb = point_embedding(X).map
        for x in range(2):
            assert back.assignment[emb.assignment[x]] == emb.assignment[swap(x)]

    def test_refuses_unlawful_morphisms(self):
        s = improper_overlap(2)
        with pytest.raises(Refusal):
            dual_of_morphism(constant_to_one(s, s))

    def test_refuses_lawful_morphism_on_unvalidated_structures(self):
        # At two atoms every proper generator is a co-atom, so the identity
        # on the proper-ideal structure satisfies all six axioms; its
        # endpoints still fail the boundedness axioms, so there is no dual.
        s = proper_overlap(2, 0b01)
        ident = AlgebraMorphism(s, s, tuple(s.algebra.elements()))
        assert check_morphism(ident).ok
        with pytest.raises(Refusal):
            dual_of_morphism(ident)

    def test_injective_iff_dual_surjective(self):
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                for f in all_maps(discrete(n), discrete(m)):
                    phi = dual_of_map(f)
                    injective = len(set(phi.table)) == len(phi.table)
                    dual_map = dual_of_morphism(phi)
                    surjective = map_predicates(dual_map).surjective
                    assert injective == surjective

    def test_valid_morphism_runs_no_element_walk(self, cluster_walks):
        phi = identity_morphism(improper_overlap(3))
        maps = [dual_of_morphism(phi) for _ in range(3)]
        assert maps[0] == maps[1] == maps[2]
        assert maps[0].assignment == (0, 1, 2)
        assert cluster_walks == []

    def test_traced_cluster_that_is_no_point_is_refused_without_a_walk(self, monkeypatch,
                                                                       cluster_walks):
        source, target = improper_overlap(2), improper_overlap(2)
        dual = dual_space(source)
        monkeypatch.setitem(source.__dict__, "dual",
                            dataclasses.replace(dual, clusters=dual.clusters[:1]))
        phi = AlgebraMorphism(source, target, tuple(source.algebra.elements()))
        with pytest.raises(IntegrityError, match="missing from the dual point list"):
            dual_of_morphism(phi)
        assert cluster_walks == []

    @pytest.mark.parametrize("table, target_atoms, traced, witness", [
        # the traced set {0, p, top} for the target cluster {p} has the
        # support {p}, which passes the row test, but it holds the bottom,
        # so it is no up-closure
        ((0, 0b01, 0, 0), 2, [0, 0b01, 0b11], ((), ())),
        # the traced set is the up-closure of {p, q}; p and q do not touch
        ((0, 0, 0, 1), 1, [0b01, 0b10, 0b11], (("p",), ("q",))),
    ])
    def test_traced_set_that_is_no_cluster_is_walked_for_its_witness(
            self, table, target_atoms, traced, witness, monkeypatch, cluster_walks):
        # both tables fail PAL, so check_morphism is bypassed
        s = improper_overlap(2)
        phi = AlgebraMorphism(s, improper_overlap(target_atoms), table)
        monkeypatch.setattr(duality_module, "check_morphism",
                            lambda phi, kind="PAL": Report("PAL axioms"))
        expected = check_cluster(s.contact, traced)
        assert [(v.axiom, v.witness) for v in expected.violations] == [("K1", witness)]
        with pytest.raises(IntegrityError) as caught:
            dual_of_morphism(phi)
        assert str(caught.value) == f"traced point set is not a cluster: {expected.render()}"
        assert cluster_walks == [traced]

    def test_traced_cluster_outside_the_ideal_is_an_integrity_error(self, monkeypatch):
        # a forged boundedness report lets the proper-ideal source dualize;
        # the target point {q} traces the cluster {q}, unbounded there
        source = proper_overlap(2, 0b01)
        monkeypatch.setitem(source.__dict__, "bc_report", Report("BC axioms"))
        monkeypatch.setattr(duality_module, "check_morphism",
                            lambda phi, kind="PAL": Report("PAL axioms"))
        phi = AlgebraMorphism(source, improper_overlap(2), tuple(source.algebra.elements()))
        with pytest.raises(IntegrityError) as caught:
            dual_of_morphism(phi)
        assert str(caught.value) == "traced cluster is not bounded"

    def test_dual_map_into_a_coarser_dual_is_an_integrity_error(self, monkeypatch):
        source = improper_overlap(2)
        dual = dual_space(source)
        coarser = FiniteSpace(dual.space.points, (0b01, 0b11))
        monkeypatch.setitem(source.__dict__, "dual", dataclasses.replace(dual, space=coarser))
        phi = AlgebraMorphism(source, improper_overlap(2), tuple(source.algebra.elements()))
        with pytest.raises(IntegrityError) as caught:
            dual_of_morphism(phi)
        assert str(caught.value) == "dual of a morphism failed the perfectness certificate"


class TestClosedEmbedding:
    def test_identity_dual_is_an_embedding(self):
        phi = dual_of_map(SpaceMap.identity(discrete(2)))
        assert check_closed_embedding(phi).is_embedding

    def test_point_inclusion_is_an_embedding(self):
        f = SpaceMap(discrete(1), discrete(2), (0,))
        assert check_closed_embedding(dual_of_map(f)).is_embedding

    def test_collapse_is_not_an_embedding(self):
        f = SpaceMap(discrete(2), discrete(1), (0, 0))
        result = check_closed_embedding(dual_of_map(f))
        assert not result.is_embedding
        assert [v.axiom for v in result.report.violations] == ["EMB1"]

    def test_agrees_with_direct_space_side_check(self):
        # A closed embedding of finite spaces: injective, perfect, closed
        # image, and the corestriction onto the image subspace bicontinuous.
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


def wide_overlap(n):
    return nca_as_lca(overlap_contact(FiniteBooleanAlgebra(tuple(f"a{i}" for i in range(n)))))


def homomorphism_table(n, pick):
    """The Boolean homomorphism table on n source atoms that sends target
    atom j to source atom pick[j]."""
    return atom_unions([sum(1 << j for j, i in enumerate(pick) if i == k) for k in range(n)])


def large_pair_table(source, target):
    """The identity on every atom but the highest, whose target atom is held
    exactly by top and by top less a0 or a1: PAL2 fails only at the pair
    (top less a1, top less a0), so no early exit on a small element finds it."""
    top, high = source.algebra.top, target.algebra.top + 1 >> 1
    return AlgebraMorphism(source, target, tuple(
        a & high - 1 | (high if a in (top, top ^ 1, top ^ 2) else 0)
        for a in source.algebra.elements()))


class TestClosedEmbeddingAtTheCap:
    """Closed embeddings are decided in closed form, so the 16-atom cap bounds
    their time; the walk over element pairs took 3.3 s at 10 atoms and 12.8 s
    at 11."""

    def timed(self, phi):
        start = time.perf_counter()
        found = check_closed_embedding(phi)
        assert time.perf_counter() - start < 5.0
        return found

    def test_identity_at_the_cap(self):
        found = self.timed(identity_morphism(wide_overlap(16)))
        assert found.is_embedding and found.report.violations == ()

    def test_homomorphism_that_is_not_onto_at_the_cap(self):
        # target atoms a14 and a15 both go to source atom a14, so {a14} is
        # the least element outside the image
        s = wide_overlap(16)
        found = self.timed(AlgebraMorphism(s, s, homomorphism_table(16, [*range(15), 14])))
        assert not found.is_embedding
        assert [(v.axiom, v.witness) for v in found.report.violations] == \
            [("EMB1", (("a14",), ("a14",)))]

    def test_forged_boundedness_report_on_a_path_structure_is_an_integrity_error(self):
        point = improper_overlap(1)
        path3 = nca_as_lca(ContactRelation(FiniteBooleanAlgebra.of("p", "q", "r"),
                                           (0b011, 0b111, 0b110)))
        path2 = nca_as_lca(ContactRelation(FiniteBooleanAlgebra.of("p", "q"), (0b11, 0b11)))
        for phi, path in ((AlgebraMorphism(point, path3, (0, 7)), path3),
                          (AlgebraMorphism(path2, point, (0, 0, 0, 1)), path2)):
            assert check_morphism(phi).ok
            with pytest.raises(Refusal, match="requires validated structures"):
                check_closed_embedding(phi)
            path.__dict__["bc_report"] = Report("BC axioms", ())  # a passing report, forged
            with pytest.raises(IntegrityError, match="not its own atom"):
                check_closed_embedding(phi)


class TestCheckMorphismAtScale:
    """Every table is decided by table passes in O((n + m) * 2^n) steps; the
    walk over element pairs that named the witnesses of a table failing PAL2
    took 1.0 s at 12 atoms and 4.0 s at 13."""

    def timed(self, phi):
        start = time.perf_counter()
        report = check_morphism(phi)
        assert time.perf_counter() - start < 5.0
        return [(v.axiom, v.witness) for v in report.violations]

    def test_large_pair_table_at_sixteen_atoms(self):
        s = wide_overlap(16)
        top = s.algebra.top
        found = self.timed(large_pair_table(s, s))
        assert found[0] == ("PAL2", (s.algebra.names_of(top ^ 2), s.algebra.names_of(top ^ 1)))

    def test_identity_and_all_to_top_over_sixteen_atoms(self):
        # 17 atoms: over the width up to which ContactRelation keeps a reach table
        s = wide_overlap(17)
        assert self.timed(identity_morphism(s)) == []
        all_to_top = AlgebraMorphism(s, s, (0,) + (s.algebra.top,) * s.algebra.top)
        assert self.timed(all_to_top) == [("PAL2", (("a0",), ("a1",)))]


class TestRoundTrips:
    def test_discrete_spaces(self):
        for n in (1, 2, 3, 4):
            assert roundtrip_report(discrete(n)).ok

    def test_validated_structures(self):
        for n in (1, 2, 3):
            for s in validated_structures(n):
                assert roundtrip_report(s).ok

    def test_self_maps_on_small_spaces(self):
        for n in (1, 2, 3):
            X = discrete(n)
            for f in all_maps(X, X):
                assert roundtrip_report(f).ok

    def test_endomorphism_duals(self):
        for n in (1, 2):
            X = discrete(n)
            for f in all_maps(X, X):
                assert roundtrip_report(dual_of_map(f)).ok

    def test_unknown_item_rejected(self):
        with pytest.raises(StructureError):
            roundtrip_report(42)

    def test_double_dual_certified_once_per_structure(self, monkeypatch):
        calls = []
        original = duality_module.verify_double_dual

        def counting(structure, dual):
            calls.append(structure)
            return original(structure, dual)

        monkeypatch.setattr(duality_module, "verify_double_dual", counting)
        s = improper_overlap(3)
        reports = [roundtrip_report(s) for _ in range(3)]
        assert len(calls) == 1
        assert reports[0] == reports[1] == reports[2]
        assert reports[0].ok

    def test_structure_failing_boundedness_refused_on_every_call(self):
        s = proper_overlap(2, 0b01)
        assert not s.double_dual.ok  # the kept certificate does not open the gate
        for _ in range(3):
            with pytest.raises(Refusal):
                roundtrip_report(s)

    def test_maps_between_spaces_of_different_sizes_and_their_duals(self):
        for n, m in ((1, 3), (3, 2)):
            for f in all_maps(discrete(n), discrete(m)):
                assert roundtrip_report(f) == Report("roundtrip: map naturality")
                assert roundtrip_report(dual_of_map(f)) == Report("roundtrip: morphism naturality")


def swap_q_and_r(a):
    return a & 0b001 | (a & 0b010) << 1 | (a & 0b100) >> 1


class TestNaturalitySquares:
    """Each square names the least entry at which its two sides differ."""

    def test_map_without_point_embeddings_fails_its_square_bare(self):
        sierpinski = FiniteSpace(("a", "b"), (0b01, 0b11))
        report = roundtrip_report(SpaceMap.identity(sierpinski))
        assert report == Report("roundtrip: map naturality", (
            Violation("point-embedding"), Violation("point-embedding"),
            Violation("naturality-square")))

    def test_map_square_names_the_least_source_point(self, monkeypatch):
        f = SpaceMap.identity(discrete(3))
        back = dual_of_morphism(dual_of_map(f))
        tampered = dataclasses.replace(back, assignment=(0, 2, 1))
        monkeypatch.setattr(duality_module, "dual_of_morphism", lambda phi: tampered)
        report = roundtrip_report(f)
        assert report == Report("roundtrip: map naturality",
                                (Violation("naturality-square", ("b",)),))
        assert report.render() == \
            "roundtrip: map naturality: fail\n  violated naturality-square at (b)"

    def test_morphism_square_names_the_least_element(self, monkeypatch):
        phi = identity_morphism(improper_overlap(3))
        back = dual_of_map(dual_of_morphism(phi))
        tampered = dataclasses.replace(back, table=tuple(map(swap_q_and_r, back.table)))
        monkeypatch.setattr(duality_module, "dual_of_map", lambda g: tampered)
        assert roundtrip_report(phi) == Report("roundtrip: morphism naturality",
                                               (Violation("naturality-square", (("q",),)),))

    def test_morphism_square_reads_no_entry_past_the_first_difference(self, monkeypatch):
        # the target's regions swap q and r, and the region of top is no
        # regular closed set: the square stops at q and never reads it
        source, target = improper_overlap(3), improper_overlap(3)
        phi = AlgebraMorphism(source, target, tuple(source.algebra.elements()))
        assert roundtrip_report(target).ok  # the double dual is kept before the tampering
        dual = dual_space(target)
        regions = [dual.regions[swap_q_and_r(a)] for a in range(7)] + [1 << 3]
        monkeypatch.setitem(target.__dict__, "dual",
                            dataclasses.replace(dual, regions=tuple(regions)))
        assert roundtrip_report(phi) == Report("roundtrip: morphism naturality",
                                               (Violation("naturality-square", (("q",),)),))
        with pytest.raises(StructureError, match="not regular closed"):
            rc_algebra(dual.space).to_element(regions[7])


class TestConnectednessCorrespondence:
    def test_connected_structures_dualize_to_connected_spaces(self):
        for n in (1, 2, 3):
            for s in validated_structures(n):
                algebraic = check_axioms(s.contact, "CON").ok
                spatial = space_predicates(dual_space(s).space).connected
                assert algebraic == spatial

    def test_connected_spaces_lift_to_connected_structures(self):
        corpus = [discrete(1), discrete(2), discrete(3),
                  FiniteSpace(("a", "b"), (0b01, 0b11))]
        for space in corpus:
            rc = rc_algebra(space)
            assert space_predicates(space).connected == check_axioms(rc.contact, "CON").ok
