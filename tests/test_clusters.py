import random

import pytest

from contact_duality.boolalg import FiniteBooleanAlgebra
from contact_duality.clusters import (
    Cluster,
    bounded_clusters,
    check_cluster,
    enumerate_clusters,
    grill_clusters,
    maximal_cliques,
    supports_cluster,
)
from contact_duality.contact import ContactRelation, ElementContact, overlap_contact
from corpus import (
    atom_relations,
    ideal_structures,
    overlap_structures_with_proper_ideal,
    random_atom_relation,
    small_algebra,
)
from contact_duality.errors import CapExceeded, StructureError
from contact_duality.localcontact import (
    alexandroff_extension,
    infinity_cluster,
    nca_as_lca,
)


def up_closure(alg, support):
    return [a for a in alg.elements() if a & support]


class TestConditionChecker:
    def test_upset_of_one_atom_under_overlap(self):
        r = overlap_contact(small_algebra(2))
        assert check_cluster(r, up_closure(r.algebra, 0b01)).ok

    def test_all_nonzero_fails_pairwise_contact(self):
        r = overlap_contact(small_algebra(2))
        report = check_cluster(r, [a for a in r.algebra.elements() if a])
        assert [v.axiom for v in report.violations] == ["K1"]
        assert report.violations[0].witness == (("p",), ("q",))

    def test_infinity_cluster_passes(self):
        for s in overlap_structures_with_proper_ideal(3):
            sigma = infinity_cluster(s, check=False)
            assert check_cluster(sigma.relation, sigma.members()).ok

    def test_non_upward_closed_set_fails(self):
        r = overlap_contact(small_algebra(2))
        report = check_cluster(r, [0b01])  # missing the top
        assert [v.axiom for v in report.violations] == ["K3"]

    def test_empty_set_rejected_as_k1(self):
        r = overlap_contact(small_algebra(1))
        assert not check_cluster(r, []).ok


class TestSupportsCluster:
    """The row test against the element-level checker on up-closures."""

    def test_equals_the_checker_on_every_relation_up_to_four_atoms(self):
        checked = 0
        for n in (1, 2, 3, 4):
            for r in atom_relations(n):
                for s in range(r.algebra.size):
                    assert supports_cluster(r.rows, s) == \
                        check_cluster(r, up_closure(r.algebra, s)).ok, (r.rows, s)
                    checked += 1
        assert checked == 2 + 2 * 4 + 8 * 8 + 64 * 16

    def test_equals_the_checker_on_seeded_relations_of_five_and_six_atoms(self):
        rng = random.Random(20240)
        seen = set()
        for n in (5, 6):
            for _ in range(12):
                r = random_atom_relation(n, rng)
                supports = rng.sample(range(1, r.algebra.size), 12)
                for s in supports + [c.support for c in enumerate_clusters(r)]:
                    ok = supports_cluster(r.rows, s)
                    assert ok == check_cluster(r, up_closure(r.algebra, s)).ok, (r.rows, s)
                    seen.add(ok)
        assert seen == {False, True}


class TestMaximalCliques:
    def test_triangle_plus_isolated(self):
        rows = (0b0111, 0b0111, 0b0111, 0b1000)
        assert maximal_cliques(rows) == [0b0111, 0b1000]

    def test_path_graph(self):
        rows = (0b011, 0b111, 0b110)
        assert maximal_cliques(rows) == [0b011, 0b110]

    def test_against_subset_enumeration(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randrange(1, 7)
            r = random_atom_relation(n, rng)
            cliques = set(maximal_cliques(r.rows))
            # oracle: all maximal cliques by direct subset scan
            def is_clique(s):
                atoms = [i for i in range(n) if s >> i & 1]
                return all(r.rows[i] >> j & 1 for i in atoms for j in atoms)
            all_cliques = [s for s in range(1, 1 << n) if is_clique(s)]
            maximal = {s for s in all_cliques
                       if not any(t != s and t & s == s for t in all_cliques)}
            assert cliques == maximal


class TestEnumeration:
    def test_overlap_three_atoms_gives_singletons(self):
        r = overlap_contact(small_algebra(3))
        assert [c.support for c in enumerate_clusters(r)] == [0b001, 0b010, 0b100]

    def test_single_edge_gives_two_clusters(self):
        alg = small_algebra(3)
        r = ContactRelation(alg, (0b011, 0b011, 0b100))
        assert [c.support for c in enumerate_clusters(r)] == [0b011, 0b100]

    def test_single_atom_any_contact(self):
        r = overlap_contact(small_algebra(1))
        assert [c.support for c in enumerate_clusters(r)] == [0b1]

    def test_four_cycle_has_no_clusters(self):
        # Maximal cliques exist, but atoms outside each edge jointly touch
        # everything in its up-closure, so maximality fails everywhere.
        alg = FiniteBooleanAlgebra.of("p", "q", "r", "s")
        r = ContactRelation(alg, (0b1011, 0b0111, 0b1110, 0b1101))
        assert maximal_cliques(r.rows)
        assert enumerate_clusters(r) == []
        assert grill_clusters(r) == []

    def test_clique_path_equals_grill_oracle_exhaustive(self):
        for n in (1, 2, 3):
            for r in atom_relations(n):
                assert [c.support for c in enumerate_clusters(r)] == \
                       [c.support for c in grill_clusters(r)]

    def test_clique_path_equals_grill_oracle_sampled(self):
        rng = random.Random(5)
        for _ in range(30):
            r = random_atom_relation(6, rng)
            assert [c.support for c in enumerate_clusters(r)] == \
                   [c.support for c in grill_clusters(r)]

    def test_enumerated_supports_are_incomparable(self):
        for n in (1, 2, 3):
            for r in atom_relations(n):
                clusters = enumerate_clusters(r)
                members = [set(c.members()) for c in clusters]
                for i, a in enumerate(members):
                    for j, b in enumerate(members):
                        if i != j:
                            assert not a <= b

    def test_every_enumerated_cluster_passes_the_checker(self):
        for n in (1, 2, 3):
            for r in atom_relations(n):
                for c in enumerate_clusters(r):
                    assert check_cluster(r, c.members()).ok

    def test_grill_shortcut_agrees_with_full_checker(self):
        # The grill path skips the join-primality condition because up-sets
        # satisfy it by construction; confirm against the full checker.
        for n in (1, 2, 3):
            for r in atom_relations(n):
                fast = {c.support for c in grill_clusters(r)}
                slow = {s for s in range(1, r.algebra.size)
                        if check_cluster(r, up_closure(r.algebra, s)).ok}
                assert fast == slow

    def test_table_cap_refusal(self):
        alg = FiniteBooleanAlgebra(tuple(f"a{i}" for i in range(17)))
        with pytest.raises(CapExceeded):
            grill_clusters(overlap_contact(alg))

    def test_unverified_element_relation_is_checked(self):
        # no enumerator can trust an element predicate, so both refuse it
        alg = small_algebra(2)
        broken = ElementContact(alg, lambda a, b: {a, b} == {0b01, 0b11})
        lawful = ElementContact(alg, lambda a, b: bool(a & b))
        for rel in (broken, lawful):
            for enumerate_ in (enumerate_clusters, grill_clusters):
                with pytest.raises(StructureError, match="atom rows"):
                    enumerate_(rel)

    def test_cluster_support_must_be_nonempty(self):
        r = overlap_contact(small_algebra(1))
        with pytest.raises(StructureError):
            Cluster(r, 0)


class TestBoundedClusters:
    def test_improper_ideal_keeps_everything(self):
        for n in (1, 2, 3):
            for r in atom_relations(n):
                s = nca_as_lca(r)
                assert [c.support for c in bounded_clusters(s)] == \
                       [c.support for c in enumerate_clusters(alexandroff_extension(s))]

    def test_clique_path_equals_grill_oracle_on_every_structure(self):
        # bounded_clusters filters the clique path; the oracle filters the
        # grill scan over all supports by the element-level boundedness test
        for n in (1, 2, 3, 4):
            for s in ideal_structures(n):
                ext = alexandroff_extension(s)
                oracle = [c for c in grill_clusters(ext)
                          if any(s.bounded(m) for m in c.members())]
                assert bounded_clusters(s) == oracle, (s.contact.rows, s.ideal.generator)

    def test_overlap_with_generator_p(self):
        s = overlap_structures_with_proper_ideal(2)[0]
        assert s.ideal.generator == 0b01
        bounded = bounded_clusters(s)
        assert [c.support for c in bounded] == [0b01]
        sigma = infinity_cluster(s)
        assert sigma.support == 0b10

    def test_support_test_matches_element_test(self):
        for n in (2, 3):
            for s in ideal_structures(n):
                if s.improper:
                    continue
                ext = alexandroff_extension(s)
                for c in grill_clusters(ext):
                    by_support = bool(c.support & s.ideal.generator)
                    by_elements = any(s.bounded(m) for m in c.members())
                    assert by_support == by_elements

    def test_decomposition_on_supplementary_corpus(self):
        # With a proper ideal, the clusters of the extension are the bounded
        # ones plus exactly the cluster at infinity.
        for n in (2, 3):
            for s in overlap_structures_with_proper_ideal(n):
                ext = alexandroff_extension(s)
                everything = {c.support for c in grill_clusters(ext)}
                bounded = {c.support for c in bounded_clusters(s)}
                sigma = infinity_cluster(s)
                assert sigma.support not in bounded
                assert everything == bounded | {sigma.support}
