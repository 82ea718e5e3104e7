import time

import pytest

from contact_duality.boolalg import FiniteBooleanAlgebra
from contact_duality.clusters import bounded_clusters, check_cluster
from contact_duality.contact import (
    ContactRelation,
    atom_restriction,
    check_axioms,
    overlap_contact,
    universal_contact,
)
from corpus import (
    ideal_structures,
    overlap_structures_with_proper_ideal,
    validated_structures,
)
from contact_duality.duality import AlgebraMorphism, check_morphism
from contact_duality.errors import Refusal, StructureError
from contact_duality.localcontact import (
    BoundedIdeal,
    LocalContactAlgebra,
    alexandroff_certificate,
    alexandroff_extension,
    check_lca_axioms,
    infinity_cluster,
    nca_as_lca,
    overlap_companion,
)


def overlap_with_generator(n, generator):
    alg = FiniteBooleanAlgebra(tuple("pqrs"[:n]))
    return LocalContactAlgebra(overlap_contact(alg), BoundedIdeal(alg, generator))


def test_ideal_on_another_algebra_is_refused():
    contact = overlap_contact(FiniteBooleanAlgebra.of("p", "q"))
    other = FiniteBooleanAlgebra.of("p", "q", "r")
    with pytest.raises(StructureError) as caught:
        LocalContactAlgebra(contact, BoundedIdeal(other, 0))
    assert str(caught.value) == "ideal and contact relation live on different algebras"


class TestBoundednessAxioms:
    def test_normal_contact_with_improper_ideal_passes(self):
        for n in (1, 2, 3):
            alg = FiniteBooleanAlgebra(tuple("pqr"[:n]))
            assert check_lca_axioms(nca_as_lca(overlap_contact(alg))).ok

    def test_proper_generator_reports_the_outside_atom(self):
        structure = overlap_with_generator(2, 0b01)
        report = check_lca_axioms(structure)
        axioms = [v.axiom for v in report.violations]
        assert "BC3" in axioms
        bc3 = next(v for v in report.violations if v.axiom == "BC3")
        assert bc3.witness == (("q",),)

    def test_validated_corpus_is_the_improper_overlap_family(self):
        # No finite structure with atom-determined contact passes the
        # boundedness axioms unless contact is overlap and the ideal improper:
        # interpolating below a single atom forces both.
        for n in (1, 2, 3):
            found = validated_structures(n)
            assert found, "corpus must not be empty"
            for s in found:
                assert s.improper
                assert s.contact.rows == overlap_contact(s.algebra).rows

    def test_only_overlap_with_the_improper_ideal_passes_up_to_five_atoms(self):
        # BC3 holds on the rows only when every row is its own atom and every
        # atom is bounded, so each size has exactly one valid structure
        for n in (1, 2, 3, 4, 5):
            structures = ideal_structures(n)
            assert len(structures) == 1 << (n * (n - 1) // 2 + n)
            (valid,) = [s for s in structures if check_lca_axioms(s).ok]
            assert valid.improper
            assert valid.contact.rows == overlap_contact(valid.algebra).rows


class TestAlexandroffExtension:
    def test_improper_ideal_changes_nothing(self):
        for n in (1, 2, 3):
            for s in ideal_structures(n):
                if not s.improper:
                    continue
                ext = alexandroff_extension(s)
                for a in s.algebra.elements():
                    for b in s.algebra.elements():
                        assert ext.contact(a, b) == s.contact.contact(a, b)

    def test_unbounded_pair_touches(self):
        s = overlap_with_generator(2, 0b01)
        ext = alexandroff_extension(s)
        assert ext.contact(0b10, 0b11)  # both miss the generator

    def test_bounded_pair_needs_base_contact(self):
        s = overlap_with_generator(2, 0b01)
        ext = alexandroff_extension(s)
        assert not ext.contact(0b01, 0b10)

    def test_certificate_on_validated_corpus(self):
        for n in (1, 2, 3):
            for s in validated_structures(n):
                assert alexandroff_certificate(s).ok

    def test_extension_is_always_atom_determined(self):
        # The extension satisfies the contact axioms whenever the ideal side
        # behaves, and additivity on a powerset pins it to its atom rows;
        # unboundedness is atom-local because missing the generator means
        # meeting its complement.
        for n in (1, 2, 3):
            for s in ideal_structures(n):
                ext = alexandroff_extension(s)
                back = atom_restriction(ext)
                for a in s.algebra.elements():
                    for b in s.algebra.elements():
                        assert ext.contact(a, b) == back.contact(a, b)

    def test_extension_certificate_fails_off_corpus(self):
        s = LocalContactAlgebra(
            universal_contact(FiniteBooleanAlgebra.of("p", "q")),
            BoundedIdeal(FiniteBooleanAlgebra.of("p", "q"), 0b01))
        assert not alexandroff_certificate(s).ok


class TestInfinityCluster:
    def test_improper_ideal_has_none(self):
        assert infinity_cluster(nca_as_lca(overlap_contact(FiniteBooleanAlgebra.of("p")))) is None

    def test_overlap_with_generator_p(self):
        s = overlap_with_generator(2, 0b01)
        sigma = infinity_cluster(s)
        assert sigma.support_names() == ("q",)
        assert [s.algebra.names_of(m) for m in sigma.members()] == [("q",), ("p", "q")]
        assert check_cluster(sigma.relation, sigma.members()).ok

    def test_never_contains_zero(self):
        for n in (1, 2, 3):
            for s in ideal_structures(n):
                if s.improper:
                    continue
                sigma = infinity_cluster(s, check=False)
                assert not sigma.contains(0)

    def test_supplementary_corpus_all_pass(self):
        for n in (2, 3):
            for s in overlap_structures_with_proper_ideal(n):
                sigma = infinity_cluster(s)
                assert check_cluster(sigma.relation, sigma.members()).ok

    def test_universal_contact_with_proper_ideal_fails(self):
        # The cluster conditions genuinely need the boundedness axioms: with
        # the largest contact every nonzero bounded element touches all
        # unbounded ones, defeating maximality.
        s = LocalContactAlgebra(
            universal_contact(FiniteBooleanAlgebra.of("p", "q")),
            BoundedIdeal(FiniteBooleanAlgebra.of("p", "q"), 0b01))
        with pytest.raises(Refusal):
            infinity_cluster(s)
        sigma = infinity_cluster(s, check=False)
        report = check_cluster(sigma.relation, sigma.members())
        assert [v.axiom for v in report.violations] == ["K3"]

    def test_row_test_decides_and_the_walk_only_names_the_witness(self, cluster_walks):
        outcomes = set()
        for n in (1, 2, 3):
            for s in ideal_structures(n):
                if s.improper:
                    continue
                sigma = infinity_cluster(s, check=False)
                expected = check_cluster(sigma.relation, sigma.members())
                cluster_walks.clear()
                if expected.ok:
                    assert infinity_cluster(s) == sigma
                    assert cluster_walks == []
                else:
                    with pytest.raises(Refusal) as caught:
                        infinity_cluster(s)
                    assert caught.value.report == expected
                    assert cluster_walks == []
                outcomes.add(expected.ok)
        assert outcomes == {False, True}

    @pytest.mark.parametrize("n", [16, 24])
    def test_refusal_at_the_caps_reads_the_rows(self, n, cluster_walks):
        # a path whose last atom is unbounded and touches the one before:
        # that atom is the least bounded element reaching the support
        alg = FiniteBooleanAlgebra(tuple(f"a{i}" for i in range(n)))
        rows = tuple((7 << i >> 1) & alg.top for i in range(n))
        s = LocalContactAlgebra(ContactRelation(alg, rows), BoundedIdeal(alg, alg.top >> 1))
        start = time.perf_counter()
        with pytest.raises(Refusal) as caught:
            infinity_cluster(s)
        assert time.perf_counter() - start < 1.0
        assert [(v.axiom, v.witness) for v in caught.value.report.violations] == \
            [("K3", ((f"a{n - 2}",),))]
        assert cluster_walks == []

    def test_cluster_condition_oracle_on_broad_corpus(self):
        # Maximality of the unbounded set is equivalent to: no nonzero bounded
        # element touches every unbounded element.  Checked blind against the
        # direct condition evaluation.
        for n in (2, 3):
            for s in ideal_structures(n):
                if s.improper:
                    continue
                alg = s.algebra
                unbounded = [b for b in alg.elements() if not s.bounded(b)]
                blocking = any(
                    a != 0 and s.bounded(a) and all(s.contact.contact(a, b) for b in unbounded)
                    for a in alg.elements()
                )
                sigma = infinity_cluster(s, check=False)
                assert check_cluster(sigma.relation, sigma.members()).ok == (not blocking)


class TestBoundedClusterFacts:
    def test_bounded_cluster_avoids_some_complement(self):
        # Every bounded cluster misses the complement of some bounded element.
        corpus = []
        for n in (1, 2, 3):
            corpus.extend(validated_structures(n))
            corpus.extend(overlap_structures_with_proper_ideal(n) if n > 1 else [])
        assert corpus
        for s in corpus:
            alg = s.algebra
            bounded = [b for b in alg.elements() if s.bounded(b)]
            for cluster in bounded_clusters(s):
                assert any(not cluster.contains(alg.complement(b)) for b in bounded)

    def test_improper_structures_are_normal(self):
        # With everything bounded the extension equals the base contact, and
        # validated structures are normal.
        for n in (1, 2, 3):
            for s in validated_structures(n):
                assert s.improper
                assert check_axioms(s.contact, "NCA").ok


class TestOverlapCompanion:
    def test_idempotent_on_overlap(self):
        s = nca_as_lca(overlap_contact(FiniteBooleanAlgebra.of("p", "q")))
        companion, morphism = overlap_companion(s)
        assert companion.contact.rows == s.contact.rows
        assert companion.ideal == s.ideal
        assert check_morphism(morphism).ok

    def test_companion_of_validated_structure_is_validated(self):
        for n in (1, 2, 3):
            for s in validated_structures(n):
                companion, _ = overlap_companion(s)
                assert check_lca_axioms(companion).ok

    def test_refuses_invalid_input_by_default(self):
        s = overlap_with_generator(2, 0b01)
        with pytest.raises(Refusal):
            overlap_companion(s)

    def test_improper_target_breaks_ideal_covering_only(self):
        # the identity into the overlap companion with the improper ideal
        s = overlap_with_generator(3, 0b011)
        alg = s.algebra
        morphism = AlgebraMorphism(s, nca_as_lca(overlap_contact(alg)), tuple(alg.elements()))
        assert [v.axiom for v in check_morphism(morphism).violations] == ["PAL4"]
