import pytest

from contact_duality.boolalg import FiniteBooleanAlgebra
from contact_duality.contact import (
    ContactRelation,
    ElementContact,
    atom_restriction,
    check_axioms,
    extremal_contacts,
    overlap_contact,
    universal_contact,
)
from corpus import atom_relations, small_algebra
from contact_duality.errors import StructureError
from test_oracles import oracle_check_axioms


def lifted_oracle(relation, a, b):
    """Independent reading of element contact: some atom pair touches."""
    alg = relation.algebra
    return any(
        relation.rows[i] >> j & 1
        for i in alg.atoms_of(a)
        for j in alg.atoms_of(b)
    )


def relation_with_edges(names, edges):
    alg = FiniteBooleanAlgebra(tuple(names))
    rows = [1 << i for i in range(alg.atom_count)]
    for x, y in edges:
        i, j = alg.atom_index(x), alg.atom_index(y)
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return ContactRelation(alg, tuple(rows))


class TestLift:
    def test_disjoint_under_overlap(self):
        r = overlap_contact(small_algebra(3))
        assert not r.contact(0b001, 0b110)

    def test_extra_edge_creates_contact(self):
        r = relation_with_edges("pqr", [("p", "q")])
        assert r.contact(0b001, 0b110) == lifted_oracle(r, 0b001, 0b110) == True

    def test_zero_never_in_contact(self):
        for r in atom_relations(3):
            for b in r.algebra.elements():
                assert not r.contact(0, b)
                assert not r.contact(b, 0)

    def test_lift_matches_oracle_exhaustively(self):
        for n in (1, 2, 3):
            for r in atom_relations(n):
                for a in r.algebra.elements():
                    for b in r.algebra.elements():
                        assert r.contact(a, b) == lifted_oracle(r, a, b)

    def test_symmetric_and_additive(self):
        for r in atom_relations(3):
            alg = r.algebra
            for a in alg.elements():
                for b in alg.elements():
                    assert r.contact(a, b) == r.contact(b, a)
                    for c in alg.elements():
                        assert r.contact(a, b | c) == (r.contact(a, b) or r.contact(a, c))


class TestWayBelow:
    def test_overlap_way_below_is_order(self):
        r = overlap_contact(small_algebra(3))
        alg = r.algebra
        for a in alg.elements():
            assert r.way_below(a, a)
            for b in alg.elements():
                assert r.way_below(a, b) == alg.le(a, b)

    def test_universal_way_below_fails_on_proper_parts(self):
        r = universal_contact(small_algebra(2))
        assert not r.way_below(0b01, 0b01)

    def test_zero_way_below_everything(self):
        for r in atom_relations(2):
            for b in r.algebra.elements():
                assert r.way_below(0, b)


class TestExtremal:
    def test_overlap_and_universal_values(self):
        rs, rl = extremal_contacts(small_algebra(2))
        assert rs.contact(0b01, 0b11)
        assert not rs.contact(0b01, 0b10)
        assert rl.contact(0b01, 0b10)

    def test_single_atom_extremals_coincide(self):
        rs, rl = extremal_contacts(small_algebra(1))
        assert rs.rows == rl.rows

    def test_every_relation_between_the_extremes(self):
        for n in (1, 2, 3, 4):
            if n == 4:
                relations = [overlap_contact(small_algebra(4)),
                             universal_contact(small_algebra(4)),
                             relation_with_edges("pqrs", [("p", "q"), ("r", "s")])]
            else:
                relations = atom_relations(n)
            rs, rl = extremal_contacts(small_algebra(n))
            for r in relations:
                alg = r.algebra
                for a in alg.elements():
                    for b in alg.elements():
                        if rs.contact(a, b):
                            assert r.contact(a, b)
                        if r.contact(a, b):
                            assert rl.contact(a, b)


class TestAxiomChecker:
    def test_overlap_is_normal_up_to_four_atoms(self):
        for n in range(1, 5):
            assert check_axioms(overlap_contact(small_algebra(n)), "NCA").ok

    def test_universal_fails_co_density_with_least_witness(self):
        report = check_axioms(universal_contact(small_algebra(2)), "NCA")
        assert [v.axiom for v in report.violations] == ["C6"]
        assert report.violations[0].witness == (("p",),)

    def test_overlap_fails_connectedness_with_least_witness(self):
        report = check_axioms(overlap_contact(small_algebra(2)), "CON")
        assert [v.axiom for v in report.violations] == ["CON"]
        assert report.violations[0].witness == (("p",),)

    def test_atom_backed_relations_always_pass_ca(self):
        for n in (1, 2, 3):
            for r in atom_relations(n):
                assert check_axioms(r, "CA").ok

    def test_ll_mode_agrees_with_nca_mode(self):
        # The first four laws and contraposition hold for every relation;
        # interpolation and co-density line up with their contact forms.
        import random
        rng = random.Random(41)
        from corpus import random_atom_relation
        corpus = [r for n in (1, 2, 3) for r in atom_relations(n)]
        corpus += list(extremal_contacts(small_algebra(4)))
        corpus += [random_atom_relation(4, rng) for _ in range(4)]
        for r in corpus:
            ll = {v.axiom for v in check_axioms(r, "LL").violations}
            nca = {v.axiom for v in check_axioms(r, "NCA").violations}
            assert not ll & {"LL1", "LL2", "LL3", "LL4", "LL7"}
            assert ("LL5" in ll) == ("C5" in nca)
            assert ("LL6" in ll) == ("C6" in nca)

    def test_unknown_kind_rejected(self):
        with pytest.raises(StructureError):
            check_axioms(overlap_contact(small_algebra(1)), "XYZ")

    def test_element_relations_are_refused(self):
        # only atom rows are checked; the element scans live in the tests
        rel = ElementContact(small_algebra(2), lambda a, b: bool(a & b))
        for kind in ("CA", "NCA", "CON", "LL"):
            with pytest.raises(StructureError, match="atom rows"):
                check_axioms(rel, kind)


class TestAtomDetermination:
    def all_symmetric_element_relations(self, alg):
        """Every symmetric element relation on a two-atom algebra."""
        cells = [(a, b) for a in alg.elements() for b in alg.elements() if a <= b]
        for choice in range(1 << len(cells)):
            pairs = set()
            for k, (a, b) in enumerate(cells):
                if choice >> k & 1:
                    pairs.add((a, b))
                    pairs.add((b, a))
            yield pairs

    def test_every_lawful_element_relation_is_a_lift(self):
        alg = small_algebra(2)
        count = 0
        for pairs in self.all_symmetric_element_relations(alg):
            rel = ElementContact(alg, lambda a, b, p=pairs: (a, b) in p)
            if not oracle_check_axioms(rel, "CA").ok:
                continue
            count += 1
            back = atom_restriction(rel)
            for a in alg.elements():
                for b in alg.elements():
                    assert rel.contact(a, b) == back.contact(a, b)
        assert count == 2  # exactly the two extremal relations exist on two atoms

    def test_lift_restriction_round_trip(self):
        for n in (1, 2, 3):
            for r in atom_relations(n):
                assert atom_restriction(r).rows == r.rows

    def test_non_additive_relation_is_detected(self):
        alg = small_algebra(2)
        # contact only in the pair of proper mixed elements; fails additivity
        rel = ElementContact(alg, lambda a, b: {a, b} == {0b01, 0b11})
        report = oracle_check_axioms(rel, "CA")
        assert not report.ok
        assert {v.axiom for v in report.violations} & {"C1", "C3", "C4"}

    def test_co_density_and_additivity_give_nonzero_contact(self):
        # With distinct bottom and top, relations passing C4 and C6 also pass C2.
        alg = small_algebra(2)
        for pairs in self.all_symmetric_element_relations(alg):
            rel = ElementContact(alg, lambda a, b, p=pairs: (a, b) in p)
            report = {v.axiom for v in oracle_check_axioms(rel, "NCA").violations}
            if "C4" not in report and "C6" not in report:
                assert "C2" not in report


class TestConstruction:
    def test_missing_diagonal_rejected(self):
        alg = small_algebra(2)
        with pytest.raises(StructureError):
            ContactRelation(alg, (0b10, 0b11))

    def test_asymmetric_rejected(self):
        alg = small_algebra(2)
        with pytest.raises(StructureError):
            ContactRelation(alg, (0b11, 0b10))

    def test_row_count_and_width_checked(self):
        alg = small_algebra(2)
        with pytest.raises(StructureError):
            ContactRelation(alg, (0b01,))
        with pytest.raises(StructureError):
            ContactRelation(alg, (0b101, 0b10))
