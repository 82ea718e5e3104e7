import dataclasses
import time

import pytest

from contact_duality.contact import ContactRelation, check_axioms
from corpus import all_maps, all_preorder_spaces, sampled_preorder_spaces
from contact_duality.errors import CapExceeded, Refusal, StructureError
from contact_duality.spaces import (
    FiniteSpace,
    SpaceMap,
    dense_subspace_isomorphism,
    discrete_space,
    map_predicates,
    rc_algebra,
    regular_closed_sets,
    ro_algebra,
    ro_law_violation,
    space_predicates,
)
from contact_duality.report import Violation
from contact_duality.spaces import _verify_rc_tables
from contact_duality import spaces as spaces_module


@pytest.fixture
def sierpinski():
    return FiniteSpace(("a", "b"), (0b01, 0b11))


class TestSpaceBasics:
    def test_whole_space_is_clopen(self):
        for space in all_preorder_spaces(3):
            assert space.closure(space.everything) == space.everything
            assert space.interior(space.everything) == space.everything

    def test_discrete_closure_and_interior_are_identity(self):
        space = discrete_space("abc")
        for m in range(space.everything + 1):
            assert space.closure(m) == m
            assert space.interior(m) == m

    def test_sierpinski_closure_of_open_point(self, sierpinski):
        assert sierpinski.closure(0b01) == 0b11
        assert sierpinski.interior(0b10) == 0

    def test_closure_interior_de_morgan_dual(self):
        for space in all_preorder_spaces(3):
            for m in range(space.everything + 1):
                assert space.interior(m) == space.everything ^ space.closure(
                    space.everything ^ m)

    def test_invalid_neighbourhoods_rejected(self):
        with pytest.raises(StructureError):
            FiniteSpace(("a", "b"), (0b10, 0b11))  # a misses its own neighbourhood
        with pytest.raises(StructureError):
            # b inside a's minimal open but with an incomparable neighbourhood
            FiniteSpace(("a", "b", "c"), (0b011, 0b110, 0b100))
        with pytest.raises(StructureError):
            FiniteSpace((), ())

    def test_unknown_point_is_structural(self, sierpinski):
        with pytest.raises(StructureError):
            sierpinski.point_index("z")
        with pytest.raises(StructureError):
            sierpinski.check_set(0b100)

    def test_refusals_name_what_is_wrong(self, sierpinski):
        cases = [
            (lambda: FiniteSpace(("a", "b"), (0b01,)),
             "one minimal neighbourhood per point is required"),
            (lambda: sierpinski.subspace(0), "a subspace needs at least one point"),
            (lambda: SpaceMap(sierpinski, sierpinski, (0,)), "map must assign every source point"),
            (lambda: SpaceMap.identity(sierpinski).after(SpaceMap.identity(discrete_space("ab"))),
             "maps do not compose: middle spaces differ"),
        ]
        for build, message in cases:
            with pytest.raises(StructureError) as caught:
                build()
            assert str(caught.value) == message

    def test_bool_is_not_a_point_set(self, sierpinski):
        for flag in (True, False):
            with pytest.raises(StructureError):
                sierpinski.check_set(flag)
            with pytest.raises(StructureError):
                sierpinski.closure(flag)

    def test_image_and_preimage_refuse_a_mask_beyond_their_space(self, sierpinski):
        f = SpaceMap(discrete_space("abc"), sierpinski, (0, 1, 1))
        assert (f.image(0b100), f.preimage(0b10)) == (0b10, 0b110)
        for bad in (0b100, -1, True):
            with pytest.raises(StructureError) as caught:
                f.preimage(bad)
            assert str(caught.value) == f"{bad!r} is not a point set of this space"
        for bad in (0b1000, -1, True):
            with pytest.raises(StructureError) as caught:
                f.image(bad)
            assert str(caught.value) == f"{bad!r} is not a point set of this space"

    def test_neighbourhoods_and_map_values_are_plain_ints(self, sierpinski):
        for bad in (True, 1.0):
            with pytest.raises(StructureError, match="neighbourhood mask"):
                FiniteSpace(("a",), (bad,))
        for bad in ((0.5, 1), (True, 1), (0, 1.0)):
            with pytest.raises(StructureError, match="map value"):
                SpaceMap(sierpinski, sierpinski, bad)


class TestRegularClosed:
    def test_discrete_two_points_full_powerset(self):
        rc = rc_algebra(discrete_space("ab"))
        assert rc.carrier == (0b00, 0b01, 0b10, 0b11)
        assert rc.contact.rows == (0b01, 0b10)  # overlap only

    def test_sierpinski_collapses(self, sierpinski):
        rc = rc_algebra(sierpinski)
        assert rc.carrier == (0b00, 0b11)
        assert rc.algebra.atom_count == 1

    def test_way_below_is_interior_containment(self):
        for space in all_preorder_spaces(3):
            rc = rc_algebra(space)
            for e in rc.algebra.elements():
                for g in rc.algebra.elements():
                    f_set, g_set = rc.to_pointset(e), rc.to_pointset(g)
                    expected = f_set & space.interior(g_set) == f_set
                    assert rc.contact.way_below(e, g) == expected

    def test_contact_is_intersection(self):
        for space in all_preorder_spaces(3):
            rc = rc_algebra(space)
            for e in rc.algebra.elements():
                for g in rc.algebra.elements():
                    assert rc.contact.contact(e, g) == bool(
                        rc.to_pointset(e) & rc.to_pointset(g))

    def test_point_cap(self):
        big = discrete_space(tuple(f"x{i}" for i in range(17)))
        with pytest.raises(CapExceeded):
            rc_algebra(big)

    def test_regular_closed_sets_refuse_beyond_the_cap_before_the_closure_table(self):
        big = discrete_space(tuple(f"x{i}" for i in range(17)))
        for enumerate_sets in (regular_closed_sets, rc_algebra):
            with pytest.raises(CapExceeded) as caught:
                enumerate_sets(big)
            assert str(caught.value) == "regular closed enumeration capped at 16 points"
        assert "closure_table" not in big.__dict__

    def test_non_regular_set_rejected_by_to_element(self, sierpinski):
        rc = rc_algebra(sierpinski)
        with pytest.raises(StructureError):
            rc.to_element(0b01)

    def test_discrete_spaces_give_overlap_contact_on_the_powerset(self):
        from contact_duality.clusters import enumerate_clusters
        for n in (1, 2, 3, 4):
            space = discrete_space("abcd"[:n])
            rc = rc_algebra(space)
            assert len(rc.carrier) == 1 << n
            assert rc.contact.rows == tuple(1 << i for i in range(n))
            supports = [c.support for c in enumerate_clusters(rc.contact)]
            assert supports == [1 << i for i in range(n)]


class TestRegularClosedCache:
    def test_built_once_per_space(self, sierpinski):
        for space in (sierpinski, discrete_space("abc")):
            rc = rc_algebra(space)
            assert rc_algebra(space) is rc
            assert rc.lca() is rc.lca()

    def test_equal_copies_give_equal_algebras(self):
        for space in all_preorder_spaces(3):
            copy = FiniteSpace(space.points, space.min_nbhd)
            assert copy is not space and copy == space
            assert rc_algebra(copy) == rc_algebra(space)
            assert rc_algebra(copy).lca() == rc_algebra(space).lca()

    def test_cache_stays_out_of_equality_and_repr(self, sierpinski):
        fresh = FiniteSpace(sierpinski.points, sierpinski.min_nbhd)
        rc_algebra(sierpinski)
        assert (sierpinski.point_count, sierpinski.everything) == (2, 0b11)
        assert fresh == sierpinski and hash(fresh) == hash(sierpinski)
        assert repr(fresh) == repr(sierpinski)

    def test_cap_refusal_repeats(self):
        big = discrete_space(tuple(f"x{i}" for i in range(17)))
        for _ in range(2):
            with pytest.raises(CapExceeded):
                rc_algebra(big)


class TestRegularClosedTableCheck:
    """The table check of rc_algebra, run on tampered algebras of two points.

    An atom-union table always preserves join, so join cannot be made to fail.
    """

    @pytest.mark.parametrize("atoms, rows, message", [
        ((0b01, 0b11), None, "meet disagrees with closure of interior of intersection"),
        ((0b01, 0b10), (0b11, 0b11), "lifted contact disagrees with intersection"),
        ((0b01, 0b01), None, "complement disagrees with closure of the set complement"),
    ])
    def test_tampered_algebra_is_refused(self, atoms, rows, message):
        rc = rc_algebra(discrete_space("ab"))
        contact = rc.contact if rows is None else ContactRelation(rc.algebra, rows)
        tampered = dataclasses.replace(rc, atoms=atoms, contact=contact)
        with pytest.raises(StructureError, match=message):
            _verify_rc_tables(tampered)


class TestRegularClosedDecomposition:
    """The carrier checks of rc_algebra, on tampered carriers of discrete spaces."""

    @pytest.mark.parametrize("points, carrier, message", [
        ("ab", (0b00, 0b01, 0b10), "regular closed carrier is not a powerset of its atoms"),
        ("ab", (0b00,), "a nonempty space has at least one regular closed atom"),
        # the atoms are {a} and {b}, whose unions miss the top and hold {a,b}
        ("abc", (0b000, 0b001, 0b010, 0b111),
         "regular closed sets do not decompose over the atoms"),
    ])
    def test_tampered_carrier_is_refused(self, monkeypatch, points, carrier, message):
        monkeypatch.setattr(spaces_module, "regular_closed_sets", lambda space: carrier)
        with pytest.raises(StructureError) as caught:
            rc_algebra(discrete_space(points))
        assert str(caught.value) == message


class TestRegularClosedCertificate:
    def test_no_element_walk_on_every_space_up_to_four_points(self, law_walks):
        spaces = [space for n in range(1, 5) for space in all_preorder_spaces(n)]
        assert len(spaces) == 389
        for space in spaces:
            rc_algebra(space)
        assert law_walks == []

    def test_nine_point_discrete_space_is_certified(self, monkeypatch):
        # 512 regular closed sets: the table check runs at every size up to the cap
        checked = []

        def recording(rc):
            checked.append(rc)
            _verify_rc_tables(rc)

        monkeypatch.setattr(spaces_module, "_verify_rc_tables", recording)
        rc = rc_algebra(discrete_space("abcdefghi"))
        assert checked == [rc]
        assert rc.pointsets == tuple(range(512))


class TestRegularClosedPointSets:
    def test_pointsets_are_the_atom_unions_on_every_space_up_to_four_points(self):
        spaces = 0
        for n in range(1, 5):
            for space in all_preorder_spaces(n):
                rc = rc_algebra(space)
                unions = []
                for e in rc.algebra.elements():
                    union = 0
                    for k, atom in enumerate(rc.atoms):
                        if e >> k & 1:
                            union |= atom
                    unions.append(union)
                assert rc.pointsets == tuple(unions)
                assert [rc.to_pointset(e) for e in rc.algebra.elements()] == unions
                spaces += 1
        assert spaces == 1 + 4 + 29 + 355

    def test_to_pointset_refuses_a_non_element(self):
        rc = rc_algebra(discrete_space("ab"))
        for bad in (4, -1, True, 1.0):
            with pytest.raises(StructureError) as caught:
                rc.to_pointset(bad)
            assert str(caught.value) == f"{bad!r} is not an element of a 2-atom algebra"


class TestRegularOpen:
    def test_discrete_identity(self):
        ro = ro_algebra(discrete_space("ab"))
        assert ro.carrier == (0b00, 0b01, 0b10, 0b11)
        assert all(ro.to_closed[u] == u for u in ro.carrier)
        assert ro.certificate.ok

    def test_sierpinski(self, sierpinski):
        ro = ro_algebra(sierpinski)
        assert ro.carrier == (0b00, 0b11)
        assert ro.certificate.ok

    def test_certified_on_small_corpus(self):
        for space in all_preorder_spaces(3):
            ro = ro_algebra(space)
            assert ro.certificate.ok
            assert len(ro.carrier) == len(regular_closed_sets(space))

    def test_no_element_walk_on_every_space_up_to_four_points(self, law_walks):
        spaces = [space for n in range(1, 5) for space in all_preorder_spaces(n)]
        assert len(spaces) == 389
        for space in spaces:
            assert ro_algebra(space).certificate.ok
        assert law_walks == []

    def test_closure_map_that_is_no_bijection(self):
        space = discrete_space("ab")
        ro = ro_algebra(space)
        tampered = dataclasses.replace(ro, to_closed={u: 0b11 for u in ro.carrier})
        assert ro_law_violation(tampered, rc_algebra(space)) == Violation("bijection")

    def test_enumeration_cap(self):
        with pytest.raises(CapExceeded) as caught:
            ro_algebra(discrete_space(tuple(f"x{i}" for i in range(17))))
        assert str(caught.value) == "regular open enumeration capped at 16 points"

    def test_sixteen_point_discrete_space_certifies_quickly(self):
        space = discrete_space(tuple(f"x{i}" for i in range(16)))
        start = time.perf_counter()
        ro = ro_algebra(space)
        assert time.perf_counter() - start < 5.0
        assert ro.certificate.ok and len(ro.carrier) == 1 << 16


class TestSpacePredicates:
    def test_discrete_two_points(self):
        preds = space_predicates(discrete_space("ab"))
        assert (preds.connected, preds.hausdorff, preds.extremally_disconnected,
                preds.compact) == (False, True, True, True)

    def test_sierpinski_connected(self, sierpinski):
        assert space_predicates(sierpinski).connected

    def test_one_point_space(self):
        preds = space_predicates(discrete_space("a"))
        assert preds.connected and preds.hausdorff
        assert preds.extremally_disconnected and preds.compact

    def test_extremal_disconnection_equals_clopen_regular_closed(self):
        for space in all_preorder_spaces(3) + sampled_preorder_spaces(4, 40):
            by_preds = space_predicates(space).extremally_disconnected
            by_rc = all(space.is_open(f) for f in regular_closed_sets(space))
            assert by_preds == by_rc


class TestMapPredicates:
    def test_identity_is_perfect(self):
        for space in all_preorder_spaces(3):
            preds = map_predicates(SpaceMap.identity(space))
            assert preds.continuous and preds.closed and preds.perfect

    def test_constant_between_discrete_spaces_is_perfect(self):
        f = SpaceMap(discrete_space("ab"), discrete_space("cd"), (0, 0))
        assert map_predicates(f).perfect

    def test_all_maps_between_discrete_spaces_are_perfect(self):
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                for f in all_maps(discrete_space("abc"[:n]), discrete_space("xyz"[:m])):
                    assert map_predicates(f).perfect

    def test_open_point_inclusion_is_not_closed(self, sierpinski):
        f = SpaceMap(discrete_space("a"), sierpinski, (0,))
        preds = map_predicates(f)
        assert preds.continuous
        assert not preds.closed
        assert not preds.perfect
        assert preds.dense_image

    def test_continuity_oracle(self):
        # Preimage of every open set is open: checked directly against the
        # minimal-neighbourhood test.
        spaces = all_preorder_spaces(2) + all_preorder_spaces(3)[:12]
        for src in spaces:
            for tgt in spaces:
                for f in all_maps(src, tgt):
                    direct = all(
                        src.is_open(f.preimage(v))
                        for v in range(tgt.everything + 1)
                        if tgt.is_open(v)
                    )
                    assert map_predicates(f).continuous == direct


class TestSubspacesAndDensity:
    def test_subspace_of_discrete_is_discrete(self):
        sub = discrete_space("abc").subspace(0b101)
        assert sub.points == ("a", "c")
        assert space_predicates(sub).hausdorff

    def test_self_is_dense_with_identity_maps(self):
        space = discrete_space("ab")
        iso = dense_subspace_isomorphism(space, space.everything)
        assert iso.certificate.ok
        assert all(iso.restrict[f] == f for f in iso.restrict)

    def test_sierpinski_open_point_is_dense(self, sierpinski):
        iso = dense_subspace_isomorphism(sierpinski, 0b01)
        assert iso.certificate.ok
        # two regular closed sets on each side, matched by trace and closure
        assert iso.restrict == {0b00: 0b0, 0b11: 0b1}
        assert iso.extend == {0b0: 0b00, 0b1: 0b11}

    def test_refuses_non_dense_subset(self):
        space = discrete_space("ab")
        with pytest.raises(Refusal):
            dense_subspace_isomorphism(space, 0b01)

    def test_round_trip_and_laws_on_corpus(self):
        pairs = 0
        for space in all_preorder_spaces(3):
            for subset in range(1, space.everything + 1):
                if space.closure(subset) != space.everything:
                    continue
                iso = dense_subspace_isomorphism(space, subset)
                assert iso.certificate.ok
                for f in iso.restrict:
                    assert iso.extend[iso.restrict[f]] == f
                for g in iso.extend:
                    assert iso.restrict[iso.extend[g]] == g
                pairs += 1
        assert pairs >= 20

    def test_no_element_walk_on_every_dense_subset_up_to_four_points(self, law_walks):
        pairs = 0
        for space in [space for n in range(1, 5) for space in all_preorder_spaces(n)]:
            for subset in range(1, space.everything + 1):
                if space.closure(subset) == space.everything:
                    assert dense_subspace_isomorphism(space, subset).certificate.ok
                    pairs += 1
        assert pairs == 2271
        assert law_walks == []

    def test_tampered_closures_break_both_inverse_checks_at_the_least_set(self, monkeypatch):
        space = discrete_space("abc")
        rc_algebra(space)  # built from the true closures, then kept
        table = list(space.closure_table)
        table[0b010], table[0b100] = 0b100, 0b010
        monkeypatch.setitem(space.__dict__, "closure_table", tuple(table))
        iso = dense_subspace_isomorphism(space, space.everything)
        assert iso.certificate.violations == (Violation("extend-restrict", (("b",),)),
                                              Violation("restrict-extend", (("b",),)))

    def test_tampered_closure_outside_the_carrier_breaks_the_extend_range(self, monkeypatch):
        space = discrete_space("ab")
        rc_algebra(space)
        table = list(space.closure_table)
        table[0b01] = 0b11
        monkeypatch.setitem(space.__dict__, "closure_table", tuple(table))
        iso = dense_subspace_isomorphism(space, space.everything)
        assert iso.certificate.violations == (Violation("extend-range"),)

    def test_mutually_inverse_tables_that_break_a_law(self, monkeypatch):
        # both tables are the inclusion's preimages and images followed by the
        # involution swapping {a} and {a,b}: they pass the range and inverse
        # checks, and the trace law walk names the least pair whose join it breaks
        swap = {0b001: 0b011, 0b011: 0b001}
        for name in ("image", "preimage"):
            def swapped(self, m, original=getattr(SpaceMap, name)):
                value = original(self, m)
                return swap.get(value, value)
            monkeypatch.setattr(SpaceMap, name, swapped)
        iso = dense_subspace_isomorphism(discrete_space("abc"), 0b111)
        assert iso.certificate.violations == (Violation("join", (("a",), ("b",))),)

    def test_tampered_subspace_breaks_both_ranges(self, monkeypatch, sierpinski):
        monkeypatch.setattr(FiniteSpace, "subspace", lambda self, subset: sierpinski)
        iso = dense_subspace_isomorphism(discrete_space("ab"), 0b11)
        assert iso.certificate.violations == (Violation("restrict-range"),
                                              Violation("extend-range"))

    def test_sixteen_point_discrete_space_certifies_quickly(self):
        space = discrete_space(tuple(f"x{i}" for i in range(16)))
        start = time.perf_counter()
        iso = dense_subspace_isomorphism(space, space.everything)
        assert time.perf_counter() - start < 5.0
        assert iso.certificate.ok and len(iso.restrict) == 1 << 16


class TestSpaceConnectednessAgainstContact:
    def test_connected_iff_contact_connected(self):
        corpus = all_preorder_spaces(3) + sampled_preorder_spaces(4, 30)
        for space in corpus:
            rc = rc_algebra(space)
            algebraic = check_axioms(rc.contact, "CON").ok
            assert space_predicates(space).connected == algebraic
