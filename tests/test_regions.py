import random
from decimal import Decimal
from fractions import Fraction as Fr

import pytest

from contact_duality.errors import Refusal, StructureError
from contact_duality.regions import (
    NEG_INF,
    POS_INF,
    RationalRegion,
    affine_preimage,
    expand,
    interpolate,
)

SEED = 20260808


def region(*pairs):
    return RationalRegion.of(*((Fr(a) if a not in (NEG_INF, POS_INF) else a,
                                Fr(b) if b not in (NEG_INF, POS_INF) else b)
                               for a, b in pairs))


def random_region(rng, allow_rays=False):
    pairs = []
    for _ in range(rng.randrange(0, 4)):
        lo = Fr(rng.randrange(-60, 60), rng.randrange(1, 9))
        width = Fr(rng.randrange(1, 40), rng.randrange(1, 9))
        pairs.append((lo, lo + width))
    if allow_rays and rng.random() < 0.25 and pairs:
        lo, hi = pairs[0]
        pairs[0] = (NEG_INF, hi) if rng.random() < 0.5 else (lo, POS_INF)
    return RationalRegion.of(*pairs) if pairs else RationalRegion.empty()


class TestNormalForm:
    def test_touching_intervals_merge(self):
        assert region((0, 1)) | region((1, 2)) == region((0, 2))

    def test_degenerate_intersection_vanishes(self):
        assert (region((0, 1)) & region((1, 2))).is_empty

    def test_complement_of_an_interval(self):
        assert ~region((0, 1)) == RationalRegion(
            ((NEG_INF, Fr(0)), (Fr(1), POS_INF)))

    def test_degenerate_input_rejected(self):
        with pytest.raises(StructureError):
            RationalRegion.of((Fr(1), Fr(1)))
        with pytest.raises(StructureError):
            RationalRegion(((Fr(0), Fr(1)), (Fr(1), Fr(2))))  # touching, unmerged

    def test_bool_and_float_endpoints_rejected(self):
        for pair in ((True, 2), (0, False), (0.5, 2), (0, 2.0)):
            with pytest.raises(StructureError, match="endpoint"):
                RationalRegion.of(pair)
            with pytest.raises(StructureError, match="endpoint"):
                RationalRegion((pair,))
        assert RationalRegion.of((NEG_INF, 2)) == RationalRegion(((NEG_INF, Fr(2)),))

    def test_constructor_stores_fractions_and_the_module_infinities(self):
        ints = RationalRegion(((0, 1),))
        assert ints.intervals == ((Fr(0), Fr(1)),)
        assert all(type(end) is Fr for end in ints.intervals[0])
        assert ints == RationalRegion.of((0, 1)) and hash(ints) == hash(RationalRegion.of((0, 1)))
        assert interpolate(ints, RationalRegion(((-1, 2),))) == region((Fr(-1, 2), Fr(3, 2)))
        rays = RationalRegion(((Decimal("-Infinity"), 0), (1, Decimal("Infinity"))))
        assert rays.intervals[0][0] is NEG_INF and rays.intervals[1][1] is POS_INF
        kept = ((Fr(0), Fr(1)), (Fr(2), POS_INF))
        assert RationalRegion(kept).intervals is kept

    def test_of_stores_int_endpoints_as_fractions(self):
        # of converts only what is not a plain Fraction, before its own order
        built = RationalRegion.of((0, 1), (Fr(3), 4))
        assert built.intervals == ((Fr(0), Fr(1)), (Fr(3), Fr(4)))
        assert all(type(end) is Fr for pair in built.intervals for end in pair)

    def test_fraction_subclass_endpoints_are_stored_as_plain_fractions(self):
        class Rat(Fr):
            def __lt__(self, other):  # a wrong order the regions must not use
                return not Fr.__lt__(self, other)

        built = RationalRegion(((Rat(0), Rat(1)), (Rat(2), POS_INF)))
        assert built == RationalRegion(((Fr(0), Fr(1)), (Fr(2), POS_INF)))
        assert all(type(end) is Fr for end in built.intervals[0] + built.intervals[1][:1])
        merged = RationalRegion.of((Rat(1), Rat(3)), (Rat(-1), Rat(1)))
        assert merged == region((-1, 3)) and all(type(end) is Fr for end in merged.intervals[0])
        for pair in ((Rat(1), Rat(0)), (Rat(1), Rat(1)), (Rat(1, 2), Rat(2, 4))):
            with pytest.raises(StructureError, match="degenerate or reversed interval"):
                RationalRegion((pair,))
            with pytest.raises(StructureError, match="degenerate or reversed interval"):
                RationalRegion.of(pair)
        with pytest.raises(StructureError, match="sorted, disjoint and non-touching"):
            RationalRegion(((Rat(2), Rat(3)), (Rat(0), Rat(1))))

    def test_text_round_trip(self):
        for text in ("empty", "[0,1]", "[-inf,0] u [1/2,3/4]", "[-1/3,22/7] u [5,inf]"):
            assert RationalRegion.from_text(text).to_text() == text

    def test_bad_text_rejected(self):
        for bad in ("[0,1", "[0]", "[a,b]", "[1,1]", "[2,1]"):
            with pytest.raises(StructureError):
                RationalRegion.from_text(bad)


class TestContact:
    def test_touching_counts_as_contact(self):
        assert region((0, 1)).touches(region((1, 2)))

    def test_separated_regions_do_not_touch(self):
        assert not region((0, 1)).touches(region((2, 3)))

    def test_well_inside_examples(self):
        assert region((0, 1)).well_inside(region((-1, 2)))
        assert not region((0, 1)).well_inside(region((0, 2)))

    def test_rays_are_unbounded(self):
        assert not RationalRegion(((NEG_INF, Fr(0)),)).is_bounded
        assert region((0, 1)).is_bounded
        assert RationalRegion.empty().is_bounded

    def test_well_inside_at_infinity(self):
        ray = RationalRegion(((NEG_INF, Fr(0)),))
        wider = RationalRegion(((NEG_INF, Fr(1)),))
        assert ray.well_inside(wider)
        assert not wider.well_inside(ray)

    def test_extended_well_inside_needs_a_bounded_side(self):
        ray = RationalRegion(((NEG_INF, Fr(0)),))
        wider = RationalRegion(((NEG_INF, Fr(1)),))
        assert not ray.well_inside_extended(wider)  # both sides unbounded
        assert region((0, 1)).well_inside_extended(region((-1, 2)))
        co_bounded = ~region((0, 1))
        assert ray.well_inside_extended(co_bounded | region((Fr(-1, 2), Fr(1, 2))))


class TestAlgebraLaws:
    def test_sampled_boolean_laws(self):
        rng = random.Random(SEED)
        for _ in range(10_000):
            f, g, h = (random_region(rng, allow_rays=True) for _ in range(3))
            assert ~~f == f
            assert ~(f | g) == (~f) & (~g)
            assert (f | (f & g)) == f
            assert (f & (f | g)) == f
            assert f | (g | h) == (f | g) | h
            assert f.le(g) == ((f | g) == g)

    def test_contact_axioms_sampled(self):
        rng = random.Random(SEED + 1)
        for _ in range(2000):
            f, g, h = (random_region(rng, allow_rays=True) for _ in range(3))
            if not f.is_empty:
                assert f.touches(f)
            assert f.touches(g) == g.touches(f)
            if f.touches(g):
                assert not f.is_empty and not g.is_empty
            assert f.touches(g | h) == (f.touches(g) or f.touches(h))

    def test_interpolation_axiom_sampled(self):
        # Disjoint regions separate: an expanded copy of one avoids the other.
        rng = random.Random(SEED + 2)
        checked = 0
        for _ in range(2000):
            f = random_region(rng)
            g = random_region(rng)
            if f.is_empty or g.is_empty or f.touches(g):
                continue
            gap = _distance(f, g)
            h = expand(g, gap / 2)
            assert not f.touches(h)
            assert g.well_inside(h)
            checked += 1
        assert checked > 100

    def test_co_density_constructive(self):
        rng = random.Random(SEED + 3)
        for _ in range(500):
            f = random_region(rng, allow_rays=True)
            if f == RationalRegion.whole_line():
                continue
            gap = ~f
            lo, hi = gap.intervals[0]
            witness = _inner_interval(lo, hi)
            assert not witness.touches(f)
            assert not witness.is_empty

    def test_connectedness(self):
        rng = random.Random(SEED + 4)
        for _ in range(500):
            f = random_region(rng, allow_rays=True)
            if f.is_empty or f == RationalRegion.whole_line():
                continue
            assert f.touches(~f)


def _distance(f, g):
    best = None
    for alo, ahi in f.intervals:
        for blo, bhi in g.intervals:
            if ahi < blo:
                d = blo - ahi
            elif bhi < alo:
                d = alo - bhi
            else:
                d = Fr(0)
            best = d if best is None else min(best, d)
    return best


def _inner_interval(lo, hi):
    if lo == NEG_INF and hi == POS_INF:
        return region((0, 1))
    if lo == NEG_INF:
        return RationalRegion.of((hi - 2, hi - 1))
    if hi == POS_INF:
        return RationalRegion.of((lo + 1, lo + 2))
    third = (hi - lo) / 3
    return RationalRegion.of((lo + third, hi - third))


class TestBoundednessAxioms:
    def test_interpolate_worked_example(self):
        assert interpolate(region((0, 1)), region((-1, 2))) == region((Fr(-1, 2), Fr(3, 2)))

    def test_interpolate_empty(self):
        assert interpolate(RationalRegion.empty(), region((0, 1))).is_empty

    def test_interpolate_property_sampled(self):
        rng = random.Random(SEED + 5)
        checked = 0
        for _ in range(2000):
            f = random_region(rng)
            g = random_region(rng, allow_rays=True)
            if not (f.is_bounded and f.well_inside(g)):
                continue
            h = interpolate(f, g)
            assert h.is_bounded
            assert f.well_inside(h)
            assert h.well_inside(g)
            checked += 1
        assert checked > 50

    def test_interpolate_preconditions(self):
        with pytest.raises(Refusal):
            interpolate(RationalRegion(((NEG_INF, Fr(0)),)), RationalRegion.whole_line())
        with pytest.raises(Refusal):
            interpolate(region((0, 2)), region((0, 3)))

    def test_contact_through_a_bounded_trace(self):
        rng = random.Random(SEED + 6)
        for _ in range(500):
            f = random_region(rng, allow_rays=True)
            g = random_region(rng, allow_rays=True)
            if not f.touches(g):
                continue
            x = _contact_point(f, g)
            c = RationalRegion.of((x - 1, x + 1))
            assert c.is_bounded
            assert f.touches(c & g)

    def test_every_nonempty_region_has_bounded_core(self):
        rng = random.Random(SEED + 7)
        for _ in range(500):
            f = random_region(rng, allow_rays=True)
            if f.is_empty:
                continue
            lo, hi = f.intervals[0]
            h = _inner_interval(lo, hi)
            assert h.is_bounded and not h.is_empty
            assert h.well_inside(RationalRegion.of((lo, hi)))
            assert h.well_inside_extended(f) or h.well_inside(f)


def _contact_point(f, g):
    for alo, ahi in f.intervals:
        for blo, bhi in g.intervals:
            lo, hi = max(alo, blo), min(ahi, bhi)
            if lo <= hi:
                if lo == NEG_INF and hi == POS_INF:
                    return Fr(0)
                if lo == NEG_INF:
                    return hi
                if hi == POS_INF:
                    return lo
                return (lo + hi) / 2
    raise AssertionError("no contact point")


class TestAffinePreimage:
    def test_identity(self):
        f = region((0, 1), (3, 4))
        assert affine_preimage(1, 0, f) == f

    def test_scaling(self):
        assert affine_preimage(2, 0, region((0, 2))) == region((0, 1))

    def test_reflection(self):
        assert affine_preimage(-1, 0, region((0, 1))) == region((-1, 0))

    def test_zero_slope_refused(self):
        with pytest.raises(Refusal):
            affine_preimage(0, 1, region((0, 1)))

    def test_rays_transform(self):
        ray = RationalRegion(((NEG_INF, Fr(0)),))
        assert affine_preimage(-2, 0, ray) == RationalRegion(((Fr(0), POS_INF),))

    def test_morphism_axioms_sampled(self):
        rng = random.Random(SEED + 8)
        for _ in range(300):
            alpha = Fr(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randrange(1, 4))
            beta = Fr(rng.randrange(-12, 12), rng.randrange(1, 4))

            def phi(r):
                return affine_preimage(alpha, beta, r)

            f = random_region(rng, allow_rays=True)
            g = random_region(rng, allow_rays=True)
            assert phi(RationalRegion.empty()).is_empty
            assert phi(f & g) == phi(f) & phi(g)
            assert phi(f | g) == phi(f) | phi(g)
            assert phi(~f) == ~phi(f)
            if f.is_bounded:
                assert phi(f).is_bounded
                if f.well_inside(g):
                    assert (~phi(~f)).well_inside(phi(g))

    def test_ideal_covering_witness_is_the_image(self):
        rng = random.Random(SEED + 9)
        for _ in range(300):
            alpha = Fr(rng.choice([-3, -1, 1, 2]), rng.randrange(1, 3))
            beta = Fr(rng.randrange(-9, 9))
            b = random_region(rng)
            if not b.is_bounded:
                continue
            witness = affine_preimage(Fr(1) / alpha, -beta / alpha, b)
            assert witness.is_bounded
            assert b.le(affine_preimage(alpha, beta, witness))

    def test_supremum_law_weak_form_sampled(self):
        rng = random.Random(SEED + 10)
        for _ in range(300):
            alpha = Fr(rng.choice([-2, 1, 3]))
            beta = Fr(rng.randrange(-6, 6))

            def phi(r):
                return affine_preimage(alpha, beta, r)

            f = random_region(rng, allow_rays=True)
            g = random_region(rng)
            if g.is_bounded and g.well_inside(f):
                assert phi(g).le(phi(f))
            parts = [RationalRegion.of(iv) for iv in f.intervals]
            if parts:
                joined = parts[0]
                for p in parts[1:]:
                    joined = joined | p
                assert phi(joined) == _big_join(phi(p) for p in parts)


def _big_join(items):
    out = RationalRegion.empty()
    for item in items:
        out = out | item
    return out
