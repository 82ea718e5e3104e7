"""Regions of the rational line: finite unions of closed intervals.

A region is a sorted tuple of pairwise disjoint, non-touching, nondegenerate
closed intervals; endpoints are exact rationals, with the two infinities as
open ends of rays.  The normal form makes equality of regions literal tuple
equality, exactly the property floating point would destroy: whether two
regions merely touch or genuinely overlap is the whole point of the contact
relation.

These regions are the regular closed sets of the line that the calculator can
represent: join is union, meet drops degenerate touching points, complement
closes up the gaps.  Boundedness (no infinite endpoint) is the ideal of the
local contact structure this algebra models; it is the one place in the
package where a proper ideal satisfies all the boundedness axioms, so the
morphism axioms about ideals are exercised non-vacuously here.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import Refusal, StructureError

NEG_INF = -math.inf
POS_INF = math.inf

Endpoint = object  # Fraction, or one of the two infinities

RATIONAL_DIGIT_CAP = 1000
_EXPONENT = re.compile(r"\s*[-+]?[\d_.]*[eE]([-+]?\d[\d_]*)\s*\Z")


def _valid_endpoint(value) -> Endpoint:
    if type(value) is Fraction or value is NEG_INF or value is POS_INF:
        return value
    if isinstance(value, Fraction) or type(value) is int:
        return Fraction(value)
    if value == NEG_INF:
        return NEG_INF
    if value == POS_INF:
        return POS_INF
    raise StructureError(f"endpoint must be a rational or an infinity, got {value!r}")


def _before(a: Endpoint, b: Endpoint) -> bool:
    """a < b for stored endpoints: plain Fractions and the module's infinities.

    The infinities are told apart by identity; two Fractions are compared by
    cross-multiplying their reduced integers, exact as denominators are
    positive.  The integers are read from Fraction's _numerator and
    _denominator slots (what its properties return in CPython 3.10 to 3.13),
    which is sound as RationalRegion stores every finite endpoint as a plain
    Fraction.  This costs a small part of Fraction.__lt__, which goes through
    the numeric tower, and it is the one endpoint order of every region
    operation.
    """
    if a is NEG_INF:
        return b is not NEG_INF
    if b is POS_INF:
        return a is not POS_INF
    if a is POS_INF or b is NEG_INF:
        return False
    return a._numerator * b._denominator < b._numerator * a._denominator


def parse_endpoint(text: str) -> Endpoint:
    text = text.strip()
    if text in ("-inf", "-infinity"):
        return NEG_INF
    if text in ("inf", "+inf", "infinity", "+infinity"):
        return POS_INF
    return parse_rational(text, "rational endpoint")


def parse_rational(text: str, what: str = "rational") -> Fraction:
    """Fraction(text), refusing a text that spells over RATIONAL_DIGIT_CAP digits.

    The digits an exponent stands for count too, and the count is taken from
    the text before Fraction builds the number, so '1e999999999' is refused at
    once instead of being expanded.  Within the cap the numbers the region
    operations print (at most about three times the cap in digits, for an
    affine preimage) stay below the interpreter's int-to-string limit.
    """
    digits = sum(ch.isdigit() for ch in text)
    exponent = _EXPONENT.match(text)
    if digits <= RATIONAL_DIGIT_CAP and exponent:
        digits += abs(int(exponent.group(1)))
    if digits > RATIONAL_DIGIT_CAP:
        raise StructureError(f"{what} {text!r} spells more than {RATIONAL_DIGIT_CAP} digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise StructureError(f"bad {what} {text!r}") from exc


def endpoint_text(value: Endpoint) -> str:
    if value is NEG_INF:
        return "-inf"
    if value is POS_INF:
        return "inf"
    return str(value)


@dataclass(frozen=True, slots=True)
class RationalRegion:
    intervals: tuple[tuple[Endpoint, Endpoint], ...]

    def __post_init__(self):
        # An int or a Fraction subclass endpoint is stored as a plain
        # Fraction, and an infinity as NEG_INF or POS_INF; the tuple is
        # rebuilt only when an endpoint changes.
        previous_hi = None
        changed = False
        for lo, hi in self.intervals:
            if type(lo) is not Fraction and lo is not NEG_INF and lo is not POS_INF:
                valid = _valid_endpoint(lo)
                changed |= valid is not lo
                lo = valid
            if type(hi) is not Fraction and hi is not NEG_INF and hi is not POS_INF:
                valid = _valid_endpoint(hi)
                changed |= valid is not hi
                hi = valid
            if not _before(lo, hi):
                raise StructureError(f"degenerate or reversed interval [{lo}, {hi}]")
            if previous_hi is not None and not _before(previous_hi, lo):
                raise StructureError("intervals must be sorted, disjoint and non-touching")
            previous_hi = hi
        if changed:
            object.__setattr__(self, "intervals", tuple(
                (_valid_endpoint(lo), _valid_endpoint(hi)) for lo, hi in self.intervals))

    # construction ---------------------------------------------------------

    @staticmethod
    def empty() -> "RationalRegion":
        return RationalRegion(())

    @staticmethod
    def whole_line() -> "RationalRegion":
        return RationalRegion(((NEG_INF, POS_INF),))

    @staticmethod
    def of(*pairs) -> "RationalRegion":
        """Normalize arbitrary interval pairs: sort, merge touching, drop none.

        Degenerate input intervals are rejected; merging only collapses
        intervals that meet or touch.
        """
        cleaned = []
        for lo, hi in pairs:
            lo = lo if type(lo) is Fraction else _valid_endpoint(lo)
            hi = hi if type(hi) is Fraction else _valid_endpoint(hi)
            if not _before(lo, hi):
                raise StructureError(f"degenerate or reversed interval [{lo}, {hi}]")
            cleaned.append((lo, hi))
        return _merged(cleaned)

    @staticmethod
    def from_text(text: str) -> "RationalRegion":
        """Parse the calculator syntax: "empty" or intervals joined by "u"."""
        body = text.strip()
        if body in ("empty", ""):
            return RationalRegion.empty()
        pairs = []
        for chunk in body.split("u"):
            chunk = chunk.strip()
            if not (chunk.startswith("[") and chunk.endswith("]")):
                raise StructureError(f"expected an interval like [a,b], got {chunk!r}")
            inner = chunk[1:-1].split(",")
            if len(inner) != 2:
                raise StructureError(f"expected two endpoints in {chunk!r}")
            pairs.append((parse_endpoint(inner[0]), parse_endpoint(inner[1])))
        return RationalRegion.of(*pairs)

    def to_text(self) -> str:
        if not self.intervals:
            return "empty"
        return " u ".join(f"[{endpoint_text(lo)},{endpoint_text(hi)}]"
                          for lo, hi in self.intervals)

    # structure ------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def is_bounded(self) -> bool:
        return all(lo is not NEG_INF and hi is not POS_INF for lo, hi in self.intervals)

    # Boolean operations ---------------------------------------------------
    #
    # Both operands are in normal form, so every operation below is one pass
    # over the two sorted tuples, and the intervals it emits are already
    # sorted: only join has touching neighbours left to merge.

    def join(self, other: "RationalRegion") -> "RationalRegion":
        a, b = self.intervals, other.intervals
        if not a or not b:
            return other if not a else self
        out: list[tuple[Endpoint, Endpoint]] = []
        i = j = 0
        na, nb = len(a), len(b)
        while i < na or j < nb:
            if j == nb or (i < na and not _before(b[j][0], a[i][0])):
                lo, hi = a[i]
                i += 1
            else:
                lo, hi = b[j]
                j += 1
            if out and not _before(out[-1][1], lo):
                if _before(out[-1][1], hi):
                    out[-1] = (out[-1][0], hi)
            else:
                out.append((lo, hi))
        return RationalRegion(tuple(out))

    def meet(self, other: "RationalRegion") -> "RationalRegion":
        """Regularized intersection: single touching points vanish."""
        a, b = self.intervals, other.intervals
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            (alo, ahi), (blo, bhi) = a[i], b[j]
            if _before(ahi, bhi):  # a[i] ends first and meets no later b
                if _before(blo, ahi):
                    out.append((blo if _before(alo, blo) else alo, ahi))
                i += 1
            else:
                if _before(alo, bhi):
                    out.append((blo if _before(alo, blo) else alo, bhi))
                j += 1
        return RationalRegion(tuple(out))

    def complement(self) -> "RationalRegion":
        """Closure of the set complement: gaps get their endpoints back.

        In normal form every inner gap is nondegenerate; only the two outer
        gaps vanish, when the region reaches an infinity.
        """
        gaps = []
        previous = NEG_INF
        for lo, hi in self.intervals:
            if lo is not NEG_INF:
                gaps.append((previous, lo))
            previous = hi
        if previous is not POS_INF:
            gaps.append((previous, POS_INF))
        return RationalRegion(tuple(gaps))

    def le(self, other: "RationalRegion") -> bool:
        """Containment as point sets; the lattice order of the region algebra."""
        b = other.intervals
        j = 0
        for alo, ahi in self.intervals:
            while j < len(b) and _before(b[j][1], ahi):
                j += 1
            if j == len(b) or _before(alo, b[j][0]):
                return False
        return True

    def __or__(self, other):
        return self.join(other)

    def __and__(self, other):
        return self.meet(other)

    def __invert__(self):
        return self.complement()

    def __le__(self, other):
        return self.le(other)

    # contact --------------------------------------------------------------

    def touches(self, other: "RationalRegion") -> bool:
        """Nonempty intersection as point sets; shared endpoints count."""
        a, b = self.intervals, other.intervals
        i = j = 0
        while i < len(a) and j < len(b):
            (alo, ahi), (blo, bhi) = a[i], b[j]
            if _before(ahi, bhi):  # a[i] ends first and touches no later b
                if not _before(ahi, blo):
                    return True
                i += 1
            else:
                if not _before(bhi, alo):
                    return True
                j += 1
        return False

    def well_inside(self, other: "RationalRegion") -> bool:
        """Every interval sits in the interior of one interval of the other."""
        return None not in _enclosing(self, other)

    def well_inside_extended(self, other: "RationalRegion") -> bool:
        """Well inside for the Alexandroff extension of the bounded ideal.

        On top of the interior condition, one of the two sides must be
        algebraically bounded: the region itself, or the complement of the
        other.
        """
        if not self.well_inside(other):
            return False
        return self.is_bounded or other.complement().is_bounded


def _enclosing(inner: RationalRegion, outer: RationalRegion):
    """For each interval of inner, the interval of outer holding it in its
    interior (a ray end counts as interior at its infinity), or None.

    Outer intervals are visited left to right once: one that ends before the
    current inner interval can hold no later one either.
    """
    b = outer.intervals
    j = 0
    for lo, hi in inner.intervals:
        while j < len(b) and not (_before(hi, b[j][1]) or (hi is POS_INF and b[j][1] is POS_INF)):
            j += 1
        if j < len(b) and (_before(b[j][0], lo) or (lo is NEG_INF and b[j][0] is NEG_INF)):
            yield b[j]
        else:
            yield None


# orders interval pairs by their start, by _before alone
_BY_START = functools.cmp_to_key(lambda p, q: _before(q[0], p[0]) - _before(p[0], q[0]))


def _merged(pairs) -> RationalRegion:
    """Normal form of unsorted interval pairs: sort, then merge touching ones."""
    out: list[tuple[Endpoint, Endpoint]] = []
    for lo, hi in sorted(pairs, key=_BY_START):
        if out and not _before(out[-1][1], lo):
            if _before(out[-1][1], hi):
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return RationalRegion(tuple(out))


def expand(region: RationalRegion, margin: Fraction) -> RationalRegion:
    """Grow every interval by a positive margin on each finite side."""
    if not isinstance(margin, Fraction):
        margin = Fraction(margin)
    if margin <= 0:
        raise StructureError("margin must be positive")
    pairs = []
    for lo, hi in region.intervals:
        new_lo = lo if lo is NEG_INF else lo - margin
        new_hi = hi if hi is POS_INF else hi + margin
        pairs.append((new_lo, new_hi))
    return _merged(pairs)


def interpolate(inner: RationalRegion, outer: RationalRegion) -> RationalRegion:
    """Bounded region strictly between a bounded region and one it sits well inside.

    Each interval grows halfway toward the interior boundary of the interval
    of the outer region that contains it; infinite margins are replaced by a
    unit step so the result stays bounded.
    """
    if not inner.is_bounded:
        raise Refusal("interpolation needs a bounded inner region")
    if not inner.well_inside(outer):
        raise Refusal("interpolation needs the inner region well inside the outer one")
    pairs = []
    for (lo, hi), (blo, bhi) in zip(inner.intervals, _enclosing(inner, outer)):
        new_lo = lo - 1 if blo is NEG_INF else (lo + blo) / 2
        new_hi = hi + 1 if bhi is POS_INF else (hi + bhi) / 2
        pairs.append((new_lo, new_hi))
    return _merged(pairs)


def affine_preimage(alpha: Fraction, beta: Fraction, region: RationalRegion) -> RationalRegion:
    """Preimage of a region under x -> alpha*x + beta, alpha nonzero.

    An affine map with nonzero slope is a homeomorphism of the line, so the
    preimage of a regular closed region is computed endpoint by endpoint with
    the inverse map, reversing orientation for negative slope.
    """
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    if alpha == 0:
        raise Refusal("slope zero is not a perfect self-map of the line")

    def pull(value):
        if value is NEG_INF:
            return NEG_INF if alpha > 0 else POS_INF
        if value is POS_INF:
            return POS_INF if alpha > 0 else NEG_INF
        return (value - beta) / alpha

    pairs = []
    for lo, hi in region.intervals:
        a, b = pull(lo), pull(hi)
        pairs.append((a, b) if _before(a, b) else (b, a))
    return _merged(pairs)
