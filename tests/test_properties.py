"""Property tests: atom-row decisions against the element oracles on random
relations and morphism tables, the region sweeps against the pairwise scans
on random regions, and the two text parsers against arbitrary input.

Skipped when Hypothesis is not installed.  conftest.py loads a derandomized
profile, so every run draws the same examples.
"""

import copy
import json
import pathlib
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from contact_duality import jsonio
from contact_duality.boolalg import FiniteBooleanAlgebra
from contact_duality.contact import ContactRelation, check_axioms
from contact_duality.duality import AlgebraMorphism, check_closed_embedding, check_morphism
from contact_duality.errors import StructureError
from contact_duality.localcontact import BoundedIdeal, LocalContactAlgebra, check_lca_axioms
from contact_duality.regions import NEG_INF, POS_INF, RationalRegion, expand
from test_oracles import (
    REGION_SWEEPS,
    element_scan,
    filter_table,
    oracle_check_axioms,
    oracle_check_closed_embedding,
    oracle_check_lca_axioms,
    oracle_check_morphism,
    oracle_merged,
    outcome,
)
from test_duality import homomorphism_table, wide_overlap


@st.composite
def relations(draw, max_atoms):
    """A reflexive symmetric atom relation; few edges are as likely as many."""
    n = draw(st.integers(1, max_atoms))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    density = draw(st.sampled_from((0.0, 0.2, 0.5, 0.9, 1.0)))
    rows = [1 << i for i in range(n)]
    for i, j in pairs:
        if draw(st.floats(0, 1, exclude_max=True)) < density:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    algebra = FiniteBooleanAlgebra(tuple(f"a{i}" for i in range(n)))
    return ContactRelation(algebra, tuple(rows))


@st.composite
def structures(draw, max_atoms):
    rel = draw(relations(max_atoms))
    top = rel.algebra.top
    generator = draw(st.one_of(st.just(top), st.integers(0, top)))
    return LocalContactAlgebra(rel, BoundedIdeal(rel.algebra, generator))


@settings(max_examples=150)
@given(structures(6))
def test_boundedness_rows_equal_the_element_scan(structure):
    assert check_lca_axioms(structure) == oracle_check_lca_axioms(structure)


@settings(max_examples=150)
@given(structures(8))
def test_boundedness_passes_exactly_on_overlap_with_the_improper_ideal(structure):
    overlap = all(row == 1 << i for i, row in enumerate(structure.contact.rows))
    assert check_lca_axioms(structure).ok == (overlap and structure.improper)


@settings(max_examples=25)
@given(relations(5))
def test_ll_rows_equal_the_element_scan(rel):
    assert check_axioms(rel, "LL") == oracle_check_axioms(element_scan(rel), "LL")


@st.composite
def morphisms(draw, max_atoms):
    """A meet-preserving table between two structures: each target atom lies
    in the image of none or of all the elements above some element; half the
    time one entry is then changed, which mostly breaks PAL2."""
    source, target = draw(structures(max_atoms)), draw(structures(max_atoms))
    top = source.algebra.top
    least = draw(st.lists(st.none() | st.integers(0, top),
                          min_size=target.algebra.atom_count, max_size=target.algebra.atom_count))
    table = list(filter_table(source, target, least))
    if draw(st.booleans()):
        table[draw(st.integers(0, top))] = draw(st.integers(0, target.algebra.top))
    return AlgebraMorphism(source, target, tuple(table))


@settings(max_examples=150)
@given(morphisms(5))
def test_morphism_axioms_equal_the_element_walk(phi):
    for kind in ("PAL", "DVAL"):
        assert check_morphism(phi, kind) == oracle_check_morphism(phi, kind)


@st.composite
def overlap_homomorphisms(draw, max_atoms):
    """A Boolean homomorphism between overlap structures with the improper
    ideal, target atom j going to source atom pick[j]; half the time one entry
    is then changed, which the morphism gate mostly refuses."""
    n, m = draw(st.integers(1, max_atoms)), draw(st.integers(1, max_atoms))
    pick = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    table = list(homomorphism_table(n, pick))
    if draw(st.booleans()):
        table[draw(st.integers(0, (1 << n) - 1))] = draw(st.integers(0, (1 << m) - 1))
    return AlgebraMorphism(wide_overlap(n), wide_overlap(m), tuple(table))


@settings(max_examples=40)
@given(overlap_homomorphisms(5))
def test_closed_embedding_equals_the_element_walk(phi):
    assert outcome(check_closed_embedding, phi) == outcome(oracle_check_closed_embedding, phi)


# Endpoints on a half-integer grid, so that two drawn regions often share
# endpoints and touch.
_ENDPOINTS = st.integers(-12, 12).map(lambda k: Fraction(k, 2))


@st.composite
def regions(draw, max_intervals=8):
    """A normal region of up to max_intervals intervals, possibly with rays."""
    ends = sorted(draw(st.sets(_ENDPOINTS, max_size=2 * max_intervals)))
    ends = ends[:len(ends) // 2 * 2]
    if ends and draw(st.booleans()):
        ends[0] = NEG_INF
    if ends and draw(st.booleans()):
        ends[-1] = POS_INF
    return RationalRegion(tuple(zip(ends[::2], ends[1::2])))


@settings(max_examples=300)
@given(regions(), regions())
def test_region_sweeps_equal_the_pairwise_scans(f, g):
    # In the second pair a bounded part of f sits well inside the outer
    # region, so le, well_inside and interpolate also run to the last interval.
    inner = f & RationalRegion.of((Fraction(-5), Fraction(5)))
    for left, right in ((f, g), (inner, g | expand(f, Fraction(1, 4)))):
        for name, fast, oracle in REGION_SWEEPS:
            assert outcome(fast, left, right) == outcome(oracle, left, right), name


@settings(max_examples=100)
@given(st.lists(st.tuples(_ENDPOINTS, _ENDPOINTS).filter(lambda p: p[0] < p[1]), max_size=10))
def test_normal_form_of_unsorted_pairs_equals_the_full_sort(pairs):
    assert RationalRegion.of(*pairs) == oracle_merged(pairs)


_KEYS = ("algebra", "atoms", "contact", "bounded", "points", "min_nbhd", "source",
         "target", "assign", "table", "intervals", "p", "q", "a", "")
_SCALARS = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=True)
            | st.sampled_from(("p", "q", "a", "b", "1/2", "-inf", "inf", "1e400", "0/0", ""))
            | st.text(max_size=6))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=4),
    max_leaves=12)
_DOCUMENTS = [json.loads(p.read_text())
              for p in sorted((pathlib.Path(__file__).parent / "data").glob("*.json"))]


@st.composite
def mutated_documents(draw):
    """A document from tests/data with one subtree replaced by arbitrary JSON."""
    doc = copy.deepcopy(draw(st.sampled_from(_DOCUMENTS)))
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(keys))
        node = parent[key]
    if parent is None:
        return draw(_JSON)
    parent[key] = draw(_JSON)
    return doc


def only_structure_errors(parse, text):
    try:
        parse(text)
    except StructureError:
        pass


@settings(max_examples=200)
@given(st.one_of(st.text(max_size=40), _JSON.map(json.dumps),
                 mutated_documents().map(json.dumps)))
def test_json_documents_raise_only_structure_errors(text):
    only_structure_errors(jsonio.loads, text)


_REGION_TOKENS = ("[", "]", ",", " u ", "u", "inf", "-inf", "+", "-", "/", ".", "e",
                  "E", "_", "0", "1", "7", "99", "empty", " ", "(", "nan", "infinity")


@settings(max_examples=200)
@given(st.one_of(st.text(max_size=30),
                 st.lists(st.sampled_from(_REGION_TOKENS), max_size=14).map("".join)))
def test_region_text_raises_only_structure_errors(text):
    only_structure_errors(RationalRegion.from_text, text)
