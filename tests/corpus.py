"""Deterministic test corpora: relations, structures, spaces, maps, morphisms.

Everything here is either exhaustive over a small size or driven by an
explicit seed, so suites built on these generators produce byte-identical
reports run after run.
"""

from __future__ import annotations

import random
from itertools import product

from contact_duality.boolalg import FiniteBooleanAlgebra
from contact_duality.contact import ContactRelation, overlap_contact
from contact_duality.duality import AlgebraMorphism, dual_of_map, regularize
from contact_duality.errors import StructureError
from contact_duality.localcontact import BoundedIdeal, LocalContactAlgebra, check_lca_axioms
from contact_duality.spaces import FiniteSpace, SpaceMap, discrete_space

CORPUS_SEED = 1729

_NAMES = "pqrstuvwxyz"
_POINTS = "abcdefgh"
_SAMPLED_POINTS = _POINTS + "ijklmnop"  # samples reach the 16-point regular closed cap


def _first(letters: str, n: int) -> tuple[str, ...]:
    """The first n letters as names; refuses n beyond the letters at hand."""
    if not 0 <= n <= len(letters):
        raise StructureError(f"corpus names cover 0 to {len(letters)} items, not {n}")
    return tuple(letters[:n])


def small_algebra(n: int) -> FiniteBooleanAlgebra:
    return FiniteBooleanAlgebra(_first(_NAMES, n))


def atom_relations(n: int) -> list[ContactRelation]:
    """All reflexive symmetric atom relations on n atoms, canonical order."""
    algebra = small_algebra(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for choice in range(1 << len(pairs)):
        rows = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if choice >> k & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        out.append(ContactRelation(algebra, tuple(rows)))
    return out


def random_atom_relation(n: int, rng: random.Random) -> ContactRelation:
    algebra = small_algebra(n)
    rows = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return ContactRelation(algebra, tuple(rows))


def ideal_structures(n: int) -> list[LocalContactAlgebra]:
    """Every atom relation paired with every principal ideal generator."""
    out = []
    for relation in atom_relations(n):
        for gen in range(relation.algebra.size):
            out.append(LocalContactAlgebra(relation, BoundedIdeal(relation.algebra, gen)))
    return out


def validated_structures(n: int) -> list[LocalContactAlgebra]:
    """The sub-corpus passing the boundedness axioms."""
    return [s for s in ideal_structures(n) if check_lca_axioms(s).ok]


def overlap_structures_with_proper_ideal(n: int) -> list[LocalContactAlgebra]:
    """Overlap contact with every proper nonzero generator.

    These fail the boundedness axioms (no finite structure with a proper
    ideal passes them) but still have a well-behaved cluster at infinity,
    which makes them the supplementary corpus for the unbounded-side
    machinery.
    """
    algebra = small_algebra(n)
    relation = overlap_contact(algebra)
    return [
        LocalContactAlgebra(relation, BoundedIdeal(algebra, gen))
        for gen in range(1, algebra.top)
    ]


def discrete(n: int) -> FiniteSpace:
    return discrete_space(_first(_POINTS, n))


def all_preorder_spaces(n: int) -> list[FiniteSpace]:
    """All labeled finite spaces on n points, via reflexive transitive relations."""
    names = _first(_POINTS, n)
    cells = [(x, y) for x in range(n) for y in range(n) if x != y]
    spaces = []
    for choice in range(1 << len(cells)):
        rel = [1 << x for x in range(n)]
        for k, (x, y) in enumerate(cells):
            if choice >> k & 1:
                rel[x] |= 1 << y
        transitive = True
        for x in range(n):
            for y in range(n):
                if rel[x] >> y & 1 and rel[x] | rel[y] != rel[x]:
                    transitive = False
                    break
            if not transitive:
                break
        if transitive:
            spaces.append(FiniteSpace(names, tuple(rel)))
    return spaces


def sampled_preorder_spaces(n: int, count: int, seed: int = CORPUS_SEED) -> list[FiniteSpace]:
    """Seeded sample of labeled spaces, via transitive closures of random relations."""
    rng = random.Random(seed)
    names = _first(_SAMPLED_POINTS, n)
    seen = set()
    spaces = []
    while len(spaces) < count:
        rel = [1 << x for x in range(n)]
        for x in range(n):
            for y in range(n):
                if x != y and rng.random() < 0.3:
                    rel[x] |= 1 << y
        changed = True
        while changed:
            changed = False
            for x in range(n):
                acc = rel[x]
                for y in range(n):
                    if rel[x] >> y & 1:
                        acc |= rel[y]
                if acc != rel[x]:
                    rel[x] = acc
                    changed = True
        key = tuple(rel)
        if key in seen:
            continue
        seen.add(key)
        spaces.append(FiniteSpace(names, key))
    return spaces


def all_maps(source: FiniteSpace, target: FiniteSpace) -> list[SpaceMap]:
    return [
        SpaceMap(source, target, assignment)
        for assignment in product(range(target.point_count), repeat=source.point_count)
    ]


def constant_to_one(source: LocalContactAlgebra, target: LocalContactAlgebra) -> AlgebraMorphism:
    """Zero goes to zero, everything else to the top of the target."""
    table = tuple(0 if a == 0 else target.algebra.top for a in source.algebra.elements())
    return AlgebraMorphism(source, target, table)


def dual_morphism_corpus(max_points: int = 3) -> list[AlgebraMorphism]:
    """Duals of every map between discrete spaces of at most max_points points."""
    out = []
    spaces = [discrete(n) for n in range(1, max_points + 1)]
    for src in spaces:
        for tgt in spaces:
            for f in all_maps(src, tgt):
                out.append(dual_of_map(f))
    return out


def repaired_random_morphisms(structure: LocalContactAlgebra, count: int,
                              seed: int = CORPUS_SEED) -> list[AlgebraMorphism]:
    """Random endotable candidates nudged toward the supremum axiom.

    Tables are generated atomwise (each atom to a random element, extended by
    joins) and then regularized.  Nothing guarantees the result is a lawful
    morphism; callers filter through the axiom checker, and the rejects are
    useful negative cases.
    """
    rng = random.Random(seed)
    alg = structure.algebra
    out = []
    for _ in range(count):
        atom_values = [rng.randrange(alg.size) for _ in range(alg.atom_count)]
        table = []
        for a in alg.elements():
            value = 0
            for i in range(alg.atom_count):
                if a >> i & 1:
                    value |= atom_values[i]
            table.append(value)
        out.append(regularize(AlgebraMorphism(structure, structure, tuple(table))))
    return out
