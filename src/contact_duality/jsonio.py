"""Parsing and printing of the documented JSON formats, plus DOT export.

Every structure has one canonical JSON form; printing then parsing is the
identity on all of them, and output key order is fixed so identical inputs
produce byte-identical documents.

Elements are serialized as atom-name arrays in atom order.  Where JSON needs
an element as an object key (morphism tables), the names are comma-joined,
with the empty string standing for the bottom element.
"""

from __future__ import annotations

import json

from .boolalg import FiniteBooleanAlgebra
from .clusters import Cluster
from .contact import ContactRelation
from .duality import AlgebraMorphism, DualSpace
from .errors import StructureError
from .localcontact import BoundedIdeal, LocalContactAlgebra
from .regions import RationalRegion, endpoint_text, parse_endpoint
from .spaces import FiniteSpace, SpaceMap


def _expect(obj, key, kind, where):
    if not isinstance(obj, dict) or key not in obj:
        raise StructureError(f"{where}: expected an object with a {key!r} field")
    value = obj[key]
    if not isinstance(value, kind):
        raise StructureError(f"{where}: field {key!r} has the wrong shape")
    return value


# algebras and elements ----------------------------------------------------

def algebra_to_json(algebra: FiniteBooleanAlgebra) -> dict:
    return {"atoms": list(algebra.atom_names)}

def algebra_from_json(obj) -> FiniteBooleanAlgebra:
    atoms = _expect(obj, "atoms", list, "algebra")
    if not all(isinstance(a, str) for a in atoms):
        raise StructureError("algebra: atom names must be strings")
    return FiniteBooleanAlgebra(tuple(atoms))

def element_to_json(algebra: FiniteBooleanAlgebra, a: int) -> list:
    return list(algebra.names_of(a))

def element_from_json(algebra: FiniteBooleanAlgebra, obj) -> int:
    if not isinstance(obj, list) or not all(isinstance(x, str) for x in obj):
        raise StructureError("element: expected an array of atom names")
    return algebra.element_of_names(obj)

def element_key(algebra: FiniteBooleanAlgebra, a: int) -> str:
    return ",".join(algebra.names_of(a))

def element_from_key(algebra: FiniteBooleanAlgebra, key: str) -> int:
    if key == "":
        return 0
    return algebra.element_of_names(key.split(","))

def _check_key_names(algebra: FiniteBooleanAlgebra, owner: str) -> None:
    """Element keys are one-to-one only over nonempty atom names without commas."""
    for name in algebra.atom_names:
        if name == "" or "," in name:
            raise StructureError(f"{owner} atom name {name!r} cannot appear in a table "
                                 "key; it must be nonempty and contain no comma")


# contact relations ---------------------------------------------------------

def contact_to_json(relation: ContactRelation) -> dict:
    names = relation.algebra.atom_names
    return {
        "algebra": algebra_to_json(relation.algebra),
        "contact": [[names[i], names[j]] for i, j in relation.atom_pairs()],
    }

def contact_from_json(obj) -> ContactRelation:
    algebra = algebra_from_json(_expect(obj, "algebra", dict, "contact"))
    pairs = _expect(obj, "contact", list, "contact")
    rows = [1 << i for i in range(algebra.atom_count)]
    for pair in pairs:
        if not isinstance(pair, list) or len(pair) != 2:
            raise StructureError("contact: each pair must be a two-element array")
        i = algebra.atom_index(pair[0])
        j = algebra.atom_index(pair[1])
        if i == j:
            raise StructureError(
                f"contact: the diagonal is implied, drop the pair [{pair[0]!r}, {pair[1]!r}]")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return ContactRelation(algebra, tuple(rows))


# local contact structures ---------------------------------------------------

def lca_to_json(structure: LocalContactAlgebra) -> dict:
    out = contact_to_json(structure.contact)
    out["bounded"] = element_to_json(structure.algebra, structure.ideal.generator)
    return out

def lca_from_json(obj) -> LocalContactAlgebra:
    relation = contact_from_json(obj)
    generator = element_from_json(relation.algebra, _expect(obj, "bounded", list, "structure"))
    return LocalContactAlgebra(relation, BoundedIdeal(relation.algebra, generator))


# spaces and maps -------------------------------------------------------------

def space_to_json(space: FiniteSpace) -> dict:
    return {
        "points": list(space.points),
        "min_nbhd": {p: list(space.names_of(space.min_nbhd[i]))
                     for i, p in enumerate(space.points)},
    }

def space_from_json(obj) -> FiniteSpace:
    points = _expect(obj, "points", list, "space")
    nbhd_obj = _expect(obj, "min_nbhd", dict, "space")
    if not all(isinstance(p, str) for p in points):
        raise StructureError("space: point names must be strings")
    space_points = tuple(points)
    position = {p: i for i, p in enumerate(space_points)}
    masks = []
    for p in space_points:
        if p not in nbhd_obj:
            raise StructureError(f"space: point {p!r} has no minimal neighbourhood")
        names = nbhd_obj[p]
        if not isinstance(names, list):
            raise StructureError("space: neighbourhoods must be arrays of point names")
        mask = 0
        for name in names:
            try:
                mask |= 1 << position[name]
            except (KeyError, TypeError) as exc:
                raise StructureError(f"space: unknown point {name!r} in a neighbourhood") from exc
        masks.append(mask)
    extra = set(nbhd_obj) - set(space_points)
    if extra:
        raise StructureError(f"space: neighbourhoods given for unknown points {sorted(extra)}")
    return FiniteSpace(space_points, tuple(masks))

def map_to_json(f: SpaceMap) -> dict:
    return {
        "source": space_to_json(f.source),
        "target": space_to_json(f.target),
        "assign": {p: f.target.points[f.assignment[i]] for i, p in enumerate(f.source.points)},
    }

def map_from_json(obj) -> SpaceMap:
    source = space_from_json(_expect(obj, "source", dict, "map"))
    target = space_from_json(_expect(obj, "target", dict, "map"))
    assign = _expect(obj, "assign", dict, "map")
    table = []
    for p in source.points:
        if p not in assign:
            raise StructureError(f"map: point {p!r} is not assigned")
        table.append(target.point_index(assign[p]))
    extra = set(assign) - set(source.points)
    if extra:
        raise StructureError(f"map: assignments given for unknown points {sorted(extra)}")
    return SpaceMap(source, target, tuple(table))


# morphisms -------------------------------------------------------------------

def morphism_to_json(phi: AlgebraMorphism) -> dict:
    src = phi.source.algebra
    tgt = phi.target.algebra
    _check_key_names(src, "morphism: source")
    return {
        "source": lca_to_json(phi.source),
        "target": lca_to_json(phi.target),
        "table": {element_key(src, a): element_to_json(tgt, phi.table[a])
                  for a in src.elements()},
    }

def morphism_from_json(obj) -> AlgebraMorphism:
    source = lca_from_json(_expect(obj, "source", dict, "morphism"))
    target = lca_from_json(_expect(obj, "target", dict, "morphism"))
    table_obj = _expect(obj, "table", dict, "morphism")
    images = {}
    for key, value in table_obj.items():
        a = element_from_key(source.algebra, key)
        if a in images:
            raise StructureError(f"morphism: element {key!r} assigned twice")
        images[a] = element_from_json(target.algebra, value)
    # the least missing element, by walking up over the given keys: a short
    # table for a wide algebra costs no allocation of the algebra's size
    missing = 0
    while missing in images:
        missing += 1
    if missing < source.algebra.size:
        name = element_key(source.algebra, missing) or "<bottom>"
        raise StructureError(f"morphism: table misses element {name!r}")
    return AlgebraMorphism(source, target, tuple(images[a] for a in source.algebra.elements()))


# regions ---------------------------------------------------------------------

def region_to_json(region: RationalRegion) -> dict:
    return {"intervals": [[endpoint_text(lo), endpoint_text(hi)]
                          for lo, hi in region.intervals]}

def _endpoint_from_json(value):
    # a number with a fraction or an exponent is read from its literal text,
    # so that it stays exact and parse_endpoint's digit cap applies to it
    return parse_endpoint(value.text if isinstance(value, _JsonNumber) else str(value))

def region_from_json(obj) -> RationalRegion:
    intervals = _expect(obj, "intervals", list, "region")
    pairs = []
    for pair in intervals:
        if not isinstance(pair, list) or len(pair) != 2:
            raise StructureError("region: each interval must be a two-element array")
        pairs.append((_endpoint_from_json(pair[0]), _endpoint_from_json(pair[1])))
    return RationalRegion.of(*pairs)


# derived listings --------------------------------------------------------------

def clusters_to_json(clusters: list[Cluster], structure: LocalContactAlgebra,
                     infinity: Cluster | None) -> dict:
    return {
        "clusters": [{"support": list(c.support_names()),
                      "bounded": bool(c.support & structure.ideal.generator)}
                     for c in clusters],
        "sigma_infinity": {"support": list(infinity.support_names())} if infinity else None,
    }

def dual_space_to_json(dual: DualSpace) -> dict:
    alg = dual.source.algebra
    _check_key_names(alg, "dual space:")
    return {
        "space": space_to_json(dual.space),
        "case": dual.case,
        "regions": {element_key(alg, a) or "": [dual.space.points[i]
                                                 for i in range(dual.space.point_count)
                                                 if dual.regions[a] >> i & 1]
                    for a in alg.elements()},
        "sigma_infinity": ({"support": list(dual.infinity.support_names())}
                           if dual.infinity else None),
    }


# top level --------------------------------------------------------------------

class _JsonNumber(float):
    """A JSON number with a fraction or an exponent that keeps its literal text.

    Its value is the float json would give, so every reader other than the
    region endpoints sees and reports that float.
    """

    __slots__ = ("text",)

    def __new__(cls, text: str):
        number = super().__new__(cls, text)
        number.text = text
        return number


_DECODER = json.JSONDecoder(parse_float=_JsonNumber)

# each document kind by the first of these fields that its top-level object has
_KINDS = (
    ("table", "morphism", morphism_from_json),
    ("assign", "map", map_from_json),
    ("min_nbhd", "space", space_from_json),
    ("bounded", "structure", lca_from_json),
    ("contact", "contact", contact_from_json),
    ("intervals", "region", region_from_json),
    ("atoms", "algebra", algebra_from_json),
)


def loads(text: str, where: str = "<input>"):
    try:
        if text.startswith("\ufeff"):  # the one check json.loads makes before decoding
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        obj = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise StructureError(f"{where}: line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise StructureError(f"{where}: arrays or objects nested too deeply") from exc
    except ValueError as exc:  # an integer beyond the int-to-string digit limit
        raise StructureError(f"{where}: a number has too many digits") from exc
    try:
        if not isinstance(obj, dict):
            raise StructureError("top level must be a JSON object")
        for marker, kind, reader in _KINDS:
            if marker in obj:
                return kind, reader(obj)
        raise StructureError("unrecognized document: no known discriminating field")
    except StructureError as exc:
        raise StructureError(f"{where}: {exc}") from exc


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"


# DOT export -----------------------------------------------------------------------

def contact_to_dot(relation: ContactRelation) -> str:
    names = relation.algebra.atom_names
    lines = ["graph contact {"]
    for name in names:
        lines.append(f'  "{name}";')
    for i, j in relation.atom_pairs():
        lines.append(f'  "{names[i]}" -- "{names[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def space_to_dot(space: FiniteSpace) -> str:
    """Specialization preorder: an edge x -> y when x lies in the closure of y."""
    lines = ["digraph specialization {"]
    for p in space.points:
        lines.append(f'  "{p}";')
    for x in range(space.point_count):
        for y in range(space.point_count):
            if x != y and space.min_nbhd[x] >> y & 1:
                lines.append(f'  "{space.points[x]}" -> "{space.points[y]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
