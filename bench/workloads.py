"""Seeded inputs, timed calls and expectations for the four workloads.

Every workload is an endless stream of items.  The item classes (sizes,
shapes, checks, verbs) follow a fixed interleaved schedule, so any prefix of
the stream holds each class in proportion to its weight and a run of a given
length sees the same mix whatever the seed; the seed sets the contents (the
order of maps, random relations and ideals, names, regions).  Item `i` is
generated from its own `random.Random(f"{seed}:{workload}:{i}")`, so the
inputs do not depend on how far a run got.

Expectations are derived by the benchmark alone (closed forms, its own
closure and connectivity code, exit-code rules), never by calling the code
under test.  `check` returns whether the result matched and the canonical
bytes that go into the workload's digest.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import contact_duality as cd
import contact_duality.cli

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"


def interleave(weights: dict) -> list:
    """Order of sum(weights) keys in which every prefix is proportional.

    At step t the key furthest behind its share w*t/W is taken; ties go to
    the earlier key.
    """
    total = sum(weights.values())
    taken = dict.fromkeys(weights, 0)
    order = []
    for t in range(1, total + 1):
        key = max(weights, key=lambda k: weights[k] * t / total - taken[k])
        taken[key] += 1
        order.append(key)
    return order


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _json_bytes(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")


# atom relations ----------------------------------------------------------------

SHAPES = ("path", "cycle", "star", "overlap", "universal", "random")


def shape_rows(shape: str, n: int, rng: random.Random) -> tuple[int, ...]:
    rows = [1 << i for i in range(n)]

    def link(i, j):
        rows[i] |= 1 << j
        rows[j] |= 1 << i

    if shape in ("path", "cycle"):
        for i in range(n - 1):
            link(i, i + 1)
        if shape == "cycle" and n > 2:
            link(n - 1, 0)
    elif shape == "star":
        for i in range(1, n):
            link(0, i)
    elif shape == "universal":
        for i, j in itertools.combinations(range(n), 2):
            link(i, j)
    elif shape == "random":
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < 0.5:
                link(i, j)
    elif shape != "overlap":
        raise ValueError(f"unknown shape {shape!r}")
    return tuple(rows)


def is_overlap(rows) -> bool:
    return all(row == 1 << i for i, row in enumerate(rows))


def is_connected_graph(rows) -> bool:
    seen, frontier = 1, 1
    while frontier:
        reach = 0
        for i in _bits(frontier):
            reach |= rows[i]
        frontier = reach & ~seen
        seen |= reach
    return seen == (1 << len(rows)) - 1


def expected_axiom_ok(check: str, rows, generator: int) -> bool:
    """Closed forms for atom relations on finite powerset algebras."""
    n = len(rows)
    top = (1 << n) - 1
    if check == "CA":
        return True
    if check in ("NCA", "LL"):
        return is_overlap(rows)
    if check == "CON":
        return is_connected_graph(rows)
    if check == "BC":
        return is_overlap(rows) and generator == top
    if check == "cert":
        return is_overlap(rows) and bin(top ^ generator).count("1") <= 1
    raise ValueError(f"unknown check {check!r}")


def relation(rows, names) -> cd.ContactRelation:
    return cd.ContactRelation(cd.FiniteBooleanAlgebra(tuple(names)), tuple(rows))


# finite spaces -------------------------------------------------------------------


def preorder_nbhds(rng: random.Random, n: int, k: int, dense: bool) -> list[int]:
    """Minimal neighbourhoods of a seeded n-point space with exactly k rc atoms.

    The space is built from k minimal open "cores" (single points, or
    indiscrete pairs) and n-k further points, each of whose neighbourhood is
    itself plus the neighbourhoods of earlier points: one earlier point when
    sparse, a random half of them when dense.  The minimal open sets are
    exactly the cores, and the closures of distinct minimal open sets are the
    distinct atoms of the regular closed algebra, so it has k atoms.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    pairs = rng.randint(0, min(k, (n - k) // 2))
    nbhd = []
    for core in range(k):
        if core < pairs:
            both = 0b11 << len(nbhd)
            nbhd.extend([both, both])
        else:
            nbhd.append(1 << len(nbhd))
    while len(nbhd) < n:
        earlier = range(len(nbhd))
        if dense:
            parents = [y for y in earlier if rng.random() < 0.5] or [rng.choice(earlier)]
        else:
            parents = [rng.choice(earlier)]
        mask = 1 << len(nbhd)
        for y in parents:
            mask |= nbhd[y]
        nbhd.append(mask)
    return nbhd


def relabel(nbhd: list[int], rng: random.Random) -> list[int]:
    perm = rng.sample(range(len(nbhd)), len(nbhd))
    out = [0] * len(nbhd)
    for x, mask in enumerate(nbhd):
        out[perm[x]] = sum(1 << perm[y] for y in _bits(mask))
    return out


def closure_mask(nbhd, m: int) -> int:
    return sum(1 << x for x, u in enumerate(nbhd) if u & m)


def is_open_mask(nbhd, m: int) -> bool:
    return all(nbhd[x] | m == m for x in _bits(m))


def space_facts(nbhd) -> dict:
    """Connectedness, extremal disconnectedness and Hausdorffness, directly."""
    rows = [0] * len(nbhd)
    for x, u in enumerate(nbhd):
        for y in _bits(u):
            rows[x] |= 1 << y
            rows[y] |= 1 << x
    return {
        "connected": is_connected_graph(rows),
        "extremally_disconnected": all(is_open_mask(nbhd, closure_mask(nbhd, u)) for u in nbhd),
        "hausdorff": all(u == 1 << x for x, u in enumerate(nbhd)),
    }


def space(nbhd, names) -> cd.FiniteSpace:
    return cd.FiniteSpace(tuple(names), tuple(nbhd))


# workloads ---------------------------------------------------------------------


class Workload:
    """Shared shape: an endless item stream, one timed call, one check."""

    name = ""
    deadline_s = 30.0       # per item; a miss counts as a failure
    probe_deadline_s = 5.0  # per probe item
    digest_items = 0        # items hashed into the recorded digest
    pool_items = 0          # items generated during set-up

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def items(self):
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, result) -> tuple[bool, bytes]:
        raise NotImplementedError

    def probe_items(self) -> list:
        """Items known to fail today, run after the timed pass and reported apart."""
        return []

    def rng(self, index, tag=None) -> random.Random:
        return random.Random(f"{self.seed}:{tag or self.name}:{index}")


class Roundtrip(Workload):
    """Maps between discrete spaces of 1 to 4 points, both round trips.

    The stream runs through the 494 maps of acceptance criterion 4 (988
    round trips), with the 256 maps from 4 to 4 points at half weight: each
    pass holds every other one of them, and the next pass the rest.  At full
    weight they would be 51.8% of the items, at about 1.6 times the cost of
    any other map, so the median item would sit at the fast edge of that
    class and jump with the host's speed.  At half weight they are 35%, and
    the median falls among the 3-to-4 and 4-to-3 maps, whose costs are
    within 10% of each other.  Sizes are interleaved in proportion, the
    seed orders the maps of one size pair, and each pass renames the points
    so that every item is a new value.
    """

    name = "roundtrip"
    digest_items = 40
    pool_items = 366
    sizes = (1, 2, 3, 4)
    halved = (4, 4)

    def items(self):
        maps = {(m, n): list(itertools.product(range(n), repeat=m))
                for m in self.sizes for n in self.sizes}
        counts = {pair: len(ms) // (2 if pair == self.halved else 1) for pair, ms in maps.items()}
        order = interleave(counts)
        for p in itertools.count():
            rng = self.rng(p)
            suffix = str(p) if p else ""
            spaces = {k: cd.discrete_space(tuple(c + suffix for c in "abcd"[:k]))
                      for k in self.sizes}
            queues = {}
            for pair, ms in maps.items():
                if pair == self.halved:
                    ms = ms[p % 2::2]
                queues[pair] = rng.sample(ms, len(ms))
            for m, n in order:
                yield cd.SpaceMap(spaces[m], spaces[n], queues[(m, n)].pop())

    def run(self, f):
        return cd.roundtrip_report(f), cd.roundtrip_report(cd.dual_of_map(f))

    def check(self, f, result):
        return all(r.ok for r in result), _json_bytes([r.to_json() for r in result])


@dataclass(frozen=True)
class AxiomItem:
    check: str
    shape: str
    rows: tuple
    generator: int
    relation: object
    structure: object


class Axioms(Workload):
    """One axiom check on one seeded relation and ideal generator.

    Sizes 3 to 6 atoms in weights 72:48:36:1; for each size the check
    cycles fastest and the shape advances once per round of checks, so every
    (check, shape) pair comes up once in 36 items of that size.  The weights
    keep the slow 6-atom checks (a sixth of the time) well under ten in a
    run, so that the tail percentile falls inside the 5-atom certificates
    instead of on the edge between two sizes.
    """

    name = "axioms"
    digest_items = 120
    pool_items = 600
    checks = ("CA", "NCA", "CON", "LL", "BC", "cert")
    size_weights = {3: 72, 4: 48, 5: 36, 6: 1}
    probe_sizes = (8, 9, 10)
    probe_count = 2
    probe_deadline_s = 1.0

    def items(self):
        order = interleave(self.size_weights)
        rounds = dict.fromkeys(self.size_weights, 0)
        for index in itertools.count():
            n = order[index % len(order)]
            r = rounds[n]
            rounds[n] += 1
            check = self.checks[r % len(self.checks)]
            shape = SHAPES[(r + r // len(self.checks)) % len(SHAPES)]
            yield self.make_item(self.rng(index), index, n, check, shape)

    def make_item(self, rng, index, n, check, shape) -> AxiomItem:
        rows = shape_rows(shape, n, rng)
        top = (1 << n) - 1
        generator = top if rng.random() < 0.5 else rng.randrange(top)
        rel = relation(rows, (f"{chr(97 + k)}{index}" for k in range(n)))
        structure = cd.LocalContactAlgebra(rel, cd.BoundedIdeal(rel.algebra, generator))
        return AxiomItem(check, shape, rows, generator, rel, structure)

    def run(self, item):
        if item.check == "BC":
            return cd.check_lca_axioms(item.structure)
        if item.check == "cert":
            return cd.alexandroff_certificate(item.structure)
        return cd.check_axioms(item.relation, item.check)

    def check(self, item, report):
        expected = expected_axiom_ok(item.check, item.rows, item.generator)
        return report.ok == expected, _json_bytes(report.to_json())

    def probe_items(self):
        """Checks at 8 to 10 atoms, under the 24-atom cap, that hang today."""
        out = []
        for j in range(self.probe_count):
            rng = self.rng(j, "axioms-probe")
            n = rng.choice(self.probe_sizes)
            check = rng.choice(("CA", "NCA", "LL"))
            out.append(self.make_item(rng, f"x{j}", n, check, rng.choice(SHAPES)))
        return out


@dataclass(frozen=True)
class LiftItem:
    kind: str
    k: int
    space: object
    dense: int
    facts: dict


class Lift(Workload):
    """The regular closed lift of seeded preorder spaces of 6 to 14 points.

    Classes are (kind, points, rc atoms); `sum` is a disjoint sum of two
    sparse spaces, and at 8 atoms its carrier of 256 sets gets the full
    table verification inside `rc_algebra`.  The weights put the median
    item inside one class (10-point dense), and keep the 8-atom sums (over a
    third of the time) under ten in a run, so that the tail percentile falls
    inside the 14-point spaces instead of on the edge between two classes.
    """

    name = "lift"
    digest_items = 24
    pool_items = 94
    weights = {
        ("dense", 6, 1): 8, ("dense", 10, 2): 12, ("dense", 14, 1): 6,
        ("sparse", 6, 3): 8, ("sparse", 10, 4): 4, ("sparse", 14, 5): 4,
        ("sum", 10, 6): 4, ("sum", 10, 8): 1,
    }

    def items(self):
        order = interleave(self.weights)
        for index in itertools.count():
            kind, n, k = order[index % len(order)]
            yield self.make_item(self.rng(index), index, kind, n, k)

    def make_item(self, rng, index, kind, n, k) -> LiftItem:
        if kind == "sum":
            n1, k1 = n // 2, k // 2
            left = preorder_nbhds(rng, n1, k1, dense=False)
            right = preorder_nbhds(rng, n - n1, k - k1, dense=False)
            nbhd = left + [mask << n1 for mask in right]
        else:
            nbhd = preorder_nbhds(rng, n, k, dense=kind == "dense")
        nbhd = relabel(nbhd, rng)
        # Dense: keeps every point of the minimal open sets.  Dropping exactly
        # two other points keeps the subspace size, and so its 2^n scan, fixed.
        cores = 0
        for u in set(nbhd):
            if not any(v != u and v | u == u for v in nbhd):
                cores |= u
        others = [x for x in range(n) if not cores >> x & 1]
        dense = (1 << n) - 1
        for x in rng.sample(others, min(2, len(others))):
            dense ^= 1 << x
        names = (f"p{x}_{index}" for x in range(n))
        return LiftItem(kind, k, space(nbhd, names), dense, space_facts(nbhd))

    def run(self, item):
        X = item.space
        rc = cd.rc_algebra(X)
        ro = cd.ro_algebra(X)
        predicates = cd.space_predicates(X)
        dense = cd.dense_subspace_isomorphism(X, item.dense)
        con = cd.check_axioms(rc.contact, "CON")
        clusters = cd.enumerate_clusters(rc.contact)
        return rc, ro, predicates, dense, con, clusters

    def check(self, item, result):
        rc, ro, predicates, dense, con, clusters = result
        facts = item.facts
        ok = (
            rc.algebra.atom_count == item.k
            and predicates.connected == facts["connected"] == con.ok
            and predicates.extremally_disconnected == facts["extremally_disconnected"]
            == is_overlap(rc.contact.rows)
            and predicates.hausdorff == facts["hausdorff"]
            and ro.certificate.ok
            and dense.certificate.ok
        )
        blob = _json_bytes({
            "atoms": list(rc.algebra.atom_names),
            "rows": list(rc.contact.rows),
            "ro": ro.certificate.to_json(),
            "predicates": [predicates.connected, predicates.hausdorff,
                           predicates.extremally_disconnected, predicates.compact],
            "dense": dense.certificate.to_json(),
            "con": con.to_json(),
            "clusters": [c.support for c in clusters],
        })
        return ok, blob


# command line ------------------------------------------------------------------


@dataclass(frozen=True)
class CliItem:
    argv: tuple
    expected_exit: int


# (argv relative to tests/data, expected exit code): exit codes follow the CLI
# contract (0 pass, 1 violations or refusal, 2 bad input) applied to what the
# files hold.
DATA_ITEMS = (
    (("validate", "rho_s_2.json"), 0),
    (("validate", "rho_l_2.json"), 1),
    (("validate", "path_pq_r.json"), 1),
    (("validate", "overlap_improper_2.json"), 0),
    (("validate", "overlap_gen_p.json"), 1),
    (("validate", "identity_morphism_2.json"), 0),
    (("validate", "swap_2.json"), 0),
    (("validate", "collapse_2_to_1.json"), 0),
    (("validate", "sierpinski.json", "--format", "dot"), 0),
    (("validate", "discrete3.json"), 0),
    (("validate", "region_ray.json"), 0),
    (("clusters", "path_pq_r.json"), 0),
    (("clusters", "overlap_gen_p.json", "--format", "json"), 0),
    (("dualize", "overlap_improper_2.json", "--format", "json"), 0),
    (("dualize", "overlap_gen_p.json"), 1),
    (("lift", "discrete3.json"), 0),
    (("lift", "sierpinski.json", "--format", "json"), 0),
    (("dual-map", "swap_2.json", "--format", "json"), 0),
    (("dual-map", "collapse_2_to_1.json"), 0),
    (("dual-map", "swap_dual_morphism.json"), 0),
    (("check-morphism", "identity_morphism_2.json"), 0),
    (("check-morphism", "swap_dual_morphism.json", "--kind", "DVAL"), 0),
    (("compose", "swap_dual_morphism.json", "swap_dual_morphism.json"), 0),
    (("roundtrip", "discrete3.json"), 0),
    (("roundtrip", "swap_2.json"), 0),
    (("roundtrip", "sierpinski.json"), 1),
    (("roundtrip", "swap_dual_morphism.json"), 0),
    (("roundtrip", "rho_s_2.json"), 0),
)

MALFORMED = (
    ("file", '{"algebra": {"atoms": ["p", "q"]}, "contact": [["p",'),
    ("file", '{"algebra": {"atoms": ["p", "q"]}, "contact": [["p", "z"]]}'),
    ("file", '{"algebra": {"atoms": ["p", "p"]}, "contact": []}'),
    ("file", '{"algebra": {"atoms": ["p", "q"]}, "contact": [["q", "q"]]}'),
    ("file", '{"points": ["a", "b"], "min_nbhd": {"a": ["b"], "b": ["b"]}}'),
    ("file", '{"points": ["a", "b", "c"], "min_nbhd": {"a": ["a", "b"], "b": ["b", "c"], "c": ["c"]}}'),
    ("file", '{"source": {"algebra": {"atoms": ["p"]}, "contact": [], "bounded": ["p"]}, '
             '"target": {"algebra": {"atoms": ["p"]}, "contact": [], "bounded": ["p"]}, '
             '"table": {"": []}}'),
    ("file", "[1, 2]"),
    ("file", '{"atoms": [true]}'),
    ("argv", ("region", "union", "[1,0]", "[0,1]")),
    ("argv", ("region", "meet", "[a,1]", "[0,1]")),
    ("argv", ("region", "union", "[0,1]")),
    ("argv", ("frobnicate",)),
    ("argv", ("validate",)),
    ("argv", ("validate", "missing.json")),
)

# Hostile inputs that raise a traceback today instead of exiting 2.
HOSTILE = (
    ("region", "affine", "x", "0", "[0,1]"),
    ("region", "affine", "1/0", "0", "[0,1]"),
)


def _region_text(rng, rays=True) -> str:
    lo = Fraction(rng.randrange(-12, 6), rng.randrange(1, 4))
    parts = []
    for _ in range(rng.randrange(1, 3)):
        hi = lo + Fraction(rng.randrange(1, 8), rng.randrange(1, 4))
        parts.append([lo, hi])
        lo = hi + Fraction(rng.randrange(1, 6), rng.randrange(1, 3))
    if rays and rng.random() < 0.3:
        if rng.random() < 0.5:
            parts[0][0] = "-inf"
        else:
            parts[-1][1] = "inf"
    return " u ".join(f"[{a},{b}]" for a, b in parts)


def _interpolation_pair(rng) -> tuple[str, str]:
    lo = Fraction(rng.randrange(-12, 6), rng.randrange(1, 4))
    inner, outer = [], []
    for _ in range(rng.randrange(1, 3)):
        hi = lo + Fraction(rng.randrange(1, 8), rng.randrange(1, 4))
        margin = Fraction(1, rng.randrange(2, 5))
        inner.append(f"[{lo},{hi}]")
        outer.append(f"[{lo - margin},{hi + margin}]")
        lo = hi + 3
    if rng.random() < 0.3:
        outer[0] = "[-inf," + outer[0].split(",")[1]
    return " u ".join(inner), " u ".join(outer)


def _contact_doc(rows, names, generator=None) -> dict:
    doc = {
        "algebra": {"atoms": list(names)},
        "contact": [[names[i], names[j]] for i, j in itertools.combinations(range(len(rows)), 2)
                    if rows[i] >> j & 1],
    }
    if generator is not None:
        doc["bounded"] = [names[i] for i in _bits(generator)]
    return doc


def _space_doc(nbhd, names) -> dict:
    return {"points": list(names),
            "min_nbhd": {names[x]: [names[y] for y in _bits(u)] for x, u in enumerate(nbhd)}}


def _discrete(names) -> list[int]:
    return [1 << x for x in range(len(names))]


def _map_doc(src_nbhd, src_names, tgt_nbhd, tgt_names, assignment) -> dict:
    return {"source": _space_doc(src_nbhd, src_names),
            "target": _space_doc(tgt_nbhd, tgt_names),
            "assign": {p: tgt_names[v] for p, v in zip(src_names, assignment)}}


def _dual_morphism_doc(src_names, tgt_names, assignment) -> dict:
    """Dual of a map between discrete spaces: a subset of the target goes to its preimage.

    The regular closed algebra of a discrete space has one atom per point,
    named after the point, with overlap contact and every element bounded.
    """
    def structure(names):
        return {"algebra": {"atoms": list(names)}, "contact": [], "bounded": list(names)}

    table = {}
    for mask in range(1 << len(tgt_names)):
        pre = [p for p, v in zip(src_names, assignment) if mask >> v & 1]
        table[",".join(tgt_names[i] for i in _bits(mask))] = pre
    return {"source": structure(tgt_names), "target": structure(src_names), "table": table}


def _is_perfect_from_discrete(tgt_nbhd, assignment) -> bool:
    """A map out of a discrete space is continuous; it is closed iff every
    subset of its image is closed."""
    image = 0
    for v in assignment:
        image |= 1 << v
    return all(closure_mask(tgt_nbhd, 1 << v) == 1 << v for v in _bits(image))


class Cli(Workload):
    """In-process `cli.main(argv)` calls over every verb.

    Cycle 0 starts with the `tests/data` items; every cycle then writes its
    own seeded files (fresh names, so no value repeats) and runs one item of
    each template, plus one malformed input that must exit 2.
    """

    name = "cli"
    digest_items = 300
    pool_items = 180

    def items(self):
        for argv, code in DATA_ITEMS:
            resolved = tuple(str(DATA / a) if a.endswith(".json") else a for a in argv)
            yield CliItem(resolved, code)
        for cycle in itertools.count():
            yield from self.cycle_items(cycle)

    def _write(self, name: str, doc) -> str:
        path = self.workdir / name
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc, indent=1),
                        encoding="utf-8")
        return str(path)

    def cycle_items(self, c: int) -> list[CliItem]:
        # Sizes, shapes and ideals rotate with the cycle number, so every run
        # of a given length holds the same mix; the seed sets the rest.
        rng = self.rng(c)
        letters = "pqrs"

        # Always 4 atoms: validating this relation is the slowest item, and two
        # of them per cycle (5% of items) keep the tail percentile in the upper
        # part of that class, where the host's fast and slow states do not
        # flip it the way they flip a class's middle.
        n = 4
        c_rows = shape_rows(SHAPES[c % len(SHAPES)], n, rng)
        c_names = [f"{letters[i]}{c}" for i in range(n)]
        contact = self._write(f"{c}-contact.json", _contact_doc(c_rows, c_names))
        c_overlap = is_overlap(c_rows)

        n = (2, 3)[c % 2]
        s_rows = shape_rows(SHAPES[c // 2 % len(SHAPES)], n, rng)
        s_top = (1 << n) - 1
        s_gen = s_top if c // 12 % 2 == 0 else rng.randrange(s_top)
        s_names = [f"{letters[i]}{c}" for i in range(n)]
        structure = self._write(f"{c}-structure.json", _contact_doc(s_rows, s_names, s_gen))
        s_valid = is_overlap(s_rows) and s_gen == s_top

        d_names = [f"a{c}", f"b{c}", f"c{c}"][:(2, 3)[c % 2]]
        discrete = self._write(f"{c}-discrete.json", _space_doc(_discrete(d_names), d_names))

        n = (3, 4, 5)[c % 3]
        p_nbhd = relabel(preorder_nbhds(rng, n, rng.randint(1, n - 1), rng.random() < 0.5), rng)
        p_names = [f"x{i}_{c}" for i in range(n)]
        preorder = self._write(f"{c}-space.json", _space_doc(p_nbhd, p_names))

        # f: X -> Y and g: Y -> Z between discrete spaces
        X, Y, Z = ([f"{t}{i}_{c}" for i in range(c // 3 ** k % 3 + 1)]
                   for k, t in enumerate("uvw"))
        f = [rng.randrange(len(Y)) for _ in X]
        g = [rng.randrange(len(Z)) for _ in Y]
        map_f = self._write(f"{c}-map.json", _map_doc(_discrete(X), X, _discrete(Y), Y, f))
        dual_f = self._write(f"{c}-dual-f.json", _dual_morphism_doc(X, Y, f))
        dual_g = self._write(f"{c}-dual-g.json", _dual_morphism_doc(Y, Z, g))

        # a map from a discrete space into a small non-discrete space
        t_names = [f"t{i}_{c}" for i in range(3)]
        t_nbhd = relabel(preorder_nbhds(rng, 3, rng.choice((1, 2)), False), rng)
        h = [rng.randrange(3) for _ in X]
        map_h = self._write(f"{c}-map-h.json", _map_doc(_discrete(X), X, t_nbhd, t_names, h))

        region_a, region_b = _region_text(rng), _region_text(rng)
        inner, outer = _interpolation_pair(rng)
        slope = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randrange(1, 4))
        offset = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
        fmt = rng.choice(("text", "json"))

        items = [
            (("validate", contact, "--format", fmt), 0 if c_overlap else 1),
            (("validate", contact, "--format", "dot"), 0),
            (("validate", structure), 0 if s_valid else 1),
            (("validate", preorder), 0),
            (("validate", preorder, "--format", "dot"), 0),
            (("validate", map_f), 0),
            (("validate", dual_f), 0),
            (("validate", dual_g, "--kind", "DVAL"), 0),
            (("clusters", contact), 0),
            (("clusters", structure, "--format", "json"), 0),
            (("clusters", contact, "--format", "dot"), 0),
            (("dualize", contact, "--format", fmt), 0 if c_overlap else 1),
            (("dualize", structure, "--format", "json"), 0 if s_valid else 1),
            (("dualize", discrete, "--format", "dot"), 2),
            (("lift", preorder, "--format", fmt), 0),
            (("lift", discrete, "--format", "json"), 0),
            (("dual-map", map_f, "--format", "json"), 0),
            (("dual-map", map_h), 0 if _is_perfect_from_discrete(t_nbhd, h) else 1),
            (("dual-map", dual_f), 0),
            (("check-morphism", dual_f), 0),
            (("check-morphism", dual_g, "--kind", "DVAL", "--format", "json"), 0),
            (("compose", dual_f, dual_g, "--format", "json"), 0),
            (("compose", dual_f, dual_g), 0),
            (("roundtrip", map_f), 0),
            (("roundtrip", discrete), 0),
            (("roundtrip", preorder), 1),
            (("roundtrip", contact), 0 if c_overlap else 1),
            (("roundtrip", dual_g, "--format", "json"), 0),
            (("region", "union", region_a, region_b, "--format", fmt), 0),
            (("region", "meet", region_a, region_b), 0),
            (("region", "complement", region_a), 0),
            (("region", "le", region_a, region_b), 0),
            (("region", "contact", region_a, region_b), 0),
            (("region", "waybelow", region_a, region_b, "--format", "json"), 0),
            (("region", "bounded", region_b), 0),
            (("region", "interpolate", inner, outer, "--format", fmt), 0),
            # "--" keeps argparse from reading a negative fraction as an option
            (("region", "affine", "--", str(slope), str(offset), region_a), 0),
            (("region", "laws", "--samples", "40", "--seed", str(rng.randrange(10 ** 6))), 0),
        ]
        kind, bad = MALFORMED[(c + self.seed) % len(MALFORMED)]
        if kind == "file":
            items.append((("validate", self._write(f"{c}-bad.json", bad)), 2))
        elif bad[-1] == "missing.json":
            items.append((bad[:-1] + (str(self.workdir / f"{c}-missing.json"),), 2))
        else:
            items.append((bad, 2))
        return [CliItem(argv, code) for argv, code in items]

    def run(self, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = contact_duality.cli.main(list(item.argv))
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, item, result):
        code, out, err = result
        ok = code == item.expected_exit and "Traceback" not in err
        return ok, f"{code}\n".encode() + out.encode("utf-8")

    def probe_items(self):
        return [CliItem(argv, 2) for argv in HOSTILE]


WORKLOADS = {w.name: w for w in (Roundtrip, Axioms, Lift, Cli)}
