"""Command line surface.

Exit codes are a contract: 0 means every check passed, 1 means violations
were found and reported, 2 means the input could not be parsed or processed.
Reports are printed as text by default and as machine-readable JSON with
--format json; identical inputs and seeds give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
from fractions import Fraction

from . import jsonio
from .boolalg import MAX_ATOMS_ENV
from .clusters import bounded_clusters
from .contact import check_axioms
from .duality import (
    check_morphism,
    compose,
    dual_of_map,
    dual_of_morphism,
    dual_space,
    roundtrip_report,
)
from .errors import ContactDualityError, Refusal, StructureError
from .localcontact import alexandroff_certificate, check_lca_axioms, infinity_cluster, nca_as_lca
from .regions import RationalRegion, affine_preimage, interpolate, parse_rational
from .report import Report
from .spaces import map_predicates, rc_algebra, space_predicates

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_STRUCTURE = 2
REGION_SAMPLE_CAP = 100_000  # region laws --samples; 3.2-3.8 s at the cap on a 2-vCPU VM


def _read(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise StructureError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise StructureError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    return jsonio.loads(text, where=path)


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        sys.stdout.write(jsonio.dumps(payload))
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _report_exit(reports: list[Report]) -> int:
    return EXIT_OK if all(r.ok for r in reports) else EXIT_VIOLATIONS


def cmd_validate(args) -> int:
    kind, value = _read(args.file)
    reports: list[Report] = []
    info_lines: list[str] = []
    if kind == "contact":
        reports.append(check_axioms(value, "CA"))
        reports.append(check_axioms(value, "NCA"))
        con = check_axioms(value, "CON")
        info_lines.append(f"connected: {'yes' if con.ok else 'no'}")
    elif kind == "structure":
        reports.append(check_axioms(value.contact, "CA"))
        reports.append(check_lca_axioms(value))
        cert = alexandroff_certificate(value)
        reports.append(Report("alexandroff extension NCA certificate",
                              cert.violations, cert.notes))
    elif kind == "morphism":
        reports.append(check_morphism(value, args.kind or "PAL"))
    elif kind == "map":
        preds = map_predicates(value)
        for name in ("continuous", "closed", "perfect", "injective", "surjective",
                     "dense_image"):
            info_lines.append(f"{name}: {'yes' if getattr(preds, name) else 'no'}")
    elif kind == "space":
        preds = space_predicates(value)
        for name in ("connected", "hausdorff", "extremally_disconnected", "compact"):
            info_lines.append(f"{name}: {'yes' if getattr(preds, name) else 'no'}")
        if args.format == "dot":
            sys.stdout.write(jsonio.space_to_dot(value))
            return EXIT_OK
    elif kind in ("algebra", "region"):
        info_lines.append(f"{kind}: well formed")
    if args.format == "dot":
        if kind == "contact":
            sys.stdout.write(jsonio.contact_to_dot(value))
            return EXIT_OK
        if kind == "structure":
            sys.stdout.write(jsonio.contact_to_dot(value.contact))
            return EXIT_OK
        raise StructureError(f"dot output is not defined for {kind} inputs")
    payload = {"kind": kind, "reports": [r.to_json() for r in reports], "info": info_lines}
    text = "\n".join([r.render() for r in reports] + info_lines) or f"{kind}: ok"
    _emit(args, payload, text)
    return _report_exit(reports)


def cmd_clusters(args) -> int:
    kind, value = _read(args.file)
    if kind == "contact":
        structure = nca_as_lca(value)
    elif kind == "structure":
        structure = value
    else:
        raise StructureError("clusters needs a contact relation or a local structure")
    if args.format == "dot":
        sys.stdout.write(jsonio.contact_to_dot(structure.contact))
        return EXIT_OK
    found = bounded_clusters(structure)
    infinity = infinity_cluster(structure, check=False)
    payload = jsonio.clusters_to_json(found, structure, infinity)
    lines = ["cluster {" + ",".join(c.support_names()) + "}" for c in found]
    if infinity is not None:
        lines.append("sigma_infinity {" + ",".join(infinity.support_names()) + "}")
    _emit(args, payload, "\n".join(lines) if lines else "no clusters")
    return EXIT_OK


def cmd_dualize(args) -> int:
    kind, value = _read(args.file)
    if kind == "contact":
        value = nca_as_lca(value)
    elif kind != "structure":
        raise StructureError("dualize needs a contact relation or a local structure")
    dual = dual_space(value)
    if args.format == "dot":
        sys.stdout.write(jsonio.space_to_dot(dual.space))
        return EXIT_OK
    payload = jsonio.dual_space_to_json(dual)
    text = "\n".join(
        [f"case: {dual.case}", f"points: {', '.join(dual.space.points)}"]
        + [f"region {key or '{}'}: {', '.join(points)}"
           for key, points in payload["regions"].items()]
    )
    _emit(args, payload, text)
    return EXIT_OK


def cmd_lift(args) -> int:
    kind, value = _read(args.file)
    if kind != "space":
        raise StructureError("lift needs a space")
    rc = rc_algebra(value)
    payload = jsonio.lca_to_json(rc.lca())
    payload["atom_pointsets"] = {
        rc.algebra.atom_names[k]: list(value.names_of(atom))
        for k, atom in enumerate(rc.atoms)
    }
    text = "\n".join(
        [f"regular closed atoms: {', '.join(rc.algebra.atom_names)}"]
        + [f"  {name} = {{{', '.join(points)}}}"
           for name, points in payload["atom_pointsets"].items()]
    )
    _emit(args, payload, text)
    return EXIT_OK


def cmd_dual_map(args) -> int:
    kind, value = _read(args.file)
    if kind == "map":
        phi = dual_of_map(value)
        payload = jsonio.morphism_to_json(phi)
        text = "dualized map to a morphism; use --format json for the table"
    elif kind == "morphism":
        f = dual_of_morphism(value)
        payload = jsonio.map_to_json(f)
        text = "\n".join(f"{p} -> {f.target.points[f.assignment[i]]}"
                         for i, p in enumerate(f.source.points))
    else:
        raise StructureError("dual-map needs a map or a morphism")
    _emit(args, payload, text)
    return EXIT_OK


def cmd_check_morphism(args) -> int:
    kind, value = _read(args.file)
    if kind != "morphism":
        raise StructureError("check-morphism needs a morphism")
    report = check_morphism(value, args.kind or "PAL")
    _emit(args, {"reports": [report.to_json()]}, report.render())
    return _report_exit([report])


def cmd_compose(args) -> int:
    kind1, first = _read(args.outer)
    kind2, second = _read(args.inner)
    if kind1 != "morphism" or kind2 != "morphism":
        raise StructureError("compose needs two morphisms")
    result = compose(first, second)
    payload = jsonio.morphism_to_json(result)
    _emit(args, payload, "composed; use --format json for the table")
    return EXIT_OK


def cmd_roundtrip(args) -> int:
    kind, value = _read(args.file)
    if kind == "contact":
        value = nca_as_lca(value)
    elif kind not in ("structure", "space", "map", "morphism"):
        raise StructureError("roundtrip needs a space, map, structure or morphism")
    report = roundtrip_report(value)
    _emit(args, {"reports": [report.to_json()]}, report.render())
    return _report_exit([report])


def cmd_region(args) -> int:
    op, texts = args.operation, args.operands
    if op in ("union", "meet", "le", "contact", "waybelow", "interpolate"):
        if len(texts) != 2:
            raise StructureError(f"region {op} takes two regions")
        left, right = RationalRegion.from_text(texts[0]), RationalRegion.from_text(texts[1])
        if op in ("le", "contact", "waybelow"):
            value = (left.le(right) if op == "le" else left.touches(right) if op == "contact"
                     else left.well_inside(right))
            _emit(args, {"result": value}, str(value).lower())
            return EXIT_OK
        out = (left.join(right) if op == "union" else left.meet(right) if op == "meet"
               else interpolate(left, right))
        _emit(args, jsonio.region_to_json(out), out.to_text())
        return EXIT_OK
    if op == "complement":
        if len(texts) != 1:
            raise StructureError("region complement takes one region")
        out = RationalRegion.from_text(texts[0]).complement()
        _emit(args, jsonio.region_to_json(out), out.to_text())
        return EXIT_OK
    if op == "bounded":
        if len(texts) != 1:
            raise StructureError("region bounded takes one region")
        value = RationalRegion.from_text(texts[0]).is_bounded
        _emit(args, {"result": value}, str(value).lower())
        return EXIT_OK
    if op == "affine":
        if len(texts) != 3:
            raise StructureError("region affine takes a slope, an offset and a region")
        alpha, beta = parse_rational(texts[0]), parse_rational(texts[1])
        out = affine_preimage(alpha, beta, RationalRegion.from_text(texts[2]))
        _emit(args, jsonio.region_to_json(out), out.to_text())
        return EXIT_OK
    if op == "laws":
        return _region_laws(args)
    raise StructureError(f"unknown region operation {op!r}")


_SCALE = 420  # lcm(1..7): every drawn low end and width is a whole number of 1/_SCALE


@functools.cache
def _low_end(key: int) -> Fraction:  # at most 48 * 7 keys, the low ends a draw can give
    return Fraction(key, _SCALE)


def _random_region(rng: random.Random) -> RationalRegion:
    """Up to three spans [p/q, p/q + r/s] with q, s < 8, merged on keys in units of 1/_SCALE."""
    draw = rng.randrange
    spans = []
    for _ in range(draw(0, 4)):
        lo = draw(-24, 24) * (_SCALE // draw(1, 8))
        spans.append((lo, lo + draw(1, 24) * (_SCALE // draw(1, 8))))
    merged = []
    for lo, hi in sorted(spans):
        if merged and merged[-1][1] >= lo:  # overlapping or touching
            if hi > merged[-1][1]:  # not nested
                merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return RationalRegion(tuple([(_low_end(lo), Fraction(hi, _SCALE)) for lo, hi in merged]))


def _region_laws(args) -> int:
    """Sampled Boolean and contact laws; the seed makes reruns identical."""
    if not 0 <= args.samples <= REGION_SAMPLE_CAP:
        raise StructureError(
            f"--samples must lie between 0 and {REGION_SAMPLE_CAP}, got {args.samples}")
    rng = random.Random(args.seed)
    failures = []
    for index in range(args.samples):
        f, g, h = _random_region(rng), _random_region(rng), _random_region(rng)
        not_f, f_touches_g = f.complement(), f.touches(g)
        checks = {
            "double-complement": not_f.complement() == f,
            "de-morgan": f.join(g).complement() == not_f.meet(g.complement()),
            "absorption": f.join(f.meet(g)) == f,
            "contact-symmetric": f_touches_g == g.touches(f),
            "contact-additive": f.touches(g.join(h)) == (f_touches_g or f.touches(h)),
            "contact-reflexive": f.is_empty or f.touches(f),
        }
        for name, ok in checks.items():
            if not ok:
                failures.append({"law": name, "sample": index})
    payload = {"samples": args.samples, "seed": args.seed, "failures": failures}
    text = (f"{args.samples} samples, seed {args.seed}: "
            + ("all laws hold" if not failures else f"{len(failures)} failures"))
    _emit(args, payload, text)
    return EXIT_OK if not failures else EXIT_VIOLATIONS


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each verb's own parser, by verb name."""
    parser = argparse.ArgumentParser(
        prog="contact-duality",
        description="Validate, dualize and explore finite contact structures. "
                    f"The {MAX_ATOMS_ENV} environment variable overrides the atom cap.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, run):
        p.add_argument("--format", choices=("text", "json", "dot"), default="text")
        p.add_argument("--seed", type=int, default=1729)
        p.add_argument("--max-atoms", type=int, default=None,
                       help="override the atom cap for this invocation")
        p.set_defaults(run=run)

    def file_verb(name, help_text, run):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file")
        common(p, run)

    p = sub.add_parser("validate", help="axiom reports for any documented input kind")
    p.add_argument("file")
    p.add_argument("--kind", choices=("PAL", "DVAL"), default=None,
                   help="morphism axiom family, for morphism inputs")
    common(p, cmd_validate)
    file_verb("clusters", "cluster listing with bounded flags", cmd_clusters)
    file_verb("dualize", "dual space and region table of a structure", cmd_dualize)
    file_verb("lift", "regular closed structure of a space", cmd_lift)
    file_verb("dual-map", "dualize a map to a morphism or back", cmd_dual_map)

    p = sub.add_parser("check-morphism", help="morphism axiom report")
    p.add_argument("file")
    p.add_argument("--kind", choices=("PAL", "DVAL"), default=None)
    common(p, cmd_check_morphism)

    p = sub.add_parser("compose", help="diamond composition of two morphism files")
    p.add_argument("outer", help="applied second")
    p.add_argument("inner", help="applied first")
    common(p, cmd_compose)
    file_verb("roundtrip", "object and naturality round trips", cmd_roundtrip)

    p = sub.add_parser("region", help="rational line region calculator")
    p.add_argument("operation",
                   choices=("union", "meet", "complement", "le", "contact", "waybelow",
                            "bounded", "interpolate", "affine", "laws"))
    p.add_argument("operands", nargs="*")
    p.add_argument("--samples", type=int, default=1000,
                   help=f"sample count for laws, at most {REGION_SAMPLE_CAP}")
    common(p, cmd_region)
    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """_build_parsers() once per process; parsing leaves a parser unchanged."""
    return _build_parsers()


def _parse(argv) -> argparse.Namespace:
    """The namespace build_parser().parse_args(argv) gives, read in one pass
    by the verb's own parser when argv starts with a verb.  If that leaves any
    over, an intermixed pass rereads it all, so an option may also stand between
    region's operation and its operands; the top-level parser reports the rest."""
    parser, verbs = _parsers()
    verb_parser = verbs.get(argv[0]) if argv else None
    if verb_parser is None:  # help, a missing or unknown verb, an option first
        return parser.parse_args(argv)
    args, extras = verb_parser.parse_known_args(argv[1:])
    if extras:
        args, extras = verb_parser.parse_known_intermixed_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.verb = argv[0]
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args.max_atoms is None:
        return _run(args)
    previous_cap = os.environ.get(MAX_ATOMS_ENV)
    os.environ[MAX_ATOMS_ENV] = str(args.max_atoms)
    try:
        return _run(args)
    finally:
        if previous_cap is None:
            os.environ.pop(MAX_ATOMS_ENV, None)
        else:
            os.environ[MAX_ATOMS_ENV] = previous_cap


def _run(args) -> int:
    try:
        return args.run(args)
    except Refusal as exc:
        if exc.report is not None:
            sys.stderr.write(exc.report.render() + "\n")
        sys.stderr.write(f"refused: {exc}\n")
        return EXIT_VIOLATIONS
    except ContactDualityError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_STRUCTURE


if __name__ == "__main__":
    sys.exit(main())
