"""Golden CLI transcript: every verb on every data file, byte for byte.

The region calculator reads no data files; every region operation runs instead
on each operand, or each ordered pair of operands, of a fixed list, which holds the empty region, the
whole line, both rays, touching and nested intervals and multi-interval
regions, and `region laws` runs on several seeds and sample counts.

Each invocation is run in process from the repository root with relative
paths, so messages that quote a path read the same on any checkout.  The
transcript stores, per command line, the exit code and the sha256 of stdout
and of stderr.  To record it again after a deliberate output change, run

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import shlex
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli_transcript.json"
FORMATS = ("text", "json", "dot")
FILE_VERBS = ("validate", "clusters", "dualize", "lift", "dual-map", "check-morphism",
              "roundtrip")
REGIONS = ("empty", "[-inf,inf]", "[-inf,0]", "[1,inf]", "[0,1]", "[-1,3]", "[0,1/2] u [1,2]",
           "[-inf,-1] u [0,1] u [2,inf]", "[-1,0] u [1/2,1] u [2,3]", "[-2,7/4] u [15/8,4]")
REGION_BINARY = ("union", "meet", "le", "contact", "waybelow", "interpolate")
AFFINE_MAPS = (("2", "1"), ("-3", "1/2"), ("1/2", "-1"), ("0", "0"))
LAW_SEEDS = ("0", "1729", "20071")
LAW_SAMPLES = ("0", "1", "200")


def command_lines():
    files = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "tests" / "data").glob("*.json"))
    for fmt in FORMATS:
        for path in files:
            for verb in FILE_VERBS:
                yield [verb, path, "--format", fmt]
            for verb in ("validate", "check-morphism"):
                yield [verb, path, "--kind", "DVAL", "--format", fmt]
        for outer in files:
            for inner in files:
                yield ["compose", outer, inner, "--format", fmt]
    for fmt in ("text", "json"):
        for op in REGION_BINARY:
            for left in REGIONS:
                for right in REGIONS:
                    yield ["region", op, left, right, "--format", fmt]
        for operand in REGIONS:
            yield ["region", "complement", operand, "--format", fmt]
            yield ["region", "bounded", operand, "--format", fmt]
            for slope, offset in AFFINE_MAPS:
                yield ["region", "affine", slope, offset, operand, "--format", fmt]
        for seed in LAW_SEEDS:
            for samples in LAW_SAMPLES:
                yield ["region", "laws", "--samples", samples, "--seed", seed, "--format", fmt]


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def transcript():
    from contact_duality.cli import main

    entries = {}
    previous = os.getcwd()
    os.chdir(ROOT)
    try:
        for argv in command_lines():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            entries[shlex.join(argv)] = {"exit": code, "stdout": _digest(out.getvalue()),
                                         "stderr": _digest(err.getvalue())}
    finally:
        os.chdir(previous)
    return entries


def test_cli_transcript_matches_golden():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = transcript()
    assert sorted(actual) == sorted(expected)
    changed = [line for line in expected if actual[line] != expected[line]]
    assert changed == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    entries = transcript()
    lines = [f"{json.dumps(line)}: {json.dumps(entries[line], sort_keys=True)}"
             for line in sorted(entries)]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
