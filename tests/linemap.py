"""Line map: the executable lines of src/ that the tier-1 suite never runs.

Runs the tier-1 suite (pytest with the testpaths of pyproject.toml, tests/
and bench/tests) in this process under a sys.settrace tracer that follows
only frames whose code lives in src/, then prints one JSON object,

    {"count": N, "never_run": {"contact_duality/duality.py": [lines...], ...}}

with, per file, the lines that some function, lambda or comprehension holds
and that no traced frame of that code ran.  Module and class bodies run at
import and are left out.  pytest's own output goes to stderr.

The tracer slows the suite down several times, so tests that time themselves
can fail on their clocks: the map reports lines, not verdicts, and the exit
code is 0 whatever the suite did.  Code that the tests run in a subprocess is
not traced, so a line only a subprocess runs is listed as never run.  It
needs only the standard library and pytest, and pytest does not collect it.

With --traffic the same tracer follows CLI and benchmark traffic in place of
the suite: every command line of the golden transcript (tests/test_golden.py),
then the first items of the roundtrip and cli benchmark workloads
(bench/workloads.py, read only) at seed 1729, each run in process as the
benchmark runs it.  The lines it lists are the ones no such traffic reaches.

    python tests/linemap.py [--traffic]
"""

from __future__ import annotations

import contextlib
import dis
import itertools
import json
import os
import pathlib
import sys
import tempfile
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
_NEW_LOCALS = 0x2  # CO_NEWLOCALS: set on functions, lambdas and comprehensions only
TRAFFIC_SEED = 1729
TRAFFIC_ITEMS = (("roundtrip", 800), ("cli", 1500))  # benchmark workload, items run


def _suite() -> None:
    import pytest

    pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])


def _traffic() -> None:
    sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "bench")]
    import test_golden
    import workloads

    test_golden.transcript()
    with tempfile.TemporaryDirectory(prefix="linemap-") as workdir:
        for name, count in TRAFFIC_ITEMS:
            workload = workloads.WORKLOADS[name](TRAFFIC_SEED, pathlib.Path(workdir))
            for item in itertools.islice(workload.items(), count):
                workload.run(item)


def _trace(run) -> dict:
    """Call run under the tracer; the lines run, by code object."""
    prefix = str(SRC) + os.sep
    hits = {}  # code object -> set of lines run, or None for code outside src/

    def call(frame, event, arg):
        code = frame.f_code
        lines = hits.get(code, False)
        if lines is False:
            lines = hits[code] = set() if code.co_filename.startswith(prefix) else None
        if lines is None:
            return None
        add = lines.add

        def line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return line
        return line

    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    threading.settrace(call)
    sys.settrace(call)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return {code: lines for code, lines in hits.items() if lines is not None}


def _key(code) -> tuple:
    return code.co_filename, code.co_qualname, code.co_firstlineno


def _executable(code) -> set[int]:
    """The lines of code's instructions after its prologue, which ends at
    RESUME and raises no line event."""
    lines, started = set(), False
    for instruction in dis.get_instructions(code):
        if started and instruction.positions.lineno is not None:
            lines.add(instruction.positions.lineno)
        started = started or instruction.opname == "RESUME"
    return lines


def _functions(code):
    """Every function, lambda and comprehension code object nested in code."""
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            if const.co_flags & _NEW_LOCALS:
                yield const
            yield from _functions(const)


def main() -> int:
    if sys.argv[1:] not in ([], ["--traffic"]):
        sys.exit("usage: python tests/linemap.py [--traffic]")
    run = {}
    for code, lines in _trace(_traffic if sys.argv[1:] else _suite).items():
        run.setdefault(_key(code), set()).update(lines)
    never_run = {}
    for path in sorted(SRC.rglob("*.py")):
        module = compile(path.read_text(), str(path), "exec")
        missed = set()
        for code in _functions(module):
            missed |= _executable(code) - run.get(_key(code), set())
        if missed:
            never_run[str(path.relative_to(SRC))] = sorted(missed)
    count = sum(map(len, never_run.values()))
    print(json.dumps({"count": count, "never_run": never_run}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
