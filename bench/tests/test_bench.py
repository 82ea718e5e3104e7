"""Tests of the benchmark itself.

    python3 -m pytest -q bench/tests

The closed forms the `axioms` workload checks against are confirmed here
against the library's brute force for every relation and ideal generator up
to 4 atoms before the benchmark relies on them (about a minute).
"""

from __future__ import annotations

import itertools
import json
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import contact_duality as cd  # noqa: E402
import contact_duality.cli  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _remove(scratch):
    """Delete a test's directory under .bench_work, and .bench_work once empty."""
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        scratch.parent.rmdir()
    except OSError:
        pass  # still holds another directory


# measurement arithmetic ---------------------------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(list(range(1, 101))) == (90, 90)
    assert run.tail_percentile(list(range(1, 1001))) == (99, 990)
    assert run.tail_percentile(list(range(25, 0, -1))) == (60, 15)
    assert run.tail_percentile([3, 1, 2]) == (100, 3)


def test_blocks_cover_every_sample_in_order():
    assert run.blocks(list(range(7)), 3) == [[0, 1], [2, 3], [4, 5, 6]]
    assert run.blocks([5, 6], 10) == [[5], [6]]
    assert run.blocks([5, 6], 0) == [[5, 6]]


def test_blocked_statistics_follow_the_share_of_slow_items():
    # a host state 1.5 times slower for the last 40% of the run: the whole
    # run's median stays at the fast value, the blocked one moves by 40%
    fast = [1.0, 2.0, 3.0] * 200
    times = fast[:360] + [1.5 * t for t in fast[360:]]
    assert statistics.median(times) == 2.0
    assert run.blocked_median(times) == pytest.approx(0.6 * 2.0 + 0.4 * 3.0)
    assert run.blocked_median([1.0, 2.0, 100.0]) == 2.0  # too few items for two blocks
    p, count, tail = run.blocked_tail(list(range(1, 2501)))
    assert (p, count) == (99, 2)
    assert tail == (1238 + 2488) / 2


def _span(name, start, end, parent, tag=None, hot=()):
    return tracer.Span(name, tag, start, end, parent, hot)


def test_self_time_is_duration_minus_direct_children():
    spans = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 4.0, 0, tag="CA"),
        _span("c", 2.0, 3.0, 1),
        _span("d", 5.0, 9.0, 0),
        _span("a", 6.0, 8.0, 3),  # recursion: counted once in busy time
    ]
    s = tracer.summarize(spans)
    assert (s["a"].calls, s["a"].busy_s, s["a"].self_s) == (2, 10.0, 5.0)
    assert (s["b"].busy_s, s["b"].self_s) == (3.0, 2.0)
    assert s["b.CA"].busy_s == 3.0
    assert (s["d"].self_s, s["c"].self_s) == (2.0, 1.0)
    assert sum(s[k].self_s for k in "abcd") == 10.0


def test_counts_go_to_the_innermost_span():
    t = tracer.Tracer()
    t._enter("outer", None)
    t.hot[0] += 2
    t._enter("inner", None)
    t.hot[0] += 3
    t._exit()
    t.hot[0] += 1
    t._exit()
    inner, outer = t.spans[1], t.spans[0]
    assert (inner.parent, inner.hot[0], outer.hot[0]) == (0, 3, 3)


def test_interleave_keeps_every_prefix_proportional():
    weights = {"x": 4, "y": 3, "z": 1}
    order = workloads.interleave(weights)
    assert len(order) == 8
    for t in range(1, 9):
        for key, w in weights.items():
            assert abs(order[:t].count(key) - w * t / 8) < 1


# tracer robustness --------------------------------------------------------------


def test_tracer_rebinds_every_import_and_restores():
    original = cd.spaces.rc_algebra
    t = tracer.Tracer().install()
    try:
        assert t.missing == []
        assert cd.duality.rc_algebra is cd.spaces.rc_algebra is cd.rc_algebra
        assert cd.rc_algebra is not original
        assert contact_duality.cli.dual_space is cd.duality.dual_space is cd.dual_space
        cd.roundtrip_report(cd.SpaceMap(cd.discrete_space("a"), cd.discrete_space("a"), (0,)))
        names = {s.name for s in t.spans}
        assert {"duality.roundtrip_report", "duality.dual_space", "spaces.rc_algebra"} <= names
        assert t.hot_totals()["boolalg.check_element"] > 0
    finally:
        t.uninstall()
    assert cd.duality.rc_algebra is cd.spaces.rc_algebra is cd.rc_algebra is original


def test_vanished_names_are_listed_as_missing():
    t = tracer.Tracer()
    t._wrap(tracer.Spec("contact", "ElementContact.no_such", "x"), t._count_wrapper)
    t._wrap(tracer.Spec("no_such_module", "f", "y"), t._span_wrapper)
    t._wrap(tracer.Spec("clusters", "no_such_function", "z"), t._span_wrapper)
    assert t.missing == ["contact.ElementContact.no_such", "no_such_module.f",
                         "clusters.no_such_function"]
    metrics = tracer.layer_metrics(t, 1.0)
    assert metrics["contact.element_contact.calls"]["value"] == 0


_COUNT_56 = """
import cProfile, json, pstats, sys
sys.path[:0] = [{src!r}, {bench!r}]
import itertools, contact_duality as cd, tracer, workloads
maps = [f for f in itertools.islice(workloads.Roundtrip(0, None).items(), 366)  # one pass
        if f.source.point_count <= 3 and f.target.point_count <= 3]
wanted = ("dual_space", "rc_algebra", "grill_clusters", "check_lca_axioms",
          "check_morphism", "check_element")

def work():
    for f in maps:
        cd.roundtrip_report(f)
        cd.roundtrip_report(cd.dual_of_map(f))

if sys.argv[1] == "profile":
    profile = cProfile.Profile()
    profile.runcall(work)
    counts = {{fn: nc for (_, _, fn), (_, nc, *_) in pstats.Stats(profile).stats.items()
              if fn in wanted}}
else:
    t = tracer.Tracer().install()
    work()
    t.uninstall()
    spans = tracer.summarize(t.spans)
    counts = {{name.rsplit(".", 1)[-1]: spans[name].calls for name in spans
              if name.rsplit(".", 1)[-1] in wanted}}
    counts["check_element"] = t.hot_totals()["boolalg.check_element"]
print(len(maps), json.dumps(counts, sort_keys=True))
"""


def test_trace_counts_equal_cprofile_counts_on_the_56_small_maps():
    code = _COUNT_56.format(src=str(ROOT / "src"), bench=str(BENCH))
    outputs = [subprocess.run([sys.executable, "-c", code, mode], capture_output=True,
                              text=True, check=True, timeout=300).stdout.split(" ", 1)
               for mode in ("profile", "trace")]
    (n_profiled, profiled), (n_traced, traced) = outputs
    assert n_profiled == n_traced == "56"
    assert json.loads(traced) == json.loads(profiled)
    assert set(json.loads(traced)) == {"dual_space", "rc_algebra", "grill_clusters",
                                       "check_lca_axioms", "check_morphism", "check_element"}


# inputs and expectations --------------------------------------------------------


def _canonical(workload, item):
    if isinstance(item, workloads.CliItem):
        parts = []
        for arg in item.argv:
            path = Path(arg)
            if arg.startswith(str(workload.workdir)):
                parts.append(path.read_text() if path.exists() else path.name)
            else:
                parts.append(arg)
        return repr((parts, item.expected_exit))
    return repr(item)


def _first_items(name, seed, workdir, count):
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, workdir)
    return [_canonical(workload, item) for item in itertools.islice(workload.items(), count)]


def test_generators_give_identical_inputs_for_the_same_seed():
    scratch = ROOT / ".bench_work" / "test-generators"
    try:
        for name in run.NAMES:
            first = _first_items(name, 7, scratch / "a", 80)
            assert first == _first_items(name, 7, scratch / "b", 80), name
            assert first != _first_items(name, 8, scratch / "c", 80), name
    finally:
        _remove(scratch)


def _all_rows(n):
    pairs = list(itertools.combinations(range(n), 2))
    for choice in range(1 << len(pairs)):
        rows = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if choice >> k & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        yield tuple(rows)


def test_closed_forms_match_brute_force_up_to_four_atoms():
    checked = 0
    for n in (1, 2, 3, 4):
        for rows in _all_rows(n):
            rel = workloads.relation(rows, [f"a{k}" for k in range(n)])
            top = (1 << n) - 1
            for kind in cd.contact.AXIOM_KINDS:
                expected = workloads.expected_axiom_ok(kind, rows, top)
                assert cd.check_axioms(rel, kind).ok == expected, (rows, kind)
            for gen in range(top + 1):
                structure = cd.LocalContactAlgebra(rel, cd.BoundedIdeal(rel.algebra, gen))
                assert cd.check_lca_axioms(structure).ok == \
                    workloads.expected_axiom_ok("BC", rows, gen), (rows, gen)
                assert cd.alexandroff_certificate(structure).ok == \
                    workloads.expected_axiom_ok("cert", rows, gen), (rows, gen)
                checked += 1
    assert checked == 2 + 2 * 4 + 8 * 8 + 64 * 16


def test_generated_spaces_have_the_planned_atoms_and_facts():
    lift = workloads.Lift(3, None)
    for index, (kind, n, k) in enumerate(lift.weights):
        for seed in range(3):
            item = lift.make_item(lift.rng(index, f"t{seed}"), index, kind, n, k)
            rc = cd.rc_algebra(item.space)
            predicates = cd.space_predicates(item.space)
            assert rc.algebra.atom_count == k
            assert item.space.closure(item.dense) == item.space.everything
            assert item.facts == {
                "connected": predicates.connected,
                "extremally_disconnected": predicates.extremally_disconnected,
                "hausdorff": predicates.hausdorff,
            }


def test_first_cli_cycle_meets_its_expected_exit_codes():
    scratch = ROOT / ".bench_work" / "test-cli"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        cli = workloads.Cli(11, scratch)
        items = list(itertools.islice(cli.items(), len(workloads.DATA_ITEMS) + 3 * 39))
        verbs = set()
        for item in items:
            assert cli.check(item, cli.run(item))[0], item.argv
            verbs.add(item.argv[0] if item.argv[0] != "region" else item.argv[1])
        assert {"validate", "clusters", "dualize", "lift", "dual-map", "check-morphism",
                "compose", "roundtrip", "union", "meet", "complement", "le", "contact",
                "waybelow", "bounded", "interpolate", "affine", "laws"} <= verbs
        assert sum(item.expected_exit == 2 for item in items) >= 3
    finally:
        _remove(scratch)


def test_default_seed_outputs_match_the_recorded_digests():
    recorded = json.loads((BENCH / "digests.json").read_text())
    scratch = ROOT / ".bench_work" / "test-digests"
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        for name in run.NAMES:
            workload, stream, _ = run.set_up(name, run.DEFAULT_SEED, scratch / name)
            runner = run.Runner(workload, stream)
            while runner.index < workload.digest_items:
                assert runner.step()[0], (name, runner.index)
            assert recorded[name] == {"seed": run.DEFAULT_SEED, "items": workload.digest_items,
                                      "sha256": runner.digest.hexdigest()}, name
    finally:
        signal.signal(signal.SIGALRM, previous)
        _remove(scratch)


# the benchmark's interface --------------------------------------------------------


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    # `axioms` and `lift` run on demand but are not gated: see "Run-to-run noise"
    # in README.md.
    assert [w["name"] for w in spec["workloads"]] == ["roundtrip", "cli"]
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "items_per_s", "item_p50_ms", "item_tail_ms", "peak_rss_mb"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracer.LAYER_METRICS)


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = subprocess.run([sys.executable, "bench/run.py", "--workload", "roundtrip",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        _remove(bare)
