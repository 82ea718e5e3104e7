#!/usr/bin/env python3
"""Benchmark for the contact_duality package (stdlib only).

    python3 bench/run.py                      # every workload, untraced, summary table
    python3 bench/run.py --trace 1            # every workload, per-layer metrics
    python3 bench/run.py --workload lift --seed 3 --seconds 10 --trace 0

A single-workload run is one fresh process with one thread: a closed loop
with one caller that runs the workload's seeded items one after another for
`--seconds` of item time, with nothing run before the timed pass.  It prints
readable lines, then as its last line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("roundtrip", "axioms", "lift", "cli")
DEFAULT_SEED = 1729
DEFAULT_SECONDS = 55
SETUP_SAMPLES = 7  # this process's set-up, then one fresh process per sixth of the pass
TAIL_BEYOND = 10
P50_BLOCKS = 10       # item_p50_ms: mean of the medians of this many blocks,
P50_BLOCK_ITEMS = 25  # each of at least this many items
TAIL_BLOCK_ITEMS = 1000  # item_tail_ms: one block per this many items, at least one
CHILD_TIMEOUT_S = 170
TRACE_BUDGET_S = 100  # item time allowed to the traced pass
DIGESTS = HERE / "digests.json"
DETAIL = "# detail "


class DeadlineMissed(BaseException):
    """Raised by SIGALRM inside an item that ran past its deadline."""


def _on_alarm(signum, frame):
    raise DeadlineMissed()


def call(fn, item, deadline_s):
    """Run fn(item) under an interval-timer deadline: (status, value, seconds)."""
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    start = time.perf_counter()
    try:
        try:
            return "ok", fn(item), time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineMissed:
        return "deadline", None, time.perf_counter() - start
    except Exception as exc:  # the program under test raised: a failed item
        return "raised", exc, time.perf_counter() - start


def tail_percentile(samples, beyond=TAIL_BEYOND):
    """(p, value) at the highest integer percentile with `beyond` samples above it.

    Nearest rank: the p-th percentile of n sorted samples is the one at rank
    ceil(p*n/100), and n minus that rank samples lie beyond it.  With too few
    samples for any percentile, the maximum is reported as p100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = (p * n + 99) // 100
        if n - rank >= beyond:
            return p, ordered[rank - 1]
    return 100, ordered[-1]


def blocks(samples, count):
    """`samples` in order, cut into `count` consecutive blocks of near-equal size."""
    n = len(samples)
    count = max(1, min(count, n))
    return [samples[j * n // count:(j + 1) * n // count] for j in range(count)]


def blocked_median(samples, count=P50_BLOCKS):
    """Mean over consecutive blocks of each block's median.

    The host's speed switches between states over seconds to tens of
    seconds.  A block's median reflects the state it ran in, and their mean
    moves in proportion to the share of items run in each state.  The median
    of the whole run would instead jump from one state's value to the
    other's as that share passes one half.

    Blocks hold at least P50_BLOCK_ITEMS items, so a short run has fewer
    blocks, down to one: the median of tiny blocks would tend to the mean.
    """
    count = min(count, len(samples) // P50_BLOCK_ITEMS)
    return statistics.mean(statistics.median(b) for b in blocks(samples, count))


def blocked_tail(samples, block_items=TAIL_BLOCK_ITEMS):
    """(p, block count, value): mean over blocks of `block_items` or more items
    of each block's tail_percentile, for the same reason as blocked_median.
    p is the lowest of the blocks' percentiles."""
    parts = [tail_percentile(b) for b in blocks(samples, len(samples) // block_items)]
    return min(p for p, _ in parts), len(parts), statistics.mean(v for _, v in parts)


class Runner:
    """Runs a workload's items in order, checking each and hashing the first ones."""

    def __init__(self, workload, items):
        self.workload = workload
        self.items = iter(items)
        self.index = 0
        self.digest = hashlib.sha256()
        self.wrong = []
        self.raised = []
        self.missed = []
        self.times = []
        self.passed = 0
        self.busy = 0.0

    def step(self):
        item = next(self.items)
        status, value, elapsed = call(self.workload.run, item, self.workload.deadline_s)
        ok = False
        if status == "ok":
            ok, blob = self.workload.check(item, value)
            if not ok:
                self.wrong.append(self.index)
        else:
            blob = status.encode()
            failures = self.raised if status == "raised" else self.missed
            failures.append((self.index, repr(value)))
        if self.index < self.workload.digest_items:
            self.digest.update(len(blob).to_bytes(8, "big") + blob)
        self.index += 1
        return ok, elapsed

    def run_until(self, busy_s, count=None):
        """Continue the timed pass until `busy_s` of item time in all or `count` items."""
        while self.busy < busy_s and len(self.times) != count:
            ok, elapsed = self.step()
            self.times.append(elapsed)
            self.passed += ok
            self.busy += elapsed

    @property
    def failed(self) -> int:
        return len(self.wrong) + len(self.raised) + len(self.missed)


def set_up(name, seed, workdir):
    """Import the package and generate the initial pool of inputs; timed."""
    start = time.perf_counter()
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, workdir)
    stream = workload.items()
    pool = list(itertools.islice(stream, workload.pool_items))
    return workload, itertools.chain(pool, stream), time.perf_counter() - start


def _child(argv, timeout=CHILD_TIMEOUT_S):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *argv],
                          capture_output=True, text=True, timeout=timeout, check=False)


def setup_samples(name, seed, count):
    """Set-up times of `count` fresh processes."""
    samples = []
    for _ in range(count):
        child = _child(["--workload", name, "--seed", str(seed), "--setup-only"], timeout=60)
        if child.returncode != 0:
            raise RuntimeError(f"set-up child failed: {child.stderr.strip()}")
        samples.append(float(child.stdout.split()[-1]))
    return samples


def _detail(stdout: str) -> dict:
    for line in stdout.splitlines():
        if line.startswith(DETAIL):
            return json.loads(line[len(DETAIL):])
    raise RuntimeError("child printed no detail line")


def _digest_status(name, seed, runner):
    got = runner.digest.hexdigest()
    recorded = json.loads(DIGESTS.read_text()).get(name) if DIGESTS.exists() else None
    if recorded is None or recorded["seed"] != seed:
        return got, "not recorded for this seed"
    if recorded["items"] != runner.workload.digest_items:
        return got, "recorded over a different item count"
    return got, "matches the record" if got == recorded["sha256"] else "DIFFERS from the record"


def run_probe(workload):
    """Known-failing items, each under the probe deadline: (attempted, failures)."""
    failures = []
    for item in workload.probe_items():
        status, value, _ = call(workload.run, item, workload.probe_deadline_s)
        if status == "ok" and workload.check(item, value)[0]:
            continue
        failures.append(status if status != "ok" else "wrong")
    return len(workload.probe_items()), failures


def _result_line(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def measure(args, workdir) -> int:
    workload, stream, setup_s = set_up(args.workload, args.seed, workdir)
    runner = Runner(workload, stream)
    # The other set-up samples come from fresh processes started at even
    # steps of the timed pass, between items, so that their median spans
    # the run rather than one moment of it: the host's speed drifts over
    # tens of seconds.
    setups = [setup_s]
    steps = SETUP_SAMPLES - 1
    for k in range(1, steps + 1):
        runner.run_until(args.seconds * k / steps)
        setups += setup_samples(args.workload, args.seed, 1)
    times, passed, busy = runner.times, runner.passed, runner.busy
    attempted, failed = len(times), runner.failed
    while runner.index < workload.digest_items:  # finish the digest, untimed
        runner.step()
    digest, digest_status = _digest_status(args.workload, args.seed, runner)
    probe_attempted, probe_failures = run_probe(workload)
    p, tail_blocks, tail = blocked_tail(times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (passed / busy, "1/s"),
        "item_p50_ms": (blocked_median(times) * 1000, "ms"),
        "item_tail_ms": (tail * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    correct = (not runner.wrong and not runner.raised
               and not digest_status.startswith("DIFFERS"))

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<13}{value:12.4f} {unit}")
    whole_p, whole_tail = tail_percentile(times)
    print(f"  item_p50_ms is the mean of the medians of "
          f"{max(1, min(P50_BLOCKS, attempted // P50_BLOCK_ITEMS))} block(s)"
          f" of {attempted} items; the median of all is {statistics.median(times) * 1000:.4f} ms")
    print(f"  item_tail_ms is the mean of p{p} over {tail_blocks} block(s) of {attempted} items;"
          f" p{whole_p} of all is {whole_tail * 1000:.4f} ms")
    print(f"  setup_s is the median of {len(setups)} set-ups: "
          + ", ".join(f"{s:.4f}" for s in setups))
    print(f"  failed_frac  {failed / attempted:12.4f}  ({failed} of {attempted})")
    for label, cases in (("wrong", runner.wrong), ("raised", runner.raised),
                         ("missed deadline", runner.missed)):
        if cases:
            print(f"  {label}: {cases[:5]}")
    print(f"  digest       sha256:{digest} over the first {workload.digest_items} items"
          f" ({digest_status})")
    if probe_attempted:
        print(f"  probe        {len(probe_failures)} of {probe_attempted} known-failing "
              f"items failed: {probe_failures}")
    print(DETAIL + json.dumps({
        "items": attempted, "busy_s": busy, "failed": failed, "tail_p": p,
        "digest": digest, "digest_status": digest_status,
        "probe": [probe_attempted, len(probe_failures)],
    }))
    _result_line(correct, attempted, failed,
                 {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    return 0


def trace(args, workdir) -> int:
    """Untraced run in a fresh child, then the same items traced in this process.

    Both passes cover half of `--seconds` of untraced item time: per-layer
    counts need no long window, and the traced pass is about twice as slow.
    """
    child = _child(["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds / 2), "--trace", "0"])
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        raise RuntimeError("untraced reference run failed")
    reference = _detail(child.stdout)
    reference_correct = json.loads(child.stdout.strip().splitlines()[-1])["correct"]

    import tracer as tr

    workload, stream, _ = set_up(args.workload, args.seed, workdir)
    items = list(itertools.islice(stream, reference["items"]))
    tracing = tr.Tracer().install()
    try:
        runner = Runner(workload, items)
        runner.run_until(TRACE_BUDGET_S, count=len(items))
        times = runner.times
    finally:
        tracing.uninstall()
    overhead = (sum(times) / len(times)) / (reference["busy_s"] / reference["items"])
    metrics = tr.layer_metrics(tracing, overhead)

    print(f"workload {args.workload}  seed {args.seed}  traced {len(times)} of "
          f"{len(items)} items")
    if tracing.missing:
        print(f"  missing (wrapped names that no longer exist): {tracing.missing}")
    names = {span.name for span in tracing.spans}
    top = sorted(((k, v) for k, v in tr.summarize(tracing.spans).items() if k in names),
                 key=lambda kv: -kv[1].self_s)[:8]
    print("  most self time: " + ", ".join(f"{k} {v.self_s:.3f}s" for k, v in top))
    for name, entry in metrics.items():
        if entry["value"]:
            print(f"  {name:<46}{entry['value']:>16.6g} {entry['unit']}")
    correct = reference_correct and not runner.wrong and not runner.raised
    _result_line(correct, len(times), runner.failed, metrics)
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, then one summary table."""
    rows, status = [], 0
    for name in NAMES:
        child = _child(["--workload", name, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(args.trace)])
        sys.stdout.write(child.stdout.rsplit("\n", 2)[0] + "\n")
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            return child.returncode
        result = json.loads(child.stdout.strip().splitlines()[-1])
        status |= not result["correct"]
        rows.append((name, result, None if args.trace else _detail(child.stdout)))
    if args.trace:
        return status
    print("\nworkload     setup_s  items_per_s  item_p50_ms  item_tail_ms  peak_rss_mb"
          "  failed_frac  probe  correct")
    for name, result, detail in rows:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        probe = "{1}/{0}".format(*detail["probe"]) if detail["probe"][0] else "-"
        tail = f"{m['item_tail_ms']:.1f} (p{detail['tail_p']})"
        print(f"{name:<10}{m['setup_s']:8.3f} s{m['items_per_s']:9.2f} 1/s"
              f"{m['item_p50_ms']:10.2f} ms{tail:>14} ms{m['peak_rss_mb']:8.1f} MiB"
              f"{result['failed'] / result['attempted']:11.4f}{probe:>7}  {result['correct']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "contact_duality", ROOT / "tests" / "data")
               if not p.is_dir()]
    if missing:
        sys.stderr.write(f"error: run from a checkout of the repository; missing {missing}\n")
        return 2
    if args.workload is None:
        return run_all(args)

    signal.signal(signal.SIGALRM, _on_alarm)
    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            print(set_up(args.workload, args.seed, workdir)[2])
            return 0
        return (trace if args.trace else measure)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another benchmark process still uses it


if __name__ == "__main__":
    sys.exit(main())
