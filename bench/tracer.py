"""Layer tracer for the benchmark's traced run.

The tracer wraps public functions and methods of the package from outside.
Functions listed in SPANS record one span per call (name, start, end, parent
span); the hot kernel entries listed in COUNTED are called millions of times,
so they only bump a counter.  Counter values are snapshotted at span
boundaries, which attributes each count to the innermost open span without
any work on the hot path beyond one list increment.

A wrapped module-level function is rebound in every loaded module that holds
the original object (the package re-exports names, and modules such as
`duality` and `cli` hold their own bindings).  A wrapped method is replaced
on its class and on every subclass that overrides it.  Names that no longer
exist are reported as missing instead of silently reading zero.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

PACKAGE = "contact_duality"


def _kind_tag(args, kwargs):
    return kwargs.get("kind", args[1] if len(args) > 1 else None)


def _first_arg(args, kwargs):
    return args[0]


def _grill_yield(args, kwargs, result, extra):
    extra["clusters.grill.scanned"] += (1 << args[0].algebra.atom_count) - 1
    extra["clusters.grill.found"] += len(result)


def _bytes_in(args, kwargs, result, extra):
    extra["jsonio.bytes_in"] += len(args[0].encode("utf-8"))


def _bytes_out(args, kwargs, result, extra):
    extra["jsonio.bytes_out"] += len(result.encode("utf-8"))


def _exit_code(args, kwargs, result, extra):
    extra[f"cli.exit_{result}"] += 1


@dataclass(frozen=True)
class Spec:
    """One wrapped target: `module.attr` or `module.Class.method`."""

    module: str
    target: str
    name: str
    tag: object = None        # (args, kwargs) -> span name suffix
    key: object = None        # (args, kwargs) -> hashable value, for `distinct`
    on_result: object = None  # (args, kwargs, result, extra Counter) -> None


SPANS = (
    Spec("contact", "check_axioms", "contact.check_axioms", tag=_kind_tag),
    Spec("localcontact", "check_lca_axioms", "localcontact.check_lca_axioms"),
    Spec("localcontact", "alexandroff_certificate", "localcontact.alexandroff_certificate"),
    Spec("localcontact", "infinity_cluster", "localcontact.infinity_cluster"),
    Spec("clusters", "enumerate_clusters", "clusters.enumerate_clusters"),
    Spec("clusters", "grill_clusters", "clusters.grill_clusters", on_result=_grill_yield),
    Spec("clusters", "check_cluster", "clusters.check_cluster"),
    Spec("clusters", "maximal_cliques", "clusters.maximal_cliques"),
    Spec("spaces", "rc_algebra", "spaces.rc_algebra", key=_first_arg),
    Spec("spaces", "regular_closed_sets", "spaces.regular_closed_sets"),
    Spec("spaces", "ro_algebra", "spaces.ro_algebra"),
    Spec("spaces", "dense_subspace_isomorphism", "spaces.dense_subspace_isomorphism"),
    Spec("spaces", "space_predicates", "spaces.space_predicates"),
    Spec("spaces", "map_predicates", "spaces.map_predicates"),
    Spec("duality", "roundtrip_report", "duality.roundtrip_report"),
    Spec("duality", "dual_space", "duality.dual_space", key=_first_arg),
    Spec("duality", "point_embedding", "duality.point_embedding", key=_first_arg),
    Spec("duality", "check_morphism", "duality.check_morphism"),
    Spec("duality", "dual_of_map", "duality.dual_of_map"),
    Spec("duality", "dual_of_morphism", "duality.dual_of_morphism"),
    Spec("duality", "regularize", "duality.regularize"),
    Spec("duality", "compose", "duality.compose"),
    Spec("duality", "verify_double_dual", "duality.verify_double_dual"),
    Spec("regions", "RationalRegion.from_text", "regions.parse"),
    Spec("regions", "parse_endpoint", "regions.parse"),
    Spec("regions", "interpolate", "regions.interpolate"),
    Spec("regions", "affine_preimage", "regions.affine_preimage"),
    Spec("jsonio", "loads", "jsonio.loads", on_result=_bytes_in),
    Spec("jsonio", "dumps", "jsonio.dumps", on_result=_bytes_out),
    Spec("cli", "main", "cli.main", on_result=_exit_code),
)

COUNTED = (
    Spec("boolalg", "FiniteBooleanAlgebra.check_element", "boolalg.check_element"),
    Spec("boolalg", "FiniteBooleanAlgebra.__post_init__", "boolalg.algebras_built"),
    Spec("contact", "ContactRelation.contact", "contact.relation_contact"),
    Spec("contact", "ElementContact.contact", "contact.element_contact"),
    Spec("contact", "ContactQuery.way_below", "contact.way_below"),
    Spec("spaces", "FiniteSpace.closure", "spaces.closure"),
    Spec("spaces", "FiniteSpace.interior", "spaces.interior"),
    Spec("localcontact", "alexandroff_extension", "localcontact.alexandroff_extension"),
    Spec("regions", "RationalRegion.join", "regions.boolean_ops"),
    Spec("regions", "RationalRegion.meet", "regions.boolean_ops"),
    Spec("regions", "RationalRegion.complement", "regions.boolean_ops"),
    Spec("regions", "RationalRegion.touches", "regions.touches"),
    Spec("regions", "RationalRegion.well_inside", "regions.well_inside"),
)

HOT_NAMES = tuple(dict.fromkeys(s.name for s in COUNTED))
QUERY_NAMES = ("contact.relation_contact", "contact.element_contact")


@dataclass
class Span:
    """A finished span; `hot` holds the counts attributed to it alone."""

    name: str
    tag: object
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    hot: tuple = ()


@dataclass
class _Open:
    index: int
    name: str
    tag: object
    start: float
    hot_start: list
    child_hot: list
    parent: int


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    hot: list = field(default_factory=lambda: [0] * len(HOT_NAMES))
    extra: Counter = field(default_factory=Counter)
    distinct: dict = field(default_factory=lambda: defaultdict(set))
    missing: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    # recording ---------------------------------------------------------

    def _enter(self, name, tag):
        parent = self._stack[-1].index if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(_Open(index, name, tag, time.perf_counter(), list(self.hot),
                                 [0] * len(self.hot), parent))

    def _exit(self):
        end = time.perf_counter()
        top = self._stack.pop()
        inclusive = [now - then for now, then in zip(self.hot, top.hot_start)]
        own = tuple(i - c for i, c in zip(inclusive, top.child_hot))
        self.spans[top.index] = Span(top.name, top.tag, top.start, end, top.parent, own)
        if self._stack:
            parent_hot = self._stack[-1].child_hot
            for k, value in enumerate(inclusive):
                parent_hot[k] += value

    def _span_wrapper(self, fn, spec):
        tracer = self

        def traced(*args, **kwargs):
            if spec.key is not None:
                tracer.distinct[spec.name].add(spec.key(args, kwargs))
            tracer._enter(spec.name, spec.tag(args, kwargs) if spec.tag else None)
            try:
                result = fn(*args, **kwargs)
            except SystemExit as exc:
                if spec.on_result is not None:
                    spec.on_result(args, kwargs, exc.code, tracer.extra)
                raise
            finally:
                tracer._exit()
            if spec.on_result is not None:
                spec.on_result(args, kwargs, result, tracer.extra)
            return result

        return traced

    def _count_wrapper(self, fn, spec):
        hot = self.hot
        slot = HOT_NAMES.index(spec.name)

        def counted(*args, **kwargs):
            hot[slot] += 1
            return fn(*args, **kwargs)

        return counted

    # installation ------------------------------------------------------

    def install(self) -> "Tracer":
        for spec in SPANS:
            self._wrap(spec, self._span_wrapper)
        for spec in COUNTED:
            self._wrap(spec, self._count_wrapper)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, spec, make):
        try:
            module = importlib.import_module(f"{PACKAGE}.{spec.module}")
        except ImportError:
            self.missing.append(f"{spec.module}.{spec.target}")
            return
        *owner_path, attr = spec.target.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, attr):
            self.missing.append(f"{spec.module}.{spec.target}")
            return
        if isinstance(owner, type):
            self._wrap_method(owner, attr, spec, make)
        else:
            self._wrap_function(getattr(owner, attr), spec, make)

    def _wrap_function(self, original, spec, make):
        wrapped = make(original, spec)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    self._undo.append((module, name, original))
                    setattr(module, name, wrapped)

    def _wrap_method(self, cls, attr, spec, make):
        owners = [next(k for k in cls.__mro__ if attr in k.__dict__)]
        pending = list(cls.__subclasses__())
        while pending:
            klass = pending.pop()
            pending.extend(klass.__subclasses__())
            if attr in klass.__dict__ and klass not in owners:
                owners.append(klass)
        for owner in owners:
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(make(raw.__func__, spec))
            else:
                wrapped = make(raw, spec)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    # summaries ---------------------------------------------------------

    def hot_totals(self) -> dict:
        return dict(zip(HOT_NAMES, self.hot))


@dataclass
class NameSummary:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    hot: list = field(default_factory=lambda: [0] * len(HOT_NAMES))


def summarize(spans) -> dict:
    """Per-name calls, busy time, self time and attributed counts.

    Busy time of a name is the time covered by its spans, counting a span
    nested inside another span of the same name once (recursion).  Self time
    of a span is its duration minus the durations of its direct children;
    children of one span never overlap because the program is single-threaded.
    Spans with a tag are also summarized under `name.tag`.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    out = defaultdict(NameSummary)
    for index, span in enumerate(spans):
        duration = span.end - span.start
        keys = [span.name] + ([f"{span.name}.{span.tag}"] if span.tag is not None else [])
        for key in keys:
            entry = out[key]
            entry.calls += 1
            entry.self_s += duration - child_time[index]
            if not _has_ancestor(spans, index, key):
                entry.busy_s += duration
            for k, value in enumerate(span.hot):
                entry.hot[k] += value
    return dict(out)


def _has_ancestor(spans, index, key) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        span = spans[parent]
        if span.name == key or f"{span.name}.{span.tag}" == key:
            return True
        parent = span.parent
    return False


# per-layer metrics ---------------------------------------------------------

_COUNT, _S = "count", "s"
LAYER_METRICS = (
    # (name, unit, better)
    ("boolalg.check_element.calls", _COUNT, "lower"),
    ("boolalg.algebras_built", _COUNT, "lower"),
    ("contact.relation_contact.calls", _COUNT, "lower"),
    ("contact.element_contact.calls", _COUNT, "lower"),
    ("contact.way_below.calls", _COUNT, "lower"),
    ("contact.check_axioms.calls", _COUNT, "lower"),
    ("contact.check_axioms.busy_s", _S, "lower"),
    ("contact.check_axioms.self_s", _S, "lower"),
    ("contact.check_axioms.CA.busy_s", _S, "lower"),
    ("contact.check_axioms.NCA.busy_s", _S, "lower"),
    ("contact.check_axioms.CON.busy_s", _S, "lower"),
    ("contact.check_axioms.LL.busy_s", _S, "lower"),
    ("contact.queries_per_check", "queries/check", "lower"),
    ("localcontact.check_lca_axioms.calls", _COUNT, "lower"),
    ("localcontact.check_lca_axioms.busy_s", _S, "lower"),
    ("localcontact.check_lca_axioms.self_s", _S, "lower"),
    ("localcontact.alexandroff_extension.calls", _COUNT, "lower"),
    ("localcontact.alexandroff_certificate.busy_s", _S, "lower"),
    ("localcontact.infinity_cluster.busy_s", _S, "lower"),
    ("clusters.enumerate_clusters.calls", _COUNT, "lower"),
    ("clusters.enumerate_clusters.busy_s", _S, "lower"),
    ("clusters.grill_clusters.calls", _COUNT, "lower"),
    ("clusters.grill_clusters.busy_s", _S, "lower"),
    ("clusters.grill_clusters.self_s", _S, "lower"),
    ("clusters.grill.yield", "found/scanned", "higher"),
    ("clusters.check_cluster.calls", _COUNT, "lower"),
    ("clusters.check_cluster.busy_s", _S, "lower"),
    ("clusters.maximal_cliques.busy_s", _S, "lower"),
    ("spaces.rc_algebra.calls", _COUNT, "lower"),
    ("spaces.rc_algebra.distinct", _COUNT, "lower"),
    ("spaces.rc_algebra.busy_s", _S, "lower"),
    ("spaces.rc_algebra.self_s", _S, "lower"),
    ("spaces.rc_algebra.reuse", "calls/value", "lower"),
    ("spaces.regular_closed_sets.busy_s", _S, "lower"),
    ("spaces.ro_algebra.busy_s", _S, "lower"),
    ("spaces.dense_subspace_isomorphism.busy_s", _S, "lower"),
    ("spaces.space_predicates.busy_s", _S, "lower"),
    ("spaces.map_predicates.calls", _COUNT, "lower"),
    ("spaces.map_predicates.busy_s", _S, "lower"),
    ("spaces.closure.calls", _COUNT, "lower"),
    ("spaces.interior.calls", _COUNT, "lower"),
    ("duality.roundtrip_report.calls", _COUNT, "lower"),
    ("duality.roundtrip_report.busy_s", _S, "lower"),
    ("duality.roundtrip_report.self_s", _S, "lower"),
    ("duality.dual_space.calls", _COUNT, "lower"),
    ("duality.dual_space.distinct", _COUNT, "lower"),
    ("duality.dual_space.busy_s", _S, "lower"),
    ("duality.dual_space.self_s", _S, "lower"),
    ("duality.dual_space.reuse", "calls/value", "lower"),
    ("duality.point_embedding.calls", _COUNT, "lower"),
    ("duality.point_embedding.distinct", _COUNT, "lower"),
    ("duality.point_embedding.busy_s", _S, "lower"),
    ("duality.check_morphism.calls", _COUNT, "lower"),
    ("duality.check_morphism.busy_s", _S, "lower"),
    ("duality.check_morphism.self_s", _S, "lower"),
    ("duality.dual_of_map.busy_s", _S, "lower"),
    ("duality.dual_of_morphism.busy_s", _S, "lower"),
    ("duality.dual_of_morphism.self_s", _S, "lower"),
    ("duality.regularize.busy_s", _S, "lower"),
    ("duality.compose.calls", _COUNT, "lower"),
    ("duality.compose.busy_s", _S, "lower"),
    ("duality.verify_double_dual.busy_s", _S, "lower"),
    ("regions.parse.busy_s", _S, "lower"),
    ("regions.boolean_ops.calls", _COUNT, "lower"),
    ("regions.touches.calls", _COUNT, "lower"),
    ("regions.well_inside.calls", _COUNT, "lower"),
    ("regions.interpolate.busy_s", _S, "lower"),
    ("regions.affine_preimage.busy_s", _S, "lower"),
    ("jsonio.loads.calls", _COUNT, "lower"),
    ("jsonio.loads.busy_s", _S, "lower"),
    ("jsonio.dumps.busy_s", _S, "lower"),
    ("jsonio.bytes_in", "bytes", "lower"),
    ("jsonio.bytes_out", "bytes", "lower"),
    ("cli.main.calls", _COUNT, "lower"),
    ("cli.main.busy_s", _S, "lower"),
    ("cli.main.self_s", _S, "lower"),
    ("cli.exit_0", _COUNT, "higher"),
    ("cli.exit_1", _COUNT, "lower"),
    ("cli.exit_2", _COUNT, "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead: float) -> dict:
    """Every LAYER_METRICS value, as {name: {"value": v, "unit": u}}."""
    summary = summarize(tracer.spans)
    hot = tracer.hot_totals()
    empty = NameSummary()
    check = summary.get("contact.check_axioms", empty)
    queries = sum(check.hot[HOT_NAMES.index(q)] for q in QUERY_NAMES)
    special = {
        "contact.queries_per_check": _ratio(queries, check.calls),
        "clusters.grill.yield": _ratio(tracer.extra["clusters.grill.found"],
                                       tracer.extra["clusters.grill.scanned"]),
        "trace.overhead": overhead,
    }
    out = {}
    for name, unit, _ in LAYER_METRICS:
        base, _, field_name = name.rpartition(".")
        if name in special:
            value = special[name]
        elif name in hot:
            value = hot[name]
        elif field_name == "calls" and base in hot:
            value = hot[base]
        elif field_name in ("calls", "busy_s", "self_s"):
            value = getattr(summary.get(base, empty), field_name)
        elif field_name == "distinct":
            value = len(tracer.distinct.get(base, ()))
        elif field_name == "reuse":
            value = _ratio(summary.get(base, empty).calls, len(tracer.distinct.get(base, ())))
        else:
            value = tracer.extra[name]
        out[name] = {"value": value, "unit": unit}
    return out
