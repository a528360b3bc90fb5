"""Per-layer tracing from outside the program.

:func:`install` replaces the public functions and methods at each layer
boundary — in every ``repro`` module that binds them — with wrappers
that record a span per call, and returns the undo.  Nothing under
``src/`` changes.  Span names are the layer names of the per-layer
metrics; names starting with ``task.`` or ``bench.`` are containers (the
engine task body, the replay client), whose self time is the
*unattributed* time.  :func:`layer_metrics` turns the recorded spans
into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from typing import Callable, Dict, List, Optional, Tuple

from perfbench.spans import Recorder, adopt, self_times

#: Every per-layer metric with its unit, in ``BENCHMARK.json`` order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("coding.advice_decode.self_s", "s"),
    ("coding.advice_decode.calls", "count"),
    ("coding.advice_decode.distinct_frac", "ratio"),
    ("core.advice.self_s", "s"),
    ("core.advice.bits", "bits"),
    ("sim.com.self_s", "s"),
    ("sim.local_model.self_s", "s"),
    ("sim.local_model.messages", "count"),
    ("sim.local_model.rounds", "count"),
    ("views.refinement.self_s", "s"),
    ("core.verify.self_s", "s"),
    ("engine.self_s", "s"),
    ("engine.fanout_efficiency", "ratio"),
    ("graphs.canonical.self_s", "s"),
    ("graphs.canonical.calls", "count"),
    ("service.server.self_s", "s"),
    ("service.api.parse_s", "s"),
    ("service.api.self_s", "s"),
    ("service.cache.lookup_s", "s"),
    ("service.cache.memory_hits", "count"),
    ("service.cache.warehouse_hits", "count"),
    ("service.cache.misses", "count"),
    ("service.cache.hit_ratio", "ratio"),
    ("warehouse.put_s", "s"),
    ("warehouse.rows_written", "count"),
    ("service.inflight.wait_s", "s"),
    ("service.inflight.hits", "count"),
    ("service.shard.compute_s", "s"),
    ("service.shard.overhead_s", "s"),
    ("core.orbit_elect.self_s", "s"),
    ("conformance.profile_s", "s"),
    ("conformance.prepare_s", "s"),
    ("conformance.check_s", "s"),
    ("sim.strict.run_s", "s"),
    ("sim.async_model.run_s", "s"),
    ("views.wire.self_s", "s"),
    ("views.wire.encode_hit_ratio", "ratio"),
    ("views.wire.decode_hit_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
)

#: The recorder the wrappers write to; set by :func:`install`.  A module
#: global so that :func:`traced_run_chunk` pickles by reference into the
#: engine's worker pool.
_ACTIVE: Optional[Recorder] = None
_RUN_CHUNK: Optional[Callable] = None


def traced_run_chunk(payload):
    """The engine's chunk runner as one ``engine.chunk`` span; a forked
    pool worker then hands its spans to the parent through the sink."""
    try:
        with _ACTIVE.span("engine.chunk"):
            return _RUN_CHUNK(payload)
    finally:
        _ACTIVE.flush()


class _Patcher:
    """Replacements made so far, and how to undo them."""

    def __init__(self) -> None:
        self.undo: List[Callable[[], None]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        old = getattr(owner, attr)
        self.undo.append(lambda: setattr(owner, attr, old))
        setattr(owner, attr, value)

    def set_item(self, table: Dict, key: str, value: object) -> None:
        old = table[key]
        self.undo.append(lambda: table.__setitem__(key, old))
        table[key] = value

    def rebind(self, old: Callable, new: Callable) -> None:
        """Point every ``repro`` module binding of ``old`` at ``new``."""
        for name, module in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for attr, value in list(vars(module).items()):
                    if value is old:
                        self.set(module, attr, new)

    def restore(self) -> None:
        for undo in reversed(self.undo):
            undo()
        self.undo.clear()


#: The modules whose functions :func:`install` wraps.
LAYER_MODULES = (
    "repro.conformance.algorithms",
    "repro.conformance.oracle",
    "repro.core.advice",
    "repro.core.elect",
    "repro.core.orbit_elect",
    "repro.core.verify",
    "repro.engine.stream",
    "repro.engine.tasks",
    "repro.graphs.canonical",
    "repro.service.api",
    "repro.service.cache",
    "repro.service.shard",
    "repro.sim.async_model",
    "repro.sim.local_model",
    "repro.sim.strict",
    "repro.views.election_index",
    "repro.views.quotient",
    "repro.views.refinement",
    "repro.warehouse.db",
)


def import_layers() -> None:
    """Import every wrapped module, so that no timed pass pays for a
    lazy import and :func:`install` finds every binding."""
    for name in LAYER_MODULES:
        importlib.import_module(name)


def install(rec: Recorder, service: bool = False) -> Callable[[], None]:
    """Wrap every layer boundary; returns the undo.  ``service=True``
    also marks the shard workers' task calls as ``service.shard.compute``
    roots that flush to the sink after each compute."""
    global _ACTIVE, _RUN_CHUNK
    import_layers()
    # by sys.modules: package re-exports shadow some submodule names
    m = sys.modules
    algorithms = m["repro.conformance.algorithms"]
    oracle = m["repro.conformance.oracle"]
    advice = m["repro.core.advice"]
    orbit_elect = m["repro.core.orbit_elect"]
    verify = m["repro.core.verify"]
    stream = m["repro.engine.stream"]
    tasks = m["repro.engine.tasks"]
    canonical = m["repro.graphs.canonical"]
    api = m["repro.service.api"]
    cache = m["repro.service.cache"]
    shard = m["repro.service.shard"]
    async_model = m["repro.sim.async_model"]
    local_model = m["repro.sim.local_model"]
    strict = m["repro.sim.strict"]
    election_index = m["repro.views.election_index"]
    refinement = m["repro.views.refinement"]
    db = m["repro.warehouse.db"]
    ElectAlgorithm = m["repro.core.elect"].ElectAlgorithm

    _ACTIVE, _RUN_CHUNK = rec, stream._run_chunk
    p = _Patcher()
    wrap = rec.wrap

    def rebind(name, fn, on_result=None):
        p.rebind(fn, wrap(name, fn, on_result))

    def method(owner, attr, name, on_result=None):
        p.set(owner, attr, wrap(name, getattr(owner, attr), on_result))

    # the compute layers
    def advice_bits(bundle, args):
        rec.counts["core.advice.bits"] += bundle.size_bits

    def decoded(result, args):
        rec.add("advice", hash(args[1].advice.as_str()))

    def sim_totals(result, args):
        rec.counts["sim.local_model.messages"] += result.total_messages
        rec.counts["sim.local_model.rounds"] += result.rounds

    rebind("core.advice", advice.compute_advice, advice_bits)
    method(ElectAlgorithm, "setup", "coding.advice_decode", decoded)
    method(ElectAlgorithm, "compose", "sim.com")
    method(ElectAlgorithm, "deliver", "sim.com")
    method(local_model.SyncEngine, "run", "sim.local_model", sim_totals)
    method(async_model.AsyncEngine, "run", "sim.async_model")
    rebind("core.verify", verify.verify_election)
    rebind("views.refinement", election_index.election_index)
    rebind("views.refinement", refinement.stable_partition)
    rebind("core.orbit_elect", orbit_elect.run_elect_orbit)
    rebind("core.orbit_elect", orbit_elect.run_orbit)
    rebind("graphs.canonical", canonical.canonical_form)

    # the engine
    p.set(stream, "_run_chunk", traced_run_chunk)
    p.set_item(tasks.TASKS, "elect", wrap("task.elect", tasks.TASKS["elect"]))
    conformance_factory = tasks.TASK_FACTORIES["conformance"]
    planes: List[object] = []

    def wire_counts(records, args):
        for plane in planes:
            for key, value in plane.stats().items():
                rec.counts[f"views.wire.{key}"] += value
        planes.clear()

    def traced_factory(task_name, **params):
        return wrap(
            "task.conformance",
            conformance_factory(task_name, **params),
            wire_counts,
        )

    p.set_item(tasks.TASK_FACTORIES, "conformance", traced_factory)

    # the conformance oracle
    rebind("conformance.profile", algorithms.profile_graph)
    rebind("conformance.check", oracle._check_algorithm)
    rebind("conformance.check", oracle._check_orbit_collapse)
    for name, spec in list(algorithms.ALGORITHMS.items()):
        traced = dataclasses.replace(
            spec, prepare=wrap("conformance.prepare", spec.prepare)
        )
        p.set_item(algorithms.ALGORITHMS, name, traced)
    model_runs = oracle._model_runs

    def traced_model_runs(*args, **kwargs):
        return [
            (model, wrap("sim.strict", thunk) if model == "strict" else thunk)
            for model, thunk in model_runs(*args, **kwargs)
        ]

    p.set(oracle, "_model_runs", traced_model_runs)
    wire_wrapped = oracle.wire_wrapped

    def traced_wire_wrapped(factory, plane=None):
        plane = plane if plane is not None else strict.MessagePlane()
        planes.append(plane)
        return wire_wrapped(factory, plane)

    p.set(oracle, "wire_wrapped", traced_wire_wrapped)
    method(strict.WireWrapped, "compose", "views.wire")
    method(strict.WireWrapped, "deliver", "views.wire")

    # the service
    def row_written(new_row, args):
        rec.counts["warehouse.rows_written"] += int(bool(new_row))

    method(api.ServiceCore, "query", "service.api")
    method(cache.ResultCache, "lookup", "service.cache.lookup")
    method(cache.ResultCache, "put", "service.cache.put")
    method(db.Warehouse, "put_cache_entry", "warehouse.put", row_written)
    method(api._Inflight, "wait", "service.inflight.wait")
    method(shard.ShardPool, "compute", "service.shard")
    if service:
        def shard_root(fn):
            traced = wrap("service.shard.compute", fn)

            def compute(*args, **kwargs):
                try:
                    return traced(*args, **kwargs)
                finally:
                    rec.flush()

            return compute

        p.rebind(
            tasks.elect_record_via_orbits,
            shard_root(tasks.elect_record_via_orbits),
        )
        for task in ("index", "quotient", "advice"):
            p.set_item(tasks.TASKS, task, shard_root(tasks.TASKS[task]))

    def undo() -> None:
        global _ACTIVE, _RUN_CHUNK
        p.restore()
        _ACTIVE = _RUN_CHUNK = None

    return undo


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _is_container(name: str) -> bool:
    return name.startswith("task.") or name.startswith("bench.")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    rec: Recorder,
    workers: int,
    wall_s: float,
    untraced_wall_s: float,
    service: Optional[Dict[str, float]] = None,
    passes: int = 1,
) -> Dict[str, float]:
    """The per-layer metrics from what ``rec`` recorded in ``passes``
    traced passes of ``wall_s`` seconds in all (``untraced_wall_s`` for
    the same work untraced); times and counts are per pass.  ``service``
    carries what the HTTP run measured: the ``GET /metrics`` counters and
    ``server_s`` (HTTP latency minus the in-process latency, summed over
    requests)."""
    spans = adopt(rec.spans, "engine.chunk", "engine")
    spans = adopt(spans, "service.shard.compute", "service.shard")
    own = self_times(spans)
    self_s: Dict[str, float] = {}
    dur_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for s in spans:
        self_s[s.name] = self_s.get(s.name, 0.0) + own[s.id]
        dur_s[s.name] = dur_s.get(s.name, 0.0) + s.duration
        calls[s.name] = calls.get(s.name, 0) + 1
    counts = rec.counts
    served = service or {}
    task_s = sum(v for k, v in dur_s.items() if k.startswith("task."))
    decode_calls = calls.get("coding.advice_decode", 0)
    hits = served.get("hits", 0)
    metrics = {
        "coding.advice_decode.self_s": self_s.get("coding.advice_decode", 0.0),
        "coding.advice_decode.calls": decode_calls,
        # every pass decodes the same advice strings
        "coding.advice_decode.distinct_frac": _ratio(
            len(rec.sets.get("advice", ())) * passes, decode_calls
        ),
        "core.advice.self_s": self_s.get("core.advice", 0.0),
        "core.advice.bits": counts["core.advice.bits"],
        "sim.com.self_s": self_s.get("sim.com", 0.0),
        "sim.local_model.self_s": self_s.get("sim.local_model", 0.0),
        "sim.local_model.messages": counts["sim.local_model.messages"],
        "sim.local_model.rounds": counts["sim.local_model.rounds"],
        "views.refinement.self_s": self_s.get("views.refinement", 0.0),
        "core.verify.self_s": self_s.get("core.verify", 0.0),
        "engine.self_s": self_s.get("engine", 0.0)
        + self_s.get("engine.chunk", 0.0),
        "engine.fanout_efficiency": _ratio(task_s, workers * wall_s)
        if "engine" in calls
        else 0.0,
        "graphs.canonical.self_s": self_s.get("graphs.canonical", 0.0),
        "graphs.canonical.calls": calls.get("graphs.canonical", 0),
        "service.server.self_s": served.get("server_s", 0.0),
        "service.api.parse_s": dur_s.get("service.api.parse", 0.0),
        "service.api.self_s": self_s.get("service.api", 0.0),
        "service.cache.lookup_s": dur_s.get("service.cache.lookup", 0.0),
        "service.cache.memory_hits": served.get("memory_hits", 0),
        "service.cache.warehouse_hits": served.get("warehouse_hits", 0),
        "service.cache.misses": served.get("misses", 0),
        "service.cache.hit_ratio": _ratio(hits, hits + served.get("misses", 0)),
        "warehouse.put_s": dur_s.get("warehouse.put", 0.0),
        "warehouse.rows_written": counts["warehouse.rows_written"],
        "service.inflight.wait_s": dur_s.get("service.inflight.wait", 0.0),
        "service.inflight.hits": served.get("inflight_hits", 0),
        "service.shard.compute_s": dur_s.get("service.shard.compute", 0.0),
        "service.shard.overhead_s": self_s.get("service.shard", 0.0),
        "core.orbit_elect.self_s": self_s.get("core.orbit_elect", 0.0),
        "conformance.profile_s": dur_s.get("conformance.profile", 0.0),
        "conformance.prepare_s": dur_s.get("conformance.prepare", 0.0),
        "conformance.check_s": self_s.get("conformance.check", 0.0),
        "sim.strict.run_s": dur_s.get("sim.strict", 0.0),
        "sim.async_model.run_s": dur_s.get("sim.async_model", 0.0),
        "views.wire.self_s": self_s.get("views.wire", 0.0),
        "views.wire.encode_hit_ratio": _ratio(
            counts["views.wire.encode_hits"], counts["views.wire.encode_calls"]
        ),
        "views.wire.decode_hit_ratio": _ratio(
            counts["views.wire.decode_hits"], counts["views.wire.decode_calls"]
        ),
        "trace.overhead_frac": _ratio(wall_s, untraced_wall_s) - 1.0,
        "trace.unattributed_frac": _ratio(
            sum(v for k, v in self_s.items() if _is_container(k)),
            sum(self_s.values()),
        ),
    }
    units = dict(PER_LAYER)
    return {
        name: value / passes if units[name] in ("s", "count", "bits") else value
        for name, value in metrics.items()
    }
