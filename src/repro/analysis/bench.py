"""``repro bench``: the same-run ratio cases the CI gates read.

The benchmark of record is ``perfbench/``.  This module keeps what only
a same-run ratio shows: how much a fast path beats its reference on the
identical workload, in one process, so no recorded number depends on
the machine it was taken on.  Each scenario is a table of
:class:`RatioCase` rows, all timed by one driver, :func:`measure`.
Records use the ``repro-bench/2`` schema, whose single authority is
:func:`validate_bench_record`.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Dict, Iterator, List, Sequence

from repro.errors import BenchSchemaError, ReproError

BENCH_SCHEMA = "repro-bench/2"

#: Alternated timed runs per side of every case.
K = 5

#: One measured case inside a scenario record.
Case = Dict[str, Any]


@dataclass(frozen=True)
class RatioCase:
    """One row of a scenario table.  ``build()`` makes the inputs both
    sides run on; ``subject`` is timed against ``reference``; ``parity``
    projects each side's return value onto what must agree between them.
    ``versus`` names the reference in the record keys
    (``speedup_vs_<versus>``, ``<versus>_seconds``), and ``info`` adds
    the case's descriptive fields once timing is done."""

    case: str
    versus: str
    build: Callable[[], Any]
    subject: Callable[[Any], Any]
    reference: Callable[[Any], Any]
    parity: Callable[[Any], Any] = lambda answer: answer
    info: Callable[[Any, Case], Dict[str, Any]] = lambda inputs, case: {}


def compare(subject: Sequence[float], reference: Sequence[float], versus: str) -> Case:
    """Median and interquartile range of both samples, the ratio of the
    medians, and ``inconclusive`` when the two quartile ranges overlap."""
    s_q1, s_med, s_q3 = statistics.quantiles(subject, n=4, method="inclusive")
    r_q1, r_med, r_q3 = statistics.quantiles(reference, n=4, method="inclusive")
    return {
        "seconds": s_med,
        "seconds_iqr": s_q3 - s_q1,
        f"{versus}_seconds": r_med,
        f"{versus}_seconds_iqr": r_q3 - r_q1,
        f"speedup_vs_{versus}": r_med / s_med,
        "inconclusive": s_q1 <= r_q3 and r_q1 <= s_q3,
    }


def measure(row: RatioCase) -> Case:
    """The one timing-and-parity driver.  Each side runs once, untimed,
    and a disagreement raises before any clock starts; then ``K``
    alternated timed runs of subject and reference, each after
    ``clear_view_caches()``."""
    from repro.views import clear_view_caches

    inputs = row.build()
    sides = (row.subject, row.reference)
    # one cache epoch for both answers: views are interned, so answers
    # holding views compare equal only within an epoch
    clear_view_caches()
    answers = [row.parity(fn(inputs)) for fn in sides]
    if answers[0] != answers[1]:
        raise ReproError(
            f"{row.case}: subject and reference disagree — refusing to "
            f"time a broken path"
        )
    samples: List[List[float]] = [[], []]
    for _ in range(K):
        for fn, out in zip(sides, samples):
            clear_view_caches()
            t0 = time.perf_counter()
            fn(inputs)
            out.append(time.perf_counter() - t0)
    case: Case = {"case": row.case, "repeats": K}
    case.update(compare(samples[0], samples[1], row.versus))
    case.update(row.info(inputs, case))
    return case


# Scenarios are generators yielding their table; code after the yield
# releases what the rows share (worker pools, scratch directories).
def _strict(quick: bool) -> Iterator[List[RatioCase]]:
    """Strict-wire election, the memoized codec against the seed codec,
    per graph family.  ``bound="wire"`` cases are serialization-dominated
    (dense lollipop views recur across ports and rounds), ``"compute"``
    ones advice-decode-dominated, where the codec caches help less.
    Parity compares the whole ``RunResult`` (outputs, rounds, message
    counts) and every node's ``bits_sent``."""
    from repro.core.advice import compute_advice
    from repro.core.elect import ElectAlgorithm
    from repro.graphs.generators import caterpillar, lollipop, random_tree
    from repro.sim import run_sync
    from repro.sim.strict import MessagePlane, seed_wire_wrapped, wire_wrapped

    # sizes chosen so every graph is feasible (compute_advice raises)
    legs = (1, 3, 0, 2, 4, 0, 1, 2) + (() if quick else (5, 0, 3, 1, 2, 0, 4, 1))
    tail = 12 if quick else 20
    trees = [(24, 2)] if quick else [(60, 2), (90, 4)]
    specs = [
        (f"elect-wire-tree-n{n}", "random-trees", "compute",
         lambda n=n, seed=seed: random_tree(n, seed=seed))
        for n, seed in trees
    ] + [
        (f"elect-wire-caterpillar-s{len(legs)}", "caterpillars", "compute",
         lambda: caterpillar(len(legs), legs)),
        (f"elect-wire-lollipop-k8t{tail}", "lollipops", "wire",
         lambda: lollipop(8, tail)),
    ]

    def inputs(build: Callable) -> Dict[str, Any]:
        g = build()
        return {"g": g, "advice": compute_advice(g).bits}

    def run(x: Dict[str, Any], make_factory: Callable) -> tuple:
        instances: List[Any] = []

        def factory():
            instances.append(make_factory())
            return instances[-1]

        result = run_sync(x["g"], factory, advice=x["advice"])
        return result, [a.bits_sent for a in instances]

    def fast(x: Dict[str, Any]) -> tuple:
        x["plane"] = MessagePlane()
        return run(x, wire_wrapped(ElectAlgorithm, x["plane"]))

    yield [
        RatioCase(
            case=name,
            versus="seed",
            build=lambda build=build: inputs(build),
            subject=fast,
            reference=lambda x: run(x, seed_wire_wrapped(ElectAlgorithm)),
            info=lambda x, case, family=family, bound=bound: {
                "n": x["g"].n,
                "family": family,
                "bound": bound,
                **x["plane"].stats(),
            },
        )
        for name, family, bound, build in specs
    ]


def _elect_orbit(quick: bool) -> Iterator[List[RatioCase]]:
    """The uniform-advice depth-T view probe (the COM core every election
    algorithm starts with) once per behavior class against once per
    node; the subject pays its partition too."""
    from repro.core.orbit_elect import behavior_classes, run_view_probe
    from repro.graphs.generators import cycle_with_leader_gadget as gadget
    from repro.graphs.generators import grid_torus, hypercube, lift, ring

    n, side, dim, r, depth = (256, 10, 6, 12, 8) if quick else (1024, 24, 8, 40, 10)
    specs = [
        (f"probe-ring-n{n}", "vertex-transitive", lambda: ring(n), depth),
        (f"probe-torus-{side}x{side + 1}", "vertex-transitive",
         lambda: grid_torus(side, side + 1), depth),
        (f"probe-hypercube-d{dim}", "vertex-transitive",
         lambda: hypercube(dim), dim),
        (f"probe-lift-r{r}x3", "lifts",
         lambda: lift(gadget(r), 3, seed=5), depth),
    ]
    yield [
        RatioCase(
            case=name,
            versus="pernode",
            build=build,
            subject=lambda g, depth=depth: run_view_probe(g, depth),
            reference=lambda g, depth=depth: run_view_probe(
                g, depth, collapsed=False
            ),
            info=lambda g, case, family=family, depth=depth: {
                "n": g.n,
                "family": family,
                "depth": depth,
                "orbits": behavior_classes(g).num_orbits,
            },
        )
        for name, family, build, depth in specs
    ]


def _feasible(graphs: Iterator, count: int) -> List:
    """The first ``count`` feasible graphs of a ``(name, graph)`` stream
    (elect rejects infeasible graphs; tree families mix both)."""
    from repro.views.refinement import stable_partition

    feasible = (g for _name, g in graphs if stable_partition(g).discrete)
    return list(islice(feasible, count))


def _fresh_payloads(graphs: Sequence) -> None:
    """A real client ships a fresh payload per request: drop the derived
    caches so every timed query pays its canonicalization."""
    for g in graphs:
        g._csr_cache = None
        g._canon_cache = None


def _answers(results: Sequence) -> List:
    """Query results up to the ``cached`` flag, which is what differs
    between a warm and a cold core."""
    return [(r.fingerprint, r.to_canonical, r.record) for r in results]


def _service(quick: bool) -> Iterator[List[RatioCase]]:
    """A repeated-query mix — tree-family graphs under fresh node
    relabelings — served from a warm cache against a cold core
    (capacity 0: every query computes), one query at a time and as one
    batch."""
    import random

    from repro.corpus import get_family
    from repro.graphs.canonical import relabel_nodes
    from repro.service.api import ServiceCore
    from repro.service.cache import ResultCache

    per_family, relabelings, n, spine = (
        (3, 3, (16, 40), (4, 8)) if quick else (6, 5, (30, 80), (8, 16))
    )
    families = (
        ("random-trees", dict(min_n=n[0], max_n=n[1])),
        ("caterpillars", dict(min_spine=spine[0], max_spine=spine[1])),
    )
    bases = []
    for family, params in families:
        stream = get_family(family).generate(per_family * 4, seed=0, **params)
        bases += _feasible(stream, per_family)
    rng = random.Random(7)
    queries = [
        relabel_nodes(g, rng.sample(range(g.n), g.n))
        for _ in range(relabelings)
        for g in bases
    ]

    def run_single(core: ServiceCore) -> List:
        _fresh_payloads(queries)
        return [core.query("elect", g) for g in queries]

    def run_batch(core: ServiceCore) -> List:
        _fresh_payloads(queries)
        return core.batch([("elect", g) for g in queries])

    def cores() -> Dict[str, ServiceCore]:
        warm = ServiceCore(ResultCache())
        for g in bases:
            warm.query("elect", g)
        return {"warm": warm, "cold": ServiceCore(ResultCache(capacity=0))}

    yield [
        RatioCase(
            case=f"warm-{mode}",
            versus="cold",
            build=cores,
            subject=lambda c, run=run: run(c["warm"]),
            reference=lambda c, run=run: run(c["cold"]),
            parity=_answers,
            info=lambda c, case: {"queries": len(queries)},
        )
        for mode, run in (("single", run_single), ("batch", run_batch))
    ]


def _service_load(quick: bool) -> Iterator[List[RatioCase]]:
    """Distinct feasible graphs, each queried once by 1/8/64 client
    threads, through the fingerprint-sharded core against the in-process
    core; cold cases measure compute throughput (sharding only pays on a
    multi-core box), warm ones the lookup path.  Cases carry ``qps`` and
    the sharded path's per-query ``p50_ms``/``p99_ms``."""
    from concurrent.futures import ThreadPoolExecutor

    from repro.corpus import get_family
    from repro.engine.engine import available_parallelism
    from repro.service.api import ServiceCore
    from repro.service.cache import ResultCache

    if quick:
        num_graphs, concurrencies = 12, (1, 8)
        params = dict(min_n=14, max_n=28)
    else:
        num_graphs, concurrencies = 64, (1, 8, 64)
        params = dict(min_n=30, max_n=60)
    shards = max(2, min(4, available_parallelism()))
    stream = get_family("random-trees").generate(num_graphs * 4, seed=11, **params)
    graphs = _feasible(stream, num_graphs)

    def run_clients(x: Dict[str, Any], mode: str) -> List:
        """One sweep: every graph queried once by ``clients`` closed-loop
        client threads; the results in graph order.  A sharded sweep also
        keeps its per-query latencies."""
        _fresh_payloads(graphs)

        def query(g) -> tuple:
            q0 = time.perf_counter()
            result = x[mode].query("elect", g)
            return result, time.perf_counter() - q0

        with ThreadPoolExecutor(x["clients"]) as pool:
            results, latencies = zip(*pool.map(query, graphs))
        if mode == "shard":
            x["sweeps"].append(latencies)
        return list(results)

    def info(x: Dict[str, Any], case: Case) -> Dict[str, Any]:
        # the first sweep is the untimed parity run
        latencies = [t for sweep in x["sweeps"][1:] for t in sweep]
        cuts = statistics.quantiles(latencies, n=100, method="inclusive")
        return {
            "clients": x["clients"],
            "queries": len(graphs),
            "shards": shards,
            "qps": len(graphs) / case["seconds"],
            "p50_ms": 1000.0 * cuts[49],
            "p99_ms": 1000.0 * cuts[98],
        }

    cores: Dict[tuple, ServiceCore] = {}
    try:
        for mode, n_shards in (("inproc", 0), ("shard", shards)):
            cores["cold", mode] = ServiceCore(ResultCache(capacity=0), shards=n_shards)
            cores["warm", mode] = warm = ServiceCore(ResultCache(), shards=n_shards)
            for g in graphs:
                warm.query("elect", g)
        yield [
            RatioCase(
                case=f"{temp}-shard-c{clients}",
                versus="inproc",
                build=lambda temp=temp, clients=clients: {
                    "shard": cores[temp, "shard"],
                    "inproc": cores[temp, "inproc"],
                    "clients": clients,
                    "sweeps": [],
                },
                subject=lambda x: run_clients(x, "shard"),
                reference=lambda x: run_clients(x, "inproc"),
                parity=_answers,
                info=info,
            )
            for temp in ("cold", "warm")
            for clients in concurrencies
        ]
    finally:
        for core in cores.values():
            core.close()


def _warehouse(quick: bool) -> Iterator[List[RatioCase]]:
    """Service warm-up from an (untimed) sweep's output: one indexed join
    against the results warehouse, with the corpus re-stream (which
    regenerates every graph and recomputes its certificate) as the
    reference.  Parity compares the two warmed caches."""
    import shutil
    import tempfile

    from repro.analysis.sweep import sweep_to_store
    from repro.corpus import get_family
    from repro.engine import open_result_store
    from repro.service.cache import ResultCache, warm_from_stores, warm_from_warehouse
    from repro.warehouse import Warehouse, export_dataset

    count = 150 if quick else 1000

    def corpus():
        return get_family("random-trees").generate(
            count, seed=0, min_n=10, max_n=24
        )

    def warm(how: str, warmer: Callable[[ResultCache], int]) -> Dict:
        cache = ResultCache(capacity=count)
        warmed = warmer(cache)
        if warmed != count:
            raise ReproError(f"warehouse scenario: {how} warmed {warmed}/{count}")
        return cache._entries

    tmp = tempfile.mkdtemp(prefix="repro-bench-warehouse-")
    try:
        wh_path = os.path.join(tmp, "results.sqlite")
        store_path = os.path.join(tmp, "sweep.jsonl")
        with open_result_store(wh_path, dataset="sweep") as store:
            sweep_to_store(corpus(), "index", store)
        with Warehouse(wh_path) as wh:
            export_dataset(wh, "sweep", store_path)
        yield [
            RatioCase(
                case=f"warm-warehouse-n{count}",
                versus="restream",
                build=lambda: (store_path, wh_path),
                subject=lambda paths: warm(
                    "join", lambda cache: warm_from_warehouse(cache, paths[1])
                ),
                reference=lambda paths: warm(
                    "re-stream",
                    lambda cache: warm_from_stores(
                        cache, [paths[0]], corpus()
                    )[0],
                ),
                info=lambda paths, case: {"entries": count},
            )
        ]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


SCENARIOS = {
    name: contextmanager(fn)
    for name, fn in (
        ("strict", _strict),
        ("elect-orbit", _elect_orbit),
        ("service", _service),
        ("service-load", _service_load),
        ("warehouse", _warehouse),
    )
}


def make_bench_record(
    scenario: str, cases: List[Case], quick: bool, kind: str = "timing"
) -> Dict[str, Any]:
    """The canonical ``BENCH_<scenario>.json`` record: measured cases, or
    (``kind="table"``) the twin of a prose bench, whose one case carries
    ``{"case", "title", "text"}``."""
    from repro.warehouse.db import env_fingerprint

    return {
        "schema": BENCH_SCHEMA,
        "kind": kind,
        "scenario": scenario,
        "quick": quick,
        "env": env_fingerprint(),
        "cases": cases,
    }


def validate_bench_record(record: Any) -> None:
    """Raise :class:`ReproError` unless ``record`` is a well-formed
    ``repro-bench/2`` record (the CI schema gate) — specifically
    :class:`BenchSchemaError` when it carries another schema."""

    def fail(msg: str) -> None:
        raise ReproError(f"malformed bench record: {msg}")

    if not isinstance(record, dict):
        fail(f"expected an object, got {type(record).__name__}")
    if record.get("schema") != BENCH_SCHEMA:
        raise BenchSchemaError(
            f"bench record schema is {record.get('schema')!r}; this build "
            f"reads only '{BENCH_SCHEMA}' (a 'repro-bench/1' record divides "
            f"by another machine's baseline: re-run `repro bench`)"
        )
    kind = record.get("kind")
    if kind not in ("timing", "table"):
        fail(f"kind must be 'timing' or 'table', got {kind!r}")
    scenario = record.get("scenario")
    if not isinstance(scenario, str) or not scenario:
        fail("scenario must be a non-empty string")
    if not isinstance(record.get("quick"), bool):
        fail("quick must be a boolean")
    env = record.get("env")
    if not isinstance(env, dict) or not env.get("python") or not env.get("platform"):
        fail("env must carry at least python and platform")
    cases = record.get("cases")
    if not isinstance(cases, list) or not cases:
        fail("cases must be a non-empty list")
    for i, case in enumerate(cases):
        if not isinstance(case, dict) or not isinstance(case.get("case"), str):
            fail(f"cases[{i}] must be an object with a string 'case'")
        if kind == "table":
            if not isinstance(case.get("text"), str):
                fail(f"cases[{i}].text must be a string (kind=table)")
            continue
        if not isinstance(case.get("repeats"), int) or case["repeats"] < K:
            fail(f"cases[{i}].repeats must be an integer >= {K}")
        if not isinstance(case.get("inconclusive"), bool):
            fail(f"cases[{i}].inconclusive must be a boolean")
        ratios = [key for key in case if key.startswith("speedup_vs_")]
        if len(ratios) != 1:
            fail(f"cases[{i}] must carry exactly one speedup_vs_* ratio")
        versus = ratios[0][len("speedup_vs_"):]
        for key in ("seconds", "seconds_iqr", f"{versus}_seconds",
                    f"{versus}_seconds_iqr", ratios[0]):
            if not isinstance(case.get(key), (int, float)) or case[key] < 0:
                fail(f"cases[{i}].{key} must be a non-negative number")


def write_json(path: str, payload: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def check_bench_dir(out_dir: str) -> List[str]:
    """Validate every ``BENCH_*.json`` under ``out_dir``; raise
    :class:`ReproError` on a malformed record or if none exist."""
    if not os.path.isdir(out_dir):
        raise ReproError(f"bench output directory '{out_dir}' does not exist")
    paths = sorted(
        os.path.join(out_dir, name)
        for name in os.listdir(out_dir)
        if name.startswith("BENCH_") and name.endswith(".json")
    )
    if not paths:
        raise ReproError(f"no BENCH_*.json records under '{out_dir}'")
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                validate_bench_record(json.load(fh))
        except json.JSONDecodeError as exc:
            raise ReproError(f"{path}: not valid JSON ({exc})") from None
        except ReproError as exc:
            raise type(exc)(f"{path}: {exc}") from None
    return paths


def run_from_args(args) -> int:
    """Execute a parsed ``repro bench`` invocation (flags defined on the
    CLI subparser in :mod:`repro.cli`): run the named scenarios and write
    one validated ``BENCH_<scenario>.json`` each under ``--out-dir``.

    With ``--warehouse``, the records are also stored in the results
    warehouse under one ``bench`` provenance run labeled ``--label`` —
    the rows ``repro report --trend`` renders as a cross-run table.  The
    BENCH files stay the wire format: ``repro warehouse export --bench``
    writes them back byte-identical."""
    if args.check is not None:
        paths = check_bench_dir(args.check)
        print(f"{len(paths)} bench record(s) valid under {args.check}")
        return 0
    names = (
        [s.strip() for s in args.scenario.split(",") if s.strip()]
        if args.scenario
        else sorted(SCENARIOS)
    )
    unknown = [s for s in names if s not in SCENARIOS]
    if unknown:
        raise ReproError(
            f"unknown scenario(s) {', '.join(unknown)}; "
            f"available: {', '.join(sorted(SCENARIOS))}"
        )
    os.makedirs(args.out_dir, exist_ok=True)
    records = []
    for scenario in names:
        print(f"scenario {scenario} ({'quick' if args.quick else 'full'}) ...")
        cases = []
        with SCENARIOS[scenario](args.quick) as table:
            for row in table:
                cases.append(measure(row))
                print(
                    f"  {row.case}: {cases[-1]['seconds']:.4f}s, "
                    f"{cases[-1][f'speedup_vs_{row.versus}']:.2f}x "
                    f"{row.versus}"
                    + (" (inconclusive)" if cases[-1]["inconclusive"] else ""),
                    flush=True,
                )
        records.append(make_bench_record(scenario, cases, args.quick))
        validate_bench_record(records[-1])
        write_json(os.path.join(args.out_dir, f"BENCH_{scenario}.json"), records[-1])
    if args.warehouse is not None:
        from repro.warehouse import Warehouse

        with Warehouse(args.warehouse) as wh:
            run_id = wh.begin_run("bench", args.label)
            for record in records:
                wh.append_bench(record, run_id)
            wh.finish_run(run_id)
        print(f"{len(records)} record(s) stored in {args.warehouse} (run {run_id})")
    print(f"{len(records)} record(s) written to {args.out_dir}")
    return 0
