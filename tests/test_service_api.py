"""The transport-free service core: caching, canonical coordinates,
batching, metrics — and the service bench scenario."""

import random

import pytest

from repro.engine.records import record_to_json
from repro.engine.tasks import get_task
from repro.errors import (
    EngineError,
    InfeasibleGraphError,
    ReproError,
    ServiceError,
)
from repro.graphs import (
    canonical_graph,
    graph_fingerprint,
    grid_torus,
    random_tree,
    relabel_nodes,
    ring,
    to_dict,
)
from repro.service import (
    SERVICE_TASKS,
    ResultCache,
    ServiceCore,
    canonical_query_name,
)
from repro.service.api import parse_graph_payload


def relabeled(g, seed=0):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return relabel_nodes(g, perm)


@pytest.fixture()
def core():
    return ServiceCore()


@pytest.fixture()
def tree():
    return random_tree(12, seed=3)


class TestQuery:
    def test_miss_then_hit(self, core, tree):
        r1 = core.query("index", tree)
        assert not r1.cached
        r2 = core.query("index", tree)
        assert r2.cached and r2.record == r1.record

    def test_isomorphic_query_hits_with_identical_bytes(self, core, tree):
        r1 = core.query("elect", tree)
        r2 = core.query("elect", relabeled(tree, seed=5))
        assert r2.cached
        assert record_to_json(r2.record) == record_to_json(r1.record)
        assert r2.fingerprint == r1.fingerprint

    def test_record_matches_offline_engine_record(self, core, tree):
        for task in SERVICE_TASKS:
            result = core.query(task, tree)
            offline = get_task(task)(
                canonical_query_name(result.fingerprint),
                canonical_graph(tree),
            )
            assert record_to_json(result.record) == record_to_json(offline)

    def test_orbit_collapsed_elect_is_byte_identical(self, tree):
        """The default core serves ``elect`` through the orbit-collapsed
        engine; a core with the fast path off (and the cold per-node
        engine task itself) must produce the same record, byte for byte
        — cache contents are independent of the flag."""
        collapsed = ServiceCore()
        assert collapsed.orbit_collapse
        pernode = ServiceCore(orbit_collapse=False)
        r1 = core_record = collapsed.query("elect", tree)
        r2 = pernode.query("elect", tree)
        assert not r1.cached and not r2.cached
        assert record_to_json(r1.record) == record_to_json(r2.record)
        offline = get_task("elect")(
            canonical_query_name(core_record.fingerprint),
            canonical_graph(tree),
        )
        assert record_to_json(r1.record) == record_to_json(offline)

    def test_to_canonical_translates_leader(self, core, tree):
        h = relabeled(tree, seed=8)
        result = core.query("elect", h)
        leader_canonical = result.record["leader"]
        from_canonical = {
            lab: u for u, lab in enumerate(result.to_canonical)
        }
        leader_local = from_canonical[leader_canonical]
        # the translated leader is the node the offline pipeline elects
        # on the submitted labeling (elections are anonymous)
        from repro.core import run_elect

        assert run_elect(h).leader == leader_local

    def test_unknown_task_rejected_uncounted(self, core, tree):
        with pytest.raises(ServiceError, match="unknown service task"):
            core.query("messages", tree)
        assert core.metrics()["errors"] == 0

    def test_task_failure_counted_as_error(self, core):
        with pytest.raises(InfeasibleGraphError):
            core.query("elect", ring(6))
        metrics = core.metrics()
        assert metrics["errors"] == 1 and metrics["misses"] == 0

    def test_payload_shape(self, core, tree):
        payload = core.query("quotient", tree).payload()
        assert payload["task"] == "quotient"
        assert payload["name"] == canonical_query_name(payload["fingerprint"])
        assert payload["record"]["name"] == payload["name"]
        assert sorted(payload["to_canonical"]) == list(range(tree.n))

    def test_unknown_engine_task_fails_at_construction(self):
        with pytest.raises(EngineError):
            ServiceCore(tasks=("no-such-task",))


class TestBatch:
    def test_mixed_hits_misses_duplicates(self, core, tree):
        pre = core.query("index", tree)  # pre-existing cache entry
        torus = grid_torus(3, 4)
        results = core.batch(
            [
                ("index", relabeled(tree, seed=1)),  # hit (isomorphic)
                ("index", torus),  # miss
                ("index", relabeled(torus, seed=2)),  # duplicate miss
                ("quotient", torus),  # miss, different task
            ]
        )
        assert [r.cached for r in results] == [True, False, False, False]
        assert record_to_json(results[0].record) == record_to_json(pre.record)
        assert results[1].record == results[2].record
        metrics = core.metrics()
        # honest per-item accounting: the pre-query miss plus the two
        # unique cold keys are misses; the pre-existing entry's hit is
        # a memory hit and the duplicate torus item rode the one compute
        # (an inflight hit), not a second miss
        assert metrics["hits"] == 2 and metrics["misses"] == 3
        assert metrics["memory_hits"] == 1
        assert metrics["inflight_hits"] == 1

    def test_batch_records_match_single_queries(self, tree):
        batch_core, single_core = ServiceCore(), ServiceCore()
        graphs = [tree, grid_torus(3, 3), ring(7)]
        batched = batch_core.batch([("index", g) for g in graphs])
        for g, result in zip(graphs, batched):
            assert record_to_json(result.record) == record_to_json(
                single_core.query("index", g).record
            )

    def test_batch_failure_counts_errors(self, core):
        with pytest.raises(ReproError):
            core.batch([("elect", ring(6))])
        assert core.metrics()["errors"] == 1

    def test_batch_failure_still_accounts_other_items(self, core, tree):
        """A failing task group fails the whole batch, but hits stay
        hits and records computed before the failure count as misses —
        they were cached, and the next query will hit them."""
        pre = core.query("index", tree)  # 1 miss
        with pytest.raises(ReproError):
            core.batch(
                [
                    ("index", tree),  # hit
                    ("quotient", ring(6)),  # computes fine
                    ("elect", ring(6)),  # infeasible: fails the batch
                    ("elect", ring(6)),  # duplicate failing request
                ]
            )
        metrics = core.metrics()
        assert metrics["hits"] == 1
        assert metrics["errors"] == 2  # per request, not per unique graph
        # quotient either computed before elect failed (a counted miss,
        # and a cache entry the next query hits) or never ran (an error)
        quotient = metrics["tasks"]["quotient"]
        assert quotient["misses"] + quotient["errors"] == 1
        if quotient["misses"]:
            assert core.query("quotient", ring(6)).cached

    def test_batch_unknown_task_rejected_before_compute(self, core, tree):
        with pytest.raises(ServiceError):
            core.batch([("index", tree), ("nope", tree)])

    def test_cold_cache_batch_still_answers(self, tree):
        core = ServiceCore(ResultCache(capacity=0))
        results = core.batch([("index", tree), ("index", tree)])
        assert [r.cached for r in results] == [False, False]
        assert results[0].record == results[1].record


class TestBatchMetricsAccounting:
    """The honest per-item accounting the metrics sweep pinned down:
    duplicates of a cold key are one miss plus inflight hits, every item
    is charged its own latency (not the batch average), and the error
    path charges real latencies too."""

    def test_duplicate_cold_key_is_one_miss_plus_inflight_hits(self, core):
        torus = grid_torus(3, 4)
        core.batch(
            [
                ("index", torus),
                ("index", relabeled(torus, seed=1)),
                ("index", relabeled(torus, seed=2)),
            ]
        )
        metrics = core.metrics()
        assert metrics["misses"] == 1
        assert metrics["hits"] == 2 and metrics["inflight_hits"] == 2
        assert metrics["errors"] == 0

    def test_hit_latency_is_lookup_not_batch_average(self):
        """Pin the per-item charge directly: one pre-cached hit batched
        with one cold compute must record a hit latency far below the
        miss latency (the old code charged both the same average)."""
        core = ServiceCore()
        tree = random_tree(12, seed=3)
        core.query("index", tree)
        index_warmup_s = core.metrics()["tasks"]["index"]["latency_s"]
        core.batch([("index", tree), ("elect", random_tree(16, seed=7))])
        tasks = core.metrics()["tasks"]
        hit_s = tasks["index"]["latency_s"] - index_warmup_s
        miss_s = tasks["elect"]["latency_s"]
        assert tasks["index"]["hits"] == 1 and tasks["elect"]["misses"] == 1
        assert 0 < hit_s < miss_s

    def test_error_path_charges_latency(self, core, tree):
        """On a failed batch the surviving hit and the errors must carry
        nonzero latency (the old error path recorded 0.0 for all)."""
        core.query("index", tree)
        index_warmup_s = core.metrics()["tasks"]["index"]["latency_s"]
        with pytest.raises(ReproError):
            core.batch([("index", tree), ("elect", ring(6))])
        tasks = core.metrics()["tasks"]
        assert tasks["index"]["hits"] == 1 and tasks["index"]["misses"] == 1
        assert tasks["index"]["latency_s"] > index_warmup_s
        assert tasks["elect"]["errors"] == 1
        assert tasks["elect"]["latency_s"] > 0


class TestComputeLifecycle:
    def test_view_caches_cleared_after_each_query(self, core):
        """One query is the service's view-cache lifetime (the engine's
        one-chunk discipline): a long-running server must not grow the
        global intern table per distinct query graph."""
        from repro.views.view import intern_table_size

        for seed in range(4):
            core.query("elect", random_tree(14, seed=seed * 3))
        assert intern_table_size() == 0

    def test_view_caches_cleared_even_on_task_failure(self, core):
        from repro.views.view import intern_table_size

        with pytest.raises(InfeasibleGraphError):
            core.query("elect", ring(8))
        assert intern_table_size() == 0

    def test_concurrent_mixed_traffic_is_consistent(self):
        """Single queries and batches race from many threads; every
        answer must equal the serial reference (the compute lock keeps
        the global view caches coherent across request threads)."""
        import threading

        graphs = [random_tree(12 + i, seed=i) for i in range(4)]
        reference = {
            i: ServiceCore().query("elect", g).record
            for i, g in enumerate(graphs)
        }
        core = ServiceCore()
        failures = []

        def single(i):
            try:
                record = core.query("elect", graphs[i]).record
                if record != reference[i]:
                    failures.append(("single", i, record))
            except Exception as exc:  # noqa: BLE001 - collected for assert
                failures.append(("single", i, repr(exc)))

        def batch():
            try:
                results = core.batch([("elect", g) for g in graphs])
                for i, result in enumerate(results):
                    if result.record != reference[i]:
                        failures.append(("batch", i, result.record))
            except Exception as exc:  # noqa: BLE001
                failures.append(("batch", None, repr(exc)))

        threads = [
            threading.Thread(target=single, args=(i % 4,)) for i in range(8)
        ] + [threading.Thread(target=batch) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert failures == []


class TestMetrics:
    def test_totals_sum_task_counters(self, core, tree):
        core.query("index", tree)
        core.query("index", tree)
        core.query("quotient", tree)
        metrics = core.metrics()
        assert metrics["hits"] == 1 and metrics["misses"] == 2
        assert metrics["tasks"]["index"]["hits"] == 1
        assert metrics["tasks"]["quotient"]["misses"] == 1
        assert metrics["latency_s"] > 0
        assert metrics["cache"]["memory_entries"] == 2

    def test_uptime_advances(self, core):
        assert core.metrics()["uptime_s"] >= 0


class TestGraphPayload:
    def test_plain_dict(self, tree):
        assert parse_graph_payload(to_dict(tree)) == tree

    def test_emit_envelope(self, tree):
        assert (
            parse_graph_payload({"name": "x", "graph": to_dict(tree)}) == tree
        )

    @pytest.mark.parametrize(
        "payload",
        [None, 17, [], {"edges": "nope"}, {"n": 3}, {"graph": None}],
    )
    def test_malformed_rejected(self, payload):
        with pytest.raises(ServiceError):
            parse_graph_payload(payload)

    def test_disconnected_rejected(self):
        with pytest.raises(ServiceError, match="invalid graph"):
            parse_graph_payload({"n": 4, "edges": [[0, 0, 1, 0]]})


class TestQuotientTask:
    def test_record_shape(self):
        record = get_task("quotient")("t", grid_torus(3, 3))
        assert record["feasible"] is False
        assert record["num_classes"] == 1 and record["class_sizes"] == [9]
        feasible = get_task("quotient")("t", random_tree(10, seed=1))
        assert feasible["feasible"] is True
        assert feasible["class_sizes"] == [1] * 10


def _bench_cases(scenario):
    """Run one quick bench scenario through the driver; the record must
    validate."""
    from repro.analysis.bench import (
        SCENARIOS,
        make_bench_record,
        measure,
        validate_bench_record,
    )

    with SCENARIOS[scenario](True) as table:
        cases = [measure(row) for row in table]
    validate_bench_record(make_bench_record(scenario, cases, quick=True))
    return cases


def test_bench_service_scenario_quick():
    cases = _bench_cases("service")
    assert [c["case"] for c in cases] == ["warm-single", "warm-batch"]
    for case in cases:
        assert case["speedup_vs_cold"] > 1
        assert case["cold_seconds"] > case["seconds"]


def test_bench_service_load_scenario_quick():
    """The load scenario must cover both cache temperatures and the whole
    concurrency sweep, with coherent latency stats and the ratio the CI
    gate reads.  (No speedup *bar* here: on a 1-2 CPU box sharding
    measures ~1x — the ≥2x gate lives in CI's service-load-smoke on a
    multi-core runner.)"""
    cases = _bench_cases("service-load")
    assert [c["case"] for c in cases] == [
        "cold-shard-c1", "cold-shard-c8", "warm-shard-c1", "warm-shard-c8",
    ]
    for case in cases:
        assert case["seconds"] > 0 and case["qps"] > 0
        assert case["qps"] == pytest.approx(case["queries"] / case["seconds"])
        assert 0 < case["p50_ms"] <= case["p99_ms"]
        assert case["queries"] == 12 and case["clients"] in (1, 8)
        assert case["shards"] >= 2
        assert case["speedup_vs_inproc"] > 0 and case["inproc_seconds"] > 0


def test_bench_elect_orbit_scenario_quick():
    """The elect-orbit scenario must carry the in-run per-node
    comparison the CI gate reads, and the vertex-transitive cases must
    clear the gate's 3x bar (the quick cases are sized so even a noisy
    CI box clears it with slack — full mode measures 20-40x)."""
    cases = _bench_cases("elect-orbit")
    assert {c["family"] for c in cases} == {"vertex-transitive", "lifts"}
    for case in cases:
        assert case["orbits"] <= case["n"]
        assert case["speedup_vs_pernode"] > 0
        if case["family"] == "vertex-transitive":
            assert case["orbits"] == 1
            assert case["speedup_vs_pernode"] >= 3
