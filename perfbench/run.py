"""Run one benchmark workload, or all of them, and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload elect-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same inputs untraced and traced and reports the per-layer metrics,
writing the spans as a Chrome trace (loadable in Perfetto) under
``.perfbench/``.  Each end-to-end or per-layer metric is
printed on its own line; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when any output was wrong, 2 when the program under test is
missing.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, ROOT]

from perfbench import batch, layers, service, stats  # noqa: E402
from perfbench.spans import Recorder, chrome_trace  # noqa: E402
from perfbench.workloads import WORKLOADS, generate  # noqa: E402

#: Interpreter starts timed for a batch workload's ``setup_s``.
BATCH_SETUPS = 5
#: Server boots timed for a service workload's ``setup_s`` (the last
#: one serves the measured load).
SERVICE_BOOTS = 3
#: What a batch workload imports before its first entry.
BATCH_IMPORTS = {
    "elect-sweep": "import repro.engine, repro.core.elect",
    "conformance-sweep": "import repro.engine, repro.conformance.oracle",
}

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _latency_metrics(latencies: List[float]) -> Tuple[Dict[str, float], str]:
    q, tail = stats.tail(latencies)
    note = f"p{q:g} of {len(latencies)} samples"
    return {
        "latency_p50_ms": stats.median(latencies) * 1e3,
        "latency_tail_ms": tail * 1e3,
    }, note


def run_batch(workload: str, data: Dict, seconds: float, trace: bool, workdir: str):
    from repro.graphs.serialization import from_payload

    layers.import_layers()
    entries = data["entries"]
    task, workers = data["task"], data["workers"]
    corpus = [(name, from_payload(graph)) for name, graph, _ in entries]
    # the task's own lazy imports happen here, untimed, and forked
    # workers inherit them
    name, graph, _ = entries[0]
    batch.run_pass([(name, from_payload(graph))], task, 1)
    if trace:
        # untraced and traced passes alternate, so that machine drift
        # hits both sides of trace.overhead_frac alike
        rec = Recorder(sink_dir=workdir)
        plain, traced = [], []
        while not plain or sum(p[1] for p in plain + traced) < seconds:
            plain.append(batch.run_pass(corpus, task, workers))
            undo = layers.install(rec)
            try:
                traced.append(batch.run_pass(corpus, task, workers, rec))
            finally:
                undo()
        rec.merge_sink()
        passes = plain + traced
        failed = sum(batch.check(entries, p[0]) for p in passes) + sum(
            batch.mismatches(plain[0][0], p[0]) for p in passes[1:]
        )
        metrics = layers.layer_metrics(
            rec, workers, sum(p[1] for p in traced), sum(p[1] for p in plain),
            passes=len(traced),
        )
        notes = {"trace.overhead_frac": f"{len(traced)} traced, "
                 f"{len(plain)} untraced passes; layer figures are per pass"}
        return len(entries) * len(passes), failed, metrics, notes, rec

    setups = []
    for _ in range(BATCH_SETUPS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", BATCH_IMPORTS[workload]],
            env=service.run_env(ROOT),
            check=True,
        )
        setups.append(time.perf_counter() - start)
    passes = []
    failed = 0
    while not passes or sum(p[1] for p in passes) < seconds:
        groups, wall, latencies = batch.run_pass(corpus, task, workers)
        failed += batch.check(entries, groups)
        if passes:
            failed += batch.mismatches(passes[0][0], groups)
        passes.append((groups, wall, latencies))
    attempted = len(entries) * len(passes)
    latencies = [x for p in passes for x in p[2]]
    metrics, note = _latency_metrics(latencies)
    metrics["throughput_per_s"] = attempted / sum(p[1] for p in passes)
    metrics["setup_s"] = stats.median(setups)
    metrics["peak_rss_mb"] = max(
        _peak_rss_mb(resource.RUSAGE_SELF), _peak_rss_mb(resource.RUSAGE_CHILDREN)
    )
    notes = {
        "latency_tail_ms": note,
        "throughput_per_s": f"{attempted} entries in {len(passes)} passes",
        "setup_s": f"median of {BATCH_SETUPS} interpreter starts + import",
    }
    return attempted, failed, metrics, notes, None


def run_service(workload: str, data: Dict, trace: bool, workdir: str):
    requests = data["requests"]
    env = service.run_env(ROOT)
    log = os.path.join(workdir, "serve.log")
    boots = []
    count = 1 if trace else SERVICE_BOOTS
    for i in range(count):
        server = service.Server(env, os.path.join(workdir, f"boot{i}.sqlite"), log)
        boots.append(server.boot_s)
        if i < count - 1:
            server.stop()
    try:
        replies, wall = service.closed_loop(requests, service.http_sender(server.port))
        status, body = server.get("/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics answered {status}")
    finally:
        server.stop()
    peak_rss = _peak_rss_mb(resource.RUSAGE_CHILDREN)
    failed = service.check(requests, replies)
    latencies = [r[2] for r in replies]
    if trace:
        counters = json.loads(body)
        plain, wall0 = service.inprocess_replay(
            requests, os.path.join(workdir, "plain.sqlite")
        )
        rec = Recorder(sink_dir=workdir)
        undo = layers.install(rec, service=True)
        try:
            _, wall1 = service.inprocess_replay(
                requests, os.path.join(workdir, "traced.sqlite"), rec
            )
        finally:
            undo()
        rec.merge_sink()
        http_s, inprocess_s = sum(latencies), sum(r[2] for r in plain)
        counters["server_s"] = http_s - inprocess_s
        metrics = layers.layer_metrics(rec, 1, wall1, wall0, counters)
        notes = {
            "service.server.self_s": f"HTTP {http_s:.3f} s - in-process "
            f"{inprocess_s:.3f} s over {len(requests)} requests",
        }
        return len(requests), failed, metrics, notes, rec
    metrics, note = _latency_metrics(latencies)
    cold = sum(1 for r in replies if r[0] == 200 and not json.loads(r[1])["cached"])
    metrics["throughput_per_s"] = len(requests) / wall
    metrics["setup_s"] = stats.median(boots)
    metrics["peak_rss_mb"] = peak_rss
    notes = {
        "latency_tail_ms": note,
        "throughput_per_s": f"{len(requests)} requests, {cold} cold, "
        f"{service.CLIENTS} keep-alive clients",
        "setup_s": f"median of {SERVICE_BOOTS} server boots to a healthy /healthz",
    }
    return len(requests), failed, metrics, notes, None


def run_one(args) -> int:
    data = generate(args.workload, args.seed, args.size)
    base = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(base, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if data["kind"] == "batch":
            out = run_batch(args.workload, data, args.seconds, args.trace, workdir)
        else:
            out = run_service(args.workload, data, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed, values, notes, rec = out
    names = layers.PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    for name, unit in names:
        note = notes.get(name)
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}"
              + (f"  ({note})" if note else ""))
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    if rec is not None:
        path = os.path.join(base, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(chrome_trace(rec.spans), fh)
        print(f"{args.workload} trace written to {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in a fresh process of its own."""
    merged: Dict[str, Dict] = {}
    attempted = failed = 0
    code = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(int(args.trace)), "--size", args.size],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = code or proc.returncode
        if proc.returncode not in (0, 1) or not lines:
            continue
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            merged[f"{workload}/{name}"] = metric
    print(json.dumps({
        "correct": code == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": merged,
    }))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke-test sizes")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program under test is missing ({SRC}/repro)",
              file=sys.stderr)
        return 2
    args.trace = bool(args.trace)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
