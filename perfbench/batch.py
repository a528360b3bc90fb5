"""The batch workloads: ``repro.engine.run_stream`` over a generated
corpus, in this process.

An untraced run repeats whole passes over the corpus until the run has
measured for ``seconds``; a traced run makes one untraced and one traced
pass over the same corpus.  Every pass is checked (see :func:`check`),
and records must be identical across passes, traced or not.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

from perfbench.spans import Recorder

Pass = Tuple[Dict[str, str], float, List[float]]


def run_pass(
    corpus: List[Tuple[str, object]],
    task: str,
    workers: int,
    rec: Optional[Recorder] = None,
) -> Pass:
    """One pass: ``(entry name -> its records as canonical JSON, wall
    seconds, per-entry latencies)``.  An entry's latency runs from the
    engine pulling it off the stream to its record (group) being yielded."""
    from repro.engine import EngineConfig, record_to_json, run_stream

    pulled: Dict[str, float] = {}

    def stream():
        for name, graph in corpus:
            pulled[name] = time.perf_counter()
            yield name, graph

    groups: Dict[str, List[str]] = {}
    latencies: List[float] = []
    start = time.perf_counter()
    with rec.span("engine") if rec is not None else nullcontext():
        for record in run_stream(stream(), task, EngineConfig(workers=workers)):
            entry = record.get("entry", record["name"])
            groups.setdefault(entry, []).append(record_to_json(record))
            if record["name"] == entry:
                latencies.append(time.perf_counter() - pulled[entry])
    wall = time.perf_counter() - start
    return {k: "\n".join(v) for k, v in groups.items()}, wall, latencies


def check(entries, groups: Dict[str, str]) -> int:
    """Failed entries in one pass.  ``elect``: the record matches the
    graph and its independently computed phi, and the election took phi
    rounds.  ``conformance``: zero disagreements, and feasibility and phi
    match the independent computation."""
    failed = 0
    for name, graph, phi in entries:
        if name not in groups:
            failed += 1
            continue
        summary = json.loads(groups[name].rsplit("\n", 1)[-1])
        if summary["task"] == "elect":
            ok = (
                summary["n"] == graph["n"]
                and summary["phi"] == phi
                and summary["election_time"] == phi
                and 0 <= summary["leader"] < graph["n"]
            )
        else:
            ok = (
                summary["total_disagreements"] == 0
                and summary["feasible"] == (phi is not None)
                and summary["phi"] == phi
            )
        failed += not ok
    return failed


def mismatches(a: Dict[str, str], b: Dict[str, str]) -> int:
    """Entries whose records differ between two passes."""
    return sum(a.get(name) != b.get(name) for name in set(a) | set(b))
