"""The benchmark's own tests: span arithmetic, the percentile rule, the
workload generator, and a tiny-size smoke run of every workload."""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

from perfbench import stats
from perfbench.spans import Recorder, Span, adopt, covered, self_times
from perfbench.workloads import WHY, WORKLOADS, election_index, generate

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def _span(sid, parent, start, end, name="x"):
    return Span(sid, parent, name, start, end, None, 1, 1)


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert covered([(2, 3), (2, 3)], 0, 10) == 1
    assert covered([(11, 12), (-5, -1)], 0, 10) == 0
    assert covered([], 0, 10) == 0


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(1, 0, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 6.0),  # overlaps span 2 (a parallel child)
        _span(4, 1, 8.0, 12.0),  # runs past its parent's end
        _span(5, 2, 1.5, 2.0),  # a grandchild: only span 2 loses it
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(2.5)
    assert own[3] == pytest.approx(3.0)
    assert own[5] == pytest.approx(0.5)


def test_adopt_picks_innermost_containing_host():
    spans = [
        _span(1, 0, 0.0, 10.0, "host"),
        _span(2, 1, 2.0, 6.0, "host"),
        _span(3, 0, 3.0, 5.0, "worker"),
        _span(4, 0, 7.0, 11.0, "worker"),  # no host contains it
    ]
    out = {s.id: s for s in adopt(spans, "worker", "host")}
    assert out[3].parent == 2
    assert out[4].parent == 0


def _record_in_child(rec):
    with rec.span("child"):
        rec.counts["n"] += 2
        rec.add("keys", 7)
    rec.flush()


def test_forked_worker_spans_hang_under_the_open_parent(tmp_path):
    rec = Recorder(sink_dir=str(tmp_path))
    ctx = multiprocessing.get_context("fork")
    with rec.span("parent"):
        proc = ctx.Process(target=_record_in_child, args=(rec,))
        proc.start()
        proc.join(timeout=60)
    assert proc.exitcode == 0
    rec.merge_sink()
    by_name = {s.name: s for s in rec.spans}
    assert by_name["child"].parent == by_name["parent"].id
    assert by_name["child"].pid != by_name["parent"].pid
    assert rec.counts["n"] == 2 and rec.sets["keys"] == {7}


# ----------------------------------------------------------------------
# the percentile rule
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond():
    assert stats.percentile(range(1000), 99) == 989
    assert stats.percentile(range(999), 99) is None
    assert stats.percentile(range(100), 90) == 89
    assert stats.percentile(range(99), 90) is None


def test_tail_picks_highest_reportable_percentile():
    assert stats.tail(list(range(1040)))[0] == 99
    assert stats.tail(list(range(150)))[0] == 90
    assert stats.tail(list(range(40)))[0] == 75
    assert stats.tail(list(range(20))) == (50, stats.median(range(20)))


# ----------------------------------------------------------------------
# the workload generator
# ----------------------------------------------------------------------
def _shape(data):
    if data["kind"] == "batch":
        kinds = Counter(name.split("-")[0] for name, _, _ in data["entries"])
        trees = sorted((g["n"], phi) for name, g, phi in data["entries"]
                       if name.startswith("tree"))
        phis = Counter(phi for _, _, phi in data["entries"])
        return data["task"], data["workers"], kinds, trees, phis
    tasks = Counter(task for _, task, _ in data["requests"])
    return len(data["graphs"]), len(data["requests"]), tasks


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs_other_seed_same_shape(workload):
    a, b = generate(workload, 5), generate(workload, 5)
    assert a == b
    c = generate(workload, 6)
    assert c != a
    assert _shape(c) == _shape(a)


def test_election_index_matches_the_program():
    from repro.graphs.serialization import from_payload
    from repro.views.refinement import stable_partition

    for name, graph, phi in generate("conformance-sweep", 2)["entries"]:
        stable = stable_partition(from_payload(graph))
        assert election_index(graph) == phi
        assert phi == (stable.depth if stable.discrete else None), name


# ----------------------------------------------------------------------
# smoke runs
# ----------------------------------------------------------------------
def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_runner():
    from perfbench.layers import PER_LAYER
    from perfbench.run import END_TO_END

    spec = _benchmark_json()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WHY
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, "--seed", "3", "--seconds", "0.1",
         "--size", "tiny", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300,
    )


def test_all_workloads_emit_every_end_to_end_metric():
    spec = _benchmark_json()
    proc = _run("--workload", "all", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    for workload in WORKLOADS:
        for metric in spec["end_to_end"]:
            got = result["metrics"][f"{workload}/{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert got["value"] > 0, (workload, metric["name"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    spec = _benchmark_json()
    proc = _run("--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["trace.unattributed_frac"]["value"] <= 0.10


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "elect-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
