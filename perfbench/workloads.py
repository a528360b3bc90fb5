"""The benchmark's workloads: inputs as a pure function of (workload, seed).

Graphs are built here, in plain Python, as the canonical graph dicts the
program accepts (``{"n": n, "edges": [[u, p, v, q], ...]}``), so the
program under test only ever receives generated inputs and a change to
its own generators cannot change a workload.  Sizes are stratified (an
even spread over each range, shuffled by the seed) so that another seed
gives a workload of the same shape; the seed picks the structure, the
port numbering and the order.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Optional, Tuple

GraphDict = Dict[str, object]

#: One line per workload, with its sizes: why it is in the benchmark
#: (``BENCHMARK.json`` carries the same lines).
WHY = {
    "elect-sweep": "batch run_stream elect, 1 worker, 40 feasible graphs (30 "
    "random trees n 40-120, 10 caterpillars spine 8-16): the paper's full "
    "pipeline; compute layers busy, service layers idle",
    "service-elect-mix": "repro serve, 2 keep-alive clients, 1040 POST "
    "/v1/elect over fresh relabelings of 50 trees (n 20-60) picked by "
    "Zipf(1.1): warm cache hits beside ~5% cold computes and writes",
    "service-index-large": "repro serve, 2 keep-alive clients, 150 POST "
    "/v1/index and /v1/quotient (3:1) on 75 graphs, n 400-1500, each sent "
    "twice: canonical form and parsing dominate; advice and sim idle",
    "conformance-sweep": "batch run_stream conformance (2 schedules), 2 forked "
    "workers, 32 graphs (trees, caterpillars, lifts, tori): strict wire, "
    "async model and baselines run; service layers idle",
}

WORKLOADS = tuple(WHY)

#: Sizes per workload: ``full`` is the benchmark, ``tiny`` the smoke test.
#: Trees and caterpillars are given as ``((phi, count), ...)`` in size
#: order: the election index of each slot is fixed, like its size, because
#: the cost of an entry grows with n^2 * phi and a seed that drew more
#: phi-4 trees would otherwise run slower.
SIZES = {
    "elect-sweep": {
        "full": {"trees": ((2, 3), (3, 24), (4, 3)), "tree_n": (40, 120),
                 "cats": ((2, 10),), "spine": (8, 16), "chunk": 8},
        "tiny": {"trees": ((2, 3),), "tree_n": (10, 14),
                 "cats": ((2, 1),), "spine": (4, 4), "chunk": 8},
    },
    "conformance-sweep": {
        "full": {"trees": ((2, 12), (3, 4)), "tree_n": (14, 28),
                 "cats": ((2, 8),), "spine": (4, 10), "lifts": 4, "ring": (4, 10),
                 "tori": 4, "side": (3, 9), "chunk": 8, "workers": 2},
        "tiny": {"trees": ((2, 2),), "tree_n": (8, 10),
                 "cats": ((2, 1),), "spine": (4, 4), "lifts": 1, "ring": (4, 4),
                 "tori": 1, "side": (3, 3), "chunk": 8, "workers": 2},
    },
    "service-elect-mix": {
        "full": {"trees": ((2, 25), (3, 25)), "tree_n": (20, 60), "requests": 1040,
                 "zipf_s": 1.1},
        "tiny": {"trees": ((2, 6),), "tree_n": (10, 14), "requests": 24,
                 "zipf_s": 1.1},
    },
    "service-index-large": {
        "full": {"per_family": 25, "n": (400, 1500), "quotient_share": 0.25},
        "tiny": {"per_family": 1, "n": (30, 60), "quotient_share": 0.25},
    },
}


# ----------------------------------------------------------------------
# graphs
# ----------------------------------------------------------------------
def _with_random_ports(
    n: int, pairs: List[Tuple[int, int]], rng: random.Random
) -> GraphDict:
    """Number each node's incident edges ``0..deg-1`` in random order."""
    incident: List[List[int]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(pairs):
        incident[u].append(i)
        incident[v].append(i)
    port: Dict[Tuple[int, int], int] = {}
    for u in range(n):
        order = incident[u][:]
        rng.shuffle(order)
        for p, i in enumerate(order):
            port[(i, u)] = p
    edges = [[u, port[(i, u)], v, port[(i, v)]] for i, (u, v) in enumerate(pairs)]
    return {"n": n, "edges": edges}


def random_tree(n: int, rng: random.Random) -> GraphDict:
    """Uniform-attachment tree with random ports."""
    pairs = [(rng.randrange(i), i) for i in range(1, n)]
    return _with_random_ports(n, pairs, rng)


def caterpillar(spine: int, rng: random.Random, max_legs: int = 3) -> GraphDict:
    """A path of ``spine`` nodes, each with 0..max_legs leaves; random ports."""
    pairs = [(i, i + 1) for i in range(spine - 1)]
    n = spine
    for i in range(spine):
        for _ in range(rng.randint(0, max_legs)):
            pairs.append((i, n))
            n += 1
    return _with_random_ports(n, pairs, rng)


def _connected(n: int, pairs: List[Tuple[int, int]]) -> bool:
    adj: List[List[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def random_regular(n: int, d: int, rng: random.Random) -> GraphDict:
    """Simple connected d-regular graph from the pairing model (redrawn
    until simple and connected); random ports."""
    while True:
        stubs = [u for u in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        pairs = list(zip(stubs[::2], stubs[1::2]))
        keys = {(min(u, v), max(u, v)) for u, v in pairs}
        if len(keys) == len(pairs) and all(u != v for u, v in pairs):
            if _connected(n, pairs):
                return _with_random_ports(n, pairs, rng)


def pendant_ring_lift(ring: int, k: int, rng: random.Random) -> GraphDict:
    """A connected k-fold cover of a ring with one pendant node (ring
    ports 0 = forward, 1 = back, the pendant on port 2 of node 0):
    infeasible by construction."""
    base = [(i, 0, (i + 1) % ring, 1) for i in range(ring)] + [(0, 2, ring, 0)]
    n = (ring + 1) * k
    while True:
        edges = []
        for u, p, v, q in base:
            perm = list(range(k))
            rng.shuffle(perm)
            edges.extend([u * k + i, p, v * k + perm[i], q] for i in range(k))
        if _connected(n, [(e[0], e[2]) for e in edges]):
            return {"n": n, "edges": edges}


def torus(rows: int, cols: int) -> GraphDict:
    """rows x cols torus, ports 0 = east, 1 = west, 2 = south, 3 = north."""
    def node(r: int, c: int) -> int:
        return (r % rows) * cols + (c % cols)

    edges = []
    for r in range(rows):
        for c in range(cols):
            edges.append([node(r, c), 0, node(r, c + 1), 1])
            edges.append([node(r, c), 2, node(r + 1, c), 3])
    return {"n": rows * cols, "edges": edges}


def relabel(graph: GraphDict, rng: random.Random) -> GraphDict:
    """A port-isomorphic copy under a random renaming of the nodes."""
    perm = list(range(graph["n"]))
    rng.shuffle(perm)
    return {
        "n": graph["n"],
        "edges": [[perm[u], p, perm[v], q] for u, p, v, q in graph["edges"]],
    }


def election_index(graph: GraphDict) -> Optional[int]:
    """phi: the least depth at which all augmented truncated views are
    distinct, by port-aware colour refinement; None when infeasible.
    Independent of the program, so it doubles as a correctness check."""
    n = graph["n"]
    degree = [0] * n
    for u, p, v, q in graph["edges"]:
        degree[u] += 1
        degree[v] += 1
    adj: List[List[Tuple[int, int]]] = [[(0, 0)] * degree[u] for u in range(n)]
    for u, p, v, q in graph["edges"]:
        adj[u][p] = (v, q)
        adj[v][q] = (u, p)
    cls = degree
    count = len(set(cls))
    depth = 0
    while count < n:
        ids: Dict[object, int] = {}
        cls = [
            ids.setdefault(
                (cls[u], tuple((q, cls[v]) for v, q in adj[u])), len(ids)
            )
            for u in range(n)
        ]
        depth += 1
        if len(ids) == count:
            return None
        count = len(ids)
    return depth


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def _spread(lo: int, hi: int, k: int) -> List[int]:
    """``k`` integers spread evenly over ``[lo, hi]``."""
    if k == 1:
        return [lo]
    return [lo + (hi - lo) * i // (k - 1) for i in range(k)]


def _with_phi(make, rng: random.Random, phi: int) -> Tuple[GraphDict, int]:
    """Draw graphs until one has election index ``phi``."""
    while True:
        g = make(rng)
        if election_index(g) == phi:
            return g, phi


def _balanced_chunks(
    kinds: List[List[Tuple[str, GraphDict, Optional[int]]]],
    num_chunks: int,
    rng: random.Random,
) -> List[Tuple[str, GraphDict, Optional[int]]]:
    """Deal each kind's entries (sorted by size) to the chunks in snake
    order, so every engine chunk carries a like mix of sizes; shuffle
    within each chunk."""
    chunks: List[list] = [[] for _ in range(num_chunks)]
    for entries in kinds:
        ordered = sorted(entries, key=lambda e: e[1]["n"])
        for i, entry in enumerate(ordered):
            lap, pos = divmod(i, num_chunks)
            chunks[pos if lap % 2 == 0 else num_chunks - 1 - pos].append(entry)
    out = []
    for chunk in chunks:
        rng.shuffle(chunk)
        out.extend(chunk)
    return out


def _slots(runs, size_range) -> List[Tuple[int, int]]:
    """``(size, phi)`` per slot: sizes spread over the range, phis from
    the ``((phi, count), ...)`` runs in size order."""
    phis = [phi for phi, count in runs for _ in range(count)]
    return list(zip(_spread(*size_range, len(phis)), phis))


def _trees(rng: random.Random, runs, n_range) -> List:
    return [
        (f"tree-{i:02d}-n{n}",)
        + _with_phi(lambda r, n=n: random_tree(n, r), rng, phi)
        for i, (n, phi) in enumerate(_slots(runs, n_range))
    ]


def _caterpillars(rng: random.Random, runs, spine_range) -> List:
    return [
        (f"cat-{i:02d}-s{sp}",)
        + _with_phi(lambda r, sp=sp: caterpillar(sp, r), rng, phi)
        for i, (sp, phi) in enumerate(_slots(runs, spine_range))
    ]


def _batch(task: str, workers: int, kinds: List[List], chunk: int,
           rng: random.Random) -> Dict:
    total = sum(len(k) for k in kinds)
    entries = _balanced_chunks(kinds, -(-total // chunk), rng)
    return {"kind": "batch", "task": task, "workers": workers, "entries": entries}


def _elect_sweep(rng: random.Random, s: Dict) -> Dict:
    kinds = [
        _trees(rng, s["trees"], s["tree_n"]),
        _caterpillars(rng, s["cats"], s["spine"]),
    ]
    return _batch("elect", 1, kinds, s["chunk"], rng)


def _conformance_sweep(rng: random.Random, s: Dict) -> Dict:
    trees = _trees(rng, s["trees"], s["tree_n"])
    cats = _caterpillars(rng, s["cats"], s["spine"])
    lifts = [
        (f"lift-{i:02d}-r{ring}", pendant_ring_lift(ring, 2 + i % 2, rng), None)
        for i, ring in enumerate(_spread(*s["ring"], s["lifts"]))
    ]
    sides = _spread(*s["side"], 2 * s["tori"])
    rng.shuffle(sides)
    tori = [
        (f"torus-{i:02d}", torus(sides[2 * i], sides[2 * i + 1]), None)
        for i in range(s["tori"])
    ]
    return _batch("conformance:schedules=2,seed=0", s["workers"],
                  [trees, cats, lifts, tori], s["chunk"], rng)


def _body(graph: GraphDict) -> bytes:
    return json.dumps(graph, separators=(",", ":")).encode("ascii")


def _service_elect_mix(rng: random.Random, s: Dict) -> Dict:
    graphs = [graph for _, graph, _ in _trees(rng, s["trees"], s["tree_n"])]
    rng.shuffle(graphs)  # Zipf rank i is graphs[i]
    weights = [1.0 / (rank + 1) ** s["zipf_s"] for rank in range(len(graphs))]
    picks = rng.choices(range(len(graphs)), weights=weights, k=s["requests"])
    requests = [(k, "elect", _body(relabel(graphs[k], rng))) for k in picks]
    return {"kind": "service", "graphs": graphs, "requests": requests}


def _service_index_large(rng: random.Random, s: Dict) -> Dict:
    sizes = _spread(*s["n"], s["per_family"])
    graphs = []
    for n in sizes:
        graphs.append(random_tree(n, rng))
        graphs.append(random_regular(n + n % 2, 3, rng))
        graphs.append(caterpillar(max(2, (2 * n) // 5), rng))
    quotients = round(len(graphs) * s["quotient_share"])
    tasks = ["quotient"] * quotients + ["index"] * (len(graphs) - quotients)
    rng.shuffle(tasks)
    order = [k for k in range(len(graphs)) for _ in range(2)]
    rng.shuffle(order)
    requests = [(k, tasks[k], _body(relabel(graphs[k], rng))) for k in order]
    return {"kind": "service", "graphs": graphs, "requests": requests}


_GENERATORS = {
    "elect-sweep": _elect_sweep,
    "conformance-sweep": _conformance_sweep,
    "service-elect-mix": _service_elect_mix,
    "service-index-large": _service_index_large,
}


def generate(workload: str, seed: int, size: str = "full") -> Dict:
    """The inputs of ``workload`` for ``seed`` — the same seed gives the
    same inputs.  Batch workloads give ``entries`` of ``(name, graph,
    phi or None)``; service workloads give ``graphs`` and ``requests`` of
    ``(graph index, task, request body)``."""
    if workload not in _GENERATORS:
        raise ValueError(
            f"unknown workload '{workload}'; known: {', '.join(WORKLOADS)}"
        )
    rng = random.Random(f"{workload}/{seed}")
    return _GENERATORS[workload](rng, SIZES[workload][size])
