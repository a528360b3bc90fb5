"""Full-map advice: elect in time phi with Theta(m log n) bits.

The oracle ships ``Concat(bin(phi), bits(map))``.  A node acquires
B^phi(u) in phi rounds, recomputes the depth-phi views of every map node,
locates itself (views are distinct at depth phi), and outputs the
lexicographically-smallest shortest path to the map node with the
canonically smallest view — the procedure in Proposition 2.1's proof.

This is the baseline ComputeAdvice beats: same minimum election time,
advice a factor ~average-degree larger (measured by the ablation bench).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.coding.bitstring import Bits
from repro.coding.concat import concat_bits, decode_concat
from repro.coding.integers import decode_uint, encode_uint
from repro.core.advice import decode_shared
from repro.core.verify import verify_election
from repro.errors import AdviceError, AlgorithmError
from repro.graphs.port_graph import PortGraph
from repro.graphs.serialization import from_json, to_json
from repro.sim.com import ViewAccumulator
from repro.sim.local_model import NodeContext, run_sync
from repro.views.election_index import election_index
from repro.views.order import view_min
from repro.views.view import View, views_of_graph


def _text_to_bits(text: str) -> Bits:
    return Bits("".join(format(b, "08b") for b in text.encode("utf-8")))


def _bits_to_text(bits: Bits) -> str:
    s = bits.as_str()
    if len(s) % 8 != 0:
        raise AdviceError("map payload is not byte-aligned")
    data = bytes(int(s[i : i + 8], 2) for i in range(0, len(s), 8))
    return data.decode("utf-8")


def map_advice(g: PortGraph, phi: Optional[int] = None) -> Bits:
    """Concat(bin(phi), utf8-bits of the canonical JSON of the map)."""
    if phi is None:
        phi = election_index(g)
    return concat_bits([encode_uint(phi), _text_to_bits(to_json(g))])


@dataclass(frozen=True)
class DecodedMap:
    """The map advice decoded once per run: phi, the map, the map nodes
    carrying each depth-phi view, and the canonical leader."""

    phi: int
    map: PortGraph
    nodes_by_view: Dict[View, Tuple[int, ...]]
    leader: int


def decode_map_advice(advice: Bits) -> DecodedMap:
    """Parse ``Concat(bin(phi), map)`` and compute the map's depth-phi
    views and the node with the canonically smallest one."""
    parts = decode_concat(advice)
    if len(parts) != 2:
        raise AdviceError("map advice must be Concat(bin(phi), map)")
    phi = decode_uint(parts[0])
    g = from_json(_bits_to_text(parts[1]))
    map_views = views_of_graph(g, phi)
    nodes_by_view: Dict[View, Tuple[int, ...]] = {}
    for v in g.nodes():
        nodes_by_view[map_views[v]] = nodes_by_view.get(map_views[v], ()) + (v,)
    leader = nodes_by_view[view_min(map_views)][0]
    return DecodedMap(phi, g, nodes_by_view, leader)


class MapBasedAlgorithm:
    """Per-node algorithm: decode the map, COM for phi rounds, locate
    yourself, walk to the canonical leader."""

    def __init__(self):
        self._acc: Optional[ViewAccumulator] = None
        self._decoded: Optional[DecodedMap] = None

    def setup(self, ctx: NodeContext) -> None:
        if ctx.advice is None:
            raise AdviceError("map-based election requires the map advice")
        self._decoded = decode_shared(ctx.advice, decode_map_advice)
        self._acc = ViewAccumulator(ctx.degree)

    def compose(self, ctx: NodeContext):
        return self._acc.outgoing()

    def deliver(self, ctx: NodeContext, inbox) -> None:
        self._acc.absorb(inbox)
        decoded = self._decoded
        if ctx.has_output or self._acc.depth < decoded.phi:
            return
        matches = decoded.nodes_by_view.get(self._acc.view, ())
        if len(matches) != 1:
            raise AlgorithmError(
                f"self-localization found {len(matches)} map nodes with my "
                "view; the map or phi in the advice is wrong"
            )
        ctx.output(_lex_shortest_port_path(decoded.map, matches[0], decoded.leader))


def _lex_shortest_port_path(g: PortGraph, start: int, goal: int) -> Tuple[int, ...]:
    """Lexicographically smallest among shortest port-pair paths."""
    best: Dict[int, Tuple[int, ...]] = {start: ()}
    frontier = {start: ()}
    while frontier:
        if goal in frontier:
            return frontier[goal]
        nxt: Dict[int, Tuple[int, ...]] = {}
        for u, path in frontier.items():
            for p in range(g.degree(u)):
                v, q = g.neighbor(u, p)
                if v in best:
                    continue
                candidate = path + (p, q)
                if v not in nxt or candidate < nxt[v]:
                    nxt[v] = candidate
        best.update(nxt)
        frontier = nxt
    raise AlgorithmError(f"no path from {start} to {goal} in the map")


@dataclass
class MapBasedRecord:
    n: int
    phi: int
    advice_bits: int
    election_time: int
    leader: int


def run_map_based(g: PortGraph, phi: Optional[int] = None) -> MapBasedRecord:
    """Pipeline: map advice -> simulate -> verify -> assert time == phi."""
    if phi is None:
        phi = election_index(g)
    advice = map_advice(g, phi)
    result = run_sync(g, MapBasedAlgorithm, advice=advice, max_rounds=phi + 1)
    outcome = verify_election(g, result.outputs)
    if result.election_time != phi:
        raise AlgorithmError(
            f"map-based election took {result.election_time} != phi = {phi}"
        )
    return MapBasedRecord(
        n=g.n,
        phi=phi,
        advice_bits=len(advice),
        election_time=result.election_time,
        leader=outcome.leader,
    )
