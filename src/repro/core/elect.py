"""Algorithm 6 (Elect): leader election in minimum time phi.

Node side of Theorem 3.1.  Each node decodes (phi, E1, E2, A2) from the
advice, runs COM for phi rounds to acquire B^phi(u), computes its unique
label x = RetrieveLabel(B^phi(u), E1, E2), locates itself in the decoded
BFS tree through x, and outputs the port sequence of the tree path from x
to the root (label 1).

The decode is a pure function of the advice bits, which every node
receives identically, so the simulator decodes each advice string once
(:func:`~repro.core.advice.decode_shared`) and every node reads the same
:class:`DecodedAdvice`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.coding.bitstring import Bits
from repro.core.advice import (
    AdviceBundle,
    compute_advice,
    decode_advice,
    decode_shared,
    labeling_context_from_advice,
)
from repro.core.labels import LabelingContext, retrieve_label
from repro.core.verify import ElectionOutcome, verify_election
from repro.errors import AdviceError, CodingError
from repro.graphs.port_graph import PortGraph
from repro.obs import core as obs
from repro.sim.com import ViewAccumulator
from repro.sim.local_model import NodeAlgorithm, NodeContext, RunResult, run_sync


@dataclass(frozen=True)
class DecodedAdvice:
    """Elect's read-only view of one advice string: phi, the labeling
    context built from (E1, E2), and ``label -> flat port path to the
    root`` for every label of the decoded BFS tree."""

    phi: int
    labeling: LabelingContext
    paths: Dict[int, Tuple[int, ...]]


def decode_elect_advice(bits: Bits) -> DecodedAdvice:
    """Decode the oracle's advice into a :class:`DecodedAdvice`."""
    phi, e1, e2, tree = decode_advice(bits)
    return DecodedAdvice(
        phi, labeling_context_from_advice(e1, e2), tree.flat_paths_to_root()
    )


class ElectAlgorithm:
    """Per-node algorithm; requires ``ctx.advice`` from ComputeAdvice."""

    def __init__(self):
        self._acc: Optional[ViewAccumulator] = None
        self._decoded: Optional[DecodedAdvice] = None

    def setup(self, ctx: NodeContext) -> None:
        if ctx.advice is None:
            raise AdviceError("Elect requires the oracle's advice string")
        self._decoded = decode_shared(ctx.advice, decode_elect_advice)
        self._acc = ViewAccumulator(ctx.degree)

    def compose(self, ctx: NodeContext):
        # COM(i): keep exchanging views every round (harmlessly also after
        # the output is committed; see the engine's round semantics).
        return self._acc.outgoing()

    def deliver(self, ctx: NodeContext, inbox) -> None:
        self._acc.absorb(inbox)
        decoded = self._decoded
        if self._acc.depth == decoded.phi and not ctx.has_output:
            label = retrieve_label(self._acc.view, decoded.labeling)
            path = decoded.paths.get(label)
            if path is None:
                raise CodingError(f"label {label} not present in tree")
            ctx.output(path)


@dataclass
class ElectRunRecord:
    """End-to-end record of one Elect run (oracle + simulation + verify)."""

    n: int
    phi: int
    advice_bits: int
    election_time: int
    leader: int
    total_messages: int

    @classmethod
    def from_run(
        cls, g: PortGraph, bundle: AdviceBundle, result: RunResult, outcome: ElectionOutcome
    ) -> "ElectRunRecord":
        return cls(
            n=g.n,
            phi=bundle.phi,
            advice_bits=bundle.size_bits,
            election_time=result.election_time,
            leader=outcome.leader,
            total_messages=result.total_messages,
        )


def run_elect(
    g: PortGraph, bundle: Optional[AdviceBundle] = None, paranoid: bool = False
) -> ElectRunRecord:
    """Full Theorem 3.1 pipeline: ComputeAdvice -> simulate Elect -> verify.

    Asserts the two properties of the theorem that are checkable per run:
    the leader is the oracle's label-1 node and the election time is
    exactly phi.
    """
    with obs.span("elect.run", nodes=g.n) as sp:
        if bundle is None:
            with obs.span("elect.advice"):
                bundle = compute_advice(g)
        # run_sync opens its own child span (sim.run) carrying the
        # per-round message/DAG accounting
        result = run_sync(
            g,
            ElectAlgorithm,
            advice=bundle.bits,
            max_rounds=bundle.phi + 2,
            paranoid=paranoid,
        )
        with obs.span("elect.verify"):
            outcome = verify_election(g, result.outputs)
        if sp.recording:
            sp.set("phi", bundle.phi)
            sp.set("advice_bits", bundle.size_bits)
        if outcome.leader != bundle.root:
            raise AdviceError(
                f"elected node {outcome.leader} differs from the oracle's "
                f"root {bundle.root}"
            )
        if result.election_time != bundle.phi:
            raise AdviceError(
                f"election time {result.election_time} != phi = {bundle.phi}"
            )
        return ElectRunRecord.from_run(g, bundle, result, outcome)
