"""Decode-once parity: sharing one decoded advice per run is invisible.

Every node receives the same advice bits and decoding is a pure function
of them, so the simulator decodes each advice string once
(:func:`repro.core.advice.decode_shared`) and all nodes of a run read the
same result, including one RetrieveLabel memo keyed on interned views.
These tests pin every node's output to what the spec computes for that
node alone — ``decode_advice`` + ``path_to_root_ports`` for Elect, the
per-node map walk and rank lookup for the two advice baselines — on every
feasible graph of the exhaustive <= 5-node atlas (two port maps each) and
on the corpus prefixes the other suites use.
"""

import pytest

from repro.baselines.map_based import (
    MapBasedAlgorithm,
    _lex_shortest_port_path,
    map_advice,
)
from repro.baselines.naive_rank import (
    NaiveRankAlgorithm,
    encode_view_nested,
    naive_rank_advice,
)
from repro.coding import decode_tree
from repro.coding.concat import decode_concat
from repro.core import compute_advice
from repro.core.advice import decode_advice, decode_shared
from repro.core.elect import ElectAlgorithm, decode_elect_advice
from repro.core.labels import retrieve_label
from repro.corpus import iter_corpus
from repro.graphs import lollipop
from repro.sim import run_sync
from repro.views import (
    clear_view_caches,
    election_index,
    is_feasible,
    truncate_view,
    view_min,
    views_of_graph,
)

from tests.conftest import feasible_corpus
from tests.test_exhaustive_small import INSTANCES


def _cases():
    cases = [(name, g) for name, g in INSTANCES if is_feasible(g)]
    cases += feasible_corpus()
    for spec in ("random-trees:8", "caterpillars:8"):
        cases += [(name, g) for name, g in iter_corpus(spec) if is_feasible(g)][:4]
    return cases


CASES = _cases()


def _flat(pairs):
    return tuple(x for pair in pairs for x in pair)


def test_cases_cover_the_atlas_and_the_corpora():
    names = [name for name, _ in CASES]
    assert sum(name.startswith("atlas-") for name in names) >= 20
    assert any(name.startswith("random-trees") for name in names)
    assert any(name.startswith("caterpillars") for name in names)


@pytest.mark.parametrize("name_g", CASES, ids=lambda p: p[0])
def test_elect_outputs_and_labels_match_the_spec(name_g):
    _, g = name_g
    clear_view_caches()
    bundle = compute_advice(g)
    result = run_sync(g, ElectAlgorithm, advice=bundle.bits, max_rounds=bundle.phi + 2)
    tree = decode_advice(bundle.bits)[3]
    for v in g.nodes():
        spec = _flat(tree.path_to_root_ports(bundle.labels[v]))
        assert result.outputs[v] == spec, (name_g[0], v)
    # the labels read through the run's shared memo are the oracle's
    decoded = decode_shared(bundle.bits, decode_elect_advice)
    views = views_of_graph(g, bundle.phi)
    labels = {v: retrieve_label(views[v], decoded.labeling) for v in g.nodes()}
    assert labels == bundle.labels
    assert decoded.paths == {
        label: _flat(tree.path_to_root_ports(label)) for label in tree.labels()
    }
    clear_view_caches()


@pytest.mark.parametrize("name_g", CASES, ids=lambda p: p[0])
def test_advice_baselines_match_the_per_node_spec(name_g):
    _, g = name_g
    clear_view_caches()
    phi = election_index(g)
    views = views_of_graph(g, phi)
    leader = views.index(view_min(views))

    result = run_sync(g, MapBasedAlgorithm, advice=map_advice(g, phi))
    for v in g.nodes():
        assert result.outputs[v] == _lex_shortest_port_path(g, v, leader)

    advice = naive_rank_advice(g, phi)
    parts = decode_concat(advice)
    ranks = {bits.as_str(): i + 1 for i, bits in enumerate(decode_concat(parts[1]))}
    tree = decode_tree(parts[2])
    result = run_sync(g, NaiveRankAlgorithm, advice=advice)
    for v in g.nodes():
        rank = ranks[encode_view_nested(views[v]).as_str()]
        assert result.outputs[v] == _flat(tree.path_to_root_ports(rank))
    clear_view_caches()


def test_views_deeper_than_the_recursion_limit_are_labeled():
    """A view's label past depth phi is its depth-phi truncation's label
    (there are no E2 layers beyond phi); computing it walks a chain of
    truncations ~1500 deep, which must not recurse."""
    clear_view_caches()
    g = lollipop(4, 3)
    bundle = compute_advice(g)
    decoded = decode_shared(bundle.bits, decode_elect_advice)
    deep = views_of_graph(g, 1500)
    shallow = views_of_graph(g, bundle.phi)
    for v in g.nodes():
        assert truncate_view(deep[v], bundle.phi) is shallow[v]
        assert retrieve_label(deep[v], decoded.labeling) == bundle.labels[v]
    clear_view_caches()
