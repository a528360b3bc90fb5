"""Oracle parity: the near-linear BuildTrie and RetrieveLabel are the seed
procedures, only faster.

The seed builder (rescan and re-sort per split) and the seed RetrieveLabel
(an O(label) sum over the smaller labels of a layer) stay in the source as
``_build_trie_spec`` / ``_retrieve_label_spec``.  These tests run
ComputeAdvice through both and require identical advice bits, tries,
labels and leader, and compare ``build_trie`` with the spec on random sets
of distinct views at depth 1 and at depth >= 2.
"""

import random
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.core import advice as advice_mod
from repro.core import compute_advice
from repro.core.advice import labeling_context_from_advice
from repro.core.labels import LabelingContext, _retrieve_label_spec, retrieve_label
from repro.core.trie_builder import _build_trie_spec, build_trie
from repro.corpus import iter_corpus
from repro.graphs import lollipop, star
from repro.views import clear_view_caches, is_feasible, truncate_view, views_of_graph

from tests.conftest import feasible_corpus
from tests.test_exhaustive_small import INSTANCES


def _cases():
    cases = [(name, g) for name, g in INSTANCES if is_feasible(g)]
    cases += feasible_corpus()
    for spec in ("random-trees:8", "caterpillars:8"):
        cases += [(name, g) for name, g in iter_corpus(spec) if is_feasible(g)][:4]
    cases += [(f"star-{k}", star(k)) for k in (2, 7, 64, 301, 1000)]
    cases.append(("lollipop-4-40", lollipop(4, 40)))
    return cases


CASES = _cases()


@contextmanager
def _spec_oracle():
    """ComputeAdvice with the seed BuildTrie and RetrieveLabel."""
    with mock.patch.object(advice_mod, "build_trie", _build_trie_spec), \
            mock.patch.object(advice_mod, "retrieve_label", _retrieve_label_spec):
        yield


def test_cases_cover_the_atlas_corpora_and_stars():
    names = [name for name, _ in CASES]
    assert sum(name.startswith("atlas-") for name in names) >= 20
    assert any(name.startswith("random-trees") for name in names)
    assert any(name.startswith("caterpillars") for name in names)
    assert sum(name.startswith("star-") for name in names) == 5


@pytest.mark.parametrize("name_g", CASES, ids=lambda p: p[0])
def test_compute_advice_matches_the_spec(name_g):
    _, g = name_g
    clear_view_caches()
    with _spec_oracle():
        spec = compute_advice(g)
    clear_view_caches()
    fast = compute_advice(g)
    assert fast.bits == spec.bits
    assert fast.e1 == spec.e1
    assert fast.e2 == spec.e2
    assert fast.labels == spec.labels
    assert fast.root == spec.root
    clear_view_caches()


def _depth1_pool():
    pool = set()
    graphs = [star(40), lollipop(5, 6)]
    graphs += [g for _, g in iter_corpus("random-trees:6")]
    graphs += [g for _, g in iter_corpus("caterpillars:6")]
    for g in graphs:
        pool.update(views_of_graph(g, 1))
    return sorted(pool, key=id)


@pytest.mark.parametrize("seed", range(8))
def test_build_trie_matches_the_spec_at_depth_1(seed):
    clear_view_caches()
    pool = _depth1_pool()
    rng = random.Random(seed)
    for _ in range(25):
        sample = rng.sample(pool, rng.randint(1, len(pool)))
        fast = build_trie(sample, LabelingContext())
        assert fast == _build_trie_spec(sample, LabelingContext())
        assert fast.num_leaves() == len(sample)
    clear_view_caches()


def _deep_groups(g, bundle):
    """Sets of distinct depth-d views (2 <= d <= phi) sharing one
    depth-(d-1) truncation: the sets ComputeAdvice hands BuildTrie."""
    for d in range(2, bundle.phi + 1):
        groups = {}
        for view in set(views_of_graph(g, d)):
            groups.setdefault(truncate_view(view, d - 1), []).append(view)
        for group in groups.values():
            if len(group) > 1:
                yield sorted(group, key=id)


@pytest.mark.parametrize("spec", ["random-trees:6", "caterpillars:6", "lollipop"])
def test_build_trie_matches_the_spec_at_depth_2_and_more(spec):
    clear_view_caches()
    if spec == "lollipop":
        graphs = [lollipop(4, 12), lollipop(3, 9)]
    else:
        graphs = [g for _, g in iter_corpus(spec) if is_feasible(g)]
    rng = random.Random(spec)
    checked = 0
    for g in graphs:
        bundle = compute_advice(g)
        for group in _deep_groups(g, bundle):
            for _ in range(4):
                sample = rng.sample(group, rng.randint(1, len(group)))
                fast_ctx = labeling_context_from_advice(bundle.e1, bundle.e2)
                spec_ctx = labeling_context_from_advice(bundle.e1, bundle.e2)
                fast = build_trie(sample, fast_ctx)
                assert fast == _build_trie_spec(sample, spec_ctx)
                assert fast.num_leaves() == len(sample)
                checked += 1
    assert checked >= 10
    clear_view_caches()


@pytest.mark.parametrize("name_g", CASES[-8:], ids=lambda p: p[0])
def test_retrieve_label_matches_the_spec_on_every_depth(name_g):
    """Every view of every depth up to phi + 2 labels the same through the
    prefix tables as through the O(label) sum, from a node-side context."""
    _, g = name_g
    clear_view_caches()
    bundle = compute_advice(g)
    fast_ctx = labeling_context_from_advice(bundle.e1, bundle.e2)
    spec_ctx = labeling_context_from_advice(bundle.e1, bundle.e2)
    for d in range(1, bundle.phi + 3):
        for view in views_of_graph(g, d):
            assert retrieve_label(view, fast_ctx) == _retrieve_label_spec(
                view, spec_ctx
            )
    clear_view_caches()


def test_prefix_table_ignores_labels_below_one():
    """Decoded (corrupted) advice can carry a trie at label 0; the seed sum
    runs over labels 1..j only, and so does the prefix table."""
    clear_view_caches()
    g = lollipop(4, 6)
    bundle = compute_advice(g)
    assert bundle.e2, "needs at least one E2 layer"
    depth, inner = bundle.e2[-1]
    big = max((trie for _, trie in inner), key=lambda t: t.num_leaves())
    e2 = bundle.e2[:-1] + [(depth, [(0, big)] + list(inner))]
    fast_ctx = labeling_context_from_advice(bundle.e1, e2)
    spec_ctx = labeling_context_from_advice(bundle.e1, e2)
    for view in views_of_graph(g, bundle.phi):
        assert retrieve_label(view, fast_ctx) == _retrieve_label_spec(view, spec_ctx)
    clear_view_caches()


def test_layers_enter_only_with_their_prefix_table():
    """A context built with E2 layers but no prefix tables would label
    silently wrong, so the constructor does not take layers."""
    with pytest.raises(TypeError):
        LabelingContext(e2_layers={2: {}})
