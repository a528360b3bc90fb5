"""Failure injection: corrupted advice must never produce a silently
wrong election.

For every corruption we accept exactly three outcomes:
1. a library error (CodingError/AdviceError/... — detected corruption),
2. the verifier rejects the outputs (ElectionFailure),
3. the election still succeeds *and matches the uncorrupted leader set
   validity* (e.g. the flipped bit was in a part that only shifts labels).

Anything else — a crash with a non-library exception, or a verified
election with non-converging paths — is a bug.

The second half pins the flat trie/tree codec to the seed parsers kept as
``_decode_*_spec``: on mutated real advice (bit flips, truncations,
appended bits, swapped and dropped records at any nesting level) every
decoder returns the spec's value or raises the spec's exception class
with the spec's message.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.coding import Bits
from repro.coding import nested as nested_mod
from repro.coding.concat import concat_str, decode_concat_str
from repro.coding.nested import decode_e2
from repro.coding.trees import (
    _decode_tree_spec,
    _encode_tree_spec,
    decode_tree,
    encode_tree,
)
from repro.coding.tries import (
    _decode_trie_spec,
    _encode_trie_spec,
    decode_trie,
    encode_trie,
)
from repro.core import advice as advice_mod
from repro.core import compute_advice, verify_election
from repro.core.advice import decode_advice
from repro.core.elect import ElectAlgorithm
from repro.errors import ElectionFailure, ReproError
from repro.graphs import cycle_with_leader_gadget, lollipop
from repro.sim import run_sync

from tests.test_coding_trees_tries import tree_strategy, trie_strategy

G = cycle_with_leader_gadget(6)
BUNDLE = compute_advice(G)


def _flip(bits: Bits, position: int) -> Bits:
    s = bits.as_str()
    flipped = "1" if s[position] == "0" else "0"
    return Bits(s[:position] + flipped + s[position + 1 :])


class TestBitFlips:
    @given(st.integers(min_value=0, max_value=len(BUNDLE.bits) - 1))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_single_flip_never_silently_wrong(self, position):
        corrupted = _flip(BUNDLE.bits, position)
        try:
            result = run_sync(
                G, ElectAlgorithm, advice=corrupted, max_rounds=BUNDLE.phi + 2
            )
        except ReproError:
            return  # detected: fine
        except RecursionError:
            pytest.fail("corruption caused unbounded recursion")
        try:
            outcome = verify_election(G, result.outputs)
        except ElectionFailure:
            return  # rejected by the verifier: fine
        # survived: must be a genuinely valid election
        assert outcome.leader in range(G.n)

    @given(
        st.integers(min_value=0, max_value=len(BUNDLE.bits) - 2),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_truncation_never_silently_wrong(self, start, length):
        """Same contract as bit flips: detected, rejected, or — rarely —
        the mutilated string happens to be working advice (legal: the
        spec accepts any advice under which paths converge)."""
        s = BUNDLE.bits.as_str()
        cut = s[:start] + s[start + length :]
        try:
            result = run_sync(
                G, ElectAlgorithm, advice=Bits(cut), max_rounds=BUNDLE.phi + 2
            )
        except ReproError:
            return
        try:
            outcome = verify_election(G, result.outputs)
        except ElectionFailure:
            return
        assert outcome.leader in range(G.n)

    def test_empty_advice_detected(self):
        with pytest.raises(ReproError):
            run_sync(G, ElectAlgorithm, advice=Bits(""), max_rounds=5)

    def test_advice_for_other_graph_not_silently_wrong(self):
        """Advice computed for a different network: the run must either be
        detected, be rejected by the verifier, or happen to constitute a
        *valid* election (legal: the spec accepts any advice that makes
        all paths converge) — never an unverified wrong answer."""
        other = cycle_with_leader_gadget(9)
        other_bundle = compute_advice(other)
        try:
            result = run_sync(
                G, ElectAlgorithm, advice=other_bundle.bits,
                max_rounds=other_bundle.phi + 2,
            )
        except ReproError:
            return
        try:
            outcome = verify_election(G, result.outputs)
        except ElectionFailure:
            return
        assert outcome.leader in range(G.n)


# ----------------------------------------------------------------------
# the flat codec against the seed parsers
# ----------------------------------------------------------------------
def _spec_decode_e2(bits):
    with mock.patch.object(nested_mod, "decode_trie", _decode_trie_spec):
        return decode_e2(bits)


def _spec_decode_advice(bits):
    with mock.patch.object(advice_mod, "decode_trie", _decode_trie_spec), \
            mock.patch.object(advice_mod, "decode_tree", _decode_tree_spec), \
            mock.patch.object(nested_mod, "decode_trie", _decode_trie_spec):
        return decode_advice(bits)


def _tree_shape(tree):
    """Preorder labels and port pairs in insertion order: stricter than
    ``LabeledRootedTree.__eq__``, which sorts children by port."""
    shape, stack = [], [tree]
    while stack:
        node = stack.pop()
        shape.append((node.label, [(p, q) for p, q, _ in node.children]))
        stack.extend(child for _, _, child in reversed(node.children))
    return shape


def _normal(value):
    if isinstance(value, tuple):  # decode_advice: (phi, E1, E2, T)
        phi, e1, e2, tree = value
        return phi, e1, e2, _tree_shape(tree)
    if hasattr(value, "label"):
        return _tree_shape(value)
    return value


#: (name, flat decoder, seed decoder)
DECODERS = [
    ("advice", decode_advice, _spec_decode_advice),
    ("trie", decode_trie, _decode_trie_spec),
    ("tree", decode_tree, _decode_tree_spec),
    ("e2", decode_e2, _spec_decode_e2),
]


def _outcome(decode, s):
    try:
        return "ok", _normal(decode(Bits(s)))
    except Exception as exc:  # the class and message must match too
        return type(exc), str(exc)


def _sources():
    """Real codes: whole advice strings and their E1, E2 and tree parts."""
    out = []
    for g in (G, lollipop(4, 5)):
        bits = compute_advice(g).bits.as_str()
        _, a1, tree = decode_concat_str(bits)
        e1, e2 = decode_concat_str(a1)
        out += [bits, e1, e2, tree]
    return out


SOURCES = _sources()


def _at(s, path, edit):
    """Apply ``edit`` to the component reached by descending ``path`` into
    the nested ``Concat`` records of ``s`` (indices taken modulo each
    record's length), then re-frame every level above it, so that errors
    deep inside a record are reached and not only framing errors.  A
    level that does not decode as a record is edited as it is."""
    if path:
        try:
            parts = decode_concat_str(s)
        except ReproError:  # an integer code, not a record
            parts = []
        if parts:
            k = path[0] % len(parts)
            parts[k] = _at(parts[k], path[1:], edit)
            return concat_str(parts)
    return edit(s)


def _mutate(s, path, kind, a, b, extra):
    def flip(t):
        if not t:
            return "1"
        p = a % len(t)
        return t[:p] + ("1" if t[p] == "0" else "0") + t[p + 1 :]

    def truncate(t):
        p = a % (len(t) + 1)
        return t[:p] + t[p + 1 + b % 40 :]

    def swap(t):
        try:
            parts = decode_concat_str(t)
        except ReproError:
            return t
        if len(parts) < 2:
            return t
        i, j = a % len(parts), b % len(parts)
        parts[i], parts[j] = parts[j], parts[i]
        return concat_str(parts)

    def drop(t):
        try:
            parts = decode_concat_str(t)
        except ReproError:
            return ""
        if not parts:
            return t
        del parts[a % len(parts) : a % len(parts) + 1]
        return concat_str(parts)

    edits = {"flip": flip, "truncate": truncate, "append": lambda t: t + extra,
             "swap": swap, "drop": drop}
    return _at(s, path, edits[kind])


KINDS = ["flip", "truncate", "append", "swap", "drop"]


@st.composite
def mutated_codes(draw):
    return _mutate(
        draw(st.sampled_from(SOURCES)),
        draw(st.lists(st.integers(0, 999), max_size=4)),
        draw(st.sampled_from(KINDS)),
        draw(st.integers(0, 10**6)),
        draw(st.integers(0, 10**6)),
        draw(st.text(alphabet="01", min_size=1, max_size=24)),
    )


class TestFlatCodecMatchesTheSpec:
    def test_sources_decode_cleanly(self):
        for s in SOURCES:
            assert any(_outcome(flat, s)[0] == "ok" for _, flat, _ in DECODERS)

    @given(mutated_codes())
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_mutated_codes_decode_or_fail_like_the_spec(self, s):
        for name, flat, spec in DECODERS:
            assert _outcome(flat, s) == _outcome(spec, s), name

    def test_seeded_mutations_reach_every_parser_check(self):
        """A fixed-seed batch of the same mutations: it must agree with
        the spec and reach the checks deep inside trie and tree records,
        not only the framing errors."""
        import random

        rng = random.Random(2024)
        reached = set()
        for _ in range(4000):
            s = _mutate(
                rng.choice(SOURCES),
                [rng.randrange(1000) for _ in range(rng.randint(0, 4))],
                rng.choice(KINDS),
                rng.randrange(10**6),
                rng.randrange(10**6),
                "".join(rng.choice("01") for _ in range(rng.randint(1, 24))),
            )
            for name, flat, spec in DECODERS:
                outcome = _outcome(flat, s)
                assert outcome == _outcome(spec, s), (name, s)
                reached.add(outcome[1] if outcome[0] != "ok" else "ok")
        wanted = [
            "trie code ended prematurely",
            "trailing records in trie code",
            "unknown trie record kind",
            "leaf record must have no payload",
            "internal record must carry a (a, b) query",
            "ascent step at the root",
            "tree code ran out of labels during walk",
            "unused labels in tree code",
            "tree walk did not return to the root",
            "unknown walk step kind",
            "descent step must carry two port numbers",
            "non-canonical integer code with leading zero",
            "cannot decode an empty bitstring as an integer",
            "empty trie node record",
            "empty walk step in tree code",
            "advice item A1 must contain (bin(E1), bin(E2))",
        ]
        missing = [w for w in wanted if not any(w in m for m in reached)]
        assert not missing
        assert "ok" in reached

    @pytest.mark.parametrize(
        "records",
        [
            [],  # empty trie code / empty tree code
            [[]],  # an empty record
            [["1", "01", "001"]],  # two non-canonical query fields
            [["1", "1", "0"], ["0"]],  # ended prematurely
            [["0"], ["0"]],  # trailing record
            [["0", "01", "00"], ["0"]],  # two non-canonical ports
            [[], ["1"]],  # empty walk, one label
            [["0", "1", "0"], []],  # labels missing
            [["0", "1", "0"], ["1", "10"]],  # a descent, then labels
            [["11"], ["1", "10"]],  # unknown step kind
        ],
    )
    def test_hand_built_codes_match_the_spec(self, records):
        """Each inner list is a record of integer codes; the whole is
        framed once as records and once as a (walk, labels) pair."""
        as_records = concat_str([concat_str(r) for r in records])
        as_pair = concat_str([concat_str(r) for r in records[:1]] + [
            concat_str(records[1]) if len(records) > 1 else ""
        ])
        for s in (as_records, as_pair):
            for name, flat, spec in DECODERS:
                assert _outcome(flat, s) == _outcome(spec, s), (name, s)

    @given(trie_strategy)
    @settings(max_examples=60)
    def test_trie_round_trip_and_spec_bytes(self, trie):
        bits = encode_trie(trie)
        assert bits == _encode_trie_spec(trie)
        assert decode_trie(bits) == trie == _decode_trie_spec(bits)

    @given(tree_strategy)
    @settings(max_examples=60)
    def test_tree_round_trip_and_spec_bytes(self, tree):
        bits = encode_tree(tree)
        assert bits == _encode_tree_spec(tree)
        assert _tree_shape(decode_tree(bits)) == _tree_shape(_decode_tree_spec(bits))
        assert decode_tree(bits) == tree
