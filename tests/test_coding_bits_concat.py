"""Bitstring and Concat/Decode codec tests, incl. property-based
round-trips (the advice integrity rests on these)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.coding import Bits, concat_bits, decode_concat
from repro.coding.concat import _decode_concat_spec
from repro.errors import CodingError

bits_strategy = st.text(alphabet="01", max_size=40).map(Bits)


class TestBits:
    def test_from_str_and_len(self):
        b = Bits("0101")
        assert len(b) == 4
        assert b.as_str() == "0101"

    def test_rejects_non_binary(self):
        with pytest.raises(CodingError):
            Bits("012")

    def test_from_ints(self):
        assert Bits([1, 0, 1]) == Bits("101")

    def test_rejects_bad_ints(self):
        with pytest.raises(CodingError):
            Bits([2])

    def test_indexing_and_iteration(self):
        b = Bits("100")
        assert b[0] == 1 and b[1] == 0
        assert list(b) == [1, 0, 0]
        assert b[1:] == Bits("00")

    def test_concatenation(self):
        assert Bits("01") + Bits("10") == Bits("0110")
        assert Bits.join([Bits("1"), Bits(""), Bits("0")]) == Bits("10")

    def test_one_indexed_bit(self):
        b = Bits("10")
        assert b.bit(1) == 1
        assert b.bit(2) == 0
        with pytest.raises(CodingError):
            b.bit(0)
        with pytest.raises(CodingError):
            b.bit(3)

    def test_ordering_lexicographic(self):
        assert Bits("0") < Bits("1")
        assert Bits("01") < Bits("010")  # prefix first
        assert Bits("10") <= Bits("10")

    def test_hash_eq(self):
        assert hash(Bits("011")) == hash(Bits("011"))
        assert Bits("011") == "011"


class TestConcat:
    def test_paper_example(self):
        """Concat((01), (00)) = (0011010000) — the paper's worked example."""
        assert concat_bits([Bits("01"), Bits("00")]) == Bits("0011010000")

    def test_empty_sequence(self):
        assert concat_bits([]) == Bits("")
        assert decode_concat(Bits("")) == []

    def test_empty_components_preserved(self):
        parts = [Bits("0"), Bits(""), Bits("1")]
        assert decode_concat(concat_bits(parts)) == parts

    @given(st.lists(bits_strategy, min_size=2, max_size=8))
    def test_round_trip(self, parts):
        assert decode_concat(concat_bits(parts)) == parts

    @given(st.lists(bits_strategy, min_size=1, max_size=5))
    def test_nested_round_trip(self, parts):
        from hypothesis import assume

        # documented corner case: Concat([""]) == Concat([]) == "" — every
        # library call site wraps, so the singleton-empty case never occurs
        assume(not (len(parts) == 1 and len(parts[0]) == 0))
        inner = concat_bits(parts)
        outer = concat_bits([inner, Bits("1"), inner])
        a, b, c = decode_concat(outer)
        assert a == inner and b == Bits("1") and c == inner
        assert decode_concat(a) == parts

    def test_length_is_linear(self):
        parts = [Bits("1" * 10), Bits("0" * 10)]
        assert len(concat_bits(parts)) == 2 * 20 + 2

    @pytest.mark.parametrize("bad", ["10", "0010", "001", "1"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(CodingError):
            decode_concat(Bits(bad))

    def test_rejects_non_bits_components(self):
        with pytest.raises(CodingError):
            concat_bits(["01"])  # type: ignore[list-item]


def _decoded(decode, s):
    try:
        return "ok", decode(Bits(s))
    except CodingError as exc:
        return CodingError, str(exc)


class TestDecodeMatchesTheSeed:
    """The linear mismatch walk returns the seed decoder's components, or
    raises its error with its message."""

    @given(st.text(alphabet="01", max_size=120))
    def test_random_strings(self, s):
        assert _decoded(decode_concat, s) == _decoded(_decode_concat_spec, s)

    @given(
        st.lists(bits_strategy, max_size=12),
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(["keep", "flip", "cut"]),
    )
    def test_framed_strings_and_their_corruptions(self, parts, at, how):
        s = concat_bits(parts).as_str()
        if s and how == "flip":
            p = at % len(s)
            s = s[:p] + ("1" if s[p] == "0" else "0") + s[p + 1 :]
        elif s and how == "cut":
            s = s[: at % len(s)]
        assert _decoded(decode_concat, s) == _decoded(_decode_concat_spec, s)

    def test_many_components(self):
        parts = [Bits(format(i, "b")) for i in range(3000)]
        s = concat_bits(parts).as_str()
        assert decode_concat(Bits(s)) == _decode_concat_spec(Bits(s)) == parts
