"""The paper's ``Concat``/``Decode`` codec (Section 3).

``Concat(A_1, ..., A_k)`` doubles each digit of each component and inserts
``01`` between consecutive components; e.g. ``Concat((01), (00)) =
0011010000``.  Doubling makes the separator ``01`` (which never occurs at an
even offset inside a doubled component) unambiguous, at a 2x + O(k) cost —
the "constant factor" the paper notes.

Corner case: the empty *sequence* and the sequence holding one empty
component both encode to the empty string.  We decode the empty string as
the empty sequence; every caller in this library wraps components in an
outer ``Concat``, where empty components are delimited by separators and
therefore round-trip exactly.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.coding.bitstring import Bits
from repro.errors import CodingError

_SEPARATOR = "01"


def concat_str(components: Sequence[str]) -> str:
    """:func:`concat_bits` on raw ``'0'``/``'1'`` strings, for codecs that
    build their records as ``str`` and wrap one :class:`Bits` at the end.
    The components are trusted to be bitstrings."""
    # two C-speed passes double every digit (replace never overlaps: the
    # first pass only creates '0's from '0's, the second only touches '1's)
    return _SEPARATOR.join(
        [comp.replace("0", "00").replace("1", "11") for comp in components]
    )


def concat_bits(components: Sequence[Bits]) -> Bits:
    """Encode a sequence of bitstrings into one bitstring."""
    strs = []
    for comp in components:
        if not isinstance(comp, Bits):
            raise CodingError(
                f"concat_bits components must be Bits, got {type(comp).__name__}"
            )
        strs.append(comp.as_str())
    return Bits._unsafe(concat_str(strs))


def decode_concat_str(s: str) -> List[str]:
    """:func:`decode_concat` on a raw ``'0'``/``'1'`` string, returning the
    components as strings; same checks, same error messages."""
    if s == "":
        return []
    if len(s) % 2:
        raise CodingError(
            f"dangling bit at offset {len(s) - 1}: doubled encoding must have "
            "even pair structure"
        )
    # Pair i is (evens[i], odds[i]).  Equal halves mean every pair is a
    # doubled digit; mismatch pairs are separators ('01') or corruption
    # ('10').  The XOR of the halves as base-2 integers, written back in
    # binary, marks every mismatch with a '1' at C speed, and str.find
    # walks the marks, so decoding costs O(n) plus one Python step per
    # *component*, not per pair.
    evens, odds = s[0::2], s[1::2]
    x = int(evens, 2) ^ int(odds, 2)
    if x == 0:
        return [evens]
    marks = format(x, "b").zfill(len(evens))
    components: List[str] = []
    start = 0
    p = marks.find("1")
    while p != -1:
        if evens[p] == "1":
            raise CodingError(
                f"invalid pair '10' at offset {2 * p} in doubled encoding"
            )
        components.append(evens[start:p])
        start = p + 1
        p = marks.find("1", start)
    components.append(evens[start:])
    return components


def decode_concat(encoded: Bits) -> List[Bits]:
    """Decode the output of :func:`concat_bits`.

    Raises :class:`CodingError` on any malformed input (odd trailing bit,
    ``10`` pair, etc.), so corrupted advice is detected rather than
    silently misread.
    """
    return [Bits._unsafe(c) for c in decode_concat_str(encoded.as_str())]


# ----------------------------------------------------------------------
# the executable specification (reference implementation for tests)
# ----------------------------------------------------------------------
def _decode_concat_spec(encoded: Bits) -> List[Bits]:
    """The seed decoder: it peels the XOR's mismatches off one big-integer
    operation at a time, O(n) per component."""
    s = encoded.as_str()
    if s == "":
        return []
    if len(s) % 2:
        raise CodingError(
            f"dangling bit at offset {len(s) - 1}: doubled encoding must have "
            "even pair structure"
        )
    evens, odds = s[0::2], s[1::2]
    x = int(evens, 2) ^ int(odds, 2)
    if x == 0:
        return [Bits._unsafe(evens)]
    npairs = len(evens)
    cuts: List[int] = []
    while x:
        low = x & -x
        cuts.append(npairs - low.bit_length())
        x ^= low
    cuts.reverse()  # ascending pair index
    for p in cuts:
        if evens[p] == "1":
            raise CodingError(
                f"invalid pair '10' at offset {2 * p} in doubled encoding"
            )
    components: List[str] = []
    start = 0
    for p in cuts:
        components.append(evens[start:p])
        start = p + 1
    components.append(evens[start:])
    return [Bits._unsafe(c) for c in components]
