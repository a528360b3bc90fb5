"""Binary codes of non-negative integers: the paper's ``bin(x)``.

``bin(x)`` is the plain binary representation without leading zeros;
``bin(0) = "0"``.  The code is *not* self-delimiting — the paper (and we)
always wrap integer codes in ``Concat``, which supplies the framing.
"""

from __future__ import annotations

from repro.coding.bitstring import Bits
from repro.errors import CodingError


def encode_uint(x: int) -> Bits:
    """``bin(x)`` for x >= 0."""
    return Bits(encode_uint_str(x))


def encode_uint_str(x: int) -> str:
    """:func:`encode_uint` as a raw ``'0'``/``'1'`` string."""
    if x < 0:
        raise CodingError(f"encode_uint requires a non-negative integer, got {x}")
    return format(x, "b")


def decode_uint(bits: Bits) -> int:
    """Inverse of :func:`encode_uint`.

    Rejects the empty string and (except for "0" itself) leading zeros, so
    the code is canonical: ``decode_uint(encode_uint(x)) == x`` and
    ``encode_uint(decode_uint(b)) == b`` for every accepted ``b``.
    """
    return decode_uint_str(bits.as_str())


def decode_uint_str(s: str) -> int:
    """:func:`decode_uint` on a raw ``'0'``/``'1'`` string."""
    if s == "":
        raise CodingError("cannot decode an empty bitstring as an integer")
    if len(s) > 1 and s[0] == "0":
        raise CodingError(f"non-canonical integer code with leading zero: {s!r}")
    return int(s, 2)
