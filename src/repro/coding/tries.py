"""Tries: the query trees at the heart of advice item A1.

A trie is a rooted binary tree.  Internal nodes carry a *query*, coded as a
pair of non-negative integers ``(a, b)``; leaves carry the label ``(0)``
(paper convention) and correspond to discriminated objects.  The left child
is the "no" branch, the right child the "yes" branch.

Query semantics (interpreted by ``LocalLabel``, Algorithm 2):

* depth-1 mode (list ``X`` empty):
  ``(0, t)`` — "is ``len(bin(B))``  < t?";
  ``(1, j)`` — "is the j-th bit of ``bin(B)`` equal to 1?";
* deeper mode (``X`` nonempty):
  ``(i, y)`` — "is the (i+1)-th term of ``X`` equal to ``y``?"
  (LocalLabel goes *left* when the term differs from ``y``).

The binary code mirrors the labeled-tree code: a structure walk plus the
queries in preorder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.coding.bitstring import Bits
from repro.coding.concat import (
    concat_bits,
    concat_str,
    decode_concat,
    decode_concat_str,
)
from repro.coding.integers import (
    decode_uint,
    decode_uint_str,
    encode_uint,
    encode_uint_str,
)
from repro.errors import CodingError


@dataclass(frozen=True)
class Trie:
    """A trie node.  ``query is None`` iff this is a leaf.

    The leaf count is stored at construction (children are built first),
    as a plain attribute outside the dataclass fields, so equality and
    repr are those of the fields alone."""

    query: Optional[Tuple[int, int]]
    left: Optional["Trie"] = None
    right: Optional["Trie"] = None

    def __post_init__(self):
        if self.query is None:
            if self.left is not None or self.right is not None:
                raise CodingError("a trie leaf cannot have children")
        else:
            if self.left is None or self.right is None:
                raise CodingError("a trie internal node must have two children")
            a, b = self.query
            if a < 0 or b < 0:
                raise CodingError(f"trie query must be non-negative, got {self.query}")
        object.__setattr__(
            self,
            "_leaves",
            1 if self.query is None else self.left._leaves + self.right._leaves,
        )

    # ------------------------------------------------------------------
    @property
    def is_leaf(self) -> bool:
        return self.query is None

    def num_leaves(self) -> int:
        """Number of leaves (objects discriminated by this trie), O(1)."""
        return self._leaves

    def size(self) -> int:
        """Total number of nodes; always ``2 * num_leaves() - 1``."""
        if self.is_leaf:
            return 1
        return 1 + self.left.size() + self.right.size()

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())

    def queries(self) -> List[Tuple[int, int]]:
        """All internal-node queries, preorder."""
        if self.is_leaf:
            return []
        return [self.query] + self.left.queries() + self.right.queries()


_LEAF = Trie(None)


def trie_leaf() -> Trie:
    """A single-leaf trie (the paper's "single node labeled (0)").  Leaves
    are immutable and all equal, so one object serves every trie."""
    return _LEAF


def trie_node(query: Tuple[int, int], left: Trie, right: Trie) -> Trie:
    """An internal trie node with a query and two subtries."""
    return Trie(query, left, right)


# ----------------------------------------------------------------------
# codec: preorder with explicit leaf/internal markers
# ----------------------------------------------------------------------
#: ``Concat(bin(0))``, the record of every leaf.
_LEAF_RECORD = concat_str(["0"])


def encode_trie(trie: Trie) -> Bits:
    """Binary code of a trie: ``Concat`` of preorder node records, each
    ``Concat(bin(0))`` for a leaf or ``Concat(bin(1), bin(a), bin(b))`` for
    an internal node with query ``(a, b)``."""
    records: List[str] = []
    stack = [trie]
    while stack:
        node = stack.pop()
        if node.query is None:
            records.append(_LEAF_RECORD)
        else:
            a, b = node.query
            records.append(concat_str(["1", encode_uint_str(a), encode_uint_str(b)]))
            stack.append(node.right)
            stack.append(node.left)
    return Bits._unsafe(concat_str(records))


def decode_trie(bits: Bits) -> Trie:
    """Inverse of :func:`encode_trie`.

    Records are read strictly in preorder, so one loop with a stack of
    internal nodes still waiting for a child replaces the recursive
    descent of the definition; each record is checked when it is read,
    so the first malformed record raises the same error in either form.
    """
    records = decode_concat_str(bits.as_str())
    if not records:
        raise CodingError("empty trie code")
    # internal nodes awaiting children: [query, left subtrie or None]
    pending: List[list] = []
    pos = 0
    while True:
        if pos >= len(records):
            raise CodingError("trie code ended prematurely")
        record = records[pos]
        pos += 1
        if record == _LEAF_RECORD:
            node = _LEAF
        else:
            fields = decode_concat_str(record)
            if not fields:
                raise CodingError("empty trie node record")
            kind = decode_uint_str(fields[0])
            if kind == 0:
                if len(fields) != 1:
                    raise CodingError("leaf record must have no payload")
                node = _LEAF
            elif kind == 1:
                if len(fields) != 3:
                    raise CodingError("internal record must carry a (a, b) query")
                a = decode_uint_str(fields[1])
                b = decode_uint_str(fields[2])
                pending.append([(a, b), None])
                continue
            else:
                raise CodingError(f"unknown trie record kind {kind}")
        # a finished subtrie: it is the left child of the innermost pending
        # node, or completes that node's right side and climbs further
        while pending:
            top = pending[-1]
            if top[1] is None:
                top[1] = node
                break
            pending.pop()
            node = Trie(top[0], top[1], node)
        else:
            break
    if pos != len(records):
        raise CodingError(f"{len(records) - pos} trailing records in trie code")
    return node


# ----------------------------------------------------------------------
# the executable specification (reference implementation for tests)
# ----------------------------------------------------------------------
def _encode_trie_spec(trie: Trie) -> Bits:
    """The recursive :class:`Bits` encoder :func:`encode_trie` flattens."""
    records: List[Bits] = []

    def dfs(node: Trie) -> None:
        if node.is_leaf:
            records.append(concat_bits([encode_uint(0)]))
        else:
            a, b = node.query
            records.append(
                concat_bits([encode_uint(1), encode_uint(a), encode_uint(b)])
            )
            dfs(node.left)
            dfs(node.right)

    dfs(trie)
    return concat_bits(records)


def _decode_trie_spec(bits: Bits) -> Trie:
    """The recursive :class:`Bits` parser :func:`decode_trie` flattens."""
    records = decode_concat(bits)
    if not records:
        raise CodingError("empty trie code")
    pos = 0

    def parse() -> Trie:
        nonlocal pos
        if pos >= len(records):
            raise CodingError("trie code ended prematurely")
        fields = decode_concat(records[pos])
        pos += 1
        if not fields:
            raise CodingError("empty trie node record")
        kind = decode_uint(fields[0])
        if kind == 0:
            if len(fields) != 1:
                raise CodingError("leaf record must have no payload")
            return trie_leaf()
        if kind == 1:
            if len(fields) != 3:
                raise CodingError("internal record must carry a (a, b) query")
            a = decode_uint(fields[1])
            b = decode_uint(fields[2])
            left = parse()
            right = parse()
            return trie_node((a, b), left, right)
        raise CodingError(f"unknown trie record kind {kind}")

    result = parse()
    if pos != len(records):
        raise CodingError(f"{len(records) - pos} trailing records in trie code")
    return result
