"""Labeled rooted trees with port numbers, and their binary code.

This is the carrier of advice item A2: the canonical BFS tree of the graph,
whose nodes are labeled by the ``RetrieveLabel`` integers and whose edges
carry the *graph's* port numbers at both endpoints.

Code layout (a decodable variant of the paper's (S1, S2) DFS-walk code,
same O(n log n) length class — see DESIGN.md "Substitutions"):

    bin(T) = Concat(walk, labels)
    walk   = Concat(step_1, ..., step_{2(n-1)})
    step   = Concat(bin(0), bin(p), bin(q))   for a descent through ports
             (p at parent, q at child), or
             Concat(bin(1))                    for an ascent
    labels = Concat(bin(l_1), ..., bin(l_n))   in DFS preorder

where the DFS visits children in increasing order of the parent-side port.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

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


@dataclass
class LabeledRootedTree:
    """A rooted tree node: an integer label plus children reached through
    port pairs ``(port_at_parent, port_at_child)``."""

    label: int
    children: List[Tuple[int, int, "LabeledRootedTree"]] = field(default_factory=list)

    # ------------------------------------------------------------------
    def add_child(
        self, port_parent: int, port_child: int, child: "LabeledRootedTree"
    ) -> None:
        self.children.append((port_parent, port_child, child))

    def size(self) -> int:
        """Number of nodes in the subtree."""
        return sum(1 for _ in self._preorder())

    def _preorder(self) -> Iterator["LabeledRootedTree"]:
        """Preorder over subtree nodes, children in insertion order (the
        order :meth:`path_to_root_ports` searches).  Iterative, so trees
        deeper than the interpreter recursion limit are safe."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(child for _, _, child in reversed(node.children))

    def iter_nodes(self) -> Iterator["LabeledRootedTree"]:
        """DFS preorder over subtree nodes (children in port order)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            ordered = sorted(node.children, key=lambda t: t[0])
            stack.extend(child for _, _, child in reversed(ordered))

    def labels(self) -> List[int]:
        """All labels in DFS preorder."""
        return [node.label for node in self.iter_nodes()]

    # ------------------------------------------------------------------
    def find_label(self, label: int) -> Optional["LabeledRootedTree"]:
        """The unique node carrying ``label``, or None."""
        for node in self.iter_nodes():
            if node.label == label:
                return node
        return None

    def path_to_root_ports(self, label: int) -> List[Tuple[int, int]]:
        """Port pairs of the path *from the node labeled ``label`` up to the
        root*, in the paper's output format ``[(p1, q1), ...]``: the i-th
        edge is traversed from the current node through its local port
        ``p_i``, arriving through port ``q_i`` at the other end.  The node
        is the first carrying ``label`` in preorder (children in insertion
        order).

        Raises :class:`CodingError` if the label is absent.
        """
        # node -> (parent, port at parent, port at node)
        up: Dict[int, Tuple["LabeledRootedTree", int, int]] = {}
        for node in self._preorder():
            if node.label == label:
                result: List[Tuple[int, int]] = []
                while node is not self:
                    parent, port_parent, port_child = up[id(node)]
                    # the upward step out of `node` uses the child's port
                    # first, then the parent's port
                    result.append((port_child, port_parent))
                    node = parent
                return result
            for port_parent, port_child, child in node.children:
                up[id(child)] = (node, port_parent, port_child)
        raise CodingError(f"label {label} not present in tree")

    def flat_paths_to_root(self) -> Dict[int, Tuple[int, ...]]:
        """``label -> flatten(path_to_root_ports(label))`` for every label
        of the subtree, in one iterative walk: a child's path is its own
        upward step followed by its parent's path.  A label carried twice
        keeps its first node in preorder, as :meth:`path_to_root_ports`
        does."""
        paths: Dict[int, Tuple[int, ...]] = {}
        stack: List[Tuple["LabeledRootedTree", Tuple[int, ...]]] = [(self, ())]
        while stack:
            node, path = stack.pop()
            paths.setdefault(node.label, path)
            for port_parent, port_child, child in reversed(node.children):
                stack.append((child, (port_child, port_parent) + path))
        return paths

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledRootedTree):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            mine, theirs = stack.pop()
            if mine is theirs:
                continue
            if mine.label != theirs.label or len(mine.children) != len(
                theirs.children
            ):
                return False
            for (p1, q1, c1), (p2, q2, c2) in zip(
                sorted(mine.children, key=lambda t: t[0]),
                sorted(theirs.children, key=lambda t: t[0]),
            ):
                if p1 != p2 or q1 != q2:
                    return False
                stack.append((c1, c2))
        return True

    __hash__ = None  # type: ignore[assignment]  # mutable


# ----------------------------------------------------------------------
# codec: one index walk over raw '0'/'1' strings, Bits only at the ends
# ----------------------------------------------------------------------
#: ``Concat(bin(1))``, the record of every ascent.
_ASCENT = concat_str(["1"])


def encode_tree(tree: LabeledRootedTree) -> Bits:
    """Binary code of a labeled rooted tree (see module docstring)."""
    steps: List[str] = []
    labels: List[str] = [encode_uint_str(tree.label)]
    # explicit DFS stack of child iterators (trees can be deeper than the
    # interpreter recursion limit): descend on the next child in port
    # order, ascend when a node's children are exhausted
    stack = [iter(sorted(tree.children, key=lambda t: t[0]))]
    while stack:
        nxt = next(stack[-1], None)
        if nxt is None:
            stack.pop()
            if stack:
                steps.append(_ASCENT)
            continue
        port_parent, port_child, child = nxt
        parent_code = encode_uint_str(port_parent)
        steps.append(concat_str(["0", parent_code, encode_uint_str(port_child)]))
        labels.append(encode_uint_str(child.label))
        stack.append(iter(sorted(child.children, key=lambda t: t[0])))
    return Bits._unsafe(concat_str([concat_str(steps), concat_str(labels)]))


def decode_tree(bits: Bits) -> LabeledRootedTree:
    """Inverse of :func:`encode_tree`.  Checks run in the order of the
    definition: the two parts, every label, then the walk step by step."""
    try:
        walk, labels_code = decode_concat_str(bits.as_str())
    except ValueError:
        raise CodingError("tree code must have exactly two parts (walk, labels)")
    steps = decode_concat_str(walk)
    label_codes = decode_concat_str(labels_code)
    if not label_codes:
        raise CodingError("tree code has no labels")
    labels = [decode_uint_str(lc) for lc in label_codes]

    root = LabeledRootedTree(labels[0])
    used = 1
    stack = [root]
    for step in steps:
        if step != _ASCENT:
            fields = decode_concat_str(step)
            if not fields:
                raise CodingError("empty walk step in tree code")
            kind = decode_uint_str(fields[0])
            if kind == 0:
                if len(fields) != 3:
                    raise CodingError("descent step must carry two port numbers")
                port_parent = decode_uint_str(fields[1])
                port_child = decode_uint_str(fields[2])
                if used == len(labels):
                    raise CodingError("tree code ran out of labels during walk")
                child = LabeledRootedTree(labels[used])
                used += 1
                stack[-1].children.append((port_parent, port_child, child))
                stack.append(child)
                continue
            if kind != 1:
                raise CodingError(f"unknown walk step kind {kind}")
        if len(stack) <= 1:
            raise CodingError("ascent step at the root")
        stack.pop()
    if len(stack) != 1:
        raise CodingError("tree walk did not return to the root")
    if used != len(labels):
        raise CodingError(f"{len(labels) - used} unused labels in tree code")
    return root


# ----------------------------------------------------------------------
# the executable specification (reference implementation for tests)
# ----------------------------------------------------------------------
def _encode_tree_spec(tree: LabeledRootedTree) -> Bits:
    """The :class:`Bits` encoder :func:`encode_tree` flattens."""
    steps: List[Bits] = []
    labels: List[Bits] = [encode_uint(tree.label)]
    ascent = concat_bits([encode_uint(1)])
    stack = [iter(sorted(tree.children, key=lambda t: t[0]))]
    while stack:
        nxt = next(stack[-1], None)
        if nxt is None:
            stack.pop()
            if stack:
                steps.append(ascent)
            continue
        port_parent, port_child, child = nxt
        steps.append(
            concat_bits(
                [encode_uint(0), encode_uint(port_parent), encode_uint(port_child)]
            )
        )
        labels.append(encode_uint(child.label))
        stack.append(iter(sorted(child.children, key=lambda t: t[0])))
    return concat_bits([concat_bits(steps), concat_bits(labels)])


def _decode_tree_spec(bits: Bits) -> LabeledRootedTree:
    """The :class:`Bits` parser :func:`decode_tree` flattens."""
    try:
        walk_bits, labels_bits = decode_concat(bits)
    except ValueError:
        raise CodingError("tree code must have exactly two parts (walk, labels)")
    steps = decode_concat(walk_bits) if len(walk_bits) else []
    label_codes = decode_concat(labels_bits)
    if not label_codes:
        raise CodingError("tree code has no labels")
    labels = [decode_uint(lc) for lc in label_codes]

    label_iter = iter(labels)
    root = LabeledRootedTree(next(label_iter))
    stack = [root]
    for step in steps:
        fields = decode_concat(step)
        if not fields:
            raise CodingError("empty walk step in tree code")
        kind = decode_uint(fields[0])
        if kind == 0:
            if len(fields) != 3:
                raise CodingError("descent step must carry two port numbers")
            port_parent = decode_uint(fields[1])
            port_child = decode_uint(fields[2])
            try:
                child = LabeledRootedTree(next(label_iter))
            except StopIteration:
                raise CodingError("tree code ran out of labels during walk")
            stack[-1].add_child(port_parent, port_child, child)
            stack.append(child)
        elif kind == 1:
            if len(stack) <= 1:
                raise CodingError("ascent step at the root")
            stack.pop()
        else:
            raise CodingError(f"unknown walk step kind {kind}")
    if len(stack) != 1:
        raise CodingError("tree walk did not return to the root")
    remaining = sum(1 for _ in label_iter)
    if remaining:
        raise CodingError(f"{remaining} unused labels in tree code")
    return root
