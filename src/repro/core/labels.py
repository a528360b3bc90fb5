"""LocalLabel (Algorithm 2) and RetrieveLabel (Algorithm 3).

These two procedures are shared verbatim between the oracle (which uses
them while *constructing* the advice) and every node (which uses them,
after decoding the advice, to turn its augmented truncated view B^phi(u)
into a unique label in {1..n}).  The symmetry is the crux of Theorem 3.1:
both sides must compute identical labels from identical inputs, which here
is guaranteed by literally executing the same code on the same interned
view objects and decoded tries.

:class:`LabelingContext` bundles E1 (the depth-1 trie), the E2 layers
({depth: {label: trie}}), and the memo caches.  Labels are memoised per
view: the label of a depth-d view depends only on the E2 layers for depths
<= d, which are final by the time they are queried (ComputeAdvice appends
layers in increasing depth), so the cache remains valid while the oracle
is still extending E2.

RetrieveLabel's offset for a depth-d view with truncation label j is the
number of leaves of every E2 trie of layer d with a smaller label, plus
one for every smaller label without a trie.  :meth:`LabelingContext.
add_layer` turns each layer into a prefix table once, so the offset is
one binary search instead of a sum over the j - 1 smaller labels.  The
seed procedures stay below as ``_*_spec``, the executable specification
the fast ones are tested against.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.coding.tries import Trie
from repro.errors import AdviceError
from repro.views.encoding import encode_b1
from repro.views.view import View, truncate_view


#: A layer's prefix table: its labels >= 1 ascending, the tries in the
#: same order, and ``extra[k]`` = sum of ``(leaves - 1)`` over the first k.
_Offsets = Tuple[List[int], List[Trie], List[int]]
_NO_LAYER: _Offsets = ([], [], [0])


@dataclass
class LabelingContext:
    """E1 + E2 plus memoisation, shared by oracle and node code paths.
    E2 layers enter only through :meth:`add_layer`, which keeps each
    layer's prefix table beside it."""

    e1: Optional[Trie] = None
    e2_layers: Dict[int, Dict[int, Trie]] = field(default_factory=dict, init=False)
    _label_cache: Dict[View, int] = field(default_factory=dict, init=False)
    _offsets: Dict[int, _Offsets] = field(default_factory=dict, init=False)

    def add_layer(self, depth: int, layer: Dict[int, Trie]) -> None:
        """Install the E2 layer for ``depth`` (oracle side, append-only)
        and its prefix table."""
        if depth in self.e2_layers:
            raise AdviceError(f"E2 layer for depth {depth} installed twice")
        self.e2_layers[depth] = layer
        # RetrieveLabel sums over labels 1..j only, so labels < 1 (possible
        # in decoded, corrupted advice) never contribute
        keys = sorted(label for label in layer if label >= 1)
        tries = [layer[label] for label in keys]
        extra = [0]
        for trie in tries:
            extra.append(extra[-1] + trie.num_leaves() - 1)
        self._offsets[depth] = (keys, tries, extra)


def local_label(
    b: View, x: Sequence[int], trie: Trie, ctx: LabelingContext
) -> int:
    """Algorithm 2.

    ``b`` is an augmented truncated view; ``x`` the (possibly empty) list of
    labels previously assigned to the children of the view's root; ``trie``
    discriminates the candidate set.  Returns the 1-based index of the leaf
    the queries route ``b`` to.
    """
    node = trie
    offset = 0
    depth1 = len(x) == 0
    if depth1 and node.query is not None:
        bits = encode_b1(b)
        length = len(bits)
    while node.query is not None:
        qx, qy = node.query
        if depth1:
            if qx == 0:
                left = length < qy
            else:
                left = qx == 1 and bits.bit(qy) == 0
        else:
            if qx >= len(x):
                raise AdviceError(
                    f"trie query inspects child {qx} but the view root has "
                    f"only {len(x)} children"
                )
            left = x[qx] != qy
        if left:
            node = node.left
        else:
            offset += node.left.num_leaves()
            node = node.right
    return offset + 1


def retrieve_label(b: View, ctx: LabelingContext) -> int:
    """Algorithm 3: the unique temporary label of view ``b``.

    Distinct views at the same depth d receive distinct labels in
    {1..|S_d|} (Claims 3.4 and 3.7), provided E1 and the E2 layers up to
    depth d discriminate the graph's views — which ComputeAdvice arranges.
    """
    cache = ctx._label_cache
    cached = cache.get(b)
    if cached is not None:
        return cached
    if b.depth < 1:
        raise AdviceError(f"retrieve_label requires depth >= 1, got {b.depth}")

    # Post-order over the views the label depends on (the children, then
    # the truncation B', each one level shallower) with an explicit stack,
    # so views deeper than the interpreter recursion limit are safe.
    # Dependencies are pushed in reverse, so they are labeled in the order
    # of the recursive definition.
    stack = [b]
    while stack:
        v = stack[-1]
        if v in cache:
            stack.pop()
            continue
        d = v.depth
        if d == 1:
            if ctx.e1 is None:
                raise AdviceError("labeling context has no depth-1 trie E1")
            cache[v] = local_label(v, (), ctx.e1, ctx)
            stack.pop()
            continue
        x = [cache.get(child) for _, child in v.children]
        if None in x:
            stack.extend(
                child
                for (_, child), lab in zip(reversed(v.children), reversed(x))
                if lab is None
            )
            continue
        b_prime = truncate_view(v, d - 1)
        label = cache.get(b_prime)
        if label is None:
            stack.append(b_prime)
            continue
        keys, tries, extra = ctx._offsets.get(d, _NO_LAYER)
        k = bisect_left(keys, label)
        offset = label - 1 + extra[k]
        if k < len(keys) and keys[k] == label:
            cache[v] = offset + local_label(v, x, tries[k], ctx)
        else:
            cache[v] = offset + 1
        stack.pop()
    return cache[b]


# ----------------------------------------------------------------------
# the executable specification (reference implementation for tests)
# ----------------------------------------------------------------------
def _local_label_spec(
    b: View, x: Sequence[int], trie: Trie, ctx: LabelingContext
) -> int:
    """Algorithm 2 as first written: :func:`local_label` with the
    encoding looked up at every step."""
    node = trie
    offset = 0
    while not node.is_leaf:
        qx, qy = node.query
        left = False
        if len(x) == 0:
            bits = encode_b1(b)
            if qx == 0 and len(bits) < qy:
                left = True
            if qx == 1 and bits.bit(qy) == 0:
                left = True
        else:
            if qx >= len(x):
                raise AdviceError(
                    f"trie query inspects child {qx} but the view root has "
                    f"only {len(x)} children"
                )
            if x[qx] != qy:
                left = True
        if left:
            node = node.left
        else:
            offset += node.left.num_leaves()
            node = node.right
    return offset + 1


def _retrieve_label_spec(b: View, ctx: LabelingContext) -> int:
    """Algorithm 3 as first written: the offset of a depth-d view is summed
    over every smaller label of layer d, O(label) per view.  Shares the
    context's label memo, so run one labeling per context through it."""
    cache = ctx._label_cache
    cached = cache.get(b)
    if cached is not None:
        return cached
    if b.depth < 1:
        raise AdviceError(f"retrieve_label requires depth >= 1, got {b.depth}")
    stack = [b]
    while stack:
        v = stack[-1]
        if v in cache:
            stack.pop()
            continue
        d = v.depth
        if d == 1:
            if ctx.e1 is None:
                raise AdviceError("labeling context has no depth-1 trie E1")
            cache[v] = _local_label_spec(v, (), ctx.e1, ctx)
            stack.pop()
            continue
        x = [cache.get(child) for _, child in v.children]
        if None in x:
            stack.extend(
                child
                for (_, child), lab in zip(reversed(v.children), reversed(x))
                if lab is None
            )
            continue
        b_prime = truncate_view(v, d - 1)
        label = cache.get(b_prime)
        if label is None:
            stack.append(b_prime)
            continue
        layer = ctx.e2_layers.get(d, {})
        total = 0
        for i in range(1, label + 1):
            trie = layer.get(i)
            if trie is not None:
                if i < label:
                    total += trie.num_leaves()
                else:
                    total += _local_label_spec(v, x, trie, ctx)
            else:
                total += 1
        cache[v] = total
        stack.pop()
    return cache[b]
