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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.coding.tries import Trie
from repro.errors import AdviceError
from repro.views.encoding import encode_b1
from repro.views.view import View, truncate_view


@dataclass
class LabelingContext:
    """E1 + E2 plus memoisation, shared by oracle and node code paths."""

    e1: Optional[Trie] = None
    e2_layers: Dict[int, Dict[int, Trie]] = field(default_factory=dict)
    _label_cache: Dict[View, int] = field(default_factory=dict)
    _leaves_cache: Dict[int, int] = field(default_factory=dict)

    def add_layer(self, depth: int, layer: Dict[int, Trie]) -> None:
        """Install the E2 layer for ``depth`` (oracle side, append-only)."""
        if depth in self.e2_layers:
            raise AdviceError(f"E2 layer for depth {depth} installed twice")
        self.e2_layers[depth] = layer

    def num_leaves(self, trie: Trie) -> int:
        """Cached leaf count of a trie."""
        cached = self._leaves_cache.get(id(trie))
        if cached is None:
            cached = trie.num_leaves()
            self._leaves_cache[id(trie)] = cached
        return cached


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
            offset += ctx.num_leaves(node.left)
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
        layer = ctx.e2_layers.get(d, {})
        total = 0
        for i in range(1, label + 1):
            trie = layer.get(i)
            if trie is not None:
                if i < label:
                    total += ctx.num_leaves(trie)
                else:
                    total += local_label(v, x, trie, ctx)
            else:
                total += 1
        cache[v] = total
        stack.pop()
    return cache[b]
