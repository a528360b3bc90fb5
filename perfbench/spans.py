"""The benchmark's span recorder: spans kept in memory, self time, and a
Chrome trace-event export that Perfetto loads.

A span is ``(id, parent, name, start, end, request, pid, tid)`` with
``start``/``end`` from :func:`time.perf_counter` (CLOCK_MONOTONIC on
Linux, so spans from forked workers share one time base).  Parents come
from a per-thread stack.  A forked worker inherits the stack of the
thread that forked it, so its top-level spans hang under the span that
was open in the parent at fork time; the worker starts with an empty
span list and its own id range.  Workers write their spans with
:meth:`Recorder.flush`, and the parent reads them back with
:meth:`Recorder.merge_sink`.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import Counter
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple


class Span(NamedTuple):
    id: int
    parent: int  # 0 for a root
    name: str
    start: float
    end: float
    request: Optional[str]
    pid: int
    tid: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Records spans from every thread of this process, plus ``counts``
    (named totals) and ``sets`` (named sets of hashes, for distinct
    counts) taken at the same boundaries.

    ``sink_dir`` is where forked workers append what they recorded
    (:meth:`flush`); the process that created the recorder never writes
    there."""

    def __init__(self, sink_dir: Optional[str] = None):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.sets: Dict[str, Set[int]] = {}
        self.sink_dir = sink_dir
        self._local = threading.local()
        self._owner = os.getpid()
        self._ids = itertools.count(1)
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self.counts = Counter()
        self.sets = {}
        self._ids = itertools.count((os.getpid() << 24) + 1)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request(self) -> Optional[str]:
        return getattr(self._local, "request", None)

    @request.setter
    def request(self, value: Optional[str]) -> None:
        self._local.request = value

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None):
        """``fn`` with every call recorded as a span called ``name``;
        ``on_result(result, args)`` runs after a successful call, outside
        the timed interval."""

        def traced(*args, **kwargs):
            with _SpanScope(self, name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str) -> "_SpanScope":
        """Context-manager form of :meth:`wrap`."""
        return _SpanScope(self, name)

    def add(self, name: str, key: int) -> None:
        self.sets.setdefault(name, set()).add(key)

    def flush(self) -> None:
        """In a forked worker: append what this process recorded to its
        sink file and forget it."""
        if os.getpid() == self._owner or self.sink_dir is None:
            return
        spans, self.spans = self.spans, []
        counts, self.counts = self.counts, Counter()
        sets, self.sets = self.sets, {}
        path = os.path.join(self.sink_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps(["span", *s]) + "\n")
            fh.write(json.dumps(
                ["totals", counts, {k: sorted(v) for k, v in sets.items()}]
            ) + "\n")

    def merge_sink(self) -> None:
        """Take in everything the forked workers flushed."""
        if self.sink_dir is None:
            return
        for entry in sorted(os.listdir(self.sink_dir)):
            if not entry.startswith("spans-"):
                continue
            with open(os.path.join(self.sink_dir, entry), encoding="utf-8") as fh:
                for line in fh:
                    kind, *rest = json.loads(line)
                    if kind == "span":
                        self.spans.append(Span(*rest))
                    else:
                        self.counts.update(rest[0])
                        for name, keys in rest[1].items():
                            self.sets.setdefault(name, set()).update(keys)


class _SpanScope:
    __slots__ = ("rec", "name", "sid", "parent", "start")

    def __init__(self, rec: Recorder, name: str):
        self.rec = rec
        self.name = name

    def __enter__(self) -> "_SpanScope":
        stack = self.rec._stack()
        self.parent = stack[-1] if stack else 0
        self.sid = next(self.rec._ids)
        stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter()
        rec = self.rec
        rec._stack().pop()
        rec.spans.append(
            Span(self.sid, self.parent, self.name, self.start, end,
                 rec.request, os.getpid(), threading.get_ident())
        )
        return False


def adopt(spans: List[Span], child: str, parent: str) -> List[Span]:
    """Give each root span called ``child`` (a span a worker process
    recorded with no parent of its own) the innermost span called
    ``parent`` whose interval contains it."""
    hosts = sorted(
        (s for s in spans if s.name == parent), key=lambda s: s.start
    )
    out = []
    for s in spans:
        if s.name == child and s.parent == 0:
            inner = None
            for h in hosts:
                if h.start > s.start:
                    break
                if h.end >= s.end:
                    inner = h
            if inner is not None:
                s = s._replace(parent=inner.id)
        out.append(s)
    return out


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``;
    overlapping intervals count once."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of its interval that its
    children cover (children running in parallel count once)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def chrome_trace(spans: List[Span]) -> Dict:
    """The spans as Chrome trace-event JSON (complete events, µs)."""
    t0 = min((s.start for s in spans), default=0.0)
    return {
        "displayTimeUnit": "ms",
        "traceEvents": [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - t0) * 1e6,
                "dur": s.duration * 1e6,
                "pid": s.pid,
                "tid": s.tid,
                "args": {"id": s.id, "parent": s.parent, "request": s.request},
            }
            for s in spans
        ],
    }
