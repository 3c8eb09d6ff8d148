"""Span tracer that times the package's layers from outside.

Each traced function is replaced, in the namespace it is called from, by a
wrapper that records one span: name, start, end, span id and parent id.
Parents come from a per-thread stack, so spans recorded on pool threads nest
correctly.  Spans stay in per-thread buffers until ``summary`` aggregates
them; ``dump`` writes them out once, at the end of a run.

Self time is a span's duration minus the part of its interval that the union
of its children's intervals covers, so overlapping children are not
double-counted and no self time is negative.
"""

from __future__ import annotations

import itertools
import threading
from array import array
from time import perf_counter_ns

import numpy as np


class _Buffer:
    """Spans and counters recorded by one thread."""

    def __init__(self) -> None:
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.t0 = array("q")
        self.t1 = array("q")
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.stack: list[int] = []


class Tracer:
    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ recording

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _intern(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self._names)
            self._names.append(name)
        return self._name_index[name]

    def count(self, key: str, value: float = 1.0) -> None:
        counts = self._buffer().counts
        counts[key] = counts.get(key, 0.0) + value

    def maximum(self, key: str, value: float) -> None:
        maxima = self._buffer().maxima
        maxima[key] = max(maxima.get(key, value), value)

    def wrap(self, fn, name: str, hook=None):
        """Return ``fn`` wrapped in a span; ``hook(tracer, args, result)``
        records counts taken from the call's arguments and result."""
        idx = self._intern(name)
        ids = self._ids

        def traced(*args, **kwargs):
            buf = self._buffer()
            stack = buf.stack
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                buf.sid.append(sid)
                buf.parent.append(parent)
                buf.name.append(idx)
                buf.t0.append(t0)
                buf.t1.append(t1)
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, namespace, attr: str, name: str, hook=None) -> None:
        """Replace ``namespace.attr`` by its traced wrapper until ``unpatch``."""
        original = getattr(namespace, attr)
        self._patched.append((namespace, attr, original))
        setattr(namespace, attr, self.wrap(original, name, hook))

    def unpatch(self) -> None:
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)

    # ------------------------------------------------------------------ analysis

    def _arrays(self):
        cols = {k: [] for k in ("sid", "parent", "name", "t0", "t1")}
        for buf in self._buffers:
            for k in cols:
                cols[k].append(np.frombuffer(getattr(buf, k), dtype=np.int64))
        return {k: (np.concatenate(v) if v else np.zeros(0, dtype=np.int64))
                for k, v in cols.items()}

    def summary(self) -> dict:
        """Per span name: calls, total, self and direct-children nanoseconds,
        and the minimum self time seen; plus the merged counters and maxima."""
        a = self._arrays()
        n = a["sid"].size
        dur = a["t1"] - a["t0"]
        covered = np.zeros(n, dtype=np.int64)
        if n:
            pos = np.full(int(a["sid"].max()) + 1, -1, dtype=np.int64)
            pos[a["sid"]] = np.arange(n)
            has_parent = (a["parent"] > 0) & (a["parent"] < pos.size)
            has_parent[has_parent] &= pos[a["parent"][has_parent]] >= 0
            kids = np.flatnonzero(has_parent)
            kids = kids[np.lexsort((a["t0"][kids], a["parent"][kids]))]
            parent_of = a["parent"][kids].tolist()
            k0 = a["t0"][kids].tolist()
            k1 = a["t1"][kids].tolist()
            cov = {}
            cur, lo, hi, total = None, 0, 0, 0
            for p, s, e in zip(parent_of, k0, k1):
                if p != cur:
                    if cur is not None:
                        cov[cur] = total + (hi - lo)
                    cur, lo, hi, total = p, s, e, 0
                elif s > hi:
                    total += hi - lo
                    lo, hi = s, e
                elif e > hi:
                    hi = e
            if cur is not None:
                cov[cur] = total + (hi - lo)
            for p, c in cov.items():
                i = pos[p]
                # children are recorded inside their parent's interval, but
                # clip anyway so a clock quirk cannot make self time negative
                covered[i] = min(c, int(dur[i]))
        self_ns = dur - covered
        child_ns = np.zeros(len(self._names), dtype=np.int64)
        if n:
            np.add.at(child_ns, a["name"][pos[a["parent"][kids]]], dur[kids])
        spans = {}
        for idx, name in enumerate(self._names):
            sel = a["name"] == idx
            if not np.any(sel):
                continue
            spans[name] = {"calls": int(sel.sum()), "total_ns": int(dur[sel].sum()),
                           "self_ns": int(self_ns[sel].sum()),
                           "children_ns": int(child_ns[idx]),
                           "min_self_ns": int(self_ns[sel].min())}
        counts: dict[str, float] = {}
        maxima: dict[str, float] = {}
        for buf in self._buffers:
            for k, v in buf.counts.items():
                counts[k] = counts.get(k, 0.0) + v
            for k, v in buf.maxima.items():
                maxima[k] = max(maxima.get(k, v), v)
        return {"spans": spans, "counts": counts, "maxima": maxima, "n_spans": int(n)}

    def dump(self, path: str) -> None:
        """Write every recorded span (ids, parents, names, ns timestamps)."""
        a = self._arrays()
        np.savez_compressed(path, names=np.array(self._names), **a)
