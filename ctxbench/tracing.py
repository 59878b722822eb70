"""Spans around the public functions of `roictx`, installed from outside.

`install(roictx)` replaces every public function of the library modules
with a wrapper that records a span, in every module namespace that holds
it (so `mining.roi_align`, the name `ContextMiner.mine` looks up, is
wrapped along with `roi_ops.roi_align`).  Methods of the mining engine
and of `RangeMaxTable` are wrapped on their classes.  Library code is
not edited.

A span's self time is its duration minus the time of the wrapped spans
inside it and of the tracer's own bookkeeping.  Spans are recorded on
one thread; the benchmark mines with one thread.
"""

from __future__ import annotations

import inspect
import sys
import time
import tracemalloc
import weakref
from dataclasses import dataclass, field

import numpy as np

TRACED_MODULES = ("tensor", "geometry", "roi_ops", "mining", "losses", "synth")

# Two names for one layer: candidate_pool_for_cell calls _candidate_arrays,
# and the nested call is folded into the outer span.
ENUMERATE = "mining.enumerate"


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counters: dict = field(default_factory=dict)

    def add(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount


class Tracer:
    def __init__(self):
        self.active = True
        self.stats: dict[str, SpanStats] = {}
        self.spans: list = []          # (name, start_s, end_s, parent index)
        self._stack: list = []         # [name, child seconds, span index]
        self._align_maps: list = []    # per open mine span: id -> weakref
        self._rect_codes: dict = {}    # id(table) -> queried rect codes
        self._retired: list = []       # rect codes of freed tables

    def stat(self, name) -> SpanStats:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        return st

    def wrap(self, name, fn, after=None, around=None):
        """A wrapper recording span `name`.

        `around()` makes a context manager entered just outside the timed
        window; `after(stats, result, args, ctx)` updates counters.  Both
        count as bookkeeping, which no span's self time includes.
        """
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            if not tracer.active or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            t_enter = time.perf_counter()
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [name, 0.0, index]
            parent = stack[-1][2] if stack else -1
            stack.append(frame)
            ctx = around() if around is not None else None
            if ctx is not None:
                ctx.__enter__()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if ctx is not None:
                    ctx.__exit__(None, None, None)
                stack.pop()
                st = tracer.stat(name)
                st.calls += 1
                st.total_s += t1 - t0
                st.self_s += (t1 - t0) - frame[1]
                tracer.spans[index] = (name, t0, t1, parent)
            if after is not None:
                after(st, result, args, ctx)
            if stack:
                stack[-1][1] += time.perf_counter() - t_enter
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters ---------------------------------------------------------

    def on_query(self, st, result, args, ctx):
        table, y0, y1, x0, x1 = args[:5]
        _, H, W = table.dims
        st.add("rects", len(y0))
        codes = self._rect_codes.get(id(table))
        if codes is None:
            codes = self._rect_codes[id(table)] = []
            weakref.finalize(table, self._retire, id(table))
        y0, y1, x0, x1 = (np.asarray(v, dtype=np.int64) for v in (y0, y1, x0, x1))
        codes.append(((y0 * (H + 1) + y1) * (W + 1) + x0) * (W + 1) + x1)

    def _retire(self, key):
        # Runs inside whatever span frees the table: defer the counting.
        self._retired.append(self._rect_codes.pop(key))

    def unique_rects(self) -> int:
        """Distinct rectangles queried per table, summed over tables."""
        tables = self._retired + list(self._rect_codes.values())
        return sum(len(np.unique(np.concatenate(codes))) for codes in tables)

    @staticmethod
    def on_enumerate(st, result, args, ctx):
        if result is not None:
            st.add("candidates", len(getattr(result, "candidates", result)))

    @staticmethod
    def on_score_flat(st, result, args, ctx):
        rows, feats = args[1].shape
        st.add("macs", rows * feats)

    def on_align(self, st, result, args, ctx):
        D = result.data.shape[0]
        ph, pw, s2, _ = result.samples.shape
        st.add("taps", D * ph * pw * s2 * 4)
        if self._align_maps:
            self._align_maps[-1][id(result)] = weakref.ref(result)

    def mine_window(self):
        """Collects the align maps made while one mine call runs."""
        return _Collect(self._align_maps)

    def on_mine(self, st, result, args, ctx):
        made = self._align_maps.pop()
        maps = [result.object_map] + [rec.roi_map for rec in result.selected
                                      if not rec.fallback]
        kept = {id(m) for m in maps if id(m) in made and made[id(m)]() is m}
        st.add("kept_align_maps", len(kept))
        st.add("fallback_cells", sum(rec.fallback for rec in result.selected))

    @staticmethod
    def on_build(st, result, args, ctx):
        st.add("alloc_bytes", ctx.peak)


class _Collect:
    def __init__(self, stack):
        self.stack = stack

    def __enter__(self):
        self.stack.append({})

    def __exit__(self, *exc):
        return False


class _TraceMalloc:
    """Peak bytes traced by tracemalloc while the window is open."""

    peak = 0

    def __enter__(self):
        tracemalloc.start()

    def __exit__(self, *exc):
        self.peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return False


def install(roictx, tracer: Tracer) -> None:
    """Wrap the library in place for the rest of the process."""
    modules = [getattr(roictx, name) for name in TRACED_MODULES]
    namespaces = [mod for name, mod in sys.modules.items()
                  if name == roictx.__name__
                  or name.startswith(roictx.__name__ + ".")]

    def replace_everywhere(original, wrapped):
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapped)

    mining = roictx.mining
    special = {"_candidate_arrays": tracer.on_enumerate,
               "candidate_pool_for_cell": tracer.on_enumerate}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, fn in list(vars(mod).items()):
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            if attr in special:
                name, after = ENUMERATE, special[attr]
            elif attr.startswith("_"):
                continue
            else:
                name = f"{short}.{attr}"
                after = tracer.on_align if name == "roi_ops.roi_align" else None
            replace_everywhere(fn, tracer.wrap(name, fn, after))

    def wrap_method(cls, attr, name, after=None, around=None):
        original = vars(cls)[attr]
        setattr(cls, attr, tracer.wrap(name, original, after, around))

    table = roictx.roi_ops.RangeMaxTable
    wrap_method(table, "__init__", "roi_ops.RangeMaxTable.build",
                tracer.on_build, _TraceMalloc)
    wrap_method(table, "query", "roi_ops.RangeMaxTable.query", tracer.on_query)
    wrap_method(table, "pool_xyxy", "roi_ops.RangeMaxTable.pool_xyxy")
    wrap_method(table, "pool_boxes", "roi_ops.RangeMaxTable.pool_boxes")
    wrap_method(mining.ContextMiner, "mine", "mining.ContextMiner.mine",
                tracer.on_mine, tracer.mine_window)
    wrap_method(mining.ContextScorer, "score_flat",
                "mining.ContextScorer.score_flat", tracer.on_score_flat)
