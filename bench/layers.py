"""Layer tracing from outside the library.

The tracer replaces qpl functions with timing wrappers.  A function is
replaced wherever a qpl module or class binds it: ``qpl.identities`` imports
``iter_overpartitions`` and the core statistics by name, so patching only
their home modules would miss those calls.  A target whose home module no
longer defines it is reported as missing instead of failing the run.

Two kinds of wrapper keep the trace bounded:

* spans, for layer calls above the leaf level: each call (or, for a
  generator, each whole stream) is one span record with its parent, kept in
  memory up to ``MAX_SPANS`` records and written out at the end of the pass;
* leaves, for hot calls (core statistics, ``is_member``, ``QSeries.__mul__``):
  only a call count and accumulated time, charged to the enclosing span.

A quantity ``self_s`` is the time inside a target minus the time of traced
calls made from inside it.  ``items`` counts the values a stream yields, or
the length of a returned sequence.  ``iters`` counts inner-loop iterations
of the current dense kernels, computed from the arguments.
"""

from __future__ import annotations

import json
import sys
import time
import types
from contextlib import contextmanager

_now = time.perf_counter_ns
MAX_SPANS = 50_000  # span records kept per pass; the counters stay exact

# (metric prefix, home module, attribute path, kind).  Kinds: "leaf" is
# aggregated only; "span" records one span per call; "sweep" is a span that
# also counts cache hits and misses; "walk" is the overpartition stream whose
# opening marks the enclosing sweep as a miss.
TARGETS = (
    ("series.qmul", "qpl.series", "QSeries.__mul__", "leaf"),
    ("series.zqmul", "qpl.series", "ZQPoly.__mul__", "span"),
    ("series.reciprocal", "qpl.series", "QSeries.reciprocal", "span"),
    ("series.q_pochhammer", "qpl.series", "q_pochhammer", "span"),
    ("series.omega_product", "qpl.series", "omega_product", "span"),
    ("series.gaussian_binomial", "qpl.series", "gaussian_binomial", "span"),
    ("series.one_plus_zq_product", "qpl.series", "one_plus_zq_product", "span"),
    ("enumeration.iter_overpartitions", "qpl.enumeration", "iter_overpartitions", "walk"),
    ("enumeration.overpartitions_of", "qpl.enumeration", "overpartitions_of", "span"),
    ("enumeration.enumerate_class", "qpl.enumeration", "enumerate_class", "span"),
    ("enumeration.basis_elements", "qpl.enumeration", "basis_elements", "span"),
    ("enumeration.distinct_congruent_partitions", "qpl.enumeration",
     "distinct_congruent_partitions", "span"),
    ("core.min_excludant_size", "qpl.core", "min_excludant_size", "leaf"),
    ("core.max_excludant_size", "qpl.core", "max_excludant_size", "leaf"),
    ("core.largest_repeating_size", "qpl.core", "largest_repeating_size", "leaf"),
    ("core.smallest_positive_repeating_size", "qpl.core",
     "smallest_positive_repeating_size", "leaf"),
    ("separable.is_member", "qpl.separable", "is_member", "leaf"),
    ("separable.decompose", "qpl.separable", "decompose", "span"),
    ("separable.compose", "qpl.separable", "compose", "span"),
    ("separable.basis_gf", "qpl.separable", "basis_gf", "span"),
    # The four enumeration-backed builders share one metric.  Only the two
    # that walk overpartitions can hit or miss: a miss is a call that opened
    # an iter_overpartitions stream.
    ("identities.sweep", "qpl.identities", "_excludant_sweep", "sweep"),
    ("identities.sweep", "qpl.identities", "_brute_class_marked", "sweep"),
    ("identities.sweep", "qpl.identities", "_brute_basis_marked", "span"),
    ("identities.sweep", "qpl.identities", "_brute_distinct_marked", "span"),
    ("identities.diff", "qpl.identities", "_diff", "span"),
    ("identities.verify", "qpl.identities", "verify", "span"),
)

# (metric name, unit, better): the per-layer metrics a traced run reports.
LAYER_METRICS = (
    *(
        (f"series.{fn}.{q}", unit, "lower")
        for fn in ("qmul", "zqmul", "reciprocal", "q_pochhammer", "omega_product",
                   "gaussian_binomial", "one_plus_zq_product")
        for q, unit in (("calls", "count"), ("self_s", "s"))
    ),
    ("series.qmul.iters", "count", "lower"),
    ("series.reciprocal.iters", "count", "lower"),
    *(
        (f"enumeration.{fn}.{q}", unit, "lower")
        for fn in ("iter_overpartitions", "overpartitions_of", "enumerate_class",
                   "basis_elements", "distinct_congruent_partitions")
        for q, unit in (("items", "count"), ("self_s", "s"))
    ),
    *(
        (f"core.{fn}.{q}", unit, "lower")
        for fn in ("min_excludant_size", "max_excludant_size",
                   "largest_repeating_size", "smallest_positive_repeating_size")
        for q, unit in (("calls", "count"), ("self_s", "s"))
    ),
    *(
        (f"separable.{fn}.{q}", unit, "lower")
        for fn in ("is_member", "decompose", "compose", "basis_gf")
        for q, unit in (("calls", "count"), ("self_s", "s"))
    ),
    ("identities.sweep.calls", "count", "lower"),
    ("identities.sweep.self_s", "s", "lower"),
    ("identities.sweep.hit", "count", "higher"),
    ("identities.sweep.miss", "count", "lower"),
    ("identities.diff.calls", "count", "lower"),
    ("identities.diff.self_s", "s", "lower"),
    ("identities.verify.self_s", "s", "lower"),
)


def _qmul_iters(args):
    """Inner-loop iterations of the dense QSeries product: one row of
    length n+1-i for every nonzero coefficient i of the left factor."""
    left, right = args[0], args[1]
    if isinstance(right, int):
        return 0
    n = left.trunc
    return sum(n + 1 - i for i, c in enumerate(left.coeffs) if c)


def _reciprocal_iters(args):
    n = args[0].trunc
    return n * (n + 1) // 2


_ITERS = {"series.qmul": _qmul_iters, "series.reciprocal": _reciprocal_iters}


class _Stat:
    __slots__ = ("calls", "items", "self_ns", "iters", "hit", "miss")

    def __init__(self):
        self.calls = self.items = self.self_ns = self.iters = 0
        self.hit = self.miss = 0


class Tracer:
    """Per-layer counters and span records for one pass."""

    def __init__(self):
        self.stats = {}
        self.spans = []  # (id, parent id, name, start ns, end ns, self ns)
        self.dropped_spans = 0
        self.missing = []  # targets whose function does not exist
        self.walks = 0  # iter_overpartitions streams opened so far
        self._next_id = 1
        # A frame is [time of traced children in ns, span id, parent span id];
        # the root frame absorbs calls made outside any span.
        self._stack = [[0, 0, 0]]
        self._op_stat = _Stat()

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every target in the loaded qpl modules."""
        modules = [m for name, m in sys.modules.items()
                   if name == "qpl" or name.startswith("qpl.")]
        for prefix, home, path, kind in TARGETS:
            stat = self.stats.setdefault(prefix, _Stat())
            owner = sys.modules.get(home)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{home}.{path}")
                continue
            if kind == "leaf":
                wrapper = self._leaf(prefix, original, stat)
            else:
                wrapper = self._span(prefix, original, stat, kind)
            holders = [owner] if owner_path else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)

    def _leaf(self, name, fn, stat):
        stack = self._stack
        iters = _ITERS.get(name)

        def leaf(*args, **kwargs):
            start = _now()
            result = fn(*args, **kwargs)
            took = _now() - start
            stack[-1][0] += took
            stat.calls += 1
            stat.self_ns += took
            if iters is not None:
                stat.iters += iters(args)
            return result

        return leaf

    def _span(self, name, fn, stat, kind):
        iters = _ITERS.get(name)

        def span(*args, **kwargs):
            walks = self.walks
            if kind == "walk":
                self.walks += 1
            frame = self._open()
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                self._close(frame, start, end)
            if iters is not None:
                stat.iters += iters(args)
            if isinstance(result, types.GeneratorType):
                # The stream's span covers its creation and every resumption.
                return self._stream(name, result, stat, frame, start, end - start)
            if isinstance(result, (list, tuple)):
                stat.items += len(result)
            if kind == "sweep":
                if self.walks > walks:
                    stat.miss += 1
                else:
                    stat.hit += 1
            self._finish(name, stat, frame, start, end, end - start)
            return result

        return span

    def _stream(self, name, gen, stat, frame, start, active):
        stack = self._stack
        end = start + active
        try:
            while True:
                parent = stack[-1]
                stack.append(frame)
                t0 = _now()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    end = _now()
                    stack.pop()
                    parent[0] += end - t0
                    active += end - t0
                stat.items += 1
                yield item
        finally:
            gen.close()
            self._finish(name, stat, frame, start, end, active)

    def _open(self):
        frame = [0, self._next_id, self._stack[-1][1]]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame, start, end):
        self._stack.pop()
        self._stack[-1][0] += end - start

    def _finish(self, name, stat, frame, start, end, active):
        stat.calls += 1
        stat.self_ns += active - frame[0]
        if len(self.spans) < MAX_SPANS:
            self.spans.append((frame[1], frame[2], name, start, end, active - frame[0]))
        else:
            self.dropped_spans += 1

    @contextmanager
    def op(self, label: str):
        """One benchmark op: the root span of the calls it makes."""
        frame = self._open()
        start = _now()
        try:
            yield
        finally:
            end = _now()
            self._close(frame, start, end)
            self._finish(f"op {label}", self._op_stat, frame, start, end, end - start)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric; a metric of a missing target is None."""
        missing_prefixes = {
            prefix for prefix, home, path, _ in TARGETS
            if f"{home}.{path}" in self.missing
        }
        out = {}
        for name, _, _ in LAYER_METRICS:
            prefix, quantity = name.rsplit(".", 1)
            lost = prefix in missing_prefixes or (
                quantity in ("hit", "miss")
                and "enumeration.iter_overpartitions" in missing_prefixes
            )
            stat = self.stats.get(prefix)
            if lost or stat is None:
                out[name] = None
            elif quantity == "self_s":
                out[name] = stat.self_ns / 1e9
            else:
                out[name] = getattr(stat, quantity)
        return out

    def write_spans(self, path):
        """Write the span records as JSON lines, root spans included."""
        with open(path, "w") as fh:
            for sid, parent, name, start, end, self_ns in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end,
                                     "self_ns": self_ns}) + "\n")
