"""Spans around binperiod's layers, recorded from outside the package.

A :class:`Tracer` replaces public functions under the names their callers
look them up by (``binperiod.simulate.substream``, ``binperiod.cli.fold``,
...) with wrappers that record one span per call: name, start, end, parent
span and request id. Spans stay in flat arrays in memory and are written out
once, when the run ends. Nothing under ``src/`` is edited; targets a later
version of the package no longer has are skipped and read as zero.

The wrapper of a child span spends some time outside that span but inside
its parent. The tracer times this per child span on entry and takes it off
the parent's self time, so self times estimate the untraced program.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (module, attribute looked up by that module's callers, span name)
TARGETS = (
    ("binperiod.simulate", "substream", "rng.substream"),
    ("binperiod.nulldist", "substream", "rng.substream"),
    ("binperiod.simulate", "estimate_power", "simulate.estimate_power"),
    ("binperiod.simulate", "fisher_g_batch", "spectral.fisher_g_batch"),
    ("binperiod.nulldist", "fisher_g_batch", "spectral.fisher_g_batch"),
    ("binperiod.spectral", "fisher_g_batch", "spectral.fisher_g_batch"),
    ("binperiod.cli", "fisher_g", "spectral.fisher_g"),
    ("binperiod.theory", "fisher_g", "spectral.fisher_g"),
    ("binperiod.simulate", "critical_value", "nulldist.critical_value"),
    ("binperiod.cli", "critical_value", "nulldist.critical_value"),
    ("binperiod.nulldist", "critical_value", "nulldist.critical_value"),
    ("binperiod.cli", "p_value", "nulldist.p_value"),
    ("binperiod.nulldist", "p_value", "nulldist.p_value"),
    ("binperiod.nulldist", "tail", "nulldist.tail"),
    ("binperiod.nulldist", "sample_limit_statistic", "nulldist.sample_limit_statistic"),
    ("binperiod.series", "read_series", "series.read_series"),
    ("binperiod.cli", "fold", "series.fold"),
    ("binperiod.cli", "run_test", "cli.run_test"),
    ("binperiod.theory", "detectability", "theory.detectability"),
)

CALIBRATION_CALLS = 20_000


class _TracedGenerator:
    """Proxy for a numpy Generator that times ``random`` and ``standard_normal``
    as ``rng.draw`` spans and passes every other attribute through."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._gen, name)

    def _draw(self, method, args, kwargs):
        tracer = self._tracer
        idx = tracer.open("rng.draw")
        try:
            out = method(*args, **kwargs)
        finally:
            tracer.close(idx)
        tracer.counts["rng.draw.values"] += np.size(out)
        return out

    def random(self, *args, **kwargs):
        return self._draw(self._gen.random, args, kwargs)

    def standard_normal(self, *args, **kwargs):
        return self._draw(self._gen.standard_normal, args, kwargs)


class Tracer:
    """Context manager that installs the wrappers and keeps their spans.

    ``warm_d`` lists the fold lengths the warm-up already used, so that the
    first call at any other d counts towards ``spectral.cold_d_s``.
    """

    def __init__(self, warm_d=()):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.cold = array("i")  # indices of fisher_g_batch spans at a new d
        self.counts: Counter = Counter()
        self.current_request = -1
        self._stack: list[int] = []
        self._seen_d = set(warm_d)
        self._saved: list[tuple] = []
        # Tracer seconds per child span charged to its parent, by span name
        # ("" for any name not listed); set when the wrappers are installed.
        self.child_cost: dict[str, float] = {}

    # -- recording -------------------------------------------------------
    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.current_request)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, span, fn):
        tracer = self
        note = _NOTES.get(span)

        def wrapper(*args, **kwargs):
            idx = tracer.open(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if note is not None:
                out = note(tracer, idx, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------
    def __enter__(self):
        self.child_cost = child_costs()
        for mod_name, attr, span in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is not None:
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(span, fn))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False

    # -- results ---------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "request": np.frombuffer(self.request, dtype=np.int32),
        }

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), cold=np.array(self.cold), **self.arrays())

    def metrics(self) -> dict[str, float]:
        """Per-layer counts, busy time and self time from the recorded spans."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        default = self.child_cost.get("", 0.0)
        span_cost = np.array([self.child_cost.get(n, default) for n in self.names])
        charged = np.zeros_like(dur)
        if span_cost.size:
            np.add.at(charged, a["parent"][has_parent], span_cost[a["name"][has_parent]])
        selft = dur - child - charged

        def sel(name):
            nid = self._ids.get(name)
            return a["name"] == (-1 if nid is None else nid)

        def calls(name):
            return int(np.count_nonzero(sel(name)))

        def busy(name):
            return float(dur[sel(name)].sum())

        def own(name):
            return float(selft[sel(name)].sum())

        def ratio(num, den):
            return num / den if den else 0.0

        crit = sel("nulldist.critical_value")
        tail_under_crit = int(
            np.count_nonzero(sel("nulldist.tail") & has_parent & crit[np.maximum(a["parent"], 0)])
        )
        return {
            "rng.substream.calls": calls("rng.substream"),
            "rng.substream.s": busy("rng.substream"),
            "rng.draw.calls": calls("rng.draw"),
            "rng.draw.values": int(self.counts["rng.draw.values"]),
            "rng.draw.s": busy("rng.draw"),
            "rng.values_per_stream": ratio(self.counts["rng.draw.values"], calls("rng.substream")),
            "simulate.estimate_power.calls": calls("simulate.estimate_power"),
            "simulate.estimate_power.s": busy("simulate.estimate_power"),
            "simulate.self_s": own("simulate.estimate_power"),
            "spectral.fisher_g_batch.calls": calls("spectral.fisher_g_batch"),
            "spectral.fisher_g_batch.rows": int(self.counts["spectral.fisher_g_batch.rows"]),
            "spectral.fisher_g_batch.s": busy("spectral.fisher_g_batch"),
            "spectral.fisher_g.calls": calls("spectral.fisher_g"),
            "spectral.fisher_g.s": busy("spectral.fisher_g"),
            "spectral.cold_d_s": float(dur[np.array(self.cold, dtype=np.int64)].sum()),
            "nulldist.critical_value.calls": calls("nulldist.critical_value"),
            "nulldist.critical_value.s": busy("nulldist.critical_value"),
            "nulldist.p_value.calls": calls("nulldist.p_value"),
            "nulldist.p_value.s": busy("nulldist.p_value"),
            "nulldist.tail.calls": calls("nulldist.tail"),
            "nulldist.tail.s": busy("nulldist.tail"),
            "nulldist.tail_calls_per_critical_value": ratio(
                tail_under_crit, calls("nulldist.critical_value")
            ),
            "nulldist.sample_limit_statistic.s": busy("nulldist.sample_limit_statistic"),
            "nulldist.sample_limit_statistic.self_s": own("nulldist.sample_limit_statistic"),
            "series.read_series.calls": calls("series.read_series"),
            "series.read_series.s": busy("series.read_series"),
            "series.read_series.tokens_per_s": ratio(
                self.counts["series.read_series.tokens"], busy("series.read_series")
            ),
            "series.fold.calls": calls("series.fold"),
            "series.fold.s": busy("series.fold"),
            "cli.run_test.calls": calls("cli.run_test"),
            "cli.run_test.s": busy("cli.run_test"),
            "cli.run_test.self_s": own("cli.run_test"),
            "theory.detectability.calls": calls("theory.detectability"),
            "theory.detectability.s": busy("theory.detectability"),
            "trace.spans": int(dur.size),
            "trace.child_cost_s": float(charged.sum()),
        }


class _Stub:
    """Stands in for a generator and for a function while the tracer times itself."""

    out = np.zeros(1)

    def random(self, *args, **kwargs):
        return self.out


def _outside_spans_s(make_call, calls: int) -> float:
    """Seconds per call spent outside the recorded spans, less the cost of the
    loop and of calling a function that does nothing."""
    probe = Tracer()
    call = make_call(probe)
    t0 = perf_counter()
    for _ in range(calls):
        call()
    total = perf_counter() - t0
    empty = lambda: None  # noqa: E731
    t0 = perf_counter()
    for _ in range(calls):
        empty()
    loop = perf_counter() - t0
    inside = sum(e - s for s, e in zip(probe.start, probe.end))
    return max(0.0, (total - loop - inside) / calls)


def child_costs(calls: int = CALIBRATION_CALLS) -> dict[str, float]:
    """Tracer seconds per child span that fall inside its parent span.

    Timed on stand-ins through the same paths the traced run takes: a plain
    wrapper, the ``substream`` wrapper that also builds the generator proxy,
    and a draw through that proxy.
    """
    stub = _Stub()

    def plain(probe):
        return probe._wrap("probe", stub.random)

    def substream(probe):
        return probe._wrap("rng.substream", lambda: stub)

    def draw(probe):
        return _TracedGenerator(stub, probe).random

    return {
        "": _outside_spans_s(plain, calls),
        "rng.substream": _outside_spans_s(substream, calls),
        "rng.draw": _outside_spans_s(draw, calls),
    }


def clear_caches() -> None:
    """Empty every ``functools`` cache of binperiod, whatever it caches."""
    for mod_name in {m for m, _, _ in TARGETS} | {"binperiod.rng"}:
        mod = importlib.import_module(mod_name)
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _note_substream(tracer, idx, args, gen):
    return _TracedGenerator(gen, tracer)


def _note_batch(tracer, idx, args, out):
    x = np.asarray(args[0])
    tracer.counts["spectral.fisher_g_batch.rows"] += 1 if x.ndim == 1 else x.shape[0]
    d = x.shape[-1]
    if d not in tracer._seen_d:
        tracer._seen_d.add(d)
        tracer.cold.append(idx)
    return out


def _note_read(tracer, idx, args, series):
    tracer.counts["series.read_series.tokens"] += len(series)
    return series


_NOTES = {
    "rng.substream": _note_substream,
    "spectral.fisher_g_batch": _note_batch,
    "series.read_series": _note_read,
}


# Unit of every per-layer metric, in the order the benchmark reports them.
UNITS = {
    "rng.substream.calls": "count",
    "rng.substream.s": "s",
    "rng.draw.calls": "count",
    "rng.draw.values": "count",
    "rng.draw.s": "s",
    "rng.values_per_stream": "count",
    "simulate.estimate_power.calls": "count",
    "simulate.estimate_power.s": "s",
    "simulate.self_s": "s",
    "spectral.fisher_g_batch.calls": "count",
    "spectral.fisher_g_batch.rows": "count",
    "spectral.fisher_g_batch.s": "s",
    "spectral.fisher_g.calls": "count",
    "spectral.fisher_g.s": "s",
    "spectral.cold_d_s": "s",
    "nulldist.critical_value.calls": "count",
    "nulldist.critical_value.s": "s",
    "nulldist.p_value.calls": "count",
    "nulldist.p_value.s": "s",
    "nulldist.tail.calls": "count",
    "nulldist.tail.s": "s",
    "nulldist.tail_calls_per_critical_value": "count",
    "nulldist.sample_limit_statistic.s": "s",
    "nulldist.sample_limit_statistic.self_s": "s",
    "series.read_series.calls": "count",
    "series.read_series.s": "s",
    "series.read_series.tokens_per_s": "1/s",
    "series.fold.calls": "count",
    "series.fold.s": "s",
    "cli.run_test.calls": "count",
    "cli.run_test.s": "s",
    "cli.run_test.self_s": "s",
    "cli.cold_p50_s": "s",
    "theory.detectability.calls": "count",
    "theory.detectability.s": "s",
    "trace.spans": "count",
    "trace.child_cost_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "share",
}
