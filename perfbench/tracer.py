"""Span tracing of the attraos layers from outside the library.

`Tracer.install` replaces the module attributes through which each layer is
actually called with timing wrappers, and `Tracer.uninstall` puts the
originals back.  The forecaster and the CLI bind most pipeline functions with
``from ... import``, so those are wrapped on ``attraos.forecaster`` and
``attraos.cli``; `evolution` is reached as ``evo.<fn>`` and the embedding
helpers call each other through module globals, so those are wrapped on their
own modules.

Spans are kept in memory (name, start, end, parent, thread id and a few exact
counts) and aggregated into per-layer metrics by `layer_metrics`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import os
import threading
import time
from dataclasses import dataclass, field

FIT_SPAN = "forecaster.fit"


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# --- exact counts recorded at the layer boundaries ---------------------------


def _scan_counts(args, result):
    inp = args[0]
    return {"steps": int(inp.length), "state_values": int(inp.bu_seq.size)}


def _simulate_counts(args, result):
    return {"rk4_steps": int(args[3])}


def _kmeans_counts(args, result):
    return {"iters": int(len(result.inertia_history))}


def _ridge_counts(args, result):
    return {"max_dim": int(args[0].shape[1])}


def _fit_counts(args, result):
    config, series = args[0], args[1]
    span = len(series) - config.window - config.horizon + 1
    starts = max(0, -(-span // config.patch_len))
    return {"train_windows": min(starts, config.max_train_windows) * result.n_channels}


def _to_json_counts(args, result):
    return {"bytes": len(result.encode("utf-8"))}


def _csv_counts(args, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, counts function); one entry per call path.
WRAPS = [
    ("chaos", "simulate_lorenz63", "chaos.simulate", _simulate_counts),
    ("chaos", "simulate_lorenz96", "chaos.simulate", _simulate_counts),
    ("chaos", "observe", "chaos.observe", None),
    ("embedding", "select_embedding", "embedding.select", None),
    ("embedding", "mi_profile", "embedding.mi_profile", None),
    ("embedding", "fnn_profile", "embedding.fnn_profile", None),
    ("forecaster", "select_embedding", "embedding.select", None),
    ("forecaster", "delay_embed", "embedding.delay_embed", None),
    ("forecaster", "patch", "embedding.patch", None),
    ("forecaster", "sequential_scan", "scan.sequential", _scan_counts),
    ("forecaster", "decompose", "wavelet.decompose", None),
    ("forecaster", "reconstruct", "wavelet.reconstruct", None),
    ("forecaster", "build_filters", "wavelet.build_filters", None),
    ("forecaster", "discretize", "legendre.discretize", None),
    ("forecaster", "make_ssm_params", "legendre.make_ssm_params", None),
    ("forecaster", "fit", FIT_SPAN, _fit_counts),
    ("forecaster", "predict", "forecaster.predict", None),
    ("forecaster", "model_to_json", "forecaster.to_json", _to_json_counts),
    ("forecaster", "model_from_json", "forecaster.from_json", None),
    ("evolution", "fft_modes", "evolution.fft", None),
    ("evolution", "apply_spectral_evolution", "evolution.apply", None),
    ("evolution", "apply_direct_evolution", "evolution.apply", None),
    ("evolution", "apply_hopfield_evolution", "evolution.apply", None),
    ("evolution", "kmeans_partition", "evolution.kmeans", _kmeans_counts),
    ("evolution", "ridge_fit", "evolution.ridge", _ridge_counts),
    ("evolution", "fit_spectral_operators", "evolution.fit", None),
    ("evolution", "fit_direct_operators", "evolution.fit", None),
    ("evolution", "fit_hopfield_evolution", "evolution.fit", None),
    ("lyapunov", "estimate_mle", "lyapunov.estimate", None),
    ("lyapunov", "delay_embed", "embedding.delay_embed", None),
    ("cli", "main", "cli.main", None),
    ("cli", "read_csv", "cli.read_csv", _csv_counts),
    ("cli", "write_csv", "cli.write_csv", _csv_counts),
    ("cli", "select_embedding", "embedding.select", None),
    ("cli", "delay_embed", "embedding.delay_embed", None),
    ("cli", "mi_profile", "embedding.mi_profile", None),
    ("cli", "fnn_profile", "embedding.fnn_profile", None),
]

# Span names that report calls / busy_s / self_s, and the exact counts summed
# from span counts, in the order they are reported.
SPAN_NAMES = sorted({name for _, _, name, _ in WRAPS})
COUNT_METRICS = [
    ("forecaster.fit.train_windows", FIT_SPAN, "train_windows"),
    ("scan.steps", "scan.sequential", "steps"),
    ("scan.state_values", "scan.sequential", "state_values"),
    ("evolution.kmeans.iters", "evolution.kmeans", "iters"),
    ("chaos.rk4_steps", "chaos.simulate", "rk4_steps"),
    ("cli.read_csv.bytes", "cli.read_csv", "bytes"),
    ("cli.write_csv.bytes", "cli.write_csv", "bytes"),
]
MAX_METRICS = [
    ("forecaster.model_bytes", "forecaster.to_json", "bytes"),
    ("evolution.ridge.max_dim", "evolution.ridge", "max_dim"),
]
# metrics that do not add up across passes
NON_ADDITIVE = {"forecaster.fit.concurrency"} | {m for m, _, _ in MAX_METRICS}


def units() -> dict:
    """Unit of every metric `layer_metrics` and the runner report."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = "count"
        out[f"{name}.busy_s"] = "s"
        out[f"{name}.self_s"] = "s"
    for metric, _, key in COUNT_METRICS + MAX_METRICS:
        out[metric] = "bytes" if key == "bytes" else "count"
    out["forecaster.fit.concurrency"] = "ratio"
    out["trace.overhead_s"] = "s"
    out["trace.overhead_share"] = "ratio"
    out["trace.spans_per_pass"] = "count"
    return out


class Tracer:
    """In-memory span recorder with wrappers installed on attraos modules."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open_fits: list[int] = []
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block on this thread record no spans."""
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = False

    def call(self, name, fn, counts_fn, args, kwargs):
        if getattr(self._local, "paused", False):
            return fn(*args, **kwargs)
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # pool worker threads do not inherit the caller's stack: their
            # root spans belong to the fit that started the pool
            with self._lock:
                parent = self._open_fits[-1] if self._open_fits else None
        with self._lock:
            sid = next(self._ids)
            if name == FIT_SPAN:
                self._open_fits.append(sid)
        stack.append(sid)
        span = Span(sid, name, time.perf_counter(), 0.0, parent, threading.get_ident())
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                if name == FIT_SPAN:
                    self._open_fits.remove(sid)
                self.spans.append(span)
        if counts_fn is not None:
            span.counts = counts_fn(args, result)
        return result

    def wrap(self, name, fn, counts_fn=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, counts_fn, args, kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every WRAPS entry on its ``attraos`` module."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, name, counts_fn in WRAPS:
            mod = importlib.import_module(f"attraos.{mod_name}")
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(name, orig, counts_fn))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved = []

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
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


def self_times(spans) -> dict:
    """Span id -> its duration minus the part its child spans cover.

    Children may run on other threads and overlap each other, so the covered
    part is the union of their intervals, not their sum.
    """
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - covered(children.get(s.sid, ()), s.start, s.end) for s in spans
    }


def layer_metrics(spans) -> dict:
    """Per-layer calls, busy_s (inclusive, outermost span of a name only),
    self_s, exact counts, and the fit concurrency for one traced pass."""
    by_id = {s.sid: s for s in spans}
    selfs = self_times(spans)
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.busy_s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for s in spans:
        if s.name not in SPAN_NAMES:
            continue
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.self_s"] += selfs[s.sid]
        if not _has_ancestor_named(s, by_id, s.name):
            out[f"{s.name}.busy_s"] += s.duration
    for metric, name, key in COUNT_METRICS:
        out[metric] = sum(s.counts.get(key, 0) for s in spans if s.name == name)
    for metric, name, key in MAX_METRICS:
        out[metric] = max((s.counts.get(key, 0) for s in spans if s.name == name), default=0)
    fit_ids = {s.sid for s in spans if s.name == FIT_SPAN}
    under_fit = sum(s.duration for s in spans if s.parent in fit_ids)
    fit_wall = sum(by_id[i].duration for i in fit_ids)
    out["forecaster.fit.concurrency"] = under_fit / fit_wall if fit_wall > 0 else 0.0
    return out


def _has_ancestor_named(span, by_id, name) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent)
    return False
