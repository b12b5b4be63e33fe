import threading

import numpy as np
import pytest

import tracer as tracing
from tracer import Span


def test_self_time_subtracts_nested_children():
    spans = [
        Span(1, "forecaster.fit", 0.0, 10.0, None, 1),
        Span(2, "wavelet.decompose", 1.0, 3.0, 1, 1),
        Span(3, "scan.sequential", 4.0, 5.0, 1, 1),
        Span(4, "evolution.ridge", 4.2, 4.7, 3, 1),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({1: 7.0, 2: 2.0, 3: 0.5, 4: 0.5})


def test_self_time_counts_overlapping_cross_thread_children_once():
    # two pool workers run under one fit; their spans overlap in time
    spans = [
        Span(1, "forecaster.fit", 0.0, 10.0, None, 1),
        Span(2, "wavelet.decompose", 1.0, 6.0, 1, 2),
        Span(3, "wavelet.decompose", 4.0, 8.0, 1, 3),
        Span(4, "evolution.fit", 9.0, 12.0, 1, 2),  # runs past its parent
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 7.0 - 1.0)
    metrics = tracing.layer_metrics(spans)
    assert metrics["forecaster.fit.self_s"] == pytest.approx(2.0)
    assert metrics["wavelet.decompose.calls"] == 2
    assert metrics["wavelet.decompose.busy_s"] == pytest.approx(9.0)
    assert metrics["forecaster.fit.concurrency"] == pytest.approx(12.0 / 10.0)


def test_busy_time_counts_only_the_outermost_span_of_a_name():
    spans = [
        Span(1, "embedding.select", 0.0, 4.0, None, 1),
        Span(2, "embedding.select", 0.5, 2.0, 1, 1),
        Span(3, "embedding.select", 2.0, 3.5, 1, 1),
    ]
    metrics = tracing.layer_metrics(spans)
    assert metrics["embedding.select.calls"] == 3
    assert metrics["embedding.select.busy_s"] == pytest.approx(4.0)
    assert metrics["embedding.select.self_s"] == pytest.approx(4.0)


def test_worker_thread_roots_attach_to_the_enclosing_fit(monkeypatch):
    import attraos
    from attraos import forecaster as fc

    monkeypatch.setenv("ATTRAOS_THREADS", "2")
    t = np.arange(1200) * 0.05
    series = np.stack([np.sin(t), np.cos(1.3 * t)], axis=1)
    config = fc.ForecasterConfig(window=48, horizon=8, embedding=attraos.EmbeddingParams(2, 3),
                                 max_train_windows=40)
    tr = tracing.Tracer()
    tr.install()
    try:
        fc.fit(config, series)
    finally:
        tr.uninstall()
    assert fc.fit.__module__ == "attraos.forecaster" and not hasattr(fc.fit, "__wrapped__")
    spans = tr.take()
    fit = [s for s in spans if s.name == tracing.FIT_SPAN]
    assert len(fit) == 1
    main = threading.get_ident()
    workers = [s for s in spans if s.thread != main]
    assert workers, "the fit should have used the thread pool"
    by_id = {s.sid: s for s in spans}
    for s in workers:
        while s.parent != fit[0].sid:
            assert s.parent is not None
            s = by_id[s.parent]
    metrics = tracing.layer_metrics(spans)
    assert metrics["forecaster.fit.train_windows"] == 2 * 40
    assert metrics["scan.sequential.calls"] > 0
    assert metrics["evolution.fft.calls"] > 0


def test_paused_calls_record_nothing():
    tr = tracing.Tracer()
    wrapped = tr.wrap("scan.sequential", lambda x: x + 1)
    with tr.paused():
        assert wrapped(1) == 2
    assert tr.take() == []
    assert wrapped(2) == 3
    assert [s.name for s in tr.take()] == ["scan.sequential"]
