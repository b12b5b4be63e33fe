import base64
import json
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attraos import forecaster as fc
from attraos.embedding import EmbeddingParams, delay_embed, patch
from attraos.errors import (
    AttraosError,
    DegenerateSeriesError,
    EmptyInputError,
    ModelFormatError,
    NonFiniteError,
    ShapeMismatchError,
    TooShortError,
)
from attraos.legendre import discretize, make_ssm_params
from attraos.scan import ScanInput, sequential_scan
from attraos.wavelet import Pyramid, build_filters, decompose, reconstruct


def small_config(**kw):
    base = dict(
        window=64,
        horizon=4,
        embedding=EmbeddingParams(3, 4),
        patch_len=4,
        poly_order=4,
        levels=2,
        m_modes=4,
        ridge_lambda=1e-6,
        max_train_windows=64,
    )
    base.update(kw)
    return fc.ForecasterConfig(**base)


def channel_features(stack, evolvers, model):
    """``_features`` of one channel's (B, S, D) stack under that channel's
    own evolvers: the call with a channel axis of one."""
    return fc._features(stack[None], fc._stacked([evolvers], model.config), model)[0]


def channel_evolvers(model, c):
    """Channel c's evolvers, one per scale, sliced out of the model's
    channel-stacked ``evolvers``: the inverse of ``_stacked``'s layout."""
    if model.config.evolution_strategy == "frequency":
        return [replace(ev, mode_ops=ev.mode_ops[:, c, 0, 0]) for ev in model.evolvers]
    keys = EVOLVER_ARRAYS[model.config.evolution_strategy]
    return [replace(ev, **{k: getattr(ev, k)[c] for k in keys}) for ev in model.evolvers]


def fit_with_feature_readouts(config, series):
    """``fit`` and the (C, L' * D, horizon) readouts it solved on the
    channels' feature rows.  A ``direct``/``hopfield`` model keeps those
    readouts; a ``frequency`` model keeps each one composed with its
    channel's stage map, the serving map, and the ones solved are seen only
    here."""
    solved = []
    readout = fc._readout

    def recording(design, targets, cfg):
        solved.append(readout(design, targets, cfg))
        return solved[-1]

    fc._readout = recording
    try:
        model = fc.fit(config, series)
    finally:
        fc._readout = readout
    return model, np.stack(solved)


@pytest.fixture(scope="module")
def lorenz_model(lorenz63_x):
    split = int(lorenz63_x.size * 0.7)
    cfg = fc.ForecasterConfig(
        window=96, horizon=16, embedding=EmbeddingParams(3, 16), seed=7
    )
    return fc.fit(cfg, lorenz63_x[:split]), lorenz63_x[:split], lorenz63_x[split:]


class TestFit:
    def test_linear_series_interpolated(self):
        z = np.arange(400, dtype=float)
        model = fc.fit(small_config(), z)
        s = 400 - 64 - 4  # a training window
        pred = fc.predict(model, z[s : s + 64]).predictions.ravel()
        # ridge oracle on the assembled design matrix gives the same answer
        # as the pipeline: a linear readout interpolates a linear target
        assert np.abs(pred - z[s + 64 : s + 68]).max() <= 1e-6

    def test_constant_series_auto_embedding_degenerate(self):
        with pytest.raises(DegenerateSeriesError):
            fc.fit(fc.ForecasterConfig(window=64, horizon=4), np.full(500, 2.0))

    def test_constant_channel_auto_embedding(self, lorenz63_x):
        # a constant channel is left out of the (m, tau) selection and is
        # forecast exactly
        x = lorenz63_x[:4000]
        cfg = fc.ForecasterConfig(window=96, horizon=16)
        data = np.stack([x, np.full(x.size, -7.25)], axis=1)
        model = fc.fit(cfg, data)
        assert model.embedding == fc.fit(cfg, x).embedding
        pred = fc.predict(model, data[-96:]).predictions
        assert np.array_equal(pred[:, 1], np.full(16, -7.25))
        assert np.all(np.isfinite(pred[:, 0]))

    def test_constant_series_manual_embedding_constant_forecast(self):
        z = np.full(400, 5.0)
        model = fc.fit(small_config(), z)
        pred = fc.predict(model, z[:64]).predictions
        assert np.allclose(pred, 5.0, atol=1e-12)

    def test_beats_persistence_on_lorenz(self, lorenz_model):
        model, train, val = lorenz_model
        w, h = 96, 16
        starts = np.linspace(0, val.size - w - h, 48).astype(int)
        model_err, persist_err = [], []
        for s in starts:
            ctx = val[s : s + w]
            truth = val[s + w : s + w + h]
            pred = fc.predict(model, ctx).predictions.ravel()
            model_err.append(np.mean((pred - truth) ** 2))
            persist_err.append(np.mean((fc.persistence_forecast(ctx, h).ravel() - truth) ** 2))
        assert np.mean(model_err) < np.mean(persist_err)

    def test_too_short_series(self):
        with pytest.raises(TooShortError):
            fc.fit(small_config(), np.sin(np.arange(66.0)))

    @pytest.mark.parametrize("max_train_windows", [0, -5, 1])
    def test_fewer_than_two_train_windows_rejected(self, max_train_windows):
        # 0 would keep every window, -5 drop the oldest and 1 leave no pair
        with pytest.raises(ValueError, match="max_train_windows"):
            small_config(max_train_windows=max_train_windows)

    @pytest.mark.parametrize("field,value", [("ridge_lambda", -1.0), ("hopfield_beta", -1.0),
                                             ("hopfield_beta", 0.0)])
    def test_out_of_range_solver_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            fc.ForecasterConfig(window=96, horizon=4, **{field: value})

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("field", ["theta", "ridge_lambda", "hopfield_beta"])
    def test_non_finite_solver_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            fc.ForecasterConfig(window=96, horizon=4, **{field: value})

    @pytest.mark.parametrize("field", ["theta", "ridge_lambda", "hopfield_beta"])
    def test_integer_beyond_the_float_range_rejected(self, field):
        # 10**400 compares as finite (0 < value < inf) but converts to no float
        with pytest.raises(ValueError, match=f"{field} must be a finite float"):
            fc.ForecasterConfig(window=96, horizon=4, **{field: 10**400})

    @pytest.mark.parametrize("value", [96.5, np.inf, np.nan])
    def test_non_integer_count_rejected(self, value):
        with pytest.raises(ValueError, match="window must be an integer"):
            fc.ForecasterConfig(window=value, horizon=4)

    @pytest.mark.parametrize("field", ["horizon", "seed", "n_clusters"])
    def test_bool_count_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            fc.ForecasterConfig(**{"window": 48, "horizon": 4, field: True})

    def test_infeasible_window_embedding(self):
        cfg = small_config(embedding=EmbeddingParams(8, 16))  # span 113 > window
        with pytest.raises(TooShortError):
            fc.fit(cfg, np.sin(0.1 * np.arange(600)))


class TestFrequencyFit:
    """A ``frequency`` fit runs on two thin QR factors of each channel's
    windows, never on the stack.  Its mode operators and the readouts it
    solves on the features must match the staged fit on the stack
    (``_stack``, ``fft_modes`` of each scale, one ``ridge_fit`` per mode,
    ``_features``, the readout ``ridge_fit``) to 1e-9 of the largest
    operator entry and 1e-10 of the largest readout entry (measured: 1.9e-11
    and 1.3e-12).  The serving map it keeps must match the staged
    composition, the staged features of the identity windows times the
    staged readout, to 1e-10 of its largest entry (measured: 1.1e-12)."""

    def test_qr_fit_matches_the_staged_fit_on_the_stack(self, lorenz63_x):
        x = np.stack([lorenz63_x[:3000], np.cos(0.03 * np.arange(3000))], axis=1)
        cfg = small_config(window=96, max_train_windows=12, ridge_lambda=1e-3)
        model, solved = fit_with_feature_readouts(cfg, x)
        sh, w, h = model.shapes, cfg.window, cfg.horizon
        starts = np.arange(0, x.shape[0] - w - h + 1, cfg.patch_len)[-12:]
        for c in range(model.n_channels):
            zn, mu, sd = fc._normalize(x[starts[:, None] + np.arange(w), c])
            targets = (x[starts[:, None] + w + np.arange(h), c] - mu[:, None]) / sd[:, None]
            stack = fc._stack(zn, model)
            evolvers = []
            for length, rows, modes, ev in zip(sh.scale_lens, sh.scale_rows, sh.scale_modes,
                                               channel_evolvers(model, c), strict=True):
                # one (M, B, D, N) spectrum per window and state row;
                # consecutive windows form the pairs
                seqs = np.swapaxes(fc._positions(stack[:, rows], sh.order), 0, 1)
                spectra = fc.evo.fft_modes(seqs, modes)
                src, dst = (spectra[:, part].reshape(modes, -1, sh.order)
                            for part in (slice(None, -1), slice(1, None)))
                ops = np.stack([fc.evo.ridge_fit(a, b, cfg.ridge_lambda) for a, b in zip(src, dst)])
                assert_close(ev.mode_ops, ops, rtol=1e-9)
                evolvers.append(fc.evo.SpectralEvolutionModel(mode_ops=ops, seq_len=length))
            feats = channel_features(stack, evolvers, model)
            readout = fc.evo.ridge_fit(feats, targets, cfg.ridge_lambda).T
            assert_close(solved[c], readout, rtol=1e-10)
            # every stage is linear, so the identity windows' features are
            # the (window, L' * D) stage map
            stage_map = channel_features(fc._stack(np.eye(w), model), evolvers, model)
            assert model.readouts[c].shape == (w, h)
            assert_close(model.readouts[c], stage_map @ readout, rtol=1e-10)

    def test_long_window_fit_builds_in_little_memory(self, lorenz63_x):
        # a (1024, S, D) stack of this fit takes 94 MB, its evolved copy as
        # much and its spectra more: the fit on the stack peaked at 315 MB
        # here, the fit on the QR factors at 82 MB
        cfg = fc.ForecasterConfig(window=336, horizon=96, embedding=EmbeddingParams(5, 16))
        tracemalloc.start()
        try:
            model = fc.fit(cfg, lorenz63_x[:9000])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.readouts.shape == (1, 336, 96)
        assert peak < 100e6


@pytest.fixture(scope="module")
def strategy_models(lorenz_model):
    """``lorenz_model`` and its refits under ``direct`` and ``hopfield``."""
    model, train, _ = lorenz_model
    return {s: model if s == "frequency"
            else fc.fit(replace(model.config, evolution_strategy=s, max_train_windows=256), train)
            for s in fc.STRATEGIES}


class TestPredict:
    def test_deterministic(self, lorenz_model):
        model, _, val = lorenz_model
        a = fc.predict(model, val[:96]).predictions
        b = fc.predict(model, val[:96]).predictions
        assert np.array_equal(a, b)

    def test_shift_equivariance(self, lorenz_model):
        model, _, val = lorenz_model
        ctx = val[:96]
        base = fc.predict(model, ctx).predictions
        shifted = fc.predict(model, ctx + 13.5).predictions
        assert np.abs(shifted - (base + 13.5)).max() <= 1e-9

    def test_affine_equivariance(self, lorenz_model):
        model, _, val = lorenz_model
        ctx = val[:96]
        base = fc.predict(model, ctx).predictions
        scaled = fc.predict(model, -2.0 * ctx + 3.0).predictions
        assert np.abs(scaled - (-2.0 * base + 3.0)).max() <= 1e-8

    def test_window_too_short(self, lorenz_model):
        model, _, val = lorenz_model
        with pytest.raises(TooShortError):
            fc.predict(model, val[:40])

    def test_channel_count_guard(self, lorenz_model):
        model, _, val = lorenz_model
        with pytest.raises(ShapeMismatchError):
            fc.predict(model, np.stack([val[:96], val[:96]], axis=1))

    def test_longer_context_uses_trailing_window(self, lorenz_model):
        model, _, val = lorenz_model
        a = fc.predict(model, val[: 96 + 50]).predictions
        b = fc.predict(model, val[50 : 96 + 50]).predictions
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("strategy", ["direct", "hopfield"])
    def test_training_window_reproduces_fit_time_path_bitwise(self, strategy_models,
                                                              lorenz_model, strategy):
        # the staged reference re-runs exactly the code path that built the
        # fit's design rows; a frequency fit builds none (see TestFrequencyFit)
        model, train = strategy_models[strategy], lorenz_model[1]
        cfg = model.config
        s = train.size - cfg.window - cfg.horizon  # a training window start
        window = train[s : s + cfg.window]
        zn, mu, sd = fc._normalize(window[None])
        stack = fc._stack(zn, model)
        feats = channel_features(stack, channel_evolvers(model, 0), model)
        manual = mu[0] + sd[0] * (feats[0] @ model.readouts[0])
        assert np.array_equal(staged_reference(model, window)[:, 0], manual)

    @pytest.mark.parametrize("strategy", ["direct", "hopfield"])
    def test_predict_reproduces_fit_time_design_rows(self, lorenz63_x, monkeypatch, strategy):
        # the feature row predict builds for training window i is row i of
        # the design matrix the readout was fit on; a frequency fit has no
        # such rows (see TestFrequencyFit)
        x = np.stack([lorenz63_x[:3000], np.cos(0.03 * np.arange(3000))], axis=1)
        cfg = small_config(window=96, max_train_windows=40, evolution_strategy=strategy)
        sh = fc.pipeline_shapes(cfg)
        designs = []
        ridge_fit = fc.evo.ridge_fit

        def recording_ridge_fit(a, b, lam):
            # the readout fit, told apart by its design width: the N x N
            # direct cluster fits have as many outputs as the horizon here
            if a.shape[1] == sh.n_patches * sh.d:
                designs.append(a.copy())
            return ridge_fit(a, b, lam)

        monkeypatch.setattr(fc.evo, "ridge_fit", recording_ridge_fit)
        model = fc.fit(cfg, x)
        monkeypatch.undo()
        assert len(designs) == 2 and designs[0].shape[0] == 40

        rows = []
        features = fc._features

        def recording_features(stack, evolvers, m):
            rows.append(features(stack, evolvers, m))
            return rows[-1]

        monkeypatch.setattr(fc, "_features", recording_features)
        starts = np.arange(0, x.shape[0] - 96 - 4 + 1, cfg.patch_len)[-40:]
        for n_calls, i in enumerate((0, 17, 39), start=1):
            fc.predict(model, x[starts[i] : starts[i] + 96])
            # one batched call per predict: a single-window row per
            # channel, in order
            assert len(rows) == n_calls
            for c in range(2):
                assert np.array_equal(rows[-1][c][0], designs[c][i])

    @pytest.mark.parametrize("embedding", [None, EmbeddingParams(3, 4)], ids=["auto", "m3-tau4"])
    @pytest.mark.parametrize("strategy", fc.STRATEGIES)
    def test_channels_serve_as_single_channel_models(self, lorenz96_3d, strategy, embedding):
        # all channels are served in one stacked pass; each forecast column
        # is the one the channel's own one-channel model, loaded from its
        # slice of the document, makes.  The scales hold (4, 2, 2)
        # positions under the auto embedding, (4, 16), and (6, 3, 3) under
        # (3, 4)
        cfg = fc.ForecasterConfig(window=96, horizon=16, embedding=embedding,
                                  evolution_strategy=strategy, max_train_windows=128)
        model = fc.fit(cfg, lorenz96_3d[:4000])
        doc = json.loads(fc.model_to_json(model))
        alone = [fc.model_from_json(json.dumps({**doc, "channels": [ch]}))
                 for ch in doc["channels"]]
        for start in (4000, 4333, 5100):
            context = lorenz96_3d[start : start + 96]
            got = fc.predict(model, context).predictions
            for c, one in enumerate(alone):
                assert np.array_equal(got[:, c], fc.predict(one, context[:, c]).predictions[:, 0])

    def test_predict_runs_on_stage_operators(self, lorenz_model, monkeypatch):
        # the primitives and the stages only build the operators and fit the
        # serving maps; a frequency model never calls them while serving
        model, _, val = lorenz_model
        expect = fc.predict(model, val[:96]).predictions

        def forbidden(*args, **kwargs):
            raise AssertionError("primitive or stage called while serving")

        for name in ("sequential_scan", "decompose", "reconstruct", "_stack", "_features"):
            monkeypatch.setattr(fc, name, forbidden)
        for name in ("fft_modes", "ifft_modes", "apply_spectral_evolution"):
            monkeypatch.setattr(fc.evo, name, forbidden)
        assert np.array_equal(fc.predict(model, val[:96]).predictions, expect)
        assert np.array_equal(fc.rollout(model, val[:96], 32)[:16], expect)


def staged_primitives(cfg):
    """The continuous recurrence, its Euler discretization and the wavelet
    filters a config determines, built as the model builds them."""
    ssm = make_ssm_params(cfg.ssm_variant, cfg.poly_order, 1.0 / cfg.theta)
    return ssm, discretize(ssm, b_method="euler"), build_filters(cfg.poly_order)


def reference_scales(patches, model):
    """The staged front half on (B, L, D) patches: recurrence, left padding,
    decompose; returns (B, L_s, D, N) scales."""
    ssm, disc, filters = staged_primitives(model.config)
    bu = np.swapaxes(patches, 0, 1)[..., None] * disc.b_bar
    a_seq = np.broadcast_to(disc.a_bar, (bu.shape[0],) + disc.a_bar.shape)
    states = sequential_scan(ScanInput(a_seq=a_seq, bu_seq=bu, matrix=not ssm.is_diagonal))
    sh = model.shapes
    if sh.pad:
        states = np.concatenate([np.repeat(states[:1], sh.pad, axis=0), states], axis=0)
    pyr = decompose(states, filters, sh.eff_levels)
    return [np.swapaxes(s, 0, 1) for s in list(pyr.details) + [pyr.coarse]]


def reference_features(scales, model):
    """The staged back half: reconstruct, drop padding, endpoint, flatten."""
    sh = model.shapes
    time_major = [np.swapaxes(s, 0, 1) for s in scales]
    pyr = Pyramid(details=time_major[:-1], coarse=time_major[-1])
    states = reconstruct(pyr, staged_primitives(model.config)[2])[sh.pad :]
    feats = states @ np.sqrt(2.0 * np.arange(sh.order) + 1.0)  # (L', B, D)
    return np.swapaxes(feats, 0, 1).reshape(feats.shape[1], -1)


def assert_close(got, ref, rtol=1e-12):
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= rtol * np.abs(ref).max()


class TestStageOperators:
    @settings(max_examples=30, deadline=None)
    @given(
        variant=st.sampled_from(["legt_full", "legs_diag", "diag_neg1"]),
        n_patches=st.integers(1, 9),
        levels=st.integers(0, 4),  # clipped to the deepest pyramid the padding allows
        order=st.integers(1, 6),
        batch=st.integers(1, 5),
        seed=st.integers(0, 2**31),
    )
    @example(variant="legt_full", n_patches=5, levels=3, order=3, batch=2, seed=0)
    def test_operators_match_primitives(self, variant, n_patches, levels, order, batch, seed):
        rng = np.random.default_rng(seed)
        emb, p = EmbeddingParams(2, 3), 3
        window = n_patches * p + (emb.m - 1) * emb.tau
        cfg = fc.ForecasterConfig(
            window=window, horizon=2, embedding=emb, patch_len=p, poly_order=order,
            ssm_variant=variant, levels=levels, m_modes=3, max_train_windows=8,
        )
        series = np.cumsum(rng.standard_normal(window + 40))
        model = fc.fit(cfg, series)
        sh = model.shapes
        assert sh.eff_levels == min(levels, sh.padded.bit_length() - 1)

        def scales(stack):
            return [fc._positions(stack[:, rows], sh.order) for rows in sh.scale_rows]

        windows = rng.standard_normal((batch, window))
        zn, _, _ = fc._normalize(windows)
        stack = fc._stack(zn, model)
        ref = reference_scales(patch(delay_embed(zn, emb), p), model)
        for got, want in zip(scales(stack), ref, strict=True):
            assert_close(got, want)

        # frequency evolution: the spectral path on each scale's sequences
        evolvers = channel_evolvers(model, 0)
        evolved = [np.swapaxes(fc.evo.apply_spectral_evolution(np.swapaxes(seq, 0, 1), ev), 0, 1)
                   for seq, ev in zip(scales(stack), evolvers, strict=True)]
        assert_close(channel_features(stack, evolvers, model),
                     reference_features(evolved, model))

        rand = rng.standard_normal(stack.shape)
        assert_close((model.back @ rand).reshape(batch, -1), reference_features(scales(rand), model))

    @settings(max_examples=30, deadline=None)
    @given(strategy=st.sampled_from(fc.STRATEGIES), batch=st.integers(1, 40),
           pick=st.integers(0, 39), seed=st.integers(0, 2**31))
    @example(strategy="frequency", batch=40, pick=3, seed=0)
    @example(strategy="direct", batch=40, pick=3, seed=0)
    @example(strategy="hopfield", batch=40, pick=3, seed=0)
    def test_window_alone_equals_window_in_batch(self, strategy_models, lorenz_model, strategy,
                                                 batch, pick, seed):
        # every stage, each strategy's evolution too, computes a window's
        # rows in products of their own
        model, val = strategy_models[strategy], lorenz_model[2]
        rng = np.random.default_rng(seed)
        starts = rng.integers(0, val.size - 96, batch)
        windows = val[starts[:, None] + np.arange(96)]
        i = pick % batch
        evolvers = channel_evolvers(model, 0)

        def rows(w):
            stack = fc._stack(fc._normalize(w)[0], model)
            return stack, channel_features(stack, evolvers, model)

        batch_stack, batch_rows = rows(windows)
        alone_stack, alone_rows = rows(windows[i : i + 1])
        assert np.array_equal(batch_stack[i], alone_stack[0])
        assert np.array_equal(batch_rows[i], alone_rows[0])

    @settings(max_examples=30, deadline=None)
    @given(strategy=st.sampled_from(fc.STRATEGIES), batch=st.integers(1, 60),
           cuts=st.lists(st.integers(1, 59), max_size=6), seed=st.integers(0, 2**31))
    @example(strategy="direct", batch=60, cuts=[1, 7, 8, 30], seed=0)
    @example(strategy="hopfield", batch=60, cuts=[1, 7, 8, 30], seed=0)
    def test_blocks_of_a_batch_give_the_batch_rows(self, strategy_models, lorenz_model, strategy,
                                                   batch, cuts, seed):
        # a direct/hopfield fit builds its stacks and design rows one block
        # of windows at a time; any split of a batch gives the whole batch's
        # stacks and feature rows bit for bit
        model, val = strategy_models[strategy], lorenz_model[2]
        rng = np.random.default_rng(seed)
        starts = rng.integers(0, val.size - 96, batch)
        zn = fc._normalize(val[starts[:, None] + np.arange(96)])[0]
        edges = [0, *sorted({c for c in cuts if c < batch}), batch]
        blocks = [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]

        def rows(stack):
            return fc._features(stack[None], model.evolvers, model)[0]

        whole = fc._stack(zn, model)
        stacks = [fc._stack(zn[block], model) for block in blocks]
        assert np.array_equal(np.concatenate(stacks), whole)
        assert np.array_equal(np.concatenate([rows(s) for s in stacks]), rows(whole))

    @pytest.mark.parametrize("order", [3, 8, 12, 16, 24, 32])
    def test_unchanged_scales_give_the_recurrence_endpoints(self, order):
        # with every scale left as it is, back @ front must evaluate the
        # recurrence's state after each kept patch at the cell's right end;
        # that holds only if the filter bank is orthogonal
        cfg = fc.ForecasterConfig(window=48, horizon=2, embedding=EmbeddingParams(2, 4),
                                  patch_len=4, poly_order=order, levels=3)
        model = fc.FittedForecaster(cfg)
        sh = model.shapes
        assert (sh.n_patches, sh.pad, sh.eff_levels) == (11, 5, 3)
        _, disc, _ = staged_primitives(cfg)
        bu = np.eye(sh.n_patches)[..., None] * disc.b_bar  # (step, impulse, N)
        a_seq = np.broadcast_to(disc.a_bar, (sh.n_patches,) + disc.a_bar.shape)
        states = sequential_scan(ScanInput(a_seq=a_seq, bu_seq=bu, matrix=disc.a_bar.ndim == 2))
        endpoints = states @ np.sqrt(2.0 * np.arange(order) + 1.0)
        assert_close(model.back @ model.front, endpoints, rtol=1e-11)


def staged_reference(model, context, readouts=None):
    """The staged (horizon, channels) forecast of a context's trailing
    window: normalize each channel's window, take its stack, run
    ``_features`` and the channel's readout on the features, and
    denormalize.  Those readouts are the model's own for ``direct`` and
    ``hopfield``; a ``frequency`` model's are passed as ``readouts``
    (``fit_with_feature_readouts``)."""
    window = fc._as_2d(context)[-model.config.window :]
    zn, mu, sd = fc._normalize(np.ascontiguousarray(window.T))
    stacks = fc._stack(zn[:, None, :], model)
    readouts = model.readouts if readouts is None else readouts
    pairs = enumerate(zip(stacks, readouts, strict=True))
    normed = np.stack([(channel_features(stack, channel_evolvers(model, c), model) @ readout)[0]
                       for c, (stack, readout) in pairs])
    return (mu[:, None] + sd[:, None] * normed).T


class TestServingMaps:
    """A ``frequency`` model serves through one (window, horizon) map per
    channel, its readout; it must agree with the staged reference, the
    stages and the feature readouts the fit composed the maps from, to
    1e-10 of the largest forecast value (the maps sum in another order)."""

    @pytest.mark.parametrize(
        "overrides,n_channels",
        [
            (dict(ssm_variant="diag_neg1"), 1),
            (dict(ssm_variant="legt_full"), 2),
            (dict(ssm_variant="legs_diag"), 3),
            # 5 patches pad to 8 on a 3-level pyramid
            (dict(window=28, horizon=2, embedding=EmbeddingParams(3, 4), poly_order=3,
                  levels=3, m_modes=2), 2),
            # 11 patches pad to 12 on a 2-level pyramid, not to a power of two
            (dict(window=48, horizon=2, embedding=EmbeddingParams(2, 4), poly_order=3,
                  m_modes=2), 2),
        ],
        ids=["diag_neg1-1ch", "legt_full-2ch", "legs_diag-3ch", "padded-2ch", "11-patches-2ch"],
    )
    def test_serving_matches_staged_reference(self, lorenz63_x, overrides, n_channels):
        t = np.arange(3000)
        data = np.stack(
            [lorenz63_x[:3000], np.cos(0.03 * t), lorenz63_x[5000:8000]], axis=1
        )[:, :n_channels]
        cfg = small_config(window=96, max_train_windows=32, ridge_lambda=1e-3)
        model, solved = fit_with_feature_readouts(replace(cfg, **overrides), data[:2500])
        assert model.readouts.shape == (n_channels, model.config.window, model.config.horizon)
        for s in range(2500, 2900, 37):
            context = data[s : s + model.config.window]
            assert_close(fc.predict(model, context).predictions,
                         staged_reference(model, context, solved), rtol=1e-10)

    def test_lorenz_model_matches_staged_reference(self, lorenz_model):
        model, train, val = lorenz_model
        refit, solved = fit_with_feature_readouts(model.config, train)
        assert np.array_equal(refit.readouts, model.readouts)
        for s in range(0, val.size - 96, 97):
            context = val[s : s + 96]
            assert_close(fc.predict(model, context).predictions,
                         staged_reference(model, context, solved), rtol=1e-10)

    def test_a_model_without_channels_builds_no_maps(self, lorenz_model):
        # fit fits its channels on such a model's stage operators; it serves
        # no context
        model = fc.FittedForecaster(lorenz_model[0].config)
        assert model.readouts is None and model.front.shape[0] == model.back.shape[1]
        assert model.n_channels == 0
        with pytest.raises(ShapeMismatchError, match="model has 0 channels"):
            fc.predict(model, lorenz_model[2][:96])

    def test_long_window_stage_maps_build_in_little_memory(self):
        # the fit's stage maps come from each channel's (L', L) stage map: a
        # (window, S, D) identity stack of this model would take 31 MB, and
        # its evolved copy as much again
        cfg = fc.ForecasterConfig(window=336, horizon=96, embedding=EmbeddingParams(5, 16))
        sh = fc.pipeline_shapes(cfg)
        rng = np.random.default_rng(0)
        evolvers = [
            fc.evo.SpectralEvolutionModel(
                mode_ops=rng.normal(size=(modes, sh.order, sh.order, 2)) @ [1.0, 1j],
                seq_len=length,
            )
            for length, modes in zip(sh.scale_lens, sh.scale_modes)
        ]
        evolvers = fc._stacked([evolvers], cfg)
        operators = fc.FittedForecaster(cfg)
        tracemalloc.start()
        try:
            stage_maps = fc._stage_map(evolvers, operators)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stage_maps.shape == (1, 336, sh.n_patches * sh.d)
        assert peak < 20e6

    @pytest.mark.parametrize("strategy", ["direct", "hopfield"])
    def test_nonlinear_strategies_serve_through_the_stages(self, lorenz63_x, strategy):
        cfg = small_config(window=96, max_train_windows=16, evolution_strategy=strategy)
        model = fc.fit(cfg, lorenz63_x[:2000])
        sh = model.shapes
        assert model.readouts.shape == (1, sh.n_patches * sh.d, cfg.horizon)
        context = lorenz63_x[2000:2096]
        assert np.array_equal(fc.predict(model, context).predictions,
                              staged_reference(model, context))


LAW_CASES = [(s, c, e, 96) for s in fc.STRATEGIES for c in (1, 3) for e in ("auto", "m3-tau4")]
LAW_CASES += [("frequency", c, e, 336) for c in (1, 3) for e in ("auto", "m3-tau4")]


@pytest.mark.parametrize("strategy,n_channels,embedding,window", LAW_CASES,
                         ids=["-".join(map(str, case)) for case in LAW_CASES])
def test_forecast_is_each_channel_row_times_its_readout(lorenz96_3d, strategy, n_channels,
                                                        embedding, window):
    # channel c forecasts mu + sd * (row @ readouts[c]) bit for bit: the row
    # is the normalized window under frequency, whose readout is the
    # (window, horizon) serving map, and the window's feature row otherwise
    cfg = fc.ForecasterConfig(window=window, horizon=16, evolution_strategy=strategy,
                              embedding=None if embedding == "auto" else EmbeddingParams(3, 4),
                              max_train_windows=64)
    data = lorenz96_3d[:, :n_channels]
    model = fc.fit(cfg, data[:4000])
    sh = model.shapes
    rows = window if strategy == "frequency" else sh.n_patches * sh.d
    assert model.readouts.shape == (n_channels, rows, cfg.horizon)
    doc = json.loads(fc.model_to_json(model))
    stored_floats = sum(len(base64.b64decode(ch["readout"])) // 8 for ch in doc["channels"])
    assert stored_floats == n_channels * rows * cfg.horizon
    for start in (4000, 4777):
        context = data[start : start + window]
        zn, mu, sd = fc._normalize(np.ascontiguousarray(context.T))
        if strategy != "frequency":
            zn = fc._features(fc._stack(zn[:, None, :], model), model.evolvers, model)[:, 0]
        expect = np.stack([mu[c] + sd[c] * (zn[c] @ model.readouts[c])
                           for c in range(n_channels)], axis=1)
        assert np.array_equal(fc.predict(model, context).predictions, expect)


class TestChannelIndependence:
    def test_per_channel_models_match_scalar_fits(self, lorenz63_x):
        x = lorenz63_x[:4000]
        y = np.sin(0.05 * np.arange(4000)) * 3.0
        cfg = small_config(window=96, max_train_windows=32)
        multi = fc.fit(cfg, np.stack([x, y], axis=1))
        solo_x = fc.fit(cfg, x)
        solo_y = fc.fit(cfg, y)
        assert np.array_equal(multi.readouts[0], solo_x.readouts[0])
        assert np.array_equal(multi.readouts[1], solo_y.readouts[0])
        ctx = np.stack([x[:96], y[:96]], axis=1)
        pred_multi = fc.predict(multi, ctx).predictions
        assert np.array_equal(pred_multi[:, 0], fc.predict(solo_x, x[:96]).predictions[:, 0])
        assert np.array_equal(pred_multi[:, 1], fc.predict(solo_y, y[:96]).predictions[:, 0])


class TestShapesContract:
    @pytest.mark.parametrize(
        "window,m,tau,p",
        [(64, 3, 4, 4), (96, 3, 16, 8), (96, 5, 10, 8), (48, 2, 6, 3), (100, 4, 7, 5)],
    )
    def test_pipeline_shape_grid(self, window, m, tau, p):
        cfg = fc.ForecasterConfig(
            window=window, horizon=4, embedding=EmbeddingParams(m, tau), patch_len=p,
            poly_order=5, levels=2,
        )
        sh = fc.pipeline_shapes(cfg)
        n_pts = window - (m - 1) * tau
        assert sh.n_patches == n_pts // p
        assert sh.d == m * p
        assert sh.padded >= sh.n_patches and sh.padded < 2 * max(sh.n_patches, 1)
        assert len(sh.scale_lens) == sh.eff_levels + 1

    @pytest.mark.parametrize("levels", range(6))
    def test_padding_is_the_smallest_multiple_of_the_pyramid_cell(self, levels):
        for n in range(1, 201):
            cfg = fc.ForecasterConfig(window=2 * n, horizon=1, embedding=EmbeddingParams(1, 1),
                                      patch_len=2, levels=levels)
            sh = fc.pipeline_shapes(cfg)
            cell = 2**sh.eff_levels
            power_of_two = 1 << (n - 1).bit_length()
            assert sh.n_patches == n
            assert sh.eff_levels == min(levels, power_of_two.bit_length() - 1)
            assert sh.padded % cell == 0 and 0 <= sh.padded - n < cell
            assert sh.padded <= power_of_two
            assert sum(sh.scale_lens[:-1]) + sh.scale_lens[-1] == sh.padded

    def test_representation_tensor_shape(self, lorenz_model):
        model, _, val = lorenz_model
        zn, mu, sd = fc._normalize(np.stack([val[:96], val[10:106]]))
        stack = fc._stack(zn, model)
        sh = model.shapes
        assert stack.shape == (2, model.front.shape[0], sh.d)
        # the scale slices tile the stack's rows in order, L_s * N rows each
        edges = [0] + [rows.stop for rows in sh.scale_rows]
        assert [(rows.start, rows.stop) for rows in sh.scale_rows] == list(zip(edges, edges[1:]))
        assert edges[-1] == stack.shape[1]
        assert [fc._positions(stack[:, rows], sh.order).shape for rows in sh.scale_rows] == [
            (2, n, sh.d, sh.order) for n in sh.scale_lens
        ]
        assert mu.shape == sd.shape == (2,)


class TestEvaluate:
    def test_perfect_prediction(self):
        t = np.arange(12.0).reshape(6, 2)
        m = fc.evaluate(t, t)
        assert m["mse"] == 0.0 and m["mae"] == 0.0

    def test_constant_offset(self):
        t = np.zeros((5, 2))
        m = fc.evaluate(t + 1.0, t)
        assert m["mse"] == 1.0 and m["mae"] == 1.0

    def test_alternating_offset(self):
        t = np.zeros(10)
        p = t + np.array([1.0, -1.0] * 5)
        m = fc.evaluate(p, t)
        assert m["mse"] == 1.0 and m["mae"] == 1.0

    def test_shape_guard(self):
        with pytest.raises(ShapeMismatchError):
            fc.evaluate(np.zeros((3, 1)), np.zeros((4, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["predictions", "truth"])
    def test_non_finite_input_raises(self, bad, side):
        t = np.zeros((5, 2))
        p = t.copy()
        (p if side == "predictions" else t)[2, 1] = bad
        with pytest.raises(NonFiniteError, match=side):
            fc.evaluate(p, t)

    def test_overflowing_errors_raise(self):
        with pytest.raises(NonFiniteError):
            fc.evaluate(np.full(4, 1e200), np.full(4, -1e200))

    def test_empty_input_raises(self):
        with pytest.raises(EmptyInputError):
            fc.evaluate(np.zeros((0, 2)), np.zeros((0, 2)))


class TestTeacherForcedRollout:
    def test_half_blend_is_fed_to_the_next_segment(self, lorenz_model):
        model, _, val = lorenz_model
        w, h = 96, 16
        truth = val[w : w + 2 * h, None]
        roll = fc.rollout(model, val[:w], 2 * h, truth=truth, alpha=0.5)
        first = fc.predict(model, val[:w]).predictions
        fed = 0.5 * first + 0.5 * truth[:h]
        second = fc.predict(model, np.concatenate([val[:w, None], fed])).predictions
        assert np.array_equal(roll, np.concatenate([first, second]))

    @pytest.mark.parametrize("alpha", [-0.1, 1.5])
    def test_alpha_out_of_range_raises(self, lorenz_model, alpha):
        model, _, val = lorenz_model
        with pytest.raises(ValueError, match="alpha"):
            fc.rollout(model, val[:96], 16, truth=val[96:112], alpha=alpha)

    def test_truth_shorter_than_the_segments_raises(self, lorenz_model):
        model, _, val = lorenz_model
        # 20 samples take two 16-sample segments; the first feeds the second
        with pytest.raises(TooShortError):
            fc.rollout(model, val[:96], 20, truth=val[96:111], alpha=0.5)

    def test_truth_of_the_fed_segments_suffices(self, lorenz_model):
        # the last segment feeds no window, so its truth is never read
        model, _, val = lorenz_model
        exact = fc.rollout(model, val[:96], 20, truth=val[96:112], alpha=0.5)
        longer = fc.rollout(model, val[:96], 20, truth=val[96:128], alpha=0.5)
        assert np.array_equal(exact, longer)

    def test_truth_channel_count_mismatch_raises(self, lorenz_model):
        model, _, val = lorenz_model
        truth = np.stack([val[96:128]] * 2, axis=1)
        with pytest.raises(ShapeMismatchError):
            fc.rollout(model, val[:96], 32, truth=truth, alpha=0.5)

    def test_nan_truth_raises_at_alpha_zero(self, lorenz_model):
        model, _, val = lorenz_model
        truth = val[96:128].copy()
        truth[3] = np.nan
        with pytest.raises(NonFiniteError, match="truth"):
            fc.rollout(model, val[:96], 32, truth=truth, alpha=0.0)


class TestRollout:
    def test_alpha_one_feeds_pure_truth(self, lorenz_model):
        model, _, val = lorenz_model
        w, h = 96, 16
        truth = val[w : w + 4 * h]
        # with alpha=1 every window's input is ground truth, so each window
        # equals a fresh predict on true data
        roll = fc.rollout(model, val[:w], 4 * h, truth=truth, alpha=1.0)
        expect = []
        ctx = val[: w + 4 * h]
        for k in range(4):
            expect.append(fc.predict(model, ctx[: w + k * h]).predictions)
        assert np.array_equal(roll, np.concatenate(expect, axis=0))

    def test_alpha_zero_is_standard_autoregression(self, lorenz_model):
        model, _, val = lorenz_model
        w, h = 96, 16
        roll = fc.rollout(model, val[:w], 4 * h)
        ctx = val[:w, None].copy()
        expect = []
        for _ in range(4):
            seg = fc.predict(model, ctx).predictions
            expect.append(seg)
            ctx = np.concatenate([ctx, seg], axis=0)
        assert np.array_equal(roll, np.concatenate(expect, axis=0))

    def test_truncates_to_requested_length(self, lorenz_model):
        model, _, val = lorenz_model
        roll = fc.rollout(model, val[:96], 20)
        assert roll.shape == (20, 1)

    @pytest.mark.parametrize("total", [0, -3])
    def test_nonpositive_length_raises(self, lorenz_model, total):
        model, _, val = lorenz_model
        with pytest.raises(ValueError, match="horizon_total must be >= 1"):
            fc.rollout(model, val[:96], total)


class TestSaveLoad:
    @pytest.mark.parametrize("strategy", ["frequency", "direct", "hopfield"])
    def test_roundtrip_bit_identical_predictions(self, lorenz63_x, strategy, tmp_path):
        x = lorenz63_x[:5000]
        cfg = small_config(window=96, evolution_strategy=strategy, max_train_windows=32)
        model = fc.fit(cfg, x)
        path = tmp_path / "model.json"
        fc.save_model(model, path)
        loaded = fc.load_model(path)
        a = fc.predict(model, x[:96]).predictions
        b = fc.predict(loaded, x[:96]).predictions
        assert np.array_equal(a, b)

    def test_auto_embedding_config_survives_a_reload(self, lorenz63_x):
        cfg = fc.ForecasterConfig(window=96, horizon=8, max_train_windows=16)
        model = fc.fit(cfg, lorenz63_x[:3000])
        assert model.config == replace(cfg, embedding=model.embedding)
        assert fc.model_from_json(fc.model_to_json(model)).config == model.config

    @pytest.mark.parametrize("strategy", ["frequency", "direct", "hopfield"])
    @pytest.mark.parametrize("scalars", [{}, {"ridge_lambda": 1, "hopfield_beta": 4}],
                             ids=["float", "int-scalars"])
    def test_resave_is_byte_identical(self, lorenz63_x, strategy, scalars):
        # the frequency operators hold signed zeros that the load must keep,
        # and the config's scalars load as the numbers it held
        cfg = small_config(window=96, evolution_strategy=strategy, max_train_windows=32,
                           **scalars)
        text = fc.model_to_json(fc.fit(cfg, lorenz63_x[:5000]))
        assert fc.model_to_json(fc.model_from_json(text)) == text

    def test_readout_perturbation_does_not_improve_objective(self, lorenz63_x):
        # ridge optimality probe on the assembled design matrix
        x = lorenz63_x[:5000]
        cfg = small_config(window=96, max_train_windows=32, ridge_lambda=1e-3)
        model, solved = fit_with_feature_readouts(cfg, x)
        w, h = cfg.window, cfg.horizon
        starts = np.arange(0, x.size - w - h + 1, cfg.patch_len)[-32:]
        zn, mu, sd = fc._normalize(x[starts[:, None] + np.arange(w)])
        stack = fc._stack(zn, model)
        feats = channel_features(stack, channel_evolvers(model, 0), model)
        targets = (x[starts[:, None] + w + np.arange(h)] - mu[:, None]) / sd[:, None]
        readout = solved[0]

        def objective(r):
            return np.sum((feats @ r - targets) ** 2) + cfg.ridge_lambda * np.sum(r**2)

        base = objective(readout)
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert objective(readout + rng.uniform(-1e-3, 1e-3, readout.shape)) >= base


@pytest.mark.parametrize("strategy", ["frequency", "direct", "hopfield"])
def test_refits_are_bit_identical(lorenz63_x, strategy):
    x = lorenz63_x[:4000]
    data = np.stack([x, np.cos(0.03 * np.arange(4000))], axis=1)
    cfg = small_config(window=96, max_train_windows=24, evolution_strategy=strategy)
    first = fc.fit(cfg, data)
    second = fc.fit(cfg, data)
    for a, b in zip(first.readouts, second.readouts, strict=True):
        assert np.array_equal(a, b)
    assert np.array_equal(
        fc.predict(first, data[-96:]).predictions, fc.predict(second, data[-96:]).predictions
    )


@pytest.mark.parametrize("strategy", ["direct", "hopfield"])
def test_a_nonlinear_fit_holds_no_whole_stack(lorenz63_x, strategy):
    # the stacks are built one block of windows at a time and one scale's
    # source positions are held at a time: a fit on the whole stack peaked
    # at 3.6-3.7 times its bytes on these windows, the blockwise fit at 0.9-1.1
    cfg = fc.ForecasterConfig(window=96, horizon=16, embedding=EmbeddingParams(3, 4),
                              evolution_strategy=strategy)
    tracemalloc.start()
    try:
        model = fc.fit(cfg, lorenz63_x[:9000])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sh = model.shapes
    assert cfg.max_train_windows > 3 * fc.FIT_BLOCK  # at least four blocks
    stack_bytes = 8 * cfg.max_train_windows * sh.scale_rows[-1].stop * sh.d
    assert peak < 2.5 * stack_bytes


@pytest.mark.parametrize("strategy", ["direct", "hopfield"])
def test_the_fit_block_leaves_the_document_unchanged(lorenz63_x, monkeypatch, strategy):
    # 40 windows: one block at the default, then one window, blocks of 7 with
    # a short last one, and exactly the batch
    x = np.stack([lorenz63_x[:3000], np.cos(0.03 * np.arange(3000))], axis=1)
    cfg = small_config(window=96, max_train_windows=40, evolution_strategy=strategy)
    assert fc.FIT_BLOCK >= 40
    expect = fc.model_to_json(fc.fit(cfg, x))
    for block in (1, 7, 40):
        monkeypatch.setattr(fc, "FIT_BLOCK", block)
        assert fc.model_to_json(fc.fit(cfg, x)) == expect


class TestNonFiniteInput:
    @pytest.fixture(scope="class")
    def model_and_data(self, lorenz63_x):
        x = lorenz63_x[:2000]
        return fc.fit(small_config(window=96, max_train_windows=16), x), x

    @staticmethod
    def with_nan(arr, at=5):
        out = np.array(arr, dtype=float)
        out[at] = np.nan
        return out

    def test_fit_rejects_nan_series(self, model_and_data):
        _, x = model_and_data
        with pytest.raises(NonFiniteError):
            fc.fit(small_config(window=96, max_train_windows=16), self.with_nan(x))

    def test_predict_rejects_nan_context(self, model_and_data):
        model, x = model_and_data
        with pytest.raises(NonFiniteError):
            fc.predict(model, self.with_nan(x[:96]))

    def test_rollout_rejects_nan_context(self, model_and_data):
        model, x = model_and_data
        with pytest.raises(NonFiniteError):
            fc.rollout(model, self.with_nan(x[:96]), 8)

    def test_rollout_rejects_nan_truth(self, model_and_data):
        model, x = model_and_data
        with pytest.raises(NonFiniteError):
            fc.rollout(model, x[:96], 8, truth=self.with_nan(x[96:104], at=0), alpha=0.5)

    def test_auto_embedding_overflowing_spread_raises(self, overflowing):
        with pytest.raises(NonFiniteError, match="spread overflows"):
            fc.fit(fc.ForecasterConfig(window=96, horizon=16), overflowing)

    @pytest.mark.parametrize("strategy", fc.STRATEGIES)
    def test_horizon_beyond_window_scale_raises(self, lorenz63_x, strategy):
        # the last values appear in no window, only in horizons: normalized
        # by their windows' spread (about 8e-150) they overflow the float range
        x = 1e-150 * lorenz63_x[:2000]
        x[-2:] = 1e160
        cfg = small_config(window=96, max_train_windows=16, evolution_strategy=strategy)
        with pytest.raises(NonFiniteError, match="horizon"):
            fc.fit(cfg, x)

    @pytest.mark.parametrize("strategy", fc.STRATEGIES)
    def test_finite_horizon_far_beyond_window_scale_fits(self, lorenz63_x, strategy):
        # normalized, these horizons reach about 3e305: the normal equations
        # of the readout overflowed on them, the SVD solve does not
        x = 1e-153 * lorenz63_x[:2000]
        x[-2:] = 1e153
        cfg = small_config(window=96, max_train_windows=16, evolution_strategy=strategy)
        model = fc.fit(cfg, x)
        assert np.all(np.isfinite(fc.predict(model, x[-98:-2]).predictions))

    def test_constant_context_at_the_float_maximum_raises_without_a_warning(
            self, model_and_data):
        # its mean, scaled back from the window's power-of-two units, rounds
        # past the float range
        model, _ = model_and_data
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="forecast overflows"):
                fc.predict(model, np.full(96, np.finfo(float).max))

    @pytest.mark.parametrize("strategy", fc.STRATEGIES)
    def test_series_near_the_float_maximum_fits(self, overflowing, strategy):
        # each horizon is normalized in its window's power-of-two units, so
        # the series fits to the same model as the series at 2^-10
        cfg = fc.ForecasterConfig(window=96, horizon=16, embedding=EmbeddingParams(3, 8),
                                  evolution_strategy=strategy)
        scaled = fc.fit(cfg, np.ldexp(overflowing, -10))
        assert fc.model_to_json(fc.fit(cfg, overflowing)) == fc.model_to_json(scaled)


class TestPowerOfTwoScale:
    """Scaling by a power of two is exact, and ``_normalize`` scales each
    window whose squared deviations could over- or underflow by a power of
    two first, so a window scaled by 2^k normalizes to the same bits.  A
    model fit on 2^k * x then forecasts exactly 2^k times the forecast of
    the model fit on x, from a manual and from a selected embedding.  Taken
    as they are, windows at 2^-700 lose their squared deviations to
    underflow and forecast far off, and at 2^700 their spread overflows.
    Every value of the Lorenz63 series stays a normal float for |k| <= 900."""

    EMBEDDINGS = {"manual": EmbeddingParams(3, 4), "auto": None}

    @pytest.fixture(scope="class")
    def unscaled(self, lorenz63_x):
        x = lorenz63_x[:2000]
        models = {
            (strategy, name): fc.fit(small_config(window=96, max_train_windows=16,
                                                  evolution_strategy=strategy,
                                                  embedding=embedding), x)
            for strategy in fc.STRATEGIES for name, embedding in self.EMBEDDINGS.items()
        }
        return x, models

    @pytest.mark.parametrize("strategy", fc.STRATEGIES)
    @settings(max_examples=8, deadline=None)
    @given(k=st.integers(-900, 900))
    @example(k=-700)
    @example(k=700)
    def test_scaled_series_forecasts_the_scaled_forecast(self, unscaled, strategy, k):
        x, models = unscaled
        context = x[-96:]
        for name, embedding in self.EMBEDDINGS.items():
            model = models[strategy, name]
            expect = np.ldexp(fc.predict(model, context).predictions, k)
            scaled = fc.fit(replace(model.config, embedding=embedding), np.ldexp(x, k))
            assert scaled.embedding == model.embedding
            assert np.array_equal(fc.predict(scaled, np.ldexp(context, k)).predictions, expect)
            # the model fit at scale 1 serves the scaled context exactly too
            assert np.array_equal(fc.predict(model, np.ldexp(context, k)).predictions, expect)


class TestModelDocument:
    def test_overflowing_serving_map_loads_and_its_forecast_raises_without_a_warning(
            self, lorenz63_x):
        # every stored entry is finite, but a serving map column near the
        # float maximum, signed as the normalized window, takes the forecast
        # beyond it; the map serves only the forecast, so the document loads,
        # as a direct/hopfield one does (TestNonlinearDocument)
        doc = json.loads(fixture_text("frequency"))
        model = fc.model_from_json(fixture_text("frequency"))
        context = lorenz63_x[: model.config.window]
        readout = model.readouts[0].copy()
        readout[:, 0] = 1e308 * np.sign(fc._normalize(context[None])[0][0])
        doc["channels"][0]["readout"] = stored(readout)
        model = fc.model_from_json(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="forecast overflows"):
                fc.predict(model, context)

    @pytest.mark.parametrize(
        "text",
        [
            '{"v": 5}',
            "[1, 2]",
            '{"v": 6}',
            "{not json",
            '{"v": 5, "config": {"window": 96, "horizon": 0}, "embedding": {"m": 3, "tau": 4},'
            ' "channels": []}',
            '{"v": 5, "config": [96, 4], "embedding": {"m": 3, "tau": 4}, "channels": []}',
            # a well-formed model that serves nothing
            '{"v": 5, "config": {"window": 96, "horizon": 4}, "embedding": {"m": 3, "tau": 4},'
            ' "channels": []}',
        ],
        ids=["no-body", "not-object", "version-6", "not-json", "horizon-0", "config-not-object",
             "no-channels"],
    )
    def test_malformed_document_raises_typed_error(self, text):
        with pytest.raises(ModelFormatError):
            fc.model_from_json(text)

    @pytest.mark.parametrize("where", ["evolver-array", "readout", "config"])
    @pytest.mark.parametrize("strategy", fc.STRATEGIES)
    def test_non_finite_number_raises(self, strategy, where):
        text = fixture_text(strategy)
        doc, model = json.loads(text), fc.model_from_json(text)
        if where == "config":
            doc["config"]["theta"] = "@non-finite@"
            text = json.dumps(doc)
            assert fc.model_from_json(text.replace('"@non-finite@"', "0.5")) is not None
            # an integer beyond the float range is no finite float either
            for token in ("NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400):
                with pytest.raises(ModelFormatError):
                    fc.model_from_json(text.replace('"@non-finite@"', token))
            return
        ch = doc["channels"][0]
        if where == "readout":
            body, key, arr = ch, "readout", model.readouts[0].copy()
        else:
            body = evolver_body(ch["evolvers"][0])
            key = EVOLVER_ARRAYS[strategy][-1]
            arr = getattr(channel_evolvers(model, 0)[0], key).copy()
        for value, loads in ((0.5, True), (np.nan, False), (np.inf, False), (-np.inf, False)):
            arr.flat[0] = value
            body[key] = stored(arr)
            if loads:
                assert fc.model_from_json(json.dumps(doc)) is not None
            else:
                with pytest.raises(ModelFormatError, match="non-finite"):
                    fc.model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("theta", [5e-324, 1e-310])
    @pytest.mark.parametrize("strategy", fc.STRATEGIES)
    def test_theta_whose_step_overflows_raises_without_a_warning(self, lorenz63_x, strategy,
                                                                 theta):
        # the recurrence step 1 / theta is inf, or so large that the
        # discretized recurrence is not finite
        text = fixture_text(strategy)
        doc = json.loads(text)
        doc["config"]["theta"] = theta
        config = replace(fc.model_from_json(text).config, theta=theta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelFormatError, match="recurrence overflows"):
                fc.model_from_json(json.dumps(doc))
            with pytest.raises(NonFiniteError, match="recurrence overflows"):
                fc.fit(config, lorenz63_x[:2000])

    @pytest.mark.parametrize("fault", ["alphabet", "one-float-short", "nan-bytes", "not-a-string"])
    @pytest.mark.parametrize("strategy", fc.STRATEGIES)
    def test_bad_document_array_raises(self, strategy, fault):
        text = fixture_text(strategy)

        def arrays(doc):
            ch = doc["channels"][0]
            body = evolver_body(ch["evolvers"][0])
            return [(ch, "readout")] + [(body, key) for key in EVOLVER_ARRAYS[strategy]]

        for i in range(1 + len(EVOLVER_ARRAYS[strategy])):
            doc = json.loads(text)
            node, key = arrays(doc)[i]
            raw = base64.b64decode(node[key])
            if fault == "alphabet":
                # URL-safe digits, which a decoder without validation skips
                node[key], match = "-_-_" + node[key], "not base64"
            elif fault == "one-float-short":
                node[key], match = base64.b64encode(raw[:-8]).decode(), "bytes"
            elif fault == "nan-bytes":
                raw = np.array([np.nan], "<f8").tobytes() + raw[8:]
                node[key], match = base64.b64encode(raw).decode(), "non-finite"
            else:
                node[key], match = np.frombuffer(raw, "<f8").tolist(), "not a base64 string"
            with pytest.raises(ModelFormatError, match=match):
                fc.model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("strategy", ["direct", "hopfield"])
    def test_evolver_without_clusters_raises(self, strategy):
        doc = json.loads(fixture_text(strategy))
        doc["channels"][0]["evolvers"][0].update({key: "" for key in EVOLVER_ARRAYS[strategy]})
        with pytest.raises(ModelFormatError, match="bytes"):
            fc.model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("strategy", fc.STRATEGIES)
    def test_single_precision_arrays_are_written_as_double(self, strategy):
        model = fc.model_from_json(fixture_text(strategy))
        single = {np.dtype(float): np.float32, np.dtype(complex): np.complex64}

        def narrowed(obj, keys):
            return replace(obj, **{k: getattr(obj, k).astype(single[getattr(obj, k).dtype])
                                   for k in keys})

        narrow = replace(narrowed(model, ["readouts"]),
                         evolvers=[narrowed(ev, EVOLVER_ARRAYS[strategy])
                                   for ev in model.evolvers])
        back = fc.model_from_json(fc.model_to_json(narrow))
        assert np.array_equal(narrow.readouts, back.readouts)
        for ev, ev_back in zip(narrow.evolvers, back.evolvers, strict=True):
            for key in EVOLVER_ARRAYS[strategy]:
                assert np.array_equal(getattr(ev, key), getattr(ev_back, key))

    @pytest.mark.parametrize("token", ["96.5", "Infinity", "NaN"])
    def test_non_integer_count_raises(self, lorenz63_x, token):
        cfg = small_config(window=96, max_train_windows=16)
        doc = json.loads(fc.model_to_json(fc.fit(cfg, lorenz63_x[:2000])))
        doc["config"]["window"] = "@count@"
        with pytest.raises(ModelFormatError, match="window must be an integer"):
            fc.model_from_json(json.dumps(doc).replace('"@count@"', token))

    @pytest.mark.parametrize(
        "section,key,value",
        [("config", "seed", True), ("config", "n_clusters", True), ("embedding", "m", 3.7),
         ("embedding", "tau", 4.9), (None, "v", True), (None, "v", 2.0)],
    )
    def test_non_integer_entry_raises(self, lorenz63_x, section, key, value):
        # each of these once loaded as the integer it compares equal to or
        # truncates to
        cfg = small_config(window=96, max_train_windows=16, evolution_strategy="direct")
        doc = json.loads(fc.model_to_json(fc.fit(cfg, lorenz63_x[:2000])))
        (doc if section is None else doc[section])[key] = value
        with pytest.raises(ModelFormatError):
            fc.model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("where", ["readout", "evolver-count", "evolver-array", "strategy"])
    @pytest.mark.parametrize("strategy", fc.STRATEGIES)
    def test_document_at_odds_with_its_config_raises(self, strategy, where):
        text = fixture_text(strategy)
        doc, fitted = json.loads(text), fc.model_from_json(text)
        ch = doc["channels"][0]
        if where == "strategy":
            # the evolvers are of the kind the fit made, no longer the config's
            other = {"frequency": "direct", "direct": "hopfield", "hopfield": "direct"}
            doc["config"]["evolution_strategy"] = other[strategy]
        elif where == "readout":
            ch["readout"] = stored(fitted.readouts[0][:-1])  # one feature row short
        elif where == "evolver-count":
            ch["evolvers"].pop()  # one scale without an evolver
        else:
            key = EVOLVER_ARRAYS[strategy][-1]  # one column short
            arr = getattr(channel_evolvers(fitted, 0)[0], key)[..., :-1]
            evolver_body(ch["evolvers"][0])[key] = stored(arr)
        with pytest.raises(ModelFormatError):
            fc.model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("strategy", ["direct", "hopfield"])
    def test_channels_that_differ_in_a_cluster_count_raise(self, strategy):
        # a model serves its channels as one stack, so each scale needs one
        # cluster count across them; a fit always writes that
        doc = json.loads(fixture_text(strategy))
        doc["channels"].append(json.loads(json.dumps(doc["channels"][0])))
        assert fc.model_from_json(json.dumps(doc)).n_channels == 2
        evolvers = channel_evolvers(fc.model_from_json(fixture_text(strategy)), 0)
        body = doc["channels"][1]["evolvers"][-1]
        for key in EVOLVER_ARRAYS[strategy]:
            body[key] = stored(getattr(evolvers[-1], key)[:-1])  # the last cluster cut
        with pytest.raises(ModelFormatError, match=f"cluster count of scale {len(evolvers) - 1}"):
            fc.model_from_json(json.dumps(doc))

    def test_a_frequency_load_composes_no_maps(self, lorenz96_3d, monkeypatch):
        # the document's readouts are the serving maps, so a load runs no
        # stage and serves the fitted model's bits
        cfg = fc.ForecasterConfig(window=96, horizon=16, max_train_windows=128)
        model = fc.fit(cfg, lorenz96_3d[:4000])
        text = fc.model_to_json(model)

        def forbidden(*args, **kwargs):
            raise AssertionError("stage run while loading")

        for name in ("_stage_map", "_features", "_stack"):
            monkeypatch.setattr(fc, name, forbidden)
        loaded = fc.model_from_json(text)
        assert np.array_equal(loaded.readouts, model.readouts)
        context = lorenz96_3d[4000:4096]
        assert np.array_equal(fc.predict(loaded, context).predictions,
                              fc.predict(model, context).predictions)

    @pytest.mark.parametrize("strategy", ["direct", "hopfield"])
    def test_a_loaded_model_holds_each_array_once(self, lorenz96_3d, strategy):
        # the document's arrays live on only in the model's channel stacks;
        # a second copy of them would take the memory still held to about
        # twice the arrays
        cfg = fc.ForecasterConfig(window=96, horizon=16, embedding=EmbeddingParams(5, 16),
                                  evolution_strategy=strategy, max_train_windows=128)
        text = fc.model_to_json(fc.fit(cfg, lorenz96_3d[:4000]))
        channels = json.loads(text)["channels"]
        assert len(channels) == 3
        arrays = sum(len(base64.b64decode(ch["readout"]))
                     + sum(len(base64.b64decode(evolver_body(ev)[key]))
                           for ev in ch["evolvers"] for key in EVOLVER_ARRAYS[strategy])
                     for ch in channels)
        fc.model_from_json(text)  # the filter bank is cached once per process
        tracemalloc.start()
        try:
            model = fc.model_from_json(text)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert model.n_channels == 3 and held < 1.1 * arrays

    @pytest.mark.parametrize("section,key,value",
                             [("config", "patch_len", 1000), ("embedding", "m", 40)])
    @pytest.mark.parametrize("strategy", fc.STRATEGIES)
    def test_config_that_leaves_no_full_patch_raises(self, strategy, section, key, value):
        doc = json.loads(fixture_text(strategy))
        doc[section][key] = value
        with pytest.raises(ModelFormatError, match="no full patch"):
            fc.model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("value", [2**31, 2**63, 2**70, 10**400, -(10**400)])
    @pytest.mark.parametrize("name", [f"{kind}{s}" for kind in ("oracle_v5_", "v5_")
                                      for s in fc.STRATEGIES])
    def test_integer_entry_beyond_any_size_loads_or_raises_typed(self, name, value):
        # every integer entry the config and the embedding hold, far beyond
        # what numpy stores in an index, is refused by a typed check before
        # the model's arrays are built, or is one that no array depends on
        text = (DATA / f"{name}_legt_full.json").read_text(encoding="utf-8")
        counts = [("config", f.name) for f in fields(fc.ForecasterConfig) if f.type == "int"]
        for section, key in counts + [("embedding", "m"), ("embedding", "tau")]:
            doc = json.loads(text)
            doc[section][key] = value
            try:
                fc.model_from_json(json.dumps(doc))
            except AttraosError:
                pass

    @pytest.mark.parametrize("strategy", fc.STRATEGIES)
    def test_every_entry_outside_the_config_is_read(self, strategy):
        # an entry the load does not need could be dropped from the document

        def key_paths(node, path=()):
            # every key but the config's; one element of each list of objects
            if isinstance(node, list) and isinstance(node[0], dict):
                yield from key_paths(node[0], path + (0,))
            elif isinstance(node, dict):
                for key, value in node.items():
                    if path + (key,) != ("config",):
                        yield path + (key,)
                        yield from key_paths(value, path + (key,))

        text = fixture_text(strategy)
        paths = list(key_paths(json.loads(text)))
        assert ("channels", 0, "evolvers", 0) in [p[:4] for p in paths]
        for *parents, last in paths:
            node = broken = json.loads(text)
            for key in parents:
                node = node[key]
            del node[last]
            with pytest.raises(ModelFormatError):
                fc.model_from_json(json.dumps(broken))

    @pytest.mark.parametrize("strategy", fc.STRATEGIES)
    def test_non_finite_model_is_not_written_as_bare_nan(self, strategy_models, strategy):
        # a model is built from any readouts; writing refuses NaN ones
        model = strategy_models[strategy]
        broken = replace(model, readouts=model.readouts * np.nan)
        with pytest.raises(ValueError, match="non-finite readout"):
            fc.model_to_json(broken)


DATA = Path(__file__).parent / "data"

EVOLVER_ARRAYS = {"frequency": ("mode_ops",), "direct": ("centroids", "operators"),
                  "hopfield": ("keys", "values")}


def fixture_text(strategy: str) -> str:
    """The ``legt_full`` fixture document of ``strategy``: the refit of its
    oracle's setup (``TestFrequencyDocument``, ``TestNonlinearDocument``)."""
    return (DATA / f"v5_{strategy}_legt_full.json").read_text(encoding="utf-8")


def oracle_text(strategy: str) -> str:
    """The oracle document of ``strategy``: a model fit by an earlier version
    of attraos, re-encoded as version 5.  It holds that fit's arrays, so it
    is not the ``fixture_text`` refit; the ``frequency`` one holds, as its
    readout, the serving map that its version-4 document loaded to."""
    return (DATA / f"oracle_v5_{strategy}_legt_full.json").read_text(encoding="utf-8")


def oracle_io(strategy: str) -> dict:
    """Three contexts and the predictions the oracle of ``strategy`` makes from them."""
    path = DATA / f"oracle_v5_{strategy}_legt_full_io.json"
    return json.loads(path.read_text(encoding="utf-8"))


def evolver_body(ev: dict) -> dict:
    """The object that holds an evolver's arrays in a document."""
    return ev.get("doc", ev)


def stored(arr: np.ndarray) -> str:
    """A fitted array as a document stores it: base64 of its little-endian
    bytes in C order."""
    little = arr.astype("<c16" if np.iscomplexobj(arr) else "<f8")
    return base64.b64encode(little.tobytes()).decode("ascii")


class TestFrequencyDocument:
    """The ``frequency`` / ``legt_full`` oracle (window 48, horizon 4, m=2,
    tau=4, patch 4, order 3, 32 windows), fit on the first 2000 samples of
    the Lorenz63 fixture: its 11 patches pad to 12.  Its ``_io`` predictions
    were last regenerated when the stage maps came to evolve each scale
    through ``apply_spectral_evolution`` in place of a per-scale matrix,
    which moved them by 1.2e-15 of the largest one; they stay within 1e-14
    of the writing version's.  Since version 5 the document holds, in place
    of the feature readout, the (48, 4) serving map that the version-4
    document composed at load, so it forecasts the same bits; with the
    feature readout gone, these predictions are no longer compared with
    the staged reference (``TestServingMaps`` does that for fits)."""

    def test_loads_with_bit_identical_predictions(self):
        model = fc.model_from_json(oracle_text("frequency"))
        assert (model.shapes.n_patches, model.shapes.padded) == (11, 12)
        assert model.readouts.shape == (1, 48, 4)
        io = oracle_io("frequency")
        for context, expect in zip(io["contexts"], io["predictions"], strict=True):
            assert np.array_equal(fc.predict(model, context).predictions[:, 0], expect)

    def test_resave_is_byte_identical(self):
        text = oracle_text("frequency")
        assert fc.model_to_json(fc.model_from_json(text)) == text

    def test_refit_writes_the_same_document(self, lorenz63_x):
        config = fc.model_from_json(oracle_text("frequency")).config
        refit = fixture_text("frequency")
        assert fc.model_to_json(fc.fit(config, lorenz63_x[:2000])) == refit
        assert fc.model_to_json(fc.model_from_json(refit)) == refit


@pytest.mark.parametrize("strategy", ["direct", "hopfield"])
class TestNonlinearDocument:
    """The ``direct`` and ``hopfield`` oracles: the ``frequency`` oracle's
    setup with two clusters, fit on the same samples, with three contexts
    and the predictions this version makes from them (within 1e-12 relative
    of the writing version's).  The ``hopfield`` one was fit by attraos at
    commit b8cb457, the ``direct`` one, with its N x N cluster operators, by
    the version that introduced them."""

    def test_loads_with_bit_identical_predictions(self, strategy):
        model = fc.model_from_json(oracle_text(strategy))
        io = oracle_io(strategy)
        for context, expect in zip(io["contexts"], io["predictions"], strict=True):
            assert np.array_equal(fc.predict(model, context).predictions[:, 0], expect)

    def test_resave_is_byte_identical(self, strategy):
        text = oracle_text(strategy)
        assert fc.model_to_json(fc.model_from_json(text)) == text

    def test_refit_writes_the_same_document(self, lorenz63_x, strategy):
        # pins the k-means partition and the per-cluster fits
        config = fc.model_from_json(oracle_text(strategy)).config
        refit = fixture_text(strategy)
        assert fc.model_to_json(fc.fit(config, lorenz63_x[:2000])) == refit
        assert fc.model_to_json(fc.model_from_json(refit)) == refit

    def test_overflowing_forecast_raises_without_a_warning(self, lorenz63_x, strategy):
        # every stored entry is finite, but a readout column near the float
        # maximum takes the forecast beyond it
        doc = json.loads(fixture_text(strategy))
        readout = fc.model_from_json(fixture_text(strategy)).readouts[0].copy()
        readout[:, 0] = 1e308
        doc["channels"][0]["readout"] = stored(readout)
        model = fc.model_from_json(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="forecast overflows"):
                fc.predict(model, lorenz63_x[: model.config.window])


@pytest.mark.parametrize("version", [1, 2, 3, 4])
@pytest.mark.parametrize("strategy", fc.STRATEGIES)
def test_retired_versions_ask_for_a_refit(strategy, version):
    # versions 1 to 3 stored the fitted arrays as float lists, version 4 a
    # frequency model's feature readouts; a document of one of them is
    # refused before any of its entries is read
    doc = json.loads(fixture_text(strategy))
    for text in (json.dumps({"v": version}), json.dumps({**doc, "v": version})):
        with pytest.raises(ModelFormatError, match=f"version-{version} .*refit"):
            fc.model_from_json(text)


MISSING = object()


@pytest.mark.parametrize(
    "version", [0, 6, -1, True, 2.0, 5.0, "5", None, MISSING],
    ids=["0", "6", "-1", "true", "2.0", "5.0", "string-5", "null", "missing"],
)
def test_other_versions_are_not_read(version):
    # only the integer 5 is read (true == 1 and 5.0 == 5, so the type is
    # checked too), and only versions 1 to 4 are named as retired
    for strategy in fc.STRATEGIES:
        doc = json.loads(fixture_text(strategy))
        if version is MISSING:
            del doc["v"]
        else:
            doc["v"] = version
        with pytest.raises(ModelFormatError, match="not a version-5") as info:
            fc.model_from_json(json.dumps(doc))
        assert "refit" not in str(info.value)


@pytest.mark.parametrize(
    "key, value", [("teacher_alpha", 0.0), ("teacher_alpha", 0.5), ("no_such_entry", 1)],
)
def test_config_entry_the_config_does_not_hold_raises(key, value):
    # older documents held rollout's teacher_alpha in their config; it is
    # refused as any entry that is no config field is
    for strategy in fc.STRATEGIES:
        doc = json.loads(fixture_text(strategy))
        doc["config"][key] = value
        with pytest.raises(ModelFormatError, match=key):
            fc.model_from_json(json.dumps(doc))


@pytest.mark.parametrize("strategy", ["frequency", "direct", "hopfield"])
@pytest.mark.parametrize("order", [8, 9, 16])
def test_document_of_order_8_and_above_round_trips(lorenz63_x, strategy, order):
    # the document stores no wavelet filters: a load rebuilds the ones the
    # model was fit with, at orders where an earlier construction of them
    # agreed with today's (8) and where it did not (9, 16)
    cfg = fc.ForecasterConfig(window=48, horizon=4, embedding=EmbeddingParams(2, 4),
                              patch_len=4, poly_order=order, ssm_variant="legt_full",
                              n_clusters=2, evolution_strategy=strategy, max_train_windows=32)
    model = fc.fit(cfg, lorenz63_x[:2000])
    text = fc.model_to_json(model)
    loaded = fc.model_from_json(text)
    assert fc.model_to_json(loaded) == text
    context = lorenz63_x[2000:2048]
    assert np.array_equal(fc.predict(loaded, context).predictions,
                          fc.predict(model, context).predictions)


def test_non_positive_hopfield_beta_in_document_raises():
    doc = json.loads(fixture_text("hopfield"))
    doc["config"]["hopfield_beta"] = -1
    with pytest.raises(ModelFormatError):
        fc.model_from_json(json.dumps(doc))


class TestStrategies:
    @pytest.mark.parametrize("strategy", ["frequency", "direct", "hopfield"])
    def test_all_strategies_fit_and_predict(self, lorenz63_x, strategy):
        x = lorenz63_x[:6000]
        cfg = small_config(window=96, evolution_strategy=strategy, max_train_windows=48,
                           ridge_lambda=1e-3)
        model = fc.fit(cfg, x)
        pred = fc.predict(model, x[:96]).predictions
        assert pred.shape == (4, 1)
        assert np.all(np.isfinite(pred))

    @pytest.mark.parametrize("strategy", ["frequency", "direct", "hopfield"])
    def test_full_depth_pyramid_with_padding(self, lorenz63_x, strategy):
        # 5 patches pad to 8; a 3-level pyramid has a length-1 coarse scale
        # whose only position overlaps the padding
        x = lorenz63_x[:4000]
        cfg = fc.ForecasterConfig(
            window=28, horizon=2, embedding=EmbeddingParams(3, 4), patch_len=4,
            poly_order=3, levels=3, m_modes=2, evolution_strategy=strategy,
            max_train_windows=32,
        )
        model = fc.fit(cfg, x)
        assert model.shapes.n_patches == 5 and model.shapes.pad == 3
        assert np.all(np.isfinite(fc.predict(model, x[:28]).predictions))

    @pytest.mark.parametrize("variant", ["legt_full", "legs_diag", "diag_neg1"])
    def test_all_ssm_variants_run_end_to_end(self, lorenz63_x, variant):
        x = lorenz63_x[:5000]
        cfg = small_config(window=96, ssm_variant=variant, max_train_windows=32,
                           ridge_lambda=1e-3)
        model = fc.fit(cfg, x)
        pred = fc.predict(model, x[:96]).predictions
        assert np.all(np.isfinite(pred))
