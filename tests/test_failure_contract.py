"""Property tests of the failure contract: random shapes and values passed to
``fit``, ``predict``, ``rollout``, ``evaluate``, ``model_from_json``, the
embedding selection and its MI/FNN curves, and the Lyapunov estimates give
either a finite result or an ``AttraosError``.

Values are finite floats of any magnitude, with NaN or inf injected at a few
positions; series are either raw draws or a Lorenz63 segment under a random
affine map (a signed power of two and an offset, both bounded so that every
value stays finite), so that both the error paths and the fitted paths are
reached.
A model document gets one config float or one float64 entry of a stored
array replaced, or one byte of a base64 array.
"""

import base64
import json
import string
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from attraos import forecaster as fc
from attraos.embedding import EmbeddingParams, fnn_profile, mi_profile, select_embedding
from attraos.errors import AttraosError, ModelFormatError
from attraos.lyapunov import estimate_mle, mle_table

SMALL = dict(
    window=24, horizon=3, embedding=EmbeddingParams(2, 3), patch_len=4, poly_order=3,
    levels=1, m_modes=2, n_clusters=3, max_train_windows=8, ridge_lambda=1e-3,
)
STRATEGIES = ["frequency", "hopfield"]
SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

finite = st.floats(allow_nan=False, allow_infinity=False)
non_finite = st.sampled_from([np.nan, np.inf, -np.inf])


def config(strategy):
    return fc.ForecasterConfig(evolution_strategy=strategy, **SMALL)


@st.composite
def series(draw, max_rows=90, channels=st.integers(1, 3), lorenz=None):
    """A 1-D, 2-D or (rarely) 3-D float array with NaN/inf injected at up to
    two positions."""
    rows = draw(st.integers(0, max_rows))
    n_ch = draw(channels)
    shape = draw(st.sampled_from([(rows,)] + [(rows, n_ch)] * 4 + [(rows, n_ch, 2)]))
    if lorenz is not None and len(shape) == 2 and draw(st.booleans()):
        # |base| < 2^5, so a power of two up to 2^1017 and an offset below
        # 2^1022 keep every value finite
        base = lorenz[: rows * n_ch].reshape(shape)
        sign = draw(st.sampled_from([-1.0, 1.0]))
        arr = np.ldexp(sign * base, draw(st.integers(-1074, 1017)))
        arr += draw(st.floats(-2.0**1022, 2.0**1022))
    else:
        arr = draw(arrays(float, shape, elements=finite))
    flat = arr.reshape(-1)
    if flat.size:
        for _ in range(draw(st.integers(0, 2))):
            flat[draw(st.integers(0, flat.size - 1))] = draw(non_finite)
    return arr


def finite_or_typed(fn, *args, **kwargs):
    """The call's result, or None when it raised an AttraosError."""
    try:
        return fn(*args, **kwargs)
    except AttraosError:
        return None


def assert_finite_model(model):
    # writing rejects any non-finite number the model stores
    fc.model_to_json(model)


@pytest.fixture(scope="module")
def lorenz(lorenz63_x):
    return np.asarray(lorenz63_x[:4000])


@pytest.fixture(scope="module", params=STRATEGIES)
def fitted(request, lorenz63_x):
    data = np.stack([lorenz63_x[:600], lorenz63_x[7000:7600]], axis=1)
    return fc.fit(config(request.param), data)


# enough rows for the default MI delay scan (at least 10 delays, 4 rows each)
EMBED_ROWS = 300
small = st.integers(1, 6)


@SETTINGS
@given(data=st.data())
def test_fit_with_auto_embedding(lorenz, data):
    arr = data.draw(series(max_rows=EMBED_ROWS, lorenz=lorenz))
    model = finite_or_typed(fc.fit, replace(config("frequency"), embedding=None), arr)
    if model is not None:
        assert_finite_model(model)


@SETTINGS
@given(data=st.data())
def test_select_embedding(lorenz, data):
    arr = data.draw(series(max_rows=EMBED_ROWS, lorenz=lorenz))
    finite_or_typed(select_embedding, arr, max_m=data.draw(small))


@SETTINGS
@given(data=st.data())
def test_mi_profile(lorenz, data):
    arr = data.draw(series(max_rows=EMBED_ROWS, lorenz=lorenz))
    curve = finite_or_typed(mi_profile, arr, data.draw(small))
    if curve is not None:
        assert np.all(np.isfinite(curve))


@SETTINGS
@given(data=st.data())
def test_fnn_profile(lorenz, data):
    arr = data.draw(series(max_rows=EMBED_ROWS, lorenz=lorenz))
    curve = finite_or_typed(fnn_profile, arr, data.draw(small), data.draw(small))
    if curve is not None:
        assert np.all(np.isfinite(curve))


def lyapunov_args(data):
    params = EmbeddingParams(data.draw(st.integers(1, 3)), data.draw(small))
    return params, data.draw(st.integers(3, 20))


@SETTINGS
@given(data=st.data())
def test_estimate_mle(lorenz, data):
    arr = data.draw(series(max_rows=EMBED_ROWS, lorenz=lorenz))
    estimate = finite_or_typed(estimate_mle, arr, *lyapunov_args(data))
    if estimate is not None:
        assert np.isfinite(estimate.mle)


@SETTINGS
@given(data=st.data())
def test_mle_table(lorenz, data):
    arr = data.draw(series(max_rows=EMBED_ROWS, lorenz=lorenz))
    table = finite_or_typed(mle_table, arr, *lyapunov_args(data))
    if table is not None:
        assert np.all(np.isfinite(table["per_channel"])) and np.isfinite(table["mean"])


# mostly the fitted models' channel count, so that forecasts are reached
MODEL_CHANNELS = st.sampled_from([2, 2, 2, 1, 3])


@pytest.mark.parametrize("strategy", STRATEGIES)
@SETTINGS
@given(data=st.data())
def test_fit(lorenz, strategy, data):
    arr = data.draw(series(lorenz=lorenz))
    model = finite_or_typed(fc.fit, config(strategy), arr)
    if model is not None:
        assert_finite_model(model)
        context = np.asarray(arr, dtype=float).reshape(arr.shape[0], -1)
        result = finite_or_typed(fc.predict, model, context)
        if result is not None:
            assert np.all(np.isfinite(result.predictions))


@SETTINGS
@given(data=st.data())
def test_predict(fitted, lorenz, data):
    context = data.draw(series(max_rows=40, channels=MODEL_CHANNELS, lorenz=lorenz))
    result = finite_or_typed(fc.predict, fitted, context)
    if result is not None:
        assert result.predictions.shape == (fitted.config.horizon, fitted.n_channels)
        assert np.all(np.isfinite(result.predictions))


@SETTINGS
@given(data=st.data())
def test_rollout(fitted, lorenz, data):
    context = data.draw(series(max_rows=40, channels=MODEL_CHANNELS, lorenz=lorenz))
    total = data.draw(st.integers(1, 10))
    truth = data.draw(st.none() | series(max_rows=12, channels=MODEL_CHANNELS, lorenz=lorenz))
    alpha = data.draw(st.floats(0.0, 1.0))
    path = finite_or_typed(fc.rollout, fitted, context, total, truth=truth, alpha=alpha)
    if path is not None:
        assert path.shape == (total, fitted.n_channels)
        assert np.all(np.isfinite(path))


@SETTINGS
@given(data=st.data())
def test_evaluate(data):
    predictions = data.draw(series(max_rows=6))
    truth = data.draw(st.just(predictions.shape).flatmap(
        lambda shape: arrays(float, shape, elements=finite)) | series(max_rows=6))
    metrics = finite_or_typed(fc.evaluate, predictions, truth)
    if metrics is not None:
        assert all(np.all(np.isfinite(v)) for v in metrics.values())


def leaf_paths(node, kind, path=()):
    """Paths to every ``kind`` value (float, str) in a parsed JSON document."""
    if isinstance(node, kind):
        yield path
    elif isinstance(node, (list, dict)):
        items = enumerate(node) if isinstance(node, list) else node.items()
        for key, value in items:
            yield from leaf_paths(value, kind, path + (key,))


# the config's float scalars; its integers size the derived operators
CONFIG_FLOATS = ("theta", "ridge_lambda", "hopfield_beta")


@SETTINGS
@given(data=st.data())
def test_model_from_json(fitted, lorenz, data):
    # one float of the document is replaced: a config scalar by a finite
    # float of any magnitude or by a non-finite token, or one float64 entry
    # of a stored array (a real or imaginary part of a complex one) by any
    # float64 value
    doc = json.loads(fc.model_to_json(fitted))
    if data.draw(st.booleans()):
        marker = "@value@"
        doc["config"][data.draw(st.sampled_from(CONFIG_FLOATS))] = marker
        token = data.draw(st.one_of(finite.map(repr),
                                    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999"])))
        text = json.dumps(doc).replace(f'"{marker}"', token)
    else:
        *parents, last = data.draw(st.sampled_from(list(leaf_paths(doc["channels"], str))))
        node = doc["channels"]
        for key in parents:
            node = node[key]
        entries = np.frombuffer(base64.b64decode(node[last]), "<f8").copy()
        entries[data.draw(st.integers(0, entries.size - 1))] = data.draw(st.floats())
        node[last] = base64.b64encode(entries.tobytes()).decode("ascii")
        text = json.dumps(doc)
    model = finite_or_typed(fc.model_from_json, text)
    assert_finite_forecasts(model, lorenz)


BASE64_DIGITS = string.ascii_letters + string.digits + "+/="


@SETTINGS
@given(data=st.data())
def test_model_from_json_with_a_corrupted_array(fitted, lorenz, data):
    # one byte of a stored array is replaced: a byte of its base64 text by
    # any character (mostly another base64 digit), or a byte of the decoded
    # float64 data by any value, which reaches NaN, inf and huge exponents
    doc = json.loads(fc.model_to_json(fitted))
    paths = list(leaf_paths(doc["channels"], str))
    *parents, last = paths[data.draw(st.integers(0, len(paths) - 1))]
    node = doc["channels"]
    for key in parents:
        node = node[key]
    text = node[last]
    if data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(text) - 1))
        char = data.draw(st.sampled_from(BASE64_DIGITS) | st.characters())
        node[last] = text[:at] + char + text[at + 1 :]
    else:
        raw = bytearray(base64.b64decode(text))
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
        node[last] = base64.b64encode(raw).decode("ascii")
    try:
        model = fc.model_from_json(json.dumps(doc))
    except ModelFormatError:
        return
    assert_finite_forecasts(model, lorenz)


def assert_finite_forecasts(model, lorenz):
    """A loaded model (None when its load raised an AttraosError) forecasts
    finite values or raises an AttraosError."""
    if model is not None:
        context = np.stack([lorenz[:24], lorenz[2000:2024]], axis=1)
        result = finite_or_typed(fc.predict, model, context)
        if result is not None:
            assert np.all(np.isfinite(result.predictions))
