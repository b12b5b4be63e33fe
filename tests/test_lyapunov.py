import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from attraos import chaos
from attraos.embedding import EmbeddingParams, delay_embed
from attraos.errors import (DegenerateSeriesError, NonFiniteError, ShapeMismatchError,
                             TooShortError)
from attraos.lyapunov import _nearest_outside_window, estimate_mle, mle_table
from test_chaos import lorenz63_rhs


def lorenz63_jacobian(s, p):
    x, y, z = s
    return np.array(
        [
            [-p.sigma, p.sigma, 0.0],
            [p.rho - z, -1.0, -x],
            [y, x, -p.beta],
        ]
    )


def benettin_mle(params, x0, dt, steps, discard=1000):
    """Tangent-space oracle: integrate state + deviation vector, renormalize
    each step, average the log growth."""
    x = np.asarray(x0, dtype=float).copy()
    v = np.array([1.0, 0.0, 0.0])
    total, count = 0.0, 0
    for k in range(steps):
        k1 = lorenz63_rhs(x, params)
        j1 = lorenz63_jacobian(x, params) @ v
        k2 = lorenz63_rhs(x + 0.5 * dt * k1, params)
        j2 = lorenz63_jacobian(x + 0.5 * dt * k1, params) @ (v + 0.5 * dt * j1)
        k3 = lorenz63_rhs(x + 0.5 * dt * k2, params)
        j3 = lorenz63_jacobian(x + 0.5 * dt * k2, params) @ (v + 0.5 * dt * j2)
        k4 = lorenz63_rhs(x + dt * k3, params)
        j4 = lorenz63_jacobian(x + dt * k3, params) @ (v + dt * j3)
        x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        v = v + (dt / 6.0) * (j1 + 2 * j2 + 2 * j3 + j4)
        growth = np.linalg.norm(v)
        v /= growth
        if k >= discard:
            total += np.log(growth)
            count += 1
    return total / (count * dt)


@pytest.fixture(scope="module")
def benettin_value():
    return benettin_mle(chaos.Lorenz63Params(), [1.0, 1.0, 1.0], 0.01, 31000)


class TestEstimateMle:
    def test_lorenz63_against_benettin(self, lorenz63_x, benettin_value):
        dt = 0.01
        est = estimate_mle(
            lorenz63_x,
            EmbeddingParams(3, 16),
            horizon=400,
            fit_range=(75, 275),  # linear region between transient and saturation
        )
        per_tu = est.mle / dt
        assert 0.75 <= per_tu <= 1.05
        assert abs(per_tu - benettin_value) <= 0.15
        assert 0.85 <= benettin_value <= 0.95  # literature value ~0.906

    def test_contracting_map_negative(self):
        rng = np.random.default_rng(0)
        x = np.empty(200)
        x[0] = 1.0
        for i in range(1, 200):
            x[i] = 0.9 * x[i - 1] + 1e-12 * rng.standard_normal()
        est = estimate_mle(x, EmbeddingParams(2, 1), horizon=40, theiler=2, fit_range=(1, 20))
        assert est.mle < 0
        assert est.mle == pytest.approx(np.log(0.9), abs=0.01)

    def test_sine_wave_near_zero(self):
        t = np.arange(4000)
        s = np.sin(2 * np.pi * t / 33.7)
        est = estimate_mle(s, EmbeddingParams(3, 8), horizon=100, fit_range=(1, 50))
        assert abs(est.mle) <= 0.01

    def test_curve_shape_and_determinism(self, lorenz63_x):
        a = estimate_mle(lorenz63_x[:8000], EmbeddingParams(3, 16), horizon=100)
        b = estimate_mle(lorenz63_x[:8000], EmbeddingParams(3, 16), horizon=100)
        assert np.array_equal(a.divergence_curve, b.divergence_curve)
        assert a.mle == b.mle
        assert a.divergence_curve.shape == (101,)
        assert a.fit_range == (1, 50)

    def test_constant_series_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            estimate_mle(np.ones(1000), EmbeddingParams(2, 1), horizon=10)

    def test_fit_range_where_pairs_have_met_rejected(self):
        # every pair that reaches the constant tail meets: from step 300 on
        # the curve has no value
        series = np.r_[np.random.default_rng(0).standard_normal(300), np.zeros(2000)]
        params = EmbeddingParams(3, 2)
        est = estimate_mle(series, params, horizon=400)
        assert np.all(np.isneginf(est.divergence_curve[300:]))
        assert np.isfinite(est.mle)
        with pytest.raises(DegenerateSeriesError):
            estimate_mle(series, params, horizon=400, fit_range=(250, 350))

    @pytest.mark.parametrize("horizon", range(8))
    def test_default_fit_range(self, horizon):
        x = np.sin(0.37 * np.arange(400.0)) + 0.5 * np.sin(0.11 * np.arange(400.0))
        params = EmbeddingParams(2, 3)
        if horizon < 3:
            with pytest.raises(ValueError, match=f"horizon {horizon}"):
                estimate_mle(x, params, horizon=horizon)
        else:
            est = estimate_mle(x, params, horizon=horizon)
            assert est.fit_range == (1, max(3, horizon // 2))
            assert np.isfinite(est.mle)

    @pytest.mark.parametrize("theiler", [-1, -3])
    def test_negative_theiler_rejected(self, theiler):
        x = np.sin(0.37 * np.arange(400.0)) + 0.5 * np.sin(0.11 * np.arange(400.0))
        with pytest.raises(ValueError, match="theiler"):
            estimate_mle(x, EmbeddingParams(2, 3), horizon=20, theiler=theiler)

    def test_empty_series_is_too_short(self):
        with pytest.raises(TooShortError):
            estimate_mle(np.zeros(0), EmbeddingParams(2, 1), horizon=10)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            estimate_mle(np.sin(np.arange(50.0)), EmbeddingParams(3, 5), horizon=100)

    def test_nan_raises_non_finite(self, sine_with_nan):
        with pytest.raises(NonFiniteError, match="NaN or inf"):
            estimate_mle(sine_with_nan, EmbeddingParams(3, 4), horizon=40)

    def test_overflowing_neighbour_distance_raises_non_finite(self, overflowing):
        with pytest.raises(NonFiniteError, match="distance overflows"):
            estimate_mle(overflowing, EmbeddingParams(3, 4), horizon=40)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("huge_tail", [5, 40])
    def test_overflowing_tracked_separation_raises_non_finite(self, huge_tail):
        # the neighbour base is ordinary; only the tracked samples overflow
        # when squared, beyond the fit range (5) or inside it (40)
        t = np.arange(3000)
        x = np.sin(0.05 * t) + 0.1 * np.sin(0.31 * t)
        x[-huge_tail:] = 1e160
        with pytest.raises(NonFiniteError, match="separation overflows"):
            estimate_mle(x, EmbeddingParams(3, 4), horizon=40)

    def test_subsampling_monotonicity(self, lorenz63_x):
        # halving the sampling rate scales the per-step exponent up; assert
        # sign invariance and the monotone relation, not the exact factor
        fine = estimate_mle(lorenz63_x, EmbeddingParams(3, 16), horizon=300, fit_range=(60, 200))
        coarse = estimate_mle(
            lorenz63_x[::2], EmbeddingParams(3, 8), horizon=150, fit_range=(30, 100)
        )
        assert fine.mle > 0 and coarse.mle > 0
        assert coarse.mle > fine.mle


class TestMleTable:
    def test_single_channel_mean_identity(self, lorenz63_x):
        t = mle_table(lorenz63_x[:6000], EmbeddingParams(3, 16), horizon=80)
        assert t["mean"] == t["per_channel"][0]

    def test_identical_channels(self, lorenz63_x):
        x = lorenz63_x[:6000]
        t = mle_table(np.stack([x, x], axis=1), EmbeddingParams(3, 16), horizon=80)
        assert t["per_channel"][0] == t["per_channel"][1]
        assert t["mean"] == pytest.approx(t["per_channel"].mean())

    def test_per_channel_params(self, lorenz63_x):
        x = lorenz63_x[:6000]
        t = mle_table(
            np.stack([x, x[::-1]], axis=1),
            [EmbeddingParams(3, 16), EmbeddingParams(3, 16)],
            horizon=60,
        )
        assert t["per_channel"].shape == (2,)

    @pytest.mark.parametrize("shape", [(100, 2, 2), (100, 0), ()])
    def test_dataset_shape_raises_shape_mismatch(self, shape):
        with pytest.raises(ShapeMismatchError, match="channels"):
            mle_table(np.zeros(shape), EmbeddingParams(3, 4), horizon=40)


def test_positive_mle_on_lorenz96(lorenz96_3d):
    est = estimate_mle(
        lorenz96_3d[:20000, 0], EmbeddingParams(5, 12), horizon=300, fit_range=(50, 200)
    )
    assert est.mle > 0


def one_shot_nearest_outside_window(tree, base, idx, theiler):
    """Reference: all points in one query, k growing until every point has
    a partner or k reaches the point count."""
    n = base.shape[0]
    partner = np.full(n, -1, dtype=int)
    unresolved = idx
    k = min(n, 2 * theiler + 4)
    while unresolved.size:
        _, nbrs = tree.query(base[unresolved], k=k)
        ok = np.abs(nbrs - unresolved[:, None]) > theiler
        has = ok.any(axis=1)
        first = ok.argmax(axis=1)
        partner[unresolved[has]] = nbrs[has, first[has]]
        unresolved = unresolved[~has]
        if k >= n:
            break
        k = min(n, 4 * k)
    return partner


@pytest.mark.parametrize(
    "source,n,theiler",
    [("lorenz63", 5000, 48), ("lorenz63", 2060, 1030), ("sine", 3000, 40)],
    ids=["many-blocks", "k-capped-at-n", "first-8-inside-window"],
)
def test_blocked_partners_match_one_shot_query(lorenz63_x, source, n, theiler):
    # a finely sampled sine whose amplitude grows enough that each turn
    # stays apart from the last: a point's 8 nearest neighbours are its own
    # time neighbours, and only the full-k query reaches the next turn
    t = np.arange(n + 32)
    x = lorenz63_x if source == "lorenz63" else np.exp(3 * t / n) * np.sin(2 * np.pi * t / 400)
    base = np.stack([x[:n], x[16 : n + 16], x[32 : n + 32]], axis=1)
    tree = cKDTree(base)
    idx = np.arange(n)
    expect = one_shot_nearest_outside_window(tree, base, idx, theiler)
    got = _nearest_outside_window(tree, base, idx, theiler)
    assert np.array_equal(got, expect)
    found = expect >= 0
    assert np.all(np.abs(expect[found] - idx[found]) > theiler)
    # with k capped at n the points nearest the middle have no partner
    assert np.any(~found) == (2 * theiler + 4 > n)
    if source == "sine":
        _, first8 = tree.query(base, k=8)
        assert np.mean(np.all(np.abs(first8 - idx[:, None]) <= theiler, axis=1)) > 0.9


@pytest.mark.parametrize("n,theiler", [(1500, 0), (1500, 5), (1500, 60), (300, 160)],
                         ids=["no-window", "narrow", "wide", "k-capped-at-n"])
def test_partners_match_brute_force_search(n, theiler):
    # random points have no two equal distances, so the nearest point
    # outside the window is one point, whichever query rounds find it
    rng = np.random.default_rng(n + theiler)
    base = rng.standard_normal((n, 3))
    idx = np.arange(n)
    dist = cdist(base, base)
    dist[np.abs(idx[:, None] - idx[None]) <= theiler] = np.inf
    has = np.isfinite(dist).any(axis=1)
    expect = np.where(has, dist.argmin(axis=1), -1)
    got = _nearest_outside_window(cKDTree(base), base, idx, theiler)
    assert np.array_equal(got, expect)
    # the window covers every other point for the points nearest the middle
    assert has.all() == (theiler < n // 2)


def norm_loop_curve(series, params, horizon):
    """Reference: the per-step ``np.linalg.norm`` loop over the embedded
    points, on the pairs ``estimate_mle`` forms (default Theiler window)."""
    pts = delay_embed(series, params)
    base = pts[: len(pts) - horizon]
    idx = np.arange(len(base))
    partner = _nearest_outside_window(cKDTree(base), base, idx, params.m * params.tau)
    i_ref, j_ref = idx[partner >= 0], partner[partner >= 0]
    keep = np.linalg.norm(base[i_ref] - base[j_ref], axis=1) > 0
    i_ref, j_ref = i_ref[keep], j_ref[keep]
    curve = np.empty(horizon + 1)
    for k in range(horizon + 1):
        d = np.linalg.norm(pts[i_ref + k] - pts[j_ref + k], axis=1)
        good = d > 0
        curve[k] = float(np.mean(np.log(d[good]))) if np.any(good) else -np.inf
    return curve


@pytest.mark.parametrize("m", [1, 3, 5])
def test_streamed_curve_matches_norm_loop(lorenz63_x, m):
    params = EmbeddingParams(m, 7)
    est = estimate_mle(lorenz63_x[:6000], params, horizon=90)
    assert np.array_equal(est.divergence_curve, norm_loop_curve(lorenz63_x[:6000], params, 90))


def test_streamed_curve_matches_norm_loop_where_pairs_meet():
    series = np.r_[np.random.default_rng(0).standard_normal(300), np.zeros(2000)]
    params = EmbeddingParams(3, 2)
    est = estimate_mle(series, params, horizon=400)
    expect = norm_loop_curve(series, params, 400)
    assert np.isneginf(expect[-1])
    assert np.array_equal(est.divergence_curve, expect)
    with pytest.raises(DegenerateSeriesError):
        estimate_mle(series, params, horizon=400, fit_range=(250, 350))
