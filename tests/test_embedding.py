import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from attraos import chaos
from attraos import embedding as emb
from attraos.errors import (AttraosError, DegenerateSeriesError, NonFiniteError,
                             ShapeMismatchError, TooShortError)


def brute_force_mi(series, max_tau, bins):
    """Independent histogram MI (explicit double loop over cells)."""
    series = np.asarray(series, dtype=float)
    edges = np.linspace(series.min(), series.max(), bins + 1)
    out = []
    for tau in range(max_tau + 1):
        x = series[: series.size - tau]
        y = series[tau:]
        ix = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, bins - 1)
        iy = np.clip(np.searchsorted(edges, y, side="right") - 1, 0, bins - 1)
        joint = np.zeros((bins, bins))
        for a, b in zip(ix, iy):
            joint[a, b] += 1
        joint /= joint.sum()
        px, py = joint.sum(1), joint.sum(0)
        total = 0.0
        for a in range(bins):
            for b in range(bins):
                if joint[a, b] > 0:
                    total += joint[a, b] * np.log(joint[a, b] / (px[a] * py[b]))
        out.append(total)
    return np.asarray(out)


def exhaustive_fnn_fraction(series, tau, m, ratio_tol=10.0, size_tol=2.0):
    """O(n^2) nearest-neighbor FNN oracle."""
    series = np.asarray(series, dtype=float)
    usable = series.size - m * tau
    pts = np.stack([series[i : i + (m - 1) * tau + 1 : tau] for i in range(usable)])
    sigma = series.std()
    false = 0
    for i in range(usable):
        d = np.linalg.norm(pts - pts[i], axis=1)
        d[i] = np.inf
        j = int(np.argmin(d))
        dist = d[j]
        extra = abs(series[i + m * tau] - series[j + m * tau])
        ratio = np.inf if dist == 0 and extra > 0 else (0.0 if dist == 0 else extra / dist)
        if ratio > ratio_tol or np.hypot(dist, extra) / sigma > size_tol:
            false += 1
    return false / usable


def count_queries(monkeypatch):
    """The dimension of each kd-tree the FNN test builds, in order, and the
    number of points each one is queried for."""
    built, queried = [], []

    class CountingTree(cKDTree):
        def __init__(self, pts):
            super().__init__(pts)
            self.index = len(built)
            built.append(pts.shape[1])
            queried.append(0)

        def query(self, x, k):
            queried[self.index] += len(x)
            return super().query(x, k=k)

    monkeypatch.setattr(emb, "_kd_tree", CountingTree)
    return built, queried


def count_trees(monkeypatch):
    """The dimension of each kd-tree the FNN test builds, in order."""
    return count_queries(monkeypatch)[0]


def whole_search_fraction(series, tau, m):
    """The FNN fraction at m from one query of every point, as a mean of
    the false flags."""
    x = emb._unit_scaled(np.asarray(series, dtype=float))[0]
    usable = x.size - m * tau
    pts = np.stack([x[i : i + (m - 1) * tau + 1 : tau] for i in range(usable)])
    dist, idx = cKDTree(pts).query(pts, k=2)
    d, j = dist[:, 1], idx[:, 1]
    extra = np.abs(x[m * tau :] - x[j + m * tau])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(d > 0, extra / d, np.inf)
    ratio[(d == 0) & (extra == 0)] = 0.0
    lonely = np.sqrt(d**2 + extra**2) / x.std() > emb.FNN_SIZE_TOL
    return float(np.mean((ratio > emb.FNN_RATIO_TOL) | lonely))


class TestMutualInformation:
    def test_sine_first_minimum_near_quarter_period(self):
        t = np.arange(1000)
        tau = emb.mutual_information_delay(np.sin(2 * np.pi * t / 100), 60)
        assert 20 <= tau <= 30

    def test_profile_matches_brute_force(self):
        rng = np.random.default_rng(0)
        s = np.cumsum(rng.standard_normal(400))
        ours = emb.mi_profile(s, 10)
        oracle = brute_force_mi(s, 10, bins=emb.default_bins(400))
        assert np.allclose(ours, oracle, atol=1e-12)

    def test_iid_noise_conventions(self):
        rng = np.random.default_rng(5)
        s = rng.uniform(size=2000)
        tau = emb.mutual_information_delay(s, 40)
        prof = emb.mi_profile(s, 40)
        assert 1 <= tau <= 40
        assert np.all(prof[1:] < prof[0] / 10)

    @pytest.fixture(scope="class")
    def mi_series(self):
        states = chaos.simulate_lorenz63(chaos.Lorenz63Params(), [1.0, 1.0, 1.0], 0.01,
                                         21000)[1001:]
        steps = np.r_[35, 36, 37, 38, 39, 40, 39, 38, 37, 36][np.arange(300) % 10]
        return {
            **dict(zip("xyz", states.T)),
            "noise": np.random.default_rng(2).standard_normal(20000),
            "rounded": np.round(states[:, 0], 1),  # ties on the edges
            "subnormal": -5e-324 * steps,
        }

    @pytest.mark.parametrize("name", ["x", "y", "z", "noise", "rounded", "subnormal"])
    def test_profile_equals_the_histogram2d_formula(self, mi_series, name):
        # mi_profile bins each sample once; binning both copies of the series
        # at every lag with histogram2d must count the same pairs
        series = mi_series[name]
        max_tau = 40 if series.size > 300 else 5
        bins = emb.default_bins(series.size)
        edges = np.maximum.accumulate(np.linspace(series.min(), series.max(), bins + 1))
        expect = []
        for tau in range(max_tau + 1):
            joint, _, _ = np.histogram2d(series[: series.size - tau], series[tau:],
                                         bins=(edges, edges))
            joint /= joint.sum()
            px, py = joint.sum(axis=1), joint.sum(axis=0)
            nz = joint > 0
            expect.append(np.sum(joint[nz] * np.log(joint[nz] / np.outer(px, py)[nz])))
        assert np.array_equal(emb.mi_profile(series, max_tau), expect)

    def test_constant_series_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            emb.mutual_information_delay(np.ones(500), 20)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            emb.mutual_information_delay(np.sin(np.arange(30.0)), 20)


class TestFalseNearestNeighbors:
    def test_lorenz63_dimension(self, lorenz63_x):
        x = lorenz63_x[:20000]
        tau = emb.mutual_information_delay(x, 60)
        m = emb.false_nearest_neighbors(x, tau, 8)
        assert m in (3, 4, 5)

    def test_white_noise_never_settles(self):
        rng = np.random.default_rng(7)
        s = rng.uniform(size=2000)
        assert np.all(emb.fnn_profile(s, 1, 6) >= emb.FNN_THRESHOLD)
        assert emb.false_nearest_neighbors(s, 1, 6) == 6

    def test_fraction_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(3)
        s = np.sin(np.arange(220) * 0.31) + 0.05 * rng.standard_normal(220)
        for m in (1, 2, 3):
            ours = emb.fnn_profile(s, 2, 3)[m - 1]
            assert ours == pytest.approx(exhaustive_fnn_fraction(s, 2, m), abs=1e-12)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            emb.false_nearest_neighbors(np.sin(np.arange(10.0)), 4, 5)

    def test_search_stops_at_its_answer(self, lorenz63_x, monkeypatch):
        # x settles at m = 3, so the trees for m = 4..6 are never built
        built = count_trees(monkeypatch)
        assert emb.false_nearest_neighbors(lorenz63_x, 16, 6) == 3
        assert built == [1, 2, 3]

    def test_decision_stops_a_search_once_one_percent_is_false(self, lorenz63_x, monkeypatch):
        # 99.7% of x's m = 1 neighbours are false, so the first block settles it
        assert emb.fnn_profile(lorenz63_x, 16, 1)[0] > 0.99
        _, queried = count_queries(monkeypatch)
        assert emb.false_nearest_neighbors(lorenz63_x, 16, 6) == 3
        assert queried[0] <= emb._QUERY_BLOCK
        # m = 3 passes, so its search covers every point
        assert queried[2] == lorenz63_x.size - 3 * 16

    def test_no_search_at_max_m(self, lorenz63_x, monkeypatch):
        built = count_trees(monkeypatch)
        assert emb.false_nearest_neighbors(lorenz63_x, 16, 3) == 3
        assert built == [1, 2]
        built.clear()
        noise = np.random.default_rng(7).uniform(size=2000)
        assert emb.false_nearest_neighbors(noise, 1, 6) == 6
        assert built == [1, 2, 3, 4, 5]

    def test_profile_searches_every_point(self, lorenz63_x, monkeypatch):
        x = lorenz63_x[:3000]
        expect = [whole_search_fraction(x, 16, m) for m in range(1, 5)]
        built, queried = count_queries(monkeypatch)
        assert emb.fnn_profile(x, 16, 4).tolist() == expect
        assert queried == [x.size - m * 16 for m in built]

    def test_answer_is_the_first_profile_entry_below_threshold(self, lorenz63_x):
        rng = np.random.default_rng(11)
        cases = [
            (lorenz63_x[:20000], 16, 6),
            (lorenz63_x[:5000], 4, 8),
            (np.sin(0.05 * np.arange(3000)) + 0.01 * rng.standard_normal(3000), 30, 6),
            (np.cumsum(rng.standard_normal(2000)), 3, 6),
        ]
        for series, tau, max_m in cases:
            below = np.nonzero(emb.fnn_profile(series, tau, max_m) < emb.FNN_THRESHOLD)[0]
            assert below.size
            assert emb.false_nearest_neighbors(series, tau, max_m) == below[0] + 1

    def test_max_m_when_too_short_to_test_first(self):
        # 40 samples at tau 9 leave too few points to test m = 5
        s = np.random.default_rng(7).uniform(size=40)
        profile = emb.fnn_profile(s, 9, 5)
        assert profile[-1] == 1.0 and np.all(profile >= emb.FNN_THRESHOLD)
        assert emb.false_nearest_neighbors(s, 9, 5) == 5


@pytest.mark.parametrize("m,tau", [(2.5, 4), (2, True), (np.float64(3.0), 4)])
def test_embedding_params_need_integers(m, tau):
    with pytest.raises(ValueError, match="integers"):
        emb.EmbeddingParams(m=m, tau=tau)


class TestDelayEmbed:
    def test_basic_expansion(self):
        pts = emb.delay_embed([1, 2, 3, 4, 5], emb.EmbeddingParams(2, 1))
        assert pts.tolist() == [[1, 2], [2, 3], [3, 4], [4, 5]]

    def test_m1_identity(self):
        z = np.arange(9.0)
        pts = emb.delay_embed(z, emb.EmbeddingParams(1, 3))
        assert np.array_equal(pts.ravel(), z)

    def test_single_point(self):
        pts = emb.delay_embed([1, 2, 3, 4, 5], emb.EmbeddingParams(3, 2))
        assert pts.tolist() == [[1, 3, 5]]

    def test_too_short(self):
        with pytest.raises(TooShortError):
            emb.delay_embed([1, 2, 3], emb.EmbeddingParams(3, 2))

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(1, 120),
        m=st.integers(1, 6),
        tau=st.integers(1, 9),
    )
    def test_count_formula_and_reversibility(self, n, m, tau):
        z = np.arange(float(n))
        span = (m - 1) * tau + 1
        if n < span:
            with pytest.raises(TooShortError):
                emb.delay_embed(z, emb.EmbeddingParams(m, tau))
            return
        pts = emb.delay_embed(z, emb.EmbeddingParams(m, tau))
        assert pts.shape == (n - (m - 1) * tau, m)
        # last coordinate recovers the tail of the source series
        assert np.array_equal(pts[:, -1], z[(m - 1) * tau :])


class TestPatch:
    def test_shape_arithmetic(self, rng):
        pts = rng.standard_normal((8, 2))
        out = emb.patch(pts, 2)
        assert out.shape == (4, 4)

    def test_p1_identity(self, rng):
        pts = rng.standard_normal((7, 3))
        assert np.array_equal(emb.patch(pts, 1), pts)

    def test_leading_remainder_dropped(self):
        pts = np.arange(9.0)[:, None]
        out = emb.patch(pts, 4)
        assert out.shape == (2, 4)
        assert out[0].tolist() == [1, 2, 3, 4]  # oldest point dropped
        assert out[1].tolist() == [5, 6, 7, 8]

    def test_time_major_flattening(self):
        pts = np.array([[1.0, 10.0], [2.0, 20.0]])
        out = emb.patch(pts, 2)
        assert out.tolist() == [[1, 10, 2, 20]]

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 60), m=st.integers(1, 4), p=st.integers(1, 9))
    def test_patch_count(self, n, m, p):
        pts = np.arange(float(n * m)).reshape(n, m)
        out = emb.patch(pts, p)
        assert out.shape == (n // p, m * p)


class TestSelectEmbedding:
    def test_lorenz63(self, lorenz63_x):
        params = emb.select_embedding(lorenz63_x[:20000], max_tau=60, max_m=8)
        assert params.m in (3, 4, 5)
        assert 8 <= params.tau <= 25

    def test_ar1_matches_fnn_oracle(self):
        # noise-driven AR(1): the two-part FNN test keeps flagging false
        # neighbors at the MI-selected (decorrelating) delay, so the composed
        # selection saturates at max_m; assert agreement with the oracle
        # rather than a small m.
        rng = np.random.default_rng(11)
        x = np.zeros(1200)
        for i in range(1, x.size):
            x[i] = 0.9 * x[i - 1] + rng.standard_normal()
        params = emb.select_embedding(x, max_tau=25, max_m=5)
        tau = emb.mutual_information_delay(x, 25)
        fracs = [exhaustive_fnn_fraction(x, tau, m) for m in range(1, 6)]
        below = [i for i, f in enumerate(fracs) if f < 0.01]
        expect_m = below[0] + 1 if below else 5
        assert params.tau == tau
        assert params.m == expect_m

    def test_constant_series(self):
        with pytest.raises(DegenerateSeriesError):
            emb.select_embedding(np.zeros(1000))

    def test_constant_channels_left_out_of_unification(self, lorenz63_x):
        x = lorenz63_x[:6000]
        mixed = np.stack([np.full(x.size, 3.0), x, np.zeros(x.size)], axis=1)
        single = emb.select_embedding(x, max_tau=40, max_m=6)
        assert emb.select_embedding(mixed, max_tau=40, max_m=6) == single
        with pytest.raises(DegenerateSeriesError):
            emb.select_embedding(np.full((1000, 2), 3.0))

    def test_one_column_is_the_series(self, lorenz63_x):
        x = lorenz63_x[:6000]
        single = emb.select_embedding(x, max_tau=40, max_m=6)
        assert emb.select_embedding(x[:, None], max_tau=40, max_m=6) == single
        with pytest.raises(DegenerateSeriesError, match="every channel is constant"):
            emb.select_embedding(np.zeros((1000, 1)))

    def test_channel_independent_embedding(self, lorenz63_x):
        x = lorenz63_x[:6000]
        two = np.stack([x, x], axis=1)
        single = emb.select_embedding(x, max_tau=40, max_m=6)
        multi = emb.select_embedding(two, max_tau=40, max_m=6)
        assert (multi.m, multi.tau) == (single.m, single.tau)


@functools.lru_cache(maxsize=None)
def lorenz63_states():
    """A settled Lorenz63 run, dt=0.01, 12000 samples of (x, y, z)."""
    states = chaos.simulate_lorenz63(chaos.Lorenz63Params(), [1.0, 1.0, 1.0], 0.01, 13000)
    return states[1001:]


def l63(coord, stride, start, n=1000):
    return lorenz63_states()[start : start + n * stride : stride, coord]


def slow_sine(n=1000):
    # no MI minimum below a quarter period, so the delay is the scan's largest
    return np.sin(2 * np.pi * np.arange(n) / n)


def per_channel_selection(data, max_tau, max_m):
    """The rule without the running-maximum shortcut: every channel that is
    not constant selects on its own, tau from MI and m from its whole FNN
    profile; then the maximum m and the median tau."""
    per = []
    for x in data.T:
        if x.size and x.min() == x.max():
            continue
        tau = emb.mutual_information_delay(x, emb.default_max_tau(x.size) if max_tau is None
                                           else max_tau)
        below = np.nonzero(emb.fnn_profile(x, tau, max_m) < emb.FNN_THRESHOLD)[0]
        per.append((below[0] + 1 if below.size else max_m, tau))
    if not per:
        raise DegenerateSeriesError("every channel is constant")
    return emb.EmbeddingParams(max(m for m, _ in per), int(np.median([tau for _, tau in per])))


def outcome(select, data, max_tau, max_m):
    try:
        return select(data, max_tau=max_tau, max_m=max_m)
    except AttraosError as exc:
        return type(exc), str(exc)


CHANNELS = st.one_of(
    st.builds(l63, st.integers(0, 2), st.sampled_from([1, 2, 3]),
              st.sampled_from(range(0, 9000, 500))),
    st.builds(lambda f, a, seed: np.sin(f * np.arange(1000))
              + a * np.random.default_rng(seed).standard_normal(1000),
              st.floats(0.02, 0.3), st.sampled_from([0.0, 0.05, 0.3]), st.integers(0, 9)),
    st.builds(lambda seed: np.random.default_rng(seed).standard_normal(1000), st.integers(0, 9)),
    st.builds(lambda v: np.full(1000, v), st.sampled_from([0.0, -2.5])),
    st.just(slow_sine()),
)


class TestRunningMaximumSelection:
    """A later channel only runs the FNN searches that can raise the maximum
    m so far; the choice and the errors stay those of per-channel selection."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(CHANNELS, min_size=1, max_size=4), st.sampled_from([None, 40, 250]),
           st.integers(1, 8))
    def test_equals_per_channel_selection(self, channels, max_tau, max_m):
        data = np.stack(channels, axis=1)
        assert (outcome(emb.select_embedding, data, max_tau, max_m)
                == outcome(per_channel_selection, data, max_tau, max_m))

    # name: (channels, max_tau, max_m); test_edge_cases_hold_what_they_pin
    # checks that each case still has the shape its name says
    CASES = {
        # the second profile is below the threshold at m = 4, above at 5, so
        # the probe at the running maximum 5 fails and m = 4 ends the search
        "not_monotone_below_the_maximum": ([l63(0, 2, 1500), l63(2, 2, 9000)], None, 7),
        # below at 5, above at 6 = the running maximum
        "not_monotone_at_the_maximum": ([l63(0, 2, 5000), l63(2, 2, 0)], None, 7),
        "constant_channels_around": ([np.zeros(1000), l63(0, 1, 0), np.full(1000, 4.0),
                                      l63(1, 1, 0)], None, 6),
        # noise saturates at max_m, after which no channel is searched
        "saturates_at_max_m": ([np.random.default_rng(3).standard_normal(1000), l63(0, 1, 0),
                                l63(2, 1, 0)], None, 4),
        # the slow sine's delay 156 cannot embed at m = 8 in 1000 samples
        "later_channel_too_short": ([l63(0, 1, 0), slow_sine()], 250, 8),
        "too_short_after_saturating": ([np.random.default_rng(3).standard_normal(1000),
                                        slow_sine()], 250, 8),
    }

    @pytest.mark.parametrize("channels,max_tau,max_m", CASES.values(), ids=CASES)
    def test_edge_cases_equal_per_channel_selection(self, channels, max_tau, max_m):
        data = np.stack(channels, axis=1)
        expect = outcome(per_channel_selection, data, max_tau, max_m)
        assert outcome(emb.select_embedding, data, max_tau, max_m) == expect

    def test_edge_cases_hold_what_they_pin(self):
        # FNN below the threshold at m = 1..max_m, at the channel's MI delay
        def below(x, max_m):
            tau = emb.mutual_information_delay(x, emb.default_max_tau(x.size))
            return list(emb.fnn_profile(x, tau, max_m) < emb.FNN_THRESHOLD)

        first, later = self.CASES["not_monotone_below_the_maximum"][0]
        assert below(first, 7).index(True) + 1 == 5
        assert below(later, 7)[3:5] == [True, False]
        first, later = self.CASES["not_monotone_at_the_maximum"][0]
        assert below(first, 7).index(True) + 1 == 6
        assert below(later, 7)[:6] == [False] * 4 + [True, False]
        assert not any(below(self.CASES["saturates_at_max_m"][0][0], 4))
        noise = self.CASES["too_short_after_saturating"][0][0]
        assert emb.select_embedding(noise, max_tau=250, max_m=8).m == 8
        for name in ("later_channel_too_short", "too_short_after_saturating"):
            channels, max_tau, max_m = self.CASES[name]
            with pytest.raises(TooShortError, match="at max_m"):
                emb.select_embedding(np.stack(channels, axis=1), max_tau, max_m)

    def test_copies_of_one_channel_cost_one_search_each(self, lorenz63_x, monkeypatch):
        x = lorenz63_x[:6000]
        m = emb.select_embedding(x, max_tau=40, max_m=6).m
        assert m < 6
        built = count_trees(monkeypatch)
        assert emb.select_embedding(np.stack([x, x, x], axis=1), max_tau=40, max_m=6).m == m
        # m searches for the first copy, then one at m for each later copy
        assert built == [*range(1, m + 1), m, m]

    def test_ascending_dimensions_cost_no_more_than_per_channel_selection(self, monkeypatch):
        data = lorenz63_states()[:6000]
        built = count_trees(monkeypatch)
        alone = [emb.select_embedding(x, max_tau=40, max_m=8).m for x in data.T]
        per_channel = len(built)
        assert alone == sorted(alone) and len(set(alone)) > 1
        built.clear()
        assert emb.select_embedding(data, max_tau=40, max_m=8).m == max(alone)
        assert len(built) <= per_channel


def profile_decision(x, tau, max_m, floor):
    """The decision read off the whole FNN profile: the first m below the
    threshold, else max_m, and at least ``floor``."""
    below = np.nonzero(emb.fnn_profile(x, tau, max_m) < emb.FNN_THRESHOLD)[0]
    return max(floor, below[0] + 1 if below.size else max_m)


def decision_outcome(decide, *args):
    try:
        return decide(*args)
    except AttraosError as exc:
        return type(exc), str(exc)


class TestDimensionDecision:
    """``_fnn_dimension`` stops each search once 1% of its points are false
    and runs none at max_m, yet decides as the whole profile does."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(CHANNELS, min_size=1, max_size=3), st.integers(1, 40), st.integers(1, 8),
           st.data())
    def test_equals_the_profile_rule(self, channels, tau, max_m, data):
        # joined channels reach 3000 samples, so searches span several blocks
        x = np.concatenate(channels)
        floor = data.draw(st.integers(0, max_m))
        assert (decision_outcome(emb._fnn_dimension, x, tau, max_m, floor)
                == decision_outcome(profile_decision, x, tau, max_m, floor))

    # name: (series, tau, max_m, the profile's shape); every floor is checked
    CASES = {
        # 696 usable points at m = 1, fewer than one block
        "shorter_than_a_block": (l63(0, 1, 0, n=700), 4, 6, [False, True]),
        # 1200 usable points at m = 2, a block and a part; 12 of them are
        # false, exactly 1%, which is not below the threshold
        "exactly_one_percent": (lorenz63_states()[:1216, 2], 8, 5, [False, False, True]),
        "saturates_at_max_m": (np.random.default_rng(3).standard_normal(1000), 1, 4,
                               [False] * 4),
    }

    @pytest.mark.parametrize("x,tau,max_m,shape", CASES.values(), ids=CASES)
    def test_edge_cases_equal_the_profile_rule(self, x, tau, max_m, shape):
        profile = emb.fnn_profile(x, tau, max_m)
        assert list(profile[: len(shape)] < emb.FNN_THRESHOLD) == shape
        for floor in range(max_m + 1):
            assert emb._fnn_dimension(x, tau, max_m, floor) == profile_decision(
                x, tau, max_m, floor)

    def test_exactly_one_percent_lands_on_the_threshold(self):
        x, tau, max_m, _ = self.CASES["exactly_one_percent"]
        usable = x.size - 2 * tau
        assert usable % emb._QUERY_BLOCK and usable > emb._QUERY_BLOCK
        assert emb.fnn_profile(x, tau, max_m)[1] == 12 / usable == emb.FNN_THRESHOLD


SERIES_CALLS = {
    "mi_profile": lambda x: emb.mi_profile(x, 20),
    "fnn_profile": lambda x: emb.fnn_profile(x, 4, 4),
    "select_embedding": emb.select_embedding,
}


class TestSeriesErrors:
    @pytest.mark.parametrize("call", SERIES_CALLS.values(), ids=SERIES_CALLS)
    def test_nan_raises_non_finite(self, sine_with_nan, call):
        with pytest.raises(NonFiniteError, match="NaN or inf"):
            call(sine_with_nan)

    @pytest.mark.parametrize("call", SERIES_CALLS.values(), ids=SERIES_CALLS)
    def test_not_1d_raises_shape_mismatch(self, call):
        with pytest.raises(ShapeMismatchError, match="1-D"):
            call(np.sin(0.05 * np.arange(3000)).reshape(1000, 3, 1))

    def test_overflowing_spread_raises_non_finite(self, overflowing):
        with pytest.raises(NonFiniteError, match="spread overflows"):
            emb.mi_profile(overflowing, 20)

    def test_subnormal_spread_gives_a_finite_curve(self):
        # a spread of 5 subnormal steps over 8 bins: the edge step rounds up
        # to a whole subnormal step, so the inner edges pass the top one
        steps = np.r_[35, 36, 37, 38, 39, 40, 39, 38, 37, 36][np.arange(300) % 10]
        curve = emb.mi_profile(-5e-324 * steps, 5)
        assert np.all(np.isfinite(curve)) and curve[0] > 0

    @pytest.mark.parametrize("scale", [2.0**510, 2.0**-900])
    def test_fnn_does_not_depend_on_the_series_scale(self, scale):
        # unscaled, the squares of these series' distances overflow or
        # underflow and switch the loneliness test off or on everywhere
        noise = np.random.default_rng(0).standard_normal(3000)
        assert np.array_equal(emb.fnn_profile(scale * noise, 1, 5), emb.fnn_profile(noise, 1, 5))
        t = np.arange(4000)
        sines = np.sin(0.05 * t) + 0.5 * np.sin(0.131 * t)
        assert emb.select_embedding(scale * sines, max_m=6) == emb.select_embedding(sines, max_m=6)


def test_multivariate_channels_embed_independently(rng):
    data = rng.standard_normal((200, 2))
    p = emb.EmbeddingParams(3, 4)
    a = emb.delay_embed(data[:, 0], p)
    b = emb.delay_embed(data[:, 1], p)
    assert a.shape == b.shape
    assert not np.array_equal(a, b)
