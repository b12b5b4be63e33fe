import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attraos import forecaster as fc
from attraos import wavelet as wv
from attraos.embedding import EmbeddingParams
from attraos.errors import ShapeMismatchError

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def haar_analysis(x):
    """Independent Haar step for scalar sequences (pairs -> average/difference)."""
    x = np.asarray(x, dtype=float)
    coarse = (x[0::2] + x[1::2]) * INV_SQRT2
    detail = (x[0::2] - x[1::2]) * INV_SQRT2
    return coarse, detail


class TestBuildFilters:
    def test_haar_values_at_order_one(self):
        f = wv.build_filters(1)
        assert f.h1[0, 0] == pytest.approx(INV_SQRT2, abs=1e-12)
        assert f.h2[0, 0] == pytest.approx(INV_SQRT2, abs=1e-12)
        assert f.g1[0, 0] == pytest.approx(INV_SQRT2, abs=1e-12)
        assert f.g2[0, 0] == pytest.approx(-INV_SQRT2, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 33))
    def test_stacked_analysis_matrix_is_orthogonal(self, n, rng):
        # at every order, so the pyramid's round trip is lossless
        f = wv.build_filters(n)
        t = np.block([[f.h1, f.h2], [f.g1, f.g2]])
        assert np.abs(t @ t.T - np.eye(2 * n)).max() <= 1e-12
        x = rng.standard_normal((24, 3, n))
        assert np.abs(wv.reconstruct(wv.decompose(x, f, 3), f) - x).max() <= 1e-12 * np.abs(x).max()

    def test_detail_rows_lead_positive(self):
        for n in (1, 2, 3, 4):
            g = np.concatenate([wv.build_filters(n).g1, wv.build_filters(n).g2], axis=1)
            for row in g:
                lead = row[np.abs(row) > 1e-10][0]
                assert lead > 0


class TestUpDownProjection:
    def test_constant_sequence_haar(self):
        f = wv.build_filters(1)
        x = np.full((8, 1), 1.5)
        coarse, detail = wv.up_project(x, f)
        assert np.allclose(detail, 0.0, atol=1e-14)
        assert np.allclose(coarse, 1.5 * np.sqrt(2.0), atol=1e-14)

    def test_alternating_sequence_haar(self):
        f = wv.build_filters(1)
        x = np.array([1.0, -1.0] * 4)[:, None]
        coarse, detail = wv.up_project(x, f)
        assert np.allclose(coarse, 0.0, atol=1e-14)
        assert np.allclose(np.abs(detail), np.sqrt(2.0), atol=1e-14)

    def test_basis_vector_probe_reads_columns(self):
        f = wv.build_filters(3)
        for k in range(3):
            x = np.zeros((2, 3))
            x[0, k] = 1.0  # pair (e_k, 0)
            coarse, detail = wv.up_project(x, f)
            assert np.allclose(coarse[0], f.h1[:, k], atol=1e-12)
            assert np.allclose(detail[0], f.g1[:, k], atol=1e-12)

    def test_haar_matches_independent_implementation(self, rng):
        f = wv.build_filters(1)
        x = rng.standard_normal(16)
        coarse, detail = wv.up_project(x[:, None], f)
        hc, hd = haar_analysis(x)
        assert np.allclose(coarse.ravel(), hc, atol=1e-12)
        assert np.allclose(detail.ravel(), hd, atol=1e-12)

    def test_zero_detail_synthesis(self):
        f = wv.build_filters(1)
        c = np.array([[2.0], [4.0]])
        fine = wv.down_project(c, np.zeros_like(c), f)
        assert np.allclose(fine.ravel(), [2 / np.sqrt(2), 2 / np.sqrt(2), 4 / np.sqrt(2), 4 / np.sqrt(2)])

    def test_zero_inputs_zero_output(self):
        f = wv.build_filters(2)
        out = wv.down_project(np.zeros((3, 2)), np.zeros((3, 2)), f)
        assert np.all(out == 0.0)

    def test_odd_length_rejected(self):
        f = wv.build_filters(2)
        with pytest.raises(ShapeMismatchError):
            wv.up_project(np.zeros((5, 2)), f)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 4),
        log_l=st.integers(1, 5),
        seed=st.integers(0, 2**31),
    )
    def test_round_trip(self, n, log_l, seed):
        rng = np.random.default_rng(seed)
        f = wv.build_filters(n)
        x = rng.standard_normal((2**log_l, n))
        coarse, detail = wv.up_project(x, f)
        back = wv.down_project(coarse, detail, f)
        assert np.abs(back - x).max() <= 1e-9


class TestPyramid:
    def test_zero_levels(self, rng):
        f = wv.build_filters(2)
        x = rng.standard_normal((8, 2))
        p = wv.decompose(x, f, 0)
        assert p.details == [] and np.array_equal(p.coarse, x)

    def test_full_depth_reaches_length_one(self, rng):
        f = wv.build_filters(2)
        x = rng.standard_normal((16, 2))
        p = wv.decompose(x, f, 4)
        assert p.coarse.shape[0] == 1
        assert [d.shape[0] for d in p.details] == [8, 4, 2, 1]

    def test_critical_sampling(self, rng):
        f = wv.build_filters(3)
        x = rng.standard_normal((32, 3))
        p = wv.decompose(x, f, 3)
        total = p.coarse.shape[0] + sum(d.shape[0] for d in p.details)
        assert total == 32

    def test_lossless_reconstruction(self, rng):
        for n in (1, 2, 3, 4):
            f = wv.build_filters(n)
            for length, levels in ((2, 1), (8, 3), (64, 6), (12, 2), (24, 3)):
                x = rng.standard_normal((length, 5, n))
                p = wv.decompose(x, f, levels)
                assert np.abs(wv.reconstruct(p, f) - x).max() <= 1e-9

    def test_energy_preservation(self, rng):
        f = wv.build_filters(4)
        for length, levels in ((64, 5), (12, 2), (24, 3)):
            x = rng.standard_normal((length, 4))
            p = wv.decompose(x, f, levels)
            total = np.sum(p.coarse**2) + sum(np.sum(d**2) for d in p.details)
            assert abs(total - np.sum(x**2)) <= 1e-9

    def test_coarse_and_detail_content_are_orthogonal(self, rng):
        # build one signal from coarse-only content and one from detail-only
        # content at the same level; their inner product must vanish
        f = wv.build_filters(3)
        coarse = rng.standard_normal((8, 3))
        detail = rng.standard_normal((8, 3))
        xa = wv.down_project(coarse, np.zeros_like(coarse), f)
        xb = wv.down_project(np.zeros_like(detail), detail, f)
        assert abs(np.sum(xa * xb)) <= 1e-9

    def test_non_power_of_two_rejected(self, rng):
        # a length that is not a multiple of 2^levels; 12 at 2 levels is legal
        f = wv.build_filters(2)
        for length, levels in ((10, 2), (12, 3)):
            with pytest.raises(ShapeMismatchError):
                wv.decompose(rng.standard_normal((length, 2)), f, levels)

    def test_too_many_levels_rejected(self, rng):
        f = wv.build_filters(2)
        with pytest.raises(ValueError):
            wv.decompose(rng.standard_normal((8, 2)), f, 4)


class TestFilterBankCache:
    """``build_filters`` builds each order's bank once and shares it, so the
    bank must be read-only and one order's bank must not depend on another's."""

    ARRAYS = ("h1", "h2", "g1", "g2")

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_repeat_calls_return_the_same_bank(self, n):
        f = wv.build_filters(n)
        assert wv.build_filters(n) is f
        fresh = wv.build_filters.__wrapped__(n)
        for name in self.ARRAYS:
            assert np.array_equal(getattr(f, name), getattr(fresh, name))

    @pytest.mark.parametrize("name", ARRAYS)
    def test_writing_into_the_bank_raises(self, name):
        arr = getattr(wv.build_filters(4), name)
        before = arr.copy()
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
        with pytest.raises(ValueError):
            arr += 1.0
        assert np.array_equal(arr, before)

    def test_a_model_built_after_another_order_is_unaffected(self):
        def operators(order):
            cfg = fc.ForecasterConfig(window=96, horizon=16, embedding=EmbeddingParams(3, 8),
                                      poly_order=order)
            model = fc.FittedForecaster(cfg)
            return model.front, model.back

        wv.build_filters.cache_clear()
        first = operators(8)
        operators(3)
        for got, want in zip(operators(8), first, strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [0, -1])
    def test_non_positive_order_still_raises(self, n):
        for _ in range(2):  # a raised call is not cached
            with pytest.raises(ValueError, match="order"):
                wv.build_filters(n)
