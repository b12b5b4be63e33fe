from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attraos import evolution as evo
from attraos.errors import (
    EmptyInputError,
    NonFiniteError,
    SingularSystemError,
    TooManyModesError,
)


def direct_dft(x):
    """Naive DFT summation oracle along axis 0."""
    length = x.shape[0]
    k = np.arange(length)
    w = np.exp(-2j * np.pi * np.outer(k, k) / length)
    return np.tensordot(w, x, axes=(1, 0))


class TestFftModes:
    def test_constant_sequence_dc_only(self):
        spec = evo.fft_modes(np.full((10, 2), 3.0), 6)
        assert np.allclose(spec[0], 30.0)
        assert np.abs(spec[1:]).max() <= 1e-12

    def test_pure_tone(self):
        l = 16
        x = np.cos(2 * np.pi * 2 * np.arange(l) / l)
        spec = evo.fft_modes(x, l // 2 + 1)
        mags = np.abs(spec)
        assert mags[2] == pytest.approx(l / 2, abs=1e-10)
        mags[2] = 0.0
        assert mags.max() <= 1e-10

    def test_parseval(self, rng):
        x = rng.standard_normal(17)
        full = direct_dft(x)
        assert np.sum(x**2) == pytest.approx(np.sum(np.abs(full) ** 2) / 17, rel=1e-12)

    def test_too_many_modes(self):
        with pytest.raises(TooManyModesError):
            evo.fft_modes(np.zeros(8), 6)


class TestIfftModes:
    def test_roundtrip_full_modes(self, rng):
        for l in (8, 9, 12):  # even, odd, non-power-of-two
            x = rng.standard_normal((l, 3))
            spec = evo.fft_modes(x, l // 2 + 1)
            assert np.abs(evo.ifft_modes(spec, l) - x).max() <= 1e-10

    def test_dc_only_gives_constant(self):
        out = evo.ifft_modes(np.array([[4.0 + 0j]]), 8)
        # inverse transform carries the 1/L factor
        assert np.allclose(out, 0.5)

    def test_truncation_is_ideal_lowpass(self, rng):
        l, m = 16, 3
        x = rng.standard_normal(l)
        ours = evo.ifft_modes(evo.fft_modes(x, m), l)
        full = direct_dft(x)
        full[m : l - m + 1] = 0.0  # kill high bins (keeping conjugate pairs)
        ref = np.real(np.conj(direct_dft(np.conj(full))) / l)
        assert np.allclose(ours, ref, atol=1e-10)


class TestRidgeFit:
    def test_identity_recovered(self, rng):
        a = rng.standard_normal((20, 4))
        w = evo.ridge_fit(a, a, 1e-12)
        assert np.abs(w - np.eye(4)).max() <= 1e-8

    def test_scalar_normal_equations(self):
        w = evo.ridge_fit(np.array([[1.0], [2.0]]), np.array([[2.0], [4.0]]), 0.0)
        assert w[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_single_pair_matches_dense_oracle(self, rng):
        a = rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2))
        b = rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2))
        lam = 0.1
        w = evo.ridge_fit(a, b, lam)
        # brute-force normal equations, built entry by entry
        gram = np.zeros((2, 2), dtype=complex)
        cross = np.zeros((2, 2), dtype=complex)
        for s in range(1):
            for i in range(2):
                for j in range(2):
                    gram[i, j] += np.conj(a[s, i]) * a[s, j]
                    cross[i, j] += np.conj(a[s, i]) * b[s, j]
        w_ref = np.linalg.solve(gram + lam * np.eye(2), cross).T
        assert np.abs(w - w_ref).max() <= 1e-8

    def test_singular_unregularized_raises(self):
        a = np.array([[1.0, 1.0], [2.0, 2.0]])  # rank 1
        with pytest.raises(SingularSystemError):
            evo.ridge_fit(a, a, 0.0)

    def test_ridge_objective_is_locally_minimal(self, rng):
        a = rng.standard_normal((12, 3))
        b = rng.standard_normal((12, 3))
        lam = 0.05
        w = evo.ridge_fit(a, b, lam)

        def objective(wm):
            return np.sum(np.abs(a @ wm.T - b) ** 2) + lam * np.sum(np.abs(wm) ** 2)

        base = objective(w)
        for _ in range(20):
            assert objective(w + rng.uniform(-1e-3, 1e-3, w.shape)) >= base


    @pytest.mark.parametrize("where", ["design", "targets"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    def test_non_finite_input_raises(self, rng, where, value, lam):
        a = rng.standard_normal((12, 3))
        b = rng.standard_normal((12, 2))
        (a if where == "design" else b)[4, 1] = value
        with pytest.raises(NonFiniteError):
            evo.ridge_fit(a, b, lam)

    def test_large_finite_design_does_not_overflow(self):
        # its Gram matrix would hold 1e400
        a = np.array([[1e200, 0.0], [0.0, 1.0]])
        lam = 1e-3
        w = evo.ridge_fit(a, np.array([[1.0, 2.0], [3.0, 4.0]]), lam)
        # W^T = diag(1 / (s + lam / s)) b, s = (1e200, 1)
        ref = np.array([[1e-200, 3.0 / (1.0 + lam)], [2e-200, 4.0 / (1.0 + lam)]])
        assert np.all(np.isfinite(w))
        assert np.all(np.abs(w - ref) <= 1e-12 * np.abs(ref))

    def test_one_ulp_perturbation_moves_the_fit_little(self, rng):
        # singular values 1e4 ... 1e-6, condition number 1e10: through the
        # normal equations a one-ulp relative change of the design moves W
        # by 3.1e-6 relative, through the SVD by 5.3e-11
        u, _ = np.linalg.qr(rng.standard_normal((200, 50)))
        v, _ = np.linalg.qr(rng.standard_normal((50, 50)))
        a = (u * np.logspace(4, -6, 50)) @ v.T
        b = rng.standard_normal((200, 3))
        nudged = a * (1.0 + np.finfo(float).eps * rng.choice([-1.0, 1.0], a.shape))
        w, w_nudged = evo.ridge_fit(a, b, 1e-3), evo.ridge_fit(nudged, b, 1e-3)
        assert np.abs(w_nudged - w).max() <= 1e-8 * np.abs(w).max()

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_wide_design_matches_the_dual_form(self, rng, dtype):
        def draw(shape):
            x = rng.standard_normal(shape)
            return x + 1j * rng.standard_normal(shape) if dtype is complex else x

        a, b, lam = draw((6, 15)), draw((6, 2)), 0.05
        dual = a.conj().T @ np.linalg.solve(a @ a.conj().T + lam * np.eye(6), b)
        assert np.abs(evo.ridge_fit(a, b, lam) - dual.T).max() <= 1e-12 * np.abs(dual).max()

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_full_rank_unregularized_matches_lstsq(self, rng, dtype):
        a, b = rng.standard_normal((25, 5)), rng.standard_normal((25, 2))
        if dtype is complex:
            a, b = a + 1j * rng.standard_normal((25, 5)), b + 1j * rng.standard_normal((25, 2))
        ref = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.abs(evo.ridge_fit(a, b, 0.0) - ref.T).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("shape", [(25, 5), (3, 5)], ids=["tall", "wide"])
    def test_exactly_rank_deficient_unregularized_raises(self, rng, shape):
        a = rng.standard_normal(shape)
        a[:, 4] = a[:, 0] - 2.0 * a[:, 1]  # an exact dependency, or too few rows
        with pytest.raises(SingularSystemError):
            evo.ridge_fit(a, rng.standard_normal((shape[0], 2)), 0.0)


class TestSpectralEvolution:
    def test_identity_operators_identity_map(self, rng):
        l = 12
        x = rng.standard_normal((l, 2, 3))
        m = l // 2 + 1
        ops = np.stack([np.eye(3, dtype=complex)] * m)
        model = evo.SpectralEvolutionModel(ops, l)
        assert np.abs(evo.apply_spectral_evolution(x, model) - x).max() <= 1e-9

    def test_zero_operators(self, rng):
        x = rng.standard_normal((8, 2))[:, :, None]
        model = evo.SpectralEvolutionModel(np.zeros((5, 1, 1), dtype=complex), 8)
        assert np.all(evo.apply_spectral_evolution(x, model) == 0.0)

    def test_truncated_identity_is_lowpass(self, rng):
        l, m = 16, 3
        x = rng.standard_normal((l, 1))
        ops = np.stack([np.eye(1, dtype=complex)] * m)
        model = evo.SpectralEvolutionModel(ops, l)
        ours = evo.apply_spectral_evolution(x, model).ravel()
        ref = evo.ifft_modes(evo.fft_modes(x.ravel(), m), l)
        assert np.allclose(ours, ref, atol=1e-12)

    def test_learns_rotation_dynamics(self):
        # x_{t+1} = R x_t: fit per-mode operators on 64 window pairs
        theta = 0.31
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        l, n_pairs = 16, 64
        base = np.stack([np.linalg.matrix_power(rot, t) @ np.array([1.0, 0.3]) for t in range(l + n_pairs + 1)])
        m = l // 2 + 1
        a_spec, b_spec = [], []
        for s in range(n_pairs):
            a_spec.append(evo.fft_modes(base[s : s + l], m))
            b_spec.append(evo.fft_modes(base[s + 1 : s + 1 + l], m))
        model = evo.fit_spectral_operators(np.stack(a_spec), np.stack(b_spec), l, 1e-10)
        test_win = base[n_pairs : n_pairs + l]
        pred = evo.apply_spectral_evolution(test_win, model)
        truth = base[n_pairs + 1 : n_pairs + 1 + l]
        assert np.abs(pred - truth).max() <= 1e-3


class TestKmeans:
    def test_single_cluster_is_global_mean(self, rng):
        pts = rng.standard_normal((40, 3))
        part = evo.kmeans_partition(pts, 1, seed=0)
        assert np.allclose(part.centroids[0], pts.mean(axis=0))

    def test_two_well_separated_blobs(self, rng):
        a = np.array([0.0, 0.0]) + 0.01 * rng.standard_normal((30, 2))
        b = np.array([10.0, 10.0]) + 0.01 * rng.standard_normal((30, 2))
        pts = np.concatenate([a, b])
        part = evo.kmeans_partition(pts, 2, seed=1)
        # exhaustive check: every point is with its own blob
        assert len(set(part.labels[:30])) == 1
        assert len(set(part.labels[30:])) == 1
        assert part.labels[0] != part.labels[-1]

    def test_k_equals_n_points(self, rng):
        pts = rng.standard_normal((6, 2))
        part = evo.kmeans_partition(pts, 6, seed=0)
        order = np.argsort(part.labels)
        assert part.inertia_history[-1] == pytest.approx(0.0, abs=1e-18)
        assert len(np.unique(part.labels)) == 6

    def test_inertia_non_increasing(self, rng):
        pts = rng.standard_normal((200, 4))
        part = evo.kmeans_partition(pts, 5, seed=3)
        hist = part.inertia_history
        assert np.all(np.diff(hist) <= 1e-9)

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            evo.kmeans_partition(np.zeros((0, 2)), 1)

    def test_centroids_are_member_means(self, rng):
        pts = rng.standard_normal((50, 2))
        part = evo.kmeans_partition(pts, 4, seed=5)
        for c in range(4):
            members = pts[part.labels == c]
            if members.size:
                assert np.allclose(part.centroids[c], members.mean(axis=0), atol=1e-12)


def broadcast_sq_dists(points, centroids):
    """The (n, k, F) broadcast distance formula, kept as the reference."""
    return ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def broadcast_lloyd(points, k, seed):
    """Reference: kmeans_partition's Lloyd loop on broadcast distances."""
    n = len(points)
    centroids = evo._kmeanspp_init(points, k, np.random.default_rng(seed))
    labels = np.zeros(n, dtype=int)
    inertia = []
    for _ in range(100):
        d2 = broadcast_sq_dists(points, centroids)
        new_labels = d2.argmin(axis=1)
        inertia.append(d2[np.arange(n), new_labels].sum())
        moved = np.any(new_labels != labels) or len(inertia) == 1
        labels = new_labels
        for c in range(k):
            members = points[labels == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
            else:
                far = int(d2[np.arange(n), labels].argmax())
                centroids[c] = points[far]
                labels[far] = c
        if not moved:
            break
    return labels, centroids, np.asarray(inertia)


@pytest.mark.parametrize("n,f,k", [(300, 3, 5), (512, 96, 8), (64, 1, 4)])
def test_distances_match_broadcast_formula(n, f, k, monkeypatch):
    rng = np.random.default_rng(n + f + k)
    pts = rng.standard_normal((n, f)) + 4.0 * rng.integers(0, k, (n, 1))
    positions = pts.reshape(n, -1, min(f, 8))  # (D, N) positions of F = D * N
    assert np.array_equal(evo._sq_dists(pts, pts[:k]), broadcast_sq_dists(pts, pts[:k]))
    # the Lloyd loop's expanded-norm distances pick the same labels, so the
    # centroids agree bit for bit; only the inertia's last bits differ
    part = evo.kmeans_partition(pts, k, seed=3)
    labels, centroids, inertia = broadcast_lloyd(pts, k, seed=3)
    assert np.array_equal(part.labels, labels)
    assert np.array_equal(part.centroids, centroids)
    assert part.inertia_history == pytest.approx(inertia, rel=1e-12, abs=0)
    model = evo.fit_direct_operators(positions, part, 1e-3, targets=0.5 * positions)
    applied = evo.apply_direct_evolution(positions, model)
    monkeypatch.setattr(evo, "_sq_dists", broadcast_sq_dists)
    assert np.array_equal(applied, evo.apply_direct_evolution(positions, model))


@pytest.mark.parametrize("kind", ["spectral", "direct", "hopfield"])
def test_stacked_models_apply_as_each_model_alone(kind):
    # models stacked along a leading axis (a middle axis of the spectral
    # mode operators) apply each model to its own rows, bit for bit as the
    # model alone does: the forecaster serves all channels this way
    rng = np.random.default_rng(11)
    n_models, rows, d, n = 3, 40, 6, 4
    x = rng.standard_normal((n_models, rows, d, n))
    models = []
    for i, xi in enumerate(x):
        succ = np.roll(xi, -1, axis=0) + 0.1 * rng.standard_normal(xi.shape)
        if kind == "spectral":
            # xi as d length-40 sequences of N-vectors, 3 modes
            a, b = (evo.fft_modes(v, 3).transpose(1, 0, 2) for v in (xi, succ))
            models.append(evo.fit_spectral_operators(a, b, rows, 1e-3))
        elif kind == "direct":
            models.append(evo.fit_direct_operators(xi, flat_partition(xi, 5, seed=i), 1e-3,
                                                   targets=succ))
        else:
            models.append(evo.fit_hopfield_evolution(xi, flat_partition(xi, 5, seed=i), 2.0,
                                                     targets=succ))
    if kind == "spectral":
        apply = evo.apply_spectral_evolution
        ops = np.stack([m.mode_ops for m in models], axis=1)[:, :, None]  # (M, C, 1, N, N)
        stacked = replace(models[0], mode_ops=ops)
        got = np.swapaxes(apply(np.swapaxes(x, 0, 1), stacked), 0, 1)
    else:
        apply = evo.apply_direct_evolution if kind == "direct" else evo.apply_hopfield_evolution
        names = ("centroids", "operators") if kind == "direct" else ("keys", "values")
        stacked = replace(models[0], **{name: np.stack([getattr(m, name) for m in models])
                                        for name in names})
        got = apply(x, stacked)
    for i, (xi, model) in enumerate(zip(x, models)):
        assert np.array_equal(got[i], apply(xi, model))


def flat_partition(positions, k, seed=0):
    """The k-means partition of (T, D, N) positions by their (D * N) states."""
    return evo.kmeans_partition(positions.reshape(len(positions), -1), k, seed=seed)


class TestDirectEvolution:
    def test_contraction_recovered(self, rng):
        # transitions sampled across state space from x_{t+1} = 0.5 x_t
        src = rng.standard_normal((50, 2, 3))
        dst = 0.5 * src
        lam = 1e-10
        model = evo.fit_direct_operators(src, flat_partition(src, 1), lam, targets=dst)
        # closed-form ridge oracle over every coordinate's N-vector, dense solve
        a, b = src.reshape(-1, 3), dst.reshape(-1, 3)
        w_ref = np.linalg.solve(a.T @ a + lam * np.eye(3), a.T @ b).T
        assert np.abs(model.operators[0] - w_ref).max() <= 1e-10
        assert np.abs(model.operators[0] - 0.5 * np.eye(3)).max() <= 1e-6

    def test_exact_linear_map_single_cluster(self, rng):
        w_true = rng.standard_normal((4, 4)) * 0.4
        src = rng.standard_normal((50, 3, 4))
        dst = src @ w_true.T
        model = evo.fit_direct_operators(src, flat_partition(src, 1), 1e-12, targets=dst)
        assert np.abs(model.operators[0] - w_true).max() <= 1e-6
        out = evo.apply_direct_evolution(src, model)
        assert np.abs(out - dst).max() <= 1e-6

    def test_shared_map_recovered_from_fewer_pairs_than_a_dense_fit_needs(self, rng):
        # two clusters of three pairs each; with D = 6 coordinates a pair
        # gives six N-vector rows, so 18 rows fit each 4 x 4 map, where one
        # dense (D * N) map per cluster would have 24 unknowns per output
        w_true = rng.standard_normal((2, 4, 4)) * 0.4
        src = rng.standard_normal((6, 6, 4)) + np.repeat([0.0, 50.0], 3)[:, None, None]
        dst = np.concatenate([src[:3] @ w_true[0].T, src[3:] @ w_true[1].T])
        part = flat_partition(src, 2)
        first, second = part.labels[0], part.labels[3]
        assert first != second and np.array_equal(part.labels, [first] * 3 + [second] * 3)
        model = evo.fit_direct_operators(src, part, 1e-12, targets=dst)
        assert np.abs(model.operators[first] - w_true[0]).max() <= 1e-10
        assert np.abs(model.operators[second] - w_true[1]).max() <= 1e-10
        assert np.abs(evo.apply_direct_evolution(src, model) - dst).max() <= 1e-10

    def test_single_transition_with_ridge_is_solvable(self):
        src, dst = np.array([[[1.0, 0.0]]]), np.array([[[0.0, 1.0]]])
        model = evo.fit_direct_operators(src, flat_partition(src, 1), 0.5, targets=dst)
        assert np.all(np.isfinite(model.operators))

    def test_empty_cluster_falls_back_to_identity(self, rng):
        reps = rng.standard_normal((10, 3, 2))
        src, dst = reps[:-1], reps[1:]
        part = flat_partition(src, 3)
        hacked = evo.AttractorPartition(
            labels=np.zeros(9, dtype=int), centroids=part.centroids
        )
        model = evo.fit_direct_operators(src, hacked, 1e-3, targets=dst)
        assert np.array_equal(model.operators[1], np.eye(2))
        assert np.array_equal(model.operators[2], np.eye(2))

    def test_apply_matches_per_cluster_loop(self, rng):
        # four clusters near the data and one so far away that no row picks it
        centroids = np.concatenate([rng.standard_normal((4, 6)), np.full((1, 6), 1e6)])
        model = evo.DirectEvolutionModel(
            centroids=centroids, operators=rng.standard_normal((5, 3, 3))
        )
        pts = rng.standard_normal((200, 2, 3))
        flat = pts.reshape(200, 6)
        labels = ((flat[:, None, :] - centroids[None]) ** 2).sum(axis=2).argmin(axis=1)
        assert np.all(np.bincount(labels, minlength=5)[:4] > 0) and not np.any(labels == 4)
        ref = np.empty_like(pts)
        for c, op in enumerate(model.operators):
            ref[labels == c] = pts[labels == c] @ op.T
        applied = evo.apply_direct_evolution(pts, model)
        assert np.allclose(applied, ref, rtol=1e-12, atol=1e-12)
        # each row is its own product, so a row alone gives the same bits
        assert np.array_equal(evo.apply_direct_evolution(pts[7:8], model), applied[7:8])


class TestHopfield:
    def test_large_beta_snaps_to_nearest_pattern(self, rng):
        pats = rng.standard_normal((5, 8))
        cfg = evo.HopfieldConfig(patterns=pats, beta=1e6)
        j = 2
        out = evo.hopfield_update(pats[j] + 1e-3 * rng.standard_normal(8), cfg)
        assert np.abs(out - pats[j]).max() <= 1e-6

    def test_zero_beta_limit_gives_pattern_mean(self, rng):
        pats = rng.standard_normal((6, 4))
        cfg = evo.HopfieldConfig(patterns=pats, beta=1e-9)
        out = evo.hopfield_update(rng.standard_normal(4), cfg)
        assert np.abs(out - pats.mean(axis=0)).max() <= 1e-6

    def test_stored_pattern_is_near_fixed_point(self, rng):
        # antipodal pair: the separation margin is 2||p||^2, which at
        # beta = 10/||p||^2 leaves only an exp(-20) admixture
        p = rng.standard_normal(8)
        pats = np.stack([p, -p])
        beta = 10.0 / float(p @ p)
        cfg = evo.HopfieldConfig(patterns=pats, beta=beta)
        xi = evo.hopfield_update(pats[1], cfg)
        assert np.abs(xi - pats[1]).max() <= 1e-6
        assert np.abs(evo.hopfield_update(xi, cfg) - xi).max() <= 1e-10

    def test_energy_monotone_along_iterates(self, rng):
        pats = rng.standard_normal((7, 5))
        cfg = evo.HopfieldConfig(patterns=pats, beta=2.0)
        xi = rng.standard_normal(5)
        e_prev = evo.hopfield_energy(xi, cfg)
        for _ in range(20):
            xi = evo.hopfield_update(xi, cfg)
            e = evo.hopfield_energy(xi, cfg)
            assert e <= e_prev + 1e-10
            e_prev = e

    def test_separation_ladder_improves_retrieval(self, rng):
        # 5 pattern sets with increasing mutual separation; fixed noise query
        d, p = 12, 6
        base = np.ones(d) / np.sqrt(d)
        frame, _ = np.linalg.qr(rng.standard_normal((d, p)))
        noise = 0.05 * rng.standard_normal(d)
        errors = []
        seps = []
        for s in np.linspace(0.2, 1.0, 5):
            pats = np.stack([(1 - s) * base + s * frame[:, i] for i in range(p)])
            pats /= np.linalg.norm(pats, axis=1, keepdims=True)
            gram = pats @ pats.T
            # smallest margin c_i . c_i - c_i . c_j over pattern pairs i != j
            seps.append(np.min(np.diag(gram)[:, None] - gram + np.diag(np.full(p, np.inf))))
            cfg = evo.HopfieldConfig(patterns=pats, beta=40.0)
            xi = pats[0] + noise
            for _ in range(50):
                xi = evo.hopfield_update(xi, cfg)
            errors.append(np.linalg.norm(xi - pats[0]))
        assert np.all(np.diff(seps) > 0)  # the ladder is really monotone
        assert np.all(np.diff(errors) <= 1e-9)  # retrieval error non-increasing

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            evo.HopfieldConfig(patterns=np.ones((2, 2)), beta=0.0)


class TestHopfieldEvolutionModel:
    def test_keys_values_recover_transition(self, rng):
        src = np.concatenate([np.full((20, 2), 1.0), np.full((20, 2), -1.0)])
        src += 0.01 * rng.standard_normal(src.shape)
        dst = 2.0 * src
        part = evo.kmeans_partition(src, 2, seed=0)
        model = evo.fit_hopfield_evolution(src, part, beta=50.0, targets=dst)
        out = evo.apply_hopfield_evolution(np.array([[1.0, 1.0]]), model)
        assert np.abs(out - 2.0).max() <= 0.1


@settings(max_examples=25, deadline=None)
@given(l=st.integers(2, 24), seed=st.integers(0, 2**31))
def test_fft_ifft_roundtrip_property(l, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((l, 2))
    spec = evo.fft_modes(x, l // 2 + 1)
    assert np.abs(evo.ifft_modes(spec, l) - x).max() <= 1e-10
