import math

import numpy as np
import pytest

from attraos import legendre as lg


class TestLegendreEval:
    def test_value_at_one(self):
        for n in range(11):
            assert lg.legendre_eval(n, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_value_at_minus_one(self):
        for n in range(11):
            assert lg.legendre_eval(n, -1.0) == pytest.approx((-1.0) ** n, abs=1e-12)

    def test_p2_at_zero(self):
        # closed form (3x^2 - 1)/2 evaluated independently
        assert lg.legendre_eval(2, 0.0) == pytest.approx(-0.5, abs=1e-15)

    def test_matches_numpy_legval(self, rng):
        x = rng.uniform(-1, 1, 50)
        for n in range(8):
            ref = np.polynomial.legendre.legval(x, [0.0] * n + [1.0])
            assert np.allclose(lg.legendre_eval(n, x), ref, atol=1e-12)


class TestBasis:
    def test_orthonormality_under_quadrature(self):
        b = lg.LegendreBasis(9, num_nodes=16)
        gram = (b.phi_at_nodes * b.weights) @ b.phi_at_nodes.T
        assert np.abs(gram - np.eye(9)).max() <= 1e-10

    def test_quadrature_exact_for_low_degree(self):
        b = lg.LegendreBasis(4, num_nodes=4)
        # degree 2N-1 = 7 polynomial integrates exactly
        poly = lambda s: 3 * s**7 - s**3 + 0.5
        exact = 3 / 8 - 1 / 4 + 0.5
        assert np.sum(b.weights * poly(b.nodes)) == pytest.approx(exact, abs=1e-14)


class TestProjection:
    def test_sin_projection_respects_error_bound(self):
        # N = 8, r = 0: residual below the derivative-based bound
        err = lg.piecewise_projection_error(lambda s: np.sin(2 * np.pi * s), 8, 0)
        bound = lg.approximation_error_bound(8, 0, (2 * np.pi) ** 8)
        assert err <= bound


class TestApproximationBound:
    BOUND_GRID = [(f, n, r) for f in ("sin", "exp") for n in (2, 3, 4) for r in range(4)]

    @staticmethod
    def _func(name):
        if name == "sin":
            return (lambda s: np.sin(2 * np.pi * s)), lambda n: (2 * np.pi) ** n
        return np.exp, lambda n: math.e

    @pytest.mark.parametrize("name,n,r", BOUND_GRID)
    def test_projection_error_within_bound(self, name, n, r):
        f, sup = self._func(name)
        err = lg.piecewise_projection_error(f, n, r)
        assert err <= lg.approximation_error_bound(n, r, sup(n))

    def test_exp_refinement_ratios(self):
        f, _ = self._func("exp")
        for n in (2, 3, 4):
            errs = [lg.piecewise_projection_error(f, n, r) for r in range(4)]
            for r in range(3):
                assert errs[r] / errs[r + 1] >= 2**n / 2

    def test_sin_asymptotic_refinement_ratio(self):
        f, _ = self._func("sin")
        for n in (2, 3, 4, 6):
            e2 = lg.piecewise_projection_error(f, n, 2)
            e3 = lg.piecewise_projection_error(f, n, 3)
            assert e2 / e3 >= 2**n / 2

    @pytest.mark.xfail(
        strict=True,
        reason="analytically impossible: sin(2*pi*x) has parity-degenerate "
        "coarse refinements (exact N=2 ratio is 1.4386 < 2; same effect at "
        "N=6 r=0->1), so the coarse-step ratio check cannot hold",
    )
    def test_sin_coarse_ratio_as_stated(self):
        f, _ = self._func("sin")
        e0 = lg.piecewise_projection_error(f, 6, 0)
        e1 = lg.piecewise_projection_error(f, 6, 1)
        assert e0 / e1 >= 2**6 / 2


class TestHippoMatrices:
    def test_legs_diag(self):
        assert lg.build_hippo_legs_diag(3).tolist() == [-1.0, -2.0, -3.0]
        assert lg.build_hippo_legs_diag(1).tolist() == [-1.0]
        assert np.all(lg.build_hippo_legs_diag(9) < 0)

    def test_diag_neg1(self):
        assert lg.build_diag_neg1(4).tolist() == [-1.0] * 4
        assert set(np.unique(lg.build_diag_neg1(7))) == {-1.0}
        tiled = np.tile(lg.build_diag_neg1(4), (5, 1))
        assert np.all(tiled == -1.0) and tiled.shape == (5, 4)

    def test_full_matrix_drives_sliding_window_memory(self):
        # integrating x' = A x + B u with u = const must reproduce the
        # window's polynomial coefficients once the window fills
        n = 6
        params = lg.SsmParams(
            a=lg.legt_full_matrix(n),
            b=np.sqrt(2 * np.arange(n) + 1.0),
            delta=1e-3,
            n=n,
            variant="legt_full",
        )
        d = lg.discretize(params, b_method="zoh")
        x = np.zeros(n)
        for _ in range(4000):  # 4 window lengths
            x = d.a_bar @ x + d.b_bar * 1.0
        # constant input => coefficients approach projection of 1 = e_0
        assert abs(x[0] - 1.0) < 0.05
        assert np.abs(x[1:]).max() < 0.05


class TestDiscretize:
    def test_delta_to_zero_limits(self):
        p = lg.SsmParams(a=np.array([-1.0]), b=np.array([2.0]), delta=1e-12, n=1, variant="diag_neg1")
        d = lg.discretize(p)
        assert d.a_bar[0] == pytest.approx(1.0, abs=1e-9)
        assert d.b_bar[0] == pytest.approx(0.0, abs=1e-9)

    def test_scalar_exponential_frozen_value(self):
        # independent series evaluation of exp(-0.1): sum_{k} (-0.1)^k / k!
        series = sum((-0.1) ** k / math.factorial(k) for k in range(25))
        p = lg.SsmParams(a=np.array([-1.0]), b=np.array([1.0]), delta=0.1, n=1, variant="diag_neg1")
        d = lg.discretize(p)
        assert d.a_bar[0] == pytest.approx(series, abs=1e-15)
        assert d.a_bar[0] == pytest.approx(0.9048374180359596, abs=1e-12)

    def test_forward_euler_b(self):
        p = lg.SsmParams(a=np.array([-1.0]), b=np.array([2.0]), delta=0.5, n=1, variant="diag_neg1")
        assert lg.discretize(p).b_bar[0] == pytest.approx(1.0, abs=1e-15)

    def test_full_matrix_exponential_matches_series(self, rng):
        a = rng.standard_normal((4, 4)) * 0.5
        p = lg.SsmParams(a=a, b=np.ones(4), delta=0.3, n=4, variant="legt_full")
        d = lg.discretize(p)
        acc = np.eye(4)
        term = np.eye(4)
        for k in range(1, 30):
            term = term @ (0.3 * a) / k
            acc = acc + term
        assert np.allclose(d.a_bar, acc, atol=1e-12)

    def test_zoh_exact_for_constant_input(self):
        # one discrete step equals the exact continuous solution
        a, bb, delta, u = -0.7, 1.3, 0.25, 2.0
        p = lg.SsmParams(a=np.array([a]), b=np.array([bb]), delta=delta, n=1, variant="diag_neg1")
        d = lg.discretize(p, b_method="zoh")
        x0 = 0.9
        exact = math.exp(a * delta) * x0 + (math.exp(a * delta) - 1) / a * bb * u
        assert d.a_bar[0] * x0 + d.b_bar[0] * u == pytest.approx(exact, abs=1e-14)

    def test_euler_vs_zoh_gap_is_second_order(self):
        p1 = lg.SsmParams(a=np.array([-1.0]), b=np.array([1.0]), delta=0.1, n=1, variant="diag_neg1")
        p2 = lg.SsmParams(a=np.array([-1.0]), b=np.array([1.0]), delta=0.05, n=1, variant="diag_neg1")
        gap1 = abs(lg.discretize(p1).b_bar[0] - lg.discretize(p1, "zoh").b_bar[0])
        gap2 = abs(lg.discretize(p2).b_bar[0] - lg.discretize(p2, "zoh").b_bar[0])
        assert 3.0 <= gap1 / gap2 <= 5.0

    def test_legt_full_order_3_matches_its_first_stored_values(self):
        # the continuous matrix and its discretization at theta 4 (delta
        # 0.25) as a model document of attraos at commit 34c421a stored them
        p = lg.make_ssm_params("legt_full", 3, 0.25)
        d = lg.discretize(p)
        assert np.array_equal(p.a, [
            [-1.0, 1.7320508075688772, -2.23606797749979],
            [-1.7320508075688772, -2.9999999999999996, 3.872983346207417],
            [-2.23606797749979, -3.872983346207417, -5.000000000000001],
        ])
        assert np.array_equal(d.a_bar, [
            [0.7633232082362604, 0.355595377108332, -0.1446825536813124],
            [-0.35559537710833206, 0.21211795318594984, 0.35950511429565624],
            [-0.1446825536813124, -0.35950511429565624, 0.16706939210496696],
        ])
        assert np.array_equal(d.b_bar, [0.25, 0.4330127018922193, 0.5590169943749475])

    def test_stability_of_diagonal_variants(self):
        for variant in ("legs_diag", "diag_neg1"):
            p = lg.make_ssm_params(variant, 6, 0.3)
            d = lg.discretize(p)
            assert np.all(np.abs(d.a_bar) < 1.0)

