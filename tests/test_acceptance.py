"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report inline.  Heavy shared artifacts (simulations) come from session-scoped
fixtures, so the whole suite stays inside its runtime budgets.
"""

import math
import os
import time

import numpy as np
import pytest

from attraos import chaos, evolution as evo, forecaster as fc, legendre as lg
from attraos import scan, wavelet as wv
from attraos.embedding import EmbeddingParams
from attraos.lyapunov import estimate_mle, mle_table

from test_lyapunov import benettin_mle
from test_wavelet import haar_analysis


def report(num, passed, detail):
    tag = "PASS" if passed else "FAIL"
    print(f"[criterion {num:02d}] {tag} - {detail}")
    assert passed, f"criterion {num}: {detail}"


# -- 1 ----------------------------------------------------------------------


def test_criterion_01_scan_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    lengths = [1, 2, 257] + list(rng.integers(1, 258, size=197))
    worst = 0.0
    for i, l in enumerate(lengths):
        n = (1, 8, 64)[i % 3]
        d = (1, 4)[i % 2]
        inp = scan.ScanInput(
            a_seq=rng.uniform(0.0, 1.0, (l, 1, n)),
            bu_seq=rng.standard_normal((l, d, n)),
        )
        seq = scan.sequential_scan(inp)
        tree = scan.blelloch_scan(inp)
        denom = np.maximum(np.abs(seq), 1e-300)
        worst = max(worst, float(np.max(np.abs(tree - seq) / denom)))
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-10 and elapsed < 30.0,
        f"200 inputs, worst relative error {worst:.3e}, {elapsed:.1f}s",
    )


# -- 2 ----------------------------------------------------------------------


def test_criterion_02_blelloch_worked_example():
    # numeric form: scalar A=2, u=1 gives the doubling states
    inp = scan.ScanInput(a_seq=np.full((4, 1), 2.0), bu_seq=np.ones((4, 1)))
    states = scan.blelloch_scan(inp).ravel()
    numeric_ok = states.tolist() == [1.0, 3.0, 7.0, 15.0]

    # symbolic structure of the final composed element: distinct drive values
    # recover the coefficients A^3, A^2, A, 1 on u_1..u_4 and the A^4 carry
    a_val = 2.0
    u = np.array([3.0, 5.0, 7.0, 11.0])
    final = scan.ScanElement(a=np.array([a_val]), b=np.array([u[0]]))
    for k in range(1, 4):
        final = scan.operator_compose(
            final, scan.ScanElement(a=np.array([a_val]), b=np.array([u[k]]))
        )
    expect_b = a_val**3 * u[0] + a_val**2 * u[1] + a_val * u[2] + u[3]
    symbolic_ok = final.a[0] == a_val**4 and final.b[0] == expect_b
    report(
        2,
        numeric_ok and symbolic_ok,
        f"states {states.tolist()}, r4 = (A^4, A^3Bu1+A^2Bu2+ABu3+Bu4) verified",
    )


# -- 3 ----------------------------------------------------------------------

SIN = lambda s: np.sin(2 * np.pi * s)
SIN_SUP = lambda n: (2 * np.pi) ** n
EXP_SUP = lambda n: math.e

# coarse transitions where sin's odd/even symmetry makes the per-step ratio
# check analytically unattainable (exact N=2 value: 0.442760/0.307758=1.4386)
SIN_DEGENERATE = {(2, 0), (3, 1), (4, 0)}


def test_criterion_03_approximation_bound():
    t0 = time.perf_counter()
    bound_ok = True
    ratio_ok = True
    details = []
    for name, f, sup in (("sin", SIN, SIN_SUP), ("exp", np.exp, EXP_SUP)):
        for n in (2, 3, 4):
            errs = [lg.piecewise_projection_error(f, n, r) for r in range(4)]
            for r in range(4):
                if errs[r] > lg.approximation_error_bound(n, r, sup(n)):
                    bound_ok = False
                    details.append(f"bound {name} N={n} r={r}")
            for r in range(3):
                if name == "sin" and (n, r) in SIN_DEGENERATE:
                    continue  # pinned separately as an expected failure
                if errs[r] / errs[r + 1] < 2**n / 2:
                    ratio_ok = False
                    details.append(f"ratio {name} N={n} r={r}->{r+1}")
    elapsed = time.perf_counter() - t0
    msg = f"bounds hold on all 24 cells; ratios hold on all non-degenerate transitions ({elapsed:.1f}s)"
    if details:
        msg += "; violations: " + ", ".join(details)
    report(3, bound_ok and ratio_ok and elapsed < 10.0, msg)


@pytest.mark.xfail(
    strict=True,
    reason="analytically unattainable: sin's parity-degenerate coarse "
    "refinements violate the per-transition ratio check (see decisions ledger)",
)
def test_criterion_03_sin_degenerate_transitions_as_stated():
    ok = True
    for n, r in sorted(SIN_DEGENERATE):
        errs = [lg.piecewise_projection_error(SIN, n, rr) for rr in (r, r + 1)]
        if errs[0] / errs[1] < 2**n / 2:
            ok = False
    assert ok


# -- 4 ----------------------------------------------------------------------


def test_criterion_04_perfect_reconstruction():
    rng = np.random.default_rng(4)
    worst_rt = 0.0
    worst_energy = 0.0
    for n in (1, 2, 3, 4):
        filters = wv.build_filters(n)
        for length in range(2, 65, 2):
            x = rng.standard_normal((length, n))
            coarse, detail = wv.up_project(x, filters)
            back = wv.down_project(coarse, detail, filters)
            worst_rt = max(worst_rt, float(np.abs(back - x).max()))
            if length & (length - 1) == 0:
                levels = length.bit_length() - 1
                pyr = wv.decompose(x, filters, levels)
                rec = wv.reconstruct(pyr, filters)
                worst_rt = max(worst_rt, float(np.abs(rec - x).max()))
                energy = np.sum(pyr.coarse**2) + sum(np.sum(d**2) for d in pyr.details)
                worst_energy = max(worst_energy, float(abs(energy - np.sum(x**2))))
    # N = 1 filters equal the Haar pair entrywise
    f1 = wv.build_filters(1)
    inv = 1.0 / math.sqrt(2.0)
    haar_gap = max(
        abs(f1.h1[0, 0] - inv), abs(f1.h2[0, 0] - inv),
        abs(f1.g1[0, 0] - inv), abs(f1.g2[0, 0] + inv),
    )
    x = rng.standard_normal(32)
    hc, hd = haar_analysis(x)
    c1, d1 = wv.up_project(x[:, None], f1)
    haar_gap = max(haar_gap, float(np.abs(c1.ravel() - hc).max()), float(np.abs(d1.ravel() - hd).max()))
    report(
        4,
        worst_rt <= 1e-9 and worst_energy <= 1e-9 and haar_gap <= 1e-12,
        f"round trip {worst_rt:.2e}, energy {worst_energy:.2e}, Haar gap {haar_gap:.2e}",
    )


# -- 5 ----------------------------------------------------------------------


def test_criterion_05_legendre_identities():
    end_err = 0.0
    for n in range(11):
        end_err = max(end_err, abs(lg.legendre_eval(n, 1.0) - 1.0))
        end_err = max(end_err, abs(lg.legendre_eval(n, -1.0) - (-1.0) ** n))
    basis = lg.LegendreBasis(9, num_nodes=16)
    gram = (basis.phi_at_nodes * basis.weights) @ basis.phi_at_nodes.T
    ortho_err = float(np.abs(gram - np.eye(9)).max())
    report(
        5,
        end_err <= 1e-12 and ortho_err <= 1e-10,
        f"endpoint identities {end_err:.2e}, orthonormality {ortho_err:.2e}",
    )


# -- 6 ----------------------------------------------------------------------


def test_criterion_06_discretization():
    # ZOH transition vs an independent series oracle, diagonal and full
    def series_exp(m, terms=40):
        acc = np.eye(m.shape[0])
        term = np.eye(m.shape[0])
        for k in range(1, terms):
            term = term @ m / k
            acc = acc + term
        return acc

    worst = 0.0
    p = lg.make_ssm_params("legs_diag", 5, 0.2)
    d = lg.discretize(p)
    worst = max(worst, float(np.abs(d.a_bar - np.diag(series_exp(np.diag(0.2 * p.a)))).max()))
    pf = lg.make_ssm_params("legt_full", 4, 0.05)
    df = lg.discretize(pf)
    worst = max(worst, float(np.abs(df.a_bar - series_exp(0.05 * pf.a)).max()))

    p1 = lg.SsmParams(a=np.array([-1.0]), b=np.array([1.0]), delta=0.1, n=1, variant="diag_neg1")
    p2 = lg.SsmParams(a=np.array([-1.0]), b=np.array([1.0]), delta=0.05, n=1, variant="diag_neg1")
    gap1 = abs(lg.discretize(p1).b_bar[0] - lg.discretize(p1, "zoh").b_bar[0])
    gap2 = abs(lg.discretize(p2).b_bar[0] - lg.discretize(p2, "zoh").b_bar[0])
    ratio = gap1 / gap2
    report(
        6,
        worst <= 1e-12 and 3.0 <= ratio <= 5.0,
        f"transition vs series oracle {worst:.2e}, Euler/ZOH gap ratio {ratio:.3f}",
    )


# -- 7 ----------------------------------------------------------------------


def test_criterion_07_lyapunov(lorenz63_x):
    t0 = time.perf_counter()
    dt = 0.01
    est = estimate_mle(
        lorenz63_x, EmbeddingParams(3, 16), horizon=400, fit_range=(75, 275)
    )
    rosenstein = est.mle / dt
    oracle = benettin_mle(chaos.Lorenz63Params(), [1.0, 1.0, 1.0], dt, 31000)

    t = np.arange(4000)
    sine = estimate_mle(
        np.sin(2 * np.pi * t / 33.7), EmbeddingParams(3, 8), horizon=100, fit_range=(1, 50)
    )
    rng = np.random.default_rng(0)
    ar = np.empty(200)
    ar[0] = 1.0
    for i in range(1, 200):
        ar[i] = 0.9 * ar[i - 1] + 1e-12 * rng.standard_normal()
    contracting = estimate_mle(ar, EmbeddingParams(2, 1), horizon=40, theiler=2, fit_range=(1, 20))
    elapsed = time.perf_counter() - t0
    report(
        7,
        0.75 <= rosenstein <= 1.05
        and abs(rosenstein - oracle) <= 0.2
        and abs(sine.mle) <= 0.01
        and contracting.mle < 0
        and elapsed < 120.0,
        f"Lorenz63 {rosenstein:.3f}/tu (Benettin {oracle:.3f}), sine {sine.mle:.2e}, "
        f"contracting {contracting.mle:.3f}, {elapsed:.1f}s",
    )


ETTH1 = os.environ.get("ATTRAOS_ETTH1", os.path.join(os.path.dirname(__file__), "data", "ETTh1.csv"))


@pytest.mark.skipif(not os.path.exists(ETTH1), reason="ETTh1 CSV not supplied")
def test_criterion_07_optional_etth1():
    rows = []
    with open(ETTH1, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            cells = line.strip().split(",")
            rows.append([float(v) for v in cells[1:]])  # drop the date column
    data = np.asarray(rows)
    params = [EmbeddingParams(3, 24) for _ in range(data.shape[1])]
    table = mle_table(data, params, horizon=300, fit_range=(30, 150))
    ok = abs(table["mean"] - 0.064437) <= 0.03
    report(7, ok, f"ETTh1 mean MLE {table['mean']:.6f} vs 0.064437 +- 0.03 ({header[0]})")


# -- 8 ----------------------------------------------------------------------


def test_criterion_08_equilibrium_exactness():
    t63 = chaos.simulate_lorenz63(chaos.Lorenz63Params(), [0.0, 0.0, 0.0], 0.01, 10000)
    p96 = chaos.Lorenz96Params(forcing_f=8.0, dim=16)
    t96 = chaos.simulate_lorenz96(p96, np.full(16, 8.0), 0.01, 10000)
    ok = bool(np.all(t63 == 0.0) and np.all(t96 == 8.0))
    report(8, ok, "origin and constant-F states preserved bit-exactly over 1e4 steps")


# -- 9 ----------------------------------------------------------------------


def test_criterion_09_forecast_sanity(lorenz96_3d):
    t0 = time.perf_counter()
    data = lorenz96_3d
    split = int(data.shape[0] * 0.7)
    train, val = data[:split], data[split:]
    w = h = 96

    freq = fc.fit(fc.ForecasterConfig(window=w, horizon=h, evolution_strategy="frequency", seed=42), train)
    direct = fc.fit(
        fc.ForecasterConfig(
            window=w, horizon=h, evolution_strategy="direct", seed=42, embedding=freq.embedding
        ),
        train,
    )

    starts = np.linspace(0, val.shape[0] - w - h, 64).astype(int)
    mean_pred = fc.global_mean_forecast(train, h)

    def val_mse(predict_fn):
        errs = []
        for s in starts:
            pred = predict_fn(val[s : s + w])
            errs.append(np.mean((pred - val[s + w : s + w + h]) ** 2))
        return float(np.mean(errs))

    mse_freq = val_mse(lambda ctx: fc.predict(freq, ctx).predictions)
    mse_dir = val_mse(lambda ctx: fc.predict(direct, ctx).predictions)
    mse_persist = val_mse(lambda ctx: fc.persistence_forecast(ctx, h))
    mse_mean = val_mse(lambda ctx: mean_pred)
    elapsed = time.perf_counter() - t0
    report(
        9,
        mse_freq < mse_persist and mse_freq < mse_mean and mse_freq <= mse_dir and elapsed < 300.0,
        f"freq {mse_freq:.2f} < persistence {mse_persist:.2f}, < mean {mse_mean:.2f}, "
        f"<= direct {mse_dir:.2f} ({elapsed:.1f}s)",
    )


# -- 10 ---------------------------------------------------------------------


def test_criterion_10_noise_robustness(lorenz63_x):
    split = int(lorenz63_x.size * 0.7)
    train, val = lorenz63_x[:split], lorenz63_x[split:]
    rng = np.random.default_rng(3)
    noisy = train + 0.1 * rng.standard_normal(train.size)
    w = h = 96
    cfg = fc.ForecasterConfig(window=w, horizon=h, embedding=EmbeddingParams(3, 16), seed=7)
    clean_model = fc.fit(cfg, train)
    noisy_model = fc.fit(cfg, noisy)
    starts = np.linspace(0, val.size - w - h, 32).astype(int)

    def val_mse(model):
        errs = []
        for s in starts:
            pred = fc.predict(model, val[s : s + w]).predictions.ravel()
            errs.append(np.mean((pred - val[s + w : s + w + h]) ** 2))
        return float(np.mean(errs))

    base = val_mse(clean_model)
    with_noise = val_mse(noisy_model)
    change = abs(with_noise - base) / base
    report(
        10,
        change < 0.20,
        f"validation MSE {base:.3f} -> {with_noise:.3f} with 0.1*N(0,1) noise ({change:.1%})",
    )


# -- 11 ---------------------------------------------------------------------


def test_criterion_11_hopfield_retrieval():
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((16, 8)))
    patterns = q.T  # 8 orthonormal patterns in R^16
    cfg = evo.HopfieldConfig(patterns=patterns, beta=50.0)
    ok = True
    worst_err, worst_iters = 0.0, 0
    for j in range(8):
        delta = rng.standard_normal(16)
        query = patterns[j] + 0.09 * delta / np.linalg.norm(delta)
        energies = [evo.hopfield_energy(query, cfg)]
        xi = query
        iters = 0
        for _ in range(5):
            iters += 1
            xi = evo.hopfield_update(xi, cfg)
            energies.append(evo.hopfield_energy(xi, cfg))
            if np.linalg.norm(xi - patterns[j]) <= 1e-6:
                break
        err = float(np.linalg.norm(xi - patterns[j]))
        worst_err = max(worst_err, err)
        worst_iters = max(worst_iters, iters)
        if err > 1e-6 or iters > 5:
            ok = False
        if np.any(np.diff(energies) > 1e-10):
            ok = False
    report(
        11,
        ok,
        f"8 queries converge (worst error {worst_err:.2e} in <= {worst_iters} iters), "
        "energy non-increasing",
    )


# -- 12 ---------------------------------------------------------------------


def test_criterion_12_teacher_forcing(lorenz63_x):
    split = int(lorenz63_x.size * 0.7)
    train, val = lorenz63_x[:split], lorenz63_x[split:]
    w = h = 96
    model = fc.fit(
        fc.ForecasterConfig(window=w, horizon=h, embedding=EmbeddingParams(3, 16), seed=7),
        train,
    )
    mse = {0.0: [], 0.5: []}
    for s0 in np.linspace(0, val.size - w - 4 * h, 4).astype(int):
        truth = val[s0 + w : s0 + w + 4 * h]
        for alpha in (0.0, 0.5):
            roll = fc.rollout(model, val[s0 : s0 + w], 4 * h, truth=truth, alpha=alpha)
            mse[alpha].append(np.mean((roll.ravel() - truth) ** 2))
    m0, m5 = float(np.mean(mse[0.0])), float(np.mean(mse[0.5]))
    report(12, m5 <= m0, f"4-window rollout MSE: alpha=0.5 {m5:.2f} <= alpha=0 {m0:.2f}")
