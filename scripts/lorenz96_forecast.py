#!/usr/bin/env python3
"""Scaled chaotic-forecasting benchmark on the observed Lorenz96 system.

Simulates a 40-dimensional Lorenz96 run, maps it to 3 channels through a
seeded random linear observation, fits all three evolution strategies on the
first 70%, and reports validation MSE/MAE against persistence, global-mean and
DLinear-style baselines on the held-out tail, with each strategy's fit time and
model document size (``model_mb``, its JSON length in MB).

The DLinear-style baseline (Zeng et al. 2023, arXiv:2205.13504) is one ridge
map per channel from the instance-normalized window to the normalized horizon.
It is fit by the forecaster's own rules: the training windows and targets of
``forecaster._windows`` and the readout solve ``forecaster._readout`` with the
config's ``ridge_lambda``, so it follows any change to those rules.  A
``frequency`` model is itself a linear map of that shape (its serving map), so
``dlinear_mse_ratio`` (baseline MSE / ``frequency`` MSE) says what the
structure of the staged pipeline buys over an unconstrained linear map.
"""

import argparse
import json
import time
from dataclasses import replace

import numpy as np

from attraos import chaos, forecaster as fc
from attraos.seeding import derive_seed


def fit_dlinear(train, config):
    """(channels, window, horizon) ridge maps from each normalized training
    window to its normalized horizon, on the windows ``fc.fit`` uses."""
    return np.stack([fc._readout(*fc._windows(z, config), config) for z in train.T])


def dlinear_predict(maps, context):
    zn, mu, sd = fc._normalize(np.ascontiguousarray(context[-maps.shape[1] :].T))
    return (mu[:, None] + sd[:, None] * (zn[:, None, :] @ maps)[:, 0]).T


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=30000)
    ap.add_argument("--dim", type=int, default=40)
    ap.add_argument("--obs-dim", type=int, default=3)
    ap.add_argument("--window", type=int, default=96)
    ap.add_argument("--horizon", type=int, default=96)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--val-windows", type=int, default=64)
    args = ap.parse_args()

    t0 = time.time()
    params = chaos.Lorenz96Params(forcing_f=8.0, dim=args.dim)
    states = chaos.simulate_lorenz96(params, chaos.default_lorenz96_x0(params), 0.01, args.steps + 1000)
    states = chaos.drop_transient(states, 1000)
    omap = chaos.ObservationMap.random(args.obs_dim, args.dim, derive_seed(args.seed, 1))
    data = chaos.observe(states, omap)
    print(f"simulated {data.shape[0]} x {data.shape[1]} in {time.time() - t0:.1f}s")

    split = int(data.shape[0] * 0.7)
    train, val = data[:split], data[split:]
    w, h = args.window, args.horizon
    starts = np.linspace(0, val.shape[0] - w - h, args.val_windows).astype(int)

    def val_metrics(predict_fn):
        mses, maes = [], []
        for s in starts:
            pred = predict_fn(val[s : s + w])
            metrics = fc.evaluate(pred, val[s + w : s + w + h])
            mses.append(metrics["mse"])
            maes.append(metrics["mae"])
        return float(np.mean(mses)), float(np.mean(maes))

    results = {}
    base = fc.ForecasterConfig(window=w, horizon=h, seed=args.seed)
    for strategy in ("frequency", "direct", "hopfield"):
        t1 = time.time()
        model = fc.fit(replace(base, evolution_strategy=strategy), train)
        mse, mae = val_metrics(lambda ctx: fc.predict(model, ctx).predictions)
        fit_s = time.time() - t1
        model_mb = len(fc.model_to_json(model)) / 1e6
        results[strategy] = {"mse": mse, "mae": mae, "fit_s": fit_s, "model_mb": model_mb}
        print(f"{strategy:10s} mse {mse:10.3f} mae {mae:8.3f} ({fit_s:.1f}s, {model_mb:.2f} MB)")

    mse, mae = val_metrics(lambda ctx: fc.persistence_forecast(ctx, h))
    results["persistence"] = {"mse": mse, "mae": mae}
    print(f"{'persistence':10s} mse {mse:10.3f} mae {mae:8.3f}")
    mean_pred = fc.global_mean_forecast(train, h)
    mse, mae = val_metrics(lambda ctx: mean_pred)
    results["global_mean"] = {"mse": mse, "mae": mae}
    print(f"{'global mean':10s} mse {mse:10.3f} mae {mae:8.3f}")
    maps = fit_dlinear(train, base)
    mse, mae = val_metrics(lambda ctx: dlinear_predict(maps, ctx))
    results["dlinear"] = {"mse": mse, "mae": mae}
    results["dlinear_mse_ratio"] = mse / results["frequency"]["mse"]
    print(f"{'dlinear':10s} mse {mse:10.3f} mae {mae:8.3f} "
          f"(x{results['dlinear_mse_ratio']:.3f} the frequency mse)")
    print(json.dumps(results))


if __name__ == "__main__":
    main()
