#!/usr/bin/env python3
"""Teacher-forcing sweep: rollout error vs blend weight on Lorenz63.

For each alpha the context fed into successive autoregressive windows is
(1 - alpha) * prediction + alpha * truth; the reported MSE always scores the
raw predictions.  alpha = 0 is free-running autoregression, alpha = 1 feeds
pure ground truth.
"""

import argparse
import json

import numpy as np

from attraos import chaos, forecaster as fc
from attraos.embedding import EmbeddingParams


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--windows", type=int, default=4)
    ap.add_argument("--horizon", type=int, default=96)
    ap.add_argument("--alphas", type=str, default="0,0.25,0.5,0.75,1.0")
    ap.add_argument("--rollout-starts", type=int, default=8)
    args = ap.parse_args()

    states = chaos.simulate_lorenz63(chaos.Lorenz63Params(), [1.0, 1.0, 1.0], 0.01, 31000)
    x = states[1001:, 0]
    split = int(x.size * 0.7)
    train, val = x[:split], x[split:]
    w, h = 96, args.horizon
    model = fc.fit(
        fc.ForecasterConfig(window=w, horizon=h, embedding=EmbeddingParams(3, 16), seed=7),
        train,
    )

    total = args.windows * h
    starts = np.linspace(0, val.size - w - total, args.rollout_starts).astype(int)
    out = {}
    for alpha in (float(a) for a in args.alphas.split(",")):
        errs = []
        for s0 in starts:
            truth = val[s0 + w : s0 + w + total]
            roll = fc.rollout(model, val[s0 : s0 + w], total, truth=truth, alpha=alpha)
            errs.append(float(np.mean((roll.ravel() - truth) ** 2)))
        out[alpha] = float(np.mean(errs))
        print(f"alpha={alpha:4.2f}  rollout MSE {out[alpha]:10.3f}")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
