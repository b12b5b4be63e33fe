#!/usr/bin/env python3
"""Maximal-Lyapunov-exponent table for simulated systems and optional CSVs.

Prints per-channel and mean exponents (per step and per time unit where dt is
known).  Extra CSV paths given on the command line are processed with
auto-selected embeddings, matching the convention of averaging channel
exponents for multivariate series.
"""

import argparse
import json

import numpy as np

from attraos import chaos
from attraos.cli import read_csv
from attraos.embedding import select_embedding
from attraos.lyapunov import mle_table
from attraos.seeding import derive_seed


def report(name, data, dt=None):
    data = np.atleast_2d(np.asarray(data).T).T
    params = [
        select_embedding(data[:, c], max_tau=40, max_m=6) for c in range(data.shape[1])
    ]
    table = mle_table(data, params, horizon=400, fit_range=(75, 275))
    row = {
        "dataset": name,
        "per_channel": table["per_channel"].tolist(),
        "mean_per_step": table["mean"],
    }
    if dt is not None:
        row["mean_per_time_unit"] = table["mean"] / dt
    print(json.dumps(row))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("csvs", nargs="*", help="optional extra series CSVs")
    ap.add_argument("--steps", type=int, default=30000)
    args = ap.parse_args()

    states = chaos.simulate_lorenz63(chaos.Lorenz63Params(), [1.0, 1.0, 1.0], 0.01, args.steps + 1000)
    report("lorenz63_x", chaos.drop_transient(states, 1000)[:, 0], dt=0.01)

    p96 = chaos.Lorenz96Params(forcing_f=8.0, dim=40)
    states = chaos.simulate_lorenz96(p96, chaos.default_lorenz96_x0(p96), 0.01, args.steps + 1000)
    omap = chaos.ObservationMap.random(3, 40, derive_seed(42, 1))
    report("lorenz96_3d", chaos.observe(chaos.drop_transient(states, 1000), omap), dt=0.01)

    for path in args.csvs:
        report(path, read_csv(path))


if __name__ == "__main__":
    main()
