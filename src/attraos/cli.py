"""Command-line front end: simulate, embed, lyapunov, fit, predict, eval,
bench-scan.

Exit codes: 0 success, 2 usage error (bad flag values), 3 data error (missing
or unusable input, or arrays too large to allocate).  All numeric output is
written at full double precision (%.17g for CSV cells, round-trip exact
floats in strict JSON: no NaN or infinities).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
import warnings

import numpy as np

from . import chaos, forecaster
from .embedding import (EmbeddingParams, default_max_tau, delay_embed, fnn_profile,
                        mi_profile, select_embedding)
from .errors import AttraosError, EmptyInputError
from .legendre import VARIANTS
from .lyapunov import mle_table
from .scan import ScanInput, blelloch_scan, sequential_scan
from .seeding import derive_seed


class UsageError(Exception):
    pass


def write_csv(path, data: np.ndarray, header: list, times=None) -> None:
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if times is not None:
        data = np.column_stack([np.asarray(times, dtype=float), data])
    # one "%.17g" template per row writes what format(x, ".17g") writes per cell
    line = ",".join(["%.17g"] * data.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        # rows become Python floats one block at a time, which bounds the
        # temporary list
        for start in range(0, data.shape[0], 1024):
            fh.writelines(line % tuple(row) for row in data[start : start + 1024].tolist())


def _write_embedding_csv(path, data: np.ndarray, params: EmbeddingParams, header: list) -> None:
    """``write_csv`` of every channel's delay embedding, laid out
    channel-major per row, with each sample formatted once: each of the m
    columns of a channel takes its text through the delay index, the
    ``delay_embed`` of the sample numbers."""
    index = delay_embed(np.arange(data.shape[0]), params).astype(np.intp)
    texts = [np.array(["%.17g" % v for v in col], dtype=object) for col in data.T.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(index), 1024):
            cells = np.concatenate([t[index[start : start + 1024]] for t in texts], axis=1)
            fh.writelines(",".join(row) + "\n" for row in cells.tolist())


def read_csv(path) -> np.ndarray:
    """Value columns of a headed CSV; a leading 't' column is dropped, and so
    is a UTF-8 byte-order mark.  A CSV without data rows raises
    EmptyInputError."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        header = fh.readline().strip().split(",")
        with warnings.catch_warnings():
            # reported below as an error rather than on stderr; loadtxt gives
            # (0, 1) whatever the header says
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[0] == 0:
        raise EmptyInputError(f"no data rows in {path}")
    if header and header[0].strip().lower() == "t":
        data = data[:, 1:]
    if data.shape[1] == 0:
        raise AttraosError(f"no value columns in {path}")
    return data


def _json_out(obj) -> None:
    print(json.dumps(obj, allow_nan=False))


def cmd_simulate(args) -> int:
    if args.obs_dim is not None and args.obs_dim < 1:
        raise UsageError("--obs-dim must be >= 1")
    if args.steps < 1:
        raise UsageError("--steps must be >= 1")
    if not 0 < args.dt < np.inf:
        raise UsageError("--dt must be positive and finite")
    if args.transient < 0:
        raise UsageError("--transient must be >= 0")
    if args.system == "lorenz63":
        params = chaos.Lorenz63Params(sigma=args.sigma, rho=args.rho, beta=args.beta)
        simulate, x0 = chaos.simulate_lorenz63, np.ones(3)
    else:
        if args.dim < 4:
            raise UsageError("lorenz96 needs --dim >= 4")
        params = chaos.Lorenz96Params(forcing_f=args.f, dim=args.dim)
        simulate, x0 = chaos.simulate_lorenz96, chaos.default_lorenz96_x0(params)
    if args.x0:
        try:
            given = [float(v) for v in args.x0.split(",")]
        except ValueError:
            given = []
        if len(given) != x0.size or not np.isfinite(given).all():
            raise UsageError(f"--x0 must be {x0.size} finite numbers separated by commas")
        x0 = np.array(given)
    if args.obs_dim is not None and args.obs_dim > x0.size:
        raise UsageError(f"--obs-dim must be at most the state dimension {x0.size}")
    data = simulate(params, x0, args.dt, args.steps + args.transient)
    if args.transient:
        data = chaos.drop_transient(data, args.transient)
    if args.obs_dim is not None:
        omap = chaos.ObservationMap.random(args.obs_dim, data.shape[1], derive_seed(args.seed, 1))
        data = chaos.observe(data, omap)
    times = args.dt * np.arange(data.shape[0])
    header = ["t"] + [f"v{i}" for i in range(data.shape[1])]
    write_csv(args.out, data, header, times=times)
    _json_out({"rows": int(data.shape[0]), "channels": int(data.shape[1]), "out": args.out})
    return 0


def _embedding_flags(args):
    if (args.m is None) != (args.tau is None):
        raise UsageError("--m and --tau must be given together")
    if args.m is not None:
        return EmbeddingParams(m=args.m, tau=args.tau)
    return None


def cmd_embed(args) -> int:
    data = read_csv(args.input)
    params = _embedding_flags(args)
    if params is None:
        params = select_embedding(data, max_tau=args.max_tau, max_m=args.max_m)
    # the first channel that is not constant; if none is, column 0 raises
    channel = next((c for c, col in enumerate(data.T) if col.min() != col.max()), 0)
    ref = data[:, channel]
    max_tau = args.max_tau or default_max_tau(ref.size)
    # the curves come first, so a series whose curves fail leaves no file
    meta = {
        "m": params.m,
        "tau": params.tau,
        "curve_channel": channel,
        "mi_curve": mi_profile(ref, max_tau).tolist(),
        "fnn_fraction_curve": fnn_profile(ref, params.tau, args.max_m).tolist(),
    }
    header = [f"c{c}_d{d}" for c in range(data.shape[1]) for d in range(params.m)]
    _write_embedding_csv(args.out_traj, data, params, header)
    if args.out_meta:
        with open(args.out_meta, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
    _json_out(meta)
    return 0


def cmd_lyapunov(args) -> int:
    data = read_csv(args.input)
    if (args.fit_start is None) != (args.fit_end is None):
        raise UsageError("--fit-start and --fit-end must be given together")
    if args.theiler is not None and args.theiler < 0:
        raise UsageError("--theiler must be >= 0")
    if args.dt is not None and not args.dt > 0:
        raise UsageError("--dt must be > 0")
    params = EmbeddingParams(m=args.m, tau=args.tau)
    fit_range = None if args.fit_start is None else (args.fit_start, args.fit_end)
    table = mle_table(data, params, horizon=args.horizon, theiler=args.theiler,
                      fit_range=fit_range)
    # every channel is fit over the same range; the curve is channel 0's
    first = table["estimates"][0]
    out = {
        "mle_per_channel": table["per_channel"].tolist(),
        "mean_mle": table["mean"],
        "fit_range": list(first.fit_range),
        # a step where every pair has met has no mean log separation
        "divergence_curve": [v if np.isfinite(v) else None
                             for v in first.divergence_curve.tolist()],
    }
    if args.dt is not None:
        out["mean_mle_per_time_unit"] = table["mean"] / args.dt
    _json_out(out)
    return 0


def cmd_fit(args) -> int:
    data = read_csv(args.input)
    names = {f.name for f in dataclasses.fields(forecaster.ForecasterConfig)}
    config = forecaster.ForecasterConfig(
        embedding=_embedding_flags(args),
        **{k: v for k, v in vars(args).items() if k in names},
    )
    model = forecaster.fit(config, data)
    forecaster.save_model(model, args.out)
    _json_out(
        {
            "out": args.out,
            "channels": model.n_channels,
            "m": model.embedding.m,
            "tau": model.embedding.tau,
            "n_patches": model.shapes.n_patches,
            "padded": model.shapes.padded,
            "scale_lens": list(model.shapes.scale_lens),
        }
    )
    return 0


def cmd_predict(args) -> int:
    model = forecaster.load_model(args.model)
    context = read_csv(args.input)
    result = forecaster.predict(model, context)
    header = [f"v{i}" for i in range(result.predictions.shape[1])]
    write_csv(args.out, result.predictions, header)
    _json_out({"out": args.out, "horizon": int(result.predictions.shape[0])})
    return 0


def cmd_eval(args) -> int:
    pred = read_csv(args.pred)
    truth = read_csv(args.truth)
    _json_out(forecaster.evaluate(pred, truth))
    return 0


def cmd_bench_scan(args) -> int:
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    if args.d < 1:
        raise UsageError("--d must be >= 1")
    if min(args.l_list) < 1:
        raise UsageError("--l-list entries must be >= 1")
    rng = np.random.default_rng(derive_seed(args.seed, 7))
    report = []
    for l in args.l_list:
        a = rng.uniform(0.1, 0.9, size=(l, args.n))
        bu = rng.standard_normal((l, args.d, args.n))
        inp = ScanInput(a_seq=a[:, None, :], bu_seq=bu)
        t0 = time.perf_counter()
        seq = sequential_scan(inp)
        t1 = time.perf_counter()
        tree = blelloch_scan(inp)
        t2 = time.perf_counter()
        dev = float(np.max(np.abs(seq - tree)))
        report.append(
            {
                "L": l,
                "sequential_s": t1 - t0,
                "tree_s": t2 - t1,
                "max_deviation": dev,
            }
        )
    _json_out({"bench": report})
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="attraos", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="integrate a reference chaotic system to CSV")
    s.add_argument("--system", choices=["lorenz63", "lorenz96"], required=True)
    s.add_argument("--steps", type=int, required=True)
    s.add_argument("--dt", type=float, default=0.01)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--sigma", type=float, default=10.0)
    s.add_argument("--rho", type=float, default=28.0)
    s.add_argument("--beta", type=float, default=8.0 / 3.0)
    s.add_argument("--f", type=float, default=8.0)
    s.add_argument("--dim", type=int, default=40)
    s.add_argument("--x0", type=str, default="")
    s.add_argument("--obs-dim", type=int, default=None)
    s.add_argument("--transient", type=int, default=0)
    s.add_argument("--out", type=str, required=True)
    s.set_defaults(func=cmd_simulate)

    s = sub.add_parser("embed", help="delay-embed a series CSV")
    s.add_argument("--input", type=str, required=True)
    s.add_argument("--m", type=int, default=None)
    s.add_argument("--tau", type=int, default=None)
    s.add_argument("--max-tau", type=int, default=None)
    s.add_argument("--max-m", type=int, default=8)
    s.add_argument("--out-traj", type=str, required=True)
    s.add_argument("--out-meta", type=str, default="")
    s.set_defaults(func=cmd_embed)

    s = sub.add_parser("lyapunov", help="maximal Lyapunov exponent of a series CSV")
    s.add_argument("--input", type=str, required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--tau", type=int, required=True)
    s.add_argument("--horizon", type=int, default=200)
    s.add_argument("--theiler", type=int, default=None)
    s.add_argument("--fit-start", type=int, default=None)
    s.add_argument("--fit-end", type=int, default=None)
    s.add_argument("--dt", type=float, default=None)
    s.set_defaults(func=cmd_lyapunov)

    # each config flag is stored under its ForecasterConfig field, and only
    # when given, so the config's own defaults apply
    s = sub.add_parser("fit", help="fit a forecaster on a series CSV",
                       argument_default=argparse.SUPPRESS)
    s.add_argument("--input", type=str, required=True)
    s.add_argument("--window", type=int, required=True)
    s.add_argument("--horizon", type=int, required=True)
    s.add_argument("--m", type=int, default=None)
    s.add_argument("--tau", type=int, default=None)
    s.add_argument("--patch-len", type=int)
    s.add_argument("--poly-order", type=int)
    s.add_argument("--variant", dest="ssm_variant", choices=VARIANTS)
    s.add_argument("--theta", type=float)
    s.add_argument("--levels", type=int)
    s.add_argument("--m-modes", type=int)
    s.add_argument("--ridge-lambda", type=float)
    s.add_argument("--strategy", dest="evolution_strategy", choices=forecaster.STRATEGIES)
    s.add_argument("--clusters", dest="n_clusters", type=int)
    s.add_argument("--max-windows", dest="max_train_windows", type=int)
    s.add_argument("--seed", type=int)
    s.add_argument("--out", type=str, required=True)
    s.set_defaults(func=cmd_fit)

    s = sub.add_parser("predict", help="forecast from a saved model JSON")
    s.add_argument("--model", type=str, required=True)
    s.add_argument("--input", type=str, required=True)
    s.add_argument("--out", type=str, required=True)
    s.set_defaults(func=cmd_predict)

    s = sub.add_parser("eval", help="MSE/MAE between prediction and truth CSVs")
    s.add_argument("--pred", type=str, required=True)
    s.add_argument("--truth", type=str, required=True)
    s.set_defaults(func=cmd_eval)

    s = sub.add_parser("bench-scan", help="sequential vs tree scan timing report")
    s.add_argument("--l-list", type=lambda v: [int(x) for x in v.split(",")],
                   default=[64, 256, 1024])
    s.add_argument("--n", type=int, default=8)
    s.add_argument("--d", type=int, default=1)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_bench_scan)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except (AttraosError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 3
    except MemoryError as exc:
        # numpy's message names the array it could not allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        code = 3
    if argv is None:
        sys.exit(code)
    return code
