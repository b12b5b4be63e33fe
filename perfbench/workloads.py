"""The benchmark's workloads: seeded inputs, one closed-loop pass, checks.

Every workload is a closed loop with one client thread: each call waits for
the previous result.  `setup` turns the seed into inputs; `cycle` runs one
pass of the workload's timed steps and its correctness checks.  The program
only ever receives the generated arrays or CSV files.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

from attraos import chaos, cli
from attraos import forecaster as fc
from attraos.errors import AttraosError
from attraos.seeding import derive_seed

WINDOW = 96
HORIZON = 96
LYAPUNOV_BAND = (0.75, 1.05)  # acceptance criterion 07, per time unit


class CycleFailed(Exception):
    """A step failed, so the rest of the pass cannot run."""


class Gate:
    """Times operations, counts what was attempted and what failed."""

    def __init__(self, clock, unobserved=contextlib.nullcontext):
        self.clock = clock
        self.unobserved = unobserved  # context that hides checks from tracing
        self.samples: dict = {}
        self.values: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self._cycle_total = 0.0

    def timed(self, metric, fn, *args, **kwargs):
        self.attempted += 1
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        except AttraosError as exc:
            self._fail(f"{metric}: {type(exc).__name__}: {exc}")
            raise CycleFailed(metric) from exc
        elapsed = self.clock() - start
        self.samples.setdefault(metric, []).append(elapsed)
        self._cycle_total += elapsed
        return result

    def check(self, ok, what: str) -> bool:
        """Count one check; ``what`` states the expectation that must hold."""
        self.attempted += 1
        if not ok:
            self._fail(f"check failed: {what}")
        return bool(ok)

    def record(self, metric, value) -> None:
        """A value that must be the same on every pass (sizes, accuracy)."""
        seen = self.values.setdefault(metric, value)
        if seen != value:
            self.check(False, f"{metric} changed between passes: {seen} then {value}")

    def end_cycle(self) -> float:
        total, self._cycle_total = self._cycle_total, 0.0
        self.samples.setdefault("cycle_s", []).append(total)
        return total

    def _fail(self, what):
        self.failed += 1
        self.failures.append(what)


def _finite(arr) -> bool:
    return bool(np.all(np.isfinite(arr)))


# --- Lorenz96 fit-and-serve ---------------------------------------------------


@dataclass(frozen=True)
class L96Workload:
    """Lorenz96 (dim 40, F=8, dt 0.01) seen through a seeded 3-channel map,
    forecast with the default configuration: auto embedding, `frequency`."""

    name: str
    why: str
    steps: int = 20000
    transient: int = 1000
    train_rows: int = 14000
    sweep: int = 200
    rollout_segments: int = 20
    persist_reps: int = 3
    check_windows: int = 8

    def setup(self, seed: int, workdir: str) -> dict:
        params = chaos.Lorenz96Params(forcing_f=8.0, dim=40)
        traj = chaos.simulate_lorenz96(
            params, chaos.default_lorenz96_x0(params), 0.01, self.steps + self.transient
        )
        traj = chaos.drop_transient(traj, self.transient)
        omap = chaos.ObservationMap.random(3, params.dim, derive_seed(seed, 1))
        data = chaos.observe(traj, omap)
        val = data[self.train_rows :]
        starts = np.linspace(0, val.shape[0] - WINDOW - HORIZON, self.sweep).astype(int)
        contexts = [val[s : s + WINDOW] for s in starts]
        truths = [val[s + WINDOW : s + WINDOW + HORIZON] for s in starts]
        persistence = np.mean(
            [fc.evaluate(fc.persistence_forecast(c, HORIZON), t)["mse"]
             for c, t in zip(contexts, truths)]
        )
        return {
            "config": fc.ForecasterConfig(window=WINDOW, horizon=HORIZON),
            "train": data[: self.train_rows],
            "contexts": contexts,
            "truths": truths,
            "persistence_mse": float(persistence),
            "model_path": os.path.join(workdir, "model.json"),
        }

    def cycle(self, inp: dict, gate: Gate) -> None:
        model = gate.timed("fit_s", fc.fit, inp["config"], inp["train"])
        preds = [
            gate.timed("predict_s", fc.predict, model, ctx).predictions
            for ctx in inp["contexts"]
        ]
        gate.check(all(_finite(p) for p in preds), "sweep forecasts are finite")
        mse = np.mean([fc.evaluate(p, t)["mse"] for p, t in zip(preds, inp["truths"])])
        ratio = float(mse / inp["persistence_mse"])
        gate.check(ratio < 1.0, f"val_mse_ratio {ratio:.4f} < 1")
        gate.record("val_mse_ratio", ratio)

        total = self.rollout_segments * HORIZON
        path = gate.timed("rollout_s", fc.rollout, model, inp["contexts"][0], total)
        gate.check(path.shape[0] == total and _finite(path), "rollout is finite and complete")

        for _ in range(self.persist_reps):
            gate.timed("save_s", fc.save_model, model, inp["model_path"])
        gate.record("model_bytes", os.path.getsize(inp["model_path"]))
        for _ in range(self.persist_reps):
            loaded = gate.timed("load_s", fc.load_model, inp["model_path"])
        with gate.unobserved():
            same = all(
                np.array_equal(fc.predict(loaded, ctx).predictions, pred)
                for ctx, pred in zip(inp["contexts"][: self.check_windows], preds)
            )
        gate.check(same, "reloaded model reproduces predict bit for bit")
        os.remove(inp["model_path"])


# --- Lorenz63 CLI walkthrough -------------------------------------------------


def run_cli(gate: Gate, metric: str, argv: list) -> dict:
    """One in-process ``attraos`` command; returns its JSON output line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = gate.timed(metric, cli.main, argv)
    if not gate.check(code == 0, f"attraos {argv[0]} exits 0 (got {code})"):
        raise CycleFailed(argv[0])
    return json.loads(out.getvalue().strip().splitlines()[-1])


def _csv_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.readline(), fh.readlines()


def _values(path, drop_t=False):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 1:] if drop_t else data


def _write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        fh.writelines(rows)


@dataclass(frozen=True)
class L63CliWorkload:
    """The README command-line walkthrough on Lorenz63, run in-process."""

    name: str
    why: str
    steps: int = 20000
    transient: int = 1000
    holdout: int = 1500
    contexts: int = 50
    sweep: int = 300

    def setup(self, seed: int, workdir: str) -> dict:
        rng = np.random.default_rng(derive_seed(seed, 1))
        x0 = np.ones(3) + rng.uniform(-0.01, 0.01, size=3)
        files = {k: os.path.join(workdir, k) for k in
                 ("data.csv", "traj.csv", "meta.json", "train.csv", "model.json", "copy.json")}
        return {"x0": ",".join(format(v, ".17g") for v in x0), "files": files, "workdir": workdir}

    def cycle(self, inp: dict, gate: Gate) -> None:
        f = inp["files"]
        run_cli(gate, "simulate_s", [
            "simulate", "--system", "lorenz63", "--steps", str(self.steps),
            "--transient", str(self.transient), "--dt", "0.01", "--x0", inp["x0"],
            "--out", f["data.csv"],
        ])
        run_cli(gate, "embed_s", [
            "embed", "--input", f["data.csv"], "--max-tau", "40", "--max-m", "6",
            "--out-traj", f["traj.csv"], "--out-meta", f["meta.json"],
        ])
        lyap = run_cli(gate, "lyapunov_s", [
            "lyapunov", "--input", f["data.csv"], "--m", "3", "--tau", "16",
            "--horizon", "400", "--fit-start", "75", "--fit-end", "275", "--dt", "0.01",
        ])
        mle0 = lyap["mle_per_channel"][0] / 0.01
        lo, hi = LYAPUNOV_BAND
        gate.check(lo <= mle0 <= hi, f"lyapunov channel 0 {mle0:.3f}/tu lies in [{lo}, {hi}]")
        gate.record("lyapunov_ch0", mle0)

        header, rows = _csv_rows(f["data.csv"])
        n_train = len(rows) - self.holdout
        _write_rows(f["train.csv"], header, rows[:n_train])
        starts = np.linspace(n_train - WINDOW, len(rows) - WINDOW - HORIZON, self.contexts)
        pairs = []
        for k, s in enumerate(starts.astype(int)):
            ctx, truth = (os.path.join(inp["workdir"], f"{p}{k}.csv") for p in ("ctx", "truth"))
            _write_rows(ctx, header, rows[s : s + WINDOW])
            _write_rows(truth, header, rows[s + WINDOW : s + WINDOW + HORIZON])
            pairs.append((ctx, truth, os.path.join(inp["workdir"], f"pred{k}.csv")))

        run_cli(gate, "fit_s", [
            "fit", "--input", f["train.csv"], "--window", str(WINDOW), "--horizon",
            str(HORIZON), "--strategy", "hopfield", "--out", f["model.json"],
        ])
        gate.record("model_bytes", os.path.getsize(f["model.json"]))
        loaded = gate.timed("load_s", fc.load_model, f["model.json"])

        # An API sweep on the loaded model gives predict_p50/p95_ms enough
        # samples for a steady tail (one CLI command is ~50 ms, mostly model
        # loading and CSV I/O).  Its calls are spread between the CLI
        # commands, so the samples span the CPU's speed changes in the pass.
        held = _values(f["data.csv"], drop_t=True)[n_train - WINDOW :]
        starts = np.linspace(0, held.shape[0] - WINDOW, self.sweep).astype(int)
        slots = iter(np.array_split(starts, 2 * len(pairs)))
        sweep = []

        def api_predicts():
            for s in next(slots):
                sweep.append(gate.timed("predict_s", fc.predict, loaded,
                                        held[s : s + WINDOW]).predictions)

        for ctx, _, pred in pairs:
            run_cli(gate, "cli_predict_s", ["predict", "--model", f["model.json"],
                                            "--input", ctx, "--out", pred])
            api_predicts()
        model_mse = persist_mse = 0.0
        finite = True
        for ctx, truth, pred in pairs:
            finite &= _finite(_values(pred))
            model_mse += run_cli(gate, "eval_s", ["eval", "--pred", pred, "--truth", truth])["mse"]
            api_predicts()
            last = _values(ctx, drop_t=True)[-1]
            persist_mse += float(np.mean((_values(truth, drop_t=True) - last) ** 2))
        gate.check(finite, "every CLI forecast is finite")
        gate.check(all(_finite(p) for p in sweep), "API sweep forecasts are finite")
        gate.record("val_mse_ratio", model_mse / persist_mse)

        ctx, _, pred = pairs[0]
        with gate.unobserved():
            again = fc.predict(loaded, _values(ctx, drop_t=True)).predictions
        same = np.array_equal(again, _values(pred))
        gate.check(same, "reloaded CLI model reproduces the CLI forecast bit for bit")
        gate.timed("save_s", fc.save_model, loaded, f["copy.json"])
        with open(f["model.json"], "rb") as a, open(f["copy.json"], "rb") as b:
            gate.check(a.read() == b.read(), "re-saved model document is byte-identical")


WORKLOADS = {
    w.name: w
    for w in (
        L96Workload(
            name="l96-frequency",
            why="the default users get: auto embedding, 3 channels on the thread pool, "
                "per-window loops dominate fit and predict, light persistence",
        ),
        L63CliWorkload(
            name="l63-cli",
            why="the only workload timing chaos, lyapunov and CSV text I/O, "
                "and the only one using the hopfield strategy",
        ),
    )
}
