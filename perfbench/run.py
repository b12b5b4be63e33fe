#!/usr/bin/env python3
"""attraos benchmark: seeded closed-loop workloads against the public API/CLI.

Run from the repository root:

    python3 perfbench/run.py --workload l96-frequency --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table

Each workload (see `workloads.py` for what it runs and why it was chosen)
sets up its inputs from ``--seed`` several times, then repeats passes of its
timed steps until ``--seconds`` have elapsed, checking every output.  With
``--trace 0`` the end-to-end metrics are reported (medians over the samples,
with their counts); with ``--trace 1`` the layer functions are wrapped from
outside the library and per-layer metrics are reported instead, together
with the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The line before it,
prefixed ``REPORT``, holds every metric with unit and sample count plus the
environment record.  The exit code is 0 only when every check passed.

The sources are imported from ``./src``; nothing needs to be built.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

# Busy threads stay at or below the core count: BLAS runs single-threaded
# and ATTRAOS_THREADS keeps its default, which is what users get.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_REPS = 3
MIN_PASSES = 4  # so every per-pass median has at least 4 samples
MIN_P95_SAMPLES = 200
OUT_DIR = ".perfbench_out"
HERE = os.path.dirname(os.path.abspath(__file__))

# (name, unit, samples key, how the samples are reduced)
E2E = [
    ("setup_s", "s", None, None),
    ("fit_s", "s", "fit_s", "median"),
    ("predict_p50_ms", "ms", "predict_s", "p50"),
    ("predict_p95_ms", "ms", "predict_s", "p95"),
    ("rollout_s", "s", "rollout_s", "median"),
    ("save_s", "s", "save_s", "median"),
    ("load_s", "s", "load_s", "median"),
    ("model_mb", "MB", None, None),
    ("val_mse_ratio", "ratio", None, None),
    ("peak_rss_mb", "MB", None, None),
    ("failed_ratio", "ratio", None, None),
    ("simulate_s", "s", "simulate_s", "median"),
    ("embed_s", "s", "embed_s", "median"),
    ("lyapunov_s", "s", "lyapunov_s", "median"),
    ("cli_predict_ms", "ms", "cli_predict_s", "median"),
    ("cycle_s", "s", "cycle_s", "median"),
]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment(seed) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in (*THREAD_ENV, "ATTRAOS_THREADS")},
        "seed": seed,
    }


def reduce_samples(samples, how, stats):
    if how == "median":
        return stats.median(samples)
    return stats.percentile(samples, 50 if how == "p50" else 95)


def end_to_end(gate, setup_s, stats) -> dict:
    samples = gate.samples
    out = {}
    for name, unit, key, how in E2E:
        if name == "setup_s":
            value, n = setup_s
        elif name == "model_mb":
            value, n = gate.values["model_bytes"] / 1e6, 1
        elif name == "val_mse_ratio":
            value, n = gate.values["val_mse_ratio"], 1
        elif name == "peak_rss_mb":
            value, n = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, 1
        elif name == "failed_ratio":
            value, n = gate.failed / gate.attempted, gate.attempted
        elif key in samples:
            value, n = reduce_samples(samples[key], how, stats), len(samples[key])
            if unit == "ms":
                value *= 1e3
        else:
            continue
        out[name] = {"value": value, "unit": unit, "samples": n}
    return out


def run_workload(args, root) -> int:
    os.environ.update(THREAD_ENV)
    os.environ.pop("ATTRAOS_THREADS", None)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import attraos
    import stats
    import tracer as tracing
    import workloads
    import_s = time.perf_counter() - t0

    if not os.path.abspath(attraos.__file__).startswith(src + os.sep):
        print(f"error: attraos imported from {attraos.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2

    tracer = tracing.Tracer()
    workdir = os.path.join(root, OUT_DIR, f"run-{os.getpid()}")
    os.makedirs(workdir)
    gate = workloads.Gate(time.perf_counter, tracer.paused)
    try:
        if args.trace:
            tracer.install()
        setup_times = []
        for _ in range(SETUP_REPS):
            t = time.perf_counter()
            inputs = workload.setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - t)
        setup_spans = tracer.take()
        tracer.uninstall()

        cycles = []  # (traced, cycle seconds, spans)
        start = time.perf_counter()
        while (
            len(cycles) < MIN_PASSES
            or time.perf_counter() - start < args.seconds
            or len(gate.samples.get("predict_s", ())) < MIN_P95_SAMPLES
        ):
            traced = bool(args.trace) and len(cycles) % 2 == 0
            if traced:
                tracer.install()
            try:
                workload.cycle(inputs, gate)
            except workloads.CycleFailed:
                break
            finally:
                tracer.uninstall()
            cycles.append((traced, gate.end_cycle(), tracer.take()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_s = (import_s + stats.median(setup_times), len(setup_times))
    report = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "trace": args.trace, "cycles": len(cycles), "env": environment(args.seed),
              "failures": gate.failures}
    # a failed check does not void the timings of the passes that completed,
    # so they are still reported; "correct" and the exit code carry the failure
    result_metrics = {}
    measured = bool(cycles)
    if measured and args.trace:
        result_metrics = report["per_layer"] = per_layer(setup_spans, cycles, tracing, stats)
        spans_path = os.path.join(root, OUT_DIR, f"spans-{workload.name}-{args.seed}.jsonl")
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in setup_spans + [s for c in cycles for s in c[2]]:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")
        report["spans_file"] = os.path.relpath(spans_path, root)
    elif measured:
        e2e = end_to_end(gate, setup_s, stats)
        report["end_to_end"] = e2e
        report["samples"] = {k: [round(x, 7) for x in v] for k, v in gate.samples.items()}
        result_metrics = {k: v for k, v in e2e.items() if k in gated_metrics()}
    for name, m in report.get("end_to_end", report.get("per_layer", {})).items():
        count = f"n={m['samples']}" if "samples" in m else ""
        print(f"{workload.name:15s} {name:32s} {m['value']:14.6g} {m['unit']:6s} {count}")
    for what in gate.failures:
        print(f"FAILED: {what}", file=sys.stderr)
    print("REPORT " + json.dumps(report))
    result = {
        "correct": measured and gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in result_metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def per_layer(setup_spans, cycles, tracing, stats) -> dict:
    """Per-layer metrics for one setup plus one pass of the workload."""
    traced = [c for c in cycles if c[0]]
    plain = [c[1] for c in cycles if not c[0]]
    setup = tracing.layer_metrics(setup_spans)
    passes = [tracing.layer_metrics(c[2]) for c in traced]
    out = {}
    for key, value in setup.items():
        per_pass = [p[key] for p in passes]
        if key in tracing.NON_ADDITIVE:
            out[key] = max([value] + per_pass)
        else:
            out[key] = value / SETUP_REPS + sum(per_pass) / len(per_pass)
    traced_s = stats.median([c[1] for c in traced])
    plain_s = stats.median(plain)
    out["trace.overhead_s"] = traced_s - plain_s
    out["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    out["trace.spans_per_pass"] = sum(len(c[2]) for c in traced) / len(traced)
    units = tracing.units()
    return {k: {"value": v, "unit": units[k]} for k, v in out.items()}


def gated_metrics() -> set:
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)["end_to_end"]}


def run_all(args, root) -> int:
    """Every workload in its own fresh process, then one table."""
    import workloads

    code = 0
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
        report = next((json.loads(line[len("REPORT "):]) for line in proc.stdout.splitlines()
                       if line.startswith("REPORT ")), None)
        rows.append((name, report))
    env = next((r["env"] for _, r in rows if r), {})
    print("environment: " + json.dumps(env))
    metrics = "per_layer" if args.trace else "end_to_end"
    names = [n for n, _, _, _ in E2E] if not args.trace else sorted(
        {k for _, r in rows if r for k in r.get(metrics, {})})
    print(f"{'metric':32s}" + "".join(f"{n:>26s}" for n, _ in rows))
    for metric in names:
        cells = []
        for _, r in rows:
            m = (r or {}).get(metrics, {}).get(metric)
            cells.append("n/a" if m is None else
                         f"{m['value']:.6g} {m['unit']}" + (f" n={m['samples']}" if "samples" in m else ""))
        print(f"{metric:32s}" + "".join(f"{c:>26s}" for c in cells))
    for name, r in rows:
        print(f"{name}: {'ok' if r and not r['failures'] else 'FAILED'} "
              f"({r['cycles'] if r else 0} passes) - {r['why'] if r else 'no report'}")
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "attraos", "__init__.py")):
        print("error: no attraos sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        sys.path.insert(0, os.path.join(root, "src"))
        return run_all(args, root)
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
