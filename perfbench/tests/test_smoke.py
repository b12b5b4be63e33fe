"""Small-size passes of every workload through its correctness gate."""

import dataclasses
import os
import subprocess
import sys
import time

import pytest

import workloads

SMALL = {
    "l96-frequency": dict(steps=4000, train_rows=2800, rollout_segments=2, persist_reps=1),
    "l63-cli": dict(steps=8000, holdout=600, contexts=4, sweep=16),
}


def test_every_workload_has_a_small_size():
    assert set(SMALL) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_pass_meets_the_gate(name, tmp_path):
    workload = dataclasses.replace(workloads.WORKLOADS[name], **SMALL[name])
    gate = workloads.Gate(time.perf_counter)
    inputs = workload.setup(3, str(tmp_path))
    for _ in range(2):
        workload.cycle(inputs, gate)
        gate.end_cycle()
    assert gate.failures == []
    assert gate.attempted > 0
    assert gate.values["model_bytes"] > 0
    assert len(gate.samples["cycle_s"]) == 2
    assert len(gate.samples["predict_s"]) >= 2


def test_gate_counts_a_failed_step():
    from attraos.errors import TooShortError

    def boom():
        raise TooShortError("too short")

    gate = workloads.Gate(time.perf_counter)
    with pytest.raises(workloads.CycleFailed):
        gate.timed("fit_s", boom)
    gate.check(False, "a check")
    assert (gate.attempted, gate.failed) == (2, 2)
    gate.record("val_mse_ratio", 0.5)
    gate.record("val_mse_ratio", 0.6)
    assert gate.failed == 3


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    run = os.path.join(os.path.dirname(workloads.__file__), "run.py")
    proc = subprocess.run(
        [sys.executable, run, "--workload", "l63-cli", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    import json

    import run
    import tracer

    root = os.path.dirname(os.path.dirname(workloads.__file__))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracer.units()
    e2e_units = {name: unit for name, unit, _, _ in run.E2E}
    for m in bench["end_to_end"]:
        assert e2e_units[m["name"]] == m["unit"]
