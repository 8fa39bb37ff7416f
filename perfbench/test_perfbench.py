"""The benchmark's own tests.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run as runner  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from repro.corpus import generate_site  # noqa: E402

#: Exact work counts that must repeat for one seed.
EXACT = ("net.hops", "net.nat_translations", "transport.segments_tx",
         "transport.segments_rx", "record.matches", "linkem.drops",
         "transport.retransmissions")


@pytest.fixture(scope="module")
def page_state():
    site = generate_site("test.example", seed=3, n_origins=4)
    return [(site.page, site.to_recorded_site())]


@pytest.fixture(scope="module")
def bulk_state(tmp_path_factory):
    return workloads.LinkBulk().setup(7, str(tmp_path_factory.mktemp("b")))


def traced_op(workload, state, index=0):
    """One traced op: (tracer, traced wall seconds, op result)."""
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        tracer.enter("bench")
        result = workload.op(state, index, tracer)
        wall = tracer.exit()
    tracer.fold()
    return tracer, wall, result


def test_self_times_add_up_to_traced_wall_time(page_state):
    tracer, wall, result = traced_op(workloads.ReplayCorpus(), page_state)
    assert not result.errors
    tracer.apply_dispatch_cost(tracer_mod.calibrate_dispatch(rounds=2))
    assert all(value >= 0.0 for value in tracer.self_s.values())
    assert sum(tracer.self_s.values()) == pytest.approx(wall, rel=1e-6)
    assert tracer.self_s["bench"] <= tracer_mod.SELF_TIME_TOLERANCE * wall
    for layer in ("sim", "net", "linkem", "transport", "http", "browser",
                  "dns", "core", "record"):
        assert tracer.self_s[layer] > 0.0, layer


@pytest.mark.parametrize("name", ["replay_corpus", "link_bulk"])
def test_exact_counts_repeat_for_one_seed(name, page_state, bulk_state):
    workload = workloads.WORKLOADS[name]
    state = page_state if name == "replay_corpus" else bulk_state
    first, __, one = traced_op(workload, state)
    second, __, two = traced_op(workload, state)
    assert one.outputs == two.outputs
    assert first.events == second.events
    for key in EXACT:
        assert first.counts[key] == second.counts[key], key
    assert first.counts["net.hops"] > 0
    if name == "link_bulk":
        assert first.counts["linkem.drops"] > 0
        assert first.counts["transport.retransmissions"] > 0


def test_traced_fabric_sweep_splits_worker_time(tmp_path):
    """The forked workers dump their own split, and the runner reads it
    back: the trial layers get the workers' time, not the fabric."""
    workload = workloads.FabricSweep()
    setup_dir = tmp_path / "setup"
    setup_dir.mkdir()
    state = workload.setup(1, str(setup_dir))
    out = runner.traced(workload, state, 0.001, str(tmp_path),
                        tracer_mod.Tracer())
    assert out["samples"] == 1
    assert not out["run"].errors
    metrics = out["metrics"]
    for layer in ("sim", "net", "browser"):
        assert metrics[f"{layer}.self_share"] > 0.0, layer
    assert metrics["fabric.self_share"] < 1.0
    assert metrics["sim.events"] > 0
    assert metrics["transport.segments_tx"] > 0
    assert metrics["fabric.heartbeats"] > 0
    assert not list(tmp_path.glob("**/worker-*.json"))


def test_tracing_leaves_outputs_unchanged(bulk_state):
    workload = workloads.LinkBulk()
    __, __, traced = traced_op(workload, bulk_state, 3)
    tracer_mod.assert_clean()
    assert workload.op(bulk_state, 3).outputs == traced.outputs


def test_figures_are_scaled_to_reference_speed():
    reference_s = runner.REFERENCE_MS / 1000.0
    assert runner.at_reference_speed(0.2, reference_s) == pytest.approx(0.2)
    # The host ran the kernel at half speed: the op counts half as long.
    assert runner.at_reference_speed(0.2, 2 * reference_s) == \
        pytest.approx(0.1)
    assert runner.at_reference_speed(
        0.2, 3 * reference_s, 3 * runner.KERNEL_STEPS) == pytest.approx(0.2)


def test_no_wrapper_outside_a_traced_op():
    tracer_mod.assert_clean()
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        with pytest.raises(RuntimeError, match="still installed"):
            tracer_mod.assert_clean()
    tracer_mod.assert_clean()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_inputs_not_op_count(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    results = []
    for seed in (1, 2):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        state = workload.setup(seed, str(workdir))
        results.append(workload.op(state, 0))
    assert results[0].outputs != results[1].outputs
    assert results[0].units == results[1].units
    assert not results[0].errors and not results[1].errors


def test_run_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's own files, the
    benchmark exits non-zero and prints no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "link_bulk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_run_prints_the_result_line_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "link_bulk",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert sorted(result["metrics"]) == sorted(
        m["name"] for m in spec["end_to_end"])
