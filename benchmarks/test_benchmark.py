"""Tests of the benchmark itself. The repository's test run does not collect
them; run them from the repository root with

    python3 -m pytest benchmarks -q

They take about two minutes on two cores.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import reference
import run as bench
from tracer import TRACED

# The default seed and a second seed that no tuning of the benchmark used.
SEEDS = (0, 7919)

# Small trial counts for the traced runs; the correctness gate still applies.
SMALL_TRIALS = {"forge-n1": 300, "forge-n6": 12, "whole-n3": 200, "recovery-w2": 300}

# Workloads on which each traced span (or other per-layer prefix) must be nonzero.
ALL = tuple(bench.WORKLOADS)
EXERCISED_BY = {
    "qsim.tensor": ("forge-n1",),
    "qsim.fidelity": ALL,
    "qsim._project_out": ("forge-n1",),
    "qsim.apply_pauli": ("forge-n1",),
    "qsim.apply_unitary": ("forge-n1", "forge-n6", "whole-n3"),
    "qsim.bell_measure": ("forge-n1",),
    "qsim.measure_x": ("forge-n1",),
    "qsim.product_factors": ("forge-n1", "forge-n6"),
    "qsim.haar_random_state": ALL,
    "qsim.haar_random_unitary": ("whole-n3",),
    "qsim.StateVector.count": ALL,
    "qsim.unitary_cache": ("forge-n6",),
    "crypto": ("forge-n6", "whole-n3"),
    "comparison.swap_test": ("forge-n1", "whole-n3"),
    "protocol": ALL,
    "attacks.forge": ("forge-n1", "forge-n6", "whole-n3"),
    "attacks.map_trials": ("recovery-w2",),
    "cli": ALL,
    "serialize": ALL,
    "trace": (),
}
# Spans that no workload reaches: the measure-x variant with idealized
# comparison never disturbs the particles or SWAP-tests Bob's reconstruction.
NEVER_CALLED = ("qsim.apply_one_qubit", "comparison.compare_product")


def _small(name: str) -> bench.Workload:
    return dataclasses.replace(bench.WORKLOADS[name], trials=SMALL_TRIALS[name])


@pytest.fixture(scope="module")
def traced_runs():
    """One untraced and one traced invocation of each workload at small size."""
    runs = {}
    for name in bench.WORKLOADS:
        workload = _small(name)
        invocations = bench.run_invocations(workload, SEEDS[0], 0, traced=True)
        runs[name] = (workload, invocations, bench.check(workload, invocations))
    return runs


def test_traced_reports_match_untraced_and_pass_gate(traced_runs):
    for name, (_, invocations, _) in traced_runs.items():
        untraced, traced = invocations
        assert untraced.error is None and traced.error is None, name
        assert traced.traced and traced.report == untraced.report, name


def test_layer_metrics_nonzero_where_exercised(traced_runs):
    metrics = {name: bench.layer_metrics(invs) for name, (_, invs, _) in traced_runs.items()}
    for name in bench.layer_metric_units():
        prefix = next(
            p for p in (*EXERCISED_BY, *NEVER_CALLED) if name == p or name.startswith(p + ".")
        )
        if prefix in NEVER_CALLED:
            assert all(metrics[w][name] == 0 for w in ALL), name
        for workload in EXERCISED_BY.get(prefix, ()):
            assert metrics[workload][name] > 0, (name, workload)


def test_worker_counts_merged(traced_runs):
    workload, invocations, _ = traced_runs["recovery-w2"]
    trace = invocations[1].stats["trace"]
    assert trace["workers"] == 2
    assert trace["stats"]["protocol.run_protocol"][0] == workload.trials
    assert len(trace["durations"]["protocol.run_protocol"]) == workload.trials


def test_tracer_wraps_every_binding(traced_runs):
    sys.path.insert(0, bench.SRC)
    try:
        import aqsim
    finally:
        sys.path.remove(bench.SRC)
    originals = {id(getattr(getattr(aqsim, m), f)) for m, f in TRACED}
    expected = sorted(
        f"{mod_name}.{attr}"
        for mod_name, mod in sys.modules.items()
        if mod_name == "aqsim" or mod_name.startswith("aqsim.")
        for attr, value in vars(mod).items()
        if id(value) in originals
    )
    bindings = traced_runs["forge-n1"][1][1].stats["trace"]["bindings"]
    assert bindings == expected
    for alias in (
        "aqsim.crypto.apply_pauli",
        "aqsim.crypto.apply_unitary",
        "aqsim.crypto.haar_random_unitary",
        "aqsim.crypto.classical_decrypt",
        "aqsim.comparison.tensor",
        "aqsim.comparison.fidelity",
        "aqsim.comparison.product_factors",
        "aqsim.cli.run_protocol",
        "aqsim.cli.map_trials",
    ):
        assert alias in bindings


def test_recovery_report_independent_of_workers(tmp_path):
    workload = _small("recovery-w2")
    assert workload.cli_args[-2:] == ("--workers", "2")
    serial = dataclasses.replace(workload, cli_args=workload.cli_args[:-1] + ("1",))
    deadline = time.monotonic() + bench.HARD_LIMIT_S
    pooled = bench.invoke(workload, 12345, False, str(tmp_path), deadline)
    single = bench.invoke(serial, 12345, False, str(tmp_path), deadline)
    assert pooled.error is None and single.error is None
    assert pooled.report == single.report
    # Every trial run in the CLI's own process is clocked.
    (call,) = single.stats["trial_times"]
    assert call["trials"] == workload.trials
    assert all(ns > 0 for ns in call["wall"] + call["cpu"])
    assert len(call["ref_wall"]) == len(range(0, workload.trials, workload.trials // reference.CHUNKS))
    assert pooled.stats["trial_times"] == [{"trials": workload.trials, "workers": 2}]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_gate_passes_at_full_size(name, seed):
    workload = bench.WORKLOADS[name]
    invocations = bench.run_invocations(workload, seed, 0, traced=False)
    bench.check(workload, invocations)
    probes = [True] * bench.SETUP_PROBES
    assert [inv.setup_only for inv in invocations] == probes + [False] * bench.MIN_REPEATS
    assert len({inv.cli_seed for inv in invocations if not inv.setup_only}) == 1
    assert [inv.error for inv in invocations] == [None] * len(invocations)
    metrics = bench.end_to_end_metrics(workload, invocations)
    assert set(metrics) == set(bench.END_TO_END_UNITS)
    assert all(value > 0 for value in metrics.values())


def _clocked(trial_s: float, wall_ns: list[int]) -> bench.Invocation:
    ref_ns = [10**8]  # one reference chunk of 0.1 s timed in the phase
    call = {"trials": len(wall_ns), "wall": wall_ns, "cpu": wall_ns, "ref_wall": ref_ns, "ref_cpu": ref_ns}
    return bench.Invocation(1, False, trial_s=trial_s, cpu_s=trial_s, stats={"trial_times": [call]})


def test_floor_takes_each_trials_fastest_repeat():
    # Trial 0 was slowed in the first repeat, trial 1 in the second; the
    # remainders (phase minus trials and reference) are 0.5 and 0.25 s.
    repeats = [_clocked(3.6, [2 * 10**9, 10**9]), _clocked(3.35, [10**9, 2 * 10**9])]
    assert bench.floor_s(repeats, "wall", [r.trial_s for r in repeats]) == pytest.approx(2.25)
    assert bench.floor_s(repeats, "cpu", [r.cpu_s for r in repeats]) == pytest.approx(2.25)


def _fake(workload: bench.Workload, cli_seed: int, traced: bool, value: float) -> bench.Invocation:
    report = json.dumps({"results": {"trials": workload.trials, workload.result_key: value}})
    return bench.Invocation(cli_seed, traced, report=report.encode(), stats={})


def test_gate_rejects_a_wrong_value():
    workload = bench.WORKLOADS["forge-n1"]
    se = workload.sd / workload.trials**0.5
    ok = [_fake(workload, 1, False, workload.expected + 3 * se)]
    bench.check(workload, ok)
    assert ok[0].error is None
    miss = [_fake(workload, 1, False, workload.expected + 5 * se)]
    bench.check(workload, miss)
    assert "standard errors" in miss[0].error


def test_gate_rejects_a_traced_report_that_differs():
    workload = bench.WORKLOADS["forge-n1"]
    pair = [_fake(workload, 1, False, 0.75), _fake(workload, 1, True, 0.7501)]
    bench.check(workload, pair)
    assert pair[0].error is None
    assert "differs" in pair[1].error


def test_gate_rejects_a_repeat_that_differs():
    workload = bench.WORKLOADS["forge-n1"]
    repeats = [_fake(workload, 1, False, 0.75), _fake(workload, 1, False, 0.75), _fake(workload, 1, False, 0.7501)]
    bench.check(workload, repeats)
    assert [inv.error for inv in repeats[:2]] == [None, None]
    assert "repeat differs" in repeats[2].error


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "forge-n1", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.layer_metric_units()
