"""aqsim benchmark: Monte Carlo trial throughput of four CLI workloads.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports aqsim from `src/`. Each CLI
invocation runs in a fresh process, because a CLI user pays the cold
unitary cache and the Pauli-frame build on every invocation.

With `--trace 0` a run starts with a few set-up-only processes, then repeats
one invocation, at a CLI seed drawn from N, until S seconds are used. The
repeats do the same work trial for trial, so under a single worker each
trial's time is taken as the fastest of its repeats: that filters out the
host's slow spells, which are shorter than an invocation. Those times are
then divided by the host's slowdown over the run, measured by the reference
computation that `child.py` times among the trials (`reference.py`). Under
fan-out the unscaled median over the repeats is taken. `setup_s` is the
median over all processes.
The repeats' reports must be byte-identical and the result must match the
paper's value; the last stdout line reports the end-to-end metrics.

With `--trace 1` invocations at fresh CLI seeds run untraced and then traced
at the same seed, the two reports must be byte-identical, and the last line
reports the per-layer metrics of the traced invocations (means per
invocation). See README.md for what each metric and workload is for.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

from tracer import TRACED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

DEFAULT_SEED = 0

# A run must end within 180 s; invocations still going at this point are killed.
HARD_LIMIT_S = 170.0
# The pooled estimate may differ from the paper's value by this many standard errors.
GATE_SIGMAS = 4.0
# Set-up-only processes at the start of an untraced run, so that `setup_s` is
# a median of several set-ups even when the run has only a few invocations.
SETUP_PROBES = 8
# Repeats of the timed invocation in an untraced run, at the least.
MIN_REPEATS = 3
# numpy's BLAS runs on one thread in every invocation, so that a run does not
# depend on a second core of a shared host; README.md, "How a run works".
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# The reference floor of a host at nominal speed; every time of a
# single-worker workload is scaled to that speed. README.md, "Scaling to the
# host's nominal speed".
NOMINAL_REFERENCE_S = 2.0e-3


@dataclass(frozen=True)
class Workload:
    name: str
    cli_args: tuple[str, ...]
    trials: int  # per CLI invocation; README.md says how each was chosen
    result_key: str  # field of the report's "results" compared with `expected`
    expected: float  # the paper's value
    sd: float  # per-trial standard deviation of that field at `expected`

    @property
    def workers(self) -> int:
        return int(self.cli_args[self.cli_args.index("--workers") + 1])


# Every workload uses the measure-x / alice-only / message-R' variant.
_VARIANT = ("--r-prime", "message", "--mt", "measure-x", "--knowledge", "alice-only")
_PER_QUBIT = ("--key-model", "per-qubit", "--comparison", "per-qubit")


def _acceptance(p: float) -> float:
    return math.sqrt(p * (1.0 - p))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "forge-n1",
            ("--scenario", "forgery", "--n", "1", "--m", "1", *_VARIANT, *_PER_QUBIT, "--workers", "1"),
            trials=3000,
            result_key="acceptance_rate",
            expected=0.75,
            sd=_acceptance(0.75),
        ),
        Workload(
            "forge-n6",
            ("--scenario", "forgery", "--n", "6", "--m", "2", *_VARIANT, *_PER_QUBIT, "--workers", "1"),
            trials=800,
            result_key="acceptance_rate",
            expected=0.5625,
            sd=_acceptance(0.5625),
        ),
        Workload(
            "whole-n3",
            (
                "--scenario", "forgery", "--strategy", "replace-whole-register", "--n", "3",
                *_VARIANT, "--key-model", "general", "--comparison", "whole-register",
                "--workers", "1",
            ),
            trials=2000,
            result_key="acceptance_rate",
            expected=0.5625,
            sd=_acceptance(0.5625),
        ),
        Workload(
            "recovery-w2",
            ("--scenario", "recovery-failure", "--n", "1", *_VARIANT, *_PER_QUBIT, "--workers", "2"),
            trials=10000,
            result_key="mean_candidate_fidelity",
            expected=2.0 / 3.0,
            # For a Haar qubit with Bloch x-coordinate u ~ U[-1, 1], Bob's
            # candidate has fidelity (1 +/- u)/2 with probability (1 +/- u)/2:
            # E[F] = 2/3, E[F^2] = 1/2, so Var[F] = 1/18.
            sd=math.sqrt(1.0 / 18.0),
        ),
    )
}

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "cpu_us_per_trial": "us",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

# Suffixes reported for each traced span; the rest get calls and self_s.
_SPAN_SUFFIXES = {
    "protocol.run_protocol": ("p50_us", "p99_us"),
    "protocol.build_pauli_frame": ("s",),
    "cli.validate_config": ("s",),
    "attacks.map_trials": ("wall_s", "cpu_s"),
    "serialize.dumps": ("self_s",),
}
_SUFFIX_UNITS = {"calls": "count", "self_s": "s", "s": "s", "wall_s": "s", "cpu_s": "s", "p50_us": "us", "p99_us": "us"}
_EXTRA_LAYER_UNITS = {
    "qsim.StateVector.count": "count",
    "qsim.unitary_cache.entries": "count",
    "qsim.unitary_cache.bytes": "B",
    "trace.overhead_pct": "%",
}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name, in report order, with its unit."""
    units = {}
    for mod, fn in TRACED:
        span = f"{mod}.{fn}"
        for suffix in _SPAN_SUFFIXES.get(span, ("calls", "self_s")):
            units[f"{span}.{suffix}"] = _SUFFIX_UNITS[suffix]
    units.update(_EXTRA_LAYER_UNITS)
    return units


# ---------------------------------------------------------------------------
# One CLI invocation


@dataclass
class Invocation:
    cli_seed: int
    traced: bool
    setup_only: bool = False
    error: str | None = None
    setup_s: float = math.nan
    trial_s: float = math.nan
    cpu_s: float = math.nan  # trial-phase user+sys CPU of the process tree
    peak_rss_mib: float = math.nan  # largest peak RSS of any process in the tree
    report: bytes = b""
    stats: dict | None = None


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)  # the CLI and its pool workers
    except ProcessLookupError:
        pass


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap proc with its rusage (which includes its reaped children); kill it at deadline."""
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, ru


def invoke(
    workload: Workload, cli_seed: int, traced: bool, workdir: str, deadline: float, setup_only: bool = False
) -> Invocation:
    inv = Invocation(cli_seed, traced, setup_only)
    d = tempfile.mkdtemp(prefix="inv-", dir=workdir)
    stats_path = os.path.join(d, "stats.json")
    report_path = os.path.join(d, "report.json")
    cmd = [
        sys.executable, CHILD, stats_path, "setup" if setup_only else "trace" if traced else "run",
        *workload.cli_args,
        "--trials", str(workload.trials), "--seed", str(cli_seed), "--out", report_path,
    ]
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
        **BLAS_THREADS,
    )
    with open(os.path.join(d, "output.txt"), "wb") as log:
        start_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(
            cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=d, start_new_session=True
        )
        code, ru = _wait(proc, deadline)
    if code != 0:
        with open(os.path.join(d, "output.txt"), errors="replace") as f:
            tail = f.read()[-400:].strip().replace("\n", " | ")
        inv.error = f"exit code {code}: {tail}"
        return inv
    try:
        with open(stats_path) as f:
            stats = json.load(f)
        if not setup_only:
            with open(report_path, "rb") as f:
                inv.report = f.read()
    except (OSError, ValueError) as e:
        inv.error = f"missing output: {e}"
        return inv
    if os.path.commonpath([stats["aqsim_file"], SRC]) != SRC:
        inv.error = f"imported aqsim from {stats['aqsim_file']}, not from {SRC}"
        return inv
    inv.stats = stats
    inv.setup_s = (stats["ready_ns"] - start_ns) / 1e9
    if setup_only:
        return inv
    inv.trial_s = (stats["done_ns"] - stats["ready_ns"]) / 1e9
    inv.cpu_s = ru.ru_utime + ru.ru_stime - stats["setup_cpu_s"]
    inv.peak_rss_mib = ru.ru_maxrss / 1024.0  # KiB on Linux
    return inv


def result_value(workload: Workload, inv: Invocation) -> float:
    """The checked quantity from an invocation's report; sets inv.error if malformed."""
    try:
        results = json.loads(inv.report)["results"]
        if results["trials"] != workload.trials:
            raise ValueError(f"report has {results['trials']} trials, expected {workload.trials}")
        return float(results[workload.result_key])
    except (ValueError, KeyError, TypeError) as e:
        inv.error = f"bad report: {e}"
        return math.nan


# ---------------------------------------------------------------------------
# One benchmark run


def run_invocations(workload: Workload, seed: int, seconds: float, traced: bool) -> list[Invocation]:
    """Invoke the CLI for about `seconds`.

    Untraced runs make SETUP_PROBES set-up-only processes, then repeat one
    CLI seed at least MIN_REPEATS times, and no more once the next repeat
    would end past `seconds`. Traced runs invoke fresh CLI seeds, each
    twice, untraced then traced, until `seconds` have passed (at least once).
    """
    seeds = random.Random(seed)
    start = time.monotonic()
    budget = min(seconds, HARD_LIMIT_S)
    deadline = start + HARD_LIMIT_S
    invocations: list[Invocation] = []
    workdir = tempfile.mkdtemp(prefix=".benchrun-", dir=ROOT)
    try:
        if not traced:
            for _ in range(SETUP_PROBES):
                invocations.append(invoke(workload, seed, False, workdir, deadline, setup_only=True))
            cli_seed = seeds.randrange(2**31)
            for repeat in itertools.count(1):
                began = time.monotonic()
                invocations.append(invoke(workload, cli_seed, False, workdir, deadline))
                now = time.monotonic()
                if repeat >= MIN_REPEATS and now + (now - began) - start > budget:
                    break
        while traced:
            cli_seed = seeds.randrange(2**31)
            invocations.append(invoke(workload, cli_seed, False, workdir, deadline))
            invocations.append(invoke(workload, cli_seed, True, workdir, deadline))
            if time.monotonic() - start >= budget:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return invocations


def check(workload: Workload, invocations: list[Invocation]) -> dict:
    """Correctness gate over the run: exits, reports, determinism and the paper's value.

    Every invocation at a CLI seed, traced or repeated, must write the same
    report as the first untraced one. Marks failed invocations (error set)
    and returns the estimate pooled over the distinct CLI seeds.
    """
    probes = [inv for inv in invocations if inv.setup_only]
    invocations = [inv for inv in invocations if not inv.setup_only]
    untraced = {}
    for inv in invocations:
        if not inv.traced and inv.error is None:
            untraced.setdefault(inv.cli_seed, inv)
    for inv in invocations:
        first = untraced.get(inv.cli_seed)
        if inv.error is None and first is not None and inv.report != first.report:
            what = "traced report" if inv.traced else "report of a repeat"
            inv.error = f"{what} differs from the first untraced report"
    values = [result_value(workload, inv) for inv in untraced.values()]
    trials = workload.trials * len(values)
    estimate = statistics.fmean(values) if values else math.nan
    se = workload.sd / math.sqrt(trials) if trials else math.nan
    within = bool(values) and abs(estimate - workload.expected) <= GATE_SIGMAS * se
    if not within:
        # The miss belongs to the pooled run, not to one invocation.
        for inv in probes + invocations:
            inv.error = inv.error or (
                f"pooled {workload.result_key} {estimate:.5f} over {trials} trials is more "
                f"than {GATE_SIGMAS:g} standard errors ({se:.5f}) from {workload.expected:.5f}"
            )
    return {"estimate": estimate, "trials": trials, "se": se, "expected": workload.expected}


def _trial_ns(inv: Invocation, field: str) -> list[int]:
    return [ns for call in inv.stats["trial_times"] for ns in call[field]]


def floor_s(repeats: list[Invocation], field: str, total_s: list[float]) -> float:
    """A single-worker trial phase's time with the host's slow spells filtered out.

    Each trial takes the smallest of its times over the repeats. The rest of
    the phase (the report write), less the reference chunks timed in it,
    takes the smallest of the repeats' remainders.
    """
    per_trial = [_trial_ns(inv, field) for inv in repeats]
    fastest = sum(map(min, zip(*per_trial))) / 1e9
    return fastest + min(
        total - sum(ns) / 1e9 - sum(_trial_ns(inv, "ref_" + field)) / 1e9
        for inv, total, ns in zip(repeats, total_s, per_trial)
    )


def host_slowdown(invocations: list[Invocation]) -> float:
    """How much slower than nominal the host ran the reference during the run.

    1 is nominal speed, 2 half of it.
    The reference floor takes each chunk position's fastest time over the
    repeats, as the trial floor does for each trial.
    """
    chunks = [_trial_ns(inv, "ref_wall") for inv in invocations]
    floor = sum(map(min, zip(*chunks))) / len(chunks[0]) / 1e9
    return floor / NOMINAL_REFERENCE_S


def end_to_end_metrics(workload: Workload, invocations: list[Invocation]) -> dict[str, float]:
    """Trial-phase times over the repeats of the timed invocation; medians of memory and set-up.

    A single-worker phase is timed by its floor, and every time is divided
    by the run's host slowdown. Under fan-out the workers slow each other,
    and a trial's fastest repeat tends to be one that ran while the other
    worker idled, so the floor would hide the fan-out cost: there each time
    is the median over the repeats, unscaled.
    """
    ok = [inv for inv in invocations if inv.stats is not None]
    runs = [inv for inv in ok if not inv.setup_only]
    if not runs:
        return {}
    if workload.workers == 1:
        wall_s = floor_s(runs, "wall", [inv.trial_s for inv in runs])
        cpu_s = floor_s(runs, "cpu", [inv.cpu_s for inv in runs])
        slowdown = host_slowdown(runs)
    else:
        wall_s = statistics.median(inv.trial_s for inv in runs)
        cpu_s = statistics.median(inv.cpu_s for inv in runs)
        slowdown = 1.0
    return {
        "trials_per_s": workload.trials * slowdown / wall_s,
        "cpu_us_per_trial": 1e6 * cpu_s / slowdown / workload.trials,
        "peak_rss_mb": statistics.median(inv.peak_rss_mib for inv in runs),
        "setup_s": statistics.median(inv.setup_s for inv in ok) / slowdown,
    }


def layer_metrics(invocations: list[Invocation]) -> dict[str, float]:
    """Means per traced invocation, latency percentiles over all traced trials, and overhead."""
    pairs = {}
    for inv in invocations:
        if inv.stats is not None and not inv.setup_only:
            pairs.setdefault(inv.cli_seed, {})[inv.traced] = inv
    pairs = [p for p in pairs.values() if len(p) == 2]
    if not pairs:
        return {}
    traces = [p[True].stats["trace"] for p in pairs]
    k = len(traces)

    def total(field):
        return sum(t[field] for t in traces)

    metrics = {}
    for mod, fn in TRACED:
        span = f"{mod}.{fn}"
        calls, wall, self_wall, self_cpu = (sum(col) for col in zip(*(t["stats"][span] for t in traces)))
        per_suffix = {
            "calls": calls / k,
            "self_s": self_wall / k / 1e9,
            "s": wall / k / 1e9,
            "wall_s": self_wall / k / 1e9,
            "cpu_s": self_cpu / k / 1e9,
        }
        if span == "protocol.run_protocol":
            durations = [d for t in traces for d in t["durations"][span]]
            cuts = statistics.quantiles(durations, n=100)
            per_suffix["p50_us"] = cuts[49] / 1e3
            per_suffix["p99_us"] = cuts[98] / 1e3
        for suffix in _SPAN_SUFFIXES.get(span, ("calls", "self_s")):
            metrics[f"{span}.{suffix}"] = per_suffix[suffix]
    metrics["qsim.StateVector.count"] = total("constructions") / k
    metrics["qsim.unitary_cache.entries"] = total("cache_entries") / k
    metrics["qsim.unitary_cache.bytes"] = total("cache_bytes") / k
    metrics["trace.overhead_pct"] = 100.0 * statistics.median(
        p[True].trial_s / p[False].trial_s - 1.0 for p in pairs
    )
    return metrics


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "aqsim", "__init__.py")):
        print(f"error: no aqsim source under {SRC}; run from a repository checkout", file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    invocations = run_invocations(workload, args.seed, args.seconds, traced)
    gate = check(workload, invocations)
    numpy_version = next((inv.stats["numpy"] for inv in invocations if inv.stats), "unknown")
    print(
        f"host: nproc {os.cpu_count()}, Python {platform.python_version()}, numpy {numpy_version}",
        file=sys.stderr,
    )
    failed = [inv for inv in invocations if inv.error is not None]
    for inv in failed:
        print(f"failed: cli seed {inv.cli_seed} traced={inv.traced}: {inv.error}", file=sys.stderr)
    if traced:
        values, units = layer_metrics(invocations), layer_metric_units()
    else:
        values, units = end_to_end_metrics(workload, invocations), END_TO_END_UNITS
    if len(values) != len(units):
        print("error: no invocation succeeded, so no metric was measured", file=sys.stderr)
        return 1

    probes = sum(inv.setup_only for inv in invocations)
    print(
        f"{workload.name}: {len(invocations) - probes} invocations of {workload.trials} trials "
        f"and {probes} set-up-only, "
        f"{len(failed)} failed (failed_frac {len(failed) / len(invocations):.4f}); "
        f"pooled {workload.result_key} {gate['estimate']:.5f} +/- {gate['se']:.5f} "
        f"over {gate['trials']} trials, paper {gate['expected']:.5f}"
    )
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    if not traced and workload.workers == 1:
        timed = [inv for inv in invocations if inv.stats is not None and not inv.setup_only]
        print(f"  (times scaled by host slowdown {host_slowdown(timed):.4f})")
    result = {
        "correct": not failed,
        "attempted": len(invocations),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
