"""Reproducible scenario runner.

Every scenario is driven by an ExperimentConfig (flags, optionally on top of a
JSON config file; flags win). A report is the scenario's results, written as
JSON or as the CSV derived from them; a short human summary goes to stdout.
Identical configs, including the seed, produce byte-identical report files
regardless of --workers.

Exit codes: 0 success, 2 invalid config, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import gc
import io
import itertools
import json
import os
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import attacks, comparison, qsim, serialize
from .attacks import ForgeryStrategy, StrategyKind, map_trials, rate_with_ci
from .crypto import SigningModel
from .protocol import (
    MAX_N_WHOLE_REGISTER,
    ComparisonMode,
    MessageKnowledge,
    MtMode,
    ProtocolVariant,
    RPrimeSource,
    RunConfig,
    corrected_share_fidelity,
    pauli_frame,
    run_protocol,
)
from .qsim import BellOutcome, PauliOp, StateVector, XOutcome

OUTPUT_DIR_ENV = "AQSIM_OUT_DIR"
DEFAULT_SEED = 0

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


class Scenario(Enum):
    HONEST = "honest"
    FORGERY = "forgery"
    Q_ESTIMATE = "q-estimate"
    CORRELATION_TABLE = "correlation-table"
    RECOVERY_FAILURE = "recovery-failure"


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: Scenario
    run: RunConfig  # n and variant
    strategy: ForgeryStrategy  # kind and m; forgery alone reads it
    trials: int
    seed: int
    output_path: str
    format: str  # "json" or "csv"
    workers: int


class ConfigError(Exception):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


# --mt's short spelling; every other variant flag takes exactly its enum's values
_MT_ALIASES = {"forward": MtMode.FORWARD_PARTICLE.value}

# The scenarios that run the protocol, and so read its variant flags
_PROTOCOL_SCENARIOS = (Scenario.HONEST, Scenario.FORGERY, Scenario.RECOVERY_FAILURE)
_TRIAL_SCENARIOS = tuple(s for s in Scenario if s is not Scenario.CORRELATION_TABLE)
# Flags that only some scenarios read: (argparse dest, the flag that error
# lines name, what it sets, the scenarios that read it). Any other scenario
# rejects the flag, rather than ignoring it.
_SCOPED_FLAGS = (
    ("strategy", "--strategy", "picks a forgery", (Scenario.FORGERY,)),
    ("n", "--n", "applies to Monte Carlo trials", _TRIAL_SCENARIOS),
    ("trials", "--trials", "applies to Monte Carlo trials", _TRIAL_SCENARIOS),
    ("workers", "--workers", "applies to Monte Carlo trials", _TRIAL_SCENARIOS),
    ("r_prime", "--r-prime", "sets a protocol variant", _PROTOCOL_SCENARIOS),
    ("mt", "--mt", "sets a protocol variant", _PROTOCOL_SCENARIOS),
    ("knowledge", "--knowledge", "sets a protocol variant", _PROTOCOL_SCENARIOS),
    ("key_model", "--key-model", "sets a protocol variant", _PROTOCOL_SCENARIOS),
    ("comparison", "--comparison", "sets a protocol variant", _PROTOCOL_SCENARIOS),
)


def _choices(enum) -> list[str]:
    return sorted(e.value for e in enum)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="aqsim",
        description="Arbitrated quantum signature protocol: scenario runner",
    )
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--scenario", choices=[s.value for s in Scenario])
    p.add_argument("--n", type=int, help="message qubits (default 1)")
    p.add_argument("--m", type=int, help="forged qubits (forgery scenario)")
    p.add_argument("--trials", type=int, help="Monte Carlo trials (default 10000)")
    p.add_argument("--seed", type=int, help=f"master seed (default {DEFAULT_SEED})")
    p.add_argument(
        "--variant-r-prime", "--r-prime", dest="r_prime", choices=_choices(RPrimeSource)
    )
    p.add_argument("--variant-mt", "--mt", dest="mt", choices=sorted([*_choices(MtMode), *_MT_ALIASES]))
    p.add_argument("--knowledge", choices=_choices(MessageKnowledge))
    p.add_argument("--key-model", dest="key_model", choices=_choices(SigningModel))
    p.add_argument("--comparison", choices=_choices(ComparisonMode))
    p.add_argument("--strategy", choices=_choices(StrategyKind))
    p.add_argument("--out", help="report path (default <scenario>.<format> in $AQSIM_OUT_DIR or cwd)")
    p.add_argument("--format", choices=["json", "csv"])
    p.add_argument("--workers", type=int, help="parallel trial workers (default 1)")
    return p


def _file_args(path: str) -> argparse.Namespace:
    """A JSON config file's values, each checked and parsed as the value of its
    flag (key `key_model` for `--key-model`); a key that names no flag, or
    `config`, is an error, whatever its value."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as e:
        raise ConfigError([f"cannot read config file: {e}"])
    except json.JSONDecodeError as e:
        raise ConfigError([f"config file is not valid JSON: {e}"])
    if not isinstance(raw, dict):
        raise ConfigError(["config file must hold a JSON object"])
    parser = build_parser()
    parser.exit_on_error = False
    parser.allow_abbrev = False
    flags = {option for action in parser._actions for option in action.option_strings}
    values = argparse.Namespace()
    errors = []
    for key, value in raw.items():
        flag = f"--{key.replace('_', '-')}"
        if flag not in flags:
            errors.append(f"config file key {key!r} names no flag")
            continue
        if key == "config":
            errors.append(f"config file key {key!r} names another config file, which is not read")
            continue
        if value is None:
            continue
        try:
            parser.parse_known_args([f"{flag}={value}"], values)
        except argparse.ArgumentError as e:
            errors.append(f"config file key {key!r}: {e.message}")
    if errors:
        raise ConfigError(errors)
    return values


def validate_config(args: argparse.Namespace) -> ExperimentConfig:
    file_args = _file_args(args.config) if args.config else argparse.Namespace()

    def pick(dest, default):
        """The flag's value, else the config file's, else the default."""
        for source in (args, file_args):
            value = getattr(source, dest, None)
            if value is not None:
                return value
        return default

    scenario = pick("scenario", None)
    if scenario is None:
        raise ConfigError(["--scenario is required"])
    scenario = Scenario(scenario)

    n = pick("n", 1)
    m = pick("m", None)
    trials = pick("trials", 10000)
    seed = pick("seed", DEFAULT_SEED)
    workers = pick("workers", 1)
    fmt = pick("format", "json")

    errors = []
    if n < 1:
        errors.append(f"--n must be >= 1, got {n}")
    if trials < 1:
        errors.append(f"--trials must be >= 1, got {trials}")
    if workers < 1:
        errors.append(f"--workers must be >= 1, got {workers}")
    if seed < 0:
        errors.append(f"--seed must be >= 0, got {seed}")

    for dest, flag, sets, readers in _SCOPED_FLAGS:
        value = pick(dest, None)
        if value is not None and scenario not in readers:
            errors.append(f"{flag} {value} {sets}, which --scenario {scenario.value} does not run")
    kind = StrategyKind(pick("strategy", "replace-qubits"))
    if scenario is Scenario.FORGERY and kind is StrategyKind.REPLACE_QUBITS:
        if m is None:
            m = 1
    elif m is not None:
        used = f"--strategy {kind.value}" if scenario is Scenario.FORGERY else f"--scenario {scenario.value}"
        errors.append(f"--m {m} counts replaced qubits, which {used} does not replace")
    strategy = ForgeryStrategy(kind, m)

    mt = pick("mt", "measure-x")
    variant = ProtocolVariant(
        r_prime_source=RPrimeSource(pick("r_prime", "message")),
        m_t_mode=MtMode(_MT_ALIASES.get(mt, mt)),
        message_knowledge=MessageKnowledge(pick("knowledge", "alice-only")),
        key_model=SigningModel(pick("key_model", "per-qubit")),
        comparison_mode=ComparisonMode(pick("comparison", "per-qubit")),
    )

    out = pick("out", None)
    if out is None:
        out_dir = os.environ.get(OUTPUT_DIR_ENV, ".")
        out = os.path.join(out_dir, f"{scenario.value}.{fmt}")

    if scenario is Scenario.Q_ESTIMATE and n > MAX_N_WHOLE_REGISTER:
        errors.append(f"--n {n} exceeds {MAX_N_WHOLE_REGISTER}, the largest n for --scenario q-estimate")
    # the library's own rules, one error line for each that is broken
    try:
        if scenario is Scenario.FORGERY:
            strategy.validate(n, variant)
        elif scenario is Scenario.RECOVERY_FAILURE:
            attacks.validate_recovery_variant(variant)
    except ValueError as e:
        errors += e.args
    try:
        run = RunConfig(n, variant)
    except ValueError as e:
        # n < 1 has its line above, and so has every way a scenario that runs
        # no protocol can break these rules
        if scenario in _PROTOCOL_SCENARIOS and n >= 1 or not errors:
            errors += e.args

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        scenario=scenario,
        run=run,
        strategy=strategy,
        trials=trials,
        seed=seed,
        output_path=out,
        format=fmt,
        workers=workers,
    )


# ---------------------------------------------------------------------------
# Scenarios. Each returns (results, summary lines); results is the report's
# JSON `results`, and its CSV is derived from it (_csv_report).


def _honest_trials(config: RunConfig, rng: np.random.Generator, size: int, **_):
    t = run_protocol(config, rng, size=size)
    return t.gamma, t.accepted


def scenario_honest(cfg: ExperimentConfig):
    gammas, accepted = map_trials(
        _honest_trials, cfg.trials, cfg.seed, cfg.workers, width=attacks.state_width(cfg.run), config=cfg.run
    )
    res = {"trials": cfg.trials}
    res["gamma_rate"], res["gamma_ci"] = rate_with_ci(gammas)
    res["acceptance_rate"], res["acceptance_ci"] = rate_with_ci(accepted)
    summary = [
        f"honest: gamma rate {res['gamma_rate']:.4f}, acceptance {res['acceptance_rate']:.4f} "
        f"({cfg.trials} trials)"
    ]
    return res, summary


def scenario_forgery(cfg: ExperimentConfig):
    res = attacks.estimate_forgery_acceptance(cfg.run, cfg.strategy, cfg.trials, cfg.seed, cfg.workers)
    pred = res["analytic_prediction"]
    summary = [
        f"forgery ({res['strategy']}, n={res['n']}, m={res['m']}): "
        f"acceptance {res['acceptance_rate']:.4f} "
        f"[{res['ci_low']:.4f}, {res['ci_high']:.4f}], "
        f"prediction {'n/a' if pred is None else f'{pred:.4f}'} "
        f"({res['trials']} trials)"
    ]
    return res, summary


def _q_trials(n: int, rng: np.random.Generator, size: int, **_):
    a = qsim.haar_random_state(n, rng, (size,))
    b = qsim.haar_random_state(n, rng, (size,))
    return (comparison.swap_test(a, b, rng),)


def scenario_q_estimate(cfg: ExperimentConfig):
    rows = []
    for n in range(1, cfg.run.n + 1):
        # the two Haar states are the widest arrays: 2^n amplitudes
        (different,) = map_trials(_q_trials, cfg.trials, cfg.seed, cfg.workers, width=2**n, n=n)
        empirical_q, ci = rate_with_ci(different)
        rows.append(
            {
                "n": n,
                "analytic_q": comparison.average_q(n),
                "empirical_q": empirical_q,
                "ci": ci,
                "trials": cfg.trials,
            }
        )
    summary = [
        f"q(n={r['n']}): analytic {r['analytic_q']:.4f}, empirical {r['empirical_q']:.4f}"
        for r in rows
    ]
    return {"rows": rows}, summary


def scenario_correlation_table(cfg: ExperimentConfig):
    frame = pauli_frame()
    rng = np.random.default_rng(cfg.seed)
    # drawn one by one, so each probe is the one earlier reports drew
    probes = StateVector.owning(np.stack([qsim.haar_random_state(1, rng).amplitudes for _ in range(100)]))
    rows = []
    for m_a, m_b in sorted(itertools.product(BellOutcome, XOutcome), key=lambda pair: (pair[0].value, pair[1].value)):
        pauli = tuple(PauliOp)[frame[m_a, m_b]]
        worst = min(1.0, corrected_share_fidelity(probes, m_a, m_b, pauli).min())
        rows.append(
            {
                "bell": m_a.value,
                "x": m_b.value,
                "pauli": pauli.value,
                "verified": bool(worst >= 1.0 - qsim.ATOL),
                "min_fidelity": worst,
                "probes": len(probes.amplitudes),
            }
        )
    summary = [f"({r['bell']}, {r['x']}) -> {r['pauli']}  verified={r['verified']}" for r in rows]
    return {"rows": rows}, summary


def scenario_recovery_failure(cfg: ExperimentConfig):
    mean_fid = attacks.recovery_failure_experiment(cfg.run, cfg.trials, cfg.seed, cfg.workers)
    res = {"trials": cfg.trials, "mean_candidate_fidelity": mean_fid}
    summary = [f"recovery failure: mean candidate fidelity {mean_fid:.4f} ({cfg.trials} trials)"]
    return res, summary


_SCENARIOS = {
    Scenario.HONEST: scenario_honest,
    Scenario.FORGERY: scenario_forgery,
    Scenario.Q_ESTIMATE: scenario_q_estimate,
    Scenario.CORRELATION_TABLE: scenario_correlation_table,
    Scenario.RECOVERY_FAILURE: scenario_recovery_failure,
}


# The CSV rule's two exceptions (_csv_report): forgery's columns, header ->
# results key, which rename acceptance_rate and analytic_prediction and leave
# out gamma_rate and mean_fidelity; and correlation-table's 12-decimal min_fidelity.
_CSV_COLUMNS = {
    Scenario.FORGERY: dict(
        strategy="strategy", n="n", m="m", trials="trials", acceptance="acceptance_rate",
        prediction="analytic_prediction", ci_low="ci_low", ci_high="ci_high",
    ),
}
_CSV_DECIMALS = {"min_fidelity": 12}


def _csv_report(results: dict, columns: dict | None) -> str:
    """A report's CSV: a line for each row of the results' table `rows`, or
    one for the results. Its columns are a row's keys, or the headers of
    `columns`; a [low, high] pair under key k is the columns k_low and k_high.
    A float has 6 decimals unless _CSV_DECIMALS says otherwise, and None is
    an empty cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for i, row in enumerate(results.get("rows", [results])):
        if columns:
            row = {name: row[key] for name, key in columns.items()}
        cells = {}
        for key, value in row.items():
            if isinstance(value, list):
                cells[f"{key}_low"], cells[f"{key}_high"] = value
            else:
                cells[key] = value
        if i == 0:
            writer.writerow(cells)
        writer.writerow(f"{v:.{_CSV_DECIMALS.get(k, 6)}f}" if isinstance(v, float) else v for k, v in cells.items())
    return buf.getvalue()


def _config_echo(cfg: ExperimentConfig) -> dict:
    return {
        "scenario": cfg.scenario.value,
        "n": cfg.run.n,
        "m": cfg.strategy.m,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "variant": serialize.variant_to_dict(cfg.run.variant),
        "strategy": cfg.strategy.kind.value,
        "format": cfg.format,
    }


# glibc's mallopt parameters (malloc.h) and the values this process keeps:
# arrays below 32 MiB come from the heap, not from mmap, and freed heap memory
# is kept up to 256 MiB, so each block reuses the pages the one before it
# freed instead of faulting in fresh ones.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_HEAP_POLICY = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 256 << 20))


def _libc():
    return ctypes.CDLL(None)


@functools.cache
def keep_freed_memory() -> tuple[int, ...]:
    """Apply _HEAP_POLICY to this process's allocator, once per process;
    forked workers inherit it. Returns each mallopt call's result (1 where
    glibc took it), or () where the C library has no mallopt."""
    mallopt = getattr(_libc(), "mallopt", None)
    if mallopt is None:
        return ()
    return tuple(mallopt(param, value) for param, value in _HEAP_POLICY)


@functools.cache
def freeze_set_up_heap() -> None:
    """Move every object alive now (modules, config, Pauli frame) to the
    garbage collector's permanent generation, once per process; forked workers
    inherit it. No later collection walks them again, the interpreter's
    collections at exit included; objects made after it are collected as
    before."""
    gc.freeze()


def run_scenario(cfg: ExperimentConfig) -> int:
    keep_freed_memory()
    pauli_frame()  # built once here, so forked workers inherit it
    freeze_set_up_heap()
    results, summary = _SCENARIOS[cfg.scenario](cfg)
    if cfg.format == "json":
        payload = serialize.dumps({"config": _config_echo(cfg), "results": results})
    else:
        payload = _csv_report(results, _CSV_COLUMNS.get(cfg.scenario))
    try:
        if os.path.dirname(cfg.output_path):
            os.makedirs(os.path.dirname(cfg.output_path), exist_ok=True)
        with open(cfg.output_path, "w") as f:
            f.write(payload)
    except OSError as e:
        print(f"error: cannot write report: {e}", file=sys.stderr)
        return EXIT_IO
    for line in summary:
        print(line)
    print(f"report written to {cfg.output_path}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = validate_config(args)
    except ConfigError as e:
        for err in e.errors:
            print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return run_scenario(cfg)
    except (ValueError, KeyError) as e:
        print(f"error: invalid configuration: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
