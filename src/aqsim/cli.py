"""Reproducible scenario runner.

Every scenario is driven by an ExperimentConfig (flags, optionally on top of a
JSON config file; flags win). Reports are machine-first JSON or CSV; a short
human summary goes to stdout. Identical configs, including the seed, produce
byte-identical report files regardless of --workers.

Exit codes: 0 success, 2 invalid config, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import attacks, comparison, qsim, serialize
from .attacks import ForgeryStrategy, StrategyKind, binomial_ci, map_trials
from .crypto import SigningModel
from .protocol import (
    ComparisonMode,
    MessageKnowledge,
    MtMode,
    ProtocolVariant,
    RPrimeSource,
    RunConfig,
    build_pauli_frame,
    corrected_share_fidelity,
    run_protocol,
)

OUTPUT_DIR_ENV = "AQSIM_OUT_DIR"
DEFAULT_SEED = 0

# Largest --n per path. Per-qubit keys and comparison keep every register as n
# blocks of at most 4 qubits (a message qubit and its GHZ triple), each step one
# call over all of them, so memory is linear in n. Whole-register paths act on
# 2^n amplitudes; at n = 6 the SWAP test's joint state has 12 qubits, the most
# qsim.ATOL allows.
MAX_N_PER_QUBIT = 64
MAX_N_WHOLE_REGISTER = 6

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
    n: int
    m: int | None
    trials: int
    seed: int
    variant: ProtocolVariant
    idealized_comparison: bool
    strategy: StrategyKind
    output_path: str
    format: str  # "json" or "csv"
    workers: int

    def run_config(self) -> RunConfig:
        return RunConfig(self.n, self.variant, self.idealized_comparison)


class ConfigError(Exception):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


# --mt's short spelling; every other variant flag takes exactly its enum's values
_MT_ALIASES = {"forward": MtMode.FORWARD_PARTICLE.value}


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
    p.add_argument(
        "--idealized-comparison",
        dest="idealized",
        choices=["true", "false"],
        help="compare on copies, leaving states undisturbed (default true)",
    )
    p.add_argument("--strategy", choices=_choices(StrategyKind))
    p.add_argument("--out", help="report path (default <scenario>.<format> in $AQSIM_OUT_DIR or cwd)")
    p.add_argument("--format", choices=["json", "csv"])
    p.add_argument("--workers", type=int, help="parallel trial workers (default 1)")
    return p


def _file_args(path: str) -> argparse.Namespace:
    """A JSON config file's values, each checked and parsed as the value of its
    flag (key `key_model` for `--key-model`); a key that names no flag is an
    error, whatever its value."""
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
        if value is None:
            continue
        text = json.dumps(value) if isinstance(value, bool) else str(value)
        try:
            parser.parse_known_args([f"{flag}={text}"], values)
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

    strategy = StrategyKind(pick("strategy", "replace-qubits"))
    if scenario is Scenario.FORGERY and strategy is StrategyKind.REPLACE_QUBITS:
        if m is None:
            m = 1
        if not 1 <= m <= n:
            errors.append(f"--m {m} must satisfy 1 <= m <= n (--n {n})")
    elif m is not None:
        used = f"--strategy {strategy.value}" if scenario is Scenario.FORGERY else f"--scenario {scenario.value}"
        errors.append(f"--m {m} counts replaced qubits, which {used} does not replace")

    mt = pick("mt", "measure-x")
    variant = ProtocolVariant(
        r_prime_source=RPrimeSource(pick("r_prime", "message")),
        m_t_mode=MtMode(_MT_ALIASES.get(mt, mt)),
        message_knowledge=MessageKnowledge(pick("knowledge", "alice-only")),
        key_model=SigningModel(pick("key_model", "per-qubit")),
        comparison_mode=ComparisonMode(pick("comparison", "per-qubit")),
    )
    idealized = pick("idealized", "true") == "true"

    out = pick("out", None)
    if out is None:
        out_dir = os.environ.get(OUTPUT_DIR_ENV, ".")
        out = os.path.join(out_dir, f"{scenario.value}.{fmt}")

    if scenario is Scenario.Q_ESTIMATE and n > MAX_N_WHOLE_REGISTER:
        errors.append(f"--n {n} exceeds {MAX_N_WHOLE_REGISTER}, the largest n for --scenario q-estimate")
    if scenario is Scenario.RECOVERY_FAILURE and variant.m_t_mode is not MtMode.MEASURE_X:
        errors.append(
            f"--scenario recovery-failure rebuilds Bob's candidate from M_t's x outcome, "
            f"which --mt {variant.m_t_mode.value} does not measure"
        )
    if n >= 1 and scenario in (Scenario.HONEST, Scenario.FORGERY, Scenario.RECOVERY_FAILURE):
        attack = strategy if scenario is Scenario.FORGERY else None
        errors += conflicts(RunConfig(n, variant, idealized), attack)

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        scenario=scenario,
        n=n,
        m=m,
        trials=trials,
        seed=seed,
        variant=variant,
        idealized_comparison=idealized,
        strategy=strategy,
        output_path=out,
        format=fmt,
        workers=workers,
    )


def conflicts(config: RunConfig, strategy: StrategyKind | None) -> list[str]:
    """Why `config` under `strategy` (None for honest runs) cannot run: one
    message per conflict, naming its flags."""
    v, n = config.variant, config.n
    per_qubit_cmp = v.comparison_mode is ComparisonMode.PER_QUBIT
    general = v.key_model is SigningModel.GENERAL_UNITARY
    disturbed_ghz = not config.idealized_comparison and v.r_prime_source is RPrimeSource.FROM_GHZ_PARTICLE
    if per_qubit_cmp and not general:
        limit, path = MAX_N_PER_QUBIT, "--key-model per-qubit with --comparison per-qubit"
    else:
        limit, path = MAX_N_WHOLE_REGISTER, "--comparison whole-register or --key-model general"
    rules = [
        (n > limit, f"--n {n} exceeds {limit}, the largest n for {path}"),
        (n > 1 and per_qubit_cmp and general,
         f"--key-model general entangles the signature at --n {n}, so --comparison per-qubit cannot split it"),
        (n > 1 and per_qubit_cmp and strategy is StrategyKind.REPLACE_WHOLE_REGISTER,
         f"--strategy replace-whole-register sends an entangled message at --n {n}, which --comparison per-qubit cannot split"),
        (n > 1 and general and strategy is StrategyKind.GARBLE_SIGNATURE,
         f"--strategy garble-signature replaces the signature's first qubit, which --key-model general entangles at --n {n}"),
        (disturbed_ghz and not per_qubit_cmp,
         "--idealized-comparison false with --comparison whole-register and --r-prime ghz leaves the GHZ particles entangled with the discarded register"),
        (disturbed_ghz and v.m_t_mode is MtMode.FORWARD_PARTICLE,
         "--idealized-comparison false with --r-prime ghz disturbs the GHZ particles, which --mt forward-particle cannot forward"),
    ]
    return [message for broken, message in rules if broken]


# ---------------------------------------------------------------------------
# Scenarios. Each returns (results dict, csv header, csv rows, summary lines).


def _honest_trials(config: RunConfig, rng: np.random.Generator, size: int, **_):
    t = run_protocol(config, rng, size=size)
    return t.gamma, t.accepted


def scenario_honest(cfg: ExperimentConfig):
    config = cfg.run_config()
    gammas, accepted = map_trials(
        _honest_trials, cfg.trials, cfg.seed, cfg.workers, width=attacks.state_width(config), config=config
    )
    gamma_count, accepted = int(gammas.sum()), int(accepted.sum())
    g_lo, g_hi = binomial_ci(gamma_count, cfg.trials)
    a_lo, a_hi = binomial_ci(accepted, cfg.trials)
    res = {
        "trials": cfg.trials,
        "gamma_rate": gamma_count / cfg.trials,
        "gamma_ci": [g_lo, g_hi],
        "acceptance_rate": accepted / cfg.trials,
        "acceptance_ci": [a_lo, a_hi],
    }
    header = ["trials", "gamma_rate", "gamma_ci_low", "gamma_ci_high", "acceptance_rate", "acceptance_ci_low", "acceptance_ci_high"]
    rows = [[cfg.trials, f"{res['gamma_rate']:.6f}", f"{g_lo:.6f}", f"{g_hi:.6f}", f"{res['acceptance_rate']:.6f}", f"{a_lo:.6f}", f"{a_hi:.6f}"]]
    summary = [
        f"honest: gamma rate {res['gamma_rate']:.4f}, acceptance {res['acceptance_rate']:.4f} "
        f"({cfg.trials} trials)"
    ]
    return res, header, rows, summary


def scenario_forgery(cfg: ExperimentConfig):
    strategy = ForgeryStrategy(cfg.strategy, cfg.m)
    report = attacks.estimate_forgery_acceptance(
        cfg.run_config(), strategy, cfg.trials, cfg.seed, cfg.workers
    )
    res = report.to_dict()
    pred = report.analytic_prediction
    summary = [
        f"forgery ({report.strategy.value}, n={report.n}, m={report.m}): "
        f"acceptance {report.acceptance_rate:.4f} "
        f"[{report.ci_low:.4f}, {report.ci_high:.4f}], "
        f"prediction {'n/a' if pred is None else f'{pred:.4f}'} "
        f"({report.trials} trials)"
    ]
    return res, attacks.CSV_HEADER, [report.csv_row()], summary


def _q_trials(n: int, rng: np.random.Generator, size: int, **_):
    a = qsim.haar_random_state(n, rng, (size,))
    b = qsim.haar_random_state(n, rng, (size,))
    return (comparison.swap_test(a, b, rng).different,)


def scenario_q_estimate(cfg: ExperimentConfig):
    rows_data = []
    for n in range(1, cfg.n + 1):
        # the SWAP test's joint state is the widest array: 4^n amplitudes
        (different,) = map_trials(_q_trials, cfg.trials, cfg.seed, cfg.workers, width=4**n, n=n)
        hits = int(different.sum())
        lo, hi = binomial_ci(hits, cfg.trials)
        rows_data.append(
            {
                "n": n,
                "analytic_q": comparison.average_q(n),
                "empirical_q": hits / cfg.trials,
                "ci": [lo, hi],
                "trials": cfg.trials,
            }
        )
    res = {"rows": rows_data}
    header = ["n", "analytic_q", "empirical_q", "ci_low", "ci_high", "trials"]
    rows = [
        [r["n"], f"{r['analytic_q']:.6f}", f"{r['empirical_q']:.6f}", f"{r['ci'][0]:.6f}", f"{r['ci'][1]:.6f}", r["trials"]]
        for r in rows_data
    ]
    summary = [
        f"q(n={r['n']}): analytic {r['analytic_q']:.4f}, empirical {r['empirical_q']:.4f}"
        for r in rows_data
    ]
    return res, header, rows, summary


def scenario_correlation_table(cfg: ExperimentConfig):
    frame = build_pauli_frame()
    rng = np.random.default_rng(cfg.seed)
    probes = [qsim.haar_random_state(1, rng) for _ in range(100)]
    rows_data = []
    for (m_a, m_b), pauli in sorted(
        frame.table.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)
    ):
        worst = min(1.0, *(corrected_share_fidelity(p, m_a, m_b, pauli) for p in probes))
        rows_data.append(
            {
                "bell": m_a.value,
                "x": m_b.value,
                "pauli": pauli.value,
                "verified": bool(worst >= 1.0 - qsim.ATOL),
                "min_fidelity": worst,
                "probes": len(probes),
            }
        )
    res = {"rows": rows_data}
    header = ["bell", "x", "pauli", "verified", "min_fidelity", "probes"]
    rows = [
        [r["bell"], r["x"], r["pauli"], r["verified"], f"{r['min_fidelity']:.12f}", r["probes"]]
        for r in rows_data
    ]
    summary = [f"({r['bell']}, {r['x']}) -> {r['pauli']}  verified={r['verified']}" for r in rows_data]
    return res, header, rows, summary


def scenario_recovery_failure(cfg: ExperimentConfig):
    mean_fid = attacks.recovery_failure_experiment(
        cfg.run_config(), cfg.trials, cfg.seed, cfg.workers
    )
    res = {"trials": cfg.trials, "mean_candidate_fidelity": mean_fid}
    header = ["trials", "mean_candidate_fidelity"]
    rows = [[cfg.trials, f"{mean_fid:.6f}"]]
    summary = [f"recovery failure: mean candidate fidelity {mean_fid:.4f} ({cfg.trials} trials)"]
    return res, header, rows, summary


_SCENARIOS = {
    Scenario.HONEST: scenario_honest,
    Scenario.FORGERY: scenario_forgery,
    Scenario.Q_ESTIMATE: scenario_q_estimate,
    Scenario.CORRELATION_TABLE: scenario_correlation_table,
    Scenario.RECOVERY_FAILURE: scenario_recovery_failure,
}


def _config_echo(cfg: ExperimentConfig) -> dict:
    return {
        "scenario": cfg.scenario.value,
        "n": cfg.n,
        "m": cfg.m,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "variant": serialize.variant_to_dict(cfg.variant),
        "idealized_comparison": cfg.idealized_comparison,
        "strategy": cfg.strategy.value,
        "format": cfg.format,
    }


def run_scenario(cfg: ExperimentConfig) -> int:
    results, header, rows, summary = _SCENARIOS[cfg.scenario](cfg)
    if cfg.format == "json":
        payload = serialize.dumps({"config": _config_echo(cfg), "results": results})
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        payload = buf.getvalue()
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
