"""Adversary models and Monte Carlo estimators for the protocol's failure modes.

The headline estimator runs the full protocol with an attacker substituting
the message (or garbling the signature) on the Alice -> Bob channel and
reports the empirical acceptance rate against the analytic prediction:
(3/4)^m for m replaced qubits under per-qubit keys and per-qubit comparison,
1 - q(n) = 1/2 (1 + 2^-n) for a whole-register replacement under
general-unitary keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import comparison, qsim
from .crypto import SignaturePackage, SigningModel
from .protocol import (
    ComparisonMode,
    Message,
    MessageKnowledge,
    MtMode,
    RPrimeSource,
    RunConfig,
    Verdict,
    haar_product_message,
    run_protocol,
)
from .qsim import StateVector


class StrategyKind(Enum):
    REPLACE_QUBITS = "replace-qubits"
    REPLACE_WHOLE_REGISTER = "replace-whole-register"
    GARBLE_SIGNATURE = "garble-signature"


def haar_qubit_sampler(rng: np.random.Generator) -> StateVector:
    return qsim.haar_random_state(1, rng)


@dataclass(frozen=True)
class ForgeryStrategy:
    kind: StrategyKind
    m: int | None = None  # replaced qubit count, ReplaceQubits only
    sampler: object = haar_qubit_sampler  # rng -> replacement single-qubit state

    def validate(self, n: int) -> None:
        if self.kind is StrategyKind.REPLACE_QUBITS:
            if self.m is None or not 1 <= self.m <= n:
                raise ValueError(f"replaced qubit count m={self.m} outside 1..{n}")


@dataclass(frozen=True)
class AttackReport:
    strategy: StrategyKind
    n: int
    m: int | None
    trials: int
    acceptance_rate: float
    ci_low: float
    ci_high: float
    gamma_rate: float
    mean_fidelity: float
    analytic_prediction: float | None
    variant: object

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy.value,
            "n": self.n,
            "m": self.m,
            "trials": self.trials,
            "acceptance_rate": self.acceptance_rate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "gamma_rate": self.gamma_rate,
            "mean_fidelity": self.mean_fidelity,
            "analytic_prediction": self.analytic_prediction,
        }

    def csv_row(self) -> list:
        return [
            self.strategy.value,
            self.n,
            "" if self.m is None else self.m,
            self.trials,
            f"{self.acceptance_rate:.6f}",
            "" if self.analytic_prediction is None else f"{self.analytic_prediction:.6f}",
            f"{self.ci_low:.6f}",
            f"{self.ci_high:.6f}",
        ]


CSV_HEADER = ["strategy", "n", "m", "trials", "acceptance", "prediction", "ci_low", "ci_high"]


def _orthogonal_qubit(state: StateVector) -> StateVector:
    a, b = state.amplitudes
    return StateVector(np.array([-np.conj(b), np.conj(a)]))


def forge(message: Message, strategy: ForgeryStrategy, rng: np.random.Generator) -> Message:
    """Produce the substituted message for one trial."""
    n = qsim.qubit_count(message)
    strategy.validate(n)
    if strategy.kind is StrategyKind.REPLACE_WHOLE_REGISTER:
        return (qsim.haar_random_state(n, rng),)
    if strategy.kind is StrategyKind.REPLACE_QUBITS:
        blocks = list(qsim.qubit_blocks(message, "qubit replacement"))
        for i in rng.choice(n, size=strategy.m, replace=False):
            blocks[i] = strategy.sampler(rng)
        return tuple(blocks)
    raise ValueError(f"{strategy.kind} does not substitute the message")


def _garble_tap(message, sig, rng):
    """Replace the signature's first qubit with an orthogonal state.

    The pads are Pauli, so in-ciphertext orthogonality survives decryption and
    the arbitrator's comparison sees an exactly orthogonal first qubit.
    """
    first, *rest = sig.enc_state
    if first.qubit_count != 1:
        raise ValueError("garbling needs the signature's first qubit in a block of its own")
    garbled = (_orthogonal_qubit(first), *rest)
    return message, SignaturePackage(sig.enc_bell, garbled)


def analytic_acceptance(config: RunConfig, strategy: ForgeryStrategy) -> float | None:
    """Prediction for the reference attack configurations, else None.

    Each assumes the arbitrator's comparison against R' built from the
    forwarded message is the forgery's only test: not so for the GHZ R'
    source (R' carries the true message) or for forward-particle with
    alice-only knowledge (Bob SWAP-tests the true message against the forgery).
    """
    v = config.variant
    if v.r_prime_source is not RPrimeSource.FROM_MESSAGE_P or (
        v.m_t_mode is MtMode.FORWARD_PARTICLE
        and v.message_knowledge is MessageKnowledge.ALICE_ONLY
    ):
        return None
    if strategy.kind is StrategyKind.REPLACE_QUBITS:
        if (
            v.comparison_mode is ComparisonMode.PER_QUBIT
            and v.key_model is SigningModel.PER_QUBIT_PRODUCT
            and strategy.sampler is haar_qubit_sampler
        ):
            return 0.75**strategy.m
        return None
    if strategy.kind is StrategyKind.REPLACE_WHOLE_REGISTER:
        if v.comparison_mode is ComparisonMode.WHOLE_REGISTER:
            return 1.0 - comparison.average_q(config.n)
        return None
    if strategy.kind is StrategyKind.GARBLE_SIGNATURE:
        if v.comparison_mode is ComparisonMode.PER_QUBIT:
            return 0.5
        return None
    return None


def _trial_seed_sequence(seed: int, i: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=(i,))


def trial_run_seed(seed: int, i: int) -> int:
    """The run_protocol seed of trial i: the first draw of the trial's stream."""
    return int(np.random.default_rng(_trial_seed_sequence(seed, i)).integers(0, 2**63))


def _attack_trial(config: RunConfig, strategy: ForgeryStrategy, seed: int, i: int):
    if strategy.kind is StrategyKind.GARBLE_SIGNATURE:
        tap = _garble_tap
    else:

        def tap(message, sig, tap_rng):
            return forge(message, strategy, tap_rng), sig

    transcript = run_protocol(config, trial_run_seed(seed, i), channel_tap=tap)
    accepted = transcript.verdict is Verdict.ACCEPTED
    return accepted, transcript.gamma, transcript.extras["message_fidelity"]


def binomial_ci(successes: int, trials: int, z: float = 3.0) -> tuple[float, float]:
    """Normal-approximation binomial interval at z sigma (default 3, ~99.7%)."""
    rate = successes / trials
    half = z * math.sqrt(max(rate * (1.0 - rate), 1e-12) / trials)
    return max(0.0, rate - half), min(1.0, rate + half)


def estimate_forgery_acceptance(
    config: RunConfig,
    strategy: ForgeryStrategy,
    trials: int,
    seed: int,
    workers: int = 1,
) -> AttackReport:
    """Acceptance rate of forged runs through the full protocol."""
    if trials < 1:
        raise ValueError("need at least one trial")
    strategy.validate(config.n)
    results = map_trials(
        _attack_trial, trials, seed, workers, config=config, strategy=strategy
    )
    accepted = sum(1 for a, _, _ in results if a)
    gammas = sum(g for _, g, _ in results)
    mean_fid = float(np.mean([f for _, _, f in results]))
    ci_low, ci_high = binomial_ci(accepted, trials)
    return AttackReport(
        strategy=strategy.kind,
        n=config.n,
        m=strategy.m,
        trials=trials,
        acceptance_rate=accepted / trials,
        ci_low=ci_low,
        ci_high=ci_high,
        gamma_rate=gammas / trials,
        mean_fidelity=mean_fid,
        analytic_prediction=analytic_acceptance(config, strategy),
        variant=config.variant,
    )


def fidelity_drop(
    p: Message, strategy: ForgeryStrategy, trials: int, seed: int
) -> float:
    """Mean fidelity between the original message and its forged replacement."""
    strategy.validate(qsim.qubit_count(p))
    total = 0.0
    for i in range(trials):
        rng = np.random.default_rng(_trial_seed_sequence(seed, i))
        forged = forge(p, strategy, rng)
        total += qsim.register_fidelity(p, forged)
    return total / trials


def _recovery_trial(config: RunConfig, seed: int, i: int):
    return run_protocol(config, trial_run_seed(seed, i)).extras["candidate_fidelity"]


def recovery_failure_experiment(
    config: RunConfig, trials: int, seed: int, workers: int = 1
) -> float:
    """Mean fidelity of Bob's reconstructed candidate to the true message.

    Honest runs under the MeasureX variant; strictly below 1 because an
    x-outcome cannot identify the particle's state.
    """
    if config.variant.m_t_mode is not MtMode.MEASURE_X:
        raise ValueError("recovery failure is only defined for the MeasureX variant")
    vals = map_trials(_recovery_trial, trials, seed, workers, config=config)
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# Deterministic trial fan-out


def _run_chunk(args):
    fn, kwargs, seed, indices = args
    return [fn(seed=seed, i=i, **kwargs) for i in indices]


def map_trials(fn, trials: int, seed: int, workers: int = 1, **kwargs) -> list:
    """Run fn(seed=seed, i=i, **kwargs) for i in range(trials).

    Per-trial seeding depends only on (seed, i), and results are concatenated
    in trial order, so the worker count never changes the output.
    """
    if workers <= 1:
        return [fn(seed=seed, i=i, **kwargs) for i in range(trials)]
    from concurrent.futures import ProcessPoolExecutor

    chunks = np.array_split(np.arange(trials), workers * 4)
    jobs = [(fn, kwargs, seed, [int(i) for i in c]) for c in chunks if c.size]
    out = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_run_chunk, jobs):
            out.extend(part)
    return out
