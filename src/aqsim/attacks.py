"""Adversary models and Monte Carlo estimators for the protocol's failure modes.

The headline estimator runs the full protocol with an attacker substituting
the message (or garbling the signature) on the Alice -> Bob channel and
returns the forgery report's results, a dict: the empirical acceptance rate
and its interval beside the analytic prediction, which is
(3/4)^m for m replaced qubits under per-qubit keys and per-qubit comparison,
1 - q(n) = 1/2 (1 + 2^-n) for a whole-register replacement under
general-unitary keys.

Trials run in blocks (`map_trials`): a block is one `run_protocol` call over
a trial axis, drawing from one generator seeded by (seed, block index). A
block holds min(max(BLOCK_TRIALS, 2^15 // width), 2^18 // width) trials,
width being the amplitudes per trial of the widest array it builds
(`state_width`): narrow runs take long blocks, which share each numpy call's
fixed cost among more trials, while no array of a block longer than
BLOCK_TRIALS exceeds 2^15 amplitudes (512 KiB), nor of any block 2^18.

With more than one worker the calling process runs the heaviest share of the
blocks and forked children run the others; results do not depend on which
process ran a block. A child's exception is raised in the caller, a child that
ends without a result is a RuntimeError, and a failure in the caller kills
every child before it propagates.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import signal
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import comparison, qsim
from .crypto import SigningModel, ciphertext
from .protocol import (
    ComparisonMode,
    MessageKnowledge,
    MtMode,
    ProtocolVariant,
    RPrimeSource,
    RunConfig,
    run_protocol,
)
from .qsim import StateVector


class StrategyKind(Enum):
    REPLACE_QUBITS = "replace-qubits"
    REPLACE_WHOLE_REGISTER = "replace-whole-register"
    GARBLE_SIGNATURE = "garble-signature"


@dataclass(frozen=True)
class ForgeryStrategy:
    kind: StrategyKind
    m: int | None = None  # replaced qubit count, ReplaceQubits only

    def validate(self, n: int, variant: ProtocolVariant) -> None:
        """Reject this attack on n message qubits under `variant` with a
        ValueError naming the CLI flags behind the conflict."""
        if self.kind is StrategyKind.REPLACE_QUBITS and not (self.m is not None and 1 <= self.m <= n):
            raise ValueError(f"--m {self.m} must satisfy 1 <= m <= n (--n {n})")
        if n > 1 and self.kind is StrategyKind.REPLACE_WHOLE_REGISTER and variant.comparison_mode is ComparisonMode.PER_QUBIT:
            raise ValueError(f"--strategy replace-whole-register sends an entangled message at --n {n}, which --comparison per-qubit cannot split")
        if n > 1 and self.kind is StrategyKind.GARBLE_SIGNATURE and variant.key_model is SigningModel.GENERAL_UNITARY:
            raise ValueError(f"--strategy garble-signature replaces the signature's first qubit, which --key-model general entangles at --n {n}")


CI_Z = 3.0  # the z of every Wilson interval (binomial_ci): 3 sigma, ~99.7%


def _orthogonal_qubit(state: StateVector) -> StateVector:
    a, b = state.amplitudes[..., 0], state.amplitudes[..., 1]
    return StateVector.owning(np.stack([-np.conj(b), np.conj(a)], axis=-1))


def forge(message: StateVector, strategy: ForgeryStrategy, rng: np.random.Generator) -> StateVector:
    """Produce the substituted message register in every trial of the message's block."""
    n = qsim.qubit_count(message)
    batch = message.batch[:-1]
    if strategy.kind is StrategyKind.REPLACE_WHOLE_REGISTER:
        return qsim.haar_random_state(n, rng, batch + (1,))
    if strategy.kind is StrategyKind.REPLACE_QUBITS:
        # each trial's m replaced qubits: the first m of a uniformly random order
        replaced = np.argsort(rng.random(batch + (n,)), axis=-1)[..., : strategy.m, None]
        samples = qsim.haar_random_state(1, rng, batch + (strategy.m,))
        amps = message.amplitudes.copy()
        np.put_along_axis(amps, replaced, samples.amplitudes, axis=-2)
        return StateVector.owning(amps)
    raise ValueError(f"{strategy.kind} does not substitute the message")


def _garble_tap(message, sig, rng):
    """Replace the signature's first qubit with an orthogonal state.

    The pads are Pauli, so in-ciphertext orthogonality survives decryption and
    the arbitrator's comparison sees an exactly orthogonal first qubit.
    """
    state = ciphertext(sig["sig_state"])
    garbled = state.amplitudes.copy()
    garbled[..., 0, :] = _orthogonal_qubit(state).amplitudes[..., 0, :]
    return message, {**sig, "sig_state": StateVector.owning(garbled)}


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
        if v.comparison_mode is ComparisonMode.PER_QUBIT and v.key_model is SigningModel.PER_QUBIT_PRODUCT:
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


def _attack_trials(config: RunConfig, strategy: ForgeryStrategy, rng: np.random.Generator, size: int, **_):
    if strategy.kind is StrategyKind.GARBLE_SIGNATURE:
        tap = _garble_tap
    else:

        def tap(message, sig, tap_rng):
            return forge(message, strategy, tap_rng), sig

    t = run_protocol(config, rng, channel_tap=tap, size=size)
    return t.accepted, t.gamma, t.extras["message_fidelity"]


def binomial_ci(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score binomial interval at CI_Z sigma.

    Unlike the normal approximation it keeps its width at 0 or n successes
    (Wilson 1927; Brown, Cai & DasGupta 2001, Stat. Sci. 16:101). There the
    bound at the data is exactly 0 or 1; it is set so, not left to rounding.
    """
    rate = successes / trials
    shrink = CI_Z * CI_Z / trials
    center = (rate + shrink / 2) / (1 + shrink)
    half = CI_Z * math.sqrt(rate * (1 - rate) / trials + shrink / (4 * trials)) / (1 + shrink)
    low = 0.0 if successes == 0 else center - half
    high = 1.0 if successes == trials else center + half
    return low, high


def rate_with_ci(hits: np.ndarray) -> tuple[float, list[float]]:
    """The share of trials in which `hits` (one flag per trial) is set, and
    its binomial_ci as [low, high]."""
    successes, trials = int(hits.sum()), len(hits)
    return successes / trials, list(binomial_ci(successes, trials))


def estimate_forgery_acceptance(
    config: RunConfig,
    strategy: ForgeryStrategy,
    trials: int,
    seed: int,
    workers: int = 1,
) -> dict:
    """Acceptance rate of forged runs through the full protocol, with its
    interval, the arbitrator's pass rate, the forged message's mean fidelity
    to the signed one, and analytic_acceptance's prediction."""
    if trials < 1:
        raise ValueError("need at least one trial")
    strategy.validate(config.n, config.variant)
    accepted, gammas, fids = map_trials(
        _attack_trials, trials, seed, workers, width=state_width(config), config=config, strategy=strategy
    )
    rate, (ci_low, ci_high) = rate_with_ci(accepted)
    return {
        "strategy": strategy.kind.value,
        "n": config.n,
        "m": strategy.m,
        "trials": trials,
        "acceptance_rate": rate,
        "ci_low": ci_low,
        "ci_high": ci_high,
        "gamma_rate": int(gammas.sum()) / trials,
        "mean_fidelity": float(np.mean(fids)),
        "analytic_prediction": analytic_acceptance(config, strategy),
    }


def _recovery_trials(config: RunConfig, rng: np.random.Generator, size: int, **_):
    return (run_protocol(config, rng, size=size).extras["candidate_fidelity"],)


def validate_recovery_variant(variant: ProtocolVariant) -> None:
    """Reject a recovery-failure run under `variant` with a ValueError naming
    the CLI flags behind the conflict."""
    if variant.m_t_mode is not MtMode.MEASURE_X:
        raise ValueError(
            f"--scenario recovery-failure rebuilds Bob's candidate from M_t's x outcome, "
            f"which --mt {variant.m_t_mode.value} does not measure"
        )


def recovery_failure_experiment(
    config: RunConfig, trials: int, seed: int, workers: int = 1
) -> float:
    """Mean fidelity of Bob's reconstructed candidate to the true message.

    Honest runs under the MeasureX variant; strictly below 1 because an
    x-outcome cannot identify the particle's state.
    """
    validate_recovery_variant(config.variant)
    (fids,) = map_trials(_recovery_trials, trials, seed, workers, width=state_width(config), config=config)
    return float(np.mean(fids))


# ---------------------------------------------------------------------------
# Deterministic trial fan-out

# The fewest trials a block holds, unless its widest array would pass
# _MAX_BLOCK_AMPLITUDES. Longer blocks are taken while the widest array stays
# within _BLOCK_AMPLITUDES; results are a function of the seed and the block
# index for a block length, so changing any of these constants changes reports.
BLOCK_TRIALS = 256
_BLOCK_AMPLITUDES = 2**15
_MAX_BLOCK_AMPLITUDES = 2**18


def block_trials(width: int) -> int:
    """Trials per block for blocks whose widest array holds `width` amplitudes per trial."""
    return min(max(BLOCK_TRIALS, _BLOCK_AMPLITUDES // width), _MAX_BLOCK_AMPLITUDES // width)


def state_width(config: RunConfig) -> int:
    """Amplitudes per trial that size a block of `config`: 16 n under
    per-qubit keys and comparison, a message (x) GHZ joint per qubit, which
    no block builds now but block lengths, and so reports, rest on; with
    whole-register comparison or general keys also a 2^n x 2^n unitary per
    trial, 4^n: the general-key stack, or per-qubit unitaries kron'd onto a
    whole-register forged message, built only where U x is read (the garble
    tap, a transcript), and kept as the width for the same reason."""
    v, n = config.variant, config.n
    if v.key_model is SigningModel.PER_QUBIT_PRODUCT and v.comparison_mode is ComparisonMode.PER_QUBIT:
        return 16 * n
    return max(16 * n, 4**n)


def block_rng(seed: int, block: int) -> np.random.Generator:
    """The one generator of block number `block`."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))


def _run_chunk(args):
    fn, kwargs, seed, starts, trials, length = args
    return [
        fn(rng=block_rng(seed, i // length), seed=seed, i=i, size=min(length, trials - i), **kwargs)
        for i in starts
    ]


def map_trials(fn, trials: int, seed: int, workers: int = 1, **kwargs) -> tuple:
    """Run fn(rng=rng, seed=seed, i=i, size=size, **kwargs) on each block of trials.

    kwargs must hold `width`, the amplitudes per trial of the widest array fn
    builds, which is not passed on: blocks are block_trials(width) long (the
    last one may be shorter), i is the block's first trial and size its
    length. fn returns a tuple of arrays with the block's trials along the
    first axis; they are concatenated in trial order. Block b draws from
    rng = block_rng(seed, b) alone, so the worker count never changes the
    output. fn need not read seed and i, which name the block to a caller
    that wraps fn.

    With workers > 1 the blocks are split into p = min(workers, blocks,
    usable CPUs) shares of consecutive blocks and near-equal trial counts
    (`_shares`). The calling process runs the heaviest share, so that the
    children's fork and exit overlap its own work, and p - 1 forked children
    run the others, each through the module's `_run_chunk` and sending its
    blocks back as one pickle. An exception raised in a child's blocks is raised
    here with its own type and message; a child that ends without sending
    a result raises RuntimeError naming its exit status. If anything fails
    here, the children still running are killed; no child outlives the call.
    """
    length = block_trials(kwargs.pop("width"))
    shares = _shares(trials, length, workers)
    jobs = [(fn, kwargs, seed, share, trials, length) for share in shares]
    if len(jobs) == 1:
        blocks = _run_chunk(jobs[0])
    else:
        sizes = [min(share.stop, trials) - share.start for share in shares]
        blocks = [block for part in _fan_out(jobs, sizes.index(max(sizes))) for block in part]
    return tuple(np.concatenate(column) for column in zip(*blocks))


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _shares(trials: int, length: int, workers: int) -> list[range]:
    """The first trials of the blocks of `length`, split into min(workers,
    blocks, usable CPUs) shares of consecutive blocks."""
    starts = range(0, trials, length)
    p = max(1, min(workers, len(starts), _usable_cpus()))
    # floor division puts the larger shares last, with the short last block
    bounds = [k * len(starts) // p for k in range(p + 1)]
    return [starts[a:b] for a, b in zip(bounds, bounds[1:])]


def _fan_out(jobs: list, own: int) -> list:
    """The block lists of `jobs`, in job order: jobs[own] runs here, each other
    job in a child forked for it."""
    running = {}  # job index -> (pid, read end of its pipe), until reaped
    try:
        for k, job in enumerate(jobs):
            if k != own:
                running[k] = _fork_job(job)
        parts = {own: _run_chunk(jobs[own])}
        for k in list(running):
            pid, pipe = running[k]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del running[k]
            if not data:  # a negative exit status is the number of the signal that ended it
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"trial worker {pid} ended without a result (exit status {code})")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            parts[k] = value
    finally:
        for pid, pipe in running.values():
            pipe.close()
            with contextlib.suppress(ProcessLookupError, ChildProcessError):  # reaped already
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return [parts[k] for k in range(len(jobs))]


def _fork_job(job):
    """Fork a child that runs `job` and writes one pickle of its blocks, or of
    its exception, to a pipe; returns the child's pid and the pipe's read end.

    The child leaves with os._exit, so it flushes none of the stdio buffers
    it inherited and runs no exit handler of the caller's.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, os.fdopen(read, "rb")
    code = 1
    try:
        os.close(read)
        try:
            result = (True, _run_chunk(job))
        except BaseException as e:  # sent to the caller, which raises it
            result = (False, e)
        data = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)
