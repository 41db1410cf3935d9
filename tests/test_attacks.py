"""Forgery strategies and Monte Carlo estimators."""

import json
import os
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from aqsim import attacks, cli, crypto, qsim, serialize
from aqsim.attacks import (
    BLOCK_TRIALS,
    ForgeryStrategy,
    StrategyKind,
    _attack_trials,
    _orthogonal_qubit,
    analytic_acceptance,
    binomial_ci,
    block_rng,
    block_trials,
    estimate_forgery_acceptance,
    forge,
    map_trials,
    recovery_failure_experiment,
    state_width,
)
from aqsim.crypto import SigningModel
from aqsim.protocol import (
    ComparisonMode,
    MessageKnowledge,
    MtMode,
    ProtocolVariant,
    RPrimeSource,
    RunConfig,
    haar_product_message,
    run_protocol,
)

# the unpatched attacks._usable_cpus, which tests/conftest.py pins to 2 in every test
_USABLE_CPUS = attacks._usable_cpus

PER_QUBIT_VARIANT = ProtocolVariant(
    RPrimeSource.FROM_MESSAGE_P,
    MtMode.MEASURE_X,
    MessageKnowledge.ALICE_ONLY,
    SigningModel.PER_QUBIT_PRODUCT,
    ComparisonMode.PER_QUBIT,
)

WHOLE_REGISTER_VARIANT = ProtocolVariant(
    RPrimeSource.FROM_MESSAGE_P,
    MtMode.MEASURE_X,
    MessageKnowledge.ALICE_ONLY,
    SigningModel.GENERAL_UNITARY,
    ComparisonMode.WHOLE_REGISTER,
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestForge:
    def test_replace_qubits_changes_exactly_m(self):
        r = rng(1)
        msg = haar_product_message(4, r)
        for m in range(1, 5):
            forged = forge(msg, ForgeryStrategy(StrategyKind.REPLACE_QUBITS, m=m), r)
            changed = np.count_nonzero(qsim.fidelity(msg, forged) < 1 - 1e-9)  # per qubit
            assert changed == m

    def test_m_bounds(self):
        for m in (0, 3, None):
            with pytest.raises(ValueError, match=rf"^--m {m} must satisfy 1 <= m <= n \(--n 2\)$"):
                ForgeryStrategy(StrategyKind.REPLACE_QUBITS, m=m).validate(2, PER_QUBIT_VARIANT)
        for m in (1, 2):
            ForgeryStrategy(StrategyKind.REPLACE_QUBITS, m=m).validate(2, PER_QUBIT_VARIANT)

    def test_whole_register_generally_entangled(self):
        msg = haar_product_message(2, rng(4))
        forged = forge(
            msg, ForgeryStrategy(StrategyKind.REPLACE_WHOLE_REGISTER), rng(5)
        )
        assert forged.amplitudes.shape == (1, 4)  # one entangled block

    def test_garble_does_not_forge_message(self):
        msg = haar_product_message(1, rng(6))
        with pytest.raises(ValueError):
            forge(msg, ForgeryStrategy(StrategyKind.GARBLE_SIGNATURE), rng(7))

    def test_orthogonal_qubit(self):
        r = rng(8)
        for _ in range(20):
            s = qsim.haar_random_state(1, r)
            assert qsim.fidelity(s, _orthogonal_qubit(s)) < 1e-12


class TestAnalytics:
    def test_per_qubit_prediction(self):
        cfg = RunConfig(3, PER_QUBIT_VARIANT)
        for m in (1, 2, 3):
            strat = ForgeryStrategy(StrategyKind.REPLACE_QUBITS, m=m)
            assert analytic_acceptance(cfg, strat) == pytest.approx(0.75**m)

    def test_whole_register_prediction(self):
        cfg = RunConfig(3, WHOLE_REGISTER_VARIANT)
        strat = ForgeryStrategy(StrategyKind.REPLACE_WHOLE_REGISTER)
        assert analytic_acceptance(cfg, strat) == pytest.approx(0.5 * (1 + 0.125))

    def test_garble_prediction(self):
        cfg = RunConfig(1, PER_QUBIT_VARIANT)
        strat = ForgeryStrategy(StrategyKind.GARBLE_SIGNATURE)
        assert analytic_acceptance(cfg, strat) == pytest.approx(0.5)

    def test_no_prediction_off_reference_configs(self):
        cfg = RunConfig(2, PER_QUBIT_VARIANT)
        assert (
            analytic_acceptance(cfg, ForgeryStrategy(StrategyKind.REPLACE_WHOLE_REGISTER))
            is None
        )
        # R' from the GHZ particles carries the true message (measured 1.0), and
        # Bob's second SWAP test under forward-particle/alice-only adds a
        # detection chance (measured ~7/12): neither is the 3/4 derived above
        replace_one = ForgeryStrategy(StrategyKind.REPLACE_QUBITS, m=1)
        for v in (
            replace(PER_QUBIT_VARIANT, r_prime_source=RPrimeSource.FROM_GHZ_PARTICLE),
            replace(PER_QUBIT_VARIANT, m_t_mode=MtMode.FORWARD_PARTICLE),
        ):
            assert analytic_acceptance(RunConfig(1, v), replace_one) is None

    def test_binomial_ci(self):
        low, high = binomial_ci(750, 1000)
        assert low < 0.75 < high
        # Wilson score width at z = 3
        shrink = 9 / 1000
        width = 2 * 3 * np.sqrt(0.75 * 0.25 / 1000 + shrink / 4000) / (1 + shrink)
        assert high - low == pytest.approx(width)
        assert binomial_ci(0, 10)[0] == 0.0
        assert binomial_ci(10, 10)[1] == 1.0
        assert binomial_ci(2000, 2000)[0] < 0.999  # no collapse at n successes


class TestEstimators:
    def test_replace_one_qubit_acceptance(self):
        cfg = RunConfig(1, PER_QUBIT_VARIANT)
        strat = ForgeryStrategy(StrategyKind.REPLACE_QUBITS, m=1)
        report = estimate_forgery_acceptance(cfg, strat, trials=4000, seed=3)
        assert report["ci_low"] <= 0.75 <= report["ci_high"]
        assert report["acceptance_rate"] == pytest.approx(report["gamma_rate"])
        assert report["mean_fidelity"] == pytest.approx(0.5, abs=0.03)

    def test_acceptance_monotone_in_m(self):
        cfg = RunConfig(3, PER_QUBIT_VARIANT)
        rates = [
            estimate_forgery_acceptance(
                cfg, ForgeryStrategy(StrategyKind.REPLACE_QUBITS, m=m), 1500, 4
            )["acceptance_rate"]
            for m in (1, 2, 3)
        ]
        assert rates[0] > rates[1] > rates[2]

    def test_whole_register_acceptance(self):
        cfg = RunConfig(2, WHOLE_REGISTER_VARIANT)
        strat = ForgeryStrategy(StrategyKind.REPLACE_WHOLE_REGISTER)
        report = estimate_forgery_acceptance(cfg, strat, trials=3000, seed=5)
        assert report["analytic_prediction"] == pytest.approx(0.625)
        assert report["ci_low"] <= 0.625 <= report["ci_high"]

    def test_general_key_block_checks_its_unitaries_once(self, monkeypatch):
        # a block's general-key stack is checked where it is built, on its
        # first read, and apply_unitary trusts it however many times it
        # applies it: a forgery block reads no U x, a garble block reads it
        # in the tap and in the arbitrator's R'
        callers = []
        check_unitary = qsim._check_unitary

        def recording(matrix, atol):
            callers.append(sys._getframe(1).f_code.co_name)
            check_unitary(matrix, atol)

        monkeypatch.setattr(qsim, "_check_unitary", recording)
        monkeypatch.setattr(crypto, "_check_unitary", recording)
        cfg = RunConfig(3, WHOLE_REGISTER_VARIANT)
        _attack_trials(cfg, ForgeryStrategy(StrategyKind.REPLACE_WHOLE_REGISTER), rng(12), BLOCK_TRIALS)
        assert callers == []
        _attack_trials(RunConfig(1, WHOLE_REGISTER_VARIANT), ForgeryStrategy(StrategyKind.GARBLE_SIGNATURE), rng(12), BLOCK_TRIALS)
        assert callers == ["unitaries"]

    def test_per_qubit_block_checks_no_unitaries(self, monkeypatch):
        # a per-qubit stack is a gather from crypto's table, checked at import
        callers = []
        check_unitary = qsim._check_unitary

        def recording(matrix, atol):
            callers.append(sys._getframe(1).f_code.co_name)
            check_unitary(matrix, atol)

        monkeypatch.setattr(qsim, "_check_unitary", recording)
        monkeypatch.setattr(crypto, "_check_unitary", recording)
        cfg = RunConfig(6, PER_QUBIT_VARIANT)
        _attack_trials(cfg, ForgeryStrategy(StrategyKind.REPLACE_QUBITS, m=2), rng(13), BLOCK_TRIALS)
        assert callers == []

    def test_garble_acceptance(self):
        cfg = RunConfig(1, PER_QUBIT_VARIANT)
        strat = ForgeryStrategy(StrategyKind.GARBLE_SIGNATURE)
        report = estimate_forgery_acceptance(cfg, strat, trials=3000, seed=6)
        assert report["ci_low"] <= 0.5 <= report["ci_high"]
        assert report["mean_fidelity"] == pytest.approx(1.0)  # message untouched

    def test_report_serialization(self):
        cfg = RunConfig(1, PER_QUBIT_VARIANT)
        strat = ForgeryStrategy(StrategyKind.REPLACE_QUBITS, m=1)
        report = estimate_forgery_acceptance(cfg, strat, trials=50, seed=7)
        assert report["strategy"] == "replace-qubits" and report["trials"] == 50
        assert json.loads(serialize.dumps(report)) == report

    def test_zero_trials_rejected(self):
        cfg = RunConfig(1, PER_QUBIT_VARIANT)
        with pytest.raises(ValueError):
            estimate_forgery_acceptance(
                cfg, ForgeryStrategy(StrategyKind.GARBLE_SIGNATURE), 0, 8
            )


class TestRecoveryFailure:
    def test_mean_near_two_thirds(self):
        cfg = RunConfig(1, PER_QUBIT_VARIANT)
        mean = recovery_failure_experiment(cfg, trials=4000, seed=9)
        assert mean == pytest.approx(2 / 3, abs=0.02)
        assert mean < 0.999

    def test_requires_measure_x(self):
        v = ProtocolVariant(
            RPrimeSource.FROM_MESSAGE_P,
            MtMode.FORWARD_PARTICLE,
            MessageKnowledge.KNOWN_TO_ALL,
            SigningModel.PER_QUBIT_PRODUCT,
            ComparisonMode.PER_QUBIT,
        )
        with pytest.raises(ValueError):
            recovery_failure_experiment(RunConfig(1, v), trials=10, seed=10)

    def test_forward_particle_control(self):
        # the repaired variant loses nothing: candidate fidelity is exactly 1
        from aqsim.protocol import run_protocol

        v = ProtocolVariant(
            RPrimeSource.FROM_MESSAGE_P,
            MtMode.FORWARD_PARTICLE,
            MessageKnowledge.KNOWN_TO_ALL,
            SigningModel.PER_QUBIT_PRODUCT,
            ComparisonMode.PER_QUBIT,
        )
        fids = run_protocol(RunConfig(1, v), 0, 50).extras["candidate_fidelity"]
        assert np.all(abs(fids - 1.0) < 1e-10)


def _echo_block(rng, seed, i, size, offset):
    """Each trial's index, its block's (seed, first trial, size) and the
    block's first draw."""
    return np.arange(i, i + size), np.full((size, 3), (seed + offset, i, size)), np.full(size, rng.random())


# Widths (amplitudes per trial) and the block lengths the rule gives them: the
# 4 MiB cap, the floor, a length that divides nothing evenly, and the longest
# the protocol takes.
LENGTHS = {4096: 64, 1024: BLOCK_TRIALS, 96: 341, 16: 2048}


def partial_trials(length):
    """About 2.5 blocks, so the last block is partial."""
    return 2 * length + length // 2


def _child_fails(rng, seed, i, size, caller, how):
    """A block that fails when run outside the calling process."""
    if os.getpid() != caller:
        if how == "exit":
            os._exit(3)
        raise ValueError(f"block at trial {i} failed")
    return (np.arange(i, i + size),)


def _caller_fails(rng, seed, i, size, caller, error):
    """A block that raises `error` in the calling process and outlasts any test elsewhere."""
    if os.getpid() == caller:
        raise error
    time.sleep(60)
    return (np.arange(i, i + size),)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked during the test, each of which must
    have been reaped when it ends."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestMapTrials:
    def test_serial_order(self):
        for width, length in LENGTHS.items():
            trials = partial_trials(length)
            index, calls, draws = map_trials(_echo_block, trials, 42, workers=1, width=width, offset=7)
            assert np.array_equal(index, np.arange(trials))
            starts = range(0, trials, length)
            blocks = [(49, start, min(length, trials - start)) for start in starts]
            assert [tuple(row) for row in np.unique(calls, axis=0)] == blocks
            assert draws[list(starts)].tolist() == [block_rng(42, b).random() for b in range(len(starts))]

    def test_single_trial_is_a_block_of_one(self):
        index, calls, draws = map_trials(_echo_block, 1, 3, workers=1, width=16, offset=0)
        assert index.tolist() == [0] and calls.tolist() == [[3, 0, 1]]
        assert draws.tolist() == [block_rng(3, 0).random()]

    def test_worker_count_invariant(self, forks):
        for width, length in LENGTHS.items():
            for trials in (1, partial_trials(length)):
                serial = map_trials(_echo_block, trials, 8, workers=1, width=width, offset=0)
                for workers in (2, 3):
                    forked = map_trials(_echo_block, trials, 8, workers=workers, width=width, offset=0)
                    assert all(np.array_equal(a, b) for a, b in zip(serial, forked, strict=True))
        assert forks  # the fan-out ran

    def test_workers_beyond_blocks_fork_one_child_per_other_block(self, forks):
        serial = map_trials(_echo_block, 2 * BLOCK_TRIALS, 8, workers=1, width=1024, offset=0)
        forked = map_trials(_echo_block, 2 * BLOCK_TRIALS, 8, workers=4, width=1024, offset=0)
        assert all(np.array_equal(a, b) for a, b in zip(serial, forked, strict=True))
        assert len(forks) == 1
        map_trials(_echo_block, BLOCK_TRIALS, 8, workers=3, width=1024, offset=0)
        assert len(forks) == 1  # one block: the caller runs it alone

    def test_children_run_the_module_run_chunk(self, monkeypatch, forks, tmp_path):
        # benchmarks/tracer.py replaces attacks._run_chunk to flush each
        # child's counts, so children must look it up on the module
        run_chunk = attacks._run_chunk

        def recording_run_chunk(job):
            (tmp_path / str(os.getpid())).touch()
            return run_chunk(job)

        monkeypatch.setattr(attacks, "_run_chunk", recording_run_chunk)
        map_trials(_echo_block, 3 * BLOCK_TRIALS, 8, workers=3, width=1024, offset=0)
        assert len(forks) == 1
        assert {int(path.name) for path in tmp_path.iterdir()} == {os.getpid(), *forks}

    def test_child_exception_reaches_caller(self, forks):
        with pytest.raises(ValueError, match=f"block at trial {BLOCK_TRIALS} failed"):
            map_trials(_child_fails, 2 * BLOCK_TRIALS, 8, workers=2, width=1024, caller=os.getpid(), how="raise")
        assert len(forks) == 1

    def test_child_exception_is_a_cli_config_error(self, monkeypatch, forks, tmp_path, capsys):
        caller, run_protocol = os.getpid(), attacks.run_protocol

        def failing_in_children(config, rng, size, **kwargs):
            if os.getpid() != caller:
                raise ValueError("no candidate in this block")
            return run_protocol(config, rng, size=size, **kwargs)

        monkeypatch.setattr(attacks, "run_protocol", failing_in_children)
        out = tmp_path / "r.json"
        argv = ["--scenario", "recovery-failure", "--trials", str(2 * block_trials(16)), "--workers", "2"]
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert "error: invalid configuration: no candidate in this block" in capsys.readouterr().err
        assert not out.exists() and len(forks) == 1

    def test_child_ending_without_result_raises(self, forks):
        start = time.monotonic()
        with pytest.raises(RuntimeError, match=r"ended without a result \(exit status 3\)"):
            map_trials(_child_fails, 3 * BLOCK_TRIALS, 8, workers=3, width=1024, caller=os.getpid(), how="exit")
        assert len(forks) == 1 and time.monotonic() - start < 30

    @pytest.mark.parametrize("error", [ValueError("caller's block failed"), KeyboardInterrupt()])
    def test_caller_failure_kills_children(self, forks, error):
        start = time.monotonic()
        with pytest.raises(type(error)):
            map_trials(_caller_fails, 3 * BLOCK_TRIALS, 8, workers=3, width=1024, caller=os.getpid(), error=error)
        # the child sleeps for 60 s unless killed
        assert len(forks) == 1 and time.monotonic() - start < 30

    def test_caller_runs_the_largest_share(self, monkeypatch, forks, tmp_path):
        # recovery-failure at n = 1: 10000 trials are 5 blocks of 2048, split
        # into shares of 2 and 3 blocks
        run_chunk = attacks._run_chunk

        def recording_run_chunk(job):
            *_, share, trials, length = job
            (tmp_path / str(os.getpid())).write_text(str(min(share.stop, trials) - share.start))
            return run_chunk(job)

        monkeypatch.setattr(attacks, "_run_chunk", recording_run_chunk)
        argv = ["--scenario", "recovery-failure", "--trials", "10000", "--workers", "2"]
        assert cli.main([*argv, "--out", str(tmp_path / "r.json")]) == 0
        shares = {int(path.name): int(path.read_text()) for path in tmp_path.iterdir() if path.name.isdigit()}
        assert len(forks) == 1
        assert shares == {os.getpid(): 5904, forks[0]: 4096}

    def test_shares_capped_at_usable_cpus(self, monkeypatch, forks):
        # --workers 500 on 10^6 recovery trials: 489 blocks of 2048
        length = block_trials(16)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(attacks, "_usable_cpus", lambda: cpus)
            shares = attacks._shares(10**6, length, 500)
            assert len(shares) == cpus
            assert [i for share in shares for i in share] == list(range(0, 10**6, length))
        monkeypatch.setattr(attacks, "_usable_cpus", lambda: 2)
        serial = map_trials(_echo_block, 4 * BLOCK_TRIALS, 8, workers=1, width=1024, offset=0)
        forked = map_trials(_echo_block, 4 * BLOCK_TRIALS, 8, workers=500, width=1024, offset=0)
        assert all(np.array_equal(a, b) for a, b in zip(serial, forked, strict=True))
        assert len(forks) == 1

    def test_usable_cpus_reads_the_affinity_mask(self, monkeypatch):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no sched_getaffinity on this platform")
        assert _USABLE_CPUS() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _USABLE_CPUS() == os.cpu_count()

    def test_block_streams_depend_on_seed_and_block_only(self):
        def first_draw(seed, block):
            return block_rng(seed, block).random()

        seq = np.random.SeedSequence(entropy=5, spawn_key=(1,))
        assert first_draw(5, 1) == np.random.default_rng(seq).random()
        assert first_draw(5, 0) != first_draw(5, 1)  # next block
        assert first_draw(5, 0) != first_draw(6, 0)

    def test_width_is_required(self):
        with pytest.raises(KeyError):
            map_trials(_echo_block, 4, 1, offset=0)


def _variant(keys=SigningModel.PER_QUBIT_PRODUCT, cmp=ComparisonMode.PER_QUBIT, **fields):
    return replace(PER_QUBIT_VARIANT, key_model=keys, comparison_mode=cmp, **fields)


class TestBlockLength:
    def test_benchmark_configs_and_the_floor(self):
        general = _variant(SigningModel.GENERAL_UNITARY, ComparisonMode.WHOLE_REGISTER)
        lengths = {
            "forge-n1": RunConfig(1, PER_QUBIT_VARIANT),
            "forge-n6": RunConfig(6, PER_QUBIT_VARIANT),
            "whole-n3": RunConfig(3, general),
            "recovery-w2": RunConfig(1, PER_QUBIT_VARIANT),
            "whole-n6": RunConfig(6, general),
            "forge-n64": RunConfig(64, PER_QUBIT_VARIANT),
        }
        got = {name: block_trials(state_width(cfg)) for name, cfg in lengths.items()}
        assert got == {
            "forge-n1": 2048,
            "forge-n6": 341,
            "whole-n3": 512,
            "recovery-w2": 2048,
            "whole-n6": 64,
            "forge-n64": 256,
        }
        assert block_trials(1024) == BLOCK_TRIALS  # wider than the budget: the floor
        assert block_trials(4096) == 2**18 // 4096  # the floor's arrays would pass 4 MiB: the cap

    @pytest.mark.parametrize(
        "config, strategy",
        [
            (RunConfig(1, PER_QUBIT_VARIANT), ForgeryStrategy(StrategyKind.REPLACE_QUBITS, 1)),
            (RunConfig(6, PER_QUBIT_VARIANT), ForgeryStrategy(StrategyKind.REPLACE_QUBITS, 2)),
            (RunConfig(2, PER_QUBIT_VARIANT), ForgeryStrategy(StrategyKind.GARBLE_SIGNATURE)),
            (RunConfig(3, WHOLE_REGISTER_VARIANT), ForgeryStrategy(StrategyKind.REPLACE_WHOLE_REGISTER)),
            (RunConfig(2, _variant(cmp=ComparisonMode.WHOLE_REGISTER)), ForgeryStrategy(StrategyKind.REPLACE_WHOLE_REGISTER)),
            (RunConfig(3, _variant(m_t_mode=MtMode.FORWARD_PARTICLE, message_knowledge=MessageKnowledge.KNOWN_TO_ALL)), None),
            (RunConfig(2, _variant(r_prime_source=RPrimeSource.FROM_GHZ_PARTICLE)), None),
            (RunConfig(3, _variant(SigningModel.GENERAL_UNITARY, ComparisonMode.WHOLE_REGISTER, m_t_mode=MtMode.FORWARD_PARTICLE)), None),
        ],
    )
    def test_widest_array_within_budget(self, monkeypatch, config, strategy):
        # every state and every unitary stack a block builds holds at most
        # state_width amplitudes per trial, so a block longer than the floor
        # holds no array above 512 KiB
        size = block_trials(state_width(config))
        assert size > BLOCK_TRIALS
        widest = []
        post_init, owning = qsim.StateVector.__post_init__, qsim.StateVector.owning
        apply_unitary = qsim.apply_unitary

        def recorded(array):
            if array.ndim and array.shape[0] == size:
                widest.append(array.nbytes)

        def recording_post_init(state):
            post_init(state)
            recorded(state.amplitudes)

        def recording_owned(amps):
            state = owning(amps)
            recorded(state.amplitudes)
            return state

        def recording_apply(state, unitary):
            recorded(unitary)
            return apply_unitary(state, unitary)

        monkeypatch.setattr(qsim.StateVector, "__post_init__", recording_post_init)
        monkeypatch.setattr(qsim.StateVector, "owning", staticmethod(recording_owned))
        monkeypatch.setattr(qsim, "apply_unitary", recording_apply)
        monkeypatch.setattr(crypto, "apply_unitary", recording_apply)
        if strategy is None:
            run_protocol(config, rng(30), size=size)
        else:
            _attack_trials(config, strategy, rng(30), size)
        assert widest and max(widest) <= size * state_width(config) * 16 <= 2**19


REPLACE_ONE = ForgeryStrategy(StrategyKind.REPLACE_QUBITS, 1)

# (n, variant, strategy, the message that rejects it)
INVALID_RUNS = {
    "general-keys-per-qubit-comparison": (
        2, _variant(SigningModel.GENERAL_UNITARY), REPLACE_ONE, "--key-model general entangles"),
    "whole-register-strategy-per-qubit-comparison": (
        2, PER_QUBIT_VARIANT, ForgeryStrategy(StrategyKind.REPLACE_WHOLE_REGISTER),
        "--strategy replace-whole-register sends an entangled message"),
    "garble-general-keys": (
        2, WHOLE_REGISTER_VARIANT, ForgeryStrategy(StrategyKind.GARBLE_SIGNATURE),
        "--strategy garble-signature replaces the signature's first qubit"),
    "whole-register-n7": (
        7, WHOLE_REGISTER_VARIANT, ForgeryStrategy(StrategyKind.REPLACE_WHOLE_REGISTER),
        "--n 7 exceeds 6"),
    "per-qubit-n65": (65, PER_QUBIT_VARIANT, REPLACE_ONE, "--n 65 exceeds 64"),
    "m-beyond-n": (2, PER_QUBIT_VARIANT, ForgeryStrategy(StrategyKind.REPLACE_QUBITS, 3), "--m 3 must satisfy"),
}


class TestInvalidRunsRejected:
    @pytest.mark.parametrize("name", sorted(INVALID_RUNS))
    def test_library_call_raises_before_any_block(self, monkeypatch, forks, name):
        # a library caller gets the CLI's rules, in the calling process,
        # before a block runs or a worker is forked
        n, variant, strategy, message = INVALID_RUNS[name]
        jobs = []
        monkeypatch.setattr(attacks, "_run_chunk", jobs.append)
        with pytest.raises(ValueError, match=message):
            estimate_forgery_acceptance(RunConfig(n, variant), strategy, 3 * BLOCK_TRIALS, 1, workers=2)
        assert jobs == [] and forks == []
