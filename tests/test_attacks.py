"""Forgery strategies and Monte Carlo estimators."""

from dataclasses import replace

import numpy as np
import pytest

from aqsim import qsim
from aqsim.attacks import (
    AttackReport,
    CSV_HEADER,
    ForgeryStrategy,
    StrategyKind,
    _orthogonal_qubit,
    analytic_acceptance,
    binomial_ci,
    estimate_forgery_acceptance,
    fidelity_drop,
    forge,
    haar_qubit_sampler,
    map_trials,
    recovery_failure_experiment,
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
)

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
            changed = sum(
                qsim.fidelity(a, b) < 1 - 1e-9
                for a, b in zip(msg, forged)
            )
            assert changed == m

    def test_m_bounds(self):
        msg = haar_product_message(2, rng(2))
        for m in (0, 3, None):
            with pytest.raises(ValueError):
                forge(msg, ForgeryStrategy(StrategyKind.REPLACE_QUBITS, m=m), rng(3))

    def test_whole_register_generally_entangled(self):
        msg = haar_product_message(2, rng(4))
        forged = forge(
            msg, ForgeryStrategy(StrategyKind.REPLACE_WHOLE_REGISTER), rng(5)
        )
        assert [b.qubit_count for b in forged] == [2]  # one entangled block

    def test_garble_does_not_forge_message(self):
        msg = haar_product_message(1, rng(6))
        with pytest.raises(ValueError):
            forge(msg, ForgeryStrategy(StrategyKind.GARBLE_SIGNATURE), rng(7))

    def test_orthogonal_qubit(self):
        r = rng(8)
        for _ in range(20):
            s = qsim.haar_random_state(1, r)
            assert qsim.fidelity(s, _orthogonal_qubit(s)) < 1e-12

    def test_custom_sampler(self):
        plus = qsim.x_state(qsim.XOutcome.PLUS_X)
        strat = ForgeryStrategy(StrategyKind.REPLACE_QUBITS, m=1, sampler=lambda r: plus)
        forged = forge(haar_product_message(1, rng(9)), strat, rng(10))
        assert qsim.fidelity(forged[0], plus) >= 1 - 1e-12


class TestFidelityDrop:
    def test_identity_sampler_no_drop(self):
        # a sampler that hands back the original factor leaves fidelity at 1
        msg1 = haar_product_message(1, rng(13))
        keep = ForgeryStrategy(
            StrategyKind.REPLACE_QUBITS, m=1, sampler=lambda r: msg1[0]
        )
        assert fidelity_drop(msg1, keep, trials=50, seed=1) == pytest.approx(1.0)

    def test_haar_halves_per_replaced_qubit(self):
        # E[|<p|haar>|^2] = 1/2 per qubit, so the drop factorizes as (1/2)^m
        msg = haar_product_message(3, rng(14))
        for m in (1, 2, 3):
            strat = ForgeryStrategy(StrategyKind.REPLACE_QUBITS, m=m)
            mean = fidelity_drop(msg, strat, trials=20000, seed=2)
            assert mean == pytest.approx(0.5**m, abs=0.02)


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
        assert report.ci_low <= 0.75 <= report.ci_high
        assert report.acceptance_rate == pytest.approx(report.gamma_rate)
        assert report.mean_fidelity == pytest.approx(0.5, abs=0.03)

    def test_acceptance_monotone_in_m(self):
        cfg = RunConfig(3, PER_QUBIT_VARIANT)
        rates = [
            estimate_forgery_acceptance(
                cfg, ForgeryStrategy(StrategyKind.REPLACE_QUBITS, m=m), 1500, 4
            ).acceptance_rate
            for m in (1, 2, 3)
        ]
        assert rates[0] > rates[1] > rates[2]

    def test_whole_register_acceptance(self):
        cfg = RunConfig(2, WHOLE_REGISTER_VARIANT)
        strat = ForgeryStrategy(StrategyKind.REPLACE_WHOLE_REGISTER)
        report = estimate_forgery_acceptance(cfg, strat, trials=3000, seed=5)
        assert report.analytic_prediction == pytest.approx(0.625)
        assert report.ci_low <= 0.625 <= report.ci_high

    def test_general_key_cache_bounded(self, monkeypatch):
        # fresh Haar signing unitaries never recur, so only the byte bound
        # stops them accumulating; 50 trials of 1 KiB unitaries overrun 16 KiB
        cfg = RunConfig(3, WHOLE_REGISTER_VARIANT)
        strat = ForgeryStrategy(StrategyKind.REPLACE_WHOLE_REGISTER)
        for bound in (qsim._UNITARY_CACHE_MAX_BYTES, 16 * 2**10):
            monkeypatch.setattr(qsim, "_UNITARY_CACHE_MAX_BYTES", bound)
            qsim._UNITARY_CACHE.clear()
            estimate_forgery_acceptance(cfg, strat, trials=50, seed=11)
            assert 0 < sum(map(len, qsim._UNITARY_CACHE)) <= bound

    def test_garble_acceptance(self):
        cfg = RunConfig(1, PER_QUBIT_VARIANT)
        strat = ForgeryStrategy(StrategyKind.GARBLE_SIGNATURE)
        report = estimate_forgery_acceptance(cfg, strat, trials=3000, seed=6)
        assert report.ci_low <= 0.5 <= report.ci_high
        assert report.mean_fidelity == pytest.approx(1.0)  # message untouched

    def test_report_serialization(self):
        cfg = RunConfig(1, PER_QUBIT_VARIANT)
        strat = ForgeryStrategy(StrategyKind.REPLACE_QUBITS, m=1)
        report = estimate_forgery_acceptance(cfg, strat, trials=50, seed=7)
        d = report.to_dict()
        assert d["strategy"] == "replace-qubits" and d["trials"] == 50
        row = report.csv_row()
        assert len(row) == len(CSV_HEADER)

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
        fids = [
            run_protocol(RunConfig(1, v), seed).extras["candidate_fidelity"]
            for seed in range(50)
        ]
        assert all(abs(f - 1.0) < 1e-10 for f in fids)


def _echo_trial(seed, i, offset):
    return (seed, i, offset)


class TestMapTrials:
    def test_serial_order(self):
        out = map_trials(_echo_trial, 5, 42, workers=1, offset=7)
        assert out == [(42, i, 7) for i in range(5)]

    def test_worker_count_invariant(self):
        serial = map_trials(_echo_trial, 13, 8, workers=1, offset=0)
        parallel = map_trials(_echo_trial, 13, 8, workers=2, offset=0)
        assert serial == parallel
