"""End-to-end acceptance suite.

Each test prints one `[acceptance] criterion N ... PASS/FAIL` line (visible
under `pytest -s`) and then asserts. Trial counts follow the quoted failure
rates' Monte Carlo budgets; every criterion draws its trials as blocks, so
the full file takes under half a minute.
"""

import operator

import numpy as np
import pytest
import scipy.integrate

from aqsim import comparison, crypto, qsim, serialize
from aqsim.attacks import (
    ForgeryStrategy,
    StrategyKind,
    estimate_forgery_acceptance,
    map_trials,
    recovery_failure_experiment,
    state_width,
)
from aqsim.cli import _q_trials, main as cli_main
from aqsim.crypto import SigningModel
from aqsim.protocol import (
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
from aqsim.qsim import ATOL, BellOutcome, PauliOp, StateVector, XOutcome


def report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {status} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


MEASURE_X_VARIANT = ProtocolVariant(
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

REPAIRED_VARIANT = ProtocolVariant(
    RPrimeSource.FROM_MESSAGE_P,
    MtMode.FORWARD_PARTICLE,
    MessageKnowledge.KNOWN_TO_ALL,
    SigningModel.PER_QUBIT_PRODUCT,
    ComparisonMode.PER_QUBIT,
)


def _empirical_q(n: int, trials: int, seed: int) -> float:
    # q-estimate's blocks: one SWAP test of two fresh Haar states per trial
    (different,) = map_trials(_q_trials, trials, seed, width=4**n, n=n)
    return np.count_nonzero(different) / trials


def test_criterion_1_single_qubit_q():
    q = _empirical_q(1, 100_000, seed=101)
    report(1, "q for one qubit", abs(q - 0.25) < 0.01, f"q={q:.4f}, expected 0.25")


def test_criterion_2_q_formula():
    details = []
    ok = True
    for n in (1, 2, 3):
        q = _empirical_q(n, 100_000, seed=200 + n)
        expected = comparison.average_q(n)
        ok = ok and abs(q - expected) < 0.01
        details.append(f"n={n}: {q:.4f} vs {expected:.4f}")
    report(2, "q formula", ok, "; ".join(details))


def test_criterion_3_single_qubit_forgery():
    cfg = RunConfig(1, MEASURE_X_VARIANT)
    strat = ForgeryStrategy(StrategyKind.REPLACE_QUBITS, m=1)
    rep = estimate_forgery_acceptance(cfg, strat, trials=100_000, seed=301)
    ok = abs(rep.acceptance_rate - 0.75) < 0.01 and rep.gamma_rate == rep.acceptance_rate
    report(
        3,
        "worst-case forgery m=1",
        ok,
        f"acceptance={rep.acceptance_rate:.4f}, expected 0.75",
    )


def test_criterion_4_whole_register_forgery():
    cfg = RunConfig(3, WHOLE_REGISTER_VARIANT)
    strat = ForgeryStrategy(StrategyKind.REPLACE_WHOLE_REGISTER)
    rep = estimate_forgery_acceptance(cfg, strat, trials=100_000, seed=401)
    ok = abs(rep.acceptance_rate - 0.5625) < 0.01
    report(
        4,
        "whole-register forgery n=3",
        ok,
        f"acceptance={rep.acceptance_rate:.4f}, expected 0.5625",
    )


def test_criterion_5_outcome_uniformity():
    # each message's draws run as one block of `trials` (message, GHZ) joints
    trials = 100_000
    rng = np.random.default_rng(500)
    messages = [qsim.haar_random_state(1, rng) for _ in range(5)]
    bell_sigma = np.sqrt(0.25 * 0.75 / trials)
    x_sigma = np.sqrt(0.25 / trials)
    ok = True
    worst_bell = 0.0
    worst_x = 0.0
    for p in messages:
        block = StateVector(np.broadcast_to(p.amplitudes, (trials, p.dim)))
        m_a, residual = qsim.bell_measure(qsim.tensor(block, qsim.ghz_state()), 0, 1, rng)
        counts = np.bincount(m_a, minlength=len(BellOutcome))
        m_b, _ = qsim.measure_x(residual, 0, rng)
        plus = np.bincount(m_b, minlength=len(XOutcome))[XOutcome.PLUS_X]
        for o in BellOutcome:
            dev = abs(counts[o] / trials - 0.25)
            worst_bell = max(worst_bell, dev)
            ok = ok and dev < 3 * bell_sigma
        dev = abs(plus / trials - 0.5)
        worst_x = max(worst_x, dev)
        ok = ok and dev < 3 * x_sigma
    report(
        5,
        "outcome uniformity",
        ok,
        f"worst Bell dev {worst_bell:.5f} (3sigma={3 * bell_sigma:.5f}), "
        f"worst x dev {worst_x:.5f} (3sigma={3 * x_sigma:.5f})",
    )


def test_criterion_6_correlation_oracle():
    frame = build_pauli_frame()
    rng = np.random.default_rng(600)
    probes = StateVector(np.stack([qsim.haar_random_state(1, rng).amplitudes for _ in range(100)]))
    worst = min(
        corrected_share_fidelity(probes, m_a, m_b, tuple(PauliOp)[frame[m_a, m_b]]).min()
        for m_a in BellOutcome
        for m_b in XOutcome
    )
    anchor = bool(frame[BellOutcome.PSI_MINUS, XOutcome.PLUS_X] == operator.index(PauliOp.Z))
    ok = worst >= 1.0 - 1e-10 and anchor
    report(
        6,
        "correlation oracle",
        ok,
        f"min fidelity over 8x100 cases {worst:.12f}, (psi-, +x)->Z: {anchor}",
    )


def _honest_blocks(config: RunConfig, rng: np.random.Generator, size: int, **_):
    t = run_protocol(config, rng, size=size)
    return t.gamma, t.accepted


def test_criterion_7_completeness():
    # honest runs as blocks through the engine's fan-out
    runs = 10_000
    ok = True
    details = []
    for n in (1, 3, 5):
        cfg = RunConfig(n, REPAIRED_VARIANT)
        gamma, accepted = map_trials(_honest_blocks, runs, 700 + n, width=state_width(cfg), config=cfg)
        good = int(np.count_nonzero((gamma == 1) & accepted))
        ok = ok and good == runs
        details.append(f"n={n}: {good}/{runs}")
    report(7, "completeness", ok, "; ".join(details))


def test_criterion_8_recovery_failure():
    # Oracle, computed independently of the simulator: with F = |<p|+x>|^2
    # uniform on [0, 1] under the Haar prior, Bob's best x-basis candidate
    # attains mean fidelity E[F^2 + (1-F)^2].
    oracle, _ = scipy.integrate.quad(lambda u: u**2 + (1 - u) ** 2, 0.0, 1.0)
    assert oracle == pytest.approx(2 / 3, abs=1e-12)
    cfg = RunConfig(1, MEASURE_X_VARIANT)
    mean = recovery_failure_experiment(cfg, trials=100_000, seed=801)
    ok = abs(mean - oracle) < 0.01 and mean < 0.999
    report(
        8,
        "recovery failure",
        ok,
        f"mean candidate fidelity {mean:.4f}, oracle {oracle:.4f}",
    )


def test_criterion_9_fidelity_drop():
    # the forged message's mean fidelity to the signed one, as every forgery
    # report prints it: E[|<p|haar>|^2] = 1/2 per replaced qubit
    cfg = RunConfig(4, MEASURE_X_VARIANT)
    ok = True
    details = []
    for m in (1, 2, 3, 4):
        strat = ForgeryStrategy(StrategyKind.REPLACE_QUBITS, m=m)
        mean = estimate_forgery_acceptance(cfg, strat, 100_000, 900 + m).mean_fidelity
        ok = ok and abs(mean - 0.5**m) < 0.01
        details.append(f"m={m}: {mean:.4f} vs {0.5 ** m:.4f}")
    report(9, "fidelity drop", ok, "; ".join(details))


def test_criterion_10_property_bundle():
    rng = np.random.default_rng(1000)
    checks = {}

    # normalization preservation under random unitaries and Paulis
    norm_ok = True
    for _ in range(200):
        s = qsim.haar_random_state(2, rng)
        u = qsim.haar_random_unitary(2, rng.integers(0, 2**64, size=1, dtype=np.uint64))[0]
        for t in (
            qsim.apply_one_qubit(s, u, rng.integers(0, 2)),
            qsim.apply_pauli(s, PauliOp.Y, 0),
        ):
            norm_ok = norm_ok and abs(np.linalg.norm(t.amplitudes) - 1.0) < ATOL
    checks["normalization"] = norm_ok

    # unitarity of derived signing transforms
    unit_ok = True
    for model in SigningModel:
        key = crypto.KeyMaterial.random(crypto.ka_bits_required(2, model), rng)
        for mat in crypto.derive_signing_transform(key, 2, model).unitaries:
            unit_ok = unit_ok and np.allclose(mat @ mat.conj().T, np.eye(len(mat)), atol=ATOL)
    checks["transform unitarity"] = unit_ok

    # encryption roundtrips, quantum and classical
    round_ok = True
    for _ in range(50):
        s = qsim.haar_random_state(2, rng, (1,))
        pad = rng.integers(0, 2, size=4).astype(np.uint8)
        round_ok = round_ok and qsim.register_fidelity(
            crypto.qotp_decrypt(crypto.qotp_encrypt(s, pad), pad), s
        ) >= 1 - ATOL
        bits = rng.integers(0, 2, size=8).astype(np.uint8)
        cpad = rng.integers(0, 2, size=8).astype(np.uint8)
        round_ok = round_ok and np.array_equal(
            crypto.classical_decrypt(crypto.classical_encrypt(bits, cpad), cpad), bits
        )
    checks["encryption roundtrips"] = round_ok

    # exhaustive single-qubit pad average is the maximally mixed state
    s = qsim.haar_random_state(1, rng, (1,))
    avg = np.zeros((2, 2), dtype=complex)
    for a in (0, 1):
        for b in (0, 1):
            amps = crypto.qotp_encrypt(s, np.array([a, b], dtype=np.uint8)).amplitudes[0]
            avg += np.outer(amps, amps.conj()) / 4
    checks["qotp pad average I/2"] = bool(np.allclose(avg, np.eye(2) / 2, atol=1e-10))

    # the SWAP test never rejects identical states (100,000 pairs, one block)
    t = qsim.haar_random_state(1, rng, (100_000,))
    checks["swap test identical"] = not comparison.swap_test(t, t, rng).different.any()

    # byte-identical reports under a fixed seed
    import tempfile, pathlib

    with tempfile.TemporaryDirectory() as d:
        paths = [str(pathlib.Path(d) / name) for name in ("a.json", "b.json")]
        for path in paths:
            code = cli_main(
                ["--scenario", "forgery", "--trials", "50", "--seed", "42", "--out", path]
            )
            assert code == 0
        a, b = (pathlib.Path(p).read_bytes() for p in paths)
    checks["byte-identical reports"] = a == b

    # deterministic transcripts through the serializer
    t1 = serialize.dumps(serialize.transcript_to_dict(run_protocol(RunConfig(2, REPAIRED_VARIANT), 7, 3)))
    t2 = serialize.dumps(serialize.transcript_to_dict(run_protocol(RunConfig(2, REPAIRED_VARIANT), 7, 3)))
    checks["deterministic transcripts"] = t1 == t2

    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    report(
        10,
        "property bundle",
        ok,
        "all properties hold" if ok else f"failed: {', '.join(failed)}",
    )
