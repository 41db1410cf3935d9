"""A block of T trials is T independent runs: row t of a block equals the
one-trial block (T = 1) fed row t of the block's random draws. And a block
costs the same number of qsim calls whatever the register's size, and a
bounded number of bytes per trial and qubit."""

import collections
import functools
import inspect
import sys
import tracemalloc

import numpy as np
import pytest

from aqsim import crypto, qsim, serialize
from aqsim.attacks import BLOCK_TRIALS, ForgeryStrategy, StrategyKind, _garble_tap, block_rng, forge
from aqsim.crypto import Sealed, SigningModel, ciphertext
from aqsim.protocol import (
    ComparisonMode,
    MessageKnowledge,
    MtMode,
    ProtocolVariant,
    RPrimeSource,
    RunConfig,
    pauli_frame,
    run_protocol,
)

# Fixed before any comparison was made: far above the rounding of a few
# dozen operations on unit vectors, far below any physical difference.
TOLERANCE = 1e-12
T = 5


class _Recorder(np.random.Generator):
    """A generator that logs every draw it makes."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.log = []

    def random(self, size=None):
        out = super().random(size)
        self.log.append(("random", out))
        return out

    def integers(self, low, high=None, size=None, dtype=np.int64):
        out = super().integers(low, high, size=size, dtype=dtype)
        self.log.append(("integers", out))
        return out

    def standard_normal(self, size=None):
        out = super().standard_normal(size)
        self.log.append(("standard_normal", out))
        return out


class _Replay(np.random.Generator):
    """Hands out row t of each draw a _Recorder logged, in the same order."""

    def __init__(self, log, t):
        super().__init__(np.random.PCG64(0))
        self.log = iter(log)
        self.t = t

    def _next(self, name, size):
        logged, out = next(self.log)
        assert logged == name
        row = out[self.t : self.t + 1]
        assert row.shape == tuple(size)
        return row

    def random(self, size=None):
        return self._next("random", size)

    def integers(self, low, high=None, size=None, dtype=np.int64):
        return self._next("integers", size)

    def standard_normal(self, size=None):
        return self._next("standard_normal", size)


def _variant(r_prime=RPrimeSource.FROM_MESSAGE_P, mt=MtMode.MEASURE_X, knowledge=MessageKnowledge.ALICE_ONLY,
             keys=SigningModel.PER_QUBIT_PRODUCT, cmp=ComparisonMode.PER_QUBIT):
    return ProtocolVariant(r_prime, mt, knowledge, keys, cmp)


def _forging(strategy):
    def tap(message, sig, rng):
        return forge(message, strategy, rng), sig

    return tap


CASES = {
    "honest": (RunConfig(2, _variant()), None),
    "replace-qubits": (RunConfig(3, _variant()), _forging(ForgeryStrategy(StrategyKind.REPLACE_QUBITS, m=2))),
    # four qubits per trial, so every per-qubit draw spans a (T, 4) array
    "per-qubit-n4": (RunConfig(4, _variant()), _forging(ForgeryStrategy(StrategyKind.REPLACE_QUBITS, m=3))),
    "garble": (RunConfig(2, _variant()), _garble_tap),
    "whole-register-general-key": (
        RunConfig(2, _variant(keys=SigningModel.GENERAL_UNITARY, cmp=ComparisonMode.WHOLE_REGISTER)),
        _forging(ForgeryStrategy(StrategyKind.REPLACE_WHOLE_REGISTER)),
    ),
    "forward-particle": (
        RunConfig(2, _variant(mt=MtMode.FORWARD_PARTICLE, knowledge=MessageKnowledge.KNOWN_TO_ALL)),
        _forging(ForgeryStrategy(StrategyKind.REPLACE_QUBITS, m=1)),
    ),
    "ghz-r-prime": (RunConfig(2, _variant(r_prime=RPrimeSource.FROM_GHZ_PARTICLE)), None),
    "ghz-r-prime-forged": (
        RunConfig(2, _variant(r_prime=RPrimeSource.FROM_GHZ_PARTICLE)),
        _forging(ForgeryStrategy(StrategyKind.REPLACE_QUBITS, m=1)),
    ),
}


def _rows(transcript):
    """Every per-trial field of a transcript, as arrays with the trial axis first."""
    fields = {
        "accepted": transcript.accepted,
        "gamma": transcript.gamma,
        "m_a": transcript.m_a,
        "m_b": transcript.m_b,
    }
    if transcript.m_t is not None:
        fields["m_t"] = transcript.m_t
    for bundle in ("y_b", "y_tb"):
        for name, value in getattr(transcript, bundle).items():
            if value is None:
                continue
            fields[f"{bundle}.{name}"] = ciphertext(value).amplitudes if isinstance(value, Sealed) else value
    for name in ("message_fidelity", "candidate_fidelity", "candidate_fidelity_per_qubit"):
        fields[name] = transcript.extras[name]
    return fields


@pytest.mark.parametrize("name", sorted(CASES))
def test_row_equals_single_trial_block(name):
    config, tap = CASES[name]
    recorder = _Recorder(20260)
    block = _rows(run_protocol(config, recorder, channel_tap=tap, size=T))
    assert all(value.shape[0] == T for value in block.values())
    for t in range(T):
        replay = _Replay(recorder.log, t)
        row = _rows(run_protocol(config, replay, channel_tap=tap, size=1))
        assert next(replay.log, None) is None  # every draw was replayed
        assert sorted(row) == sorted(block)
        for field, value in row.items():
            expected = block[field][t : t + 1]
            if np.iscomplexobj(value) or value.dtype.kind == "f":
                assert np.allclose(value, expected, rtol=0, atol=TOLERANCE, equal_nan=True), (name, field, t)
            else:
                assert np.array_equal(value, expected), (name, field, t)


def _calls(monkeypatch, run, modules=(qsim,)) -> collections.Counter:
    """Calls of every function the modules define, and StateVector
    constructions, made by run(); counted under every aqsim module name bound
    to them."""
    counts = collections.Counter()

    def counting(name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    wrappers = {
        id(fn): (fn, counting(name, fn))
        for module in modules
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__
    }
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "aqsim" or mod_name.startswith("aqsim."):
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    monkeypatch.setattr(mod, attr, hit[1])
    post_init, owning = qsim.StateVector.__post_init__, qsim.StateVector.owning

    def constructing(state):
        counts["StateVector"] += 1
        post_init(state)

    def owned(amps):
        counts["StateVector"] += 1
        return owning(amps)

    monkeypatch.setattr(qsim.StateVector, "__post_init__", constructing)
    monkeypatch.setattr(qsim.StateVector, "owning", staticmethod(owned))
    run()
    monkeypatch.undo()
    return counts


def test_block_calls_independent_of_register_size(monkeypatch):
    # every per-qubit step is one call over the register's block axis, so a
    # 256-trial forgery block makes the same qsim calls at n = 2 and n = 16
    forging = _forging(ForgeryStrategy(StrategyKind.REPLACE_QUBITS, m=2))
    pauli_frame()  # built once per process, before any block
    counts = {
        n: _calls(
            monkeypatch,
            lambda: run_protocol(RunConfig(n, _variant()), block_rng(31, 0), channel_tap=forging, size=BLOCK_TRIALS),
        )
        for n in (2, 16)
    }
    assert counts[2]["apply_pauli"] > 0 and counts[2]["bell_measure"] == 1
    assert counts[2]["tensor"] == 0  # Alice's Bell rows come from the factors, not a joint
    assert counts[16] == counts[2]


@pytest.mark.parametrize("name, pads", [("replace-qubits", 0), ("whole-register-general-key", 0), ("garble", 1)])
def test_pads_reach_amplitudes_only_where_a_ciphertext_is_read(monkeypatch, name, pads):
    # every party opens a register with the key slice that sealed it, so no
    # pad touches amplitudes; the garble tap reads the K_a ciphertext (one
    # encrypt), and the arbitrator decrypts the one the tap wrote (one decrypt)
    config, tap = CASES[name]
    counts = _calls(
        monkeypatch, lambda: run_protocol(config, block_rng(41, 0), channel_tap=tap, size=BLOCK_TRIALS), (crypto,)
    )
    assert (counts["qotp_encrypt"], counts["qotp_decrypt"], counts["_qotp"]) == (pads, pads, 2 * pads)


_WHOLE_GENERAL, _FORGING_WHOLE = CASES["whole-register-general-key"]
# name: (n, channel tap, whether the transcript is serialized, stacks built)
SIGNED_READS = {
    "forgery": (2, _FORGING_WHOLE, False, 0),
    "garble": (1, _garble_tap, False, 1),
    "forgery-transcript": (2, _FORGING_WHOLE, True, 1),
}


@pytest.mark.parametrize("name", sorted(SIGNED_READS))
def test_unitaries_built_only_where_a_signed_state_is_read(monkeypatch, name):
    # R and R' are compared under the one transform without building it, so
    # a general-key forgery block builds no unitary; the garble tap reads
    # U x, and so does a transcript (the signature's ciphertext in y_b and
    # y_tb), and either builds and checks the block's stack once
    n, tap, serialized, builds = SIGNED_READS[name]

    def run():
        transcript = run_protocol(RunConfig(n, _WHOLE_GENERAL.variant), block_rng(43, 0), channel_tap=tap, size=BLOCK_TRIALS)
        if serialized:
            serialize.transcript_to_dict(transcript)

    counts = _calls(monkeypatch, run, (qsim, crypto))
    assert (counts["haar_random_unitary"], counts["_check_unitary"]) == (builds, builds)
    assert (counts["apply_unitary"] > 0) == (builds > 0)


def test_block_footprint_per_qubit_row():
    # a measurement keeps only the drawn branch and copies none of the state,
    # Alice's Bell rows are built from the message and GHZ factors two at a
    # time, and a register sealed and opened under one key slice is never
    # padded, so a 2048-trial forge n=1 m=1 block and a 341-trial forge n=6
    # m=2 block peak below 540 traced bytes per trial and qubit (546 while
    # every seal padded the amplitudes, 684 while the 16-amplitude message
    # (x) GHZ joint was built, 1116 when every Bell outcome's residual was kept)
    for n, m, trials in ((1, 1, 2048), (6, 2, 341)):
        config = RunConfig(n, _variant())
        forging = _forging(ForgeryStrategy(StrategyKind.REPLACE_QUBITS, m=m))
        run_protocol(config, block_rng(37, 0), channel_tap=forging, size=trials)  # warm-up
        tracemalloc.start()
        try:
            run_protocol(config, block_rng(37, 1), channel_tap=forging, size=trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (trials * n) <= 540, (n, m, trials)
