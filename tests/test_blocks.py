"""A block of T trials is T independent runs: row t of a block equals the
one-trial block (T = 1) fed row t of the block's random draws. And a block
costs the same number of qsim calls whatever the register's size."""

import collections
import functools
import inspect
import sys

import numpy as np
import pytest

from aqsim import qsim
from aqsim.attacks import BLOCK_TRIALS, ForgeryStrategy, StrategyKind, _garble_tap, block_rng, forge
from aqsim.crypto import SigningModel
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
    "non-idealized": (
        RunConfig(2, _variant(r_prime=RPrimeSource.FROM_GHZ_PARTICLE), idealized_comparison=False),
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
            fields[f"{bundle}.{name}"] = value.amplitudes if isinstance(value, qsim.StateVector) else value
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


def _qsim_calls(monkeypatch, run) -> collections.Counter:
    """Calls of every function qsim defines, and StateVector constructions,
    made by run(); counted under every aqsim module name bound to them."""
    counts = collections.Counter()

    def counting(name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    wrappers = {
        id(fn): (fn, counting(name, fn))
        for name, fn in vars(qsim).items()
        if inspect.isfunction(fn) and fn.__module__ == qsim.__name__
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
        n: _qsim_calls(
            monkeypatch,
            lambda: run_protocol(RunConfig(n, _variant()), block_rng(31, 0), channel_tap=forging, size=BLOCK_TRIALS),
        )
        for n in (2, 16)
    }
    assert counts[2]["apply_pauli"] > 0 and counts[2]["bell_measure"] == 1
    assert counts[16] == counts[2]
