"""Structured-text (JSON-shaped) serialization for transcripts and reports.

Complex amplitudes serialize as [re, im] pairs, outcome positions as the
values of the enum members they index, verdicts as "accepted" or "rejected",
and a sealed bundle (see crypto) as its fields under their own names. A
transcript is a block of trials, so every per-trial field is a list with the
trial axis first: trial t is row t.
Dumping is deterministic (sorted keys, fixed separators) so identical seeds
give byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .protocol import Transcript
from .qsim import BellOutcome, StateVector, XOutcome


def state_to_list(state: StateVector) -> list:
    """Amplitudes of any batch shape as nested lists ending in [re, im] pairs."""
    amps = state.amplitudes
    return np.stack([amps.real, amps.imag], axis=-1).tolist()


def _plain(value):
    """A number or array as plain JSON-ready Python values."""
    return None if value is None else np.asarray(value).tolist()


def _values(outcomes, positions):
    """Outcome positions of any shape as nested lists of the outcomes' values."""
    if positions is None:
        return None
    return np.array([o.value for o in outcomes])[np.asarray(positions, dtype=np.intp)].tolist()


def bundle_to_dict(bundle: dict) -> dict:
    return {
        name: state_to_list(value) if isinstance(value, StateVector) else _plain(value)
        for name, value in bundle.items()
    }


def _seed(seed):
    """An int seed as itself; a Generator as the SeedSequence it was built
    from, so a block run by `attacks.map_trials` records (seed, block)."""
    if isinstance(seed, np.random.Generator):
        seq = seed.bit_generator.seed_seq
        return {"entropy": seq.entropy, "spawn_key": list(seq.spawn_key)}
    return seed


def variant_to_dict(variant) -> dict:
    return {f.name: getattr(variant, f.name).value for f in dataclasses.fields(variant)}


def transcript_to_dict(t: Transcript) -> dict:
    """A block's transcript, the trial axis first on every per-trial field."""
    return {
        "seed": _seed(t.seed),
        "n": t.n,
        "variant": variant_to_dict(t.variant),
        "m_a": _values(BellOutcome, t.m_a),
        "m_b": _values(XOutcome, t.m_b),
        "m_t": _values(XOutcome, t.m_t),
        "gamma": _plain(t.gamma),
        "y_b": None if t.y_b is None else bundle_to_dict(t.y_b),
        "y_tb": None if t.y_tb is None else bundle_to_dict(t.y_tb),
        "verdict": None if t.accepted is None else np.where(t.accepted, "accepted", "rejected").tolist(),
        "extras": {key: _plain(value) for key, value in t.extras.items()},
    }


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
