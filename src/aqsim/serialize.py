"""Structured-text (JSON-shaped) serialization for transcripts and reports.

Complex amplitudes serialize as [re, im] pairs. Dumping is deterministic
(sorted keys, fixed separators) so identical seeds give byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

from .protocol import EncryptedYb, EncryptedYtb, Transcript
from .qsim import StateVector


def state_to_list(state: StateVector) -> list[list[float]]:
    return [[float(a.real), float(a.imag)] for a in state.amplitudes]


def _bits(arr) -> list[int]:
    return [int(b) for b in np.asarray(arr)]


def _plain(value):
    """A number or array as plain JSON-ready Python values."""
    return None if value is None else np.asarray(value).tolist()


def yb_to_dict(y_b: EncryptedYb) -> dict:
    return {
        "mb_bits": _bits(y_b.mb_bits),
        "sig_bell_bits": _bits(y_b.sig.enc_bell),
        "sig_state": [state_to_list(b) for b in y_b.sig.enc_state],
        "msg_state": [state_to_list(b) for b in y_b.msg_state],
    }


def ytb_to_dict(y_tb: EncryptedYtb) -> dict:
    return {
        "ma_bits": _bits(y_tb.ma_bits),
        "mb_bits": _bits(y_tb.mb_bits),
        "mt_bits": None if y_tb.mt_bits is None else _bits(y_tb.mt_bits),
        "gamma_bit": _bits(y_tb.gamma_bit),
        "sig_bell_bits": _bits(y_tb.sig.enc_bell),
        "sig_state": [state_to_list(b) for b in y_tb.sig.enc_state],
        "particles": None
        if y_tb.particles is None
        else [state_to_list(t) for t in y_tb.particles],
    }


def variant_to_dict(variant) -> dict:
    return {
        "r_prime_source": variant.r_prime_source.value,
        "m_t_mode": variant.m_t_mode.value,
        "message_knowledge": variant.message_knowledge.value,
        "key_model": variant.key_model.value,
        "comparison_mode": variant.comparison_mode.value,
    }


def transcript_to_dict(t: Transcript) -> dict:
    return {
        "seed": t.seed,
        "n": t.n,
        "variant": variant_to_dict(t.variant),
        "m_a": None if t.m_a is None else [o.value for o in t.m_a],
        "m_b": None if t.m_b is None else [o.value for o in t.m_b],
        "m_t": None if t.m_t is None else [o.value for o in t.m_t],
        "gamma": _plain(t.gamma),
        "y_b": None if t.y_b is None else yb_to_dict(t.y_b),
        "y_tb": None if t.y_tb is None else ytb_to_dict(t.y_tb),
        "verdict": None if t.verdict is None else t.verdict.value,
        "extras": {key: _plain(value) for key, value in t.extras.items()},
    }


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
