"""Simulator and Monte Carlo analysis of a GHZ-based arbitrated quantum
signature protocol, its ambiguous-step variants, and its forgery attacks."""

import importlib

from . import attacks, comparison, crypto, protocol, qsim, serialize  # noqa: F401


def __getattr__(name: str):
    # `aqsim.cli` loads on first use, so `python -m aqsim.cli` executes it once, as __main__
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
