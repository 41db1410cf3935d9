"""The aqsim names the benchmark scripts reach into must exist.

`benchmarks/` patches and calls the package from outside: `tracer.py` wraps
every function in its TRACED list, and `child.py`, `tracer.py` and
`cache_probe.py` call or replace further names. The benchmark's own tests run
outside this suite, so a refactor that deletes one of these names would only
show when the benchmark runs. These tests read the scripts without running
them.
"""

import importlib.util
import inspect
import pathlib
import re

import pytest

import aqsim
from aqsim import attacks, protocol

BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"

# A dotted reference to an aqsim module attribute, such as `cli.run_scenario`
# or `qsim.StateVector.__post_init__`.
_REFERENCE = re.compile(r"\b(?:aqsim\.)?(?:attacks|cli|comparison|crypto|protocol|qsim|serialize)(?:\.\w+)+")


def _resolve(dotted: str):
    obj = aqsim
    for part in dotted.removeprefix("aqsim.").split("."):
        obj = getattr(obj, part)
    return obj


def _traced():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", BENCHMARKS / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines TRACED and Tracer; installs nothing
    return tracer.TRACED


@pytest.mark.parametrize("module, name", _traced())
def test_traced_function_exists(module, name):
    assert callable(getattr(getattr(aqsim, module), name))


@pytest.mark.parametrize("script", ["child.py", "tracer.py", "cache_probe.py"])
def test_script_references_resolve(script):
    references = set(_REFERENCE.findall((BENCHMARKS / script).read_text()))
    assert references  # the pattern still finds what it looks for
    missing = []
    for dotted in sorted(references):
        try:
            _resolve(dotted)
        except AttributeError:
            missing.append(dotted)
    assert not missing, f"{script} refers to names aqsim no longer has: {missing}"


def test_map_trials_signature_kept():
    # child.py wraps map_trials as (fn, trials, seed, workers=1, **kwargs)
    params = inspect.signature(attacks.map_trials).parameters
    assert list(params) == ["fn", "trials", "seed", "workers", "kwargs"]
    assert params["workers"].default == 1


def test_pauli_frame_builds_through_the_module_name(monkeypatch):
    # tracer.py times the frame build by replacing protocol.build_pauli_frame,
    # so the cached pauli_frame() must look the builder up there
    built = object()
    protocol.pauli_frame.cache_clear()
    monkeypatch.setattr(protocol, "build_pauli_frame", lambda: built)
    try:
        assert protocol.pauli_frame() is built
        assert protocol.pauli_frame.cache_info().misses == 1
    finally:
        protocol.pauli_frame.cache_clear()  # no later test sees the stand-in
