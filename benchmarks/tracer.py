"""Span tracer for the benchmark's per-layer metrics.

It records from outside the package: each traced function is replaced, in
every aqsim module that binds it, by a wrapper that times the call. Nothing
in `src/aqsim` changes, and traced reports stay byte-identical to untraced
ones because the wrappers only read the clock.

A span's self time is its duration minus the time of the traced calls made
inside it. Wall and CPU self times are both kept; CPU is the calling
process's own user+sys time.

Trial fan-out (`attacks.map_trials` with more than one worker) forks pool
workers that inherit the wrappers. A fork hook zeroes the inherited counts,
and every worker writes its cumulative counts to `worker_dir` after each
chunk of trials, so the parent can merge them into one record per CLI
invocation. This relies on the pool's fork start method, the default for
Python < 3.14 on Linux; the benchmark's tests fail if worker counts go
missing.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import sys
import time

# (module, function) pairs to trace. The metric prefix is "<module>.<function>";
# a function bound under other names or in other modules is traced under this
# one prefix.
TRACED = (
    ("qsim", "tensor"),
    ("qsim", "fidelity"),
    ("qsim", "_project_out"),
    ("qsim", "apply_pauli"),
    ("qsim", "apply_one_qubit"),
    ("qsim", "apply_unitary"),
    ("qsim", "bell_measure"),
    ("qsim", "measure_x"),
    ("qsim", "product_factors"),
    ("qsim", "haar_random_state"),
    ("qsim", "haar_random_unitary"),
    ("crypto", "qotp_encrypt"),
    ("crypto", "qotp_decrypt"),
    ("crypto", "classical_encrypt"),
    ("crypto", "derive_signing_transform"),
    ("crypto", "make_signature"),
    ("crypto", "open_signature"),
    ("comparison", "swap_test"),
    ("comparison", "compare_product"),
    ("protocol", "initialize"),
    ("protocol", "alice_sign"),
    ("protocol", "bob_receive_and_forward"),
    ("protocol", "arbitrator_verify"),
    ("protocol", "bob_final_verify"),
    ("protocol", "run_protocol"),
    ("protocol", "build_pauli_frame"),
    ("attacks", "forge"),
    ("attacks", "map_trials"),
    ("cli", "validate_config"),
    ("serialize", "dumps"),
)

# Spans whose individual durations are kept, for latency percentiles.
KEEP_DURATIONS = ("protocol.run_protocol",)

# Per-span counters: calls, wall ns, self wall ns, self CPU ns.
_CALLS, _WALL, _SELF_WALL, _SELF_CPU = range(4)


class Tracer:
    """Counts and span times for one process, plus the merge of its workers."""

    def __init__(self, worker_dir: str):
        self.worker_dir = worker_dir
        self.stats: dict[str, list[int]] = {}
        self.durations: dict[str, list[int]] = {name: [] for name in KEEP_DURATIONS}
        self.constructions = [0]
        self.bindings: list[str] = []
        self._stack: list[list[int]] = []
        self._pid = os.getpid()
        self._qsim = None

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every TRACED function under every aqsim module name bound to it."""
        import aqsim
        from aqsim import attacks, qsim

        self._qsim = qsim
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "aqsim" or name.startswith("aqsim.")
        }
        wrappers = {}
        for mod_name, fn_name in TRACED:
            fn = getattr(getattr(aqsim, mod_name), fn_name)
            wrappers[id(fn)] = (fn, self._wrap(f"{mod_name}.{fn_name}", fn))
        for mod_name, mod in sorted(modules.items()):
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self.bindings.append(f"{mod_name}.{attr}")

        counter = self.constructions
        post_init = qsim.StateVector.__post_init__

        def counted_post_init(state):
            counter[0] += 1
            post_init(state)

        qsim.StateVector.__post_init__ = counted_post_init

        run_chunk = attacks._run_chunk

        @functools.wraps(run_chunk)
        def flushing_run_chunk(args):
            try:
                return run_chunk(args)
            finally:
                self._flush_worker()

        # Pickled by name, so forked workers resolve this same wrapper.
        attacks._run_chunk = flushing_run_chunk
        os.register_at_fork(after_in_child=self._reset_after_fork)
        return self

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0, 0, 0])
        keep = self.durations.get(name)
        stack = self._stack
        wall = time.perf_counter_ns
        cpu = time.process_time_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0, 0]
            stack.append(children)
            w0 = wall()
            c0 = cpu()
            try:
                return fn(*args, **kwargs)
            finally:
                dc = cpu() - c0
                dw = wall() - w0
                stack.pop()
                stat[_CALLS] += 1
                stat[_WALL] += dw
                stat[_SELF_WALL] += dw - children[0]
                stat[_SELF_CPU] += dc - children[1]
                if stack:
                    stack[-1][0] += dw
                    stack[-1][1] += dc
                if keep is not None:
                    keep.append(dw)

        return traced

    # -- worker processes ----------------------------------------------------

    def _reset_after_fork(self) -> None:
        # The wrappers hold these objects, so they are cleared in place.
        for stat in self.stats.values():
            stat[:] = [0, 0, 0, 0]
        for kept in self.durations.values():
            kept.clear()
        self.constructions[0] = 0
        self._stack.clear()

    def _flush_worker(self) -> None:
        if os.getpid() == self._pid:
            return
        path = os.path.join(self.worker_dir, f"worker-{os.getpid()}.json")
        with open(path + ".tmp", "w") as f:
            json.dump(self.snapshot(), f)
        os.replace(path + ".tmp", path)

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        """This process's counts, durations and unitary-cache size."""
        cache = self._qsim._UNITARY_CACHE
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "durations": {k: list(v) for k, v in self.durations.items()},
            "constructions": self.constructions[0],
            "cache_entries": len(cache),
            "cache_bytes": sum(len(key) for key in cache),
        }

    def collect(self) -> dict:
        """This process merged with its workers' last snapshots.

        Counts, times and durations add up. The unitary cache is reported for
        the process holding the largest one, since each process has its own.
        """
        merged = self.snapshot()
        merged["bindings"] = sorted(self.bindings)
        merged["workers"] = 0
        for path in sorted(glob.glob(os.path.join(self.worker_dir, "worker-*.json"))):
            with open(path) as f:
                part = json.load(f)
            merged["workers"] += 1
            for name, stat in part["stats"].items():
                merged["stats"][name] = [a + b for a, b in zip(merged["stats"][name], stat)]
            for name, kept in part["durations"].items():
                merged["durations"][name].extend(kept)
            merged["constructions"] += part["constructions"]
            if part["cache_bytes"] > merged["cache_bytes"]:
                merged["cache_entries"] = part["cache_entries"]
                merged["cache_bytes"] = part["cache_bytes"]
        return merged
