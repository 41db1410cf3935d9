"""One timed aqsim CLI invocation, started by run.py in a fresh process.

    python3 child.py STATS_PATH MODE CLI_ARGS...

Does what `aqsim.cli.main` does, but builds the Pauli frame before the first
trial and stamps the monotonic clock there, so set-up and trials are timed
apart. MODE is `run`, `trace` or `setup`. With `run` the wall and CPU time
of every trial run in this process is recorded, and chunks of the reference
computation are timed among the trials; with `trace` the
per-layer tracer is installed before the CLI arguments are validated; with
`setup` the process stops at the stamp and runs no trial. Writes its stamps,
set-up CPU time, the path of the imported package, the numpy version, the
trial times and any trace to STATS_PATH as JSON, and exits with the CLI's
code.
"""

import functools
import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def clock_trials() -> list[dict]:
    """Record the wall and CPU nanoseconds of every trial run in this process.

    Wraps `attacks.map_trials` in every aqsim module that binds it. Under a
    single worker the wrapper times each call of the trial function, and
    before every (trials // reference.CHUNKS)-th trial it times a chunk of
    the reference computation. Returns the list that receives one record
    per map_trials call in this process: its trial count and worker count
    and, for a single worker, the trials' times indexed by trial and the
    reference chunks' times. The wrappers only read the clocks, so reports
    do not change.
    """
    import reference
    from aqsim import attacks

    map_trials = attacks.map_trials
    calls: list[dict] = []
    perf, proc = time.perf_counter_ns, time.process_time_ns

    @functools.wraps(map_trials)
    def clocked_map_trials(fn, trials, seed, workers=1, **kwargs):
        call = {"trials": trials, "workers": workers}
        calls.append(call)
        if workers > 1:
            return map_trials(fn, trials, seed, workers, **kwargs)
        wall = call["wall"] = [0] * trials
        cpu = call["cpu"] = [0] * trials
        ref_wall = call["ref_wall"] = []
        ref_cpu = call["ref_cpu"] = []
        every = max(1, trials // reference.CHUNKS)

        def timed(*, seed, i, **kw):
            if i % every == 0:
                c0 = proc()
                ref_wall.append(reference.chunk_ns())
                ref_cpu.append(proc() - c0)
            w0, c0 = perf(), proc()
            try:
                return fn(seed=seed, i=i, **kw)
            finally:
                cpu[i] = proc() - c0
                wall[i] = perf() - w0

        return map_trials(timed, trials, seed, workers, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("aqsim.") and vars(mod).get("map_trials") is map_trials:
            setattr(mod, "map_trials", clocked_map_trials)
    return calls


def main(argv: list[str]) -> int:
    stats_path, mode, cli_args = argv[0], argv[1], argv[2:]

    import aqsim
    from aqsim import cli, protocol

    tracer = trial_times = None
    if mode == "trace":
        from tracer import Tracer

        worker_dir = os.path.join(os.path.dirname(os.path.abspath(stats_path)), "workers")
        os.makedirs(worker_dir)
        tracer = Tracer(worker_dir).install()
    elif mode == "run":
        trial_times = clock_trials()

    try:
        cfg = cli.validate_config(cli.build_parser().parse_args(cli_args))
    except cli.ConfigError as e:
        for err in e.errors:
            print(f"error: {err}", file=sys.stderr)
        return cli.EXIT_CONFIG
    protocol.pauli_frame()
    setup_cpu_s = _cpu_s()
    ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    code = 0
    if mode != "setup":
        try:
            code = cli.run_scenario(cfg)
        except (ValueError, KeyError) as e:
            print(f"error: invalid configuration: {e}", file=sys.stderr)
            return cli.EXIT_CONFIG
    done_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

    stats = {
        "ready_ns": ready_ns,
        "done_ns": done_ns,
        "setup_cpu_s": setup_cpu_s,
        "aqsim_file": os.path.abspath(aqsim.__file__),
        "numpy": sys.modules["numpy"].__version__,
        "trace": None if tracer is None else tracer.collect(),
        "trial_times": trial_times,
    }
    with open(stats_path, "w") as f:
        json.dump(stats, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
