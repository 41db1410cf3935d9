"""Unitary-cache size and hit rate of one workload at a chosen trial count.

    python3 benchmarks/cache_probe.py WORKLOAD TRIALS CLI_SEED

Runs one CLI invocation of WORKLOAD in this fresh process, counting every
unitarity check and whether `qsim._UNITARY_CACHE` already held the matrix,
and prints one JSON line: trial wall time, cache entries and MiB, the share
of checks that hit, and the process's peak RSS. Under `--workers 2` the
checks made in pool workers are not counted. README.md's "Trial counts"
table was made with it. Run from the repository root.
"""

import json
import os
import resource
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run as bench  # noqa: E402
from aqsim import cli, protocol, qsim  # noqa: E402


def main(argv: list[str]) -> int:
    name, trials, cli_seed = argv[0], int(argv[1]), int(argv[2])
    workload = bench.WORKLOADS[name]
    checks = {"all": 0, "hits": 0}
    check_unitary = qsim._check_unitary

    def counted(matrix, atol):
        checks["all"] += 1
        checks["hits"] += matrix.tobytes() in qsim._UNITARY_CACHE
        return check_unitary(matrix, atol)

    qsim._check_unitary = counted
    with tempfile.TemporaryDirectory(prefix=".benchrun-", dir=bench.ROOT) as d:
        cli_args = [*workload.cli_args, "--trials", str(trials), "--seed", str(cli_seed)]
        cfg = cli.validate_config(cli.build_parser().parse_args([*cli_args, "--out", os.path.join(d, "r.json")]))
        protocol.pauli_frame()
        start = time.perf_counter()
        code = cli.run_scenario(cfg)
        wall_s = time.perf_counter() - start
    print(json.dumps({
        "workload": name,
        "trials": trials,
        "wall_s": round(wall_s, 2),
        "cache_entries": len(qsim._UNITARY_CACHE),
        "cache_mib": round(sum(map(len, qsim._UNITARY_CACHE)) / 2**20, 1),
        "hit_share": round(checks["hits"] / max(1, checks["all"]), 4),
        "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
