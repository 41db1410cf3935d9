"""CLI config validation, scenario runs, and report formats."""

import csv
import gc
import hashlib
import json
import os
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from aqsim import attacks, cli, crypto, protocol, qsim
from aqsim.attacks import block_trials
from aqsim.cli import (
    MAX_N_WHOLE_REGISTER,
    ConfigError,
    ExperimentConfig,
    Scenario,
    build_parser,
    main,
    run_scenario,
    validate_config,
)
from aqsim.crypto import SigningModel
from aqsim.protocol import MAX_N_PER_QUBIT, ComparisonMode, MtMode


def parse(argv):
    return validate_config(build_parser().parse_args(argv))


class TestValidateConfig:
    def test_defaults(self):
        cfg = parse(["--scenario", "honest"])
        assert cfg.scenario is Scenario.HONEST
        assert cfg.run.n == 1 and cfg.trials == 10000 and cfg.seed == 0
        assert cfg.workers == 1 and cfg.format == "json"
        assert cfg.output_path.endswith("honest.json")

    def test_scenario_required(self):
        with pytest.raises(ConfigError, match="--scenario is required"):
            parse([])

    def test_m_defaults_to_one_for_forgery(self):
        cfg = parse(["--scenario", "forgery", "--n", "3"])
        assert cfg.strategy.m == 1

    def test_m_bounds_error_names_both_flags(self):
        with pytest.raises(ConfigError) as exc:
            parse(["--scenario", "forgery", "--n", "2", "--m", "5"])
        assert "--m 5" in str(exc.value) and "--n 2" in str(exc.value)

    def test_negative_values_collected(self):
        with pytest.raises(ConfigError) as exc:
            parse(["--scenario", "honest", "--n", "0", "--trials", "0", "--workers", "0"])
        assert len(exc.value.errors) == 3

    def test_variant_flags(self):
        cfg = parse(
            [
                "--scenario", "honest",
                "--mt", "forward-particle",
                "--knowledge", "all",
                "--key-model", "general",
                "--comparison", "whole-register",
            ]
        )
        v = cfg.run.variant
        assert v.m_t_mode is MtMode.FORWARD_PARTICLE
        assert v.key_model is SigningModel.GENERAL_UNITARY
        assert v.comparison_mode is ComparisonMode.WHOLE_REGISTER

    def test_config_file_and_flag_override(self, tmp_path):
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(
            json.dumps({"scenario": "q-estimate", "n": 3, "trials": 500, "seed": 7})
        )
        cfg = parse(["--config", str(cfg_file)])
        assert cfg.scenario is Scenario.Q_ESTIMATE and cfg.run.n == 3 and cfg.seed == 7
        cfg = parse(["--config", str(cfg_file), "--trials", "9"])
        assert cfg.trials == 9 and cfg.run.n == 3  # flag wins, file fills the rest

    def test_bad_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse(["--config", str(bad)])
        with pytest.raises(ConfigError, match="cannot read"):
            parse(["--config", str(tmp_path / "missing.json")])

    @pytest.mark.parametrize(
        "key, value",
        [
            ("strategy", "bogus"),
            ("key_model", "bogus"),
            ("r_prime", "bogus"),
            ("mt", "bogus"),
            ("knowledge", "bogus"),
            ("comparison", "bogus"),
            ("n", "two"),
            ("format", "xml"),
        ],
    )
    def test_config_file_values_checked_as_flags(self, tmp_path, capsys, key, value):
        # a file value gets its flag's type and choices: exit 2 naming the key, no report
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps({"scenario": "honest", "trials": 1, key: value}))
        out = tmp_path / "report"
        assert main(["--config", str(cfg_file), "--out", str(out)]) == 2
        assert f"config file key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value", [("trails", 5), ("trails", None), ("idealized", True), ("idealized_comparison", False)]
    )
    def test_config_file_key_naming_no_flag_rejected(self, tmp_path, capsys, key, value):
        # a misspelled key would otherwise run with the default: exit 2 naming it, no report
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps({"scenario": "honest", "trials": 1, key: value}))
        out = tmp_path / "report"
        assert main(["--config", str(cfg_file), "--out", str(out)]) == 2
        assert f"config file key {key!r} names no flag" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_naming_a_config_file_rejected(self, tmp_path, capsys):
        # a config file loads no other, so its `config` key would be ignored: exit 2 naming it
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps({"config": str(tmp_path / "missing.json"), "trials": 5}))
        out = tmp_path / "report"
        assert main(["--scenario", "honest", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: config file key 'config' names another config file, which is not read"
        ]
        assert not out.exists()

    def test_config_file_values_typed_as_flags(self, tmp_path):
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(
            json.dumps({"scenario": "forgery", "n": "3", "m": None, "mt": "forward"})
        )
        cfg = parse(["--config", str(cfg_file)])
        assert cfg.run.n == 3 and cfg.strategy.m == 1
        assert cfg.run.variant.m_t_mode is MtMode.FORWARD_PARTICLE
        cfg_file.write_text(json.dumps(["scenario", "honest"]))
        with pytest.raises(ConfigError, match="JSON object"):
            parse(["--config", str(cfg_file)])

    def test_out_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("AQSIM_OUT_DIR", str(tmp_path))
        cfg = parse(["--scenario", "honest", "--format", "csv"])
        assert cfg.output_path == str(tmp_path / "honest.csv")

    @pytest.mark.parametrize(
        "flags, limit",
        [
            ([], MAX_N_PER_QUBIT),
            (["--comparison", "whole-register"], MAX_N_WHOLE_REGISTER),
            (["--key-model", "general", "--comparison", "whole-register"], MAX_N_WHOLE_REGISTER),
        ],
    )
    def test_max_n(self, flags, limit):
        argv = ["--scenario", "forgery", *flags]
        assert parse([*argv, "--n", str(limit)]).run.n == limit
        with pytest.raises(ConfigError, match=f"--n {limit + 1} exceeds {limit}"):
            parse([*argv, "--n", str(limit + 1)])
        assert main([*argv, "--n", str(limit + 1)]) == 2

    def test_max_n_q_estimate(self):
        argv = ["--scenario", "q-estimate", "--n"]
        assert parse([*argv, str(MAX_N_WHOLE_REGISTER)]).run.n == MAX_N_WHOLE_REGISTER
        assert main([*argv, str(MAX_N_WHOLE_REGISTER + 1)]) == 2


def run_main(tmp_path, argv, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out


class TestScenarios:
    def test_honest_json(self, tmp_path):
        code, out = run_main(
            tmp_path, ["--scenario", "honest", "--trials", "30", "--seed", "1"]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["results"]["gamma_rate"] == 1.0
        assert report["config"]["scenario"] == "honest"

    def test_forgery_csv(self, tmp_path):
        code, out = run_main(
            tmp_path,
            ["--scenario", "forgery", "--trials", "40", "--format", "csv"],
            name="out.csv",
        )
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0][0] == "strategy" and rows[1][0] == "replace-qubits"
        assert 0.0 <= float(rows[1][4]) <= 1.0

    def test_q_estimate(self, tmp_path):
        code, out = run_main(
            tmp_path, ["--scenario", "q-estimate", "--n", "2", "--trials", "200"]
        )
        assert code == 0
        rows = json.loads(out.read_text())["results"]["rows"]
        assert [r["n"] for r in rows] == [1, 2]
        assert rows[0]["analytic_q"] == 0.25

    def test_correlation_table(self, tmp_path):
        code, out = run_main(tmp_path, ["--scenario", "correlation-table"])
        assert code == 0
        rows = json.loads(out.read_text())["results"]["rows"]
        assert len(rows) == 8
        assert all(r["verified"] for r in rows)

    def test_recovery_failure(self, tmp_path):
        code, out = run_main(
            tmp_path, ["--scenario", "recovery-failure", "--trials", "300"]
        )
        assert code == 0
        fid = json.loads(out.read_text())["results"]["mean_candidate_fidelity"]
        assert abs(fid - 2 / 3) < 0.1

    @pytest.mark.parametrize("scenario", ["honest", "forgery", "recovery-failure"])
    def test_one_run_config_per_run(self, monkeypatch, tmp_path, scenario):
        # the RunConfig validate_config checks is the one the scenario runs
        made = []
        check = protocol.RunConfig.__post_init__

        def counted(config):
            made.append(config)
            check(config)

        monkeypatch.setattr(protocol.RunConfig, "__post_init__", counted)
        code, _ = run_main(tmp_path, ["--scenario", scenario, "--trials", "10"])
        assert code == 0
        assert len(made) == 1

    def test_reports_byte_identical(self, tmp_path):
        argv = ["--scenario", "forgery", "--trials", "25", "--seed", "11"]
        _, a = run_main(tmp_path, argv, name="a.json")
        _, b = run_main(tmp_path, argv, name="b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_forgery_report_independent_of_workers(self, tmp_path):
        argv = ["--scenario", "forgery", "--n", "3", "--m", "2", "--trials", "40", "--seed", "5"]
        code_a, a = run_main(tmp_path, [*argv, "--workers", "1"], name="a.json")
        code_b, b = run_main(tmp_path, [*argv, "--workers", "2"], name="b.json")
        assert code_a == code_b == 0
        assert a.read_bytes() == b.read_bytes()


# Each case with the widest array its blocks hold, in amplitudes per trial
# (attacks.state_width; for q-estimate, the n = 2 row's Haar states)
WORKER_CASES = {
    "forgery": (["--scenario", "forgery", "--n", "2", "--m", "1", "--seed", "21"], 32),
    "honest": (["--scenario", "honest", "--n", "2", "--mt", "forward-particle", "--knowledge", "all", "--seed", "22"], 32),
    "recovery-failure": (["--scenario", "recovery-failure", "--n", "1", "--seed", "23"], 16),
    "q-estimate": (["--scenario", "q-estimate", "--n", "2", "--seed", "24"], 4),
}


def _fan_out_runs():
    """Each case at one trial and at about 2.5 blocks of its block length, so
    that the last block is partial."""
    for name, (_, width) in sorted(WORKER_CASES.items()):
        length = block_trials(width)
        for trials in (1, 2 * length + length // 2):
            yield pytest.param(name, trials, id=f"{name}-{trials}")


class TestBlockFanOut:
    @pytest.mark.parametrize("name, trials", _fan_out_runs())
    def test_report_byte_identical_for_any_workers(self, tmp_path, name, trials):
        argv = [*WORKER_CASES[name][0], "--trials", str(trials)]
        reports = []
        for workers in ("1", "2", "3"):
            code, out = run_main(tmp_path, [*argv, "--workers", workers], name=f"w{workers}.json")
            assert code == 0
            reports.append(out.read_bytes())
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_children_leave_piped_stdout_alone(self, tmp_path):
        # a child must not flush the stdio buffers it inherits: each summary
        # line reaches a piped stdout once
        reports = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.json"
            proc = subprocess.run(
                [
                    sys.executable, "-m", "aqsim.cli",
                    "--scenario", "recovery-failure",
                    "--trials", "5000",
                    "--workers", workers,
                    "--out", str(out),
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.splitlines()
            assert len(lines) == 2
            assert lines[0].startswith("recovery failure: mean candidate fidelity")
            assert lines[1] == f"report written to {out}"
            reports.append(out.read_bytes())
        assert reports[1] == reports[0]


class _StubLibc:
    """A C library whose mallopt records each call in `events` and succeeds."""

    def __init__(self, events):
        self.events = events

    def mallopt(self, param, value):
        self.events.append(("mallopt", param, value))
        return 1


@pytest.fixture
def fresh_heap_policy():
    """A process in which keep_freed_memory has not run yet."""
    cli.keep_freed_memory.cache_clear()
    yield
    cli.keep_freed_memory.cache_clear()


@pytest.fixture
def fresh_freeze():
    """A process in which freeze_set_up_heap has not run yet."""
    cli.freeze_set_up_heap.cache_clear()
    yield
    cli.freeze_set_up_heap.cache_clear()


class TestRunnerSetUp:
    def test_heap_policy_applied_before_first_block_once(self, monkeypatch, fresh_heap_policy, tmp_path):
        events = []
        run_chunk = attacks._run_chunk

        def recording_run_chunk(job):
            events.append(("block",))
            return run_chunk(job)

        monkeypatch.setattr(cli, "_libc", lambda: _StubLibc(events))
        monkeypatch.setattr(attacks, "_run_chunk", recording_run_chunk)
        argv = ["--scenario", "recovery-failure", "--trials", "300"]
        for name in ("a.json", "b.json"):
            assert run_main(tmp_path, argv, name=name)[0] == 0
        assert events == [
            ("mallopt", cli._M_MMAP_THRESHOLD, 32 << 20),
            ("mallopt", cli._M_TRIM_THRESHOLD, 256 << 20),
            ("block",),
            ("block",),
        ]
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_heap_policy_without_mallopt_is_a_no_op(self, monkeypatch, fresh_heap_policy, tmp_path, capsys):
        monkeypatch.setattr(cli, "_libc", lambda: object())
        assert run_main(tmp_path, ["--scenario", "honest", "--trials", "30"])[0] == 0
        assert cli.keep_freed_memory() == ()
        assert capsys.readouterr().err == ""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt only")
    def test_glibc_takes_the_heap_policy(self, fresh_heap_policy):
        assert cli.keep_freed_memory() == (1, 1)

    def test_children_inherit_the_pauli_frame(self, monkeypatch, tmp_path):
        # each process records how often it built the frame, before its first block
        run_chunk = attacks._run_chunk

        def recording_run_chunk(job):
            info = protocol.pauli_frame.cache_info()
            (tmp_path / f"{os.getpid()}.frame").write_text(f"{info.misses} {info.currsize}")
            return run_chunk(job)

        protocol.pauli_frame.cache_clear()
        monkeypatch.setattr(attacks, "_run_chunk", recording_run_chunk)
        argv = ["--scenario", "recovery-failure", "--trials", str(2 * block_trials(16)), "--workers", "2"]
        assert run_main(tmp_path, argv)[0] == 0
        built = [path.read_text() for path in tmp_path.glob("*.frame")]
        assert built == ["1 1", "1 1"]
        assert protocol.pauli_frame.cache_info().misses == 1

    def test_heap_frozen_after_the_frame_before_first_block_once(self, monkeypatch, fresh_freeze, tmp_path):
        events = []
        frame, run_chunk = cli.pauli_frame, attacks._run_chunk

        def recording_frame():
            events.append("frame")
            return frame()

        def recording_run_chunk(job):
            events.append("block")
            return run_chunk(job)

        monkeypatch.setattr(cli, "pauli_frame", recording_frame)
        monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
        monkeypatch.setattr(attacks, "_run_chunk", recording_run_chunk)
        argv = ["--scenario", "recovery-failure", "--trials", "300"]
        for name in ("a.json", "b.json"):
            assert run_main(tmp_path, argv, name=name)[0] == 0
        assert events == ["frame", "freeze", "block", "frame", "block"]
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_children_inherit_the_frozen_heap(self, monkeypatch, fresh_freeze, tmp_path):
        # each process records whether the heap was frozen before its first block
        run_chunk = attacks._run_chunk

        def recording_run_chunk(job):
            (tmp_path / f"{os.getpid()}.frozen").write_text(str(gc.get_freeze_count() > 0))
            return run_chunk(job)

        gc.unfreeze()  # as in a process whose heap was never frozen
        assert gc.get_freeze_count() == 0
        monkeypatch.setattr(attacks, "_run_chunk", recording_run_chunk)
        argv = ["--scenario", "recovery-failure", "--trials", str(2 * block_trials(16)), "--workers", "2"]
        assert run_main(tmp_path, argv)[0] == 0
        frozen = [path.read_text() for path in tmp_path.glob("*.frozen")]
        assert frozen == ["True", "True"]

    def test_blocks_collectable_after_the_freeze(self, tmp_path, capsys):
        argv = ["--scenario", "forgery", "--n", "2", "--key-model", "general", "--comparison", "whole-register",
                "--trials", "300"]
        assert run_main(tmp_path, argv)[0] == 0  # freezes the heap, if no earlier run did
        assert gc.get_freeze_count() > 0
        # what a whole run leaves behind is freed, run after run
        tracemalloc.start()
        try:
            gc.collect()
            start = tracemalloc.get_traced_memory()[0]
            ends = []
            for _ in range(3):
                assert run_main(tmp_path, argv)[0] == 0
                capsys.readouterr()  # the captured summary lines are not the run's
                gc.collect()
                ends.append(tracemalloc.get_traced_memory()[0] - start)
        finally:
            tracemalloc.stop()
        assert max(ends) < 16 << 10, ends
        assert ends[2] - ends[0] < 8 << 10, ends

    def test_process_exit_loses_no_output(self, tmp_path, capsys):
        # a frozen heap is not walked again at exit; the report and every
        # stdout line are still written
        argv = ["--scenario", "forgery", "--n", "2", "--m", "1", "--trials", "3000", "--seed", "9"]
        code, own = run_main(tmp_path, argv, name="own.json")
        assert code == 0
        summary = capsys.readouterr().out.splitlines()[0]
        out = tmp_path / "child.json"
        proc = subprocess.run(
            [sys.executable, "-m", "aqsim.cli", *argv, "--out", str(out)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [summary, f"report written to {out}"]
        assert proc.stderr == ""
        assert out.read_bytes() == own.read_bytes()


# Fixed-seed reports at 300 trials. An engine change that moves one random
# draw, one branch or one rounding of a fidelity moves these numbers, so a
# speed-up must leave them as they are. Confidence intervals are left out:
# they are a formula over the counts, not an output of the engine. Recorded
# from the block engine (one generator per block), with each register one
# state on a block axis, so that every per-qubit draw is one array over all
# qubits, and blocks of attacks.block_trials(width) trials: every case here is
# one 300-trial block.
PINNED_REPORTS = {
    "forge-n1-m1": (
        ["--scenario", "forgery", "--n", "1", "--m", "1", "--seed", "11"],
        {"accepted": 227, "gamma": 227, "mean_fidelity": 0.5100289226076472},
    ),
    "forge-n3-m2": (
        ["--scenario", "forgery", "--n", "3", "--m", "2", "--seed", "12"],
        {"accepted": 165, "gamma": 165, "mean_fidelity": 0.24150925187257427},
    ),
    "forge-n6-m2": (
        ["--scenario", "forgery", "--n", "6", "--m", "2", "--seed", "13"],
        {"accepted": 161, "gamma": 161, "mean_fidelity": 0.251318391491837},
    ),
    "whole-n3-general": (
        [
            "--scenario", "forgery", "--n", "3", "--strategy", "replace-whole-register",
            "--key-model", "general", "--comparison", "whole-register", "--seed", "14",
        ],
        {"accepted": 168, "gamma": 168, "mean_fidelity": 0.12573100105845542},
    ),
    "garble-n2": (
        ["--scenario", "forgery", "--n", "2", "--strategy", "garble-signature", "--seed", "15"],
        {"accepted": 150, "gamma": 150, "mean_fidelity": 1.0},
    ),
    "honest-forward-all": (
        ["--scenario", "honest", "--n", "3", "--mt", "forward-particle", "--knowledge", "all", "--seed", "16"],
        {"accepted": 300, "gamma": 300},
    ),
    "recovery-n2": (
        ["--scenario", "recovery-failure", "--n", "2", "--seed", "17"],
        {"mean_candidate_fidelity": 0.43123249417647336},
    ),
}


class TestPinnedReports:
    @pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
    def test_report_unchanged(self, tmp_path, name):
        argv, expected = PINNED_REPORTS[name]
        code, out = run_main(tmp_path, [*argv, "--trials", "300"])
        assert code == 0
        res = json.loads(out.read_text())["results"]
        got = {}
        if "acceptance_rate" in res:
            got["accepted"] = round(res["acceptance_rate"] * 300)
            got["gamma"] = round(res["gamma_rate"] * 300)
        for key in ("mean_fidelity", "mean_candidate_fidelity"):
            if key in res:
                got[key] = pytest.approx(res[key], abs=1e-12)
        assert got == expected


_GENERAL_WHOLE = ["--key-model", "general", "--comparison", "whole-register"]
_FORWARD = ["--mt", "forward-particle"]

# sha256 of the whole report file each line writes at --seed 8, recorded
# before K_a's signing transform moved into the initial phase: any change to
# a draw, a pad, a unitary or the report's layout moves one of them. The
# CSV lines other than forgery's were recorded before the CSV was derived
# from the results.
REPORT_DIGESTS = {
    "forge-n1-m1": (
        ["--scenario", "forgery", "--n", "1", "--m", "1", "--trials", "3000"],
        "5c8dfee394922932e3da3b2d5a635c605dd1564f98925c5cd97bca874cb0e2f3",
    ),
    "forge-n6-m2": (
        ["--scenario", "forgery", "--n", "6", "--m", "2", "--trials", "800"],
        "ed6592bab863c07b179fa1c6f7018c115eb3907e173b26b474a3152992549e18",
    ),
    "whole-n3-general": (
        ["--scenario", "forgery", "--n", "3", "--strategy", "replace-whole-register", *_GENERAL_WHOLE,
         "--trials", "1100"],
        "d1f908d729d58ddc22fb4346c1161d39a612ce2aea4da8492a747d87432f4069",
    ),
    "recovery-n1-w2": (
        ["--scenario", "recovery-failure", "--n", "1", "--trials", "5000", "--workers", "2"],
        "fe842af7684f6a36d7cab1a923888ff08c9da431373add9800c2fe2278de4579",
    ),
    "garble-n2-ghz": (
        ["--scenario", "forgery", "--n", "2", "--strategy", "garble-signature", "--r-prime", "ghz", "--trials", "600"],
        "b4d2b781b0d3fe29dd6538869354274772ff4772f7595f2ded791ab7cc088623",
    ),
    # the one path that builds a one-qubit ciphertext: the tap garbles the
    # K_a-sealed signature, and the arbitrator opens what it made
    "garble-n1": (
        ["--scenario", "forgery", "--n", "1", "--strategy", "garble-signature", "--trials", "600"],
        "f3f7e5f3a449dfeec0cb94353bfcfa560e280c3b71ee087a7a5fed489d18da94",
    ),
    "garble-n1-general-whole": (
        ["--scenario", "forgery", "--n", "1", "--strategy", "garble-signature", *_GENERAL_WHOLE, "--trials", "600"],
        "5c95cc541a9c2b5030b142a0f4111a4dd6f0343ff92b699106235fbb6336fa2d",
    ),
    "honest-n2-ghz-forward-all": (
        ["--scenario", "honest", "--n", "2", "--r-prime", "ghz", *_FORWARD, "--knowledge", "all", "--trials", "600"],
        "60a9e868de221cdbcd6a2e0566c510d5573764d597237289b46a40d1f4b5e894",
    ),
    "honest-n4-general-whole-forward": (
        ["--scenario", "honest", "--n", "4", *_GENERAL_WHOLE, *_FORWARD, "--trials", "300"],
        "4370842333689cbdff13c2fe72765b8e73950ef4bf618bd2be4ac9efaa421b3f",
    ),
    "forge-n2-m1-forward": (
        ["--scenario", "forgery", "--n", "2", "--m", "1", *_FORWARD, "--trials", "600"],
        "1a67c9e091325058de2f45ee545f2d0a63d74f51a18142eab2a6fd603bb7c442",
    ),
    "recovery-n2-ghz": (
        ["--scenario", "recovery-failure", "--n", "2", "--r-prime", "ghz", "--trials", "600"],
        "0f8e7272d73e15bb749830dd90ec445a17bcc7f33021966ad958bd4c867bc36b",
    ),
    "correlation-table": (
        ["--scenario", "correlation-table"],
        "1e499db23d75ca3639e9190897ad50308d72199f82553995f9329431744d05f5",
    ),
    "q-estimate-n4": (
        ["--scenario", "q-estimate", "--n", "4", "--trials", "600"],
        "cfca6813db40f4b67bb3ae39a6380ec52db76b54bd506b82d296a5fac86de73f",
    ),
    "forge-n1-m1-csv": (
        ["--scenario", "forgery", "--n", "1", "--m", "1", "--format", "csv", "--trials", "600"],
        "02af62aa3961e1fe298b67aadd6b96faa306d390f2f2a4266c2bd2b558dc08df",
    ),
    "honest-n2-csv": (
        ["--scenario", "honest", "--n", "2", "--format", "csv", "--trials", "600"],
        "2f8bc1090e40328e1e19f18ab9a8746e665be265d397795bbc2cdf2c3de73fa9",
    ),
    "q-estimate-n4-csv": (
        ["--scenario", "q-estimate", "--n", "4", "--format", "csv", "--trials", "600"],
        "2d2ef9f095c2e877e6fafea857c0725d0181823beec589cacd39c807b970aa23",
    ),
    "correlation-table-csv": (
        ["--scenario", "correlation-table", "--format", "csv"],
        "0ecd19174ef062a2559946f7b11ddc91ef0e03a23eeb60c0e2bc1dc4ec8693ef",
    ),
    "recovery-n1-csv": (
        ["--scenario", "recovery-failure", "--n", "1", "--format", "csv", "--trials", "600"],
        "8808672fb72e598b6b3e4c37c11f92feb09645e839950fa6a2a06df63aa49bdc",
    ),
}


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_report_digest_pinned(tmp_path, name):
    argv, expected = REPORT_DIGESTS[name]
    code, out = run_main(tmp_path, [*argv, "--seed", "8"])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


def _inverse_haar_unitaries(dim, keys):
    """Haar unitaries other than haar_random_unitary's from the same keys:
    their inverses, Haar as well."""
    return np.swapaxes(qsim.haar_random_unitary(dim, keys).conj(), -1, -2).copy()


# General-key lines (n, flags), whose unitaries are 2 x 2 to 16 x 16
SAMPLER_LINES = {
    "whole-n1": (1, ["--scenario", "forgery", "--strategy", "replace-whole-register", *_GENERAL_WHOLE]),
    "whole-n2": (2, ["--scenario", "forgery", "--strategy", "replace-whole-register", *_GENERAL_WHOLE]),
    "whole-n3": (3, ["--scenario", "forgery", "--strategy", "replace-whole-register", *_GENERAL_WHOLE]),
    "whole-n4": (4, ["--scenario", "forgery", "--strategy", "replace-whole-register", *_GENERAL_WHOLE]),
    "honest-n3": (3, ["--scenario", "honest", *_GENERAL_WHOLE]),
    "garble-n1": (1, ["--scenario", "forgery", "--strategy", "garble-signature", *_GENERAL_WHOLE]),
}


@pytest.mark.parametrize("name", sorted(SAMPLER_LINES))
def test_report_independent_of_the_haar_sampler(tmp_path, monkeypatch, name):
    # every SWAP test compares two states under the same U, so a report sees
    # U only through rounding. R and R' are signed by the one transform, and
    # the arbitrator compares their registers (<Ua|Ub> = <a|b>): no U x is
    # built unless the garble tap read one. Handed another transform of the
    # same key bits, and another Haar sampler, it builds U x on both sides
    # from other unitaries, and writes the same bytes
    n, flags = SAMPLER_LINES[name]
    argv = [*flags, "--n", str(n), "--trials", "600", "--seed", "8"]
    applied, keys = [], []
    apply = crypto.SigningTransform.apply

    def counted(transform, register):
        applied.append(transform)
        return apply(transform, register)

    monkeypatch.setattr(crypto.SigningTransform, "apply", counted)
    assert run_main(tmp_path, argv, "shared.json")[0] == 0
    shared = len(applied)
    verify = protocol.arbitrator_verify

    def unshared(y_b, particles, k_a, k_b, transform, variant, rng):
        copy = crypto.SigningTransform(transform.bits, transform.n, transform.model)
        return verify(y_b, particles, k_a, k_b, copy, variant, rng)

    def inverse_sampler(dim, block_keys):
        keys.append(block_keys)
        return _inverse_haar_unitaries(dim, block_keys)

    monkeypatch.setattr(protocol, "arbitrator_verify", unshared)
    monkeypatch.setattr(crypto, "haar_random_unitary", inverse_sampler)
    assert run_main(tmp_path, argv, "unshared.json")[0] == 0
    assert (tmp_path / "shared.json").read_bytes() == (tmp_path / "unshared.json").read_bytes()
    if name.startswith("garble"):  # the tap reads U x, so the arbitrator builds U x on either path
        assert len(applied) == 2 * shared > 0
    else:
        assert shared == 0 and len(applied) > 0
    # and the samplers differ: the same keys give other unitaries
    assert not np.allclose(qsim.haar_random_unitary(2**n, keys[0]), _inverse_haar_unitaries(2**n, keys[0]))


class TestExitCodes:
    def test_invalid_config(self, capsys):
        assert main(["--scenario", "forgery", "--n", "1", "--m", "2"]) == 2
        assert "error:" in capsys.readouterr().err
        # a flag aqsim does not have is argparse's usage error, also exit 2
        with pytest.raises(SystemExit) as exc:
            main(["--scenario", "honest", "--idealized-comparison", "false"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --idealized-comparison false" in capsys.readouterr().err

    def test_incompatible_variant(self, tmp_path, capsys):
        # each combination fails before trial 1, naming its conflicting flags
        cases = [
            (["--scenario", "honest", "--key-model", "general", "--comparison", "per-qubit"],
             ["--key-model general", "--comparison per-qubit", "--n 2"]),
            (["--scenario", "forgery", "--strategy", "replace-whole-register"],
             ["--strategy replace-whole-register", "--comparison per-qubit", "--n 2"]),
            (["--scenario", "forgery", "--strategy", "garble-signature",
              "--key-model", "general", "--comparison", "whole-register"],
             ["--strategy garble-signature", "--key-model general", "--n 2"]),
            (["--scenario", "recovery-failure", "--mt", "forward-particle"],
             ["--scenario recovery-failure", "--mt forward-particle"]),
            (["--scenario", "forgery", "--strategy", "replace-whole-register", "--key-model", "general",
              "--comparison", "whole-register", "--m", "2"],
             ["--m 2", "--strategy replace-whole-register"]),
            (["--scenario", "forgery", "--strategy", "garble-signature", "--m", "1"],
             ["--m 1", "--strategy garble-signature"]),
            (["--scenario", "honest", "--m", "5"], ["--m 5", "--scenario honest"]),
            (["--scenario", "recovery-failure", "--m", "1"], ["--m 1", "--scenario recovery-failure"]),
            (["--scenario", "q-estimate", "--m", "1"], ["--m 1", "--scenario q-estimate"]),
            (["--scenario", "honest", "--strategy", "garble-signature"],
             ["--strategy garble-signature", "--scenario honest"]),
            (["--scenario", "recovery-failure", "--strategy", "replace-qubits"],
             ["--strategy replace-qubits", "--scenario recovery-failure"]),
            (["--scenario", "q-estimate", "--key-model", "general", "--comparison", "per-qubit"],
             ["--key-model general", "--comparison per-qubit", "--scenario q-estimate"]),
            (["--scenario", "q-estimate", "--r-prime", "ghz"], ["--r-prime ghz", "--scenario q-estimate"]),
            (["--scenario", "correlation-table", "--mt", "forward"], ["--mt forward", "--scenario correlation-table"]),
            (["--scenario", "correlation-table", "--knowledge", "alice-only"],
             ["--knowledge alice-only", "--scenario correlation-table"]),
            (["--scenario", "q-estimate", "--strategy", "replace-qubits"],
             ["--strategy replace-qubits", "--scenario q-estimate"]),
            (["--scenario", "correlation-table", "--strategy", "garble-signature"],
             ["--strategy garble-signature", "--scenario correlation-table"]),
            (["--scenario", "q-estimate", "--mt", "measure-x", "--knowledge", "all"],
             ["--mt measure-x", "--knowledge all", "--scenario q-estimate"]),
            (["--scenario", "correlation-table", "--r-prime", "message", "--key-model", "per-qubit",
              "--comparison", "whole-register"],
             ["--r-prime message", "--key-model per-qubit", "--comparison whole-register",
              "--scenario correlation-table"]),
        ]
        for argv, flags in cases:
            for workers in ("1", "2"):
                out = tmp_path / f"x{workers}.json"
                code = main(
                    [*argv, "--n", "2", "--trials", "2", "--workers", workers, "--out", str(out)]
                )
                err = capsys.readouterr().err
                assert code == 2, argv
                assert all(flag in err for flag in flags), err
                assert not out.exists()
        # the variant flags in a config file, outside the scenarios that run the protocol
        values = {"r_prime": "message", "mt": "measure-x", "knowledge": "all", "key_model": "per-qubit",
                  "comparison": "whole-register"}
        cfg_file = tmp_path / "exp.json"
        out = tmp_path / "r.json"
        for scenario in ("q-estimate", "correlation-table"):
            cfg_file.write_text(json.dumps({"scenario": scenario, **values}))
            assert main(["--config", str(cfg_file), "--out", str(out)]) == 2
            assert sorted(capsys.readouterr().err.splitlines()) == sorted(
                f"error: --{key.replace('_', '-')} {str(value).lower()} sets a protocol variant, "
                f"which --scenario {scenario} does not run"
                for key, value in values.items()
            )
            assert not out.exists()
        # the trial flags, which correlation-table does not read, from flags or a config file
        unread = {"n": 3, "trials": 5, "workers": 4}
        cfg_file.write_text(json.dumps({"scenario": "correlation-table", **unread}))
        flags = ["--scenario", "correlation-table", "--n", "3", "--trials", "5", "--workers", "4"]
        for argv in (flags, ["--config", str(cfg_file)]):
            assert main([*argv, "--out", str(out)]) == 2
            assert sorted(capsys.readouterr().err.splitlines()) == [
                f"error: --{key} {value} applies to Monte Carlo trials, which --scenario correlation-table does not run"
                for key, value in unread.items()
            ]
            assert not out.exists()

    def test_strategy_in_config_file_outside_forgery_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps({"scenario": "q-estimate", "strategy": "replace-qubits", "trials": 10}))
        out = tmp_path / "r.json"
        assert main(["--config", str(cfg_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--strategy replace-qubits" in err and "--scenario q-estimate" in err
        assert not out.exists()

    def test_strategy_and_config_conflicts_each_printed(self, tmp_path, capsys):
        # ForgeryStrategy.validate and RunConfig each reject this run
        out = tmp_path / "r.json"
        argv = ["--scenario", "forgery", "--n", "70", "--m", "80", "--key-model", "general", "--out", str(out)]
        assert main(argv) == 2
        assert sorted(capsys.readouterr().err.splitlines()) == [
            "error: --key-model general entangles the signature at --n 70, so --comparison per-qubit cannot split it",
            "error: --m 80 must satisfy 1 <= m <= n (--n 70)",
            "error: --n 70 exceeds 6, the largest n for --comparison whole-register or --key-model general",
        ]
        assert not out.exists()

    @pytest.mark.parametrize("scenario", ["honest", "q-estimate", "correlation-table"])
    def test_negative_seed_rejected_before_trial_one(self, tmp_path, capsys, scenario):
        # numpy's SeedSequence would reject it inside trial 1, naming no flag
        out = tmp_path / "r.json"
        trials = [] if scenario == "correlation-table" else ["--trials", "10"]
        assert main(["--scenario", scenario, "--seed", "-1", *trials, "--out", str(out)]) == 2
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_in_config_file_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps({"scenario": "honest", "trials": 10, "seed": -1}))
        out = tmp_path / "r.json"
        assert main(["--config", str(cfg_file), "--out", str(out)]) == 2
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_io_failure(self, tmp_path, capsys):
        code = main(
            ["--scenario", "honest", "--trials", "2", "--out", str(tmp_path)]
        )
        assert code == 3
        assert "cannot write" in capsys.readouterr().err

    def test_console_entry(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable, "-m", "aqsim.cli",
                "--scenario", "honest",
                "--trials", "3",
                "--out", str(tmp_path / "r.json"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "report written" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr  # the package must not import cli first
