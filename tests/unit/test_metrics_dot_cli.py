"""Unit tests for the locking metrics, the DOT export and the CLI."""

import json

import pytest

from repro.cli import main as cli_main
from repro.fsm.dot import fsm_to_dot, locked_fsm_to_dot, wrongful_map_to_dot
from repro.fsm.random_fsm import random_fsm, sequence_detector_fsm
from repro.fsm.synthesis import synthesize_fsm
from repro.locking.cutelock_beh import CuteLockBeh
from repro.locking.cutelock_str import CuteLockStr
from repro.locking.metrics import (
    effective_key_bits,
    key_space_size,
    output_corruptibility,
    structural_overhead_summary,
)
from repro.netlist.bench import save_bench


@pytest.fixture(scope="module")
def locked_pair():
    fsm = random_fsm(8, 2, 2, seed=5)
    circuit = synthesize_fsm(fsm, style="sop")
    locked = CuteLockStr(num_keys=4, key_width=2, num_locked_ffs=2, seed=3).lock(circuit)
    return circuit, locked


class TestMetrics:
    def test_key_space_grows_with_schedule(self, locked_pair):
        _, locked = locked_pair
        assert key_space_size(locked) == 1 << (4 * 2)
        assert effective_key_bits(locked) == 8

    def test_output_corruptibility_nonzero(self, locked_pair):
        _, locked = locked_pair
        report = output_corruptibility(locked, trials=4, sequence_length=24,
                                       num_sequences=2, seed=1)
        assert 0.0 < report.corrupted_fraction <= 1.0
        assert report.trials == 4
        assert report.cycles_compared > 0
        assert report.always_diverges

    def test_structural_summary(self, locked_pair):
        circuit, locked = locked_pair
        summary = structural_overhead_summary(locked)
        assert summary["extra_gates"] > 0
        assert summary["extra_dffs"] == 2
        assert summary["extra_inputs"] == 2
        assert summary["locked_ffs"] == 2


class TestDotExport:
    def test_fsm_to_dot_contains_states_and_edges(self):
        det = sequence_detector_fsm("1001")
        dot = fsm_to_dot(det)
        assert dot.startswith("digraph")
        for state in det.states:
            assert f'"{state}"' in dot
        assert "->" in dot and dot.rstrip().endswith("}")

    def test_locked_fsm_to_dot_marks_wrongful_edges(self):
        det = sequence_detector_fsm("1001")
        locked_fsm = CuteLockBeh(num_keys=2, key_width=2, seed=1).lock(det)
        dot = locked_fsm_to_dot(locked_fsm)
        assert "color=red" in dot
        assert "wrong key" in dot
        wrong_dot = wrongful_map_to_dot(det, locked_fsm.wrongful)
        assert wrong_dot.count("->") == len(locked_fsm.wrongful)


class TestCli:
    def test_lock_and_attack_roundtrip(self, tmp_path, locked_pair):
        circuit, _ = locked_pair
        original_path = tmp_path / "design.bench"
        save_bench(circuit, original_path)

        locked_path = tmp_path / "design_locked.bench"
        exit_code = cli_main([
            "lock", str(original_path), "--scheme", "cute-lock-str",
            "--keys", "4", "--key-width", "2", "--output", str(locked_path),
        ])
        assert exit_code == 0
        assert locked_path.exists()
        secret = json.loads(locked_path.with_suffix(".key.json").read_text())
        assert secret["scheme"] == "cute-lock-str"
        assert len(secret["schedule"]) == 4

        result_json = tmp_path / "attack.json"
        exit_code = cli_main([
            "attack", str(locked_path), str(original_path),
            "--attack", "sat", "--time-limit", "20",
            "--json", str(result_json),
        ])
        payload = json.loads(result_json.read_text())
        assert payload["outcome"] != "correct"
        assert exit_code == 0  # defense held

    def test_overhead_command(self, tmp_path, locked_pair, capsys):
        circuit, _ = locked_pair
        path = tmp_path / "design.bench"
        save_bench(circuit, path)
        assert cli_main(["overhead", str(path), "--vectors", "8"]) == 0
        captured = capsys.readouterr().out
        assert "power (uW)" in captured
        assert "cells" in captured

    @pytest.mark.parametrize("vectors", ["1", "0", "-3"])
    def test_overhead_rejects_fewer_than_two_vectors(self, tmp_path, locked_pair,
                                                     capsys, vectors):
        # Toggles are counted between consecutive vectors, so fewer than
        # two would print a power figure with no dynamic part.
        circuit, _ = locked_pair
        path = tmp_path / "design.bench"
        save_bench(circuit, path)
        assert cli_main(["overhead", str(path), "--vectors", vectors]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"overhead error: --vectors must be >= 2, got {vectors}\n"

    def test_overhead_accepts_two_vectors(self, tmp_path, locked_pair, capsys):
        circuit, _ = locked_pair
        path = tmp_path / "design.bench"
        save_bench(circuit, path)
        assert cli_main(["overhead", str(path), "--vectors", "2"]) == 0
        captured = capsys.readouterr()
        assert "power (uW)" in captured.out and captured.err == ""

    def test_perf_subcommand_is_gone(self, capsys):
        # The acceptance bars are pytest tests under benchmarks/ now.
        with pytest.raises(SystemExit) as exc:
            cli_main(["perf", "run"])
        assert exc.value.code == 2
        assert "invalid choice: 'perf'" in capsys.readouterr().err

    def test_benchmarks_listing(self, capsys):
        assert cli_main(["benchmarks", "--suite", "itc99"]) == 0
        captured = capsys.readouterr().out
        assert "b01" in captured and "b22" in captured

    def test_lock_rll_via_cli(self, tmp_path, locked_pair):
        circuit, _ = locked_pair
        original_path = tmp_path / "d.bench"
        save_bench(circuit, original_path)
        out_path = tmp_path / "d_rll.bench"
        assert cli_main(["lock", str(original_path), "--scheme", "rll",
                         "--key-width", "4", "--output", str(out_path)]) == 0
        assert out_path.exists()

    def test_attack_engine_flag_and_json_stdout(self, tmp_path, locked_pair, capsys):
        circuit, locked = locked_pair
        original_path = tmp_path / "design.bench"
        locked_path = tmp_path / "locked.bench"
        save_bench(circuit, original_path)
        save_bench(locked.circuit, locked_path)
        command = ["attack", str(locked_path), str(original_path),
                   "--attack", "int", "--time-limit", "15"]
        # The attacks have one loop, so the CLI has no engine switch.
        with pytest.raises(SystemExit) as rejected:
            cli_main(command + ["--engine", "scalar"])
        assert rejected.value.code == 2
        capsys.readouterr()
        exit_code = cli_main(command + ["--json"])
        assert exit_code in (0, 1)  # ran to completion either way
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["outcome"]
        assert "engine" not in payload["details"]
        assert payload["details"]["oracle_queries"] == payload["iterations"]

    @pytest.mark.parametrize("command", [
        ["attack", "locked.bench", "design.bench"],
        ["campaign", "run", "--store", "store"],
        ["check", "equiv", "--circuit", "s27"],
    ])
    def test_backend_choice_option_is_gone(self, command, capsys):
        # One CDCL solver, so no command takes a backend choice.
        with pytest.raises(SystemExit) as rejected:
            cli_main(command + ["--solver-backend", "cdcl"])
        assert rejected.value.code == 2
        assert "unrecognized arguments: --solver-backend" in capsys.readouterr().err

    def test_attack_error_exits_2_with_json_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.bench"
        oracle = tmp_path / "oracle.bench"
        exit_code = cli_main([
            "attack", str(missing), str(oracle), "--json",
        ])
        assert exit_code == 2
        payload = json.loads(capsys.readouterr().out)
        assert "error" in payload

    @pytest.mark.parametrize("command", ["lock", "overhead"])
    @pytest.mark.parametrize("netlist", ["malformed", "missing"])
    def test_bad_netlist_exits_2_with_one_line(self, command, netlist, tmp_path, capsys):
        path = tmp_path / f"{netlist}.bench"
        if netlist == "malformed":
            path.write_text("INPUT(a)\nOUTPUT(y)\ny = FOO(a\n")
        assert cli_main([command, str(path)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"{command} error: ")
        assert "\n" not in err
        expected = "BenchParseError: line 3" if netlist == "malformed" else "FileNotFoundError"
        assert expected in err
