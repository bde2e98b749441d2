"""Unit tests for the ``repro`` command line."""

import json
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main as cli_main
from repro.fsm.random_fsm import random_fsm
from repro.fsm.synthesis import synthesize_fsm
from repro.locking.cutelock_str import CuteLockStr
from repro.netlist.bench import save_bench


README = Path(__file__).resolve().parents[2] / "README.md"


@pytest.fixture(scope="module")
def locked_pair():
    fsm = random_fsm(8, 2, 2, seed=5)
    circuit = synthesize_fsm(fsm)
    locked = CuteLockStr(num_keys=4, key_width=2, num_locked_ffs=2, seed=3).lock(circuit)
    return circuit, locked


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

    def test_readme_quickstart_commands_parse(self):
        quickstart = README.read_text(encoding="utf-8").split("## Quickstart", 1)[1]
        block = quickstart.split("```bash", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("python -m repro ")]
        assert len(lines) >= 4
        for line in lines:
            try:
                build_parser().parse_args(shlex.split(line)[3:])
            except SystemExit:
                pytest.fail(f"README Quickstart line does not parse: {line}")

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
    @pytest.mark.parametrize("netlist", ["malformed", "missing", "wrong-arity"])
    def test_bad_netlist_exits_2_with_one_line(self, command, netlist, tmp_path, capsys):
        path = tmp_path / f"{netlist}.bench"
        if netlist == "malformed":
            path.write_text("INPUT(a)\nOUTPUT(y)\ny = FOO(a\n")
        elif netlist == "wrong-arity":
            path.write_text("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n")
        assert cli_main([command, str(path)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"{command} error: ")
        assert "\n" not in err
        expected = {
            "malformed": "BenchParseError: line 3",
            "missing": "FileNotFoundError",
            "wrong-arity": "BenchParseError: line 4",
        }[netlist]
        assert expected in err


    @pytest.mark.parametrize("side", ["locked", "oracle"])
    def test_attack_bad_netlist_exits_2_with_one_line(self, side, tmp_path, locked_pair,
                                                      capsys):
        circuit, locked = locked_pair
        paths = {"locked": tmp_path / "locked.bench", "oracle": tmp_path / "oracle.bench"}
        save_bench(locked.circuit, paths["locked"])
        save_bench(circuit, paths["oracle"])
        paths[side].write_text("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n")
        assert cli_main(["attack", str(paths["locked"]), str(paths["oracle"])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("attack error: BenchParseError: line 4: ")
        assert captured.err.count("\n") == 1
