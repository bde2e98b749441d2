"""Integration tests: the `repro check` CLI and ingestion-boundary validation.

Exercises the analyzers through the command line (exit codes 0/1/2,
human and ``--json`` output) plus the new strict `repro attack` validation
and its ``--no-validate`` escape hatch.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.fsm.random_fsm import random_fsm
from repro.fsm.synthesis import synthesize_fsm
from repro.locking.cutelock_str import CuteLockStr
from repro.netlist.bench import save_bench


@pytest.fixture(scope="module")
def bench_pair(tmp_path_factory):
    root = tmp_path_factory.mktemp("check_cli")
    circuit = synthesize_fsm(random_fsm(8, 2, 2, seed=5))
    locked = CuteLockStr(num_keys=4, key_width=2, num_locked_ffs=2, seed=3).lock(circuit)
    original_path = root / "design.bench"
    locked_path = root / "design_locked.bench"
    save_bench(circuit, original_path)
    save_bench(locked.circuit, locked_path)
    return original_path, locked_path


# --------------------------------------------------------------------- #
# repro check lint
# --------------------------------------------------------------------- #
class TestCheckLintCli:
    def test_shipped_tree_exits_clean(self, capsys):
        assert cli_main(["check", "lint", "src"]) == 0
        assert "repro check lint: clean" in capsys.readouterr().out

    def test_default_path_is_src(self, capsys):
        assert cli_main(["check", "lint"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_planted_violation_exits_1_with_location(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "campaign"
        bad.mkdir(parents=True)
        target = bad / "planted.py"
        target.write_text(
            "import time\n"
            "def stamp(record):\n"
            "    record['at'] = time.time()\n"
        )
        assert cli_main(["check", "lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert f"{target}:3:" in out
        assert "R001" in out and "1 finding(s)" in out

    def test_json_output_is_machine_readable(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "campaign"
        bad.mkdir(parents=True)
        (bad / "planted.py").write_text("import time\nT = time.time()\n")
        assert cli_main(["check", "lint", str(tmp_path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        finding = payload["findings"][0]
        assert finding["rule"] == "R001"
        assert finding["line"] == 2
        assert finding["file"].endswith("planted.py")
        assert "time.time" in finding["message"]

    def test_json_clean_tree(self, capsys):
        assert cli_main(["check", "lint", "src", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"findings": [], "count": 0}

    def test_missing_path_exits_2(self, capsys):
        assert cli_main(["check", "lint", "does/not/exist"]) == 2
        assert "no such path" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# repro check cnf
# --------------------------------------------------------------------- #
class TestCheckCnfCli:
    def test_clean_dimacs(self, tmp_path, capsys):
        path = tmp_path / "ok.cnf"
        path.write_text("c comment\np cnf 3 2\n1 2 0\n-1 3 0\n")
        assert cli_main(["check", "cnf", str(path)]) == 0
        assert "2 clauses ok" in capsys.readouterr().out

    def test_multiline_clauses_parse(self, tmp_path, capsys):
        # Standard DIMACS: clauses are 0-terminated token streams that may
        # span lines or share one.
        path = tmp_path / "folded.cnf"
        path.write_text("p cnf 3 2\n1 2\n3 0 -1\n-2 0\n")
        assert cli_main(["check", "cnf", str(path)]) == 0
        assert "2 clauses ok" in capsys.readouterr().out

    def test_malformed_dimacs_exits_1_with_kinds(self, tmp_path, capsys):
        path = tmp_path / "bad.cnf"
        # An empty clause, a variable above the header bound, and a
        # tautology: three distinct violation kinds.
        path.write_text("p cnf 3 3\n0\n4 -1 0\n2 -2 0\n")
        assert cli_main(["check", "cnf", str(path)]) == 1
        out = capsys.readouterr().out
        assert "[empty-clause]" in out
        assert "[out-of-range]" in out
        assert "[tautology]" in out
        assert "3 violation(s)" in out

    def test_unparseable_dimacs_exits_2(self, tmp_path, capsys):
        path = tmp_path / "garbage.cnf"
        path.write_text("p cnf x y\n1 0\n")
        assert cli_main(["check", "cnf", str(path)]) == 2
        assert "check cnf" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert cli_main(["check", "cnf", str(tmp_path / "nope.cnf")]) == 2


# --------------------------------------------------------------------- #
# repro check proof
# --------------------------------------------------------------------- #
class TestCheckProofCli:
    def _write_pair(self, tmp_path):
        cnf = tmp_path / "inst.cnf"
        proof = tmp_path / "inst.drup"
        # (a|b) & (a|-b) & (-a|b) & (-a|-b): the canonical 2-var UNSAT core.
        cnf.write_text("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n")
        proof.write_text("1 0\n0\n")
        return cnf, proof

    def test_valid_proof_exits_0(self, tmp_path, capsys):
        cnf, proof = self._write_pair(tmp_path)
        assert cli_main(["check", "proof", str(cnf), str(proof)]) == 0
        out = capsys.readouterr().out
        assert "UNSAT verified" in out

    def test_bogus_proof_exits_1_with_line(self, tmp_path, capsys):
        cnf, proof = self._write_pair(tmp_path)
        # A unit over a fresh variable: propagation never reaches a conflict.
        proof.write_text("3 0\n0\n")
        assert cli_main(["check", "proof", str(cnf), str(proof)]) == 1
        err = capsys.readouterr().err
        assert "not RUP" in err and ".drup:1" in err

    def test_truncated_proof_exits_1(self, tmp_path, capsys):
        cnf, proof = self._write_pair(tmp_path)
        proof.write_text("1 0\n")
        assert cli_main(["check", "proof", str(cnf), str(proof)]) == 1
        assert "without deriving the empty clause" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        cnf, proof = self._write_pair(tmp_path)
        assert cli_main(["check", "proof", str(cnf), str(tmp_path / "no.drup")]) == 2


# --------------------------------------------------------------------- #
# repro check equiv
# --------------------------------------------------------------------- #
class TestCheckEquivCli:
    def test_fixture_by_name(self, capsys):
        assert cli_main(["check", "equiv", "--circuit", "s27"]) == 0
        out = capsys.readouterr().out
        assert "kernel == netlist" in out and "proof(s) re-checked" in out

    def test_bench_path(self, bench_pair, capsys):
        # The locked netlist adds key inputs and a counter, which no
        # bundled fixture has.
        for path in bench_pair:
            assert cli_main(["check", "equiv", "--circuit", str(path)]) == 0
            assert "kernel == netlist" in capsys.readouterr().out

    def test_unknown_fixture_exits_2(self, capsys):
        assert cli_main(["check", "equiv", "--circuit", "nope999"]) == 2
        assert "unknown fixture" in capsys.readouterr().err

    def test_missing_bench_exits_2(self, tmp_path, capsys):
        assert cli_main(["check", "equiv", "--circuit", str(tmp_path / "nope.bench")]) == 2
        assert "check equiv" in capsys.readouterr().err

    def test_cyclic_bench_exits_2(self, tmp_path, capsys):
        # A combinational cycle dies in compile_circuit (CircuitError -> 2):
        # validation never even sees an op list for it.
        path = tmp_path / "cycle.bench"
        path.write_text(
            "INPUT(a)\nOUTPUT(y)\n"
            "n1 = AND(a, n2)\nn2 = AND(a, n1)\ny = AND(n1, n2)\n"
        )
        assert cli_main(["check", "equiv", "--circuit", str(path)]) == 2
        assert "check equiv: CircuitError" in capsys.readouterr().err

    def test_wrong_arity_bench_exits_2(self, tmp_path, capsys):
        # Exit 1 would mean "findings": a netlist that does not parse is
        # an input error, reported on one line.
        path = tmp_path / "arity.bench"
        path.write_text("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n")
        assert cli_main(["check", "equiv", "--circuit", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("check equiv: BenchParseError: line 4: ")
        assert err.count("\n") == 1

    def test_program_subcommand_is_gone(self, bench_pair, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["check", "program", str(bench_pair[1])])
        assert exc.value.code == 2
        assert "invalid choice: 'program'" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# repro attack --certify
# --------------------------------------------------------------------- #
class TestAttackCertify:
    def test_sat_attack_emits_checkable_pairs(self, bench_pair, tmp_path, capsys):
        original_path, locked_path = bench_pair
        proof_dir = tmp_path / "proofs"
        code = cli_main([
            "attack", str(locked_path), str(original_path),
            "--attack", "sat", "--certify", str(proof_dir),
        ])
        assert code in (0, 1)
        out = capsys.readouterr().out
        assert "certificate pair(s)" in out
        drups = sorted(proof_dir.glob("*.drup"))
        assert drups, "certified sat attack wrote no proof"
        for drup in drups:
            cnf = drup.with_suffix(".cnf")
            assert cnf.exists()
            assert cli_main(["check", "proof", str(cnf), str(drup)]) == 0


# --------------------------------------------------------------------- #
# ingestion-boundary validation in repro attack
# --------------------------------------------------------------------- #
class TestAttackValidation:
    def test_malformed_locked_bench_fails_fast(self, bench_pair, tmp_path, capsys):
        original_path, _ = bench_pair
        broken = tmp_path / "broken.bench"
        broken.write_text("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n")
        code = cli_main([
            "attack", str(broken), str(original_path),
            "--attack", "sat", "--time-limit", "5",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "validation failed" in err
        assert "ghost" in err

    def test_no_validate_skips_the_check(self, bench_pair, tmp_path, capsys):
        # With --no-validate the malformed netlist reaches the attack
        # itself (which happens to survive it); the escape hatch exists
        # for deliberately malformed inputs, so the only guarantee is
        # that no validation error is raised.
        original_path, _ = bench_pair
        broken = tmp_path / "broken.bench"
        broken.write_text("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n")
        code = cli_main([
            "attack", str(broken), str(original_path),
            "--attack", "sat", "--time-limit", "5", "--no-validate",
        ])
        assert code in (0, 1, 2)
        assert "validation failed" not in capsys.readouterr().err

    def test_clean_pair_attacks_normally(self, bench_pair, capsys):
        original_path, locked_path = bench_pair
        code = cli_main([
            "attack", str(locked_path), str(original_path),
            "--attack", "sat", "--time-limit", "30",
        ])
        assert code in (0, 1)
        capsys.readouterr()
