"""Unit tests for repro.check.certify: DIMACS, DRUP checking, proof logging,
session plumbing and kernel translation validation.

The adversarial section is the heart: each doctored proof (dropped step,
reordered step, bogus deletion, truncated file, proof for a SAT instance)
must be *rejected* with the offending line number — a checker that accepts
everything certifies nothing.
"""

import pytest

from repro.check.certify.dimacs import (
    DimacsError,
    load_dimacs,
    parse_dimacs,
    render_dimacs,
)
from repro.check.certify.drup import (
    ProofError,
    RupChecker,
    check_certificate,
    check_proof_lines,
)
from repro.check.certify.proof import ProofLogger, render_proof, write_certificate

# The canonical 2-variable UNSAT core: all four clauses over {1, 2}.
UNSAT_2VAR = [(1, 2), (1, -2), (-1, 2), (-1, -2)]
# R(1,2,3) pigeonhole-ish SAT instance (satisfiable: 1=T, 2=T).
SAT_2VAR = [(1, 2), (1, -2), (-1, 2)]


# --------------------------------------------------------------------- #
# DIMACS parsing
# --------------------------------------------------------------------- #
class TestDimacs:
    def test_one_clause_per_line(self):
        parsed = parse_dimacs("p cnf 3 2\n1 2 0\n-1 3 0\n")
        assert parsed.clauses == [(1, 2), (-1, 3)]
        assert parsed.header_vars == 3
        assert parsed.num_vars == 3

    def test_multiline_and_shared_line_clauses(self):
        parsed = parse_dimacs("p cnf 3 3\n1 2\n3 0 -1 -2 0\n3\n0\n")
        assert parsed.clauses == [(1, 2, 3), (-1, -2), (3,)]

    def test_comments_blanks_and_trailer(self):
        parsed = parse_dimacs("c hello\n\np cnf 2 1\nc mid\n1 -2 0\n%\n0\n")
        assert parsed.clauses == [(1, -2)]

    def test_missing_header_is_lenient(self):
        parsed = parse_dimacs("1 2 0\n-3 0\n")
        assert parsed.header_vars is None
        assert parsed.num_vars == 3

    def test_num_vars_exceeding_header(self):
        parsed = parse_dimacs("p cnf 2 1\n5 0\n")
        assert parsed.num_vars == 5

    def test_malformed_header_raises(self):
        with pytest.raises(DimacsError) as excinfo:
            parse_dimacs("p cnf 3\n1 0\n", path="x.cnf")
        assert excinfo.value.line == 1
        assert "x.cnf:1" in str(excinfo.value)

    def test_duplicate_header_raises(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p cnf 1 1\np cnf 1 1\n1 0\n")

    def test_non_numeric_token_raises(self):
        with pytest.raises(DimacsError) as excinfo:
            parse_dimacs("p cnf 2 1\n1 x 0\n")
        assert excinfo.value.line == 2

    def test_strict_requires_header_and_termination(self):
        with pytest.raises(DimacsError):
            parse_dimacs("1 2 0\n", strict=True)
        with pytest.raises(DimacsError):
            parse_dimacs("p cnf 2 1\n1 2\n", strict=True)
        # Lenient mode keeps the unterminated trailing clause.
        assert parse_dimacs("p cnf 2 1\n1 2\n").clauses == [(1, 2)]

    def test_render_roundtrip(self, tmp_path):
        text = render_dimacs([(1, -2), (3,)], 3)
        assert text.splitlines()[0] == "p cnf 3 2"
        path = tmp_path / "rt.cnf"
        path.write_text(text)
        assert load_dimacs(str(path)).clauses == [(1, -2), (3,)]


# --------------------------------------------------------------------- #
# the RUP checker on hand-built proofs
# --------------------------------------------------------------------- #
class TestRupChecker:
    def test_accepts_valid_proof(self):
        stats = check_proof_lines(UNSAT_2VAR, ["1 0", "0"])
        assert stats.additions == 2
        assert stats.original_clauses == 4

    def test_accepts_proof_with_deletions(self):
        stats = check_proof_lines(
            [(1, 2, 3), (1, 2, -3), (1, -2), (-1,), (2, 3), (-3, 2), (-2, 3), (-3, -2)],
            ["1 2 0", "d 1 2 3 0", "2 0", "3 0", "0"],
        )
        assert stats.deletions == 1

    def test_immediate_empty_clause_on_contradictory_cnf(self):
        # Unit clauses (1) and (-1): propagation at install conflicts, so
        # the proof is just the empty clause.
        stats = check_proof_lines([(1,), (-1,)], ["0"])
        assert stats.additions == 1

    def test_rejects_non_rup_addition(self):
        # SAT_2VAR has the unique model 1=T, 2=T: the units (1) and (2) are
        # implied (and indeed RUP), their negations are not.
        checker = RupChecker(SAT_2VAR, 2)
        assert checker.is_rup([-1]) is False
        assert checker.is_rup([-2]) is False
        assert checker.is_rup([1]) is True
        assert checker.is_rup([2]) is True

    def test_fresh_proof_variables_are_tolerated(self):
        # A clause over a variable the CNF never mentions is simply not RUP
        # (no conflict), not a crash.
        checker = RupChecker(UNSAT_2VAR, 2)
        assert checker.is_rup([7]) is False

    def test_rollback_between_checks(self):
        checker = RupChecker(SAT_2VAR, 2)
        assert checker.is_rup([-1]) is False
        # The failed check must leave no residue on the trail.
        assert checker.is_rup([1]) is True
        assert checker.is_rup([-1]) is False


# --------------------------------------------------------------------- #
# adversarial: doctored proofs must be rejected with line numbers
# --------------------------------------------------------------------- #
class TestDoctoredProofs:
    # The complete 3-variable UNSAT formula: every refutation needs a real
    # chain of lemmas ((1 2), then (1), then (2)) before the empty clause.
    CNF = [
        (1, 2, 3), (1, 2, -3), (1, -2, 3), (1, -2, -3),
        (-1, 2, 3), (-1, 2, -3), (-1, -2, 3), (-1, -2, -3),
    ]
    GOOD = ["1 2 0", "1 0", "2 0", "0"]

    def test_good_proof_passes(self):
        assert check_proof_lines(self.CNF, self.GOOD).additions == 4

    def test_dropped_step_rejected(self):
        # Without the "2 0" lemma nothing conflicts, so the empty clause is
        # not RUP.
        with pytest.raises(ProofError) as excinfo:
            check_proof_lines(self.CNF, ["1 2 0", "1 0", "0"], path="p.drup")
        assert excinfo.value.line == 3
        assert "not RUP" in excinfo.value.message

    def test_reordered_steps_rejected(self):
        # "1 0" depends on the "1 2 0" lemma; swapping them breaks RUP at
        # the first line.
        with pytest.raises(ProofError) as excinfo:
            check_proof_lines(
                self.CNF, ["1 0", "1 2 0", "2 0", "0"], path="p.drup"
            )
        assert excinfo.value.line == 1
        assert "not RUP" in excinfo.value.message

    def test_bogus_deletion_rejected(self):
        # (1 2) is a lemma, not an original clause: deleting it before it
        # was ever derived names a clause the solver never had.
        with pytest.raises(ProofError) as excinfo:
            check_proof_lines(
                self.CNF, ["d 1 2 0"] + self.GOOD, path="p.drup"
            )
        assert excinfo.value.line == 1
        assert "not in the database" in excinfo.value.message

    def test_truncated_proof_rejected(self):
        with pytest.raises(ProofError) as excinfo:
            check_proof_lines(self.CNF, self.GOOD[:-1], path="p.drup")
        assert excinfo.value.line == 4
        assert "without deriving the empty clause" in excinfo.value.message

    def test_proof_for_sat_instance_rejected(self):
        with pytest.raises(ProofError) as excinfo:
            check_proof_lines(SAT_2VAR, ["-2 0", "0"], path="p.drup")
        assert "not RUP" in excinfo.value.message

    def test_unparseable_line_rejected(self):
        with pytest.raises(ProofError) as excinfo:
            check_proof_lines(self.CNF, ["two 0"], path="p.drup")
        assert excinfo.value.line == 1
        assert "unparseable" in excinfo.value.message

    def test_line_without_terminator_rejected(self):
        with pytest.raises(ProofError) as excinfo:
            check_proof_lines(self.CNF, ["2"], path="p.drup")
        assert "does not end with 0" in excinfo.value.message

    def test_embedded_zero_rejected(self):
        with pytest.raises(ProofError):
            check_proof_lines(self.CNF, ["2 0 1 0"], path="p.drup")

    def test_empty_deletion_rejected(self):
        with pytest.raises(ProofError) as excinfo:
            check_proof_lines(self.CNF, ["d 0"], path="p.drup")
        assert "deletion of the empty clause" in excinfo.value.message


# --------------------------------------------------------------------- #
# ProofLogger + write_certificate
# --------------------------------------------------------------------- #
class TestProofLogger:
    def test_logger_records_and_renders(self):
        logger = ProofLogger()
        logger.learned([2])
        logger.deleted([1, 2, 3])
        logger.learned([])
        assert len(logger) == 3
        text = render_proof(logger.steps)
        assert text.splitlines() == ["2 0", "d 1 2 3 0", "0", "0"]

    def test_reset(self):
        logger = ProofLogger()
        logger.learned([1])
        logger.reset()
        assert len(logger) == 0

    def test_write_certificate_with_assumptions(self, tmp_path):
        cnf_path = tmp_path / "c.cnf"
        proof_path = tmp_path / "c.drup"
        logger = ProofLogger()
        logger.learned([-1])
        # Base CNF is SAT; assuming 1 makes it UNSAT once (-1) is learned.
        write_certificate(
            cnf_path, proof_path, [(-1, 2), (-2, -1)], 2,
            assumptions=[1], steps=logger.steps,
        )
        # The assumption landed as a unit clause in the certificate CNF.
        assert (1,) in load_dimacs(str(cnf_path)).clauses
        stats = check_certificate(str(cnf_path), str(proof_path))
        assert stats.additions >= 1


# --------------------------------------------------------------------- #
# end-to-end: the solver emits checkable proofs
# --------------------------------------------------------------------- #
class TestSolverProofs:
    def _session(self, tmp_path):
        from repro.sat.session import SolveSession

        return SolveSession(proof_path=tmp_path, proof_label="t")

    def _load_unsat_chain(self, session):
        """Encode an UNSAT chain a=1, a->b, b->c, -c over session nets."""
        encoder = session.encoder
        a, b, c = (encoder.var(n) for n in ("a", "b", "c"))
        encoder.cnf.add_clause([a])
        encoder.cnf.add_clause([-a, b])
        encoder.cnf.add_clause([-b, c])
        return a, b, c

    def test_plain_unsat_emits_verified_pair(self, tmp_path):
        session = self._session(tmp_path)
        a, b, c = self._load_unsat_chain(session)
        session.encoder.cnf.add_clause([-c])
        assert session.solve() is False
        assert len(session.certificates) == 1
        cnf_path, proof_path = session.certificates[0]
        assert check_certificate(cnf_path, proof_path).additions >= 1

    def test_assumption_unsat_emits_verified_pair(self, tmp_path):
        session = self._session(tmp_path)
        a, b, c = self._load_unsat_chain(session)
        assert session.solve() is True          # SAT without assumptions
        assert session.certificates == []       # SAT answers emit nothing
        assert session.solve([-c]) is False     # UNSAT under the assumption
        assert len(session.certificates) == 1
        check_certificate(*session.certificates[0])

    def test_incremental_growth_keeps_proofs_sound(self, tmp_path):
        session = self._session(tmp_path)
        a, b, c = self._load_unsat_chain(session)
        assert session.solve() is True
        session.encoder.cnf.add_clause([-c])    # now UNSAT
        assert session.solve() is False
        check_certificate(*session.certificates[-1])

    def test_reset_solver_resets_the_proof(self, tmp_path):
        session = self._session(tmp_path)
        a, b, c = self._load_unsat_chain(session)
        session.encoder.cnf.add_clause([-c])
        assert session.solve() is False
        session.reset_solver()
        assert session.solve() is False
        assert len(session.certificates) == 2
        for pair in session.certificates:
            check_certificate(*pair)

    def test_disarmed_session_has_no_proof_hook(self, tmp_path):
        from repro.sat.session import SolveSession

        session = SolveSession()
        a, b, c = self._load_unsat_chain(session)
        session.encoder.cnf.add_clause([-c])
        assert session.solve() is False
        assert session.certificates == []
        assert session.solver.proof is None


# --------------------------------------------------------------------- #
# translation validation (kernel vs netlist)
# --------------------------------------------------------------------- #
class TestEquiv:
    def test_s27_validates_with_proofs(self):
        from repro.check.certify.equiv import load_fixture, validate_circuit

        report = validate_circuit(load_fixture("s27"))
        assert report.ok
        assert report.bits_total > 0
        assert report.proofs_checked == report.certificates
        assert "kernel == netlist" in report.render()

    def test_mutated_kernel_is_caught(self):
        import dataclasses

        from repro.check.certify.equiv import load_fixture, validate_compiled
        from repro.engine.compiler import compile_circuit

        compiled = compile_circuit(load_fixture("s27"))
        # Flip the invert bit of the first op: the field the interpreter
        # reads, so the mutation changes what runs.
        op = compiled.ops[0]
        mutated = dataclasses.replace(
            compiled, ops=[op._replace(invert=not op.invert)] + list(compiled.ops[1:])
        )
        report = validate_compiled(mutated, check_proofs=False)
        assert not report.ok
        mismatch = report.mismatches[0]
        assert mismatch.counterexample  # a concrete witness assignment
        assert "DIVERGE" in report.render()

    def test_validation_reads_the_lowering_that_runs(self, monkeypatch):
        import operator

        from repro.check.certify.equiv import validate_circuit
        from repro.engine import compiler
        from repro.netlist.circuit import Circuit
        from repro.netlist.gates import GateType

        circuit = Circuit("xnor")
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("y", GateType.XNOR, ["a", "b"])
        circuit.add_output("y")
        assert validate_circuit(circuit, check_proofs=False).ok
        # Lower XNOR like XOR (no invert): the op list that runs is wrong,
        # and validation must see it.
        monkeypatch.setitem(
            compiler._LOWERING, GateType.XNOR, (compiler.FOLD, operator.xor, False)
        )
        report = validate_circuit(circuit, check_proofs=False)
        assert not report.ok
        assert "DIVERGE" in report.render()
        (mismatch,) = report.mismatches
        assert (mismatch.kind, mismatch.name) == ("output", "y")
        assert set(mismatch.counterexample) == {"a", "b"}

    def test_unknown_fixture_raises_keyerror(self):
        from repro.check.certify.equiv import load_fixture

        with pytest.raises(KeyError):
            load_fixture("not-a-fixture")


# --------------------------------------------------------------------- #
# certified attacks
# --------------------------------------------------------------------- #
class TestCertifiedAttacks:
    def test_sat_attack_proof_dir(self, tmp_path):
        from repro.attacks.sat_attack import sat_attack
        from repro.fsm.random_fsm import random_fsm
        from repro.fsm.synthesis import synthesize_fsm
        from repro.locking.cutelock_str import CuteLockStr

        circuit = synthesize_fsm(random_fsm(8, 2, 2, seed=5))
        locked = CuteLockStr(
            num_keys=4, key_width=2, num_locked_ffs=2, seed=3
        ).lock(circuit)
        proof_dir = tmp_path / "proofs"
        result = sat_attack(locked, circuit, proof_dir=proof_dir)
        assert result.details["certificates"] >= 1
        assert result.details["proof_dir"] == str(proof_dir)
        pairs = sorted(proof_dir.glob("*.drup"))
        assert len(pairs) == result.details["certificates"]
        for drup in pairs:
            check_certificate(drup.with_suffix(".cnf"), drup)

    def test_corrupting_an_emitted_proof_is_caught(self, tmp_path):
        from repro.sat.session import SolveSession

        session = SolveSession(proof_path=tmp_path, proof_label="t")
        encoder = session.encoder
        lits = [encoder.var(f"n{i}") for i in range(4)]
        # A small UNSAT XOR-ish system so the proof has real content.
        encoder.cnf.add_clause([lits[0], lits[1]])
        encoder.cnf.add_clause([-lits[0], lits[1]])
        encoder.cnf.add_clause([lits[0], -lits[1]])
        encoder.cnf.add_clause([-lits[0], -lits[1], lits[2]])
        encoder.cnf.add_clause([-lits[2], lits[3]])
        encoder.cnf.add_clause([-lits[3]])
        assert session.solve() is False
        cnf_path, proof_path = session.certificates[0]
        original = open(proof_path).read()
        # Prepending a non-RUP addition over a fresh variable must fail.
        with open(proof_path, "w") as handle:
            handle.write("999999 0\n" + original)
        with pytest.raises(ProofError) as excinfo:
            check_certificate(cnf_path, proof_path)
        assert excinfo.value.line == 1
