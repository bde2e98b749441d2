"""Unit tests for the SAT layer: CNF container, CDCL solver, Tseitin encoding
and miter construction."""

import itertools
import random

import pytest

from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.sat.cnf import CNF
from repro.sat.miter import build_key_miter, build_miter
from repro.sat.solver import Solver, _luby, solve_cnf
from repro.sat.tseitin import TseitinEncoder
from repro.sim.logicsim import CombinationalSimulator


def brute_force_sat(clauses, num_vars):
    for model in range(1 << num_vars):
        if all(
            any((lit > 0) == bool((model >> (abs(lit) - 1)) & 1) for lit in clause)
            for clause in clauses
        ):
            return True
    return False


class TestCnf:
    def test_add_clause_tracks_vars(self):
        cnf = CNF()
        cnf.add_clause([1, -3])
        assert cnf.num_vars == 3
        assert len(cnf) == 1

    def test_rejects_zero_literal_and_empty(self):
        cnf = CNF()
        with pytest.raises(ValueError):
            cnf.add_clause([0])
        with pytest.raises(ValueError):
            cnf.add_clause([])

    @pytest.mark.parametrize("clause", [[0, 1, 2], [1, 0, 2], [1, 2, 0], []])
    def test_rejects_zero_anywhere_and_empty_without_storing(self, clause):
        cnf = CNF()
        with pytest.raises(ValueError) as error:
            cnf.add_clause(clause)
        expected = "literal 0 is not allowed" if clause else "empty clause"
        assert expected in str(error.value)
        assert cnf.clauses == [] and cnf.num_vars == 0

    def test_num_vars_tracks_largest_negative_literal(self):
        cnf = CNF()
        cnf.add_clause([2, -7, 3])
        assert cnf.num_vars == 7
        cnf.add_clause([-9])
        assert cnf.num_vars == 9
        cnf.add_clause([4, -1])
        assert cnf.num_vars == 9
        assert cnf.clauses == [(2, -7, 3), (-9,), (4, -1)]

    def test_bool_literals_are_stored_as_int(self):
        cnf = CNF()
        cnf.add_clause([True, -2])
        assert cnf.clauses == [(1, -2)]
        assert [type(lit) for lit in cnf.clauses[0]] == [int, int]

    def test_numpy_literals_are_stored_as_int(self):
        numpy = pytest.importorskip("numpy")
        cnf = CNF()
        cnf.add_clause(numpy.array([3, -5], dtype=numpy.int64))
        cnf.add_clause([numpy.int64(-6), 1])
        assert cnf.clauses == [(3, -5), (-6, 1)]
        assert {type(lit) for clause in cnf.clauses for lit in clause} == {int}
        assert type(cnf.num_vars) is int and cnf.num_vars == 6

    def test_dimacs_roundtrip(self):
        cnf = CNF()
        cnf.extend([[1, 2], [-1, 3], [-2, -3]])
        text = cnf.to_dimacs()
        parsed = CNF.from_dimacs(text)
        assert parsed.clauses == cnf.clauses
        assert parsed.num_vars == cnf.num_vars


class TestLuby:
    def test_prefix(self):
        assert [_luby(i) for i in range(1, 8)] == [1, 1, 2, 1, 1, 2, 4]

    def test_values_are_powers_of_two(self):
        for i in range(1, 200):
            value = _luby(i)
            assert value & (value - 1) == 0


class TestSolver:
    def test_simple_sat(self):
        solver = Solver()
        solver.add_clauses([[1, 2], [-1, 2], [1, -2]])
        assert solver.solve() is True
        model = solver.model()
        assert model[1] == 1 and model[2] == 1

    def test_simple_unsat(self):
        solver = Solver()
        solver.add_clauses([[1], [-1]])
        assert solver.solve() is False

    def test_unsat_requires_learning(self):
        # (a|b)(a|-b)(-a|c)(-a|-c) is UNSAT.
        solver = Solver()
        solver.add_clauses([[1, 2], [1, -2], [-1, 3], [-1, -3]])
        assert solver.solve() is False

    def test_assumptions(self):
        solver = Solver()
        solver.add_clauses([[1, 2], [-2, 3]])
        assert solver.solve(assumptions=[-1]) is True
        assert solver.model()[2] == 1
        assert solver.solve(assumptions=[-1, -2]) is False
        # incremental: still satisfiable without assumptions afterwards
        assert solver.solve() is True

    def test_conflict_limit_returns_none(self):
        # A small pigeonhole instance that needs more than one conflict.
        clauses = []
        holes, pigeons = 3, 4
        def var(p, h):
            return p * holes + h + 1
        for p in range(pigeons):
            clauses.append([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    clauses.append([-var(p1, h), -var(p2, h)])
        solver = Solver()
        solver.add_clauses(clauses)
        assert solver.solve(conflict_limit=1) is None
        # A zero time limit is an expired budget, not "no limit".
        assert solver.solve(time_limit=0.0) is None
        # and with a real budget it proves UNSAT
        assert solver.solve() is False

    def test_agrees_with_brute_force_on_random_3sat(self):
        rng = random.Random(42)
        for _ in range(100):
            num_vars = 6
            clauses = [
                [rng.choice([1, -1]) * rng.randint(1, num_vars) for _ in range(3)]
                for _ in range(rng.randint(4, 26))
            ]
            solver = Solver()
            solver.add_clauses(clauses)
            result = solver.solve()
            assert result == brute_force_sat(clauses, num_vars)
            if result:
                model = solver.model()
                assert all(
                    any((lit > 0) == bool(model.get(abs(lit), 0)) for lit in clause)
                    for clause in clauses
                )

    def test_rejects_zero_assumption(self):
        solver = Solver()
        solver.add_clauses([[1, 2], [-1, 2]])
        with pytest.raises(ValueError, match="literal 0 is not allowed"):
            solver.solve(assumptions=[0])
        with pytest.raises(ValueError, match="literal 0 is not allowed"):
            solver.solve(assumptions=[2, 0])
        assert solver.stats.solve_calls == 0
        assert solver.solve(assumptions=[2]) is True

    def test_solve_cnf_helper(self):
        assert solve_cnf([[1, 2], [-1]]) is True


class TestTseitin:
    @pytest.mark.parametrize("gtype,arity", [
        (GateType.AND, 2), (GateType.AND, 3), (GateType.NAND, 2), (GateType.OR, 2),
        (GateType.OR, 3), (GateType.NOR, 2), (GateType.XOR, 2), (GateType.XOR, 3),
        (GateType.XNOR, 2), (GateType.NOT, 1), (GateType.BUF, 1), (GateType.MUX, 3),
    ])
    def test_gate_encoding_matches_simulation(self, gtype, arity):
        circuit = Circuit(f"g_{gtype.value}")
        inputs = [f"i{k}" for k in range(arity)]
        for net in inputs:
            circuit.add_input(net)
        circuit.add_gate("y", gtype, inputs)
        circuit.add_output("y")

        encoder = TseitinEncoder()
        cnf = encoder.encode(circuit)
        for assignment in itertools.product((0, 1), repeat=arity):
            expected = CombinationalSimulator(circuit).evaluate(dict(zip(inputs, assignment)))["y"]
            solver = Solver()
            solver.add_clauses(cnf.clauses)
            assumptions = [encoder.literal(net, bool(v)) for net, v in zip(inputs, assignment)]
            assert solver.solve(assumptions=assumptions) is True
            assert solver.model()[encoder.var("y")] == expected

    def test_constants(self):
        circuit = Circuit("const")
        circuit.add_input("a")
        circuit.add_gate("zero", GateType.CONST0, [])
        circuit.add_gate("y", GateType.OR, ["a", "zero"])
        circuit.add_output("y")
        encoder = TseitinEncoder()
        cnf = encoder.encode(circuit)
        solver = Solver()
        solver.add_clauses(cnf.clauses)
        assert solver.solve(assumptions=[encoder.literal("a", False), encoder.literal("y", True)]) is False

    def test_shared_nets_merge_variables(self):
        circuit = Circuit("share")
        circuit.add_input("a")
        circuit.add_gate("y", GateType.NOT, ["a"])
        circuit.add_output("y")
        encoder = TseitinEncoder()
        encoder.encode(circuit, prefix="L@", shared_nets={"a": "shared_a"})
        encoder.encode(circuit, prefix="R@", shared_nets={"a": "shared_a"})
        solver = Solver()
        solver.add_clauses(encoder.cnf.clauses)
        # Both copies read the same shared input, so forcing their outputs to
        # differ (exactly one true) must be unsatisfiable.
        solver.add_clause([encoder.literal("L@y", True), encoder.literal("R@y", True)])
        solver.add_clause([encoder.literal("L@y", False), encoder.literal("R@y", False)])
        assert solver.solve() is False

    def test_encode_inequality(self):
        encoder = TseitinEncoder()
        diff = encoder.encode_inequality(["a0", "a1"], ["b0", "b1"])
        solver = Solver()
        solver.add_clauses(encoder.cnf.clauses)
        equal = [encoder.literal("a0", True), encoder.literal("b0", True),
                 encoder.literal("a1", False), encoder.literal("b1", False)]
        assert solver.solve(assumptions=equal + [encoder.literal(diff, True)]) is False
        unequal = [encoder.literal("a0", True), encoder.literal("b0", False),
                   encoder.literal("a1", False), encoder.literal("b1", False)]
        assert solver.solve(assumptions=unequal + [encoder.literal(diff, True)]) is True


class TestMiter:
    def test_equivalence_miter_unsat_for_identical(self):
        circuit = Circuit("c")
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("y", GateType.AND, ["a", "b"])
        circuit.add_output("y")
        miter, diff = build_miter(circuit, circuit.copy())
        encoder = TseitinEncoder()
        cnf = encoder.encode(miter)
        solver = Solver()
        solver.add_clauses(cnf.clauses)
        assert solver.solve(assumptions=[encoder.literal(diff, True)]) is False

    def test_key_miter_finds_dip(self):
        circuit = Circuit("locked")
        circuit.add_input("a")
        circuit.add_input("keyinput0", is_key=True)
        circuit.add_gate("y", GateType.XOR, ["a", "keyinput0"])
        circuit.add_output("y")
        miter, diff, keys_a, keys_b = build_key_miter(circuit)
        assert keys_a == ["KA_keyinput0"] and keys_b == ["KB_keyinput0"]
        encoder = TseitinEncoder()
        cnf = encoder.encode(miter)
        solver = Solver()
        solver.add_clauses(cnf.clauses)
        # Different keys must make the outputs differ for some input.
        assert solver.solve(assumptions=[encoder.literal(diff, True)]) is True
