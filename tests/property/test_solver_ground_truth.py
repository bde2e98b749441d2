"""Property tests: the CDCL solver's answers match the ground truth.

The solver is checked against answers computed without it: brute force over
every assignment for random CNF instances (with and without incremental
assumptions, and with the state sanitizer armed), and scalar simulation of
every functional input for the key-miter queries the SAT attack issues on
randomly locked netlists — the formula family every attack actually solves.
The key miters come both hand-built (two full copies of the view) and as
the attacks build them (``_DipMiter``: shared key-independent logic, DIP
observations folded down to the key cone).
"""

import itertools
import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.attacks.sat_attack import _DipMiter
from repro.fsm.random_fsm import random_fsm
from repro.fsm.synthesis import synthesize_fsm
from repro.locking.baselines import lock_rll, lock_sarlock
from repro.sat.session import SolveSession
from repro.sat.solver import Solver
from repro.sat.tseitin import TseitinEncoder
from repro.sim.logicsim import CombinationalSimulator

FAST = settings(max_examples=50, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def cnf_instances(draw):
    num_vars = draw(st.integers(min_value=1, max_value=7))
    num_clauses = draw(st.integers(min_value=1, max_value=24))
    clauses = []
    for _ in range(num_clauses):
        width = draw(st.integers(min_value=1, max_value=3))
        clauses.append([
            draw(st.integers(min_value=1, max_value=num_vars))
            * draw(st.sampled_from([1, -1]))
            for _ in range(width)
        ])
    return num_vars, clauses


def brute_force(clauses, num_vars, assumptions=()):
    """Truth: is ``clauses`` plus each assumption as a unit clause satisfiable?"""
    clauses = list(clauses) + [[lit] for lit in assumptions]
    return any(
        all(any((lit > 0) == bool((model >> (abs(lit) - 1)) & 1) for lit in clause)
            for clause in clauses)
        for model in range(1 << num_vars)
    )


def satisfies(model, clauses):
    return all(
        any((lit > 0) == bool(model.get(abs(lit), 0)) for lit in clause)
        for clause in clauses
    )


@FAST
@given(cnf_instances())
def test_solver_matches_brute_force(instance):
    num_vars, clauses = instance
    expected = brute_force(clauses, num_vars)
    solver = Solver()
    solver.add_clauses(clauses)
    answer = solver.solve()
    assert answer == expected, f"solver answered {answer}, truth {expected}"
    if answer:
        assert satisfies(solver.model(), clauses), "non-satisfying model"


@FAST
@given(cnf_instances(), st.integers(min_value=0, max_value=2 ** 31))
def test_solver_matches_brute_force_under_incremental_assumptions(instance, seed):
    num_vars, clauses = instance
    rng = random.Random(seed)
    assumption_sets = [
        [rng.choice([1, -1]) * rng.randint(1, num_vars)
         for _ in range(rng.randint(0, 3))]
        for _ in range(4)
    ]
    solver = Solver()
    solver.add_clauses(clauses)
    for assumptions in assumption_sets:
        expected = brute_force(clauses, num_vars, assumptions)
        answer = solver.solve(assumptions=assumptions)
        assert answer == expected, (
            f"under assumptions {assumptions} the solver answered {answer}, "
            f"truth {expected}"
        )
        if answer:
            model = solver.model()
            assert satisfies(model, clauses + [[lit] for lit in assumptions])


def _output_table(sim, view, functional, key_bits):
    """The view's outputs under ``key_bits`` for every functional input."""
    table = []
    for bits in itertools.product((0, 1), repeat=len(functional)):
        values = dict(zip(functional, bits))
        values.update(key_bits)
        outputs = sim.outputs(values)
        table.append(tuple(outputs[out] for out in view.outputs))
    return tuple(table)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000))
def test_solver_matches_simulation_on_locked_circuit_miters(seed):
    """Attack-shaped corpus: key miters of randomly locked netlists.

    A key-pair query is SAT exactly when some functional input makes the
    two keys' outputs differ — the query the SAT attack's DIP loop issues.
    The truth comes from simulating every functional input (and, for the
    unconstrained query, every key) with the scalar simulator.
    """
    circuit = synthesize_fsm(random_fsm(4, 2, 1, seed=seed % 97))
    locked = lock_rll(circuit, 3, seed=seed).circuit
    view = locked.combinational_view() if locked.dffs else locked

    encoder = TseitinEncoder()
    key_nets = list(view.key_inputs)
    functional = [n for n in view.inputs if n not in set(key_nets)]
    shared = {n: n for n in functional}
    encoder.encode(view, prefix="A@", shared_nets=shared)
    encoder.encode(view, prefix="B@", shared_nets=shared)
    diff = encoder.encode_inequality(
        [f"A@{out}" for out in view.outputs], [f"B@{out}" for out in view.outputs]
    )
    session = SolveSession(encoder=encoder)

    sim = CombinationalSimulator(view)
    tables = {
        bits: _output_table(sim, view, functional, dict(zip(key_nets, bits)))
        for bits in itertools.product((0, 1), repeat=len(key_nets))
    }
    rng = random.Random(seed)
    pairs = []
    for _ in range(3):
        key_a = tuple(rng.randint(0, 1) for _ in key_nets)
        key_b = tuple(rng.randint(0, 1) for _ in key_nets)
        pairs += [(key_a, tuple(1 - bit for bit in key_a)), (key_a, key_b),
                  (key_a, key_a)]
    for key_a, key_b in pairs:
        assumptions = [encoder.literal(diff, True)]
        for net, bit_a, bit_b in zip(key_nets, key_a, key_b):
            assumptions.append(encoder.literal(f"A@{net}", bool(bit_a)))
            assumptions.append(encoder.literal(f"B@{net}", bool(bit_b)))
        expected = tables[key_a] != tables[key_b]
        assert session.solve(assumptions=assumptions) is expected
    # Unconstrained query: is there any DIP for any key pair?
    expected = len(set(tables.values())) > 1
    assert session.solve(assumptions=[encoder.literal(diff, True)]) is expected


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from(["rll-3", "sarlock-2"]))
def test_dip_miter_matches_simulation_after_observations(seed, scheme):
    """Brute-force check of the attacks' folded miter after two observations.

    ``_DipMiter`` shares the key-independent logic between its key copies
    and encodes each observation as the key cone with constant fanins.  A
    key-pair query must be SAT exactly when, under scalar simulation, both
    keys reproduce every observed oracle response and their output tables
    differ.
    """
    circuit = synthesize_fsm(random_fsm(4, 2, 1, seed=seed % 97))
    if scheme == "rll-3":
        locked = lock_rll(circuit, 3, seed=seed)
    else:
        locked = lock_sarlock(circuit, num_key_bits=2, seed=seed)
    view = locked.circuit.combinational_view()
    oracle = CombinationalSimulator(locked.original.combinational_view())
    key_nets = list(view.key_inputs)
    functional = [n for n in view.inputs if n not in set(key_nets)]
    assert oracle.circuit.outputs == view.outputs

    miter = _DipMiter(SolveSession(), view, view.outputs)
    rng = random.Random(seed)
    observed = []
    for _ in range(2):
        if miter.search():
            dip = miter.dip()
        else:
            dip = {net: rng.randint(0, 1) for net in functional}
        response = oracle.outputs(dip)
        miter.observe(dip, response)
        observed.append((dip, response))

    sim = CombinationalSimulator(view)
    keys = list(itertools.product((0, 1), repeat=len(key_nets)))
    tables = {
        bits: _output_table(sim, view, functional, dict(zip(key_nets, bits)))
        for bits in keys
    }
    consistent = {
        bits: all(
            sim.outputs({**dip, **dict(zip(key_nets, bits))}) == response
            for dip, response in observed
        )
        for bits in keys
    }
    encoder = miter.encoder
    for key_a in keys:
        for key_b in keys:
            assumptions = [miter.diff_literal]
            for net, bit_a, bit_b in zip(key_nets, key_a, key_b):
                assumptions.append(encoder.literal(f"A@{net}", bool(bit_a)))
                assumptions.append(encoder.literal(f"B@{net}", bool(bit_b)))
            expected = (consistent[key_a] and consistent[key_b]
                        and tables[key_a] != tables[key_b])
            assert miter.session.solve(assumptions=assumptions) is expected, (
                f"keys {key_a} / {key_b}"
            )


@FAST
@given(cnf_instances(), st.integers(min_value=0, max_value=2 ** 31))
def test_solver_stays_invariant_clean_with_sanitizer_on(instance, seed):
    """Run the solver with the repro.check state sanitizer armed.

    Every decision point audits watch lists, trail/level consistency, the
    implication graph and the order heap (see repro.check.solver); any
    violation raises SolverStateError and fails the property.  Answers must
    still match brute force, proving the sanitizer is sound on real traces
    and free of false positives.
    """
    num_vars, clauses = instance
    rng = random.Random(seed)
    assumptions = [
        rng.choice([1, -1]) * rng.randint(1, num_vars)
        for _ in range(rng.randint(0, 2))
    ]
    solver = Solver()
    solver.check_invariants = True  # REPRO_CHECK_SOLVER=1 equivalent
    solver.add_clauses(clauses)
    assert solver.solve() == brute_force(clauses, num_vars)
    # Incremental re-solve, still audited.
    assert solver.solve(assumptions=assumptions) == brute_force(
        clauses, num_vars, assumptions
    )


def test_solver_matches_brute_force_exhaustively_on_tiny_formulas():
    """Exhaustive sweep over every 3-variable 2-clause pair of width-2 clauses."""
    literals = [1, -1, 2, -2, 3, -3]
    for c1 in itertools.combinations(literals, 2):
        for c2 in itertools.combinations(literals, 2):
            clauses = [list(c1), list(c2)]
            solver = Solver()
            solver.add_clauses(clauses)
            assert solver.solve() == brute_force(clauses, 3), f"wrong on {clauses}"
