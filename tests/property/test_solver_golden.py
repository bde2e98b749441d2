"""Golden search-identity test for the default ``cdcl`` solver.

:class:`repro.sat.solver.Solver`'s search is part of its contract (see its
module docstring): attack outcomes, campaign tables and the benchmark's work
digest are all computed from it.  This test replays a seeded corpus built
from the solver perf suite's generators and pins, for every ``solve`` call,
the answer, the stats counters, and a digest of the learned clauses (the
``ProofLogger`` steps added during the call) and of the model.  A speed-up
that changes any of them changed the search.

The corpus:

* ``cascade`` — the layered-circuit BCP cascade under a sequence of
  assumption sets (inputs only, plus one deep gate output);
* ``random-3sat`` — random 3-SAT near the phase transition, each instance
  solved repeatedly under a ``conflict_limit`` (restarts, ``None`` answers,
  learned clauses carried across calls);
* ``pigeonhole`` — pigeonhole 6/7, UNSAT;
* ``rescale`` — random 3-SAT with a fast activity decay, so activities
  are rescaled twice within a few hundred conflicts;
* ``incremental`` — clauses added between solves: level-0 units,
  tautologies, duplicate literals, fresh variables, assumptions;
* ``miter`` — a Tseitin-encoded SAT-attack miter (two key copies, an
  inequality over their outputs, then two DIP constraint copies per side
  fixed by ``add_value`` units), synced through a ``SolveSession`` so the
  solver receives the encoder's clause tuples the way every attack does.

It also checks that the order heap holds no duplicate entry after each
solve (the dedupe rule of the solver's "Order heap" docstring section).

The CI static-checks job runs this file with ``REPRO_CHECK_SOLVER=1``, so
the state sanitizer audits every decision of the same replay.

To re-record after a deliberate search change::

    PYTHONPATH=src python tests/property/test_solver_golden.py
"""

import functools
import hashlib
import random
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import pytest

from repro.benchmarks_data.generator import random_sequential_circuit
from repro.check.certify.proof import ProofLogger
from repro.netlist.gates import GateType
from repro.perf import layered_circuit_cnf, pigeonhole, search_instances
from repro.sat.session import SolveSession
from repro.sat.solver import Solver
from repro.sat.tseitin import TseitinEncoder
from repro.sim.logicsim import CombinationalSimulator

#: One solve call: (answer, decisions, propagations, conflicts,
#: learned_clauses, restarts, digest of the call's learned clauses + model).
Call = Tuple[Optional[bool], int, int, int, int, int, str]

# An operation: ("new",) starts a fresh solver (a case's first operation
# gets one anyway), ("decay", factor) sets its activity decay, ("add",
# clauses) and ("solve", assumptions, conflict_limit) drive it.
# ("session", encoder) starts a fresh solver inside a SolveSession around
# ``encoder`` and ("sync",) flows the encoder's new clauses into it.
Op = tuple


def _cascade() -> Iterator[Op]:
    clauses, num_inputs = layered_circuit_cnf(num_inputs=24, num_gates=300, seed=9)
    yield ("add", clauses)
    num_vars = num_inputs + 300
    rng = random.Random(5)
    for _ in range(8):
        inputs = rng.sample(range(1, num_inputs + 1), rng.randint(4, num_inputs // 2))
        deep = [rng.randint(num_vars - 100, num_vars) for _ in range(4)]
        yield ("solve", [v if rng.random() < 0.5 else -v for v in inputs + deep], None)


def _random_3sat() -> Iterator[Op]:
    for clauses in search_instances(instances=2, num_vars=100, smoke=True)[:-1]:
        yield ("new",)
        yield ("add", clauses)
        for _ in range(3):
            yield ("solve", [], 100)


def _pigeonhole() -> Iterator[Op]:
    yield ("add", pigeonhole(6, 7))
    yield ("solve", [], None)


def _rescale() -> Iterator[Op]:
    rng = random.Random(4)
    num_vars = 100
    # var_inc grows by 1/0.3 per conflict, so activities pass 1e100 and are
    # rescaled about every 190 conflicts (twice in this case).
    yield ("decay", 0.3)
    yield ("add", [
        [rng.choice([1, -1]) * rng.randint(1, num_vars) for _ in range(3)]
        for _ in range(int(num_vars * 4.26))
    ])
    for _ in range(3):
        yield ("solve", [], 300)


def _incremental() -> Iterator[Op]:
    rng = random.Random(3)
    num_vars = 40

    def three_sat(count: int, top: int) -> List[List[int]]:
        return [
            [rng.choice([1, -1]) * rng.randint(1, top) for _ in range(3)]
            for _ in range(count)
        ]

    yield ("add", three_sat(140, num_vars))
    yield ("solve", [], None)
    yield ("add", [[-5], [7], [3, -3, 8], [4, 4, -9], [-5, 11], [7, -12, 13]])
    yield ("solve", [], None)
    yield ("solve", [2, -6], None)
    yield ("add", three_sat(20, num_vars + 10) + [[-(num_vars + 4)], [2, 2]])
    yield ("solve", [-(num_vars + 1), 9, 10], None)
    yield ("add", three_sat(10, num_vars + 10) + [[14, -14], [-15, -15, 16], [5, -7, 17]])
    yield ("solve", [], 40)
    yield ("solve", [1, 3], None)


def _miter() -> Iterator[Op]:
    design = random_sequential_circuit(
        "golden", num_inputs=8, num_outputs=4, num_dffs=0, num_gates=60, seed=3
    ).circuit
    # Lock six gates with XOR/XNOR key gates (correct key bit 0/1).
    rng = random.Random(8)
    locked = design.copy(name="locked")
    for index, net in enumerate(rng.sample(sorted(locked.gates), 6)):
        key = locked.add_input(f"key{index}", is_key=True)
        gate = locked.remove_gate(net)
        locked.add_gate(f"{net}_pre", gate.gtype, gate.inputs)
        locked.add_gate(net, rng.choice([GateType.XOR, GateType.XNOR]), [f"{net}_pre", key])
    functional = [net for net in locked.inputs if net not in locked.key_inputs]

    encoder = TseitinEncoder()
    yield ("session", encoder)
    tie = {net: net for net in functional}
    encoder.encode(locked, prefix="A@", shared_nets=tie)
    encoder.encode(locked, prefix="B@", shared_nets=tie)
    diff = encoder.literal(encoder.encode_inequality(
        [f"A@{out}" for out in locked.outputs], [f"B@{out}" for out in locked.outputs]
    ), True)
    yield ("sync",)
    yield ("solve", [diff], None)
    for tag in (1, 2):
        dip = {net: rng.randint(0, 1) for net in functional}
        response = CombinationalSimulator(design).evaluate(dip)
        for side in ("A", "B"):
            prefix = f"c{side}{tag}@"
            shared = {net: f"{side}@{net}" for net in locked.key_inputs}
            shared.update({net: f"{prefix}{net}" for net in functional})
            encoder.encode(locked, prefix=prefix, shared_nets=shared)
            for net in functional:
                encoder.add_value(f"{prefix}{net}", dip[net])
            for out in locked.outputs:
                encoder.add_value(f"{prefix}{out}", response[out])
        yield ("sync",)
        yield ("solve", [diff], None)
    yield ("solve", [], None)


CASES: Dict[str, Callable[[], Iterator[Op]]] = {
    "cascade": _cascade,
    "random-3sat": _random_3sat,
    "pigeonhole": _pigeonhole,
    "rescale": _rescale,
    "incremental": _incremental,
    "miter": _miter,
}


@functools.lru_cache(maxsize=None)
def replay(name: str) -> Tuple[Tuple[Call, ...], Tuple[int, ...]]:
    """Run one corpus case once per session.

    Returns the per-call transcript and, per call, how many duplicate
    entries the order heap held after it.
    """
    calls: List[Call] = []
    duplicates: List[int] = []
    solver: Optional[Solver] = None
    session: Optional[SolveSession] = None
    for op in CASES[name]():
        if op[0] == "session":
            session = SolveSession(encoder=op[1])
            solver = session.solver
            solver.proof = ProofLogger()
            continue
        if solver is None or op[0] == "new":
            solver = Solver()
            solver.proof = ProofLogger()
        if op[0] == "decay":
            solver._var_decay = op[1]
        elif op[0] == "add":
            solver.add_clauses(op[1])
        elif op[0] == "sync":
            session.sync()
        elif op[0] == "solve":
            steps_before = len(solver.proof.steps)
            answer = solver.solve(assumptions=op[1], conflict_limit=op[2])
            heap = solver._order_heap
            duplicates.append(len(heap) - len(set(heap)))
            digest = hashlib.sha256(repr((
                solver.proof.steps[steps_before:],
                sorted(solver.model().items()) if answer else None,
            )).encode()).hexdigest()[:16]
            stats = solver.stats
            calls.append((
                answer, stats.decisions, stats.propagations, stats.conflicts,
                stats.learned_clauses, stats.restarts, digest,
            ))
    return tuple(calls), tuple(duplicates)


# Recorded from the solver as it stood before its hot loops were inlined
# and its order heap deduplicated; both must leave every value unchanged.
# The miter case was re-recorded when the Tseitin encoder stopped giving
# BUF and NOT outputs a variable of their own, and again when it started
# hashing gates and folding constants (its CNF changed, the solver did
# not); the plain-clause shortcut of add_clauses must leave it unchanged.
EXPECTED: Dict[str, List[Call]] = {
    'cascade': [
        (True, 14, 376, 2, 2, 0, '47b264d92ab92ca6'),
        (True, 23, 700, 2, 2, 0, 'ee47331301f8cc62'),
        (False, 23, 790, 2, 2, 0, '053530fafa409638'),
        (False, 24, 948, 4, 3, 0, '6459b1cac6631cd0'),
        (True, 34, 1272, 4, 3, 0, 'c7b52ccd8f9a458e'),
        (True, 45, 1596, 4, 3, 0, '1234f84de86b11ac'),
        (False, 45, 1731, 4, 3, 0, '053530fafa409638'),
        (False, 45, 1825, 4, 3, 0, '053530fafa409638'),
    ],
    'incremental': [
        (True, 20, 134, 9, 9, 0, '0429c9e9b4435946'),
        (True, 34, 200, 12, 12, 0, '52786f96da60d365'),
        (True, 45, 238, 12, 12, 0, '295df832460eca74'),
        (True, 60, 286, 12, 12, 0, '5e239d383ac677b9'),
        (True, 78, 335, 13, 13, 0, '8fe9a6da2f4c0080'),
        (False, 78, 357, 14, 13, 0, '053530fafa409638'),
    ],
    'miter': [
        (True, 19, 121, 0, 0, 0, '8911974a58066d38'),
        (True, 34, 392, 0, 0, 0, '10312d7a10c822da'),
        (True, 78, 1427, 17, 15, 0, '79f66a1ad8eb7ed8'),
        (True, 93, 1588, 17, 15, 0, 'faf013d82fbd1e29'),
    ],
    'pigeonhole': [
        (False, 1075, 10316, 809, 805, 14, '2a7169014b455d38'),
    ],
    'random-3sat': [
        (None, 161, 2356, 100, 100, 2, '76b94991d76dafd2'),
        (None, 293, 5019, 200, 200, 4, '31f552dc5764a662'),
        (None, 421, 7152, 300, 300, 6, '65f980b1d3b714aa'),
        (None, 138, 2315, 100, 100, 2, 'efdc4c56d0ed2b35'),
        (None, 269, 4471, 200, 200, 4, '6134b38104bde67f'),
        (True, 307, 5071, 221, 221, 4, '3a806b71b60254e9'),
    ],
    'rescale': [
        (None, 417, 6240, 300, 300, 6, '6549e2d00bc172e7'),
        (False, 733, 11627, 555, 549, 11, '9ab704b26f04240f'),
        (False, 733, 11627, 555, 549, 11, '053530fafa409638'),
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_search_is_pinned(name):
    calls, _ = replay(name)
    expected = EXPECTED[name]
    assert len(calls) == len(expected)
    for index, (got, want) in enumerate(zip(calls, expected)):
        assert got == want, f"{name} call #{index}: got {got}, expected {want}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_order_heap_holds_no_duplicate_entry(name):
    _, duplicates = replay(name)
    assert duplicates == (0,) * len(duplicates)


def test_corpus_covers_what_it_claims():
    """Restarts, limit hits, UNSAT and SAT answers all occur in the corpus."""
    answers = {call[0] for calls in EXPECTED.values() for call in calls}
    assert answers == {True, False, None}
    assert any(call[5] for call in EXPECTED["random-3sat"])  # restarts
    assert EXPECTED["rescale"][-1][3] > 2 * 190  # two activity rescales


if __name__ == "__main__":
    print("EXPECTED: Dict[str, List[Call]] = {")
    for case in sorted(CASES):
        print(f"    {case!r}: [")
        for call in replay(case)[0]:
            print(f"        {call!r},")
        print("    ],")
    print("}")
