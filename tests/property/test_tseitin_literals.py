"""Every net's Tseitin literal agrees with scalar simulation.

:class:`repro.sat.tseitin.TseitinEncoder` gives a BUF or NOT output no
variable of its own: the output reuses its fanin's literal, complemented
through a NOT, unless its ``shared_nets`` name already has a literal, in
which case the gate keeps its two equivalence clauses.  So a net's literal
may be negative, and :meth:`TseitinEncoder.value` is the one way to read it
out of a model.

These tests build seeded random circuits that contain each shape the
aliasing has to get right: a BUF/NOT chain with a double inversion, a NOT on
a flip-flop's D pin, a NOT driving a primary output, a NOT of a key input,
and (in a second copy) BUF/NOT outputs mapped onto names that already have
a literal, which take the fallback.  Under every assignment of the free
nets, every net read through ``value`` must equal the scalar
:mod:`repro.sim` simulators' value: combinationally for one encoded copy
pair, and frame by frame for a 3-frame
:func:`~repro.attacks.unroll.encode_unrolled` unrolling.
"""

import itertools
import random

import pytest

from repro.attacks.unroll import encode_unrolled
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.sat.solver import Solver
from repro.sat.tseitin import TseitinEncoder
from repro.sim.logicsim import CombinationalSimulator
from repro.sim.seqsim import SequentialSimulator

#: Gate types of the random part, with their (min, max) fan-in; BUF and NOT
#: are drawn often so that chains of them form.
_TYPES = (
    (GateType.AND, 2, 3), (GateType.NAND, 2, 3), (GateType.OR, 2, 3),
    (GateType.NOR, 2, 2), (GateType.XOR, 2, 3), (GateType.XNOR, 2, 2),
    (GateType.MUX, 3, 3), (GateType.NOT, 1, 1), (GateType.NOT, 1, 1),
    (GateType.BUF, 1, 1),
)

#: BUF/NOT outputs the second copy maps onto names that already have a
#: literal: copy A's, or fresh ones whose only constraint is then the
#: fallback's two equivalence clauses.
_FALLBACK = {"c1": "A@c1", "c3": "A@c3", "d0": "F@d0", "po": "F@po"}


def _circuit(seed: int, *, inputs: int, gates: int = 20, all_outputs: bool = False) -> Circuit:
    rng = random.Random(seed)
    circuit = Circuit(f"literals{seed}")
    nets = [circuit.add_input(f"i{index}") for index in range(inputs)]
    nets.append(circuit.add_input("k0", is_key=True))
    nets.extend(("q0", "q1"))
    # A chain with a double inversion, and a NOT of the key input.
    for output, gtype, fanin in (
        ("c0", GateType.NOT, "i0"), ("c1", GateType.NOT, "c0"),
        ("c2", GateType.BUF, "c1"), ("c3", GateType.NOT, "c2"),
        ("nk", GateType.NOT, "k0"),
    ):
        nets.append(circuit.add_gate(output, gtype, [fanin]).output)
    for index in range(gates):
        gtype, low, high = rng.choice(_TYPES)
        fanin = [rng.choice(nets[-6:] if rng.random() < 0.6 else nets)
                 for _ in range(rng.randint(low, high))]
        nets.append(circuit.add_gate(f"g{index}", gtype, fanin).output)
    # A NOT on a D pin and a NOT driving a primary output.
    circuit.add_gate("d0", GateType.NOT, [nets[-1]])
    circuit.add_gate("po", GateType.NOT, [nets[-2]])
    circuit.add_dff("q0", "d0", init=1)
    circuit.add_dff("q1", nets[-3], init=0)
    circuit.add_output("po")
    circuit.add_output(nets[-1])
    if all_outputs:
        for net in circuit.topological_order():
            if net not in circuit.outputs:
                circuit.add_output(net)
    return circuit


@pytest.mark.parametrize("seed", range(6))
def test_every_net_matches_simulation(seed):
    circuit = _circuit(seed, inputs=3)
    free = list(circuit.inputs) + list(circuit.dffs)
    nets = free + circuit.topological_order()
    encoder = TseitinEncoder()
    encoder.encode(circuit, prefix="A@")
    # Copy B reads copy A's free nets, and its fallback gates' outputs
    # already have literals.
    shared = {net: f"A@{net}" for net in free}
    shared.update(_FALLBACK)
    for name in _FALLBACK.values():
        encoder.var(name)
    encoder.encode(circuit, prefix="B@", shared_nets=shared)
    assert encoder.varmap["A@c1"] == encoder.varmap["A@i0"]
    assert encoder.varmap["A@nk"] == -encoder.varmap["A@k0"]

    solver = Solver()
    solver.add_clauses(encoder.cnf.clauses)
    simulator = CombinationalSimulator(circuit)
    for bits in itertools.product((0, 1), repeat=len(free)):
        values = dict(zip(free, bits))
        assumptions = [encoder.literal(f"A@{net}", bool(value)) for net, value in values.items()]
        assert solver.solve(assumptions=assumptions) is True
        model = solver.model()
        expected = simulator.evaluate(values, values)
        for net in nets:
            assert encoder.value(model, f"A@{net}") == expected[net], (net, values)
            assert encoder.value(model, shared.get(net, f"B@{net}")) == expected[net], (net, values)


@pytest.mark.parametrize("seed", range(4))
def test_three_frame_unrolling_matches_sequential_simulation(seed):
    circuit = _circuit(seed, inputs=2, all_outputs=True)
    functional = [net for net in circuit.inputs if net not in circuit.key_inputs]
    frames = 3
    encoder = TseitinEncoder()
    unrolled = encode_unrolled(encoder, circuit, frames, prefix="U#",
                               shared_input_prefix="X", key_prefix="K@")
    solver = Solver()
    solver.add_clauses(encoder.cnf.clauses)
    for bits in itertools.product((0, 1), repeat=1 + frames * len(functional)):
        key = {"k0": bits[0]}
        sequence = [
            dict(zip(functional, bits[1 + frame * len(functional):]))
            for frame in range(frames)
        ]
        assumptions = [encoder.literal("K@k0", bool(bits[0]))]
        for frame, vector in enumerate(sequence):
            assumptions.extend(
                encoder.literal(unrolled.frame_inputs[frame][net], bool(value))
                for net, value in vector.items()
            )
        assert solver.solve(assumptions=assumptions) is True
        model = solver.model()
        simulator = SequentialSimulator(circuit)
        for frame, vector in enumerate(sequence):
            values = simulator.step({**vector, **key})
            named = {**unrolled.frame_states[frame], **unrolled.frame_outputs[frame]}
            for net, name in named.items():
                assert encoder.value(model, name) == values[net], (frame, net, bits)
        for q, name in unrolled.next_state_names.items():
            assert encoder.value(model, name) == simulator.state[q], (q, bits)
