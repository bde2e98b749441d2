"""Every net's Tseitin literal agrees with scalar simulation.

:class:`repro.sat.tseitin.TseitinEncoder` hashes gates: each gate is
rewritten into a normal form, constants fold, and a gate whose normal form
the encoder already holds reuses that node's literal.  A BUF or NOT output
reuses its fanin's literal, complemented through a NOT; a gate output whose
``shared_nets`` name already has a literal keeps two equivalence clauses.
So a net's literal may be negative, another net's, or the constant's, and
:meth:`TseitinEncoder.value` is the one way to read it out of a model.

These tests build seeded random circuits that contain each shape the
hashing has to get right: a BUF/NOT chain with a double inversion, a NOT on
a flip-flop's D pin, a NOT driving a primary output, a NOT of a key input,
two structurally identical gates (and their NAND/OR/NOR relatives),
repeated and complementary fanins, CONST0 and CONST1 gates and gates over
them, MUXes with a constant select, with equal data inputs and with a data
input that is the select or a constant, and a 3-input XOR with a repeated
input.  Under every assignment of the free nets, every net read through
``value`` must equal the scalar :mod:`repro.sim` simulators' value:

* combinationally, for a copy pair whose second copy maps BUF/NOT outputs
  onto names that already have a literal (the fallback);
* for a second copy with its own key over shared inputs, where every
  key-independent net must get the first copy's literal;
* for a copy with inputs bound to constants before encoding;
* frame by frame for a 3-frame :func:`~repro.attacks.unroll.encode_unrolled`
  unrolling, whose frame-0 state is bound to the reset values, and for one
  whose inputs are bound to an input sequence.
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

#: The fixed shapes hashing must get right, over i0, i1, k0 and c0 = NOT i0.
_SHAPES = (
    ("h0", GateType.AND, ["i0", "i1"]), ("h1", GateType.AND, ["i1", "i0"]),
    ("h2", GateType.NAND, ["i1", "i0"]), ("h3", GateType.NOR, ["c0", "k0"]),
    ("h4", GateType.OR, ["k0", "c0"]),
    ("r0", GateType.AND, ["i1", "i1", "k0"]), ("r1", GateType.OR, ["k0", "k0"]),
    ("x0", GateType.AND, ["i0", "c0"]), ("x1", GateType.OR, ["c0", "i0", "i1"]),
    ("x2", GateType.XOR, ["i0", "c0"]),
    ("z", GateType.CONST0, []), ("o", GateType.CONST1, []),
    ("a0", GateType.AND, ["o", "i1"]), ("a1", GateType.NOR, ["z", "i1"]),
    ("a2", GateType.XNOR, ["o", "k0"]),
    ("m0", GateType.MUX, ["z", "i1", "k0"]), ("m1", GateType.MUX, ["o", "i1", "k0"]),
    ("m2", GateType.MUX, ["c0", "i1", "k0"]), ("m3", GateType.MUX, ["i0", "k0", "k0"]),
    ("m4", GateType.MUX, ["i0", "z", "i1"]), ("m5", GateType.MUX, ["i0", "k0", "i0"]),
    ("m6", GateType.MUX, ["i0", "i1", "k0"]), ("m7", GateType.MUX, ["c0", "k0", "i1"]),
    ("t", GateType.XOR, ["i1", "k0", "i1"]),
)


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
    for output, gtype, fanin in _SHAPES:
        nets.append(circuit.add_gate(output, gtype, fanin).output)
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


def _assert_shapes_hashed(encoder: TseitinEncoder, prefix: str) -> None:
    """The fixed shapes folded or hit the table as the normal forms say."""
    lit = {net: encoder.varmap[prefix + net] for net in ("i1", "k0", "h0", "h3", "m6")}
    false, true = encoder.constant(False), encoder.constant(True)
    expected = {
        "h1": lit["h0"], "h2": -lit["h0"], "h4": -lit["h3"], "r1": lit["k0"],
        "x0": false, "x1": true, "x2": true, "z": false, "o": true, "a0": lit["i1"],
        "a1": -lit["i1"], "a2": lit["k0"], "m0": lit["i1"], "m1": lit["k0"],
        "m3": lit["k0"], "m4": lit["h0"], "m7": lit["m6"], "t": lit["k0"],
    }
    for net, want in expected.items():
        assert encoder.varmap[prefix + net] == want, net


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
    _assert_shapes_hashed(encoder, "A@")

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


@pytest.mark.parametrize("seed", range(6))
def test_second_copy_shares_every_key_independent_literal(seed):
    circuit = _circuit(seed, inputs=3)
    free = [net for net in circuit.inputs if net not in circuit.key_inputs] + list(circuit.dffs)
    encoder = TseitinEncoder()
    encoder.encode(circuit, prefix="A@")
    size = encoder.cnf.num_vars
    encoder.encode(circuit, prefix="B@", shared_nets={net: f"A@{net}" for net in free})
    keyed = circuit.key_dependent_gates()
    independent = [net for net in circuit.topological_order() if net not in keyed]
    for net in independent:
        assert encoder.varmap[f"B@{net}"] == encoder.varmap[f"A@{net}"], net
    # Copy B allocates nothing outside its key's fanout: its key, and at
    # most two variables (a 3-input XOR's node and chain auxiliary) per
    # key-dependent gate.
    assert encoder.cnf.num_vars - size <= 1 + 2 * len(keyed)

    solver = Solver()
    solver.add_clauses(encoder.cnf.clauses)
    simulator = CombinationalSimulator(circuit)
    for bits in itertools.product((0, 1), repeat=len(free) + 2):
        values = dict(zip(free, bits))
        keys = {"A": bits[-2], "B": bits[-1]}
        assumptions = [encoder.literal(f"A@{net}", bool(value)) for net, value in values.items()]
        assumptions += [encoder.literal(f"{side}@k0", bool(key)) for side, key in keys.items()]
        assert solver.solve(assumptions=assumptions) is True
        model = solver.model()
        for side, key in keys.items():
            expected = simulator.evaluate({**values, "k0": key}, values)
            for net in circuit.topological_order():
                assert encoder.value(model, f"{side}@{net}") == expected[net], (side, net, bits)


@pytest.mark.parametrize("seed", range(4))
def test_inputs_bound_before_encoding_fold(seed):
    circuit = _circuit(seed, inputs=3)
    rng = random.Random(seed)
    bound = {net: rng.randint(0, 1) for net in ("i0", "i1", "q1")}
    encoder = TseitinEncoder()
    for net, value in bound.items():
        encoder.add_value(f"C@{net}", value)
    assert encoder.cnf.num_vars == 1 and encoder.cnf.clauses == [(1,)]
    encoder.encode(circuit, prefix="C@")
    for net, value in bound.items():
        assert encoder.varmap[f"C@{net}"] == encoder.constant(bool(value))
    # Gates over bound inputs only fold: no variable of theirs is left.
    assert encoder.varmap["C@h0"] == encoder.constant(bool(bound["i0"] & bound["i1"]))

    free = [net for net in list(circuit.inputs) + list(circuit.dffs) if net not in bound]
    solver = Solver()
    solver.add_clauses(encoder.cnf.clauses)
    simulator = CombinationalSimulator(circuit)
    for bits in itertools.product((0, 1), repeat=len(free)):
        values = {**bound, **dict(zip(free, bits))}
        assumptions = [encoder.literal(f"C@{net}", bool(values[net])) for net in free]
        assert solver.solve(assumptions=assumptions) is True
        model = solver.model()
        expected = simulator.evaluate(values, values)
        for net in circuit.topological_order():
            assert encoder.value(model, f"C@{net}") == expected[net], (net, values)


@pytest.mark.parametrize("seed", range(4))
def test_three_frame_unrolling_matches_sequential_simulation(seed):
    circuit = _circuit(seed, inputs=2, all_outputs=True)
    functional = [net for net in circuit.inputs if net not in circuit.key_inputs]
    frames = 3
    encoder = TseitinEncoder()
    unrolled = encode_unrolled(encoder, circuit, frames, prefix="U#",
                               shared_input_prefix="X", key_prefix="K@")
    for q, ff in circuit.dffs.items():
        assert encoder.varmap[unrolled.frame_states[0][q]] == encoder.constant(bool(ff.init))
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


@pytest.mark.parametrize("seed", range(4))
def test_unrolling_bound_to_an_input_sequence(seed):
    circuit = _circuit(seed, inputs=2, all_outputs=True)
    functional = [net for net in circuit.inputs if net not in circuit.key_inputs]
    rng = random.Random(seed)
    sequence = [{net: rng.randint(0, 1) for net in functional} for _ in range(4)]
    encoder = TseitinEncoder()
    unrolled = encode_unrolled(encoder, circuit, len(sequence), prefix="O#",
                               shared_input_prefix="OX", key_prefix="K@",
                               input_values=sequence)
    for frame, vector in enumerate(sequence):
        for net, value in vector.items():
            assert encoder.varmap[unrolled.frame_inputs[frame][net]] == encoder.constant(bool(value))
    unbound = TseitinEncoder()
    encode_unrolled(unbound, circuit, len(sequence), prefix="O#",
                    shared_input_prefix="OX", key_prefix="K@")
    assert encoder.cnf.num_vars < unbound.cnf.num_vars
    solver = Solver()
    solver.add_clauses(encoder.cnf.clauses)
    for key in (0, 1):
        assert solver.solve(assumptions=[encoder.literal("K@k0", bool(key))]) is True
        model = solver.model()
        simulator = SequentialSimulator(circuit)
        for frame, vector in enumerate(sequence):
            values = simulator.step({**vector, "k0": key})
            named = {**unrolled.frame_states[frame], **unrolled.frame_outputs[frame]}
            for net, name in named.items():
                assert encoder.value(model, name) == values[net], (frame, net, key)
