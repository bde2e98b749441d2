"""Seeded random sequential-circuit generators.

Two flavours are provided:

* :func:`random_sequential_circuit` — an unstructured "sea of gates" with a
  requested number of inputs/outputs/flip-flops/gates; used for the
  ISCAS'89-style attack benchmarks.
* :func:`word_structured_circuit` — flip-flops organised into multi-bit
  *words* (registers) with word-level dataflow (each word's next value is a
  bitwise function of a few other words and inputs), which gives DANA a
  meaningful ground truth to recover; used for the ITC'99-style benchmarks.

Both generators are deterministic in their ``seed`` and always produce
structurally valid circuits (every net driven, no combinational cycles) where
every flip-flop lies on some input→output path, so locking transforms and
attacks behave non-trivially on them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType

_BINARY_GATES = [GateType.AND, GateType.OR, GateType.NAND, GateType.NOR, GateType.XOR, GateType.XNOR]


@dataclass
class GeneratedCircuit:
    """A generated benchmark: the circuit plus its DANA ground truth."""

    circuit: Circuit
    register_groups: Dict[str, str] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.circuit.name


def _random_gate(
    circuit: Circuit,
    rng: random.Random,
    available: List[str],
    prefix: str,
    index: int,
) -> str:
    """Add one random 1–3 input gate reading from ``available`` nets."""
    out = f"{prefix}_g{index}"
    gtype = rng.choice(_BINARY_GATES + [GateType.NOT])
    if gtype == GateType.NOT:
        circuit.add_gate(out, GateType.NOT, [rng.choice(available)])
    else:
        fanin = rng.choice([2, 2, 2, 3])
        sources = [rng.choice(available) for _ in range(fanin)]
        circuit.add_gate(out, gtype, sources)
    return out


def random_sequential_circuit(
    name: str,
    *,
    num_inputs: int,
    num_outputs: int,
    num_dffs: int,
    num_gates: int,
    seed: int = 0,
) -> GeneratedCircuit:
    """Generate an unstructured random sequential circuit.

    The combinational logic is built in topological order over the primary
    inputs and flip-flop outputs, every flip-flop's D is taken from the
    generated logic, and outputs are taken from late gates so they depend on
    a deep slice of the circuit.
    """
    if num_inputs < 1 or num_outputs < 1 or num_dffs < 0 or num_gates < 1:
        raise ValueError("all size parameters must be positive (num_dffs may be 0)")
    rng = random.Random(seed)
    circuit = Circuit(name=name)
    inputs = [f"G{i}" for i in range(num_inputs)]
    for net in inputs:
        circuit.add_input(net)
    state_nets = [f"R{i}" for i in range(num_dffs)]

    available = list(inputs) + list(state_nets)
    gate_nets: List[str] = []
    for index in range(num_gates):
        out = _random_gate(circuit, rng, available, name, index)
        gate_nets.append(out)
        available.append(out)

    # Flip-flops: D from the generated logic (biased towards later gates so
    # state depends on state, giving interesting sequential behaviour).
    for bit, q_net in enumerate(state_nets):
        if gate_nets:
            pick = gate_nets[rng.randrange(len(gate_nets) // 2, len(gate_nets))]
        else:
            pick = rng.choice(inputs)
        circuit.add_dff(q_net, pick, init=0)

    # Outputs from the last quarter of gates (distinct where possible).
    tail = gate_nets[-max(num_outputs * 2, 4):]
    chosen: List[str] = []
    for index in range(num_outputs):
        candidates = [n for n in tail if n not in chosen] or gate_nets
        chosen.append(rng.choice(candidates))
    for index, source in enumerate(chosen):
        out_net = f"PO{index}"
        circuit.add_gate(out_net, GateType.BUF, [source])
        circuit.add_output(out_net)

    groups = {q: f"reg{index}" for index, q in enumerate(state_nets)}
    return GeneratedCircuit(circuit=circuit, register_groups=groups)


def word_structured_circuit(
    name: str,
    *,
    num_inputs: int,
    num_outputs: int,
    word_sizes: Sequence[int],
    gates_per_bit: int = 3,
    seed: int = 0,
) -> GeneratedCircuit:
    """Generate a sequential circuit whose flip-flops form multi-bit words.

    Each word ``w`` receives a new value every cycle computed bitwise from
    one or two source words (rotated / combined with a primary input), so
    the bits of a word share predecessor and successor words — exactly the
    dataflow regularity DANA exploits.  The ground-truth register grouping
    maps every flip-flop to its word.
    """
    if not word_sizes:
        raise ValueError("word_sizes must not be empty")
    rng = random.Random(seed)
    circuit = Circuit(name=name)
    inputs = [f"G{i}" for i in range(num_inputs)]
    for net in inputs:
        circuit.add_input(net)

    words: List[List[str]] = []
    groups: Dict[str, str] = {}
    for word_index, size in enumerate(word_sizes):
        bits = [f"W{word_index}_{bit}" for bit in range(size)]
        words.append(bits)
        for q in bits:
            groups[q] = f"word{word_index}"

    # Word-level dataflow: every word reads from two source words.  Each bit
    # additionally mixes in a *word-wide* reduction of both sources so that
    # all bits of a word share exactly the same predecessor register set —
    # the regularity DANA's clustering recovers on unmodified designs.
    for word_index, bits in enumerate(words):
        num_words = len(words)
        source_a = words[(word_index + 1) % num_words]
        # Avoid self-feeding words: a word that reads itself would give each
        # of its bits a slightly different predecessor set (the bit itself is
        # excluded from its own register-dependency neighbourhood), which
        # would blur the ground-truth word structure DANA is scored against.
        other_indices = [i for i in range(num_words) if i != word_index] or [word_index]
        source_b = words[rng.choice(other_indices)]
        control = rng.choice(inputs)

        reduce_a = f"{name}_w{word_index}_reda"
        if len(source_a) == 1:
            circuit.add_gate(reduce_a, GateType.BUF, [source_a[0]])
        else:
            circuit.add_gate(reduce_a, rng.choice([GateType.XOR, GateType.OR]), source_a)
        reduce_b = f"{name}_w{word_index}_redb"
        if len(source_b) == 1:
            circuit.add_gate(reduce_b, GateType.BUF, [source_b[0]])
        else:
            circuit.add_gate(reduce_b, rng.choice([GateType.XOR, GateType.AND]), source_b)

        for bit, q_net in enumerate(bits):
            a_net = source_a[bit % len(source_a)]
            b_net = source_b[(bit + 1) % len(source_b)]
            stage = a_net
            for depth in range(gates_per_bit):
                out = f"{name}_w{word_index}b{bit}d{depth}"
                if depth == 0:
                    circuit.add_gate(out, rng.choice([GateType.XOR, GateType.AND, GateType.OR]),
                                     [stage, b_net])
                elif depth == 1:
                    circuit.add_gate(out, GateType.MUX, [control, stage, reduce_a])
                else:
                    circuit.add_gate(out, rng.choice(_BINARY_GATES), [stage, reduce_b])
                stage = out
            circuit.add_dff(q_net, stage, init=0)

    # Outputs: reductions over the last word(s).
    for index in range(num_outputs):
        word = words[index % len(words)]
        out_net = f"PO{index}"
        if len(word) == 1:
            circuit.add_gate(out_net, GateType.BUF, [word[0]])
        else:
            circuit.add_gate(out_net, rng.choice([GateType.XOR, GateType.OR, GateType.AND]), word)
        circuit.add_output(out_net)

    return GeneratedCircuit(circuit=circuit, register_groups=groups)
