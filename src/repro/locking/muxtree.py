"""The Cute-Lock-Str MUX tree (Fig. 3 of the paper).

For one locked flip-flop the tree has ``m = log2(k) + 1`` layers:

* **Layer 1 (key layer)** — one block per counter time ``t`` that checks the
  key pins against the key scheduled for ``t`` and selects either the FF's
  *correct* next-state net or a piece of *wrongful hardware* (the next-state
  net of a donor FF already present in the design).  The paper draws this as
  a ``2^ki``-to-1 MUX; we realise it as a ``ki``-bit comparator feeding a
  2:1 MUX plus (when several donors are supplied) a small selector over the
  donors driven by the low key bits.  The realised behaviour is identical —
  exactly one key value per time step selects the correct hardware — while
  keeping the cell count linear in ``ki`` (``benchmarks/bench_ablation_muxtree.py``
  measures this choice).
* **Layers 2 … m** — a binary selection tree steered by the counter decode
  signals (OR-ed per half, as described in Section III-C), which routes the
  block of the *current* counter time to the flip-flop's D pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.locking.base import KeySchedule, LockingError
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType


@dataclass(frozen=True)
class MuxTreeInfo:
    """Bookkeeping for one flip-flop's MUX tree.

    Attributes
    ----------
    root_net:
        The net that must drive the locked flip-flop's D pin.
    comparator_nets:
        Per counter time, the net that is true when the applied key equals
        the scheduled key value.
    layer1_nets:
        Per counter time, the output net of the key-layer block.
    num_layers:
        m = log2(k) + 1 (key layer plus selection layers).
    """

    root_net: str
    comparator_nets: List[str] = field(default_factory=list)
    layer1_nets: List[str] = field(default_factory=list)
    num_layers: int = 1


def _add_key_comparator(
    circuit: Circuit,
    key_inputs: Sequence[str],
    expected_value: int,
    prefix: str,
    inverted_cache: Dict[str, str],
) -> str:
    """Net that is 1 iff the key pins carry ``expected_value`` (MSB first)."""
    width = len(key_inputs)
    terms: List[str] = []
    for index, net in enumerate(key_inputs):
        bit = (expected_value >> (width - 1 - index)) & 1
        if bit:
            terms.append(net)
        else:
            if net not in inverted_cache:
                inv = circuit.fresh_net(f"{prefix}_kn")
                circuit.add_gate(inv, GateType.NOT, [net])
                inverted_cache[net] = inv
            terms.append(inverted_cache[net])
    if len(terms) == 1:
        out = circuit.fresh_net(f"{prefix}_cmp")
        circuit.add_gate(out, GateType.BUF, [terms[0]])
        return out
    out = circuit.fresh_net(f"{prefix}_cmp")
    circuit.add_gate(out, GateType.AND, terms)
    return out


def _select_wrongful(
    circuit: Circuit,
    wrongful_nets: Sequence[str],
    key_inputs: Sequence[str],
    prefix: str,
) -> str:
    """Pick among several wrongful-hardware nets using the low key bits.

    With a single donor this is just that donor's net.  With several donors
    the applied (wrong) key value steers which donor drives the FF — this is
    the ``2^ki - 1`` wrongful-configuration aspect of the paper's layer 1.
    """
    if not wrongful_nets:
        raise LockingError("at least one wrongful-hardware net is required")
    current = list(wrongful_nets)
    level = 0
    while len(current) > 1:
        select_net = key_inputs[len(key_inputs) - 1 - (level % len(key_inputs))]
        next_level: List[str] = []
        for index in range(0, len(current), 2):
            if index + 1 == len(current):
                next_level.append(current[index])
                continue
            out = circuit.fresh_net(f"{prefix}_wsel{level}")
            circuit.add_gate(out, GateType.MUX, [select_net, current[index], current[index + 1]])
            next_level.append(out)
        current = next_level
        level += 1
    return current[0]


def build_mux_tree(
    circuit: Circuit,
    *,
    correct_net: str,
    wrongful_nets: Sequence[str],
    key_inputs: Sequence[str],
    schedule: KeySchedule,
    decode_nets: Sequence[str],
    prefix: str = "cl",
) -> MuxTreeInfo:
    """Build the MUX tree for one flip-flop and return its root net.

    Parameters
    ----------
    correct_net:
        The flip-flop's original next-state net (the gray cloud of Fig. 3).
    wrongful_nets:
        Donor next-state nets used as wrongful hardware (red clouds).
    key_inputs:
        The ki key pins, MSB first.
    schedule:
        The key schedule; ``schedule.values[t]`` unlocks counter time ``t``.
    decode_nets:
        Counter decode nets (``decode_nets[t]`` true when counter == t);
        must have one entry per scheduled key.
    """
    if len(decode_nets) != schedule.num_keys:
        raise LockingError(
            f"need one counter decode per key: {len(decode_nets)} decodes "
            f"for {schedule.num_keys} keys"
        )
    if len(key_inputs) != schedule.width:
        raise LockingError("key input count must equal the schedule width")

    inverted_cache: Dict[str, str] = {}
    comparator_nets: List[str] = []
    layer1_nets: List[str] = []

    # Layer 1: per counter time, key check selecting correct vs wrongful hardware.
    for time_index, expected in enumerate(schedule.values):
        comparator = _add_key_comparator(
            circuit, key_inputs, expected, f"{prefix}_t{time_index}", inverted_cache
        )
        comparator_nets.append(comparator)
        wrongful = _select_wrongful(
            circuit, wrongful_nets, key_inputs, f"{prefix}_t{time_index}"
        )
        block = circuit.fresh_net(f"{prefix}_t{time_index}_l1")
        circuit.add_gate(block, GateType.MUX, [comparator, wrongful, correct_net])
        layer1_nets.append(block)

    # Layers 2..m: binary selection tree steered by OR-ed counter decodes.
    current = list(layer1_nets)
    current_decodes: List[List[str]] = [[decode_nets[t]] for t in range(len(layer1_nets))]
    layer = 1
    while len(current) > 1:
        next_nets: List[str] = []
        next_decodes: List[List[str]] = []
        for index in range(0, len(current), 2):
            if index + 1 == len(current):
                next_nets.append(current[index])
                next_decodes.append(current_decodes[index])
                continue
            right_decodes = current_decodes[index + 1]
            if len(right_decodes) == 1:
                select_net = right_decodes[0]
            else:
                select_net = circuit.fresh_net(f"{prefix}_l{layer}_or")
                circuit.add_gate(select_net, GateType.OR, right_decodes)
            out = circuit.fresh_net(f"{prefix}_l{layer}_mux")
            circuit.add_gate(out, GateType.MUX, [select_net, current[index], current[index + 1]])
            next_nets.append(out)
            next_decodes.append(current_decodes[index] + right_decodes)
        current = next_nets
        current_decodes = next_decodes
        layer += 1

    return MuxTreeInfo(
        root_net=current[0],
        comparator_nets=comparator_nets,
        layer1_nets=layer1_nets,
        num_layers=layer,
    )
