"""Miter construction.

A *miter* joins two circuits that share primary inputs and compares their
outputs; the miter output is 1 iff the two circuits disagree on at least one
output for the applied input.  :func:`build_miter` builds the equivalence
miter between two circuits (shared functional inputs, each side keeps its
own key inputs) that the SAT-based equivalence check encodes.  The
oracle-guided attacks encode their two-key miters directly on the solver's
encoder (:class:`repro.attacks.sat_attack._DipMiter`,
:class:`repro.attacks.sequential_core._UnrolledMiter`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType


def _comparison_network(miter: Circuit, pairs: List[Tuple[str, str]], diff_net: str) -> None:
    """Add XOR-per-pair + OR-reduce logic driving ``diff_net``."""
    xor_nets: List[str] = []
    for net_a, net_b in pairs:
        xor_net = miter.fresh_net("miter_xor")
        miter.add_gate(xor_net, GateType.XOR, [net_a, net_b])
        xor_nets.append(xor_net)
    if not xor_nets:
        miter.add_gate(diff_net, GateType.CONST0, [])
    elif len(xor_nets) == 1:
        miter.add_gate(diff_net, GateType.BUF, [xor_nets[0]])
    else:
        miter.add_gate(diff_net, GateType.OR, xor_nets)
    miter.add_output(diff_net)


def build_miter(circuit_a: Circuit, circuit_b: Circuit,
                *, share_keys: bool = False) -> Tuple[Circuit, str]:
    """Build an equivalence miter between two combinational circuits.

    Functional (non-key) inputs with the same name are shared; each side's
    key inputs stay private unless ``share_keys`` is set.  Side A nets are
    prefixed ``A_`` and side B nets ``B_`` except for the shared inputs.
    Returns the miter circuit and the name of its difference output.
    """
    shared_inputs = set(circuit_a.functional_inputs) & set(circuit_b.functional_inputs)
    if share_keys:
        shared_inputs |= set(circuit_a.key_inputs) & set(circuit_b.key_inputs)

    def make_mapping(circuit: Circuit, prefix: str) -> Dict[str, str]:
        return {
            net: (net if net in shared_inputs else f"{prefix}{net}")
            for net in circuit.all_nets()
        }

    copy_a = circuit_a.renamed(make_mapping(circuit_a, "A_"), name="A")
    copy_b = circuit_b.renamed(make_mapping(circuit_b, "B_"), name="B")

    miter = Circuit(name=f"miter_{circuit_a.name}_{circuit_b.name}")
    for net in copy_a.inputs:
        miter.add_input(net, is_key=net in copy_a.key_inputs)
    for net in copy_b.inputs:
        if net not in miter.inputs:
            miter.add_input(net, is_key=net in copy_b.key_inputs)
    miter.gates.update(copy_a.gates)
    miter.gates.update(copy_b.gates)

    shared_outputs = [o for o in circuit_a.outputs if o in set(circuit_b.outputs)]
    pairs = []
    for out in shared_outputs:
        a_name = out if out in shared_inputs else f"A_{out}"
        b_name = out if out in shared_inputs else f"B_{out}"
        pairs.append((a_name, b_name))
    diff_net = "miter_diff"
    _comparison_network(miter, pairs, diff_net)
    return miter, diff_net
