"""DK-Lock (Maynard & Rezaei, ISQED 2023) — the overhead baseline of Fig. 4.

DK-Lock is a *dual-key* scheme: an **activation key** must be presented for a
number of cycles after reset to bring the design out of its activation phase,
after which a **functional key** (conventional XOR key gates) must stay
applied for correct operation.  The paper compares Cute-Lock-Str's overhead
against two DK-Lock setups: 10-bit keys, and keys sized to the circuit's
input count.

The reproduction implements both phases at the netlist level so the overhead
model can account for them: an activation comparator + saturating phase
counter + sticky activation flag, and XOR key gates on internal nets that are
only transparent when both the activation flag is set and the functional key
bits are correct.
"""

from __future__ import annotations

import random
from typing import List

from repro.locking.base import KeySchedule, LockedCircuit, LockingError
from repro.locking.counter import insert_counter
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType

KEY_INPUT_PREFIX = "keyinput"


def lock_dklock(
    circuit: Circuit,
    *,
    key_width: int = 10,
    activation_cycles: int = 2,
    seed: int = 0,
) -> LockedCircuit:
    """Apply DK-Lock with ``key_width``-bit activation and functional keys.

    The total number of key pins is ``2 * key_width`` (activation key pins
    followed by functional key pins); the secret is the concatenation of the
    two words.
    """
    if not circuit.dffs:
        raise LockingError("DK-Lock requires a sequential circuit")
    if key_width < 1 or activation_cycles < 1:
        raise LockingError("key_width and activation_cycles must be positive")
    rng = random.Random(seed)
    original = circuit.copy()
    locked = circuit.copy(name=f"{circuit.name}_dklock")

    activation_value = rng.randrange(1 << key_width)
    functional_value = rng.randrange(1 << key_width)

    key_inputs: List[str] = []
    for index in range(2 * key_width):
        net = f"{KEY_INPUT_PREFIX}{index}"
        locked.add_input(net, is_key=True)
        key_inputs.append(net)
    activation_keys = key_inputs[:key_width]
    functional_keys = key_inputs[key_width:]

    # Activation comparator.
    act_terms = []
    for index, net in enumerate(activation_keys):
        bit = (activation_value >> (key_width - 1 - index)) & 1
        if bit:
            act_terms.append(net)
        else:
            inv = locked.fresh_net("dk_ainv")
            locked.add_gate(inv, GateType.NOT, [net])
            act_terms.append(inv)
    act_match = locked.fresh_net("dk_amatch")
    if len(act_terms) == 1:
        locked.add_gate(act_match, GateType.BUF, [act_terms[0]])
    else:
        locked.add_gate(act_match, GateType.AND, act_terms)

    # Activation phase: saturating counter gated by the comparator, plus a
    # sticky "activated" flag; as in HARPOON's reproduction, presenting the
    # activation word keeps the design live immediately so the correct static
    # key is cycle-exact.
    counter = insert_counter(locked, activation_cycles + 1, prefix="dk_cnt", saturate=True)
    activated_q = "dk_activated"
    done_net = counter.decode_nets[activation_cycles]
    activated_d = locked.fresh_net("dk_act_d")
    locked.add_gate(activated_d, GateType.OR, [activated_q, done_net])
    locked.add_dff(activated_q, activated_d, init=0)

    active = locked.fresh_net("dk_active")
    locked.add_gate(active, GateType.OR, [act_match, activated_q])
    for q_net in counter.state_nets:
        ff = locked.dffs[q_net]
        gated = locked.fresh_net("dk_gate")
        locked.add_gate(gated, GateType.MUX, [active, q_net, ff.d])
        locked.replace_dff_input(q_net, gated)

    # Functional phase: XOR/XNOR key gates on random internal nets, with the
    # keyed value additionally forced wrong while the design is not active.
    candidates = [g for g in locked.gates if not g.startswith(("dk_", "hp_"))]
    rng.shuffle(candidates)
    targets = candidates[: min(key_width, len(candidates))]
    for index, target in enumerate(targets):
        key_net = functional_keys[index]
        key_bit = (functional_value >> (key_width - 1 - index)) & 1
        gate = locked.remove_gate(target)
        pre_net = f"{target}__pre"
        locked.gates[pre_net] = gate.remapped({target: pre_net})
        keyed = locked.fresh_net("dk_keyed")
        locked.add_gate(keyed, GateType.XNOR if key_bit else GateType.XOR, [pre_net, key_net])
        # While not active the net is inverted, corrupting the output phase.
        inverted = locked.fresh_net("dk_inv")
        locked.add_gate(inverted, GateType.NOT, [keyed])
        locked.add_gate(target, GateType.MUX, [active, inverted, keyed])

    key_value = (activation_value << key_width) | functional_value
    schedule = KeySchedule(width=2 * key_width, values=(key_value,))
    return LockedCircuit(
        circuit=locked,
        original=original,
        schedule=schedule,
        key_inputs=key_inputs,
        scheme="dk-lock",
        counter_nets=list(counter.state_nets) + [activated_q],
        locked_ffs=[],
        metadata={
            "activation_cycles": activation_cycles,
            "functional_targets": targets,
        },
    )
