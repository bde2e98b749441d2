"""Cute-Lock-Beh: behavioural (RTL/STG-level) multi-key time-based locking.

Section III-B of the paper.  The lock is defined on the State Transition
Graph: a counter and ``k`` key values are added, and for every clock cycle
the machine only takes its *correct* transition when the key presented
matches the value scheduled for the current counter time; otherwise a random
*wrongful* transition (Fig. 1(3)) is taken.  Outputs are produced by the
original Mealy output function — corruption manifests through the wrong
state trajectory from the next cycle on, exactly as in the paper's Table I
where ``ywk`` diverges from ``yck`` a few cycles into the simulation.

Two artefacts are produced:

* a behavioural model (:class:`LockedFSM`) that can be simulated directly at
  the STG level, and
* a synthesised netlist (:meth:`LockedFSM.synthesize`) that mirrors the
  paper's Vivado implementation: the original next-state logic, the wrongful
  next-state logic, a counter, per-time key comparators and a MUX per state
  bit choosing between the two — "MUXs instead of redesigning the STG from
  the ground up" (Section III-B).

The netlist and its unlocked oracle come from the one SOP synthesis path of
:mod:`repro.fsm.synthesis`: each correct next-state and output table is
minimised once, and its cover is emitted into both circuits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fsm.encoding import binary_encoding
from repro.fsm.stg import FSM
from repro.fsm.synthesis import emit_cover, emit_fsm, fsm_truth_tables, sop_cover
from repro.locking.base import KeySchedule, LockedCircuit, LockingError
from repro.locking.counter import insert_counter
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType

KEY_INPUT_PREFIX = "keyinput"


@dataclass
class LockedFSM:
    """A behaviourally locked FSM plus everything needed to realise it.

    Attributes
    ----------
    fsm:
        The original (unlocked) Mealy machine.
    wrongful:
        ``(state, input_value) -> wrong_next_state`` map followed whenever
        the applied key is wrong for the current counter time.
    schedule:
        The secret key schedule (k values of ki bits).
    """

    fsm: FSM
    wrongful: Dict[Tuple[str, int], str]
    schedule: KeySchedule
    scheme: str = "cute-lock-beh"
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def num_keys(self) -> int:
        return self.schedule.num_keys

    @property
    def key_width(self) -> int:
        return self.schedule.width

    # ------------------------------------------------------------------ #
    # behavioural simulation
    # ------------------------------------------------------------------ #
    def simulate(
        self,
        input_values: Sequence[int],
        key_values: Optional[Sequence[int]] = None,
        *,
        initial_state: Optional[str] = None,
    ) -> List[int]:
        """Simulate the locked behaviour at the STG level.

        ``key_values[t]`` is the key applied at cycle ``t``; ``None`` means
        the correct schedule is followed (golden run).  Returns the per-cycle
        output values.
        """
        state = initial_state or self.fsm.reset_state
        outputs: List[int] = []
        for cycle, value in enumerate(input_values):
            applied = (
                self.schedule.value_at(cycle)
                if key_values is None
                else key_values[cycle % len(key_values)]
            )
            expected = self.schedule.value_at(cycle)
            correct_next, out = self.fsm.next(state, value)
            outputs.append(out)
            if applied == expected:
                state = correct_next
            else:
                state = self.wrongful.get((state, value), correct_next)
        return outputs

    def correct_key_sequence(self, num_cycles: int) -> List[int]:
        """The key values that must be applied for ``num_cycles`` cycles."""
        return [self.schedule.value_at(t) for t in range(num_cycles)]

    # ------------------------------------------------------------------ #
    # synthesis to a netlist
    # ------------------------------------------------------------------ #
    def synthesize(self) -> LockedCircuit:
        """Synthesise the locked machine into a sequential netlist.

        The resulting :class:`LockedCircuit` has primary inputs
        ``in_0 … in_{n-1}``, key inputs ``keyinput0 … keyinput{ki-1}`` (MSB
        first), outputs ``out_0 …`` and flip-flops for the state bits plus
        the counter.  Each correct next-state and output table is minimised
        once: the locked netlist and its oracle (the original machine,
        :func:`~repro.fsm.synthesis.synthesize_fsm`'s netlist) are emitted
        from the same covers.
        """
        fsm = self.fsm
        encoding = binary_encoding(fsm)
        correct_tables, output_tables, wrongful_tables = fsm_truth_tables(
            fsm, encoding, self.wrongful
        )
        correct_covers = [sop_cover(table) for table in correct_tables]
        output_covers = [sop_cover(table) for table in output_tables]

        locked = Circuit(name=f"{fsm.name}_cutelock_beh")
        input_nets = [f"in_{i}" for i in range(fsm.num_inputs)]
        for net in input_nets:
            locked.add_input(net)
        key_inputs = [f"{KEY_INPUT_PREFIX}{i}" for i in range(self.key_width)]
        for net in key_inputs:
            locked.add_input(net, is_key=True)

        state_nets = [f"state_{i}" for i in range(encoding.width)]
        variable_nets = state_nets + input_nets
        reset_code = encoding.code_of(fsm.reset_state)

        # Counter synchronising the keys (period = number of keys).
        counter = insert_counter(locked, self.num_keys, prefix="clcnt")

        # Per counter time: key comparator; "key_ok" = OR_t (decode_t AND cmp_t).
        inverted: Dict[str, str] = {}

        def inv(net: str) -> str:
            if net not in inverted:
                n = locked.fresh_net("beh_kn")
                locked.add_gate(n, GateType.NOT, [net])
                inverted[net] = n
            return inverted[net]

        match_terms: List[str] = []
        comparator_nets: List[str] = []
        for time_index, expected in enumerate(self.schedule.values):
            terms = []
            for index, net in enumerate(key_inputs):
                bit = (expected >> (self.key_width - 1 - index)) & 1
                terms.append(net if bit else inv(net))
            cmp_net = locked.fresh_net(f"beh_cmp{time_index}")
            if len(terms) == 1:
                locked.add_gate(cmp_net, GateType.BUF, [terms[0]])
            else:
                locked.add_gate(cmp_net, GateType.AND, terms)
            comparator_nets.append(cmp_net)
            term_net = locked.fresh_net(f"beh_match{time_index}")
            locked.add_gate(
                term_net, GateType.AND, [cmp_net, counter.decode_nets[time_index]]
            )
            match_terms.append(term_net)
        key_ok_net = locked.fresh_net("beh_key_ok")
        if len(match_terms) == 1:
            locked.add_gate(key_ok_net, GateType.BUF, [match_terms[0]])
        else:
            locked.add_gate(key_ok_net, GateType.OR, match_terms)

        # Next-state logic: correct and wrongful cones, MUXed by key_ok.
        for bit, q_net in enumerate(state_nets):
            correct_net = emit_cover(locked, correct_covers[bit], variable_nets, f"ns{bit}")
            wrongful_net = emit_cover(
                locked, sop_cover(wrongful_tables[bit]), variable_nets, f"ws{bit}"
            )
            d_net = locked.fresh_net(f"beh_ns{bit}_mux")
            locked.add_gate(d_net, GateType.MUX, [key_ok_net, wrongful_net, correct_net])
            locked.add_dff(q_net, d_net, init=(reset_code >> bit) & 1)

        # Output logic (original, not key-dependent at the current cycle).
        for bit, cover in enumerate(output_covers):
            driver = emit_cover(locked, cover, variable_nets, f"o{bit}")
            out_net = f"out_{bit}"
            locked.add_gate(out_net, GateType.BUF, [driver])
            locked.add_output(out_net)

        # The unlocked reference netlist (oracle) with matching port names.
        original = emit_fsm(fsm, encoding, correct_covers, output_covers)

        return LockedCircuit(
            circuit=locked,
            original=original,
            schedule=self.schedule,
            key_inputs=key_inputs,
            scheme=self.scheme,
            counter_nets=list(counter.state_nets),
            locked_ffs=list(state_nets),
            metadata={
                "encoding_width": encoding.width,
                "comparators": comparator_nets,
                "key_ok_net": key_ok_net,
                "wrongful_transitions": len(self.wrongful),
            },
        )


class CuteLockBeh:
    """The Cute-Lock-Beh locking transform (operates on an :class:`FSM`).

    Parameters
    ----------
    num_keys:
        k — number of key values (and counter period).
    key_width:
        ki — bits per key value.
    seed:
        Seeds the key schedule and the wrongful-transition selection.
    """

    def __init__(self, num_keys: int = 4, key_width: int = 4, *, seed: int = 0) -> None:
        if num_keys < 1:
            raise LockingError("num_keys must be at least 1")
        if key_width < 1:
            raise LockingError("key_width must be at least 1")
        self.num_keys = num_keys
        self.key_width = key_width
        self.seed = seed

    def lock(
        self,
        fsm: FSM,
        *,
        schedule: Optional[KeySchedule] = None,
        wrongful: Optional[Dict[Tuple[str, int], str]] = None,
    ) -> LockedFSM:
        """Lock ``fsm`` at the STG level and return a :class:`LockedFSM`."""
        schedule = schedule or KeySchedule.random(self.num_keys, self.key_width, seed=self.seed)
        if schedule.width != self.key_width or schedule.num_keys != self.num_keys:
            raise LockingError("explicit schedule does not match transform parameters")
        if wrongful is None:
            wrongful = self._random_wrongful(fsm)
        else:
            for (state, value), wrong_next in wrongful.items():
                if wrong_next not in fsm.states:
                    raise LockingError(f"wrongful target {wrong_next!r} is not a state")
        return LockedFSM(
            fsm=fsm.copy(),
            wrongful=dict(wrongful),
            schedule=schedule,
            metadata={"num_keys": self.num_keys, "key_width": self.key_width, "seed": self.seed},
        )

    def _random_wrongful(self, fsm: FSM) -> Dict[Tuple[str, int], str]:
        """Random wrongful-transition map (Fig. 1(3)): a next state different
        from the correct one whenever the machine has more than one state."""
        rng = random.Random(self.seed)
        wrongful: Dict[Tuple[str, int], str] = {}
        for state in fsm.states:
            for value in fsm.input_space:
                correct_next, _ = fsm.next(state, value)
                candidates = [s for s in fsm.states if s != correct_next]
                wrongful[(state, value)] = rng.choice(candidates) if candidates else correct_next
        return wrongful
