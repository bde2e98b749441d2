"""Mealy finite-state machines (State Transition Graphs).

The paper's behavioural locking (Cute-Lock-Beh) is defined directly on the
STG: states, transitions labelled with an input value, and an output value
emitted per transition (Mealy semantics, as in the 1001 sequence-detector
example of Fig. 1).

Inputs and outputs are modelled as integers in ``[0, 2**width)`` rather than
per-bit dictionaries; the synthesis layer expands them into bit-level
circuits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple


class FSMError(Exception):
    """Raised for malformed FSM construction or queries."""


@dataclass(frozen=True)
class Transition:
    """One labelled edge of the STG."""

    source: str
    input_value: int
    next_state: str
    output_value: int


class FSM:
    """A Mealy machine over ``num_inputs``-bit inputs and ``num_outputs``-bit outputs.

    Parameters
    ----------
    name:
        Machine name (benchmark name).
    num_inputs / num_outputs:
        Bit widths of the input and output vectors.
    reset_state:
        Name of the initial state; it is added automatically.
    """

    def __init__(self, name: str, num_inputs: int, num_outputs: int, reset_state: str) -> None:
        if num_inputs < 0 or num_outputs < 0:
            raise FSMError("input/output widths must be non-negative")
        self.name = name
        self.num_inputs = num_inputs
        self.num_outputs = num_outputs
        self.reset_state = reset_state
        self.states: List[str] = []
        self._transitions: Dict[Tuple[str, int], Tuple[str, int]] = {}
        self.add_state(reset_state)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_state(self, state: str) -> str:
        """Add a state (idempotent); returns the state name."""
        if state not in self.states:
            self.states.append(state)
        return state

    def add_transition(self, source: str, input_value: int, next_state: str, output_value: int) -> None:
        """Add the transition ``source --input/output--> next_state``."""
        self._check_input(input_value)
        self._check_output(output_value)
        self.add_state(source)
        self.add_state(next_state)
        self._transitions[(source, input_value)] = (next_state, output_value)

    def _check_input(self, value: int) -> None:
        if not 0 <= value < (1 << self.num_inputs):
            raise FSMError(f"input value {value} out of range for {self.num_inputs} bits")

    def _check_output(self, value: int) -> None:
        if not 0 <= value < (1 << max(self.num_outputs, 1)):
            raise FSMError(f"output value {value} out of range for {self.num_outputs} bits")

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def input_space(self) -> range:
        return range(1 << self.num_inputs)

    def has_transition(self, state: str, input_value: int) -> bool:
        return (state, input_value) in self._transitions

    def next(self, state: str, input_value: int) -> Tuple[str, int]:
        """``(next_state, output_value)`` for the given state and input.

        Missing transitions default to a self-loop emitting output 0 so that
        partially specified machines still simulate (the synthesis layer
        treats those entries as don't-cares where possible).
        """
        self._check_input(input_value)
        if state not in self.states:
            raise FSMError(f"unknown state {state!r}")
        return self._transitions.get((state, input_value), (state, 0))

    def transitions(self) -> Iterator[Transition]:
        """Iterate over all explicitly defined transitions."""
        for (state, value), (nxt, out) in self._transitions.items():
            yield Transition(state, value, nxt, out)

    def is_complete(self) -> bool:
        """True if every (state, input) pair has an explicit transition."""
        return all(
            (state, value) in self._transitions
            for state in self.states
            for value in self.input_space
        )

    def completed(self) -> "FSM":
        """Return a copy where missing transitions are filled with self-loops."""
        clone = self.copy()
        for state in clone.states:
            for value in clone.input_space:
                if not clone.has_transition(state, value):
                    clone.add_transition(state, value, state, 0)
        return clone

    def reachable_states(self) -> Set[str]:
        """States reachable from the reset state."""
        seen: Set[str] = set()
        stack = [self.reset_state]
        while stack:
            state = stack.pop()
            if state in seen:
                continue
            seen.add(state)
            for value in self.input_space:
                nxt, _ = self.next(state, value)
                if nxt not in seen:
                    stack.append(nxt)
        return seen

    # ------------------------------------------------------------------ #
    # behaviour
    # ------------------------------------------------------------------ #
    def simulate(self, input_sequence: Sequence[int], *, initial_state: Optional[str] = None) -> List[int]:
        """Run the machine over an input sequence, returning per-cycle outputs."""
        state = initial_state or self.reset_state
        outputs: List[int] = []
        for value in input_sequence:
            state, out = self.next(state, value)
            outputs.append(out)
        return outputs

    def trace(self, input_sequence: Sequence[int], *, initial_state: Optional[str] = None) -> List[Tuple[str, int, str, int]]:
        """Like :meth:`simulate` but also returns the visited states."""
        state = initial_state or self.reset_state
        rows: List[Tuple[str, int, str, int]] = []
        for value in input_sequence:
            nxt, out = self.next(state, value)
            rows.append((state, value, nxt, out))
            state = nxt
        return rows

    # ------------------------------------------------------------------ #
    # manipulation
    # ------------------------------------------------------------------ #
    def copy(self, *, name: Optional[str] = None) -> "FSM":
        clone = FSM(name or self.name, self.num_inputs, self.num_outputs, self.reset_state)
        for state in self.states:
            clone.add_state(state)
        for (state, value), (nxt, out) in self._transitions.items():
            clone.add_transition(state, value, nxt, out)
        return clone

    def renamed_states(self, mapping: Dict[str, str]) -> "FSM":
        """Return a copy with state names passed through ``mapping``."""
        clone = FSM(self.name, self.num_inputs, self.num_outputs,
                    mapping.get(self.reset_state, self.reset_state))
        for state in self.states:
            clone.add_state(mapping.get(state, state))
        for (state, value), (nxt, out) in self._transitions.items():
            clone.add_transition(mapping.get(state, state), value, mapping.get(nxt, nxt), out)
        return clone

    def to_state_table(self) -> List[Dict[str, object]]:
        """The STT (state transition table) as a list of dict rows."""
        rows: List[Dict[str, object]] = []
        for state in self.states:
            for value in self.input_space:
                nxt, out = self.next(state, value)
                rows.append(
                    {"state": state, "input": value, "next_state": nxt, "output": out}
                )
        return rows

    def __repr__(self) -> str:
        return (
            f"FSM(name={self.name!r}, states={len(self.states)}, "
            f"inputs={self.num_inputs}b, outputs={self.num_outputs}b, "
            f"transitions={len(self._transitions)})"
        )
