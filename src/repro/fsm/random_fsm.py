"""FSM generators.

Provides the paper's running example (the ``1001`` Mealy sequence detector of
Fig. 1 / Fig. 2), simple parametric machines (counters), and the seeded
random Mealy machines that stand in for the Synthezza FSM benchmark suite
(see :mod:`repro.benchmarks_data.synthezza`).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.fsm.stg import FSM


def sequence_detector_fsm(pattern: str = "1001", *, name: Optional[str] = None,
                          overlapping: bool = True) -> FSM:
    """Mealy sequence detector for a binary ``pattern`` (default ``1001``).

    The machine has one input bit and one output bit; the output is 1 on the
    cycle in which the final bit of the pattern is received.  With
    ``overlapping=True`` (default, matching the paper's example) matched
    prefixes are reused.
    """
    if not pattern or any(ch not in "01" for ch in pattern):
        raise ValueError("pattern must be a non-empty binary string")
    name = name or f"detect_{pattern}"
    states = [f"S{i}" for i in range(len(pattern))]
    fsm = FSM(name=name, num_inputs=1, num_outputs=1, reset_state=states[0])
    for state in states:
        fsm.add_state(state)

    def longest_prefix_suffix(progress: int, bit: int) -> int:
        """Longest *proper* prefix of the pattern that is a suffix of the
        consumed string ``pattern[:progress] + bit``."""
        candidate = pattern[:progress] + str(bit)
        for length in range(min(len(candidate), len(pattern) - 1), 0, -1):
            if candidate.endswith(pattern[:length]):
                return length
        return 0

    for index in range(len(pattern)):
        for bit in (0, 1):
            matched = str(bit) == pattern[index]
            if matched and index == len(pattern) - 1:
                # Full pattern seen: emit 1 and fall back to the longest
                # reusable prefix (or the reset state when non-overlapping).
                progress = longest_prefix_suffix(index, bit) if overlapping else 0
                fsm.add_transition(states[index], bit, states[progress], 1)
            elif matched:
                fsm.add_transition(states[index], bit, states[index + 1], 0)
            else:
                progress = longest_prefix_suffix(index, bit)
                fsm.add_transition(states[index], bit, states[progress], 0)
    return fsm


def counter_fsm(modulus: int, *, name: Optional[str] = None) -> FSM:
    """A modulo-``modulus`` counter with an enable input.

    Output is 1 on the state preceding wrap-around (terminal count).
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    name = name or f"counter{modulus}"
    states = [f"C{i}" for i in range(modulus)]
    fsm = FSM(name=name, num_inputs=1, num_outputs=1, reset_state=states[0])
    for index, state in enumerate(states):
        terminal = int(index == modulus - 1)
        fsm.add_transition(state, 0, state, terminal)
        fsm.add_transition(state, 1, states[(index + 1) % modulus], terminal)
    return fsm


def random_fsm(
    num_states: int,
    num_inputs: int,
    num_outputs: int,
    *,
    seed: int = 0,
    name: Optional[str] = None,
) -> FSM:
    """A seeded random, complete, connected Mealy machine.

    Connectivity is enforced by threading a random spanning path through all
    states before filling the remaining transitions uniformly at random, so
    every state is reachable from reset (important for the sequential attacks
    to have meaningful behaviour to learn).
    """
    if num_states < 1:
        raise ValueError("num_states must be positive")
    if num_inputs < 1:
        raise ValueError("num_inputs must be positive")
    rng = random.Random(seed)
    name = name or f"rand_s{num_states}_i{num_inputs}_o{num_outputs}"
    states = [f"S{i}" for i in range(num_states)]
    fsm = FSM(name=name, num_inputs=num_inputs, num_outputs=num_outputs, reset_state=states[0])
    for state in states:
        fsm.add_state(state)

    max_input = 1 << num_inputs
    max_output = 1 << max(num_outputs, 1)

    # Spanning path for reachability.
    order = states[1:]
    rng.shuffle(order)
    previous = states[0]
    for state in order:
        value = rng.randrange(max_input)
        fsm.add_transition(previous, value, state, rng.randrange(max_output))
        previous = state

    for state in states:
        for value in range(max_input):
            if not fsm.has_transition(state, value):
                fsm.add_transition(
                    state, value, rng.choice(states), rng.randrange(max_output)
                )
    return fsm
