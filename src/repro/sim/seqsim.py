"""Cycle-accurate sequential simulation.

The simulator advances a circuit one clock cycle at a time: combinational
logic is evaluated from the current state and inputs, outputs are sampled,
and every flip-flop captures its D value.  This is the reproduction's
equivalent of the Vivado behavioural simulation used in the paper's
validation section (the Table I/II waveforms), and the scalar reference for
the packed engine's lockstep lanes, which answer the sequential oracle that
the BMC/KC2/RANE-style attacks query.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.netlist.circuit import Circuit
from repro.sim.logicsim import CombinationalSimulator
from repro.sim.waveform import Waveform


class SequentialSimulator:
    """Stateful cycle-by-cycle simulator for a sequential circuit.

    Parameters
    ----------
    circuit:
        The circuit to simulate.
    initial_state:
        Optional override of flip-flop reset values (keyed by Q net).
    """

    def __init__(self, circuit: Circuit, initial_state: Optional[Mapping[str, int]] = None) -> None:
        self.circuit = circuit
        self._sim = CombinationalSimulator(circuit)
        self._initial_state = {q: ff.init for q, ff in circuit.dffs.items()}
        if initial_state:
            for q, value in initial_state.items():
                if q in self._initial_state:
                    self._initial_state[q] = int(value) & 1
        self.state: Dict[str, int] = dict(self._initial_state)
        self.cycle = 0

    def reset(self) -> None:
        """Return every flip-flop to its reset value and the cycle counter to 0."""
        self.state = dict(self._initial_state)
        self.cycle = 0

    def step(self, input_values: Mapping[str, int]) -> Dict[str, int]:
        """Advance one clock cycle.

        Returns the full net-value map *before* the clock edge (i.e. the
        combinational response to the current state and inputs); the internal
        state is then updated to the captured next state.
        """
        values = self._sim.evaluate(input_values, self.state)
        self.state = {q: values[ff.d] for q, ff in self.circuit.dffs.items()}
        self.cycle += 1
        return values

    def outputs(self, input_values: Mapping[str, int]) -> Dict[str, int]:
        """Advance one clock cycle and return only the primary outputs."""
        values = self.step(input_values)
        return {net: values[net] for net in self.circuit.outputs}

    def run(
        self,
        input_sequence: Sequence[Mapping[str, int]],
        *,
        observe: Optional[Sequence[str]] = None,
        reset: bool = True,
    ) -> Waveform:
        """Simulate a whole input sequence and capture a waveform.

        Parameters
        ----------
        input_sequence:
            One mapping of primary-input values per clock cycle.
        observe:
            Extra nets to record in addition to the primary outputs
            (e.g. flip-flop Q nets for state inspection).
        reset:
            Reset the simulator before running (default True).
        """
        if reset:
            self.reset()
        observe = list(observe or [])
        waveform = Waveform(name=self.circuit.name)
        for time, vector in enumerate(input_sequence):
            values = self.step(vector)
            signals = {net: values[net] for net in self.circuit.outputs}
            for net in observe:
                signals[net] = values[net]
            waveform.append(time, vector, signals)
        return waveform


def simulate_sequence(
    circuit: Circuit,
    input_sequence: Sequence[Mapping[str, int]],
    *,
    observe: Optional[Sequence[str]] = None,
    initial_state: Optional[Mapping[str, int]] = None,
) -> Waveform:
    """Convenience wrapper: simulate ``circuit`` over ``input_sequence``."""
    sim = SequentialSimulator(circuit, initial_state=initial_state)
    return sim.run(input_sequence, observe=observe)


def apply_key_to_sequence(
    vectors: Sequence[Mapping[str, int]],
    key_inputs: Sequence[str],
    key_schedule: Sequence[int],
    *,
    period: Optional[int] = None,
) -> List[Dict[str, int]]:
    """Overlay a time-varying key schedule onto an input sequence.

    ``key_schedule`` is a list of integer key values; the key applied at
    cycle ``t`` is ``key_schedule[t % len(key_schedule)]`` (or indexed within
    an explicit ``period``).  Key value bit 0 maps to the *last* key input in
    ``key_inputs`` (i.e. ``key_inputs`` is MSB first), matching
    :meth:`Waveform.pack`.
    """
    if not key_schedule:
        raise ValueError("key_schedule must not be empty")
    period = period or len(key_schedule)
    width = len(key_inputs)
    result: List[Dict[str, int]] = []
    for t, vector in enumerate(vectors):
        merged = dict(vector)
        key_value = key_schedule[(t % period) % len(key_schedule)]
        for bit_index, net in enumerate(key_inputs):
            shift = width - 1 - bit_index
            merged[net] = (key_value >> shift) & 1
        result.append(merged)
    return result
