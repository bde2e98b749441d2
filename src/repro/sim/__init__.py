"""Logic simulation: combinational evaluation, cycle-accurate sequential
simulation, waveform capture and equivalence checking.

This package is the reproduction's stand-in for the Xilinx Vivado simulation
used in the paper's validation section (Tables I and II).  Its scalar
simulators are the reference the packed engine (:mod:`repro.engine`) is
tested against; the equivalence checks and toggle counts that production
code calls run on the engine.
"""

from repro.sim.logicsim import CombinationalSimulator
from repro.sim.seqsim import SequentialSimulator, simulate_sequence
from repro.sim.waveform import Waveform, WaveformRow
from repro.sim.equivalence import (
    random_equivalence_check,
    sequential_equivalence_check,
    sat_equivalence_check,
    EquivalenceResult,
)

__all__ = [
    "CombinationalSimulator",
    "SequentialSimulator",
    "simulate_sequence",
    "Waveform",
    "WaveformRow",
    "random_equivalence_check",
    "sequential_equivalence_check",
    "sat_equivalence_check",
    "EquivalenceResult",
]
