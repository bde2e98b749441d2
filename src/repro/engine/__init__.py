"""Bit-parallel packed simulation engine.

The engine compiles a :class:`~repro.netlist.circuit.Circuit` once into a
flat, levelized program over integer net slots (no string lookups in the
inner loop) and evaluates W input vectors per pass by packing them into
arbitrary-width Python ints: bit ``j`` of a net's word is the net's value
under vector ``j``.  One pass of bitwise word operations then replaces W
scalar evaluations, which turns the dominant cost of the oracle-guided
attacks, the random equivalence checks and the switching-activity model
from O(gates x vectors) Python dispatch into O(gates) word arithmetic.

Layers
------
* :mod:`repro.engine.compiler` — Circuit -> :class:`CompiledCircuit` (flat
  levelized op list, one record per gate, and the interpreter that runs it);
* :mod:`repro.engine.packed` — :class:`PackedSimulator` plus the
  pack/unpack transpose helpers between per-net words and per-vector dicts;
* :mod:`repro.engine.batch_oracle` — the scan-access and reset-and-run
  oracles the oracle-guided attacks query, with per-query accounting;
* :mod:`repro.engine.equivalence` — packed random equivalence checking and
  packed toggle/activity counting.

The engine runs every oracle query, equivalence check and activity count.
The scalar simulators and ``scalar_*`` loops in :mod:`repro.sim` are the
test reference (the property tests cross-check the engine against them bit
for bit); outside the tests and the benches that time one against the
other, only the Table I/II waveform capture steps the scalar
:class:`~repro.sim.seqsim.SequentialSimulator`.
"""

from repro.engine.compiler import CompiledCircuit, compile_circuit
from repro.engine.packed import (
    PackedSimulator,
    pack_bits,
    pack_vectors,
    unpack_bits,
    unpack_vectors,
)
from repro.engine.batch_oracle import (
    BatchedCombinationalOracle,
    BatchedSequentialOracle,
)
from repro.engine.equivalence import (
    packed_random_equivalence_check,
    packed_sequential_equivalence_check,
    packed_toggle_counts,
)

__all__ = [
    "CompiledCircuit",
    "compile_circuit",
    "PackedSimulator",
    "pack_bits",
    "unpack_bits",
    "pack_vectors",
    "unpack_vectors",
    "BatchedCombinationalOracle",
    "BatchedSequentialOracle",
    "packed_random_equivalence_check",
    "packed_sequential_equivalence_check",
    "packed_toggle_counts",
]
