"""Gate-level netlist intermediate representation and its ``.bench`` format.

This package provides the circuit data model shared by every other subsystem
of the Cute-Lock reproduction: the locking transforms mutate :class:`Circuit`
objects, the simulator evaluates them, the SAT layer encodes them, and the
benchmark generators emit them.

Public API
----------
Circuit, Gate, GateType, DFF
    The in-memory netlist model (:mod:`repro.netlist.circuit`).
parse_bench, write_bench, load_bench, save_bench
    ISCAS-style ``.bench`` reader/writer (:mod:`repro.netlist.bench`).
validate_circuit
    Structural well-formedness checks (:mod:`repro.netlist.validate`).
"""

from repro.netlist.gates import GateType, Gate, DFF, GATE_EVAL, gate_eval
from repro.netlist.circuit import Circuit, CircuitError
from repro.netlist.bench import parse_bench, write_bench, load_bench, save_bench
from repro.netlist.validate import validate_circuit, ValidationIssue

__all__ = [
    "GateType",
    "Gate",
    "DFF",
    "GATE_EVAL",
    "gate_eval",
    "Circuit",
    "CircuitError",
    "parse_bench",
    "write_bench",
    "load_bench",
    "save_bench",
    "validate_circuit",
    "ValidationIssue",
]
