"""Cute-Lock reproduction: behavioral and structural multi-key logic locking
using time-base keys (Lopez & Rezaei, DATE 2025).

The package is organised as a small EDA stack:

* :mod:`repro.netlist` — gate-level netlist IR and ``.bench`` I/O;
* :mod:`repro.sim` — combinational/sequential simulation and equivalence;
* :mod:`repro.sat` — CDCL SAT solver, Tseitin encoding, solve sessions;
* :mod:`repro.fsm` — STG modelling and FSM synthesis;
* :mod:`repro.locking` — Cute-Lock-Beh, Cute-Lock-Str and baseline schemes;
* :mod:`repro.attacks` — oracle-guided (SAT/BMC/KC2/RANE/AppSAT/DoubleDIP)
  and structural (FALL, DANA) attacks;
* :mod:`repro.synthesis` — standard-cell overhead model;
* :mod:`repro.benchmarks_data` — benchmark suites (Synthezza/ISCAS'89/ITC'99
  stand-ins);
* :mod:`repro.experiments` — drivers that regenerate every table and figure
  of the paper's evaluation.

Quickstart
----------
>>> from repro import CuteLockStr, sat_attack
>>> from repro.benchmarks_data import load_iscas89
>>> bench = load_iscas89("s27")
>>> locked = CuteLockStr(num_keys=4, key_width=2).lock(bench.circuit)
>>> result = sat_attack(locked)
>>> result.outcome.is_break
False
"""

from repro.netlist import Circuit, GateType, parse_bench, write_bench, load_bench, save_bench
from repro.fsm import FSM, synthesize_fsm
from repro.locking import CuteLockBeh, CuteLockStr, KeySchedule, LockedCircuit
from repro.attacks import (
    AttackOutcome,
    AttackResult,
    sat_attack,
    appsat_attack,
    double_dip_attack,
    bmc_attack,
    int_attack,
    kc2_attack,
    rane_attack,
    fall_attack,
    dana_attack,
)
from repro.sim import SequentialSimulator, sequential_equivalence_check
from repro.synthesis import compare_overhead, analyze_circuit

__version__ = "1.0.0"

__all__ = [
    "Circuit",
    "GateType",
    "parse_bench",
    "write_bench",
    "load_bench",
    "save_bench",
    "FSM",
    "synthesize_fsm",
    "CuteLockBeh",
    "CuteLockStr",
    "KeySchedule",
    "LockedCircuit",
    "AttackOutcome",
    "AttackResult",
    "sat_attack",
    "appsat_attack",
    "double_dip_attack",
    "bmc_attack",
    "int_attack",
    "kc2_attack",
    "rane_attack",
    "fall_attack",
    "dana_attack",
    "SequentialSimulator",
    "sequential_equivalence_check",
    "compare_overhead",
    "analyze_circuit",
    "__version__",
]
