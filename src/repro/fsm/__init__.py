"""Finite-state-machine (RTL/STG level) modelling and synthesis.

Cute-Lock-Beh operates on the behavioural representation of a sequential
circuit — its State Transition Graph (STG).  This package provides:

* :class:`FSM` — a Mealy machine / STG container (:mod:`repro.fsm.stg`);
* the dense binary state encoding (:mod:`repro.fsm.encoding`);
* FSM synthesis on one path: per-bit truth tables, each minimised into a
  two-level Quine–McCluskey cover and emitted as NOT/AND/OR gates
  (:mod:`repro.fsm.minimize`, :mod:`repro.fsm.synthesis`);
* FSM generators, including the paper's ``1001`` sequence-detector example
  and the random Synthezza-like machines (:mod:`repro.fsm.random_fsm`).
"""

from repro.fsm.stg import FSM, FSMError, Transition
from repro.fsm.encoding import StateEncoding, binary_encoding
from repro.fsm.minimize import quine_mccluskey, Implicant
from repro.fsm.synthesis import emit_cover, sop_cover, synthesize_fsm
from repro.fsm.random_fsm import random_fsm, sequence_detector_fsm

__all__ = [
    "FSM",
    "FSMError",
    "Transition",
    "StateEncoding",
    "binary_encoding",
    "quine_mccluskey",
    "Implicant",
    "emit_cover",
    "sop_cover",
    "synthesize_fsm",
    "random_fsm",
    "sequence_detector_fsm",
]
