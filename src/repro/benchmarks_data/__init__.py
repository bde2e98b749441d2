"""Benchmark circuits and FSMs used by the evaluation.

The paper evaluates on three suites that are not redistributable here
(Synthezza FSM benchmarks, ISCAS'89, ITC'99).  This package provides
deterministic seeded stand-ins with matching names and approximately
matching sizes:

* :mod:`repro.benchmarks_data.synthezza` — Mealy FSMs (``bcomp``, ``bech``, …)
  grouped small/medium/large as in Table III;
* :mod:`repro.benchmarks_data.iscas89` — a hand-written ``s27`` plus seeded
  sequential circuits named after the ISCAS'89 designs of Table IV;
* :mod:`repro.benchmarks_data.itc99` — seeded word-structured sequential
  circuits named ``b01`` … ``b22`` (Table IV, Table V and Figure 4), with the
  register-to-word ground truth DANA is scored against.
"""

from repro.benchmarks_data.generator import (
    random_sequential_circuit,
    word_structured_circuit,
    GeneratedCircuit,
)
from repro.benchmarks_data.iscas89 import (
    s27_circuit,
    load_iscas89,
    iscas89_names,
    ISCAS89_PROFILES,
)
from repro.benchmarks_data.itc99 import load_itc99, itc99_names, ITC99_PROFILES
from repro.benchmarks_data.synthezza import (
    load_synthezza,
    synthezza_names,
    SYNTHEZZA_PROFILES,
)

__all__ = [
    "random_sequential_circuit",
    "word_structured_circuit",
    "GeneratedCircuit",
    "s27_circuit",
    "load_iscas89",
    "iscas89_names",
    "ISCAS89_PROFILES",
    "load_itc99",
    "itc99_names",
    "ITC99_PROFILES",
    "load_synthezza",
    "synthezza_names",
    "SYNTHEZZA_PROFILES",
]
