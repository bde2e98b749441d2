"""Bounded-model-checking style sequential attack (the "BBO" column).

This is the baseline sequential oracle-guided attack (El Massad et al.,
ICCAD 2017, as packaged in NEOS's ``bbo`` mode): time-frame unrolling with a
static key, a non-incremental solver that is rebuilt for every
discriminating-input-sequence query, and simulation-based candidate
verification.

The rebuild is this mode's only extra cost over INT and KC2, and on the
Table III quick grid it no longer makes BBO the slowest mode: the first
observation fixes both key copies, the miter's congruence pass merges them,
and every later DIS search is refuted at level 0 in all three modes.  On
the Table III quick grid the three modes' attack runtimes stay within about
30% of each other with no consistent order (bcomp 0.05/0.07/0.05 s, acdl
0.21/0.17/0.18 s, exxm 1.0/1.0/1.3 s for BBO/INT/KC2 on 2 shared vCPUs), so
this reproduction does not show the paper's relative runtimes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.attacks.results import AttackResult
from repro.attacks.sequential_core import sequential_oracle_guided_attack
from repro.locking.base import LockedCircuit
from repro.netlist.circuit import Circuit


def bmc_attack(
    locked: Union[LockedCircuit, Circuit],
    oracle_circuit: Optional[Circuit] = None,
    *,
    initial_depth: int = 2,
    max_depth: int = 16,
    max_iterations: int = 128,
    time_limit: float = 180.0,
    conflict_limit: Optional[int] = 200_000,
    proof_dir: Optional[Union[str, Path]] = None,
) -> AttackResult:
    """Run the non-incremental unrolling attack (NEOS ``bbo`` equivalent).

    The solver is rebuilt after every observation and depth extension, so
    every DIS query starts from a fresh one.
    """
    return sequential_oracle_guided_attack(
        locked,
        oracle_circuit,
        attack_name="bmc",
        incremental=False,
        crunch_keys=False,
        initial_depth=initial_depth,
        max_depth=max_depth,
        max_iterations=max_iterations,
        time_limit=time_limit,
        conflict_limit=conflict_limit,
        proof_dir=proof_dir,
    )
