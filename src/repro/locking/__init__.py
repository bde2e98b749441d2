"""Logic-locking transforms.

The Cute-Lock family (the paper's contribution) lives here:

* :class:`~repro.locking.cutelock_beh.CuteLockBeh` — behavioural (STG-level)
  multi-key time-based locking;
* :class:`~repro.locking.cutelock_str.CuteLockStr` — structural
  (netlist-level) multi-key time-based locking via per-flip-flop MUX trees.

State-of-the-art comparison schemes used by the evaluation are implemented in
:mod:`repro.locking.baselines` (RLL, SARLock, Anti-SAT, TTLock, HARPOON,
DK-Lock).
"""

from repro.locking.base import LockedCircuit, LockingError, KeySchedule
from repro.locking.counter import insert_counter, CounterInfo
from repro.locking.muxtree import build_mux_tree, MuxTreeInfo
from repro.locking.cutelock_str import CuteLockStr
from repro.locking.cutelock_beh import CuteLockBeh, LockedFSM

__all__ = [
    "LockedCircuit",
    "LockingError",
    "KeySchedule",
    "insert_counter",
    "CounterInfo",
    "build_mux_tree",
    "MuxTreeInfo",
    "CuteLockStr",
    "CuteLockBeh",
    "LockedFSM",
]
