"""Baseline locking schemes from the literature.

These are the comparison points the paper positions Cute-Lock against:

* :func:`~repro.locking.baselines.rll.lock_rll` — random XOR/XNOR key-gate
  insertion (EPIC-style combinational locking);
* :func:`~repro.locking.baselines.sarlock.lock_sarlock` — SARLock;
* :func:`~repro.locking.baselines.antisat.lock_antisat` — Anti-SAT;
* :func:`~repro.locking.baselines.ttlock.lock_ttlock` — TTLock (the scheme
  FALL was demonstrated against);
* :func:`~repro.locking.baselines.harpoon.lock_harpoon` — HARPOON-style
  sequential obfuscation-mode locking;
* :func:`~repro.locking.baselines.dklock.lock_dklock` — DK-Lock, the
  multi-key baseline of the paper's overhead study (Figure 4).
"""

from repro.locking.baselines.rll import lock_rll
from repro.locking.baselines.sarlock import lock_sarlock
from repro.locking.baselines.antisat import lock_antisat
from repro.locking.baselines.ttlock import lock_ttlock
from repro.locking.baselines.harpoon import lock_harpoon
from repro.locking.baselines.dklock import lock_dklock

__all__ = [
    "lock_rll",
    "lock_sarlock",
    "lock_antisat",
    "lock_ttlock",
    "lock_harpoon",
    "lock_dklock",
]
