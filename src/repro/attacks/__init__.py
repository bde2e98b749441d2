"""Attack implementations.

Oracle-guided logic attacks (the NEOS / RANE stand-ins):

* :func:`~repro.attacks.sat_attack.sat_attack` — the classic combinational
  DIP-based SAT attack (scan-access model);
* :func:`~repro.attacks.appsat.appsat_attack` — approximate SAT attack;
* :func:`~repro.attacks.double_dip.double_dip_attack` — DoubleDIP;
* :func:`~repro.attacks.bmc_attack.bmc_attack` — sequential unrolling attack
  without scan access ("BBO" column of Tables III/IV);
* :func:`~repro.attacks.kc2.int_attack` / :func:`~repro.attacks.kc2.kc2_attack`
  — incremental unrolling attacks ("INT" / "KC2" columns);
* :func:`~repro.attacks.rane.rane_attack` — RANE-style formal unlocking-
  sequence search.

Structural / removal attacks:

* :func:`~repro.attacks.fall.fall_attack` — FALL functional analysis;
* :func:`~repro.attacks.dana.dana_attack` — DANA register clustering with
  NMI scoring.
"""

from repro.attacks.results import AttackOutcome, AttackResult
from repro.attacks.sat_attack import sat_attack
from repro.attacks.appsat import appsat_attack
from repro.attacks.double_dip import double_dip_attack
from repro.attacks.bmc_attack import bmc_attack
from repro.attacks.kc2 import int_attack, kc2_attack
from repro.attacks.rane import rane_attack
from repro.attacks.fall import fall_attack, FallReport
from repro.attacks.dana import dana_attack, DanaReport

__all__ = [
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
    "FallReport",
    "dana_attack",
    "DanaReport",
]
