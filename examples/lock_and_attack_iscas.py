#!/usr/bin/env python3
"""Sweep the oracle-guided attack suite over locked ISCAS/ITC benchmarks.

A condensed version of the paper's Table IV evaluation that also includes the
single-key control experiment: every benchmark is locked twice — once with a
real time-varying schedule, once with the schedule collapsed to a single
repeated key — and both versions are attacked with the SAT, INT and RANE
attacks.  The time-varying lock must survive every attack; the collapsed lock
must fall.  The script exits 1 when either claim fails.

Run with:  python examples/lock_and_attack_iscas.py
"""

import sys

from repro import CuteLockStr, int_attack, rane_attack, sat_attack
from repro.benchmarks_data import ISCAS89_PROFILES, ITC99_PROFILES, load_iscas89, load_itc99
from repro.experiments.report import format_table

BENCHMARKS = ("s27", "s298", "b01", "b03")
ATTACKS = (
    ("SAT (scan access)", lambda locked: sat_attack(locked, time_limit=20)),
    ("INT (unrolling)", lambda locked: int_attack(locked, time_limit=20, max_depth=8)),
    ("RANE (formal)", lambda locked: rane_attack(locked, time_limit=20, depth=6)),
)


def load(name):
    if name in ISCAS89_PROFILES:
        profile = ISCAS89_PROFILES[name]
        return load_iscas89(name).circuit, profile.num_keys, min(profile.key_width, 4)
    profile = ITC99_PROFILES[name]
    return load_itc99(name).circuit, profile.num_keys, min(profile.key_width, 4)


def main() -> int:
    rows = []
    for name in BENCHMARKS:
        circuit, num_keys, key_width = load(name)
        transform = CuteLockStr(num_keys=num_keys, key_width=key_width,
                                num_locked_ffs=min(2, len(circuit.dffs)), seed=13)
        locked = transform.lock(circuit)
        collapsed = transform.lock(circuit, schedule=locked.schedule.collapsed())

        for attack_name, attack in ATTACKS:
            secure = attack(locked)
            broken = attack(collapsed)
            rows.append({
                "Circuit": name,
                "k": num_keys,
                "ki": key_width,
                "Attack": attack_name,
                "Cute-Lock outcome": secure.outcome.value,
                "Single-key outcome": broken.outcome.value,
            })
            print(f"{name:5s} {attack_name:18s} "
                  f"multi-key -> {secure.outcome.value:10s} "
                  f"single-key -> {broken.outcome.value}", flush=True)

    print()
    print(format_table(rows))
    survived = all(row["Cute-Lock outcome"] != "correct" for row in rows)
    fell = any(row["Single-key outcome"] == "correct" for row in rows)
    print()
    print(f"Cute-Lock survived every attack            : {survived}")
    print(f"single-key reduction broken by some attack : {fell}")
    return 0 if survived and fell else 1


if __name__ == "__main__":
    sys.exit(main())
