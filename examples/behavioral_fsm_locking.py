#!/usr/bin/env python3
"""Cute-Lock-Beh on an RTL-level design (the paper's Fig. 1 scenario).

The paper introduces the behavioural variant on a ``1001`` Mealy sequence
detector: a counter plus four 4-bit keys steer the state transition graph,
and a wrong key at any cycle silently re-routes the machine to a wrongful
state.  This example:

1. builds the 1001 detector STG;
2. locks it behaviourally (k = 4 keys, ki = 4 bits);
3. simulates the locked machine at the STG level with correct and wrong key
   sequences;
4. synthesises the locked machine to a gate-level netlist and regenerates a
   Table-I-style waveform comparison;
5. runs the incremental sequential attack against the synthesised netlist.

Run with:  python examples/behavioral_fsm_locking.py
"""

import random

from repro import CuteLockBeh, int_attack
from repro.fsm import sequence_detector_fsm
from repro.sim.seqsim import SequentialSimulator, apply_key_to_sequence
from repro.sim.waveform import render_table


def main() -> None:
    # 1. The STG of Fig. 1 -----------------------------------------------------
    detector = sequence_detector_fsm("1001")
    print(f"original STG: {detector!r}")

    # 2. Behavioural locking ---------------------------------------------------
    transform = CuteLockBeh(num_keys=4, key_width=4, seed=11)
    locked_fsm = transform.lock(detector)
    print(f"key schedule (applied per counter value): {list(locked_fsm.schedule.values)}")

    # 3. STG-level simulation --------------------------------------------------
    rng = random.Random(0)
    stimulus = [rng.randint(0, 1) for _ in range(24)]
    golden = detector.simulate(stimulus)
    with_correct = locked_fsm.simulate(stimulus)
    with_wrong = locked_fsm.simulate(
        stimulus, [v ^ 0xF for v in locked_fsm.correct_key_sequence(len(stimulus))]
    )
    print(f"input bits          : {stimulus}")
    print(f"original outputs    : {golden}")
    print(f"correct-key outputs : {with_correct}")
    print(f"wrong-key outputs   : {with_wrong}")
    print(f"correct keys preserve behaviour: {golden == with_correct}")
    print(f"wrong keys corrupt behaviour   : {golden != with_wrong}")

    # 4. Synthesise and compare waveforms (Table-I style) ----------------------
    locked = locked_fsm.synthesize()
    vectors = [{"in_0": bit} for bit in stimulus]
    original_wave = SequentialSimulator(locked.original).run(vectors)
    locked_wave = SequentialSimulator(locked.circuit).run(
        apply_key_to_sequence(vectors, locked.key_inputs, locked.schedule.values)
    )
    rows = []
    for cycle, bit in enumerate(stimulus):
        rows.append({
            "Time (ns)": cycle * 20,
            "x": bit,
            "y": original_wave.rows[cycle].signals["out_0"],
            "yck": locked_wave.rows[cycle].signals["out_0"],
        })
    print()
    print(render_table(rows))

    # 5. Attack the synthesised netlist ----------------------------------------
    result = int_attack(locked, time_limit=30, max_depth=8)
    print()
    print(f"incremental unrolling attack: {result.outcome.value} "
          f"after {result.iterations} refinement rounds "
          f"({result.runtime_seconds:.2f}s)")
    print(f"defense broken: {result.broke_defense}")


if __name__ == "__main__":
    main()
