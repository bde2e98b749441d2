"""Engine suite: packed bit-parallel simulation versus the scalar reference.

Workload construction is shared with ``benchmarks/bench_engine_throughput.py``
(the pytest wrapper imports :func:`prepared_circuit` / the registered bench
instead of duplicating it).
"""

from __future__ import annotations

import random
from typing import Dict

from repro.perf.harness import Harness
from repro.perf.registry import Bar, perf_benchmark

#: Lanes per packed pass in the speedup workload (one machine word).
BATCH = 64


def prepared_circuit(name: str = "s15850"):
    """An embedded ISCAS'89 combinational view plus a 64-vector batch."""
    from repro.benchmarks_data.iscas89 import load_iscas89

    circuit = load_iscas89(name).circuit.combinational_view()
    rng = random.Random(0)
    vectors = [
        {net: rng.randint(0, 1) for net in circuit.inputs} for _ in range(BATCH)
    ]
    return circuit, vectors


@perf_benchmark(
    "engine.packed_speedup",
    params=dict(num_gates=2000, min_seconds=0.2),
    smoke=dict(num_gates=800, min_seconds=0.05),
    bars=[Bar("speedup", ">=", 10.0, smoke_threshold=5.0)],
    primary="packed_batch",
)
def packed_speedup(harness: Harness, params: Dict[str, object]) -> Dict[str, float]:
    """Packed-engine vectors/second over the scalar simulator on a generated
    ISCAS'89-scale circuit (the >= 10x acceptance bar of PR 1).

    The embedded ISCAS'89 profiles are scaled-down stand-ins (~220 gates);
    the bar is measured on a generated circuit of genuine ISCAS'89 size,
    where gate evaluation (not the pack/unpack transpose) dominates, as it
    does on the real benchmarks.
    """
    from repro.benchmarks_data.generator import random_sequential_circuit
    from repro.engine.packed import PackedSimulator
    from repro.sim.logicsim import CombinationalSimulator

    circuit = random_sequential_circuit(
        "s15850_scale", num_inputs=30, num_outputs=30, num_dffs=50,
        num_gates=int(params["num_gates"]), seed=1,
    ).circuit.combinational_view()
    rng = random.Random(0)
    vectors = [
        {net: rng.randint(0, 1) for net in circuit.inputs} for _ in range(BATCH)
    ]
    scalar = CombinationalSimulator(circuit)
    packed = PackedSimulator(circuit)

    # Results must agree before timing means anything.
    if packed.outputs_batch(vectors) != [scalar.outputs(v) for v in vectors]:
        raise RuntimeError(
            "packed engine disagrees with the scalar reference on the "
            "speedup workload — fix correctness before measuring")

    min_seconds = float(params["min_seconds"])
    scalar_vps = harness.sustained_rate(
        lambda: [scalar.outputs(vector) for vector in vectors],
        units=BATCH, min_seconds=min_seconds,
    )
    packed_vps = harness.sustained_rate(
        lambda: packed.outputs_batch(vectors),
        units=BATCH, min_seconds=min_seconds,
    )
    harness.time_series(
        "packed_batch", lambda: packed.outputs_batch(vectors),
        repeats=5, warmup=1,
    )
    return {
        "scalar_vps": scalar_vps,
        "packed_vps": packed_vps,
        "speedup": packed_vps / scalar_vps,
    }
