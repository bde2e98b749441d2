"""Throughput of the packed bit-parallel engine versus the scalar simulator.

The ``test_perf_*`` functions are conventional pytest-benchmark
measurements on the embedded ISCAS'89 profile.
``test_packed_engine_speedup_bar`` is the acceptance bar: >= 10x scalar
throughput on 64-vector batches.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_engine_throughput.py -q -s

Set ``REPRO_BENCH_SMOKE=1`` (the CI smoke job does) for a reduced-size run:
a smaller generated circuit, shorter timing windows and a relaxed bar.
"""

import random

from repro.benchmarks_data.generator import random_sequential_circuit
from repro.benchmarks_data.iscas89 import load_iscas89
from repro.engine.packed import PackedSimulator, pack_bits
from repro.perf import sustained_rate
from repro.sim.logicsim import CombinationalSimulator

#: Lanes per packed pass (one machine word).
BATCH = 64


def random_vectors(circuit):
    """A seeded batch of ``BATCH`` input vectors for ``circuit``."""
    rng = random.Random(0)
    return [
        {net: rng.randint(0, 1) for net in circuit.inputs} for _ in range(BATCH)
    ]


def lane_words(vectors, nets):
    """One lane word per net: bit ``j`` is the net's value in ``vectors[j]``."""
    return {net: pack_bits([vector[net] for vector in vectors]) for net in nets}


def packed_outputs(sim, vectors):
    """One packed pass over ``vectors``: input dicts in, output dicts out.

    The engine takes and returns lane words, so the two transposes between
    them and per-vector dicts happen here.
    """
    out = sim.output_words(lane_words(vectors, sim.circuit.inputs), width=len(vectors))
    return [
        {net: (word >> lane) & 1 for net, word in out.items()}
        for lane in range(len(vectors))
    ]


def prepared_circuit(name="s15850"):
    """An embedded ISCAS'89 combinational view plus a 64-vector batch."""
    circuit = load_iscas89(name).circuit.combinational_view()
    return circuit, random_vectors(circuit)


def test_perf_scalar_simulator_64_vectors(benchmark):
    circuit, vectors = prepared_circuit()
    sim = CombinationalSimulator(circuit)

    def run():
        return [sim.outputs(vector) for vector in vectors]

    result = benchmark(run)
    assert len(result) == BATCH
    benchmark.extra_info["vectors_per_round"] = BATCH


def test_perf_packed_simulator_64_vectors(benchmark):
    circuit, vectors = prepared_circuit()
    sim = PackedSimulator(circuit)

    def run():
        return packed_outputs(sim, vectors)

    result = benchmark(run)
    assert len(result) == BATCH
    benchmark.extra_info["vectors_per_round"] = BATCH


def test_perf_packed_word_level_64_lanes(benchmark):
    """One pass on prepared lane words (no per-vector dict transpose) — the
    true kernel cost."""
    circuit, vectors = prepared_circuit()
    sim = PackedSimulator(circuit)
    words = lane_words(vectors, circuit.inputs)

    def run():
        return sim.output_words(words, width=BATCH)

    result = benchmark(run)
    assert len(result) == len(circuit.outputs)


def test_packed_engine_speedup_bar(perf_smoke):
    """Acceptance bar: packed vectors/second >= 10x scalar (>= 5x at smoke size).

    The speedup is the ratio of best-of-3 sustained rates.  The embedded
    ISCAS'89 profiles are scaled-down stand-ins (~220 gates); the bar is
    measured on a generated circuit of genuine ISCAS'89 size, where gate
    evaluation (not the pack/unpack transpose) dominates, as it does on the
    real benchmarks.  The packed side is timed with both transposes, 64
    input dicts in and 64 output dicts out (:func:`packed_outputs`).
    """
    num_gates, min_seconds, limit = (800, 0.05, 5.0) if perf_smoke else (2000, 0.2, 10.0)
    circuit = random_sequential_circuit(
        "s15850_scale", num_inputs=30, num_outputs=30, num_dffs=50,
        num_gates=num_gates, seed=1,
    ).circuit.combinational_view()
    vectors = random_vectors(circuit)
    scalar = CombinationalSimulator(circuit)
    packed = PackedSimulator(circuit)

    # Results must agree before timing means anything.
    assert packed_outputs(packed, vectors) == [scalar.outputs(v) for v in vectors]

    scalar_vps = sustained_rate(
        lambda: [scalar.outputs(vector) for vector in vectors],
        units=BATCH, min_seconds=min_seconds,
    )
    packed_vps = sustained_rate(
        lambda: packed_outputs(packed, vectors),
        units=BATCH, min_seconds=min_seconds,
    )
    speedup = packed_vps / scalar_vps
    print(f"\nengine.packed_speedup: speedup {speedup:.2f} >= {limit:g}")
    assert speedup >= limit
