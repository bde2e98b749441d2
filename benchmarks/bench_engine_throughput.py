"""Throughput of the packed bit-parallel engine versus the scalar simulator.

The ``test_perf_*`` functions are conventional pytest-benchmark
measurements on the embedded ISCAS'89 profile; the acceptance bar
(>= 10x scalar throughput on 64-vector batches) lives in the
:mod:`repro.perf` registry as ``engine.packed_speedup`` and is enforced
through the ``perf_run`` fixture.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_engine_throughput.py -q

Set ``REPRO_BENCH_SMOKE=1`` (the CI smoke job does) for a reduced-size run:
a smaller generated circuit, shorter timing windows and a relaxed bar.
"""

from repro.engine.packed import PackedSimulator, pack_vectors
from repro.perf.suites.engine import BATCH, prepared_circuit
from repro.sim.logicsim import CombinationalSimulator


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
        return sim.outputs_batch(vectors)

    result = benchmark(run)
    assert len(result) == BATCH
    benchmark.extra_info["vectors_per_round"] = BATCH


def test_perf_packed_word_level_64_lanes(benchmark):
    """The word-level API (no per-vector dict transpose) — the true kernel cost."""
    circuit, vectors = prepared_circuit()
    sim = PackedSimulator(circuit)
    words = pack_vectors(vectors, circuit.inputs)

    def run():
        return sim.output_words(words, width=BATCH)

    result = benchmark(run)
    assert len(result) == len(circuit.outputs)


def test_packed_engine_speedup_bar(perf_run):
    """Acceptance bar: >= 10x scalar throughput for 64-vector batches."""
    result = perf_run("engine.packed_speedup")
    assert result.metrics["speedup"] == (
        result.metrics["packed_vps"] / result.metrics["scalar_vps"]
    )
