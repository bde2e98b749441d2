"""ISCAS'89-style benchmark circuits.

``s27`` is provided as a hand-written netlist (it is small enough to embed
and is the circuit used for the paper's Cute-Lock-Str validation, Table II).
The remaining ISCAS'89 names used in Table IV are generated by the seeded
random sequential-circuit generator with per-benchmark size profiles.  The
profiles keep the *relative* ordering of the real suite (s298 is small,
s13207/s15850/s35932 are the big ones) but are scaled down so that the pure
Python SAT attacks stay tractable.

Each profile also records the ``(k, ki)`` locking parameters the paper's
Table IV uses for that benchmark, so the experiment drivers can lock each
circuit exactly as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.benchmarks_data.generator import GeneratedCircuit, random_sequential_circuit
from repro.netlist.bench import parse_bench
from repro.netlist.circuit import Circuit

#: The classic s27 netlist (4 inputs, 1 output, 3 flip-flops, 10 gates).
S27_BENCH = """
# s27
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
"""


@dataclass(frozen=True)
class BenchmarkProfile:
    """Size and locking parameters for one named benchmark."""

    name: str
    num_inputs: int
    num_outputs: int
    num_dffs: int
    num_gates: int
    num_keys: int      # k from the paper's table
    key_width: int     # ki from the paper's table
    seed: int


#: Table IV benchmark list (sizes scaled for a pure-Python SAT back-end).
ISCAS89_PROFILES: Dict[str, BenchmarkProfile] = {
    profile.name: profile
    for profile in [
        BenchmarkProfile("s27", 4, 1, 3, 10, 4, 2, 27),
        BenchmarkProfile("s298", 3, 6, 14, 60, 2, 3, 298),
        BenchmarkProfile("s349", 9, 11, 15, 70, 4, 9, 349),
        BenchmarkProfile("s510", 19, 7, 6, 80, 8, 19, 510),
        BenchmarkProfile("s641", 35, 24, 19, 90, 8, 35, 641),
        BenchmarkProfile("s713", 35, 23, 19, 95, 8, 35, 713),
        BenchmarkProfile("s832", 18, 19, 5, 100, 8, 18, 832),
        BenchmarkProfile("s953", 16, 23, 29, 110, 4, 15, 953),
        BenchmarkProfile("s1196", 14, 14, 18, 120, 4, 14, 1196),
        BenchmarkProfile("s1488", 8, 19, 6, 130, 2, 8, 1488),
        BenchmarkProfile("s5378", 35, 49, 40, 160, 8, 35, 5378),
        BenchmarkProfile("s9234", 19, 22, 45, 180, 8, 19, 9234),
        BenchmarkProfile("s13207", 31, 32, 50, 200, 8, 31, 13207),
        BenchmarkProfile("s15850", 14, 30, 55, 220, 4, 14, 15850),
        BenchmarkProfile("s35932", 35, 32, 60, 240, 8, 35, 35932),
    ]
}


def s27_circuit() -> Circuit:
    """The embedded s27 netlist."""
    return parse_bench(S27_BENCH, name="s27")


def iscas89_names() -> List[str]:
    """Benchmark names in the order used by the paper's Table IV."""
    return list(ISCAS89_PROFILES.keys())


def load_iscas89(name: str) -> GeneratedCircuit:
    """Load (or generate) the ISCAS'89-style benchmark called ``name``."""
    try:
        profile = ISCAS89_PROFILES[name]
    except KeyError as exc:
        raise KeyError(f"unknown ISCAS'89 benchmark {name!r}") from exc
    if name == "s27":
        circuit = s27_circuit()
        groups = {q: "s27_state" for q in circuit.dffs}
        return GeneratedCircuit(circuit=circuit, register_groups=groups)
    return random_sequential_circuit(
        name,
        num_inputs=profile.num_inputs,
        num_outputs=profile.num_outputs,
        num_dffs=profile.num_dffs,
        num_gates=profile.num_gates,
        seed=profile.seed,
    )
