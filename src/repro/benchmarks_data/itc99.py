"""ITC'99-style benchmark circuits (b01 … b22).

The ITC'99 suite drives three of the paper's experiments: the Cute-Lock-Str
logic-attack evaluation (Table IV), the removal-attack evaluation (Table V,
DANA + FALL) and the overhead comparison against DK-Lock (Figure 4).

The stand-ins are produced by :func:`word_structured_circuit`, which arranges
flip-flops into multi-bit words with word-level dataflow — the property DANA
needs a ground truth for.  Sizes grow monotonically from b01 to b22 (the real
b17–b19 are two orders of magnitude larger than b01; here the growth is
compressed so the pure-Python attack stack stays tractable).  Each profile
also carries the (k, ki) locking parameters used in Table IV and the paper's
three overhead test-run configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.benchmarks_data.generator import GeneratedCircuit, word_structured_circuit


@dataclass(frozen=True)
class Itc99Profile:
    """Size and locking parameters for one ITC'99-style benchmark."""

    name: str
    num_inputs: int
    num_outputs: int
    word_sizes: Tuple[int, ...]
    num_keys: int     # k from Table IV
    key_width: int    # ki from Table IV
    seed: int

    @property
    def num_dffs(self) -> int:
        return sum(self.word_sizes)


ITC99_PROFILES: Dict[str, Itc99Profile] = {
    profile.name: profile
    for profile in [
        Itc99Profile("b01", 2, 2, (2, 3), 2, 2, 9901),
        Itc99Profile("b02", 1, 1, (2, 2), 2, 2, 9902),
        Itc99Profile("b03", 4, 4, (4, 4, 4), 2, 4, 9903),
        Itc99Profile("b04", 6, 4, (4, 4, 4, 4), 4, 11, 9904),
        Itc99Profile("b05", 1, 6, (4, 4, 4), 2, 2, 9905),
        Itc99Profile("b06", 2, 3, (3, 3), 2, 1, 9906),
        Itc99Profile("b07", 1, 4, (4, 4, 4), 2, 2, 9907),
        Itc99Profile("b08", 9, 4, (4, 4, 4, 4), 4, 9, 9908),
        Itc99Profile("b09", 1, 1, (4, 4, 4, 4), 2, 1, 9909),
        Itc99Profile("b10", 11, 6, (4, 4, 4, 4), 4, 11, 9910),
        Itc99Profile("b11", 7, 6, (5, 5, 5, 5), 2, 7, 9911),
        Itc99Profile("b12", 5, 6, (5, 5, 5, 5, 5), 2, 5, 9912),
        Itc99Profile("b13", 10, 10, (5, 5, 5, 5, 5), 4, 10, 9913),
        Itc99Profile("b14", 32, 16, (6, 6, 6, 6, 6), 8, 32, 9914),
        Itc99Profile("b15", 36, 24, (6, 6, 6, 6, 6, 6), 16, 36, 9915),
        Itc99Profile("b17", 37, 30, (6, 6, 6, 6, 6, 6, 6), 16, 37, 9917),
        Itc99Profile("b18", 37, 23, (7, 7, 7, 7, 7, 7, 7), 16, 37, 9918),
        Itc99Profile("b19", 24, 30, (7, 7, 7, 7, 7, 7, 7, 7), 8, 24, 9919),
        Itc99Profile("b20", 32, 22, (6, 6, 6, 6, 6, 6, 6, 6), 8, 32, 9920),
        Itc99Profile("b21", 32, 22, (6, 6, 6, 6, 6, 6, 6, 6), 8, 32, 9921),
        Itc99Profile("b22", 32, 22, (7, 7, 7, 7, 7, 7, 7, 7), 8, 32, 9922),
    ]
}


def itc99_names() -> List[str]:
    """Benchmark names in the order used by the paper's tables."""
    return list(ITC99_PROFILES.keys())


def load_itc99(name: str) -> GeneratedCircuit:
    """Load the ITC'99-style benchmark called ``name`` (with DANA ground truth)."""
    try:
        profile = ITC99_PROFILES[name]
    except KeyError as exc:
        raise KeyError(f"unknown ITC'99 benchmark {name!r}") from exc
    return word_structured_circuit(
        name,
        num_inputs=profile.num_inputs,
        num_outputs=profile.num_outputs,
        word_sizes=profile.word_sizes,
        seed=profile.seed,
    )
