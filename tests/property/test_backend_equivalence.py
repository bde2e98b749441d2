"""Property tests: tiled packed passes are bit-exact at every width.

The packed engine evaluates a batch wider than ``TILE_WIDTH`` lanes tile
by tile and stitches the words back together; ``tile_width=None`` runs the
same batch as one arbitrarily wide word.  Both must equal the scalar
:mod:`repro.sim` reference, bit for bit, on random circuits covering every
gate type, random DFF init values, and widths straddling every word and
tile boundary (1, 63, 64, 65, 128, 129, and non-multiples of 64 past the
tile width).  The suite runs with ``REPRO_CHECK_KERNELS=1`` armed (see
``tests/conftest.py``), so the kernel is structurally verified before exec
and every pass is range-checked.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.packed import PackedSimulator
from repro.sim.logicsim import CombinationalSimulator
from test_engine_properties import _random_circuit_all_gates

SLOW = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

#: Lane counts chosen to straddle word and tile boundaries; the >128 ones
#: run as several tiles with a partial tail.
WIDTHS = [1, 63, 64, 65, 128, 129, 200, 320, 391]


def _simulators(circuit):
    return [
        PackedSimulator(circuit),
        PackedSimulator(circuit, tile_width=None),
    ]


@SLOW
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(WIDTHS))
def test_backends_match_scalar_combinational(seed, width):
    rng = random.Random(seed)
    circuit = _random_circuit_all_gates(seed, num_dffs=rng.randint(0, 3))
    scalar = CombinationalSimulator(circuit)
    vectors = [
        {net: rng.randint(0, 1) for net in circuit.inputs} for _ in range(width)
    ]
    states = [
        {q: rng.randint(0, 1) for q in circuit.dffs} for _ in range(width)
    ]
    reference_outputs = [scalar.outputs(v, s) for v, s in zip(vectors, states)]
    reference_next = [scalar.next_state(v, s) for v, s in zip(vectors, states)]
    reference_default = [scalar.outputs(v) for v in vectors]
    for sim in _simulators(circuit):
        assert sim.outputs_batch(vectors, states) == reference_outputs
        assert sim.next_state_batch(vectors, states) == reference_next
        # Default state (ff.init) path.
        assert sim.outputs_batch(vectors) == reference_default
