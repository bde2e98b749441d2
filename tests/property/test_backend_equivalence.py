"""Property tests: one packed pass is bit-exact at every width.

The packed engine evaluates a batch of any width as one pass, one word per
net.  It must equal the scalar :mod:`repro.sim` reference, bit for bit, on
random circuits covering every gate type, random DFF init values, and
widths straddling every 64-bit word boundary (1, 63, 64, 65, 128, 129,
non-multiples of 64 up to 391, and 4096).  The suite runs with
``REPRO_CHECK_KERNELS=1`` armed (see ``tests/conftest.py``), so every op
list is structurally checked at compile time and every pass is
range-checked.
"""

import random

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.engine.packed import PackedSimulator
from repro.sim.logicsim import CombinationalSimulator
from test_engine_properties import _random_circuit_all_gates

SLOW = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

#: Lane counts chosen to straddle 64-bit word boundaries.
WIDTHS = [1, 63, 64, 65, 128, 129, 200, 320, 391, 4096]


@SLOW
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(WIDTHS))
@example(seed=4096, width=4096)  # always run the widest pass at least once
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
    sim = PackedSimulator(circuit)
    assert sim.outputs_batch(vectors, states) == reference_outputs
    assert sim.next_state_batch(vectors, states) == reference_next
    # Default state (ff.init) path.
    assert sim.outputs_batch(vectors) == reference_default
