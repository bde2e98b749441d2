"""Test-suite defaults for the static-check layer (see CHECKS.md).

The op-list check is always-on under pytest: every ``compile_circuit`` in
the suite proves its op list is levelized and single-assignment with the
right arity per op kind, and every packed pass asserts its words stay
inside the batch mask.  Benchmarks keep their own
``benchmarks/conftest.py`` and run with checks OFF so the acceptance bars
measure the shipping configuration.

An explicit ``REPRO_CHECK_KERNELS=0`` in the environment still wins (used
by the bench-guard CI job and by tests that need the unchecked path).
"""

import os

os.environ.setdefault("REPRO_CHECK_KERNELS", "1")
