"""Shared configuration for the benchmark harness.

Most benchmark modules regenerate one table or figure of the paper with
pytest-benchmark.  They run the *quick* configurations of the experiment
drivers so the whole suite finishes in minutes on a laptop; pass
``--benchmark-full-eval`` to sweep the complete benchmark lists from the
paper (slow).

The seven acceptance bars are plain ``test_*_bar`` functions in
``bench_engine_throughput.py``, ``bench_solver_throughput.py``,
``bench_campaign_throughput.py`` and ``bench_campaign_store.py``; each
prints its measured value, operator and limit, and fails on a miss.
``REPRO_BENCH_SMOKE=1`` (the CI smoke job sets it) selects every bench's
smoke workload and relaxed bars.
"""

import os
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

# The acceptance bars measure the shipping configuration: the repro.check
# runtime sanitizers (op-list check, solver-state audit) stay OFF here,
# and their disarmed cost must be a single attribute test per decision /
# packed pass — bench bars are the guard for that.
os.environ.setdefault("REPRO_CHECK_KERNELS", "0")
os.environ.setdefault("REPRO_CHECK_SOLVER", "0")

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"


def pytest_addoption(parser):
    parser.addoption(
        "--benchmark-full-eval",
        action="store_true",
        default=False,
        help="run the full (paper-sized) benchmark sweeps instead of the quick subsets",
    )


@pytest.fixture(scope="session")
def full_eval(request):
    """True when the full paper-sized sweeps were requested."""
    return request.config.getoption("--benchmark-full-eval")


@pytest.fixture(scope="session")
def attack_time_limit(full_eval):
    """Per-attack wall-clock budget used by the attack benchmarks."""
    if full_eval:
        return 60.0
    return 5.0 if SMOKE else 10.0


@pytest.fixture(scope="session")
def perf_smoke():
    """True when the reduced smoke workloads were requested via env."""
    return SMOKE
