#!/usr/bin/env python3
"""Regenerate the paper's entire evaluation (quick mode) in one run.

Runs every table/figure driver through :func:`repro.experiments.run_all` and
writes ``experiments_report.md`` next to this script.  Pass ``--full`` to
sweep every benchmark named in the paper (413 cells, about 75 s serially on
2 shared vCPUs) — and pair it with ``--workers``/``--store`` to run the
sweep as a parallel, resumable campaign: a rerun with the same store picks
up exactly where a crash or Ctrl-C left off.

Run with:  python examples/reproduce_paper.py [--full] [--workers N] [--store DIR]
"""

import argparse
from pathlib import Path

from repro.attacks.results import GRID_TIME_LIMIT
from repro.experiments import run_all


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="run the full paper-sized sweeps (slow)")
    parser.add_argument("--time-limit", type=float, default=GRID_TIME_LIMIT,
                        help="per-attack time budget in seconds")
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes (0 = serial in-process)")
    parser.add_argument("--store", default=None,
                        help="campaign store directory (enables resume)")
    args = parser.parse_args()

    output = Path(__file__).resolve().parent.parent / "experiments_report.md"
    run_all(quick=not args.full, attack_time_limit=args.time_limit,
            output_path=str(output), workers=args.workers,
            store_path=args.store)
    print(f"\nfull report written to {output}")


if __name__ == "__main__":
    main()
