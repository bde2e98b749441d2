#!/usr/bin/env python3
"""Overhead study: Cute-Lock-Str vs DK-Lock (the paper's Figure 4 scenario).

Costs a set of ITC'99-like benchmarks with the generic 45 nm standard-cell
model in the paper's three Cute-Lock-Str configurations and two DK-Lock
configurations, then prints the per-metric tables and the headline trends.

Run with:  python examples/overhead_study.py
"""

from repro.experiments.figure4 import run_figure4


def main() -> None:
    tables, raw = run_figure4(benchmarks=("b01", "b03", "b06", "b10", "b14"),
                              activity_vectors=32)
    for metric, table in tables.items():
        print(table.to_text())
        print()

    # Headline trends the paper draws from Figure 4.
    cells = tables["cell_count"].rows
    smallest, largest = cells[0], cells[-1]

    def overhead(row, column):
        return (row[column] - row["Original"]) / row["Original"] * 100.0

    print("Relative cell-count overhead of Test Run 2 (k=4, ki=3):")
    print(f"  smallest benchmark ({smallest['Circuit']}): {overhead(smallest, 'Test Run 2'):.0f}%")
    print(f"  largest benchmark  ({largest['Circuit']}): {overhead(largest, 'Test Run 2'):.0f}%")
    print()
    beats = sum(1 for row in cells if row["Test Run 1"] <= row["DK-Lock avg"])
    print(f"Benchmarks where Cute-Lock-Str Test Run 1 uses no more cells than the "
          f"DK-Lock average: {beats}/{len(cells)}")


if __name__ == "__main__":
    main()
