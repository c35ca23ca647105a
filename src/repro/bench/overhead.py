"""The shared harness of the overhead experiments (X6, X9, X11).

Each experiment names its configurations, a baseline and the one
ratio its CI gate bounds.  This module runs the configurations
interleaved across repeats, so ambient machine noise (CI neighbours,
thermal drift) hits all of them alike, reports the per-configuration
medians against the baseline, and turns ``--max-ratio`` into the exit
status the gate checks.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.bench.report import format_table

DEFAULT_REPEATS = 3


def medians(
    run_once: Callable[[str], float], configs: Iterable[str], repeats: int
) -> dict[str, float]:
    """Median of ``repeats`` runs per configuration, interleaved."""
    names = list(configs)
    samples: dict[str, list[float]] = {name: [] for name in names}
    for _ in range(repeats):
        for name in names:
            samples[name].append(run_once(name))
    return {name: statistics.median(samples[name]) for name in names}


@dataclass
class OverheadResult:
    """Per-configuration medians of one overhead experiment."""

    title: str
    unit: str
    baseline: str
    values: dict[str, float]

    def ratio(self, config: str) -> float:
        return self.values[config] / self.values[self.baseline]

    def report(self) -> str:
        rows = [
            (name, f"{value:.0f}", f"{self.ratio(name):.2f}x")
            for name, value in self.values.items()
        ]
        return format_table(
            ["config", self.unit, f"vs {self.baseline}"], rows, title=self.title
        )


def gate_parser(prog: str, description: str) -> argparse.ArgumentParser:
    """The CLI options every overhead experiment shares."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument(
        "--max-ratio", type=float, default=None,
        help="fail (exit 1) when the gated ratio exceeds this",
    )
    return parser


def gate(result: OverheadResult, config: str, max_ratio: float | None) -> int:
    """Print the report and ``config``'s ratio to the baseline; 1 when
    it exceeds ``max_ratio``."""
    print(result.report())
    ratio = result.ratio(config)
    print(f"{config}/{result.baseline} ratio: {ratio:.3f}")
    if max_ratio is not None and ratio > max_ratio:
        print(f"FAIL: exceeds --max-ratio {max_ratio}", file=sys.stderr)
        return 1
    return 0
