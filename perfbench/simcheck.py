"""Simulation-plane check: Table 1 and Figure 6 must not move.

The simulated runs behind the paper's Table 1 (whitebox stage costs)
and Figure 6 (blackbox one-way latency) are deterministic.  Their
outputs must equal the stored reference values exactly, so a change
to the framework's hot path that alters the cost model's results
fails the benchmark instead of passing as a speed-up.

Regenerate the reference (only when a change to the model is
intended): ``python3 perfbench/simcheck.py --write``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

REFERENCE = Path(__file__).with_name("sim_reference.json")


def outputs() -> dict[str, Any]:
    from repro.bench.fig6 import run_fig6
    from repro.bench.tab1 import run_tab1

    tab1 = run_tab1()
    fig6 = run_fig6()
    return {
        "tab1.stage_medians_us": dict(sorted(tab1.stage_medians_us.items())),
        "tab1.blackbox_overhead_us": tab1.blackbox_overhead_us,
        "fig6.payloads": list(fig6.payloads),
        "fig6.xdaq_us": list(fig6.xdaq_us),
        "fig6.gm_us": list(fig6.gm_us),
        "fig6.overhead_us": list(fig6.overhead_us),
    }


def check() -> list[str]:
    """Names of the outputs that differ from the reference."""
    reference = json.loads(REFERENCE.read_text())
    # A JSON round trip turns tuples into lists and keeps floats exact.
    actual = json.loads(json.dumps(outputs()))
    return [
        f"sim plane: {key} = {actual.get(key)!r}, reference {expected!r}"
        for key, expected in reference.items()
        if actual.get(key) != expected
    ]


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    if sys.argv[1:] == ["--write"]:
        REFERENCE.write_text(json.dumps(outputs(), indent=1) + "\n")
    else:
        problems = check()
        print("\n".join(problems) or "sim plane matches the reference")
        sys.exit(1 if problems else 0)
