"""Host-speed calibration for the end-to-end metrics.

The benchmark runs on hosts whose CPUs it shares: for tens of seconds
at a time another tenant can make every instruction slower, and the
same code then reads 40-60 % slower than it did a minute before.
Process CPU time moves as much as wall time, so it does not help.

The timed run therefore alternates short slices of the workload with
one pass of :func:`kernel`, a fixed piece of plain Python that imports
nothing from the program: a change to the program cannot move it, but
a slower host slows it as it slows the workload.  Each block of the
run is scaled by ``REF_NS / (the kernel's median time in that block)``,
which turns the block's times into times at the reference speed: the
speed at which the kernel takes :data:`REF_NS`, about its time on an
idle 2-vCPU Xeon VM, the host the baseline was measured on.
"""

from __future__ import annotations

import time
from statistics import median

#: the kernel's time at the reference speed
REF_NS = 45_000
#: loop trips of one kernel pass
TRIPS = 700


def kernel() -> int:
    """Run the fixed calibration work once; its wall time in ns.

    A plain integer loop.  Kernels that call methods, allocate, pack
    structs or fill dicts were tried against the workloads too: none
    tracked their slow-downs better, and the struct and dict kernel
    slowed more than they did, while this loop's time moved about one
    for one with their latency.
    """
    clock = time.perf_counter_ns
    t0 = clock()
    acc = 0
    for i in range(TRIPS):
        acc += i * i % 7
    return clock() - t0


def factor(samples: list[int]) -> float:
    """Scale for times measured alongside ``samples`` kernel timings."""
    return REF_NS / median(samples)
