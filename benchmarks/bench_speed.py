"""Machine-speed probe: a fixed pure-Python kernel timed between operations.

On a shared cloud VM (2 vCPUs) the CPU speed changes by up to 2x within tens
of seconds, because other tenants share the cores, so raw wall times of one
run differ from the next by more than any useful regression bound. The probe
times a fixed kernel (dict and tuple work on small ints, as in the solver's
hot path) every `GAP_S` seconds between operations. Each operation's time is
then scaled by REF_S / (the kernel's time just before and just after that
operation): the time the operation would take on a machine where the kernel
takes `REF_S`. The kernel uses no program code, so a program change moves the
scaled times as it moves the raw ones.
"""
from __future__ import annotations

import bisect
import gc
import statistics
import time

#: reported times are scaled to a machine on which the kernel takes this long
REF_S = 0.010
#: the kernel is timed again only after this much time has passed
GAP_S = 0.25
KERNEL_N = 20_000


def kernel() -> int:
    # With the collector off, the kernel's time does not depend on how many
    # objects the program holds.
    gc.disable()
    try:
        d: dict = {}
        for i in range(KERNEL_N):
            k = (i % 997, i * 7 % 31)
            d[k] = (d.get(k, 0) + i) % 1_000_003
        return len(d)
    finally:
        gc.enable()


class SpeedProbe:
    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and self.at and now - self.at[-1] < GAP_S:
            return
        kernel()
        self.at.append(now)
        self.took.append(time.perf_counter() - now)

    def factor(self, t: float) -> float:
        """REF_S over the mean kernel time of the samples just before and
        just after time t (an op starting at t lies between the two)."""
        i = bisect.bisect_left(self.at, t)
        lo = max(0, min(i - 1, len(self.at) - 2))
        return REF_S / statistics.fmean(self.took[lo:lo + 2])

    def median_ms(self) -> float:
        return statistics.median(self.took) * 1e3
