"""Measurement helpers shared by the ledger's workloads.

Costs and the service's latencies use the process CPU clock
(``time.process_time``), so time the host gives to other processes does
not count; the monotonic wall clock (``time.perf_counter``) only bounds
how long a run measures.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import resource
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

cpu = time.process_time
wall = time.perf_counter

#: CPU seconds ``reference_work`` takes on an uncontended host
#: (2-vCPU x86-64 VM, CPython 3.11).
REFERENCE_NOMINAL_S = 0.0175

#: A percentile is reported only when at least this many samples lie
#: beyond it.
MIN_TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def reference_work() -> int:
    """A fixed piece of pure-Python work: tuples, a heap, a dict.

    It shares the interpreter's instruction mix with the program but
    none of its code, so a change to the program never changes it.  It
    calls no Python function, so a sampler sees it as one frame.
    """
    heap: List[Tuple[int, int, Tuple[int, int]]] = []
    counts: Dict[int, int] = {}
    total = 0
    for i in range(20_000):
        node = (i, (i * 7919) % 1009)
        heapq.heappush(heap, (node[1], i, node))
        counts[node[1]] = counts.get(node[1], 0) + 1
        if len(heap) > 256:
            total += heapq.heappop(heap)[2][0]
    return total + len(counts)


def reference_cpu() -> float:
    start = cpu()
    reference_work()
    return cpu() - start


class Speed:
    """The host's current speed, from the reference loop.

    Other tenants of a shared host slow this process down by up to 2x,
    in bursts from seconds to minutes, and CPU time grows with them.
    The ledger runs the reference loop between measurements and reports
    every time in *reference seconds*: the raw time times
    ``REFERENCE_NOMINAL_S / reference time``, averaged over the
    reference runs on either side.  A change to the program moves the
    raw time and not the reference, so it moves the reported time.
    """

    def __init__(self) -> None:
        self._last = reference_cpu()
        #: Every reference time measured so far.
        self.samples = [self._last]

    def factor(self) -> float:
        """Run the reference again; the factor for the time since the
        previous call (below 1 while the host is slower than nominal)."""
        now = reference_cpu()
        factor = REFERENCE_NOMINAL_S / ((self._last + now) / 2)
        self._last = now
        self.samples.append(now)
        return factor

    def overall(self) -> float:
        """The factor over the whole run so far (its median reference)."""
        return REFERENCE_NOMINAL_S / median(self.samples)


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0 < q < 100), inclusive method."""
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return float(cuts[int(round(q * 10)) - 1])


def tail_supported(n: int, q: float) -> bool:
    """Whether *n* samples put enough of them beyond the *q*-th percentile."""
    return n * (100.0 - q) / 100.0 >= MIN_TAIL_SAMPLES


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark (one workload per process)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def raw_digest(raw: Dict[str, object]) -> str:
    """Digest of a simulated result, without the host-only ``kernel.*`` keys."""
    body = {k: v for k, v in raw.items() if not k.startswith("kernel.")}
    blob = json.dumps(body, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class Gates:
    """Correctness gates of one run: a failed gate fails the run."""

    def __init__(self) -> None:
        self.failures: List[str] = []
        self.checked = 0

    def check(self, ok: bool, what: str) -> None:
        self.checked += 1
        if not ok and len(self.failures) < 20:
            self.failures.append(what)

    @property
    def ok(self) -> bool:
        return not self.failures


def fmt_optional(value: Optional[float], spec: str = ".1f") -> str:
    return "n/a" if value is None else format(value, spec)
