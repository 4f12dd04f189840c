"""The service workload: one ``CacheNode`` on the real asyncio loop.

The node runs on ``WallClock`` over an in-memory ``Origin``; the origin
publishes an IR report every ``BROADCAST_INTERVAL`` and a background
task applies updates beside the gets.  Gets follow a Zipf popularity
over a database 2.5 times larger than L1, so ``l1`` and ``l2`` answers
both occur, and stale-while-revalidate is on, so ``l1-swr`` answers
occur too.

A run has four parts: repeated set-up (``setup_s``), warm-up, one-second
open-loop windows at ``FIXED_RATE`` (get latency: p50, p99 and the split
by answer source, over the pooled samples of all windows) and a closed
loop, gets back to back (``run_us_per_query``: CPU per get).  On request
it adds a fifth: a search for the highest rate whose p99 stays within
``LATENCY_LIMIT_US`` with no growing backlog (``max_gets_per_s``).  The
search offers fractions of the closed loop's capacity, highest first,
stops at the first that meets the limit and interpolates the crossing
from the probe above it; each probe is a few windows judged by their
median p99, so one stall (a collection, a report) moves one window, not
the verdict.

The open loop has one dispatcher: get *i* is due at ``start + i / rate``
and is sent when due, whatever happened before, and its latency runs
from when it was due to when its answer returned, so a stall shows in
the latency of every get it delays; the dispatcher's lateness (send time
minus due time) is printed beside.  The schedule runs on the process's
CPU clock, which the dispatcher keeps running while it waits: it yields
to the loop until the next get is ``BUSY_WAIT_S`` away and busy-waits
the rest.  Time the host gives to other tenants so delays no get.

Times and rates are in reference seconds (``common.Speed``).  CPU costs
(each set-up, each closed-loop window) are scaled by the reference runs
on either side of them.  Latencies are scaled by the run's overall
factor, the median of all its reference runs: a window of latencies has
no reference run inside it, and one short reference run is too noisy to
scale a tail by.  Offered rates are the nominal rate times that factor,
so a slowed host is offered proportionally less load.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import math
import random
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from common import Gates, Speed, cpu, median, percentile, tail_supported, wall
from repro.service import (
    CacheNode,
    InMemoryBackend,
    InMemoryBroker,
    NodeConfig,
    Origin,
    ServiceError,
    ServiceParams,
    SWRConfig,
    WallClock,
)

SCHEME = "aaw"
DB_SIZE = 2_000
L1_CAPACITY = 800
ZIPF_ALPHA = 0.9
#: IR period and updater tick, seconds of wall time.
BROADCAST_INTERVAL = 1.0
WINDOW_INTERVALS = 2
UPDATE_TICK = 0.02
UPDATES_PER_TICK = 2
SWR = SWRConfig(freshness_seconds=0.5, expiry_seconds=10.0)

#: Offered rate (gets per CPU-clock second) of the fixed windows.
FIXED_RATE = 10_000.0
FIXED_WINDOW_S = 1.0
#: The p99 limit ``max_gets_per_s`` is judged by (microseconds).
LATENCY_LIMIT_US = 1_000.0
#: The dispatcher busy-waits, rather than yield to the loop, this close
#: to a due get.
BUSY_WAIT_S = 20e-6
SETUP_REPEATS = 9
WARMUP_SECONDS = 0.25
WARMUP_LIMIT_S = 4 * BROADCAST_INTERVAL
#: A rate-search probe: this many windows of this length at one rate.
PROBE_WINDOWS = 5
PROBE_WINDOW_S = 0.3
#: Offered rates of the search, as fractions of the closed-loop capacity.
CAPACITY_FRACTIONS = (0.95, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2)
CLOSED_WINDOW = 4_096
#: A probe whose dispatcher falls this far behind has a growing backlog.
BACKLOG_ABORT_S = 0.25
SOURCES = ("l1", "l2", "l1-swr", "l1-degraded")


def _ignore(_phase: str) -> None:
    pass


@dataclass
class Inputs:
    """Everything the workload draws from its seed."""

    gets: List[int]
    updates: List[int]
    seed: int


def make_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)
    cdf = []
    total = 0.0
    for rank in range(DB_SIZE):
        total += 1.0 / (rank + 1) ** ZIPF_ALPHA
        cdf.append(total)
    # Popularity rank -> item: a seeded permutation, so the hot set moves
    # with the seed.
    items = list(range(DB_SIZE))
    rng.shuffle(items)
    gets = [
        items[bisect.bisect_left(cdf, rng.random() * total)] for _ in range(1 << 17)
    ]
    updates = [rng.randrange(DB_SIZE) for _ in range(4_096)]
    return Inputs(gets=gets, updates=updates, seed=seed)


def _samples() -> "array[float]":
    # Flat arrays, so the samples a run keeps do not move its peak RSS.
    return array("d")


@dataclass
class Window:
    """One open-loop window's observations (raw CPU-clock seconds)."""

    latencies: "array[float]" = field(default_factory=_samples)
    by_source: Dict[str, "array[float]"] = field(default_factory=dict)
    lateness: "array[float]" = field(default_factory=_samples)
    attempted: int = 0
    failed: int = 0
    behind: bool = False

    def p_us(self, q: float) -> float:
        """Raw microseconds; see ``pooled_us``."""
        return pooled_us([self], q)


def pooled_us(windows: List[Window], q: float) -> float:
    """The *q*-th latency percentile over all samples of *windows*, in
    raw microseconds (a failed get misses every limit)."""
    values = [x for w in windows for x in w.latencies]
    values += [float("inf")] * sum(w.failed for w in windows)
    return percentile(values, q) * 1e6


class Stack:
    """Origin, broker, backend and node, plus the origin's two tasks."""

    def __init__(
        self, inputs: Inputs, on_phase: Callable[[str], None] = _ignore
    ) -> None:
        params = ServiceParams(
            broadcast_interval=BROADCAST_INTERVAL,
            window_intervals=WINDOW_INTERVALS,
            db_size=DB_SIZE,
            cache_capacity=L1_CAPACITY,
            seed=inputs.seed,
        )
        clock = WallClock()
        broker = InMemoryBroker()
        self.origin = Origin(SCHEME, params, clock=clock, broker=broker)
        self.backend = InMemoryBackend(self.origin)
        self.node = CacheNode(
            SCHEME,
            params,
            backend=self.backend,
            broker=broker,
            clock=clock,
            config=NodeConfig(swr=SWR),
        )
        self.inputs = inputs
        #: Hears "idle" while the dispatcher waits for the next due get
        #: and "run" when it resumes (the sampler's phase tag).
        self.on_phase = on_phase
        self.tasks: List[asyncio.Task[None]] = []
        self.cursor = 0
        #: Unflagged answers, ``(item, ts, tlb)``, awaiting the oracle.
        self.unflagged: List[Tuple[int, float, float]] = []
        #: Unflagged answers judged so far, and those found stale.
        self.checked = 0
        self.stale = 0

    async def start(self) -> None:
        await self.node.start()
        loop = asyncio.get_running_loop()
        self.tasks.append(loop.create_task(self.origin.run()))
        self.tasks.append(loop.create_task(self._updater()))
        # Warm fill: the L1-sized head of the popularity order.
        seen: Dict[int, None] = {}
        for item in self.inputs.gets:
            if len(seen) >= L1_CAPACITY:
                break
            seen.setdefault(item, None)
        for item in seen:
            answer = await self.node.get(item)
            self.unflagged.append((answer.item, answer.ts, answer.tlb))
        self.judge()

    async def _updater(self) -> None:
        updates = self.inputs.updates
        i = 0
        while True:
            await asyncio.sleep(UPDATE_TICK)
            for _ in range(UPDATES_PER_TICK):
                self.origin.apply_update(updates[i % len(updates)])
                i += 1

    async def stop(self) -> None:
        self.origin.stop()
        for task in self.tasks:
            task.cancel()
        for task in self.tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        await self.node.stop()

    def settled(self) -> bool:
        """Whether a report has certified L1 and no salvage is pending."""
        node = self.node
        return (
            node.metrics.get("ir.ready") > 0
            and node.state.is_live
            and not node.session.pending
        )

    async def settle(self, limit: float = 1.0) -> None:
        """Wait (bounded) until the node is settled again."""
        deadline = wall() + limit
        while wall() < deadline and not self.settled():
            await asyncio.sleep(BROADCAST_INTERVAL / 20)

    async def open_loop(
        self,
        rate: float,
        seconds: float,
        behind_after: float,
        abort_late: Optional[float] = None,
    ) -> Window:
        """Offer *rate* gets per second of this process's CPU clock.

        The window has fallen behind (a growing backlog) when the median
        lateness of its last quarter of gets exceeds *behind_after*
        seconds; it stops early once a get is *abort_late* seconds late.
        """
        node = self.node
        gets = self.inputs.gets
        n_items = len(gets)
        unflagged = self.unflagged
        on_phase = self.on_phase
        window = Window()
        latencies = window.latencies
        lateness = window.lateness
        by_source = window.by_source
        period = 1.0 / rate
        total = max(1, int(rate * seconds))
        cursor = self.cursor
        start = cpu() + 0.001
        i = 0
        while i < total:
            due = start + i * period
            now = cpu()
            if now < due:
                on_phase("idle")
                if due - now > BUSY_WAIT_S:
                    await asyncio.sleep(0)
                else:
                    while cpu() < due:
                        pass
                on_phase("run")
                continue
            late = now - due
            lateness.append(late)
            if abort_late is not None and late > abort_late:
                window.behind = True
                break
            item = gets[(cursor + i) % n_items]
            i += 1
            window.attempted += 1
            try:
                answer = await node.get(item)
            except ServiceError:
                window.failed += 1
                continue
            latency = cpu() - due
            latencies.append(latency)
            samples = by_source.get(answer.source)
            if samples is None:
                samples = by_source[answer.source] = _samples()
            samples.append(latency)
            if not answer.stale:
                unflagged.append((answer.item, answer.ts, answer.tlb))
        tail = lateness[len(lateness) * 3 // 4 :]
        if tail and median(tail) > behind_after:
            window.behind = True
        self.cursor = cursor + i
        self.judge()
        return window

    async def closed_loop(self, seconds: float, speed: Speed) -> Tuple[List[float], int]:
        """Gets back to back, in windows of ``CLOSED_WINDOW`` gets.

        Returns each window's CPU reference seconds per get, and the
        gets answered.
        """
        node = self.node
        gets = self.inputs.gets
        n_items = len(gets)
        unflagged = self.unflagged
        per_get: List[float] = []
        answered = 0
        deadline = wall() + seconds
        while wall() < deadline:
            start = cpu()
            for _ in range(CLOSED_WINDOW):
                answer = await node.get(gets[self.cursor % n_items])
                self.cursor += 1
                if not answer.stale:
                    unflagged.append((answer.item, answer.ts, answer.tlb))
                if self.cursor % 64 == 0:
                    # Let the IR loop and the updater in even when every
                    # get hit L1.
                    await asyncio.sleep(0)
            elapsed = cpu() - start
            per_get.append(elapsed / CLOSED_WINDOW * speed.factor())
            answered += CLOSED_WINDOW
            self.judge()
        return per_get, answered

    def judge(self) -> None:
        """Judge the pending unflagged answers against the origin's
        update log (outside every timed region)."""
        updated_in = self.origin.update_log.updated_in
        for item, ts, tlb in self.unflagged:
            if updated_in(item, after=ts, up_to=tlb):
                self.stale += 1
        self.checked += len(self.unflagged)
        self.unflagged.clear()


@dataclass
class ServiceRun:
    #: Set-up CPU, reference seconds, per repeat.
    setup: List[float]
    fixed: List[Window]
    #: CPU reference seconds per get, one value per closed-loop window.
    closed_per_get: List[float]
    closed_answered: int
    #: ``(capacity fraction, met the limit, p99 reference us)`` per probe.
    probes: List[Tuple[float, bool, float]]
    max_rate: float
    #: The run's overall speed factor (``common.Speed.overall``).
    factor: float
    attempted: int
    failed: int
    checked: int
    counters: Dict[str, float]

    def run_us_per_query(self) -> float:
        return median(self.closed_per_get) * 1e6

    def get_us(self, q: float) -> float:
        """Latency percentile of the fixed-rate windows, reference us."""
        return pooled_us(self.fixed, q) * self.factor

    def source_stats(self) -> Dict[str, Tuple[int, Optional[float], Optional[float]]]:
        """Per answer source: count, p50 and p99 in reference microseconds
        (None where fewer than ten samples lie beyond the percentile)."""
        out = {}
        for source in SOURCES:
            values = [
                x * self.factor for w in self.fixed for x in w.by_source.get(source, [])
            ]
            n = len(values)
            p50 = percentile(values, 50) * 1e6 if tail_supported(n, 50) else None
            p99 = percentile(values, 99) * 1e6 if tail_supported(n, 99) else None
            out[source] = (n, p50, p99)
        return out


def _crossing(probes: List[Tuple[float, bool, float]]) -> float:
    """The capacity fraction where p99 crosses the limit, interpolating
    log p99 linearly between the last probe that missed and the first
    that met (the met fraction itself when no probe missed)."""
    met, _, met_p99 = probes[-1]
    if len(probes) < 2:
        return met
    missed, _, missed_p99 = probes[-2]
    if not math.isfinite(missed_p99) or missed_p99 <= LATENCY_LIMIT_US:
        # Missed by falling behind: no p99 to interpolate on.
        return met
    share = math.log(LATENCY_LIMIT_US / met_p99) / math.log(missed_p99 / met_p99)
    return met + share * (missed - met)


async def _run(
    inputs: Inputs,
    seconds: float,
    gates: Gates,
    search: bool,
    on_phase: Callable[[str], None],
) -> ServiceRun:
    speed = Speed()
    setup: List[float] = []
    stack: Optional[Stack] = None
    for _ in range(SETUP_REPEATS):
        if stack is not None:
            await stack.stop()
        gc.collect()
        on_phase("setup")
        stack = Stack(inputs, on_phase)
        start = cpu()
        await stack.start()
        elapsed = cpu() - start
        on_phase("run")
        setup.append(elapsed * speed.factor())
    assert stack is not None
    limit_s = LATENCY_LIMIT_US * 1e-6

    # Warm up until the first reports have certified L1: a new node's
    # first report starts a salvage, and gets wait on it.
    warmup_end = wall() + WARMUP_LIMIT_S
    warmup_start = wall()
    while wall() < warmup_end and not stack.settled():
        await stack.open_loop(FIXED_RATE * speed.overall(), WARMUP_SECONDS, limit_s)
        speed.factor()
    budget = max(1.0, seconds - (wall() - warmup_start))
    # The search takes what it needs (a few probes) after these shares.
    fixed_share, closed_share = (0.4, 0.3) if search else (0.4, 0.6)
    fixed = []
    for _ in range(max(1, round(budget * fixed_share / FIXED_WINDOW_S))):
        overall = speed.overall()
        fixed.append(
            await stack.open_loop(FIXED_RATE * overall, FIXED_WINDOW_S, limit_s / overall)
        )
        speed.factor()
    closed_per_get, closed_answered = await stack.closed_loop(
        budget * closed_share, speed
    )
    attempted = sum(w.attempted for w in fixed) + closed_answered
    failed = sum(w.failed for w in fixed)
    probes: List[Tuple[float, bool, float]] = []
    max_rate = 0.0
    if search:
        capacity = 1.0 / median(closed_per_get)
        for fraction in CAPACITY_FRACTIONS:
            await stack.settle()
            overall = speed.overall()
            windows = []
            for _ in range(PROBE_WINDOWS):
                window = await stack.open_loop(
                    fraction * capacity * overall,
                    PROBE_WINDOW_S,
                    limit_s / overall,
                    BACKLOG_ABORT_S,
                )
                windows.append(window)
                attempted += window.attempted
                failed += window.failed
                speed.factor()
                if window.behind:
                    break
            p99 = median([w.p_us(99) for w in windows]) * overall
            ok = not any(w.behind for w in windows) and p99 <= LATENCY_LIMIT_US
            probes.append((fraction, ok, p99))
            if ok:
                max_rate = _crossing(probes) * capacity
                break
    gates.check(stack.stale == 0, f"service: {stack.stale} unflagged stale answers")
    counters = stack.node.metrics.snapshot()
    await stack.stop()
    return ServiceRun(
        setup=setup,
        fixed=fixed,
        closed_per_get=closed_per_get,
        closed_answered=closed_answered,
        probes=probes,
        max_rate=max_rate,
        factor=speed.overall(),
        attempted=attempted,
        failed=failed,
        checked=stack.checked,
        counters=counters,
    )


def measure(
    seed: int,
    seconds: float,
    gates: Gates,
    search: bool = True,
    on_phase: Callable[[str], None] = _ignore,
) -> ServiceRun:
    """Run the service workload for about *seconds* of wall time."""
    return asyncio.run(_run(make_inputs(seed), seconds, gates, search, on_phase))
