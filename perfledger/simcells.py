"""The simulation workloads: whole cells, built and run serially.

A pass builds and runs one cell per scheme with the run's seed, which
is what a figure sweep repeats; the run repeats passes until its time
is up.  The reference loop runs after every cell, and every time is
reported in reference seconds (``common.Speed``); a cost is the sum over
schemes of each scheme's median over passes.  Every pass uses the same
inputs, so every pass must reproduce the first one's digests exactly.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from common import Gates, Speed, cpu, median, raw_digest, wall
from repro.net import FaultConfig
from repro.sim import HOTCOLD, UNIFORM, AggregationConfig, SystemParams
from repro.sim.model import SimulationModel
from repro.sim.workload import Workload

#: The schemes the paper evaluates.
PAPER_SCHEMES = ("ts", "bs", "afw", "aaw", "checking")

#: A run makes at least this many passes, however short its time.
MIN_PASSES = 3


def paper_cell(seed: int, scale: float) -> SystemParams:
    """Table 1: 100 clients, 1,000 items, lossless, 10% doze."""
    return SystemParams(
        simulation_time=5_000.0 * scale,
        n_clients=100,
        db_size=1_000,
        disconnect_prob=0.1,
        disconnect_time_mean=200.0,
        seed=seed,
    )


def dense_lossy(seed: int, scale: float) -> SystemParams:
    """300 clients, 30% doze, lossy downlink, updates twice as often.

    The horizon is half ``bench_full_cell``'s lossy-300 so that a run
    makes about ten passes, enough for steady medians.
    """
    return SystemParams(
        simulation_time=1_500.0 * scale,
        n_clients=300,
        db_size=1_000,
        disconnect_prob=0.3,
        disconnect_time_mean=300.0,
        update_interarrival_mean=50.0,
        downlink_faults=FaultConfig(drop_prob=0.02, bit_error_rate=1e-6),
        seed=seed,
    )


def megacell(seed: int, scale: float) -> SystemParams:
    """100k clients held by the population pool (``bench_megacell``'s cell).

    The horizon is four times ``bench_megacell``'s 600 s: the live set
    answers about 2.4x the queries by then (and few more after), which
    steadies the run's cost per query; set-up is unchanged.
    """
    horizon = 2_400.0
    return SystemParams(
        simulation_time=horizon,
        n_clients=max(1_000, int(100_000 * scale)),
        db_size=1_000,
        buffer_fraction=0.02,
        think_time_mean=100.0,
        update_interarrival_mean=100.0,
        disconnect_prob=0.9,
        # Dozes far longer than the horizon keep the tail pooled.
        disconnect_time_mean=500.0 * horizon,
        warm_start=True,
        seed=seed,
        aggregation=AggregationConfig(
            k_exact=64, start_in_pool=1.0, min_doze_intervals=2.0
        ),
    )


@dataclass(frozen=True)
class SimSpec:
    params: Callable[[int, float], SystemParams]
    workload: Workload
    schemes: Tuple[str, ...]


SPECS: Dict[str, SimSpec] = {
    "paper-cell": SimSpec(paper_cell, UNIFORM, PAPER_SCHEMES),
    "dense-lossy": SimSpec(dense_lossy, HOTCOLD, PAPER_SCHEMES),
    "megacell-100k": SimSpec(megacell, UNIFORM, ("aaw",)),
}


@dataclass
class Cell:
    """One cell's costs, in reference seconds, and its outputs."""

    scheme: str
    setup_cpu: float
    run_cpu: float
    generated: int
    answered: int
    failed: int
    events: int
    deliveries: int
    fault_judged: int
    hits: float
    misses: float
    digest: str


def run_cell(
    params: SystemParams,
    spec: SimSpec,
    scheme: str,
    gates: Gates,
    speed: Speed,
    on_phase: Optional[Callable[[str], None]] = None,
) -> Cell:
    """Build and run one cell, timing both phases, and gate its result.

    *on_phase* hears ``"setup"`` before construction and ``"run"`` before
    the run, so a sampler can split its samples by phase.
    """
    if on_phase is not None:
        on_phase("setup")
    start = cpu()
    model = SimulationModel(params, spec.workload, scheme)
    # Set-up ends with a full collection: the collection that set-up's
    # allocations make due is set-up's cost, not the first queries'.
    gc.collect()
    built = cpu()
    setup_factor = speed.factor()
    if on_phase is not None:
        on_phase("run")
    result = model.run()
    done = cpu()
    run_factor = speed.factor()
    raw = result.raw
    generated = int(result.counter("queries.generated"))
    answered = int(result.queries_answered)
    # A client holds at most one query in flight; pooled members hold none.
    if params.aggregation is not None:
        live = int(raw["clients.live_at_horizon"])
        residents = int(raw["pool.residents_at_horizon"])
        gates.check(
            live + residents == params.n_clients,
            f"{scheme}: live {live} + pooled {residents} != {params.n_clients} clients",
        )
    else:
        live = params.n_clients
    in_flight = generated - answered
    failed = max(0, in_flight - live)
    gates.check(result.stale_hits == 0, f"{scheme}: {result.stale_hits} stale hits")
    gates.check(raw["oracle.liveness_ok"] == 1.0, f"{scheme}: liveness ledger broken")
    gates.check(failed == 0, f"{scheme}: {failed} queries lost")
    gates.check(answered > 0, f"{scheme}: no query answered")
    channels = [model.downlink, model.uplink]
    if model.ir_channel is not None:
        channels.append(model.ir_channel)
    return Cell(
        scheme=scheme,
        setup_cpu=(built - start) * setup_factor,
        run_cpu=(done - built) * run_factor,
        generated=generated,
        answered=answered,
        failed=failed,
        events=int(raw["kernel.events_scheduled"]),
        deliveries=sum(ch.stats.messages_delivered for ch in channels),
        fault_judged=int(
            sum(v for k, v in raw.items() if k.endswith(".fault_judged"))
        ),
        hits=float(raw.get("cache.hits", 0.0)),
        misses=float(raw.get("cache.misses", 0.0)),
        digest=raw_digest(raw),
    )


@dataclass
class SimRun:
    """The passes of one measuring window."""

    passes: List[List[Cell]]

    @property
    def cells(self) -> List[Cell]:
        return [cell for cells in self.passes for cell in cells]

    def _by_scheme(self, attr: str) -> float:
        """Sum over schemes of the median over passes of *attr*."""
        return sum(
            median([getattr(cells[k], attr) for cells in self.passes])
            for k in range(len(self.passes[0]))
        )

    def setup_s(self) -> float:
        return self._by_scheme("setup_cpu")

    def run_us_per_query(self) -> float:
        # Every pass answers the same queries (the digests gate this).
        return self._by_scheme("run_cpu") / sum(c.answered for c in self.passes[0]) * 1e6

    def us_per_event(self) -> float:
        return self._by_scheme("run_cpu") / sum(c.events for c in self.passes[0]) * 1e6

    def digests(self) -> Dict[str, str]:
        return {c.scheme: c.digest for c in self.passes[0]}


def measure(
    name: str,
    seed: int,
    seconds: float,
    scale: float,
    gates: Gates,
    on_phase: Optional[Callable[[str], None]] = None,
) -> SimRun:
    """Run passes of workload *name* for about *seconds* of wall time."""
    spec = SPECS[name]
    params = spec.params(seed, scale)
    passes: List[List[Cell]] = []
    speed = Speed()
    deadline = wall() + seconds
    while len(passes) < MIN_PASSES or wall() < deadline:
        # The previous pass's garbage must not be collected on this
        # pass's clock.
        gc.collect()
        cells = []
        for scheme in spec.schemes:
            cells.append(run_cell(params, spec, scheme, gates, speed, on_phase))
        if passes:
            for first, again in zip(passes[0], cells):
                gates.check(
                    first.digest == again.digest,
                    f"{again.scheme}: digest {again.digest} != first pass {first.digest}",
                )
        passes.append(cells)
    return SimRun(passes)
