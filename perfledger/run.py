#!/usr/bin/env python3
"""The performance ledger: end-to-end and per-layer numbers per workload.

Run from the repository root::

    python3 perfledger/run.py --workload paper-cell --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``paper-cell``    the Table 1 cell, for each of the paper's five schemes;
* ``dense-lossy``   300 clients, 30% doze, lossy downlink, HOTCOLD;
* ``megacell-100k`` the pooled 100k-client ``aaw`` cell;
* ``service-mixed`` one ``CacheNode`` on the real asyncio loop.

Everything runs in this one process: cells serially, the service on one
event loop.  ``--trace 0`` measures and prints the end-to-end metrics,
which every workload has: ``run_us_per_query`` (CPU per answered query,
or per get), ``setup_s`` (CPU to build the workload) and ``peak_rss_mb``.
``--trace 1`` spends half the time on the untraced measurement (for the
service, with its rate search) and half on a traced one (see
``layers.py``), prints the per-layer split and the tracing overhead, and
reports the per-layer metrics; the service's get latencies and
``max_gets_per_s`` are among them, taken from the untraced half.  CPU
times are in reference seconds (``common.Speed``).  Every run checks the
program's outputs (the correctness gates in ``simcells.py`` and
``servicebench.py``) and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program comes from ``src/`` beside this directory; without it the
ledger exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SIM_WORKLOADS = ("paper-cell", "dense-lossy", "megacell-100k")
WORKLOADS = SIM_WORKLOADS + ("service-mixed",)

END_TO_END = {
    "run_us_per_query": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_SOURCES = ("l1", "l2", "l1-swr", "l1-degraded")

PER_LAYER: Dict[str, str] = {
    "des.self_share": "fraction",
    "des.events": "count",
    "des.us_per_event": "us",
    "net.self_share": "fraction",
    "net.deliveries": "count",
    "net.fault_judged": "count",
    "sim.client.self_share": "fraction",
    "client.reports_handled": "count",
    "sim.server.self_share": "fraction",
    "schemes.self_share": "fraction",
    "schemes.on_report.calls": "count",
    "schemes.build_report.calls": "count",
    "reports.self_share": "fraction",
    "report.size_bits.mean": "bits",
    "cache.self_share": "fraction",
    "cache.hit_ratio": "fraction",
    "db.self_share": "fraction",
    "db.updates": "count",
    "sim.model.self_share": "fraction",
    "sim.population.self_share": "fraction",
    "pool.seeded": "count",
    "service.self_share": "fraction",
    "service.l1_hit_ratio": "fraction",
    "service.l2_fetches": "count",
    "service.retries": "count",
    "service.get_p50_us": "us",
    "service.get_p99_us": "us",
    "service.max_gets_per_s": "1/s",
    **{
        f"service.{source}.{stat}": unit
        for source in _SOURCES
        for stat, unit in (("count", "count"), ("p50_us", "us"), ("p99_us", "us"))
    },
    "other.self_share": "fraction",
    "unattributed.self_share": "fraction",
    "trace.run_overhead": "ratio",
    "trace.get_p50_overhead": "ratio",
}


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="shrink the simulated cells (horizon; megacell clients) for smoke tests",
    )
    return parser.parse_args(argv)


def _metrics(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, Any]:
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}


def _print_table(title: str, values: Dict[str, float], units: Dict[str, str]) -> None:
    print(title)
    for name, unit in units.items():
        print(f"  {name:<28s} {values[name]:>16.6g} {unit}")


# -- simulation workloads -----------------------------------------------------


def _sim_end_to_end(run: Any, rss: float) -> Dict[str, float]:
    return {
        "run_us_per_query": run.run_us_per_query(),
        "setup_s": run.setup_s(),
        "peak_rss_mb": rss,
    }


def _print_sim(label: str, run: Any) -> Tuple[int, int]:
    cells = run.cells
    attempted = sum(c.generated for c in cells)
    answered = sum(c.answered for c in cells)
    failed = sum(c.failed for c in cells)
    print(
        f"{label}: {len(run.passes)} passes x {len(run.passes[0])} cells; "
        f"queries generated {attempted}, answered {answered}, "
        f"in flight at the horizon {attempted - answered - failed}, lost {failed}"
    )
    for scheme, digest in run.digests().items():
        print(f"  digest {scheme:<9s} {digest}")
    return attempted, failed


def _sim(args: argparse.Namespace, gates: Any) -> Tuple[Dict[str, Any], int, int]:
    import simcells
    from common import peak_rss_mb

    if not args.trace:
        run = simcells.measure(args.workload, args.seed, args.seconds, args.scale, gates)
        values = _sim_end_to_end(run, peak_rss_mb())
        attempted, failed = _print_sim(args.workload, run)
        _print_table("end-to-end (tracing off, reference time):", values, END_TO_END)
        return _metrics(values, END_TO_END), attempted, failed

    import layers
    from common import cpu

    half = args.seconds / 2
    plain = simcells.measure(args.workload, args.seed, half, args.scale, gates)
    spans = layers.install_spans(service=False)
    sampler = layers.Sampler()

    def on_phase(phase: str) -> None:
        sampler.phase = phase

    start = cpu()
    sampler.start()
    try:
        traced = simcells.measure(
            args.workload, args.seed, half, args.scale, gates, on_phase
        )
    finally:
        sampler.stop()
        spans.restore()
    traced_cpu = cpu() - start
    attempted, failed = _print_sim("untraced", plain)
    traced_attempted, traced_failed = _print_sim("traced", traced)
    for scheme, digest in traced.digests().items():
        gates.check(
            digest == plain.digests()[scheme],
            f"{scheme}: tracing changed the simulated result",
        )
    n_passes = len(traced.passes)
    first = traced.passes[0]
    hits = sum(c.hits for c in first)
    lookups = hits + sum(c.misses for c in first)
    counts = {
        "des.events": sum(c.events for c in first),
        "des.us_per_event": plain.us_per_event(),
        "net.deliveries": sum(c.deliveries for c in first),
        "net.fault_judged": sum(c.fault_judged for c in first),
        "client.reports_handled": spans.calls("schemes.ClientPolicy.on_report")
        / n_passes,
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "pool.seeded": spans.calls("sim.population.seed_parked") / n_passes,
    }
    values = _layer_values(sampler, spans, n_passes, counts)
    values.update(_overhead(plain.run_us_per_query(), traced.run_us_per_query()))
    layers.print_attribution(sampler, spans, traced_cpu)
    _print_table("per-layer (traced run):", values, PER_LAYER)
    return (
        _metrics(values, PER_LAYER),
        attempted + traced_attempted,
        failed + traced_failed,
    )


# -- service workload ---------------------------------------------------------


def _service_end_to_end(run: Any, rss: float) -> Dict[str, float]:
    from common import median

    return {
        "run_us_per_query": run.run_us_per_query(),
        "setup_s": median(run.setup),
        "peak_rss_mb": rss,
    }


def _print_service(label: str, run: Any) -> None:
    import servicebench
    from common import fmt_optional, percentile

    lateness = [x * 1e6 for w in run.fixed for x in w.lateness]
    print(
        f"{label}: {run.attempted} gets attempted, {run.failed} failed "
        f"(ServiceError: refusal, degradation or deadline); "
        f"{run.checked} unflagged answers checked against the update log"
    )
    print(
        f"  {len(run.fixed)} windows at {servicebench.FIXED_RATE:.0f} gets/s, "
        f"{sum(len(w.latencies) for w in run.fixed)} samples: get latency "
        f"p50 {run.get_us(50):.2f} us, p99 {run.get_us(99):.1f} us"
    )
    print(
        f"  dispatcher lateness p99 {percentile(lateness, 99):.1f} us, "
        f"max {max(lateness):.1f} us; windows fallen behind: "
        f"{sum(w.behind for w in run.fixed)}"
    )
    print("  get latency by answer source (count, p50 us, p99 us):")
    for source, (n, p50, p99) in run.source_stats().items():
        print(
            f"    {source:<12s} {n:>8d} {fmt_optional(p50):>10s} "
            f"{fmt_optional(p99):>10s}"
        )
    print(
        f"  closed loop: {run.closed_answered} gets in "
        f"{len(run.closed_per_get)} windows"
    )
    if run.probes:
        print(
            f"  rate search, highest first (p99 limit "
            f"{servicebench.LATENCY_LIMIT_US:.0f} us, no growing backlog): "
            f"max_gets_per_s {run.max_rate:.0f}"
        )
        for fraction, ok, p99 in run.probes:
            verdict = "meets" if ok else "misses"
            print(f"    {fraction:5.2f} of capacity  p99 {p99:12.1f} us  {verdict}")


def _service(args: argparse.Namespace, gates: Any) -> Tuple[Dict[str, Any], int, int]:
    import servicebench
    from common import peak_rss_mb

    if not args.trace:
        run = servicebench.measure(args.seed, args.seconds, gates, search=False)
        values = _service_end_to_end(run, peak_rss_mb())
        _print_service(args.workload, run)
        _print_table("end-to-end (tracing off, reference time):", values, END_TO_END)
        return _metrics(values, END_TO_END), run.attempted, run.failed

    import layers
    from common import cpu

    half = args.seconds / 2
    plain = servicebench.measure(args.seed, half, gates, search=True)
    spans = layers.install_spans(service=True)
    sampler = layers.Sampler()

    def on_phase(phase: str) -> None:
        sampler.phase = phase

    start = cpu()
    sampler.start()
    try:
        traced = servicebench.measure(
            args.seed, half, gates, search=False, on_phase=on_phase
        )
    finally:
        sampler.stop()
        spans.restore()
    traced_cpu = cpu() - start
    _print_service("untraced", plain)
    _print_service("traced", traced)
    counters = traced.counters
    hits = counters.get("get.hits", 0.0)
    fetches = counters.get("get.l2_fetches", 0.0)
    ratio = hits / (hits + fetches) if hits + fetches else 0.0
    counts: Dict[str, float] = {
        "cache.hit_ratio": ratio,
        "service.l1_hit_ratio": ratio,
        "service.l2_fetches": fetches,
        "service.retries": float(spans.calls("service.retries")),
        # Latencies come from the untraced half: the spans slow every get.
        "service.get_p50_us": plain.get_us(50),
        "service.get_p99_us": plain.get_us(99),
        "service.max_gets_per_s": plain.max_rate,
    }
    for source, (n, p50, p99) in plain.source_stats().items():
        counts[f"service.{source}.count"] = n
        counts[f"service.{source}.p50_us"] = p50 if p50 is not None else 0.0
        counts[f"service.{source}.p99_us"] = p99 if p99 is not None else 0.0
    values = _layer_values(sampler, spans, 1, counts)
    values.update(
        _overhead(
            plain.run_us_per_query(),
            traced.run_us_per_query(),
            (plain.get_us(50), traced.get_us(50)),
        )
    )
    layers.print_attribution(sampler, spans, traced_cpu)
    _print_table("per-layer (traced run):", values, PER_LAYER)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    return _metrics(values, PER_LAYER), attempted, failed


# -- shared -------------------------------------------------------------------


def _layer_values(
    sampler: Any, spans: Any, n_passes: int, counts: Dict[str, float]
) -> Dict[str, float]:
    """Sampled shares, span counts per pass, then workload-specific counts."""
    values = {f"{layer}.self_share": share for layer, share in sampler.shares().items()}
    values.update(
        {
            "schemes.on_report.calls": spans.calls("schemes.ClientPolicy.on_report")
            / n_passes,
            "schemes.build_report.calls": spans.calls(
                "schemes.ServerPolicy.build_report"
            )
            / n_passes,
            "report.size_bits.mean": spans.mean_value(
                "schemes.ServerPolicy.build_report"
            ),
            "db.updates": spans.calls("db.Database.apply_update") / n_passes,
        }
    )
    for name in PER_LAYER:
        values.setdefault(name, 0.0)
    values.update(counts)
    return values


def _overhead(
    plain_run: float,
    traced_run: float,
    p50s: Optional[Tuple[float, float]] = None,
) -> Dict[str, float]:
    """Traced over untraced ``run_us_per_query`` (and get p50, service)."""
    line = f"run_us_per_query {traced_run:.3f} / {plain_run:.3f}"
    values = {"trace.run_overhead": traced_run / plain_run}
    if p50s is not None:
        plain_p50, traced_p50 = p50s
        line += f", get p50 {traced_p50:.2f} / {plain_p50:.2f} us"
        values["trace.get_p50_overhead"] = traced_p50 / plain_p50
    print(f"tracing overhead (traced / untraced): {line}")
    return values


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfledger: no program at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from common import Gates

    gates = Gates()
    print(
        f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
        f"trace {args.trace}, scale {args.scale:g}"
    )
    measure = _service if args.workload == "service-mixed" else _sim
    metrics, attempted, failed = measure(args, gates)
    print(f"correctness gates: {gates.checked} checked, {len(gates.failures)} failed")
    for failure in gates.failures:
        print(f"  FAILED: {failure}")
    print(
        json.dumps(
            {
                "correct": gates.ok,
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
