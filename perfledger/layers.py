"""Per-layer attribution for the traced run.

Two instruments, both installed from outside the program and removed
again after the traced run:

* **Spans** wrap the public entry points of each layer (``Channel.send``,
  ``ClientPolicy.on_report``, ``ServerPolicy.build_report``,
  ``Report.invalidation_for``, ``ClientCache.*``, ``Database``,
  ``PopulationPool``, ``CacheNode.get``, ``Origin``).  Each span counts
  its calls and measures its duration; a synchronous span's self time is
  its duration minus the spans it encloses.  An asynchronous span
  (``CacheNode.get``, ``Origin.publish_once``) interleaves with other
  tasks, so it records calls and duration only.
* **A sampling profiler** (``ITIMER_REAL``, every millisecond of wall
  time; ``ITIMER_PROF`` would coarsen the process CPU clock the ledger
  times with to the kernel tick) charges each sample to the layer of the
  innermost frame whose module is under ``repro``.  Kernel callbacks and
  coroutine resumes enter ``sim.client``, ``sim.server`` and channel
  delivery without any public call a span could wrap, so the layer
  self-time shares come from the sampler.  They sum to one with
  ``unattributed`` (samples with no ``repro`` frame on the stack: the
  harness and the asyncio loop); samples in the span wrappers, in the
  reference loop and of an idle load generator are counted apart.
"""

from __future__ import annotations

import functools
import inspect
import os
import signal
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import reference_work, wall

#: Layers the ledger reports, by module path.  Every other module of the
#: ``repro.sim`` package (runner, metrics, workload, params, ...) counts
#: as ``sim.model``; other ``repro`` packages count as ``other``.
LAYERS = (
    "des",
    "net",
    "sim.client",
    "sim.server",
    "sim.model",
    "sim.population",
    "schemes",
    "reports",
    "cache",
    "db",
    "service",
    "other",
)

_THIS_FILE = os.path.abspath(__file__)
_HARNESS_DIR = os.path.dirname(_THIS_FILE) + os.sep

#: Buckets left out of the layer shares: an idle load generator or the
#: reference loop (``idle``), and the span wrappers' own code (the
#: tracing overhead).
_EXCLUDED = ("idle", "tracing")

_SIM_LAYERS = {
    "client": "sim.client",
    "server": "sim.server",
    "population": "sim.population",
}


def layer_of_module(name: str) -> Optional[str]:
    """The ledger layer of module *name*, or None outside ``repro``."""
    parts = name.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    package = parts[1]
    if package == "sim":
        return _SIM_LAYERS.get(parts[2] if len(parts) > 2 else "", "sim.model")
    if package in LAYERS:
        return package
    return "other"


class Sampler:
    """Wall-time sampling profiler keyed by (phase, layer)."""

    def __init__(self, interval: float = 0.001) -> None:
        self.interval = interval
        self.phase = "run"
        self.samples: Counter[Tuple[str, str]] = Counter()
        #: Unattributed samples by the innermost frame's top-level module.
        self.unattributed: Counter[str] = Counter()
        self._code_bucket: Dict[Any, Optional[str]] = {}
        self._previous: Any = None

    def _bucket(self, frame: Any) -> Optional[str]:
        """The bucket of *frame*'s code: a layer, ``idle`` for the
        reference loop, ``tracing`` for these wrappers, ``unattributed``
        for the rest of the harness, or None for library code (the
        sample goes to its caller)."""
        code = frame.f_code
        try:
            return self._code_bucket[code]
        except KeyError:
            pass
        filename = os.path.abspath(code.co_filename)
        if code is reference_work.__code__:
            bucket: Optional[str] = "idle"
        elif filename == _THIS_FILE:
            bucket = "tracing"
        elif filename.startswith(_HARNESS_DIR):
            bucket = "unattributed"
        else:
            bucket = layer_of_module(frame.f_globals.get("__name__", ""))
        self._code_bucket[code] = bucket
        return bucket

    def _on_signal(self, _signum: int, frame: Any) -> None:
        innermost = frame
        bucket = None
        while frame is not None:
            bucket = self._bucket(frame)
            if bucket is not None:
                break
            frame = frame.f_back
        if bucket is None or bucket == "unattributed":
            if self.phase == "idle":
                # The load generator waiting for its next due request.
                bucket = "idle"
            else:
                module = innermost.f_globals.get("__name__", "?").split(".")[0]
                self.unattributed[module] += 1
                bucket = "unattributed"
        self.samples[(self.phase, bucket)] += 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_signal)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def shares(self, phase: Optional[str] = None) -> Dict[str, float]:
        """Self-time share per layer (plus ``unattributed``), summing to 1.

        Samples of an idle load generator and of the span wrappers are
        left out.
        """
        counts: Counter[str] = Counter()
        for (p, layer), n in self.samples.items():
            if layer not in _EXCLUDED and (phase is None or p == phase):
                counts[layer] += n
        total = sum(counts.values())
        names = LAYERS + ("unattributed",)
        return {name: (counts[name] / total if total else 0.0) for name in names}

    def excluded(self, bucket: str) -> int:
        return sum(n for (_, b), n in self.samples.items() if b == bucket)

    @property
    def total(self) -> int:
        return sum(self.samples.values()) - sum(map(self.excluded, _EXCLUDED))


class SpanStat:
    __slots__ = ("calls", "total", "child", "values", "value_sum")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        #: Observations of the call's result (see ``Spans.wrap``'s *observe*).
        self.values = 0
        self.value_sum = 0.0

    @property
    def self_time(self) -> float:
        return self.total - self.child


class Spans:
    """Wrappers around public entry points, aggregated per span name."""

    def __init__(self) -> None:
        self.stats: Dict[str, SpanStat] = {}
        self._stack: List[float] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    def wrap(
        self,
        owner: type,
        attr: str,
        name: str,
        observe: Optional[Callable[[Any], Optional[float]]] = None,
    ) -> None:
        """Wrap ``owner.attr`` (defined on *owner* itself) as span *name*.

        *observe* maps the call's result to a number (or None) whose mean
        the span keeps, e.g. a report's wire size.
        """
        fn = owner.__dict__[attr]
        stat = self.stats.setdefault(name, SpanStat())
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                start = wall()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    stat.calls += 1
                    stat.total += wall() - start
                if observe is not None:
                    _observe(stat, observe(result))
                return result

            setattr(owner, attr, async_wrapper)
        else:
            stack = self._stack

            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                start = wall()
                stack.append(0.0)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = wall() - start
                    stat.calls += 1
                    stat.total += elapsed
                    stat.child += stack.pop()
                    if stack:
                        stack[-1] += elapsed
                if observe is not None:
                    _observe(stat, observe(result))
                return result

            setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, fn))

    def wrap_overrides(
        self,
        base: type,
        attr: str,
        name: str,
        observe: Optional[Callable[[Any], Optional[float]]] = None,
    ) -> None:
        """Wrap *attr* on *base* and on every subclass that overrides it."""
        for cls in [base, *_subclasses(base)]:
            if attr in cls.__dict__:
                self.wrap(cls, attr, name, observe)

    def count_retries(self) -> None:
        """Count L2 attempts that failed and were retried, as span
        ``service.retries`` (``CacheNode`` calls ``call_with_retry``
        through its module's namespace)."""
        import repro.service.node as node_module
        from repro.service import RetryConfig

        original = node_module.call_with_retry
        stat = self.stats.setdefault("service.retries", SpanStat())

        async def counted(*args: Any, **kwargs: Any) -> Any:
            last = (kwargs.get("retry") or RetryConfig()).attempts - 1

            def on_failure(attempt: int, _exc: BaseException) -> None:
                if attempt < last:
                    stat.calls += 1

            kwargs.setdefault("on_attempt_failure", on_failure)
            return await original(*args, **kwargs)

        node_module.call_with_retry = counted
        self._patched.append((node_module, "call_with_retry", original))

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.calls if stat else 0

    def mean_value(self, name: str) -> float:
        stat = self.stats.get(name)
        if stat is None or not stat.values:
            return 0.0
        return stat.value_sum / stat.values


def _observe(stat: SpanStat, value: Optional[float]) -> None:
    if value is not None:
        stat.values += 1
        stat.value_sum += value


def _subclasses(cls: type) -> List[type]:
    out: List[type] = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


_CACHE_METHODS = (
    "lookup",
    "peek",
    "insert",
    "invalidate",
    "certify",
    "drop_all",
    "is_certified",
    "effective_ts",
    "unreconciled_entries",
)


def install_spans(service: bool) -> Spans:
    """Wrap every public entry point the ledger attributes.

    Import the program's modules first, so every scheme, report and
    policy subclass exists when its methods are wrapped.
    """
    import repro.schemes  # noqa: F401  (registers every scheme class)
    from repro.cache import ClientCache
    from repro.db import Database
    from repro.net import Channel
    from repro.reports.base import Report
    from repro.schemes.base import ClientPolicy, ServerPolicy

    spans = Spans()
    spans.wrap(Channel, "send", "net.Channel.send")
    spans.wrap_overrides(ClientPolicy, "on_report", "schemes.ClientPolicy.on_report")
    spans.wrap_overrides(
        ServerPolicy,
        "build_report",
        "schemes.ServerPolicy.build_report",
        observe=lambda report: float(report.size_bits),
    )
    spans.wrap_overrides(Report, "invalidation_for", "reports.Report.invalidation_for")
    for method in _CACHE_METHODS:
        spans.wrap(ClientCache, method, f"cache.ClientCache.{method}")
    spans.wrap(Database, "apply_update", "db.Database.apply_update")
    spans.wrap(Database, "updated_since", "db.Database.updated_since")
    if service:
        from repro.service import CacheNode, Origin

        spans.wrap(CacheNode, "get", "service.CacheNode.get")
        spans.count_retries()
        spans.wrap(Origin, "apply_update", "service.Origin.apply_update")
        spans.wrap(Origin, "publish_once", "service.Origin.publish_once")
    else:
        from repro.sim.population import PopulationPool

        spans.wrap(PopulationPool, "seed_parked", "sim.population.seed_parked")
        spans.wrap(PopulationPool, "try_absorb", "sim.population.try_absorb")
    return spans


def print_attribution(sampler: Sampler, spans: Spans, traced_cpu: float) -> None:
    """Print the per-layer split: sampled shares and span self times."""
    shares = sampler.shares()
    setup = sampler.shares("setup")
    run = sampler.shares("run")
    print(
        f"per-layer self time, {sampler.total} samples over "
        f"{traced_cpu:.3f} s traced CPU; {sampler.excluded('tracing')} more in "
        f"span wrappers, {sampler.excluded('idle')} in the reference loop or "
        "an idle load generator (setup / run phase shares beside):"
    )
    for name in LAYERS + ("unattributed",):
        print(
            f"  {name:<16s} {shares[name]:7.2%}   setup {setup[name]:7.2%}"
            f"   run {run[name]:7.2%}"
        )
    print(f"  {'sum':<16s} {sum(shares.values()):7.2%}")
    if sampler.unattributed:
        detail = ", ".join(
            f"{module} {n}" for module, n in sampler.unattributed.most_common(5)
        )
        print(f"  unattributed samples by innermost module: {detail}")
    print("spans (calls, total ms, self ms):")
    for name, stat in sorted(spans.stats.items()):
        if stat.calls:
            print(
                f"  {name:<40s} {stat.calls:>10d} {stat.total * 1e3:10.1f}"
                f" {stat.self_time * 1e3:10.1f}"
            )
