"""GCORE-inspired grouped checking (simplified; extension ablation).

Wu, Yu & Chen's GCORE reduces the uplink cost of validity checking by
organizing cache contents into groups.  We implement the spirit of that
trade-off in a simplified form (documented in DESIGN.md): the
reconnecting client uploads every cached item id but only **one
timestamp per group** (the group minimum) instead of one per item:

    upload bits = n_cached * ceil(log2 N)  +  G * b_T

versus simple checking's ``n_cached * (ceil(log2 N) + b_T)``.  The server
answers exactly as in simple checking but tests each item against its
group's (older) timestamp, so items updated between the group minimum and
their own fetch time are dropped unnecessarily — uplink savings bought
with over-invalidation.
"""

from __future__ import annotations

from typing import List, Tuple

from ..reports.sizes import id_bits, validity_report_bits
from ..reports.window import WindowReportCache, build_window_report
from .base import (
    WINDOW_KINDS,
    ClientOutcome,
    ClientPolicy,
    Scheme,
    ServerPolicy,
    apply_window_report,
    effective_window_seconds,
)

#: Number of timestamp groups the cache is hashed into.
DEFAULT_GROUPS = 8


def group_of(item: int, n_groups: int) -> int:
    """Deterministic group assignment shared by client and server."""
    return item % n_groups


def grouped_upload_bits(
    n_cached: int, n_items: int, n_groups: int, timestamp_bits: int
) -> float:
    """Wire size of the grouped checking upload."""
    return n_cached * id_bits(n_items) + n_groups * timestamp_bits


class GCOREServerPolicy(ServerPolicy):
    """Window broadcasts plus grouped validity answers."""

    def __init__(self, params, db, n_groups: int = DEFAULT_GROUPS):
        self.params = params
        self.db = db
        self.n_groups = n_groups
        self.checks_served = 0
        self._report_cache = WindowReportCache(db)

    def build_report(self, ctx, now: float):
        return build_window_report(
            self.db,
            now,
            effective_window_seconds(ctx, self.params),
            self.params.timestamp_bits,
            cache=self._report_cache,
        )

    def on_check_request(
        self, ctx, client_id: int, entries: List[Tuple[int, float]], now: float
    ) -> Tuple[List[int], float, float]:
        """*entries* carry ``(item, group_min_ts)`` — the client already
        collapsed timestamps to its per-group minima."""
        # As in simple checking: group timestamps older than the server's
        # history floor (post-crash origin_time) cannot be vouched for —
        # last_update was wiped — so those items drop conservatively.
        floor = self.db.origin_time
        invalid = [
            item
            for item, ts in entries
            if ts < floor or self.db.last_update[item] > ts
        ]
        self.checks_served += 1
        return invalid, now, validity_report_bits(len(entries))


class GCOREClientPolicy(ClientPolicy):
    """Checking client that collapses timestamps into per-group minima."""

    quiet_kinds = WINDOW_KINDS

    def __init__(self, params, client_id: int, n_groups: int = DEFAULT_GROUPS):
        self.params = params
        self.client_id = client_id
        self.n_groups = n_groups
        self._check_pending = False

    def upload_size_bits(self, n_cached: int) -> float:
        """Size of this client's grouped upload for *n_cached* entries."""
        return grouped_upload_bits(
            n_cached, self.params.db_size, self.n_groups, self.params.timestamp_bits
        )

    def on_report(self, ctx, report) -> ClientOutcome:
        if self._check_pending:
            return ClientOutcome.PENDING
        if report.window_start <= ctx.tlb:  # covers(), inlined
            apply_window_report(ctx.cache, report)
            ctx.tlb = report.timestamp
            return ClientOutcome.READY
        entries = ctx.cache.entries()
        if not entries:
            ctx.cache.certify(report.timestamp)
            ctx.tlb = report.timestamp
            return ClientOutcome.READY
        group_min = {}
        for entry in entries:
            g = group_of(entry.item, self.n_groups)
            ts = ctx.cache.effective_ts(entry)
            if g not in group_min or ts < group_min[g]:
                group_min[g] = ts
        payload = [
            (entry.item, group_min[group_of(entry.item, self.n_groups)])
            for entry in entries
        ]
        self._check_pending = True
        ctx.send_check_request(payload, size_bits=self.upload_size_bits(len(entries)))
        return ClientOutcome.PENDING

    def on_validity_reply(self, ctx, invalid_items, certified_at: float):
        self._check_pending = False
        for item in invalid_items:
            ctx.cache.invalidate(item)
        ctx.cache.certify(certified_at)
        ctx.tlb = certified_at

    def on_reconnect(self, ctx, now: float):
        # A reply lost during the doze must not wedge the client.
        self._check_pending = False


GCORE_SCHEME = Scheme(
    name="gcore",
    server_factory=GCOREServerPolicy,
    client_factory=GCOREClientPolicy,
    description="Grouped checking (GCORE-inspired, simplified)",
)
