"""TS with checking ("simple checking", Wu et al.) — the uplink-hungry
baseline of the paper's evaluation.

The server broadcasts plain ``IR(w)``.  A client reconnecting beyond the
window uploads the ids and timestamps of its *entire* cache; the server
answers with a validity report (one bit per checked item), letting the
client keep still-valid entries.  The upload costs
``n_cached * (ceil(log2 N) + b_T)`` uplink bits — this is what Figures 6,
8, 10, 12, 14 charge against the scheme, and what sinks its throughput
when the uplink is narrow (Figures 15-16).
"""

from __future__ import annotations

from typing import List, Tuple

from ..reports.sizes import validity_report_bits
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


class CheckingServerPolicy(ServerPolicy):
    """Plain window broadcasts plus a validity-answer service."""

    def __init__(self, params, db):
        self.params = params
        self.db = db
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
        # An entry certified before db.origin_time (the restart instant
        # after a crash) predates everything this incarnation witnessed:
        # last_update was wiped, so the plain comparison would wrongly
        # vouch for it.  Conservatively invalidate such entries.
        floor = self.db.origin_time
        invalid = [
            item
            for item, ts in entries
            if ts < floor or self.db.last_update[item] > ts
        ]
        self.checks_served += 1
        return invalid, now, validity_report_bits(len(entries))


class CheckingClientPolicy(ClientPolicy):
    """Uploads the whole cache when the window does not cover the gap."""

    quiet_kinds = WINDOW_KINDS

    def __init__(self, params, client_id: int):
        self.params = params
        self.client_id = client_id
        self._check_pending = False

    def on_report(self, ctx, report) -> ClientOutcome:
        if self._check_pending:
            # The answer to our upload is still in flight; this report
            # cannot help (our Tlb predates its window).
            return ClientOutcome.PENDING
        if report.window_start <= ctx.tlb:  # covers(), inlined
            apply_window_report(ctx.cache, report)
            ctx.tlb = report.timestamp
            return ClientOutcome.READY
        entries = [
            (entry.item, ctx.cache.effective_ts(entry))
            for entry in ctx.cache.entries()
        ]
        if not entries:
            # Nothing to salvage; resynchronize without uplink traffic.
            ctx.cache.certify(report.timestamp)
            ctx.tlb = report.timestamp
            return ClientOutcome.READY
        self._check_pending = True
        ctx.send_check_request(entries)
        return ClientOutcome.PENDING

    def on_validity_reply(self, ctx, invalid_items, certified_at: float):
        self._check_pending = False
        for item in invalid_items:
            ctx.cache.invalidate(item)
        ctx.cache.certify(certified_at)
        # Certified as of the server's evaluation instant; the next window
        # report covers everything after it.
        ctx.tlb = certified_at

    def on_reconnect(self, ctx, now: float):
        # A reply delivered while we dozed is lost on the air; without this
        # reset the client would wait for it forever.
        self._check_pending = False

    def on_validation_timeout(self, ctx, now: float) -> bool:
        """The checking upload (or its validity reply) was lost on the
        air: re-upload the current cache contents."""
        entries = [
            (entry.item, ctx.cache.effective_ts(entry))
            for entry in ctx.cache.entries()
        ]
        if not entries:
            return False
        ctx.send_check_request(entries)
        return True


CHECKING_SCHEME = Scheme(
    name="checking",
    server_factory=CheckingServerPolicy,
    client_factory=CheckingClientPolicy,
    description="TS window + full-cache validity checking on reconnect",
)
