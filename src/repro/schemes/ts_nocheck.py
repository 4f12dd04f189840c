"""TS (Broadcasting Timestamps) without checking — paper Figure 1.

The server broadcasts ``IR(w)`` every period.  A client disconnected
longer than the window drops its whole cache; otherwise it invalidates
the listed items newer than its entries and certifies the rest.
"""

from __future__ import annotations

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


class TSServerPolicy(ServerPolicy):
    """Broadcasts the fixed-window report every period (widened under
    loss adaptation)."""

    def __init__(self, params, db):
        self.params = params
        self.db = db
        self._report_cache = WindowReportCache(db)

    def build_report(self, ctx, now: float):
        return build_window_report(
            self.db,
            now,
            effective_window_seconds(ctx, self.params),
            self.params.timestamp_bits,
            cache=self._report_cache,
        )


class TSClientPolicy(ClientPolicy):
    """Figure 1's client algorithm: covered -> precise drop; else drop all."""

    quiet_kinds = WINDOW_KINDS

    def __init__(self, params, client_id: int):
        self.params = params
        self.client_id = client_id

    def on_report(self, ctx, report) -> ClientOutcome:
        t = report.timestamp
        cache = ctx.cache
        if report.window_start <= ctx.tlb:  # covers(), inlined
            apply_window_report(cache, report)
        else:
            cache.drop_all()
            ctx.note_cache_drop()
            cache.certify(t)
        ctx.tlb = t
        return ClientOutcome.READY


TS_SCHEME = Scheme(
    name="ts",
    server_factory=TSServerPolicy,
    client_factory=TSClientPolicy,
    description="Broadcasting timestamps, fixed window, no checking",
)
