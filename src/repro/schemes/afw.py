"""AFW — Adaptive Invalidation Report with Fixed Window (paper §3.1).

Default broadcast is ``IR(w)``.  A client whose gap exceeds the window
uploads its ``Tlb`` (one timestamp — the scheme's whole uplink budget);
if any uploaded ``Tlb`` is salvageable (``TS(Bn) <= Tlb <= T - wL``) the
server broadcasts the full Bit-Sequences report next period, exactly once
per request batch.
"""

from __future__ import annotations

from ..reports.bitseq import bs_salvage_threshold, build_bitseq_report
from ..reports.window import WindowReportCache, build_window_report
from .base import (
    WINDOW_KINDS,
    ClientOutcome,
    ClientPolicy,
    PendingTlbBuffer,
    Scheme,
    ServerPolicy,
    apply_invalidation,
    apply_window_report,
    effective_window_seconds,
    reconcile_with_bitseq,
)
from ..reports.base import ReportKind


class AFWServerPolicy(ServerPolicy):
    """Figure 3's server: window by default, BS on salvageable demand."""

    def __init__(self, params, db):
        self.params = params
        self.db = db
        self.tlb_buffer = PendingTlbBuffer(
            getattr(params, "max_pending_tlbs", None)
        )
        self.bs_broadcasts = 0
        self._report_cache = WindowReportCache(db)

    def on_tlb(self, ctx, client_id: int, tlb: float, now: float):
        self.tlb_buffer.add(client_id, tlb)

    def _take_salvageable(self, now: float, window_seconds: float) -> list:
        """Pop all pending Tlbs, returning the salvageable ones.

        *window_seconds* is the span the regular report will cover this
        period (the loss-adaptive widened window, when active): any
        pending ``Tlb`` inside it is covered by the ordinary report for
        free, so only clients beyond it still need the BS rescue.
        """
        pending = self.tlb_buffer.drain()
        if not pending:
            return []
        window_start = now - window_seconds
        # The history floor (db.origin_time; the restart instant after a
        # crash) bounds what BS can salvage: pre-crash Tlbs fall below
        # the threshold and correctly take the drop-all path.
        threshold = bs_salvage_threshold(self.db, origin=self.db.origin_time)
        return [t for t in pending if threshold <= t <= window_start]

    def build_report(self, ctx, now: float):
        window_seconds = effective_window_seconds(ctx, self.params)
        if self._take_salvageable(now, window_seconds):
            self.bs_broadcasts += 1
            return build_bitseq_report(
                self.db,
                now,
                origin=self.db.origin_time,
                timestamp_bits=self.params.timestamp_bits,
            )
        return build_window_report(
            self.db,
            now,
            window_seconds,
            self.params.timestamp_bits,
            cache=self._report_cache,
        )


class AdaptiveClientPolicy(ClientPolicy):
    """Figures 3/4's client: shared by AFW and AAW.

    * BS report          -> run the BS algorithm.
    * covering window    -> run the TS algorithm (enlarged windows cover
      any client whose ``Tlb`` reaches the dummy record).
    * uncovered, not yet asked -> upload ``Tlb`` and wait.
    * uncovered, already asked -> the server could not help: drop all.
    """

    quiet_kinds = WINDOW_KINDS | {ReportKind.BIT_SEQUENCES}

    def __init__(self, params, client_id: int):
        self.params = params
        self.client_id = client_id
        self._sent_tlb = False
        self.tlb_uploads = 0

    def on_report(self, ctx, report) -> ClientOutcome:
        t = report.timestamp
        if report.kind is ReportKind.BIT_SEQUENCES:
            inv = report.invalidation_for(ctx.tlb)
            if inv.covered:
                reconcile_with_bitseq(ctx.cache, report)
                apply_invalidation(ctx.cache, inv, t)
            else:
                ctx.cache.drop_all()
                ctx.note_cache_drop()
                ctx.cache.certify(t)
            ctx.tlb = t
            self._sent_tlb = False
            return ClientOutcome.READY
        if report.window_start <= ctx.tlb:  # covers(), inlined
            apply_window_report(ctx.cache, report)
            ctx.tlb = t
            self._sent_tlb = False
            return ClientOutcome.READY
        if not self._sent_tlb:
            self._sent_tlb = True
            self.tlb_uploads += 1
            ctx.send_tlb(ctx.tlb)
            return ClientOutcome.PENDING
        # Second uncovered report after asking: unsalvageable.
        ctx.cache.drop_all()
        ctx.note_cache_drop()
        ctx.cache.certify(t)
        ctx.tlb = t
        self._sent_tlb = False
        return ClientOutcome.READY

    def on_reconnect(self, ctx, now: float):
        self._sent_tlb = False

    def on_validation_timeout(self, ctx, now: float) -> bool:
        """The rescue upload (or the rescue report) was lost on the air:
        re-send ``Tlb`` so the server schedules another rescue."""
        self.tlb_uploads += 1
        ctx.send_tlb(ctx.tlb)
        return True


AFW_SCHEME = Scheme(
    name="afw",
    server_factory=AFWServerPolicy,
    client_factory=AdaptiveClientPolicy,
    description="Adaptive invalidation report with fixed window",
)
