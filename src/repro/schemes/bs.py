"""BS: pure Bit-Sequences broadcasting (Jing et al.), paper Section 2.3.

Every report carries the full hierarchy, so any client — however long
disconnected — salvages its cache without uplink traffic, at the price
of a ~2N-bit report each period (the downlink cost Figure 5 punishes).
"""

from __future__ import annotations

from ..reports.base import ReportKind
from ..reports.bitseq import build_bitseq_report
from .base import (
    ClientOutcome,
    ClientPolicy,
    Scheme,
    ServerPolicy,
    apply_invalidation,
    reconcile_with_bitseq,
)


class BSServerPolicy(ServerPolicy):
    """Broadcasts the bit-sequences hierarchy every period."""

    def __init__(self, params, db):
        self.params = params
        self.db = db

    def build_report(self, ctx, now: float):
        # origin is the server's history floor: 0.0 in a never-crashed
        # cell, the restart instant after a crash–recovery — clients with
        # an older Tlb must not be salvaged from truncated history.
        return build_bitseq_report(
            self.db,
            now,
            origin=self.db.origin_time,
            timestamp_bits=self.params.timestamp_bits,
        )


class BSClientPolicy(ClientPolicy):
    """Figure 2's client algorithm."""

    quiet_kinds = frozenset({ReportKind.BIT_SEQUENCES})

    def __init__(self, params, client_id: int):
        self.params = params
        self.client_id = client_id

    def on_report(self, ctx, report) -> ClientOutcome:
        inv = report.invalidation_for(ctx.tlb)
        if inv.covered:
            reconcile_with_bitseq(ctx.cache, report)
            apply_invalidation(ctx.cache, inv, report.timestamp)
        else:
            ctx.cache.drop_all()
            ctx.note_cache_drop()
            ctx.cache.certify(report.timestamp)
        ctx.tlb = report.timestamp
        return ClientOutcome.READY


BS_SCHEME = Scheme(
    name="bs",
    server_factory=BSServerPolicy,
    client_factory=BSClientPolicy,
    description="Bit-sequences hierarchy every period (no uplink)",
)
