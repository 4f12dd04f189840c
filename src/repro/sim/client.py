"""The mobile client actor: queries, cache, disconnections, reports.

Per Section 4 of the paper each client loops: think (exponential), issue
a read-one-item query, listen to the next invalidation report, answer
from cache when the report proves the copy valid, else fetch via the
uplink.  "The arrival of a new query is separated from the completion of
the previous query by either an exponentially distributed think time or
an exponentially distributed disconnection time": with probability ``p``
the inter-query gap is a disconnection (during which every report is
missed) instead of think time.  This per-cycle reading is the one
consistent with the paper's absolute throughput levels (see DESIGN.md).

The client is also the scheme's *client context*: policies call
``send_tlb`` / ``send_check_request`` / ``note_cache_drop`` on it.

Invalidation reports reach a cell's clients through one
:func:`report_intake` call per broadcast, which certifies the listeners
with nothing at stake in one loop and hands the rest to
:meth:`MobileClient._on_downlink`.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Optional

from ..cache import CacheEntry, ClientCache
from ..des import Environment, Event
from ..des.monitor import MetricSet
from ..net import Channel, Fate, Message, MessageKind, SERVER_ID, corrupted_copy
from ..reports.base import Invalidation, ReportKind
from ..reports.sizes import checking_upload_bits, nack_upload_bits, tlb_upload_bits
from ..schemes.base import WINDOW_KINDS, ClientOutcome
from . import metrics as m
from .energy import ENERGY_RX, ENERGY_TX

# Hot-branch kind constants: skip the enum attribute lookups in the
# per-delivery dispatch below.
_IR = MessageKind.INVALIDATION_REPORT
_VALIDITY = MessageKind.VALIDITY_REPORT
_DATA = MessageKind.DATA_ITEM
_READY = ClientOutcome.READY
_BS = ReportKind.BIT_SEQUENCES
_DROP_ALL = Invalidation.drop_all()
_DELIVER = Fate.DELIVER
_CORRUPT = Fate.CORRUPT


class MobileClient:
    """One mobile host in the cell."""

    def __init__(
        self,
        env: Environment,
        client_id: int,
        params,
        policy,
        query_pattern,
        downlink: Channel,
        uplink: Channel,
        metrics: MetricSet,
        streams,
        update_log=None,
        ir_channel: Channel = None,
        query_log=None,
        timeseries=None,
        cell_id: int = 0,
        pool=None,
        resume=None,
    ):
        self.env = env
        self.client_id = client_id
        #: Which cell's base station this client is associated with.
        self.cell_id = cell_id
        self.params = params
        self.policy = policy
        self.query_pattern = query_pattern
        self.downlink = downlink
        self.uplink = uplink
        self.metrics = metrics
        self.update_log = update_log
        self.query_log = query_log
        self.timeseries = timeseries
        self.cache = ClientCache(params.cache_capacity)

        #: Last-heard report timestamp (the paper's ``Tlb``).  Clients
        #: start coherent: at t=0 the (empty) cache matches the database.
        self.tlb: float = 0.0
        self.connected = True
        self._query_active = False
        self._validation_pending = False
        self._validation_epoch = 0
        self._watchdog_armed = False
        #: Timestamp of the last report this client *decoded* while
        #: listening (None right after a reconnection, when a gap is
        #: expected rather than evidence of loss).  Drives missed-report
        #: detection under fault injection.
        self._last_report_heard: Optional[float] = 0.0
        #: Timestamp of the last report *applied*, for repetition-coding
        #: dedup: a second copy of the same report must be counted and
        #: discarded, never re-run through the policy (re-applying an
        #: uncovered report would wrongly escalate the adaptive schemes'
        #: ask-once salvage protocol to a full cache drop).
        self._last_report_applied: Optional[float] = None
        #: Server incarnation epoch of the last report applied.  A report
        #: carrying a different epoch (or a timeline regression) means
        #: the server restarted and the history behind our ``Tlb`` is
        #: gone — the epoch state machine in :meth:`_on_downlink` purges.
        self._report_epoch = 0
        #: Cell whose epoch timeline ``_report_epoch`` belongs to.  None
        #: right after a handoff: the first report heard in the new cell
        #: adopts its ``(cell, epoch)`` pair without purging — protocol
        #: timestamps are global, so certifications travel with the
        #: client (see docs/PROTOCOLS.md).
        self._report_cell: Optional[int] = cell_id
        #: Roaming hook installed by the multi-cell model (None at N=1 —
        #: an attribute test per wake-up, nothing more).  Called with
        #: ``(client, now)`` when the client wakes from a disconnection.
        self._roam = None
        #: Clock error injected by the chaos layer (see ClockModel):
        #: defaults are a perfect clock and are exactly free — ``d * 1.0``
        #: is bit-identical in IEEE arithmetic.
        self._clock_rate = 1.0
        self._clock_skew = 0.0

        self._ready_waiters: Optional[Event] = None
        self._data_waits: Dict[int, Event] = {}

        # Hot-path metric handles, resolved once (docs/PERFORMANCE.md):
        # every query/IR/fetch used to pay a string-keyed dict lookup.
        bind = metrics.bind_counter
        self._m_queries_generated = bind(m.QUERIES_GENERATED)
        self._m_queries_answered = bind(m.QUERIES_ANSWERED)
        self._m_items_served = bind(m.ITEMS_SERVED)
        self._m_cache_hits = bind(m.CACHE_HITS)
        self._m_cache_misses = bind(m.CACHE_MISSES)
        self._m_stale_hits = bind(m.STALE_HITS)
        self._m_cache_drops = bind(m.CACHE_DROPS)
        self._m_disconnections = bind(m.DISCONNECTIONS)
        self._m_uplink_validation_bits = bind(m.UPLINK_VALIDATION_BITS)
        self._m_uplink_request_bits = bind(m.UPLINK_REQUEST_BITS)
        self._m_tlb_uploads = bind(m.TLB_UPLOADS)
        self._m_checks_sent = bind(m.CHECKS_SENT)
        self._m_ir_duplicates = bind(m.IR_DUPLICATES)
        self._m_ir_gaps = bind(m.IR_GAPS)
        self._m_epoch_purges = bind(m.EPOCH_PURGES, sparse=True)
        self._m_roam_lagged = bind(m.ROAM_LAGGED_REPORTS, sparse=True)
        self._m_energy_tx = bind(ENERGY_TX)
        self._m_energy_rx = bind(ENERGY_RX)
        self._m_latency_tally = metrics.bind_tally(m.QUERY_LATENCY)
        self._m_latency_hist = metrics.bind_histogram(m.QUERY_LATENCY, base=0.1)
        # Per-bit energy costs hoisted out of the per-message charge path.
        self._tx_nj_per_bit = params.energy.tx_nj_per_bit
        self._rx_nj_per_bit = params.energy.rx_nj_per_bit

        self._think_stream = streams.stream(f"client-{client_id}/think")
        self._query_stream = streams.stream(f"client-{client_id}/query")
        self._disc_stream = streams.stream(f"client-{client_id}/disconnect")
        #: Jittered-backoff stream; only created when the retry layer is
        #: on, keeping the pristine configuration untouched.
        self._retry_stream = (
            streams.stream(f"client-{client_id}/retry")
            if params.retries_enabled
            else None
        )

        if resume is None and params.warm_start:
            warm_stream = streams.stream(f"client-{client_id}/warm")
            for item in query_pattern.warm_fill(warm_stream, params.cache_capacity):
                # Version 0 at ts 0: coherent with the untouched database.
                self.cache.insert(CacheEntry(item=item, version=0, ts=0.0))

        #: Population pool this client may be absorbed into on a long
        #: doze (None with aggregation off — one attribute test per doze).
        self._pool = pool
        self._resumed = resume is not None
        if resume is not None:
            # Promoted from the population pool: start mid-doze with the
            # reconstructed stratum cache; :meth:`wake_from_pool` then
            # runs the ordinary reconnect transition.
            self.cache = resume.cache
            self.tlb = resume.tlb
            self._report_epoch = resume.report_epoch
            self._report_cell = resume.report_cell
            self._clock_rate = resume.clock_rate
            self._clock_skew = resume.clock_skew
            self.connected = False
            self._last_report_heard = None

        self._ir_channel = ir_channel
        self._attach_radio(downlink, ir_channel, listening=resume is None)
        env.process(self._query_loop(), name=f"client-{client_id}-query")

    def __repr__(self):
        state = "up" if self.connected else "down"
        return f"<MobileClient {self.client_id} {state} tlb={self.tlb}>"

    # -- scheme-facing context API ----------------------------------------------

    @property
    def is_idle(self) -> bool:
        """True when neither a query nor a validation is in flight."""
        return not self._query_active and not self._validation_pending

    def send_tlb(self, tlb: float):
        """Upload the last-heard timestamp (adaptive schemes)."""
        size = tlb_upload_bits(self.params.timestamp_bits)
        self._m_uplink_validation_bits.add(size)
        self._m_tlb_uploads.add()
        self._charge_tx(size)
        self.uplink.send(
            Message(
                kind=MessageKind.TLB_UPLOAD,
                size_bits=size,
                src=self.client_id,
                dest=SERVER_ID,
                payload=tlb,
            )
        )

    def send_check_request(self, entries, size_bits: Optional[float] = None):
        """Upload cached (item, timestamp) pairs for validity checking."""
        if size_bits is None:
            size_bits = checking_upload_bits(
                len(entries), self.params.db_size, self.params.timestamp_bits
            )
        self._m_uplink_validation_bits.add(size_bits)
        self._m_checks_sent.add()
        self._charge_tx(size_bits)
        self.uplink.send(
            Message(
                kind=MessageKind.CHECK_REQUEST,
                size_bits=size_bits,
                src=self.client_id,
                dest=SERVER_ID,
                payload=list(entries),
            )
        )

    def note_cache_drop(self):
        """Metrics hook for full cache discards."""
        self._m_cache_drops.add()

    # -- chaos-facing API (repro.chaos.ChaosInjector) ---------------------------

    def set_clock(self, clock):
        """Install this client's :class:`~repro.chaos.ClockModel` (None =
        perfect clock, the default)."""
        if clock is None:
            return
        self._clock_skew = clock.start_offset
        self._clock_rate = clock.rate

    def crash(self, now: float):
        """Instant reboot with all volatile state lost.

        The cache, ``Tlb``, report bookkeeping and any in-flight
        validation die; a fresh :class:`ClientCache` also resets the
        certification floor (``drop_all`` deliberately does not).  The
        query loop itself survives — a rebooted host resumes its user —
        and in-flight data waiters are kept so an already-transmitted
        response still terminates its query (the value is inserted
        non-suspect against ``tlb = 0`` and is coherent at serve time).
        """
        self.cache = ClientCache(self.params.cache_capacity)
        self.tlb = 0.0
        self._last_report_heard = None
        self._last_report_applied = None
        self._validation_pending = False
        # The policy's per-episode latches must not outlive the reboot
        # (a pre-crash checking upload's reply must not be awaited).
        self.policy.on_reconnect(self, now)
        self._fire_ready()

    # -- roaming (driven by repro.sim.multicell.MultiCellModel) -----------------

    def hand_off(self, cell_id: int, downlink: Channel, uplink: Channel,
                 ir_channel: Optional[Channel] = None):
        """Re-associate with *cell_id*'s base station.

        The radio re-attaches to the new cell's channels (keeping its
        doze/wake state); cache, ``Tlb`` and all certifications travel
        untouched — timestamps are global, so the new cell's reports
        judge them honestly.  Report bookkeeping resets to the
        "just (re)connected" state: the first report heard here adopts
        the new cell's (cell, epoch) identity, and a gap is expected
        rather than evidence of wireless loss.  Any exchange in flight
        toward the old cell is stranded; the retry layer re-issues it on
        the new uplink (roaming therefore requires ``uplink_timeout``).
        """
        self.downlink.detach(self._on_downlink)
        if self._ir_channel is not None:
            self._ir_channel.detach(self._on_downlink)
        self.downlink = downlink
        self.uplink = uplink
        self._ir_channel = ir_channel
        self._attach_radio(downlink, ir_channel, listening=self.connected)
        self.cell_id = cell_id
        self._report_cell = None
        self._last_report_applied = None
        self._last_report_heard = None

    # -- population pool (driven by repro.sim.population) -----------------------

    def wake_from_pool(self, now: float):
        """Complete a promotion: the exact model's doze-wake sequence.

        Mirrors the reconnect tail of :meth:`_inter_query_gap` — roam
        check first (while still down, as on an ordinary wake), then
        radio up and the policy's promotion hook (which defaults to the
        reconnect reset).  The query loop itself was started by
        ``__init__`` and resumes at the post-doze instruction.
        """
        if self._roam is not None:
            self._roam(self, now)
        self.connected = True
        self._set_listening(True)
        self._validation_pending = False
        # Reports missed while pooled are expected, not wireless loss.
        self._last_report_heard = None
        self.policy.on_promote(self, now)

    def _charge_tx(self, bits: float):
        self._m_energy_tx.add(self._tx_nj_per_bit * bits)

    def _charge_rx(self, bits: float):
        self._m_energy_rx.add(self._rx_nj_per_bit * bits)

    # -- downlink handling -----------------------------------------------------

    def _attach_radio(self, downlink: Channel, ir_channel: Optional[Channel],
                      listening: bool):
        """Attach to a cell's downlink (and report channel, if any); the
        client is the receiver's owner, so :func:`report_intake` can
        certify it without the callback."""
        for channel in (downlink, ir_channel):
            if channel is not None:
                channel.attach(
                    self._on_downlink,
                    dest=self.client_id,
                    listening=listening,
                    owner=self,
                )

    def _set_listening(self, on: bool):
        """Doze/wake the radio: gate broadcast dispatch at the channel.

        While dozing, the channel skips this client entirely (no handler
        call, no fault judgment) — the ``connected`` check in
        :meth:`_on_downlink` stays as defence in depth.
        """
        self.downlink.set_listening(self._on_downlink, on)
        if self._ir_channel is not None:
            self._ir_channel.set_listening(self._on_downlink, on)

    def _on_downlink(self, msg: Message, now: float):
        if not self.connected:
            return
        if msg.corrupted:
            self._on_corrupted(msg)
            return
        if msg.kind is _IR:
            # A model's channels route reports through report_intake,
            # which sends only listeners with something at stake here:
            # this arm is the full certification state machine.
            self._m_energy_rx.add(self._rx_nj_per_bit * msg.size_bits)
            report = msg.payload
            # Every report's dedup_key IS its timestamp (reports.base);
            # the direct read skips a property call per listener.
            report_ts = report.timestamp
            prev_applied = self._last_report_applied
            if report_ts == prev_applied:
                # A repetition-coded copy of a report already processed:
                # count the discard (the radio still listened) and stop.
                self._m_ir_duplicates.add()
                return
            epoch = report.epoch
            if self._report_cell is None:
                # First report after a handoff: adopt the new cell's
                # (cell, epoch) identity without purging.  Protocol
                # timestamps are global, so everything certified under
                # the old cell stays certified — the coverage checks
                # below judge it against this cell's history honestly.
                self._report_cell = report.cell
                self._report_epoch = epoch
            elif epoch != self._report_epoch or report.cell != self._report_cell or (
                prev_applied is not None and report_ts < prev_applied
            ):
                # The server restarted under us (a timeline regression is
                # the same symptom, detected belt-and-braces): everything
                # we certified against the old incarnation's history is
                # void.  Purge via the scheme (default: full drop), then
                # resynchronise Tlb to the new timeline so this very
                # report certifies the emptied cache.
                self._m_epoch_purges.add()
                self.policy.on_epoch_change(self, self._report_epoch, epoch, now)
                self._report_cell = report.cell
                self._report_epoch = epoch
                self._validation_pending = False
                self._last_report_heard = None
                self.tlb = report_ts
            if report_ts < self.tlb:
                # A lagging cell: the roamer's Tlb already certifies past
                # this report's horizon, so applying it would regress
                # knowledge (and wrongly purge).  Skip it; queries may
                # proceed unless an unreconciled fetch needs a report.
                self._m_roam_lagged.add()
                if not self.cache.unreconciled:
                    self._fire_ready()
                return
            self._last_report_applied = report_ts
            # Missed-report detection, inlined: a decoded report one
            # interval after the previous one (the overwhelmingly common
            # case) needs no gap analysis.
            last = self._last_report_heard
            self._last_report_heard = report_ts
            if last is not None and round(
                (report_ts - last) / self.params.broadcast_interval
            ) > 1:
                self._on_report_gap(report_ts, last, now)
            outcome = self.policy.on_report(self, report)
            if outcome is _READY:
                self._validation_pending = False
                waiter = self._ready_waiters
                if waiter is not None:
                    self._ready_waiters = None
                    waiter.succeed()
            else:
                if not self._validation_pending:
                    self._validation_pending = True
                    self._validation_epoch += 1
                self._arm_validation_watchdog()
        elif msg.kind is _VALIDITY and msg.dest == self.client_id:
            if not self._validation_pending:
                # A reply to a check from a previous connection episode
                # (we dozed after uploading and woke before its delivery).
                # Applying it would certify state it never validated —
                # in particular it would clear suspect marks; drop it.
                return
            self._charge_rx(msg.size_bits)
            invalid, certified_at = msg.payload
            self.policy.on_validity_reply(self, invalid, certified_at)
            self._validation_pending = False
            self._fire_ready()
        elif msg.kind is _DATA:
            payload = msg.payload
            if payload.get("pushed"):
                self._on_pushed_item(msg, payload)
            elif self.client_id in payload["requesters"]:
                self._charge_rx(msg.size_bits)
                waiter = self._data_waits.pop(payload["item"], None)
                if waiter is not None:
                    waiter.succeed(payload)

    def _on_corrupted(self, msg: Message):
        """A frame arrived with bit errors: undecodable, treat as lost.

        A corrupted report is indistinguishable from a missed one — the
        gap shows up in the next decodable report's timestamp and the
        scheme's ordinary coverage/salvage logic recovers.  Corrupted
        data items and validity reports are recovered by the retry
        layer's timeouts.
        """
        if msg.kind is MessageKind.INVALIDATION_REPORT:
            # The radio listened either way; the bits were garbage.
            self._charge_rx(msg.size_bits)
            self.metrics.counter(m.IR_CORRUPTED).add()

    def _on_report_gap(self, report_ts: float, last: float, now: float):
        """Missed-report handling: reports arrive at every ``i * L``, so
        a decoded report more than one interval past the previous one —
        while this client was listening throughout — means the wireless
        hop ate reports.  (The no-gap common case is screened inline in
        :meth:`_on_downlink`.)"""
        interval = self.params.broadcast_interval
        n_missed = int(round((report_ts - last) / interval)) - 1
        self._m_ir_gaps.add(n_missed)
        la = self.params.loss_adaptation
        if la is not None and la.nack:
            self._send_ir_nack(n_missed)
        self.policy.on_missed_reports(self, n_missed, now)

    def _send_ir_nack(self, n_missed: int):
        """Upload a loss hint: *n_missed* reports provably lost on the air.

        The server's loss estimator aggregates these into the widened
        ``w_eff``; the hint rides the checking priority class and is
        priced like a ``Tlb`` upload.
        """
        size = nack_upload_bits(self.params.timestamp_bits)
        self._m_uplink_validation_bits.add(size)
        self.metrics.counter(m.NACK_BITS).add(size)
        self.metrics.counter(m.NACKS_SENT).add()
        self._charge_tx(size)
        self.uplink.send(
            Message(
                kind=MessageKind.IR_NACK,
                size_bits=size,
                src=self.client_id,
                dest=SERVER_ID,
                payload=n_missed,
            )
        )

    def _on_pushed_item(self, msg: Message, payload: dict):
        """Publishing mode: refresh or prefetch a broadcast item.

        A pushed item refreshes an existing cache entry, satisfies a
        pending fetch for the same item, or prefetches into the cache
        when the item lies in this client's hot query region — all
        without uplink traffic.
        """
        item = payload["item"]
        waiter = self._data_waits.pop(item, None)
        interested = (
            waiter is not None
            or item in self.cache
            or (
                self.query_pattern.hot is not None
                and self.query_pattern.hot.contains(item)
            )
        )
        if not interested:
            return
        self._charge_rx(msg.size_bits)
        coherent_ts = payload["coherent_ts"]
        self.cache.insert(
            CacheEntry(item=item, version=payload["version"], ts=coherent_ts),
            suspect=coherent_ts < self.tlb,
        )
        self.metrics.counter(m.PUBLISH_REFRESHES).add()
        if waiter is not None:
            waiter.succeed(payload)

    def _fire_ready(self):
        if self._ready_waiters is not None:
            self._ready_waiters.succeed()
            self._ready_waiters = None

    def _wait_cache_ready(self) -> Event:
        """Event firing at the next report/reply that certifies the cache."""
        if self._ready_waiters is None:
            self._ready_waiters = self.env.event()
        return self._ready_waiters

    # -- query processing ----------------------------------------------------------

    def _inter_query_gap(self):
        """Think or disconnect between queries (the paper's alternation)."""
        env = self.env
        params = self.params
        if self._disc_stream.bernoulli(params.disconnect_prob):
            self.connected = False
            self._set_listening(False)
            self._m_disconnections.add()
            self.policy.on_disconnect(self, env.now)
            doze = (
                self._disc_stream.exponential(params.disconnect_time_mean)
                * self._clock_rate
            )
            pool = self._pool
            if pool is not None and pool.try_absorb(self, doze):
                # Absorbed into the population pool: shed the radio and
                # end this actor.  The pool's seeded wake promotes a
                # reconstructed replacement at exactly ``now + doze`` —
                # the instant this sleep would have returned.
                self.downlink.detach(self._on_downlink)
                if self._ir_channel is not None:
                    self._ir_channel.detach(self._on_downlink)
                return True
            yield env.sleep(doze)
            if self._roam is not None:
                # Multi-cell: a waking client may find itself under a
                # different base station (it moved while dozing).
                self._roam(self, env.now)
            self.connected = True
            self._set_listening(True)
            self._validation_pending = False
            # Reports missed while dozing are expected, not wireless loss.
            self._last_report_heard = None
            self.policy.on_reconnect(self, env.now)
        else:
            # Locally timed waits run on the (possibly drifting) local
            # clock; rate 1.0 multiplies out bit-identically.
            yield env.sleep(
                self._think_stream.exponential(params.think_time_mean)
                * self._clock_rate
            )

    def _query_loop(self):
        env = self.env
        params = self.params
        if self._clock_skew > 0.0 and not self._resumed:
            # Clock skew shows up as a phase offset of the client's local
            # activity (protocol timestamps all originate at the server).
            # Chaos-only: a perfect clock schedules no event here.
            yield env.sleep(self._clock_skew)
        first = self._resumed
        while True:
            if first:
                # Promoted mid-cycle: the doze that absorbed this client
                # IS the inter-query gap, so go straight to the query —
                # the instruction the exact model resumes at after its
                # doze sleep returns.
                first = False
            elif (yield from self._inter_query_gap()):
                # Absorbed into the population pool: this actor is done.
                return
            self._query_active = True
            started = env.now
            self._m_queries_generated.add()
            # Listen to the next invalidation report before answering
            # (Section 2), waiting out any pending validation.
            yield self._wait_cache_ready()
            hits = 0
            for _ in range(params.items_per_query):
                item = self.query_pattern.pick(self._query_stream)
                hits += yield from self._access_item(item)
                self._m_items_served.add()
            self._m_queries_answered.add()
            if self.timeseries is not None:
                self.timeseries["answered"].record(env.now)
            latency = env.now - started
            self._m_latency_tally.observe(latency)
            self._m_latency_hist.observe(latency)
            if self.query_log is not None:
                from .querylog import QueryRecord

                self.query_log.record(
                    QueryRecord(
                        client_id=self.client_id,
                        started=started,
                        answered=env.now,
                        items=params.items_per_query,
                        hits=hits,
                        misses=params.items_per_query - hits,
                    )
                )
            self._query_active = False

    def _access_item(self, item: int):
        """Serve one item access; returns 1 for a cache hit, 0 for a miss."""
        entry = self.cache.lookup(item)
        if entry is not None:
            self._m_cache_hits.add()
            if self.timeseries is not None:
                self.timeseries["hits"].record(self.env.now)
            if (
                self.params.track_staleness
                and self.update_log is not None
                and self.update_log.updated_in(item, after=entry.ts, up_to=self.tlb)
            ):
                self._m_stale_hits.add()
                if self.params.strict_staleness:
                    # The hard safety oracle: die loudly at the first
                    # unsafe answer, with the full conviction trace.
                    # Lazy import keeps the layering DAG intact (ARCH001:
                    # chaos sits above sim); this path is cold by design.
                    from ..chaos.oracle import StalenessViolation

                    raise StalenessViolation(
                        client_id=self.client_id,
                        item=item,
                        entry_version=entry.version,
                        entry_ts=entry.ts,
                        effective_ts=self.cache.effective_ts(entry),
                        tlb=self.tlb,
                        certified_floor=self.cache.certified_floor,
                        epoch=self._report_epoch,
                        now=self.env.now,
                        update_times=self.update_log.updates_of(item),
                    )
            return 1
        self._m_cache_misses.add()
        if self.timeseries is not None:
            self.timeseries["misses"].record(self.env.now)
        payload = yield from self._fetch(item)
        if payload is None:
            # Every retry lost on the air: the item goes unserved this
            # query (counted in client.fetch_failures) — but the query
            # itself terminates instead of hanging forever.
            return 0
        coherent_ts = payload["coherent_ts"]
        # A fetch whose response crossed a report boundary carries a value
        # older than the client's knowledge horizon; mark it suspect so
        # the scheme reconciles it at the next report.
        self.cache.insert(
            CacheEntry(item=item, version=payload["version"], ts=coherent_ts),
            suspect=coherent_ts < self.tlb,
        )
        return 0

    def _send_data_request(self, item: int):
        size = self.params.control_message_bits
        self._m_uplink_request_bits.add(size)
        self._charge_tx(size)
        self.uplink.send(
            Message(
                kind=MessageKind.DATA_REQUEST,
                size_bits=size,
                src=self.client_id,
                dest=SERVER_ID,
                payload=item,
            )
        )

    def _backoff_delay(self, attempt: int) -> float:
        """Timeout for *attempt* (0-based): exponential with +-jitter."""
        params = self.params
        delay = params.uplink_timeout * (params.backoff_base ** attempt)
        if params.backoff_jitter > 0.0:
            delay *= 1.0 + params.backoff_jitter * self._retry_stream.uniform(
                -1.0, 1.0
            )
        # Retry timers run on the local (possibly drifting) clock.
        return delay * self._clock_rate

    def _fetch(self, item: int):
        """Request *item* over the uplink; wait for the broadcast response.

        With the retry layer on (``params.uplink_timeout``), a response
        that does not arrive in time triggers a retransmission with
        exponential backoff and jitter; after ``max_retries``
        retransmissions the fetch gives up and returns None.  A late
        response still satisfies the original waiter (the request is
        idempotent — the server rereads the current value).
        """
        waiter = self._data_waits.get(item)
        if waiter is None:
            waiter = self.env.event()
            self._data_waits[item] = waiter
            self._send_data_request(item)
        if self._retry_stream is None:
            payload = yield waiter
            return payload
        attempt = 0
        while True:
            timeout = self.env.timeout(self._backoff_delay(attempt))
            yield self.env.any_of([waiter, timeout])
            if waiter.triggered:
                return waiter.value
            attempt += 1
            self.metrics.counter(m.FETCH_TIMEOUTS).add()
            if attempt > self.params.max_retries:
                self.metrics.counter(m.FETCH_FAILURES).add()
                if self._data_waits.get(item) is waiter:
                    del self._data_waits[item]
                return None
            self.metrics.counter(m.RETRIES).add()
            self._send_data_request(item)

    # -- validation recovery ---------------------------------------------------

    def _arm_validation_watchdog(self):
        """Bound the wait for a validity/rescue reply (retry layer only)."""
        if self._retry_stream is None or self._watchdog_armed:
            return
        self._watchdog_armed = True
        self.env.process(
            self._validation_watchdog(),
            name=f"client-{self.client_id}-watchdog",
        )

    def _validation_watchdog(self):
        """Timeout + bounded retries around a pending validation.

        Each timeout asks the policy to re-issue its upload
        (``on_validation_timeout``); once retries are exhausted — or the
        policy cannot retry — the client degrades gracefully: drop the
        cache (an empty cache is trivially consistent), release the
        stalled query, and let the next report resynchronise ``tlb``.
        """
        env = self.env
        try:
            while self._validation_pending and self.connected:
                # One inner pass per validation episode; a fresh episode
                # beginning while we sleep restarts the timing.
                epoch = self._validation_epoch
                attempt = 0
                while True:
                    yield env.sleep(self._backoff_delay(min(attempt, 8)))
                    if (
                        not self._validation_pending
                        or self._validation_epoch != epoch
                        or not self.connected
                    ):
                        break
                    attempt += 1
                    self.metrics.counter(m.VALIDATION_TIMEOUTS).add()
                    if (
                        attempt <= self.params.max_retries
                        and self.policy.on_validation_timeout(self, env.now)
                    ):
                        self.metrics.counter(m.RETRIES).add()
                        continue
                    self.cache.drop_all()
                    self.note_cache_drop()
                    # Tell the policy its in-flight exchange is dead (the
                    # reconnect hook is exactly this reset).
                    self.policy.on_reconnect(self, env.now)
                    self._validation_pending = False
                    self._fire_ready()
                    return
        finally:
            self._watchdog_armed = False


def report_intake(msg: Message, receivers, fates, now: float):
    """A cell channel's invalidation-report intake (``Channel.on_broadcast``).

    The paper's economics are one broadcast for N listeners, and most
    listeners have nothing at stake in a given report.  The intake walks
    the channel's listening snapshot once, in attach order.  A listener
    takes the *quiet* arm when its policy applies the report's kind with
    the plain TS/BS semantics (``ClientPolicy.quiet_kinds``) and all of
    these hold (docs/PROTOCOLS.md, "Quiet listeners"):

    * the copy is intact, the client is connected and no validation is
      pending;
    * the report is from the client's own (cell, epoch) timeline, newer
      than the last one applied and not older than ``Tlb``;
    * no report went missing since the last one heard;
    * the cache holds no suspect entry;
    * the report covers ``Tlb`` and names no item the cache holds
      (window: ``fresh_since(floor)``; BS: ``invalidation_for(Tlb)``).

    The quiet arm is exactly what :meth:`MobileClient._on_downlink`
    would end in: ``Tlb`` and the report bookkeeping move to T, the
    cache certifies as of T and the query waiting on the report wakes.
    Every other listener (and every ownerless receiver) gets its
    callback, in order.

    The clients of one channel share params and metrics.  So the gap
    test may be memoized across listeners on the last-heard time alone,
    and the quiet listeners' receive energy is summed after the loop:
    every addend of one delivery is the same ``rx_nj_per_bit *
    size_bits`` into the same counter, and the total is bit-identical to
    charging them one by one.
    """
    report = msg.payload
    t = report.timestamp
    kind = report.kind
    epoch = report.epoch
    cell = report.cell
    bs = kind is _BS
    # Per-broadcast screen inputs; a kind no policy takes quietly never
    # gets past the quiet_kinds test, so its placeholders go unread.
    windowed = kind in WINDOW_KINDS
    window_start = report.window_start if windowed else t
    newest = report.newest_ts if windowed else t
    ts_b0 = report.ts_b0 if bs else t
    # One tick's listeners overwhelmingly share a policy class, a
    # last-heard time, a certification floor and a Tlb, so the screen's
    # derived values are memoized on them across the loop.
    seen_kinds = None
    kind_quiet = False
    no_gap_heard = None
    fresh_floor = None
    fresh_items: list = []
    inv_tlb = None
    inv = _DROP_ALL
    quiet = None
    n_quiet = 0
    corrupted = None
    for rec, fate in zip(receivers, repeat(_DELIVER) if fates is None else fates):
        if fate is not _DELIVER:
            if fate is _CORRUPT:
                if corrupted is None:
                    corrupted = corrupted_copy(msg, now)
                rec.callback(corrupted, now)
            continue
        client = rec.owner
        if client is None or not client.connected or client._validation_pending:
            rec.callback(msg, now)
            continue
        kinds = client.policy.quiet_kinds
        if kinds is not seen_kinds:
            seen_kinds = kinds
            kind_quiet = kind in kinds
        applied = client._last_report_applied
        tlb = client.tlb
        cache = client.cache
        if (
            not kind_quiet
            or client._report_epoch != epoch
            or client._report_cell != cell
            or (applied is not None and t <= applied)
            or t < tlb
            or cache.unreconciled
        ):
            rec.callback(msg, now)
            continue
        last = client._last_report_heard
        if last is not None and last != no_gap_heard:
            if round((t - last) / client.params.broadcast_interval) > 1:
                rec.callback(msg, now)
                continue
            no_gap_heard = last
        if bs:
            if tlb < ts_b0:
                if tlb != inv_tlb:
                    inv_tlb = tlb
                    inv = report.invalidation_for(tlb)
                if not inv.covered or cache.holds_any(inv.items):
                    rec.callback(msg, now)
                    continue
        elif tlb < window_start:
            rec.callback(msg, now)
            continue
        else:
            floor = cache.certified_floor
            if newest > floor:
                if floor != fresh_floor:
                    fresh_floor = floor
                    fresh_items = [item for item, _ts in report.fresh_since(floor)]
                if cache.holds_any(fresh_items):
                    rec.callback(msg, now)
                    continue
        client.tlb = t
        client._last_report_applied = t
        client._last_report_heard = t
        cache.certify(t)
        waiter = client._ready_waiters
        if waiter is not None:
            client._ready_waiters = None
            waiter.succeed()
        quiet = client
        n_quiet += 1
    if quiet is not None:
        charge = quiet._rx_nj_per_bit * msg.size_bits
        counter = quiet._m_energy_rx
        total = counter.value
        for _ in range(n_quiet):
            total += charge
        counter.value = total
