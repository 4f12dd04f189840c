"""Multi-cell assembly: per-cell servers, inter-server sync, roaming.

Extends :class:`~repro.sim.model.SimulationModel` through its three cell
hooks.  Cell 0 (the gateway) *is* the base model's server — origin
database, original channels, unchanged behaviour — so an ``n_cells = 1``
topology builds nothing extra and stays bit-identical to a run without
the roaming knob group (pinned by tests/sim/test_multicell.py).  Every
other cell gets its own channel set, a replica database behind a
:class:`~repro.sim.propagation.CellSynchronizer`, and (optionally) a
:class:`~repro.sim.propagation.CellCooperator` asking its graph
neighbors to backfill roamers' missing history.

Roaming is seeded per client (streams ``roam/client-<id>``): a client
waking from a doze may hand off to a random alive neighbor cell — and
*must* flee somewhere alive if its own cell is down.  Whole-cell outages
(:meth:`crash_cell` / :meth:`restart_cell`, driven by the chaos layer)
evacuate every resident to surviving neighbor cells, forcing the roaming
storms the acceptance campaign exercises.
"""

from __future__ import annotations

from typing import List, Optional

from ..db import Database
from ..db.database import NEVER
from ..net import Channel, PRIORITY_CHECK, PRIORITY_IR
from ..net.intercell import InterCellLink
from ..topology import EAGER_PUSH, PARENT_CACHE
from . import metrics as m
from .model import SimulationModel
from .propagation import CellCooperator, CellSynchronizer, OriginFeed
from .server import Server


class MultiCellModel(SimulationModel):
    """A wired graph of cells around the base model's gateway."""

    def __init__(self, params, workload, scheme):
        roaming = params.roaming
        self.roaming = roaming
        self.graph = roaming.topology.build()
        self._eager = roaming.propagation == EAGER_PUSH
        super().__init__(params, workload, scheme)
        if self.n_cells > 1:
            for client in self.clients:
                client._roam = self._roam_on_wake

    # -- construction (SimulationModel hooks) -----------------------------------

    def _build_cells(self):
        graph = self.graph
        n = graph.n_cells
        self.n_cells = n
        # Index = cell id; cell 0 reuses the base model's gateway parts.
        self.cell_servers: List[Server] = [self.server]
        self.cell_downlinks: List[Channel] = [self.downlink]
        self.cell_uplinks: List[Channel] = [self.uplink]
        self.cell_ir_channels: List[Optional[Channel]] = [self.ir_channel]
        self.synchronizers: List[Optional[CellSynchronizer]] = [None]
        self.cooperators: List[Optional[CellCooperator]] = [None]
        self.feed: Optional[OriginFeed] = None
        if n == 1:
            return
        params = self.params
        roaming = self.roaming
        env = self.env
        self.feed = OriginFeed(env, self.server, params, roaming, self.metrics)
        parent_mode = roaming.propagation == PARENT_CACHE
        # Per-depth scheduling slot: one full ask-answer exchange plus
        # slack, so a parent's refresh lands before its children ask.
        slot = roaming.sync_margin + 2.0 * roaming.topology.link_latency
        for cell in range(1, n):
            downlink = Channel(
                env,
                params.downlink_bps,
                name=f"downlink-{cell}",
                preempt_threshold=PRIORITY_IR,
                faults=self._fault_model(params.downlink_faults, f"downlink-{cell}"),
            )
            uplink = Channel(
                env,
                params.effective_uplink_bps,
                name=f"uplink-{cell}",
                preempt_threshold=PRIORITY_CHECK,
                faults=self._fault_model(params.uplink_faults, f"uplink-{cell}"),
            )
            ir_channel = (
                Channel(
                    env,
                    params.ir_channel_bps,
                    name=f"ir-channel-{cell}",
                    preempt_threshold=PRIORITY_IR,
                    faults=self._fault_model(
                        params.downlink_faults, f"ir-channel-{cell}"
                    ),
                )
                if params.ir_channel_bps is not None
                else None
            )
            self._route_reports(downlink, ir_channel)
            replica = Database(params.db_size)
            policy = self.scheme.make_server_policy(params, replica)
            server = Server(
                env,
                params,
                replica,
                policy,
                downlink=downlink,
                uplink=uplink,
                metrics=self.metrics,
                ir_channel=ir_channel,
                cell_id=cell,
            )
            if parent_mode:
                feed_cell = graph.parent_of(cell)
                # Builders guarantee parents carry smaller ids, so the
                # parent's synchronizer already exists (or is the feed).
                feed = self.feed if feed_cell == 0 else self.synchronizers[feed_cell]
                latency = graph.link_latency(feed_cell, cell)
                lead = slot * (graph.max_depth - graph.depth(cell) + 1)
            else:
                feed = self.feed
                latency = graph.gateway_latency(cell)
                lead = roaming.sync_margin + 2.0 * latency
            sync = CellSynchronizer(
                env,
                server,
                feed,
                self._make_link(latency, f"intercell/{cell}"),
                params,
                roaming,
                self.metrics,
                lead=lead,
                pull=not self._eager,
            )
            if self._eager:
                self.feed.subscribe(sync, sync.link)
            self.cell_servers.append(server)
            self.cell_downlinks.append(downlink)
            self.cell_uplinks.append(uplink)
            self.cell_ir_channels.append(ir_channel)
            self.synchronizers.append(sync)
        if roaming.cooperative_salvage:
            # Second pass: every fed cell may ask each graph neighbor
            # (the gateway included — it holds the deepest history).
            for cell in range(1, n):
                coop = CellCooperator(
                    env, self.cell_servers[cell], roaming, self.metrics
                )
                for neighbor in graph.neighbors(cell):
                    coop.add_peer(
                        neighbor,
                        self.cell_servers[neighbor],
                        self._make_link(
                            graph.link_latency(cell, neighbor),
                            f"coop/{cell}-{neighbor}",
                        ),
                    )
                self.cooperators.append(coop)
        else:
            self.cooperators.extend([None] * (n - 1))

    def _make_link(self, latency: float, stream_name: str) -> InterCellLink:
        loss = self.roaming.link_loss_prob
        stream = self.streams.stream(stream_name) if loss > 0.0 else None
        return InterCellLink(self.env, latency, loss, stream)

    def _client_home(self, cid: int):
        cell = cid % self.n_cells
        return (cell,) + self._cell_channels(cell)

    def _home_cells(self, ids):
        return ids % self.n_cells

    def _cell_channels(self, cell_id: int):
        return (
            self.cell_downlinks[cell_id],
            self.cell_uplinks[cell_id],
            self.cell_ir_channels[cell_id],
        )

    def _finish_promote(self, client):
        # A promoted client roams on wake like everyone else.
        if self.n_cells > 1:
            client._roam = self._roam_on_wake

    # -- origin updates ---------------------------------------------------------

    def _on_item_update(self, item: int, now: float):
        super()._on_item_update(item, now)
        feed = self.feed
        if feed is not None and self._eager and not self.server.crashed:
            # A dead gateway pushes nothing: the update reaches the
            # durable origin database only, and the replicas' horizons
            # stall until the repair pull after the restart.
            feed.push_update(item, now)

    # -- roaming ----------------------------------------------------------------

    def _roam_stream(self, cid: int):
        return self.streams.stream(f"roam/client-{cid}")

    def _roam_on_wake(self, client, now: float):
        """Wake-time handoff decision (installed as ``client._roam``).

        Voluntary roams draw ``roam_prob`` per wake-up and pick a random
        alive neighbor; a client waking inside a crashed cell must flee
        regardless — to an alive neighbor, else to any alive cell (it
        physically moved out of the dead zone), else it stays and waits
        the outage out.
        """
        cell = client.cell_id
        stranded = self.cell_servers[cell].crashed
        if not stranded:
            prob = self.roaming.roam_prob
            if prob == 0.0 or not self._roam_stream(client.client_id).bernoulli(prob):
                return
        targets = [
            c
            for c in self.graph.neighbors(cell)
            if not self.cell_servers[c].crashed
        ]
        if not targets:
            if not stranded:
                return
            targets = [
                c
                for c in range(self.n_cells)
                if c != cell and not self.cell_servers[c].crashed
            ]
            if not targets:
                return
        stream = self._roam_stream(client.client_id)
        self._hand_off(client, targets[stream.randint(0, len(targets) - 1)],
                       m.ROAM_HANDOFFS)

    def _hand_off(self, client, cell: int, counter: str):
        client.hand_off(
            cell,
            self.cell_downlinks[cell],
            self.cell_uplinks[cell],
            self.cell_ir_channels[cell],
        )
        self.metrics.counter(counter).add()

    # -- whole-cell outages (driven by repro.chaos.ChaosInjector) ---------------

    def crash_cell(self, cell: int, now: float):
        """Take a whole cell down and evacuate its residents."""
        server = self.cell_servers[cell]
        if server.crashed:
            return
        server.crash(now)
        self.metrics.counter(m.CELL_CRASHES).add()
        self._evacuate(cell)

    def _evacuate(self, cell: int):
        """Scatter every resident (dozing ones included — the physical
        move happens regardless of radio state) across the surviving
        neighbor cells.  With no survivor adjacent, clients stay put and
        ride the outage out: no reports, shed uplink, pending queries
        parked — degraded, never lied to."""
        targets = [
            c
            for c in self.graph.neighbors(cell)
            if not self.cell_servers[c].crashed
        ]
        if not targets:
            return
        for client in self.clients:
            if client.cell_id != cell:
                continue
            stream = self._roam_stream(client.client_id)
            self._hand_off(client, targets[stream.randint(0, len(targets) - 1)],
                           m.ROAM_EVACUATIONS)

    def restart_cell(self, cell: int, now: float):
        """Bring a crashed cell back with a fresh incarnation.

        The gateway restarts exactly like the single-cell server (its
        database is the durable origin; only update-time knowledge is
        lost).  A fed cell's replica was *volatile*: the new incarnation
        starts from a blank database with horizon ``NEVER``, sheds every
        uplink arrival, and resyncs via an immediate snapshot pull.
        """
        server = self.cell_servers[cell]
        if not server.crashed:
            return
        if cell == 0:
            policy = self.scheme.make_server_policy(self.params, self.db)
            server.restart(now, policy)
        else:
            replica = Database(self.params.db_size)
            policy = self.scheme.make_server_policy(self.params, replica)
            server.restart(now, policy, replica_db=replica)
            self.synchronizers[cell].reset()
        self.metrics.counter(m.CELL_RESTARTS).add()

    # -- telemetry --------------------------------------------------------------

    def _collect_extra_telemetry(self, result):
        if self.n_cells == 1:
            # Emit nothing at N=1: the raw snapshot must stay key-for-key
            # identical to a run without the roaming knob group.
            return
        result.raw["cells.n"] = float(self.n_cells)
        now = self.env.now
        sent = lost = 0
        for cell in range(1, self.n_cells):
            sync = self.synchronizers[cell]
            sent += sync.link.sent
            lost += sync.link.lost
            horizon = sync.horizon
            result.raw[f"sync.cell{cell}.horizon_lag"] = (
                now - horizon if horizon != NEVER else -1.0
            )
            coop = self.cooperators[cell]
            if coop is not None:
                for peer in coop.peers:
                    sent += peer.link.sent
                    lost += peer.link.lost
        result.raw["intercell.messages"] = float(sent)
        result.raw["intercell.losses"] = float(lost)
