"""The batched report intake against per-receiver dispatch.

``repro.sim.client.report_intake`` takes each invalidation report once
per broadcast and certifies the listeners with nothing at stake in one
loop; everyone else goes through ``MobileClient._on_downlink``.  Two
guarantees are pinned here:

1. **Differential** — for all 8 schemes across pristine, lossy
   (Gilbert–Elliott with repetition coding), dedicated-report-channel,
   multi-cell storm, client-crash chaos and population-pool setups, a
   run through the intake yields exactly the raw result of a run that
   dispatches every report to every receiver's callback, under the
   strict staleness oracle.
2. **The quiet screen is sound** — whenever the intake certifies a
   generated client on the quiet arm, a clone of that client sent
   through the full ``_on_downlink`` ends in the identical client,
   policy, cache and metric state.
"""

from itertools import repeat
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.sim.model as model_module
from repro.cache import CacheEntry
from repro.chaos import ChaosConfig
from repro.des import Environment, RandomStreams
from repro.des.monitor import MetricSet
from repro.net import Channel, Fate, FaultConfig, Message, MessageKind, corrupted_copy
from repro.net.messages import BROADCAST, SERVER_ID
from repro.reports.bitseq import BitSequenceReport
from repro.reports.window import EnlargedWindowReport, WindowReport
from repro.schemes import get_scheme
from repro.schemes.loss_adaptive import LossAdaptationConfig
from repro.sim import UNIFORM, AggregationConfig, SystemParams, run_simulation
from repro.sim.client import MobileClient, report_intake
from repro.topology import EAGER_PUSH, RoamingConfig, TopologyConfig

SCHEMES = ("aaw", "afw", "at", "bs", "checking", "gcore", "sig", "ts")

BASE = dict(
    simulation_time=2000.0,
    n_clients=12,
    db_size=300,
    buffer_fraction=0.1,
    think_time_mean=40.0,
    update_interarrival_mean=60.0,
    disconnect_prob=0.3,
    disconnect_time_mean=250.0,
    strict_staleness=True,
    seed=11,
)

SETUPS = {
    "pristine": SystemParams(**BASE),
    "lossy-ge-repeat": SystemParams(
        **BASE,
        downlink_faults=FaultConfig(
            drop_prob=0.01,
            drop_prob_by_kind={MessageKind.INVALIDATION_REPORT: 0.05},
            bit_error_rate=2e-7,
            ge_good_to_bad=0.05,
            ge_bad_to_good=0.3,
            ge_bad_drop_prob=0.8,
        ),
        uplink_timeout=150.0,
        loss_adaptation=LossAdaptationConfig(w_max=40, repeat=2),
    ),
    "ir-channel": SystemParams(**BASE, ir_channel_bps=4000.0),
    "multicell-storm": SystemParams(
        **{**BASE, "simulation_time": 3000.0, "n_clients": 16},
        uplink_timeout=8.0,
        chaos=ChaosConfig(seed=1, cell_crash_mtbf=1000.0, cell_downtime_mean=300.0),
        roaming=RoamingConfig(
            topology=TopologyConfig(kind="path", n_cells=3),
            propagation=EAGER_PUSH,
            roam_prob=0.3,
            sync_replay_intervals=10.0,
        ),
    ),
    "client-crash": SystemParams(
        **BASE,
        uplink_timeout=150.0,
        chaos=ChaosConfig(
            seed=2,
            client_crash_mtbf=500.0,
            server_crash_mtbf=700.0,
            server_downtime_mean=60.0,
        ),
    ),
    "population-pool": SystemParams(
        **{**BASE, "n_clients": 40, "disconnect_time_mean": 600.0},
        aggregation=AggregationConfig(k_exact=6, min_doze_intervals=2.0),
    ),
}


def per_receiver(msg, receivers, fates, now):
    """Test-local reference dispatch: one callback per receiver."""
    corrupted = None
    for rec, fate in zip(receivers, repeat(Fate.DELIVER) if fates is None else fates):
        if fate is Fate.DELIVER:
            rec.callback(msg, now)
        elif fate is Fate.CORRUPT:
            if corrupted is None:
                corrupted = corrupted_copy(msg, now)
            rec.callback(corrupted, now)


def counted_run(monkeypatch, params, scheme, intake):
    """Run with *intake* on every report channel; count the IR callbacks."""
    calls = [0]
    on_downlink = MobileClient._on_downlink

    def counting(self, msg, now):
        if msg.kind is MessageKind.INVALIDATION_REPORT:
            calls[0] += 1
        on_downlink(self, msg, now)

    with monkeypatch.context() as patch:
        patch.setattr(model_module, "report_intake", intake)
        patch.setattr(MobileClient, "_on_downlink", counting)
        result = run_simulation(params, UNIFORM, scheme)
    return result, calls[0]


@pytest.mark.parametrize("setup", sorted(SETUPS))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_batched_intake_matches_per_receiver_dispatch(monkeypatch, setup, scheme):
    params = SETUPS[setup]
    batched, slow_calls = counted_run(monkeypatch, params, scheme, report_intake)
    reference, all_calls = counted_run(monkeypatch, params, scheme, per_receiver)
    assert batched.raw == reference.raw
    assert batched.stale_hits == 0 and batched.liveness_ok
    if get_scheme(scheme).make_client_policy(params, 0).quiet_kinds:
        # The quiet arm really ran: some intakes skipped the callback.
        assert slow_calls < all_calls, (slow_calls, all_calls)
    else:
        assert slow_calls == all_calls


# -- the quiet screen, property-tested ---------------------------------------

N_ITEMS = 16
L = 20.0
PARAMS = SystemParams(
    simulation_time=1000.0,
    n_clients=1,
    db_size=N_ITEMS,
    buffer_fraction=0.5,
    broadcast_interval=L,
    window_intervals=3,
    seed=5,
)
QUIET_SCHEMES = ("aaw", "afw", "bs", "checking", "gcore", "ts")


#: The state fields a case may move off the quiet-compatible value.
ODD_FIELDS = (
    "applied", "cell", "connected", "epoch", "floor", "heard", "pending",
    "report_cell", "report_epoch", "scheme", "suspect", "tlb", "updates",
)


@st.composite
def cases(draw, odd):
    """A client state and a report.

    Each case starts from a connected, idle listener one interval behind
    an ordinary report: ``Tlb``, the floor and the last applied and heard
    reports all at ``T - L``.  The field *odd* (if any) then moves to a
    value next to a screen boundary, and the cache and report contents
    vary freely over a small item space, so reports often name cached
    items and BS reports can fail to cover.
    """
    t = draw(st.integers(4, 12)) * L
    prev = t - L
    rare = {
        "tlb": st.sampled_from((t + L, t, t - 2 * L, t - 4 * L)),
        "floor": st.sampled_from((t - 2 * L, t - 3 * L, t - 4 * L)),
        "applied": st.sampled_from((None, t, t + L, t - 2 * L)),
        "heard": st.sampled_from((None, t - 2 * L, t - 3 * L)),
        "suspect": st.just(True),
        "pending": st.just(True),
        "epoch": st.just(1),
        "cell": st.sampled_from((None, 1)),
        "connected": st.just(False),
        "report_epoch": st.just(1),
        "report_cell": st.just(1),
        "scheme": st.sampled_from(("at", "sig")),
    }

    def pick(field, common):
        return draw(rare[field]) if field == odd else common

    recent = st.integers(0, 16).map(lambda k: t - k * L / 4)
    entry = st.tuples(st.integers(0, N_ITEMS - 1), st.integers(0, 5), recent)
    # Suspect entries are fetches older than Tlb, some older than any window.
    old = st.integers(4, 40).map(lambda k: max(t - k * L / 4, 0.0))
    fresh = draw(
        st.lists(
            st.tuples(st.integers(0, N_ITEMS - 1), st.integers(0, 5), old)
            if odd == "suspect"
            else entry,
            max_size=3,
        )
    )
    tlb = pick("tlb", prev)
    state = dict(
        scheme=pick("scheme", draw(st.sampled_from(QUIET_SCHEMES))),
        certified=draw(st.lists(entry, max_size=8)),
        fresh=fresh,
        suspect=[pick("suspect", False) for _ in fresh],
        floor=pick("floor", tlb),
        tlb=tlb,
        applied=pick("applied", prev),
        heard=pick("heard", prev),
        pending=pick("pending", False),
        epoch=pick("epoch", 0),
        cell=pick("cell", 0),
        connected=pick("connected", True),
        waiting=draw(st.booleans()),
    )
    # "updates": more items updated since Tlb than BS's deepest level holds.
    many = odd == "updates"
    updated = draw(
        st.dictionaries(
            st.integers(0, N_ITEMS - 1),
            st.integers(0, 3).map(lambda k: t - k * L / 4) if many else recent,
            min_size=N_ITEMS // 2 + 1 if many else 0,
            max_size=N_ITEMS if many else 12,
        )
    )
    updated = {item: ts for item, ts in updated.items() if 0.0 < ts <= t}
    form = draw(st.sampled_from(("window", "enlarged", "bs")))
    if form == "bs":
        recent_first = sorted(updated.items(), key=lambda kv: -kv[1])
        report = BitSequenceReport(
            t,
            N_ITEMS,
            [item for item, _ts in recent_first],
            [ts for _item, ts in recent_first],
            origin=0.0,
        )
    else:
        start = max(t - draw(st.integers(1, 4)) * L, 0.0)
        items = {item: ts for item, ts in updated.items() if ts > start}
        shape = WindowReport if form == "window" else EnlargedWindowReport
        report = shape(t, start, items, N_ITEMS)
    report.epoch = pick("report_epoch", 0)
    report.cell = pick("report_cell", 0)
    return state, report


def build_client(state):
    env = Environment()
    metrics = MetricSet()
    downlink = Channel(env, PARAMS.downlink_bps, name="downlink")
    uplink = Channel(env, PARAMS.effective_uplink_bps, name="uplink")
    scheme = get_scheme(state["scheme"])
    client = MobileClient(
        env,
        client_id=0,
        params=PARAMS,
        policy=scheme.make_client_policy(PARAMS, 0),
        query_pattern=UNIFORM.query_pattern(N_ITEMS),
        downlink=downlink,
        uplink=uplink,
        metrics=metrics,
        streams=RandomStreams(PARAMS.seed),
    )
    cache = client.cache
    for item, version, ts in state["certified"]:
        cache.insert(CacheEntry(item=item, version=version, ts=ts))
    cache.certify(state["floor"])
    for (item, version, ts), suspect in zip(state["fresh"], state["suspect"]):
        cache.insert(CacheEntry(item=item, version=version, ts=ts), suspect=suspect)
    client.tlb = state["tlb"]
    client._last_report_applied = state["applied"]
    client._last_report_heard = state["heard"]
    client._validation_pending = state["pending"]
    client._report_epoch = state["epoch"]
    client._report_cell = state["cell"]
    client.connected = state["connected"]
    # An uplink latch is only ever set together with a pending validation.
    for latch in ("_sent_tlb", "_check_pending"):
        if hasattr(client.policy, latch):
            setattr(client.policy, latch, state["pending"])
    waiter = client._wait_cache_ready() if state["waiting"] else None
    return env, client, waiter


def observable(env, client, waiter):
    cache = client.cache
    policy = {k: v for k, v in vars(client.policy).items() if k != "params"}
    if "_saved" in policy:
        policy["_saved"] = repr(policy["_saved"])
    return dict(
        client=(
            client.tlb,
            client._last_report_applied,
            client._last_report_heard,
            client._report_epoch,
            client._report_cell,
            client._validation_pending,
            client._validation_epoch,
            client._ready_waiters is None,
        ),
        waiter=None if waiter is None else (waiter.triggered, waiter.ok),
        policy=policy,
        cache=(
            cache.certified_floor,
            cache.epoch,
            sorted(cache.unreconciled),
            cache.insertions,
            cache.invalidations,
            cache.full_drops,
            [(e.item, e.version, e.ts, e.cert_epoch) for e in cache.entries()],
        ),
        metrics=client.metrics.snapshot(env.now),
        events=env.scheduled_events,
        uplink=client.uplink.queued,
    )


@pytest.mark.parametrize("odd", (None,) + ODD_FIELDS)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_quiet_screen_implies_full_dispatch_outcome(odd, data):
    state, report = data.draw(cases(odd))
    msg = Message(
        kind=MessageKind.INVALIDATION_REPORT,
        size_bits=report.size_bits,
        src=SERVER_ID,
        dest=BROADCAST,
        payload=report,
    )
    env, client, waiter = build_client(state)
    slow = []
    receiver = SimpleNamespace(
        owner=client, callback=lambda m, now: slow.append(m)
    )
    report_intake(msg, (receiver,), None, env.now)
    if slow:
        return
    assert report.kind in client.policy.quiet_kinds
    env2, twin, twin_waiter = build_client(state)
    twin._on_downlink(msg, env2.now)
    assert observable(env, client, waiter) == observable(env2, twin, twin_waiter)

