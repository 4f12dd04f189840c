"""The kernel's heap orderings against executable specifications.

The schedule is one ``(when, priority, eid, payload)`` tuple heap under
CPython's ``heapq``; ``(when, priority, eid)`` is a strict total order.
These tests replay random inputs and compare what the kernel does with
an order computed independently in the test:

* the dispatch layer's cancellation protocol (stale wakeup entries
  skipped by eid generation — the heap itself has no tombstones);
* :class:`~repro.des.queues.PriorityStore`'s keyed heap, where full key
  ties ARE possible and must arrange exactly as heapq arranges the
  items themselves.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, Interrupt, PriorityItem, PriorityStore

# Small value pools force time collisions so the eid tie-break actually
# decides orderings instead of almost never firing.
whens = st.floats(min_value=0.0, max_value=4.0, allow_nan=False, width=16)

CANCEL_AT = 0.5


@given(
    delays=st.lists(
        st.tuples(whens, st.booleans()), min_size=1, max_size=30
    )
)
@settings(max_examples=100)
def test_cancelled_sleeps_match_specified_order(delays):
    """Cancellation is dispatch-level: interrupting a sleeping process
    disarms its wakeup token and the stale heap entry is skipped on pop.

    Sleeper ``i`` sleeps ``d_i``; a canceller started after all sleepers
    wakes at ``CANCEL_AT`` and interrupts every flagged sleeper still
    asleep, in process order.  Sleeps due at ``<= CANCEL_AT`` win the
    tie with the canceller (their wake eids are smaller), then the
    interrupts land in process order, then the remaining wakes in
    ``(d, i)`` order.  A skipped stale wake still advances the clock to
    its time, like a callback-less Timeout, so the run ends at the
    latest sleep whether or not it was cancelled.
    """
    env = Environment()
    trace = []

    def sleeper(env, i, d):
        try:
            yield d
            trace.append(("woke", i, env.now))
        except Interrupt:
            trace.append(("interrupted", i, env.now))

    procs = [env.process(sleeper(env, i, d)) for i, (d, _) in enumerate(delays)]

    def canceller(env):
        yield CANCEL_AT
        for proc, (_, cancel) in zip(procs, delays):
            if cancel and proc.is_alive and proc.target is not None:
                proc.interrupt()

    env.process(canceller(env))
    env.run()

    early = sorted((d, i) for i, (d, _) in enumerate(delays) if d <= CANCEL_AT)
    cancelled = [
        i for i, (d, cancel) in enumerate(delays) if d > CANCEL_AT and cancel
    ]
    late = sorted(
        (d, i)
        for i, (d, cancel) in enumerate(delays)
        if d > CANCEL_AT and not cancel
    )
    assert trace == (
        [("woke", i, d) for d, i in early]
        + [("interrupted", i, CANCEL_AT) for i in cancelled]
        + [("woke", i, d) for d, i in late]
    )
    assert env.now == max([CANCEL_AT] + [d for d, _ in delays])
    # Per process: kick-off, one sleep, completion; plus one per interrupt.
    assert env.scheduled_events == 3 * (len(delays) + 1) + len(cancelled)


def test_stale_wake_advances_clock():
    """The skipped wake of an interrupted sleep still moves ``now``."""
    env = Environment()

    def sleeper(env):
        try:
            yield 3.0
        except Interrupt:
            pass

    proc = env.process(sleeper(env))

    def canceller(env):
        yield 1.0
        proc.interrupt()

    env.process(canceller(env))
    env.step()  # sleeper kick-off
    env.step()  # canceller kick-off
    env.step()  # canceller wakes at 1.0 and interrupts
    env.step()  # interrupt delivered
    assert env.now == 1.0
    env.run()
    assert env.now == 3.0


priority_keys = st.tuples(
    st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
)


@given(keys=st.lists(priority_keys, min_size=1, max_size=40))
@settings(max_examples=200)
def test_priority_store_ties_match_heapq(keys):
    """Full ``(priority, seq)`` ties are legal here (the kernel never
    produces them, but the API allows it): the store must pop in exactly
    the order heapq pops the same PriorityItems — including _siftup's
    right-child preference on equal keys."""
    env = Environment()
    store = PriorityStore(env)
    reference = []
    for i, (prio, seq) in enumerate(keys):
        item = PriorityItem(priority=prio, seq=seq, item=i)
        store.put_nowait(item)
        heapq.heappush(reference, item)
    got = [store.get().value.item for _ in keys]
    assert got == [heapq.heappop(reference).item for _ in keys]


@given(
    values=st.lists(
        st.sampled_from([0, 1, 2, 0.5, 1.0, 2.0]), min_size=1, max_size=40
    )
)
@settings(max_examples=100)
def test_priority_store_numeric_payloads_match_heapq(values):
    """Duplicate numeric payloads (``1`` and ``1.0`` alike) tie on the
    full key; which object pops first must match heapq over the bare
    values."""
    env = Environment()
    store = PriorityStore(env)
    reference = []
    for v in values:
        store.put_nowait(v)
        heapq.heappush(reference, v)
    got = [store.get().value for _ in values]
    expected = [heapq.heappop(reference) for _ in values]
    assert [(type(v), v) for v in got] == [(type(v), v) for v in expected]
