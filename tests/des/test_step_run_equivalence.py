"""``Environment.step()`` and ``Environment.run()`` dispatch identically.

``run()`` inlines the dispatch of a popped heap entry for speed, and
``step()`` goes through ``Environment._dispatch``; the two are kept in
lockstep by hand.  This test generates random process scripts — sleeps,
valued timeouts, bounded-store puts and gets, already-succeeded events
and interrupts — and drives one environment with ``run()`` and a twin
with ``step()`` until the schedule drains.  Tracer records, the
processes' own trace, the clock and the scheduled-event count must all
agree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import EmptySchedule, Environment, Interrupt, Store
from repro.des.trace import TraceRecorder

MAX_PROCS = 5

# Few distinct delays so same-time ties (decided by priority and eid)
# are common.
delays = st.sampled_from([0.0, 0.5, 1.0, 2.0])
values = st.integers(min_value=0, max_value=9)

ops = st.one_of(
    st.tuples(st.just("sleep"), delays),
    st.tuples(st.just("timeout"), delays, values),
    st.tuples(st.just("put"), values),
    st.tuples(st.just("get")),
    st.tuples(st.just("succeeded"), values),
    st.tuples(st.just("interrupt"), st.integers(0, MAX_PROCS - 1)),
)
scripts = st.lists(st.lists(ops, max_size=8), min_size=1, max_size=MAX_PROCS)


def _build(scripts):
    env = Environment()
    recorder = TraceRecorder(limit=100_000)
    env.set_tracer(recorder)
    store = Store(env, capacity=2)
    trace = []
    procs = []

    def script(env, pid, steps):
        for op in steps:
            kind = op[0]
            try:
                if kind == "sleep":
                    yield env.sleep(op[1])
                    trace.append((pid, kind, env.now, None))
                elif kind == "timeout":
                    value = yield env.timeout(op[1], op[2])
                    trace.append((pid, kind, env.now, value))
                elif kind == "put":
                    yield store.put(op[1])
                    trace.append((pid, kind, env.now, op[1]))
                elif kind == "get":
                    value = yield store.get()
                    trace.append((pid, kind, env.now, value))
                elif kind == "succeeded":
                    event = env.event()
                    event.succeed(op[1])
                    value = yield event
                    trace.append((pid, kind, env.now, value))
                else:
                    victim = procs[op[1] % len(procs)]
                    if (
                        victim is not env.active_process
                        and victim.is_alive
                        and victim.target is not None
                    ):
                        victim.interrupt(pid)
                        trace.append((pid, kind, env.now, victim.name))
            except Interrupt as exc:
                trace.append((pid, "interrupted", env.now, exc.cause))

    for pid, steps in enumerate(scripts):
        procs.append(env.process(script(env, pid, steps), name=f"p{pid}"))
    return env, recorder, trace


def _outcome(env, recorder, trace):
    records = [
        (r.time, r.kind, r.name, r.ok, repr(r.value)) for r in recorder.records
    ]
    return records, trace, env.now, env.scheduled_events


@given(scripts=scripts)
@settings(max_examples=300, deadline=None)
def test_step_and_run_dispatch_identically(scripts):
    ran = _build(scripts)
    ran[0].run()

    stepped = _build(scripts)
    env = stepped[0]
    while True:
        try:
            env.step()
        except EmptySchedule:
            break

    assert _outcome(*ran) == _outcome(*stepped)
