"""VirtualClock: ordering, deadlines and drive()."""

import asyncio

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.service import DeadlineExceeded, VirtualClock, WallClock, with_deadline


def run(coro):
    return asyncio.run(coro)


def test_wall_clock_is_the_running_loops_time():
    async def main():
        clock = WallClock()
        t0 = clock.now()
        await clock.sleep(0.005)
        assert clock.now() - t0 >= 0.004
        # with_deadline works identically against real time.
        value = await with_deadline(clock, asyncio.sleep(0, "ok"), 1.0)
        assert value == "ok"

    run(main())


def test_sleep_fires_in_time_order():
    async def main():
        clock = VirtualClock()
        fired = []

        async def sleeper(delay, tag):
            await clock.sleep(delay)
            fired.append((clock.now(), tag))

        tasks = [
            asyncio.ensure_future(sleeper(d, t))
            for d, t in [(3.0, "c"), (1.0, "a"), (2.0, "b")]
        ]
        await clock.advance(5.0)
        await asyncio.gather(*tasks)
        assert fired == [(1.0, "a"), (2.0, "b"), (3.0, "c")]
        assert clock.now() == 5.0

    run(main())


def test_equal_deadlines_fire_in_schedule_order():
    async def main():
        clock = VirtualClock()
        fired = []

        async def sleeper(tag):
            await clock.sleep(10.0)
            fired.append(tag)

        for tag in ("first", "second", "third"):
            asyncio.ensure_future(sleeper(tag))
        await clock.advance(10.0)
        assert fired == ["first", "second", "third"]

    run(main())


def test_zero_sleep_is_a_yield():
    async def main():
        clock = VirtualClock()
        await clock.sleep(0)
        assert clock.now() == 0.0
        assert clock.pending_timers == 0

    run(main())


def test_negative_sleep_rejected():
    async def main():
        clock = VirtualClock()
        with pytest.raises(ValueError):
            await clock.sleep(-1.0)
        with pytest.raises(ValueError):
            await clock.advance(-1.0)

    run(main())


def test_causal_chain_completes_within_one_advance():
    """Timer -> task -> second sleep -> task, all inside advance()."""

    async def main():
        clock = VirtualClock()
        steps = []

        async def chain():
            await clock.sleep(1.0)
            steps.append(("woke", clock.now()))
            await clock.sleep(2.0)
            steps.append(("done", clock.now()))

        task = asyncio.ensure_future(chain())
        await clock.advance(10.0)
        await task
        assert steps == [("woke", 1.0), ("done", 3.0)]

    run(main())


def test_with_deadline_task_wins():
    async def main():
        clock = VirtualClock()

        async def quick():
            await clock.sleep(1.0)
            return "value"

        result_task = asyncio.ensure_future(
            with_deadline(clock, quick(), timeout=5.0)
        )
        await clock.advance(2.0)
        assert await result_task == "value"

    run(main())


def test_with_deadline_timeout_cancels_task():
    async def main():
        clock = VirtualClock()
        cancelled = []

        async def slow():
            try:
                await clock.sleep(100.0)
            except asyncio.CancelledError:
                cancelled.append(True)
                raise

        result_task = asyncio.ensure_future(
            with_deadline(clock, slow(), timeout=1.0)
        )
        await clock.advance(2.0)
        with pytest.raises(DeadlineExceeded):
            await result_task
        assert cancelled == [True]

    run(main())


def test_with_deadline_none_is_unbounded():
    async def main():
        clock = VirtualClock()

        async def quick():
            return 42

        assert await with_deadline(clock, quick(), timeout=None) == 42

    run(main())


def test_simultaneous_finish_prefers_task():
    """Task and timer due at the same instant: the value wins."""

    async def main():
        clock = VirtualClock()

        async def exact():
            await clock.sleep(3.0)
            return "made it"

        result_task = asyncio.ensure_future(
            with_deadline(clock, exact(), timeout=3.0)
        )
        await clock.advance(3.0)
        assert await result_task == "made it"

    run(main())


def test_drive_runs_awaitable_to_completion():
    async def main():
        clock = VirtualClock()

        async def worker():
            await clock.sleep(5.0)
            await clock.sleep(7.0)
            return clock.now()

        assert await clock.drive(worker()) == 12.0

    run(main())


def test_drive_detects_deadlock():
    async def main():
        clock = VirtualClock()

        async def stuck():
            await asyncio.get_running_loop().create_future()

        with pytest.raises(RuntimeError, match="deadlock"):
            await clock.drive(stuck())

    run(main())


def test_run_until_is_absolute_and_monotonic():
    async def main():
        clock = VirtualClock(start=10.0)
        await clock.run_until(25.0)
        assert clock.now() == 25.0
        await clock.run_until(5.0)  # already past: no-op
        assert clock.now() == 25.0

    run(main())


def test_cancelled_sleep_leaves_tombstone_not_crash():
    async def main():
        clock = VirtualClock()

        async def sleeper():
            await clock.sleep(4.0)

        task = asyncio.ensure_future(sleeper())
        await asyncio.sleep(0)
        task.cancel()
        await clock.advance(10.0)  # tombstone dropped unfired
        assert clock.now() == 10.0

    run(main())


# -- with_deadline: the eager first step against the always-race reference --


async def reference_with_deadline(clock, awaitable, timeout):
    """The always-race ``with_deadline``: every call spawns a racer task,
    a timer task and a gate, even when the awaitable never suspends.
    Kept here only as the oracle the eager first step must agree with."""
    if timeout is None:
        return await awaitable
    loop = asyncio.get_running_loop()
    task = asyncio.ensure_future(awaitable)
    timer = asyncio.ensure_future(clock.sleep(timeout))
    gate = loop.create_future()

    def _wake(_done):
        if not gate.done():
            gate.set_result(None)

    task.add_done_callback(_wake)
    timer.add_done_callback(_wake)
    try:
        await gate
    except asyncio.CancelledError:
        task.cancel()
        timer.cancel()
        raise
    if task.done():
        timer.cancel()
        return task.result()
    task.cancel()
    try:
        await task
    except asyncio.CancelledError:
        pass
    raise DeadlineExceeded(f"dependency call exceeded {timeout}s budget")


class ScriptError(Exception):
    pass


_STEP = st.one_of(
    st.tuples(st.just("sleep"), st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.5])),
    st.tuples(st.just("yield"), st.just(0.0)),
)


@st.composite
def _scripts(draw):
    steps = draw(
        st.lists(_STEP, max_size=6).filter(
            lambda s: sum(kind == "sleep" for kind, _ in s) <= 4
        )
    )
    raise_at = draw(st.none() | st.integers(0, len(steps)))
    # Exact ties: every prefix sum of the sleeps is a candidate budget.
    ties, total = [0.0], 0.0
    for kind, dt in steps:
        if kind == "sleep":
            total += dt
            ties.append(total)
    timeout = draw(
        st.sampled_from(ties) | st.floats(0.0, 12.0, allow_nan=False)
    )
    return steps, raise_at, timeout


def _observe(impl, script):
    """Run *script* under *impl* on a fresh loop and virtual clock: the
    outcome, the virtual time it completed at, and whether the inner
    coroutine saw ``CancelledError``."""
    steps, raise_at, timeout = script

    async def main():
        clock = VirtualClock()
        saw_cancel = []

        async def inner():
            try:
                for i, (kind, dt) in enumerate(steps):
                    if i == raise_at:
                        raise ScriptError(i)
                    if kind == "sleep":
                        await clock.sleep(dt)
                    else:
                        await asyncio.sleep(0)
                if raise_at == len(steps):
                    raise ScriptError(len(steps))
                return clock.now()
            except asyncio.CancelledError:
                saw_cancel.append(clock.now())
                raise

        async def call():
            try:
                outcome = ("value", await impl(clock, inner(), timeout))
            except DeadlineExceeded:
                outcome = ("deadline",)
            except ScriptError as exc:
                outcome = ("raise", exc.args)
            return outcome, clock.now()

        outcome, done_at = await clock.drive(call())
        return outcome, done_at, saw_cancel

    return run(main())


@given(_scripts())
def test_with_deadline_agrees_with_always_race_reference(script):
    assert _observe(with_deadline, script) == _observe(
        reference_with_deadline, script
    )


def test_never_suspending_call_arms_nothing():
    async def main():
        clock = VirtualClock()

        async def instant():
            return "now"

        async def broken():
            raise ScriptError("boom")

        tasks, timers = asyncio.all_tasks(), clock.pending_timers
        assert await with_deadline(clock, instant(), timeout=1.0) == "now"
        with pytest.raises(ScriptError, match="boom"):
            await with_deadline(clock, broken(), timeout=1.0)
        assert asyncio.all_tasks() == tasks
        assert clock.pending_timers == timers

    run(main())


def test_done_future_returns_its_result():
    async def main():
        clock = VirtualClock()
        fut = asyncio.get_running_loop().create_future()
        fut.set_result("ready")
        assert await with_deadline(clock, fut, timeout=1.0) == "ready"

    run(main())


def test_pending_future_is_itself_cancelled_on_timeout():
    async def main():
        clock = VirtualClock()
        fut = asyncio.get_running_loop().create_future()
        with pytest.raises(DeadlineExceeded):
            await clock.drive(with_deadline(clock, fut, timeout=2.0))
        assert fut.cancelled()
        assert clock.now() == 2.0

    run(main())
