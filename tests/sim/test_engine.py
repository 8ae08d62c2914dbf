"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.sim import Environment, SimulationError


class TestTimeAndTimeouts:
    def test_time_advances_to_timeout(self):
        env = Environment()

        def proc():
            yield env.timeout(5.0)
            return env.now

        assert env.run_process(proc()) == 5.0

    def test_zero_delay_timeout(self):
        env = Environment()

        def proc():
            yield env.timeout(0.0)
            return env.now

        assert env.run_process(proc()) == 0.0

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_timeout_value_passthrough(self):
        env = Environment()

        def proc():
            value = yield env.timeout(1.0, value="hello")
            return value

        assert env.run_process(proc()) == "hello"

    def test_run_until_stops_clock(self):
        env = Environment()

        def proc():
            yield env.timeout(100.0)

        env.process(proc())
        assert env.run(until=30.0) == 30.0
        assert env.now == 30.0

    def test_run_until_beyond_last_event(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)

        env.process(proc())
        assert env.run(until=50.0) == 50.0

    def test_event_ordering_fifo_on_ties(self):
        env = Environment()
        order = []

        def proc(tag):
            yield env.timeout(1.0)
            order.append(tag)

        for tag in "abc":
            env.process(proc(tag))
        env.run()
        assert order == ["a", "b", "c"]


class TestEvents:
    def test_manual_event_value(self):
        env = Environment()
        gate = env.event()

        def waiter():
            value = yield gate
            return value

        def trigger():
            yield env.timeout(2.0)
            gate.succeed(42)

        proc = env.process(waiter())
        env.process(trigger())
        env.run()
        assert proc.value == 42

    def test_double_trigger_rejected(self):
        env = Environment()
        ev = env.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_value_before_trigger_rejected(self):
        env = Environment()
        ev = env.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_yield_already_triggered_event(self):
        env = Environment()
        ev = env.event()
        ev.succeed("early")

        def proc():
            value = yield ev
            return value

        assert env.run_process(proc()) == "early"

    def test_multiple_waiters_all_resume(self):
        env = Environment()
        gate = env.event()
        results = []

        def waiter(tag):
            yield gate
            results.append((tag, env.now))

        for tag in range(3):
            env.process(waiter(tag))

        def trigger():
            yield env.timeout(1.5)
            gate.succeed()

        env.process(trigger())
        env.run()
        assert results == [(0, 1.5), (1, 1.5), (2, 1.5)]

    def test_event_failure_propagates_into_process(self):
        env = Environment()
        gate = env.event()

        def waiter():
            try:
                yield gate
            except RuntimeError as exc:
                return f"caught {exc}"

        def trigger():
            yield env.timeout(1.0)
            gate.fail(RuntimeError("boom"))

        proc = env.process(waiter())
        env.process(trigger())
        env.run()
        assert proc.value == "caught boom"


class TestProcesses:
    def test_process_return_value(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)
            return "done"

        assert env.run_process(proc()) == "done"

    def test_process_waiting_on_process(self):
        env = Environment()

        def child():
            yield env.timeout(3.0)
            return "child-result"

        def parent():
            result = yield env.process(child())
            return (result, env.now)

        assert env.run_process(parent()) == ("child-result", 3.0)

    def test_unwaited_process_failure_raises(self):
        env = Environment()

        def bad():
            yield env.timeout(1.0)
            raise ValueError("unhandled")

        env.process(bad())
        with pytest.raises(ValueError, match="unhandled"):
            env.run()

    def test_waited_process_failure_delivered_to_waiter(self):
        env = Environment()

        def bad():
            yield env.timeout(1.0)
            raise ValueError("delivered")

        def parent():
            try:
                yield env.process(bad())
            except ValueError as exc:
                return str(exc)

        assert env.run_process(parent()) == "delivered"

    def test_yielding_non_event_rejected(self):
        env = Environment()

        def bad():
            yield 42

        with pytest.raises(SimulationError, match="expected an Event"):
            env.run()
            env.process(bad())
            env.run()

    def test_deadlock_detected_by_run_process(self):
        env = Environment()
        never = env.event()

        def stuck():
            yield never

        with pytest.raises(SimulationError, match="did not finish"):
            env.run_process(stuck())

    def test_interleaving_of_two_processes(self):
        env = Environment()
        log = []

        def ticker(name, period):
            while env.now < 10:
                yield env.timeout(period)
                log.append((env.now, name))

        env.process(ticker("fast", 2))
        env.process(ticker("slow", 5))
        env.run(until=11)
        assert (2.0, "fast") in log
        assert (5.0, "slow") in log
        assert log == sorted(log, key=lambda x: x[0])

    def test_scheduling_in_past_rejected(self):
        env = Environment()

        def proc():
            yield env.timeout(5.0)

        env.process(proc())
        env.run()
        with pytest.raises(SimulationError):
            env._schedule(1.0, env.event())


class TestCancellableTimers:
    def test_cancelled_timeout_never_fires(self):
        env = Environment()
        fired = []
        t = env.timeout(5.0)
        t.callbacks.append(lambda e: fired.append(env.now))
        t.cancel()
        env.run()
        assert fired == []
        assert env.now == 0.0  # cancelled entries do not advance the clock

    def test_cancel_after_fire_is_noop(self):
        env = Environment()
        fired = []
        t = env.timeout(1.0)
        t.callbacks.append(lambda e: fired.append(env.now))
        env.run()
        before = env._n_cancelled
        t.cancel()
        assert fired == [1.0]
        assert env._n_cancelled == before  # no phantom cancel accounting

    def test_cancel_is_idempotent(self):
        env = Environment()
        t = env.timeout(1.0)
        t.callbacks.append(lambda e: None)
        t.cancel()
        t.cancel()
        assert env._n_cancelled == 1

    def test_pending_events_excludes_cancelled(self):
        env = Environment()
        timers = [env.timeout(float(i + 1)) for i in range(10)]
        for t in timers:
            t.callbacks.append(lambda e: None)
        assert env.pending_events == 10
        for t in timers[:4]:
            t.cancel()
        assert env.pending_events == 6

    def test_heap_compaction_under_cancel_churn(self):
        from repro.sim.engine import _COMPACT_MIN

        env = Environment()
        # Reschedule-style churn: create a watched timer, cancel it,
        # repeat.  Without compaction the heap would hold every corpse.
        sink = lambda e: None
        for _ in range(100 * _COMPACT_MIN):
            t = env.timeout(10.0)
            t.callbacks.append(sink)
            t.cancel()
        assert len(env._heap) <= 2 * _COMPACT_MIN + 2
        assert env.pending_events == 0

    def test_cancelled_pops_not_counted_as_processed(self):
        env = Environment()
        keep = env.timeout(2.0)
        dead = env.timeout(1.0)
        dead.callbacks.append(lambda e: None)
        dead.cancel()
        env.run()
        assert env.events_processed == 1

    def test_cancel_of_unwatched_timer_is_noop(self):
        # A timer nobody waits on has no callbacks; cancelling it is a
        # no-op by contract (indistinguishable from already-fired) and
        # must not corrupt the cancelled-entry accounting.
        env = Environment()
        env.timeout(1.0).cancel()
        assert env._n_cancelled == 0
        env.run()
        assert env.now == 1.0


class TestRunUntilEvent:
    def test_run_until_event_stops_at_trigger(self):
        env = Environment()
        done = env.event()

        def proc():
            yield env.timeout(3.0)
            done.succeed()
            yield env.timeout(10.0)

        env.process(proc())
        env.run(until=done)
        assert env.now == 3.0
        # The rest of the heap is untouched and can keep running.
        env.run()
        assert env.now == 13.0

    def test_run_until_already_triggered_event_returns_now(self):
        env = Environment()
        done = env.event()
        done.succeed()
        assert env.run(until=done) == 0.0

    def test_run_until_event_detects_starvation(self):
        env = Environment()
        never = env.event()

        def proc():
            yield env.timeout(1.0)

        env.process(proc())
        with pytest.raises(SimulationError, match="drained before the event"):
            env.run(until=never)

    def test_events_processed_counts_pops(self):
        env = Environment()

        def proc():
            for _ in range(5):
                yield env.timeout(1.0)

        env.process(proc())
        env.run()
        # 1 process-init event + 5 timeouts + the process-done event.
        assert env.events_processed == 7


class TestClose:
    def test_close_drops_pending_events_and_never_resumes(self):
        env = Environment()
        done = env.event()
        resumed = []

        def finisher():
            yield env.timeout(1.0)
            done.succeed()

        def sleeper(delay):
            yield env.timeout(delay)
            resumed.append(delay)

        env.process(finisher())
        for delay in (5.0, 7.0):
            env.process(sleeper(delay))
        cancelled = env.timeout(9.0)
        cancelled.callbacks.append(lambda e: resumed.append("timer"))
        cancelled.cancel()
        env.run(until=done)
        assert env.pending_events > 0

        env.close()
        assert env.pending_events == 0
        assert env._heap == []
        env.run()
        assert resumed == []
        assert env.now == 1.0

    def test_close_frees_the_environment_without_the_gc(self):
        import gc
        import weakref

        env = Environment()

        def ticker():
            while True:
                yield env.timeout(1.0)

        env.process(ticker())
        env.run(until=3.0)
        ref = weakref.ref(env)
        env.close()
        gc.collect()
        gc.disable()
        try:
            del env
            assert ref() is None
        finally:
            gc.enable()

    def test_cancel_after_close_is_noop(self):
        env = Environment()
        t = env.timeout(1.0)
        t.callbacks.append(lambda e: None)
        env.close()
        t.cancel()
        assert env._n_cancelled == 0
        assert env.pending_events == 0
