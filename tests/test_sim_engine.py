"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import SimulationError, Simulator, StopSimulation

from conftest import run_process


class TestClockAndTimeouts:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_timeout_advances_clock(self, sim):
        run_process(sim, self._sleep(sim, 2.5))
        assert sim.now == 2.5

    @staticmethod
    def _sleep(sim, delay):
        yield sim.timeout(delay)

    def test_timeouts_fire_in_order(self, sim):
        log = []

        def waiter(delay, name):
            yield sim.timeout(delay)
            log.append(name)

        sim.process(waiter(3.0, "c"))
        sim.process(waiter(1.0, "a"))
        sim.process(waiter(2.0, "b"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_same_instant_fifo(self, sim):
        """Events at the same instant fire in schedule order."""
        log = []
        for name in "abc":
            sim.schedule(1.0, lambda _s, n=name: log.append(n))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    @pytest.mark.parametrize("trigger", [
        lambda sim: sim.event().succeed(delay=-0.25),
        lambda sim: sim.event().fail(ValueError("x"), delay=-0.25),
        lambda sim: sim.schedule(-0.25, lambda _sim: None),
    ], ids=["succeed", "fail", "schedule"])
    def test_negative_delay_rejected(self, sim, trigger):
        """A trigger into the past would run the clock backwards."""
        sim.run(until=0.5)
        with pytest.raises(SimulationError, match="negative delay"):
            trigger(sim)
        assert sim.peek() is None
        sim.run()
        assert sim.now == 0.5

    def test_rejected_trigger_leaves_event_pending(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            event.succeed("x", delay=-1.0)
        assert not event.triggered
        event.succeed("x", delay=1.0)
        sim.run()
        assert event.processed and event.value == "x"

    def test_run_until_event_reports_a_drained_queue(self, sim):
        sim.process(self._sleep(sim, 1.0))
        with pytest.raises(SimulationError, match="drained"):
            sim.run_until(sim.event())
        assert sim.now == 1.0

    def test_run_until_in_the_past_rejected(self, sim):
        sim.run(until=2.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)
        assert sim.now == 2.0

    def test_tiny_delay_counts_as_zero(self, sim):
        """A delay too small to move the clock queues behind the timers
        already due at this instant, like a zero-delay trigger."""
        log = []
        sim.schedule(1.0, lambda _s: log.append("timer"))
        sim.schedule(1.0, lambda _s: sim.schedule(
            1e-20, lambda _s: log.append("tiny")))
        sim.schedule(1.0, lambda _s: log.append("timer2"))
        sim.run()
        assert log == ["timer", "timer2", "tiny"]
        assert sim.now == 1.0

    def test_timers_before_zero_delay_triggers_at_an_instant(self, sim):
        log = []

        def first(_sim):
            log.append("a")
            sim.schedule(0.0, lambda _s: log.append("zero"))

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda _s: log.append("b"))
        sim.run()
        assert log == ["a", "b", "zero"]

    def test_run_until_stops_early(self, sim):
        done = []

        def late():
            yield sim.timeout(10.0)
            done.append(True)

        sim.process(late())
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert not done

    def test_run_until_then_continue(self, sim):
        done = []

        def late():
            yield sim.timeout(10.0)
            done.append(True)

        sim.process(late())
        sim.run(until=5.0)
        sim.run()
        assert done == [True]
        assert sim.now == 10.0

    def test_run_until_beyond_queue_advances_clock(self, sim):
        sim.process(self._sleep(sim, 1.0))
        sim.run(until=100.0)
        assert sim.now == 100.0


class TestEvents:
    def test_succeed_carries_value(self, sim):
        event = sim.event()
        event.succeed("payload")
        value = run_process(sim, self._wait(event))
        assert value == "payload"

    @staticmethod
    def _wait(event):
        result = yield event
        return result

    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_raises_in_waiter(self, sim):
        event = sim.event()
        event.fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            run_process(sim, self._wait(event))

    def test_fail_requires_exception(self, sim):
        with pytest.raises(SimulationError):
            sim.event().fail("not an exception")

    def test_wait_on_already_processed_event(self, sim):
        """A process can wait on an event that fired long ago."""
        event = sim.event()
        event.succeed(41)
        sim.run()
        assert event.processed
        value = run_process(sim, self._wait(event))
        assert value == 41


class TestProcesses:
    def test_return_value_propagates(self, sim):
        def child():
            yield sim.timeout(1.0)
            return "result"

        def parent():
            value = yield sim.process(child())
            return value + "!"

        assert run_process(sim, parent()) == "result!"

    def test_exception_propagates_to_waiter(self, sim):
        def child():
            yield sim.timeout(1.0)
            raise RuntimeError("child died")

        def parent():
            yield sim.process(child())

        with pytest.raises(RuntimeError, match="child died"):
            run_process(sim, parent())

    def test_unwaited_failure_surfaces(self, sim):
        def doomed():
            yield sim.timeout(1.0)
            raise RuntimeError("nobody is listening")

        sim.process(doomed())
        with pytest.raises(RuntimeError, match="nobody is listening"):
            sim.run()

    def test_yield_non_event_is_error(self, sim):
        def bad():
            yield 42

        with pytest.raises(SimulationError):
            run_process(sim, bad())

    def test_interrupt_wakes_process(self, sim):
        from repro.sim import Interrupted

        caught = []

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupted as interrupt:
                caught.append((sim.now, interrupt.cause))

        process = sim.process(sleeper())
        sim.schedule(1.0, lambda _s: process.interrupt("power cut"))
        sim.run()
        assert caught == [(1.0, "power cut")]

    def test_interrupt_before_first_resume(self, sim):
        """An interrupt sent before the process first runs lands after
        its first step and leaves nothing waiting on that step's event."""
        from repro.sim import Interrupted

        log = []

        def sleeper():
            try:
                yield sim.timeout(1)
            except Interrupted as interrupt:
                log.append((sim.now, interrupt.cause))
            yield sim.timeout(2)
            log.append((sim.now, "woke"))

        process = sim.process(sleeper())
        process.interrupt("early")
        sim.run()
        assert log == [(0.0, "early"), (2.0, "woke")]
        assert not process.is_alive

    def test_two_interrupts_in_a_row(self, sim):
        from repro.sim import Interrupted

        log = []

        def sleeper():
            for _ in range(3):
                try:
                    yield sim.timeout(1)
                    log.append((sim.now, "slept"))
                except Interrupted as interrupt:
                    log.append((sim.now, interrupt.cause))

        process = sim.process(sleeper())
        sim.run(until=0.5)
        process.interrupt("first")
        process.interrupt("second")
        sim.run()
        assert log == [(0.5, "first"), (0.5, "second"), (1.5, "slept")]

    def test_interrupt_of_finished_process_is_ignored(self, sim):
        def quick():
            yield sim.timeout(1)

        process = sim.process(quick())
        sim.run()
        process.interrupt("late")
        sim.run()
        assert process.ok and not process.is_alive

    def test_process_requires_generator(self, sim):
        with pytest.raises(SimulationError):
            sim.process(lambda: None)


class TestCompositeEvents:
    def test_all_of_waits_for_every_child(self, sim):
        def worker(delay):
            yield sim.timeout(delay)
            return delay

        def parent():
            children = [sim.process(worker(d)) for d in (3.0, 1.0, 2.0)]
            values = yield sim.all_of(children)
            return values

        assert run_process(sim, parent()) == [3.0, 1.0, 2.0]
        assert sim.now == 3.0

    def test_all_of_empty_fires_immediately(self, sim):
        def parent():
            values = yield sim.all_of([])
            return values

        assert run_process(sim, parent()) == []

    def test_all_of_fails_fast(self, sim):
        def ok():
            yield sim.timeout(5.0)

        def bad():
            yield sim.timeout(1.0)
            raise ValueError("first failure")

        def parent():
            yield sim.all_of([sim.process(ok()), sim.process(bad())])

        with pytest.raises(ValueError, match="first failure"):
            run_process(sim, parent())

    def test_any_of_returns_first(self, sim):
        def worker(delay, name):
            yield sim.timeout(delay)
            return name

        def parent():
            index, value = yield sim.any_of(
                [sim.process(worker(2.0, "slow")),
                 sim.process(worker(1.0, "fast"))])
            return index, value, sim.now

        assert run_process(sim, parent()) == (1, "fast", 1.0)


class TestStopSimulation:
    def test_stop_halts_run(self, sim):
        log = []

        def stopper(_s):
            raise StopSimulation()

        sim.schedule(1.0, lambda _s: log.append("early"))
        sim.schedule(2.0, stopper)
        sim.schedule(3.0, lambda _s: log.append("late"))
        sim.run()
        assert log == ["early"]
        assert sim.now == 2.0
        assert sim.stopped

    def test_determinism_across_runs(self):
        """Two identical simulations produce identical event traces."""
        def trace():
            sim = Simulator()
            log = []

            def worker(name, delay):
                for i in range(3):
                    yield sim.timeout(delay)
                    log.append((sim.now, name, i))

            sim.process(worker("x", 1.5))
            sim.process(worker("y", 1.0))
            sim.run()
            return log

        assert trace() == trace()
