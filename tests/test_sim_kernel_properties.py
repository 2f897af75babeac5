"""Stateful property test of the kernel's ordering contract.

Every queued item — a timer, a zero-delay trigger, a process start, an
interrupt, a composite firing, the relay for an already-processed event
— is numbered here at the moment it is *triggered*, with the instant it
is due.  The contract the rest of the stack relies on is then:

* items are processed in ``(due instant, trigger order)`` order, so
  timers landing on one instant fire in schedule order, all of them
  before any zero-delay trigger made at that instant;
* the ``processed_events`` items processed so far are exactly the
  earliest in that order, and ``peek`` names the next one;
* ``run(until)``, ``run_until`` and ``StopSimulation`` stop exactly where
  they say, part-way through an instant included, and later triggers
  slot in behind what was left pending;
* an interrupt reaches its process at the instant it was sent, also
  when sent before the process first ran or twice in a row, and the
  event the process was waiting on no longer resumes it;
* ``AllOf`` fails with a child's exception and otherwise carries every
  child value; ``AnyOf`` carries the first child's outcome.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.sim import AllOf, AnyOf, Interrupted, Simulator, StopSimulation

#: 1e-20 moves the clock only while it is still at 0
DELAYS = st.sampled_from([0.0, 1e-20, 0.25, 0.5, 1.0])

STEP = st.one_of(
    st.tuples(st.just("sleep"), DELAYS),
    st.tuples(st.just("wait"), st.integers(0, 7)),
    st.tuples(st.sampled_from(["all", "any"]),
              st.lists(st.integers(0, 7), min_size=1, max_size=3)),
)


class Boom(Exception):
    """The exception failed events carry."""


class KernelOrdering(RuleBasedStateMachine):

    @initialize()
    def setup(self):
        self.sim = Simulator()
        self.due = {}        # item number -> instant it is due
        self.ids = {}        # event -> item number
        self.observed = []   # item numbers in processing order
        self.orphans = set()  # relays whose process was interrupted
        self.pool = []       # manual events
        self.procs = []      # (process, state dict)

    # --- numbering ------------------------------------------------------
    def _number(self, when):
        number = len(self.due)
        self.due[number] = when
        return number

    def _observe(self, number):
        assert self.sim.now == self.due[number], \
            "item %d processed at %r, due at %r" % (
                number, self.sim.now, self.due[number])
        self.observed.append(number)

    def _watch(self, event):
        """Observe ``event`` when it is processed (first callback)."""
        event.callbacks.append(lambda e: self._observe(self.ids[e]))

    def _trigger(self, event, when):
        self.ids[event] = self._number(when)

    def _composite(self, kind, children):
        cls = AllOf if kind == "all" else AnyOf
        composite = cls(self.sim, children)
        self._watch(composite)
        if composite.triggered:
            self._trigger(composite, self.sim.now)
        else:
            def marker(_event):
                # runs right after the composite's own child callback
                if composite.triggered and composite not in self.ids:
                    self._trigger(composite, self.sim.now)
            for child in children:
                if not child.processed:
                    child.callbacks.append(marker)
        return composite

    # --- processes ------------------------------------------------------
    def _body(self, state, start, steps):
        sim = self.sim
        self._observe(start)
        for kind, arg in steps:
            children = None
            if kind == "sleep":
                target = sim.timeout(arg)
                self._trigger(target, sim.now + arg)
                self._watch(target)
            elif not self.pool:
                continue
            elif kind == "wait":
                target = self.pool[arg % len(self.pool)]
            else:
                children = [self.pool[i % len(self.pool)] for i in arg]
                target = self._composite(kind, children)
            relay = self._number(sim.now) if target.processed else None
            state["relay"] = relay
            state["target"] = target
            try:
                value = yield target
            except Interrupted as interrupt:
                self._delivered(state, interrupt)
                continue
            except Boom as exc:
                assert target is not state["cut"]
                state["relay"] = None
                if relay is not None:
                    self._observe(relay)
                assert not target.ok and target.value is exc
                if children is not None:
                    assert any(c.processed and not c.ok and c.value is exc
                               for c in children)
                continue
            assert target is not state["cut"]
            state["relay"] = None
            if relay is not None:
                self._observe(relay)
            assert sim.now == self.due[relay if relay is not None
                                       else self.ids[target]]
            if kind == "all":
                assert all(c.processed and c.ok for c in children)
                assert value == [c.value for c in children]
            elif kind == "any":
                index, first = value
                assert children[index].processed
                assert first == children[index].value
        while state["interrupts"]:
            # stay alive for every interrupt already sent
            try:
                yield sim.event()
            except Interrupted as interrupt:
                self._delivered(state, interrupt)
        self._trigger(sim.active_process, sim.now)
        return len(steps)

    def _delivered(self, state, interrupt):
        if state["relay"] is not None:
            # the relay is still processed, but resumes nobody now
            self.orphans.add(state["relay"])
            state["relay"] = None
        state["interrupts"] -= 1
        state["cut"] = None
        self._observe(interrupt.cause)

    @rule(steps=st.lists(STEP, max_size=4))
    def spawn(self, steps):
        state = {"interrupts": 0, "relay": None, "target": None,
                 "cut": None}
        start = self._number(self.sim.now)
        process = self.sim.process(self._body(state, start, steps))

        def observe(event):
            self._observe(self.ids[event])
            if not event.ok:   # an assertion inside the process
                raise event.value

        process.callbacks.append(observe)
        self.procs.append((process, state))

    def _alive(self):
        return [(p, s) for p, s in self.procs if p.is_alive]

    @precondition(lambda self: self._alive())
    @rule(data=st.data())
    def interrupt(self, data):
        process, state = data.draw(st.sampled_from(self._alive()))
        state["interrupts"] += 1
        # what the process waits on now must never resume it
        state["cut"] = state["target"]
        process.interrupt(self._number(self.sim.now))

    # --- events and timers ----------------------------------------------
    @rule()
    def new_event(self):
        event = self.sim.event()
        self._watch(event)
        self.pool.append(event)

    @precondition(lambda self: any(not e.triggered for e in self.pool))
    @rule(data=st.data(), ok=st.booleans(), delay=DELAYS)
    def trigger(self, data, ok, delay):
        event = data.draw(st.sampled_from(
            [e for e in self.pool if not e.triggered]))
        self._trigger(event, self.sim.now + delay)
        if ok:
            event.succeed(len(self.due), delay=delay)
        else:
            event.fail(Boom(), delay=delay)

    @rule(delay=DELAYS, stop=st.booleans())
    def schedule(self, delay, stop):
        number = self._number(self.sim.now + delay)

        def callback(_sim):
            self._observe(number)
            if stop:
                raise StopSimulation()

        self.sim.schedule(delay, callback)

    # --- driving the clock ----------------------------------------------
    @rule(horizon=st.sampled_from([None, 0.0, 0.25, 0.5, 1.0, 2.0]))
    def run(self, horizon):
        sim = self.sim
        until = None if horizon is None else sim.now + horizon
        sim.run(until)
        if sim.stopped:
            return
        pending = self._pending()
        if until is None:
            assert not pending
        else:
            assert sim.now == until
            assert all(self.due[n] > until for n in pending)

    @rule(data=st.data(), delay=DELAYS)
    def run_until(self, data, delay):
        sim = self.sim
        waiting = [e for e in self.pool if e.triggered and not e.processed]
        if waiting and data.draw(st.booleans()):
            target = data.draw(st.sampled_from(waiting))
        else:
            target = sim.timeout(delay)
            self._trigger(target, sim.now + delay)
            self._watch(target)
        try:
            sim.run_until(target)
        except Boom as exc:
            assert not target.ok and target.value is exc
        if not sim.stopped:
            assert target.processed
            assert self.observed[-1] == self.ids[target]

    @precondition(lambda self: self.sim.peek() is not None)
    @rule()
    def step(self):
        before = self.sim.processed_events
        try:
            self.sim.step()
        except StopSimulation:
            pass
        assert self.sim.processed_events == before + 1

    # --- the contract ---------------------------------------------------
    def _order(self):
        """Every item triggered so far, in the order it must be processed."""
        return sorted(self.due, key=lambda n: (self.due[n], n))

    def _pending(self):
        return self._order()[self.sim.processed_events:]

    @invariant()
    def processed_in_trigger_order(self):
        keys = [(self.due[n], n) for n in self.observed]
        assert keys == sorted(keys)
        assert len(set(self.observed)) == len(self.observed)

    @invariant()
    def processed_events_are_the_earliest_items(self):
        # Anything triggered later is due no earlier than now, so the
        # processed items are always a prefix of that order.
        done = set(self._order()[:self.sim.processed_events])
        assert set(self.observed) <= done
        assert done - set(self.observed) <= self.orphans

    @invariant()
    def peek_names_earliest_pending(self):
        pending = self._pending()
        expected = self.due[pending[0]] if pending else None
        assert self.sim.peek() == expected


TestKernelOrdering = KernelOrdering.TestCase
TestKernelOrdering.settings = settings(max_examples=150,
                                       stateful_step_count=40,
                                       deadline=None)
