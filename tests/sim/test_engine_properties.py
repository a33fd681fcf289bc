"""Property tests for the slotted scheduler's full API surface.

Complements ``test_engine_stateful.py`` (schedule/cancel machine) with all
three scheduling entry points: ``schedule`` and ``schedule_at`` (each with and
without ``*args``) and handle-recycling ``reschedule``.  Hypothesis drives
random interleavings and checks the scheduler's ``(time, seq)`` contract:

* events fire in non-decreasing time order, ties in insertion order;
* a handle cancelled while pending never fires;
* every non-cancelled arming fires exactly once (including re-armings of a
  recycled handle);
* non-finite and negative delays (or past times) are rejected by every
  scheduling entry point.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator

# One scheduler operation; indexes are drawn large and reduced mod the
# relevant population so every generated program is valid.
_delay = st.floats(min_value=0.0, max_value=50.0)
_op = st.one_of(
    # (kind, delay, pass the payload through *args?)
    st.tuples(st.sampled_from(["schedule", "schedule_at"]), _delay, st.booleans()),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10**6)),
    st.tuples(
        st.just("reschedule"),
        st.integers(min_value=0, max_value=10**6),
        _delay,
    ),
    st.tuples(st.just("run"), st.floats(min_value=0.0, max_value=30.0)),
)


class _Arming:
    """One arming of a handle: a (handle, activation) pair in the model."""

    __slots__ = ("aid", "time", "cancelled")

    def __init__(self, aid: int, time: float) -> None:
        self.aid = aid
        self.time = time
        self.cancelled = False


@settings(max_examples=120, deadline=None)
@given(ops=st.lists(_op, max_size=40))
def test_interleavings_preserve_contract(ops):
    sim = Simulator()
    fired: list[tuple[float, int]] = []
    armings: list[_Arming] = []  # in arming (insertion) order
    # handle -> mutable cell holding its *current* arming; reschedule swaps it.
    cells: list[tuple[object, list[_Arming]]] = []

    def arm(handle_cell: list[_Arming], delay: float) -> _Arming:
        arming = _Arming(len(armings), sim.now + delay)
        armings.append(arming)
        handle_cell.clear()
        handle_cell.append(arming)
        return arming

    def fire(handle_cell: list[_Arming]) -> None:
        fired.append((sim.now, handle_cell[0].aid))

    def make_callback(handle_cell: list[_Arming]):
        return lambda: fire(handle_cell)

    for op in ops:
        kind = op[0]
        if kind in ("schedule", "schedule_at"):
            cell: list[_Arming] = []
            when = op[1] if kind == "schedule" else sim.now + op[1]
            entry_point = getattr(sim, kind)
            if op[2]:
                handle = entry_point(when, fire, cell)
            else:
                handle = entry_point(when, make_callback(cell))
            arm(cell, op[1])
            cells.append((handle, cell))
        elif kind == "cancel":
            pending = [(h, c) for h, c in cells if h.pending]
            if pending:
                handle, cell = pending[op[1] % len(pending)]
                handle.cancel()
                cell[0].cancelled = True
        elif kind == "reschedule":
            recyclable = [(h, c) for h, c in cells if h._fired]
            if recyclable:
                handle, cell = recyclable[op[1] % len(recyclable)]
                sim.reschedule(handle, op[2])
                arm(cell, op[2])
        elif kind == "run":
            sim.run(until=sim.now + op[1])
    sim.run()  # drain

    # Non-decreasing fire times; ties in arming order.
    times = [t for t, _ in fired]
    assert times == sorted(times)
    for (t1, a1), (t2, a2) in zip(fired, fired[1:]):
        if t1 == t2:
            assert a1 < a2, "same-time events fired out of insertion order"

    fired_ids = [aid for _, aid in fired]
    assert len(fired_ids) == len(set(fired_ids)), "an arming fired twice"
    expected = {a.aid for a in armings if not a.cancelled}
    assert set(fired_ids) == expected
    for t, aid in fired:
        assert t == pytest.approx(armings[aid].time)


_bad_delay = st.one_of(
    st.just(float("nan")),
    st.just(float("inf")),
    st.just(-float("inf")),
    st.floats(max_value=-1e-9, allow_nan=False),
)


@settings(max_examples=60, deadline=None)
@given(bad=_bad_delay)
def test_all_entry_points_reject_bad_delays(bad):
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(bad, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(bad, print, "never")
    with pytest.raises(SimulationError):
        sim.schedule_at(bad, lambda: None)  # now == 0: a bad delay is a bad time
    with pytest.raises(SimulationError):
        sim.schedule_at(bad, print, "never")
    fired_handle = sim.schedule(0.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.reschedule(fired_handle, bad)


def test_reschedule_requires_fired_handle():
    sim = Simulator()
    pending = sim.schedule(1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.reschedule(pending, 1.0)
    pending.cancel()
    with pytest.raises(SimulationError):
        sim.reschedule(pending, 1.0)  # lazily-cancelled entry is still queued


def test_recycled_handle_cancel_does_not_resurrect():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.0]
    sim.reschedule(handle, 2.0)
    handle.cancel()
    sim.run()
    assert fired == [1.0], "cancelled re-arming must not fire"
    # A cancelled re-arming never fires, so the handle stays unrecyclable:
    # only a handle whose queue entry was consumed by firing may be re-armed.
    with pytest.raises(SimulationError):
        sim.reschedule(handle, 0.5)
