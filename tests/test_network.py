import enum
import importlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter, deque
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import Phase, given, settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from conftest import oracle_lines
from dataspace import (
    Asserted,
    Capture,
    Continue,
    MessageAction,
    MessageEvent,
    NonQuiescent,
    OutputAction,
    Patch,
    PatchAction,
    PatchEvent,
    QUIT,
    Record,
    SpawnAction,
    Sym,
    VisibilityMismatch,
    WILDCARD,
    aggregate_snapshots,
    forever,
    interests_of,
    is_ground,
    matches,
    new_network,
    observe,
    reactive_actor,
    rec,
    sort_patterns,
    until,
    visible,
)
from dataspace import tracing
from dataspace.network import Network
from dataspace.patches import crossings, delta, observed
from dataspace.scenarios import SCENARIOS, build_bank_account_plain, run_scenario
from dataspace.values import from_jsonable, to_jsonable


def account(x):
    return rec("account", x)


def deposit(x):
    return rec("deposit", x)


def idle(event, state):
    return None


def recorder(log):
    """A behaviour that appends every event it receives to log."""

    def step(event, state):
        log.append(event)
        return None

    return step


def test_new_network_is_empty():
    net = new_network()
    assert len(net.actors) == 0
    assert not net.aggregate
    assert net.run_until_quiescent(100) == 0


def test_spawn_registers_actor():
    net = new_network()
    net.spawn(idle, None)
    assert len(net.actors) == 1


def test_spawn_startup_patch_lands_in_aggregate():
    net = new_network()
    net.spawn(
        idle, None, [PatchAction(Patch({account(0), observe(deposit(WILDCARD))}, ()))]
    )
    assert set(net.aggregate) == {account(0), observe(deposit(WILDCARD))}


def test_spawn_without_startup_actions_changes_nothing():
    net = new_network()
    net.spawn(idle, None)
    assert not net.aggregate


def test_late_subscriber_gets_retrospective_patch():
    net = new_network()
    net.spawn(idle, None, [PatchAction(Patch({account(0)}, ()))])
    observer = net.spawn(
        idle, None, [PatchAction(Patch({observe(account(WILDCARD))}, ()))]
    )
    aid, event = net.queue[0]
    assert aid == observer
    assert event == PatchEvent(Patch({account(0)}, ()))


def test_unsubscribe_gets_removal_patch():
    net = new_network()
    net.spawn(idle, None, [PatchAction(Patch({account(0)}, ()))])
    observer = net.spawn(
        idle, None, [PatchAction(Patch({observe(account(WILDCARD))}, ()))]
    )
    net.run_until_quiescent(10)
    net.interpret_action(observer, PatchAction(Patch((), {observe(account(WILDCARD))})))
    assert (observer, PatchEvent(Patch((), {account(0)}))) in list(net.queue)


def test_patch_notifies_interested_observer():
    net = new_network()
    events = []

    def recorder(event, state):
        events.append(event)
        return None

    manager = net.spawn(
        idle, 0, [PatchAction(Patch({account(0), observe(deposit(WILDCARD))}, ()))]
    )
    net.spawn(recorder, None, [PatchAction(Patch({observe(account(WILDCARD))}, ()))])
    net.run_until_quiescent(10)
    net.interpret_action(manager, PatchAction(Patch({account(100)}, {account(0)})))
    net.run_until_quiescent(10)
    assert PatchEvent(Patch({account(0)}, ())) in events
    assert PatchEvent(Patch({account(100)}, {account(0)})) in events


def test_message_routed_by_interest():
    net = new_network()
    got = []

    def manager(event, state):
        if isinstance(event, MessageEvent):
            got.append(event.body)
        return None

    net.spawn(manager, None, [PatchAction(Patch({observe(deposit(WILDCARD))}, ()))])
    sender = net.spawn(idle, None)
    net.interpret_action(sender, MessageAction(deposit(100)))
    net.run_until_quiescent(10)
    assert got == [deposit(100)]


def test_one_fan_out_shares_one_event_and_one_trace_form():
    net = new_network()
    net.spawn(idle, None, [PatchAction(Patch({account(1)}, ()))])
    # already sees account(1), which the publisher asserts a second copy of
    seeing = net.spawn(idle, None, [PatchAction(Patch({observe(account(1))}, ()))])
    interests = Patch({observe(account(2)), observe(deposit(WILDCARD))}, ())
    observers = [net.spawn(idle, None, [PatchAction(interests)]) for _ in range(3)]
    publisher = net.spawn(idle, None)
    net.run_until_quiescent(100)
    mark = len(net.trace.entries)
    net.interpret_action(publisher, PatchAction(Patch({account(1), account(2)}, ())))
    assert [aid for aid, _ in net.queue] == observers  # nothing for seeing
    events = {id(event) for _, event in net.queue}
    assert len(events) == 1
    assert net.queue[0][1] == PatchEvent(Patch({account(2)}, ()))
    net.run_until_quiescent(100)
    patch_ins = [e for e in net.trace.entries[mark:] if e["kind"] == "patch-in"]
    assert len(patch_ins) == 3
    assert all(e["data"] is patch_ins[0]["data"] for e in patch_ins)

    # a change equal to the publisher's own patch is that patch, trace form and all
    mark = len(net.trace.entries)
    own = Patch({deposit(3)}, {account(2)})
    net.interpret_action(publisher, PatchAction(own))
    assert [aid for aid, _ in net.queue] == observers
    assert net.queue[0][1].patch == own
    net.run_until_quiescent(100)
    (patch_out,) = [e for e in net.trace.entries[mark:] if e["kind"] == "patch-out"]
    patch_ins = [e for e in net.trace.entries[mark:] if e["kind"] == "patch-in"]
    assert len(patch_ins) == 3
    assert all(e["data"] is patch_out["data"] for e in patch_ins)

    net.interpret_action(publisher, MessageAction(deposit(5)))
    assert [aid for aid, _ in net.queue] == observers
    assert len({id(event) for _, event in net.queue}) == 1
    net.run_until_quiescent(100)
    assert net.trace.lines() == oracle_lines(net.trace)


def test_a_fan_out_builds_as_many_patches_for_one_receiver_as_for_many(monkeypatch):
    # receivers whose seen-bag change is equal share one Patch, so the count
    # of patches one publish builds does not grow with the receivers; a
    # publish that needs no clamping is its own patch-out, and its receivers,
    # who see exactly that change, get it too: it builds none
    built = []
    post_init = Patch.__post_init__
    monkeypatch.setattr(Patch, "__post_init__", lambda p: built.append(p) or post_init(p))
    counts = []
    for n in (1, 4, 32):
        net = new_network()
        interest = Patch({observe(rec("presence", 1, WILDCARD))}, ())
        observers = [net.spawn(idle, None, [PatchAction(interest)]) for _ in range(n)]
        publisher = net.spawn(idle, None)
        net.run_until_quiescent(100)
        action = PatchAction(Patch({rec("presence", 1, 7)}, ()))
        built.clear()
        net.interpret_action(publisher, action)
        counts.append(len(built))
        assert [aid for aid, _ in net.queue] == observers
        assert all(event.patch is action.patch for _, event in net.queue)
    assert counts == [0] * 3, counts


def test_a_fan_out_walks_as_many_bags_for_one_receiver_as_for_many(monkeypatch):
    # only the aggregate and the patcher go through crossings: a receiver's
    # change is the delta assertions its interests reach
    walked = []
    monkeypatch.setattr(
        "dataspace.network.crossings",
        lambda bag, *args: walked.append(bag) or crossings(bag, *args),
    )
    counts = []
    for n in (1, 4, 32):
        net = new_network()
        interest = Patch({observe(rec("presence", 1, WILDCARD))}, ())
        observers = [net.spawn(idle, None, [PatchAction(interest)]) for _ in range(n)]
        publisher = net.spawn(idle, None)
        net.run_until_quiescent(100)
        for patch in (Patch({rec("presence", 1, 7)}, ()), Patch((), {rec("presence", 1, 7)})):
            walked.clear()
            net.interpret_action(publisher, PatchAction(patch))
            counts.append(len(walked))
            assert [aid for aid, _ in net.queue] == observers
            net.run_until_quiescent(100)
    assert counts == [1] * 6, counts
    assert all(not net.actors[aid].seen for aid in observers)


def test_receivers_reached_by_the_same_assertions_share_one_event():
    # x reaches one observer of x, one of both and one holding two interests
    # on x; y reaches the observer of y and the observer of both
    x, y = rec("x", 1), rec("y", 1)
    on_x, on_y = observe(rec("x", WILDCARD)), observe(rec("y", WILDCARD))
    net = new_network()
    interests = ({on_x}, {on_y}, {on_x, on_y}, {on_x, observe(x)})
    sees_x, sees_y, sees_both, twice = [
        net.spawn(idle, None, [PatchAction(Patch(held, ()))]) for held in interests
    ]
    publisher = net.spawn(idle, None)
    net.run_until_quiescent(100, after_step=net.check_visibility)
    gain = Patch({x, y}, ())
    net.interpret_action(publisher, PatchAction(gain))
    net.check_visibility()
    events = dict(net.queue)
    assert list(events) == [sees_x, sees_y, sees_both, twice]
    assert events[sees_x] is events[twice]
    assert events[sees_x].patch == Patch({x}, ())
    assert events[sees_y].patch == Patch({y}, ())
    assert events[sees_both].patch == gain
    assert len({id(event) for event in events.values()}) == 3
    assert net.actors[twice].seen == {x: 2}
    assert net.actors[sees_both].seen == {x: 1, y: 1}
    mark = len(net.trace.entries) - 1
    net.run_until_quiescent(100, after_step=net.check_visibility)
    # the change equal to the sender's is its clamped patch, trace form and all
    patch_out, *patch_ins = net.trace.entries[mark:]
    assert patch_out["kind"] == "patch-out"
    assert [e["data"] is patch_out["data"] for e in patch_ins] == [False, False, True, False]
    net.interpret_action(publisher, PatchAction(Patch((), {x, y})))
    net.check_visibility()
    assert [event.patch for _, event in net.queue] == [
        Patch((), {x}),
        Patch((), {y}),
        Patch((), {x, y}),
        Patch((), {x}),
    ]
    net.run_until_quiescent(100, after_step=net.check_visibility)
    assert all(not entry.seen for entry in net.actors.values())


def test_releasing_what_a_receiver_does_not_hold_crashes_the_patcher():
    # a receiver's count goes below zero only if its bag was corrupted; the
    # patcher crashes on it, as crossings makes it on its own bag.  A seen bag
    # corrupted from outside the runtime is not covered by the crash
    # contract, since no actor can reach it: this patch only retracts, so
    # its crash settles, but a patch that also asserts leaves the fan-out
    # half-applied, and the KeyError escapes run_until_quiescent through
    # the patcher's crash, as it escapes a direct interpret_action call
    x = rec("x", 1)

    def retract_on_message(event, state):
        if isinstance(event, MessageEvent):
            return Continue(state, [PatchAction(Patch((), {x}))])
        return None

    net = new_network()
    observer = net.spawn(idle, None, [PatchAction(Patch({observe(rec("x", WILDCARD))}, ()))])
    publisher = net.spawn(
        retract_on_message, None, [PatchAction(Patch({x, observe(rec("go"))}, ()))]
    )
    net.run_until_quiescent(100)
    assert net.actors[observer].seen == {x: 1}
    del net.actors[observer].seen[x]
    net.queue.append((publisher, MessageEvent(rec("go"))))
    net.run_until_quiescent(100)
    assert publisher not in net.actors
    crashes = [e for e in net.trace.entries if e["kind"] == "crash"]
    assert [(e["actor"], e["data"].split(":")[0]) for e in crashes] == [
        (f"g/{publisher}", "KeyError")
    ]


def test_a_render_joins_a_fan_outs_patch_text_as_often_for_one_receiver_as_for_many(
    monkeypatch,
):
    # the patch-ins of a fan-out share the patch-out's form, which keeps its
    # text once joined, so a later render joins nothing
    joined = []
    patch_text = tracing._patch_text
    monkeypatch.setattr(tracing, "_patch_text", lambda form: joined.append(form) or patch_text(form))
    counts = []
    for n in (1, 4, 32):
        net = new_network()
        interest = Patch({observe(rec("presence", 1, WILDCARD))}, ())
        for _ in range(n):
            net.spawn(idle, None, [PatchAction(interest)])
        publisher = net.spawn(idle, None)
        net.run_until_quiescent(100)
        mark = len(net.trace.entries)
        net.interpret_action(publisher, PatchAction(Patch({rec("presence", 1, 7)}, ())))
        net.run_until_quiescent(100)
        assert len(net.trace.entries) == mark + 1 + n
        # the n observers' patch-outs share one interest patch, so the first
        # render of the whole trace joins as often for every n
        joined.clear()
        first = net.trace.lines()
        counts.append(len(joined))
        joined.clear()
        assert net.trace.lines() == first == oracle_lines(net.trace)
        assert joined == []
    assert counts[0] > 0 and counts == [counts[0]] * 3, counts


def test_trace_entries_read_as_fresh_dicts_of_what_the_lines_say():
    net = new_network()
    build_bank_account_plain(net)
    net.run_until_quiescent(100)
    lines = net.trace.lines()
    want = [json.loads(line) for line in lines]
    entries, k = net.trace.entries, len(lines) // 2
    assert k > 1 and len(entries) == len(lines)
    assert entries[0] == want[0] and entries[-1] == want[-1] and entries[k] == want[k]
    assert entries[k:] == want[k:] and entries[-k:] == want[-k:]
    assert list(entries) == want
    assert all(list(e) == ["seq", "actor", "kind", "data"] for e in entries)
    with pytest.raises(IndexError):
        entries[len(lines)]
    # a dict read is the reader's own: changing it changes nothing kept
    first, tail = entries[0], entries[k:]
    first["kind"] = tail[0]["seq"] = "changed"
    del tail[-1]["actor"]
    assert net.trace.lines() == lines and list(net.trace.entries) == want


def trace_bytes_per_entry(rounds: int) -> float:
    """Bytes the trace keeps per entry over rounds of a presence-shaped fan-out.

    Sixteen observers of (presence _ _) see every round's change: one
    (presence k v) asserted, then retracted the next round, so each round
    emits one patch-out and sixteen patch-ins that share its data.
    """
    net = new_network()
    interest = Patch({observe(rec("presence", WILDCARD, WILDCARD))}, ())
    for _ in range(16):
        net.spawn(idle, None, [PatchAction(interest)])
    publisher = net.spawn(idle, None)

    def play(i):
        p = rec("presence", i // 2 % 8, i // 2)
        net.interpret_action(publisher, PatchAction(Patch((), {p}) if i % 2 else Patch({p}, ())))
        net.run_until_quiescent(100)

    net.run_until_quiescent(100)
    play(0)
    play(1)
    mark = len(net.trace.entries)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(2, 2 + rounds):
            play(i)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return kept / (len(net.trace.entries) - mark)


def test_the_trace_keeps_an_entry_in_fewer_bytes_than_a_dict_takes():
    # 83 to 99 bytes per entry on Python 3.11, as the intern table left by
    # earlier work varies: an (actor, kind, data) tuple and its list slot,
    # with a share of the round's data.  Keeping each entry as a {seq,
    # actor, kind, data} dict would take about 245.  Bytes, unlike time, do
    # not vary with the host, so this runs on every Python; the margin
    # either side is for versions whose object sizes differ from 3.11's
    assert trace_bytes_per_entry(500) < 160


@pytest.mark.parametrize("kind", ["message", "patch"])
def test_a_fan_out_joins_the_queue_in_one_append_for_one_receiver_as_for_many(kind):
    # a message or patch fanned out to n observers is one extend of the queue
    calls = []

    class Queue(deque):
        def extend(self, pairs):
            calls.append(pairs)
            super().extend(pairs)

    counts = []
    for n in (1, 4, 32):
        net = new_network()
        net.queue = Queue()
        interest = Patch({observe(rec("presence", 1, WILDCARD))}, ())
        observers = [net.spawn(idle, None, [PatchAction(interest)]) for _ in range(n)]
        publisher = net.spawn(idle, None)
        net.run_until_quiescent(100)
        value = rec("presence", 1, 7)
        action = MessageAction(value) if kind == "message" else PatchAction(Patch({value}, ()))
        calls.clear()
        net.interpret_action(publisher, action)
        counts.append(len(calls))
        assert [aid for aid, _ in net.queue] == observers
    assert counts == [1, 1, 1], counts


@pytest.mark.parametrize("k", range(2, 9))
def test_a_patcher_and_an_observer_seeing_one_change_share_one_event(k):
    # the observer's claims come from the aggregate's change and the patcher's
    # from its new interest, each in its own order; equal sets are one change
    net = new_network()
    observer = net.spawn(idle, None, [PatchAction(Patch({observe(rec("x", WILDCARD))}, ()))])
    patcher = net.spawn(idle, None)
    net.run_until_quiescent(100)
    xs = {rec("x", i) for i in range(k)}
    net.interpret_action(patcher, PatchAction(Patch(xs | {observe(rec("x", WILDCARD))}, ())))
    assert [aid for aid, _ in net.queue] == [observer, patcher]
    assert len({id(event) for _, event in net.queue}) == 1
    assert net.queue[0][1] == PatchEvent(Patch(xs, ()))


def test_sender_receives_own_message_when_self_interested():
    net = new_network()
    got = []

    def chatty(event, state):
        if isinstance(event, MessageEvent):
            got.append(event.body)
        return None

    loud = net.spawn(chatty, None, [PatchAction(Patch({observe(Sym("hello"))}, ()))])
    net.interpret_action(loud, MessageAction(Sym("hello")))
    net.run_until_quiescent(10)
    assert got == [Sym("hello")]


def test_actor_observes_its_own_assertions():
    net = new_network()
    got = []

    def watcher(event, state):
        if isinstance(event, PatchEvent):
            got.append(event.patch)
        return None

    x = rec("ok", "mgr")
    net.spawn(watcher, None, [PatchAction(Patch({x, observe(x)}, ()))])
    net.run_until_quiescent(10)
    assert got == [Patch({x}, ())]


def test_non_ground_message_crashes_sender_and_retracts():
    net = new_network()
    events = []

    def recorder(event, state):
        events.append(event)
        return None

    def reckless(event, state):
        return Continue(state, [MessageAction(deposit(WILDCARD))])

    net.spawn(recorder, None, [PatchAction(Patch({observe(rec("ok", WILDCARD))}, ()))])
    sender = net.spawn(reckless, None, [PatchAction(Patch({rec("ok", "s")}, ()))])
    net.run_until_quiescent(10)  # deliver the recorder its +ok patch
    net.queue.append((sender, MessageEvent(Sym("poke"))))
    net.run_until_quiescent(10)
    assert sender not in net.actors
    assert rec("ok", "s") not in net.aggregate
    assert PatchEvent(Patch((), {rec("ok", "s")})) in events
    crash_entries = [e for e in net.trace.entries if e["kind"] == "crash"]
    assert len(crash_entries) == 1 and "non-ground" in crash_entries[0]["data"]


def test_crash_notifies_interested_peers():
    net = new_network()
    ok = rec("ok", "mgr")
    manager = net.spawn(idle, None, [PatchAction(Patch({ok}, ()))])
    events = []

    def monitor(event, state):
        events.append(event)
        return None

    net.spawn(monitor, None, [PatchAction(Patch({observe(ok)}, ()))])
    net.run_until_quiescent(10)
    net.terminate_actor(manager, crash="induced")
    net.run_until_quiescent(10)
    assert PatchEvent(Patch((), {ok})) in events
    assert [e["kind"] for e in net.trace.entries if e["actor"] == "g/0"] == [
        "spawn",
        "patch-out",
        "patch-out",
        "crash",
    ]


def test_clean_termination_retracts_assertions():
    net = new_network()
    upd = net.spawn(
        idle, None, [PatchAction(Patch({observe(observe(deposit(WILDCARD)))}, ()))]
    )
    net.terminate_actor(upd)
    assert not net.aggregate
    assert upd not in net.actors


def test_terminating_assertionless_actor_notifies_nobody():
    net = new_network()
    net.spawn(idle, None, [PatchAction(Patch({observe(WILDCARD)}, ()))])
    net.run_until_quiescent(10)
    quiet = net.spawn(idle, None)
    net.terminate_actor(quiet)
    assert not net.queue


def test_queued_events_for_terminated_actor_are_dropped():
    net = new_network()
    seen = []

    def recorder(event, state):
        seen.append(event)
        return None

    doomed = net.spawn(recorder, None, [PatchAction(Patch({observe(Sym("x"))}, ()))])
    sender = net.spawn(idle, None)
    net.interpret_action(sender, MessageAction(Sym("x")))
    assert net.queue
    net.terminate_actor(doomed)
    assert not net.queue
    net.run_until_quiescent(10)
    assert seen == []


def test_duplicate_assertion_shielding():
    net = new_network()
    x = rec("shared", 1)
    events = []

    def monitor(event, state):
        events.append(event)
        return None

    first = net.spawn(idle, None, [PatchAction(Patch({x}, ()))])
    net.spawn(idle, None, [PatchAction(Patch({x}, ()))])
    net.spawn(monitor, None, [PatchAction(Patch({observe(x)}, ()))])
    net.run_until_quiescent(10)
    events.clear()
    net.terminate_actor(first)
    net.run_until_quiescent(10)
    assert events == []  # the other claimant still holds x
    assert net.aggregate[x] == 1


def test_behaviour_exception_becomes_crash():
    net = new_network()

    def broken(event, state):
        raise RuntimeError("boom")

    bad = net.spawn(broken, None, [PatchAction(Patch({rec("ok", "b")}, ()))])
    net.queue.append((bad, MessageEvent(Sym("poke"))))
    net.run_until_quiescent(10)
    assert bad not in net.actors
    assert rec("ok", "b") not in net.aggregate
    assert any(
        e["kind"] == "crash" and "boom" in e["data"] for e in net.trace.entries
    )


def test_quit_mid_action_list_discards_remainder():
    net = new_network()

    def eager(event, state):
        return Continue(state, [QUIT, MessageAction(Sym("late"))])

    actor = net.spawn(eager, None)
    net.queue.append((actor, MessageEvent(Sym("poke"))))
    net.run_until_quiescent(10)
    assert actor not in net.actors
    assert not any(e["kind"] == "message" for e in net.trace.entries)


def assert_crashed_cleanly(net, aid, detail):
    assert aid not in net.actors
    crashes = [
        e["data"]
        for e in net.trace.entries
        if e["actor"] == f"g/{aid}" and e["kind"] == "crash"
    ]
    assert crashes == [detail]
    net.check_visibility()


@pytest.mark.parametrize(
    "result, detail",
    [
        (42, "TypeError: step result is not Continue or None: 42"),
        (Continue(None, None), "TypeError: 'NoneType' object is not iterable"),
    ],
    ids=["int", "none-actions"],
)
def test_bad_step_result_crashes_actor(result, detail):
    net = new_network()
    ok = rec("ok", "b")
    seen = []

    def monitor(event, state):
        seen.append(event)
        return None

    net.spawn(monitor, None, [PatchAction(Patch({observe(ok)}, ()))])
    bad = net.spawn(lambda event, state: result, None, [PatchAction(Patch({ok}, ()))])
    net.queue.append((bad, MessageEvent(Sym("poke"))))
    net.run_until_quiescent(10)
    assert_crashed_cleanly(net, bad, detail)
    assert seen == [PatchEvent(Patch({ok}, ())), PatchEvent(Patch((), {ok}))]


@pytest.mark.parametrize(
    "bad, detail",
    [
        (1.5, "TypeError: not a pattern: 1.5"),
        ("'x", "ValueError: string \"'x\" collides with the canonical grammar"),
        (rec("y", Capture()), "TypeError: not a pattern: (y (?! _))"),
    ],
    ids=["float", "quoted-string", "capture"],
)
def test_non_value_startup_assertion_crashes_new_actor(bad, detail):
    net = new_network()
    aid = net.spawn(idle, None, [PatchAction(Patch({bad, rec("ok", 1)}, ()))])
    assert_crashed_cleanly(net, aid, detail)
    assert not net.aggregate
    assert [e["kind"] for e in net.trace.entries] == ["spawn", "crash"]


@pytest.mark.parametrize(
    "atom", [Sym("s"), "s", 1, True], ids=["symbol", "string", "integer", "boolean"]
)
def test_asserting_a_bare_atom_crashes_the_actor(atom):
    # a set of bare atoms would merge 1 and #t, so only records and the
    # wildcard are assertions; the rest of the patch is rejected with it
    net = new_network()
    seen = []
    net.spawn(recorder(seen), None, [PatchAction(Patch({observe(atom), observe(rec("ok", 1))}, ()))])
    aid = net.spawn(
        idle, None, [PatchAction(Patch({rec("ok", 1)}, ())), PatchAction(Patch({atom}, ()))]
    )
    net.run_until_quiescent(10)
    assert_crashed_cleanly(net, aid, f"TypeError: bare atom asserted: {atom!r}")
    assert seen == [PatchEvent(Patch({rec("ok", 1)}, ())), PatchEvent(Patch((), {rec("ok", 1)}))]
    assert dict(net.aggregate) == {observe(atom): 1, observe(rec("ok", 1)): 1}


class Color(str, enum.Enum):
    RED = "red"


class N(enum.IntEnum):
    RED = 0


@pytest.mark.parametrize("member", [Color.RED, N.RED], ids=["str-enum", "int-enum"])
def test_asserting_an_enum_member_crashes_only_its_actor(member):
    # (paint Color.RED) would write the text of (paint "red"), a different
    # assertion: the runtime would hold two where a replay of the trace holds one
    net = new_network()
    seen = []
    watcher = net.spawn(recorder(seen), None, [PatchAction(Patch({observe(rec("paint", WILDCARD))}, ()))])
    aid = net.spawn(idle, None, [PatchAction(Patch({rec("paint", member), rec("paint", "red")}, ()))])
    net.run_until_quiescent(10)
    assert_crashed_cleanly(net, aid, f"TypeError: not a pattern: {rec('paint', member)!r}")
    assert watcher in net.actors and seen == []
    assert [e["kind"] for e in net.trace.entries] == ["spawn", "patch-out", "spawn", "crash"]


@pytest.mark.parametrize(
    "shown",
    [Capture(), WILDCARD, rec("x", WILDCARD), 1.5],
    ids=["capture", "wildcard", "record-with-wildcard", "float"],
)
def test_displaying_a_non_value_crashes_the_actor(shown):
    net = new_network()
    aid = net.spawn(
        idle, None, [PatchAction(Patch({rec("ok", 1)}, ())), OutputAction(shown)]
    )
    assert_crashed_cleanly(net, aid, f"ValueError: non-ground event-message: {shown!r}")
    assert not net.aggregate
    kinds = [e["kind"] for e in net.trace.entries]
    assert kinds == ["spawn", "patch-out", "patch-out", "crash"]


def _ping_pong():
    # two bouncers that answer each other's message forever, and a kicker
    net = new_network()

    def bouncer(reply):
        def step(event, state):
            if isinstance(event, MessageEvent):
                return Continue(state, [MessageAction(reply)])
            return None

        return step

    net.spawn(
        bouncer(Sym("pong")), None, [PatchAction(Patch({observe(Sym("ping"))}, ()))]
    )
    net.spawn(
        bouncer(Sym("ping")), None, [PatchAction(Patch({observe(Sym("pong"))}, ()))]
    )
    kicker = net.spawn(idle, None)
    net.interpret_action(kicker, MessageAction(Sym("ping")))
    return net


def test_ping_pong_reports_non_quiescent():
    with pytest.raises(NonQuiescent) as err:
        _ping_pong().run_until_quiescent(50)
    assert err.value.max_steps == 50


def test_dispatch_empty_queue_is_quiescent():
    assert new_network().dispatch_one() is False


def _three_queued_messages():
    # a recorder subscribed to (n _) and three messages queued for it: n 0, 1, 2
    net = new_network()
    seen = []

    def record(event, state):
        seen.append(event.body.fields[0])

    n = Record(Sym("n"), (WILDCARD,))
    net.spawn(record, None, [PatchAction(Patch({observe(n)}, ()))])
    kicker = net.spawn(idle, None)
    for i in range(3):
        net.interpret_action(kicker, MessageAction(rec("n", i)))
    assert len(net.queue) == 3
    return net, seen


@pytest.mark.parametrize(
    "pick", [lambda n: n, lambda n: -1, lambda n: n + 5], ids=["n", "-1", "n+5"]
)
def test_an_out_of_range_pick_raises_and_dispatches_nothing(pick):
    net, seen = _three_queued_messages()
    queued, entries = list(net.queue), list(net.trace.entries)
    with pytest.raises(ValueError, match="no queued event"):
        net.run_until_quiescent(50, pick=pick)
    assert list(net.queue) == queued and list(net.trace.entries) == entries and seen == []


HOOKS = ["none", "pick", "after_step", "both"]


def counting_hooks(net, hooks, monkeypatch):
    """The run loop's keyword arguments for one combination of hooks.

    Returns them with a Counter of calls to each hook and of the dispatches
    made through ``net.dispatch_one``; pick always picks the oldest event.
    """
    calls = Counter()
    dispatch = net.dispatch_one

    def counted_dispatch():
        made = dispatch()
        calls["dispatch"] += made
        return made

    def pick(n):
        calls["pick"] += 1
        return 0

    def after_step():
        calls["after_step"] += 1

    monkeypatch.setattr(net, "dispatch_one", counted_dispatch)
    kwargs = {}
    if hooks in ("pick", "both"):
        kwargs["pick"] = pick
    if hooks in ("after_step", "both"):
        kwargs["after_step"] = after_step
    return kwargs, calls


@pytest.mark.parametrize("hooks", HOOKS)
def test_each_hook_runs_once_per_dispatch(hooks, monkeypatch):
    net, seen = _three_queued_messages()
    kwargs, calls = counting_hooks(net, hooks, monkeypatch)
    assert net.run_until_quiescent(50, **kwargs) == 3
    assert seen == [0, 1, 2]
    assert calls == {"dispatch": 3, **{hook: 3 for hook in kwargs}}


@pytest.mark.parametrize("hooks", HOOKS)
def test_non_quiescent_is_raised_at_the_same_budget_whatever_the_hooks(hooks, monkeypatch):
    net = _ping_pong()
    kwargs, calls = counting_hooks(net, hooks, monkeypatch)
    with pytest.raises(NonQuiescent) as err:
        net.run_until_quiescent(50, **kwargs)
    assert err.value.max_steps == 50
    assert calls == {"dispatch": 50, **{hook: 50 for hook in kwargs}}


def test_terminating_an_actor_filters_the_queue_in_place():
    # the queue is one deque for the network's life: run_until_quiescent
    # holds it across dispatches
    net = new_network()
    got = []

    def record(event, state):
        got.append(event.body.fields[0])

    interest = Patch({observe(rec("n", WILDCARD))}, ())
    first, doomed, last = (net.spawn(record, None, [PatchAction(interest)]) for _ in range(3))
    kicker = net.spawn(idle, None)
    for i in range(2):
        net.interpret_action(kicker, MessageAction(rec("n", i)))
    q = net.queue
    assert [aid for aid, _ in q] == [first, doomed, last] * 2
    net.terminate_actor(doomed)
    assert net.queue is q
    assert [aid for aid, _ in q] == [first, last] * 2
    assert [event.body for _, event in q] == [rec("n", 0)] * 2 + [rec("n", 1)] * 2
    net.run_until_quiescent(10)
    assert got == [0, 0, 1, 1]


def test_a_pick_of_the_last_actor_keeps_that_actors_events_in_order():
    # pick chooses an actor, not a queued event: a watcher told of (x 1)
    # and then of its retraction is told in that order, whatever is picked
    net = new_network()
    x = Record(Sym("x"), (WILDCARD,))
    watcher = net.spawn(idle, None, [PatchAction(Patch({observe(x)}, ()))])
    publisher = net.spawn(idle, None)
    net.interpret_action(publisher, PatchAction(Patch({rec("x", 1)}, ())))
    net.interpret_action(publisher, PatchAction(Patch((), {rec("x", 1)})))
    net.run_until_quiescent(50, pick=lambda n: n - 1, after_step=net.check_visibility)
    told = [
        e["data"]
        for e in net.trace.entries
        if e["kind"] == "patch-in" and e["actor"] == f"g/{watcher}"
    ]
    one = to_jsonable(rec("x", 1))
    assert told[-2:] == [{"added": [one], "removed": []}, {"added": [], "removed": [one]}]


def test_a_dispatch_budget_must_be_positive():
    with pytest.raises(ValueError, match="max_steps must be positive"):
        new_network().run_until_quiescent(0)


def test_terminating_an_unknown_actor_does_nothing():
    net = new_network()
    net.spawn(idle, None)
    before = list(net.trace.entries)
    net.terminate_actor(7)
    assert list(net.trace.entries) == before and list(net.actors) == [0]


def test_determinism_identical_traces():
    def run():
        net = new_network()
        build_bank_account_plain(net)
        net.run_until_quiescent(100)
        return net.trace.lines()

    assert run() == run()


# -- actor ids and separate networks ---------------------------------------------


def test_an_actor_id_is_the_int_its_network_counts_at_spawn():
    # a startup spawn and a reactive state's host take the next ints too:
    # ids go 0, 1, 2, ... in spawn order, and each actor is traced as g/<aid>
    def script(ctx):
        yield forever()

    net = new_network()
    returned = []
    spawn = net.spawn

    def recording(*args):
        returned.append(spawn(*args))
        return returned[-1]

    net.spawn = recording  # interpret_action spawns through it too
    assert net.spawn(idle, None, [SpawnAction(idle, None)]) == 0  # its child is 1
    assert reactive_actor(net, script) == 2  # its state host is 3
    net.run_until_quiescent(20)
    assert net.spawn(idle, None) == 4
    assert sorted(returned) == list(net.actors) == [0, 1, 2, 3, 4]
    assert all(type(aid) is int for aid in net.actors)
    spawned = [e["actor"] for e in net.trace.entries if e["kind"] == "spawn"]
    assert spawned == [f"g/{aid}" for aid in range(5)]
    assert [e.label for e in net.actors.values()] == spawned
    net.terminate_actor(1)
    before = list(net.trace.entries)
    for unknown in (1, 5, -1):
        net.terminate_actor(unknown)
    assert list(net.trace.entries) == before and list(net.actors) == [0, 2, 3, 4]


@pytest.mark.parametrize("name", SCENARIOS)
def test_two_networks_run_independently(name):
    # each network has its own dataspace, aids, handshake ids and trace: two
    # copies of a scenario run in turns each write the trace it writes alone
    left, right = new_network(), new_network()
    SCENARIOS[name](left)
    SCENARIOS[name](right)
    while any([left.dispatch_one(), right.dispatch_one()]):
        left.check_visibility()
        right.check_visibility()
    alone = run_scenario(name)[1]
    assert left.trace.lines() == alone and right.trace.lines() == alone


def test_nested_network_keeps_assertions_private():
    # the name dates from nested networks; the isolation is now between two
    # networks: an observer of (account _) in one never sees the other's
    net, other = new_network(), new_network()
    seen = []
    watch = observe(rec("account", WILDCARD))
    other.spawn(recorder(seen), None, [PatchAction(Patch({watch}, ()))])
    build_bank_account_plain(net)
    net.run_until_quiescent(200)
    other.run_until_quiescent(10)
    assert account(70) in net.aggregate
    assert seen == [] and dict(other.aggregate) == {watch: 1}
    assert not any(rec("account", WILDCARD) == a for a in other.aggregate)


def test_sibling_nested_networks_run_independently():
    # the name dates from nested networks: two bank accounts, each in its own
    # network and run in turns, reach the same balance with the same trace
    left, right = new_network(), new_network()
    build_bank_account_plain(left)
    build_bank_account_plain(right)
    while any([left.dispatch_one(), right.dispatch_one()]):
        pass
    assert account(70) in left.aggregate and account(70) in right.aggregate
    assert left.trace.lines() == right.trace.lines()


def test_trace_replay_holds_only_the_ground_dataspace():
    # an actor labelled g/0/0 is no ground actor: replay skips its patch-outs
    net = new_network()
    net.spawn(idle, None, [PatchAction(Patch({rec("account", 5)}, ()))])
    data = {"added": [to_jsonable(account(70))], "removed": []}
    inner = json.dumps({"seq": 9, "actor": "g/0/0", "kind": "patch-out", "data": data})
    snaps = aggregate_snapshots([inner, *net.trace.lines()], rec("account", WILDCARD))
    assert snaps == [frozenset(), frozenset({rec("account", 5)})]
    assert snaps[-1] == frozenset(net.aggregate)


def test_one_and_true_are_distinct_assertions():
    # A asserts (a 1), B asserts (a #t), C observes (a #t): C sees B's
    # record, and the aggregate holds both, once each
    net = new_network()
    seen = []
    net.spawn(idle, None, [PatchAction(Patch({rec("a", 1)}, ()))])
    net.spawn(idle, None, [PatchAction(Patch({rec("a", True)}, ()))])
    net.spawn(recorder(seen), None, [PatchAction(Patch({observe(rec("a", True))}, ()))])
    net.run_until_quiescent(10, after_step=net.check_visibility)
    assert seen == [PatchEvent(Patch({rec("a", True)}, ()))]
    assert dict(net.aggregate) == {
        rec("a", 1): 1,
        rec("a", True): 1,
        observe(rec("a", True)): 1,
    }


def test_colliding_values_route_through_the_index():
    # (a 1) and (a #t) share an index slot but are two assertions: C, who
    # observes (a #t), sees B's record come and go and never A's
    net = new_network()
    seen = []
    a = net.spawn(idle, None, [PatchAction(Patch({rec("a", 1)}, ()))])
    b = net.spawn(idle, None, [PatchAction(Patch({rec("a", True)}, ()))])
    net.spawn(recorder(seen), None, [PatchAction(Patch({observe(rec("a", True))}, ()))])
    net.run_until_quiescent(10, after_step=net.check_visibility)
    net.interpret_action(a, PatchAction(Patch((), {rec("a", 1)})))
    net.interpret_action(b, PatchAction(Patch((), {rec("a", True)})))
    net.run_until_quiescent(10, after_step=net.check_visibility)
    assert not [e for e in net.trace.entries if e["kind"] == "crash"]
    assert seen == [
        PatchEvent(Patch({rec("a", True)}, ())),
        PatchEvent(Patch((), {rec("a", True)})),
    ]
    assert dict(net.aggregate) == {observe(rec("a", True)): 1}


def test_equal_interests_of_different_types_are_confirmed_per_holder():
    # (a #t) and (a 1) share an index slot but are filed in buckets keyed by
    # type, so each holder gets what its own pattern matches, as the recount does
    net = new_network()
    c = net.spawn(idle, None, [PatchAction(Patch({observe(rec("a", True))}, ()))])
    d = net.spawn(idle, None, [PatchAction(Patch({observe(rec("a", 1))}, ()))])
    a = net.spawn(idle, None, [PatchAction(Patch({rec("a", 1)}, ()))])
    net.run_until_quiescent(10, after_step=net.check_visibility)
    assert not net.actors[c].seen
    assert [type(v.fields[0]) for v in net.actors[d].seen] == [int]
    net.interpret_action(a, MessageAction(rec("a", 1)))
    assert list(net.queue) == [(d, MessageEvent(rec("a", 1)))]


# what the random programs observe and send: every kind of slot and bucket
# the routing index files a pattern under, settled and not, and 1 beside #t;
# two ground messages share each unsettled key, so that a list kept for one
# would be wrong for the other; bare atoms are observed and sent but not
# asserted, since asserting one crashes the actor
ROUTED = (
    WILDCARD, 0, 1, True, "s", Sym("s"),
    rec("z"), rec("a", 1), rec("a", True), rec("a", WILDCARD), rec("a", rec("z")),
    rec("r", rec("a", 1), 2), rec("r", rec("a", WILDCARD), WILDCARD), rec("r", WILDCARD, 2),
    rec("r", 1, WILDCARD), rec("r", True, WILDCARD), rec("r", WILDCARD, WILDCARD), rec("r", 1, 2),
    rec("r", WILDCARD, 3), rec("r", 1, 3), rec("r", rec("a", 1), 3),
    observe(rec("a", WILDCARD)),
)  # fmt: skip
INTERESTS = tuple(observe(p) for p in ROUTED) + (observe(observe(WILDCARD)),)
ASSERTED = tuple(v for v in ROUTED if v is WILDCARD or isinstance(v, Record)) + INTERESTS
GROUND = tuple(v for v in ROUTED if is_ground(v))


def random_action(rng, budget=0):
    """A patch, message, quit or spawn drawn from the routed pool."""
    roll = rng.random()
    if roll < 0.6:
        pool = ASSERTED
        added = set(rng.sample(pool, rng.randint(0, 4)))
        return PatchAction(Patch(added, set(rng.sample(pool, rng.randint(0, 4))) - added))
    if roll < 0.85:
        return MessageAction(rng.choice(GROUND))
    if roll < 0.93:
        return QUIT
    return SpawnAction(player, (random.Random(rng.random()), budget), [random_action(rng)])


def player(event, state):
    """Answers up to budget events with a random action of its own."""
    rng, budget = state
    if budget and rng.random() < 0.3:
        return Continue((rng, budget - 1), [random_action(rng)])
    return None


def run_random_program(seed, check=Network.check_visibility, *, fifo=False, network=new_network):
    """2-7 players, driven by random actions.

    check, unless None, runs on the network after every dispatch.
    Actors take turns in a random order, or events go oldest first with fifo.
    network() builds the network.
    """
    rng = random.Random(seed)
    net = network()
    after_step = None if check is None else (lambda: check(net))
    pick = None if fifo else rng.randrange
    for _ in range(rng.randint(2, 7)):
        net.spawn(player, (random.Random(rng.random()), 3), [random_action(rng)])
    for _ in range(20):
        if net.actors:
            net.interpret_action(rng.choice(list(net.actors)), random_action(rng, budget=2))
        net.run_until_quiescent(2000, pick=pick, after_step=after_step)
    return net


def test_visibility_oracle_under_randomized_dispatch():
    rng = random.Random(7)
    for _ in range(25):
        net = new_network()
        build_bank_account_plain(net)
        net.run_until_quiescent(300, pick=rng.randrange, after_step=net.check_visibility)
        assert account(70) in net.aggregate
    for seed in range(300):
        net = run_random_program(seed)
        net.check_visibility()
        assert not [e for e in net.trace.entries if e["kind"] == "crash"], seed


@pytest.mark.parametrize("fifo", [True, False], ids=["fifo", "random"])
def test_patch_ins_replay_to_what_each_actor_sees(fifo):
    # check_visibility recounts bags; this checks what receivers are told.
    # Each actor takes its own events oldest first, whatever is picked, so
    # its patch-ins arrive in the order its bag crossed: at each quiescence,
    # replayed from the trace, each one adds only what the actor did not see
    # and removes only what it did, and together they give what it sees
    for seed in range(300):
        replayed = {}  # actor label -> the patch-ins it was told, applied in order
        done = 0  # trace entries replayed so far

        def replay(net):
            nonlocal done
            if net.queue:  # not quiescent: some receivers are yet to be told
                return
            entries = net.trace.entries
            for e in entries[done:]:
                if e["kind"] == "patch-in":
                    held = replayed.setdefault(e["actor"], set())
                    added = {from_jsonable(a) for a in e["data"]["added"]}
                    removed = {from_jsonable(a) for a in e["data"]["removed"]}
                    assert held.isdisjoint(added) and removed <= held, (seed, e)
                    held -= removed
                    held |= added
            done = len(entries)
            for e in net.actors.values():
                assert replayed.get(e.label, set()) == e.seen.keys(), e.label

        replay(run_random_program(seed, check=replay, fifo=fifo))


class BruteForceNetwork(Network):
    """The routing before the indexes, as a reference for the trace.

    After each patch every actor's visible set is recomputed from the
    support and its interests, and each change is queued in aid order; a
    message goes to every actor with an interest that matches it.  Interests
    are read with ``observed``, one per observe assertion, so 1 and #t stay
    two.  It overrides routing alone, ``_fan_out`` and ``_send_message``:
    admission, the dispatcher, the actor table and the trace are Network's,
    and it uses none of the indexes, the bags or ``crossings``.
    """

    def __init__(self):
        super().__init__()
        self.told: dict = {}  # aid -> what the actor was last told it sees

    def _fan_out(self, aid, clamped):
        support = frozenset().union(*(e.asserted for e in self.actors.values()))
        pairs = []
        for bid, e in self.actors.items():
            was = self.told.get(bid, frozenset())
            now = self.told[bid] = visible(support, observed(e.asserted))
            if now != was:
                pairs.append((bid, PatchEvent(delta(was, now))))
        self.queue.extend(pairs)

    def _send_message(self, sender, body):
        self._emit_ground(sender, "message", body)
        event = MessageEvent(body)
        self.queue.extend(
            [
                (bid, event)
                for bid, e in self.actors.items()
                if any(matches(p, body) for p in observed(e.asserted))
            ]
        )


@pytest.mark.parametrize("fifo", [True, False], ids=["fifo", "random"])
def test_random_programs_trace_as_under_brute_force_routing(fifo):
    # the whole trace, messages and what each receiver is told included,
    # is the one the pre-index semantics gives
    for seed in range(300):
        got = run_random_program(seed, check=None, fifo=fifo).trace.lines()
        want = run_random_program(seed, check=None, fifo=fifo, network=BruteForceNetwork)
        assert got == want.trace.lines(), seed


def patches(held=()):
    """Patch actions adding from ASSERTED and retracting from held.

    A test draws retractions from what the actor asserts: drawn from all of
    ASSERTED, they would rarely retract anything.
    """
    return st.builds(
        lambda added, removed: PatchAction(Patch(added, removed - added)),
        st.frozensets(st.sampled_from(ASSERTED), max_size=4),
        st.frozensets(st.sampled_from(held), max_size=4) if held else st.just(frozenset()),
    )


class LockstepRouting(RuleBasedStateMachine):
    """Network and BruteForceNetwork driven by the same rules, trace line for line.

    An actor has the same aid on both sides.  After every rule the trace
    lines it added are the same on both sides, and the production network
    passes the visibility oracle, so a failure shrinks to a short program.
    """

    def __init__(self):
        super().__init__()
        self.nets = (new_network(), BruteForceNetwork())
        self.compared = 0  # trace entries compared so far

    @rule(seed=st.integers(0, 2**16), budget=st.integers(0, 3), startup=patches())
    def spawn(self, seed, budget, startup):
        for net in self.nets:
            net.spawn(player, (random.Random(seed), budget), [startup])

    @precondition(lambda self: self.nets[0].actors)
    @rule(actor=st.integers(0, 15), data=st.data())
    def act(self, actor, data):
        actors = self.nets[0].actors
        aid = list(actors)[actor % len(actors)]
        held = sort_patterns(actors[aid].asserted)
        messages = st.sampled_from(GROUND).map(MessageAction)
        action = data.draw(st.one_of(patches(held), messages, st.just(QUIT)))
        for net in self.nets:
            net.interpret_action(aid, action)

    @rule()
    def dispatch_one(self):
        ran = [net.dispatch_one() for net in self.nets]
        assert ran[0] == ran[1]

    @rule(seed=st.integers(0, 2**16))
    def run_until_quiescent(self, seed):
        for net in self.nets:
            net.run_until_quiescent(2000, pick=random.Random(seed).randrange)

    @invariant()
    def traces_agree(self):
        # in oracle_lines' form, which, like lines(), tells 1 from true
        got, want = (
            [json.dumps(e, separators=(",", ":")) for e in net.trace.entries[self.compared :]]
            for net in self.nets
        )
        assert got == want
        self.compared += len(got)
        self.nets[0].check_visibility()


# about 4 s when it passes; a failure reports one shrunk example, without
# the explain phase, which can take minutes here
LockstepRouting.TestCase.settings = settings(
    max_examples=150,
    stateful_step_count=50,
    deadline=None,
    report_multiple_bugs=False,
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink],
)
TestLockstepRouting = LockstepRouting.TestCase


def check_message_routing(net):
    """Each ground value's receivers, from the interests index and from a recount."""
    for v in GROUND:
        expect = sorted(
            bid
            for bid, e in net.actors.items()
            if any(matches(p, v) for p in observed(e.asserted))
        )
        assert net.interests.holders(v) == tuple(expect), v


def test_messages_reach_exactly_their_interested_actors_under_randomized_dispatch():
    # the lookups themselves keep receiver lists, which must follow every
    # later change of interests
    for seed in range(300):
        run_random_program(seed, check=check_message_routing)


def kept_lists(index):
    return len(index._kept)


def test_kept_receiver_lists_are_bounded_by_the_filed_buckets_and_die_with_the_index():
    got = Counter()

    def listener(event, state):
        if isinstance(event, MessageEvent):
            got[event.body] += 1
        return None

    def listen(host, patterns, messages):
        for p in patterns:
            host.spawn(listener, None, [PatchAction(Patch({observe(p)}, ()))])
        sender = host.spawn(idle, None)
        for i in range(messages):
            host.interpret_action(sender, MessageAction(rec("tick", i)))

    # every (tick i) but (tick 5) finds its bucket unfiled, so those 9,999
    # share their slot's one list
    net, other = new_network(), new_network()
    listen(net, [rec("tick", WILDCARD)] * 3 + [rec("tick", 5)], 10_000)
    listen(other, [rec("tick", WILDCARD)], 100)
    net.run_until_quiescent(50_000)
    other.run_until_quiescent(500)
    assert sum(got.values()) == 3 * 10_000 + 1 + 100
    for index in (net.interests, other.interests):
        filed = sum(map(len, index._slots.values())) + len(index._slots)
        assert 0 < kept_lists(index) <= filed
    # with no top-level wildcard filed, a message whose slot no interest files
    # reaches no one, and its empty answer is kept nowhere
    before = kept_lists(net.interests)
    sender = net.spawn(idle, None)
    net.interpret_action(sender, MessageAction(rec("nobody", 1)))
    assert kept_lists(net.interests) == before
    # nor is the empty answer of a message whose slot is filed but whose bucket
    # no interest reaches
    only = new_network()
    listen(only, [rec("tick", 5)], 0)
    sender = only.spawn(idle, None)
    only.interpret_action(sender, MessageAction(rec("tick", 7)))
    assert kept_lists(only.interests) == 0
    # under one top-level wildcard, every message whose slot no interest files
    # shares the wildcard's one list, however many distinct slots they name
    wild = new_network()
    listen(wild, [WILDCARD], 0)
    sender = wild.spawn(idle, None)
    for i in range(1_000):
        wild.interpret_action(sender, MessageAction(rec(f"label-{i}")))
    filed = sum(map(len, wild.interests._slots.values())) + len(wild.interests._slots)
    assert 0 < kept_lists(wild.interests) <= filed
    # filing an interest anywhere, even in a slot no message uses, drops them all
    listen(net, [rec("other", WILDCARD)], 0)
    assert kept_lists(net.interests) == 0
    # so does unfiling one, as a quit does
    other.terminate_actor(0)
    assert kept_lists(other.interests) == 0


def test_trace_lines_of_random_programs_are_the_json_dumps_of_each_entry():
    for seed in range(300):
        net = run_random_program(seed, check=None)
        assert net.trace.lines() == oracle_lines(net.trace), seed


def test_trace_lines_render_every_entry_kind_exactly():
    odd = '"q" \\b \u00e9 \x00 \u2028'  # a quote, a backslash, non-ASCII, controls

    def fragile(event, state):
        if isinstance(event, MessageEvent):
            raise RuntimeError(odd)

    net = new_network()
    watcher = net.spawn(idle, None, [PatchAction(Patch({observe(rec("note", WILDCARD))}, ()))])
    net.spawn(
        fragile,
        None,
        [
            PatchAction(Patch({rec("note", odd), rec("note", Sym(odd)), observe(rec("poke"))}, ())),
            MessageAction(rec("note", odd, -7, True)),
            OutputAction(odd),
            OutputAction(rec("note", False, Sym("s"))),
        ],
    )
    net.spawn(idle, None, [PatchAction(Patch({rec("note", 0)}, ()))])
    net.run_until_quiescent(20)
    net.interpret_action(watcher, MessageAction(rec("poke")))
    net.run_until_quiescent(20)
    net.interpret_action(watcher, QUIT)
    # any caller of emit: other data, other key orders, other types
    for data in (
        {"removed": [], "added": [1]},
        {"added": "ab", "removed": ()},
        {"added": [[to_jsonable(rec("x"))]], "removed": [{"k": None}]},
        {1: odd, "k": [1.5, -0.0]},
        (1, [odd]),
    ):
        net.trace.emit(odd, odd, data)
    kinds = {e["kind"] for e in net.trace.entries}
    assert kinds >= {"spawn", "patch-out", "patch-in", "message", "event-message", "crash", "quit"}
    assert [e["data"] for e in net.trace.entries if e["kind"] == "crash"] == [f"RuntimeError: {odd}"]
    assert net.trace.lines() == oracle_lines(net.trace)


@pytest.mark.parametrize(
    "action",
    [lambda v: PatchAction(Patch({v}, ())), MessageAction, OutputAction],
    ids=["assert", "send", "display"],
)
def test_an_integer_too_long_for_the_trace_crashes_the_actor_alone(action, int_digit_limit):
    net = new_network()
    peer = net.spawn(idle, None, [PatchAction(Patch({observe(rec("big", WILDCARD))}, ()))])
    aid = net.spawn(
        idle, None, [PatchAction(Patch({rec("ok", 1)}, ())), action(rec("big", 10**int_digit_limit))]
    )
    net.run_until_quiescent(10)
    [detail] = [e["data"] for e in net.trace.entries if e["kind"] == "crash"]
    assert detail.startswith("ValueError: integer atom too long for canonical text")
    assert aid not in net.actors and peer in net.actors
    assert set(net.aggregate) == {observe(rec("big", WILDCARD))}
    net.check_visibility()
    # the trace still renders, and replays
    lines = net.trace.lines()
    assert lines == oracle_lines(net.trace)
    assert aggregate_snapshots(lines, WILDCARD)[-1] == frozenset(net.aggregate)


def test_aggregate_matches_per_actor_sets_at_quiescence():
    net = new_network()
    build_bank_account_plain(net)
    net.run_until_quiescent(100)
    support = frozenset(net.aggregate)
    for entry in net.actors.values():
        assert entry.seen.keys() == visible(support, interests_of(entry.asserted))
    net.check_visibility()


@pytest.mark.parametrize(
    "corrupt, drift",
    [
        ("visible-set", "visible-set drift at g/1: "),
        ("visible-count", r"visible-count drift at g/1: \(account 70\) counted 2, not 1"),
        ("aggregate", "aggregate drift at g: "),
    ],
    ids=["visible-set", "visible-count", "aggregate"],
)
def test_visibility_oracle_detects_drift(corrupt, drift):
    net = new_network()
    build_bank_account_plain(net)
    net.run_until_quiescent(400)
    net.check_visibility()
    if corrupt == "visible-set":
        net.actors[1].seen.clear()  # the balance observer
    elif corrupt == "visible-count":
        # a second claim on a visible assertion: the set stays, the count drifts
        net.actors[1].seen[account(70)] += 1
    else:
        # a second claim on a held assertion: the support stays, the count drifts
        net.aggregate[account(70)] += 1
    with pytest.raises(VisibilityMismatch, match=drift):
        net.check_visibility()


# the names the traced benchmark (bench/spans.py) counts calls to
CONFIRMING = (
    ("patches", "intersect"),
    ("reactive", "intersect"),
    ("network", "matches"),
    ("reactive", "matches"),
)


def routing_work(n, last=WILDCARD) -> list:
    """Counted confirmations for one assert, retract and message among n observers.

    Observer i observes (k i last): settled, so confirmed by no call, when last
    is the wildcard.
    """
    net = new_network()
    for i in range(n):
        net.spawn(idle, None, [PatchAction(Patch({observe(rec("k", i, last))}, ()))])
    publisher = net.spawn(idle, None)
    net.run_until_quiescent(2 * n)
    calls, originals = [], []
    for module, name in CONFIRMING:
        module = importlib.import_module(f"dataspace.{module}")
        fn = getattr(module, name)
        originals.append((module, name, fn))
        setattr(module, name, lambda *args, fn=fn: calls.append(1) or fn(*args))
    counts = []
    try:
        for action in (
            PatchAction(Patch({rec("k", 0, "r")}, ())),
            PatchAction(Patch((), {rec("k", 0, "r")})),
            MessageAction(rec("k", 0, "r")),
        ):
            calls.clear()
            net.interpret_action(publisher, action)
            net.run_until_quiescent(10)
            counts.append(len(calls))
    finally:
        for module, name, fn in originals:
            setattr(module, name, fn)
    return counts


def test_routing_work_does_not_grow_with_observers():
    assert routing_work(50) == routing_work(400) == [0, 0, 0]
    assert routing_work(50, "r") == routing_work(400, "r") == [1, 1, 1]
    # nor on set layout: the same counts under two hash seeds
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")])
    code = "from test_network import routing_work as w; print(w(50, 'r'), w(400, 'r'))"
    outs = [
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("0", "1")
    ]
    assert outs[0] == outs[1]


def patch_peak(m: int) -> int:
    """Peak bytes allocated by a publisher holding m assertions replacing one.

    One watcher sees the replacement; each patch is interpreted and run to
    quiescence.  The least of three patches is kept, so a hash table that
    one insertion happens to resize does not count.
    """
    net = new_network()
    net.spawn(lambda e, s: None, None, [PatchAction(Patch({observe(rec("held", WILDCARD))}, ()))])
    held = {rec("held", i) for i in range(m)}
    publisher = net.spawn(lambda e, s: None, None, [PatchAction(Patch(held, ()))])
    net.run_until_quiescent(10)
    peaks = []
    for i in range(3):
        patch = Patch({rec("held", m + i)}, {rec("held", i)})
        tracemalloc.start()
        try:
            net.interpret_action(publisher, PatchAction(patch))
            net.run_until_quiescent(10)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return min(peaks)


def test_a_patch_allocates_no_more_when_its_patcher_holds_more():
    # a patch must not copy what its patcher already asserts: from 100 to
    # 20,000 held assertions its peak allocation stays about the same
    small, big = patch_peak(100), patch_peak(20_000)
    assert big < 2 * small, (small, big)


def test_a_settled_interest_is_routed_without_confirming(monkeypatch):
    # (topic t _) and (topic _ _) are decided by the index bucket they are
    # filed under, so routing to them confirms nothing; (r (a 1) _) and
    # (r (a 2) _) share a bucket that does not decide them, so each is confirmed
    confirmed = []
    for module, name in CONFIRMING:
        module = importlib.import_module(f"dataspace.{module}")
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda p, q, fn=fn: confirmed.append(p) or fn(p, q))
    net = new_network()

    def subscriber(pattern):
        return net.spawn(idle, None, [PatchAction(Patch({observe(pattern)}, ()))])

    topic = [subscriber(rec("topic", "t", WILDCARD)) for _ in range(3)]
    every = subscriber(rec("topic", WILDCARD, WILDCARD))
    a1 = subscriber(rec("r", rec("a", 1), WILDCARD))
    subscriber(rec("r", rec("a", 2), WILDCARD))
    sender = net.spawn(idle, None)
    net.run_until_quiescent(100)
    confirmed.clear()
    for action in (
        MessageAction(rec("topic", "t", 7)),
        PatchAction(Patch({rec("topic", "t", 8)}, ())),
    ):
        net.interpret_action(sender, action)
        assert [aid for aid, _ in net.queue] == topic + [every]
        net.run_until_quiescent(100)
    assert confirmed == []
    net.interpret_action(sender, MessageAction(rec("r", rec("a", 1), 7)))
    assert [aid for aid, _ in net.queue] == [a1]
    assert sorted(confirmed, key=repr) == [rec("r", rec("a", k), WILDCARD) for k in (1, 2)]


# -- misbehaving actors ---------------------------------------------------------------

POKE = observe(rec("poke", WILDCARD))
FACT = observe(rec("fact", WILDCARD))


class FailingHook:
    def on_spawn(self, fresh_id):
        raise RuntimeError("hook")


class NonIterableHook:
    def on_spawn(self, fresh_id):
        return 5


class DrawingHook:
    """Draws two ids from whatever its on_spawn is given, which must be one source."""

    def __init__(self):
        self.drawn = []

    def on_spawn(self, *args):
        (fresh_id,) = args
        self.drawn += [fresh_id(), fresh_id()]
        return ()


def test_on_spawn_draws_from_its_own_networks_id_source():
    net = new_network()
    first, second, elsewhere = DrawingHook(), DrawingHook(), DrawingHook()
    net.spawn(idle, first)
    other = new_network()
    other.spawn(idle, elsewhere)
    net.spawn(idle, second)
    assert first.drawn == [0, 1] and second.drawn == [2, 3]
    assert elsewhere.drawn == [0, 1]  # another network counts again from 0
    assert len(net.actors) == 2 and len(other.actors) == 1
    assert not hasattr(net, "fresh_handshake_id")


def test_reactive_scripts_draw_handshake_ids_in_call_order():
    def script(ctx):
        yield until(Asserted(rec("go", WILDCARD)))
        yield forever()

    net = new_network()
    reactive_actor(net, script)
    reactive_actor(net, script)
    net.spawn(idle, None, [PatchAction(Patch({rec("go", 1)}, ()))])
    net.run_until_quiescent(100)
    # each state entered observes its handshake's result under the id it drew
    drawn = [
        (e["actor"], a[1][1])
        for e in net.trace.entries
        if e["kind"] == "patch-out"
        for a in e["data"]["added"]
        if a[0] == "observe" and a[1][0] == "state-result"
    ]
    assert drawn == [("g/0", 0), ("g/2", 1), ("g/0", 2), ("g/2", 3)]


@pytest.mark.parametrize(
    "state, startup, detail",
    [
        (FailingHook(), (), "RuntimeError: hook"),
        (NonIterableHook(), (), "TypeError: 'int' object is not iterable"),
        (None, 5, "TypeError: 'int' object is not iterable"),
    ],
    ids=["failing-hook", "non-iterable-hook", "non-iterable-startup"],
)
def test_bad_child_spawn_crashes_the_child_alone(state, startup, detail):
    net = new_network()
    parent = net.spawn(idle, None, [SpawnAction(idle, state, startup), OutputAction(1)])
    assert parent in net.actors
    assert_crashed_cleanly(net, 1, detail)
    assert [e["kind"] for e in net.trace.entries] == [
        "spawn",
        "spawn",
        "crash",
        "event-message",
    ]


def misbehaving(event, moves):
    """Plays the next of its moves on every event; idle once they run out."""
    if not moves:
        return None
    move, rest = moves[0], moves[1:]
    fact = PatchAction(Patch({rec("fact", len(rest))}, ()))
    poke = MessageAction(rec("poke", len(rest)))
    if move == "raise":
        raise RuntimeError("boom")
    if move == "bad-result":
        return 42
    if move == "bad-actions":
        return Continue(rest, None)
    if move == "unknown-action":
        return Continue(rest, [fact, "not an action"])
    if move == "assert-float":
        return Continue(rest, [fact, PatchAction(Patch({rec("fact", 1.5)}, ()))])
    if move == "assert-quoted":
        return Continue(rest, [PatchAction(Patch({"'x"}, ()))])
    if move == "assert-capture":
        return Continue(rest, [fact, PatchAction(Patch({rec("fact", Capture())}, ()))])
    if move == "send-non-value":
        return Continue(rest, [MessageAction(rec("poke", 1.5))])
    if move == "send-non-ground":
        return Continue(rest, [poke, MessageAction(rec("poke", WILDCARD))])
    if move == "send-capture":
        return Continue(rest, [poke, MessageAction(rec("poke", Capture()))])
    if move == "display-non-value":
        return Continue(rest, [OutputAction(1.5)])
    if move == "display-capture":
        return Continue(rest, [fact, OutputAction(Capture())])
    if move == "display-wildcard":
        return Continue(rest, [fact, OutputAction(WILDCARD)])
    if move == "quit-midway":
        return Continue(rest, [fact, QUIT, poke])
    if move == "spawn-failing-hook":
        return Continue(rest, [SpawnAction(misbehaving, FailingHook()), poke])
    if move == "spawn-non-iterable-hook":
        return Continue(rest, [SpawnAction(misbehaving, NonIterableHook()), poke])
    if move == "spawn-non-iterable-startup":
        return Continue(rest, [SpawnAction(misbehaving, (), 5), poke])
    if move == "spawn":
        child = SpawnAction(misbehaving, rest, (PatchAction(Patch({POKE}, ())),))
        return Continue(rest, [child])
    return Continue(rest, [fact, poke])  # "good"


MOVES = st.sampled_from(
    [
        "good",
        "raise",
        "bad-result",
        "bad-actions",
        "unknown-action",
        "assert-float",
        "assert-quoted",
        "assert-capture",
        "send-non-value",
        "send-non-ground",
        "send-capture",
        "display-non-value",
        "display-capture",
        "display-wildcard",
        "quit-midway",
        "spawn",
        "spawn-failing-hook",
        "spawn-non-iterable-hook",
        "spawn-non-iterable-startup",
    ]
)


def play_misbehaving(scripts, rng=None):
    # with rng, a random pick and a visibility recount after every dispatch;
    # without, the default loop and one recount at quiescence
    net = new_network()
    for moves in scripts:
        net.spawn(misbehaving, moves, [PatchAction(Patch({POKE, FACT}, ()))])
    kicker = net.spawn(idle, None)
    net.interpret_action(kicker, MessageAction(rec("poke", "go")))
    if rng is None:
        net.run_until_quiescent(5000)
    else:
        net.run_until_quiescent(5000, pick=rng.randrange, after_step=net.check_visibility)
    net.check_visibility()
    ends: dict = {}
    for e in net.trace.entries:
        if e["kind"] in ("spawn", "quit", "crash"):
            ends.setdefault(e["actor"], []).append(e["kind"])
    live = {e.label for e in net.actors.values()}
    for label, kinds in ends.items():
        assert kinds[0] == "spawn" and len(kinds) == (1 if label in live else 2), label
    # a capture hole is not a value: it never reaches the dataspace or the trace
    assert not any('"?!"' in line for line in net.trace.lines())


SCRIPTS = st.lists(st.lists(MOVES, max_size=5).map(tuple), min_size=1, max_size=5)


@given(SCRIPTS, st.randoms(use_true_random=False))
def test_misbehaving_actors_crash_alone(scripts, rng):
    play_misbehaving(scripts, rng)


@given(SCRIPTS)
def test_misbehaving_actors_crash_alone_under_the_default_loop(scripts):
    play_misbehaving(scripts)
