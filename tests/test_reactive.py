import gc
import sys
import weakref

import hypothesis.strategies as st
import pytest
from hypothesis import given

from dataspace import reactive, values
from dataspace import (
    Assert,
    Asserted,
    Bind,
    Capture,
    Message,
    MessageAction,
    MessageEvent,
    On,
    Patch,
    PatchAction,
    PatchEvent,
    QUIT,
    ReactiveState,
    Retracted,
    RisingEdge,
    Sym,
    WILDCARD,
    When,
    forever,
    new_network,
    observe,
    reactive_actor,
    rec,
    state,
    until,
)
from dataspace.scenarios import build_bank_account_plain


def trace_kinds(net, actor=None):
    return [
        e["kind"]
        for e in net.trace.entries
        if actor is None or e["actor"] == actor
    ]


def messages_sent(net):
    return [e["data"] for e in net.trace.entries if e["kind"] == "message"]


def displays(net, actor=None):
    return [
        e["data"]
        for e in net.trace.entries
        if e["kind"] == "event-message" and (actor is None or e["actor"] == actor)
    ]


def test_empty_script_spawns_and_quits_cleanly():
    net = new_network()
    reactive_actor(net, lambda ctx: None)
    net.run_until_quiescent(10)
    assert trace_kinds(net) == ["spawn", "quit"]


def test_script_sends_then_quits():
    net = new_network()

    def script(ctx):
        ctx.send(Sym("hello"))

    reactive_actor(net, script)
    net.run_until_quiescent(10)
    assert trace_kinds(net) == ["spawn", "message", "quit"]


def test_a_context_kept_past_its_step_refuses_effects():
    net = new_network()
    kept = []
    reactive_actor(net, kept.append)
    net.run_until_quiescent(10)
    with pytest.raises(RuntimeError, match="outside an actor step"):
        kept[0].send(Sym("late"))


def test_script_failure_crashes_actor():
    net = new_network()

    def script(ctx):
        raise ValueError("bad script")

    reactive_actor(net, script)
    net.run_until_quiescent(10)
    assert trace_kinds(net) == ["spawn", "crash"]


def test_state_runs_in_fresh_actor():
    net = new_network()

    def script(ctx):
        yield forever(facets=[Assert(lambda: rec("up", 1))])

    reactive_actor(net, script)
    net.run_until_quiescent(20)
    assert len(net.actors) == 2  # suspended script plus its state host
    holders = [
        aid for aid, e in net.actors.items() if rec("up", 1) in e.asserted
    ]
    assert len(holders) == 1


def test_until_returns_no_values():
    net = new_network()
    seen = []

    def script(ctx):
        got = yield until(Asserted(rec("go", WILDCARD)))
        seen.append(got)

    reactive_actor(net, script)
    kicker = net.spawn(lambda e, s: None, None)
    net.run_until_quiescent(20)
    net.interpret_action(kicker, PatchAction(Patch({rec("go", 1)}, ())))
    net.run_until_quiescent(30)
    assert seen == [None]


def test_until_returns_single_bound_value():
    net = new_network()
    seen = []

    def script(ctx):
        got = yield until(
            Asserted(rec("go", Sym("b4"))), body=lambda ctx: Sym("released")
        )
        seen.append(got)

    reactive_actor(net, script)
    kicker = net.spawn(lambda e, s: None, None)
    net.run_until_quiescent(20)
    net.interpret_action(kicker, PatchAction(Patch({rec("go", Sym("b4"))}, ())))
    net.run_until_quiescent(30)
    assert seen == [Sym("released")]


def test_state_returns_multiple_values():
    net = new_network()
    seen = []

    def script(ctx):
        got = yield state(
            collect=[("n", 41)],
            stop=[When(Message(Sym("now")), lambda ctx, n: (n, n + 1))],
        )
        seen.append(got)

    reactive_actor(net, script)
    kicker = net.spawn(lambda e, s: None, None)
    net.run_until_quiescent(20)
    net.interpret_action(kicker, MessageAction(Sym("now")))
    net.run_until_quiescent(30)
    assert seen == [(41, 42)]


def test_two_facets_claiming_one_assertion_do_not_interfere():
    # two facets of one state claim one assertion: the first claim asserts
    # it, and it is retracted only when the last holder lets go
    shared = rec("shared", 1)
    move = Sym("move")
    rt = ReactiveState(None)
    spec = forever(
        collect=[("n", 0)],
        facets=[
            Assert(lambda n: shared),
            Assert(lambda n: shared if n == 0 else rec("moved", n)),
            On(Message(move), lambda ctx, n: n + 1),
        ],
    )
    installed = rt.collect_actions(lambda: rt.install_group(spec))
    assert installed == [PatchAction(Patch({shared, observe(move)}, ()))]
    moved = rt.collect_actions(lambda: rt._deliver(MessageEvent(move)))
    assert moved == [PatchAction(Patch({rec("moved", 1)}, ()))]  # shared still claimed
    down = rt.collect_actions(rt.teardown_group)
    assert down == [PatchAction(Patch((), {shared, rec("moved", 1), observe(move)}))]


def test_teardown_retracts_every_live_claim_and_empties_the_claims():
    # two Assert facets change value across three events; at the end one of
    # them equals the subscription, which the state still asserts once
    ping = Sym("ping")
    watched = observe(ping)
    rt = ReactiveState(None)
    spec = forever(
        collect=[("n", 0)],
        facets=[
            On(Message(ping), lambda ctx, n: n + 1),
            Assert(lambda n: watched if n % 2 else rec("even", n)),
            Assert(lambda n: rec("count", n)),
        ],
    )
    installed = rt.collect_actions(lambda: rt.install_group(spec))
    up = {watched, rec("even", 0), rec("count", 0)}
    assert installed == [PatchAction(Patch(up, ()))]
    for _ in range(3):
        rt.collect_actions(lambda: rt._deliver(MessageEvent(ping)))
    assert rt._claimed == {watched, rec("count", 3)}
    live = set(rt._claimed)
    assert rt.collect_actions(rt.teardown_group) == [PatchAction(Patch((), live))]
    assert not rt._claimed
    assert rt.collect_actions(lambda: rt.install_group(spec)) == installed


_CLAIM_POOL = (
    rec("a", 0),
    rec("a", 1),
    observe(Sym("p")),
    observe(Sym("q")),
    observe(rec("a", WILDCARD)),
)
_TRIGGERS = {"p": Message(Sym("p")), "q": Message(Sym("q")), "a": Asserted(rec("a", WILDCARD))}
_EVENTS = (
    MessageEvent(Sym("p")),
    MessageEvent(Sym("q")),
    PatchEvent(Patch({rec("a", 0)}, ())),
    PatchEvent(Patch({rec("a", 0), rec("a", 1)}, ())),
    PatchEvent(Patch((), {rec("a", 1)})),
)


@given(
    # each Assert facet asserts values[n % len(values)], values drawn from a
    # pool that holds every subscription, so claims overlap one another
    st.lists(st.lists(st.sampled_from(_CLAIM_POOL), min_size=1, max_size=3), max_size=4),
    # each On facet adds step to n once per trigger
    st.lists(st.tuples(st.sampled_from(sorted(_TRIGGERS)), st.integers(0, 2)), max_size=3),
    st.lists(st.sampled_from(_EVENTS), max_size=8),
)
def test_a_states_patches_keep_exactly_its_subscriptions_and_assert_values(
    templates, ons, events
):
    rt = ReactiveState(None)
    spec = forever(
        collect=[("n", 0)],
        facets=[
            *(Assert(lambda n, vs=tuple(vs): vs[n % len(vs)]) for vs in templates),
            *(On(_TRIGGERS[t], lambda ctx, n, k=k: n + k) for t, k in ons),
        ],
    )
    subs = {observe(_TRIGGERS[t].pattern) for t, _ in ons}
    held: set = set()

    def apply(actions):
        assert len(actions) <= 1  # one patch per step, and nothing else
        for action in actions:
            patch = action.patch
            assert patch.added.isdisjoint(held) and patch.removed <= held  # net change
            held.difference_update(patch.removed)
            held.update(patch.added)

    n = 0
    apply(rt.collect_actions(lambda: rt.install_group(spec)))
    assert held == subs | {vs[n % len(vs)] for vs in templates}
    for event in events:
        for t, k in ons:
            if t == "a":
                triggers = len(event.patch.added) if isinstance(event, PatchEvent) else 0
            else:
                triggers = event == MessageEvent(Sym(t))
            n += k * triggers
        apply(rt.collect_actions(lambda: rt._deliver(event)))
        assert held == subs | {vs[n % len(vs)] for vs in templates}
    apply(rt.collect_actions(rt.teardown_group))
    assert held == set()


def test_teardown_of_facetless_group_emits_no_patch():
    rt = ReactiveState(None)
    spec = state(collect=[("n", 0)], stop=[When(RisingEdge(lambda n: n > 0))])
    assert rt.collect_actions(lambda: rt.install_group(spec)) == []
    assert rt.collect_actions(rt.teardown_group) == []


def test_a_second_state_is_refused():
    rt = ReactiveState(None)
    spec = forever(facets=[Assert(lambda: rec("held"))])
    rt.collect_actions(lambda: rt.install_group(spec))
    with pytest.raises(RuntimeError, match="one state"):
        rt.collect_actions(lambda: rt.install_group(spec))


def test_a_subscription_an_assert_facet_also_claims_is_asserted_once():
    # an Assert facet claims the observe assertion an On facet subscribes with
    ping = Sym("ping")
    watched = observe(ping)
    rt = ReactiveState(None)
    spec = forever(
        collect=[("n", 0)],
        facets=[
            On(Message(ping), lambda ctx, n: n + 1),
            Assert(lambda n: watched if n == 0 else rec("pinged", n)),
        ],
    )
    installed = rt.collect_actions(lambda: rt.install_group(spec))
    assert installed == [PatchAction(Patch({watched}, ()))]
    moved = rt.collect_actions(lambda: rt._deliver(MessageEvent(ping)))
    assert moved == [PatchAction(Patch({rec("pinged", 1)}, ()))]  # still subscribed
    assert rt.collect_actions(rt.teardown_group) == [
        PatchAction(Patch((), {watched, rec("pinged", 1)}))
    ]


def test_rising_edge_true_at_install_fires_immediately():
    ran = []  # every stop body that runs
    edge = When(RisingEdge(lambda n: n >= 5), lambda ctx, n: ran.append(n) or n)
    # two edges true at install, after a message clause: the first one fires,
    # and the state ends there, so no later clause's body runs
    two_edges = [
        When(Message(Sym("never")), lambda ctx, n: ran.append("message") or "message"),
        When(RisingEdge(lambda n: n >= 5), lambda ctx, n: ran.append("first") or "first"),
        When(RisingEdge(lambda n: n >= 1), lambda ctx, n: ran.append("second") or "second"),
    ]
    for stop, expected in [([edge], 10), (two_edges, "first")]:
        net = new_network()
        seen = []
        ran.clear()

        def script(ctx):
            got = yield state(collect=[("n", 10)], stop=stop)
            seen.append(got)

        reactive_actor(net, script)
        net.run_until_quiescent(30)
        assert seen == [expected]
        assert ran == [expected]
        assert not net.actors  # everything wound down cleanly


def test_install_asks_only_the_rising_edges(monkeypatch):
    # no event is there at install, so a message, asserted or retracted stop
    # clause cannot fire: install tries none of them, only the rising edges
    tried = []
    triggers = reactive._triggers
    monkeypatch.setattr(reactive, "_triggers", lambda c, e: tried.append(c.kind) or triggers(c, e))
    ping = Sym("ping")
    for at_install, fired in [(0, False), (10, True)]:
        tried.clear()
        spec = state(
            collect=[("n", at_install)],
            stop=[
                When(Message(ping)),
                When(Asserted(rec("x", Bind("v")))),
                When(Retracted(rec("x", WILDCARD))),
                When(RisingEdge(lambda n: n >= 5)),
            ],
        )
        host = ReactiveState(None, _initial=(spec, None))
        installed = host.collect_actions(lambda: host.install_group(spec))
        assert tried == []
        assert (installed[-1] is QUIT) == fired
        if not fired:  # an event asks each clause that can match one, in order
            host.collect_actions(lambda: host._deliver(MessageEvent(rec("y"))))
            assert tried == ["message", "asserted", "retracted"]


def test_rising_edge_false_predicate_never_fires():
    net = new_network()

    def script(ctx):
        yield state(
            collect=[("n", 0)],
            facets=[On(Message(Sym("bump")), lambda ctx, n: n + 1)],
            stop=[When(RisingEdge(lambda n: n >= 5), lambda ctx, n: n)],
        )

    reactive_actor(net, script)
    kicker = net.spawn(lambda e, s: None, None)
    net.run_until_quiescent(20)
    for _ in range(3):
        net.interpret_action(kicker, MessageAction(Sym("bump")))
    net.run_until_quiescent(30)
    assert len(net.actors) == 3  # script, state host, kicker: still waiting


def _edge_after_bumps(predicate, bumps=3):
    # a script waits on a rising edge over a count the bump messages raise
    net = new_network()
    seen = []

    def script(ctx):
        got = yield state(
            collect=[("n", 0)],
            facets=[On(Message(Sym("bump")), lambda ctx, n: n + 1)],
            stop=[When(RisingEdge(predicate), lambda ctx, n: n)],
        )
        seen.append(got)

    reactive_actor(net, script)
    kicker = net.spawn(lambda e, s: None, None)
    net.run_until_quiescent(20)
    for _ in range(bumps):
        net.interpret_action(kicker, MessageAction(Sym("bump")))
    net.run_until_quiescent(30)
    return seen


def test_rising_edge_predicate_is_called_once_per_check_until_it_holds():
    calls = []

    def at_two(n):
        calls.append(n)
        return n >= 2

    assert _edge_after_bumps(at_two) == [2]
    assert calls == [0, 1, 2]  # at install, then after each bump until it fires


@pytest.mark.parametrize(
    "predicate", [bool, lambda *a: a[0] >= 1], ids=["no-signature", "varargs"]
)
def test_rising_edge_predicate_without_a_checkable_arity_builds_and_fires(predicate):
    assert _edge_after_bumps(predicate) == [1]


def test_asserted_facet_runs_once_per_matching_assertion():
    net = new_network()

    def script(ctx):
        yield forever(
            collect=[("n", 0)],
            facets=[
                Assert(lambda n: rec("count", n)),
                On(Asserted(rec("item", WILDCARD)), lambda ctx, n: n + 1),
            ],
        )

    reactive_actor(net, script)
    net.run_until_quiescent(20)
    asserter = net.spawn(lambda e, s: None, None)
    batch = {rec("item", 1), rec("item", 2), rec("item", 3)}
    net.interpret_action(asserter, PatchAction(Patch(batch, ())))
    net.run_until_quiescent(30)
    assert rec("count", 3) in net.aggregate


def test_asserted_facet_runs_in_canonical_order_within_one_patch():
    # one patch adds ten matching assertions; the bodies run in the values'
    # canonical order, not in the patch set's order, which follows addresses
    net = new_network()

    def script(ctx):
        yield forever(facets=[On(Asserted(rec("item", Bind("n"))), lambda ctx, n: ctx.display(n))])

    reactive_actor(net, script)
    net.run_until_quiescent(20)
    batch = {rec("item", k) for k in range(10)}
    net.spawn(lambda e, s: None, None, [PatchAction(Patch(batch, ()))])
    net.run_until_quiescent(40)
    assert displays(net) == list(range(10))


def test_retracted_facet_runs_per_removed_assertion():
    net = new_network()

    def script(ctx):
        yield forever(
            collect=[("n", 0)],
            facets=[
                Assert(lambda n: rec("gone", n)),
                On(Retracted(rec("item", WILDCARD)), lambda ctx, n: n + 1),
            ],
        )

    reactive_actor(net, script)
    net.run_until_quiescent(20)
    asserter = net.spawn(lambda e, s: None, None)
    batch = {rec("item", 1), rec("item", 2)}
    net.interpret_action(asserter, PatchAction(Patch(batch, ())))
    net.run_until_quiescent(30)
    net.terminate_actor(asserter)
    net.run_until_quiescent(30)
    assert rec("gone", 2) in net.aggregate


def test_facets_stay_responsive_while_script_suspended():
    net = new_network()

    def script(ctx):
        yield state(
            collect=[("n", 0)],
            facets=[
                Assert(lambda n: rec("progress", n)),
                On(Message(Sym("bump")), lambda ctx, n: n + 1),
            ],
            stop=[When(RisingEdge(lambda n: n >= 99), lambda ctx, n: n)],
        )

    reactive_actor(net, script)
    kicker = net.spawn(lambda e, s: None, None)
    net.run_until_quiescent(20)
    net.interpret_action(kicker, MessageAction(Sym("bump")))
    net.interpret_action(kicker, MessageAction(Sym("bump")))
    net.run_until_quiescent(30)
    # a peer querying mid-state sees the current fold value
    seen = []

    def querier(event, s):
        seen.append(event)
        return None

    net.spawn(
        querier, None, [PatchAction(Patch({observe(rec("progress", WILDCARD))}, ()))]
    )
    net.run_until_quiescent(30)
    assert seen and seen[0].patch.added == frozenset({rec("progress", 2)})


def test_reserved_label_rejected_in_user_patterns():
    with pytest.raises(ValueError):
        state(facets=[On(Message(rec("state-result", WILDCARD, WILDCARD)), lambda ctx: None)])
    with pytest.raises(ValueError):
        until(Asserted(rec("state-result", 0, WILDCARD)))


def test_capture_in_surface_pattern_crashes_the_script():
    net = new_network()

    def script(ctx):
        yield forever(facets=[On(Message(rec("x", Capture())), lambda ctx: None)])

    script_id = reactive_actor(net, script)
    net.run_until_quiescent(20)
    crashes = [e for e in net.trace.entries if e["kind"] == "crash"]
    assert [e["actor"] for e in crashes] == [f"g/{script_id}"]
    assert "TypeError: not a pattern" in crashes[0]["data"]
    assert not net.actors


@pytest.mark.parametrize(
    "pattern",
    [rec("a", "'x"), rec("a", "_"), rec("?!", 1)],
    ids=["quoted-string", "wildcard-string", "capture-label"],
)
def test_a_pattern_with_no_canonical_text_crashes_the_script(pattern):
    # each passes is_pattern, but the host could not encode its observe
    with pytest.raises(ValueError):
        until(Message(pattern))
    net = new_network()

    def script(ctx):
        yield until(Message(pattern))

    reactive_actor(net, script)
    net.run_until_quiescent(20)
    assert [actor for actor, _ in crashes(net)] == ["g/0"]
    assert not net.actors


def test_wildcard_under_binder_crashes_actor():
    net = new_network()

    def script(ctx):
        yield forever(facets=[On(Asserted(rec("x", Bind("v"))), lambda ctx, v: None)])

    reactive_actor(net, script)  # g/0; its state host is g/1
    net.run_until_quiescent(20)
    asserter = net.spawn(lambda e, s: None, None)
    net.interpret_action(asserter, PatchAction(Patch({rec("x", WILDCARD)}, ())))
    net.run_until_quiescent(30)
    assert crashes(net) == [("g/1", "CaptureUnbounded: wildcard under capture hole: _")]
    assert asserter in net.actors and 0 in net.actors
    assert net.aggregate[rec("x", WILDCARD)] == 1  # the peer's assertion stays
    net.check_visibility()


def test_body_arity_checked_at_construction():
    with pytest.raises(ValueError):
        state(
            collect=[("a", 0), ("b", 0)],
            facets=[On(Message(Sym("x")), lambda ctx, a: a)],
        )
    with pytest.raises(ValueError):
        state(collect=[("a", 0)], facets=[Assert(lambda a, b: a)])


@pytest.mark.parametrize(
    "facet",
    [
        On(Message(rec("m")), lambda ctx, *, x: None),
        On(Message(rec("m")), lambda ctx, *more, x: None),
        Assert(lambda *, x: rec("a")),
        When(RisingEdge(lambda *, x: True)),
        When(Message(rec("m")), lambda ctx, *, x: None),
    ],
    ids=["on-body", "varargs-body", "template", "predicate", "stop-body"],
)
def test_a_required_keyword_only_parameter_is_refused_at_construction(facet):
    # no call passes a keyword argument, so such a callable could only crash
    facets, stop = ([], [facet]) if isinstance(facet, When) else ([facet], [])
    with pytest.raises(ValueError, match="keyword-only arg 'x'"):
        state(facets=facets, stop=stop)


def test_a_keyword_only_parameter_with_a_default_is_accepted():
    state(facets=[On(Message(rec("m")), lambda ctx, *, x=1: None)])


def test_wrong_fold_width_crashes_at_runtime():
    # one value, or a sequence of three, for a two-value collect
    for body, got in [(lambda ctx, a, b: a, "0"), (lambda ctx, a, b: (a, b, 1), "(0, 0, 1)")]:

        def script(ctx):
            yield forever(collect=[("a", 0), ("b", 0)], facets=[On(Message(Sym("x")), body)])

        net = run_then_send(script, Sym("x"))
        assert crashes(net) == [("g/1", f"ValueError: facet body must return 2 values, got {got}")]


def crashes(net):
    return [(e["actor"], e["data"]) for e in net.trace.entries if e["kind"] == "crash"]


def run_then_send(script, body):
    """Run the script until it waits, then send it one message from a peer."""
    net = new_network()
    reactive_actor(net, script)  # g/0; its state host is g/1
    kicker = net.spawn(lambda e, s: None, None)
    net.run_until_quiescent(20)
    net.interpret_action(kicker, MessageAction(body))
    net.run_until_quiescent(30)
    return net


@pytest.mark.parametrize(
    "facet, error",
    [
        (On(RisingEdge(lambda: True), lambda ctx: None), "rising-edge events only"),
        (42, "not a facet: 42"),
        (On(Sym("go"), lambda ctx: None), "not an event: 'go"),
    ],
    ids=["rising-edge-on", "non-facet", "non-event-on"],
)
def test_bad_facet_rejected_at_construction(facet, error):
    with pytest.raises(TypeError, match=error):
        state(facets=[facet])


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: until("x"), "not an event: 'x'"),
        (lambda: state(stop=["x"]), "not a stop clause: 'x'"),
    ],
    ids=["non-event-until", "non-clause"],
)
def test_bad_stop_clause_rejected_at_construction(build, error):
    with pytest.raises(TypeError, match=error):
        build()


def test_script_yielding_a_non_state_crashes_the_script():
    def script(ctx):
        yield 42

    net = new_network()
    script_id = reactive_actor(net, script)
    net.run_until_quiescent(10)
    assert crashes(net) == [
        (f"g/{script_id}", "TypeError: script yielded 42; expected a state spec")
    ]
    assert not net.actors


@pytest.mark.parametrize(
    "script, error",
    [
        (lambda ctx: ctx.detach("not a spec"), "not a state spec: 'not a spec'"),
        (lambda ctx: ctx.actor(42), "not a script: 42"),
    ],
    ids=["detach", "actor"],
)
def test_a_bad_spawn_argument_crashes_the_script_and_spawns_no_child(script, error):
    net = new_network()
    script_id = reactive_actor(net, script)
    net.run_until_quiescent(10)
    assert crashes(net) == [(f"g/{script_id}", f"TypeError: {error}")]
    assert trace_kinds(net) == ["spawn", "crash"]
    assert not net.actors


def test_body_returning_a_value_with_nothing_collected_crashes_the_host():
    def script(ctx):
        yield forever(facets=[On(Message(Sym("x")), lambda ctx: 1)])

    net = run_then_send(script, Sym("x"))
    assert crashes(net) == [
        ("g/1", "ValueError: facet body returned values but nothing is collected")
    ]


def test_two_value_collect_folds_a_pair():
    seen = []

    def script(ctx):
        got = yield state(
            collect=[("a", 0), ("b", 10)],
            facets=[On(Message(Sym("x")), lambda ctx, a, b: (a + 1, b + 2))],
            stop=[When(RisingEdge(lambda a, b: a >= 1), lambda ctx, a, b: (a, b))],
        )
        seen.append(got)

    net = run_then_send(script, Sym("x"))
    assert seen == [(1, 12)]
    assert not crashes(net)


def test_stop_body_returning_a_non_value_crashes_the_host():
    def script(ctx):
        yield until(Message(Sym("go")), body=lambda ctx: 1.5)

    net = run_then_send(script, Sym("go"))
    # the host's crash only: its script stays suspended (README crash contract)
    assert crashes(net) == [("g/1", "ValueError: state result is not a ground value: 1.5")]


def test_detached_state_from_facet_body():
    net = new_network()

    def script(ctx):
        def on_go(ctx):
            ctx.detach(
                until(
                    Message(Sym("stop")),
                    facets=[Assert(lambda: rec("cache", 1))],
                )
            )

        yield forever(facets=[On(Message(Sym("go")), on_go)])

    reactive_actor(net, script)
    kicker = net.spawn(lambda e, s: None, None)
    net.run_until_quiescent(20)
    net.interpret_action(kicker, MessageAction(Sym("go")))
    net.run_until_quiescent(30)
    assert rec("cache", 1) in net.aggregate  # detached child is alive and asserting
    net.interpret_action(kicker, MessageAction(Sym("stop")))
    net.run_until_quiescent(30)
    assert rec("cache", 1) not in net.aggregate  # child quit, outer actor still up
    assert rec("go", WILDCARD) not in net.aggregate
    kinds = trace_kinds(net)
    assert kinds.count("crash") == 0


def test_child_actor_sequences_steps_after_its_state():
    # a facet body spawns a child whose script continues past its state
    net = new_network()

    def script(ctx):
        def child(cctx):
            yield until(Message(Sym("release")))
            cctx.send(Sym("after-release"))

        def on_go(ctx):
            ctx.actor(child)

        yield forever(facets=[On(Message(Sym("go")), on_go)])

    reactive_actor(net, script)
    kicker = net.spawn(lambda e, s: None, None)
    net.run_until_quiescent(20)
    net.interpret_action(kicker, MessageAction(Sym("go")))
    net.run_until_quiescent(30)
    net.interpret_action(kicker, MessageAction(Sym("release")))
    net.run_until_quiescent(30)
    sent = [e["data"] for e in net.trace.entries if e["kind"] == "message"]
    assert sent == ["'go", "'release", "'after-release"]
    assert rec("go", WILDCARD) not in net.aggregate  # outer actor still running


def test_reactive_observer_equivalent_to_plain_observer():
    def run_with_observer(make_observer):
        net = new_network()
        build_bank_account_plain(net)
        make_observer(net)
        net.run_until_quiescent(100)
        return net

    def plain(net):
        pass  # build_bank_account_plain already spawns the plain observer

    def reactive(net):
        def script(ctx):
            yield forever(
                facets=[
                    On(Asserted(rec("account", Bind("b"))), lambda ctx, b: ctx.display(b))
                ]
            )

        reactive_actor(net, script)

    net_plain = run_with_observer(plain)
    net_reactive = run_with_observer(reactive)
    assert displays(net_plain, "g/1") == [0, 100, 70]
    # the extra reactive observer sees the same balance stream
    assert displays(net_reactive, "g/4") == [0, 100, 70]


def state_entry_filings(entries: int, filed: list) -> list:
    """What ``filed`` gains in each round of a script that enters one compiled
    state ``entries`` times, a ``(stop)`` ending each entry, as printed.

    ``filed`` collects every instance ``values._file`` files; the rounds hold
    their text, so that no instance outlives its run.  Round 0 spawns
    the script and enters the state; round k ends entry k and enters the
    next; the last round ends the script.
    """
    gc.collect()  # so that no record of an earlier run is still filed
    stop = rec("stop")
    again = state(
        facets=[On(Message(rec("ping", Bind("x"))), lambda ctx, x: None)],
        stop=[When(Message(stop))],
    )

    def script(ctx):
        for _ in range(entries):
            yield again

    net = new_network()
    kicker = net.spawn(lambda e, s: None, None)
    filed.clear()
    rounds = []
    reactive_actor(net, script)
    for _ in range(entries + 1):
        net.run_until_quiescent(100)
        rounds.append([repr(obj) for obj in filed])
        filed.clear()
        net.interpret_action(kicker, MessageAction(stop))
    assert len(net.actors) == 1  # the script finished; only the kicker is left
    return rounds


def test_entering_a_state_again_files_a_fixed_count_and_none_of_its_observes(monkeypatch):
    filed = []
    file = values._file
    monkeypatch.setattr(values, "_file", lambda obj, key: filed.append(obj) or file(obj, key))
    counts = {}
    for n in (1, 4, 16):
        rounds = state_entry_filings(n, filed)
        counts[n] = [len(r) for r in rounds[:n]]  # the rounds that enter the state
        for new in rounds[1:n]:
            # the state's own observe records were filed once, when it was
            # compiled; an entry files only its watcher's, which names a fresh sid
            observes = [text for text in new if text.startswith("(observe ")]
            assert [text.split()[1] for text in observes] == ["(state-result"]
    # round 1 also files the first result's (values); from round 2 on, every
    # entry files the same count, whatever the number of entries
    assert all(counts[n] == counts[16][:n] for n in (1, 4))
    assert len(set(counts[16][2:])) == 1


def test_compiling_a_state_leaves_no_cyclic_garbage():
    # each file-system observer compiles an until per file: a compile that
    # built a reference cycle would leave its garbage to the cyclic collector.
    # A line tracer, such as a coverage probe, builds cycles of its own per
    # frame, so the thread's trace function is suspended while this counts
    tracer = sys.gettrace()
    sys.settrace(None)
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            until(Message(rec("save", Bind("x"))))
        assert gc.collect() == 0
    finally:
        gc.enable()
        sys.settrace(tracer)


def test_a_quit_reactive_actor_is_freed_without_the_cyclic_collector():
    def script(ctx):
        yield until(Message(rec("go")))

    net = new_network()
    kicker = net.spawn(lambda e, s: None, None)
    gc.collect()
    gc.disable()
    try:
        aid = reactive_actor(net, script)
        net.run_until_quiescent(100)
        (host,) = set(net.actors) - {kicker, aid}
        script_state = weakref.ref(net.actors[aid].state)
        host_state = weakref.ref(net.actors[host].state)
        net.interpret_action(kicker, MessageAction(rec("go")))
        net.run_until_quiescent(100)
        assert set(net.actors) == {kicker}  # the host quit and the script ended
        assert host_state() is None
        assert script_state() is None
    finally:
        gc.enable()
