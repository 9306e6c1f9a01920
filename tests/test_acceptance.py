"""Acceptance suite: one test per criterion, each printing a pass/fail line."""

import json
import random
import time

from dataspace import (
    EMPTY_PATCH,
    MessageEvent,
    Patch,
    PatchAction,
    SCENARIOS,
    Sym,
    WILDCARD,
    aggregate_snapshots,
    apply_patch,
    clamp_patch,
    delta,
    interests_of,
    new_network,
    observe,
    rec,
    run_scenario,
    seq_patches,
    traces_equivalent,
    visible,
)
from dataspace.cli import main as cli_main
from dataspace.reactive import Assert, Message, On, ReactiveState, forever
from dataspace.scenarios import MAX_STEPS


def _report(n, text):
    print(f"[criterion {n}] PASS - {text}")


def account(x):
    return rec("account", x)


def _messages(lines):
    return [json.loads(l)["data"] for l in lines if json.loads(l)["kind"] == "message"]


def _displays(lines):
    return [
        json.loads(l)["data"] for l in lines if json.loads(l)["kind"] == "event-message"
    ]


def test_criterion_1_bank_account_reproduction():
    started = time.perf_counter()
    expected = [
        frozenset(),
        frozenset({account(0)}),
        frozenset({account(100)}),
        frozenset({account(70)}),
    ]
    for name in ("bank-account-plain", "bank-account-reactive"):
        net, lines = run_scenario(name)  # raises NonQuiescent if it never settles
        assert aggregate_snapshots(lines, rec("account", WILDCARD)) == expected, name
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(1, f"plain+reactive balance trajectory 0 -> 100 -> 70 in {elapsed:.3f}s")


def test_criterion_2_counter_reproduction():
    net, lines = run_scenario("counter")
    assert _messages(lines) == [
        "'starting", "'incr", "'incr", "'incr", "'incr", "'incr",
        "'too-many", "'finished",
    ]
    lens = rec("incrs-seen-so-far", WILDCARD)
    snaps = aggregate_snapshots(lines, lens)
    assert len(snaps) > 2 and snaps[-1] == frozenset()  # present during, gone after
    assert all(not a == lens for a in net.aggregate)
    net_i, lines_i = run_scenario("counter-interrupt")
    msgs = _messages(lines_i)
    assert "'interrupted" in msgs and "'too-many" not in msgs
    incrs_before_interrupt = msgs[1 : msgs.index("'interrupt")].count("'incr")
    assert _displays(lines_i) == [incrs_before_interrupt] == [2]
    _report(2, "counter message order and fold; interrupt variant returns count 2")


def test_criterion_3_file_system_reproduction():
    text = "It was a dark and stormy night"
    for name in ("file-system-plain", "file-system-reactive"):
        net, lines = run_scenario(name)
        assert _displays(lines) == [False, text], name
        assert not [a for a in net.aggregate if a == rec("file", WILDCARD, WILDCARD)]
    _, plain = run_scenario("file-system-plain")
    _, reactive = run_scenario("file-system-reactive")
    assert traces_equivalent(plain, reactive, rec("file", WILDCARD, WILDCARD))
    _report(3, "monitor saw missing marker then saved text; cache fully retracted")


def test_criterion_4_retraction_on_failure():
    rng = random.Random(0xDA7A)
    pool = [
        rec("t0", 0), rec("t0", 1), rec("t1", "a"), rec("t1", WILDCARD),
        rec("t2", Sym("s"), 0),
        observe(rec("t0", WILDCARD)), observe(rec("t1", WILDCARD)),
        observe(rec("t2", WILDCARD, WILDCARD)),
        observe(observe(rec("t0", WILDCARD))),
        observe(WILDCARD),
        rec("ok", "m"), observe(rec("ok", "m")),
    ]

    def idle(event, state):
        return None

    cases = 0
    for _ in range(1000):
        net = new_network()
        actors = []
        for _ in range(rng.randint(2, 6)):
            asserted = frozenset(rng.sample(pool, rng.randint(0, 8)))
            actors.append(net.spawn(idle, None, [PatchAction(Patch(asserted, ()))]))
        net.run_until_quiescent(500)
        victim = rng.choice(actors)
        before = {
            aid: frozenset(e.seen) for aid, e in net.actors.items() if aid != victim
        }
        net.terminate_actor(victim, crash="induced failure")
        pending = {}
        for aid, ev in net.queue:
            pending.setdefault(aid, []).append(ev)
        support = frozenset(net.aggregate)
        union = set()
        for aid, e in net.actors.items():
            union |= e.asserted
            now = visible(support, interests_of(e.asserted))
            lost = before[aid] - now
            assert now <= before[aid], "visible sets may only shrink on a kill"
            events = pending.get(aid, [])
            if lost:
                assert len(events) == 1, "exactly one covering removal patch"
                assert events[0].patch.removed == lost
                assert not events[0].patch.added
            else:
                assert not events
        assert support == frozenset(union), "no assertion survives its last claimant"
        net.run_until_quiescent(500)
        net.check_visibility()
        cases += 1
    assert cases == 1000
    _report(4, "1000 random kills: total retraction, one covering patch per observer")


def test_criterion_5_patch_algebra_laws():
    rng = random.Random(0x5E7)
    pool = [
        account(0), account(100), observe(rec("deposit", WILDCARD)),
        rec("file", "n", False), Sym("ok"), observe(account(WILDCARD)),
    ]

    def rand_set():
        return frozenset(rng.sample(pool, rng.randint(0, 6)))

    def rand_patch():
        added = rand_set()
        return Patch(added, rand_set() - added)

    checks = 0
    for _ in range(10_000):
        s, p1, p2, p3 = rand_set(), rand_patch(), rand_patch(), rand_patch()
        assert apply_patch(apply_patch(s, p1), p2) == apply_patch(s, seq_patches(p1, p2))
        assert seq_patches(seq_patches(p1, p2), p3) == seq_patches(p1, seq_patches(p2, p3))
        assert seq_patches(p1, EMPTY_PATCH) == p1 == seq_patches(EMPTY_PATCH, p1)
        before, after = s, rand_set()
        d = delta(before, after)
        assert apply_patch(before, d) == after
        assert clamp_patch(d, before) == d
        checks += 1
    assert checks == 10_000
    _report(5, "10000 random cases: homomorphism, associativity, identity, round-trip")


def test_criterion_6_visibility_oracle_equivalence():
    runs = 0
    for name in SCENARIOS:
        for seed in range(500):
            rng = random.Random(seed)
            net = new_network()
            SCENARIOS[name](net)
            net.run_until_quiescent(
                MAX_STEPS, pick=rng.randrange, after_step=net.check_visibility
            )
            runs += 1
    assert runs == 6 * 500
    _report(6, "3000 randomized dispatch sequences matched the from-scratch oracle")


def test_criterion_7_mux_non_interference():
    rng = random.Random(0x707)
    shapes = [
        rec("shared", i) for i in range(4)
    ] + [observe(rec("shared", WILDCARD)), rec("deep", rec("er", 1))]
    move = Sym("move")
    for _ in range(200):
        shared = rng.choice(shapes)
        # two facets of one state claim the shared assertion; one moves off it
        # on a message, and the order the facets are declared in is random
        facets = [
            Assert(lambda n, a=shared: a),
            Assert(lambda n, a=shared: a if n == 0 else rec("moved", n)),
        ]
        rng.shuffle(facets)
        rt = ReactiveState(None)
        spec = forever(
            collect=[("n", 0)],
            facets=[*facets, On(Message(move), lambda ctx, n: n + 1)],
        )
        up = rt.collect_actions(lambda: rt.install_group(spec))
        assert up == [PatchAction(Patch({shared, observe(move)}, ()))]
        moved = rt.collect_actions(lambda: rt._deliver(MessageEvent(move)))
        assert moved == [PatchAction(Patch({rec("moved", 1)}, ()))], (
            "a facet moving off must not retract what another facet claims"
        )
        down = rt.collect_actions(rt.teardown_group)
        assert down == [PatchAction(Patch((), {shared, rec("moved", 1), observe(move)}))]
    _report(7, "200 cases: overlapping facet assertions retract only at the last release")


def test_criterion_8_determinism_and_goldens(capsys):
    for name in SCENARIOS:
        _, first = run_scenario(name)
        _, second = run_scenario(name)
        assert first == second, name
        assert cli_main(["check", name]) == 0, name
    capsys.readouterr()  # swallow the check subcommand's chatter
    _report(8, "byte-identical reruns; committed goldens verified")
