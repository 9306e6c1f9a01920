import json
from importlib import resources

import pytest

from conftest import oracle_lines
from dataspace import (
    SCENARIOS,
    MessageAction,
    NonQuiescent,
    Patch,
    PatchAction,
    Sym,
    WILDCARD,
    aggregate_snapshots,
    canonical_decode,
    new_network,
    observe,
    rec,
    run_scenario,
    traces_equivalent,
)
from dataspace.scenarios import MAX_STEPS, build_bank_account_plain


def entries(lines):
    return [json.loads(line) for line in lines]


def messages(lines):
    return [e["data"] for e in entries(lines) if e["kind"] == "message"]


def displays(lines):
    return [e["data"] for e in entries(lines) if e["kind"] == "event-message"]


def account(x):
    return rec("account", x)


ACCOUNT_LENS = rec("account", WILDCARD)
FILE_LENS = rec("file", WILDCARD, WILDCARD)
NOVEL_TEXT = "It was a dark and stormy night"


@pytest.mark.parametrize("name", ["bank-account-plain", "bank-account-reactive"])
def test_bank_account_balance_trajectory(name):
    net, lines = run_scenario(name)
    assert account(70) in net.aggregate
    snaps = aggregate_snapshots(lines, ACCOUNT_LENS)
    assert snaps == [
        frozenset(),
        frozenset({account(0)}),
        frozenset({account(100)}),
        frozenset({account(70)}),
    ]


@pytest.mark.parametrize("name", ["bank-account-plain", "bank-account-reactive"])
def test_bank_account_observer_prints_each_balance(name):
    _, lines = run_scenario(name)
    assert displays(lines) == [0, 100, 70]


@pytest.mark.parametrize(
    "balances, shown", [((0, False), ["false", "0"]), ((1, "x"), ["1", '"x"'])]
)
def test_plain_observer_shows_distinct_balances_in_canonical_order(balances, shown):
    # one patch adds two balances that Python equates or cannot order
    net = new_network()
    build_bank_account_plain(net)
    net.run_until_quiescent(MAX_STEPS)
    settled = len(net.trace.lines())
    net.spawn(lambda e, s: None, None, [PatchAction(Patch({account(b) for b in balances}, ()))])
    net.run_until_quiescent(MAX_STEPS)
    later = entries(net.trace.lines()[settled:])
    assert [e for e in later if e["kind"] == "crash"] == []
    assert [json.dumps(e["data"]) for e in later if e["kind"] == "event-message"] == shown


def test_bank_account_deposit_amounts():
    _, lines = run_scenario("bank-account-plain")
    amounts = [
        canonical_decode(json.dumps(m)).fields[0]
        for m in messages(lines)
        if isinstance(m, list) and m[0] == "deposit"
    ]
    assert amounts == [100, -30]
    # arithmetic oracle for the stated trajectory
    assert 0 + amounts[0] == 100
    assert 100 + amounts[1] == 70


def test_bank_account_plain_and_reactive_agree():
    _, plain = run_scenario("bank-account-plain")
    _, reactive = run_scenario("bank-account-reactive")
    assert traces_equivalent(plain, reactive, ACCOUNT_LENS)


def test_updater_interest_leaves_aggregate_after_clean_exit():
    net, _ = run_scenario("bank-account-plain")
    gone = rec("observe", rec("observe", rec("deposit", WILDCARD)))
    assert gone not in net.aggregate


def test_reactive_updater_waits_for_a_recipient():
    _, lines = run_scenario("bank-account-reactive")
    sub = json.loads('["observe",["deposit","_"]]')
    interest_up = next(
        e["seq"]
        for e in entries(lines)
        if e["kind"] == "patch-out" and sub in e["data"]["added"]
    )
    first_deposit = next(
        e["seq"]
        for e in entries(lines)
        if e["kind"] == "message" and isinstance(e["data"], list) and e["data"][0] == "deposit"
    )
    assert interest_up < first_deposit


def test_counter_message_order():
    _, lines = run_scenario("counter")
    assert messages(lines) == [
        "'starting",
        "'incr",
        "'incr",
        "'incr",
        "'incr",
        "'incr",
        "'too-many",
        "'finished",
    ]


def test_counter_assertion_steps_then_retracts():
    net, lines = run_scenario("counter")
    lens = rec("incrs-seen-so-far", WILDCARD)
    snaps = aggregate_snapshots(lines, lens)
    assert snaps == [frozenset()] + [
        frozenset({rec("incrs-seen-so-far", i)}) for i in range(6)
    ] + [frozenset()]
    assert not any(
        a for a in net.aggregate if a == rec("incrs-seen-so-far", WILDCARD)
    )
    assert displays(lines) == [5]


def test_counter_interrupt_variant():
    net, lines = run_scenario("counter-interrupt")
    assert messages(lines) == [
        "'starting",
        "'incr",
        "'incr",
        "'interrupt",
        "'interrupted",
        "'finished",
    ]
    assert displays(lines) == [2]  # incrs delivered before interruption


@pytest.mark.parametrize("name", ["file-system-plain", "file-system-reactive"])
def test_file_system_monitor_sees_missing_then_saved(name):
    net, lines = run_scenario(name)
    assert displays(lines) == [False, NOVEL_TEXT]
    # after the monitor loses interest nothing keeps the file assertion alive
    assert not [a for a in net.aggregate if a == rec("file", WILDCARD, WILDCARD)]


def test_file_system_save_reaches_both_store_and_cache():
    _, lines = run_scenario("file-system-reactive")
    snaps = aggregate_snapshots(lines, FILE_LENS)
    assert snaps == [
        frozenset(),
        frozenset({rec("file", "novel.txt", False)}),
        frozenset({rec("file", "novel.txt", NOVEL_TEXT)}),
        frozenset(),
    ]


def test_file_system_plain_and_reactive_agree():
    _, plain = run_scenario("file-system-plain")
    _, reactive = run_scenario("file-system-reactive")
    assert traces_equivalent(plain, reactive, FILE_LENS)


def save(content):
    return rec("save", rec("file", "novel.txt", content))


# a ground message: the wildcard form is refused as non-ground
DELETE = rec("delete", rec("file", "novel.txt", False))


def run_file_edits(name, edits=(DELETE, save("x"))):
    """Run a file-system scenario, then send each edit from a peer watching the file."""
    net = new_network()
    SCENARIOS[name](net)
    watched = observe(rec("file", "novel.txt", WILDCARD))
    peer = net.spawn(lambda e, s: None, None, [PatchAction(Patch({watched}, ()))])
    net.run_until_quiescent(MAX_STEPS)
    for edit in edits:
        net.interpret_action(peer, MessageAction(edit))
        net.run_until_quiescent(MAX_STEPS, after_step=net.check_visibility)
    return net.trace.lines()


@pytest.mark.parametrize("name", ["file-system-plain", "file-system-reactive"])
def test_file_system_delete_resets_the_cache_entry(name):
    snaps = aggregate_snapshots(run_file_edits(name), FILE_LENS)
    assert snaps[-3:] == [
        frozenset({rec("file", "novel.txt", NOVEL_TEXT)}),
        frozenset({rec("file", "novel.txt", False)}),
        frozenset({rec("file", "novel.txt", "x")}),
    ]


def test_file_system_delete_agrees_across_styles():
    # a save of 0 over the missing marker #f, or of #t over 1, is a change
    for edits in [(DELETE, save("x")), (DELETE, save(0)), (save(1), save(True))]:
        plain = run_file_edits("file-system-plain", edits)
        reactive = run_file_edits("file-system-reactive", edits)
        assert traces_equivalent(plain, reactive, FILE_LENS), edits


@pytest.mark.parametrize("name", ["file-system-plain", "file-system-reactive"])
def test_file_system_store_keeps_names_one_and_true_apart(name):
    net = new_network()
    SCENARIOS[name](net)
    net.run_until_quiescent(MAX_STEPS)

    def settle():
        net.run_until_quiescent(MAX_STEPS, after_step=net.check_visibility)

    def watch(file_name):
        shown = []

        def watcher(event, state):
            shown.extend(event.patch.added)
            return None

        interest = observe(rec("file", file_name, WILDCARD))
        aid = net.spawn(watcher, None, [PatchAction(Patch({interest}, ()))])
        settle()
        return aid, shown

    def send(edit):
        net.interpret_action(editor, MessageAction(edit))
        settle()

    editor = net.spawn(lambda e, s: None, None)
    send(rec("save", rec("file", 1, "one")))
    first, shown = watch(True)
    assert shown == [rec("file", True, False)]  # file #t was never saved
    send(rec("delete", rec("file", True, False)))
    net.terminate_actor(first)
    settle()
    _, shown = watch(1)
    assert shown == [rec("file", 1, "one")]  # deleting file #t kept file 1


def test_unrelated_scenarios_are_not_equivalent():
    _, counter = run_scenario("counter")
    _, bank = run_scenario("bank-account-plain")
    assert not traces_equivalent(counter, bank, WILDCARD)


def test_every_scenario_is_quiescent_and_deterministic():
    for name in SCENARIOS:
        _, first = run_scenario(name)
        _, second = run_scenario(name)
        assert first == second, name
        assert [e["seq"] for e in entries(first)] == list(range(len(first)))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_step_budget_is_exactly_the_dispatches_a_scenario_needs(name):
    def fresh():
        net = new_network()
        SCENARIOS[name](net)
        return net

    steps = fresh().run_until_quiescent(MAX_STEPS)
    assert fresh().run_until_quiescent(steps) == steps
    with pytest.raises(NonQuiescent):
        fresh().run_until_quiescent(steps - 1)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_lines_are_the_json_dumps_of_each_entry(name):
    net, lines = run_scenario(name)
    assert lines == oracle_lines(net.trace)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_a_second_render_writes_the_golden_again(name):
    # the first render keeps each form's text; the second reads it back
    golden = resources.files("dataspace").joinpath("goldens", f"{name}.jsonl").read_bytes()
    net, first = run_scenario(name)
    for lines in (first, net.trace.lines()):
        assert ("\n".join(lines) + "\n").encode("utf-8") == golden


def test_every_scenario_replays_byte_identically_after_allocation_churn():
    # values hash by identity, so a set of them iterates in address order;
    # a second run after the heap has moved must still write the same trace
    for name in SCENARIOS:
        _, first = run_scenario(name)
        ballast = [rec("churn", i, Sym(f"s{i}")) for i in range(4000)][::3]
        _, second = run_scenario(name)
        assert first == second, name
        del ballast


def test_aggregate_snapshots_keep_one_and_true_apart():
    def patch_out(seq, added, removed):
        data = {"added": added, "removed": removed}
        return json.dumps({"seq": seq, "actor": "g/0", "kind": "patch-out", "data": data})

    trace = [
        patch_out(0, [["a", 1]], []),
        patch_out(1, [["a", True]], []),
        patch_out(2, [], [["a", 1]]),
    ]
    assert aggregate_snapshots(trace, rec("a", WILDCARD)) == [
        frozenset(),
        frozenset({rec("a", 1)}),
        frozenset({rec("a", 1), rec("a", True)}),
        frozenset({rec("a", True)}),
    ]
    assert aggregate_snapshots(trace, rec("a", True)) == [
        frozenset(),
        frozenset({rec("a", True)}),
    ]


def test_every_scenario_passes_the_visibility_oracle():
    for name in SCENARIOS:
        run_scenario(name, oracle=True)
