"""Executable coordination scenarios with deterministic golden traces.

Each scenario builds a small protocol into a fresh network and runs
it to quiescence: a bank account (plain behaviours and reactive facets), an
event counter with interruption, and a file system whose cache entries live
exactly as long as somebody is watching.  Console output is modelled as
event-message trace entries so traces stay host-independent.
"""

from __future__ import annotations

from typing import Callable

from .network import (
    Continue,
    MessageAction,
    MessageEvent,
    Network,
    OutputAction,
    PatchAction,
    PatchEvent,
    QUIT,
    SpawnAction,
    new_network,
)
from .patches import Patch, seq_patches
from .reactive import (
    Assert,
    Asserted,
    Message,
    On,
    Retracted,
    RisingEdge,
    When,
    forever,
    reactive_actor,
    state,
    until,
)
from .tracing import aggregate_snapshots
from .values import (
    Bind,
    Capture,
    Sym,
    WILDCARD,
    canonical_key,
    matches,
    observe,
    project_assertions,
    rec,
)

__all__ = ["SCENARIOS", "run_scenario", "traces_equivalent"]

NOVEL = "novel.txt"
NOVEL_TEXT = "It was a dark and stormy night"
MAX_STEPS = 500  # dispatch budget of a scenario run


def _account(balance):
    return rec("account", balance)


def _deposit(amount):
    return rec("deposit", amount)


def _file(name, content):
    return rec("file", name, content)


def _asserting(*assertions) -> tuple:
    """Startup actions that assert the given values."""
    return (PatchAction(Patch(assertions, ())),)


def _spawn_once(net: Network, interest, messages: tuple) -> None:
    """A plain actor that sends messages, then quits, once interest is first met."""

    def once(event, nothing):
        if isinstance(event, PatchEvent) and event.patch.added:
            return Continue(nothing, [*map(MessageAction, messages), QUIT])
        return None

    net.spawn(once, None, _asserting(observe(interest)))


# -- bank account, plain behaviour functions -----------------------------------


def build_bank_account_plain(net: Network) -> None:
    def manager(event, balance):
        if isinstance(event, MessageEvent) and matches(_deposit(WILDCARD), event.body):
            amount = event.body.fields[0]
            new_balance = balance + amount
            update = seq_patches(
                Patch((), {_account(balance)}),
                Patch({_account(new_balance)}, ()),
            )
            return Continue(new_balance, [PatchAction(update)])
        return None

    net.spawn(manager, 0, _asserting(_account(0), observe(_deposit(WILDCARD))))

    def observer(event, nothing):
        if isinstance(event, PatchEvent):
            balances = project_assertions(event.patch.added, rec("account", Capture()))
            if balances:
                outs = [OutputAction(b) for (b,) in balances]
                return Continue(nothing, outs)
        return None

    net.spawn(observer, None, _asserting(observe(_account(WILDCARD))))

    _spawn_once(net, observe(_deposit(WILDCARD)), (_deposit(100), _deposit(-30)))


# -- bank account, reactive facets ----------------------------------------------


def build_bank_account_reactive(net: Network) -> None:
    def manager(ctx):
        yield forever(
            collect=[("balance", 0)],
            facets=[
                Assert(lambda balance: _account(balance)),
                On(
                    Message(_deposit(Bind("amount"))),
                    lambda ctx, balance, amount: balance + amount,
                ),
            ],
        )

    def observer(ctx):
        yield forever(
            facets=[
                On(
                    Asserted(_account(Bind("balance"))),
                    lambda ctx, balance: ctx.display(balance),
                )
            ]
        )

    def updater(ctx):
        yield until(Asserted(observe(_deposit(WILDCARD))))
        ctx.send(_deposit(100))
        ctx.send(_deposit(-30))

    reactive_actor(net, manager)
    reactive_actor(net, observer)
    reactive_actor(net, updater)


# -- counter ---------------------------------------------------------------------


def _counter_script(ctx):
    ctx.send(Sym("starting"))

    def on_too_many(ctx, count):
        ctx.send(Sym("too-many"))
        return count

    def on_interrupt(ctx, count):
        ctx.send(Sym("interrupted"))
        return count

    final_count = yield state(
        collect=[("count", 0)],
        facets=[
            Assert(lambda count: rec("incrs-seen-so-far", count)),
            On(Message(Sym("incr")), lambda ctx, count: count + 1),
        ],
        stop=[
            When(RisingEdge(lambda count: count >= 5), on_too_many),
            When(Message(Sym("interrupt")), on_interrupt),
        ],
    )
    ctx.display(final_count)
    ctx.send(Sym("finished"))


def build_counter(net: Network) -> None:
    reactive_actor(net, _counter_script)
    _spawn_once(net, observe(Sym("incr")), (Sym("incr"),) * 5)


def build_counter_interrupt(net: Network) -> None:
    reactive_actor(net, _counter_script)
    _spawn_once(net, observe(Sym("incr")), (Sym("incr"), Sym("incr"), Sym("interrupt")))


# -- file system, reactive ---------------------------------------------------------


def build_file_system_reactive(net: Network) -> None:
    def file_system(ctx):
        # files is keyed by canonical_key(name), so names 1 and #t stay apart
        def on_save(ctx, files, name, content):
            return {**files, canonical_key(name): content}

        def on_delete(ctx, files, name):
            return {k: v for k, v in files.items() if k != canonical_key(name)}

        def on_observed(ctx, files, name):
            # Cache entry: lives until the last observer loses interest.
            ctx.detach(
                until(
                    Retracted(observe(_file(name, WILDCARD))),
                    collect=[("content", files.get(canonical_key(name), False))],
                    facets=[
                        Assert(lambda content: _file(name, content)),
                        On(
                            Message(rec("save", _file(name, Bind("new")))),
                            lambda ctx, content, new: new,
                        ),
                        On(
                            Message(rec("delete", _file(name, WILDCARD))),
                            lambda ctx, content: False,
                        ),
                    ],
                )
            )
            return files

        yield forever(
            collect=[("files", {})],
            facets=[
                On(Message(rec("save", _file(Bind("name"), Bind("content")))), on_save),
                On(Message(rec("delete", _file(Bind("name"), WILDCARD))), on_delete),
                On(Asserted(observe(_file(Bind("name"), WILDCARD))), on_observed),
            ],
        )

    def monitor(ctx):
        def saw(ctx, seen, text):
            ctx.display(text)
            return seen + 1

        # Reads the missing-file marker, then the saved text, then gets bored.
        yield state(
            collect=[("seen", 0)],
            facets=[On(Asserted(_file(NOVEL, Bind("text"))), saw)],
            stop=[When(RisingEdge(lambda seen: seen >= 2))],
        )

    def writer(ctx):
        yield until(Asserted(_file(NOVEL, WILDCARD)))
        ctx.send(rec("save", _file(NOVEL, NOVEL_TEXT)))

    reactive_actor(net, file_system)
    reactive_actor(net, monitor)
    reactive_actor(net, writer)


# -- file system, plain ---------------------------------------------------------------


def _spawn_file_observation(name, content):
    """Plain-style cache entry: one actor per observed file name."""
    save_pat = rec("save", _file(name, WILDCARD))
    delete_pat = rec("delete", _file(name, WILDCARD))
    watched = observe(_file(name, WILDCARD))

    def observation(event, content):
        if isinstance(event, MessageEvent):
            if matches(save_pat, event.body):
                new, old = event.body.fields[0], _file(name, content)
                if new is old:  # interned: a save of 0 over #f is a change
                    return None
                return Continue(new.fields[1], [PatchAction(Patch({new}, {old}))])
            if matches(delete_pat, event.body):
                if content is False:
                    return None
                return Continue(
                    False,
                    [PatchAction(Patch({_file(name, False)}, {_file(name, content)}))],
                )
            return None
        if watched in event.patch.removed:
            return Continue(content, [QUIT])
        return None

    startup = _asserting(
        _file(name, content), observe(save_pat), observe(delete_pat), observe(watched)
    )
    return SpawnAction(observation, content, startup)


def build_file_system_plain(net: Network) -> None:
    observed_file = observe(_file(Capture(), WILDCARD))

    def file_system(event, files):
        # files is keyed by canonical_key(name), so names 1 and #t stay apart
        if isinstance(event, MessageEvent):
            if matches(rec("save", _file(WILDCARD, WILDCARD)), event.body):
                name, content = event.body.fields[0].fields
                return Continue({**files, canonical_key(name): content}, [])
            if matches(rec("delete", _file(WILDCARD, WILDCARD)), event.body):
                key = canonical_key(event.body.fields[0].fields[0])
                return Continue({k: v for k, v in files.items() if k != key}, [])
            return None
        names = project_assertions(event.patch.added, observed_file)
        if not names:
            return None
        spawns = [
            _spawn_file_observation(name, files.get(canonical_key(name), False))
            for (name,) in names
        ]
        return Continue(files, spawns)

    net.spawn(
        file_system,
        {},
        _asserting(
            observe(rec("save", _file(WILDCARD, WILDCARD))),
            observe(rec("delete", _file(WILDCARD, WILDCARD))),
            observe(observe(_file(WILDCARD, WILDCARD))),
        ),
    )

    def monitor(event, seen):
        if isinstance(event, PatchEvent):
            texts = project_assertions(event.patch.added, _file(NOVEL, Capture()))
            if texts:
                outs = [OutputAction(t) for (t,) in texts]
                seen += len(texts)
                return Continue(seen, outs + ([QUIT] if seen >= 2 else []))
        return None

    net.spawn(monitor, 0, _asserting(observe(_file(NOVEL, WILDCARD))))

    _spawn_once(net, _file(NOVEL, WILDCARD), (rec("save", _file(NOVEL, NOVEL_TEXT)),))


# -- registry and runner -----------------------------------------------------------------


# each scenario's golden trace is goldens/<name>.jsonl
SCENARIOS: dict[str, Callable[[Network], None]] = {
    "bank-account-plain": build_bank_account_plain,
    "bank-account-reactive": build_bank_account_reactive,
    "counter": build_counter,
    "counter-interrupt": build_counter_interrupt,
    "file-system-plain": build_file_system_plain,
    "file-system-reactive": build_file_system_reactive,
}


def run_scenario(name: str, *, oracle: bool = False) -> tuple[Network, list[str]]:
    """Build and run a scenario to quiescence in FIFO order; returns (network, trace lines).

    With oracle=True the aggregate counts and every actor's visible set are
    recounted from scratch after every dispatch and compared with the ones
    the network keeps (VisibilityMismatch on a difference).  To explore
    other interleavings, build the scenario into a network and pass pick to
    its run_until_quiescent.
    """
    net = new_network()
    SCENARIOS[name](net)
    net.run_until_quiescent(MAX_STEPS, after_step=net.check_visibility if oracle else None)
    return net, net.trace.lines()


def traces_equivalent(trace_a, trace_b, lens) -> bool:
    """True when both traces walk through identical lens-restricted snapshots."""
    return aggregate_snapshots(trace_a, lens) == aggregate_snapshots(trace_b, lens)
