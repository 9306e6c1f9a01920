"""The three closed-loop workloads and their reference models.

Each workload builds a population of actors into a fresh network, then
yields one *round* at a time: a list of actions that a single driver actor
performs before the network is run to quiescence.  The workload keeps its
own model of what every actor should have seen, and ``check`` compares the
actors' observations against it after each round.  Inputs depend only on
the seed; the runtime sees only the generated actions.

Observations are recorded into probes the workload owns (``views``,
``inbox``, ``done``), not read out of the network, so the checks survive
refactors of the network's internals.
"""

from __future__ import annotations

import random

from dataspace import (
    Assert,
    Asserted,
    Bind,
    MessageAction,
    MessageEvent,
    Message,
    On,
    Patch,
    PatchAction,
    PatchEvent,
    RisingEdge,
    WILDCARD,
    When,
    forever,
    observe,
    reactive_actor,
    rec,
    state,
)


def _idle(event, state):
    return None


class Workload:
    """Common driver plumbing: a seeded RNG and an inert driver actor."""

    name = ""
    # the kinds of round in one timing block (see timed_blocks in run.py); every
    # block plays this mix in a seeded order, so every block does the same work
    mix: tuple = ()
    # both whole blocks, so the timed rounds start on a block boundary
    warmup_rounds = 0  # played during set-up
    digest_rounds = 0  # length of the default-seed run whose trace digest is recorded

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.driver = None
        self._block: list = []

    @property
    def block_rounds(self) -> int:
        return len(self.mix)

    def build(self, net, wrap=lambda fn: fn, step=lambda: None) -> None:
        """Spawn the population; ``wrap`` decorates the workload's own behaviours.

        ``step`` is called after each spawn.
        """
        self.driver = net.spawn(_idle, None)
        step()
        self.populate(net, wrap, step)

    def populate(self, net, wrap, step) -> None:
        raise NotImplementedError

    def next_round(self) -> list:
        """Actions for the driver to perform; updates the reference model."""
        if not self._block:
            self._block = list(self.mix)
            self.rng.shuffle(self._block)
        return self.play(self._block.pop())

    def play(self, kind: str) -> list:
        """Actions for one round of the given kind."""
        raise NotImplementedError

    def check(self) -> bool:
        """True when every observation since the last round matches the model."""
        raise NotImplementedError


# -- presence: assertion churn under stable interests ----------------------------


def presence(k, v):
    return rec("presence", k, v)


class Presence(Workload):
    """Keyed and wildcard observers of (presence k v); one toggle per round."""

    name = "presence"
    mix = ("assert", "retract")  # so every block starts with half the keys live
    warmup_rounds = 8
    digest_rounds = 96

    def __init__(self, seed: int, keys: int = 64, keyed: int = 112, wildcard: int = 16):
        super().__init__(seed)
        self.keys = keys
        self.observed_key = [j % keys for j in range(keyed)] + [None] * wildcard
        self.live = {}  # key -> value currently asserted by the publisher
        self.views: list[set] = [set() for _ in self.observed_key]
        self.publisher = None

    def populate(self, net, wrap, step) -> None:
        # exactly half the keys, so every seed sets up the same amount of work
        for k in self.rng.sample(range(self.keys), self.keys // 2):
            self.live[k] = self.rng.randrange(1000)
        initial = {presence(k, v) for k, v in self.live.items()}
        self.publisher = net.spawn(_idle, None, [PatchAction(Patch(initial, ()))])
        step()

        def observer(event, j):
            if isinstance(event, PatchEvent):
                view = self.views[j]
                view.difference_update(event.patch.removed)
                view.update(event.patch.added)
            return None

        behaviour = wrap(observer)
        for j, k in enumerate(self.observed_key):
            interest = observe(presence(WILDCARD if k is None else k, WILDCARD))
            net.spawn(behaviour, j, [PatchAction(Patch({interest}, ()))])
            step()

    def play(self, kind: str) -> list:
        retract = kind == "retract"
        k = self.rng.choice([k for k in range(self.keys) if (k in self.live) == retract])
        if retract:
            patch = Patch((), {presence(k, self.live.pop(k))})
        else:
            self.live[k] = self.rng.randrange(1000)
            patch = Patch({presence(k, self.live[k])}, ())
        return [(self.publisher, PatchAction(patch))]

    def expected_view(self, key) -> set:
        if key is None:
            return {presence(k, v) for k, v in self.live.items()}
        return {presence(key, self.live[key])} if key in self.live else set()

    def check(self) -> bool:
        everything = self.expected_view(None)
        return all(
            view == (everything if k is None else self.expected_view(k))
            for view, k in zip(self.views, self.observed_key)
        )


# -- broadcast: message routing under stable assertions ----------------------------


def topic(t, seq):
    return rec("topic", t, seq)


class Broadcast(Workload):
    """Keyed and wildcard subscribers of (topic t seq); one message per round."""

    name = "broadcast"
    # one message in eight goes to a topic only the wildcard subscribers watch
    mix = ("keyed",) * 14 + ("wildcard",) * 2
    warmup_rounds = 64
    digest_rounds = 1024

    def __init__(self, seed: int, topics: int = 16, keyed: int = 256, wildcard: int = 8):
        super().__init__(seed)
        self.topics = topics
        self.watched = [i % topics for i in range(keyed)] + [None] * wildcard
        self.inbox: list = []  # (subscriber, body) deliveries since the last check
        self.expected: tuple = ()
        self.seq = 0

    def populate(self, net, wrap, step) -> None:
        def subscriber(event, i):
            if isinstance(event, MessageEvent):
                self.inbox.append((i, event.body))
            return None

        behaviour = wrap(subscriber)
        for i, t in enumerate(self.watched):
            interest = observe(topic(WILDCARD if t is None else t, WILDCARD))
            net.spawn(behaviour, i, [PatchAction(Patch({interest}, ()))])
            step()

    def play(self, kind: str) -> list:
        t = self.rng.randrange(self.topics)
        if kind == "wildcard":
            t += self.topics
        body = topic(t, self.seq)
        self.seq += 1
        self.expected = tuple(
            (i, body) for i, w in enumerate(self.watched) if w is None or w == t
        )
        return [(self.driver, MessageAction(body))]

    def check(self) -> bool:
        ok = sorted(self.inbox, key=lambda d: d[0]) == list(self.expected)
        self.inbox.clear()
        return ok


# -- sessions: reactive conversations ------------------------------------------------


class Sessions(Workload):
    """Counter-style reactive sessions watched by a reactive monitor.

    Each round takes one seeded session through one complete state: three
    ``incr`` (the rising edge fires at n = 3) or ``incr`` + ``cancel``
    (the cancel clause fires at n = 1).
    """

    name = "sessions"
    mix = ("count",) * 6 + ("cancel",) * 2
    warmup_rounds = 32
    digest_rounds = 256

    def __init__(self, seed: int, sessions: int = 4):
        super().__init__(seed)
        self.sessions = sessions
        self.states_done = [0] * sessions
        self.done: list = []  # (i, k, n) seen by the monitor since the last check
        self.expected: tuple = ()

    def populate(self, net, wrap, step) -> None:
        for i in range(self.sessions):
            reactive_actor(net, self._session_script(i))
            step()

        def monitor(ctx):
            yield forever(
                facets=[
                    On(
                        Message(rec("done", Bind("i"), Bind("k"), Bind("n"))),
                        lambda ctx, i, k, n: self.done.append((i, k, n)),
                    ),
                    On(Asserted(rec("progress", Bind("i"), Bind("n"))), lambda ctx, i, n: None),
                ]
            )

        reactive_actor(net, monitor)
        step()

    @staticmethod
    def _session_script(i):
        counting = state(
            collect=[("n", 0)],
            facets=[
                Assert(lambda n: rec("progress", i, n)),
                On(Message(rec("incr", i)), lambda ctx, n: n + 1),
            ],
            stop=[
                When(RisingEdge(lambda n: n >= 3), lambda ctx, n: n),
                When(Message(rec("cancel", i)), lambda ctx, n: n),
            ],
        )

        def script(ctx):
            k = 0
            while True:
                n = yield counting
                ctx.send(rec("done", i, k, n))
                k += 1

        return script

    def play(self, kind: str) -> list:
        i = self.rng.randrange(self.sessions)
        if kind == "cancel":
            bodies, n = [rec("incr", i), rec("cancel", i)], 1
        else:
            bodies, n = [rec("incr", i)] * 3, 3
        self.expected = ((i, self.states_done[i], n),)
        self.states_done[i] += 1
        return [(self.driver, MessageAction(b)) for b in bodies]

    def check(self) -> bool:
        ok = tuple(self.done) == self.expected
        self.done.clear()
        return ok


WORKLOADS = {w.name: w for w in (Presence, Broadcast, Sessions)}
