"""Reactive actors: sequential scripts, blocking states, and facets.

A script is a generator over an :class:`ActorContext`; yielding a state spec
blocks the script until one of the state's termination clauses fires.  Every
state runs its facets in a fresh actor: the parent installs an internal
watcher for a reserved completion assertion, the fresh actor hosts the
facets, and the termination clause's result values travel back through the
dataspace.  A reactive actor therefore holds one state at a time, in its own
fields: a script's watcher, whose completion resumes the script, or a hosted
state, whose completion asserts the result and quits the host.  That state
asserts one set, its subscriptions and each ``Assert`` facet's current value,
worked out whole at every change and patched by difference: facets that claim
the same assertion never interfere, and leaving the state retracts it all.
Each triggering value is matched against a clause once; the body's bindings
are the captures of that unified value.  An actor's context buffers its step's
actions and holds no reference back, so reference counting frees a quit actor.

A compiled state holds what its clauses decide once: the ``observe`` record
of each clause's subscription, which installing the state claims as it is,
and the positions of each clause's binders, so that a clause without
binders extracts nothing from its triggers.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .network import (
    Continue,
    MessageAction,
    MessageEvent,
    OutputAction,
    PatchAction,
    PatchEvent,
    QUIT,
    SpawnAction,
)
from .patches import Patch
from .values import (
    WILDCARD,
    Record,
    Sym,
    capture_positions,
    captures,
    compile_surface,
    intersect,
    is_ground,
    matches,
    observe,
    rec,
    sort_patterns,
    to_jsonable,
)

__all__ = [
    "Assert",
    "Asserted",
    "Message",
    "On",
    "ReactiveState",
    "Retracted",
    "RisingEdge",
    "StateSpec",
    "When",
    "forever",
    "reactive_actor",
    "state",
    "until",
]

RESERVED_LABEL = Sym("state-result")
_VALUES_LABEL = Sym("values")


# -- event specifications ----------------------------------------------------


@dataclass(frozen=True)
class Message:
    """Triggered by an incoming message matching the surface pattern."""

    pattern: Any


@dataclass(frozen=True)
class Asserted:
    """Triggered once per assertion added to the dataspace and matching."""

    pattern: Any


@dataclass(frozen=True)
class Retracted:
    """Triggered once per matching assertion removed from the dataspace."""

    pattern: Any


@dataclass(frozen=True)
class RisingEdge:
    """Triggered when the predicate over the collected values holds.

    It is checked at install and after each event; being a stop clause, it
    ends the state when it fires.
    """

    predicate: Callable


@dataclass(frozen=True)
class Assert:
    """Facet keeping one assertion derived from the collected values current."""

    template: Callable


@dataclass(frozen=True)
class On:
    """Facet running a body for each triggering event."""

    spec: Any
    body: Callable


@dataclass(frozen=True)
class When:
    """Termination clause; its body's return values resume the waiting script."""

    spec: Any
    body: Optional[Callable] = None


@dataclass(frozen=True)
class _Clause:
    """A compiled facet (``On``) or termination clause (``When``)."""

    kind: str  # message | asserted | retracted | rising-edge
    subscription: Any = None
    binders: tuple = ()  # the position of each binder (values.capture_positions)
    predicate: Optional[Callable] = None
    body: Optional[Callable] = None


@dataclass(frozen=True)
class StateSpec:
    """Compiled state: initial collected values, facets, termination clauses.

    ``subs`` holds the ``observe`` record of each facet's and termination
    clause's subscription (rising edges have none), claimed while it lives.
    """

    collect: tuple
    asserts: tuple
    ons: tuple
    whens: tuple
    subs: frozenset


def _contains_reserved(p) -> bool:
    return isinstance(p, Record) and (
        p.label is RESERVED_LABEL or any(_contains_reserved(f) for f in p.fields)
    )


def _check_arity(fn: Callable, expected: int, what: str) -> None:
    try:
        params = list(inspect.signature(fn).parameters.values())
    except (TypeError, ValueError):
        return
    for p in params:
        if p.kind == p.KEYWORD_ONLY and p.default is p.empty:
            raise ValueError(f"{what} requires keyword-only arg {p.name!r}, which no call passes")
    if any(p.kind == p.VAR_POSITIONAL for p in params):
        return
    positional = [
        p for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    required = [p for p in positional if p.default is p.empty]
    if not (len(required) <= expected <= len(positional)):
        raise ValueError(
            f"{what} takes {len(positional)} positional args, expected {expected}"
        )


def _compile_clause(spec, body, n: int, what: str) -> _Clause:
    # n collected values; a body also receives the context and the bindings
    if isinstance(spec, RisingEdge):
        _check_arity(spec.predicate, n, "rising-edge predicate")
        if body is not None:
            _check_arity(body, 1 + n, what)
        return _Clause("rising-edge", predicate=spec.predicate, body=body)
    kind = {Message: "message", Asserted: "asserted", Retracted: "retracted"}.get(type(spec))
    if kind is None:
        raise TypeError(f"not an event: {spec!r}")
    subscription, extraction, names = compile_surface(spec.pattern)
    # encoded now, a subscription with no canonical text ("'x", "_", a ?!
    # label) fails where the script builds the state, not later in its host
    to_jsonable(subscription)
    if _contains_reserved(subscription):
        raise ValueError(f"pattern uses the reserved label {RESERVED_LABEL!r}")
    if body is not None:
        _check_arity(body, 1 + n + len(names), what.format(kind=kind))
    return _Clause(kind, subscription, capture_positions(extraction), body=body)


def state(*, collect=(), facets=(), stop=()) -> StateSpec:
    """A blocking state: facets stay active until a stop clause fires."""
    collect = tuple(init for _, init in collect)
    n = len(collect)
    asserts = []
    ons = []
    for f in facets:
        if isinstance(f, Assert):
            _check_arity(f.template, n, "assert template")
            asserts.append(f)
        elif isinstance(f, On):
            if isinstance(f.spec, RisingEdge):
                raise TypeError("rising-edge events only trigger termination clauses")
            ons.append(_compile_clause(f.spec, f.body, n, "on({kind}) body"))
        else:
            raise TypeError(f"not a facet: {f!r}")
    for w in stop:
        if not isinstance(w, When):
            raise TypeError(f"not a stop clause: {w!r}")
    whens = tuple(_compile_clause(w.spec, w.body, n, "termination body") for w in stop)
    subs = frozenset(observe(c.subscription) for c in (*ons, *whens) if c.kind != "rising-edge")
    return StateSpec(collect, tuple(asserts), tuple(ons), whens, subs)


def until(spec, *, collect=(), facets=(), body=None) -> StateSpec:
    """A state with exactly one termination event."""
    return state(collect=collect, facets=facets, stop=(When(spec, body),))


def forever(*, collect=(), facets=()) -> StateSpec:
    """A state with no termination events; it never returns."""
    return state(collect=collect, facets=facets)


# -- per-actor runtime ---------------------------------------------------------


class ActorContext:
    """Imperative surface handed to scripts and facet bodies; it buffers the
    actions of its actor's step in progress and holds no reference to the actor."""

    def __init__(self):
        self._pending: Optional[list] = None

    def _buffer(self, action) -> None:
        if self._pending is None:
            raise RuntimeError("actor effect requested outside an actor step")
        self._pending.append(action)

    def send(self, value) -> None:
        """Send a message as a side effect."""
        self._buffer(MessageAction(value))

    def display(self, value) -> None:
        """Record console-style output as an event-message trace entry."""
        self._buffer(OutputAction(value))

    def actor(self, script) -> None:
        """Spawn a sibling actor running the given script."""
        if not callable(script):
            raise TypeError(f"not a script: {script!r}")
        self._buffer(_spawn(ReactiveState(script)))

    def detach(self, spec: StateSpec) -> None:
        """Run a state in an independent child actor without waiting for it."""
        if not isinstance(spec, StateSpec):
            raise TypeError(f"not a state spec: {spec!r}")
        self._buffer(_spawn(ReactiveState(None, _initial=(spec, None))))


class ReactiveState:
    """Private state of a reactive actor: its script and its one installed state."""

    def __init__(self, script, *, _initial=None):
        self._script_fn = script
        self._initial = _initial  # (spec, handshake id | None) for state hosts
        self._gen = None
        self._spec: Optional[StateSpec] = None  # the installed state, if any
        self._collected: tuple = ()  # its collected values
        self._claimed: frozenset = frozenset()  # what its state asserts
        self._fresh_sid: Optional[Callable] = None
        self.ctx = ActorContext()

    # -- plumbing -------------------------------------------------------------

    def _claim(self, now: frozenset) -> None:
        was = self._claimed
        if now != was:
            self.ctx._buffer(PatchAction(Patch(now - was, was - now)))
            self._claimed = now

    def collect_actions(self, thunk: Callable[[], None]) -> list:
        """Run thunk with a fresh action buffer installed; return what it emitted."""
        self.ctx._pending = actions = []  # no step nests: a spawn runs after its parent's
        try:
            thunk()
            return actions
        finally:
            self.ctx._pending = None

    def on_spawn(self, fresh_id) -> list:
        self._fresh_sid = fresh_id
        return self.collect_actions(self._start)

    def _start(self) -> None:
        if self._initial is not None:
            self.install_group(self._initial[0])
            return
        if self._script_fn is not None:
            out = self._script_fn(self.ctx)
            if inspect.isgenerator(out):
                self._gen = out
                self._advance(None)
                return
        self.ctx._buffer(QUIT)

    # -- script execution -------------------------------------------------------

    def _advance(self, send_value) -> None:
        try:
            spec = self._gen.send(send_value)
        except StopIteration:
            self._gen = None
            self.ctx._buffer(QUIT)
            return
        if not isinstance(spec, StateSpec):
            raise TypeError(f"script yielded {spec!r}; expected a state spec")
        self._enter_state(spec)

    def _enter_state(self, spec: StateSpec) -> None:
        sid = self._fresh_sid()
        sub = rec(RESERVED_LABEL, sid, WILDCARD)  # (state-result sid $payload)
        watcher = _Clause("asserted", sub, _PAYLOAD, body=_payload)
        self.install_group(StateSpec((), (), (), (watcher,), frozenset({observe(sub)})))
        self.ctx._buffer(_spawn(ReactiveState(None, _initial=(spec, sid))))

    def _complete(self, raw) -> None:
        """Quit a state host, first asserting the result if a script waits on it."""
        sid = self._initial[1]
        if sid is not None:
            result = rec(RESERVED_LABEL, sid, _pack_values(raw))
            self.ctx._buffer(PatchAction(Patch({result}, ())))
        self.ctx._buffer(QUIT)

    # -- state lifecycle ----------------------------------------------------------

    def install_group(self, spec: StateSpec) -> None:
        """Install the actor's state; a rising edge already true at install fires.

        The state's fields are the actor's own.  Its completion follows the
        actor's role: a script's watcher resumes the script, and a hosted
        state completes its host.
        """
        if self._spec is not None:
            raise RuntimeError("a reactive actor holds one state at a time")
        self._spec = spec
        self._collected = spec.collect
        self._refresh_asserts()
        self._check_stop(None)

    def teardown_group(self) -> None:
        """Retract what the state asserts: its subscriptions and its Assert
        facets' current values, not a host's result, which is patched apart."""
        self._spec = None
        self._claim(frozenset())

    # -- event handling ------------------------------------------------------------

    def _deliver(self, event) -> None:
        # 1. facet bodies fold the collected tuple
        for c in self._spec.ons:
            for unified in _triggers(c, event):
                bound = captures(c.binders, unified) if c.binders else ()
                result = c.body(self.ctx, *self._collected, *bound)
                self._collected = self._fold(result)
        if self._spec.asserts:  # 2. assert facets re-evaluate on the new collected tuple
            self._refresh_asserts()
        # 3. termination clauses, declaration order, first satisfied fires
        self._check_stop(event)

    def _fold(self, result) -> tuple:
        n = len(self._spec.collect)
        if n == 0:
            if result is not None:
                raise ValueError("facet body returned values but nothing is collected")
            return ()
        if n == 1:
            return (result,)
        if not isinstance(result, (tuple, list)) or len(result) != n:
            raise ValueError(f"facet body must return {n} values, got {result!r}")
        return tuple(result)

    def _refresh_asserts(self) -> None:
        spec = self._spec
        self._claim(spec.subs.union([f.template(*self._collected) for f in spec.asserts]))

    def _check_stop(self, event) -> None:
        # A rising edge needs no memory of the last check: it is only ever a
        # stop clause, and a stop clause that fires ends the state, so while
        # the state lives its predicate was false at every earlier check.
        # At install there is no event (None), so only a rising edge can fire.
        for w in self._spec.whens:
            if w.kind == "rising-edge":
                if w.predicate(*self._collected):
                    self._fire(w, ())
                    return
            elif event is not None:
                hits = _triggers(w, event)
                if hits:
                    self._fire(w, captures(w.binders, hits[0]) if w.binders else ())
                    return

    def _fire(self, w: _Clause, bindings: tuple) -> None:
        raw = w.body(self.ctx, *self._collected, *bindings) if w.body else None
        self.teardown_group()
        (self._advance if self._gen is not None else self._complete)(raw)


def _triggers(c: _Clause, event) -> list:
    """Each value in this event that triggers clause c, unified with its
    subscription, in the canonical order of the values."""
    if c.kind == "message":
        if isinstance(event, MessageEvent) and matches(c.subscription, event.body):
            return [event.body]  # ground, so it is its own unification
        return []
    if not isinstance(event, PatchEvent):
        return []
    pool = event.patch.added if c.kind == "asserted" else event.patch.removed
    hits = {a: u for a in pool if (u := intersect(c.subscription, a)) is not None}
    if len(hits) < 2:  # fewer than two need no sort
        return list(hits.values())
    return [hits[a] for a in sort_patterns(hits)]


_PAYLOAD = ((1,),)  # the payload's position in (state-result sid payload)


def _payload(ctx, payload):
    # a script's watcher: the script resumes with the host's result values,
    # None for none and a tuple for several
    values = payload.fields
    return values[0] if len(values) == 1 else values or None


def _pack_values(raw) -> Record:
    """Encode a clause body's return into the ground handshake payload."""
    if raw is None:
        vs: tuple = ()
    elif isinstance(raw, tuple):
        vs = raw
    else:
        vs = (raw,)
    payload = rec(_VALUES_LABEL, *vs)
    if not is_ground(payload):
        raise ValueError(f"state result is not a ground value: {raw!r}")
    return payload


def _spawn(state: ReactiveState) -> SpawnAction:
    return SpawnAction(_reactive_step, state)


def _reactive_step(event, state: ReactiveState):
    actions = state.collect_actions(lambda: state._deliver(event))
    return Continue(state, actions) if actions else None


def reactive_actor(net, script) -> int:
    """Spawn an actor that runs the script until it completes or suspends."""
    return net.spawn(_reactive_step, ReactiveState(script))
