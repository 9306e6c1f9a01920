"""The network actor: actor table, aggregate dataspace, deterministic queue.

Actors are behaviours, functions from an event and private state to a step
result, each named by the int its network counts at spawn (its aid).  All
shared-state changes flow through patches.  The network files every
interest and every supported assertion in an index, so a patch or message
reaches only the actors whose interests intersect what changed; each actor
keeps a bag, a plain dict, counting per visible assertion how many of its
interests intersect it.  :meth:`Network._apply_actor_patch` admits a patch
and :meth:`Network._fan_out` decides what each of its receivers is told.  A
message goes to the holders the interests index returns, sorted
(:meth:`Index.holders`).
``check_visibility`` recounts all of this from scratch as a test oracle.
Scheduling is a single FIFO of (actor, event) pairs, so
identical programs produce identical traces: a fan-out joins it in one
append of its receivers' pairs, in aid order.  Each dispatch makes one
call into actor code, ``behaviour(event, state)``, and ``spawn`` makes one
for a state's ``on_spawn`` hook; whatever goes wrong from such a call to the
end of its action list crashes that actor alone, with the detail
:func:`_crash_detail` writes.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

# apply_patch, delta and matches are unused here: the traced benchmark
# (bench/spans.py) wraps them by this module's name, as it does visible and
# interests_of (Index.matching confirms inside patches, so the matches count reads 0)
from .patches import (
    Index,
    Patch,
    apply_patch,
    clamp_patch,
    crossings,
    delta,
    interests_of,
    observed,
    visible,
)
from .tracing import TraceLog, patch_jsonable
from .values import WILDCARD, Record, intersect, is_ground, is_pattern, matches, to_jsonable

__all__ = [
    "Continue",
    "MessageAction",
    "MessageEvent",
    "Network",
    "NonQuiescent",
    "OutputAction",
    "PatchAction",
    "PatchEvent",
    "QUIT",
    "QuitAction",
    "SpawnAction",
    "VisibilityMismatch",
    "new_network",
]


class NonQuiescent(RuntimeError):
    """The event queue was still busy after the dispatch budget ran out."""

    def __init__(self, max_steps: int):
        super().__init__(f"not quiescent after {max_steps} dispatches")
        self.max_steps = max_steps


class VisibilityMismatch(RuntimeError):
    """The network's aggregate counts or visible sets differ from a recount."""


@dataclass(frozen=True)
class PatchEvent:
    patch: Patch


@dataclass(frozen=True)
class MessageEvent:
    body: Any


@dataclass(frozen=True)
class PatchAction:
    patch: Patch


@dataclass(frozen=True)
class MessageAction:
    body: Any


@dataclass(frozen=True)
class OutputAction:
    """Modelled console output of a ground value; an event-message trace entry."""

    value: Any


@dataclass(frozen=True)
class SpawnAction:
    behaviour: Callable
    state: Any
    actions: tuple = ()


@dataclass(frozen=True)
class QuitAction:
    pass


QUIT = QuitAction()


def _crash_detail(exc: Exception) -> str:
    # the data of a crash trace entry
    return f"{type(exc).__name__}: {exc}"


@dataclass
class _ActorEntry:
    behaviour: Callable
    state: Any
    label: str  # the actor's name in trace entries, g/<aid>
    asserted: set = field(default_factory=set)  # changed in place by each patch
    # visible assertion -> how many of this actor's interests intersect it
    seen: dict = field(default_factory=dict)


@dataclass
class Continue:
    """Step result: updated private state plus actions for the network."""

    state: Any
    actions: tuple | list = ()


class Network:
    """A dataspace plus the actors it contains.

    Use :func:`new_network` to make one.  Mutation happens only inside
    ``dispatch_one``/``interpret_action``; confine each network to one
    logical thread.
    """

    def __init__(self):
        self.actors: dict[int, _ActorEntry] = {}
        self.aggregate: dict = {}  # assertion -> how many actors assert it
        self.support = Index()  # the aggregate's support
        self.interests = Index()  # every actor's interests, filed under its aid
        self.queue: deque = deque()
        self.trace = TraceLog()
        self._next_aid = itertools.count().__next__
        self._fresh_id = itertools.count().__next__

    # -- spawning and termination -------------------------------------------

    def spawn(self, behaviour, state, startup_actions=()) -> int:
        """Register an actor and interpret its startup actions in order.

        The actor's id, which spawn returns, is the int this network counts
        0, 1, 2, ... across its spawns, and its trace label is ``g/<aid>``.
        If the state object defines ``on_spawn(fresh_id)`` it is invoked
        after registration and may return extra startup actions.  fresh_id(),
        all the hook sees of the network, counts 0, 1, 2, ... across this
        network's hooks.  Bad startup actions or a failing hook crash the new
        actor, not the caller.
        """
        aid = self._next_aid()
        entry = self.actors[aid] = _ActorEntry(behaviour, state, f"g/{aid}")
        self.trace.emit(entry.label, "spawn", None)
        try:
            actions = list(startup_actions)
            hook = getattr(state, "on_spawn", None)
            if callable(hook):
                actions.extend(hook(self._fresh_id))
            for act in actions:
                self.interpret_action(aid, act)
        except Exception as exc:
            self.terminate_actor(aid, _crash_detail(exc))
        return aid

    def terminate_actor(self, aid: int, crash: Optional[str] = None) -> None:
        """Retract everything the actor asserted, notify, and remove it.

        With crash None the actor quits cleanly (a quit trace entry);
        otherwise crash is the detail of its crash trace entry.
        Pending queued events addressed to the actor are discarded; the
        queue stays the same deque, the survivors in their order.
        """
        entry = self.actors.get(aid)
        if entry is None:
            return
        self._apply_actor_patch(aid, Patch(frozenset(), entry.asserted))
        del self.actors[aid]
        queue = self.queue
        if queue:
            kept = [pair for pair in queue if pair[0] != aid]
            if len(kept) < len(queue):
                queue.clear()
                queue.extend(kept)
        self.trace.emit(entry.label, "quit" if crash is None else "crash", crash)

    # -- action interpretation ----------------------------------------------

    def interpret_action(self, aid: int, action) -> None:
        """Perform one action for a registered actor; a no-op once it is gone."""
        if aid not in self.actors:
            return
        if isinstance(action, PatchAction):
            self._apply_actor_patch(aid, action.patch)
        elif isinstance(action, MessageAction):
            self._send_message(aid, action.body)
        elif isinstance(action, OutputAction):
            self._emit_ground(aid, "event-message", action.value)
        elif isinstance(action, SpawnAction):
            self.spawn(action.behaviour, action.state, action.actions)
        elif isinstance(action, QuitAction):
            self.terminate_actor(aid)
        else:
            raise TypeError(f"unknown action: {action!r}")

    def _apply_actor_patch(self, aid, patch: Patch) -> None:
        """Clamp, check and trace an actor's patch, then :meth:`_fan_out` it."""
        entry = self.actors[aid]
        clamped = clamp_patch(patch, entry.asserted)
        if clamped.is_empty():
            return
        # reject non-values before anything changes: is_pattern catches
        # foreign types and capture holes, the encoding catches strings that
        # collide with the canonical grammar, and a bare atom is refused
        # because a set of them cannot keep 1 and #t apart
        for a in clamped.added:
            if not is_pattern(a):
                raise TypeError(f"not a pattern: {a!r}")
        encoded = patch_jsonable(clamped)
        for a in clamped.added:
            if not (a is WILDCARD or isinstance(a, Record)):
                raise TypeError(f"bare atom asserted: {a!r}")
        entry.asserted -= clamped.removed
        entry.asserted |= clamped.added
        self.trace.emit(entry.label, "patch-out", encoded)
        self._fan_out(aid, clamped)

    def _fan_out(self, aid, clamped: Patch) -> None:
        """Queue for each receiver of aid's clamped patch what it is told.

        The aggregate bag takes the claims and releases in one walk
        (:func:`crossings`); the support delta it returns, and the patcher's
        interest delta (the observe assertions of its clamped patch), go
        into the support and interests indexes in four steps.  An actor's
        seen bag counts, per assertion, its interests that intersect it, so
        each (assertion, interest) pair that appears claims one copy and
        each that vanishes releases one; both lookups are exact, so nothing
        is confirmed here.  Gained support was seen by no receiver and lost
        support is seen by none after, so a receiver's pairs are plain dict
        updates (releasing what it does not hold raises KeyError, as
        ``crossings`` would) and its change is the delta assertions that
        reached it.  Only the patcher's own bag, whose interest delta may
        claim or release what it already sees, goes through ``crossings``.
        Receivers reached by the same assertions build their change once,
        and receivers whose change is equal share one PatchEvent, so one
        Patch is built per distinct change and, through the patch's cached
        trace form, one patch-in ``data`` object.  A change equal to the
        clamped patch itself gets that patch, so its patch-ins share the
        patch-out's form and no second Patch is built.
        """
        gained, lost = crossings(self.aggregate, clamped.added, clamped.removed)
        support, interests, actors = self.support, self.interests, self.actors
        # a receiver -> the delta assertions that reached it, one per pair;
        # the patcher -> its (gained, lost)
        reached: dict = {}
        claims, releases = [], []  # the patcher's, for its crossings
        # the order of the four steps makes each (assertion, interest) pair
        # that appears or vanishes count exactly once
        for a in lost:  # lost support, against every interest held before
            support.remove(a)
            for bid, _ in interests.matching(a):
                if bid == aid:
                    releases.append(a)
                    continue
                seen = actors[bid].seen
                n = seen.pop(a)  # KeyError when the receiver does not hold it
                if n > 1:
                    seen[a] = n - 1
                reached.setdefault(bid, []).append(a)
        for p in observed(clamped.removed):  # dropped interests, against surviving support
            interests.remove(p, aid)
            releases.extend(a for _, a in support.matching(p))
        for a in gained:  # gained support, against the interests that stay
            support.add(a)
            for bid, _ in interests.matching(a):
                if bid == aid:
                    claims.append(a)
                    continue
                seen = actors[bid].seen
                seen[a] = seen.get(a, 0) + 1
                reached.setdefault(bid, []).append(a)
        for p in observed(clamped.added):  # new interests, against all support after
            interests.add(p, aid)
            claims.extend(a for _, a in support.matching(p))
        if claims or releases:
            mine = crossings(actors[aid].seen, claims, releases)
            if mine[0] or mine[1]:
                reached[aid] = mine
        # (gained, lost) -> the one event for it; frozenset keys, as equal
        # sets compare equal whatever order they were built in
        events: dict = {}
        groups: dict = {}  # what reached a receiver -> its event
        own = (clamped.added, clamped.removed)
        pairs = []
        # aids only grow, so sorted order is the actor table's order
        for bid in sorted(reached):
            got = tuple(reached[bid])
            event = groups.get(got)
            if event is None:
                key = got if bid == aid else (gained.intersection(got), lost.intersection(got))
                event = events.get(key)
                if event is None:
                    event = events[key] = PatchEvent(clamped if key == own else Patch(*key))
                groups[got] = event
            pairs.append((bid, event))
        self.queue.extend(pairs)

    def _emit_ground(self, aid, kind: str, value) -> None:
        # messages and displayed output carry ground values only
        if not is_ground(value):
            raise ValueError(f"non-ground {kind}: {value!r}")
        self.trace.emit(self.actors[aid].label, kind, to_jsonable(value))

    def _send_message(self, sender, body) -> None:
        self._emit_ground(sender, "message", body)
        event = MessageEvent(body)  # one event for every receiver
        self.queue.extend([(bid, event) for bid in self.interests.holders(body)])

    # -- scheduling -----------------------------------------------------------

    def dispatch_one(self) -> bool:
        """Deliver the oldest queued event to its actor; False when quiescent.

        The event reaches its actor through one call, ``behaviour(event,
        state)``.  Everything that goes wrong from there to the end of its
        action list (a raise, a step result that is not Continue or None, a
        bad action, a non-value) terminates the actor alone with a crash
        entry.
        """
        queue = self.queue
        if not queue:
            return False
        aid, event = queue.popleft()
        entry = self.actors[aid]
        if type(event) is PatchEvent:
            self.trace.emit(entry.label, "patch-in", patch_jsonable(event.patch))
        try:
            result = entry.behaviour(event, entry.state)
            if result is None:
                return True
            if not isinstance(result, Continue):
                raise TypeError(f"step result is not Continue or None: {result!r}")
            entry.state = result.state
            for act in result.actions:
                self.interpret_action(aid, act)
        except Exception as exc:
            self.terminate_actor(aid, _crash_detail(exc))
        return True

    def run_until_quiescent(self, max_steps: int, *, after_step=None) -> int:
        """Dispatch until the queue drains; NonQuiescent past max_steps.

        This is the only loop around :meth:`dispatch_one`, and it makes one
        ``dispatch_one`` call per event, so events run oldest first.
        after_step, if given, runs after every dispatch; passing
        :meth:`check_visibility` recounts visibility from scratch each step.
        Returns the number of dispatches made.  Without after_step the loop
        calls ``dispatch_one`` alone; with it, one step closure bound here
        calls both, so no hook is tested per event.
        """
        if max_steps <= 0:
            raise ValueError("max_steps must be positive")
        step = dispatch = self.dispatch_one
        if after_step is not None:

            def step() -> bool:
                if not dispatch():
                    return False
                after_step()
                return True

        for steps in range(max_steps):
            if not step():
                return steps
        if self.queue:
            raise NonQuiescent(max_steps)
        return max_steps

    # -- brute-force oracle ----------------------------------------------------

    def check_visibility(self) -> None:
        """Recount the aggregate and every actor's visible bag from scratch; compare.

        This is the test oracle for the indexed routing: it walks every
        actor's whole assertion set and the whole support instead of the
        indexes, and checks that each actor sees exactly the assertions some
        interest of its own intersects, each counted once per such interest.
        """
        recount: Counter = Counter()
        for entry in self.actors.values():
            recount.update(entry.asserted)
        if recount != self.aggregate:
            raise VisibilityMismatch(f"aggregate drift: {dict(self.aggregate)} != {dict(recount)}")
        for entry in self.actors.values():
            interests = interests_of(entry.asserted)
            expect = visible(self.aggregate, interests)
            if expect != entry.seen.keys():
                raise VisibilityMismatch(
                    f"visible-set drift at {entry.label}: "
                    f"{set(entry.seen)} != {set(expect)}"
                )
            for a in expect:
                n = sum(intersect(p, a) is not None for p in interests)
                if entry.seen[a] != n:
                    raise VisibilityMismatch(
                        f"visible-count drift at {entry.label}: "
                        f"{a!r} counted {entry.seen[a]}, not {n}"
                    )


def new_network() -> Network:
    """A network with no actors."""
    return Network()
