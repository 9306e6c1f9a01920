"""Assertion sets and the patch algebra.

A patch is a disjoint (added, removed) pair of assertion sets: the sole
mechanism for changing shared state.  A bag is a plain dict counting how
many holders claim each assertion; :func:`crossings` changes it, and only
its support is ever seen.  An index files patterns so that a lookup returns
exactly those that intersect a query, confirming with ``intersect`` only the
pairs its keys do not decide, and answers which holders a query reaches,
keeping those answers as :class:`Index` says.
``visible`` recounts an actor's visible set from scratch; the network's
oracle compares it with what the indexes delivered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from .values import OBSERVE, WILDCARD, Record, intersect

__all__ = [
    "EMPTY_PATCH",
    "Index",
    "Patch",
    "apply_patch",
    "clamp_patch",
    "crossings",
    "delta",
    "interests_of",
    "observed",
    "seq_patches",
    "visible",
]


@dataclass(frozen=True)
class Patch:
    """Disjoint added/removed assertion sets.

    ``_json`` holds the patch's trace form once ``tracing.patch_jsonable`` has
    computed it, so every trace entry made from one patch shares one form; it
    takes no part in equality, hashing or ``repr``.
    """

    added: frozenset
    removed: frozenset
    _json: Any = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if type(self.added) is not frozenset:
            object.__setattr__(self, "added", frozenset(self.added))
        if type(self.removed) is not frozenset:
            object.__setattr__(self, "removed", frozenset(self.removed))
        if not self.added.isdisjoint(self.removed):
            raise ValueError("patch adds and removes the same assertion")

    def is_empty(self) -> bool:
        return not self.added and not self.removed

    def __repr__(self) -> str:
        return f"Patch(+{set(self.added) or '{}'} -{set(self.removed) or '{}'})"


_EMPTY = frozenset()
EMPTY_PATCH = Patch(_EMPTY, _EMPTY)


def apply_patch(s: frozenset, p: Patch) -> frozenset:
    """(s minus removed) union added."""
    return (frozenset(s) - p.removed) | p.added


def seq_patches(p1: Patch, p2: Patch) -> Patch:
    """Single patch with the cumulative effect of p1 then p2."""
    return Patch(
        (p1.added - p2.removed) | p2.added,
        (p1.removed - p2.added) | p2.removed,
    )


def clamp_patch(p: Patch, current: set | frozenset) -> Patch:
    """Drop re-assertions and retractions of the absent, relative to current:
    p itself when there are none, so the two share p's cached trace form."""
    if p.added.isdisjoint(current) and p.removed <= current:
        return p
    return Patch(p.added - current, p.removed & current)


def crossings(bag: dict, added=(), removed=()) -> tuple[frozenset, frozenset]:
    """Claim one copy of each of added in bag, then release one of each of removed.

    A bag maps each assertion to how many holders claim it; only the
    crossings of a count between 0 and 1 change its support, which is what
    the holders' peers see.  Returns the net change in support as (gained,
    lost), an empty side as one shared empty frozenset.  Raises KeyError
    when a count would go below zero, leaving the changes before it in place.
    """
    gained, lost = set(), set()
    for a in added:
        n = bag.get(a, 0)
        if not n:
            gained.add(a)
        bag[a] = n + 1
    for a in removed:
        n = bag.get(a, 0) - 1
        if n > 0:
            bag[a] = n
        elif n == 0:
            del bag[a]
            if a in gained:
                gained.remove(a)  # claimed and released within this call
            else:
                lost.add(a)
        else:
            raise KeyError(a)
    return (
        frozenset(gained) if gained else _EMPTY,
        frozenset(lost) if lost else _EMPTY,
    )


def observed(s: Iterable):
    """The pattern of each observe assertion in s, one observe unwrapped.

    One pattern per assertion: a bare 1 and #t observed side by side stay two
    interests, as they do in the tuple :func:`interests_of` returns.
    """
    for a in s:
        if isinstance(a, Record) and a.label is OBSERVE and len(a.fields) == 1:
            yield a.fields[0]


def interests_of(s: Iterable) -> tuple:
    """Patterns s expresses interest in (one observe unwrapped); 1 and #t stay two."""
    return tuple(observed(s))


def visible(aggregate: Iterable, interests: Iterable) -> frozenset:
    """Aggregate assertions relevant to any of the interests, delivered whole."""
    interests = tuple(interests)
    return frozenset(
        a for a in aggregate if any(intersect(p, a) is not None for p in interests)
    )


def delta(before: frozenset, after: frozenset) -> Patch:
    """The unique clamped patch turning before into after."""
    before = frozenset(before)
    after = frozenset(after)
    return Patch(after - before, before - after)


def _atom_key(a):
    # bare atoms are Python's own int, bool and str: the type keeps 1 and #t apart
    return a if a is WILDCARD else (type(a), a)


def _slot_keys(p):
    # (slot, bucket, settled): the keys p is filed under, laid out as Index's
    # docstring says.  A pattern is settled when its slot and bucket decide
    # every intersection with it: every pattern is, except a record whose
    # first field is a record or whose later fields are not all wildcards.
    # A record's keys are computed once and kept on it.
    if isinstance(p, Record):
        keys = p._keys
        if keys is None:
            keys = _record_keys(p)
            object.__setattr__(p, "_keys", keys)
        return keys
    if p is WILDCARD:
        return WILDCARD, WILDCARD, True
    return (type(p), p), None, True


def _record_keys(p):
    fields = p.fields
    if not fields:
        return (p.label, 0), None, True
    f, rest = fields[0], fields[1:]
    if isinstance(f, Record):
        return (p.label, len(fields)), (f.label, len(f.fields)), False
    return (p.label, len(fields)), _atom_key(f), rest.count(WILDCARD) == len(rest)


class Index:
    """Patterns filed by shape and first field, each under the holder filing it.

    A pattern is filed under its slot (a record's label and arity, or a bare
    atom), then its bucket (a record's first field: an atom, a record's label
    and arity, or the wildcard; None without one); the top-level wildcard
    under the wildcard at both levels.  At each level a wildcard key reaches
    every entry, and any other key its own entry and that level's wildcard.

    A lookup is exact.  Each bucket keeps its settled pairs apart from the
    rest: a settled pattern intersects every query that reaches its bucket,
    and so does any pattern when the query is settled itself; only an
    unsettled pattern against an unsettled query is confirmed with intersect.
    One walk, :meth:`_reach`, takes that rule to the slots and then to the
    buckets, and confirms the pairs it finds.

    :meth:`holders` keeps a non-empty answer while no bucket the lookup
    reached holds an unsettled pattern, under a key built by the same rule:
    the slot if it is filed, else the wildcard, then the bucket if that slot
    files it, else the wildcard.  Every query with one key reaches the same
    buckets, and there are never more kept lists than filed buckets plus
    filed slots.  Filing or unfiling any pattern drops every kept list:
    interests change far less often than messages flow.
    """

    def __init__(self):
        self._slots: dict = {}  # slot -> bucket -> ({settled pairs}, {other pairs})
        self._kept: dict = {}  # key, built as the class docstring says -> sorted holders

    def add(self, p, holder=None) -> None:
        slot, bucket, settled = _slot_keys(p)
        if self._kept:  # the support index, which answers no holders query, keeps none
            self._kept.clear()
        buckets = self._slots.setdefault(slot, {})
        pairs = buckets.get(bucket)
        if pairs is None:
            pairs = buckets[bucket] = (set(), set())
        pairs[not settled].add((holder, p))

    def remove(self, p, holder=None) -> None:
        slot, bucket, settled = _slot_keys(p)
        if self._kept:
            self._kept.clear()
        buckets = self._slots[slot]
        pairs = buckets[bucket]
        pairs[not settled].remove((holder, p))
        if not (pairs[0] or pairs[1]):
            del buckets[bucket]
            if not buckets:
                del self._slots[slot]

    def _reach(self, q) -> tuple[list, bool]:
        # the pairs q's keys reach, slots then buckets, whose pattern
        # intersects q, and whether the keys decide them all (no reached
        # bucket holds an unsettled pattern): the one walk for both lookups
        slot, bucket, exact = _slot_keys(q)
        slots = self._slots
        found = []
        decided = True
        for buckets in (
            slots.values() if slot is WILDCARD else (slots.get(slot), slots.get(WILDCARD))
        ):
            if buckets is None:
                continue
            for pairs in (
                buckets.values()
                if bucket is WILDCARD
                else (buckets.get(bucket), buckets.get(WILDCARD))
            ):
                if pairs is None:
                    continue
                settled, other = pairs
                if settled:
                    found.extend(settled)
                if other:
                    decided = False
                    if exact:
                        found.extend(other)
                    else:
                        found.extend(pair for pair in other if intersect(pair[1], q) is not None)
        return found, decided

    def matching(self, q) -> list:
        """The (holder, pattern) pairs whose pattern intersects q, each pair once."""
        return self._reach(q)[0]

    def holders(self, q) -> tuple:
        """The distinct holders of the patterns that intersect q, sorted.

        The answer is kept as the class docstring says, until the next
        :meth:`add` or :meth:`remove`.  A query with a
        wildcard key keeps none: no one key stands for all it reaches.
        """
        slot, bucket, _ = _slot_keys(q)
        if slot is WILDCARD or bucket is WILDCARD:  # q reaches every entry of a level
            return tuple(sorted({h for h, _ in self.matching(q)}))
        slots = self._slots
        buckets = slots.get(slot)
        if buckets is None:
            slot, buckets = WILDCARD, slots.get(WILDCARD, ())
        key = slot, bucket if bucket in buckets else WILDCARD
        found = self._kept.get(key)
        if found is None:
            pairs, decided = self._reach(q)
            found = tuple(sorted({h for h, _ in pairs}))
            if decided and found:
                self._kept[key] = found
        return found
