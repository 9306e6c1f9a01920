"""Assertion sets and the patch algebra.

A patch is a disjoint (added, removed) pair of assertion sets: the sole
mechanism for changing shared state.  A bag counts how many holders claim
each assertion; only its support is ever seen.  The visibility calculus
below is what the network uses to compute per-actor deltas.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .values import OBSERVE, Record, intersect

__all__ = [
    "Bag",
    "EMPTY_PATCH",
    "Patch",
    "apply_patch",
    "clamp_patch",
    "delta",
    "interests_of",
    "seq_patches",
    "visible",
]


@dataclass(frozen=True)
class Patch:
    """Disjoint added/removed assertion sets."""

    added: frozenset
    removed: frozenset

    def __post_init__(self) -> None:
        object.__setattr__(self, "added", frozenset(self.added))
        object.__setattr__(self, "removed", frozenset(self.removed))
        if self.added & self.removed:
            raise ValueError("patch adds and removes the same assertion")

    def is_empty(self) -> bool:
        return not self.added and not self.removed

    def __repr__(self) -> str:
        return f"Patch(+{set(self.added) or '{}'} -{set(self.removed) or '{}'})"


EMPTY_PATCH = Patch(frozenset(), frozenset())


def apply_patch(s: frozenset, p: Patch) -> frozenset:
    """(s minus removed) union added."""
    return (frozenset(s) - p.removed) | p.added


def seq_patches(p1: Patch, p2: Patch) -> Patch:
    """Single patch with the cumulative effect of p1 then p2."""
    return Patch(
        (p1.added - p2.removed) | p2.added,
        (p1.removed - p2.added) | p2.removed,
    )


def clamp_patch(p: Patch, current: frozenset) -> Patch:
    """Drop re-assertions and retractions of the absent, relative to current."""
    current = frozenset(current)
    return Patch(p.added - current, p.removed & current)


class Bag(Counter):
    """A multiset of assertions whose support is what its holders' peers see.

    Several holders may claim the same assertion; only the crossings of its
    count between 0 and 1 change the support.
    """

    def change(self, added=(), removed=()) -> Patch:
        """Claim one copy of each of added, then release one of each of removed.

        Returns the net change in support.  Raises KeyError when a count
        would go below zero, leaving the changes before it in place.
        """
        gained, lost = set(), set()
        for a in added:
            n = self.get(a, 0)
            if not n:
                gained.add(a)
            self[a] = n + 1
        for a in removed:
            n = self.get(a, 0) - 1
            if n > 0:
                self[a] = n
            elif n == 0:
                del self[a]
                if a in gained:
                    gained.remove(a)  # claimed and released within this call
                else:
                    lost.add(a)
            else:
                raise KeyError(a)
        return Patch(gained, lost)


def interests_of(s: Iterable) -> frozenset:
    """Patterns this assertion set expresses interest in (one observe unwrapped)."""
    return frozenset(
        a.fields[0]
        for a in s
        if isinstance(a, Record) and a.label == OBSERVE and len(a.fields) == 1
    )


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
