"""Shared strategies and brute-force oracles for the test suite."""

from __future__ import annotations

import itertools
import json
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import settings

from dataspace import (
    Capture,
    Record,
    Sym,
    WILDCARD,
    canonical_encode,
    canonical_key,
    erase,
    rec,
)

settings.register_profile("deterministic", derandomize=True, max_examples=150)
settings.load_profile("deterministic")


ATOM_VOCAB = (0, 1, 2, "a", "b", Sym("x"), Sym("y"))
# atoms that plain Python equality confuses: 1 and #t, 0 and #f, "x" and 'x
TYPED_ATOM_VOCAB = (0, 1, False, True, "x", "1", Sym("x"), Sym("1"))
LABEL_VOCAB = ("f", "g", "observe")


def atom_strategy(atoms=ATOM_VOCAB):
    return st.sampled_from(atoms)


def pattern_strategy(allow_wildcard=True, max_leaves=8, atoms=ATOM_VOCAB):
    leaves = atom_strategy(atoms)
    if allow_wildcard:
        leaves = leaves | st.just(WILDCARD)
    return st.recursive(
        leaves,
        lambda children: st.builds(
            lambda label, fields: rec(label, *fields),
            st.sampled_from(LABEL_VOCAB),
            st.lists(children, min_size=0, max_size=3),
        ),
        max_leaves=max_leaves,
    )


def value_strategy(max_leaves=8, atoms=ATOM_VOCAB):
    return pattern_strategy(allow_wildcard=False, max_leaves=max_leaves, atoms=atoms)


# any string the canonical grammar admits as a string atom or a label:
# non-ASCII, control characters, quotes and backslashes included
TEXT_ATOMS = st.text().filter(lambda s: s != "_" and not s.startswith("'"))


def text_value_strategy(max_leaves=8):
    """Values whose string atoms and labels are arbitrary text, in nested records."""
    return st.recursive(
        TEXT_ATOMS | st.integers() | st.booleans() | st.builds(Sym, st.text()),
        lambda children: st.builds(
            lambda label, fields: rec(label, *fields),
            st.text().filter(lambda s: s != "?!"),
            st.lists(children, min_size=0, max_size=3),
        ),
        max_leaves=max_leaves,
    )


def oracle_lines(trace):
    """The renderer the cached texts replaced: ``json.dumps`` of each entry."""
    return [json.dumps(e, separators=(",", ":")) for e in trace.entries]


def ground_universe(atoms=("novel.txt", "x", 0, Sym("s")), labels=("file", "observe")):
    """Every ground value of depth <= 3 over a small vocabulary."""
    depth1 = list(atoms)
    depth2 = [
        rec(label, *fields)
        for label in labels
        for arity in (1, 2)
        for fields in itertools.product(depth1, repeat=arity)
    ]
    depth3 = [rec(label, v) for label in labels for v in depth2]
    return depth1 + depth2 + depth3


def oracle_matches(p, v) -> bool:
    """Structural walk, independent of ``intersect``: true iff ground value v
    is matched by pattern p.  Atoms match only with the same type, so 1 and
    #t stay apart."""
    if p is WILDCARD or p is v:
        return True
    if isinstance(p, Record):
        return (
            isinstance(v, Record)
            and p.label is v.label
            and len(p.fields) == len(v.fields)
            and all(oracle_matches(a, b) for a, b in zip(p.fields, v.fields))
        )
    return type(p) is type(v) and p == v


def match_set(p, universe):
    return frozenset(v for v in universe if oracle_matches(p, v))


def capture_paths(proj, path=()):
    if isinstance(proj, Capture):
        return [path]
    if isinstance(proj, Record):
        out = []
        for i, f in enumerate(proj.fields):
            out.extend(capture_paths(f, (*path, i)))
        return out
    return []


def subtree_at(value, path):
    for i in path:
        value = value.fields[i]
    return value


def brute_force_project(assertions, proj):
    """Filter-and-extract oracle for projections over ground assertions: the
    capture tuples, distinct by canonical text, in canonical order."""
    paths = capture_paths(proj)
    stripped = erase(proj)
    out = {}
    for a in assertions:
        if oracle_matches(stripped, a):
            caps = tuple(subtree_at(a, p) for p in paths)
            out[tuple(map(canonical_encode, caps))] = caps
    return sorted(out.values(), key=lambda caps: tuple(map(canonical_key, caps)))


def run_picked(net, max_steps, pick, *, after_step=None):
    """``net.run_until_quiescent``, with pick choosing which actor goes next.

    Before each dispatch, while the queue is non-empty, ``pick(n)`` is given
    the number n of actors with queued events, listed in the order of their
    oldest queued event, and returns k with 0 <= k < n; that actor's oldest
    event is dispatched.  So each actor takes its own events in the order
    they were queued, whatever pick does.  A k outside the range raises
    ValueError before anything is dispatched.  The pick runs inside
    ``net.dispatch_one``, wrapped for this one run and restored after it,
    so the runtime's loop stays the only loop.  Returns the number of
    dispatches made.
    """
    queue, dispatch = net.queue, net.dispatch_one  # the queue is one deque for net's life

    def picked() -> bool:
        if queue:
            oldest: dict = {}  # actor -> the queue index of its oldest event
            for i, (aid, _) in enumerate(queue):
                oldest.setdefault(aid, i)
            k = pick(len(oldest))
            if not 0 <= k < len(oldest):
                raise ValueError(f"no queued event for pick {k} of {len(oldest)} actors")
            i = list(oldest.values())[k]
            pair = queue[i]  # the chosen event goes to the head, for dispatch_one
            del queue[i]
            queue.appendleft(pair)
        return dispatch()

    wrapped = vars(net).get("dispatch_one")  # a wrapper of the caller's, if any
    net.dispatch_one = picked
    try:
        return net.run_until_quiescent(max_steps, after_step=after_step)
    finally:
        if wrapped is None:
            del net.dispatch_one
        else:
            net.dispatch_one = wrapped


@pytest.fixture
def int_digit_limit():
    """Python's default limit on the digits of an integer written as text,
    set for the test and restored after it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python writes integers of any length as text")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)
