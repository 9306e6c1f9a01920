"""Deterministic trace log and trace replay helpers.

The log keeps each entry as an ``(actor, kind, data)`` tuple; its ``seq`` is
its position in the log, from 0.  An entry reads as a flat JSON object {seq,
actor, kind, data}; assertion sets inside patches are sorted by the canonical
ordering so two runs of the same program serialize byte-identically.  A line is put together
from its parts' texts, and reads exactly as ``json.dumps(entry,
separators=(",", ":"))`` would write it.  A record's form and a patch's
form (which a ``patch-out`` and its ``patch-in``s can share) each keep
their text once first rendered; one render writes each label and kind once.
"""

from __future__ import annotations

import json
from collections.abc import Sequence

from .patches import Patch, crossings
from .values import (
    MalformedText,
    from_jsonable,
    intersect,
    json_text,
    reading_text,
    sort_patterns,
    to_jsonable,
)

__all__ = ["TraceLog", "aggregate_snapshots", "patch_jsonable"]


class TraceLog:
    """Append-only ordered record of everything a network run did.

    Each entry is kept as an ``(actor, kind, data)`` tuple, so emitting one
    builds no dict; :attr:`entries` builds the ``{seq, actor, kind, data}``
    dicts when they are read.  An entry's seq is its position in the log.
    """

    __slots__ = ("_log",)

    def __init__(self):
        self._log = []

    def emit(self, actor: str, kind: str, data) -> None:
        self._log.append((actor, kind, data))

    @property
    def entries(self) -> Sequence:
        """The entries, oldest first: a read-only sequence whose every item
        read is a fresh ``{seq, actor, kind, data}`` dict.  A ``data`` object
        is the one emitted, shared with other entries and never to be changed."""
        return _Entries(self._log)

    def lines(self) -> list[str]:
        quoted: dict = {}  # label or kind -> its text
        out = []
        for seq, (actor, kind, data) in enumerate(self._log):
            if type(data) is _PatchForm:
                try:
                    text = data.text
                except AttributeError:
                    text = data.text = _patch_text(data)
            else:
                text = json_text(data)
            a = quoted.get(actor)
            if a is None:
                a = quoted[actor] = json_text(actor)
            k = quoted.get(kind)
            if k is None:
                k = quoted[kind] = json_text(kind)
            out.append(f'{{"seq":{seq},"actor":{a},"kind":{k},"data":{text}}}')
        return out


class _Entries(Sequence):
    # a view of a log's tuples; an int index gives one entry's dict, a slice
    # a list of them, each with its position as its seq
    __slots__ = ("_log",)

    def __init__(self, log: list):
        self._log = log

    def __len__(self) -> int:
        return len(self._log)

    def __getitem__(self, i):
        at = range(len(self._log))[i]  # an index or a range of them; raises as a list would
        if type(at) is range:
            return [self._entry(j) for j in at]
        return self._entry(at)

    def _entry(self, i: int) -> dict:
        actor, kind, data = self._log[i]
        return {"seq": i, "actor": actor, "kind": kind, "data": data}


class _PatchForm(dict):
    __slots__ = ("text",)  # a patch's trace form keeps its canonical text once rendered


def _patch_text(form: _PatchForm) -> str:
    # joined from the records' texts, each encoded once for the whole log
    return (
        f'{{"added":[{",".join(map(json_text, form["added"]))}],'
        f'"removed":[{",".join(map(json_text, form["removed"]))}]}}'
    )


def patch_jsonable(p: Patch) -> dict:
    """A patch's trace form: its added and removed forms, each in canonical order.

    The form is computed once per patch and kept on it, so every entry made
    from one patch (the ``patch-in`` entries of one fan-out, and the sender's
    ``patch-out`` when they see exactly its change) shares one form, a dict
    that must not be mutated and that keeps its text once first rendered.
    A form that raises is never kept.
    """
    form = p._json
    if form is None:
        form = _PatchForm(added=_forms(p.added), removed=_forms(p.removed))
        object.__setattr__(p, "_json", form)
    return form


def _forms(s: frozenset) -> list:
    # a set of fewer than two needs no sort
    return list(map(to_jsonable, sort_patterns(s) if len(s) > 1 else s))


def aggregate_snapshots(trace, lens) -> list[frozenset]:
    """Distinct snapshots of a network's dataspace visible through a lens pattern.

    Replays the patch-out entries of a trace, given as its JSON lines, into
    an assertion bag and records the support restricted to lens-matching
    assertions, collapsing consecutive duplicates; actor identities are
    erased.  Raises MalformedText, as canonical_decode does, on a line that
    is not JSON, nests too deeply to read, or is no trace entry: an object
    with a string kind and actor, whose data, for a patch-out, is an object
    with added and removed lists.  Raises KeyError when the trace retracts
    something it never asserted.
    """
    bag: dict = {}
    snaps = [frozenset()]
    for line in trace:
        with reading_text():
            entry = json.loads(line)
            if not (
                type(entry) is dict
                and type(entry.get("kind")) is str
                and type(entry.get("actor")) is str
            ):
                raise MalformedText(f"not a trace entry: {line!r:.80}")
            if entry["kind"] != "patch-out":
                continue
            data = entry.get("data")
            if not (
                type(data) is dict
                and type(data.get("added")) is list
                and type(data.get("removed")) is list
            ):
                raise MalformedText(f"patch-out data is not added and removed lists: {line!r:.80}")
            added = [from_jsonable(a) for a in data["added"]]
            removed = [from_jsonable(a) for a in data["removed"]]
        crossings(bag, added, removed)
        cur = frozenset(a for a in bag if intersect(lens, a) is not None)
        if cur != snaps[-1]:
            snaps.append(cur)
    return snaps
