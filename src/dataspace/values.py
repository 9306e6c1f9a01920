"""Structured values, patterns, and projections.

Everything routed through a dataspace is a finite tree built from four atom
kinds (symbol, string, integer, boolean) and labelled records.  Patterns
extend values with a wildcard leaf; projections mark capture holes; surface
patterns add named binders that compile down to the other two forms.

Symbols, records, capture holes and binders are interned: each is built
through a weak table keyed on its class and its parts, every part tagged
with its type, so equal values are the same object.  Equality and hashing
are identity, which makes them cheap and type-strict all the way down: the
record ``(a 1)`` is not ``(a #t)``, as in canonical text.  Bare atoms are
of exact type ``str``, ``int`` or ``bool``, as an enum member's text is the
plain atom's.  A bare ``1`` still equals ``True``, so the network accepts
only records and the wildcard as assertions.

A record's fields never change, so neither does anything they decide.  A
record caches four such facts, each worked out on first use: its canonical
sort key; its JSON form, which keeps its canonical text once first rendered,
so a trace writes each record's text once however often the record appears;
its index keys (``patches.Index`` files and looks it up by them); and its
kind, a value, a pattern holding a wildcard, or neither, which answers both
``is_ground`` and ``is_pattern``.
"""

from __future__ import annotations

import json
import weakref
from _weakref import _remove_dead_weakref
from contextlib import contextmanager
from typing import Iterable

__all__ = [
    "Bind",
    "Capture",
    "CaptureUnbounded",
    "DuplicateBinder",
    "MalformedText",
    "Record",
    "Sym",
    "WILDCARD",
    "canonical_decode",
    "canonical_encode",
    "canonical_key",
    "capture_positions",
    "captures",
    "compile_surface",
    "erase",
    "from_jsonable",
    "intersect",
    "is_ground",
    "is_pattern",
    "json_text",
    "matches",
    "observe",
    "project_assertions",
    "rec",
    "sort_patterns",
    "to_jsonable",
]


class MalformedText(ValueError):
    """canonical_decode was handed text outside the canonical grammar."""


class CaptureUnbounded(Exception):
    """A wildcard sits inside a capture hole: the capture set would be infinite."""


class DuplicateBinder(ValueError):
    """A surface pattern uses the same binder name more than once."""


# Sym, Record, Capture and Bind are built through one table of weakly held
# instances.  An instance is filed under its class and its parts, each part
# paired with its type, so 1 and #t never share a key; sub-values are
# themselves interned and so are keyed by identity.  Equal values are
# therefore one object, and equality and hashing are object identity.
# No lock: filing is one setdefault, and a dead entry is removed only while
# still dead, so threads building one value get one object, and a dying
# instance never unfiles the live one filed after it.
_TABLE: dict = {}


def _unfile(entry, table=_TABLE, remove_dead=_remove_dead_weakref) -> None:
    # the instance died; a new one may be filed already.  Defaults, not
    # globals: interpreter exit may clear those before this runs
    remove_dead(table, entry.key)


class _Entry(weakref.ref):
    """A weak reference to an interned instance, carrying its table key."""

    __slots__ = ("key",)


def _live(key):
    """The live instance filed under key, or None."""
    try:
        entry = _TABLE.get(key)
    except TypeError:  # an unhashable part is no value: nothing is shared
        return None
    return entry() if entry is not None else None


def _file(obj, key):
    """File a new instance under its key; returns the instance filed there."""
    entry = _Entry(obj, _unfile)
    entry.key = key
    while True:
        try:
            filed = _TABLE.setdefault(key, entry)()
        except TypeError:
            return obj
        if filed is not None:  # obj itself, or the one another thread filed first
            return filed
        _remove_dead_weakref(_TABLE, key)  # a dying instance's entry, not yet unfiled


_set = object.__setattr__  # instances are immutable once built


def _intern_one(cls, part):
    """The one instance of a single-part class (Sym, Capture, Bind) with this part."""
    key = (cls, part, type(part))
    self = _live(key)
    if self is None:
        self = object.__new__(cls)
        _set(self, cls.__slots__[0], part)
        self = _file(self, key)
    return self


class _Interned:
    """Immutable and shared: copies are the object itself."""

    __slots__ = ("__weakref__",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


class Sym(_Interned):
    """Symbol atom, distinct from the string atom with the same spelling."""

    __slots__ = ("name",)

    def __new__(cls, name):
        if type(name) is not str:  # a str subclass's text would not identify it
            raise TypeError(f"symbol name is not a str: {name!r}")
        return _intern_one(cls, name)

    def __reduce__(self):
        return Sym, (self.name,)

    def __repr__(self) -> str:
        return f"'{self.name}"


class _Wildcard:
    """Matches any value; a singleton."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "_"


WILDCARD = _Wildcard()


class Record(_Interned):
    """Labelled record with an ordered field tuple.

    Its canonical sort key, JSON form, index keys and kind are computed once,
    on first use.
    """

    __slots__ = ("label", "fields", "_sort_key", "_json", "_keys", "_kind")

    def __new__(cls, label, fields):
        fields = tuple(fields)
        key = (cls, label, fields, tuple(map(type, fields)))
        self = _live(key)
        if self is None:
            if not isinstance(label, Sym):
                raise TypeError(f"record label is not a symbol: {label!r}")
            self = object.__new__(cls)
            _set(self, "label", label)
            _set(self, "fields", fields)
            _set(self, "_sort_key", None)
            _set(self, "_json", None)
            _set(self, "_keys", None)
            _set(self, "_kind", None)
            self = _file(self, key)
        return self

    def __reduce__(self):
        return Record, (self.label, self.fields)

    def __repr__(self) -> str:
        return "(" + " ".join([self.label.name, *(repr(f) for f in self.fields)]) + ")"


class Capture(_Interned):
    """Projection hole; the subtree unified at this position is extracted."""

    __slots__ = ("sub",)

    def __new__(cls, sub=WILDCARD):
        return _intern_one(cls, sub)

    def __reduce__(self):
        return Capture, (self.sub,)

    def __repr__(self) -> str:
        return f"(?! {self.sub!r})"


class Bind(_Interned):
    """Named binder in a surface pattern."""

    __slots__ = ("name",)

    def __new__(cls, name):
        return _intern_one(cls, name)

    def __reduce__(self):
        return Bind, (self.name,)

    def __repr__(self) -> str:
        return f"${self.name}"


OBSERVE = Sym("observe")
_ATOMS = (str, int, bool)  # matched by exact type, as the module docstring says


def rec(label: str | Sym, *fields) -> Record:
    """Build a record; a plain string label is promoted to a symbol."""
    return Record(label if isinstance(label, Sym) else Sym(label), tuple(fields))


def observe(p) -> Record:
    """Wrap a pattern as an assertion of interest in values matching it."""
    return rec(OBSERVE, p)


# kinds, ordered so that a record's kind is the least of its fields' kinds
_NEITHER, _WILD, _GROUND = 0, 1, 2


def _kind(p) -> int:
    """A value (_GROUND), a pattern holding a wildcard (_WILD), or neither.

    A record's kind is computed once, on first use.
    """
    if isinstance(p, Record):
        kind = p._kind
        if kind is None:
            kind = _GROUND
            for f in p.fields:
                if type(f) not in _ATOMS:  # an atom is a value: no call needed
                    k = _kind(f)
                    if k < kind:
                        kind = k
            _set(p, "_kind", kind)
        return kind
    if p is WILDCARD:
        return _WILD
    return _GROUND if type(p) in _ATOMS or isinstance(p, Sym) else _NEITHER


def is_pattern(p) -> bool:
    """True for wildcards, atoms of the supported kinds, and records thereof."""
    return _kind(p) != _NEITHER


def is_ground(p) -> bool:
    """True for values: atoms of the supported kinds, and records thereof."""
    return _kind(p) == _GROUND


def intersect(p, q):
    """Most specific pattern matched by exactly the values matching both.

    Returns None when no ground value matches both.  Wildcard is the
    identity; records unify fieldwise when label and arity agree.  When
    unification narrows neither operand, that operand is returned as it is
    (a pattern against a value it matches gives the value), so a record is
    built only when the result is new.
    """
    if p is q or q is WILDCARD:
        return p
    if p is WILDCARD:
        return q
    if isinstance(p, Record):
        if (
            not isinstance(q, Record)
            or p.label is not q.label
            or len(p.fields) != len(q.fields)
        ):
            return None
        out = []
        as_p = as_q = True
        for a, b in zip(p.fields, q.fields):
            m = intersect(a, b)
            if m is None:
                return None
            as_p = as_p and m is a
            as_q = as_q and m is b
            out.append(m)
        return q if as_q else p if as_p else Record(p.label, tuple(out))
    if isinstance(q, Record):
        return None
    # type identity guards the bool/int overlap in Python's equality
    return p if type(p) is type(q) and p == q else None


def matches(p, v) -> bool:
    """True iff ground value v is matched by pattern p: they intersect."""
    return intersect(p, v) is not None


def erase(proj):
    """Strip capture markers, leaving the underlying pattern."""
    if isinstance(proj, Capture):
        return proj.sub
    if isinstance(proj, Record):
        return Record(proj.label, tuple(erase(f) for f in proj.fields))
    return proj


def capture_positions(proj) -> tuple:
    """The position of each capture hole in proj, left to right.

    A position is the tuple of field indices leading from the root to the
    hole; a hole at the root is at ``()``.
    """
    if isinstance(proj, Capture):
        return ((),)
    if isinstance(proj, Record):
        return tuple(
            (i, *pos) for i, f in enumerate(proj.fields) for pos in capture_positions(f)
        )
    return ()


def captures(positions, unified) -> tuple:
    """The values at a projection's capture positions in unified, in order.

    positions are :func:`capture_positions` of the projection, and unified is
    a value that the projection's erasure matched, narrowed by it (their
    intersection).  Raises CaptureUnbounded when a capture hole holds a
    wildcard.
    """
    out = []
    for pos in positions:
        v = unified
        for i in pos:
            v = v.fields[i]
        if not is_ground(v):
            raise CaptureUnbounded(f"wildcard under capture hole: {v!r}")
        out.append(v)
    return tuple(out)


def project_assertions(assertions: Iterable, proj) -> list:
    """The distinct capture tuples of the assertions matching the projection.

    Tuples are distinct by canonical text, so ``(0,)`` and ``(#f,)`` are two,
    and come in canonical order.  Raises CaptureUnbounded when a matching
    assertion carries a wildcard inside a capture position; the caller
    decides policy.
    """
    stripped = erase(proj)
    positions = capture_positions(proj)
    out = {}
    for a in assertions:
        unified = intersect(stripped, a)
        if unified is not None:
            caps = captures(positions, unified)
            out.setdefault(tuple(map(canonical_key, caps)), caps)
    return [out[k] for k in sorted(out)]


def _extraction(p, names: list):
    if isinstance(p, Bind):
        if p.name in names:
            raise DuplicateBinder(p.name)
        names.append(p.name)
        return Capture(WILDCARD)
    if isinstance(p, Record):
        return Record(p.label, tuple(_extraction(f, names) for f in p.fields))
    if not is_pattern(p):  # else erasure turns a written capture into a wildcard
        raise TypeError(f"not a pattern: {p!r}")
    return p


def compile_surface(sp):
    """Split a surface pattern into (subscription, extraction, binder names).

    Binders become capture holes in the extraction, and the subscription is
    the extraction erased; names are reported in left-to-right order.  Any
    other leaf failing ``is_pattern`` (a capture hole, 1.5) is a TypeError.
    """
    names: list[str] = []
    extraction = _extraction(sp, names)
    return erase(extraction), extraction, tuple(names)


# the one encoder of canonical text: json.dumps builds a new encoder per call
# when given separators
_encode = json.JSONEncoder(separators=(",", ":")).encode


class _Form(list):
    """A record's canonical JSON form; ``text`` holds its canonical text once rendered."""

    __slots__ = ("text",)


def json_text(form) -> str:
    """Compact JSON text of a JSON-ready form, as ``json.dumps(form,
    separators=(",", ":"))`` writes it; a record's form renders once."""
    if type(form) is _Form:
        try:
            return form.text
        except AttributeError:
            form.text = text = _encode(form)
            return text
    return _encode(form)


def to_jsonable(p):
    """Canonical JSON-ready form: symbols quote-prefixed, records as arrays.

    A record's form is a list computed once and shared by every later call,
    together with its canonical text once rendered, so it must not be
    mutated.  A form that raises is never cached.  An integer whose decimal
    digits pass ``sys.get_int_max_str_digits()`` is refused here, since no
    text could render it.
    """
    if isinstance(p, Record):
        form = p._json
        if form is None:
            if p.label.name == "?!":
                raise ValueError("record label '?!' collides with the capture marker")
            form = _Form([p.label.name, *map(to_jsonable, p.fields)])
            _set(p, "_json", form)
        return form
    if p is WILDCARD:
        return "_"
    if type(p) is bool:
        return p
    if type(p) is int:
        # no digit limit is below 640, and 2,000 bits make at most 603 digits
        if p.bit_length() > 2000:
            try:
                int.__repr__(p)
            except ValueError as exc:  # past sys.get_int_max_str_digits()
                raise ValueError(f"integer atom too long for canonical text: {exc}") from None
        return p
    if type(p) is str:
        if p == "_" or p.startswith("'"):
            raise ValueError(f"string {p!r} collides with the canonical grammar")
        return p
    if isinstance(p, Sym):
        return "'" + p.name
    if isinstance(p, Capture):
        return ["?!", to_jsonable(p.sub)]
    raise TypeError(f"not a pattern: {p!r}")


def from_jsonable(x):
    """The value or pattern a canonical JSON form stands for."""
    if isinstance(x, int):  # bool included
        return x
    if isinstance(x, str):
        if x == "_":
            return WILDCARD
        if x.startswith("'"):
            return Sym(x[1:])
        return x
    if isinstance(x, list):
        if not x or not isinstance(x[0], str):
            raise MalformedText(f"record array needs a string label: {x!r}")
        if x[0] == "?!":
            if len(x) != 2:
                raise MalformedText(f"capture marker takes one argument: {x!r}")
            return Capture(from_jsonable(x[1]))
        return Record(Sym(x[0]), tuple(from_jsonable(f) for f in x[1:]))
    raise MalformedText(f"unsupported node: {x!r}")


def canonical_encode(p) -> str:
    """Render a pattern as canonical text (compact JSON); a record's is cached.

    Raises ValueError on a pattern nested deeper than either walk can recurse,
    as canonical_decode raises MalformedText on such text.
    """
    try:
        return json_text(to_jsonable(p))
    except RecursionError as exc:
        raise ValueError(f"nested too deeply: {exc}") from None


@contextmanager
def reading_text():
    """Turn a failure to read JSON text, or its canonical forms, into MalformedText."""
    try:
        yield
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to read
        raise MalformedText(str(exc)) from exc
    except RecursionError as exc:  # nested deeper than either walk can recurse
        raise MalformedText(f"nested too deeply: {exc}") from None


def canonical_decode(text: str):
    """Parse canonical text back into a pattern."""
    with reading_text():
        return from_jsonable(json.loads(text))


def canonical_key(p):
    """Sort key giving the total canonical ordering: atoms before records.

    A record's key is computed once, on first use.
    """
    if isinstance(p, Record):
        key = p._sort_key
        if key is None:
            fields = tuple(canonical_key(f) for f in p.fields)
            key = (6, p.label.name, len(p.fields), fields)
            _set(p, "_sort_key", key)
        return key
    if p is WILDCARD:
        return (0,)
    if isinstance(p, bool):
        return (1, p)
    if isinstance(p, int):
        return (2, p)
    if isinstance(p, str):
        return (3, p)
    if isinstance(p, Sym):
        return (4, p.name)
    if isinstance(p, Capture):
        return (5, canonical_key(p.sub))
    raise TypeError(f"not a pattern: {p!r}")


def sort_patterns(patterns: Iterable) -> list:
    return sorted(patterns, key=canonical_key)
