import copy
import enum
import gc
import itertools
import json
import os
import pickle
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from conftest import (
    TYPED_ATOM_VOCAB,
    brute_force_project,
    ground_universe,
    match_set,
    oracle_lines,
    oracle_matches,
    pattern_strategy,
    text_value_strategy,
    value_strategy,
)
from dataspace import (
    Bind,
    Capture,
    CaptureUnbounded,
    DuplicateBinder,
    MalformedText,
    Record,
    Sym,
    WILDCARD,
    canonical_decode,
    canonical_encode,
    canonical_key,
    compile_surface,
    crossings,
    erase,
    intersect,
    is_ground,
    is_pattern,
    matches,
    observe,
    project_assertions,
    rec,
)
from dataspace import TraceLog, values
from dataspace.values import from_jsonable, to_jsonable


def account(x):
    return rec("account", x)


def deposit(x):
    return rec("deposit", x)


# -- intersect -----------------------------------------------------------------


def test_intersect_wildcard_identity():
    assert intersect(WILDCARD, deposit(100)) == deposit(100)
    assert intersect(deposit(100), WILDCARD) == deposit(100)


def test_intersect_label_mismatch_is_empty():
    assert intersect(account(WILDCARD), deposit(WILDCARD)) is None


def test_intersect_narrows_to_more_specific_pattern():
    p = observe(rec("file", "novel.txt", WILDCARD))
    q = observe(rec("file", WILDCARD, WILDCARD))
    expected = observe(rec("file", "novel.txt", WILDCARD))
    got = intersect(p, q)
    assert got == expected
    # brute force: the matched-value sets over a finite ground universe coincide
    universe = ground_universe()
    assert match_set(got, universe) == match_set(p, universe) & match_set(q, universe)
    assert match_set(got, universe)  # non-vacuous


def test_intersect_atoms():
    assert intersect(7, 7) == 7
    assert intersect(7, 8) is None
    assert intersect(Sym("a"), "a") is None
    assert intersect("a", "a") == "a"


def test_intersect_arity_mismatch_is_empty():
    assert intersect(rec("f", 1), rec("f", 1, 2)) is None


def test_bool_and_int_atoms_are_distinct():
    assert intersect(0, False) is None
    assert intersect(1, True) is None
    assert not matches(0, False)
    assert matches(False, False)
    assert canonical_key(0) != canonical_key(False)


# -- interning ---------------------------------------------------------------------


def test_equal_values_are_one_object():
    assert rec("a", 1, Sym("s")) is rec("a", 1, Sym("s"))
    assert Sym("s") is Sym("s")
    assert Capture() is Capture(WILDCARD)
    assert Bind("x") is Bind("x")
    assert observe(rec("a", "x")) is from_jsonable(["observe", ["a", "x"]])


def test_interning_is_type_strict():
    assert rec("a", 1) != rec("a", True)
    assert rec("a", 0) != rec("a", False)
    assert rec("a", "x") != rec("a", Sym("x"))
    assert Capture(1) != Capture(True)
    assert rec("f", Capture(1)) != rec("f", Capture(True))
    assert len({rec("a", 1), rec("a", True), rec("a", 1)}) == 2


def test_values_are_immutable():
    r = rec("a", 1)
    with pytest.raises(AttributeError):
        r.fields = (2,)
    with pytest.raises(AttributeError):
        Sym("s").name = "t"
    with pytest.raises(AttributeError):
        del r.label
    assert r is rec("a", 1)


def test_dead_values_leave_the_table():
    gc.collect()
    before = len(values._TABLE)
    for i in range(1000):
        rec("transient", i, rec("inner", i))
    gc.collect()
    assert len(values._TABLE) == before


def test_threads_building_the_same_values_get_one_object():
    # a value filed twice would be two objects that are not equal
    def build(out):
        out.extend(rec("race", i, Sym(f"s{i % 7}")) for i in range(3000))

    results = [[] for _ in range(6)]
    threads = [threading.Thread(target=build, args=(out,)) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(out) == 3000 for out in results)
    for out in results[1:]:
        assert all(a is b for a, b in zip(results[0], out))


def test_unfiling_a_stale_entry_removes_only_a_dead_one():
    # a dying instance's entry may be unfiled after a new instance of its
    # value was filed under the same key: that one must stay filed
    live = rec("stale", 1)
    (key,) = [k for k, entry in values._TABLE.items() if entry() is live]
    stale = values._Entry(set())  # its referent dies at once
    stale.key = key
    assert stale() is None
    values._unfile(stale)
    assert values._TABLE[key]() is live
    assert rec("stale", 1) is live
    # a dead entry still filed, its callback not yet run, is removed
    stale.key = ("no such value",)
    values._TABLE[stale.key] = stale
    values._unfile(stale)
    assert stale.key not in values._TABLE


def test_threads_building_and_dropping_the_same_values_get_one_object():
    # values die and are built again while other threads hold them: two
    # live copies of one value are one object, within a thread and across
    # threads, and every dead instance leaves the table.  The threads
    # interleave differently from batch to batch, so several batches run
    held = [None] * 7  # the copy one thread left for the others, or None
    failures = []

    def churn(offset):
        for k in range(offset, offset + 5000):
            i = k % 7
            other = held[i]
            v = rec("churn", i)
            if v is not rec("churn", i) or (other is not None and other is not v):
                failures.append(i)
            held[i] = v if k % 2 else None

    gc.collect()
    before = len(values._TABLE)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(8):
            threads = [threading.Thread(target=churn, args=(n,)) for n in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not failures
    held.clear()
    gc.collect()
    assert len(values._TABLE) == before


def test_values_alive_at_interpreter_exit_leave_no_error():
    # module globals are cleared at exit while interned values still die:
    # their weak-reference callbacks must read none of them
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), os.environ.get("PYTHONPATH", "")])
    code = (
        "from dataspace import values\n"
        "kept = [values.rec('exit', i, values.Sym(f's{i}')) for i in range(200)]\n"
        "values.kept = kept[::2]\n"
        "loop = [values.rec('loop', i) for i in range(50)]\n"
        "loop.append(loop)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0
    assert done.stderr == ""


def test_a_record_with_an_unhashable_field_is_built_unshared():
    # not a value, so nothing to share; is_ground rejects it as before
    r = rec("a", [1])
    assert r.fields == ([1],) and r is not rec("a", [1])
    assert not is_ground(r)


TYPED_VALUES = value_strategy(atoms=TYPED_ATOM_VOCAB)
TYPED_PATTERNS = pattern_strategy(atoms=TYPED_ATOM_VOCAB)
# what a dataspace holds: records over atoms that plain equality confuses
TYPED_RECORDS = st.lists(TYPED_PATTERNS, max_size=3).map(lambda fields: rec("r", *fields))


@given(TYPED_RECORDS, TYPED_RECORDS)
def test_equal_canonical_text_iff_same_object(v, w):
    assert (canonical_encode(v) == canonical_encode(w)) == (v is w)
    assert (v == w) == (v is w)


@given(TYPED_PATTERNS)
def test_canonical_form_and_copies_give_back_the_same_object(v):
    assert from_jsonable(to_jsonable(v)) is v
    assert copy.copy(v) is v
    assert copy.deepcopy(v) is v
    if isinstance(v, Record):
        assert canonical_decode(canonical_encode(v)) is v
        assert pickle.loads(pickle.dumps(v)) is v


@pytest.mark.parametrize("hole", [Capture(rec("a", 1)), Bind("x")])
def test_a_pattern_hole_copies_and_pickles_to_itself(hole):
    assert copy.copy(hole) is hole
    assert copy.deepcopy(hole) is hole
    assert pickle.loads(pickle.dumps(hole)) is hole


@given(st.lists(TYPED_RECORDS, max_size=8))
def test_distinct_canonical_texts_are_distinct_members_and_bag_keys(vs):
    texts = Counter(canonical_encode(v) for v in vs)
    assert len(frozenset(vs)) == len(texts)
    bag = {}
    crossings(bag, vs)
    assert Counter({canonical_encode(k): n for k, n in bag.items()}) == texts


@given(TYPED_PATTERNS, TYPED_VALUES)
def test_intersect_gives_back_a_value_its_pattern_matches(p, v):
    # unification that narrows nothing builds nothing
    if oracle_matches(p, v):
        assert intersect(p, v) is v
        assert intersect(v, p) is v


@given(pattern_strategy(), pattern_strategy())
def test_intersect_commutative(p, q):
    assert intersect(p, q) == intersect(q, p)


@given(pattern_strategy(), pattern_strategy(), pattern_strategy())
def test_intersect_associative(p, q, r):
    def inter(a, b):
        if a is None or b is None:
            return None
        return intersect(a, b)

    assert inter(intersect(p, q), r) == inter(p, intersect(q, r))


@given(pattern_strategy())
def test_intersect_wildcard_is_identity(p):
    assert intersect(WILDCARD, p) == p


@given(value_strategy(), value_strategy())
def test_ground_intersect_iff_equal(v, w):
    if v == w:
        assert intersect(v, w) == v
    else:
        assert intersect(v, w) is None


@given(pattern_strategy(max_leaves=5), pattern_strategy(max_leaves=5))
def test_intersect_matches_oracle(p, q):
    universe = ground_universe(atoms=(0, "a", Sym("s")), labels=("f", "g"))
    both = match_set(p, universe) & match_set(q, universe)
    meet = intersect(p, q)
    if meet is None:
        assert both == frozenset()
    else:
        assert match_set(meet, universe) == both


# -- matches -------------------------------------------------------------------


def test_matches_examples():
    assert matches(account(WILDCARD), account(70))
    assert not matches(deposit(WILDCARD), account(0))
    assert matches(WILDCARD, "anything")


@given(pattern_strategy(), value_strategy())
def test_matches_agrees_with_intersect(p, v):
    assert matches(p, v) == oracle_matches(p, v) == (intersect(p, v) == v)


def test_matches_agrees_with_oracle_on_every_pair_of_typed_atoms():
    for a in (WILDCARD, *TYPED_ATOM_VOCAB):
        for b in TYPED_ATOM_VOCAB:
            for p, v in ((a, b), (rec("f", a), rec("f", b))):
                assert matches(p, v) == oracle_matches(p, v), (p, v)


# -- projections ------------------------------------------------------------------


def test_project_single_capture():
    got = project_assertions({account(70)}, account(Capture()))
    assert got == [(70,)]


def test_project_empty_set():
    assert project_assertions(set(), account(Capture())) == []


def test_project_wildcard_in_capture_hole_is_unbounded():
    # over any two-value universe the wildcard assertion stands for more than
    # one capture tuple, e.g. {account(0), account(1)} -> {(0,), (1,)}
    expansions = project_assertions({account(0), account(1)}, account(Capture()))
    assert len(expansions) == 2
    with pytest.raises(CaptureUnbounded):
        project_assertions({account(WILDCARD)}, account(Capture()))


def test_project_wildcard_outside_capture_is_fine():
    proj = observe(rec("file", Capture(), WILDCARD))
    got = project_assertions({observe(rec("file", "novel.txt", WILDCARD))}, proj)
    assert got == [("novel.txt",)]


def test_project_capture_with_constraining_subpattern():
    proj = rec("file", Capture(), Capture(rec("g", WILDCARD)))
    assertions = {rec("file", "a", rec("g", 1)), rec("file", "b", 2)}
    assert project_assertions(assertions, proj) == [("a", rec("g", 1))]


def test_erase_strips_captures():
    proj = rec("file", Capture(), Capture(rec("g", WILDCARD)))
    assert erase(proj) == rec("file", WILDCARD, rec("g", WILDCARD))


def texts(tuples):
    # tuples compare 1 equal to #t; their canonical texts do not
    return [tuple(map(canonical_encode, t)) for t in tuples]


@given(
    value_strategy(max_leaves=6, atoms=TYPED_ATOM_VOCAB),
    value_strategy(max_leaves=6, atoms=TYPED_ATOM_VOCAB),
)
def test_project_ground_sets_equal_brute_force(v, w):
    assertions = [v, w, rec("f", v, w)]  # a list: a set would merge bare 1 and #t
    projections = [rec("f", Capture(), WILDCARD), rec("f", Capture(), Capture()), Capture()]
    for proj in projections:
        assert texts(project_assertions(assertions, proj)) == texts(
            brute_force_project(assertions, proj)
        )


def test_project_ground_sets_equal_brute_force_universe():
    universe = ground_universe(atoms=(0, False, "a"), labels=("file", "observe"))
    projections = [
        rec("file", Capture(), WILDCARD),
        rec("file", Capture(), Capture()),
        observe(rec("file", Capture(), WILDCARD)),
        Capture(),
    ]
    for proj in projections:
        assert texts(project_assertions(universe, proj)) == texts(
            brute_force_project(universe, proj)
        )


# -- surface patterns ----------------------------------------------------------------


def test_compile_surface_deposit_binder():
    sub, ext, names = compile_surface(deposit(Bind("amount")))
    assert sub == deposit(WILDCARD)
    assert ext == deposit(Capture())
    assert names == ("amount",)


def test_compile_surface_nested_literal():
    sub, ext, names = compile_surface(rec("file", "novel.txt", Bind("text")))
    assert sub == rec("file", "novel.txt", WILDCARD)
    assert ext == rec("file", "novel.txt", Capture())
    assert names == ("text",)


def test_compile_surface_wildcard_only():
    sub, ext, names = compile_surface(account(WILDCARD))
    assert sub == account(WILDCARD)
    assert ext == account(WILDCARD)
    assert names == ()


def test_compile_surface_duplicate_binder():
    with pytest.raises(DuplicateBinder):
        compile_surface(rec("f", Bind("x"), Bind("x")))


@pytest.mark.parametrize("leaf", [Capture(), 1.5])
def test_compile_surface_rejects_non_pattern_leaf(leaf):
    with pytest.raises(TypeError):
        compile_surface(rec("x", leaf))


@given(value_strategy())
def test_compile_surface_subscription_matches_iff_extraction_does(v):
    sub, ext, _ = compile_surface(rec("f", Bind("x"), WILDCARD))
    assert matches(sub, v) == matches(erase(ext), v)


# -- canonical text ---------------------------------------------------------------------


def test_canonical_encode_examples():
    assert canonical_encode(account(70)) == '["account",70]'
    assert canonical_encode(WILDCARD) == '"_"'
    assert canonical_decode('["observe",["deposit","_"]]') == observe(deposit(WILDCARD))


def test_canonical_atoms():
    assert canonical_encode(Sym("hi")) == "\"'hi\""
    assert canonical_encode("hi") == '"hi"'
    assert canonical_encode(True) == "true"
    assert canonical_encode(False) == "false"
    assert canonical_decode("false") is False
    assert canonical_decode("0") == 0
    assert canonical_decode('"\'hi"') == Sym("hi")


def test_canonical_capture_form():
    assert canonical_encode(account(Capture())) == '["account",["?!","_"]]'
    assert canonical_decode('["account",["?!","_"]]') == account(Capture())


def test_canonical_decode_malformed():
    deep = ("[" * 100000, '["a",' * 5000 + "1" + "]" * 5000)
    for text in ("{", "[]", "[1,2]", "1.5", '["?!","_","_"]', "{}", *deep):
        with pytest.raises(MalformedText):
            canonical_decode(text)


def test_canonical_encode_rejects_colliding_strings():
    with pytest.raises(ValueError):
        canonical_encode("_")
    with pytest.raises(ValueError):
        canonical_encode("'quoted")
    # a record's form is cached, but a form that raises is not
    for bad in (rec("?!", 1), rec("f", "'quoted")):
        for _ in range(2):
            with pytest.raises(ValueError):
                canonical_encode(bad)


def test_canonical_encode_rejects_a_record_nested_too_deeply():
    # as canonical_decode turns the same failure into MalformedText
    v = 1
    for _ in range(3000):
        v = rec("a", v)
    for _ in range(2):  # nothing half-walked is kept
        with pytest.raises(ValueError, match="nested too deeply"):
            canonical_encode(v)


@given(text_value_strategy())
def test_canonical_text_is_the_compact_json_of_the_form_cold_and_warm(v):
    want = json.dumps(to_jsonable(v), separators=(",", ":"))
    # the first call renders a record's text (unless an earlier example did),
    # the second reads it back
    assert canonical_encode(v) == canonical_encode(v) == want
    trace = TraceLog()
    trace.emit("g/0", "message", to_jsonable(v))
    trace.emit("g/0", "patch-out", {"added": [to_jsonable(rec("in", v))], "removed": []})
    cold = trace.lines()
    assert cold == trace.lines() == oracle_lines(trace)
    assert canonical_decode(want) == v


def test_an_integer_too_long_to_write_is_refused(int_digit_limit):
    widest = 10**int_digit_limit - 1  # as many digits as the limit allows
    for ok in (widest, -widest, rec("big", widest)):
        assert canonical_decode(canonical_encode(ok)) == ok
    for bad in (widest + 1, -widest - 1, rec("big", widest + 1)):
        for _ in range(2):  # a form that raises is not cached
            with pytest.raises(ValueError, match="too long for canonical text"):
                to_jsonable(bad)
    with pytest.raises(MalformedText):
        canonical_decode("1" * 5000)


@given(pattern_strategy())
def test_canonical_round_trip(p):
    assert canonical_decode(canonical_encode(p)) == p


@given(pattern_strategy(), pattern_strategy())
def test_canonical_ordering_is_total_and_consistent(p, q):
    kp, kq = canonical_key(p), canonical_key(q)
    assert (kp < kq) + (kp > kq) + (kp == kq) == 1
    assert (kp == kq) == (p == q)


def test_atoms_sort_before_records():
    atoms = [0, True, "z", Sym("z")]
    records = [rec("a"), rec("a", 0)]
    for a in atoms:
        for r in records:
            assert canonical_key(a) < canonical_key(r)


def test_a_capture_hole_sorts_after_every_atom_and_before_records():
    hole = Capture(1)
    assert canonical_key(hole) == (5, (2, 1))
    for a in [0, True, "z", Sym("z")]:
        assert canonical_key(a) < canonical_key(hole)
    assert canonical_key(hole) < canonical_key(rec("a"))


@pytest.mark.parametrize(
    "write, bad",
    [(canonical_encode, 1.5), (canonical_key, 1.5), (to_jsonable, object())],
    ids=["canonical_encode", "canonical_key", "to_jsonable"],
)
def test_a_non_pattern_has_no_canonical_form(write, bad):
    with pytest.raises(TypeError, match="not a pattern"):
        write(bad)


class Color(str, enum.Enum):
    RED = "red"


class N(enum.IntEnum):
    ONE = 1


def test_a_symbol_name_or_record_label_of_another_type_is_refused():
    # a symbol named 1 would write the canonical text [1], which no reader takes
    with pytest.raises(TypeError, match="symbol name is not a str"):
        rec(1)
    with pytest.raises(TypeError, match="symbol name is not a str"):
        Sym(Color.RED)
    with pytest.raises(TypeError, match="record label is not a symbol"):
        Record("a", ())


@pytest.mark.parametrize("member", [Color.RED, N.ONE], ids=["str-enum", "int-enum"])
def test_an_atom_subclass_member_is_no_value(member):
    # its canonical text is the plain atom's, which names a different value
    assert not is_pattern(member) and not is_pattern(rec("n", member))
    assert not is_ground(member) and not is_ground(rec("n", member))
    with pytest.raises(TypeError, match="not a pattern"):
        canonical_encode(rec("n", member))


# -- kinds -------------------------------------------------------------------------


def reference_kind(p) -> tuple[bool, bool]:
    """(is_pattern, is_ground) of p by a plain recursive walk."""
    if isinstance(p, Record):
        kinds = [reference_kind(f) for f in p.fields]
        return all(k[0] for k in kinds), all(k[1] for k in kinds)
    atom = type(p) in (str, int, bool) or isinstance(p, Sym)
    return atom or p is WILDCARD, atom


# trees whose leaves may be values, wildcards, capture holes, binders or 1.5
KIND_TREES = st.recursive(
    st.sampled_from(TYPED_ATOM_VOCAB + (WILDCARD, Capture(), Capture(rec("a", 1)), Bind("x"), 1.5)),
    lambda children: st.builds(
        lambda label, fields: rec(label, *fields),
        st.sampled_from(("f", "g")),
        st.lists(children, max_size=3),
    ),
    max_leaves=8,
)
FRESH = itertools.count()


@given(KIND_TREES)
@example(rec("f", rec("g", 1.5)))
@example(rec("f", rec("g", 1, WILDCARD), rec("g", Capture())))
@example(rec("f", rec("g", 1), rec("g")))
def test_is_pattern_and_is_ground_answer_as_a_recursive_walk_cold_and_cached(tree):
    fresh = rec(f"fresh-{next(FRESH)}", tree)  # built here, so its kind is not yet known
    assert fresh._kind is None
    for p in (fresh, tree, fresh, tree):  # the second pass reads the cached kinds
        assert (is_pattern(p), is_ground(p)) == reference_kind(p)


def test_a_binder_prints_as_dollar_name():
    assert repr(Bind("x")) == "$x"
