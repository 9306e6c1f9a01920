import itertools
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from conftest import TYPED_ATOM_VOCAB, pattern_strategy, value_strategy
from dataspace import (
    EMPTY_PATCH,
    MalformedText,
    Patch,
    Sym,
    WILDCARD,
    aggregate_snapshots,
    apply_patch,
    clamp_patch,
    crossings,
    delta,
    interests_of,
    intersect,
    observe,
    rec,
    seq_patches,
    traces_equivalent,
    visible,
)
from dataspace.patches import Index, _record_keys


def account(x):
    return rec("account", x)


def deposit(x):
    return rec("deposit", x)


UNIVERSE = (
    account(0),
    account(100),
    observe(deposit(WILDCARD)),
    observe(account(WILDCARD)),
    rec("file", "novel.txt", False),
    Sym("ok"),
)

sets = st.frozensets(st.sampled_from(UNIVERSE), max_size=6)
claims = st.lists(st.sampled_from(UNIVERSE), max_size=4)


@st.composite
def patches(draw):
    added = draw(sets)
    removed = draw(sets) - added
    return Patch(added, removed)


def test_patch_disjointness_enforced():
    # frozenset inputs are kept as they are, and still checked
    for kind in (set, frozenset):
        with pytest.raises(ValueError):
            Patch(kind({account(0)}), kind({account(0)}))


def test_a_patch_prints_its_added_and_removed_sets():
    assert repr(Patch({rec("a", 1)}, ())) == "Patch(+{(a 1)} -{})"


def test_apply_patch_startup():
    p = Patch({account(0), observe(deposit(WILDCARD))}, ())
    assert apply_patch(frozenset(), p) == {account(0), observe(deposit(WILDCARD))}


def test_apply_patch_balance_update():
    p = Patch({account(100)}, {account(0)})
    assert apply_patch(frozenset({account(0)}), p) == {account(100)}


def test_apply_empty_patch_is_identity():
    s = frozenset({account(0), Sym("ok")})
    assert apply_patch(s, EMPTY_PATCH) == s


def test_seq_patches_balance_update():
    got = seq_patches(Patch((), {account(0)}), Patch({account(100)}, ()))
    assert got == Patch({account(100)}, {account(0)})


def test_seq_patches_add_then_remove():
    x = account(0)
    got = seq_patches(Patch({x}, ()), Patch((), {x}))
    assert got == Patch((), {x})
    # set oracle: apply in both orders over every subset of a 2-element universe
    y = account(100)
    for subset in map(frozenset, itertools.chain.from_iterable(
        itertools.combinations({x, y}, n) for n in range(3)
    )):
        assert apply_patch(subset, got) == apply_patch(
            apply_patch(subset, Patch({x}, ())), Patch((), {x})
        )


def test_seq_patches_right_identity():
    p = Patch({account(0)}, {account(100)})
    assert seq_patches(p, EMPTY_PATCH) == p
    assert seq_patches(EMPTY_PATCH, p) == p


def test_clamp_patch_reassertion_noop():
    a = account(0)
    assert clamp_patch(Patch({a}, ()), frozenset({a})) == EMPTY_PATCH


def test_clamp_patch_absent_retraction_noop():
    assert clamp_patch(Patch((), {account(100)}), frozenset({account(0)})) == EMPTY_PATCH


def test_clamp_patch_balance_update_passes_through():
    current = frozenset({account(0), observe(deposit(WILDCARD))})
    p = Patch({account(100)}, {account(0)})
    clamped = clamp_patch(p, current)
    assert clamped == p
    assert apply_patch(current, clamped) == apply_patch(current, p)


def test_clamp_patch_is_the_patch_itself_when_nothing_is_dropped():
    # the patch-out and its trace form are then the actor's own patch
    current = {account(0), observe(deposit(WILDCARD))}
    for p in (Patch({account(100)}, {account(0)}), Patch({deposit(1)}, ()), EMPTY_PATCH):
        assert clamp_patch(p, current) is p
    # a re-assertion or a retraction of the absent still gives a new patch
    for p, clamped in (
        (Patch({account(0), account(100)}, ()), Patch({account(100)}, ())),
        (Patch({account(100)}, {account(0), account(7)}), Patch({account(100)}, {account(0)})),
        (Patch((), {account(7)}), EMPTY_PATCH),
    ):
        got = clamp_patch(p, current)
        assert got is not p and got == clamped


def test_interests_of_unwraps_one_level():
    s = {observe(deposit(WILDCARD)), account(0)}
    assert interests_of(s) == (deposit(WILDCARD),)
    nested = {observe(observe(deposit(WILDCARD)))}
    assert interests_of(nested) == (observe(deposit(WILDCARD)),)
    assert interests_of({account(0)}) == ()
    # 1 and #t are equal in Python but two interests: a set would merge them
    both = interests_of({observe(1), observe(True)})
    assert sorted(type(p).__name__ for p in both) == ["bool", "int"]


def test_visible_examples():
    agg = {account(0), observe(deposit(WILDCARD))}
    assert visible(agg, {account(WILDCARD)}) == {account(0)}
    assert visible({observe(deposit(WILDCARD))}, {observe(deposit(WILDCARD))}) == {
        observe(deposit(WILDCARD))
    }
    assert visible(agg, set()) == frozenset()


def test_delta_examples():
    assert delta(frozenset({account(0)}), frozenset({account(100)})) == Patch(
        {account(100)}, {account(0)}
    )
    s = frozenset({account(0)})
    assert delta(s, s) == EMPTY_PATCH
    f = rec("file", "novel.txt", False)
    assert delta(frozenset(), frozenset({f})) == Patch({f}, ())


@given(sets, patches(), patches())
def test_apply_seq_homomorphism(s, p1, p2):
    assert apply_patch(apply_patch(s, p1), p2) == apply_patch(s, seq_patches(p1, p2))


@given(patches(), patches(), patches())
def test_seq_associative(p1, p2, p3):
    assert seq_patches(seq_patches(p1, p2), p3) == seq_patches(p1, seq_patches(p2, p3))


@given(patches())
def test_empty_patch_two_sided_identity(p):
    assert seq_patches(p, EMPTY_PATCH) == p
    assert seq_patches(EMPTY_PATCH, p) == p


@given(sets, sets)
def test_delta_apply_round_trip(before, after):
    d = delta(before, after)
    assert apply_patch(before, d) == after
    # delta is already clamped relative to before
    assert clamp_patch(d, before) == d


@given(sets, patches())
def test_clamp_preserves_effect(s, p):
    assert apply_patch(s, clamp_patch(p, s)) == apply_patch(s, p)


@given(sets, sets, sets)
def test_visible_monotone(agg, extra, interests):
    assert visible(agg, interests) <= visible(agg | extra, interests)
    assert visible(agg, interests) <= visible(agg, interests | {WILDCARD})


@given(st.lists(st.tuples(claims, claims), max_size=8))
def test_bag_changes_fold_to_its_support(steps):
    bag, support = {}, frozenset()
    for added, wanted in steps:
        held = Counter(bag) + Counter(added)
        removed = []
        for a in wanted:
            if held[a]:
                held[a] -= 1
                removed.append(a)
        patch = Patch(*crossings(bag, added, removed))
        assert clamp_patch(patch, support) == patch  # a net change, nothing redundant
        support = apply_patch(support, patch)
        assert support == frozenset(bag)


def test_bag_release_of_absent_assertion_raises():
    bag, none = {}, frozenset()
    assert crossings(bag, [account(0), account(0)]) == ({account(0)}, none)
    assert crossings(bag, (), [account(0)]) == (none, none)
    assert crossings(bag, [account(1)], [account(1)]) == (none, none)
    assert crossings(bag, (), [account(0)]) == (none, {account(0)})
    with pytest.raises(KeyError):
        crossings(bag, (), [account(0)])
    with pytest.raises(KeyError):
        crossings(bag, [account(2)], [account(0)])
    assert bag == {account(2): 1}  # the changes before the over-release stay


def test_replaying_an_unreadable_line_raises_malformed_text():
    def patch_out(added):
        data = '{"added":[%s],"removed":[]}' % added
        return '{"seq":0,"actor":"g/0","kind":"patch-out","data":%s}' % data

    for line in (
        patch_out("[" * 100000 + "]" * 100000),  # too deep for json to parse
        patch_out('["a",' * 5000 + "1" + "]" * 5000),  # too deep for a walk to read
        "not json",
    ):
        with pytest.raises(MalformedText):
            aggregate_snapshots([line], WILDCARD)
        with pytest.raises(MalformedText):
            traces_equivalent([line], [], WILDCARD)


def test_replaying_a_retraction_of_the_never_asserted_raises():
    trace = [
        '{"seq":0,"actor":"g/0","kind":"patch-out",'
        '"data":{"added":[],"removed":[["account",5]]}}'
    ]
    with pytest.raises(KeyError):
        aggregate_snapshots(trace, account(WILDCARD))


@pytest.mark.parametrize(
    "line, error",
    [
        ("[1,2]", MalformedText),
        ('"x"', MalformedText),
        ('{"seq":0}', MalformedText),
        ('{"seq":0,"actor":3,"kind":"patch-out","data":{"added":[],"removed":[]}}', MalformedText),
        ('{"seq":0,"actor":"g/0","kind":"patch-out","data":{"added":[]}}', MalformedText),
        ('{"seq":0,"actor":"g/0","kind":"patch-out","data":{"added":5,"removed":[]}}', MalformedText),
        # a well-formed line retracting what the trace never asserted
        (
            '{"seq":0,"actor":"g/0","kind":"patch-out",'
            '"data":{"added":[],"removed":[["account",5]]}}',
            KeyError,
        ),
    ],
)
def test_replaying_a_line_that_is_no_trace_entry_raises_malformed_text(line, error):
    # a KeyError is the retraction fault alone
    with pytest.raises(error):
        aggregate_snapshots([line], account(WILDCARD))


# every shape the index files, in one slot where it can: the settled (r 1 _)
# and (r _ _) beside the unsettled (r _ 2) and (r (a 1) _); 1 beside #t and
# "s" beside 's, bare and as a first field; zero-field records, bare atoms and
# the top-level wildcard
FILED = (
    rec("r", 1, WILDCARD), rec("r", True, WILDCARD), rec("r", "s", WILDCARD),
    rec("r", Sym("s"), WILDCARD), rec("r", WILDCARD, WILDCARD), rec("r", WILDCARD, 2),
    rec("r", rec("a", 1), WILDCARD), rec("r", rec("a", WILDCARD), WILDCARD), rec("r", 1, 2),
    rec("r", True, 2), rec("r"), rec("z"), rec("a", 1), rec("a", True),
    1, True, "s", Sym("s"), WILDCARD,
)  # fmt: skip
filed_patterns = st.sampled_from(FILED) | pattern_strategy(atoms=TYPED_ATOM_VOCAB)
queries = st.lists(
    st.sampled_from(FILED)
    | pattern_strategy(atoms=TYPED_ATOM_VOCAB)
    | value_strategy(atoms=TYPED_ATOM_VOCAB),
    max_size=8,
)
# (remove?, holder, pattern): a removal of something not filed files it instead
index_ops = st.lists(st.tuples(st.booleans(), st.integers(0, 2), filed_patterns), max_size=24)


@given(index_ops, queries)
@example([(False, 0, rec("r", 1, WILDCARD)), (True, 0, rec("r", 1, WILDCARD))], [rec("r", 1, 2)])
@example(
    [(False, h, p) for h, p in enumerate(FILED[:3])] + [(True, 1, FILED[1])],
    [rec("r", True, 2), rec("r", 1, WILDCARD), WILDCARD],
)
# a top-level wildcard filed after lookups were kept, of a filed slot and of an unfiled one
@example(
    [(False, 0, rec("r", 1, WILDCARD)), (False, 1, WILDCARD), (True, 1, WILDCARD)],
    [rec("r", 1, 2), rec("q")],
)
# the unsettled (r (a 1) _) and (r _ 2) in the buckets of the queries
@example(
    [
        (False, 0, rec("r", rec("a", 1), WILDCARD)),
        (False, 1, rec("r", WILDCARD, 2)),
        (True, 1, rec("r", WILDCARD, 2)),
        (True, 0, rec("r", rec("a", 1), WILDCARD)),
    ],
    [rec("r", rec("a", 1), 2), rec("r", rec("a", 2), 3), rec("r", 1, 2), rec("r", 1, 3)],
)
@example([(False, 0, 1), (False, 1, True), (True, 0, 1)], [1, True])  # 1 against #t
# the top-level wildcard, filed under the wildcard at both levels, beside a bare
# atom, a zero-field record and a record's own and wildcard buckets; no pattern
# is filed in the slot of (q 1)
@example(
    [
        (False, 0, WILDCARD),
        (False, 1, 1),
        (False, 2, rec("r")),
        (False, 0, rec("r", 1, WILDCARD)),
        (False, 1, rec("r", WILDCARD, 2)),
    ],
    [WILDCARD, 1, rec("r"), rec("r", WILDCARD, 2), rec("r", 1, 2), rec("q", 1)],
)
def test_index_matching_is_exactly_the_filed_pairs_that_intersect(ops, extra):
    def typed(pairs):  # Python's equality would merge the pairs of 1 and #t
        return [(h, type(p), p) for h, p in pairs]

    def holders(q):
        return tuple(sorted({h for h, p in filed.values() if intersect(p, q) is not None}))

    index, filed = Index(), {}
    for remove, holder, p in ops:
        (key,) = typed([(holder, p)])
        if remove and key in filed:
            index.remove(p, holder)
            del filed[key]
        else:
            index.add(p, holder)
            filed[key] = (holder, p)
        # lookups between the changes, so that kept holder lists outlive some
        for q in FILED + tuple(extra):
            assert index.holders(q) == holders(q), q
        assert len(index._kept) <= sum(map(len, index._slots.values())) + len(index._slots)
    for q in FILED + tuple(extra):
        found = typed(index.matching(q))
        assert len(found) == len(set(found)), q  # each pair once
        brute = typed(hp for hp in filed.values() if intersect(hp[1], q) is not None)
        assert set(found) == set(brute), q
    # a removal that empties a bucket or a slot leaves nothing behind
    assert all(s or o for buckets in index._slots.values() for s, o in buckets.values())
    if not filed:
        assert index._slots == {}


def test_a_record_files_finds_and_unfiles_itself_by_keys_computed_once(monkeypatch):
    computed = []
    monkeypatch.setattr(
        "dataspace.patches._record_keys", lambda p: computed.append(p) or _record_keys(p)
    )
    p = rec("keys-once", 1, WILDCARD)  # a label no other test uses: built here
    index = Index()
    index.add(p, 0)
    assert index.matching(p) == [(0, p)]
    index.remove(p, 0)
    assert index.matching(p) == []
    assert computed == [p]
