import itertools
import json
import random
import re

import pytest

from mdsr import (
    Instance,
    Poset,
    instable_instance,
    parse_instance,
    parse_matching,
    serialize_instance,
    serialize_matching,
)
from mdsr.core import MasterPoset, to_indices
from mdsr.errors import ParseError, ValidationError
from mdsr.io import named_groups, parse_marriage, parse_smti_document, serialize_marriage

from util import (
    chain_instance,
    intro_instance,
    nostable_poset_instance,
    random_complete_instance,
    random_completion_instance,
    random_matching,
    random_poset,
    reference_parse_instance,
    reference_named_groups,
    reference_to_indices,
    unsorted_names,
)


def round_trip(inst: Instance) -> Instance:
    return parse_instance(serialize_instance(inst))


def assert_same_preferences(a: Instance, b: Instance):
    assert a.names == b.names and a.d == b.d
    assert a.is_complete == b.is_complete
    import itertools

    for agent in range(a.n):
        sets = [
            t
            for t in itertools.combinations(range(a.n), a.d - 1)
            if agent not in t and a.acceptable(agent, t)
        ]
        assert all(b.acceptable(agent, t) for t in sets)
        for t, tp in itertools.combinations(sets, 2):
            assert a.prefers(agent, t, tp) == b.prefers(agent, t, tp)


def test_round_trip_sources():
    for inst in (
        intro_instance(),
        instable_instance(),
        chain_instance(6, 3),
        nostable_poset_instance(),
    ):
        again = round_trip(inst)
        assert_same_preferences(inst, again)
        # canonical documents serialize byte-identically
        assert serialize_instance(again) == serialize_instance(inst)


def test_round_trip_pairs_poset_with_acceptability():
    inst = Instance.master_poset(
        3,
        ["a", "b", "c", "d"],
        Poset.from_ranking([0, 1, 2, 3]),
        acceptability={
            "a": [["b", "c"]],
            "b": [["a", "c"]],
            "c": [["a", "b"]],
        },
    )
    again = round_trip(inst)
    assert not again.is_complete
    assert again.acceptable(0, (1, 2))
    assert not again.acceptable(0, (1, 3))


def test_round_trip_random_instances():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(4, 7)
        poset = random_poset(rng, n, 0.6)
        inst = random_completion_instance(rng, n, 3, poset)
        assert_same_preferences(inst, round_trip(inst))


def test_marriage_documents_number_from_one():
    smti = parse_smti_document(
        '{"version":"1","n":2,"tie_starts":[1],"acceptable":[[1,2],[2,1]]}'
    )
    assert (smti.n, smti.tie_starts, smti.acceptable) == (
        2, frozenset({0}), frozenset({(0, 1), (1, 0)})
    )
    assert parse_marriage("[[1, 2], [2, 1]]") == {0: 1, 1: 0}
    assert serialize_marriage({1: 0, 0: 1}) == "[[1, 2], [2, 1]]\n"


def _parse_chain_matching(text: str):
    return parse_matching(text, chain_instance(3, 3))


@pytest.mark.parametrize(
    "parse",
    [parse_instance, _parse_chain_matching, parse_smti_document, parse_marriage],
    ids=["instance", "matching", "marriage-instance", "marriage-matching"],
)
def test_every_reader_reports_invalid_json(parse):
    with pytest.raises(ParseError, match="^invalid JSON: "):
        parse("[[1, 1]")


@pytest.mark.parametrize(
    "parse",
    [parse_instance, _parse_chain_matching, parse_smti_document],
    ids=["instance", "matching", "marriage-instance"],
)
@pytest.mark.parametrize("text", ["[]", '{"version": "2"}', '{"n": 1}'])
def test_versioned_readers_want_an_object_with_version_1(parse, text):
    with pytest.raises(ParseError, match="must be an object with version '1'"):
        parse(text)


def test_parse_instance_errors():
    with pytest.raises(ParseError):
        parse_instance("not json")
    with pytest.raises(ParseError):
        parse_instance('{"version":"2"}')
    with pytest.raises(ParseError):
        parse_instance('{"version":"1","d":3,"agents":["a"]}')
    with pytest.raises(ParseError):
        parse_instance(
            '{"version":"1","d":2,"agents":["a","b"],'
            '"source":{"type":"unknown"}}'
        )
    with pytest.raises(ValidationError):
        parse_instance(
            '{"version":"1","d":2,"agents":["a","b","c"],'
            '"source":{"type":"master_poset",'
            '"pairs":[["a","b"],["b","a"]]}}'
        )
    with pytest.raises(ParseError):
        parse_instance(
            '{"version":"1","d":2,"agents":["a","b"],'
            '"source":{"type":"explicit","lists":{"a":[["z"]]}}}'
        )
    complete_lists = {"type": "explicit", "lists": {"a": [["b"]], "b": [["a"]]}}
    for source, extra, message in [
        ({"type": "master_poset"}, {}, "needs either 'ranking' or 'pairs'"),
        ({"type": "master_poset", "ranking": ["a", "b"], "tiebreak": "random"}, {}, "unknown tiebreak"),
        (complete_lists, {"acceptability": {"a": [["b"]]}}, "acceptability given for complete"),
    ]:
        doc = {"version": "1", "d": 2, "agents": ["a", "b"], "source": source, **extra}
        with pytest.raises(ParseError, match=message):
            parse_instance(json.dumps(doc))


def _random_document(rng: random.Random, kind: str) -> str:
    """A canonical document of one source kind; a kind ending in "+acc"
    keeps a random part of each agent's sets as its acceptability."""
    n, d = rng.randint(4, 7), rng.choice((2, 3))
    base = kind.removesuffix("+acc")
    doc = json.loads(serialize_instance(random_complete_instance(rng, base, n, d)))
    if kind != base:
        src, names = doc["source"], doc["agents"]
        lists = src.get("lists") or src.get("completion") or {
            a: [list(t) for t in itertools.combinations(names, d - 1) if a not in t]
            for a in names
        }
        acc = {a: [t for t in lst if rng.random() < 0.6] for a, lst in lists.items()}
        if base == "explicit":
            src["lists"] = acc
        doc["acceptability"] = acc
    return serialize_instance(reference_parse_instance(json.dumps(doc)))


def _shuffle_members(doc: dict, rng: random.Random) -> dict:
    """The document with the members of every entry of order, lists,
    completion and acceptability shuffled."""

    def shuffled(entries):
        return [rng.sample(t, len(t)) for t in entries]

    src = doc["source"]
    if "order" in src:
        src["order"] = shuffled(src["order"])
    for lists in (src.get("lists"), src.get("completion"), doc.get("acceptability")):
        for a, entries in (lists or {}).items():
            lists[a] = shuffled(entries)
    return doc


def _source_key(inst: Instance):
    src = inst.source
    if isinstance(src, MasterPoset):
        p = src.poset
        return (p.n, p.order, p.position, p.source_pairs, p._gt, src.completion)
    return src


def test_parse_instance_matches_reference():
    """Random documents of every source kind, with the members of each
    entry shuffled, parse to the reference's sources and acceptability."""
    rng = random.Random(9)
    kinds = ["master_list", "ranking", "pairs", "explicit", "completion"]
    kinds += ["ranking+acc", "explicit+acc", "completion+acc"]
    for kind in kinds * 6:
        text = _random_document(rng, kind)
        assert serialize_instance(parse_instance(text)) == text
        shuffled = json.dumps(_shuffle_members(json.loads(text), rng))
        new, ref = parse_instance(shuffled), reference_parse_instance(shuffled)
        assert _source_key(new) == _source_key(ref)
        assert new.acceptability == ref.acceptability


def test_matching_round_trip():
    inst = chain_instance(6, 3)
    m = ((0, 1, 2), (3, 4, 5))
    text = serialize_matching(inst, m)
    assert parse_matching(text, inst) == m
    with pytest.raises(ParseError):
        parse_matching("[]", inst)
    with pytest.raises(ParseError):
        parse_matching('{"version":"1","groups":[["zz"]]}', inst)
    with pytest.raises(ParseError, match="missing 'groups' list"):
        parse_matching('{"version":"1"}', inst)


@pytest.mark.parametrize("ordered", [False, True])
def test_to_indices_names_the_first_bad_entry(ordered):
    index = {"a": 0, "b": 1, "c": 2}
    assert to_indices(index, [["b", "a"], ("c",)], ordered) == (
        [(1, 0), (2,)] if ordered else [(0, 1), (2,)]
    )
    for entries, bad in (
        ([["a", "b"], "ab", ["zz"]], "'ab'"),  # a string is no list of names
        ([["a"], ["a", "zz"], 5], "['a', 'zz']"),  # undeclared name
        ([["a"], [["b"]], "c"], "[['b']]"),  # unhashable member
        (5, "5"),  # not a list of entries at all
    ):
        with pytest.raises(ParseError, match=f"^{re.escape(bad)} is not a list of declared agents"):
            to_indices(index, entries, ordered)


def _decoded(convert, index, entries, ordered):
    try:
        return convert(index, entries, ordered)
    except ParseError as exc:
        return str(exc)


def _random_entries(rng, names):
    """Entries of one random shape: equal sizes (empty included), mixed
    sizes or one long entry, as lists or tuples, each sorted by index or
    not, then at times one bad entry or member at a random position."""
    shape = rng.choice(["equal", "equal", "mixed", "long", "empty"])
    count = {"long": 1, "empty": rng.randint(1, 4)}.get(shape, rng.randint(0, 8))
    size = rng.randint(1, 4)
    entries = []
    for _ in range(count):
        k = {"equal": size, "mixed": rng.randint(0, 5), "long": rng.randint(5, 30), "empty": 0}[shape]
        members = rng.sample(names, k) if k <= len(names) and rng.random() < 0.8 else rng.choices(names, k=k)
        if rng.random() < 0.7:
            members.sort(key=names.index)
        entries.append(members if rng.random() < 0.7 else tuple(members))
    bad = rng.choice([None, None, "string", "int", "null", "object", "undeclared", "unhashable"])
    if bad is not None:
        at = rng.randint(0, len(entries))
        if bad in ("undeclared", "unhashable") and entries and rng.random() < 0.5:
            member = "zz" if bad == "undeclared" else [names[0]]
            entry = list(entries[rng.randrange(len(entries))])
            entry.insert(rng.randint(0, len(entry)), member)
            entries.insert(at, entry)
        else:
            value = {"string": "a0", "int": 5, "null": None, "object": {"a0": 1},
                     "undeclared": ["a0", "zz"], "unhashable": [["a0"]]}[bad]
            entries.insert(at, value)
    return entries


def test_to_indices_matches_the_per_entry_reference():
    # The one-pass decoder against the old comprehension: the same tuples
    # or the same ParseError text, for both values of ordered.
    rng = random.Random(25)
    names = [f"a{i}" for i in range(12)]
    index = dict(zip(names, range(len(names))))
    cases = [_random_entries(rng, names) for _ in range(3000)]
    cases += [5, None, "a0a1", {"a0": 1}, (), [], [[]], [()], [[], []], [names], [names[::-1]]]
    for entries in cases:
        for ordered in (False, True):
            want = _decoded(reference_to_indices, index, entries, ordered)
            assert _decoded(to_indices, index, entries, ordered) == want, (entries, ordered)
            if isinstance(entries, list):  # a one-shot iterator gives the same
                assert _decoded(to_indices, index, iter(entries), ordered) == want


def test_named_groups_match_the_whole_list_sort():
    """Groups ordered by first name equal groups sorted as whole name
    lists, where names sort differently from their indices."""
    rng = random.Random(28)
    for _ in range(60):
        d = rng.randint(2, 5)
        n = rng.randint(d, 80)
        inst = Instance.master_poset(d, unsorted_names(rng, n), Poset.from_ranking(range(n)))
        m = random_matching(rng, n, d)
        assert named_groups(inst, m) == reference_named_groups(inst, m)
