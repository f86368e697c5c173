import random
from itertools import combinations

import pytest

import mdsr.core

from mdsr import (
    Instance,
    Poset,
    dominates,
    is_derived_from_master_list,
    is_derived_from_poset,
    materialize_explicit,
    matching_violations,
    normalize_matching,
    tupleset,
)
from mdsr.errors import (
    InsufficientAgents,
    SelfInclusion,
    SizeMismatch,
    UnacceptableSet,
    ValidationError,
)

from util import (
    INTRO_MASTER,
    chain_instance,
    intro_instance,
    random_complete_instance,
    random_completion_instance,
    random_poset,
    reference_lpo_blocks,
)


def pairs(inst, *names):
    return inst.agents(*names)


def test_tupleset_and_matching_normalization():
    assert tupleset([3, 1, 2]) == (1, 2, 3)
    with pytest.raises(ValidationError):
        tupleset([1, 1])
    assert normalize_matching([(5, 4, 3), (0, 2, 1)]) == ((0, 1, 2), (3, 4, 5))


def test_intro_prefers():
    inst = intro_instance()
    a = inst.index("a")
    assert inst.prefers(a, pairs(inst, "b", "d"), pairs(inst, "b", "c"))
    assert not inst.prefers(a, pairs(inst, "b", "c"), pairs(inst, "b", "d"))
    d = inst.index("d")
    assert inst.prefers(d, pairs(inst, "a", "b"), pairs(inst, "e", "f"))


def test_prefers_rejects_bad_arguments():
    inst = intro_instance()
    a = inst.index("a")
    t = pairs(inst, "b", "c")
    with pytest.raises(ValidationError):
        inst.prefers(a, t, t)
    with pytest.raises(SelfInclusion):
        inst.prefers(a, pairs(inst, "a", "b"), t)


def test_prefers_rejects_wrong_size_sets():
    # canonical keys of sets of different sizes would still compare
    for inst in (intro_instance(), chain_instance(5, 3)):
        with pytest.raises(SizeMismatch):
            inst.prefers(0, (1,), (2, 3))
        with pytest.raises(SizeMismatch):
            inst.prefers(0, (1, 2), (1, 2, 3))


@pytest.mark.parametrize("kind", ["master_list", "pairs", "explicit"])
def test_prefers_rejects_malformed_sets(kind):
    inst = random_complete_instance(random.Random(3), kind, 5, 3)
    for bad in ((2, 1), (1, 99), (-1, 2), (1, 1)):
        with pytest.raises(ValidationError):
            inst.prefers(0, bad, (1, 3))
        with pytest.raises(ValidationError):
            inst.prefers(0, (1, 3), bad)


def test_instance_validation():
    with pytest.raises(ValidationError):
        Instance.explicit(1, ["a", "b"], {})
    with pytest.raises(ValidationError):
        Instance.explicit(3, ["a", "b"], {})  # d > n
    with pytest.raises(ValidationError):
        Instance.explicit(2, ["a", "a"], {})
    with pytest.raises(SelfInclusion):
        Instance.explicit(2, ["a", "b"], {"a": [["a"]]})
    with pytest.raises(ValidationError):
        Instance.explicit(2, ["a", "b", "c"], {"a": [["b"], ["b"]]})
    with pytest.raises(ValidationError):
        # master list must cover every (d-1)-set exactly once
        Instance.master_list(3, ["a", "b", "c", "d"], [["a", "b"]])


def test_completeness_detection():
    inst = intro_instance()
    assert inst.is_complete
    partial = Instance.explicit(
        3, ["a", "b", "c", "d"], {"a": [["b", "c"]], "b": [["a", "c"]]}
    )
    assert not partial.is_complete
    assert partial.acceptable(0, (1, 2))
    assert not partial.acceptable(0, (1, 3))


def test_master_list_source():
    names = list("abcdef")
    inst = Instance.master_list(3, names, [list(p) for p in INTRO_MASTER])
    a = inst.index("a")
    assert inst.prefers(a, pairs(inst, "b", "c"), pairs(inst, "b", "d"))
    assert is_derived_from_master_list(inst)


def test_intro_master_list_derivation():
    inst = intro_instance()
    master = [inst.agents(*p) for p in INTRO_MASTER]
    d, e, f = (inst.index(x) for x in "def")
    assert is_derived_from_master_list(inst, master, [d, e, f])
    assert not is_derived_from_master_list(
        inst, master, [inst.index(x) for x in "abc"]
    )
    assert not is_derived_from_master_list(inst, master)


def test_dominates_needs_matching_not_greedy():
    chain = Poset.from_ranking([0, 1, 2, 3])
    assert dominates(chain, (0, 2), (1, 3))
    assert dominates(chain, (0, 1), (2, 3))
    # position vectors (0,3) vs (1,2) are incomparable under a total order
    assert not dominates(chain, (0, 3), (1, 2))
    assert not dominates(chain, (1, 2), (0, 3))
    assert not dominates(chain, (0, 1), (0, 1))


def test_intro_derivation_from_chain():
    inst = intro_instance()
    chain = Poset.from_ranking(list(range(6)))
    # agent a ranks {b,d} above the dominating {b,c}
    assert not is_derived_from_poset(inst, chain)
    assert is_derived_from_poset(inst, chain, [])
    canonical = materialize_explicit(chain_instance(6, 3))
    assert is_derived_from_poset(canonical, chain)


def test_complete_lists_are_checked_without_dominates(monkeypatch):
    rng = random.Random(4)
    poset = random_poset(rng, 7, 0.4)
    inst = random_completion_instance(rng, 7, 3, poset)
    completion = {
        inst.names[a]: [inst.group_names(t) for t in lst]
        for a, lst in enumerate(inst.source.completion)
    }
    calls = []

    def counted(*args):
        calls.append(args)
        return dominates(*args)

    monkeypatch.setattr(mdsr.core, "dominates", counted)
    assert is_derived_from_poset(inst, poset)
    Instance.master_poset(3, inst.names, poset, completion)
    # a complete list that breaks the poset is also caught by single swaps
    assert not is_derived_from_poset(intro_instance(), Poset.from_ranking(list(range(6))))
    assert calls == []


def test_canonical_rank_orders_position_vectors():
    inst = chain_instance(6, 3)
    key = inst.rank_key
    assert key(3, (0, 1)) < key(3, (0, 2))
    assert key(3, (0, 5)) < key(3, (1, 2))
    assert inst.prefers(3, (0, 1), (1, 2))


def test_first_choice_fast_path_matches_list_scan():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(4, 7)
        poset = random_poset(rng, n, 0.6)
        inst = Instance.master_poset(
            3, [f"a{i}" for i in range(n)], poset
        )
        explicit = materialize_explicit(inst)
        excluded = set(rng.sample(range(n), rng.randint(0, n - 3)))
        for a in range(n):
            if a in excluded:
                continue
            assert inst.first_choice(a, excluded) == explicit.first_choice(
                a, excluded
            )


def test_first_choice_is_least_rank_key_on_every_source():
    rng = random.Random(5)
    n, d = 6, 3
    names = [f"a{i}" for i in range(n)]
    instances = [
        random_complete_instance(rng, kind, n, d)
        for kind in ("explicit", "master_list", "pairs", "completion")
    ]
    accepted = {}
    for a in names:
        accepted[a] = [list(t) for t in combinations(names, d - 1) if a not in t and rng.random() < 0.5]
        rng.shuffle(accepted[a])
    instances.append(Instance.explicit(d, names, accepted))
    ranking = Poset.from_ranking(rng.sample(range(n), n))
    instances.append(Instance.master_poset(d, names, ranking, acceptability=accepted))
    assert [inst.is_complete for inst in instances] == [True] * 4 + [False] * 2
    for inst in instances:
        for _ in range(10):
            excluded = set(rng.sample(range(n), rng.randint(0, 4)))
            for a in range(n):
                fits = [
                    t
                    for t in combinations(range(n), d - 1)
                    if a not in t and excluded.isdisjoint(t) and inst.acceptable(a, t)
                ]
                if fits:
                    best = min(fits, key=lambda t: inst.rank_key(a, t))
                    assert inst.first_choice(a, excluded) == best
                else:
                    with pytest.raises(InsufficientAgents):
                        inst.first_choice(a, excluded)
        with pytest.raises(InsufficientAgents):
            inst.first_choice(0, range(1, n - 1))


def test_materialize_explicit_preserves_preferences():
    inst = chain_instance(5, 3)
    explicit = materialize_explicit(inst)
    assert explicit.is_complete
    lists = explicit.source.lists
    for a in range(5):
        for i in range(len(lists[a]) - 1):
            assert inst.prefers(a, lists[a][i], lists[a][i + 1])


def test_matching_violations():
    inst = intro_instance()
    m2 = normalize_matching([inst.agents("a", "b", "d"), inst.agents("c", "e", "f")])
    assert not matching_violations(inst, m2)
    assert matching_violations(inst, ((0, 1), (2, 3, 4)))
    assert matching_violations(inst, ((0, 1, 2), (2, 3, 4)))


def test_completion_must_respect_poset():
    names = ["a", "b", "c", "d"]
    poset = Poset.from_pairs([(0, 1), (1, 2), (2, 3)], 4)
    bad = {
        # ranks the dominated {c,d} above {b,c}
        "a": [["c", "d"], ["b", "c"], ["b", "d"]],
        "b": [["a", "c"], ["a", "d"], ["c", "d"]],
        "c": [["a", "b"], ["a", "d"], ["b", "d"]],
        "d": [["a", "b"], ["a", "c"], ["b", "c"]],
    }
    with pytest.raises(ValidationError):
        Instance.master_poset(3, names, poset, bad)


def test_acceptable_set_must_be_on_completion():
    # a accepts {c}, which its completion does not list: rejected when
    # built, not by the rank oracle partway through a search
    with pytest.raises(ValidationError):
        Instance.master_poset(
            2,
            ["a", "b", "c", "d"],
            Poset.from_ranking([0, 1, 2, 3]),
            completion={"a": [["b"]]},
            acceptability={"a": [["b"], ["c"]], "c": [["a"]]},
        )


def test_rank_key_unacceptable_set():
    partial = Instance.explicit(
        3, ["a", "b", "c", "d"], {"a": [["b", "c"]], "b": [["a", "c"]]}
    )
    with pytest.raises(UnacceptableSet):
        partial.rank_key(0, (1, 3))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_lpo_blocks_match_the_whole_tuple_sort(d):
    """Blocks sorted by first member equal blocks sorted as whole tuples,
    on shuffled rankings with n mod d agents left over."""
    rng = random.Random(d)
    for _ in range(30):
        n = d * rng.randint(1, 40) + rng.randint(1, d - 1)
        ranking = rng.sample(range(n), n)
        inst = Instance.master_poset(d, [f"a{i}" for i in range(n)], Poset.from_ranking(ranking))
        assert inst.lpo_blocks() == reference_lpo_blocks(inst)
