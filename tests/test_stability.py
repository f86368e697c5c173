import itertools
import random
import time

import pytest

from mdsr import (
    Instance,
    Poset,
    brute_force_solve,
    enumerate_stable,
    find_blocking,
    instable_instance,
    is_blocking,
    normalize_matching,
)
from mdsr.errors import TooLarge, ValidationError
from mdsr.reductions import OneInThreeFormula, sat_forward_matching, sat_reduce
from mdsr.solvers import strict_order_solve
from mdsr import stability
from mdsr.stability import _acceptable_groups, _matchings

from util import (
    INTRO_MASTER,
    chain_instance,
    intro_instance,
    plain_enumerate_stable,
    plain_find_blocking,
    random_complete_instance,
    random_completion_instance,
    random_matching,
    random_poset,
    reference_acceptable_groups,
    reference_matchings,
    reference_maximal_matchings,
    two_level_instance,
)


def named(inst, *groups):
    return normalize_matching(inst.agents(*g) for g in groups)


def test_intro_m1_blocked_by_abd():
    inst = intro_instance()
    m1 = named(inst, "abc", "def")
    report = find_blocking(inst, m1)
    assert report is not None
    assert inst.group_names(report.group) == ["a", "b", "d"]
    # every member strictly prefers the group remainder to its assignment
    for agent, current, preferred in report.evidence:
        assert current is None or inst.prefers(agent, preferred, current)


def test_intro_m2_stable():
    inst = intro_instance()
    m2 = named(inst, "abd", "cef")
    assert find_blocking(inst, m2) is None


def test_is_blocking_respects_current_assignments():
    inst = intro_instance()
    m2 = named(inst, "abd", "cef")
    # {a,b,c}: a and b would be worse off
    assert is_blocking(inst, m2, inst.agents("a", "b", "c")) is None
    # a group of the matching never blocks itself
    assert is_blocking(inst, m2, inst.agents("a", "b", "d")) is None


def test_unmatched_d_agents_block_complete_instance():
    inst = chain_instance(6, 3)
    partial = (tuple(inst.agents("a0", "a1", "a2")),)
    report = find_blocking(inst, partial)
    assert report is not None
    assert report.group == inst.agents("a3", "a4", "a5")
    assert all(current is None for _, current, _ in report.evidence)


def test_find_blocking_validates_structure():
    inst = chain_instance(6, 3)
    with pytest.raises(ValidationError):
        find_blocking(inst, ((0, 1), (2, 3, 4)))
    with pytest.raises(ValidationError):
        find_blocking(inst, ((0, 1, 2), (2, 3, 4)))


def test_find_blocking_guard():
    # the guard bounds only the search and the scan: a canonical poset's
    # lpo blocks are decided before it, any other matching trips it
    inst = chain_instance(9, 3)
    m = normalize_matching([(0, 1, 2), (3, 4, 5), (6, 7, 8)])
    assert find_blocking(inst, m, guard=10) is None
    with pytest.raises(TooLarge):
        find_blocking(inst, normalize_matching([(0, 1, 3), (2, 4, 5), (6, 7, 8)]), guard=10)
    master = Instance.master_list(3, list("abcdef"), [list(t) for t in INTRO_MASTER])
    with pytest.raises(TooLarge):
        find_blocking(master, normalize_matching([(0, 1, 2), (3, 4, 5)]), guard=10)


def test_instable_has_no_stable_matching():
    inst = instable_instance()
    assert enumerate_stable(inst) == []
    assert brute_force_solve(inst) is None


def test_chain_unique_stable_matching():
    inst = chain_instance(6, 3)
    stable = enumerate_stable(inst)
    assert stable == [((0, 1, 2), (3, 4, 5))]
    assert brute_force_solve(inst) == stable[0]


def test_single_group_instance():
    inst = chain_instance(3, 3)
    assert enumerate_stable(inst) == [((0, 1, 2),)]


def test_enumerate_guard():
    inst = chain_instance(9, 3)
    with pytest.raises(TooLarge):
        enumerate_stable(inst, max_n=6)


def test_brute_force_is_first_stable():
    rng = random.Random(21)
    for _ in range(15):
        n = 6
        poset = random_poset(rng, n, rng.uniform(0.3, 0.9))
        inst = random_completion_instance(rng, n, 3, poset)
        stable = enumerate_stable(inst)
        first = brute_force_solve(inst)
        if stable:
            assert first == stable[0]
            assert all(find_blocking(inst, m) is None for m in stable)
        else:
            assert first is None


def test_incomplete_lists_empty_matching_can_be_stable():
    from mdsr import Instance

    # two disjoint acceptable pairs that dislike each other's groups
    inst = Instance.explicit(
        2,
        ["a", "b", "c"],
        {"a": [["b"]], "b": [["a"]], "c": []},
    )
    stable = enumerate_stable(inst)
    assert ((0, 1),) in stable


def test_is_blocking_needs_every_member_to_accept():
    # c accepts only {a, b}, so {a, b, c} blocks the empty matching; once c
    # drops it, c refuses the group whatever a and b think
    lists = {"a": [["b", "c"]], "b": [["a", "c"]], "c": [["a", "b"]]}
    inst = Instance.explicit(3, list("abcd"), lists)
    assert is_blocking(inst, (), (0, 1, 2)) is not None
    inst = Instance.explicit(3, list("abcd"), dict(lists, c=[["a", "d"]]))
    assert is_blocking(inst, (), (0, 1, 2)) is None


def test_brute_force_leaves_low_index_agent_unmatched():
    # ranking b > c > d > a: {b, c, d} is the unique stable matching
    inst = Instance.master_poset(3, list("abcd"), Poset.from_ranking([1, 2, 3, 0]))
    assert brute_force_solve(inst) == ((1, 2, 3),)


def test_complete_matchings_are_the_maximal_matchings():
    for n in range(2, 9):
        for d in (2, 3, 4):
            if d <= n and n % d:
                groups = itertools.combinations(range(n), d)
                never = {g: tuple((a, float("inf")) for a in g) for g in groups}
                got = list(_matchings(n, d, n % d, never))
                assert sorted(got) == reference_maximal_matchings(n, d)
                assert len(set(got)) == len(got)


def _random_incomplete_instance(
    rng: random.Random, n: int, d: int, cut_last: bool = False
) -> Instance:
    """Random acceptable sets per agent, never all of them, ranked by
    shuffled explicit lists or by a random strict order.  With cut_last,
    the last d agents are no acceptable group."""
    names = [f"a{i}" for i in range(n)]
    keep = rng.uniform(0.3, 0.9)
    acceptable = {}
    for a in names:
        own = [list(t) for t in itertools.combinations(names, d - 1) if a not in t]
        rng.shuffle(own)
        acceptable[a] = [t for t in own[1:] if rng.random() < keep]
    if cut_last:
        first, rest = names[n - d], names[n - d + 1 :]
        acceptable[first] = [t for t in acceptable[first] if t != rest]
    if rng.random() < 0.5:
        return Instance.explicit(d, names, acceptable)
    order = Poset.from_ranking(rng.sample(range(n), n))
    return Instance.master_poset(d, names, order, acceptability=acceptable)


def test_acceptable_groups_are_the_groups_every_member_accepts():
    """_acceptable_groups counts yields; its definition asks every member
    through Instance.acceptable.  Explicit lists and rankings with
    acceptability, with and without the last d agents cut."""
    rng = random.Random(31)
    kinds = set()
    for i in range(80):
        d = rng.choice((2, 3, 4))
        inst = _random_incomplete_instance(rng, rng.randint(d, 9), d, cut_last=i % 2 == 1)
        kinds.add(type(inst.source).__name__)
        assert _acceptable_groups(inst) == reference_acceptable_groups(inst), (inst.n, d)
    assert kinds == {"Explicit", "MasterPoset"}


def test_enumerate_stable_incomplete_matches_plain_scan():
    rng = random.Random(8)
    for _ in range(60):
        d = rng.choice((2, 3))
        n = rng.randint(d, 9)
        inst = _random_incomplete_instance(rng, n, d)
        every = reference_matchings(reference_acceptable_groups(inst))
        stable = [m for m in every if plain_find_blocking(inst, m) is None]
        assert enumerate_stable(inst) == stable, (n, d)
        for m in rng.sample(every, min(len(every), 10)):
            assert find_blocking(inst, m) == plain_find_blocking(inst, m), (n, d, m)


KINDS = ("master_list", "ranking", "pairs", "explicit", "completion")


def test_pruned_search_yields_stable_matchings_in_order():
    """The pruned search yields exactly the stable matchings, already
    sorted, and brute force returns the least: on complete instances of
    every kind and on incomplete ones.  Half of the incomplete ones make
    the last d agents an unacceptable group, so that a skip can yield the
    prefix of matchings generated before it."""
    rng = random.Random(13)
    cases = []
    for i in range(60):
        d = rng.choice((2, 3, 4))
        inst = random_complete_instance(rng, KINDS[i % len(KINDS)], rng.randint(d, 9), d)
        cases.append((inst, plain_enumerate_stable(inst)))
    for i in range(80):
        d = rng.choice((2, 3))
        inst = _random_incomplete_instance(rng, rng.randint(d, 9), d, cut_last=i % 2 == 1)
        every = reference_matchings(reference_acceptable_groups(inst))
        cases.append((inst, [m for m in every if plain_find_blocking(inst, m) is None]))
    for inst, stable in cases:
        got = list(stability._stable_matchings(inst, max_n=12))
        assert got == sorted(got) == stable, (inst.n, inst.d)
        assert brute_force_solve(inst) == min(stable, default=None), (inst.n, inst.d)


def test_find_blocking_matches_plain_scan():
    rng = random.Random(5)
    for i in range(150):
        kind = KINDS[i % len(KINDS)]
        d = rng.choice((2, 3, 4))
        n = rng.randint(d, 9 if kind == "completion" else 11)
        inst = random_complete_instance(rng, kind, n, d)
        for _ in range(20):
            m = random_matching(rng, n, d)
            assert find_blocking(inst, m) == plain_find_blocking(inst, m), (kind, n, d, m)
        if n <= 9:
            stable = plain_enumerate_stable(inst)
            assert enumerate_stable(inst) == stable, (kind, n, d)
            assert all(find_blocking(inst, m) is None for m in stable)


def test_find_blocking_matches_plain_scan_on_master_lists():
    """More master lists than the test above draws, for the master-order
    walk: d = 2, 3 and 4 in turn, maximal matchings (some agent unmatched,
    cur = inf, when d does not divide n; else the walk stops at the worst
    current rank), random partial matchings, and every stable matching."""
    rng = random.Random(23)
    for i in range(90):
        d = (2, 3, 4)[i % 3]
        n = rng.randint(d, 9)
        inst = random_complete_instance(rng, "master_list", n, d)
        every = reference_maximal_matchings(n, d)
        cases = rng.sample(every, min(len(every), 40))
        cases += [random_matching(rng, n, d) for _ in range(10)]
        cases += enumerate_stable(inst)
        for m in cases:
            assert find_blocking(inst, m) == plain_find_blocking(inst, m), (n, d, m)


def test_find_blocking_long_chain_is_fast():
    inst = chain_instance(600, 3)
    m = strict_order_solve(inst)
    start = time.perf_counter()
    assert find_blocking(inst, m) is None
    assert time.perf_counter() - start < 2.0


def test_find_blocking_sat_master_list_is_fast():
    formula = OneInThreeFormula(
        6, ((1, 3, 4), (1, 5, 6), (1, 3, 5), (2, 4, 6), (2, 3, 6), (2, 4, 5))
    )
    reduction = sat_reduce(formula)
    m = sat_forward_matching(reduction, [1, 2])
    start = time.perf_counter()
    assert find_blocking(reduction.instance, m) is None
    assert time.perf_counter() - start < 1.0


def test_master_list_walk_stops_at_worst_current_rank():
    """On the SAT forward matching every agent is matched, so the walk of
    the master order reads at most max(cur) sets, not all of them."""
    formula = OneInThreeFormula(
        6, ((1, 3, 4), (1, 5, 6), (1, 3, 5), (2, 4, 6), (2, 3, 6), (2, 4, 5))
    )
    reduction = sat_reduce(formula)
    inst, m = reduction.instance, sat_forward_matching(reduction, [1, 2])
    order = inst.source.order
    partners = stability._partner_map(inst, m)
    cur = [inst.rank_key(a, partners[a]) for a in range(inst.n)]
    read = 0

    def counted():
        nonlocal read
        for t in order:
            read += 1
            yield t

    assert not stability._master_list_blocked(inst.rank_key, counted(), cur)
    assert read <= max(cur) < len(order) // 10


def test_find_blocking_guard_trips_before_partner_map(monkeypatch):
    def unused(instance, m):
        raise AssertionError("partner map built before the guard")

    monkeypatch.setattr(stability, "_partner_map", unused)
    inst = chain_instance(9, 3)
    with pytest.raises(TooLarge):
        find_blocking(inst, normalize_matching([(0, 1, 2), (3, 4, 5)]), guard=10)
    # a malformed matching is still reported first
    with pytest.raises(ValidationError):
        find_blocking(inst, ((0, 1, 2), (2, 3, 4)), guard=10)
    # a canonical poset (kappa = 1 here) is stable iff m equals its lpo
    # blocks, in any order of groups and members, decided before the map
    ladder = two_level_instance(12, 3)
    blocks = strict_order_solve(ladder)
    unsorted = tuple(tuple(reversed(g)) for g in reversed(blocks))
    assert unsorted != blocks
    assert find_blocking(ladder, unsorted) is None
