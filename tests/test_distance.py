import itertools
import random

import pytest

import mdsr.distance
from mdsr import (
    Instance,
    Poset,
    deletion_distance,
    is_derived_from_poset,
    materialize_explicit,
    recover_strict_order,
)
from mdsr.errors import BudgetExceeded
from mdsr.poset import lpo_order

from util import (
    chain_instance,
    deletion_example_instance,
    intro_instance,
    random_poset,
    reference_is_derived_from_poset,
    reference_recover_strict_order,
)


def test_recover_on_derived_instance():
    inst = materialize_explicit(chain_instance(5, 3))
    order = recover_strict_order(inst)
    assert order is not None
    for i in range(4):
        assert order.greater(i, i + 1)


def test_recover_rejects_intro_instance():
    # agent a ranks {b,d} above {b,c}, which no strict order allows
    assert recover_strict_order(intro_instance()) is None


def test_recover_on_agent_subsets():
    inst = intro_instance()
    agents = [inst.index(x) for x in "cdef"]
    order = recover_strict_order(inst, agents)
    assert order is not None
    # dropping f keeps a's violation ({b,d} over {b,c}) visible
    without_f = [inst.index(x) for x in "abcde"]
    assert recover_strict_order(inst, without_f) is None


def test_deletion_distance_intro():
    # a is the only agent whose list breaks derivation
    inst = intro_instance()
    dist, deleted, _ = deletion_distance(inst)
    assert dist == 1
    assert [inst.names[x] for x in deleted] == ["a"]


def test_deletion_distance_zero_on_derived():
    inst = materialize_explicit(chain_instance(5, 3))
    dist, deleted, _ = deletion_distance(inst)
    assert dist == 0 and deleted == []


def test_deletion_distance_example():
    inst = deletion_example_instance()
    dist, deleted, order = deletion_distance(inst)
    assert dist == 1
    assert [inst.names[a] for a in deleted] == ["a5"]
    # the survivors are ordered a1 > a2 > a3 > a4
    for i in range(3):
        assert order.greater(i, i + 1)


def test_deletion_distance_budget():
    with pytest.raises(BudgetExceeded):
        deletion_distance(deletion_example_instance(), max_budget=0)


def test_deletion_distance_on_canonical_poset_source():
    # canonical completions materialize transparently
    inst = chain_instance(6, 3)
    dist, deleted, _ = deletion_distance(inst)
    assert dist == 0 and deleted == []


def test_deletion_distance_materializes_once(monkeypatch):
    # a shuffled master list is far from every strict order, so many
    # subsets are tried; the explicit lists are built once for all of them
    sets = [list(t) for t in itertools.combinations("abcdef", 2)]
    random.Random(3).shuffle(sets)
    inst = Instance.master_list(3, list("abcdef"), sets)
    calls = []

    def counted(instance):
        calls.append(instance)
        return materialize_explicit(instance)

    monkeypatch.setattr(mdsr.distance, "materialize_explicit", counted)
    dist, _, _ = deletion_distance(inst)
    assert dist >= 2
    assert len(calls) == 1


def _random_extension(rng: random.Random, poset: Poset) -> list:
    """A random linear extension: any agent no remaining agent is above."""
    left, order = set(range(poset.n)), []
    while left:
        top = sorted(v for v in left if not any(poset.greater(u, v) for u in left))
        order.append(rng.choice(top))
        left.remove(order[-1])
    return order


def _random_case(rng: random.Random):
    """An explicit instance over a random poset whose lists are derived,
    derived then perturbed (two entries swapped), or shuffled.  One case in
    five drops entries, half of those down to sets no single swap
    connects; half the cases restrict the check to a random agent subset."""
    n = rng.randint(3, 8)
    d = rng.randint(2, min(4, n))
    if rng.random() < 0.5:
        poset = Poset.from_ranking(rng.sample(range(n), n))
    else:
        poset = random_poset(rng, n, rng.uniform(0.2, 0.9))
    kind = rng.choice(("derived", "perturbed", "shuffled"))
    incomplete = rng.random() < 0.2
    keep, sparse = rng.uniform(0.1, 0.7), rng.random() < 0.5
    sets = list(itertools.combinations(range(n), d - 1))
    lists = {}
    for a in range(n):
        own = [t for t in sets if a not in t]
        if kind == "shuffled":
            rng.shuffle(own)
        else:
            # Increasing weights down a linear extension: a dominating set
            # has the smaller sum, so sorting by sum respects dominance.
            weight, w = {}, 0.0
            for v in _random_extension(rng, poset):
                w += rng.uniform(0.1, 1.0)
                weight[v] = w
            own.sort(key=lambda t: (sum(weight[x] for x in t), rng.random()))
        if incomplete:
            kept = []
            for t in own:
                # sparse lists keep no two sets one swap apart
                if rng.random() < keep and not (
                    sparse and any(len(set(t) - set(s)) == 1 for s in kept)
                ):
                    kept.append(t)
            own = kept
        if kind == "perturbed" and len(own) > 1:
            i, j = rng.sample(range(len(own)), 2)
            own[i], own[j] = own[j], own[i]
        lists[f"a{a}"] = [[f"a{x}" for x in t] for t in own]
    inst = Instance.explicit(d, [f"a{i}" for i in range(n)], lists)
    agents = None if rng.random() < 0.5 else rng.sample(range(n), rng.randint(d, n))
    return inst, poset, agents


def _ranking(order):
    return None if order is None else lpo_order(order).order


def test_single_swap_rule_matches_pairwise_reference():
    rng = random.Random(20240607)
    verdicts = set()
    for _ in range(600):
        inst, poset, agents = _random_case(rng)
        want = reference_is_derived_from_poset(inst, poset, agents)
        assert is_derived_from_poset(inst, poset, agents) == want
        verdicts.add((inst.is_complete, want))
        assert _ranking(recover_strict_order(inst, agents)) == _ranking(
            reference_recover_strict_order(inst, agents)
        )
    assert len(verdicts) == 4


def test_incomplete_list_without_intermediate_sets_is_checked_pairwise():
    # a4 ranks {a2, a3} above {a0, a1}, which dominates it on the chain,
    # but no set one swap away from either is on the list
    lists = {"a4": [["a2", "a3"], ["a0", "a1"]]}
    inst = Instance.explicit(3, [f"a{i}" for i in range(5)], lists)
    assert not is_derived_from_poset(inst, Poset.from_ranking(list(range(5))))
