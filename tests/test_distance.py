import itertools
import random

import pytest

import mdsr.distance
from mdsr import Instance, deletion_distance, materialize_explicit, recover_strict_order
from mdsr.errors import BudgetExceeded

from util import chain_instance, deletion_example_instance, intro_instance


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
