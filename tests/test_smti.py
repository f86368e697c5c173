import random

import pytest

from mdsr import (
    SmtiInstance,
    brute_force_solve,
    cutoff_gadget_instance,
    enumerate_stable,
    find_blocking,
    is_blocking,
    is_derived_from_poset,
    materialize_explicit,
    normalize_matching,
    serialize_instance,
    serialize_matching,
    smti_backward,
    smti_forward,
    smti_reduce,
    tie_gadget_instance,
)
from mdsr.errors import MalformedSmti, NotPerfect, NotStable, NotWellFormed
from mdsr.poset import Poset
from mdsr.smti import (
    CUTOFF_AGENT_ORDER,
    CUTOFF_PAIR_ORDER,
    CUTOFF_TRIPLES,
    TIE_GADGET_AGENT_ORDER,
    TIE_GADGET_PAIR_ORDER,
    TIE_GADGET_TRIPLES,
)
from util import (
    reference_gadget_instance,
    reference_smti_forward,
    reference_smti_reduce,
)


def named(inst, *groups):
    return normalize_matching(inst.agents(*g) for g in groups)


# ---------------------------------------------------------------------------
# Gadgets.


def test_tie_gadget_shape():
    inst = tie_gadget_instance()
    assert inst.n == 14
    assert len(TIE_GADGET_TRIPLES) == 8
    assert not inst.is_complete


def test_tie_gadget_derived_from_agent_order():
    inst = tie_gadget_instance()
    ranking = [inst.index(x) for x in TIE_GADGET_AGENT_ORDER]
    assert is_derived_from_poset(inst, Poset.from_ranking(ranking))


def test_tie_gadget_m1_m2_stable():
    inst = tie_gadget_instance()
    m1 = named(
        inst,
        ("A", "C1", "B1"),
        ("C", "D5", "D8"),
        ("D2", "D3", "D7"),
        ("D1", "D4", "D6"),
    )
    assert find_blocking(inst, m1) is None
    m2 = named(inst, ("A", "C", "B"), ("D1", "D2", "D8"), ("D3", "D4", "D5"))
    assert find_blocking(inst, m2) is None


def test_tie_gadget_m_stable_in_restrictions():
    m_groups = (("C", "D5", "D8"), ("D2", "D3", "D7"), ("D1", "D4", "D6"))
    for drop in (("A",), ("B", "B1")):
        inst = tie_gadget_instance(drop=drop)
        assert find_blocking(inst, named(inst, *m_groups)) is None


def test_cutoff_gadget_no_stable_matching():
    inst = cutoff_gadget_instance()
    assert inst.n == 6
    assert brute_force_solve(inst) is None
    # each single-group matching has the next gadget triple as a blocker
    cycle = [
        (("A", "X5", "X6"), ("X2", "X4", "X6")),
        (("X2", "X4", "X6"), ("X3", "X4", "X5")),
        (("X3", "X4", "X5"), ("A", "X5", "X6")),
    ]
    for groups, blocker in cycle:
        m = named(inst, groups)
        assert is_blocking(inst, m, inst.agents(*blocker)) is not None


def test_cutoff_gadget_without_a():
    inst = cutoff_gadget_instance(drop=("A",))
    m = named(inst, ("X3", "X4", "X5"))
    assert find_blocking(inst, m) is None
    assert m in enumerate_stable(inst)


# ---------------------------------------------------------------------------
# Marriage instances.


def all_pairs(n):
    return frozenset((i, j) for i in range(n) for j in range(n))


def test_smti_validation():
    with pytest.raises(MalformedSmti):
        SmtiInstance(2, frozenset({5}), all_pairs(2))
    with pytest.raises(MalformedSmti):
        SmtiInstance(3, frozenset({0, 1}), all_pairs(3))
    with pytest.raises(MalformedSmti):
        SmtiInstance(2, frozenset(), frozenset({(0, 5)}))


def test_smti_ranks_and_blocking():
    s = SmtiInstance(3, frozenset({0}), all_pairs(3))
    assert s.man_ties(0) == [0]
    assert s.man_rank(0, 0) == s.man_rank(0, 1) == 0
    assert s.man_rank(0, 2) == 2
    # everyone unmatched: the top pair blocks
    assert (0, 0) in s.blocking_pairs({})
    matching = {0: 0, 1: 1, 2: 2}
    assert s.is_perfect_stable(matching)
    assert {0: 1, 1: 0, 2: 2} in list(s.perfect_stable_matchings())


def test_smti_tied_woman_swap_is_stable():
    # man 0 is indifferent between women 0 and 1, so both pairings work
    s = SmtiInstance(2, frozenset({0}), all_pairs(2))
    stable = list(s.perfect_stable_matchings())
    assert {0: 0, 1: 1} in stable and {0: 1, 1: 0} in stable


# ---------------------------------------------------------------------------
# The reduction.


def test_smti_reduce_1x1_shape():
    s = SmtiInstance(1, frozenset(), frozenset({(0, 0)}))
    reduction = smti_reduce(s)
    inst = reduction.instance
    assert sorted(inst.names) == sorted(
        ["a[1]", "b[1]", "c[1,1]", "x2[1]", "x3[1]", "x4[1]", "x5[1]", "x6[1]"]
    )
    assert is_derived_from_poset(inst, Poset.from_ranking(range(inst.n)))


def test_smti_reduce_tie_adds_gadget_agents():
    # the tie only applies to man 0, who accepts both tied women
    s = SmtiInstance(2, frozenset({0}), frozenset({(0, 0), (0, 1), (1, 0)}))
    reduction = smti_reduce(s)
    names = set(reduction.instance.names)
    assert "cp[1,1]" in names and "d1[1,1]" in names
    assert "cp[2,1]" not in names and "d1[2,1]" not in names
    inst = reduction.instance
    assert is_derived_from_poset(inst, Poset.from_ranking(range(inst.n)))


def test_smti_reduce_names_in_master_order():
    # both men accept both women, tied at woman 1: one tie gadget per man
    s = SmtiInstance(2, frozenset({0}), all_pairs(2))
    assert smti_reduce(s).instance.names == [
        "d1[1,1]", "d2[1,1]", "d3[1,1]", "d4[1,1]", "d5[1,1]", "d6[1,1]", "d7[1,1]", "d8[1,1]",
        "d1[2,1]", "d2[2,1]", "d3[2,1]", "d4[2,1]", "d5[2,1]", "d6[2,1]", "d7[2,1]", "d8[2,1]",
        "a[1]", "a[2]", "b[1]", "b[2]",
        "c[1,1]", "c[1,2]", "cp[1,1]", "c[2,1]", "c[2,2]", "cp[2,1]",
        "x2[1]", "x3[1]", "x4[1]", "x5[1]", "x6[1]", "x2[2]", "x3[2]", "x4[2]", "x5[2]", "x6[2]",
    ]


def test_smti_forward_backward_1x1():
    s = SmtiInstance(1, frozenset(), frozenset({(0, 0)}))
    reduction = smti_reduce(s)
    m = smti_forward(reduction, {0: 0})
    inst = reduction.instance
    assert inst.agents("a[1]", "b[1]", "c[1,1]") in m
    assert inst.agents("x3[1]", "x4[1]", "x5[1]") in m
    assert find_blocking(inst, m) is None
    assert smti_backward(reduction, m) == {0: 0}


def test_smti_forward_backward_with_tie():
    s = SmtiInstance(2, frozenset({0}), all_pairs(2))
    reduction = smti_reduce(s)
    inst = reduction.instance
    for pm in s.perfect_stable_matchings():
        m = smti_forward(reduction, pm)
        assert find_blocking(inst, m) is None
        assert smti_backward(reduction, m) == pm


def test_smti_forward_rejects_bad_matchings():
    s = SmtiInstance(2, frozenset(), all_pairs(2))
    reduction = smti_reduce(s)
    with pytest.raises(NotPerfect):
        smti_forward(reduction, {0: 0})
    with pytest.raises(NotStable):
        smti_forward(
            smti_reduce(SmtiInstance(2, frozenset(), frozenset({(0, 0), (0, 1), (1, 0)}))),
            {0: 1, 1: 0},
        )
    diagonal = smti_reduce(SmtiInstance(2, frozenset(), frozenset({(0, 0), (1, 1)})))
    with pytest.raises(NotStable, match="unacceptable pair"):
        smti_forward(diagonal, {0: 1, 1: 0})


def test_smti_backward_rejects_malformed():
    s = SmtiInstance(1, frozenset(), frozenset({(0, 0)}))
    reduction = smti_reduce(s)
    inst = reduction.instance
    # a[1] stuck inside its cut-off gadget: no man-woman group at all
    m = normalize_matching([inst.agents("a[1]", "x5[1]", "x6[1]")])
    with pytest.raises(NotWellFormed):
        smti_backward(reduction, m)
    bad = normalize_matching([inst.agents("a[1]", "b[1]", "x2[1]")])
    assert smti_backward(reduction, bad) == {0: 0}  # pair extraction only
    two = smti_reduce(SmtiInstance(2, frozenset(), all_pairs(2)))
    with pytest.raises(NotWellFormed):
        smti_backward(
            two,
            normalize_matching([two.instance.agents("a[1]", "a[2]", "b[1]")]),
        )
    m = named(two.instance, ("a[1]", "b[1]", "x2[1]"), ("a[1]", "b[2]", "x3[1]"))
    with pytest.raises(NotWellFormed, match="man 0 appears in two groups"):
        smti_backward(two, m)


def test_smti_backward_checks_the_recovered_marriage():
    two = smti_reduce(SmtiInstance(2, frozenset(), all_pairs(2)))
    with pytest.raises(NotPerfect):
        smti_backward(two, named(two.instance, ("a[1]", "b[1]", "c[1,1]")))
    # man 1 and woman 1 rank each other first, and both are married elsewhere
    m = named(two.instance, ("a[1]", "b[2]", "c[1,2]"), ("a[2]", "b[1]", "c[2,1]"))
    with pytest.raises(NotStable):
        smti_backward(two, m)
    # a pair neither accepts: refused as a marriage, not as a malformed instance
    diagonal = smti_reduce(SmtiInstance(2, frozenset(), frozenset({(0, 0), (1, 1)})))
    m = named(diagonal.instance, ("a[1]", "b[2]", "x2[1]"), ("a[2]", "b[1]", "x2[2]"))
    with pytest.raises(NotStable, match="unacceptable pair"):
        smti_backward(diagonal, m)


def test_smti_round_trip_three_men():
    s = SmtiInstance(3, frozenset({1}), all_pairs(3))
    reduction = smti_reduce(s)
    inst = reduction.instance
    assert is_derived_from_poset(inst, Poset.from_ranking(range(inst.n)))
    count = 0
    for pm in s.perfect_stable_matchings():
        m = smti_forward(reduction, pm)
        assert find_blocking(inst, m) is None
        assert smti_backward(reduction, m) == pm
        count += 1
    assert count >= 1


# ---------------------------------------------------------------------------
# The table-driven builders against the earlier hand-written ones.


def test_gadget_variants_match_reference():
    # the full and reduced variants, then every single role dropped
    gadgets = [
        (
            tie_gadget_instance,
            (TIE_GADGET_AGENT_ORDER, TIE_GADGET_PAIR_ORDER, TIE_GADGET_TRIPLES),
            [(), ("A",), ("B", "B1"), ("A", "B", "B1")],
        ),
        (
            cutoff_gadget_instance,
            (CUTOFF_AGENT_ORDER, CUTOFF_PAIR_ORDER, CUTOFF_TRIPLES),
            [(), ("A",)],
        ),
    ]
    for build, tables, variants in gadgets:
        for drop in variants + [(r,) for r in tables[0]]:
            ref = reference_gadget_instance(*tables, drop)
            assert serialize_instance(build(drop)) == serialize_instance(ref), drop


def random_smti(rng: random.Random, n: int) -> SmtiInstance:
    ties: set[int] = set()
    for j in range(n - 1):
        if j - 1 not in ties and rng.random() < 0.5:
            ties.add(j)
    acceptable = frozenset(
        (i, j) for i in range(n) for j in range(n) if rng.random() < 0.8
    )
    return SmtiInstance(n, frozenset(ties), acceptable)


def test_smti_reduction_matches_reference():
    rng = random.Random(8)
    tied = forwarded = tied_forwarded = 0
    for case in range(160):
        s = random_smti(rng, 1 + case % 4)
        new, ref = smti_reduce(s), reference_smti_reduce(s)
        assert new.instance.names == ref.instance.names
        assert serialize_instance(new.instance) == serialize_instance(ref.instance)
        has_tie = any(s.man_ties(i) for i in range(s.n))
        tied += has_tie
        for pm in s.perfect_stable_matchings():
            assert serialize_matching(
                new.instance, smti_forward(new, pm)
            ) == serialize_matching(ref.instance, reference_smti_forward(ref, pm))
            forwarded += 1
            tied_forwarded += has_tie
    # the seed covers ties and forward matchings through them
    assert tied >= 50 and forwarded >= 150 and tied_forwarded >= 80
