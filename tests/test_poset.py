import random
import time

import pytest

from mdsr import Poset, lpo_order, verify_lpo
from mdsr.errors import CycleDetected, DuplicateContradiction, ValidationError
from mdsr.poset import maximum_bipartite_matching

from util import (
    brute_force_width,
    random_poset,
    reference_closure,
    reference_kappa_of,
    reference_ranking_accepted,
    reference_verify_lpo,
)


def test_ranking_total_order():
    p = Poset.from_ranking([2, 0, 1])
    assert p.greater(2, 0) and p.greater(2, 1) and p.greater(0, 1)
    assert not p.greater(1, 0)
    assert not p.greater(0, 0)
    assert p.is_total() and p.kappa() == 0 and p.width() == 1


def test_pairs_transitive_closure():
    p = Poset.from_pairs([(0, 1), (1, 2)], 3)
    assert p.greater(0, 2)
    assert p.geq(0, 0)
    assert p.successors(0) == [1, 2]


def test_rejects_cycles_and_contradictions():
    with pytest.raises(CycleDetected):
        Poset.from_pairs([(0, 1), (1, 2), (2, 0)], 3)
    with pytest.raises(CycleDetected):
        Poset.from_pairs([(1, 1)], 2)
    with pytest.raises(DuplicateContradiction):
        Poset.from_pairs([(0, 1), (1, 0)], 2)
    with pytest.raises(ValidationError):
        Poset.from_pairs([(0, 5)], 3)
    with pytest.raises(ValidationError):
        Poset.from_ranking([0, 0, 1])


def test_kappa_and_width_small_poset():
    # v0 > v1, v1 > v2, v0 > v3: v3 is incomparable with both v1 and v2
    p = Poset.from_pairs([(0, 1), (1, 2), (0, 3)], 4)
    assert p.kappa_of(0) == 0
    assert p.kappa_of(3) == 2
    assert p.kappa() == 2
    assert p.width() == 2
    assert not p.is_total()


def test_two_chains_all_incomparable():
    # a_1 > ... > a_k and b_1 > ... > b_k with no cross relations
    k = 4
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    pairs += [(k + i, k + j) for i in range(k) for j in range(i + 1, k)]
    p = Poset.from_pairs(pairs, 2 * k)
    assert p.kappa() == k
    assert p.width() == 2


def test_lpo_order_ranking_fast_path():
    p = Poset.from_ranking([3, 1, 0, 2])
    lpo = lpo_order(p)
    assert lpo.order == (3, 1, 0, 2)
    assert lpo.kappa == 0
    assert verify_lpo(lpo.order, p)


def _near_permutation(rng, n):
    """A shuffled 0..n-1, left as it is or with one entry repeated, dropped,
    made -1 or n, or replaced by a value that is not an int index."""
    ranking = rng.sample(range(n), n)
    kind = rng.choice(["keep", "repeat", "drop", "-1", "n", "other"])
    i = rng.randrange(n)
    if kind == "repeat":
        ranking[i] = ranking[rng.randrange(n)]
    elif kind == "drop":
        del ranking[i]
    elif kind != "keep":
        v = ranking[i]
        other = rng.choice([float(v), v + 0.5, str(v), None, bool(v % 2)])
        ranking[i] = {"-1": -1, "n": n}.get(kind, other)
    return ranking


def test_from_ranking_matches_sorting_rule():
    """The one-pass check accepts exactly the rankings the sorting rule
    accepted, keeps each accepted ranking as the lpo order and inverts it."""
    rng = random.Random(5)
    verdicts = set()
    for _ in range(500):
        ranking = _near_permutation(rng, rng.randint(1, 9))
        accepted = reference_ranking_accepted(ranking)
        verdicts.add(accepted)
        if not accepted:
            with pytest.raises(ValidationError):
                Poset.from_ranking(ranking)
            continue
        lpo = lpo_order(Poset.from_ranking(ranking))
        assert lpo.order == tuple(ranking) and lpo.kappa == 0
        assert [lpo.position[v] for v in lpo.order] == list(range(len(ranking)))
    assert verdicts == {True, False}


def test_verify_lpo_rejects_bad_orders():
    p = Poset.from_pairs([(0, 1), (1, 2)], 3)
    assert verify_lpo((0, 1, 2), p)
    assert not verify_lpo((2, 1, 0), p)  # later agent beats earlier
    assert not verify_lpo((0, 1), p)  # not a permutation
    # kappa = 0 here, so any incomparable gap > 0 already fails
    q = Poset.from_pairs([(0, 1)], 3)
    assert q.kappa() == 2
    assert verify_lpo(lpo_order(q).order, q)


def test_lpo_random_posets():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 20)
        p = random_poset(rng, n, rng.uniform(0.1, 0.9))
        assert verify_lpo(lpo_order(p).order, p)


def test_width_matches_brute_force():
    rng = random.Random(12)
    for _ in range(30):
        n = rng.randint(2, 9)
        p = random_poset(rng, n, rng.uniform(0.1, 0.9))
        assert p.width() == brute_force_width(p)


def test_maximum_bipartite_matching():
    assert maximum_bipartite_matching([[0], [0]], 1) == 1
    assert maximum_bipartite_matching([[0, 1], [0]], 2) == 2
    assert maximum_bipartite_matching([[], []], 2) == 0
    # classic alternating-path case
    assert maximum_bipartite_matching([[0, 1], [0], [1]], 2) == 2


def _random_pairs(rng, n):
    """Pairs along a random line (a poset, with duplicates), sometimes with
    one stray pair that may reverse a pair, close a cycle, be reflexive or
    fall out of range."""
    line = list(range(n))
    rng.shuffle(line)
    p = rng.uniform(0.05, 0.6)
    pairs = [
        (line[i], line[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    pairs += rng.sample(pairs, min(len(pairs), rng.randint(0, 3)))
    if rng.random() < 0.4:
        u, v = rng.randrange(n), rng.randrange(n + (rng.random() < 0.2))
        pairs.insert(rng.randint(0, len(pairs)), (u, v))
    return pairs


def _random_extension(rng, gt):
    """A random order in which no agent precedes one above it."""
    left = set(range(len(gt)))
    order = []
    while left:
        ready = sorted(v for v in left if not any(v in gt[u] for u in left))
        order.append(rng.choice(ready))
        left.discard(order[-1])
    return order


def test_bitmask_core_matches_reference():
    rng = random.Random(21)
    outcomes = set()
    for _ in range(400):
        n = rng.randint(1, 30)
        pairs = _random_pairs(rng, n)
        try:
            gt = reference_closure(pairs, n)
        except ValidationError as exc:
            with pytest.raises(type(exc)) as got:
                Poset.from_pairs(pairs, n)
            assert type(got.value) is type(exc)
            outcomes.add(type(exc).__name__)
            continue
        p = Poset.from_pairs(pairs, n)
        for u in range(n):
            assert p.successors(u) == sorted(gt[u])
            assert p.kappa_of(u) == reference_kappa_of(gt, u)
            for v in range(n):
                assert p.greater(u, v) == (v in gt[u])
        order = list(lpo_order(p).order)
        assert verify_lpo(order, p) and reference_verify_lpo(order, gt)
        # linear extensions other than the lpo order, which pass: in any of
        # them, incomparable agents are at most 2*kappa - 1 positions apart
        orders = [_random_extension(rng, gt) for _ in range(2)]
        for _ in range(2):
            orders.append(rng.sample(order, n))
        for order in orders:
            verdict = reference_verify_lpo(order, gt)
            assert verify_lpo(order, p) == verdict
            outcomes.add(verdict)
    # every exception class and both verdicts on permutations occurred
    assert outcomes >= {
        "CycleDetected", "DuplicateContradiction", "ValidationError", True, False
    }


def _shuffled_line_pairs(rng, n, levels):
    """A chain (levels=1) or ladder (levels=2) over shuffled agent indices,
    given by the pairs between consecutive levels, in shuffled order."""
    line = list(range(n))
    rng.shuffle(line)
    pairs = [
        (line[i], line[j])
        for i in range(n - levels)
        for j in range((i // levels + 1) * levels, (i // levels + 2) * levels)
    ]
    rng.shuffle(pairs)
    return pairs


@pytest.mark.parametrize("levels", [1, 2])
def test_large_shuffled_chain_and_ladder(levels):
    n = 10**4
    pairs = _shuffled_line_pairs(random.Random(levels), n, levels)
    start = time.perf_counter()
    p = Poset.from_pairs(pairs, n)
    assert p.kappa() == levels - 1
    lpo = lpo_order(p)
    assert verify_lpo(lpo.order, p)
    assert p.width() == levels
    assert time.perf_counter() - start < 5
