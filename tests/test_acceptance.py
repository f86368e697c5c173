"""The eight headline checks; each test prints one PASS/FAIL line."""

import random
import time

from mdsr import (
    Instance,
    Poset,
    brute_force_solve,
    deletion_distance,
    enumerate_stable,
    find_blocking,
    fpt_dp_solve,
    greedy_big_d_solve,
    instable_instance,
    is_blocking,
    locality_bound,
    lpo_order,
    normalize_matching,
    sat_backward_assignment,
    sat_forward_matching,
    sat_reduce,
    smti_backward,
    smti_forward,
    smti_reduce,
    strict_order_solve,
    tie_gadget_instance,
    cutoff_gadget_instance,
    verify_lpo,
)
from mdsr import solvers
from mdsr.reductions import OneInThreeFormula
from mdsr.smti import SmtiInstance

from util import (
    brute_force_width,
    chain_instance,
    deletion_example_instance,
    group_spans_ok,
    nostable_poset_instance,
    random_completion_instance,
    random_poset,
)
from test_reductions import INSTABLE_TABLE


def report(name: str, ok: bool):
    print(f"{name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_no_stable_matching():
    start = time.monotonic()
    inst = instable_instance()
    ok = brute_force_solve(inst) is None
    ok = ok and len(INSTABLE_TABLE) == 10
    for groups, blocker in INSTABLE_TABLE:
        m = normalize_matching(inst.agents(*g) for g in groups)
        ok = ok and is_blocking(inst, m, inst.agents(*blocker)) is not None
    ok = ok and time.monotonic() - start < 1.0
    report("criterion 1 (six-agent instance has no stable matching)", ok)


def test_criterion_2_strict_chains():
    ok = True
    for d in (2, 3, 4):
        for n in range(d, 10):
            inst = chain_instance(n, d)
            want = strict_order_solve(inst)
            ok = ok and enumerate_stable(inst) == [want]
            ok = ok and want == tuple(
                tuple(range(i, i + d)) for i in range(0, n - d + 1, d)
            )
    big = Instance.master_poset(
        3, [str(i) for i in range(10**6)], Poset.from_ranking(list(range(10**6)))
    )
    start = time.monotonic()
    m = strict_order_solve(big)
    elapsed = time.monotonic() - start
    ok = ok and len(m) == 10**6 // 3 and elapsed < 2.0
    report("criterion 2 (strict orders: unique consecutive blocks)", ok)


def test_criterion_3_dp_matches_brute_force(monkeypatch):
    slides = []
    sliding_dp = solvers._sliding_dp
    monkeypatch.setattr(solvers, "_sliding_dp", lambda *a: slides.append(a) or sliding_dp(*a))
    start = time.monotonic()
    rng = random.Random(42)
    ok = True
    checked = 0
    while checked < 200:
        n = rng.choice([6, 9])
        poset = random_poset(rng, n, rng.uniform(0.4, 0.9))
        kappa = poset.kappa()
        if kappa > 3:
            continue
        if rng.random() < 0.5:
            inst = Instance.master_poset(
                3, [f"a{i}" for i in range(n)], poset
            )
        else:
            inst = random_completion_instance(rng, n, 3, poset)
        want = brute_force_solve(inst)
        got = fpt_dp_solve(inst)
        ok = ok and (want is None) == (got is None)
        if got is not None:
            ok = ok and find_blocking(inst, got) is None
            ok = ok and group_spans_ok(inst, got, locality_bound(kappa, 3))
        # the default window searches exactly; one below n - 1 slides
        slid = fpt_dp_solve(inst, window_size=n - 2, span=n - 2)
        ok = ok and (want is None) == (slid is None)
        ok = ok and (slid is None or find_blocking(inst, slid) is None)
        checked += 1
    ok = ok and len(slides) == 200
    # a frozen instance where the answer is provably "no"
    ok = ok and fpt_dp_solve(nostable_poset_instance()) is None
    ok = ok and time.monotonic() - start < 60.0
    report("criterion 3 (windowed program agrees with brute force, 200x)", ok)


def test_criterion_4_order_extraction_and_width():
    rng = random.Random(43)
    ok = True
    for _ in range(1000):
        n = rng.randint(1, 50)
        poset = random_poset(rng, n, rng.uniform(0.05, 0.95))
        ok = ok and verify_lpo(lpo_order(poset).order, poset)
    for _ in range(60):
        n = rng.randint(2, 12)
        poset = random_poset(rng, n, rng.uniform(0.1, 0.9))
        ok = ok and poset.width() == brute_force_width(poset)
    report("criterion 4 (1000 random posets: order extraction and width)", ok)


def test_criterion_5_greedy_certificates():
    ok = True
    for n, d in ((9, 3), (20, 4)):
        inst = chain_instance(n, d)
        ok = ok and greedy_big_d_solve(inst).matching == strict_order_solve(inst)
    pairs = []
    for lvl in range(96 - 1):
        for u in (2 * lvl, 2 * lvl + 1):
            for v in (2 * lvl + 2, 2 * lvl + 3):
                pairs.append((u, v))
    poset = Poset.from_pairs(pairs, 192)
    ok = ok and poset.kappa() == 1
    inst = Instance.master_poset(64, [f"a{i}" for i in range(192)], poset)
    result = greedy_big_d_solve(inst)
    ok = ok and sum(len(g) for g in result.matching) == 192
    ok = ok and all(step.multiplicity >= 4 for step in result.steps)
    report("criterion 5 (greedy certificates at kappa=1, d=64, n=192)", ok)


def test_criterion_6_sat_reduction():
    start = time.monotonic()
    formula = OneInThreeFormula(3, ((1, 2, 3), (1, 2, 3), (1, 2, 3)))
    reduction = sat_reduce(formula)
    ok = reduction.instance.n == 69
    solutions = list(formula.solutions())
    ok = ok and set(solutions) == {
        frozenset({1}), frozenset({2}), frozenset({3}),
    }
    for solution in solutions:
        m = sat_forward_matching(reduction, solution)
        ok = ok and find_blocking(reduction.instance, m) is None
        ok = ok and sat_backward_assignment(reduction, m) == solution
    ok = ok and time.monotonic() - start < 5.0
    report("criterion 6 (satisfiability reduction round trip)", ok)


def test_criterion_7_marriage_reduction():
    ok = True
    # tie gadget: the three stated matchings are stable
    inst = tie_gadget_instance()
    m1 = normalize_matching(
        inst.agents(*g)
        for g in (("A", "C1", "B1"), ("C", "D5", "D8"), ("D2", "D3", "D7"),
                  ("D1", "D4", "D6"))
    )
    m2 = normalize_matching(
        inst.agents(*g)
        for g in (("A", "C", "B"), ("D1", "D2", "D8"), ("D3", "D4", "D5"))
    )
    ok = ok and find_blocking(inst, m1) is None and find_blocking(inst, m2) is None
    m_rest = (("C", "D5", "D8"), ("D2", "D3", "D7"), ("D1", "D4", "D6"))
    for drop in (("A",), ("B", "B1")):
        sub = tie_gadget_instance(drop=drop)
        m = normalize_matching(sub.agents(*g) for g in m_rest)
        ok = ok and find_blocking(sub, m) is None
    # cut-off gadget: unsolvable alone, solvable without its anchor
    ok = ok and brute_force_solve(cutoff_gadget_instance()) is None
    sub = cutoff_gadget_instance(drop=("A",))
    ok = ok and find_blocking(sub, normalize_matching([sub.agents("X3", "X4", "X5")])) is None
    # small marriage instances round-trip through the reduction
    cases = [
        SmtiInstance(1, frozenset(), frozenset({(0, 0)})),
        SmtiInstance(2, frozenset({0}),
                     frozenset((i, j) for i in range(2) for j in range(2))),
        SmtiInstance(3, frozenset({1}),
                     frozenset((i, j) for i in range(3) for j in range(3))),
        SmtiInstance(4, frozenset({0, 2}),
                     frozenset((i, j) for i in range(4) for j in range(4))),
    ]
    for s in cases:
        reduction = smti_reduce(s)
        for pm in s.perfect_stable_matchings():
            m = smti_forward(reduction, pm)
            ok = ok and find_blocking(reduction.instance, m) is None
            ok = ok and smti_backward(reduction, m) == pm
    report("criterion 7 (marriage-with-ties reduction round trip)", ok)


def test_criterion_8_deletion_distance():
    inst = deletion_example_instance()
    dist, deleted, _ = deletion_distance(inst)
    ok = dist == 1 and [inst.names[a] for a in deleted] == ["a5"]
    report("criterion 8 (five-agent deletion distance equals 1)", ok)
