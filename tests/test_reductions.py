import random

import pytest

from mdsr import (
    OneInThreeFormula,
    brute_force_solve,
    find_blocking,
    instable_instance,
    is_blocking,
    is_derived_from_master_list,
    normalize_matching,
    parse_formula,
    sat_backward_assignment,
    sat_forward_matching,
    sat_reduce,
    serialize_instance,
    serialize_matching,
)
from mdsr.errors import (
    InvalidAssignment,
    MalformedFormula,
    NotWellFormed,
    ParseError,
)
from mdsr.reductions import INSTABLE_MASTER
from util import reference_sat_reduce

# every perfect matching of the six agents with a known blocking 3-set
INSTABLE_TABLE = [
    (("abc", "def"), "ade"),
    (("abd", "cef"), "ace"),
    (("abe", "cdf"), "bcd"),
    (("abf", "cde"), "acd"),
    (("acd", "bef"), "abe"),
    (("ace", "bdf"), "abe"),
    (("acf", "bde"), "abe"),
    (("ade", "bcf"), "abe"),
    (("adf", "bce"), "abe"),
    (("aef", "bcd"), "acd"),
]


def test_instable_master_list_shape():
    inst = instable_instance()
    assert inst.n == 6 and inst.d == 3
    assert is_derived_from_master_list(inst)
    assert len(INSTABLE_MASTER) == 15


def test_instable_no_stable_matching():
    assert brute_force_solve(instable_instance()) is None


def test_instable_table_blocking_sets():
    inst = instable_instance()
    for groups, blocker in INSTABLE_TABLE:
        m = normalize_matching(inst.agents(*g) for g in groups)
        assert is_blocking(inst, m, inst.agents(*blocker)) is not None


def test_instable_abf_cde_blocked_by_acd():
    inst = instable_instance()
    m = normalize_matching([inst.agents("a", "b", "f"), inst.agents("c", "d", "e")])
    assert is_blocking(inst, m, inst.agents("a", "c", "d")) is not None


def three_clause_formula() -> OneInThreeFormula:
    return OneInThreeFormula(3, ((1, 2, 3), (1, 2, 3), (1, 2, 3)))


def test_formula_validation():
    with pytest.raises(MalformedFormula):
        OneInThreeFormula(3, ((1, 1, 2),))
    with pytest.raises(MalformedFormula):
        OneInThreeFormula(3, ((1, 2, 4),))
    with pytest.raises(MalformedFormula):
        # variable 1 occurs once, not three times
        OneInThreeFormula(3, ((1, 2, 3),))
    f = three_clause_formula()
    assert f.is_solution({1})
    assert not f.is_solution({1, 2})
    assert set(f.solutions()) == {
        frozenset({1}), frozenset({2}), frozenset({3}),
    }


def test_parse_formula():
    text = "c comment\np oit3 3 3\n1 2 3\n1 2 3\n1 2 3\n"
    f = parse_formula(text)
    assert f == three_clause_formula()
    with pytest.raises(ParseError):
        parse_formula("1 2 3\n")  # missing header
    with pytest.raises(ParseError):
        parse_formula("p oit3 3 2\n1 2 3\n")  # clause count mismatch
    with pytest.raises(ParseError):
        parse_formula("p wrong 3 3\n")
    with pytest.raises(ParseError):
        parse_formula("p oit3 3 1\n1 2\n")
    with pytest.raises(ParseError, match="bad header"):
        parse_formula("p oit3 three 1\n1 2 3\n")
    with pytest.raises(ParseError, match="expected integers"):
        parse_formula("p oit3 3 1\n1 2 x\n")


def test_sat_reduce_shape():
    reduction = sat_reduce(three_clause_formula())
    inst = reduction.instance
    assert inst.n == 2 * 3 + 21 * 3  # 69 agents
    assert is_derived_from_master_list(inst)


def test_sat_reduce_contains_instable_pattern():
    """Restricting the master list to x[i,k] and z[i,k,1..5] yields the
    six-agent no-stable-matching master list under renaming."""
    reduction = sat_reduce(three_clause_formula())
    inst = reduction.instance
    block = ["x[1,1]"] + [f"z[1,1,{p}]" for p in range(1, 6)]
    rename = dict(zip(block, "abcdef"))
    keep = set(block)
    restricted = [
        tuple(sorted(rename[x] for x in inst.group_names(t)))
        for t in inst.source.order
        if keep.issuperset(inst.group_names(t))
    ]
    assert restricted == [tuple(sorted(p)) for p in INSTABLE_MASTER]


def test_sat_forward_stable_and_round_trip():
    formula = three_clause_formula()
    reduction = sat_reduce(formula)
    for solution in formula.solutions():
        m = sat_forward_matching(reduction, solution)
        assert len(m) == 23
        assert find_blocking(reduction.instance, m) is None
        assert sat_backward_assignment(reduction, m) == solution


def test_sat_forward_rejects_bad_assignments():
    reduction = sat_reduce(three_clause_formula())
    with pytest.raises(InvalidAssignment):
        sat_forward_matching(reduction, {1, 2})  # two true per clause
    with pytest.raises(InvalidAssignment):
        sat_forward_matching(reduction, set())  # zero true per clause


def test_sat_backward_rejects_malformed_matchings():
    formula = three_clause_formula()
    reduction = sat_reduce(formula)
    inst = reduction.instance
    m = sat_forward_matching(reduction, {1})
    idx = inst.index
    # detach x[1,2] from its variable group: occurrences disagree
    broken = [list(g) for g in m]
    ga = next(g for g in broken if idx("x[1,2]") in g)
    gb = next(g for g in broken if idx("z[2,1,1]") in g)
    ga[ga.index(idx("x[1,2]"))], gb[0] = gb[0], ga[ga.index(idx("x[1,2]"))]
    with pytest.raises(NotWellFormed):
        sat_backward_assignment(reduction, normalize_matching(broken))
    with pytest.raises(NotWellFormed, match="clause 1: c and d are not grouped together"):
        sat_backward_assignment(reduction, ())
    # every clause pair grouped with an auxiliary agent: no variable is true
    m = normalize_matching(inst.agents(f"c[{j}]", f"d[{j}]", f"z[1,1,{j}]") for j in (1, 2, 3))
    with pytest.raises(NotWellFormed, match="not a solution"):
        sat_backward_assignment(reduction, m)


def test_sat_second_formula_round_trip():
    formula = OneInThreeFormula(
        4, ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
    )
    reduction = sat_reduce(formula)
    assert reduction.instance.n == 2 * 4 + 21 * 4
    for solution in formula.solutions():
        m = sat_forward_matching(reduction, solution)
        assert sat_backward_assignment(reduction, m) == solution


def random_formula(rng: random.Random, n: int, planted: bool) -> OneInThreeFormula:
    """A formula on n variables; planted ones (n divisible by 3) have the
    solution {1, .., n/3} with one of those variables in every clause."""
    while True:
        if planted:
            true = [v for v in range(1, n // 3 + 1) for _ in range(3)]
            false = [v for v in range(n // 3 + 1, n + 1) for _ in range(3)]
            rng.shuffle(true)
            rng.shuffle(false)
            clauses = [(t, false[2 * c], false[2 * c + 1]) for c, t in enumerate(true)]
        else:
            occ = [v for v in range(1, n + 1) for _ in range(3)]
            rng.shuffle(occ)
            clauses = [tuple(occ[3 * c:3 * c + 3]) for c in range(n)]
        if all(len(set(c)) == 3 for c in clauses):
            return OneInThreeFormula(n, tuple(tuple(c) for c in clauses))


def test_sat_reduction_matches_reference():
    rng = random.Random(8)
    forwarded = 0
    sizes = [(n, False) for n in (3, 4, 4, 5, 5, 6, 6, 7, 8, 9, 10, 12)]
    sizes += [(n, True) for n in (3, 3, 6, 6, 9, 9, 12, 12)]
    for n, planted in sizes:
        formula = random_formula(rng, n, planted)
        new, ref = sat_reduce(formula), reference_sat_reduce(formula)
        assert serialize_instance(new.instance) == serialize_instance(ref.instance)
        assert new.slot_occurrence == ref.slot_occurrence
        for solution in formula.solutions():
            assert serialize_matching(
                new.instance, sat_forward_matching(new, solution)
            ) == serialize_matching(ref.instance, sat_forward_matching(ref, solution))
            forwarded += 1
    assert forwarded >= 30
