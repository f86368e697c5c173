import io
import itertools
import json
import random
import time

import pytest

from mdsr import (
    Instance,
    Poset,
    auto_solve,
    brute_force_solve,
    default_window,
    find_blocking,
    fpt_dp_solve,
    greedy_big_d_solve,
    group_span_bound,
    locality_bound,
    plan,
    serialize_instance,
    serialize_matching,
    strict_order_solve,
)
from mdsr.cli import run
from mdsr.core import matching_violations
from mdsr.errors import (
    CertificateFailure,
    IncompletePreferences,
    NotStrictOrder,
    PreconditionViolated,
    TooLarge,
)
from mdsr.solvers import _sliding_dp

from util import (
    INTRO_MASTER,
    chain_instance,
    group_spans_ok,
    intro_instance,
    no_accepting_state_instance,
    nostable_poset_instance,
    random_completion_instance,
    random_poset,
    reference_sliding_dp,
    two_level_instance,
)


def test_locality_bound_values():
    assert locality_bound(0, 3) == 10
    assert locality_bound(1, 3) == 32
    assert locality_bound(5, 4) == 193
    assert group_span_bound(0, 3) == 30
    assert default_window(0, 3) == 360


def test_locality_bound_monotone():
    for kappa in range(1, 6):
        for d in range(2, 8):
            assert locality_bound(kappa + 1, d) > locality_bound(kappa, d)
            assert locality_bound(kappa, d + 1) > locality_bound(kappa, d)


def test_strict_order_solve_chains():
    assert strict_order_solve(chain_instance(6, 3)) == ((0, 1, 2), (3, 4, 5))
    assert strict_order_solve(chain_instance(7, 3)) == ((0, 1, 2), (3, 4, 5))
    assert strict_order_solve(chain_instance(3, 3)) == ((0, 1, 2),)
    assert strict_order_solve(chain_instance(8, 2)) == (
        (0, 1), (2, 3), (4, 5), (6, 7),
    )


def test_strict_order_solve_follows_the_ranking():
    inst = Instance.master_poset(
        2, ["a", "b", "c", "d"], Poset.from_ranking([2, 0, 3, 1])
    )
    assert strict_order_solve(inst) == ((0, 2), (1, 3))


def test_strict_order_solve_rejects_posets_and_incomplete():
    # a completion of a poset with kappa = 3
    inst = nostable_poset_instance()
    assert inst.lpo().kappa > 0
    with pytest.raises(NotStrictOrder):
        strict_order_solve(inst)
    partial = Instance.master_poset(
        3,
        ["a", "b", "c", "d"],
        Poset.from_ranking([0, 1, 2, 3]),
        acceptability={"a": [["b", "c"]]},
    )
    with pytest.raises(IncompletePreferences):
        strict_order_solve(partial)


def test_strict_chain_uniqueness_small():
    from mdsr import enumerate_stable

    for d in (2, 3, 4):
        for n in range(d, 10):
            inst = chain_instance(n, d)
            assert enumerate_stable(inst) == [strict_order_solve(inst)]
    # canonical posets with incomparable agents: the lpo blocks are still
    # the one stable matching
    rng = random.Random(12)
    checked = 0
    while checked < 60:
        d = rng.choice((2, 3, 4))
        n = rng.randint(d + 1, 10)
        poset = random_poset(rng, n, rng.uniform(0.1, 0.8))
        if poset.kappa() == 0:
            continue
        inst = Instance.master_poset(d, [f"a{i}" for i in range(n)], poset)
        assert enumerate_stable(inst) == [strict_order_solve(inst)], (n, d)
        checked += 1


def test_dp_degenerates_to_exact_search():
    inst = chain_instance(6, 3)
    assert fpt_dp_solve(inst) == strict_order_solve(inst)
    assert fpt_dp_solve(nostable_poset_instance()) is None


def test_dp_default_window_past_the_cap_raises_at_once():
    # n - 1 exceeds the default window 152, which a sliding run cannot
    # finish; the default window takes the exact path and refuses
    inst = two_level_instance(200, 2)
    assert default_window(1, 2) < 199
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        fpt_dp_solve(inst)
    assert time.perf_counter() - start < 1


def test_dp_window_cap():
    # kappa >= 1 makes the theoretical window huge; past the cap the
    # solver refuses instead of enumerating forever
    pairs = [(i, i + 2) for i in range(23)]
    poset = Poset.from_pairs(pairs, 25)
    inst = Instance.master_poset(3, [f"a{i}" for i in range(25)], poset)
    with pytest.raises(TooLarge):
        fpt_dp_solve(inst)


def test_dp_sliding_window_on_chain():
    inst = chain_instance(12, 3)
    want = strict_order_solve(inst)
    for k, s in ((5, 3), (6, 4), (8, 6)):
        assert fpt_dp_solve(inst, window_size=k, span=s) == want


def test_dp_sliding_window_leftover_agents():
    inst = chain_instance(13, 3)
    got = fpt_dp_solve(inst, window_size=6, span=4)
    assert got == ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11))


def test_dp_sliding_matches_brute_force():
    rng = random.Random(5)
    checked = 0
    while checked < 40:
        n = rng.choice([6, 9])
        poset = random_poset(rng, n, rng.uniform(0.5, 0.9))
        if poset.kappa() > 3:
            continue
        inst = random_completion_instance(rng, n, 3, poset)
        want = brute_force_solve(inst)
        got = fpt_dp_solve(inst, window_size=n - 2, span=n - 2)
        assert (want is None) == (got is None)
        if got is not None:
            assert find_blocking(inst, got) is None
        checked += 1


def test_dp_brute_force_fallback_is_fast():
    """A floor against a return to full enumeration: the default window
    covers a 15-agent canonical poset with kappa >= 1, so fpt_dp_solve runs
    brute force under its cap of 18, which stops at the least stable
    matching within seconds."""
    rng = random.Random(15)
    poset = random_poset(rng, 15, 0.7)
    while poset.kappa() < 1:
        poset = random_poset(rng, 15, 0.7)
    inst = Instance.master_poset(3, [f"a{i}" for i in range(15)], poset)
    assert default_window(poset.kappa(), 3) >= 14
    start = time.perf_counter()
    got = fpt_dp_solve(inst)
    elapsed = time.perf_counter() - start
    assert got is not None and find_blocking(inst, got) is None
    assert elapsed < 5


def _matches_reference(inst, windows):
    # The one-loop DP against the earlier design kept in util, on windows
    # below n - 1, sound or not: the same answer (so the same verdict), and
    # a result that is a matching whose groups span at most s positions.
    pos = inst.lpo().position
    for k, s in windows:
        got = next(_sliding_dp(inst, k, s), None)
        assert got == reference_sliding_dp(inst, k, s)
        if got is not None:
            assert not matching_violations(inst, got)
            spans = [max(pos[a] for a in g) - min(pos[a] for a in g) for g in got]
            assert max(spans, default=0) <= s


def test_sliding_dp_matches_reference():
    rng = random.Random(11)
    checked = 0
    while checked < 150:
        d = rng.choice([2, 3])
        n = rng.randint(d + 3, 12)
        poset = random_poset(rng, n, rng.uniform(0.5, 0.95))
        if poset.kappa() > 3:
            continue
        if n <= 8:
            inst = random_completion_instance(rng, n, d, poset)
        else:
            inst = Instance.master_poset(d, [f"a{i}" for i in range(n)], poset)
        windows = {(1, 1), (2, 2), (3, 1), (n // 2, 2), (n - 2, 3)}
        if n <= 8:
            windows.add((n - 2, n - 2))
        _matches_reference(inst, windows)
        checked += 1
    # Groups of four, and explicit completions at the benchmark's
    # forced-window shape: n = 9, 10 with k = s = n - 3.
    checked = 0
    while checked < 24:
        d, n = (4, rng.randint(7, 9)) if checked < 12 else (3, rng.choice([9, 10]))
        poset = random_poset(rng, n, rng.uniform(0.5, 0.95))
        if poset.kappa() > 3:
            continue
        inst = random_completion_instance(rng, n, d, poset)
        windows = {(n - 3, n - 3)}
        if d == 4:
            windows |= {(3, 3), (n // 2, 3), (n - 2, 4)}
        _matches_reference(inst, windows)
        checked += 1


def test_dp_refuses_only_when_every_accepting_matching_is_blocked():
    # An n = 9 completion, forced to window = span = 6, has three accepting
    # final states; the first one's matching is blocked by {a5,a6,a7}, the
    # other two are stable.  At window = span = 3 all three are blocked.
    rng = random.Random(1)
    poset = random_poset(rng, 9, 0.5)
    inst = random_completion_instance(rng, 9, 3, poset)
    accepting = list(_sliding_dp(inst, 6, 6))
    blocked = [find_blocking(inst, m) is not None for m in accepting]
    assert blocked == [True, False, False]
    assert accepting[0] == reference_sliding_dp(inst, 6, 6)
    assert fpt_dp_solve(inst, window_size=6, span=6) == accepting[1]
    accepting = list(_sliding_dp(inst, 3, 3))
    assert len(accepting) == 3 and all(find_blocking(inst, m) for m in accepting)
    with pytest.raises(CertificateFailure, match=r"^window 3 too small: returned matching is blocked by \{a0,a3,a7\}$"):
        fpt_dp_solve(inst, window_size=3, span=3)


def test_dp_without_an_accepting_state_searches_exactly():
    # A window too small to prove NO-STABLE: no state accepts, yet a stable
    # matching exists, so the exact search answers up to max_n agents and
    # the DP refuses above it.
    inst = no_accepting_state_instance()
    assert list(_sliding_dp(inst, 2, 2)) == []
    want = ((1, 2, 4), (3, 6, 9), (5, 7, 8))
    assert brute_force_solve(inst) == want
    assert fpt_dp_solve(inst, window_size=2, span=2) == want
    with pytest.raises(PreconditionViolated, match=r"^window 2 too small: no accepting state$"):
        fpt_dp_solve(inst, window_size=2, span=2, max_n=9)


def test_sliding_dp_over_many_window_slides(tmp_path):
    # Long instances slide the window about 300 times, past the first
    # window (r <= k) and up to the last step, one agent left over on 301.
    # The 845-agent chain, the least with C(n, 3) > 10^8, is validated by
    # its lpo blocks without tripping the scan guard, also by mdsr check.
    long = chain_instance(845, 3)
    for inst in (chain_instance(300, 3), two_level_instance(300, 3), chain_instance(301, 3), long):
        assert fpt_dp_solve(inst, window_size=8, span=6) == strict_order_solve(inst)
    path, witness = tmp_path / "chain.json", tmp_path / "blocks.json"
    path.write_text(serialize_instance(long))
    witness.write_text(serialize_matching(long, long.lpo_blocks()))
    checked = _cli_json(["check", "--instance", str(path), "--matching", str(witness)])
    assert checked["verdict"] == "STABLE"


def test_greedy_kappa_zero_equals_strict():
    for n, d in ((9, 3), (20, 4), (10, 2)):
        inst = chain_instance(n, d)
        result = greedy_big_d_solve(inst)
        assert result.matching == strict_order_solve(inst)
        assert all(step.multiplicity >= 1 for step in result.steps)


def test_greedy_kappa_one_certificates():
    inst = two_level_instance(192, 64)
    result = greedy_big_d_solve(inst)
    assert len(result.matching) == 3
    assert sum(len(g) for g in result.matching) == 192
    for step in result.steps:
        assert step.multiplicity >= 4  # 4 * kappa with kappa = 1


def test_greedy_precondition():
    inst = Instance.master_poset(
        3, ["a", "b", "c"], Poset.from_pairs([(0, 1)], 3)
    )
    with pytest.raises(PreconditionViolated):
        greedy_big_d_solve(inst)


def test_dp_result_is_local():
    rng = random.Random(6)
    checked = 0
    while checked < 20:
        n = 9
        poset = random_poset(rng, n, rng.uniform(0.6, 0.9))
        kappa = poset.kappa()
        if kappa > 3:
            continue
        inst = random_completion_instance(rng, n, 3, poset)
        got = fpt_dp_solve(inst)
        if got is not None:
            assert group_spans_ok(inst, got, locality_bound(kappa, 3))
        checked += 1


def _cli_json(argv):
    out = io.StringIO()
    assert run(["--json"] + argv, out) == 0
    return json.loads(out.getvalue())


def test_auto_solve_dispatch(tmp_path):
    chain = chain_instance(6, 3)
    assert auto_solve(chain) == strict_order_solve(chain)
    greedy_inst = two_level_instance(192, 64)
    got = auto_solve(greedy_inst)
    assert sum(len(g) for g in got) == 192
    dp_inst = nostable_poset_instance()
    assert dp_inst.source.poset.kappa() == 3
    assert auto_solve(dp_inst) is None
    names = [f"a{i}" for i in range(6)]
    # kappa = 0, but each agent finds every pair with the agent opposite
    # it on the ring unacceptable
    incomplete = Instance.master_poset(
        3, names, Poset.from_ranking(list(range(6))),
        acceptability={
            x: [[names[u], names[v]] for u, v in itertools.combinations(range(6), 2)
                if i not in (u, v) and (i + 3) % 6 not in (u, v)]
            for i, x in enumerate(names)
        },
    )
    master = Instance.master_list(3, list("abcdef"), [list(t) for t in INTRO_MASTER])
    cases = [
        (chain, "strict"),
        (two_level_instance(40, 3), "strict"),
        (greedy_inst, "greedy"),
        (dp_inst, "dp"),
        (master, "brute"),
        (intro_instance(), "brute"),
        (incomplete, "brute"),
    ]
    # mdsr stats, mdsr solve, plan and auto_solve make the same choice
    for i, (inst, algo) in enumerate(cases):
        path = tmp_path / f"{i}.json"
        path.write_text(serialize_instance(inst))
        solved = _cli_json(["solve", "--input", str(path)])
        stats = _cli_json(["stats", "--instance", str(path)])
        assert plan(inst) == solved["algo"] == stats["algo"] == algo
        got = auto_solve(inst)
        groups = None if got is None else sorted(sorted(inst.group_names(g)) for g in got)
        assert groups == solved["groups"]


def test_canonical_ladder_solves_by_lpo_blocks(tmp_path):
    """A floor: a 10^4-agent canonical ladder (kappa = 1, d = 3) solves by
    its lpo blocks, consecutive index blocks, through the CLI."""
    big = two_level_instance(10**4, 3)
    assert plan(big) == "strict"
    path = tmp_path / "big.json"
    path.write_text(serialize_instance(big))
    start = time.perf_counter()
    solved = _cli_json(["solve", "--input", str(path)])
    assert time.perf_counter() - start < 5
    assert (solved["verdict"], solved["algo"], solved["validated"]) == ("STABLE", "strict", True)
    want = [[f"a{i}" for i in range(j, j + 3)] for j in range(0, 10**4 - 2, 3)]
    assert sorted(solved["groups"]) == sorted(sorted(g) for g in want)
    small = tmp_path / "small.json"
    small.write_text(serialize_instance(two_level_instance(40, 3)))
    witness = tmp_path / "witness.json"
    solved = _cli_json(["solve", "--input", str(small), "--witness", str(witness)])
    assert (solved["verdict"], solved["algo"]) == ("STABLE", "strict")
    checked = _cli_json(["check", "--instance", str(small), "--matching", str(witness)])
    assert checked["verdict"] == "STABLE"


def _refusal_input(kind: str) -> Instance:
    """An instance outside the solvers' precondition, a master poset with
    complete preferences."""
    names = list("abcd")
    if kind == "master-list":
        return Instance.master_list(3, list("abcdef"), [list(t) for t in INTRO_MASTER])
    if kind == "explicit":
        return intro_instance()
    if kind == "incomplete-ranking":
        ranking = Poset.from_ranking([0, 1, 2, 3])
        return Instance.master_poset(3, names, ranking, acceptability={"a": [["b", "c"]]})
    # an incomplete completion of a kappa = 3 poset
    poset = Poset.from_pairs([(0, 1)], 4)
    return Instance.master_poset(
        2, names, poset, completion={"a": [["b"]]}, acceptability={"a": [["b"]]}
    )


NOT_A_POSET = (NotStrictOrder, "a master-poset source is required")
INCOMPLETE = (IncompletePreferences, "complete preferences are required")
REFUSALS = {
    "master-list": NOT_A_POSET,
    "explicit": NOT_A_POSET,
    "incomplete-ranking": INCOMPLETE,
    "incomplete-completion": INCOMPLETE,
}


@pytest.mark.parametrize("solve", [strict_order_solve, greedy_big_d_solve, fpt_dp_solve])
@pytest.mark.parametrize("kind", list(REFUSALS))
def test_solvers_refuse_alike_outside_complete_master_posets(solve, kind):
    """Each solver checks the source first, then completeness: an
    incomplete completion of a kappa > 0 poset is refused as incomplete,
    by strict_order_solve too."""
    inst = _refusal_input(kind)
    assert kind != "incomplete-completion" or inst.lpo().kappa == 3
    error, message = REFUSALS[kind]
    with pytest.raises(error) as got:
        solve(inst)
    assert type(got.value) is error and str(got.value) == message


def test_strict_cli_refuses_an_incomplete_completion_as_incomplete(tmp_path, capsys):
    path = tmp_path / "partial.json"
    path.write_text(serialize_instance(_refusal_input("incomplete-completion")))
    out = io.StringIO()
    code = run(["--json", "solve", "--input", str(path), "--algo", "strict"], out)
    assert (code, out.getvalue()) == (2, "")
    assert capsys.readouterr().err == "error: complete preferences are required\n"
