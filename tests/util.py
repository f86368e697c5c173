"""Shared fixtures and random generators for the test suite."""

import itertools
import json
import random
from itertools import combinations
from math import comb, inf
from typing import Iterable, Optional

from mdsr import Instance, Poset, is_blocking
from mdsr.core import (
    Explicit,
    MasterListSets,
    MasterPoset,
    Matching,
    dominates,
    materialize_explicit,
    matching_violations,
    normalize_matching,
    tupleset,
)
from mdsr.errors import (
    CycleDetected,
    DuplicateContradiction,
    NotPerfect,
    NotStable,
    ParseError,
    ValidationError,
)
from mdsr.reductions import OneInThreeFormula, SatReduction
from mdsr.smti import (
    CUTOFF_PAIR_ORDER,
    CUTOFF_TRIPLES,
    TIE_GADGET_PAIR_ORDER,
    TIE_GADGET_TRIPLES,
    SmtiInstance,
    SmtiReduction,
)
from mdsr.stability import _partner_map

# Six-agent instance where d, e, f share a master list but a, b, c deviate;
# {{a,b,c},{d,e,f}} is blocked by {a,b,d} while {{a,b,d},{c,e,f}} is stable.
INTRO_LISTS = {
    "a": ["bd", "bc", "be", "bf", "cd", "ce", "cf", "de", "df", "ef"],
    "b": ["ad", "ac", "ae", "af", "cd", "ce", "cf", "de", "df", "ef"],
    "c": ["ab", "ad", "ae", "bd", "af", "be", "bf", "de", "df", "ef"],
    "d": ["ab", "ac", "ae", "af", "bc", "be", "bf", "ce", "cf", "ef"],
    "e": ["ab", "ac", "ad", "af", "bc", "bd", "bf", "cd", "cf", "df"],
    "f": ["ab", "ac", "ad", "ae", "bc", "bd", "be", "cd", "ce", "de"],
}

# The master list d, e, and f follow (a, b, c do not).
INTRO_MASTER = [
    "ab", "ac", "ad", "ae", "af", "bc", "bd", "be", "bf",
    "cd", "ce", "cf", "de", "df", "ef",
]


def intro_instance() -> Instance:
    lists = {a: [list(p) for p in lst] for a, lst in INTRO_LISTS.items()}
    return Instance.explicit(3, list("abcdef"), lists)


# Five-agent instance at deletion distance 1 from a strict order: deleting
# a5 leaves lists derived from a1 > a2 > a3 > a4, and no other single
# deletion (or none) works.
DELETION_LISTS = {
    "a1": ["23", "24", "25", "34", "35", "45"],
    "a2": ["13", "14", "15", "34", "35", "45"],
    "a3": ["12", "14", "25", "24", "15", "45"],
    "a4": ["15", "12", "25", "13", "35", "23"],
    "a5": ["23", "34", "12", "24", "13", "14"],
}


def deletion_example_instance() -> Instance:
    names = [f"a{i}" for i in range(1, 6)]
    lists = {
        a: [[f"a{x}" for x in p] for p in lst]
        for a, lst in DELETION_LISTS.items()
    }
    return Instance.explicit(3, names, lists)


# A poset-derived six-agent instance (explicit completion, kappa = 3) with
# no stable matching, found by seeded random search against brute force.
NOSTABLE_PAIRS = [(0, 1), (0, 4), (1, 4), (3, 2), (4, 2), (5, 2), (5, 3)]
NOSTABLE_MASTER = [
    (0, 1), (3, 5), (0, 4), (0, 5), (1, 4), (1, 5), (0, 3), (0, 2),
    (4, 5), (2, 5), (1, 3), (3, 4), (1, 2), (2, 3), (2, 4),
]


def nostable_poset_instance() -> Instance:
    names = [f"a{i}" for i in range(6)]
    poset = Poset.from_pairs(NOSTABLE_PAIRS, 6)
    completion = {
        names[a]: [[names[x] for x in t] for t in NOSTABLE_MASTER if a not in t]
        for a in range(6)
    }
    return Instance.master_poset(3, names, poset, completion)


def chain_instance(n: int, d: int) -> Instance:
    return Instance.master_poset(
        d, [f"a{i}" for i in range(n)], Poset.from_ranking(list(range(n)))
    )


def two_level_instance(n: int, d: int) -> Instance:
    """Levels of two mutually incomparable agents, strictly ordered between
    levels; kappa = 1."""
    pairs = []
    for lvl in range(n // 2 - 1):
        for u in (2 * lvl, 2 * lvl + 1):
            for v in (2 * lvl + 2, 2 * lvl + 3):
                pairs.append((u, v))
    poset = Poset.from_pairs(pairs, n)
    assert poset.kappa() == 1
    return Instance.master_poset(d, [f"a{i}" for i in range(n)], poset)


def random_poset(rng: random.Random, n: int, p: float = 0.5) -> Poset:
    """Random DAG closed transitively: edges follow a random permutation."""
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = [
        (perm[i], perm[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Poset.from_pairs(pairs, n)


def random_derived_master(poset: Poset, n: int, d: int, rng: random.Random):
    """A random linear extension of set dominance: a master order of all
    (d-1)-sets every completion of which respects the poset."""
    sets = [tupleset(c) for c in itertools.combinations(range(n), d - 1)]
    above = {t: set() for t in sets}
    for t, u in itertools.permutations(sets, 2):
        if dominates(poset, t, u):
            above[u].add(t)
    order = []
    remaining = set(sets)
    while remaining:
        ready = sorted(t for t in remaining if not (above[t] & remaining))
        t = rng.choice(ready)
        order.append(t)
        remaining.discard(t)
    return order


def random_completion_instance(
    rng: random.Random, n: int, d: int, poset: Poset
) -> Instance:
    names = [f"a{i}" for i in range(n)]
    master = random_derived_master(poset, n, d, rng)
    completion = {
        names[a]: [[names[x] for x in t] for t in master if a not in t]
        for a in range(n)
    }
    return Instance.master_poset(d, names, poset, completion)


def no_accepting_state_instance() -> Instance:
    """A completion on which the sliding DP at window = span = 2 ends with
    no accepting state, though ((1, 2, 4), (3, 6, 9), (5, 7, 8)) is stable:
    the 27th n = 10, d = 3 completion of a random_poset(rng, 10, 0.9) with
    kappa in 1..3, drawn from random.Random(2026)."""
    rng, drawn = random.Random(2026), 0
    while True:
        poset = random_poset(rng, 10, 0.9)
        if 1 <= poset.kappa() <= 3:
            inst = random_completion_instance(rng, 10, 3, poset)
            drawn += 1
            if drawn == 27:
                return inst


def group_spans_ok(instance: Instance, matching, bound: int) -> bool:
    """Every consecutive-position gap within each group is at most bound."""
    pos = instance.lpo().position
    for g in matching:
        ps = sorted(pos[a] for a in g)
        if any(b - a > bound for a, b in zip(ps, ps[1:])):
            return False
    return True


def brute_force_width(poset: Poset) -> int:
    """Maximum antichain by subset enumeration; exponential."""
    best = 0
    for r in range(1, poset.n + 1):
        for sub in itertools.combinations(range(poset.n), r):
            if all(
                poset.incomparable(u, v)
                for u, v in itertools.combinations(sub, 2)
            ):
                best = max(best, r)
    return best


def reference_ranking_accepted(ranking) -> bool:
    """Whether Poset.from_ranking accepted a ranking when it sorted it to
    check it: sort, compare with 0..n-1, then fill the rank array.  A
    TypeError counts as a rejection: mixed types do not sort, and an
    int-valued float passes the comparison but is no list index."""
    try:
        if sorted(ranking) != list(range(len(ranking))):
            return False
        rank = [0] * len(ranking)
        for pos, v in enumerate(ranking):
            rank[v] = pos
    except TypeError:
        return False
    return True


def reference_closure(pairs, n: int) -> list[set]:
    """gt[u] = the agents strictly below u, by plain set reachability;
    raises the same exception classes as Poset.from_pairs."""
    direct = [set() for _ in range(n)]
    seen = set()
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"pair ({u}, {v}) out of range for n={n}")
        if u == v:
            raise CycleDetected(f"reflexive pair ({u}, {u})")
        if (v, u) in seen:
            raise DuplicateContradiction(f"both ({u},{v}) and ({v},{u}) supplied")
        seen.add((u, v))
        direct[u].add(v)
    gt = []
    for start in range(n):
        reach = set()
        stack = list(direct[start])
        while stack:
            v = stack.pop()
            if v not in reach:
                reach.add(v)
                stack.extend(direct[v])
        if start in reach:
            raise CycleDetected(f"pairs imply a cycle through agent {start}")
        gt.append(reach)
    return gt


def reference_kappa_of(gt: list[set], v: int) -> int:
    n = len(gt)
    return sum(1 for u in range(n) if u != v and u not in gt[v] and v not in gt[u])


def reference_verify_lpo(order, gt: list[set]) -> bool:
    """The two locality conditions checked pairwise, in O(n^2)."""
    n = len(gt)
    if sorted(order) != list(range(n)):
        return False
    kappa = max((reference_kappa_of(gt, v) for v in range(n)), default=0)
    for i in range(n):
        for j in range(i + 1, n):
            if order[i] in gt[order[j]]:
                return False
            if j > i + 2 * kappa and order[j] not in gt[order[i]]:
                return False
    return True


def reference_lpo_order(pairs, n: int) -> tuple:
    """The lpo order by the extraction rule, in plain set scans: repeatedly
    the smallest-index remaining agent that no remaining agent is directly
    above."""
    above = [set() for _ in range(n)]
    for u, v in pairs:
        above[v].add(u)
    left, order = set(range(n)), []
    while left:
        order.append(min(v for v in left if not above[v] & left))
        left.discard(order[-1])
    return tuple(order)


def reference_acceptable_groups(instance: Instance) -> list:
    """Every d-set that each of its members accepts, by the definition."""
    return [
        g
        for g in combinations(range(instance.n), instance.d)
        if all(instance.acceptable(a, tuple(x for x in g if x != a)) for a in g)
    ]


def plain_find_blocking(instance: Instance, m):
    """The least blocking group by the plain scan: is_blocking, which
    refuses a group some member does not accept, over every d-set in index
    order."""
    problems = matching_violations(instance, m)
    if problems:
        raise ValidationError("; ".join(problems))
    partners = _partner_map(instance, m)
    for group in combinations(range(instance.n), instance.d):
        report = is_blocking(instance, m, group, partners)
        if report is not None:
            return report
    return None


def reference_maximal_matchings(n: int, d: int) -> list:
    """Every matching with n // d groups, sorted: each choice of the n % d
    agents left out, times every partition of the rest into d-sets."""

    def partitions(agents):
        if not agents:
            yield ()
            return
        for others in itertools.combinations(agents[1:], d - 1):
            left = tuple(x for x in agents[1:] if x not in others)
            for tail in partitions(left):
                yield ((agents[0],) + others,) + tail

    out = []
    for left_out in itertools.combinations(range(n), n % d):
        rest = tuple(a for a in range(n) if a not in left_out)
        out.extend(partitions(rest))
    return sorted(out)


def plain_enumerate_stable(instance: Instance) -> list:
    """Every stable matching of a complete instance, by the plain scan."""
    return [
        m
        for m in reference_maximal_matchings(instance.n, instance.d)
        if plain_find_blocking(instance, m) is None
    ]


def random_matching(rng: random.Random, n: int, d: int):
    """Up to n // d disjoint random groups."""
    agents = list(range(n))
    rng.shuffle(agents)
    k = rng.randint(0, n // d)
    return normalize_matching(agents[i * d : (i + 1) * d] for i in range(k))


def random_complete_instance(rng: random.Random, kind: str, n: int, d: int) -> Instance:
    """A random complete instance of one source kind: "master_list",
    "ranking", "pairs", "explicit" or "completion"."""
    names = [f"a{i}" for i in range(n)]
    sets = [list(t) for t in itertools.combinations(names, d - 1)]
    if kind == "master_list":
        rng.shuffle(sets)
        return Instance.master_list(d, names, sets)
    if kind == "ranking":
        ranking = list(range(n))
        rng.shuffle(ranking)
        return Instance.master_poset(d, names, Poset.from_ranking(ranking))
    if kind == "pairs":
        return Instance.master_poset(d, names, random_poset(rng, n, rng.uniform(0.2, 0.9)))
    if kind == "explicit":
        lists = {}
        for a in names:
            own = [t for t in sets if a not in t]
            rng.shuffle(own)
            lists[a] = own
        return Instance.explicit(d, names, lists)
    return random_completion_instance(rng, n, d, random_poset(rng, n, rng.uniform(0.3, 0.9)))


# The sliding-window DP as it stood before the one-loop rewrite, kept
# verbatim as the reference for the differential test.
def reference_sliding_dp(instance: Instance, k: int, s: int) -> Optional[Matching]:
    """Forward pass over lpo positions with windows of k+1 positions.

    States are frozensets of groups (in order positions) touching the
    current window, plus the count of positions finalized unmatched.
    Groups enter when their maximum position is revealed and span at most
    s positions.  Blocking is checked over settled positions of the range
    [window start - 1, window end]; a position is settled once no future
    group can claim it.
    """
    order = instance.lpo().order
    n, d = instance.n, instance.d
    pos_to_agent = order
    rank = instance.rank_key

    def is_blocking_here(cand, limit) -> bool:
        for p in cand:
            rest = tuple(sorted(pos_to_agent[q] for q in cand if q != p))
            if rank(pos_to_agent[p], rest) >= limit.get(p, inf):
                return False
        return True

    def check_range(groups, lo: int, hi: int, settled) -> bool:
        """True iff some d-set of settled positions in [lo, hi] blocks."""
        limit = {}  # position -> rank key of its current partners
        for g in groups:
            for p in g:
                rest = tupleset(pos_to_agent[q] for q in g if q != p)
                limit[p] = rank(pos_to_agent[p], rest)
        positions = [p for p in range(max(0, lo), hi + 1) if settled(p)]
        for cand in combinations(positions, d):
            if is_blocking_here(cand, limit):
                return True
        return False

    # Initial states: matchings inside positions [0, k].
    def initial_states():
        positions = tuple(range(min(k + 1, n)))

        def rec(avail, acc):
            yield frozenset(acc)
            if len(avail) >= d:
                head = avail[0]
                for others in combinations(avail[1:], d - 1):
                    if others[-1] - head <= s:
                        g = (head,) + others
                        rest = tuple(
                            x for x in avail[1:] if x not in others
                        )
                        acc.append(g)
                        yield from rec(rest, acc)
                        acc.pop()
            # also allow skipping the head (it stays uncovered)
            if avail:
                yield from rec(avail[1:], acc)

        seen = set()
        for state in rec(positions, []):
            if state not in seen:
                seen.add(state)
                yield state

    def settled_after(r: int, covered):
        # future groups claim positions >= (r + 1) - s; uncovered positions
        # below that line can never be matched later
        if r >= n - 1:
            return lambda p: True

        def settled(p: int) -> bool:
            return p in covered or p < r + 1 - s

        return settled

    states: dict = {}
    for st in initial_states():
        covered = {p for g in st for p in g}
        settled = settled_after(k, covered)
        if not check_range(st, 0, min(k, n - 1), settled):
            states[(st, 0)] = None
    # predecessor map for reconstruction, keyed by (state key, boundary)
    parents: dict = {(key, 0): None for key in states}

    final_i = n - 1 - k  # last boundary; window [final_i, n-1]
    for i in range(0, final_i):
        next_states: dict = {}
        r = i + 1 + k  # newly revealed position
        for (st, unmatched) in states:
            retained = frozenset(g for g in st if max(g) >= i + 1)
            covered_ret = {p for g in retained for p in g}
            drop_unmatched = 1 if i not in {p for g in st for p in g} else 0
            base_un = unmatched + drop_unmatched
            if base_un >= d:
                continue  # d unmatched agents always block
            options = [(frozenset(), base_un)]
            pool = [
                p
                for p in range(max(i + 1, r - s), r)
                if p not in covered_ret
            ]
            for others in combinations(pool, d - 1):
                g = others + (r,)
                options.append((frozenset({g}), base_un))
            for added, un in options:
                # blocking is checked against st plus the new group, so a
                # group dropped at this step still shows its assignment
                check_groups = st | added
                covered = {p for g in check_groups for p in g}
                settled = settled_after(r, covered)
                if check_range(check_groups, i, r, settled):
                    continue
                key = (retained | added, un)
                if key not in next_states:
                    next_states[key] = None
                    parents[(key, i + 1)] = ((st, unmatched), i)
        states = {key: None for key in next_states}
        if not states:
            return None

    # Final acceptance: blocking over the tail was fully checked at the
    # last reveal, so only the unmatched count remains.
    best = None
    for (st, unmatched) in states:
        covered = {p for g in st for p in g}
        window_uncovered = sum(
            1 for p in range(final_i, n) if p not in covered
        )
        if unmatched + window_uncovered < d:
            best = (st, unmatched)
            break
    if best is None:
        return None

    # Reconstruct: walk parents collecting all groups ever committed.
    groups = set(best[0])
    key, i = best, final_i
    while parents.get((key, i)) is not None:
        key, i = parents[(key, i)]
        groups.update(key[0])
    return normalize_matching(
        tupleset(pos_to_agent[p] for p in g) for g in groups
    )


def is_derived_from_master_list(instance: Instance, master, agents=None) -> bool:
    """True iff each agent's list (of the given agents, else of all) equals
    the master list with the sets containing the agent deleted."""
    lists = instance.lists
    if lists is None:
        raise ValidationError("explicit per-agent lists are required")
    master = [tuple(t) for t in master]
    for a in range(instance.n) if agents is None else agents:
        if lists[a] != tuple(t for t in master if a not in t):
            return False
    return True


# The derivation check and strict-order recovery as they stood before the
# single-swap rule, kept verbatim as references for the differential test.
def reference_is_derived_from_poset(
    instance: Instance, poset: Poset, agents=None
) -> bool:
    """True iff no agent ranks a dominated tuple-set above its dominator.
    With agents given, only their lists are checked, restricted to the
    tuple-sets inside agents."""
    lists = instance.lists
    if lists is None:
        # Oracle sources are derived by construction.
        return True
    keep = None if agents is None else set(agents)
    for a, lst in enumerate(lists):
        if keep is not None:
            if a not in keep:
                continue
            lst = [t for t in lst if keep.issuperset(t)]
        for i, t in enumerate(lst):
            for tp in lst[i + 1 :]:
                if dominates(poset, tp, t):
                    return False
    return True


def reference_recover_strict_order(instance: Instance, agents=None) -> Optional[Poset]:
    """A strict total order of `agents` from which their lists are derived,
    or None if no such order exists.

    Single-element swaps force the direction of each agent pair: if some
    agent ranks t = S + {u} above t' = S + {v}, any generating order must
    put u above v.  The forced pairs either orient every pair acyclically
    (then the smallest-index-first topological order is checked in full)
    or there is no generating order.
    """
    if instance.lists is None:
        instance = materialize_explicit(instance)
    lists = instance.lists
    if agents is None:
        agents = list(range(instance.n))
    agents = sorted(agents)
    keep = set(agents)
    sub = {a: i for i, a in enumerate(agents)}
    n = len(agents)

    above = [set() for _ in range(n)]  # above[u] holds v with u forced > v
    for a, lst in enumerate(lists):
        if a not in keep:
            continue
        restricted = [t for t in lst if keep.issuperset(t)]
        rank = {t: i for i, t in enumerate(restricted)}
        for t in restricted:
            for u in t:
                for v in agents:
                    if v == a or v in t:
                        continue
                    tp = tuple(sorted(set(t) - {u} | {v}))
                    ru, rv = rank[t], rank.get(tp)
                    if rv is None:
                        continue
                    if ru < rv:
                        above[sub[u]].add(sub[v])
                    elif rv < ru:
                        above[sub[v]].add(sub[u])

    for u in range(n):
        if any(u in above[v] for v in above[u]):
            return None

    # Topological extension, smallest original index first among the free.
    indeg = [0] * n
    for u in range(n):
        for v in above[u]:
            indeg[v] += 1
    import heapq

    ready = [u for u in range(n) if indeg[u] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        u = heapq.heappop(ready)
        order.append(agents[u])
        for v in above[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, v)
    if len(order) != n:
        return None

    full = order + [a for a in range(instance.n) if a not in keep]
    candidate = Poset.from_ranking(full)
    if reference_is_derived_from_poset(instance, candidate, keep):
        return candidate
    return None


def reference_matchings(groups) -> list:
    """Every set of pairwise disjoint groups from a sorted list, as sorted
    matchings: each group is left out or, if disjoint from those taken,
    taken."""
    out = []

    def rec(i: int, used: frozenset, acc: tuple) -> None:
        if i == len(groups):
            out.append(acc)
            return
        rec(i + 1, used, acc)
        if used.isdisjoint(groups[i]):
            rec(i + 1, used | set(groups[i]), acc + (groups[i],))

    rec(0, frozenset(), ())
    return sorted(out)


# The hardness reductions as they were before each gadget became one table
# embedded through one role map, kept verbatim as the differential
# reference for the table-driven builders in mdsr.smti and mdsr.reductions.


def reference_gadget_instance(
    agent_order: tuple[str, ...],
    pair_order: tuple[tuple[str, str], ...],
    triples: Iterable[tuple[str, str, str]],
    drop: Iterable[str] = (),
) -> Instance:
    """Build an incomplete-list instance from acceptable triples, ordering
    each agent's pairs by the given pair order; pairs absent from it are
    appended ranked by the strict agent order."""
    drop = set(drop)
    triples = [t for t in triples if not drop.intersection(t)]
    names = [a for a in agent_order if any(a in t for t in triples)]
    pair_rank = {frozenset(p): r for r, p in enumerate(pair_order)}
    agent_rank = {a: r for r, a in enumerate(agent_order)}

    def key(pair):
        r = pair_rank.get(frozenset(pair))
        if r is not None:
            return (0, r)
        return (1, tuple(sorted(agent_rank[x] for x in pair)))

    lists = {}
    for a in names:
        pairs = {tuple(sorted(set(t) - {a})) for t in triples if a in t}
        lists[a] = [list(p) for p in sorted(pairs, key=key)]
    return Instance.explicit(3, names, lists)


def reference_tie_role_map(i: int, j: int) -> dict:
    """Role names of the tie gadget for man i and tie start j (0-based)."""
    roles = {
        "A": f"a[{i + 1}]",
        "B": f"b[{j + 1}]",
        "B1": f"b[{j + 2}]",
        "C": f"c[{i + 1},{j + 1}]",
        "C1": f"c[{i + 1},{j + 2}]",
        "CP": f"cp[{i + 1},{j + 1}]",
    }
    for p in range(1, 9):
        roles[f"D{p}"] = f"d{p}[{i + 1},{j + 1}]"
    return roles


def reference_smti_names(smti: SmtiInstance) -> list[str]:
    """The reduction's agent names in master order: the d agents per tie
    by (man, woman), the a and b agents, then per woman and man the c agent
    of an edge, or both c agents and the cp agent of a tie, then the x agents."""
    n = smti.n
    ties_of = [smti.man_ties(i) for i in range(n)]
    gadgets = sorted((i, j) for i in range(n) for j in ties_of[i])
    names = [f"d{p}[{i + 1},{j + 1}]" for i, j in gadgets for p in range(1, 9)]
    names += [f"a[{i + 1}]" for i in range(n)]
    names += [f"b[{j + 1}]" for j in range(n)]
    for j in range(n):
        for i, ties in enumerate(ties_of):
            if j in ties:
                names.append(f"c[{i + 1},{j + 1}]")
                names.append(f"c[{i + 1},{j + 2}]")
                names.append(f"cp[{i + 1},{j + 1}]")
            elif (i, j) in smti.acceptable and j - 1 not in ties:
                names.append(f"c[{i + 1},{j + 1}]")
    names += [f"x{q}[{i + 1}]" for i in range(n) for q in range(2, 7)]
    return names


def reference_smti_reduce(smti: SmtiInstance) -> SmtiReduction:
    n = smti.n
    names = reference_smti_names(smti)

    triples: list[tuple[str, str, str]] = []
    for i, j in sorted(smti.acceptable):
        if j - 1 in smti.man_ties(i):
            continue  # covered by the tie's first woman below
        triples.append((f"a[{i + 1}]", f"b[{j + 1}]", f"c[{i + 1},{j + 1}]"))
    for i in range(n):
        for j in smti.man_ties(i):
            roles = reference_tie_role_map(i, j)
            for t in TIE_GADGET_TRIPLES:
                tr = tuple(roles[r] for r in t)
                if tr not in triples:
                    triples.append(tr)
        roles = {"A": f"a[{i + 1}]"}
        for q in range(2, 7):
            roles[f"X{q}"] = f"x{q}[{i + 1}]"
        for t in CUTOFF_TRIPLES:
            triples.append(tuple(roles[r] for r in t))

    agent_rank = {a: r for r, a in enumerate(names)}
    pair_rank: dict[frozenset, tuple] = {}

    def place(pair, key):
        pair = frozenset(pair)
        if pair not in pair_rank:
            pair_rank[pair] = key

    # Tie-gadget pair orders, gadget by gadget; then each man's pairs for
    # untied women; then the cut-off pairs.  Keys only need to order the
    # pairs within a single agent's list correctly.
    for i in range(n):
        ties = smti.man_ties(i)
        for j in range(n):
            if j in ties:
                roles = reference_tie_role_map(i, j)
                for r, p in enumerate(TIE_GADGET_PAIR_ORDER):
                    place((roles[p[0]], roles[p[1]]), (i, 1, j, r))
            elif (i, j) in smti.acceptable and j - 1 not in ties:
                place((f"a[{i + 1}]", f"b[{j + 1}]"), (i, 1, j, 0))
                place(
                    (f"b[{j + 1}]", f"c[{i + 1},{j + 1}]"), (i, 1, j, 1)
                )
                place(
                    (f"a[{i + 1}]", f"c[{i + 1},{j + 1}]"), (i, 1, j, 1)
                )
        roles = {"A": f"a[{i + 1}]"}
        for q in range(2, 7):
            roles[f"X{q}"] = f"x{q}[{i + 1}]"
        for r, p in enumerate(CUTOFF_PAIR_ORDER):
            place((roles[p[0]], roles[p[1]]), (i, 2, 0, r))

    def key(pair):
        r = pair_rank.get(frozenset(pair))
        if r is not None:
            return (0, r)
        return (1, tuple(sorted(agent_rank[x] for x in pair)))

    lists = {}
    for a in names:
        pairs = {tuple(sorted(set(t) - {a})) for t in triples if a in t}
        lists[a] = [list(p) for p in sorted(pairs, key=key)]
    instance = Instance.explicit(3, names, lists)
    return SmtiReduction(smti, instance)


def reference_smti_forward(reduction: SmtiReduction, matching: dict) -> Matching:
    """Translate a perfect stable marriage matching (man -> woman dict)
    into a stable matching of the roommates instance."""
    smti = reduction.smti
    if len(matching) != smti.n or set(matching.values()) != set(range(smti.n)):
        raise NotPerfect("every man and woman must be matched exactly once")
    if any((i, j) not in smti.acceptable for i, j in matching.items()):
        raise NotStable("matching uses an unacceptable pair")
    if smti.blocking_pairs(matching):
        raise NotStable(f"blocking pairs: {smti.blocking_pairs(matching)}")

    inst = reduction.instance
    idx = inst.index
    groups = []
    resolved: set[tuple[int, int]] = set()
    for i, j in sorted(matching.items()):
        groups.append(
            (idx(f"a[{i + 1}]"), idx(f"b[{j + 1}]"), idx(f"c[{i + 1},{j + 1}]"))
        )
        ties = smti.man_ties(i)
        if j - 1 in ties:
            g = reference_tie_role_map(i, j - 1)
            groups += [
                (idx(g["C"]), idx(g["D5"]), idx(g["D8"])),
                (idx(g["D2"]), idx(g["D3"]), idx(g["D7"])),
                (idx(g["D1"]), idx(g["D4"]), idx(g["D6"])),
            ]
            resolved.add((i, j - 1))
        if j in ties:
            g = reference_tie_role_map(i, j)
            groups += [
                (idx(g["D1"]), idx(g["D2"]), idx(g["D8"])),
                (idx(g["D3"]), idx(g["D4"]), idx(g["D5"])),
            ]
            resolved.add((i, j))
    for i in range(smti.n):
        for j in smti.man_ties(i):
            if (i, j) not in resolved:
                g = reference_tie_role_map(i, j)
                groups += [
                    (idx(g["C"]), idx(g["D5"]), idx(g["D8"])),
                    (idx(g["D2"]), idx(g["D3"]), idx(g["D7"])),
                    (idx(g["D1"]), idx(g["D4"]), idx(g["D6"])),
                ]
        groups.append(
            (idx(f"x3[{i + 1}]"), idx(f"x4[{i + 1}]"), idx(f"x5[{i + 1}]"))
        )
    return normalize_matching(groups)


def reference_sat_names(formula: OneInThreeFormula) -> list[str]:
    """The agent names in master order, spelt out here so that the
    reference does not share the layout of the code it checks."""
    names = []
    for j in range(1, formula.n_clauses + 1):
        names.append(f"c[{j}]")
        names.append(f"d[{j}]")
    for i in range(1, formula.n_vars + 1):
        for k in (1, 2, 3):
            names.append(f"x[{i},{k}]")
        for k in (1, 2, 3):
            for p in range(1, 7):
                names.append(f"z[{i},{k},{p}]")
    return names


def reference_sat_reduce(formula: OneInThreeFormula) -> SatReduction:
    """Build the master-list instance; it has a stable matching exactly
    when the formula has a solution."""
    names = reference_sat_names(formula)
    index = {name: i for i, name in enumerate(names)}

    slot_occurrence = {}
    seen = {i: 0 for i in range(1, formula.n_vars + 1)}
    for j, clause in enumerate(formula.clauses, 1):
        for l, v in enumerate(clause, 1):
            seen[v] += 1
            slot_occurrence[(j, l)] = (v, seen[v])

    def c(j):
        return index[f"c[{j}]"]

    def d(j):
        return index[f"d[{j}]"]

    def x(i, k):
        return index[f"x[{i},{k}]"]

    def z(i, k, p):
        return index[f"z[{i},{k},{p}]"]

    def y(j, l):
        return x(*slot_occurrence[(j, l)])

    master: list[tuple[int, int]] = []
    for j in range(1, formula.n_clauses + 1):
        master += [
            (c(j), d(j)),
            (y(j, 1), d(j)),
            (y(j, 3), c(j)),
            (y(j, 2), d(j)),
            (y(j, 2), c(j)),
            (y(j, 3), d(j)),
            (y(j, 1), c(j)),
        ]
    for i in range(1, formula.n_vars + 1):
        master += [
            (x(i, 1), x(i, 2)),
            (x(i, 2), x(i, 3)),
            (x(i, 1), x(i, 3)),
        ]
        for k in (1, 2, 3):
            # The six-agent unsolvable pattern on x[i,k] and z[i,k,1..5],
            # then the pairs with z[i,k,6] at the tail.
            xa, z1, z2, z3, z4, z5, z6 = (
                x(i, k),
                z(i, k, 1),
                z(i, k, 2),
                z(i, k, 3),
                z(i, k, 4),
                z(i, k, 5),
                z(i, k, 6),
            )
            master += [
                (xa, z1), (xa, z2), (xa, z3), (xa, z5), (z1, z4), (z2, z3),
                (xa, z4), (z1, z5), (z2, z4), (z1, z3), (z3, z4), (z1, z2),
                (z2, z5), (z3, z5), (z4, z5), (xa, z6), (z1, z6), (z2, z6),
                (z3, z6), (z4, z6), (z5, z6),
            ]
    placed = {tupleset(p) for p in master}
    rest = [
        p
        for p in combinations(range(len(names)), 2)
        if p not in placed
    ]
    full = [tuple(names[q] for q in sorted(p)) for p in master] + [
        (names[p[0]], names[p[1]]) for p in rest
    ]
    instance = Instance.master_list(3, names, full)
    return SatReduction(formula, instance, slot_occurrence)


# core.to_indices as one comprehension step per entry, as it stood before
# the single lookup pass: the reference for the differential test.
def reference_to_indices(index, entries, ordered: bool = False) -> list:
    get, seq = index.__getitem__, (list, tuple)
    entry = entries
    try:
        if ordered:
            return [tuple(map(get, e if isinstance(entry := e, seq) else None)) for e in entries]
        return [tuple(sorted(map(get, e if isinstance(entry := e, seq) else None))) for e in entries]
    except (KeyError, TypeError):
        raise ParseError(f"{entry!r} is not a list of declared agents") from None


# The instance parser as it stood before names became indices in one
# converter: io checked every entry's names, then the named constructors
# (inlined here) mapped them again with tupleset.  Kept as the reference
# for the differential test.
def reference_parse_instance(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be an object")
    if doc.get("version") != "1":
        raise ParseError(f"unsupported document version {doc.get('version')!r}")
    for field in ("d", "agents", "source"):
        if field not in doc:
            raise ParseError(f"missing field {field!r}")
    d = doc["d"]
    names = doc["agents"]
    if not isinstance(d, int) or not isinstance(names, list):
        raise ParseError("field types: d must be int, agents a list")
    try:
        known = set(names)
    except TypeError:
        raise ParseError("agent names must not be lists or objects") from None

    def check_set(t) -> list:
        try:
            if isinstance(t, list) and set(t).issubset(known):
                return t
        except TypeError:
            pass
        raise ParseError(f"set {t!r} references undeclared agents")

    def check_lists(lists, field: str) -> dict:
        if not (
            isinstance(lists, dict)
            and known.issuperset(lists)
            and all(isinstance(lst, list) for lst in lists.values())
        ):
            raise ParseError(f"{field!r} must map declared agents to lists")
        return {a: [check_set(t) for t in lst] for a, lst in lists.items()}

    index = {name: i for i, name in enumerate(names)}

    def per_agent(lists):
        return tuple(
            tuple(tupleset(index[x] for x in entry) for entry in lists.get(name, ()))
            for name in names
        )

    src = doc["source"]
    kind = src.get("type") if isinstance(src, dict) else None
    acceptability = doc.get("acceptability")
    acc = None
    if acceptability is not None:
        acc = check_lists(acceptability, "acceptability")

    if kind == "explicit":
        lists = per_agent(check_lists(src.get("lists"), "lists"))
        n = len(names)
        complete = all(len(lst) == comb(n - 1, d - 1) for lst in lists)
        accept = None if complete else tuple(frozenset(lst) for lst in lists)
        instance = Instance(d, names, Explicit(lists), accept)
        if acc is not None and instance.acceptability is None:
            raise ParseError("acceptability given for complete explicit lists")
        return instance
    if kind == "master_list_sets":
        order = src.get("order")
        if not isinstance(order, list):
            raise ParseError("'order' must be a list")
        order = [check_set(t) for t in order]
        return Instance(
            d, names, MasterListSets(tuple(tupleset(index[x] for x in t) for t in order))
        )
    if kind == "master_poset":
        if "ranking" in src:
            ranking = check_set(src["ranking"])
            poset = Poset.from_ranking([index[x] for x in ranking])
        elif "pairs" in src:
            pairs = src["pairs"]
            if not isinstance(pairs, list) or any(len(check_set(p)) != 2 for p in pairs):
                raise ParseError("'pairs' must be a list of agent pairs")
            poset = Poset.from_pairs([(index[u], index[v]) for u, v in pairs], len(names))
        else:
            raise ParseError("master_poset needs either 'ranking' or 'pairs'")
        tiebreak = src.get("tiebreak", "canonical")
        completion = None
        if tiebreak == "explicit":
            completion = per_agent(check_lists(src.get("completion", {}), "completion"))
        elif tiebreak != "canonical":
            raise ParseError(f"unknown tiebreak {tiebreak!r}")
        if acc is not None:
            acc = tuple(frozenset(lst) for lst in per_agent(acc))
        return Instance(d, names, MasterPoset(poset, completion), acc)
    raise ParseError(f"unknown source type {kind!r}")


# Instance.lpo_blocks and io.named_groups as they stood before their sorts
# went by first member: whole tuples and whole name lists compared.  Kept as
# the references for the differential tests.
def reference_lpo_blocks(instance: Instance) -> Matching:
    order, d = instance.lpo().order, instance.d
    return normalize_matching(order[i : i + d] for i in range(0, instance.n - d + 1, d))


def reference_named_groups(instance: Instance, m) -> list:
    return sorted(sorted(instance.names[a] for a in g) for g in m)


def unsorted_names(rng: random.Random, n: int) -> list:
    """n distinct names, shuffled, whose string order differs from the
    numeric one (a9 after a10), of mixed lengths, some not ASCII."""
    names = [rng.choice(("a", "b", "ab", "é", "Ω", "名")) + str(i) for i in range(n)]
    rng.shuffle(names)
    return names
