"""Marriage-with-ties instances under two master lists, the reduction to
incomplete triple roommates, and the two standalone gadgets it uses."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Iterator, Optional

from .core import Instance, Matching, normalize_matching, tupleset
from .errors import (
    MalformedSmti,
    NotPerfect,
    NotStable,
    NotWellFormed,
)
from .poset import Poset

# ---------------------------------------------------------------------------
# The two gadgets, exposed standalone for direct inspection.

# Pair order the tie-gadget agents derive their lists from; placeholders
# name the roles: A = suitor agent, B/B1 = the two partner agents,
# C/C1/CP = the three connector agents, D1..D8 = internal agents.
TIE_GADGET_PAIR_ORDER = (
    ("D1", "D2"), ("D1", "D4"), ("D2", "D3"), ("D3", "D4"), ("D1", "D6"),
    ("D3", "D5"), ("D4", "D5"), ("D2", "D7"), ("D3", "D7"), ("D1", "D8"),
    ("D2", "D8"), ("D4", "D6"), ("D5", "D8"), ("D5", "C"), ("D8", "C"),
    ("A", "C"), ("A", "C1"), ("A", "CP"), ("B", "C"), ("B1", "C1"),
    ("B", "CP"),
)

# Strict agent order the pair order above is derived from.
TIE_GADGET_AGENT_ORDER = (
    "D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8",
    "A", "B", "B1", "C", "C1", "CP",
)

TIE_GADGET_TRIPLES = (
    ("A", "B", "C"),
    ("A", "B1", "C1"),
    ("A", "B", "CP"),
    ("C", "D5", "D8"),
    ("D1", "D2", "D8"),
    ("D1", "D4", "D6"),
    ("D2", "D3", "D7"),
    ("D3", "D4", "D5"),
)

CUTOFF_PAIR_ORDER = (
    ("X2", "X4"), ("A", "X5"), ("A", "X6"), ("X3", "X4"), ("X3", "X5"),
    ("X2", "X6"), ("X4", "X5"), ("X4", "X6"), ("X5", "X6"),
)

CUTOFF_AGENT_ORDER = ("A", "X2", "X3", "X4", "X5", "X6")

CUTOFF_TRIPLES = (
    ("A", "X5", "X6"),
    ("X2", "X4", "X6"),
    ("X3", "X4", "X5"),
)


def _gadget_instance(
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


def tie_gadget_instance(drop: Iterable[str] = ()) -> Instance:
    """The fourteen-agent tie gadget; pass drop={"A"} or {"B", "B1"} for
    the reduced variants."""
    return _gadget_instance(
        TIE_GADGET_AGENT_ORDER, TIE_GADGET_PAIR_ORDER, TIE_GADGET_TRIPLES, drop
    )


def cutoff_gadget_instance(drop: Iterable[str] = ()) -> Instance:
    """Six agents with no stable matching; dropping "A" leaves exactly
    one stable matching."""
    return _gadget_instance(
        CUTOFF_AGENT_ORDER, CUTOFF_PAIR_ORDER, CUTOFF_TRIPLES, drop
    )


# ---------------------------------------------------------------------------
# Marriage instances.


@dataclass(frozen=True)
class SmtiInstance:
    """Stable marriage with incomplete lists under two master lists.

    Men 0..n-1 are strictly ordered by index (women share this view).
    Women 0..n-1 are ordered by index except for ties: j in tie_starts
    means women j and j+1 are tied.  Each agent's preference list is the
    master list restricted to its acceptable partners, so `acceptable`
    (a set of (man, woman) pairs) determines all preferences.
    """

    n: int
    tie_starts: frozenset[int]
    acceptable: frozenset[tuple[int, int]]

    def __post_init__(self):
        for j in self.tie_starts:
            if not 0 <= j < self.n - 1:
                raise MalformedSmti(f"tie start {j} out of range")
            if j + 1 in self.tie_starts:
                raise MalformedSmti(f"ties at {j} and {j + 1} overlap")
        for i, j in self.acceptable:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise MalformedSmti(f"pair ({i}, {j}) out of range")

    def man_ties(self, i: int) -> list[int]:
        """Tie starts j such that man i accepts both w_j and w_{j+1}."""
        return sorted(
            j
            for j in self.tie_starts
            if (i, j) in self.acceptable and (i, j + 1) in self.acceptable
        )

    def man_rank(self, i: int, j: int) -> int:
        """Rank of woman j for man i; tied women share a rank."""
        if (i, j) not in self.acceptable:
            raise MalformedSmti(f"woman {j} unacceptable to man {i}")
        if j - 1 in self.tie_starts and (i, j - 1) in self.acceptable:
            return j - 1
        return j

    def woman_rank(self, j: int, i: int) -> int:
        if (i, j) not in self.acceptable:
            raise MalformedSmti(f"man {i} unacceptable to woman {j}")
        return i

    def blocking_pairs(self, matching: dict) -> list[tuple[int, int]]:
        """Pairs blocking the (partial) man->woman matching."""
        woman_of = dict(matching)
        man_of = {j: i for i, j in matching.items()}
        blocking = []
        for i, j in sorted(self.acceptable):
            if woman_of.get(i) == j:
                continue
            cur_w = woman_of.get(i)
            man_better = cur_w is None or self.man_rank(i, j) < self.man_rank(
                i, cur_w
            )
            cur_m = man_of.get(j)
            woman_better = cur_m is None or i < cur_m
            if man_better and woman_better:
                blocking.append((i, j))
        return blocking

    def is_perfect_stable(self, matching: dict) -> bool:
        if len(matching) != self.n or set(matching.values()) != set(range(self.n)):
            return False
        if any((i, j) not in self.acceptable for i, j in matching.items()):
            return False
        return not self.blocking_pairs(matching)

    def perfect_stable_matchings(self) -> Iterator[dict]:
        """Brute force over all perfect matchings; exponential."""
        for perm in permutations(range(self.n)):
            matching = dict(enumerate(perm))
            if all(
                (i, j) in self.acceptable for i, j in matching.items()
            ) and not self.blocking_pairs(matching):
                yield matching


# ---------------------------------------------------------------------------
# The reduction.


@dataclass(frozen=True)
class SmtiReduction:
    """Incomplete triple-roommates instance encoding a marriage instance.

    Agents (1-based labels): a[i] per man, b[j] per woman, c[i,j] per
    acceptable pair, cp[i,j] and d[i,j,1..8] per tie in a man's list,
    x[i,2..6] forming each man's cut-off gadget.  The roommates instance
    has a stable matching exactly when the marriage instance has a
    perfect stable matching.
    """

    smti: SmtiInstance
    instance: Instance
    master_order: Poset


def _smti_names(smti: SmtiInstance) -> list[str]:
    n = smti.n
    names = []
    gadgets = [(i, j) for i in range(n) for j in smti.man_ties(i)]
    gadgets.sort()
    for i, j in gadgets:
        for p in range(1, 9):
            names.append(f"d{p}[{i + 1},{j + 1}]")
    for i in range(n):
        names.append(f"a[{i + 1}]")
    for j in range(n):
        names.append(f"b[{j + 1}]")
    ties_of = [smti.man_ties(i) for i in range(n)]
    for j in range(n):
        for i, ties in enumerate(ties_of):
            if j in ties:
                names.append(f"c[{i + 1},{j + 1}]")
                names.append(f"c[{i + 1},{j + 2}]")
                names.append(f"cp[{i + 1},{j + 1}]")
            elif (i, j) in smti.acceptable and j - 1 not in ties:
                names.append(f"c[{i + 1},{j + 1}]")
    for i in range(n):
        for q in range(2, 7):
            names.append(f"x{q}[{i + 1}]")
    return names


def _tie_role_map(i: int, j: int) -> dict:
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


def smti_reduce(smti: SmtiInstance) -> SmtiReduction:
    n = smti.n
    names = _smti_names(smti)
    order = Poset.from_ranking(list(range(len(names))))

    triples: list[tuple[str, str, str]] = []
    for i, j in sorted(smti.acceptable):
        if j - 1 in smti.man_ties(i):
            continue  # covered by the tie's first woman below
        triples.append((f"a[{i + 1}]", f"b[{j + 1}]", f"c[{i + 1},{j + 1}]"))
    for i in range(n):
        for j in smti.man_ties(i):
            roles = _tie_role_map(i, j)
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
                roles = _tie_role_map(i, j)
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
    return SmtiReduction(smti, instance, order)


def smti_forward(reduction: SmtiReduction, matching: dict) -> Matching:
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
            g = _tie_role_map(i, j - 1)
            groups += [
                (idx(g["C"]), idx(g["D5"]), idx(g["D8"])),
                (idx(g["D2"]), idx(g["D3"]), idx(g["D7"])),
                (idx(g["D1"]), idx(g["D4"]), idx(g["D6"])),
            ]
            resolved.add((i, j - 1))
        if j in ties:
            g = _tie_role_map(i, j)
            groups += [
                (idx(g["D1"]), idx(g["D2"]), idx(g["D8"])),
                (idx(g["D3"]), idx(g["D4"]), idx(g["D5"])),
            ]
            resolved.add((i, j))
    for i in range(smti.n):
        for j in smti.man_ties(i):
            if (i, j) not in resolved:
                g = _tie_role_map(i, j)
                groups += [
                    (idx(g["C"]), idx(g["D5"]), idx(g["D8"])),
                    (idx(g["D2"]), idx(g["D3"]), idx(g["D7"])),
                    (idx(g["D1"]), idx(g["D4"]), idx(g["D6"])),
                ]
        groups.append(
            (idx(f"x3[{i + 1}]"), idx(f"x4[{i + 1}]"), idx(f"x5[{i + 1}]"))
        )
    return normalize_matching(groups)


def smti_backward(reduction: SmtiReduction, matching: Matching) -> dict:
    """Recover the perfect stable marriage matching from a stable
    roommates matching: man i is married to the woman whose agent shares
    his group."""
    smti = reduction.smti
    inst = reduction.instance
    recovered = {}
    for g in matching:
        names = [inst.names[a] for a in g]
        men = [x for x in names if x.startswith("a[")]
        women = [x for x in names if x.startswith("b[")]
        if not men:
            continue
        if len(men) != 1 or len(women) != 1:
            raise NotWellFormed(f"group {names} pairs no single man and woman")
        i = int(men[0][2:-1]) - 1
        j = int(women[0][2:-1]) - 1
        if i in recovered:
            raise NotWellFormed(f"man {i} appears in two groups")
        recovered[i] = j
    if len(recovered) != smti.n or set(recovered.values()) != set(range(smti.n)):
        raise NotPerfect("recovered marriage matching is not perfect")
    if smti.blocking_pairs(recovered):
        raise NotStable("recovered marriage matching is not stable")
    return recovered
