"""Marriage-with-ties instances under two master lists, the reduction to
incomplete triple roommates, and the two standalone gadgets it uses.

Each gadget (man-woman edge, tie, cut-off) is one table: its triples and
its pair order, in role names.  The reduction embeds every gadget through
one role map, and one list builder turns triples into preference lists
for the reduction and the standalone gadgets alike."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Iterator

from .core import Instance, Matching, normalize_matching
from .errors import MalformedSmti, NotPerfect, NotStable, NotWellFormed

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


def _explicit_from_triples(
    names: list[str],
    triples: Iterable[tuple[str, str, str]],
    pair_key: dict,
) -> Instance:
    """The incomplete-list instance whose agents accept exactly the given
    triples.  Each agent ranks its pairs by pair_key (keyed by frozenset),
    then the pairs without a key by the order of names."""
    agent_rank = {a: r for r, a in enumerate(names)}

    def key(pair):
        k = pair_key.get(frozenset(pair))
        return (0, k) if k is not None else (1, sorted(agent_rank[x] for x in pair))

    pairs: dict[str, set] = {a: set() for a in names}
    for t in triples:
        for a in t:
            pairs[a].add(tuple(sorted(set(t) - {a})))
    lists = {a: [list(p) for p in sorted(ps, key=key)] for a, ps in pairs.items()}
    return Instance.explicit(3, names, lists)


def _gadget_instance(
    agent_order: tuple[str, ...],
    pair_order: tuple[tuple[str, str], ...],
    triples: Iterable[tuple[str, str, str]],
    drop: Iterable[str] = (),
) -> Instance:
    """A gadget standalone: its triples without the dropped roles, listed
    by the gadget's pair order, then by its strict agent order."""
    drop = set(drop)
    triples = [t for t in triples if not drop.intersection(t)]
    names = [a for a in agent_order if any(a in t for t in triples)]
    pair_key = {frozenset(p): r for r, p in enumerate(pair_order)}
    return _explicit_from_triples(names, triples, pair_key)


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

    def check_perfect_stable(self, matching: dict) -> None:
        """Raise NotPerfect unless the man->woman matching marries everyone
        once, NotStable if it uses an unacceptable pair or a pair blocks it."""
        if len(matching) != self.n or set(matching.values()) != set(range(self.n)):
            raise NotPerfect("every man and woman must be matched exactly once")
        if any((i, j) not in self.acceptable for i, j in matching.items()):
            raise NotStable("matching uses an unacceptable pair")
        if blocking := self.blocking_pairs(matching):
            raise NotStable(f"blocking pairs: {blocking}")

    def is_perfect_stable(self, matching: dict) -> bool:
        try:
            self.check_perfect_stable(matching)
        except (NotPerfect, NotStable):
            return False
        return True

    def perfect_stable_matchings(self) -> Iterator[dict]:
        """Brute force over all perfect matchings; exponential."""
        matchings = (dict(enumerate(perm)) for perm in permutations(range(self.n)))
        return filter(self.is_perfect_stable, matchings)


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


def _roles(i: int, j: int) -> dict:
    """Agent names of every gadget role for man i and woman j (0-based):
    the edge and tie roles at woman j, the cut-off roles of man i."""
    roles = {
        "A": f"a[{i + 1}]",
        "B": f"b[{j + 1}]",
        "B1": f"b[{j + 2}]",
        "C": f"c[{i + 1},{j + 1}]",
        "C1": f"c[{i + 1},{j + 2}]",
        "CP": f"cp[{i + 1},{j + 1}]",
    }
    roles.update((f"D{p}", f"d{p}[{i + 1},{j + 1}]") for p in range(1, 9))
    roles.update((f"X{q}", f"x{q}[{i + 1}]") for q in range(2, 7))
    return roles


# Each gadget as (triples, pair order) in role names.  The edge gadget
# joins man A, woman B and their connector C; the tie gadget covers the
# edges to both tied women, so those women get no edge gadget.
_EDGE = ((("A", "B", "C"),), (("A", "B"), ("B", "C"), ("A", "C")))
_TIE = (TIE_GADGET_TRIPLES, TIE_GADGET_PAIR_ORDER)
_CUTOFF = (CUTOFF_TRIPLES, CUTOFF_PAIR_ORDER)

# The groups of a man's tie gadget in the forward matching: taken when he
# is married to the tie's first woman (he sits in (A, B, C)), free when
# he is married to any other woman.
_TIE_TAKEN = (("D1", "D2", "D8"), ("D3", "D4", "D5"))
_TIE_FREE = (("C", "D5", "D8"), ("D2", "D3", "D7"), ("D1", "D4", "D6"))


def _gadgets(smti: SmtiInstance) -> Iterator[tuple[int, int, tuple]]:
    """(i, j, gadget) for man i and woman j, by man and then by woman: the
    tie gadget where one of his ties starts at j, else the edge gadget
    where he accepts j and j is not the second woman of one of his ties."""
    for i in range(smti.n):
        ties = smti.man_ties(i)
        for j in range(smti.n):
            if j in ties:
                yield i, j, _TIE
            elif (i, j) in smti.acceptable and j - 1 not in ties:
                yield i, j, _EDGE


def _smti_names(smti: SmtiInstance) -> list[str]:
    """The agent names in master order: the d agents by (man, woman), the
    a and b agents, the c and cp agents by woman and then man, the x agents."""
    n, placed = smti.n, list(_gadgets(smti))
    layout = [(i, j, [f"D{p}" for p in range(1, 9)]) for i, j, g in placed if g is _TIE]
    layout += [(i, i, ["A"]) for i in range(n)] + [(j, j, ["B"]) for j in range(n)]
    for i, j, g in sorted(placed, key=lambda t: (t[1], t[0])):
        layout.append((i, j, ["C", "C1", "CP"] if g is _TIE else ["C"]))
    layout += [(i, 0, [f"X{q}" for q in range(2, 7)]) for i in range(n)]
    return [_roles(i, j)[r] for i, j, roles in layout for r in roles]


def smti_reduce(smti: SmtiInstance) -> SmtiReduction:
    names = _smti_names(smti)
    triples: dict[tuple[str, ...], None] = {}
    pair_key: dict[frozenset, tuple] = {}

    def embed(gadget, roles: dict, key: tuple) -> None:
        gadget_triples, pair_order = gadget
        triples.update((tuple(roles[r] for r in t), None) for t in gadget_triples)
        for r, (u, v) in enumerate(pair_order):
            pair_key.setdefault(frozenset((roles[u], roles[v])), key + (r,))

    # Keys only need to order the pairs within one agent's list: per man,
    # his tie and edge gadgets by woman, then his cut-off gadget.
    for i, j, gadget in _gadgets(smti):
        embed(gadget, _roles(i, j), (i, 1, j))
    for i in range(smti.n):
        embed(_CUTOFF, _roles(i, 0), (i, 2, 0))
    return SmtiReduction(smti, _explicit_from_triples(names, triples, pair_key))


def smti_forward(reduction: SmtiReduction, matching: dict) -> Matching:
    """Translate a perfect stable marriage matching (man -> woman dict)
    into a stable matching of the roommates instance."""
    smti = reduction.smti
    smti.check_perfect_stable(matching)
    idx = reduction.instance.index
    groups = []
    for i, j in matching.items():
        tables = [(_roles(i, j), (("A", "B", "C"), ("X3", "X4", "X5")))]
        for t in smti.man_ties(i):
            tables.append((_roles(i, t), _TIE_TAKEN if t == j else _TIE_FREE))
        for roles, table in tables:
            groups += [tuple(idx(roles[r]) for r in g) for g in table]
    return normalize_matching(groups)


def smti_backward(reduction: SmtiReduction, matching: Matching) -> dict:
    """Recover the perfect stable marriage matching from a stable
    roommates matching: man i is married to the woman whose agent shares
    his group."""
    inst, people = reduction.instance, range(reduction.smti.n)
    man = {inst.index(_roles(i, i)["A"]): i for i in people}
    woman = {inst.index(_roles(j, j)["B"]): j for j in people}
    recovered = {}
    for g in matching:
        men = [man[a] for a in g if a in man]
        women = [woman[a] for a in g if a in woman]
        if not men:
            continue
        if len(men) != 1 or len(women) != 1:
            names = [inst.names[a] for a in g]
            raise NotWellFormed(f"group {names} pairs no single man and woman")
        i, j = men[0], women[0]
        if i in recovered:
            raise NotWellFormed(f"man {i} appears in two groups")
        recovered[i] = j
    reduction.smti.check_perfect_stable(recovered)
    return recovered
