"""Domain types: instances, preference sources, matchings, and the
preference oracle that compares tuple-sets without materializing lists."""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import accumulate, chain, combinations, islice, repeat
from math import comb
from operator import itemgetter, lt
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    InsufficientAgents,
    ParseError,
    SelfInclusion,
    SizeMismatch,
    TooLarge,
    UnacceptableSet,
    ValidationError,
)
from .poset import LpoOrder, Poset, lpo_order, maximum_bipartite_matching

# A tuple-set is a sorted tuple of distinct agent indices of size d-1;
# a group is a sorted tuple of size d; a matching is a sorted tuple of groups.
TupleSet = tuple[int, ...]
Group = tuple[int, ...]
Matching = tuple[Group, ...]

EXPLICIT_LIST_LIMIT = 10**6


def tupleset(agents: Iterable[int]) -> TupleSet:
    t = tuple(sorted(agents))
    if len(set(t)) != len(t):
        raise ValidationError(f"duplicate agents in tuple-set {t}")
    return t


def to_indices(index: Mapping, entries, ordered: bool = False) -> list:
    """Each entry, a list or tuple of names, as a tuple of indices, sorted
    into a tuple-set unless ordered: one lookup pass over all members,
    regrouped by zip when all entries have one size k >= 1, else by slicing,
    and no sort when every entry already increases (mdsr writes them so).
    Any other entry, an undeclared name or an unhashable member raises a
    ParseError naming the first; Instance._validate checks the entries."""
    get, seq = index.__getitem__, (list, tuple)
    try:
        entries = entries if isinstance(entries, list) else list(entries)
        if not all(map(isinstance, entries, repeat(seq))):
            raise TypeError
        sizes = list(map(len, entries))
        flat = list(map(get, entries[0] if len(entries) == 1 else chain.from_iterable(entries)))
    except (KeyError, TypeError):
        entry = entries  # rescan in order for the first bad entry
        with suppress(KeyError, TypeError):
            for entry in entries:
                list(map(get, entry if isinstance(entry, seq) else None))
        raise ParseError(f"{entry!r} is not a list of declared agents") from None
    if len(sizes) > 1 and (k := sizes[0]) and sizes.count(k) == len(sizes):
        groups = zip(*[iter(flat)] * k)
        # every entry already increases when each column lies below the next
        ordered = ordered or all(all(map(lt, flat[j::k], flat[j + 1 :: k])) for j in range(k - 1))
    else:
        slices = map(slice, accumulate(sizes, initial=0), accumulate(sizes))
        groups = map(tuple, [flat] if len(sizes) == 1 else map(flat.__getitem__, slices))
    return list(groups) if ordered else list(map(tuple, map(sorted, groups)))


def normalize_matching(groups: Iterable[Iterable[int]]) -> Matching:
    return tuple(sorted(tuple(sorted(g)) for g in groups))


@dataclass(frozen=True)
class Explicit:
    """Per-agent strict lists of tuple-sets; incomplete lists define X_a."""

    lists: tuple[tuple[TupleSet, ...], ...]


@dataclass(frozen=True)
class MasterListSets:
    """One global strict ranking of every (d-1)-subset of the agents."""

    order: tuple[TupleSet, ...]

    @cached_property
    def rank(self) -> dict:
        """Each set's position in order, for validation and the rank oracle."""
        return dict(zip(self.order, range(len(self.order))))


@dataclass(frozen=True)
class MasterPoset:
    """A poset of agents; each agent's list is a completion respecting
    dominance.  completion=None selects the canonical position-vector order."""

    poset: Poset
    completion: Optional[tuple[tuple[TupleSet, ...], ...]] = None


PreferenceSource = Explicit | MasterListSets | MasterPoset


def dominates(poset: Poset, t: TupleSet, tp: TupleSet) -> bool:
    """True iff some bijection maps every member of t onto a weakly worse
    member of tp, and t != tp.  Decided by bipartite matching; greedy
    pairing is wrong for genuine posets."""
    if len(t) != len(tp):
        raise SizeMismatch(f"{t} vs {tp}")
    if t == tp:
        return False
    k = len(t)
    adj = []
    for a in t:
        row = [j for j, b in enumerate(tp) if poset.geq(a, b)]
        if not row:
            return False
        adj.append(row)
    if len(set().union(*adj)) < k:  # Hall's condition fails for all of t
        return False
    return maximum_bipartite_matching(adj, k) == k


def position_key(positions: Iterable[int], n: int) -> int:
    """Sorted lpo positions read as base-n digits: integer order is the
    lexicographic order of the position vectors."""
    k = 0
    for p in positions:
        k = k * n + p
    return k


def _name_index(names) -> dict:
    """The name -> index dict of names, which may already be one."""
    return names if isinstance(names, dict) else dict(zip(names, range(len(names))))


def _index_lists(names, lists: Mapping[str, Sequence[Iterable[str]]]) -> tuple:
    """Each agent's entries, from lists keyed by name, as tuple-sets."""
    index = _name_index(names)
    return tuple(tuple(to_indices(index, lists.get(name, ()))) for name in names)


class Instance:
    """An agent set with dimension d and a preference source.

    acceptability is None for complete preferences, else one frozenset of
    acceptable tuple-sets per agent.
    """

    def __init__(self, d, names, source, acceptability=None):
        if d < 2:
            raise ValidationError("group size d must be at least 2")
        self.d = d
        self.names = list(names)
        self._index = _name_index(names)
        self.source = source
        self.acceptability = acceptability
        # The per-agent lists: explicit ones or a poset's completion, else None.
        self.lists = getattr(source, "lists", getattr(source, "completion", None))
        self._lpo: Optional[LpoOrder] = None
        self._validate()

    # -- construction -----------------------------------------------------

    def index_sets(self, entries) -> tuple[TupleSet, ...]:
        """Entries of agent names as tuple-sets, through the one name index."""
        return tuple(to_indices(self._index, entries))

    @classmethod
    def explicit(
        cls,
        d: int,
        names: Sequence[str],
        lists: Mapping[str, Sequence[Iterable[str]]],
    ) -> "Instance":
        """Build from per-agent lists of (d-1)-sets of agent names.

        Lists covering every (d-1)-subset give complete preferences;
        shorter lists define the agent's acceptable sets."""
        per_agent = _index_lists(names, lists)
        n, k = len(per_agent), d - 1
        complete = k > 0 and all(len(lst) == comb(n - 1, k) for lst in per_agent)
        acceptability = None if complete else tuple(map(frozenset, per_agent))
        return cls(d, names, Explicit(per_agent), acceptability)

    @classmethod
    def master_list(cls, d: int, names: Sequence[str], master: Sequence[Iterable[str]]) -> "Instance":
        return cls(d, names, MasterListSets(tuple(to_indices(_name_index(names), master))))

    @classmethod
    def master_poset(
        cls,
        d: int,
        names: Sequence[str],
        poset: Poset,
        completion: Optional[Mapping[str, Sequence[Iterable[str]]]] = None,
        acceptability: Optional[Mapping[str, Sequence[Iterable[str]]]] = None,
    ) -> "Instance":
        comp = None if completion is None else _index_lists(names, completion)
        if acceptability is not None:
            acceptability = tuple(map(frozenset, _index_lists(names, acceptability)))
        return cls(d, names, MasterPoset(poset, comp), acceptability)

    # -- basic accessors --------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self._index[name]

    def agents(self, *names: str) -> TupleSet:
        return tupleset(self._index[x] for x in names)

    def group_names(self, group: Iterable[int]) -> list[str]:
        return [self.names[a] for a in sorted(group)]

    @property
    def is_complete(self) -> bool:
        return self.acceptability is None

    @property
    def is_canonical(self) -> bool:
        """A master poset without a completion: one key, sorted lpo positions."""
        return isinstance(self.source, MasterPoset) and self.source.completion is None

    def acceptable(self, a: int, t: TupleSet) -> bool:
        if self.acceptability is None:
            return a not in t
        return t in self.acceptability[a]

    def acceptable_sets(self, a: int) -> Iterable[TupleSet]:
        """Agent a's candidate sets: X_a when preferences are incomplete,
        else a's list for explicit lists and completions, else every
        (d-1)-set without a."""
        if self.acceptability is not None:
            return self.acceptability[a]
        if self.lists is not None:
            return self.lists[a]
        return (t for t in combinations(range(self.n), self.d - 1) if a not in t)

    def lpo(self) -> LpoOrder:
        if not isinstance(self.source, MasterPoset):
            raise ValidationError("lpo order is only defined for poset sources")
        if self._lpo is None:
            self._lpo = lpo_order(self.source.poset)
        return self._lpo

    def lpo_blocks(self) -> Matching:
        """Consecutive blocks of d agents along the lpo order, the last
        n mod d agents unmatched."""
        order, d = self.lpo().order, self.d
        # Slices of a permutation, each sorted once; disjoint, so ordered by first members.
        blocks = [tuple(sorted(order[i : i + d])) for i in range(0, self.n - d + 1, d)]
        blocks.sort(key=itemgetter(0))
        return tuple(blocks)

    # -- validation -------------------------------------------------------

    def _validate(self) -> None:
        n, d = self.n, self.d
        if d > n:
            raise ValidationError(f"d={d} exceeds agent count n={n}")
        if len(self._index) != n:
            raise ValidationError("agent names must be unique")
        src = self.source
        if isinstance(src, Explicit):
            self._validate_explicit(src.lists)
        elif isinstance(src, MasterListSets):
            self._validate_master_list(src)
        elif isinstance(src, MasterPoset):
            self._validate_master_poset(src)
        else:
            raise ValidationError(f"unknown source {src!r}")
        if self.acceptability is not None and self.lists is None:
            # Acceptable sets on no per-agent list are checked here.
            for a, sets in enumerate(self.acceptability):
                self._check_entries(a, sets)
            if isinstance(src, MasterPoset) and not src.poset.is_total():
                raise ValidationError("acceptability with a canonical poset needs a strict order")

    def _check_entries(self, a: int, entries) -> None:
        """Each entry is a sorted tuple of d - 1 distinct agents in range,
        none of them a."""
        k, n = self.d - 1, self.n
        for t in entries:
            if len(t) != k:
                raise SizeMismatch(f"entry {t} has size {len(t)}, want {k}")
            if not (0 <= t[0] and t[-1] < n and all(x < y for x, y in zip(t, t[1:]))):
                raise ValidationError(f"entry {t} is not a set of distinct agents")
            if a in t:
                raise SelfInclusion(f"agent {self.names[a]} lists itself")

    def _validate_explicit(self, lists) -> None:
        """Per-agent lists, explicit or a poset's completion: each entry checked
        and listed once, and every acceptable set (all, if complete) on its list."""
        if len(lists) != self.n:
            raise ValidationError("one preference list per agent required")
        acc, full = self.acceptability, comb(self.n - 1, self.d - 1)
        for a, lst in enumerate(lists):
            if len(lst) > EXPLICIT_LIST_LIMIT:
                raise TooLarge("explicit list exceeds the materialization limit")
            self._check_entries(a, lst)
            listed = set(lst)
            if len(listed) != len(lst):
                raise ValidationError(f"duplicate entry in the list of {self.names[a]}")
            missing = full - len(listed) if acc is None else len(acc[a] - listed)
            if missing:
                raise ValidationError(
                    f"{missing} acceptable sets missing from the list of {self.names[a]}"
                )

    def _validate_master_list(self, src: MasterListSets) -> None:
        """The order must rank every (d-1)-set once: C(n, k) entries, as many
        distinct ones, and every k-set of agents among them cover entry size,
        range, repeated members and duplicates."""
        n, k = self.n, self.d - 1
        rank, full, sets = src.rank, comb(n, k), combinations(range(n), k)
        if len(src.order) == len(rank) == full and all(map(rank.__contains__, sets)):
            return
        raise ValidationError(f"master list must rank each of the {full} sets of {k} agents once")

    def _validate_master_poset(self, src: MasterPoset) -> None:
        if src.poset.n != self.n:
            raise ValidationError("poset size differs from agent count")
        if src.completion is not None:
            self._validate_explicit(src.completion)
            if not is_derived_from_poset(self, src.poset):
                raise ValidationError("completion is not derived from the poset")

    # -- the preference oracle --------------------------------------------

    @cached_property
    def rank_key(self):
        """rank_key(a, t) is agent a's integer rank of t; smaller = preferred.
        The function is built once for the source from its tables alone, so
        it holds no reference to the instance."""
        src = self.source
        if isinstance(src, MasterListSets):
            master = src.rank
            return lambda a, t: master[t]
        if self.is_canonical:
            pos, n = self.lpo().position, self.n
            return lambda a, t: position_key(sorted(map(pos.__getitem__, t)), n)
        lists, names = self.lists, self.names
        rank_of = cache(lambda a: {t: i for i, t in enumerate(lists[a])})

        def listed(a, t):
            try:
                return rank_of(a)[t]
            except KeyError:
                raise UnacceptableSet(f"{t} not in list of {names[a]}") from None

        return listed

    def prefers(self, a: int, t: TupleSet, tp: TupleSet) -> bool:
        """True iff agent a strictly prefers t to tp."""
        if t == tp:
            raise ValidationError("prefers requires two different tuple-sets")
        self._check_entries(a, (t, tp))
        for s in (t, tp):
            if not self.acceptable(a, s):
                raise UnacceptableSet(f"{s} unacceptable to {self.names[a]}")
        return self.rank_key(a, t) < self.rank_key(a, tp)

    def first_choice(self, a: int, excluded: Iterable[int] = ()) -> TupleSet:
        """The best tuple-set for a avoiding the excluded agents; complete
        canonical posets take the first agents of the lpo order without
        enumerating any list."""
        excluded = set(excluded)
        excluded.add(a)
        if self.is_canonical and self.is_complete:
            allowed = (v for v in self.lpo().order if v not in excluded)
            best = tuple(islice(allowed, self.d - 1))
            if len(best) < self.d - 1:
                raise InsufficientAgents(
                    f"only {len(best)} agents available for {self.names[a]}"
                )
            return tupleset(best)
        fits = (t for t in self.acceptable_sets(a) if excluded.isdisjoint(t))
        best = min(fits, key=partial(self.rank_key, a), default=None)
        if best is None:
            raise InsufficientAgents(f"no admissible tuple-set for {self.names[a]}")
        return best


# -- derivation check -----------------------------------------------------


def _swaps(lst: Sequence[TupleSet], pools: Mapping[int, Sequence[int]]):
    """(u, v) for each entry t, member u of t and agent v of pools[u] outside
    t with t - u + v also on lst and ranked after t: lst puts u above v."""
    masks = [sum(1 << a for a in t) for t in lst]  # an entry as a set of bits
    rank = {m: i for i, m in enumerate(masks)}
    for r, t in enumerate(lst):
        for u in t:
            rest = masks[r] ^ (1 << u)
            for v in pools[u]:
                if v not in t and rank.get(rest | (1 << v), -1) > r:
                    yield u, v


def is_derived_from_poset(
    instance: Instance, poset: Poset, agents: Optional[Iterable[int]] = None
) -> bool:
    """True iff no agent ranks a dominated tuple-set above its dominator.
    With agents given, only their lists are checked, restricted to the
    tuple-sets inside agents.

    A list holding all C(|agents| - 1, d - 1) sets is complete, and is
    derived iff no single swap it orders, u above v, has v > u in the
    poset.  Each such swap is a violation: t - u + v dominates t.
    Conversely, if t' dominates t, take the bijection s from t' onto t and
    walk x, s(x), s(s(x)), ... from any x in t' - t until it leaves t'; it
    stops at some y in t - t' with x > y.  Swapping x for y, and fixing
    the walk's members, leaves a bijection with one fewer mismatch, so
    downward single swaps lead from t' to t through sets inside t | t',
    all on a complete list.  If t ranks above t', some step of that chain
    is ranked upward: a swap with v > u.  So only the agents v above each
    u, listed once per call, are tried: for a list of L sets this costs one
    lookup per entry t, member u and agent v > u outside t, at most
    L (d-1) n, and none for pairs that are incomparable or have v below u.
    Incomplete lists may miss the chain's sets, so they compare every pair
    of entries with dominates: one bipartite matching each, O(L^2) in all.
    """
    lists = instance.lists
    if lists is None:
        # Oracle sources are derived by construction.
        return True
    keep = None if agents is None else set(agents)
    pool = range(instance.n) if keep is None else sorted(keep)
    full = comb(max(len(pool) - 1, 0), instance.d - 1)
    above = None
    for a, lst in enumerate(lists):
        if keep is not None:
            if a not in keep:
                continue
            lst = [t for t in lst if keep.issuperset(t)]
        if len(lst) == full:
            if above is None:
                above = {u: [v for v in pool if poset.greater(v, u)] for u in pool}
            if next(_swaps(lst, above), None) is not None:
                return False
            continue
        for i, t in enumerate(lst):
            for tp in lst[i + 1 :]:
                if dominates(poset, tp, t):
                    return False
    return True


# -- matchings ------------------------------------------------------------


def matching_violations(instance: Instance, m: Matching) -> list[str]:
    problems = []
    seen = set()
    for g in m:
        if len(g) != instance.d or len(set(g)) != instance.d:
            problems.append(f"group {g} is not a {instance.d}-set")
            continue
        if any(not 0 <= a < instance.n for a in g):
            problems.append(f"group {g} references unknown agents")
            continue
        overlap = seen.intersection(g)
        if overlap:
            problems.append(f"agents {sorted(overlap)} appear in multiple groups")
        seen.update(g)
        if instance.acceptability is not None:
            for a in g:
                rest = tupleset(x for x in g if x != a)
                if rest not in instance.acceptability[a]:
                    problems.append(
                        f"group {g} unacceptable to {instance.names[a]}"
                    )
    return problems


def materialize_explicit(instance: Instance) -> Instance:
    """An equivalent instance with explicit per-agent lists: each agent's
    candidate sets in rank_key order, at most 10**5 per agent."""
    n, d = instance.n, instance.d
    if comb(n - 1, d - 1) > 10**5:
        raise TooLarge("instance too large to materialize explicit lists")
    lists = tuple(
        tuple(sorted(instance.acceptable_sets(a), key=partial(instance.rank_key, a)))
        for a in range(n)
    )
    return Instance(d, instance._index, Explicit(lists), instance.acceptability)
