"""Reference preference evaluator, written apart from the code under test.

It reads an instance document directly and answers the questions the
benchmark's checks need: does a group block a matching, which blocking
group is lexicographically least, and (for n <= 12) which matchings are
stable.  Agent indices are positions in the document's ``agents`` list,
as in ``mdsr``.
"""

from __future__ import annotations

import heapq
from itertools import combinations

ENUMERATION_LIMIT = 12


def closure(n: int, pairs) -> list[set]:
    """above[v] = every agent strictly better than v, for pairs (u, v)
    meaning u is better than v."""
    above = [set() for _ in range(n)]
    below_direct = [[] for _ in range(n)]
    for u, v in pairs:
        below_direct[u].append(v)
    for u in range(n):
        stack = list(below_direct[u])
        while stack:
            v = stack.pop()
            if u not in above[v]:
                above[v].add(u)
                stack.extend(below_direct[v])
    return above


def kappa(above: list[set]) -> int:
    """Largest number of agents incomparable with one agent."""
    n = len(above)
    below = [0] * n
    for v in range(n):
        for u in above[v]:
            below[u] += 1
    return max(n - 1 - len(above[v]) - below[v] for v in range(n))


def lpo_positions(above: list[set]) -> list[int]:
    """Positions in the canonical agent order: repeatedly take the
    smallest-index agent that no remaining agent is better than."""
    n = len(above)
    waiting = [len(above[v]) for v in range(n)]
    below = [[] for _ in range(n)]
    for v in range(n):
        for u in above[v]:
            below[u].append(v)
    ready = [v for v in range(n) if waiting[v] == 0]
    heapq.heapify(ready)
    pos = [0] * n
    p = 0
    while ready:
        v = heapq.heappop(ready)
        pos[v] = p
        p += 1
        for w in below[v]:
            waiting[w] -= 1
            if waiting[w] == 0:
                heapq.heappush(ready, w)
    if p != n:
        raise ValueError("pairs contain a cycle")
    return pos


class Prefs:
    """Complete preferences of one instance document."""

    def __init__(self, doc: dict):
        if "acceptability" in doc:
            raise ValueError("the reference handles complete preferences only")
        self.d = doc["d"]
        self.names = list(doc["agents"])
        self.n = len(self.names)
        self.index = {name: i for i, name in enumerate(self.names)}
        src = doc["source"]
        self._per_agent = None
        self._master = None
        self._pos = None
        if src["type"] == "master_list_sets":
            self._master = {self.ids(t): r for r, t in enumerate(src["order"])}
        elif src["type"] == "explicit":
            self._per_agent = self._lists(src["lists"])
        elif src["type"] == "master_poset":
            if "ranking" in src:
                pos = [0] * self.n
                for p, name in enumerate(src["ranking"]):
                    pos[self.index[name]] = p
                self._pos = pos
            else:
                pairs = [(self.index[u], self.index[v]) for u, v in src["pairs"]]
                self._pos = lpo_positions(closure(self.n, pairs))
            if src.get("tiebreak", "canonical") == "explicit":
                self._per_agent = self._lists(src["completion"])
        else:
            raise ValueError(f"unknown source {src['type']!r}")

    def ids(self, names) -> tuple:
        return tuple(sorted(self.index[x] for x in names))

    def _lists(self, lists: dict) -> list[dict]:
        ranks = []
        for name in self.names:
            ranks.append({self.ids(t): r for r, t in enumerate(lists[name])})
        return ranks

    def key(self, a: int, t: tuple):
        """Smaller is better for agent a."""
        if self._per_agent is not None:
            return self._per_agent[a][t]
        if self._master is not None:
            return self._master[t]
        return sorted(self._pos[x] for x in t)

    def chain_matching(self):
        """For preferences that compare sets by their sorted positions in
        one strict order (a ranking, or a poset with the canonical
        tiebreak): consecutive blocks of d along that order.  Each block's
        members have their best choice among the agents left below the
        blocks above, so the matching is stable.  None for other sources."""
        if self._pos is None or self._per_agent is not None:
            return None
        order = sorted(range(self.n), key=self._pos.__getitem__)
        d = self.d
        return tuple(sorted(tuple(sorted(order[i : i + d])) for i in range(0, self.n - d + 1, d)))

    def partners(self, groups) -> dict:
        out = {}
        for g in groups:
            for a in g:
                out[a] = tuple(x for x in g if x != a)
        return out

    def blocks(self, partner: dict, g: tuple) -> bool:
        for a in g:
            rest = tuple(x for x in g if x != a)
            cur = partner.get(a)
            if cur is not None and (rest == cur or not self.key(a, rest) < self.key(a, cur)):
                return False
        return True

    def least_blocking(self, groups, stop_at: tuple | None = None):
        """The lexicographically least blocking group, or None.  With
        stop_at, only groups lexicographically below it are scanned."""
        partner = self.partners(groups)
        for g in combinations(range(self.n), self.d):
            if stop_at is not None and g >= stop_at:
                return None
            if self.blocks(partner, g):
                return g
        return None

    def is_matching(self, groups) -> bool:
        """Disjoint d-sets leaving fewer than d agents unmatched."""
        members = [a for g in groups for a in g]
        return (
            all(len(g) == self.d for g in groups)
            and len(set(members)) == len(members)
            and self.n - len(members) < self.d
        )

    def stable_matchings(self) -> list[tuple]:
        """Every stable matching, each a sorted tuple of sorted groups.

        Exhaustive: every choice of the n mod d unmatched agents and every
        partition of the rest (a matching leaving d agents unmatched is
        blocked by them)."""
        n, d = self.n, self.d
        if n > ENUMERATION_LIMIT:
            raise ValueError(f"n={n} exceeds the enumeration limit")
        rank = []
        for a in range(n):
            sets = [t for t in combinations(range(n), d - 1) if a not in t]
            sets.sort(key=lambda t: self.key(a, t))
            rank.append({t: r for r, t in enumerate(sets)})
        checks = [
            (g, [(a, rank[a][tuple(x for x in g if x != a)]) for a in g])
            for g in combinations(range(n), d)
        ]
        found = []
        for left in combinations(range(n), n % d):
            rest = tuple(a for a in range(n) if a not in left)
            for m in _partitions(rest, d):
                current = [n * n * n] * n
                for g in m:
                    for a in g:
                        current[a] = rank[a][tuple(x for x in g if x != a)]
                if not any(
                    all(r < current[a] for a, r in members)
                    for g, members in checks
                ):
                    found.append(m)
        return sorted(found)


def _partitions(agents: tuple, d: int):
    if not agents:
        yield ()
        return
    head, rest = agents[0], agents[1:]
    for others in combinations(rest, d - 1):
        left = tuple(x for x in rest if x not in others)
        for tail in _partitions(left, d):
            yield ((head,) + others,) + tail


def in_brute_class(groups, n: int) -> bool:
    """True iff ``stability._complete_matchings`` generates this matching:
    it always groups the lowest-index free agent, so every unmatched agent
    must lie above the lowest member of every group."""
    members = {a for g in groups for a in g}
    highest_head = max((min(g) for g in groups), default=-1)
    return all(a > highest_head for a in range(n) if a not in members)
