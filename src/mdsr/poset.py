"""Strict partial orders over agents and the parameters computed from them.

Agents are dense 0-based integer indices.  A poset is stored either as a
ranking with its rank array (cheap even for millions of agents) or, when
built from comparison pairs, as closure bitmasks: n*n/8 bytes per direction.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CycleDetected, DuplicateContradiction, ValidationError


class Poset:
    """A strict partial order over agents 0..n-1, transitively closed: a
    ranking and its rank array, or bit v of _gt[u] and bit u of _lt[v] set iff u > v."""

    __slots__ = ("n", "source_pairs", "ranking", "_rank", "_gt", "_lt")

    def __init__(self, n, ranking=None, rank=None, gt=None, lt=None, source_pairs=()):
        self.n = n
        self.source_pairs = tuple(source_pairs)
        self.ranking = ranking
        self._rank = rank
        self._gt = gt
        self._lt = lt

    @classmethod
    def from_ranking(cls, ranking: Sequence[int]) -> "Poset":
        """Total order given as a ranking: ranking[0] is the best agent.  Its
        n entries fill all n rank slots iff none repeats or is negative."""
        ranking = tuple(ranking)
        rank = [-1] * len(ranking)
        try:
            for pos, v in enumerate(ranking):
                rank[v] = pos
        except (IndexError, TypeError):
            rank = None
        if rank is None or -1 in rank or min(ranking, default=0) < 0:
            raise ValidationError("ranking must be a permutation of 0..n-1")
        return cls(len(ranking), ranking=ranking, rank=tuple(rank))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]], n: int) -> "Poset":
        """Build the transitive closure of the given strict pairs.

        Rejects directly contradictory pairs and any cycle the closure implies.
        """
        seen = set()
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"pair ({u}, {v}) out of range for n={n}")
            if u == v:
                raise CycleDetected(f"reflexive pair ({u}, {u})")
            if (v, u) in seen:
                raise DuplicateContradiction(f"both ({u},{v}) and ({v},{u}) supplied")
            seen.add((u, v))
        direct = sorted(seen)
        order, succ = _extract(direct, n)
        if len(order) < n:
            v = min(set(range(n)).difference(order))
            raise CycleDetected(f"pairs imply a cycle through or above agent {v}")
        gt, lt = [0] * n, [0] * n
        for u in order:
            for v in succ[u]:
                lt[v] |= lt[u] | 1 << u
        for u in reversed(order):
            for v in succ[u]:
                gt[u] |= gt[v] | 1 << v
        return cls(n, gt=gt, lt=lt, source_pairs=direct)

    @property
    def is_ranking(self) -> bool:
        return self.ranking is not None

    def greater(self, u: int, v: int) -> bool:
        """True iff u > v (u strictly better than v)."""
        if u == v:
            return False
        if self._rank is not None:
            return self._rank[u] < self._rank[v]
        return bool(self._gt[u] >> v & 1)

    def geq(self, u: int, v: int) -> bool:
        return u == v or self.greater(u, v)

    def incomparable(self, u: int, v: int) -> bool:
        return u != v and not self.greater(u, v) and not self.greater(v, u)

    def kappa_of(self, v: int) -> int:
        """Number of agents incomparable with v."""
        if self._rank is not None:
            return 0
        return self.n - 1 - self._gt[v].bit_count() - self._lt[v].bit_count()

    def kappa(self) -> int:
        """Maximum over agents of the incomparable-agent count."""
        if self.n <= 1 or self._rank is not None:
            return 0
        return max(self.kappa_of(v) for v in range(self.n))

    def is_total(self) -> bool:
        return self.kappa() == 0

    def width(self) -> int:
        """Size of a maximum antichain (= minimum chain cover): by Dilworth,
        n minus a maximum matching of agents to agents below them, seeded
        greedily from the direct pairs in lpo order."""
        n = self.n
        if n == 0:
            return 0
        if self._rank is not None:
            return 1
        order, succ = _extract(self.source_pairs, n)
        match, mate = [-1] * n, [-1] * n
        for u in order:
            v = next((v for v in succ[u] if match[v] < 0), -1)
            if v >= 0:
                match[v], mate[u] = u, v
        return n - _augment(self._gt, match, mate)

    def successors(self, v: int):
        """All agents strictly below v."""
        if self._rank is not None:
            return sorted(self.ranking[self._rank[v] + 1 :])
        return [u for u, bit in enumerate(bin(self._gt[v])[:1:-1]) if bit == "1"]


def _extract(pairs: Iterable[tuple[int, int]], n: int):
    """Extract the smallest-index agent no unextracted agent is directly
    above, while one exists; return the extracted agents and successors."""
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in pairs:
        succ[u].append(v)
        indeg[v] += 1
    ready = [v for v in range(n) if indeg[v] == 0]  # sorted, so a heap
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    return order, succ


@dataclass(frozen=True)
class LpoOrder:
    """An agent order where no later agent beats an earlier one.  Agents
    more than 2*kappa positions apart are then strictly ordered: every agent
    between two incomparable ones is incomparable with one of the two."""

    order: tuple[int, ...]
    position: tuple[int, ...]
    kappa: int


def lpo_order(poset: Poset) -> LpoOrder:
    """Greedy extraction of an order where no later agent beats an earlier one.

    At each step the smallest-index agent not strictly below any remaining
    agent is extracted; such an agent always exists in a poset, and it is
    the same agent when only the direct pairs are considered.
    """
    if poset.is_ranking:
        return LpoOrder(poset.ranking, poset._rank, 0)
    order, _ = _extract(poset.source_pairs, poset.n)
    pos = [0] * poset.n
    for p, v in enumerate(order):
        pos[v] = p
    return LpoOrder(tuple(order), tuple(pos), poset.kappa())


def verify_lpo(order: Sequence[int], poset: Poset) -> bool:
    """Check by one mask test per position that no later agent is above it;
    the 2*kappa distance condition follows (see LpoOrder)."""
    if poset.is_ranking:
        # kappa = 0: every later agent must be below, so order is the ranking.
        return tuple(order) == poset.ranking
    if sorted(order) != list(range(poset.n)):
        return False
    later = 0  # the agents after v
    for v in reversed(order):
        if poset._lt[v] & later:
            return False
        later |= 1 << v
    return True


def maximum_bipartite_matching(adj: Sequence[Sequence[int]], n_right: int) -> int:
    """Size of a maximum matching; adj[u] lists the right-side vertices
    available to left vertex u."""
    masks = [sum(1 << v for v in set(row)) for row in adj]
    return _augment(masks, [-1] * n_right, [-1] * len(masks))


def _augment(adj: Sequence[int], match: list[int], mate: list[int]) -> int:
    """Grow a matching to maximum size by breadth-first augmenting paths;
    adj[u] masks the right vertices open to left vertex u, match[v] and
    mate[u] are partners or -1.  Right vertices a failed search reached
    lead to no free vertex: they stay excluded until the next augmentation.
    """
    free = sum(1 << v for v, u in enumerate(match) if u < 0)
    seen = 0
    for root in [u for u, v in enumerate(mate) if v < 0]:
        via = {}  # right vertex -> the left vertex that reached it
        queue = [root]
        for u in queue:  # the queue grows while it is read
            reach = adj[u] & ~seen
            seen |= reach
            hit = reach & free
            if hit:
                v = hit.bit_length() - 1
                via[v] = u
                break
            while reach:
                v = reach.bit_length() - 1
                reach ^= 1 << v
                via[v] = u
                queue.append(match[v])
        else:
            continue
        free ^= 1 << v
        seen = 0
        while v >= 0:  # flip the path back to the root
            u = via[v]
            match[v], mate[u], v = u, v, mate[u]
    return len(mate) - mate.count(-1)
