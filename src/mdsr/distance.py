"""Recognizing strict-order-derived preferences and the deletion distance
to that class."""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Optional

from .core import Instance, _agent_lists, is_derived_from_poset, materialize_explicit
from .errors import BudgetExceeded, TooLarge
from .poset import Poset


def recover_strict_order(instance: Instance, agents=None) -> Optional[Poset]:
    """A strict total order of `agents` from which their lists are derived,
    or None if no such order exists.

    Single-element swaps force the direction of each agent pair: if some
    agent ranks t = S + {u} above t' = S + {v}, any generating order must
    put u above v.  The forced pairs either orient every pair acyclically
    (then the smallest-index-first topological order is checked in full)
    or there is no generating order.
    """
    if _agent_lists(instance) is None:
        instance = materialize_explicit(instance)
    lists = _agent_lists(instance)
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
    if is_derived_from_poset(instance, candidate, keep):
        return candidate
    return None


def deletion_distance(instance: Instance, max_budget: Optional[int] = None):
    """Smallest agent set whose removal leaves strict-order-derived lists.

    Returns (distance, deleted agent indices, order on the survivors).
    Searches subsets by size then lexicographically, so the witness is the
    lex-least among the smallest.
    """
    n = instance.n
    if max_budget is None:
        max_budget = n - 1
    if _agent_lists(instance) is None:
        instance = materialize_explicit(instance)
    for size in range(0, max_budget + 1):
        if comb(n, size) > 2 * 10**5:
            raise TooLarge("deletion-distance search space too large")
        for deleted in combinations(range(n), size):
            remaining = [a for a in range(n) if a not in deleted]
            order = recover_strict_order(instance, remaining)
            if order is not None:
                return size, list(deleted), order
    raise BudgetExceeded(f"no subset of size <= {max_budget} works")
