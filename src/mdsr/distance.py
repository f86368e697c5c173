"""Recognizing strict-order-derived preferences and the deletion distance
to that class."""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Optional

from .core import Instance, _swaps, is_derived_from_poset, materialize_explicit
from .errors import BudgetExceeded, TooLarge, ValidationError
from .poset import Poset, lpo_order


def recover_strict_order(instance: Instance, agents=None) -> Optional[Poset]:
    """A strict total order of `agents` from which their lists are derived,
    or None if no such order exists.

    Single swaps force the direction of each agent pair: if some agent
    ranks t = S + {u} above t' = S + {v}, any generating order must put u
    above v.  A cycle or contradiction among the forced pairs means there
    is no generating order; otherwise their smallest-index-first extension
    is checked by is_derived_from_poset, which on complete lists is the
    same single-swap rule and on incomplete ones the pairwise check.
    """
    if instance.lists is None:
        instance = materialize_explicit(instance)
    lists = instance.lists
    agents = sorted(range(instance.n) if agents is None else agents)
    keep = set(agents)
    pairs, pools = set(), dict.fromkeys(agents, agents)
    for a in agents:
        pairs.update(_swaps([t for t in lists[a] if keep.issuperset(t)], pools))
    try:
        lpo = lpo_order(Poset.from_pairs(pairs, instance.n))
    except ValidationError:
        return None
    # Agents outside keep have no pairs and leave the extraction in index
    # order; the candidate ranks them last.
    candidate = Poset.from_ranking(sorted(lpo.order, key=lambda v: v not in keep))
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
    if instance.lists is None:
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
