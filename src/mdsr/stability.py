"""Blocking-set search and brute-force stable-matching enumeration.

find_blocking works on the integer keys of Instance.rank_key in two phases.
Master lists and canonical posets rank tuple-sets by one shared key, so a
pruned search first decides whether any group blocks: master lists walk
the master order and anchor each group at its member with the best current
partners; canonical posets build groups in lpo order, cutting a branch once
an earlier member cannot gain.  Only if some group blocks, or at once for
explicit lists and completions, a scan in index order finds the least.
The guard still bounds C(n, d) for every complete source.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations
from math import comb, inf
from typing import Iterator, Optional

from .core import Group, Instance, MasterListSets, MasterPoset, Matching
from .core import matching_violations, normalize_matching, position_key, tupleset
from .errors import TooLarge, ValidationError


@dataclass(frozen=True)
class BlockingReport:
    """A blocking group plus, per member, why it participates.

    evidence holds (agent, current tuple-set or None if unmatched,
    preferred tuple-set) triples.
    """

    group: Group
    evidence: tuple[tuple[int, Optional[tuple], tuple], ...]


def _partner_map(instance: Instance, m: Matching) -> dict:
    partners = {}
    for g in m:
        for a in g:
            partners[a] = tupleset(x for x in g if x != a)
    return partners


def is_blocking(instance: Instance, m: Matching, group: Group, partners=None):
    """A BlockingReport if the group blocks m, else None."""
    if partners is None:
        partners = _partner_map(instance, m)
    evidence = []
    for a in group:
        rest = tupleset(x for x in group if x != a)
        if not instance.acceptable(a, rest):
            return None
        current = partners.get(a)
        if current is None:
            evidence.append((a, None, rest))
        elif rest != current and instance.prefers(a, rest, current):
            evidence.append((a, current, rest))
        else:
            return None
    return BlockingReport(tuple(group), tuple(evidence))


def find_blocking(
    instance: Instance, m: Matching, guard: int = 10**8
) -> Optional[BlockingReport]:
    """The lexicographically least blocking group, or None if m is stable.

    guard bounds C(n, d) on complete instances, before any key is computed.
    Master lists and canonical posets return None unless the pruned search
    finds a blocking group; then, or at once for explicit lists, the index-
    order scan finds the least.  Incomplete instances scan acceptable groups.
    """
    problems = matching_violations(instance, m)
    if problems:
        raise ValidationError("; ".join(problems))
    partners = _partner_map(instance, m)
    n, d = instance.n, instance.d
    if not instance.is_complete:
        reports = (is_blocking(instance, m, g, partners) for g in _acceptable_groups(instance))
        return next(filter(None, reports), None)
    if comb(n, d) > guard:
        raise TooLarge("too many candidate groups to scan")
    key = instance.rank_key
    cur = [key(a, partners[a]) if a in partners else inf for a in range(n)]
    src = instance.source
    if isinstance(src, MasterListSets) and not _master_list_blocked(key, src.order, cur):
        return None
    if isinstance(src, MasterPoset) and src.completion is None:
        if not _canonical_blocked(instance.lpo().order, cur, d):
            return None
    for group in combinations(range(n), d):
        if all(key(a, group[:i] + group[i + 1 :]) < cur[a] for i, a in enumerate(group)):
            return is_blocking(instance, m, group, partners)
    return None


def _master_list_blocked(key, order, cur) -> bool:
    """True iff some group blocks, every agent ranking t at its master rank
    r.  Anchor each group at a member m with the least cur: m gains iff r <
    cur[m], so the anchors for t, r < cur[m] <= min(cur[y] for y in t), are
    a bisect range of the agents sorted by cur."""
    agents = sorted(range(len(cur)), key=cur.__getitem__)
    ranked = [cur[a] for a in agents]
    for r, t in enumerate(order):
        lo, hi = bisect_right(ranked, r), bisect_right(ranked, min(cur[y] for y in t))
        for m in agents[lo:hi]:
            if m not in t and all(
                key(y, tupleset(x if x != y else m for x in t)) < cur[y] for y in t
            ):
                return True
    return False


def _canonical_blocked(order, cur, d: int) -> bool:
    """True iff some group blocks under the canonical position_key.  Groups
    are built in increasing position, each member tested against the best
    completion, the positions right after the last chosen.  Keys only grow
    with later positions: once an earlier member fails, later choices do."""
    n, limit = len(order), [cur[a] for a in order]

    def gains(group, i, tail) -> bool:
        return position_key(group[:i] + group[i + 1 :] + tail, n) < limit[group[i]]

    def search(group: tuple) -> bool:
        j = d - len(group)  # members still to place, this level's included
        for q in range(group[-1] + 1 if group else 0, n - j + 1):
            g, tail = group + (q,), tuple(range(q + 1, q + j))
            if not all(gains(g, i, tail) for i in range(len(group))):
                return False
            if gains(g, len(group), tail) and (j == 1 or search(g)):
                return True
        return False

    return search(())


def is_stable(instance: Instance, m: Matching) -> bool:
    return find_blocking(instance, m) is None


def _acceptable_groups(instance: Instance) -> list[Group]:
    """All groups acceptable to every member, in lexicographic order."""
    groups = set()
    for a in range(instance.n):
        for t in instance.acceptable_sets(a):
            groups.add(tupleset(t + (a,)))
    return sorted(
        g
        for g in groups
        if all(
            instance.acceptable(a, tupleset(x for x in g if x != a)) for a in g
        )
    )


def _complete_matchings(n: int, d: int) -> Iterator[Matching]:
    """All matchings with exactly n // d groups (agents sorted within and
    between groups): the first free agent anchors a new group or, while
    fewer than n % d agents are left out, stays unmatched."""

    def rec(free: tuple[int, ...], spare: int, acc: list) -> Iterator[Matching]:
        if len(free) < d:
            yield tuple(acc)
            return
        head, rest = free[0], free[1:]
        for others in combinations(rest, d - 1):
            group = (head,) + others
            remaining = tuple(x for x in rest if x not in others)
            acc.append(group)
            yield from rec(remaining, spare, acc)
            acc.pop()
        if spare:
            yield from rec(rest, spare - 1, acc)

    yield from rec(tuple(range(n)), n % d, [])


def _incomplete_matchings(instance: Instance) -> Iterator[Matching]:
    groups = _acceptable_groups(instance)
    by_min = {}
    for g in groups:
        by_min.setdefault(g[0], []).append(g)

    n = instance.n

    def rec(a: int, used: set, acc: list) -> Iterator[Matching]:
        if a == n:
            yield normalize_matching(acc)
            return
        if a in used:
            yield from rec(a + 1, used, acc)
            return
        yield from rec(a + 1, used, acc)  # leave a unmatched
        for g in by_min.get(a, ()):
            if used.isdisjoint(g):
                used.update(g)
                acc.append(g)
                yield from rec(a + 1, used, acc)
                acc.pop()
                used.difference_update(g)

    yield from rec(0, set(), [])


def enumerate_stable(instance: Instance, max_n: int = 12) -> list[Matching]:
    """All stable matchings, sorted; exponential, guarded by max_n.

    With complete preferences any matching leaving d or more agents
    unmatched is blocked by them, so only maximal matchings are scanned,
    against a table of every group's (member, key of the rest) pairs.
    """
    if instance.n > max_n:
        raise TooLarge(f"n={instance.n} exceeds the enumeration guard {max_n}")
    if not instance.is_complete:
        return sorted(
            {m for m in _incomplete_matchings(instance) if find_blocking(instance, m) is None}
        )
    n, d, key = instance.n, instance.d, instance.rank_key
    table = {
        g: tuple((a, key(a, g[:i] + g[i + 1 :])) for i, a in enumerate(g))
        for g in combinations(range(n), d)
    }
    rows = list(table.values())
    stable = []
    for m in _complete_matchings(n, d):
        cur = [inf] * n
        for g in m:
            for a, k in table[g]:
                cur[a] = k
        if not any(all(k < cur[a] for a, k in row) for row in rows):
            stable.append(m)
    return sorted(stable)


def brute_force_solve(instance: Instance, max_n: int = 12) -> Optional[Matching]:
    """Lexicographically least stable matching, or None."""
    result = enumerate_stable(instance, max_n)
    return result[0] if result else None
