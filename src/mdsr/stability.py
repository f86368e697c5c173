"""Blocking-set search and brute-force stable-matching enumeration.

Both work on the integer keys of Instance.rank_key over one list of
candidate groups: every d-set for complete preferences, else the groups
acceptable to all their members.  A group blocks iff each member's key
for the others beats its key for its current partners.  Master lists and
canonical posets rank tuple-sets by one shared key, so find_blocking first
decides by a pruned search whether any group blocks: master lists walk the
master order and anchor each group at its member with the best current
partners; canonical posets build groups in lpo order, cutting a branch
once an earlier member cannot gain.  Only if some group blocks, or at once
for other sources, a scan of the candidates in index order finds the
least.  The guard still bounds C(n, d) for every complete source.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations
from math import comb, inf
from typing import Iterable, Iterator, Optional

from .core import Group, Instance, MasterListSets, MasterPoset, Matching
from .core import matching_violations, position_key, tupleset
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
    finds a blocking group; then, or at once for other sources, the index-
    order scan of the candidate groups finds the least.
    """
    problems = matching_violations(instance, m)
    if problems:
        raise ValidationError("; ".join(problems))
    n, d = instance.n, instance.d
    if instance.is_complete and comb(n, d) > guard:
        raise TooLarge("too many candidate groups to scan")
    partners = _partner_map(instance, m)
    key = instance.rank_key
    cur = [key(a, partners[a]) if a in partners else inf for a in range(n)]
    src = instance.source
    if instance.is_complete:
        if isinstance(src, MasterListSets) and not _master_list_blocked(key, src.order, cur):
            return None
        if isinstance(src, MasterPoset) and src.completion is None:
            if not _canonical_blocked(instance.lpo().order, cur, d):
                return None
    for group in _candidate_groups(instance):
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


def _candidate_groups(instance: Instance) -> Iterable[Group]:
    """The groups that can block or be matched, in lexicographic order."""
    if instance.is_complete:
        return combinations(range(instance.n), instance.d)
    return _acceptable_groups(instance)


def _matchings(n: int, d: int, spare: int, allowed=None) -> Iterator[Matching]:
    """Every matching of groups from allowed (any d-set if None), agents
    sorted within and between groups, leaving at most spare agents out
    before fewer than d are free: the first free agent anchors a new group
    or, while spare lasts, stays unmatched."""

    def rec(free: tuple[int, ...], spare: int, acc: list) -> Iterator[Matching]:
        if len(free) < d:
            yield tuple(acc)
            return
        head, rest = free[0], free[1:]
        for others in combinations(rest, d - 1):
            group = (head,) + others
            if allowed is not None and group not in allowed:
                continue
            remaining = tuple(x for x in rest if x not in others)
            acc.append(group)
            yield from rec(remaining, spare, acc)
            acc.pop()
        if spare:
            yield from rec(rest, spare - 1, acc)

    yield from rec(tuple(range(n)), spare, [])


def enumerate_stable(instance: Instance, max_n: int = 12) -> list[Matching]:
    """All stable matchings, sorted; exponential, guarded by max_n.

    Matchings are scanned against a table of every candidate group's
    (member, key of the rest) pairs.  With complete preferences any
    matching leaving d or more agents unmatched is blocked by them, so only
    maximal matchings are scanned; incomplete ones scan every matching of
    acceptable groups.
    """
    if instance.n > max_n:
        raise TooLarge(f"n={instance.n} exceeds the enumeration guard {max_n}")
    n, d, key = instance.n, instance.d, instance.rank_key
    table = {
        g: tuple((a, key(a, g[:i] + g[i + 1 :])) for i, a in enumerate(g))
        for g in _candidate_groups(instance)
    }
    rows = list(table.values())
    spare, allowed = (n % d, None) if instance.is_complete else (n, table)
    stable = []
    for m in _matchings(n, d, spare, allowed):
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
