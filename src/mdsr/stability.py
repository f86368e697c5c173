"""Blocking-set search and brute-force stable-matching enumeration.

Both work on the integer keys of Instance.rank_key over one list of
candidate groups: every d-set for complete preferences, else the groups
acceptable to all their members.  A group blocks iff each member's key
for the others beats its key for its current partners.  find_blocking
first decides whether any group blocks without scanning, where the source
allows: a complete canonical poset has one stable matching, its lpo
blocks, so m is stable iff it equals them, decided before any guard; a
master list, which can lack any stable matching, is decided by a pruned
search that walks the master order and anchors each group at its member
with the best current partners, and stops at the worst current rank.
Only if some group blocks, or at once for other sources, a scan of the
candidates in index order finds the least.
The guard bounds C(n, d) for the search and the scan on every complete
source.

Brute force is one pruned depth-first search over matchings.  It settles
agents in index order, each put in a group or left unmatched, and tests
every candidate group once, as soon as all its members are settled; a
blocking group cuts the branch.  The search yields the stable matchings
in lexicographic order, so brute_force_solve stops at the first.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, islice
from math import comb, inf
from typing import Iterable, Iterator, Optional

from .core import Group, Instance, MasterListSets, Matching
from .core import matching_violations, normalize_matching, tupleset
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

    A canonical poset is stable iff m equals its lpo blocks, whatever the
    guard.  Otherwise guard bounds C(n, d) on complete instances, before
    any key is computed; a master list is stable iff the pruned search
    finds no blocking group, and the index-order scan finds the least.
    The report comes from the key test; is_blocking, which validates each
    comparison through prefers, is its reference.
    """
    problems = matching_violations(instance, m)
    if problems:
        raise ValidationError("; ".join(problems))
    n, src, complete = instance.n, instance.source, instance.is_complete
    if complete and instance.is_canonical and normalize_matching(m) == instance.lpo_blocks():
        return None
    if complete and comb(n, instance.d) > guard:
        raise TooLarge("too many candidate groups to scan")
    partners = _partner_map(instance, m)
    key = instance.rank_key
    cur = [key(a, partners[a]) if a in partners else inf for a in range(n)]
    if complete and isinstance(src, MasterListSets):
        if not _master_list_blocked(key, src.order, cur):
            return None
    for group in _candidate_groups(instance):
        if all(key(a, group[:i] + group[i + 1 :]) < cur[a] for i, a in enumerate(group)):
            rests = (group[:i] + group[i + 1 :] for i in range(len(group)))
            return BlockingReport(group, tuple((a, partners.get(a), t) for a, t in zip(group, rests)))
    return None


def _master_list_blocked(key, order, cur) -> bool:
    """True iff some group blocks, every agent ranking t at its master rank
    r.  Anchor each group at a member m with the least cur: m gains iff r <
    cur[m], so the anchors for t, r < cur[m] <= min(cur[y] for y in t), are
    a bisect range of the agents sorted by cur.  None exists once r reaches
    max(cur), so checking a stable matching costs O(max cur + anchors), not
    O(C(n, d - 1)); an unmatched agent (cur = inf) keeps the whole walk."""
    agents = sorted(range(len(cur)), key=cur.__getitem__)
    ranked = [cur[a] for a in agents]
    for r, t in enumerate(islice(order, ranked[-1] if ranked[-1] < inf else None)):
        lo, hi = bisect_right(ranked, r), bisect_right(ranked, min(map(cur.__getitem__, t)))
        for m in agents[lo:hi]:
            if m not in t and all(
                key(y, tupleset(x if x != y else m for x in t)) < cur[y] for y in t
            ):
                return True
    return False


def _acceptable_groups(instance: Instance) -> list[Group]:
    """All groups acceptable to every member, in lexicographic order.
    Member a of g yields g exactly once iff g - a is in X_a, so g is
    acceptable to all its members iff it is yielded d times."""
    yielded = Counter(
        tupleset(t + (a,)) for a in range(instance.n) for t in instance.acceptable_sets(a)
    )
    return sorted(g for g, count in yielded.items() if count == instance.d)


def _candidate_groups(instance: Instance) -> Iterable[Group]:
    """The groups that can block or be matched, in lexicographic order."""
    if instance.is_complete:
        return combinations(range(instance.n), instance.d)
    return _acceptable_groups(instance)


def _matchings(n: int, d: int, spare: int, table: dict) -> Iterator[Matching]:
    """Every matching of groups from table that no group of table blocks,
    in lexicographic order.  table maps each candidate group, in
    lexicographic order, to its (member, key of the rest) pairs.

    Agents are sorted within and between groups, and at most spare agents
    are left out before fewer than d are free: the first free agent anchors
    a new group or, while spare lasts, stays unmatched.  An agent is
    settled once it is put in a group or left unmatched, and its current
    key never changes below that step.  Each step tests only the groups
    that hold a newly settled agent and have all their members settled,
    settling the new agents one at a time, and cuts the branch if one
    blocks; the agents still free at a leaf settle as unmatched.  So each
    group is tested exactly once on every root-to-leaf path, and the leaves
    reached are exactly the stable matchings.

    They come in lexicographic order, by induction over the nodes.  At a
    node with matched prefix acc and free agents F, the group branches
    yield acc + (g, ...) with g in combinations order.  The skip branch
    yields either matchings whose next group has a larger head, which sort
    after those, or acc itself, which sorts before them as their prefix.
    But acc leaves all of F unmatched, so it is yielded only if no
    candidate group lies inside F, and then the node has no group branch.
    The plainest case is a skip that leaves fewer than d agents, with
    exactly d free: acc comes after acc + (F,), but if F is acceptable to
    all its members it blocks acc, and if not, acc + (F,) is never
    generated.
    """
    heads = [[] for _ in range(n)]  # (group, mask, row) of the groups each agent heads
    rows = [[] for _ in range(n)]  # (key, mask, the others' pairs) per group holding an agent
    for group, row in table.items():
        mask = sum(1 << a for a in group)
        heads[group[0]].append((group, mask, row))
        for i, (a, k) in enumerate(row):
            rows[a].append((k, mask, row[:i] + row[i + 1 :]))
    for own in rows:
        own.sort(key=lambda r: r[0])
    cur = [inf] * n

    def settle(agents, free: int) -> bool:
        """Settle agents in turn; False once a group settled with them
        blocks.  Agent a gains only from the groups it ranks above cur[a],
        a prefix of rows[a]."""
        for a in agents:
            free &= ~(1 << a)
            gain = cur[a]
            for k, mask, others in rows[a]:
                if k >= gain:
                    break
                if not mask & free and all(kx < cur[x] for x, kx in others):
                    return False
        return True

    def rec(free: int, spare: int, acc: list) -> Iterator[Matching]:
        if free.bit_count() < d:
            left = [a for a in range(n) if free >> a & 1]
            for a in left:
                cur[a] = inf
            if settle(left, free):
                yield tuple(acc)
            return
        head = (free & -free).bit_length() - 1
        for group, mask, row in heads[head]:
            if mask & free == mask:
                for a, k in row:
                    cur[a] = k
                if settle(group, free):
                    acc.append(group)
                    yield from rec(free & ~mask, spare, acc)
                    acc.pop()
        if spare:
            cur[head] = inf
            if settle((head,), free):
                yield from rec(free & ~(1 << head), spare - 1, acc)

    yield from rec((1 << n) - 1, spare, [])


def _stable_matchings(instance: Instance, max_n: int) -> Iterator[Matching]:
    """The stable matchings in lexicographic order, lazily; the guard and
    the key table are checked and built at the call."""
    if instance.n > max_n:
        raise TooLarge(f"n={instance.n} exceeds the enumeration guard {max_n}")
    n, d, key = instance.n, instance.d, instance.rank_key
    table = {
        g: tuple((a, key(a, g[:i] + g[i + 1 :])) for i, a in enumerate(g))
        for g in _candidate_groups(instance)
    }
    # With complete preferences d unmatched agents block, so only maximal
    # matchings can be stable; incomplete ones may leave anyone out.
    spare = n % d if instance.is_complete else n
    return _matchings(n, d, spare, table)


def enumerate_stable(instance: Instance, max_n: int = 12) -> list[Matching]:
    """All stable matchings, sorted; exponential, guarded by max_n.

    The pruned search of _matchings settles agents in index order and cuts
    a branch as soon as a group of settled agents blocks, so it visits only
    prefixes of matchings that no settled group blocks, and it yields the
    stable matchings already in lexicographic order.
    """
    return list(_stable_matchings(instance, max_n))


def brute_force_solve(instance: Instance, max_n: int = 12) -> Optional[Matching]:
    """Lexicographically least stable matching, or None: the first one the
    pruned search of _matchings yields, which then stops."""
    return next(_stable_matchings(instance, max_n), None)
