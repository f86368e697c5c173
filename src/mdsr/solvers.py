"""Stable-matching solvers: strict-order fast path, windowed dynamic
program over the agent order, and the large-d greedy construction."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, reduce
from itertools import accumulate, combinations
from operator import or_
from typing import Iterator, Optional

from .core import (
    Group,
    Instance,
    MasterPoset,
    Matching,
    normalize_matching,
    tupleset,
)
from .errors import (
    CertificateFailure,
    IncompletePreferences,
    NotStrictOrder,
    PreconditionViolated,
)
from .poset import LpoOrder
from .stability import find_blocking


def locality_bound(kappa: int, d: int) -> int:
    """Upper bound on the position gap between order-consecutive members
    of any group in a stable matching."""
    return 2 * kappa * d * d + 4 * kappa + 3 * d + 1


def group_span_bound(kappa: int, d: int) -> int:
    """Upper bound on the position gap between any two members of a group
    in a stable matching."""
    return d * locality_bound(kappa, d)


def default_window(kappa: int, d: int) -> int:
    return 2 * d * (d - 1) * group_span_bound(kappa, d)


def _complete_lpo(instance: Instance) -> LpoOrder:
    """The lpo order of a master poset with complete preferences; raises
    NotStrictOrder on another source, else IncompletePreferences if incomplete."""
    if not isinstance(instance.source, MasterPoset):
        raise NotStrictOrder("a master-poset source is required")
    if not instance.is_complete:
        raise IncompletePreferences("complete preferences are required")
    return instance.lpo()


def _blocked_by(instance: Instance, group) -> str:  # by agent names, as mdsr check
    return "blocked by {%s}" % ",".join(sorted(instance.group_names(group)))


def strict_order_solve(instance: Instance) -> Matching:
    """The unique stable matching, the lpo blocks, of a complete canonical
    master poset (any kappa) or a completion of a strict order; beyond
    _complete_lpo, raises NotStrictOrder on a completion of a poset with
    kappa > 0.

    In lpo positions, if t lies pointwise at or below t' != t, every agent
    ranks t above t': the canonical key is lexicographic, and in a strict
    order t dominates t'.  Stable: let p be the least position of a group
    g, in block B starting at s.  The agent x at p holds B - x, the
    pointwise least (d-1)-set of positions >= s other than p, and g - x is
    another, so x does not gain and g cannot block.  (Fewer than d
    positions lie at or above an unmatched one.)  Unique: every agent of
    the first block holds its first choice, and any matching without that
    block is blocked by it.  Remove the block and repeat.
    """
    if _complete_lpo(instance).kappa and not instance.is_canonical:
        raise NotStrictOrder("the completion is of a poset with incomparable agents")
    return instance.lpo_blocks()


@dataclass(frozen=True)
class GreedyStep:
    group: Group
    multiplicity: int


@dataclass(frozen=True)
class GreedyResult:
    matching: Matching
    steps: tuple[GreedyStep, ...]


def _greedy_applies(kappa: int, d: int) -> bool:
    return 4 * kappa * 2 ** (4 * kappa) <= d


def greedy_big_d_solve(instance: Instance) -> GreedyResult:
    """Always-succeeding construction for complete master-poset instances
    that meet the large-d precondition of plan() (kappa = 0 included);
    raises PreconditionViolated on any other.

    Repeatedly, among the first d-2*kappa remaining agents in the order,
    build each agent's top group over the remaining agents; some group is
    proposed by at least 4*kappa of them and no later blocking set can
    touch it.  Each step records that multiplicity as its certificate,
    and the matching is checked with find_blocking before it is returned.
    """
    lpo = _complete_lpo(instance)
    kappa, d = lpo.kappa, instance.d
    if not _greedy_applies(kappa, d):
        raise PreconditionViolated(
            f"requires 4*kappa*2^(4*kappa) <= d, got kappa={kappa}, d={d}"
        )
    order = lpo.order
    remaining = list(order)
    matched: set[int] = set()
    groups: list[Group] = []
    steps: list[GreedyStep] = []
    while len(remaining) >= d:
        counts: dict[Group, int] = {}
        for a in remaining[: d - 2 * kappa]:
            top = instance.first_choice(a, matched)
            g = tupleset(top + (a,))
            counts[g] = counts.get(g, 0) + 1
        best = max(counts.items(), key=lambda kv: (kv[1], [-x for x in kv[0]]))
        group, multiplicity = best
        if multiplicity < max(1, 4 * kappa):
            raise CertificateFailure(
                f"no group proposed {4 * kappa} times at step {len(steps)}"
            )
        groups.append(group)
        matched.update(group)
        remaining = [a for a in remaining if a not in group]
        steps.append(GreedyStep(group, multiplicity))
    matching = normalize_matching(groups)
    report = find_blocking(instance, matching)
    if report is not None:
        raise CertificateFailure(
            f"greedy matching is {_blocked_by(instance, report.group)} despite its certificates"
        )
    return GreedyResult(matching, tuple(steps))


def fpt_dp_solve(
    instance: Instance,
    window_size: Optional[int] = None,
    span: Optional[int] = None,
    max_n: int = 18,
) -> Optional[Matching]:
    """Find a stable matching, or None, by a sliding-window dynamic
    program over the agent order.

    The theoretical window grows like kappa*d^4, too wide to slide, so the
    default window_size searches exactly: brute force up to max_n
    agents, TooLarge above it.  A given window_size below n - 1 runs
    the sliding program; it is exact whenever the window is at least the
    theoretical bound.  It returns the first accepting matching that
    find_blocking clears; when every one is blocked, CertificateFailure
    names the first one's blocking group.  Below the bound, no accepting
    state proves nothing: the exact search answers up to max_n agents,
    and PreconditionViolated is raised above it.  A window or span below
    d - 1 leaves no room for a group and raises PreconditionViolated.

    The program reveals one order position r per step, r = 0..n-1, and
    may close a group ending at r whose members lie within span positions
    of it.  A position is settled once it is covered, lies more than span
    positions behind r, or r = n-1; a d-set of settled positions is
    checked for blocking once, at the step its last member settles.
    """
    kappa = _complete_lpo(instance).kappa
    n, d = instance.n, instance.d
    s = span if span is not None else group_span_bound(kappa, d)
    k = window_size if window_size is not None else default_window(kappa, d)
    if min(k, s) < d - 1:
        # A new group draws its d - 1 other members from the min(k, s)
        # positions before its last, so no group could ever form.
        raise PreconditionViolated(
            f"window {k} and span {s} must both be at least d - 1 = {d - 1}"
        )
    s = min(s, k)

    if window_size is not None and k < n - 1:
        first = None  # the first accepting matching's blocking report
        for matching in _sliding_dp(instance, k, s):
            report = find_blocking(instance, matching)
            if report is None:
                return matching
            first = first or report
        if first is not None:
            raise CertificateFailure(
                f"window {k} too small: returned matching is {_blocked_by(instance, first.group)}"
            )
        if n > max_n:
            raise PreconditionViolated(f"window {k} too small: no accepting state")
    from .stability import brute_force_solve

    return brute_force_solve(instance, max_n=max_n)


def _sliding_dp(instance: Instance, k: int, s: int) -> Iterator[Matching]:
    """The matchings of the accepting final states, in state order, from
    one forward pass over lpo positions: step r = 0..n-1 reveals r, and
    position r-k-1 leaves the window [r-k, r].  A state is the set of
    groups (in positions) touching the window and the count of positions
    that left it unmatched; its value is the chain (group, previous) of
    groups on the first path to reach it.  Each state takes no new group
    or one ending at r with its other members uncovered in
    [max(0, r-k, r-s), r).  A position is settled once it is covered,
    below r+1-s (no later group can claim it), or at the last step, and
    neither it nor its partners change afterwards; so step r checks only
    the d-sets of settled positions in [r-k-1, r] holding a newly settled
    one, and each d-set is checked once, when its last member settles.

    A check is a few operations on int masks over the at most C(k+2, d)
    d-sets of [lo, r], lo = max(0, r-k-1), numbered within the window:
    holds[p - lo] marks the d-sets holding p, and loses(g) those in which
    a member of g ranks the set no better than g.  A state and a new group
    (or none) survive iff every d-set that holds a newly settled position
    or a member of the new group, but no position still unsettled, is in
    loses of the new group or of a group of the state.  Each step builds
    its masks from d*C(k+2, d) rank keys, whatever the number of states.
    """
    order, rank_key = instance.lpo().order, instance.rank_key
    n, d = instance.n, instance.d

    @cache
    def rank(p, group):  # position p's rank key of the rest of group
        return rank_key(order[p], tupleset(order[q] for q in group if q != p))

    @cache
    def window(w):  # the d-sets of range(w), and per position their bits
        sets = list(combinations(range(w), d))
        return sets, [sum(1 << b for b, c in enumerate(sets) if j in c) for j in range(w)]

    states: dict = {(frozenset(), 0): None}
    for r in range(n):
        lo, layer = max(0, r - k - 1), {}
        sets, holds = window(r + 1 - lo)
        keys = [[] for _ in holds]  # (rank key, bit) of each d-set per position
        for bit, c in enumerate(sets):
            cand = tuple(lo + j for j in c)
            for j in c:
                keys[j].append((rank(lo + j, cand), 1 << bit))
        tails = []  # per position: its keys ascending, the bits of keys >= each
        for pairs in keys:
            pairs.sort()
            tail = accumulate((bit for _, bit in reversed(pairs)), or_, initial=0)
            tails.append(([key for key, _ in pairs], list(tail)[::-1]))

        @cache
        def loses(g):  # the d-sets in which a member of g fares no better
            mask = 0
            for p in g:
                if p >= lo:
                    ranked, tail = tails[p - lo]
                    mask |= tail[bisect_left(ranked, rank(p, g))]
            return mask

        cut = r + 1 if r == n - 1 else r + 1 - s  # pending below cut settle at r
        for (groups, unmatched), chain in states.items():
            covered = {p for g in groups for p in g}
            if r > k and lo not in covered:
                unmatched += 1
                if unmatched >= d:
                    continue  # d unmatched agents always block
            kept = frozenset(g for g in groups if g[-1] >= r - k)
            lost = reduce(or_, map(loses, groups), 0)
            pending = [p for p in range(max(0, r - s), r + 1) if p not in covered]
            for new in [()] + [c + (r,) for c in combinations(pending[:-1], d - 1)]:
                fresh = unsettled = 0
                for p in pending:
                    if p < cut or p in new:
                        fresh |= holds[p - lo]
                    else:
                        unsettled |= holds[p - lo]
                if fresh & ~unsettled & ~(lost | loses(new)):
                    continue
                nkey = (kept | {new} if new else kept, unmatched)
                if nkey not in layer:
                    layer[nkey] = (new, chain) if new else chain
        if r == k:  # the first path to a state wins it: fix the order
            layer = dict(sorted(layer.items(), key=lambda kv: _head_first(kv[0][0])))
        states = layer
        if not states:
            return

    for (groups, unmatched), chain in states.items():
        covered = {p for g in groups for p in g}
        if unmatched + sum(p not in covered for p in range(max(0, n - 1 - k), n)) < d:
            matching = []
            while chain is not None:
                group, chain = chain
                matching.append(tupleset(order[p] for p in group))
            yield normalize_matching(matching)


def _head_first(groups) -> tuple:
    """Sort key of a first-window matching: depth-first order that tries,
    at each free position, the groups headed there before skipping it."""
    heads = {g[0]: g[1:] for g in groups}
    members = {p for g in groups for p in g[1:]}
    free = (p for p in range(max(heads, default=-1) + 1) if p not in members)
    return tuple((0, heads[p]) if p in heads else (1,) for p in free)


def plan(instance: Instance) -> str:
    """The algorithm that auto_solve and `mdsr solve` run on an instance:
    "brute" unless the source is a master poset with complete preferences;
    then "greedy" when kappa >= 1 and 4*kappa*2^(4*kappa) <= d (it stays
    first on canonical posets, where it too returns the lpo blocks), else
    "strict" for kappa = 0 or a canonical source, else the window DP "dp".
    """
    if not isinstance(instance.source, MasterPoset) or not instance.is_complete:
        return "brute"
    kappa = instance.lpo().kappa
    if kappa and _greedy_applies(kappa, instance.d):
        return "greedy"
    return "strict" if kappa == 0 or instance.is_canonical else "dp"


def auto_solve(instance: Instance) -> Optional[Matching]:
    """A stable matching or None, by the algorithm plan(instance) picks,
    with its default parameters."""
    algo = plan(instance)
    if algo == "strict":
        return strict_order_solve(instance)
    if algo == "greedy":
        return greedy_big_d_solve(instance).matching
    if algo == "dp":
        return fpt_dp_solve(instance)
    from .stability import brute_force_solve

    return brute_force_solve(instance)
