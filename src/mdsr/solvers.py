"""Stable-matching solvers: strict-order fast path, windowed dynamic
program over the agent order, and the large-d greedy construction."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import inf
from typing import Optional

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
    WindowTooLarge,
)
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


def _require_poset(instance: Instance) -> None:
    if not isinstance(instance.source, MasterPoset):
        raise NotStrictOrder("a master-poset source is required")


def strict_order_solve(instance: Instance) -> Matching:
    """The unique stable matching when the master poset is a strict order:
    consecutive blocks of d agents along the order, the trailing n mod d
    agents unmatched."""
    _require_poset(instance)
    lpo = instance.lpo()
    if lpo.kappa:
        raise NotStrictOrder("the master poset has incomparable agents")
    if not instance.is_complete:
        raise IncompletePreferences("complete preferences are required")
    order = lpo.order
    n, d = instance.n, instance.d
    groups = [tupleset(order[i : i + d]) for i in range(0, n - d + 1, d)]
    return normalize_matching(groups)


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
    touch it.  Each step records that multiplicity as its certificate.
    """
    _require_poset(instance)
    if not instance.is_complete:
        raise IncompletePreferences("complete preferences are required")
    lpo = instance.lpo()
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
    return GreedyResult(normalize_matching(groups), tuple(steps))


def fpt_dp_solve(
    instance: Instance,
    window_size: Optional[int] = None,
    span: Optional[int] = None,
    window_cap: int = 18,
) -> Optional[Matching]:
    """Find a stable matching, or None, by a sliding-window dynamic
    program over the agent order.

    With default parameters the window always covers every instance small
    enough to enumerate (the theoretical window grows like kappa*d^4), so
    the search degenerates to an exact scan; larger instances raise
    WindowTooLarge.  Overriding window_size/span runs the genuine sliding
    program; it is exact whenever the window is at least the theoretical
    bound, and any matching it returns is re-validated.
    """
    _require_poset(instance)
    if not instance.is_complete:
        raise IncompletePreferences("complete preferences are required")
    n, d = instance.n, instance.d
    kappa = instance.lpo().kappa
    s = span if span is not None else group_span_bound(kappa, d)
    k = window_size if window_size is not None else default_window(kappa, d)
    s = min(s, k)

    if k >= n - 1:
        if n > window_cap:
            raise WindowTooLarge(
                f"window {k} covers all n={n} agents but n exceeds the "
                f"enumeration cap {window_cap}"
            )
        from .stability import brute_force_solve

        return brute_force_solve(instance, max_n=window_cap)

    result = _sliding_dp(instance, k, s)
    if result is not None:
        report = find_blocking(instance, result)
        if report is not None:
            raise CertificateFailure(
                f"window {k} too small: returned matching is blocked by "
                f"{report.group}"
            )
    return result


def _sliding_dp(instance: Instance, k: int, s: int) -> Optional[Matching]:
    """Forward pass over lpo positions with windows of k+1 positions.

    States are frozensets of groups (in order positions) touching the
    current window, plus the count of positions finalized unmatched.
    Groups enter when their maximum position is revealed and span at most
    s positions.  Blocking is checked over settled positions of the range
    [window start - 1, window end]; a position is settled once no future
    group can claim it.
    """
    order = instance.lpo().order
    n, d = instance.n, instance.d
    pos_to_agent = order
    rank = instance.rank_key

    def is_blocking_here(cand, limit) -> bool:
        for p in cand:
            rest = tuple(sorted(pos_to_agent[q] for q in cand if q != p))
            if rank(pos_to_agent[p], rest) >= limit.get(p, inf):
                return False
        return True

    def check_range(groups, lo: int, hi: int, settled) -> bool:
        """True iff some d-set of settled positions in [lo, hi] blocks."""
        limit = {}  # position -> rank key of its current partners
        for g in groups:
            for p in g:
                rest = tupleset(pos_to_agent[q] for q in g if q != p)
                limit[p] = rank(pos_to_agent[p], rest)
        positions = [p for p in range(max(0, lo), hi + 1) if settled(p)]
        for cand in combinations(positions, d):
            if is_blocking_here(cand, limit):
                return True
        return False

    # Initial states: matchings inside positions [0, k].
    def initial_states():
        positions = tuple(range(min(k + 1, n)))

        def rec(avail, acc):
            yield frozenset(acc)
            if len(avail) >= d:
                head = avail[0]
                for others in combinations(avail[1:], d - 1):
                    if others[-1] - head <= s:
                        g = (head,) + others
                        rest = tuple(
                            x for x in avail[1:] if x not in others
                        )
                        acc.append(g)
                        yield from rec(rest, acc)
                        acc.pop()
            # also allow skipping the head (it stays uncovered)
            if avail:
                yield from rec(avail[1:], acc)

        seen = set()
        for state in rec(positions, []):
            if state not in seen:
                seen.add(state)
                yield state

    def settled_after(r: int, covered):
        # future groups claim positions >= (r + 1) - s; uncovered positions
        # below that line can never be matched later
        if r >= n - 1:
            return lambda p: True

        def settled(p: int) -> bool:
            return p in covered or p < r + 1 - s

        return settled

    states: dict = {}
    for st in initial_states():
        covered = {p for g in st for p in g}
        settled = settled_after(k, covered)
        if not check_range(st, 0, min(k, n - 1), settled):
            states[(st, 0)] = None
    # predecessor map for reconstruction, keyed by (state key, boundary)
    parents: dict = {(key, 0): None for key in states}

    final_i = n - 1 - k  # last boundary; window [final_i, n-1]
    for i in range(0, final_i):
        next_states: dict = {}
        r = i + 1 + k  # newly revealed position
        for (st, unmatched) in states:
            retained = frozenset(g for g in st if max(g) >= i + 1)
            covered_ret = {p for g in retained for p in g}
            drop_unmatched = 1 if i not in {p for g in st for p in g} else 0
            base_un = unmatched + drop_unmatched
            if base_un >= d:
                continue  # d unmatched agents always block
            options = [(frozenset(), base_un)]
            pool = [
                p
                for p in range(max(i + 1, r - s), r)
                if p not in covered_ret
            ]
            for others in combinations(pool, d - 1):
                g = others + (r,)
                options.append((frozenset({g}), base_un))
            for added, un in options:
                # blocking is checked against st plus the new group, so a
                # group dropped at this step still shows its assignment
                check_groups = st | added
                covered = {p for g in check_groups for p in g}
                settled = settled_after(r, covered)
                if check_range(check_groups, i, r, settled):
                    continue
                key = (retained | added, un)
                if key not in next_states:
                    next_states[key] = None
                    parents[(key, i + 1)] = ((st, unmatched), i)
        states = {key: None for key in next_states}
        if not states:
            return None

    # Final acceptance: blocking over the tail was fully checked at the
    # last reveal, so only the unmatched count remains.
    best = None
    for (st, unmatched) in states:
        covered = {p for g in st for p in g}
        window_uncovered = sum(
            1 for p in range(final_i, n) if p not in covered
        )
        if unmatched + window_uncovered < d:
            best = (st, unmatched)
            break
    if best is None:
        return None

    # Reconstruct: walk parents collecting all groups ever committed.
    groups = set(best[0])
    key, i = best, final_i
    while parents.get((key, i)) is not None:
        key, i = parents[(key, i)]
        groups.update(key[0])
    return normalize_matching(
        tupleset(pos_to_agent[p] for p in g) for g in groups
    )


def plan(instance: Instance) -> str:
    """The algorithm that auto_solve and `mdsr solve` run on an instance.

    "brute" unless the source is a master poset and preferences are
    complete; then "strict" for a strict order (kappa = 0), "greedy" when
    4*kappa*2^(4*kappa) <= d, and the window DP ("dp") otherwise.
    """
    if not isinstance(instance.source, MasterPoset) or not instance.is_complete:
        return "brute"
    kappa = instance.lpo().kappa
    if kappa == 0:
        return "strict"
    return "greedy" if _greedy_applies(kappa, instance.d) else "dp"


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
