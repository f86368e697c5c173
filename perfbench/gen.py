"""Seeded instance and matching documents for the benchmark workloads.

Every function takes a ``random.Random`` and returns plain JSON-ready
dicts; the same seed gives byte-identical documents.  Only the SAT
workload calls into ``mdsr`` (its reduction builds the instance).
"""

from __future__ import annotations

import random
from itertools import combinations

import refcheck

VERSION = "1"


def instance_doc(d: int, names, source: dict) -> dict:
    return {"version": VERSION, "d": d, "agents": list(names), "source": source}


def matching_doc(groups_of_names) -> dict:
    return {"version": VERSION, "groups": sorted(sorted(g) for g in groups_of_names)}


def chain(rng: random.Random, n: int, d: int):
    """A strict order given as a ranking; labels are a seeded permutation
    of the agent list.  Returns the document and the unique stable
    matching: consecutive blocks of d along the ranking."""
    names = [f"a{i}" for i in range(n)]
    ranking = names[:]
    rng.shuffle(ranking)
    doc = instance_doc(
        d, names, {"type": "master_poset", "ranking": ranking, "tiebreak": "canonical"}
    )
    blocks = [ranking[i : i + d] for i in range(0, n - d + 1, d)]
    return doc, blocks


def ladder(rng: random.Random, n: int, d: int, shuffle_agents: bool = False):
    """A kappa=1 ladder: each level holds two incomparable agents that sit
    above the whole next level, given as comparison pairs between
    consecutive levels.  Returns the document and the ladder positions
    (best first) as names.

    The labels are a seeded permutation.  The agent list follows the
    ladder, so agent indices run down it, unless ``shuffle_agents``: then
    the agent list is shuffled too and indices are arbitrary against the
    order, as in a document whose agents are listed in no particular way."""
    if n % 2:
        raise ValueError("a ladder needs an even number of agents")
    at = [f"a{i}" for i in range(n)]
    rng.shuffle(at)
    pairs = [
        [at[2 * level + i], at[2 * level + 2 + j]]
        for level in range(n // 2 - 1)
        for i in (0, 1)
        for j in (0, 1)
    ]
    rng.shuffle(pairs)
    agents = at[:]
    if shuffle_agents:
        rng.shuffle(agents)
    doc = instance_doc(
        d, agents, {"type": "master_poset", "pairs": pairs, "tiebreak": "canonical"}
    )
    return doc, at


def near_chain_pairs(rng: random.Random, n: int, reach: int, p: float):
    """Comparison pairs along a shuffled line of agents: agents more than
    ``reach`` apart are always ordered, closer ones with probability p."""
    line = list(range(n))
    rng.shuffle(line)
    return [
        (line[i], line[j])
        for i in range(n)
        for j in range(i + 1, n)
        if j - i > reach or rng.random() < p
    ]


def random_poset(rng: random.Random, n: int, reach: int, p: float, kappas):
    """Resample near-chain pairs until the poset's kappa is in ``kappas``."""
    while True:
        pairs = near_chain_pairs(rng, n, reach, p)
        above = refcheck.closure(n, pairs)
        if refcheck.kappa(above) in kappas:
            return pairs, above


def linear_extension(rng: random.Random, above) -> list[int]:
    """A uniformly chosen ready agent at each step: a random linear
    extension of the poset, returned as positions."""
    n = len(above)
    left = set(range(n))
    pos = [0] * n
    for p in range(n):
        ready = sorted(v for v in left if not (above[v] & left))
        v = rng.choice(ready)
        pos[v] = p
        left.discard(v)
    return pos


def poset_doc(rng: random.Random, n: int, d: int, reach: int, p: float, kappas, explicit: bool):
    """A master-poset instance with random pairs; with ``explicit`` each
    agent gets its own completion, sorted by position vectors under its own
    random linear extension (which respects set dominance)."""
    pairs, above = random_poset(rng, n, reach, p, kappas)
    names = [f"a{i}" for i in range(n)]
    source = {
        "type": "master_poset",
        "pairs": [[names[u], names[v]] for u, v in pairs],
        "tiebreak": "canonical",
    }
    if explicit:
        completion = {}
        for a in range(n):
            pos = linear_extension(rng, above)
            sets = [t for t in combinations(range(n), d - 1) if a not in t]
            sets.sort(key=lambda t: sorted(pos[x] for x in t))
            completion[names[a]] = [[names[x] for x in t] for t in sets]
        source["tiebreak"] = "explicit"
        source["completion"] = completion
    return instance_doc(d, names, source)


def one_in_three_formula(rng: random.Random, clauses: int):
    """A satisfiable positive one-in-three formula with as many variables
    as clauses, each variable in exactly three clauses, planted with a
    solution.  Returns (clauses as 1-based variable triples, true vars)."""
    if clauses % 3:
        raise ValueError("the planted formula needs a multiple of 3 clauses")
    n_true = clauses // 3
    order = list(range(clauses))
    rng.shuffle(order)
    slots = [[] for _ in range(clauses)]
    for v in range(n_true):
        for j in order[3 * v : 3 * v + 3]:
            slots[j].append(v + 1)
    false_vars = list(range(n_true + 1, clauses + 1))
    while True:
        occurrences = [v for v in false_vars for _ in range(3)]
        rng.shuffle(occurrences)
        rows = [
            slots[j] + occurrences[2 * j : 2 * j + 2] for j in range(clauses)
        ]
        if all(len(set(r)) == 3 for r in rows):
            break
    for r in rows:
        rng.shuffle(r)
    return [tuple(r) for r in rows], list(range(1, n_true + 1))
