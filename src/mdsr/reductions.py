"""The six-agent instance without a stable matching, and the reduction
from exactly-one-in-three satisfiability to triple roommates with a
master list.

The six-agent instance is one table, `INSTABLE_MASTER`; the reduction
embeds it for every variable occurrence through a role map from its
agent names onto x[i,k] and z[i,k,1..5]."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Iterator

from .core import Instance, MasterListSets, Matching, normalize_matching, tupleset
from .errors import (
    InvalidAssignment,
    MalformedFormula,
    NotWellFormed,
    ParseError,
    TooLarge,
)

INSTABLE_NAMES = ("a", "b", "c", "d", "e", "f")

# Pairs ordered from most to least preferred; no matching of the six
# agents into two triples is stable under this master list.
INSTABLE_MASTER = (
    ("a", "b"),
    ("a", "c"),
    ("a", "d"),
    ("a", "f"),
    ("b", "e"),
    ("c", "d"),
    ("a", "e"),
    ("b", "f"),
    ("c", "e"),
    ("b", "d"),
    ("d", "e"),
    ("b", "c"),
    ("c", "f"),
    ("d", "f"),
    ("e", "f"),
)


def instable_instance() -> Instance:
    """Six agents, groups of three, master-list preferences, no stable
    matching."""
    return Instance.master_list(3, INSTABLE_NAMES, INSTABLE_MASTER)


@dataclass(frozen=True)
class OneInThreeFormula:
    """Positive CNF where every clause has three distinct variables and
    every variable occurs exactly three times; a solution makes exactly
    one variable per clause true."""

    n_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        counts = {i: 0 for i in range(1, self.n_vars + 1)}
        for clause in self.clauses:
            if len(clause) != 3 or len(set(clause)) != 3:
                raise MalformedFormula(f"clause {clause} needs 3 distinct variables")
            for v in clause:
                if v not in counts:
                    raise MalformedFormula(f"variable {v} out of range")
                counts[v] += 1
        bad = [v for v, c in counts.items() if c != 3]
        if bad:
            raise MalformedFormula(f"variables {bad} do not occur exactly 3 times")

    @property
    def n_clauses(self) -> int:
        return len(self.clauses)

    def is_solution(self, true_vars: Iterable[int]) -> bool:
        true_vars = set(true_vars)
        return all(len(true_vars.intersection(c)) == 1 for c in self.clauses)

    def solutions(self, guard: int = 22) -> Iterator[frozenset[int]]:
        if self.n_vars > guard:
            raise TooLarge(f"{self.n_vars} variables exceed the search guard")
        for bits in product((False, True), repeat=self.n_vars):
            true_vars = frozenset(
                i + 1 for i, bit in enumerate(bits) if bit
            )
            if self.is_solution(true_vars):
                yield true_vars


def parse_formula(text: str) -> OneInThreeFormula:
    """Parse the DIMACS-like format: a header line `p oit3 <vars>
    <clauses>` followed by one line of three variable indices per clause;
    `c` lines are comments."""
    n_vars = None
    expected = None
    clauses = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "oit3":
                raise ParseError(f"line {lineno}: bad header {line!r}")
            try:
                n_vars, expected = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: bad header {line!r}") from None
            continue
        try:
            vals = tuple(int(x) for x in line.split())
        except ValueError:
            raise ParseError(f"line {lineno}: expected integers, got {line!r}") from None
        if len(vals) != 3:
            raise ParseError(f"line {lineno}: expected 3 variables, got {len(vals)}")
        clauses.append(vals)
    if n_vars is None:
        raise ParseError("missing `p oit3` header")
    if expected != len(clauses):
        raise ParseError(f"header declares {expected} clauses, found {len(clauses)}")
    return OneInThreeFormula(n_vars, tuple(clauses))


@dataclass(frozen=True)
class SatReduction:
    """A triple-roommates instance encoding a formula.

    Agents: c[j], d[j] per clause; x[i,k] per variable occurrence;
    z[i,k,1..6] auxiliary agents per occurrence (69 agents for a formula
    with 3 clauses and 3 variables).
    """

    formula: OneInThreeFormula
    instance: Instance
    # occurrence (i, k) of the variable in clause slot (j, l), 1-based
    slot_occurrence: dict


def _sat_names(formula: OneInThreeFormula) -> list[str]:
    names = []
    for j in range(1, formula.n_clauses + 1):
        names.append(f"c[{j}]")
        names.append(f"d[{j}]")
    for i in range(1, formula.n_vars + 1):
        for k in (1, 2, 3):
            names.append(f"x[{i},{k}]")
        for k in (1, 2, 3):
            for p in range(1, 7):
                names.append(f"z[{i},{k},{p}]")
    return names


def sat_reduce(formula: OneInThreeFormula) -> SatReduction:
    """Build the master-list instance; it has a stable matching exactly
    when the formula has a solution."""
    names = _sat_names(formula)
    index = {name: i for i, name in enumerate(names)}

    slot_occurrence = {}
    seen = {i: 0 for i in range(1, formula.n_vars + 1)}
    for j, clause in enumerate(formula.clauses, 1):
        for l, v in enumerate(clause, 1):
            seen[v] += 1
            slot_occurrence[(j, l)] = (v, seen[v])

    def c(j):
        return index[f"c[{j}]"]

    def d(j):
        return index[f"d[{j}]"]

    def x(i, k):
        return index[f"x[{i},{k}]"]

    def z(i, k, p):
        return index[f"z[{i},{k},{p}]"]

    def y(j, l):
        return x(*slot_occurrence[(j, l)])

    master: list[tuple[int, int]] = []
    for j in range(1, formula.n_clauses + 1):
        master += [
            (c(j), d(j)),
            (y(j, 1), d(j)),
            (y(j, 3), c(j)),
            (y(j, 2), d(j)),
            (y(j, 2), c(j)),
            (y(j, 3), d(j)),
            (y(j, 1), c(j)),
        ]
    for i in range(1, formula.n_vars + 1):
        master += [
            (x(i, 1), x(i, 2)),
            (x(i, 2), x(i, 3)),
            (x(i, 1), x(i, 3)),
        ]
        for k in (1, 2, 3):
            # The six-agent unsolvable pattern on x[i,k] and z[i,k,1..5],
            # then the pairs with z[i,k,6] at the tail.
            six = (x(i, k),) + tuple(z(i, k, p) for p in range(1, 6))
            role = dict(zip(INSTABLE_NAMES, six))
            master += [(role[u], role[v]) for u, v in INSTABLE_MASTER]
            master += [(a, z(i, k, 6)) for a in six]
    head = [tupleset(p) for p in master]
    placed = set(head)
    rest = (p for p in combinations(range(len(names)), 2) if p not in placed)
    instance = Instance(3, names, MasterListSets((*head, *rest)))
    return SatReduction(formula, instance, slot_occurrence)


def sat_forward_matching(
    reduction: SatReduction, true_vars: Iterable[int]
) -> Matching:
    """The stable matching encoding a solution: each clause grouped with
    its true occurrence, false variables grouped among their occurrences,
    auxiliary agents in fixed triples."""
    formula = reduction.formula
    true_vars = set(true_vars)
    if not formula.is_solution(true_vars):
        raise InvalidAssignment(
            "assignment does not make exactly one variable per clause true"
        )
    inst = reduction.instance
    idx = inst.index
    groups = []
    for j, clause in enumerate(formula.clauses, 1):
        l = next(l for l, v in enumerate(clause, 1) if v in true_vars)
        i, k = reduction.slot_occurrence[(j, l)]
        groups.append((idx(f"c[{j}]"), idx(f"d[{j}]"), idx(f"x[{i},{k}]")))
    for i in range(1, formula.n_vars + 1):
        if i not in true_vars:
            groups.append(tuple(idx(f"x[{i},{k}]") for k in (1, 2, 3)))
        for k in (1, 2, 3):
            groups.append(tuple(idx(f"z[{i},{k},{p}]") for p in (1, 2, 3)))
            groups.append(tuple(idx(f"z[{i},{k},{p}]") for p in (4, 5, 6)))
    return normalize_matching(groups)


def sat_backward_assignment(
    reduction: SatReduction, matching: Matching
) -> frozenset[int]:
    """Recover the solution from a stable matching: a variable is true
    exactly when all three of its occurrence agents sit with clause
    pairs."""
    formula = reduction.formula
    inst = reduction.instance
    idx = inst.index
    partner = {}
    for g in matching:
        for a in g:
            partner[a] = set(g) - {a}
    clause_pairs = {
        frozenset((idx(f"c[{j}]"), idx(f"d[{j}]")))
        for j in range(1, formula.n_clauses + 1)
    }
    true_vars = set()
    for i in range(1, formula.n_vars + 1):
        with_clause = [
            k
            for k in (1, 2, 3)
            if frozenset(partner.get(idx(f"x[{i},{k}]"), ())) in clause_pairs
        ]
        if with_clause and len(with_clause) != 3:
            raise NotWellFormed(
                f"variable {i}: occurrences {with_clause} sit with clause "
                "pairs but the others do not"
            )
        if len(with_clause) == 3:
            true_vars.add(i)
    for j in range(1, formula.n_clauses + 1):
        pj = partner.get(idx(f"c[{j}]"))
        if pj is None or idx(f"d[{j}]") not in pj:
            raise NotWellFormed(f"clause {j}: c and d are not grouped together")
    if not formula.is_solution(true_vars):
        raise NotWellFormed("recovered assignment is not a solution")
    return frozenset(true_vars)
