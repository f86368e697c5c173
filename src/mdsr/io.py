"""JSON documents for instances and matchings, and the marriage instance
and marriage matching documents of the marriage-with-ties reduction.

Canonical serialization is deterministic (sorted keys, fixed separators)
so parse -> serialize round-trips byte-identically.
"""

from __future__ import annotations

import json
from itertools import repeat
from operator import itemgetter

from .core import Explicit, Instance, MasterListSets, Matching, to_indices
from .errors import ParseError, ValidationError
from .poset import Poset
from .smti import SmtiInstance

VERSION = "1"


def _load(text: str, what: str = ""):
    """The decoded JSON document; when `what` names a versioned format,
    it must be an object with version "1"."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if what and (not isinstance(doc, dict) or doc.get("version") != VERSION):
        raise ParseError(f"{what} must be an object with version '1'")
    return doc


def _names_of(instance: Instance, t) -> list:
    return [instance.names[a] for a in t]


def serialize_instance(instance: Instance) -> str:
    doc: dict = {
        "version": VERSION,
        "d": instance.d,
        "agents": list(instance.names),
    }
    src = instance.source
    if isinstance(src, MasterListSets):
        order = [_names_of(instance, t) for t in src.order]
        source: dict = {"type": "master_list_sets", "order": order}
    elif isinstance(src, Explicit):
        source = {"type": "explicit"}
    else:
        source = {"type": "master_poset"}
        if src.poset.is_ranking:
            source["ranking"] = _names_of(instance, src.poset.order)
        else:
            source["pairs"] = [_names_of(instance, p) for p in src.poset.source_pairs]
        source["tiebreak"] = "canonical" if src.completion is None else "explicit"
    if instance.lists is not None:
        source["lists" if isinstance(src, Explicit) else "completion"] = {
            instance.names[a]: [_names_of(instance, t) for t in lst]
            for a, lst in enumerate(instance.lists)
        }
    doc["source"] = source
    if instance.acceptability is not None:
        doc["acceptability"] = {
            instance.names[a]: sorted(_names_of(instance, t) for t in sets)
            for a, sets in enumerate(instance.acceptability)
        }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def parse_instance(text: str) -> Instance:
    doc = _load(text, "instance document")
    del text  # decoded, so the text is freed before the instance is built
    for field in ("d", "agents", "source"):
        if field not in doc:
            raise ParseError(f"missing field {field!r}")
    d = doc["d"]
    names = doc["agents"]
    if not isinstance(d, int) or not isinstance(names, list):
        raise ParseError("field types: d must be int, agents a list")
    # JSON object keys are strings, so only string names can be given lists.
    if not all(map(isinstance, names, repeat(str))):
        raise ParseError("agent names must be strings")
    index = dict(zip(names, range(len(names))))
    if len(index) != len(names):
        raise ValidationError("agent names must be unique")

    # The JSON shape only: Instance converts each entry's names and checks
    # the entry once.
    def check_lists(lists, field: str) -> dict:
        if not (
            isinstance(lists, dict)
            and index.keys() >= lists.keys()
            and all(isinstance(lst, list) for lst in lists.values())
        ):
            raise ParseError(f"{field!r} must map declared agents to lists")
        return lists

    src = doc["source"]
    kind = src.get("type") if isinstance(src, dict) else None
    acc = doc.get("acceptability")
    if acc is not None:
        check_lists(acc, "acceptability")

    if kind == "explicit":
        instance = Instance.explicit(d, index, check_lists(src.get("lists"), "lists"))
        if acc is not None:
            if instance.acceptability is None:
                raise ParseError("acceptability given for complete explicit lists")
            given = (frozenset(instance.index_sets(acc.get(a, ()))) for a in instance.names)
            if tuple(given) != instance.acceptability:
                raise ParseError("acceptability differs from the sets on the lists")
        return instance
    if kind == "master_list_sets":
        order = src.get("order")
        if not isinstance(order, list):
            raise ParseError("'order' must be a list")
        if acc is not None:
            raise ParseError("acceptability given for a complete master list")
        return Instance.master_list(d, index, order)
    if kind == "master_poset":
        if "ranking" in src:
            # popped, so the name list dies once it is mapped to indices
            poset = Poset.from_ranking(to_indices(index, [src.pop("ranking")], ordered=True)[0])
        elif "pairs" in src:
            pairs = to_indices(index, src["pairs"], ordered=True)
            if any(len(p) != 2 for p in pairs):
                raise ParseError("'pairs' must be a list of agent pairs")
            poset = Poset.from_pairs(pairs, len(names))
        else:
            raise ParseError("master_poset needs either 'ranking' or 'pairs'")
        tiebreak = src.get("tiebreak", "canonical")
        completion = None
        if tiebreak == "explicit":
            completion = check_lists(src.get("completion", {}), "completion")
        elif tiebreak != "canonical":
            raise ParseError(f"unknown tiebreak {tiebreak!r}")
        return Instance.master_poset(d, index, poset, completion, acc)
    raise ParseError(f"unknown source type {kind!r}")


def named_groups(instance: Instance, m: Matching) -> list[list]:
    """The groups of m as sorted name lists, ordered by first name (they are disjoint)."""
    name = instance.names.__getitem__
    groups = [sorted(map(name, g)) for g in m]
    groups.sort(key=itemgetter(0))
    return groups


def serialize_groups(groups: list[list]) -> str:
    """The matching document of named_groups output."""
    doc = {"version": VERSION, "groups": groups}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def serialize_matching(instance: Instance, m: Matching) -> str:
    return serialize_groups(named_groups(instance, m))


def parse_matching(text: str, instance: Instance) -> Matching:
    doc = _load(text, "matching document")
    groups = doc.get("groups")
    if not isinstance(groups, list):
        raise ParseError("missing 'groups' list")
    return tuple(sorted(instance.index_sets(groups)))


# Marriage documents number men and women from 1; SmtiInstance and the
# marriage dicts of the reduction number them from 0.


def parse_smti_document(text: str) -> SmtiInstance:
    """JSON schema: {"version":"1","n":int,"tie_starts":[1-based j where
    w_j is tied with w_{j+1}],"acceptable":[[man,woman] 1-based]}."""
    doc = _load(text, "marriage document")
    try:
        n, acceptable = doc["n"], doc["acceptable"]
        tie_starts = doc.get("tie_starts", [])
        numbers = [n, *tie_starts, *(x for p in acceptable for x in p)]
        if not all(type(x) is int for x in numbers):
            raise TypeError("n, tie starts and pairs must be integers")
        return SmtiInstance(
            n,
            frozenset(j - 1 for j in tie_starts),
            frozenset((i - 1, j - 1) for i, j in acceptable),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed marriage document: {exc}") from None


def parse_marriage(text: str) -> dict:
    """A JSON list of [man, woman] pairs, one per man, as a man -> woman dict."""
    pairs = _load(text)
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(type(x) is int for x in p)
        for p in pairs
    ) or len({p[0] for p in pairs}) < len(pairs):
        raise ParseError("a marriage matching is a list of [man, woman] integer pairs, one per man")
    return {i - 1: j - 1 for i, j in pairs}


def serialize_marriage(marriage: dict) -> str:
    """The marriage matching document of a man -> woman dict."""
    return json.dumps([[i + 1, j + 1] for i, j in sorted(marriage.items())]) + "\n"
