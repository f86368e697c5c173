"""Mutated instance documents never escape the CLI as a traceback: solve,
check and stats exit 0, 2 or 3 on valid documents of every source kind
with an agent renamed, keys deleted, values replaced, members repeated or
entries doubled."""

import contextlib
import copy
import io
import json
from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mdsr.cli import run  # noqa: E402

NAMES = [f"a{i}" for i in range(6)]
SETS = [list(t) for t in combinations(NAMES, 2)]


def _doc(source, **extra):
    return dict({"version": "1", "d": 3, "agents": list(NAMES), "source": source}, **extra)


def _lists(sets):
    return {a: [t for t in sets if a not in t] for a in NAMES}


PAIRS = [["a0", "a2"], ["a1", "a2"], ["a2", "a3"], ["a3", "a4"], ["a4", "a5"]]
ACCEPTED = {a: [t for t in SETS if a not in t][:4] for a in NAMES}
DOCUMENTS = [
    _doc({"type": "explicit", "lists": _lists(SETS[::-1])}),
    _doc({"type": "explicit", "lists": ACCEPTED}, acceptability=ACCEPTED),
    _doc({"type": "master_list_sets", "order": SETS}),
    _doc({"type": "master_poset", "ranking": NAMES, "tiebreak": "canonical"}),
    _doc({"type": "master_poset", "pairs": PAIRS, "tiebreak": "canonical"}),
    _doc({"type": "master_poset", "ranking": NAMES, "tiebreak": "explicit", "completion": _lists(SETS)}),
    _doc({"type": "master_poset", "ranking": NAMES, "tiebreak": "canonical"}, acceptability=ACCEPTED),
]
MATCHING = {"version": "1", "groups": [NAMES[:3], NAMES[3:]]}
VALUES = [None, True, 1.5, -1, [], {}, "zz"]
# The values an agent can be renamed to: JSON object keys take only these.
RENAMES = [None, True, 1.5, -1, "zz"]


def _paths(node, path=()):
    """The path of every key and list item under node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _rename(node, name, value):
    """node with every occurrence of name, as a value or a key, replaced."""
    if isinstance(node, dict):
        return {(value if k == name else k): _rename(v, name, value) for k, v in node.items()}
    if isinstance(node, list):
        return [_rename(v, name, value) for v in node]
    return value if node == name else node


@st.composite
def mutated(draw):
    doc = draw(st.sampled_from(DOCUMENTS))
    if draw(st.booleans()):
        # an agent renamed throughout the document, keys included
        doc = _rename(doc, draw(st.sampled_from(NAMES)), draw(st.sampled_from(RENAMES)))
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *head, last = draw(st.sampled_from(paths))
        parent = doc
        for key in head:
            parent = parent[key]
        action = draw(st.sampled_from(["delete", "replace", "repeat", "duplicate"]))
        if action == "delete":
            del parent[last]
        elif action == "replace":
            parent[last] = draw(st.sampled_from(VALUES))
        elif isinstance(parent, list):
            # repeat a sibling in place of this member, or insert a copy of it
            if action == "repeat":
                parent[last] = copy.deepcopy(parent[draw(st.integers(0, len(parent) - 1))])
            else:
                parent.insert(last, copy.deepcopy(parent[last]))
    return doc


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "m.json").write_text(json.dumps(MATCHING))
    return root


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(doc=mutated())
def test_mutated_documents_exit_cleanly(files, doc):
    path = files / "instance.json"
    path.write_text(json.dumps(doc))
    matching = str(files / "m.json")
    commands = [
        ["solve", "--input", str(path)],
        ["check", "--instance", str(path), "--matching", matching],
        ["stats", "--instance", str(path)],
    ]
    for argv in commands:
        with contextlib.redirect_stderr(io.StringIO()):
            code = run(["--json", *argv], io.StringIO())
        assert code in (0, 2, 3), (argv, doc)
