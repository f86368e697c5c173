import io
import json
import random
import time
import weakref

import pytest

import mdsr.cli
import mdsr.solvers
from mdsr import (
    BlockingReport,
    brute_force_solve,
    fpt_dp_solve,
    greedy_big_d_solve,
    parse_instance,
    serialize_instance,
    serialize_matching,
    strict_order_solve,
)
from mdsr.cli import run
from mdsr.errors import CertificateFailure
from mdsr.io import named_groups, serialize_groups

from util import (
    chain_instance,
    intro_instance,
    nostable_poset_instance,
    random_complete_instance,
    random_completion_instance,
    random_poset,
    reference_lpo_blocks,
    reference_named_groups,
    two_level_instance,
    unsorted_names,
)


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out)
    return code, out.getvalue()


def write_instance(tmp_path, inst, name="instance.json"):
    path = tmp_path / name
    path.write_text(serialize_instance(inst))
    return str(path)


def test_solve_brute_no_stable(tmp_path):
    gen_code, doc = invoke(["gen", "instable"])
    assert gen_code == 0
    path = tmp_path / "instable.json"
    path.write_text(doc)
    code, text = invoke(["solve", "--input", str(path), "--algo", "brute"])
    assert code == 0
    assert text.strip() == "NO-STABLE"


def test_solve_strict_chain(tmp_path):
    path = write_instance(tmp_path, chain_instance(6, 3))
    code, text = invoke(["--json", "solve", "--input", path])
    assert code == 0
    payload = json.loads(text)
    assert payload["verdict"] == "STABLE"
    assert payload["algo"] == "strict"
    assert payload["groups"] == [["a0", "a1", "a2"], ["a3", "a4", "a5"]]


def test_solve_dp_no_stable(tmp_path):
    path = write_instance(tmp_path, nostable_poset_instance())
    code, text = invoke(["solve", "--input", path, "--algo", "dp"])
    assert code == 0
    assert text.strip() == "NO-STABLE"


def test_solve_witness_checks_stable(tmp_path):
    inst = chain_instance(6, 3)
    path = write_instance(tmp_path, inst)
    witness = tmp_path / "matching.json"
    code, _ = invoke(
        ["solve", "--input", path, "--witness", str(witness)]
    )
    assert code == 0
    code, text = invoke(
        ["check", "--instance", path, "--matching", str(witness)]
    )
    assert code == 0
    assert text.strip() == "STABLE"


def test_check_reports_blocking_set(tmp_path):
    inst = intro_instance()
    path = write_instance(tmp_path, inst)
    m1 = tmp_path / "m1.json"
    m1.write_text(
        serialize_matching(
            inst, (inst.agents("a", "b", "c"), inst.agents("d", "e", "f"))
        )
    )
    code, text = invoke(["check", "--instance", path, "--matching", str(m1)])
    assert code == 0
    assert text.strip() == "UNSTABLE: blocking {a,b,d}"


def test_stats(tmp_path):
    path = write_instance(tmp_path, chain_instance(6, 3))
    code, text = invoke(["--json", "stats", "--instance", path])
    assert code == 0
    info = json.loads(text)
    assert info["n"] == 6 and info["d"] == 3
    assert info["kappa"] == 0 and info["width"] == 1
    assert info["algo"] == "strict"
    assert info["lpo_verified"] is True
    assert info["locality_bound"] == 10


def test_stats_plain_lines(tmp_path):
    path = write_instance(tmp_path, chain_instance(6, 3))
    code, text = invoke(["stats", "--instance", path, "--lambda-budget", "2"])
    assert code == 0
    assert text == (
        "algo=strict\nd=3\ndeleted=[]\nkappa=0\nlambda=0\nlocality_bound=10\n"
        "lpo_verified=True\nn=6\nwidth=1\nwindow=360\n"
    )


def test_stats_long_chain_from_pairs(tmp_path):
    # a0 > a1 > ... with the agents listed in shuffled order, so agent
    # indices run against the chain
    n = 2500
    names = [f"a{i}" for i in range(n)]
    agents = names[:]
    random.Random(1).shuffle(agents)
    doc = {
        "version": "1",
        "d": 3,
        "agents": agents,
        "source": {
            "type": "master_poset",
            "pairs": [[names[i], names[i + 1]] for i in range(n - 1)],
            "tiebreak": "canonical",
        },
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    code, text = invoke(["--json", "stats", "--instance", str(path)])
    assert code == 0
    info = json.loads(text)
    assert info["width"] == 1 and info["kappa"] == 0
    assert info["lpo_verified"] is True


def test_stats_lambda(tmp_path):
    path = write_instance(tmp_path, nostable_poset_instance())
    code, text = invoke(
        ["--json", "stats", "--instance", path, "--lambda-budget", "3"]
    )
    assert code == 0
    info = json.loads(text)
    assert info["kappa"] == 3
    assert info["lambda"] >= 0


def test_exit_codes(tmp_path):
    # usage error: unknown subcommand
    code, _ = invoke(["frobnicate"])
    assert code == 1
    # missing file
    code, _ = invoke(["solve", "--input", str(tmp_path / "nope.json")])
    assert code == 1
    # validation error: malformed document
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code, _ = invoke(["solve", "--input", str(bad)])
    assert code == 2
    # guard: brute force over the cap
    big = write_instance(tmp_path, chain_instance(14, 2), "big.json")
    code, _ = invoke(["solve", "--input", big, "--algo", "brute", "--max-n", "4"])
    assert code == 3


@pytest.mark.parametrize("algo", [[], ["--algo", "dp"]], ids=["auto", "dp"])
def test_max_n_bounds_the_dp_exact_search(tmp_path, capsys, algo):
    """--max-n caps the exact search whichever solver runs it: plan sends
    this six-agent poset to dp, whose default window searches exactly."""
    path = write_instance(tmp_path, nostable_poset_instance())
    code, out = invoke(["--json", "solve", "--input", path, "--max-n", "4"] + algo)
    assert (code, out) == (3, "")
    assert "exceeds the enumeration guard 4" in capsys.readouterr().err
    code, out = invoke(["--json", "solve", "--input", path] + algo)
    assert code == 0 and json.loads(out)["algo"] == "dp"


def test_forced_window_blocked_matching_exits_2(tmp_path, capsys):
    """A forced window too small for the instance gives only blocked
    matchings, which the DP refuses with the text the benchmark excuses.
    (At window 6 and span 6 two of its three accepting matchings are
    stable, and the DP returns one.)"""
    rng = random.Random(1)
    poset = random_poset(rng, 9, 0.5)
    path = write_instance(tmp_path, random_completion_instance(rng, 9, 3, poset))
    argv = ["solve", "--input", path, "--algo", "dp", "--window-size", "3", "--span", "2"]
    code, out = invoke(argv)
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert "too small: returned matching is blocked" in err
    # the blocking group is named by agents, as mdsr check prints it
    assert "blocked by {a5,a6,a7}" in err


def _doc(source, agents=("a", "b", "c"), **extra):
    return dict({"version": "1", "d": 2, "agents": list(agents), "source": source}, **extra)


EXPLICIT = {"type": "explicit", "lists": {"a": [["b"], ["c"]], "b": [["a"], ["c"]], "c": [["a"], ["b"]]}}
PAIRS = {"type": "master_poset", "pairs": [["a", "b"]], "tiebreak": "canonical"}
RANKING = {"type": "master_poset", "ranking": ["a", "b", "c"], "tiebreak": "canonical"}
ORDER = {"type": "master_list_sets", "order": [["a"], ["b"], ["c"]]}
# a d=3 master list of agents a-d with ["a", "a"] in place of ["a", "b"]
ORDER3 = {
    "type": "master_list_sets",
    "order": [["a", "a"], ["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"], ["c", "d"]],
}


@pytest.mark.parametrize(
    "doc",
    [
        _doc({"type": "explicit"}),
        _doc(PAIRS, acceptability=[["a", "b"]]),
        _doc(dict(PAIRS, pairs=[["a", "b", "c"]])),
        _doc(PAIRS, agents=(["a"], "b", "c")),
        _doc({"type": "master_list_sets", "order": 5}),
        _doc(dict(EXPLICIT, lists=dict(EXPLICIT["lists"], z=[["a"]]))),
        _doc(
            {
                "type": "master_poset",
                "ranking": ["a", "b", "c", "d"],
                "tiebreak": "explicit",
                "completion": {"a": [["b"]]},
            },
            agents=("a", "b", "c", "d"),
            acceptability={"a": [["b"], ["c"]], "c": [["a"]]},
        ),
        _doc(dict(ORDER, order=["a", ["b"], ["c"]])),
        _doc(dict(ORDER, order=[["a"], ["b"], ["z"]])),
        _doc(dict(RANKING, tiebreak="explicit", completion={"a": [["z"]]})),
        _doc(RANKING, acceptability={"a": [["b"]], "b": [["z"]]}),
        _doc(dict(RANKING, ranking=["a", "b", "z"])),
        _doc({"type": "explicit", "lists": {"a": [["b", "b"]]}}, agents="abcd", d=3),
        _doc(ORDER3, agents="abcd", d=3),
        _doc(dict(ORDER, order=[["a", "b"], ["b"], ["c"]])),
        _doc(dict(ORDER, order=[[["a"]], ["b"], ["c"]])),
        _doc({"type": "explicit", "lists": {"a": [["b"]]}}, acceptability={"a": [["c"]]}),
        _doc(ORDER, acceptability={"a": [["b"]]}),
        _doc(dict(RANKING, tiebreak="explicit")),
        _doc(dict(RANKING, tiebreak="explicit", completion=EXPLICIT["lists"] | {"c": [["a"]]})),
        _doc({"type": "explicit", "lists": {}}, d=0),
        _doc({"type": "explicit", "lists": {}}, d=-1),
        _doc(PAIRS, agents=("a", "b", None)),
        _doc(PAIRS, agents=("a", "b", True)),
        _doc(PAIRS, agents=("a", "b", 1.5)),
        _doc(PAIRS, agents=("a", "b", 3)),
        _doc(dict(PAIRS, pairs=[[1, 2]]), agents=(1, 2, 3)),
    ],
    ids=[
        "missing-lists",
        "acceptability-list",
        "three-element-pair",
        "unhashable-name",
        "order-not-a-list",
        "lists-undeclared-agent",
        "acceptable-set-not-in-completion",
        "order-entry-not-a-list",
        "order-undeclared-agent",
        "completion-undeclared-agent",
        "acceptability-undeclared-agent",
        "ranking-undeclared-agent",
        "list-entry-repeated-member",
        "order-entry-repeated-member",
        "order-entry-wrong-size",
        "order-entry-unhashable-member",
        "explicit-acceptability-not-the-lists",
        "master-list-acceptability",
        "explicit-tiebreak-without-completion",
        "completion-list-incomplete",
        "d-zero",
        "d-negative",
        "null-name",
        "true-name",
        "float-name",
        "mixed-integer-names",
        "integer-names",
    ],
)
def test_malformed_document_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, text = invoke(["stats", "--instance", str(path)])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--input", "instance.json"],
        ["check", "--instance", "instance.json", "--matching", "m.json"],
    ],
    ids=["solve", "check"],
)
def test_non_string_agent_name_exits_2(tmp_path, monkeypatch, capsys, argv):
    # Names of mixed types cannot be sorted for the output.
    monkeypatch.chdir(tmp_path)
    names = ["a", "b", "c", "d", "e", None]
    doc = _doc({"type": "master_poset", "ranking": names, "tiebreak": "canonical"}, names, d=3)
    (tmp_path / "instance.json").write_text(json.dumps(doc))
    (tmp_path / "m.json").write_text(json.dumps({"version": "1", "groups": [names[:3], names[3:]]}))
    code, text = invoke(["--json", *argv])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("group", [5, None, [["a"], "b", "c"]], ids=["int", "null", "nested-list"])
@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--instance", "instance.json", "--matching", "m.json"],
        ["reduce", "sat", "--formula", "formula.txt", "--extract", "m.json"],
    ],
    ids=["check", "reduce-extract"],
)
def test_malformed_matching_group_exits_2(tmp_path, monkeypatch, capsys, argv, group):
    monkeypatch.chdir(tmp_path)
    write_instance(tmp_path, intro_instance())
    (tmp_path / "formula.txt").write_text("p oit3 3 3\n1 2 3\n1 2 3\n1 2 3\n")
    (tmp_path / "m.json").write_text(json.dumps({"version": "1", "groups": [group]}))
    code, text = invoke(argv)
    assert (code, text) == (2, "")
    assert capsys.readouterr().err.startswith("error: ")


def test_solve_brute_leaves_low_index_agent_unmatched(tmp_path):
    doc = {
        "version": "1",
        "d": 3,
        "agents": ["a", "b", "c", "d"],
        "source": {"type": "master_poset", "ranking": ["b", "c", "d", "a"], "tiebreak": "canonical"},
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    code, text = invoke(["--json", "solve", "--input", str(path), "--algo", "brute"])
    assert code == 0
    payload = json.loads(text)
    assert (payload["verdict"], payload["groups"]) == ("STABLE", [["b", "c", "d"]])


def test_gen_gadgets():
    for kind in ("instable", "cutoff", "tie"):
        code, text = invoke(["gen", kind])
        assert code == 0
        assert '"version":"1"' in text
    code, text = invoke(["gen", "cutoff", "--drop-a"])
    assert code == 0
    assert '"A"' not in text


@pytest.mark.parametrize(
    "argv",
    [
        ["cutoff", "--drop-b"],
        ["instable", "--drop-a"],
        ["instable", "--drop-b"],
        ["tie", "--drop-a", "--drop-b"],
    ],
    ids=["cutoff-drop-b", "instable-drop-a", "instable-drop-b", "tie-drop-both"],
)
def test_gen_drop_without_role_exits_1(capsys, argv):
    code, text = invoke(["gen", *argv])
    assert (code, text) == (1, "")
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["sat", "--formula", "formula.txt", "--emit-matching"],
        ["smti", "--input", "smti.json", "--emit-matching"],
    ],
    ids=["sat-without-assignment", "smti-without-matching"],
)
def test_emit_matching_without_witness_exits_1(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "formula.txt").write_text("p oit3 3 3\n1 2 3\n1 2 3\n1 2 3\n")
    (tmp_path / "smti.json").write_text('{"version": "1", "n": 1, "acceptable": [[1, 1]]}')
    code, text = invoke(["reduce", *argv])
    assert (code, text) == (1, "")
    assert capsys.readouterr().err.startswith("error: --emit-matching needs")


@pytest.mark.parametrize(
    "argv",
    [
        ["sat", "--formula", "formula.txt", "--assignment", "2"],
        ["smti", "--input", "smti.json", "--matching", "pairs.json"],
    ],
    ids=["sat-assignment-alone", "smti-matching-alone"],
)
def test_witness_without_emit_matching_exits_1(tmp_path, monkeypatch, capsys, argv):
    """A witness is only read to emit its matching: alone it is refused
    rather than checked and dropped."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "formula.txt").write_text("p oit3 3 3\n1 2 3\n1 2 3\n1 2 3\n")
    (tmp_path / "smti.json").write_text('{"version": "1", "n": 1, "acceptable": [[1, 1]]}')
    (tmp_path / "pairs.json").write_text("[[1, 1]]")
    code, text = invoke(["reduce", *argv])
    assert (code, text) == (1, "")
    assert capsys.readouterr().err == f"error: {argv[3]} needs --emit-matching\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--input", "-"],
        ["check", "--instance", "-", "--matching", "m.json"],
    ],
    ids=["solve", "check"],
)
def test_instance_read_from_stdin(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    inst = chain_instance(6, 3)
    (tmp_path / "m.json").write_text(serialize_matching(inst, ((0, 1, 2), (3, 4, 5))))
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_instance(inst)))
    code, text = invoke(["--json", *argv])
    assert code == 0
    assert json.loads(text)["verdict"] == "STABLE"


def test_reduce_sat_round_trip(tmp_path):
    formula = tmp_path / "formula.txt"
    formula.write_text("p oit3 3 3\n1 2 3\n1 2 3\n1 2 3\n")
    code, doc = invoke(["reduce", "sat", "--formula", str(formula)])
    assert code == 0
    assert doc.count('"x[') > 0
    matching = tmp_path / "m.json"
    code, _ = invoke(
        [
            "reduce", "sat", "--formula", str(formula),
            "--assignment", "2", "--emit-matching",
            "--output", str(matching),
        ]
    )
    assert code == 0
    code, text = invoke(
        ["reduce", "sat", "--formula", str(formula), "--extract", str(matching)]
    )
    assert code == 0
    assert text.strip() == "2"


def test_reduce_smti_round_trip(tmp_path):
    doc = {
        "version": "1",
        "n": 1,
        "tie_starts": [],
        "acceptable": [[1, 1]],
    }
    smti_path = tmp_path / "smti.json"
    smti_path.write_text(json.dumps(doc))
    code, text = invoke(["reduce", "smti", "--input", str(smti_path)])
    assert code == 0
    assert '"a[1]"' in text
    marriage = tmp_path / "marriage.json"
    marriage.write_text("[[1,1]]")
    matching = tmp_path / "m.json"
    code, _ = invoke(
        [
            "reduce", "smti", "--input", str(smti_path),
            "--matching", str(marriage), "--emit-matching",
            "--output", str(matching),
        ]
    )
    assert code == 0
    code, text = invoke(
        ["reduce", "smti", "--input", str(smti_path), "--extract", str(matching)]
    )
    assert code == 0
    assert json.loads(text) == [[1, 1]]


@pytest.mark.parametrize(
    "argv",
    [
        ["smti", "--input", "three_element_pair.json"],
        ["smti", "--input", "smti.json", "--matching", "not_json.txt", "--emit-matching"],
        ["smti", "--input", "smti.json", "--matching", "not_pairs.json", "--emit-matching"],
        ["sat", "--formula", "formula.txt", "--assignment", "x", "--emit-matching"],
        ["smti", "--input", "float_pair.json"],
        ["smti", "--input", "float_tie_start.json"],
        ["smti", "--input", "float_n.json"],
    ],
    ids=[
        "three-element-acceptable",
        "marriage-not-json",
        "marriage-not-pairs",
        "assignment-not-int",
        "float-acceptable",
        "float-tie-start",
        "float-n",
    ],
)
def test_malformed_reduce_input_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    smti = {"version": "1", "n": 1, "tie_starts": [], "acceptable": [[1, 1]]}
    bad = {
        "three_element_pair": dict(smti, acceptable=[[1, 1, 1]]),
        "float_pair": dict(smti, acceptable=[[1.5, 1]]),
        "float_tie_start": dict(smti, n=2, tie_starts=[1.0], acceptable=[[1, 1], [1, 2]]),
        "float_n": dict(smti, n=2.0),
    }
    (tmp_path / "smti.json").write_text(json.dumps(smti))
    for name, doc in bad.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    (tmp_path / "not_json.txt").write_text("[[1, 1]")
    (tmp_path / "not_pairs.json").write_text("[1, 1]")
    (tmp_path / "formula.txt").write_text("p oit3 3 3\n1 2 3\n1 2 3\n1 2 3\n")
    code, text = invoke(["reduce"] + argv)
    assert (code, text) == (2, "")
    assert capsys.readouterr().err.startswith("error: ")


def test_solve_witness_is_serialize_matching(tmp_path):
    """mdsr solve writes the witness serialize_matching gives for the
    solver's matching and prints the same groups, on every algorithm."""
    rng = random.Random(10)

    def greedy(inst):
        return greedy_big_d_solve(inst).matching

    cases = [
        (random_complete_instance(rng, "ranking", n, d), "strict", strict_order_solve)
        for n, d in ((7, 2), (9, 3), (40, 4))
    ]
    cases += [(two_level_instance(n, 64), "greedy", greedy) for n in (128, 130)]
    for algo, solve in (("brute", brute_force_solve), ("dp", fpt_dp_solve)):
        cases += [
            (random_complete_instance(rng, kind, n, d), algo, solve)
            for kind in ("pairs", "completion")
            for n, d in ((8, 2), (9, 3), (10, 2))
        ]
        cases.append((nostable_poset_instance(), algo, solve))
    for i, (inst, algo, solve) in enumerate(cases):
        path, witness = tmp_path / f"{i}.json", tmp_path / f"{i}.witness.json"
        text = serialize_instance(inst)
        path.write_text(text)
        assert serialize_instance(parse_instance(text)) == text
        argv = ["--json", "solve", "--input", str(path), "--witness", str(witness)]
        code, out = invoke(argv + ["--algo", algo])
        assert code == 0
        payload = json.loads(out)
        m = solve(inst)
        if m is None:
            assert payload["groups"] is None and not witness.exists()
            continue
        # greedy too: the d = 64 ladders print STABLE, validated
        assert (payload["verdict"], payload["validated"]) == ("STABLE", True)
        assert witness.read_bytes() == serialize_matching(inst, m).encode()
        assert payload["groups"] == json.loads(witness.read_text())["groups"]


def test_blocked_greedy_matching_is_refused(tmp_path, monkeypatch, capsys):
    """greedy_big_d_solve checks its own matching: a blocked one raises
    CertificateFailure, exit 2 through the CLI, instead of being printed."""
    inst = two_level_instance(128, 64)

    def blocked(instance, m):
        return BlockingReport(m[0], ())

    monkeypatch.setattr(mdsr.solvers, "find_blocking", blocked)
    with pytest.raises(CertificateFailure, match="greedy matching is blocked"):
        greedy_big_d_solve(inst)
    path = write_instance(tmp_path, inst)
    code, out = invoke(["--json", "solve", "--input", path, "--algo", "greedy"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.startswith("error: greedy matching is blocked")


def test_solve_greedy_on_completion(tmp_path):
    # kappa = 1 (a0 and a1 incomparable above a chain) and n = d = 64, so
    # greedy applies and each list holds the one set of all other agents.
    names = [f"a{i}" for i in range(64)]
    pairs = [["a0", "a2"], ["a1", "a2"]] + [[u, v] for u, v in zip(names[2:], names[3:])]
    completion = {a: [[b for b in names if b != a]] for a in names}
    source = {"type": "master_poset", "pairs": pairs, "tiebreak": "explicit", "completion": completion}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(_doc(source, names, d=64)))
    code, text = invoke(["--json", "solve", "--input", str(path)])
    assert code == 0
    payload = json.loads(text)
    assert (payload["algo"], payload["verdict"], payload["validated"]) == ("greedy", "STABLE", True)
    assert payload["groups"] == [sorted(names)]


def test_solve_large_shuffled_ranking(tmp_path):
    """A floor against a quadratic step on the strict path: 10^5 agents
    solve with a witness in seconds, as consecutive blocks of the ranking."""
    n, d = 10**5, 3
    names = [f"a{i}" for i in range(n)]
    ranking = random.Random(3).sample(names, n)
    source = {"type": "master_poset", "ranking": ranking, "tiebreak": "canonical"}
    path, witness = tmp_path / "chain.json", tmp_path / "witness.json"
    path.write_text(json.dumps({"version": "1", "d": d, "agents": names, "source": source}))
    start = time.perf_counter()
    code, out = invoke(["--json", "solve", "--input", str(path), "--witness", str(witness)])
    elapsed = time.perf_counter() - start
    blocks = sorted(sorted(ranking[i : i + d]) for i in range(0, n - d + 1, d))
    assert code == 0 and elapsed < 5
    assert json.loads(out)["groups"] == blocks
    assert json.loads(witness.read_text())["groups"] == blocks


@pytest.mark.parametrize(
    "window",
    [["--window-size", "-3"], ["--window-size", "0"], ["--window-size", "3", "--span", "0"]],
    ids=["negative-window", "zero-window", "zero-span"],
)
def test_dp_window_below_group_size_exits_2(tmp_path, capsys, window):
    """A window or span below d - 1 leaves no room for a group: the DP
    refuses it instead of printing NO-STABLE on an instance with a stable
    matching."""
    names = [f"a{i}" for i in range(7)]
    pairs = [[names[i], names[i + 2]] for i in range(5)]  # two interleaved chains
    source = {"type": "master_poset", "pairs": pairs, "tiebreak": "canonical"}
    doc = {"version": "1", "d": 3, "agents": names, "source": source}
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(doc))
    assert brute_force_solve(parse_instance(path.read_text())) is not None
    code, out = invoke(["--json", "solve", "--input", str(path), "--algo", "dp"] + window)
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_solve_witness_bytes_match_the_reference_sorts(tmp_path):
    """The payload and the witness of a 3,000-agent shuffled ranking are
    the bytes that the whole-group sorts give, with names that sort
    differently from their indices."""
    rng = random.Random(2028)
    n, d = 3_000, 3
    names = unsorted_names(rng, n)
    source = {"type": "master_poset", "ranking": rng.sample(names, n), "tiebreak": "canonical"}
    path, witness = tmp_path / "chain.json", tmp_path / "witness.json"
    path.write_text(json.dumps({"version": "1", "d": d, "agents": names, "source": source}))
    code, out = invoke(["--json", "solve", "--input", str(path), "--witness", str(witness)])
    inst = parse_instance(path.read_text())
    groups = reference_named_groups(inst, reference_lpo_blocks(inst))
    payload = {"verdict": "STABLE", "algo": "strict", "groups": groups, "validated": True}
    doc = {"version": "1", "groups": groups}
    assert code == 0
    assert out == json.dumps(payload, sort_keys=True) + "\n"
    expected = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert witness.read_bytes() == expected.encode("utf-8")


def test_solve_releases_the_instance_before_encoding(tmp_path, monkeypatch):
    """mdsr solve keeps only the named groups: the Instance is gone by the
    time the witness is encoded."""
    path = write_instance(tmp_path, chain_instance(9, 3))
    instances, dead = [], []

    def spy_named_groups(instance, matching):
        instances.append(weakref.ref(instance))
        return named_groups(instance, matching)

    def spy_serialize_groups(groups):
        dead.extend(ref() is None for ref in instances)
        return serialize_groups(groups)

    monkeypatch.setattr(mdsr.cli, "named_groups", spy_named_groups)
    monkeypatch.setattr(mdsr.cli, "serialize_groups", spy_serialize_groups)
    code, _ = invoke(["--json", "solve", "--input", path, "--witness", str(tmp_path / "w.json")])
    assert code == 0
    assert dead == [True]
