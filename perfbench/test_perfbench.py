"""Tests of the benchmark itself, at reduced sizes.

    python3 -m pytest perfbench -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import refcheck
import worker
from run import E2E_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def declared(key):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[key]}


def test_declared_metrics_match_the_code():
    assert declared("end_to_end") == E2E_UNITS
    assert declared("per_layer") == worker.PER_LAYER_UNITS
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        assert {w["name"] for w in json.load(handle)["workloads"]} == set(worker.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(worker.WORKLOADS))
def test_every_metric_is_emitted(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--small"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1
    units = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _relabelled_chain():
    """Ranking [1, 2, 3, 0], d=3: {1, 2, 3} is the unique stable matching,
    and it leaves the lowest-index agent unmatched."""
    names = ["a0", "a1", "a2", "a3"]
    source = {"type": "master_poset", "ranking": ["a1", "a2", "a3", "a0"], "tiebreak": "canonical"}
    return gen.instance_doc(3, names, source)


def test_reference_finds_the_stable_matching_brute_force_misses():
    prefs = refcheck.Prefs(_relabelled_chain())
    assert prefs.stable_matchings() == [((1, 2, 3),)]
    assert not refcheck.in_brute_class(((1, 2, 3),), 4)
    assert refcheck.in_brute_class(((0, 1, 2),), 4)


def test_brute_no_stable_on_relabelled_chain_is_a_failed_op(tmp_path):
    class Repro(worker.ExactSmall):
        def instances(self, rng):
            yield "s0", _relabelled_chain(), {"brute": ["--algo", "brute"]}

    cli = worker.import_cli()
    workload = Repro(random.Random(0), tmp_path, True)
    plain, traced, _ = worker.measure(workload, cli, 0, False, None)
    assert plain[0][0].payload()["verdict"] == "NO-STABLE"
    attempted, failed, known, wrong = worker.judge_all(workload, plain, traced)
    assert attempted == failed == known["defect"] == worker.MIN_PASSES
    assert wrong == []


CERTIFICATE_FAILURE = "error: window 6 too small: returned matching is blocked by (0, 1, 2)"


def _wrongs(workload, outcomes):
    """Known failures and wrong answers when each outcome is its own op."""
    _, _, known, wrong = worker.judge_all(workload, [outcomes], [])
    return {k: v for k, v in known.items() if v}, wrong


def test_known_failures_are_excused_only_where_they_can_occur(tmp_path):
    small = gen.poset_doc(random.Random(1), 9, 3, 2, 0.5, (1, 2, 3), explicit=False)
    near_chain = gen.poset_doc(random.Random(2), 30, 3, 1, 0.7, (1, 2), explicit=False)

    class Both(worker.ExactSmall):
        def instances(self, rng):
            yield "s0", small, {}
            yield "c0", near_chain, {}

    workload = Both(random.Random(0), tmp_path, True)
    no_stable = json.dumps({"verdict": "NO-STABLE", "groups": None, "validated": False, "algo": "dp"})
    O = worker.Outcome
    # Only the forced-window DP on a small instance may fail its certificate.
    assert _wrongs(workload, [O("dp", "s0.dp", 0.1, 2, "", CERTIFICATE_FAILURE)]) == ({"window": 1}, [])
    for outcome in (
        O("dp", "c0.dp", 0.1, 2, "", CERTIFICATE_FAILURE),
        O("dp", "s0.dp", 0.1, 3, "", "error: too large"),
        O("brute", "s0.brute", 0.1, 3, "", "error: too large"),
        # A canonical near-chain always has a stable matching.
        O("dp", "c0.dp", 0.1, 0, no_stable, ""),
    ):
        assert _wrongs(workload, [outcome])[1], outcome
    prefs = refcheck.Prefs(near_chain)
    assert prefs.least_blocking(prefs.chain_matching()) is None

    chain = worker.ChainLarge(random.Random(0), tmp_path, True)
    for code, error in ((3, "error: too large"), (2, CERTIFICATE_FAILURE)):
        assert _wrongs(chain, [O("solve", "solve", 0.1, code, "", error)])[1]


def test_a_wrong_blocking_group_is_flagged():
    prefs = refcheck.Prefs(_relabelled_chain())
    stable = [["a1", "a2", "a3"]]
    verdict = worker._judge_check(prefs, stable, {"verdict": "UNSTABLE", "blocking": ["a0", "a1", "a2"]})
    assert verdict != "ok"
    assert worker._judge_check(prefs, stable, {"verdict": "STABLE", "blocking": None}) == "ok"


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns(".work", "traces", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "chain_large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
