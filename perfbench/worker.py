"""One workload process: generate the seeded documents, run the workload's
operations through ``mdsr.cli.run`` in passes for a fixed time, check every
answer against the reference, and print the measurements as one JSON line.

It prints ``READY`` on its own line as soon as set-up is done, which is how
``run.py`` times set-up.  ``--setup-only`` stops there.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gen
import refcheck
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MIN_PASSES = 3  # untraced passes per run, and traced ones with --trace 1

OP_KINDS = ("solve", "brute", "dp", "check", "check_blocked", "stats")


def import_cli():
    """mdsr.cli from this checkout's src/, and nowhere else."""
    if not (SRC / "mdsr" / "__init__.py").is_file():
        sys.exit(f"error: no mdsr package under {SRC}")
    sys.path.insert(0, str(SRC))
    from mdsr import cli

    if Path(cli.__file__).resolve().parent != SRC / "mdsr":
        sys.exit(f"error: mdsr was imported from {cli.__file__}, not {SRC}")
    return cli


@dataclass
class Outcome:
    kind: str
    tag: str
    seconds: float
    code: int | None
    out: str
    error: str  # what the CLI printed to stderr, or the uncaught exception

    def payload(self):
        return json.loads(self.out) if self.code == 0 else None


class Runner:
    """Runs one CLI operation at a time and records what it returned."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.outcomes: list[Outcome] = []

    def op(self, kind: str, tag: str, argv: list) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        code = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                if self.tracer is None:
                    code = self.cli.run(["--json"] + argv, out)
                else:
                    self.tracer.op = kind
                    code = self.tracer.call(
                        "cli.run", self.cli.run, (["--json"] + argv, out), {}, True
                    )
        except Exception as exc:  # an uncaught error is a failed op
            err.write(repr(exc))
        seconds = time.perf_counter() - start
        outcome = Outcome(kind, tag, seconds, code, out.getvalue(), err.getvalue().strip())
        self.outcomes.append(outcome)
        return outcome


# -- workloads ----------------------------------------------------------------


# Failures the program documents or is known for.  They count as failed
# ops but do not make the run's answers incorrect, and each is excused only
# for the ops that can have it: "defect" for brute-force ops and "window"
# for forced-window DP ops, both on exact_small instances with n <= 12.
KNOWN_FAILURES = {
    "defect": "brute force misses stable matchings that leave a low-index "
    "agent unmatched (stability._complete_matchings)",
    "window": "the sliding DP, forced below its proven window on an n <= 12 "
    "instance, answered NO-STABLE where a stable matching exists, or found "
    "its own answer blocked (CertificateFailure, exit 2)",
}


class Workload:
    """Documents live in ``workdir``; ``run_pass`` issues one pass of ops;
    ``judge`` returns, for one op that exited 0, "ok", a key of
    KNOWN_FAILURES, or the reason the answer is wrong; ``judge_exit`` does
    the same for an op that did not."""

    def __init__(self, rng: random.Random, workdir: Path, small: bool):
        self.workdir = workdir
        self.small = small
        self.mdsr_setup_s = 0.0  # set-up time spent inside mdsr calls
        self.setup(rng)

    def judge_exit(self, outcome) -> str:
        """The verdict on an op that exited non-zero or raised."""
        return f"exit code {outcome.code}: {outcome.error}"

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def write(self, name: str, doc: dict) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(doc))
        return path


def _names(payload_groups):
    return sorted(sorted(g) for g in payload_groups)


class ChainLarge(Workload):
    def setup(self, rng):
        n = 3_000 if self.small else 300_000
        doc, blocks = gen.chain(rng, n, 3)
        self.instance = self.write("chain.json", doc)
        self.witness = self.path("witness.json")
        self.blocks = blocks

    def run_pass(self, runner):
        runner.op("solve", "solve", ["solve", "--input", self.instance, "--witness", self.witness])

    def judge(self, outcome, outcomes):
        got = outcome.payload()
        if got["verdict"] != "STABLE" or got["algo"] != "strict" or not got["validated"]:
            return f"verdict {got['verdict']} by {got['algo']}"
        expected = _names(self.blocks)
        if got["groups"] != expected:
            return "groups are not consecutive blocks of the ranking"
        with open(self.witness, encoding="utf-8") as handle:
            if json.load(handle)["groups"] != expected:
                return "witness does not parse back to the same groups"
        return "ok"


class PairsGreedy(Workload):
    def setup(self, rng):
        n, d = (256, 64) if self.small else (2_000, 64)
        doc, at = gen.ladder(rng, n, d)
        self.instance = self.write("ladder.json", doc)
        # 32 consecutive two-agent levels per group, from the top.
        self.expected = _names(at[i * d : (i + 1) * d] for i in range(n // d))
        # A smaller ladder whose agent indices are shuffled against the
        # order: Poset.width (augmenting paths tried in index order) grows
        # like n^3 on it, where the ladder above costs it almost nothing.
        self.n_shuffled = 128 if self.small else 640
        doc, _ = gen.ladder(rng, self.n_shuffled, d, shuffle_agents=True)
        self.shuffled = self.write("shuffled.json", doc)
        self.n, self.d = n, d

    def run_pass(self, runner):
        runner.op("solve", "solve", ["solve", "--input", self.instance])
        runner.op("stats", "stats", ["stats", "--instance", self.instance])
        runner.op("stats", "stats.shuffled", ["stats", "--instance", self.shuffled])

    def judge(self, outcome, outcomes):
        got = outcome.payload()
        if outcome.kind == "stats":
            n = self.n_shuffled if outcome.tag == "stats.shuffled" else self.n
            want = {"n": n, "d": self.d, "kappa": 1, "width": 2, "lpo_verified": True, "algo": "greedy"}
            wrong = {k: got.get(k) for k, v in want.items() if got.get(k) != v}
            return f"stats {wrong}" if wrong else "ok"
        if got["algo"] != "greedy":
            return f"algo {got['algo']}"
        if got["groups"] != self.expected:
            return "groups are not unions of 32 consecutive levels"
        # The CLI labels a greedy matching it cannot verify UNSTABLE-EXISTS;
        # the greedy certificates make it stable either way.
        if got["verdict"] not in ("STABLE", "UNSTABLE-EXISTS") or got["validated"] != (
            got["verdict"] == "STABLE"
        ):
            return f"verdict {got['verdict']}, validated {got['validated']}"
        return "ok"


class ExactSmall(Workload):
    def setup(self, rng):
        self.docs = {}
        self.prefs = {}  # name -> reference preferences, built when judging
        self.stable = {}  # name -> every stable matching, filled on demand
        self.runs = {}  # name -> (path, solve arguments per op kind)
        for name, doc, ops in self.instances(rng):
            self.docs[name] = doc
            self.runs[name] = (self.write(f"{name}.json", doc), ops)

    def instances(self, rng):
        """(name, document, {op kind: solve arguments}) per instance."""
        for i in range(4 if self.small else 40):
            n = 9 if i % 2 == 0 else 10
            doc = gen.poset_doc(rng, n, 3, 2, 0.5, (1, 2, 3), explicit=(i // 2) % 2 == 1)
            window = ["--window-size", str(n - 3), "--span", str(n - 3)]
            yield f"s{i}", doc, {"brute": ["--algo", "brute"], "dp": ["--algo", "dp"] + window}
        for j, n in enumerate((30,) if self.small else (30, 35, 40)):
            doc = gen.poset_doc(rng, n, 3, 1, 0.7, (1, 2), explicit=False)
            yield f"c{j}", doc, {"dp": ["--algo", "dp", "--window-size", "8", "--span", "6"]}

    def run_pass(self, runner):
        for name, (path, ops) in self.runs.items():
            for kind, extra in ops.items():
                tag = f"{name}.{kind}"
                witness = self.path(f"{tag}.witness.json")
                got = runner.op(kind, tag, ["solve", "--input", path, "--witness", witness] + extra)
                if got.code == 0 and got.payload()["groups"] is not None:
                    runner.op("check", f"{tag}.check", ["check", "--instance", path, "--matching", witness])

    def judge(self, outcome, outcomes):
        name, kind = outcome.tag.split(".")[:2]
        if name not in self.prefs:
            self.prefs[name] = refcheck.Prefs(self.docs[name])
        prefs = self.prefs[name]
        if outcome.kind == "check":
            solved = outcomes[f"{name}.{kind}"].payload()
            return _judge_check(prefs, solved["groups"], outcome.payload())
        got = outcome.payload()
        if got["verdict"] == "STABLE":
            m = tuple(sorted(prefs.ids(g) for g in got["groups"]))
            ok = got["validated"] and prefs.is_matching(m) and prefs.least_blocking(m) is None
            return "ok" if ok else "returned matching is not stable"
        if got["verdict"] != "NO-STABLE":
            return f"verdict {got['verdict']}"
        if prefs.n > refcheck.ENUMERATION_LIMIT:
            chain = prefs.chain_matching()
            if chain is None or prefs.least_blocking(chain) is not None:
                return "NO-STABLE on an instance the reference cannot decide"
            return "NO-STABLE, but consecutive blocks of the canonical order are stable"
        if name not in self.stable:
            self.stable[name] = prefs.stable_matchings()
        stable = self.stable[name]
        if not stable:
            return "ok"
        if kind == "dp":
            return "window"
        if not any(refcheck.in_brute_class(m, prefs.n) for m in stable):
            return "defect"
        return "NO-STABLE, but a stable matching exists"

    def judge_exit(self, outcome):
        name = outcome.tag.split(".")[0]
        small = len(self.docs[name]["agents"]) <= refcheck.ENUMERATION_LIMIT
        certificate_failure = outcome.code == 2 and "too small: returned matching is blocked" in outcome.error
        if outcome.kind == "dp" and small and certificate_failure:
            return "window"
        return super().judge_exit(outcome)


def _judge_check(prefs, groups_of_names, got, expect_blocked=None) -> str:
    """Compare a check verdict with the verdict known by construction
    (``expect_blocked``) or else with the reference's full scan; a reported
    blocking group must block and be the least one."""
    m = tuple(sorted(prefs.ids(g) for g in groups_of_names))
    if got["verdict"] == "STABLE":
        if expect_blocked is not None:
            return "a blocked matching was reported stable" if expect_blocked else "ok"
        ref = prefs.least_blocking(m)
        return "ok" if ref is None else f"blocked by {ref}, reported stable"
    if got["verdict"] != "UNSTABLE":
        return f"verdict {got['verdict']}"
    if expect_blocked is False:
        return "a stable matching was reported blocked"
    g = prefs.ids(got["blocking"])
    if not prefs.blocks(prefs.partners(m), g):
        return f"reported group {got['blocking']} does not block"
    if prefs.least_blocking(m, stop_at=g) is not None:
        return f"reported group {got['blocking']} is not the least blocking group"
    return "ok"


class CheckScan(Workload):
    def setup(self, rng):
        from mdsr.io import serialize_instance, serialize_matching
        from mdsr.reductions import OneInThreeFormula, sat_forward_matching, sat_reduce

        self.cases = {}  # tag -> (kind, instance doc, groups of names, blocked?)
        n = 30 if self.small else 150
        doc, blocks = gen.chain(rng, n, 3)
        self.cases["chain"] = ("check", doc, blocks, False)
        # Swap a member of the block with the lowest-index agent (outside the
        # last block) with a member of a worse block: that block then blocks,
        # and the scan meets it among the first groups.
        index = {name: i for i, name in enumerate(doc["agents"])}
        first = min(range(len(blocks) - 1), key=lambda b: min(index[x] for x in blocks[b]))
        later = rng.randrange(first + 1, len(blocks))
        self.cases["chain.swap"] = ("check_blocked", doc, _swap(rng, blocks, first, later), True)

        clauses, true_vars = gen.one_in_three_formula(rng, 3 if self.small else 6)
        start = time.perf_counter()
        reduction = sat_reduce(OneInThreeFormula(len(clauses), tuple(clauses)))
        sat_text = serialize_instance(reduction.instance)
        m_text = serialize_matching(reduction.instance, sat_forward_matching(reduction, true_vars))
        self.mdsr_setup_s += time.perf_counter() - start
        sat_doc, m = json.loads(sat_text), json.loads(m_text)
        groups = m["groups"]
        self.cases["sat"] = ("check", sat_doc, groups, False)
        # Moving c[1] into an auxiliary triple leaves its clause triple blocking.
        head = next(b for b, g in enumerate(groups) if "c[1]" in g)
        aux = [b for b, g in enumerate(groups) if all(x.startswith("z[") for x in g)]
        swapped = _swap(rng, groups, head, rng.choice(aux), keep_first="c[1]")
        self.cases["sat.swap"] = ("check_blocked", sat_doc, swapped, True)

        self.paths = {}
        for tag, (kind, idoc, groups, _) in self.cases.items():
            self.paths[tag] = (
                self.write(f"{tag}.instance.json", idoc),
                self.write(f"{tag}.matching.json", gen.matching_doc(groups)),
            )

    def run_pass(self, runner):
        for tag, (kind, *_rest) in self.cases.items():
            inst, matching = self.paths[tag]
            runner.op(kind, tag, ["check", "--instance", inst, "--matching", matching])

    def judge(self, outcome, outcomes):
        kind, idoc, groups, blocked = self.cases[outcome.tag]
        return _judge_check(refcheck.Prefs(idoc), groups, outcome.payload(), blocked)


def _swap(rng, groups, a, b, keep_first=None):
    """Copy of groups with one member of groups[a] (keep_first if given)
    exchanged with a random member of groups[b]."""
    out = [list(g) for g in groups]
    x = keep_first if keep_first is not None else rng.choice(out[a])
    y = rng.choice(out[b])
    out[a][out[a].index(x)] = y
    out[b][out[b].index(y)] = x
    return out


WORKLOADS = {
    "chain_large": ChainLarge,
    "pairs_greedy": PairsGreedy,
    "exact_small": ExactSmall,
    "check_scan": CheckScan,
}


# -- measurement --------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _per_layer_defs():
    """name -> (unit, value from one traced pass snapshot)."""

    def self_of(*names):
        return lambda s: sum(v for (op, n), v in s["self"].items() if n in names)

    def layer(prefix):
        return lambda s: sum(v for (op, n), v in s["self"].items() if n.split(".")[0] == prefix)

    def count(name):
        return lambda s: s["counts"].get(name, 0)

    def calls(name):
        return lambda s: s["calls"].get(name, 0)

    def ratio(s):
        scanned = s["counts"].get("stability.matchings_scanned", 0)
        return s["counts"].get("stability.stable_found", 0) / scanned if scanned else 0.0

    defs = {"cli.self_s": ("s", self_of("cli.run"))}
    for prefix in spans.LAYERS[1:]:
        defs[f"{prefix}.self_s"] = ("s", layer(prefix))
    defs.update(
        {
            "io.parse_instance.self_s": ("s", self_of("io.parse_instance")),
            "io.parse_matching.self_s": ("s", self_of("io.parse_matching")),
            "io.serialize_matching.self_s": ("s", self_of("io.serialize_matching")),
            "io.bytes_in": ("B", count("io.bytes_in")),
            "core.instance_build_s": ("s", self_of("core.instance_build")),
            "core.prefers_calls": ("count", calls("core.prefers")),
            "core.prefers_s": ("s", self_of("core.prefers")),
            "core.first_choice_calls": ("count", calls("core.first_choice")),
            "core.first_choice_s": ("s", self_of("core.first_choice")),
            "poset.from_pairs_s": ("s", self_of("poset.from_pairs")),
            "poset.from_ranking_s": ("s", self_of("poset.from_ranking")),
            "poset.closure_size": ("count", count("poset.closure_size")),
            "poset.lpo_order_s": ("s", self_of("poset.lpo_order")),
            "poset.kappa_s": ("s", self_of("poset.kappa")),
            "poset.width_s": ("s", self_of("poset.width")),
            "poset.verify_lpo_s": ("s", self_of("poset.verify_lpo")),
            "solvers.strict_s": ("s", self_of("solvers.strict")),
            "solvers.greedy.self_s": ("s", self_of("solvers.greedy")),
            "solvers.greedy_steps": ("count", count("solvers.greedy_steps")),
            "solvers.dp.self_s": ("s", self_of("solvers.dp")),
            "stability.enumerate_stable.self_s": ("s", self_of("stability.enumerate_stable")),
            "stability.matchings_scanned": ("count", count("stability.matchings_scanned")),
            "stability.stable_per_scanned": ("frac", ratio),
            "stability.find_blocking.self_s": ("s", self_of("stability.find_blocking")),
            "stability.groups_scanned": ("count", calls("stability.is_blocking")),
            "stability.guard_trips": ("count", count("stability.guard_trips")),
        }
    )
    return defs


PER_LAYER_TRACED = _per_layer_defs()

# Per-layer metrics taken from the untraced passes of a --trace 1 run.
OP_UNITS = {f"op.{kind}_s": "s" for kind in OP_KINDS}
OP_UNITS.update({"op.brute_s.p90": "s", "op.dp_s.p90": "s", "op.error_rate": "frac", "op.verified_frac": "frac"})

PER_LAYER_UNITS = {name: unit for name, (unit, _) in PER_LAYER_TRACED.items()}
PER_LAYER_UNITS.update(OP_UNITS)
PER_LAYER_UNITS["trace.overhead_frac"] = "frac"
# The part of set-up that is mdsr's own: its import, and on check_scan the
# SAT reduction; the rest of setup_s is the benchmark generating documents.
PER_LAYER_UNITS["setup.mdsr_s"] = "s"


def snapshot(tracer: spans.Tracer, outcomes) -> dict:
    by_op = {}
    for (op, name), v in tracer.self_s.items():
        layer = name.split(".")[0]
        by_op.setdefault(op, {}).setdefault(layer, 0.0)
        by_op[op][layer] += v
    walls = {}
    for o in outcomes:
        walls[o.kind] = walls.get(o.kind, 0.0) + o.seconds
    snap = {
        "self": dict(tracer.self_s),
        "calls": dict(tracer.calls),
        "counts": dict(tracer.counts),
        "by_op": by_op,
        "op_wall": walls,
        "wall": sum(o.seconds for o in outcomes),
    }
    tracer.reset()
    return snap


def measure(workload, cli, seconds: float, trace: bool, trace_path: Path | None):
    """Passes until ``seconds`` have gone by (at least MIN_PASSES of each
    kind); with ``trace`` untraced and traced passes alternate."""
    tracer = spans.Tracer() if trace else None
    plain, traced = [], []
    # The benchmark's own documents and references stay out of the
    # collector's way, as they would in a CLI process, and every pass starts
    # with the same collector state.
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    while True:
        gc.collect()
        if trace and len(traced) < len(plain):
            runner = Runner(cli, tracer)
            with spans.installed(tracer):
                workload.run_pass(runner)
            traced.append((runner.outcomes, snapshot(tracer, runner.outcomes)))
        else:
            runner = Runner(cli)
            workload.run_pass(runner)
            plain.append(runner.outcomes)
        enough = len(plain) >= MIN_PASSES and (not trace or len(traced) >= MIN_PASSES)
        if enough and time.perf_counter() - start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None and trace_path is not None:
        tracer.write(trace_path)
    return plain, traced, peak_rss_mb


def judge_all(workload, plain, traced):
    """(attempted, failed, known failures by KNOWN_FAILURES key, wrong
    answers) over every op run.

    An op fails on a non-zero exit, an exception, an answer the reference
    contradicts, or an answer that differs from the first pass.  Every
    failure outside KNOWN_FAILURES is a wrong answer."""
    first = {o.tag: o for o in plain[0]}
    verdicts = {}
    for tag, o in first.items():
        try:
            verdicts[tag] = workload.judge(o, first) if o.code == 0 else workload.judge_exit(o)
        except (KeyError, TypeError, ValueError) as exc:
            verdicts[tag] = f"output could not be judged: {exc!r}"
    all_runs = [o for p in plain for o in p] + [o for p, _ in traced for o in p]
    known = dict.fromkeys(KNOWN_FAILURES, 0)
    failed = 0
    wrong = set()
    for o in all_runs:
        ref = first.get(o.tag)
        if ref is None or o.out != ref.out or o.code != ref.code:
            verdict = "answer differs between passes"
        else:
            verdict = verdicts[o.tag]
        if verdict == "ok":
            continue
        failed += 1
        if verdict in known:
            known[verdict] += 1
        else:
            wrong.add(f"{o.tag}: {verdict}")
    return len(all_runs), failed, known, sorted(wrong)


def op_metrics(plain, attempted, failed) -> tuple[dict, dict]:
    """Per-kind medians of pass sums and single-op p90s, from untraced
    passes; returns (values, sample counts)."""
    values, samples = {}, {}
    for kind in OP_KINDS:
        per_pass = [sum(o.seconds for o in p if o.kind == kind) for p in plain]
        values[f"op.{kind}_s"] = _median(per_pass)
        samples[f"op.{kind}_s"] = len(plain)
    for kind in ("brute", "dp"):
        ops = [o.seconds for p in plain for o in p if o.kind == kind]
        values[f"op.{kind}_s.p90"] = _p90(ops)
        samples[f"op.{kind}_s.p90"] = len(ops)
    returned = validated = 0
    for p in plain:
        for o in p:
            if o.kind in ("solve", "brute", "dp") and o.code == 0:
                got = o.payload()
                if got["groups"] is not None:
                    returned += 1
                    validated += bool(got["validated"])
    values["op.error_rate"] = failed / attempted
    samples["op.error_rate"] = attempted
    values["op.verified_frac"] = validated / returned if returned else 0.0
    samples["op.verified_frac"] = returned
    return values, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--small", action="store_true", help="reduced sizes, for tests")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    cli = import_cli()
    import_s = time.perf_counter() - start
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](random.Random(args.seed), workdir, args.small)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        trace_path = None
        if args.trace:
            (HERE / "traces").mkdir(exist_ok=True)
            trace_path = HERE / "traces" / f"{args.workload}-seed{args.seed}.json"
        plain, traced, peak_rss_mb = measure(workload, cli, args.seconds, bool(args.trace), trace_path)
        attempted, failed, known, wrong = judge_all(workload, plain, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values, samples = op_metrics(plain, attempted, failed)
    walls = [sum(o.seconds for o in p) for p in plain]
    result = {
        "attempted": attempted,
        "failed": failed,
        "known_failures": known,
        "wrong": wrong,
        "passes": len(plain),
        "pass_walls": walls,
    }
    if args.trace:
        snaps = [s for _, s in traced]
        for name, (unit, fn) in PER_LAYER_TRACED.items():
            values[name] = _median([fn(s) for s in snaps])
            samples[name] = len(snaps)
        values["trace.overhead_frac"] = _median([s["wall"] for s in snaps]) / _median(walls) - 1
        samples["trace.overhead_frac"] = len(snaps)
        result["accounting"] = _accounting(snaps)
    values["setup.mdsr_s"] = import_s + workload.mdsr_setup_s
    samples["setup.mdsr_s"] = 1
    values["wall_s"] = _median(walls)
    samples["wall_s"] = len(walls)
    values["peak_rss_mb"] = peak_rss_mb
    samples["peak_rss_mb"] = 1
    result["values"] = values
    result["samples"] = samples
    print(json.dumps(result), flush=True)
    return 0


def _accounting(snaps) -> dict:
    """Per op kind, the mean over traced passes of its wall time and of
    each layer's self time (cli is the op's own part outside every traced
    call), so that the layers sum to the wall time."""
    out = {}
    for kind in sorted({k for s in snaps for k in s["op_wall"]}):
        row = {"wall_s": statistics.fmean(s["op_wall"].get(kind, 0.0) for s in snaps)}
        for layer in spans.LAYERS:
            row[layer] = statistics.fmean(s["by_op"].get(kind, {}).get(layer, 0.0) for s in snaps)
        out[kind] = row
    return out


if __name__ == "__main__":
    sys.exit(main())
