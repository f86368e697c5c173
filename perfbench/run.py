#!/usr/bin/env python3
"""Benchmark of the mdsr solve/check/stats pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run starts fresh workload processes (``worker.py``), one at a time:
one that measures, and around it ``SETUP_SAMPLES - 1`` that only set up.  A
workload process imports ``mdsr`` from this checkout's ``src/``, generates
its documents from the seed, and drives ``mdsr --json solve|check|stats``
in-process through ``mdsr.cli.run`` as a closed loop of one caller.  It
repeats one pass of the workload's operations until S seconds have gone by
and checks every answer against references the benchmark computes itself.

Workloads (the ``why`` of each is also in BENCHMARK.json):

  chain_large   strict order n=300,000, d=3, as a ranking; ``solve --witness``.
  pairs_greedy  kappa=1 ladder n=2,000, d=64, as pairs; ``solve`` and ``stats``;
                and ``stats`` of a ladder n=640 whose agent indices are
                shuffled against the order (``Poset.width`` under an
                arbitrary index order).
  exact_small   40 random posets n=9,10 (``solve --algo brute``, forced-window
                ``--algo dp``) and 3 near-chains n=30-40 (``--algo dp
                --window-size 8 --span 6``); ``check`` of every witness.
  check_scan    ``check`` of stable matchings by full scans (canonical chain
                n=150; SAT reduction, 138 agents, master list), and of the
                same matchings with two agents swapped (early exit).

End-to-end metrics (--trace 0), medians over the run, tracing off:

  setup_s       process start to READY (mdsr import, document generation),
                median over SETUP_SAMPLES processes.  Most of it is the
                benchmark generating documents; the per-layer
                ``setup.mdsr_s`` is the part inside mdsr (its import, and
                the SAT reduction on check_scan).
  wall_s        summed time of one pass of operations, median over passes.
  peak_rss_mb   ru_maxrss of the measuring workload process.

Per-layer metrics (--trace 1) come from traced passes that alternate with
untraced ones in the same process, on the same seed; ``op.*`` metrics and
``trace.overhead_frac`` use the untraced passes.  Which end-to-end number
each layer metric should move, and where it should not move:

  io.*, cli.self_s, core.instance_build_s, poset.from_ranking_s,
  solvers.strict_s            -> wall_s on chain_large; not on check_scan
  poset.from_pairs_s, poset.closure_size, poset.lpo_order_s, poset.kappa_s,
  poset.width_s (the shuffled ladder), poset.verify_lpo_s,
  solvers.greedy.self_s, solvers.greedy_steps, core.first_choice_*
                              -> wall_s, peak_rss_mb on pairs_greedy;
                                 not on exact_small
  solvers.dp.self_s, stability.enumerate_stable.self_s,
  stability.matchings_scanned, stability.stable_per_scanned
                              -> wall_s on exact_small (op.dp_s, op.brute_s)
  stability.find_blocking.self_s, stability.groups_scanned, core.prefers_*
                              -> wall_s on check_scan (op.check_s, not
                                 op.check_blocked_s); op.dp_s on exact_small
  stability.guard_trips       -> op.verified_frac on pairs_greedy

The last stdout line is the JSON result.  ``failed`` counts every op that
exited non-zero, raised, gave an answer the reference contradicts, or
answered differently from the first pass.  ``correct`` is false when any
of those failures is outside ``worker.KNOWN_FAILURES``, each of which is
excused only on exact_small instances with n <= 12: on brute-force ops,
the enumeration defect (``stability._complete_matchings`` only tries
matchings whose unmatched agents lie above every group's lowest member);
on forced-window DP ops, NO-STABLE where a stable matching exists or a
CertificateFailure.  Any other non-zero exit, any NO-STABLE on a canonical
near-chain (consecutive blocks of its order are stable) and any failure on
another workload make ``correct`` false.
A human-readable report, with the known failures counted, goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from spans import LAYERS
from worker import KNOWN_FAILURES, PER_LAYER_UNITS, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 9
DEADLINE_S = 170

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class WorkerFailed(Exception):
    pass


def spawn(args: list, deadline: float) -> tuple[float, str]:
    """Run one workload process; return the seconds from its start to its
    READY line, and its last line of output."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args], stdout=subprocess.PIPE, text=True
    )
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read().strip().splitlines()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise WorkerFailed(f"workload process {' '.join(args)} exited with {code}")
    return setup_s, rest[-1] if rest else ""


def report(args, result, values, samples, units) -> None:
    err = sys.stderr
    print(
        f"{args.workload} seed={args.seed} passes={result['passes']} "
        f"ops attempted={result['attempted']} failed={result['failed']}",
        file=err,
    )
    print("  pass walls (s): " + " ".join(f"{w:.3f}" for w in result["pass_walls"]), file=err)
    for key, count in result["known_failures"].items():
        if count:
            print(f"  known failure x{count}: {KNOWN_FAILURES[key]}", file=err)
    for problem in result["wrong"][:20]:
        print(f"  WRONG {problem}", file=err)
    all_units = {**PER_LAYER_UNITS, **E2E_UNITS}
    for name in sorted(values):
        mark = "*" if name in units else " "
        print(
            f" {mark} {name:36} {values[name]:>14.6g} {all_units[name]:6} {samples[name]:>8} samples",
            file=err,
        )
    accounting = result.get("accounting")
    if accounting:
        print("traced op wall = sum of layer self times (mean per pass, s):", file=err)
        print(f"  {'op':14}{'wall':>10}" + "".join(f"{x:>10}" for x in LAYERS) + f"{'sum':>10}", file=err)
        for kind, row in accounting.items():
            total = sum(row[x] for x in LAYERS)
            cells = "".join(f"{row[x]:>10.4f}" for x in LAYERS)
            print(f"  {kind:14}{row['wall_s']:>10.4f}{cells}{total:>10.4f}", file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mdsr pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced sizes, for tests")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    base += ["--small"] if args.small else []
    probe = base + ["--seconds", "0", "--setup-only"]
    probes = 0 if args.trace else SETUP_SAMPLES - 1
    setups = []
    try:
        # Set-up probes before and after the measuring process, so that one
        # slow spell of the machine does not decide the median.
        for _ in range(probes // 2):
            setups.append(spawn(probe, deadline)[0])
        setup_s, line = spawn(
            base + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
        setups.append(setup_s)
        for _ in range(probes - probes // 2):
            setups.append(spawn(probe, deadline)[0])
        result = json.loads(line)
    except (WorkerFailed, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    values, samples = result["values"], result["samples"]
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
        samples["setup_s"] = len(setups)
    units = PER_LAYER_UNITS if args.trace else E2E_UNITS
    report(args, result, values, samples, units)
    out = {
        "correct": not result["wrong"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
