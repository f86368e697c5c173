"""Command-line interface.

Exit codes: 0 success, 1 usage, 2 validation, 3 guard exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import Optional

from .core import MasterPoset
from .errors import MdsrError, ParseError, TooLarge, ValidationError
from .io import (
    named_groups,
    parse_instance,
    parse_marriage,
    parse_matching,
    parse_smti_document,
    serialize_groups,
    serialize_instance,
    serialize_marriage,
    serialize_matching,
)
from .poset import verify_lpo
from .reductions import (
    instable_instance,
    parse_formula,
    sat_backward_assignment,
    sat_forward_matching,
    sat_reduce,
)
from .smti import (
    cutoff_gadget_instance,
    smti_backward,
    smti_forward,
    smti_reduce,
    tie_gadget_instance,
)
from .solvers import (
    default_window,
    fpt_dp_solve,
    greedy_big_d_solve,
    locality_bound,
    plan,
    strict_order_solve,
)
from .stability import brute_force_solve, find_blocking

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_GUARD = 3


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _write(path: Optional[str], text: str, out) -> None:
    if path is None or path == "-":
        out.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _emit(args, out, human: str, payload: dict) -> None:
    if args.json:
        out.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        out.write(human + "\n")


def _solve_groups(args) -> tuple:
    """The algorithm run and the named groups it returned, or None; only
    these outlive the call, so the instance and the index matching are
    released before the payload and the witness are encoded."""
    instance = parse_instance(_read(args.input))
    algo = plan(instance) if args.algo == "auto" else args.algo
    # The exact searches keep their own default caps unless --max-n is given.
    cap = {} if args.max_n is None else {"max_n": args.max_n}
    if algo == "strict":
        matching = strict_order_solve(instance)
    elif algo == "greedy":
        matching = greedy_big_d_solve(instance).matching
    elif algo == "dp":
        matching = fpt_dp_solve(
            instance, window_size=args.window_size, span=args.span, **cap
        )
    else:
        matching = brute_force_solve(instance, **cap)
    return algo, None if matching is None else named_groups(instance, matching)


def _cmd_solve(args, out) -> int:
    algo, groups = _solve_groups(args)
    # Every solver returns only stable matchings: strict blocks are stable
    # by construction, and greedy, dp and brute check what they return.
    validated = groups is not None
    verdict = "STABLE" if validated else "NO-STABLE"
    payload = {"verdict": verdict, "algo": algo, "groups": groups, "validated": validated}
    _emit(args, out, verdict, payload)
    if args.witness and validated:
        _write(args.witness, serialize_groups(groups), out)
    return EXIT_OK


def _cmd_check(args, out) -> int:
    instance = parse_instance(_read(args.instance))
    matching = parse_matching(_read(args.matching), instance)
    report = find_blocking(instance, matching, guard=args.guard)
    if report is None:
        _emit(args, out, "STABLE", {"verdict": "STABLE", "blocking": None})
    else:
        blocking = sorted(instance.group_names(report.group))
        _emit(
            args,
            out,
            "UNSTABLE: blocking {%s}" % ",".join(blocking),
            {"verdict": "UNSTABLE", "blocking": blocking},
        )
    return EXIT_OK


def _cmd_stats(args, out) -> int:
    instance = parse_instance(_read(args.instance))
    info: dict = {"n": instance.n, "d": instance.d}
    src = instance.source
    if isinstance(src, MasterPoset):
        lpo = instance.lpo()
        info["kappa"] = lpo.kappa
        info["width"] = src.poset.width()
        info["locality_bound"] = locality_bound(lpo.kappa, instance.d)
        info["window"] = default_window(lpo.kappa, instance.d)
        info["lpo_verified"] = verify_lpo(lpo.order, src.poset)
    info["algo"] = plan(instance)
    if args.lambda_budget is not None:
        from .distance import deletion_distance

        dist, deleted, _ = deletion_distance(instance, args.lambda_budget)
        info["lambda"] = dist
        info["deleted"] = [instance.names[a] for a in deleted]
    _emit(args, out, "\n".join(f"{key}={info[key]}" for key in sorted(info)), info)
    return EXIT_OK


def _cmd_gen(args, out) -> int:
    # instable has no role to drop, cutoff drops A, tie drops A or B.
    bad_b = args.drop_b and (args.kind != "tie" or args.drop_a)
    if bad_b or args.drop_a and args.kind == "instable":
        return _usage(f"gen {args.kind} has no role for these drop flags")
    if args.kind == "instable":
        instance = instable_instance()
    elif args.kind == "cutoff":
        instance = cutoff_gadget_instance(drop=("A",) if args.drop_a else ())
    else:
        drop = ("A",) if args.drop_a else ("B", "B1") if args.drop_b else ()
        instance = tie_gadget_instance(drop=drop)
    _write(args.output, serialize_instance(instance), out)
    return EXIT_OK


def _cmd_reduce_sat(args, out) -> int:
    if args.emit_matching and args.assignment is None:
        return _usage("--emit-matching needs --assignment")
    if args.assignment is not None and not args.emit_matching:
        return _usage("--assignment needs --emit-matching")
    formula = parse_formula(_read(args.formula))
    reduction = sat_reduce(formula)
    if args.assignment is not None:
        try:
            true_vars = [int(x) for x in args.assignment.split(",") if x]
        except ValueError:
            raise ParseError(
                f"--assignment takes comma-separated integers, not {args.assignment!r}"
            ) from None
        matching = sat_forward_matching(reduction, true_vars)
        _write(args.output, serialize_matching(reduction.instance, matching), out)
        return EXIT_OK
    if args.extract is not None:
        matching = parse_matching(_read(args.extract), reduction.instance)
        true_vars = sat_backward_assignment(reduction, matching)
        out.write(",".join(str(v) for v in sorted(true_vars)) + "\n")
        return EXIT_OK
    _write(args.output, serialize_instance(reduction.instance), out)
    return EXIT_OK


def _cmd_reduce_smti(args, out) -> int:
    if args.emit_matching and args.matching is None:
        return _usage("--emit-matching needs --matching")
    if args.matching is not None and not args.emit_matching:
        return _usage("--matching needs --emit-matching")
    smti = parse_smti_document(_read(args.input))
    reduction = smti_reduce(smti)
    if args.matching is not None:
        marriage = parse_marriage(_read(args.matching))
        matching = smti_forward(reduction, marriage)
        _write(args.output, serialize_matching(reduction.instance, matching), out)
        return EXIT_OK
    if args.extract is not None:
        matching = parse_matching(_read(args.extract), reduction.instance)
        marriage = smti_backward(reduction, matching)
        out.write(serialize_marriage(marriage))
        return EXIT_OK
    _write(args.output, serialize_instance(reduction.instance), out)
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdsr", description="Stable roommates in groups with master lists"
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="find a stable matching")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--algo",
        choices=["auto", "brute", "strict", "dp", "greedy"],
        default="auto",
    )
    p.add_argument("--witness", help="write the matching document here")
    p.add_argument("--max-n", type=int, help="most agents an exact search takes")
    p.add_argument("--window-size", type=int)
    p.add_argument("--span", type=int)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check", help="check a matching for stability")
    p.add_argument("--instance", required=True)
    p.add_argument("--matching", required=True)
    p.add_argument("--guard", type=int, default=10**8)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("stats", help="print instance parameters")
    p.add_argument("--instance", required=True)
    p.add_argument("--lambda-budget", type=int)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("gen", help="emit a built-in instance")
    p.add_argument("kind", choices=["instable", "cutoff", "tie"])
    p.add_argument("--drop-a", action="store_true")
    p.add_argument("--drop-b", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("reduce", help="run a reduction")
    red = p.add_subparsers(dest="reduction", required=True)

    q = red.add_parser("sat", help="one-in-three satisfiability")
    q.add_argument("--formula", required=True)
    q.add_argument("--assignment", help="comma-separated true variables")
    q.add_argument("--emit-matching", action="store_true")
    q.add_argument("--extract", help="matching document to convert back")
    q.add_argument("--output")
    q.set_defaults(func=_cmd_reduce_sat)

    q = red.add_parser("smti", help="marriage with ties")
    q.add_argument("--input", required=True)
    q.add_argument("--matching", help="JSON list of 1-based [man, woman] pairs")
    q.add_argument("--emit-matching", action="store_true")
    q.add_argument("--extract", help="matching document to convert back")
    q.add_argument("--output")
    q.set_defaults(func=_cmd_reduce_smti)

    return parser


def run(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args, out)
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValidationError, MdsrError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))
