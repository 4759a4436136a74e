"""Command line front end: gen, solve, verify, oracle, bench.

Exit status is nonzero whenever a contractual verdict fails: a solve whose
report is not successful, a verify that finds a stored report inconsistent,
an oracle run contradicting a requested property, or a bench grid with a
failed row.

Each call builds a new parser with only the subparser of the command that
argv names (all five when it names none), so a command does not pay for
the other four; help, usage errors and exit status read as with all five.
"""
from __future__ import annotations

import argparse
import sys

from .errors import ChorefairError, ParseError
from .harness import (MODES, GenParams, bench, gen_instance, instance_text,
                      load_instance, load_report, parse_int, parse_rational,
                      report_fingerprint, report_text, run_pipeline,
                      verify_report)
from .model import normalize_instance
from .oracle import DEFAULT_BUDGET, best_efx_beta_over_po


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _gen_params(**values) -> GenParams:
    """GenParams from option values; a rejected value is a ParseError that
    names its option (GenParams's messages start with the field name)."""
    try:
        return GenParams(**values)
    except ValueError as err:
        name, _, need = str(err).partition(" ")
        raise ParseError(f"--{name.replace('_', '-')} {need}") from None


def _cmd_gen(args) -> int:
    raw = gen_instance(_gen_params(
        n=args.n, m=args.m, k=parse_rational(args.k, "--k"),
        high_prob=parse_rational(args.high_prob, "--high-prob"),
        seed=args.seed))
    # a draw that does not normalize (all rows uniform) is an error, so gen
    # never writes an instance that solve rejects
    inst = normalize_instance(raw)
    _write(args.out, instance_text(inst if args.normalized else raw))
    return 0


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    report = run_pipeline(inst, args.mode, oracle_budget=args.oracle_budget)
    _write(args.out, report_text(report))
    if not report.success:
        print(f"solve failed: {report.error or 'verdict failed'}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args) -> int:
    """Recheck a stored report against its instance (harness.verify_report)."""
    inst = load_instance(args.instance)
    report = load_report(args.report)
    problems = verify_report(inst, report)
    for p in problems:
        print(f"verify: {p}", file=sys.stderr)
    if problems:
        return 1
    print(f"verify: ok (fingerprint {report_fingerprint(report)[:16]})")
    return 0


def _cmd_oracle(args) -> int:
    # one search: the best factor is 1 iff an exact EFX + PO allocation exists
    inst = load_instance(args.instance)
    value, best = best_efx_beta_over_po(inst, budget=args.oracle_budget)
    owner = " ".join(map(str, best.owner))
    print("efx-po: " + (owner if value == 1 else "none"))
    print(f"best-beta-over-po: {value} with {owner}")
    if args.expect_efx and value != 1:
        return 1
    return 0


def _cmd_bench(args) -> int:
    """Write the grid's CSV; exit 1 when a row failed (see harness.bench)."""
    k_values = [parse_rational(t, "--k") for t in args.k.split(",")]
    n_values = [parse_int(t, "--n") for t in args.n.split(",")]
    m_values = [parse_int(t, "--m") for t in args.m.split(",")]
    probs = [parse_rational(t, "--high-prob")
             for t in args.high_prob.split(",")]
    if args.seeds < 1:
        raise ParseError(f"--seeds must be at least 1, got {args.seeds}")
    grid = [
        _gen_params(n=n, m=m, k=k, high_prob=prob, seed=seed)
        for k in k_values for n in n_values for m in m_values
        for prob in probs
        for seed in range(args.seed, args.seed + args.seeds)
    ]
    text, failed = bench(grid, mode=args.mode)
    _write(args.out, text)
    if failed:
        print(f"bench: {failed} of {len(grid)} rows failed", file=sys.stderr)
    return 1 if failed else 0


def _gen_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", required=True, help="cost ratio, NUM/DEN or integer")
    p.add_argument("--high-prob", default="1/2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--normalized", action="store_true",
                   help="emit the normalized form instead of raw costs")
    p.add_argument("--out", default=None)


def _solve_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("instance")
    p.add_argument("--mode", default="auto", choices=MODES)
    p.add_argument("--oracle-budget", type=int, default=None,
                   help="also decide Pareto optimality when n^m is below this")
    p.add_argument("--out", default=None)


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("instance")
    p.add_argument("report")


def _oracle_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("instance")
    p.add_argument("--oracle-budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--expect-efx", action="store_true",
                   help="exit nonzero when no exact EFX + PO allocation exists")


def _bench_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", default="4")
    p.add_argument("--m", default="8")
    p.add_argument("--k", default="2")
    p.add_argument("--high-prob", default="1/2",
                   help="comma list, like --n, --m and --k")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0, help="first seed")
    p.add_argument("--mode", default="auto", choices=MODES)
    p.add_argument("--out", default=None)


# command name -> (help, function adding its arguments, handler), in the
# order the top-level help lists them
_COMMANDS = {
    "gen": ("generate a seeded random instance", _gen_arguments, _cmd_gen),
    "solve": ("run the pipeline on an instance file", _solve_arguments,
              _cmd_solve),
    "verify": ("recheck a stored report", _verify_arguments, _cmd_verify),
    "oracle": ("exhaustive search on a small instance", _oracle_arguments,
               _cmd_oracle),
    "bench": ("grid benchmark to CSV", _bench_arguments, _cmd_bench),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """A new parser with every command's subparser, or with only command's
    when command names one.  Parsing an argv that starts with that command
    prints and exits exactly as the full parser does: the command list is
    still spelled out in full where the top-level usage line shows it."""
    parser = argparse.ArgumentParser(
        prog="chorefair",
        description="Fair chore division: equilibrium computation, "
                    "envy-bounded reallocation, verification, ground truth.")
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    # the metavar spells out every command where one is registered; on the
    # full parser it would also rename the command in the two errors only
    # that parser raises, for no command and for an unknown one
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None)
    for name in names:
        help_text, add_arguments, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except ChorefairError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
