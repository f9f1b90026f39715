"""Command-line interface.

Exit codes are a stable contract: 0 for success or a verified equality,
1 for a verified inequality or falsification, 2 for usage/input errors
and, with ``internal error:`` on stderr and no traceback, for any other
exception.
Identical flags and seed produce byte-identical output.

Each call is parsed once.  When the first argument names a command, the
rest goes straight to that command's parser, and leftover arguments are
reported by the full parser as it would report them.  Anything else (no
arguments, help, an unknown command, options before the command) goes
through the full parser.  Usage text, messages and exit codes are the same
either way: the tests hold ``main`` to ``oracles.main_by_full_parser``.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .conditions import family_condition, format_condition
from .matrix import (
    MatrixFormatError,
    det_commutative,
    format_block_matrix,
    format_matrix,
    parse_block_matrix,
    parse_matrix,
)
from .ncdet import nc_row_det
from .ring import parse_int, parse_ring
from .traces import (
    check_colswap_identity,
    check_rowswap_identity,
    check_transpose_identity,
)
from .verify import (
    BUILTIN_NAMES,
    PAPER_SEED,
    SCAN_TRIALS,
    builtin_matrix,
    check_identity,
    classify_size2,
    optimality_scan,
    run_campaign,
)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def int_flag(text: str) -> int:
    """An integer flag's value, read by ``parse_int``; a malformed one is
    reported as argparse reported ``int``'s: ``invalid int value: 'x'``."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _load_block_matrix(args):
    if args.file is not None and (args.builtin or args.n is not None):
        raise ValueError("a block matrix file takes neither --builtin nor --n")
    if args.builtin:
        return builtin_matrix(args.builtin, n=args.n)
    if not args.file:
        raise MatrixFormatError("either a file or --builtin is required")
    return parse_block_matrix(_read_text(args.file))


def _cmd_det(args) -> int:
    mat = parse_matrix(_read_text(args.file))
    print(f"det={det_commutative(mat)}")
    return 0


def _cmd_ncdet(args) -> int:
    bm = _load_block_matrix(args)
    result = nc_row_det(bm)
    sys.stdout.write(format_matrix(result))
    return 0


def _print_verdict(bm) -> bool:
    result = check_identity(bm)
    print(f"lhs={result.lhs} rhs={result.rhs} {'EQUAL' if result.equal else 'UNEQUAL'}")
    return result.equal


def _cmd_check(args) -> int:
    return 0 if _print_verdict(_load_block_matrix(args)) else 1


def _cmd_family(args) -> int:
    cond = family_condition(args.name, args.n)
    sys.stdout.write(format_condition(cond))
    return 0


def _cmd_campaign(args) -> int:
    cond = family_condition(args.family, args.n)
    ring = parse_ring(args.ring)
    report = run_campaign(cond, args.m, ring, args.trials, args.seed, condition_id=args.family)
    if report.first_failure is not None:
        f = report.first_failure
        print(f"failure trial={f.trial} lhs={f.lhs} rhs={f.rhs}")
    print(report.summary_line() + f" generator={report.generator}")
    return 0 if report.failures == 0 else 1


def _cmd_classify2(args) -> int:
    for rec in classify_size2():
        print(rec.line())
    return 0


def _cmd_counterexample(args) -> int:
    bm = builtin_matrix(args.name, n=args.n)
    sys.stdout.write(format_block_matrix(bm))
    _print_verdict(bm)
    return 0


def _parse_missing(text: str):
    try:
        r1, c1, r2, c2 = map(parse_int, text.split(","))
    except ValueError:
        # a part that is not an integer, or not four parts
        raise ValueError("--missing expects four integers r1,c1,r2,c2") from None
    return ((r1, c1), (r2, c2))


# The check each of symbolic's per-check flags belongs to.
_SYMBOLIC_FLAG_CHECKS = {"k": "colswap", "c": "transpose", "i": "rowswap", "j": "rowswap", "missing": "rowswap"}


def _cmd_symbolic(args) -> int:
    for flag, check in _SYMBOLIC_FLAG_CHECKS.items():
        if check != args.check and getattr(args, flag) is not None:
            raise ValueError(f"--{flag} applies only to --check {check}")
    n = args.n
    if args.check == "colswap":
        if args.k is None:
            raise ValueError("--k is required for colswap")
        ok = check_colswap_identity(n, args.k)
    elif args.check == "transpose":
        if args.c is None:
            raise ValueError("--c is required for transpose")
        ok = check_transpose_identity(n, args.c)
    else:
        if args.i is None or args.j is None:
            raise ValueError("--i and --j are required for rowswap")
        missing = None if args.missing is None else _parse_missing(args.missing)
        ok = check_rowswap_identity(n, args.i, args.j, missing)
    # The row-ordered expansion has one word per permutation, and without
    # relations no two of them merge.
    terms = math.factorial(n)
    print(f"check={args.check} n={n} terms={terms} {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_optimality(args) -> int:
    report = optimality_scan(args.n, campaign_trials=args.trials, seed=args.seed)
    for rec in report.edge_cases:
        print(rec.line())
    for camp in report.campaigns:
        print(camp.summary_line())
    print(f"optimality n={args.n} {'OK' if report.all_ok else 'FAIL'}")
    return 0 if report.all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    """The full parser, the one ``main`` uses: built once per process."""
    return _shared_parser()[0]


def _parser_and_commands() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser, and the map from each command's name to its parser."""
    parser = argparse.ArgumentParser(
        prog="blockdet",
        description="Exact determinants of block matrices with partially commuting blocks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("det", help="determinant of a matrix file")
    p.add_argument("file", help="matrix file, or - for stdin")
    p.set_defaults(fn=_cmd_det)

    p = sub.add_parser("ncdet", help="row-ordered block determinant of a block matrix")
    p.add_argument("file", nargs="?", help="block matrix file, or - for stdin")
    p.add_argument("--builtin", choices=BUILTIN_NAMES, help="use a built-in matrix")
    p.add_argument("--n", type=int_flag, default=None, help="size for parametric built-ins")
    p.set_defaults(fn=_cmd_ncdet)

    p = sub.add_parser("check", help="compare det(Det M) with det M")
    p.add_argument("file", nargs="?", help="block matrix file, or - for stdin")
    p.add_argument("--builtin", choices=BUILTIN_NAMES, help="use a built-in matrix")
    p.add_argument("--n", type=int_flag, default=None, help="size for parametric built-ins")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("family", help="print a named condition family at size n")
    p.add_argument("--name", required=True, help="family id, e.g. f, kappa, side:2, g5")
    p.add_argument("--n", type=int_flag, required=True)
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("campaign", help="randomized identity-check campaign")
    p.add_argument("--family", required=True, help="family id")
    p.add_argument("--n", type=int_flag, required=True)
    p.add_argument("--m", type=int_flag, required=True, help="block size")
    p.add_argument("--ring", default="mod:10007", help="int, mod:p or poly:v")
    p.add_argument("--trials", type=int_flag, default=200)
    p.add_argument("--seed", type=int_flag, default=0)
    p.set_defaults(fn=_cmd_campaign)

    p = sub.add_parser("classify2", help="classify all 64 size-2 conditions")
    p.set_defaults(fn=_cmd_classify2)

    p = sub.add_parser("counterexample", help="print a built-in matrix and its determinant pair")
    p.add_argument("--name", required=True, choices=BUILTIN_NAMES)
    p.add_argument("--n", type=int_flag, default=None, help="size for parametric built-ins")
    p.set_defaults(fn=_cmd_counterexample)

    p = sub.add_parser("symbolic", help="symbolic ordering-identity checks")
    p.add_argument("--check", required=True, choices=("colswap", "transpose", "rowswap"))
    p.add_argument("--n", type=int_flag, required=True)
    p.add_argument("--k", type=int_flag, help="column for colswap")
    p.add_argument("--c", type=int_flag, help="column for transpose")
    p.add_argument("--i", type=int_flag, help="first row for rowswap")
    p.add_argument("--j", type=int_flag, help="second row for rowswap")
    p.add_argument("--missing", help="withheld pair r1,c1,r2,c2 for rowswap")
    p.set_defaults(fn=_cmd_symbolic)

    p = sub.add_parser("optimality", help="minimality scan of the row-one-free family")
    p.add_argument("--n", type=int_flag, required=True)
    p.add_argument("--trials", type=int_flag, default=SCAN_TRIALS)
    p.add_argument("--seed", type=int_flag, default=PAPER_SEED)
    p.set_defaults(fn=_cmd_optimality)

    return parser, sub.choices


@functools.cache
def _shared_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    # Built once per process; parsing leaves no state in the parsers.  A
    # one-shot `blockdet` builds it once either way, and callers that run
    # main() many times in one process, or call build_parser() and then
    # main(), build it once, not once per call.
    return _parser_and_commands()


def main(argv: list[str] | None = None) -> int:
    """An exact answer may run past the interpreter's limit on the digits of
    an int converted to or from text (4300 by default), so the limit is
    lifted while main runs and restored for an in-process caller."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return _main(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv: list[str] | None) -> int:
    parser, commands = _shared_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] in commands:
            # The full parser would hand argv[1:] to this same command
            # parser and then report what it left over; parsing it here
            # skips the full parser's own pass and keeps every message.
            args, extras = commands[argv[0]].parse_known_args(argv[1:])
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
        else:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except (MatrixFormatError,) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Anything else is a fault of the program, not of the input; it
        # still gets exit 2 and one line, with no traceback.
        # KeyboardInterrupt is not an Exception and is left to propagate.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
