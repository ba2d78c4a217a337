"""Command-line frontend.

Subcommands: log, exp, preimage, roots, verify, table.  Digit strings are
comma separated and little endian, e.g. "1,3,0,2" = 1 + 3·π + 2·π³.

Exit codes: 0 success, 1 verification failure, 2 usage or parse errors,
3 domain precondition violations, 4 enumeration cap exceeded, 141 output
closed early.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

from .errors import (
    DEFAULT_CAP,
    CapExceeded,
    CyclologError,
    DigitStringError,
    _enumeration_count,
    _require,
)
from .ring import Context, PiElement, format_digits, parse_digits
from .series import pexp, plog
from .preimage import preimage, preimage_all, roots_of_unity


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclolog",
        description="Exact arithmetic and p-adic log/exp in Z_p[pi], pi^(p-1) = -p.",
        epilog='Digit strings are comma separated, little endian: "1,3,0,2" = 1 + 3·π + 2·π³.',
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary):
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--p", type=int, required=True, help="odd prime >= 3")
        sp.add_argument("--prec", type=int, required=True, help="precision N >= 4")
        sp.set_defaults(run=run)
        return sp

    sp_log = command("log", _cmd_log, "p-adic logarithm of a principal unit")
    sp_log.add_argument("--unit", required=True, help="digit string with digit 0 equal to 1")

    sp_exp = command("exp", _cmd_exp, "p-adic exponential of an element of m^2")
    sp_exp.add_argument("--y", required=True, help="digit string with digits 0,1 equal to 0")

    sp_pre = command("preimage", _cmd_preimage, "log preimages of a target in m^2")
    sp_pre.add_argument("--y", required=True, help="target digit string, digits 0,1 zero")
    group = sp_pre.add_mutually_exclusive_group(required=True)
    group.add_argument("--branch", type=int, help="leading digit a1 in 1..p-1")
    group.add_argument("--all", action="store_true", help="all p-1 branches")

    command("roots", _cmd_roots, "the p-1 nontrivial p-th roots of unity")

    sp_verify = command("verify", _cmd_verify, "run the exhaustive verification suite")
    sp_verify.add_argument("--json", action="store_true", help="machine-readable report")
    sp_verify.add_argument("--seed", type=int, default=0, help="seed for the property suites")
    sp_verify.add_argument("--cap", type=int, default=DEFAULT_CAP, help="enumeration cap")

    sp_table = command("table", _cmd_table, "full fiber table of log over m^2")
    sp_table.add_argument("--cap", type=int, default=DEFAULT_CAP, help="enumeration cap")

    return parser


def _print_series(result: PiElement) -> int:
    print(format_digits(result))
    print(f"= {result.expansion()}")
    return 0


def _cmd_log(args, ctx: Context) -> int:
    return _print_series(plog(parse_digits(args.unit, ctx)))


def _cmd_exp(args, ctx: Context) -> int:
    return _print_series(pexp(parse_digits(args.y, ctx)))


def _cmd_preimage(args, ctx: Context) -> int:
    y = parse_digits(args.y, ctx)
    units = preimage_all(y) if args.all else [preimage(y, args.branch)]
    for unit in units:
        print(f"branch {unit.digits[1]}: {format_digits(unit)}  log={format_digits(plog(unit))}")
    return 0


def _cmd_roots(args, ctx: Context) -> int:
    for branch, root in enumerate(roots_of_unity(ctx), start=1):
        print(f"branch {branch}: {format_digits(root)}  root^{ctx.p}={format_digits(root ** ctx.p)}")
    return 0


def _cmd_verify(args, ctx: Context) -> int:
    from .verify import run_all  # the only command that needs the verifier

    report = run_all(ctx, seed=args.seed, cap=args.cap)
    if args.json:
        print(report.to_json())
    else:
        print(f"p={report.p} precision={report.precision} seed={args.seed}")
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            counts = " ".join(f"{k}={v}" for k, v in check.counts.items())
            print(f"{check.name:<24} {status}  {counts}")
            for w in check.witnesses:
                print(f"    witness: {w}")
        print("all checks passed" if report.all_passed else "some checks FAILED")
    return 0 if report.all_passed else 1


def _cmd_table(args, ctx: Context) -> int:
    p, n = ctx.p, ctx.precision
    units_total = _enumeration_count(p - 1, p, n - 2, args.cap)
    _require(units_total, args.cap)
    targets_total = units_total // (p - 1)
    roots = roots_of_unity(ctx)
    h = (n + 1) // 2
    zeros, one = (0,) * (n - h), (1,) + (0,) * (h - 1)  # one: digits 0..h-1 of 1 + pi^h*tau
    # a fiber is a coset: branch b's unit z^b * exp(y) has leading digit b and
    # log y, so it is preimage(y, b), the one such unit.  Past a head x0's
    # h = ceil(N/2) digits exp is affine, exp(y + t) = exp(y)*(1 + t) mod pi^N
    # for v(t) >= h, so the target x0 + pi^h*tau has branch b's unit
    # z^b * exp(x0) * (1 + pi^h*tau)
    for head in itertools.product(range(p), repeat=h - 2):
        x0 = (0, 0) + head
        e0 = pexp(PiElement._make(x0 + zeros, ctx))
        fiber0 = [r * e0 for r in roots]
        for tau in itertools.product(range(p), repeat=n - h):
            step = PiElement._make(one + tau, ctx)
            fiber = " ".join(format_digits(u * step) for u in fiber0)
            print(f"{format_digits(PiElement._make(x0 + tau, ctx))}: {fiber}")
    print(f"{units_total} units / {targets_total} targets")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        ctx = Context(args.p, args.prec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        code = args.run(args, ctx)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early; send the exit flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except CyclologError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, DigitStringError):
            return 2
        return 4 if isinstance(exc, CapExceeded) else 3


if __name__ == "__main__":
    sys.exit(main())
