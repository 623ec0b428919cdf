"""Command-line front end.

All outputs are JSON with a top-level "schema": "aft/1".  Exit codes:
0 for a passing run, 1 for a verified violation, 2 for usage or I/O
errors and for inputs beyond the enumeration cap, where nothing was
checked, and 3 when a certificate of aft itself fails (AssertionError).
Every error is one JSON line on stderr, argparse's usage errors too;
only --help prints text, and exits 0.

Every input file goes through one reader, ``_read``: a file or JSON
that cannot be read exits 2 with "cannot read PATH: ...", and a JSON
document its parser refuses (KeyError, TypeError or ValueError) exits 2
with "invalid complex|action|model|bounds config: ...".

The argument parser is built once per process, on the first call of
main, and reused by later calls, each of which parses a fresh namespace.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .actions import action_from_json, validate_good
from .bounds import BoundsConfig, constants_report, f_factors, printable
from .groups import OracleScaleError, p_part
from .integermat import primes_up_to
from .linear import descent_to_stable, model_from_json
from .simplicial import complex_from_json, homology
from .suites import SUITE_NAMES, run_suite

SCHEMA = "aft/1"


def _read(path, parse, what):
    """``parse`` of the JSON in the file ``path``.  Exits 2 with "cannot
    read" when the file or its JSON is unreadable, and with "invalid
    ``what``" when ``parse`` raises KeyError, TypeError or ValueError."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        # Malformed JSON, bytes that are not UTF-8, or an int of too many digits.
        raise SystemExit(_usage_error(f"cannot read {path}: {exc}"))
    try:
        return parse(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit(_usage_error(f"invalid {what}: {exc}"))


def _usage_error(message, code=2):
    print(json.dumps({"schema": SCHEMA, "error": message}), file=sys.stderr)
    return code


def _emit(payload, out=None):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise SystemExit(_usage_error(f"cannot write {out}: {exc}"))
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # The reader has gone: an I/O error.  Pointing stdout at devnull
            # keeps the interpreter's last flush from reporting it again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise SystemExit(2)


def _cmd_analyze(args):
    cx = _read(args.complex, complex_from_json, "complex")
    try:
        primes = tuple(int(p) for p in args.primes.split(","))
    except ValueError:
        return _usage_error(f"--primes needs comma-separated integers: {args.primes!r}")
    try:
        profile = homology(cx, primes=primes)
    except ValueError as exc:
        return _usage_error(f"invalid --primes: {exc}")
    _emit(
        {
            "schema": SCHEMA,
            "dimension": cx.dimension,
            "simplex_counts": {str(d): c for d, c in cx.counts().items()},
            "homology": profile.to_json(),
        },
        args.out,
    )
    return 0


def _cmd_action_check(args):
    action = _read(args.action, action_from_json, "action")
    cert = validate_good(action)
    _emit(
        {
            "schema": SCHEMA,
            "group_order": action.group.order,
            "space_simplices": action.space.num_simplices(),
            "goodness": cert.to_json(),
        },
        args.out,
    )
    return 0 if cert.is_good else 1


def _cmd_descent(args):
    if args.lam < 0:
        return _usage_error(f"--lambda must be nonnegative: {args.lam}")
    model = _read(args.model, model_from_json, "model")
    lam = args.lam
    runs = []
    violated = False
    for p in model.group.primes():
        start = p_part(model.group, p)
        try:
            stable, steps = descent_to_stable(model, lam, start=start)
        except OracleScaleError as exc:
            return _usage_error(str(exc))
        except ValueError as exc:
            runs.append({"p": p, "error": str(exc)})
            violated = True
            continue
        runs.append(
            {
                "p": p,
                "steps": [
                    {
                        "character": list(s.character.exponents),
                        "kernel_index": s.kernel_index,
                        "fixed_dim": s.fixed_dim,
                    }
                    for s in steps
                ],
                "stable_subgroup": [list(r) for r in stable.basis_residues],
                "index": stable.index,
            }
        )
    _emit(
        {
            "schema": SCHEMA,
            "lambda": lam,
            "shape": model.shape,
            "dim": model.dim_space,
            "per_prime": runs,
        },
        args.out,
    )
    return 1 if violated else 0


def _cmd_verify(args):
    try:
        report = run_suite(args.suite, seed=args.seed, scale=args.scale)
    except ValueError as exc:
        return _usage_error(str(exc))
    _emit(report.to_json(), args.out)
    return 0 if report.passed else 1


def _cmd_bounds(args):
    if args.table:
        if args.table != "f":
            return _usage_error(f"unknown table {args.table!r}")
        if args.max_k < 0:
            return _usage_error(f"--max-k must be nonnegative: {args.max_k}")
        # Past the digits str writes, f(k) prints as null beside its
        # exponent map.
        table = {"schema": SCHEMA, "table": "f", "values": {}}
        primes = primes_up_to(args.max_k)
        for k in range(-1, args.max_k + 1):
            factors = f_factors(k, primes)
            value = table["values"][str(k)] = printable(factors)
            if value is None:
                table.setdefault("factors", {})[str(k)] = {str(p): e for p, e in factors.items()}
        _emit(table, args.out)
        return 0
    if not args.config:
        return _usage_error("bounds needs a config file or --table")
    report = _read(
        args.config,
        lambda data: constants_report(BoundsConfig.from_json(data)),
        "bounds config",
    )
    _emit({"schema": SCHEMA, "constants": report.to_json()}, args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors are JSON lines with exit 2.

    add_subparsers builds the subcommands' parsers with this class too.
    """

    def error(self, message):
        raise SystemExit(_usage_error(f"{self.prog}: {message}"))


@functools.cache
def build_parser():
    parser = _Parser(
        prog="aft",
        description="Exact fixed-point toolkit for finite abelian actions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="homology of a complex")
    p_analyze.add_argument("complex")
    p_analyze.add_argument("--primes", default="2,3,5")
    p_analyze.add_argument("--out")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_action = sub.add_parser("action", help="action subcommands")
    action_sub = p_action.add_subparsers(dest="action_command", required=True)
    p_check = action_sub.add_parser("check", help="validate an action")
    p_check.add_argument("action")
    p_check.add_argument("--out")
    p_check.set_defaults(func=_cmd_action_check)

    p_descent = sub.add_parser("descent", help="descend a linear model")
    p_descent.add_argument("model")
    p_descent.add_argument("--lambda", dest="lam", type=int, required=True)
    p_descent.add_argument("--out")
    p_descent.set_defaults(func=_cmd_descent)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--scale", choices=("small", "full"), default="small")
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=_cmd_verify)

    p_bounds = sub.add_parser("bounds", help="evaluate explicit constants")
    p_bounds.add_argument("config", nargs="?")
    p_bounds.add_argument("--table")
    p_bounds.add_argument("--max-k", type=int, default=30)
    p_bounds.add_argument("--out")
    p_bounds.set_defaults(func=_cmd_bounds)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except AssertionError as exc:
        return _usage_error(f"internal certification failed: {exc}", 3)


if __name__ == "__main__":
    sys.exit(main())
