"""Command-line front end.

    ordalg check <file> [--suite S] [--budget N] [--seed N] [--format text|records]
    ordalg eval <file> --expr "nu(f)"
    ordalg witness <file> --check <record-id>

Exit codes: 0 all checks hold, 1 at least one counterexample, 2 input or
capacity error.  The records format emits one tab-separated line per
check: check-id, law, pass/fail, witness.  `witness` runs what `check`
runs with the document's own suites, budget and seed, and prints the
one record with that id as `check` prints it; it exits 0 if the record
passes, 1 if it fails and 2 if no record has that id.
"""
from __future__ import annotations

import argparse
import re
import sys

from .errors import OrdalgError
from .suites import SUITES, run_suite
from .workspace import Workspace, pairs, parse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ordalg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run law suites over a workspace document")
    p_check.add_argument("file")
    p_check.add_argument("--suite", default=None, choices=SUITES + ("all",))
    p_check.add_argument("--budget", type=int, default=None)
    p_check.add_argument("--seed", type=int, default=None)
    p_check.add_argument("--format", default="text", choices=("text", "records"))

    p_eval = sub.add_parser("eval", help="evaluate a functional application")
    p_eval.add_argument("file")
    p_eval.add_argument("--expr", required=True)

    p_wit = sub.add_parser("witness", help="print the one record `check` makes under an id")
    p_wit.add_argument("file")
    p_wit.add_argument(
        "--check",
        required=True,
        metavar="RECORD-ID",
        help="a record id as `check` prints it; exit 0 if the record passes, 1 if it fails, 2 if there is none",
    )

    args = parser.parse_args(argv)
    try:
        text = _read(args.file)
        ws = parse(text)
        if args.command == "check":
            return _cmd_check(ws, args)
        if args.command == "eval":
            return _cmd_eval(ws, args)
        return _cmd_witness(ws, args)
    except (OrdalgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise OrdalgError(f"{path} is not UTF-8 text: {exc}") from None


def _cmd_check(ws: Workspace, args) -> int:
    defaults = ws.suite_defaults
    suites = [args.suite] if args.suite else defaults["run"]
    budget = args.budget if args.budget is not None else defaults["budget"]
    seed = args.seed if args.seed is not None else defaults["seed"]
    code, records = run_suite(ws, suites, budget, seed)
    if args.format == "records":
        for rec in records:
            print(rec.as_record_line())
    else:
        for rec in records:
            print(rec.as_text())
        failed = sum(1 for r in records if not r.verdict.holds)
        print(f"{len(records)} checks, {failed} failed")
    return code


_EXPR = re.compile(r"^\s*(\w+)\s*\(\s*(.+?)\s*\)\s*$")


def _cmd_eval(ws: Workspace, args) -> int:
    m = _EXPR.match(args.expr)
    if not m:
        raise OrdalgError(f"expression must look like name(function), got {args.expr!r}")
    name, arg = m.group(1), m.group(2)
    if name not in ws.functionals:
        raise OrdalgError(f"unknown functional {name!r}")
    nu = ws.functionals[name]
    if arg.startswith("{"):
        if not arg.endswith("}"):
            raise OrdalgError("unterminated function literal")
        pieces = [piece.strip() for piece in arg[1:-1].split(",")]
        f = nu.space.function(pairs(filter(None, pieces), "point", "function literal"))
    elif arg in ws.functions:
        f, space = ws.functions[arg], ws.function_spaces[arg]
        if space is not nu.space:
            where = f"space {space.name!r}, not on space {nu.space.name!r} of functional {name!r}"
            raise OrdalgError(f"function {arg!r} is declared on {where}")
    else:
        raise OrdalgError(f"unknown function {arg!r}")
    print(nu.space.K.names[nu.value(f)])
    return 0


def _cmd_witness(ws: Workspace, args) -> int:
    defaults = ws.suite_defaults
    _, records = run_suite(ws, defaults["run"], defaults["budget"], defaults["seed"])
    for rec in records:
        if rec.check_id == args.check:
            print(rec.as_text())
            return 0 if rec.verdict.holds else 1
    raise OrdalgError(f"no record with id {args.check!r}")


if __name__ == "__main__":
    sys.exit(main())
