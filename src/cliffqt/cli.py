"""Command-line front door.

Usage:
    cliffqt mul --sig 3,0 "e12" "e13"
    cliffqt classify --sig 4,0 "1 + e1234"
    cliffqt project --sig 3,1 2 "e12 + e1"
    cliffqt tables comm
    cliffqt infer 'let x:1; let y:3; {x,y}'
    cliffqt check --sig 2,2 --trials 200 'rev(x)*x'
    cliffqt selftest --max-n 5

Options, each only on the commands that read it (any other is a usage
error): --json on all; --field real|complex on mul, classify, project, infer,
check; --backend exact|float and --sig P,Q on mul, classify, project, check;
--seed N, --trials N, --density X on check (CLIFFQT_SEED sets its seed).

Exit codes: 0 success, 1 verification failure, 2 parse or usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .algebra import COMPLEX, EXACT, FLOAT, REAL, Signature
from .dsl import check_soundness, infer_type, parse_program
from .errors import AlgebraError, ParseError
from .mvtext import format_mv, mv_to_dict, parse_mv
from .qtype import (
    _ACOMM_MAIN,
    _COMM_MAIN,
    atom_components,
    classify_by_rank,
    qtype_project,
)
from . import verify

_TABLES = {"comm": ("commutator", _COMM_MAIN), "acomm": ("anticommutator", _ACOMM_MAIN)}


def _parse_sig(text: str) -> Signature:
    try:
        p, q = (int(part) for part in text.split(","))
        return Signature(p, q)
    except (ValueError, AlgebraError) as exc:
        raise argparse.ArgumentTypeError(f"bad signature {text!r}: {exc}") from None


def _emit(args, data, text) -> None:
    """Print ``data()`` as JSON under --json, else ``text()``; only the printed form is built."""
    print(json.dumps(data(), sort_keys=True) if args.json else text())


_OPTIONS = {
    "--field": dict(choices=(REAL, COMPLEX), default=REAL),
    "--backend": dict(choices=(EXACT, FLOAT), default=EXACT),
    "--sig": dict(type=_parse_sig, required=True, metavar="P,Q"),
    "--seed": dict(type=int, default=None, help="default 0, or CLIFFQT_SEED when set"),
    "--trials": dict(type=int, default=100),
    "--density": dict(type=float, default=None),
}


class _Parser(argparse.ArgumentParser):
    """Reads a single-dash token that is none of its options (``-x``, ``-e1``) as a positional.

    Relies on argparse's private ``_parse_optional`` reading a None result as
    "positional", as Python 3.10 to 3.13 do; tests/test_cli.py pins it.
    """

    def _parse_optional(self, arg_string):
        if arg_string[1:2] != "-" and arg_string not in self._option_string_actions:
            return None
        return super()._parse_optional(arg_string)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cliffqt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, text, *options):
        """A subcommand run by ``run(args)``, with --json and only the options it reads."""
        p = sub.add_parser(name, help=text)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        p.add_argument("--json", action="store_true", help="structured output")
        p.set_defaults(run=run)
        return p

    concrete = ("--field", "--backend", "--sig")  # for commands that compute in Cl(p,q)
    p = command("mul", cmd_mul, "geometric product of two literals", *concrete)
    p.add_argument("lhs")
    p.add_argument("rhs")
    command("classify", cmd_classify, "quaternion type of a literal", *concrete).add_argument("mv")
    p = command("project", cmd_project, "main-type component of a literal", *concrete)
    p.add_argument("k", type=int, choices=(0, 1, 2, 3))
    p.add_argument("mv")
    command("tables", cmd_tables, "print a closure table").add_argument("op", choices=sorted(_TABLES))
    command("infer", cmd_infer, "abstract type of a DSL program", "--field").add_argument("program")
    p = command(
        "check", cmd_check, "randomized soundness check", *concrete, "--seed", "--trials", "--density"
    )
    p.add_argument("program")
    p = command("selftest", cmd_selftest, "oracle sweep and table derivation")
    p.add_argument("--max-n", type=int, default=5)
    return parser


def cmd_mul(args) -> int:
    lhs = parse_mv(args.lhs, args.sig, args.field, args.backend)
    rhs = parse_mv(args.rhs, args.sig, args.field, args.backend)
    result = lhs * rhs
    _emit(args, lambda: {"command": "mul", "result": mv_to_dict(result)}, lambda: format_mv(result))
    return 0


def cmd_classify(args) -> int:
    u = parse_mv(args.mv, args.sig, args.field, args.backend)
    tset = str(classify_by_rank(u))
    parts = [
        (f"i{k}" if imag else str(k), piece)
        for (k, imag), piece in atom_components(u)
        if not piece.is_zero()
    ]
    _emit(
        args,
        lambda: {
            "command": "classify",
            "typeset": tset,
            "components": [{"atom": atom, "part": mv_to_dict(piece)} for atom, piece in parts],
        },
        lambda: "\n".join([tset] + [f"  {atom}: {format_mv(piece)}" for atom, piece in parts]),
    )
    return 0


def cmd_project(args) -> int:
    u = parse_mv(args.mv, args.sig, args.field, args.backend)
    part = qtype_project(u, args.k)
    _emit(
        args,
        lambda: {"command": "project", "k": args.k, "result": mv_to_dict(part)},
        lambda: format_mv(part),
    )
    return 0


def cmd_tables(args) -> int:
    name, table = _TABLES[args.op]
    rows = [[str(table[k1][k2]) for k2 in range(4)] for k1 in range(4)]
    lines = [f"{name} closure table (row op column):", "     0  1  2  3"]
    for k1 in range(4):
        lines.append(f"  {k1}: " + "  ".join(rows[k1]))
    _emit(args, lambda: {"command": "tables", "op": name, "rows": rows}, lambda: "\n".join(lines))
    return 0


def cmd_infer(args) -> int:
    env, expr = parse_program(args.program, args.field)
    tset = infer_type(expr, env)
    _emit(
        args,
        lambda: {"command": "infer", "program": args.program, "typeset": str(tset)},
        lambda: str(tset),
    )
    return 0


def cmd_check(args) -> int:
    env, expr = parse_program(args.program, args.field)
    report = check_soundness(
        expr,
        env,
        args.sig,
        trials=args.trials,
        seed=args.seed,
        backend=args.backend,
        density=args.density,
    )
    _emit(args, lambda: {"command": "check", **report.as_dict()}, report.format_text)
    return 0 if report.passed else 1


def cmd_selftest(args) -> int:
    if not 1 <= args.max_n <= 8:
        raise AlgebraError(f"--max-n must be in 1..8, got {args.max_n}")
    comm_report, acomm_report = verify.derive_tables(args.max_n)
    discrepancies = verify.oracle_sweep(args.max_n)
    audits = [verify.dimension_audit(sig) for sig in verify.signatures_up_to(args.max_n)]
    audits_ok = all(a.ok for a in audits)
    ok = comm_report.ok and acomm_report.ok and not discrepancies and audits_ok
    _emit(
        args,
        lambda: {
            "command": "selftest",
            "max_n": args.max_n,
            "tables": [comm_report.as_dict(), acomm_report.as_dict()],
            "oracle_discrepancies": discrepancies,
            "dimension_audits_ok": audits_ok,
            "ok": ok,
        },
        lambda: "\n".join([
            comm_report.format_text(),
            acomm_report.format_text(),
            f"blade product oracle sweep (n <= {args.max_n}): "
            f"{len(discrepancies)} discrepancies",
            f"dimension audits: {'ok' if audits_ok else 'FAILED'}",
            f"selftest: {'PASS' if ok else 'FAIL'}",
        ]),
    )
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "check" and args.seed is None:
        text = os.environ.get("CLIFFQT_SEED", "0")
        try:
            args.seed = int(text)
        except ValueError:
            # replaying seed 0 instead would hide that the run was not the one asked for
            parser.error(f"CLIFFQT_SEED must be an integer, got {text!r}")
    try:
        return args.run(args)
    except (ParseError, AlgebraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
