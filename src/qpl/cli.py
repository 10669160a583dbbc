"""Command-line front end.

Subcommands: verify (identity catalog), enum (overpartition streams),
stat (single-overpartition statistics), basis (basis element lists),
decompose (basis + padding split), table (per-overpartition statistic
tables).  Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage error.  The QPL_TRUNC environment variable overrides the default
truncation of 25.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .core import Convention, Overpartition, conjugate, largest_repeating_size, \
    max_excludant_size, min_excludant_size, smallest_positive_repeating_size
from .enumeration import ClassTag, _basis_family, basis_elements, enumerate_class, overpartitions_of
from .identities import IDENTITY_IDS, PARAMETERS, _resolve, catalog_instances, verify
from .separable import decompose

DEFAULT_TRUNC = 25

_INT_TEXT = re.compile("0|-?[1-9][0-9]*")

# The statistics that read a chain length r; ``conjugate`` reads none.
_STATS = {
    "mes": min_excludant_size,
    "maes": max_excludant_size,
    "lrs": largest_repeating_size,
    "sprs": smallest_positive_repeating_size,
}


class UsageError(Exception):
    pass


def _int_arg(text: str) -> int:
    """The integer that canonical ASCII text spells; ``int`` alone would also
    take "1_0", " +10", "010" and non-ASCII digits."""
    if not _INT_TEXT.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _default_trunc() -> int:
    env = os.environ.get("QPL_TRUNC")
    if env is None:
        return DEFAULT_TRUNC
    try:
        return _int_arg(env)
    except argparse.ArgumentTypeError:
        raise UsageError(f"QPL_TRUNC must be an integer, got {env!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpl",
        description="Exact overpartition statistics and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check catalog identities coefficientwise")
    p.add_argument("--identity", choices=IDENTITY_IDS, help="catalog entry to check")
    p.add_argument("--all", action="store_true", help="run the whole catalog")
    p.add_argument("--trunc", type=_int_arg, default=None, help="truncation order")
    p.add_argument("--format", choices=("text", "json", "tsv"), default="text")
    p.add_argument("--dump", action="store_true",
                   help="dump each side's coefficients (text format only)")
    for name, domain in PARAMETERS.items():
        kind = {"choices": domain} if isinstance(domain, tuple) else {"type": _int_arg}
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, default=None, **kind)

    p = sub.add_parser("enum", help="stream overpartitions, one per line")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--class", dest="family", choices=("all", "L", "F"), default="all")
    p.add_argument("--k", type=_int_arg, default=None)
    p.add_argument("--convention", choices=("last", "first"), default=None,
                   help="class all only (default last); L streams last, F first")

    p = sub.add_parser("stat", help="statistics of one overpartition")
    p.add_argument("--parts", required=True, help="canonical overpartition text")
    p.add_argument("--stat", required=True,
                   choices=(*_STATS, "conjugate"))
    p.add_argument("--r", type=_int_arg, default=None, help="chain length (default 1)")
    p.add_argument("--convention", choices=("last", "first"), default="last")

    p = sub.add_parser("basis", help="list basis elements")
    p.add_argument("--family", choices=("BL", "BF"), required=True)
    p.add_argument("--k", type=_int_arg, required=True)
    p.add_argument("--m", type=_int_arg, required=True)

    p = sub.add_parser("decompose", help="split a class member into basis + padding")
    p.add_argument("--parts", required=True)
    p.add_argument("--family", choices=("BL", "BF"), required=True)
    p.add_argument("--k", type=_int_arg, required=True)

    p = sub.add_parser("table", help="statistic table over all overpartitions of n")
    p.add_argument("--stat", required=True,
                   choices=(*_STATS, "conjugate"))
    p.add_argument("--r", type=_int_arg, default=None, help="chain length (default 1)")
    p.add_argument("--n", type=_int_arg, required=True)
    return parser


def _verify_instances(args, trunc: int):
    if args.all and args.identity:
        raise UsageError("--all and --identity are mutually exclusive")
    if not args.all and not args.identity:
        raise UsageError("choose --identity or --all")
    overrides = {}
    for name in PARAMETERS:
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    if args.all:
        return catalog_instances(trunc, overrides=overrides)
    # One named identity runs at the truncation asked for; past its guard
    # that is a usage error rather than a silent cap.
    instances = catalog_instances(trunc, (args.identity,), overrides)
    return [(ident, params, trunc) for ident, params, _ in instances]


def _params_text(params: tuple) -> str:
    """A report's sorted ``(name, value)`` pairs as ``name=value,...``."""
    return ",".join(f"{k}={v}" for k, v in params)


def _dump_sides(ident, params, trunc, out):
    _, equations = _resolve(ident, params, trunc)
    for eq_index, eq in enumerate(equations):
        for side in eq:
            print(f"# {ident} equation {eq_index + 1}: {side.label}", file=out)
            print(side.evaluate().dump(), file=out)


def _cmd_verify(args, out) -> int:
    if args.dump and args.format != "text":
        raise UsageError("--dump needs --format text")
    trunc = args.trunc if args.trunc is not None else _default_trunc()
    instances = _verify_instances(args, trunc)
    reports = [verify(ident, params, n) for ident, params, n in instances]
    if args.format == "json":
        if len(reports) == 1 and not args.all:
            print(reports[0].to_json(), file=out)
        else:
            body = ",".join(r.to_json() for r in reports)
            print(f"[{body}]", file=out)
    elif args.format == "tsv":
        for r in reports:
            print(
                f"{r.identity}\t{_params_text(r.params)}\t{r.trunc}\t{r.status}"
                f"\t{len(r.mismatches)}",
                file=out,
            )
    else:
        for r in reports:
            line = f"{r.identity}[{_params_text(r.params)}] trunc={r.trunc}: {r.status}"
            if r.mismatches:
                m = r.mismatches[0]
                where = f"q^{m.q}" if m.z is None else f"z^{m.z} q^{m.q}"
                line += f" (first mismatch at {where}: {m.lhs} != {m.rhs})"
            print(line, file=out)
        if args.dump:
            for ident, params, n in instances:
                _dump_sides(ident, params, n, out)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_enum(args, out) -> int:
    if args.family == "all":
        if args.k is not None:
            raise UsageError("--k needs class L or F")
        stream = overpartitions_of(args.n, Convention(args.convention or "last"))
    else:
        if args.k is None:
            raise UsageError("--k is required for class L or F")
        if args.convention is not None:
            raise UsageError("--convention needs class all: L streams last, F first")
        stream = enumerate_class(args.n, ClassTag(args.family, args.k))
    for pi in stream:
        print(pi.text(), file=out)
    return 0


def _parse_overpartition(text: str, convention: str) -> Overpartition:
    try:
        return Overpartition.parse(text, Convention(convention))
    except ValueError as exc:
        raise UsageError(f"bad overpartition text: {exc}")


def _stat_value(pi: Overpartition, stat: str, r) -> str:
    if stat == "conjugate":
        if r is not None:
            raise UsageError("--r does not apply to --stat conjugate")
        return conjugate(pi).text()
    value = _STATS[stat](pi, 1 if r is None else r)
    return "none" if value is None else str(value)


def _cmd_stat(args, out) -> int:
    pi = _parse_overpartition(args.parts, args.convention)
    print(_stat_value(pi, args.stat, args.r), file=out)
    return 0


def _cmd_basis(args, out) -> int:
    for lam in basis_elements(args.family, args.k, args.m):
        print(lam.text(), file=out)
    return 0


def _cmd_decompose(args, out) -> int:
    pi = _parse_overpartition(args.parts, _basis_family(args.family, args.k)[0].convention.value)
    witness = decompose(pi, args.family, args.k)
    print(witness.basis.text(), file=out)
    print(",".join(str(x) for x in witness.padding), file=out)
    return 0


def _cmd_table(args, out) -> int:
    for pi in overpartitions_of(args.n, Convention.LAST):
        print(f"{pi.text()}\t{_stat_value(pi, args.stat, args.r)}", file=out)
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "enum": _cmd_enum,
    "stat": _cmd_stat,
    "basis": _cmd_basis,
    "decompose": _cmd_decompose,
    "table": _cmd_table,
}


def run(argv=None, out=None) -> int:
    """Parse arguments and run one subcommand; returns the exit code."""
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args, out)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
