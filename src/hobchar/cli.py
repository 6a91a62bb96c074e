"""Command-line front end.

Subcommands: ``classes``, ``table``, ``branch``, ``fchar``, ``verify``.
Exit codes: 0 on success (all checks pass), 1 when a verification check
fails, 2 on usage or domain errors and on arithmetic faults (an
:class:`~hobchar.tables.ExactnessError` from an inconsistent table).

The table cache directory comes from ``--cache-dir``, falling back to the
``HOBCHAR_CACHE_DIR`` environment variable; ``--no-cache`` disables both.
Only ``table`` and ``fchar`` results are cached (they are the expensive
artifacts); branching matrices are cheap recombinations of cached tables.

One parser, ``PARSER``, is built at import and reused by every ``run``;
the subcommand is dispatched by name to the module's ``cmd_*`` function
at call time.  Every command writes through ``serialize.render``; only
``serialize`` knows the output formats (``serialize.FORMATS``).
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

from hobchar import chains, embedding, hyperoct, oracle, reduction, symmetric
from hobchar.reports import CheckReport, mismatch
from hobchar.serialize import (
    CACHE_ENV_VAR,
    FORMATS,
    GROUPS,
    KINDS,
    CacheWarning,
    TableCache,
    TableDocument,
    document_from,
    render,
)
from hobchar.tables import first_orthogonality_failure

HOB_DEFAULT_CAP = 6       # rank for the formula pipeline
SYM_DEFAULT_CAP = 2 * HOB_DEFAULT_CAP  # S_n degree: the ambient degree at that rank
ORACLE_DEFAULT_CAP = 5    # rank for brute-force checks

TABLE_KINDS = tuple(k for k in KINDS if k not in ("fchar", "branching"))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="pretty")
    common.add_argument("--cache-dir", default=None, help="table cache directory")
    common.add_argument("--no-cache", action="store_true", help="disable the table cache")
    common.add_argument("--quiet", action="store_true", help="suppress warnings")
    common.add_argument(
        "--allow-slow",
        action="store_true",
        help=f"lift the desk-scale size caps (brute-force checks up to rank {oracle.MAX_RANK})",
    )

    parser = argparse.ArgumentParser(
        prog="hobchar",
        description="Exact character tables and branching matrices for "
        "symmetric and signed-permutation groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classes", parents=[common], help="conjugacy classes and orders")
    p.add_argument("--group", choices=GROUPS, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("table", parents=[common], help="character tables")
    p.add_argument("--group", choices=GROUPS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=TABLE_KINDS, required=True)

    p = sub.add_parser(
        "branch", parents=[common], help="branching matrices for S_2n over rank n"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("irreducible", "induced"), required=True)

    p = sub.add_parser(
        "fchar", parents=[common], help="coset permutation character of S_2n"
    )
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("verify", parents=[common], help="consistency checks")
    p.add_argument(
        "--check",
        choices=("eq8", "method-b", "oracle", "orthogonality", "all"),
        required=True,
    )
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--max-n", type=int, default=None)
    return parser


def _check_cap(value, cap, what, allow_slow):
    if value < 1:
        raise ValueError(f"{what} must be >= 1, got {value}")
    if not allow_slow and value > cap:
        raise ValueError(
            f"{what} {value} exceeds the desk-scale cap {cap}; pass --allow-slow"
        )


def _cache_from(args) -> TableCache | None:
    if args.no_cache:
        return None
    root = args.cache_dir or os.environ.get(CACHE_ENV_VAR)
    return TableCache(root) if root else None


def cmd_classes(args) -> int:
    if args.group == "sym":
        _check_cap(args.n, SYM_DEFAULT_CAP, "n", args.allow_slow)
        data = [(ct.label, order) for ct, order in symmetric.sym_classes(args.n)]
    else:
        _check_cap(args.n, HOB_DEFAULT_CAP, "n", args.allow_slow)
        data = [(a.label, order) for a, order in hyperoct.hob_classes(args.n)]
    sys.stdout.write(render((args.group, args.n, data), args.format))
    return 0


def _compute_table_document(group, n, kind):
    if kind == "fchar":
        labels, orders = zip(*symmetric.sym_classes(n))
        entries = (embedding.permutation_character_F(n // 2),)
        return TableDocument(group, n, kind, ("F",), labels, orders, entries)
    if kind.startswith("modified-"):
        if group != "sym":
            raise ValueError(f"{kind!r} applies only to --group sym")
        if n % 2:
            raise ValueError(f"{kind} tables need an even symmetric-group degree")
        ind_mod, irr_mod = embedding.modified_tables(n // 2)
        table = ind_mod if kind == "modified-induced" else irr_mod
    elif kind == "induced":
        if group == "sym":
            table = symmetric.sym_induced_table(n)
        else:
            table = hyperoct.hob_induced_table(n)
    else:
        if group == "sym":
            irreducible, transition = symmetric.sym_irreducible_table(n)
        else:
            irreducible, transition = hyperoct.hob_irreducible_table(n)
        table = transition if kind == "transition" else irreducible
    return document_from(table, group, n, kind)


def _write_table(args, group, n, kind) -> int:
    """Render the table document, from the cache when it holds a valid
    one, else computed and then stored."""
    cache = _cache_from(args)
    doc = cache.lookup(group, n, kind) if cache else None
    if doc is None:
        doc = _compute_table_document(group, n, kind)
        if cache:
            cache.store(doc)
    sys.stdout.write(render(doc, args.format))
    return 0


def cmd_table(args) -> int:
    cap = SYM_DEFAULT_CAP if args.group == "sym" else HOB_DEFAULT_CAP
    _check_cap(args.n, cap, "n", args.allow_slow)
    return _write_table(args, args.group, args.n, args.kind)


def cmd_branch(args) -> int:
    _check_cap(args.n, HOB_DEFAULT_CAP, "n", args.allow_slow)
    if args.kind == "irreducible":
        matrix = reduction.reduce_irreducible(args.n)
    else:
        matrix = reduction.reduce_induced(args.n)
    doc = document_from(matrix, "sym", 2 * args.n, "branching")
    sys.stdout.write(render(doc, args.format))
    return 0


def cmd_fchar(args) -> int:
    _check_cap(args.n, HOB_DEFAULT_CAP, "n", args.allow_slow)
    return _write_table(args, "sym", 2 * args.n, "fchar")


def _orthogonality_reports(n) -> list[CheckReport]:
    out = []
    for check, table in (
        ("orthogonality-sym", symmetric.sym_irreducible_table(2 * n)[0]),
        ("orthogonality-hyperoct", hyperoct.hob_irreducible_table(n)[0]),
    ):
        fail = first_orthogonality_failure(table)
        if fail is None:
            out.append(CheckReport(check=check, n=n, passed=True))
        else:
            i, j, got = fail
            row_i, row_j = table.row_labels[i], table.row_labels[j]
            out.append(mismatch(check, n, row_i, row_j, str(got), "1" if i == j else "0"))
    return out


def cmd_verify(args) -> int:
    if args.n is None and args.max_n is None:
        raise ValueError("verify needs --n and/or --max-n")
    lo = args.n if args.n is not None else 1
    hi = args.max_n if args.max_n is not None else lo
    if lo < 1 or hi < lo:
        raise ValueError(f"bad verification range {lo}..{hi}")
    oracle_cap = oracle.MAX_RANK if args.allow_slow else ORACLE_DEFAULT_CAP
    _check_cap(hi, HOB_DEFAULT_CAP, "n", args.allow_slow)
    if args.check == "oracle" and hi > oracle_cap:
        raise ValueError(
            f"brute-force checks are capped at rank {oracle_cap}"
            + ("" if args.allow_slow else " (see --allow-slow)")
        )

    reports: list[CheckReport] = []
    for n in range(lo, hi + 1):
        if args.check in ("eq8", "all"):
            reports.append(reduction.verify_consistency(n))
        if args.check in ("method-b", "all"):
            reports.append(chains.method_b_verify(n))
        if args.check in ("orthogonality", "all"):
            reports.extend(_orthogonality_reports(n))
        if args.check in ("oracle", "all"):
            if n <= oracle_cap:
                reports.append(oracle.oracle_agreement(n))
            elif not args.quiet:
                print(
                    f"note: skipping brute-force check at rank {n} (cap {oracle_cap})",
                    file=sys.stderr,
                )

    sys.stdout.write(render(reports, args.format))
    return 0 if all(r.passed for r in reports) else 1


PARSER = build_parser()


def run(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    # Looked up at call time, so a rebound ``cmd_*`` global is the one called.
    command = globals()[f"cmd_{args.command}"]
    with warnings.catch_warnings():
        if args.quiet:
            warnings.simplefilter("ignore", CacheWarning)
        try:
            return command(args)
        except (ValueError, ArithmeticError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
