"""Command line front end.

Every subcommand resolves its algebra argument against the catalog first
and falls back to a JSON file path, so saved tables can be fed back in.
``reproduce`` runs the claim registry (optionally one scope) and exits
nonzero if anything disagrees.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebras import derivation_algebra
from .catalog import UnknownAlgebraError, catalog, catalog_summary
from .claims import (
    UnknownIdentityError,
    claim_scopes,
    identity_names,
    named_identity,
    run_claims,
)
from .cohomology import cohomology
from .conservative import conservative_solve, first_terminal_violation, is_terminal
from .contraction import iw_contract
from .formats import (
    FormatError,
    algebra_to_dict,
    identity_to_dict,
    load_algebra,
    load_identity,
    product_rows,
)
from .identities import first_violation, identity_space, shape_identity_space
from .linalg import format_rational
from .monomials import shapes


class _Usage(Exception):
    """Bad user input: report and exit with status 2."""


def _resolve_algebra(name: str):
    try:
        return catalog(name)
    except UnknownAlgebraError as exc:
        if os.path.exists(name):
            try:
                return load_algebra(name)
            except FormatError as err:
                raise _Usage(str(err)) from err
        hint = ""
        if exc.suggestions:
            hint = " (did you mean: %s?)" % ", ".join(exc.suggestions)
        raise _Usage("unknown algebra %r%s" % (name, hint)) from exc


def _resolve_identity(spec: str):
    try:
        return named_identity(spec)
    except UnknownIdentityError as exc:
        if os.path.exists(spec):
            try:
                return load_identity(spec)
            except FormatError as err:
                raise _Usage(str(err)) from err
        names = ", ".join(identity_names())
        raise _Usage("unknown identity %r (known: %s, or a JSON file)"
                     % (spec, names)) from exc


def _parse_scale(text: str):
    try:
        indices = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise _Usage("--scale expects comma-separated indices, got %r" % text)
    if not indices:
        raise _Usage("--scale expects at least one index")
    return indices


def cmd_catalog(args):
    rows = catalog_summary()
    width = max(len(r[0]) for r in rows)
    for name, dim, parameterized, note in rows:
        mark = "" if not parameterized or "parameterized" in note \
            else "  (parameterized)"
        print("%-*s  dim %d  %s%s" % (width, name, dim, note, mark))
    return 0


def cmd_show(args):
    a = _resolve_algebra(args.algebra)
    print(json.dumps(algebra_to_dict(a), indent=2))
    return 0


def cmd_derivations(args):
    a = _resolve_algebra(args.algebra)
    dim, basis = derivation_algebra(a)
    print("dim Der(%s) = %d" % (a.name, dim))
    if args.basis:
        for idx, mat in enumerate(basis, start=1):
            print("D%d:" % idx)
            for i in range(mat.rows):
                print("  [%s]" % ", ".join(
                    format_rational(mat[i, j]) for j in range(mat.cols)))
    return 0


def cmd_contract(args):
    a = _resolve_algebra(args.algebra)
    scaled = _parse_scale(args.scale)
    if any(not 1 <= i <= a.dim for i in scaled):
        raise _Usage("--scale indices must lie in 1..%d" % a.dim)
    try:
        limit = iw_contract(a, scaled)
    except ValueError as exc:
        raise _Usage(str(exc)) from exc
    print(json.dumps(algebra_to_dict(limit), indent=2))
    return 0


def cmd_identities(args):
    a = _resolve_algebra(args.algebra)
    dim, basis = identity_space(a, args.degree)
    print("dim of the degree-%d identity space of %s = %d"
          % (args.degree, a.name, dim))
    if args.basis:
        print(json.dumps([identity_to_dict(c) for c in basis], indent=2))
    return 0


def cmd_shape_space(args):
    a = _resolve_algebra(args.algebra)
    total = len(shapes(args.degree))
    if not 1 <= args.shape <= total:
        raise _Usage("--shape must lie in 1..%d for degree %d"
                     % (total, args.degree))
    dim, basis = shape_identity_space(a, args.degree, args.shape)
    shape = shapes(args.degree)[args.shape - 1]
    print("shape %d of degree %d: %s" % (args.shape, args.degree, shape))
    print("dim of its identity space on %s = %d" % (a.name, dim))
    if args.basis:
        print(json.dumps([identity_to_dict(c) for c in basis], indent=2))
    return 0


def cmd_check(args):
    a = _resolve_algebra(args.algebra)
    c = _resolve_identity(args.identity)
    where = first_violation(a, c)
    if where is None:
        print("satisfied")
    else:
        print("violated at basis tuple %s" % (where,))
    return 0


def cmd_conservative(args):
    a = _resolve_algebra(args.algebra)
    witness = conservative_solve(a)
    if witness is None:
        print("conservative: no")
        return 0
    print("conservative: yes")
    print("freedom (dim of homogeneous solutions): %d" % witness.freedom)
    print("witness F:")
    print(json.dumps({"dim": a.dim, "products": product_rows(witness.F)},
                     indent=2))
    return 0


def cmd_terminal(args):
    a = _resolve_algebra(args.algebra)
    if is_terminal(a):
        print("terminal: yes")
    else:
        print("terminal: no")
        print("first violating tuple: %s" % (first_terminal_violation(a),))
    return 0


def cmd_cohomology(args):
    a = _resolve_algebra(args.algebra)
    p = _resolve_identity(args.identity)
    try:
        rep = cohomology(a, p)
    except ValueError as exc:
        print(str(exc))
        return 1
    print("algebra: %s" % a.name)
    print("identity: %s" % (p.name or args.identity))
    print("dim B2 = %d" % rep.b2_dim)
    print("dim Z2 = %d" % rep.z2_dim)
    if rep.coborders_contained:
        print("dim H2 = %d" % rep.h2_dim)
    else:
        print("dim H2 undefined: coborders are not all cocycles")
        print("witness coborder:")
        mat = rep.stray_coborder
        for i in range(mat.rows):
            print("  [%s]" % ", ".join(
                format_rational(mat[i, j]) for j in range(mat.cols)))
    return 0


def cmd_reproduce(args):
    scope = None if args.scope in (None, "all") else args.scope
    if scope is not None and scope not in claim_scopes():
        raise _Usage("unknown scope %r (have: all, %s)"
                     % (args.scope, ", ".join(claim_scopes())))
    if args.json:
        results = run_claims(scope)
        payload = {
            "claims": [
                {"id": r.claim_id, "scope": r.scope, "kind": r.kind,
                 "expected": r.expected, "computed": r.computed,
                 "ok": r.ok, "seconds": round(r.seconds, 3)}
                for r in results
            ],
            "total": len(results),
            "failed": sum(1 for r in results if not r.ok),
        }
        print(json.dumps(payload, indent=2))
        return 0 if payload["failed"] == 0 else 1

    header = "%-36s %-28s %-28s %-5s %8s" % (
        "claim", "expected", "computed", "ok", "time")
    print(header)
    print("-" * len(header))

    def report(r):
        print("%-36s %-28s %-28s %-5s %7.2fs" % (
            r.claim_id, r.expected, r.computed,
            "ok" if r.ok else "FAIL", r.seconds))
        sys.stdout.flush()

    results = run_claims(scope, progress=report)
    failed = sum(1 for r in results if not r.ok)
    total_time = sum(r.seconds for r in results)
    print("-" * len(header))
    print("%d claims, %d ok, %d failed, %.1fs"
          % (len(results), len(results) - failed, failed, total_time))
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonassoc",
        description="Exact workbench for algebras given by rational "
                    "structure constants.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list the built-in algebras")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("show", help="print an algebra as JSON")
    p.add_argument("algebra")
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("derivations", help="dimension of the derivation algebra")
    p.add_argument("algebra")
    p.add_argument("--basis", action="store_true", help="print a basis")
    p.set_defaults(func=cmd_derivations)

    p = sub.add_parser("contract", help="scaling limit onto a subalgebra")
    p.add_argument("algebra")
    p.add_argument("--scale", required=True, metavar="i,j,...",
                   help="1-based indices of the scaled basis vectors")
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("identities", help="multilinear identity space")
    p.add_argument("algebra")
    p.add_argument("--degree", type=int, required=True, choices=(3, 4, 5))
    p.add_argument("--basis", action="store_true", help="print a basis")
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("shape-space", help="identity space of one shape orbit")
    p.add_argument("algebra")
    p.add_argument("--degree", type=int, default=5, choices=(3, 4, 5))
    p.add_argument("--shape", type=int, required=True, metavar="i",
                   help="1-based shape index")
    p.add_argument("--basis", action="store_true", help="print a basis")
    p.set_defaults(func=cmd_shape_space)

    p = sub.add_parser("check", help="test one identity on an algebra")
    p.add_argument("algebra")
    p.add_argument("--identity", required=True,
                   help="a built-in name (st3_1 ... st5_2, terminal, "
                        "tail5_1 ... tail5_5) or a JSON file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("conservative",
                       help="solve for a second multiplication witness")
    p.add_argument("algebra")
    p.set_defaults(func=cmd_conservative)

    p = sub.add_parser("terminal", help="test the degree-4 terminal identity")
    p.add_argument("algebra")
    p.set_defaults(func=cmd_terminal)

    p = sub.add_parser("cohomology",
                       help="coborders, cocycles and their quotient")
    p.add_argument("algebra")
    p.add_argument("--identity", required=True,
                   help="identity name or JSON file defining the variety")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("reproduce", help="re-run the recorded results")
    p.add_argument("scope", nargs="?", default="all",
                   help="all (default) or one of: %s" % ", ".join(claim_scopes()))
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Usage as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
