"""Registry of reproducible results.

Every number or verdict the package reproduces is recorded in
``data/claims.json`` as a small dict with an id, a scope, a kind and the
expected outcome.  ``run_claims`` evaluates records through the public
API and reports one :class:`ClaimResult` per record.  The command line
``reproduce`` subcommand and the acceptance tests both run this registry,
so there is exactly one place where expectations live.

Claim kinds
-----------

``der_dim``             dimension of the derivation algebra
``contraction``         a one-parameter scaling limit lands on a named table
``terminal``            verdict of the degree-four terminal identity
``conservative``        solvability of the conservative linear system
``witness``             a given second multiplication satisfies the system
``ideal``               a coordinate subspace is a proper ideal
``identity_dim``        dimension of the multilinear identity space
``spaces_equal``        two algebras share the same identity space
``satisfies``           a single identity holds (or fails) on an algebra
``identity_basis``      given identities are a basis of the identity space
``shape_dim``           identity-space dimension within one product shape
``shape_basis``         given identities are a basis of a shape subspace
``combo_equals``        a linear combination of identities equals another
``b2_dim``              dimension of the coborder space
``z2_dim``              dimension of a cocycle space
``z2_undefined``        the cocycle space is undefined (identity fails)
``h2_report``           full cohomology report (Z2, H2)
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional

from .algebras import Algebra, BilinearMap, Subspace, derivation_algebra, is_ideal
from .catalog import catalog, sab_adapted
from .cohomology import cohomology, cocycle_space, coborder_space
from .conservative import (
    conservative_solve,
    is_terminal,
    terminal_identity,
    verify_witness,
)
from .contraction import compare_tables, iw_contract
from .formats import identity_from_dict
from .identities import (
    identity_space,
    satisfies_identity,
    shape_identity_space,
    spaces_equal,
)
from .linalg import format_rational, parse_rational
from .monomials import IdentityCombination, st_identity, tail_fixed_alternating

_DATA = Path(__file__).resolve().parent / "data" / "claims.json"

_ADAPTED_RE = re.compile(r"^Sab_adapted\(\s*([^,()]+)\s*,\s*([^,()]+)\s*\)$")


class UnknownIdentityError(KeyError):
    """Raised for identity names outside the built-in family."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name
        self.suggestions = [n for n in identity_names() if n[:2] == name[:2]]

    def __str__(self):
        return "unknown identity %r" % (self.name,)


# name -> (constructor, arguments) of each built-in identity
_IDENTITIES = {
    **{"st%d_%d" % (n, v): (st_identity, (n, v)) for n in (3, 4, 5) for v in (1, 2)},
    "terminal": (terminal_identity, ()),
    **{"tail%d_%d" % (n, j): (tail_fixed_alternating, (n, j))
       for n in (3, 4, 5) for j in range(1, n + 1)},
}


def identity_names() -> tuple:
    """Names accepted by :func:`named_identity`."""
    return tuple(_IDENTITIES)


@lru_cache(maxsize=None)
def named_identity(name: str) -> IdentityCombination:
    """Look up one of the built-in identities by name.

    Each name is built once per process, so every claim on it shares one
    combination, and the evaluation plan identities keeps on it. Unknown
    names raise each time and are not cached.
    """
    if name not in _IDENTITIES:
        raise UnknownIdentityError(name)
    make, args = _IDENTITIES[name]
    return make(*args)


def resolve_identity(spec) -> IdentityCombination:
    """Turn a claim identity spec into a combination.

    Accepts a built-in name, an inline identity dict (the on-disk JSON
    schema) or ``{"combo": [[coef, name], ...]}`` for rational linear
    combinations of built-in identities.
    """
    if isinstance(spec, str):
        return named_identity(spec)
    if isinstance(spec, dict) and "combo" in spec:
        total = None
        for coef, name in spec["combo"]:
            part = named_identity(name).scaled(parse_rational(coef))
            total = part if total is None else total.plus(part)
        total.name = describe_identity(spec)
        return total
    if isinstance(spec, dict):
        return identity_from_dict(spec)
    raise TypeError("bad identity spec %r" % (spec,))


def describe_identity(spec) -> str:
    if isinstance(spec, str):
        return spec
    if isinstance(spec, dict) and "combo" in spec:
        return " + ".join("%s*%s" % (c, n) for c, n in spec["combo"])
    name = spec.get("name") if isinstance(spec, dict) else None
    return name or "inline degree-%d identity" % spec["degree"]


def _algebra(name: str) -> Algebra:
    """Resolve a claim algebra name.

    Everything in the public catalog, plus the adapted-basis presentation
    ``Sab_adapted(a,b)`` used as the source of the last contraction step.
    """
    m = _ADAPTED_RE.match(name)
    if m:
        return sab_adapted(parse_rational(m.group(1)), parse_rational(m.group(2)))
    return catalog(name)


class _Algebras(dict):
    """Claim algebra name -> algebra, each resolved through _algebra on its
    first lookup and then kept. run_claims shares one among its claims,
    run_claim alone uses a fresh one. A name that fails to resolve is not
    kept, so it fails every claim that names it, and only those."""

    def __missing__(self, name: str) -> Algebra:
        a = self[name] = _algebra(name)
        return a


def _witness_map(dim: int, products) -> BilinearMap:
    table = {}
    for row in products:
        table[(row["i"], row["j"])] = tuple(parse_rational(s) for s in row["v"])
    return BilinearMap.from_products(dim, table)


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    scope: str
    kind: str
    expected: str
    computed: str
    ok: bool
    seconds: float


def load_claims() -> tuple:
    with open(_DATA, "r", encoding="utf-8") as fh:
        records = json.load(fh)["claims"]
    return tuple(sorted(records, key=lambda r: r["id"]))


def claim_scopes() -> tuple:
    return tuple(sorted({r["scope"] for r in load_claims()}))


def _run_der_dim(rec, algebras):
    got, _ = derivation_algebra(algebras[rec["algebra"]])
    return str(rec["expected"]), str(got), got == rec["expected"]


def _run_contraction(rec, algebras):
    source = algebras[rec["source"]]
    target = algebras[rec["target"]]
    got = iw_contract(source, rec["scale"])
    bad = compare_tables(got, target)
    computed = "table matches" if not bad else "%d entries differ, first %s" % (
        len(bad), bad[0][:3])
    return "limit is %s" % rec["target"], computed, not bad


def _run_terminal(rec, algebras):
    got = is_terminal(algebras[rec["algebra"]])
    return str(rec["expected"]), str(got), got == rec["expected"]


def _run_conservative(rec, algebras):
    w = conservative_solve(algebras[rec["algebra"]])
    got = w is not None
    computed = "conservative (freedom %d)" % w.freedom if got else "not conservative"
    return str(rec["expected"]), computed, got == rec["expected"]


def _run_witness(rec, algebras):
    a = algebras[rec["algebra"]]
    f = _witness_map(a.dim, rec["products"])
    ok = verify_witness(a, f)
    return "F solves the system", "verified" if ok else "defect found", ok


def _run_ideal(rec, algebras):
    a = algebras[rec["algebra"]]
    s = Subspace.span_of_basis_indices(a.dim, rec["span"])
    ok = is_ideal(a, s) and 0 < s.dim < a.dim
    computed = "proper ideal of dim %d" % s.dim if ok else "not a proper ideal"
    return "proper ideal of dim %d" % len(rec["span"]), computed, ok


def _run_identity_dim(rec, algebras):
    dim, _ = identity_space(algebras[rec["algebra"]], rec["degree"])
    return str(rec["expected"]), str(dim), dim == rec["expected"]


def _run_spaces_equal(rec, algebras):
    _, left = identity_space(algebras[rec["left"]], rec["degree"])
    _, right = identity_space(algebras[rec["right"]], rec["degree"])
    ok = spaces_equal(left, right)
    return "equal spaces", "equal" if ok else "different", ok


def _run_satisfies(rec, algebras):
    got = satisfies_identity(algebras[rec["algebra"]], resolve_identity(rec["identity"]))
    return str(rec["expected"]), str(got), got == rec["expected"]


def _basis_check(given, dim, basis):
    if len(given) != dim:
        return "dim %d, %d identities given" % (dim, len(given)), False
    ok = spaces_equal(given, basis)
    return ("dim %d, spans match" if ok else "dim %d, spans differ") % dim, ok


def _run_identity_basis(rec, algebras):
    a = algebras[rec["algebra"]]
    given = [resolve_identity(s) for s in rec["identities"]]
    dim, basis = identity_space(a, rec["degree"])
    expected = "basis of %d identities" % len(rec["identities"])
    computed, ok = _basis_check(given, dim, basis)
    return expected, computed, ok


def _run_shape_dim(rec, algebras):
    dim, _ = shape_identity_space(algebras[rec["algebra"]], rec["degree"], rec["shape"])
    return str(rec["expected"]), str(dim), dim == rec["expected"]


def _run_shape_basis(rec, algebras):
    a = algebras[rec["algebra"]]
    given = [resolve_identity(s) for s in rec["identities"]]
    dim, basis = shape_identity_space(a, rec["degree"], rec["shape"])
    expected = "basis of %d identities" % len(rec["identities"])
    computed, ok = _basis_check(given, dim, basis)
    return expected, computed, ok


def _run_combo_equals(rec, algebras):
    combo = resolve_identity({"combo": rec["combo"]})
    target = resolve_identity(rec["equals"])
    ok = combo == target
    expected = "combination equals %s" % describe_identity(rec["equals"])
    return expected, "equal" if ok else "different", ok


def _run_b2_dim(rec, algebras):
    dim, _ = coborder_space(algebras[rec["algebra"]])
    return str(rec["expected"]), str(dim), dim == rec["expected"]


def _run_z2_dim(rec, algebras):
    a = algebras[rec["algebra"]]
    dim, _ = cocycle_space(a, resolve_identity(rec["identity"]))
    return str(rec["expected"]), str(dim), dim == rec["expected"]


def _run_z2_undefined(rec, algebras):
    a = algebras[rec["algebra"]]
    try:
        dim, _ = cocycle_space(a, resolve_identity(rec["identity"]))
    except ValueError as exc:
        hit = str(exc).startswith("base does not satisfy P")
        return "identity fails on the base", "identity fails", hit
    return "identity fails on the base", "cocycle space of dim %d" % dim, False


def _run_h2_report(rec, algebras):
    a = algebras[rec["algebra"]]
    rep = cohomology(a, resolve_identity(rec["identity"]))
    computed = "Z2=%d, H2=%d" % (rep.z2_dim, rep.h2_dim)
    want_z2 = rec.get("expected_z2")
    ok = rep.h2_dim == rec["expected_h2"] and want_z2 in (None, rep.z2_dim)
    expected = ", ".join(
        (["Z2=%d" % want_z2] if want_z2 is not None else [])
        + ["H2=%d" % rec["expected_h2"]])
    return expected, computed, ok


_RUNNERS = {
    "der_dim": _run_der_dim,
    "contraction": _run_contraction,
    "terminal": _run_terminal,
    "conservative": _run_conservative,
    "witness": _run_witness,
    "ideal": _run_ideal,
    "identity_dim": _run_identity_dim,
    "spaces_equal": _run_spaces_equal,
    "satisfies": _run_satisfies,
    "identity_basis": _run_identity_basis,
    "shape_dim": _run_shape_dim,
    "shape_basis": _run_shape_basis,
    "combo_equals": _run_combo_equals,
    "b2_dim": _run_b2_dim,
    "z2_dim": _run_z2_dim,
    "z2_undefined": _run_z2_undefined,
    "h2_report": _run_h2_report,
}


def run_claim(rec: dict) -> ClaimResult:
    return _run_claim(rec, _Algebras())


def _run_claim(rec: dict, algebras: _Algebras) -> ClaimResult:
    start = time.monotonic()
    try:
        expected, computed, ok = _RUNNERS[rec["kind"]](rec, algebras)
    except Exception as exc:
        expected, computed, ok = "no error", "error: %s" % exc, False
    return ClaimResult(
        claim_id=rec["id"],
        scope=rec["scope"],
        kind=rec["kind"],
        expected=expected,
        computed=computed,
        ok=ok,
        seconds=time.monotonic() - start,
    )


def run_claims(scope: Optional[str] = None,
               progress: Optional[Callable[[ClaimResult], None]] = None) -> list:
    """Evaluate every claim (or one scope) and return the results.

    Results come back sorted by claim id.  ``progress`` is called with each
    result as soon as it is known, for streaming output.  Each algebra
    name is resolved once per call, on the first claim that names it.
    """
    records = load_claims()
    if scope is not None:
        records = tuple(r for r in records if r["scope"] == scope)
        if not records:
            raise ValueError("unknown claim scope %r (have: %s)"
                             % (scope, ", ".join(claim_scopes())))
    algebras = _Algebras()
    results = []
    for rec in records:
        res = _run_claim(rec, algebras)
        results.append(res)
        if progress is not None:
            progress(res)
    return results
