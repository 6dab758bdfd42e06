"""File formats: algebras and identities as JSON.

Both formats keep rationals as "p/q" strings so files stay exact and
readable, and both are canonical on save (sorted, nonzero entries only),
so load followed by save is byte-stable.

Algebra files:

    {"name": "...", "dim": 8,
     "products": [{"i": 1, "j": 2, "v": ["0", "1", ... ]}, ...]}

with 1-based basis indices and only the nonzero products listed.

Identity files:

    {"degree": 4,
     "terms": [{"shape": "((xx)x)x", "perm": [2, 1, 3, 4], "coef": "-1/3"}, ...]}
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebras import Algebra
from .linalg import format_rational, parse_rational
from .monomials import (
    MAX_DEGREE,
    BracketShape,
    IdentityCombination,
    MultilinearMonomial,
)


class FormatError(ValueError):
    """A file failed validation; the message pinpoints the field."""


def _fail(where: str, problem: str):
    raise FormatError("%s: %s" % (where, problem))


def _is_int(value) -> bool:
    """An integer in the file: JSON true/false load as bool, a subclass of
    int, and are rejected."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_coef(where: str, value) -> Fraction:
    if not isinstance(value, str):
        _fail(where, "expected a rational string, got %r" % (value,))
    try:
        return parse_rational(value)
    except ValueError as e:
        _fail(where, str(e))


def algebra_from_dict(data: dict) -> Algebra:
    if not isinstance(data, dict):
        _fail("algebra", "expected a JSON object, got %s" % type(data).__name__)
    name = data.get("name", "")
    if not isinstance(name, str):
        _fail("name", "expected a string")
    dim = data.get("dim")
    if not _is_int(dim) or dim < 0:
        _fail("dim", "expected a nonnegative integer, got %r" % (dim,))
    products = data.get("products", [])
    if not isinstance(products, list):
        _fail("products", "expected a list")
    table = {}
    for pos, row in enumerate(products):
        where = "products[%d]" % pos
        if not isinstance(row, dict):
            _fail(where, "expected an object")
        i, j = row.get("i"), row.get("j")
        if not _is_int(i) or not _is_int(j):
            _fail(where, "indices i, j must be integers")
        if not (1 <= i <= dim and 1 <= j <= dim):
            _fail(where, "index (%d,%d) out of range for dim %d" % (i, j, dim))
        if (i, j) in table:
            _fail(where, "duplicate product entry (%d,%d)" % (i, j))
        v = row.get("v")
        if not isinstance(v, list) or len(v) != dim:
            _fail(where, "vector v must list %d rationals" % dim)
        table[(i, j)] = [_parse_coef("%s.v[%d]" % (where, k), x) for k, x in enumerate(v)]
    return Algebra.from_products(name, dim, table)


def product_rows(m) -> list:
    """Nonzero rows of a bilinear map (or algebra multiplication) in the
    on-disk schema: one {i, j, v} record per nonzero product, 1-based."""
    rows = []
    for i in range(1, m.dim + 1):
        for j in range(1, m.dim + 1):
            vec = m.c[i - 1][j - 1]
            if any(vec):
                rows.append(
                    {"i": i, "j": j, "v": [format_rational(x) for x in vec]}
                )
    return rows


def algebra_to_dict(a: Algebra) -> dict:
    return {"name": a.name, "dim": a.dim, "products": product_rows(a)}


def identity_from_dict(data: dict) -> IdentityCombination:
    if not isinstance(data, dict):
        _fail("identity", "expected a JSON object, got %s" % type(data).__name__)
    name = data.get("name", "")
    if not isinstance(name, str):
        _fail("name", "expected a string")
    degree = data.get("degree")
    if not _is_int(degree) or not 2 <= degree <= MAX_DEGREE:
        _fail("degree", "expected an integer in 2..%d, got %r" % (MAX_DEGREE, degree))
    raw = data.get("terms")
    if not isinstance(raw, list):
        _fail("terms", "expected a list")
    terms = []
    for pos, t in enumerate(raw):
        where = "terms[%d]" % pos
        if not isinstance(t, dict):
            _fail(where, "expected an object")
        shape = t.get("shape", "")
        if not isinstance(shape, str):
            _fail(where + ".shape", "expected a string")
        try:
            shape = BracketShape.parse(shape)
        except ValueError as e:
            _fail(where + ".shape", str(e))
        if shape.leaves != degree:
            _fail(where + ".shape", "has %d leaves, degree is %d" % (shape.leaves, degree))
        perm = t.get("perm")
        if (
            not isinstance(perm, list)
            or not all(map(_is_int, perm))
            or sorted(perm) != list(range(1, degree + 1))
        ):
            _fail(where + ".perm", "must be a permutation of 1..%d, got %r" % (degree, perm))
        coef = _parse_coef(where + ".coef", t.get("coef"))
        terms.append((MultilinearMonomial(shape, perm), coef))
    return IdentityCombination.from_terms(degree, terms, name=name)


def identity_to_dict(c: IdentityCombination) -> dict:
    terms = [
        {"shape": str(m.shape), "perm": list(m.perm), "coef": format_rational(x)}
        for m, x in c.terms()
    ]
    out = {"degree": c.degree, "terms": terms}
    if c.name:
        out["name"] = c.name
    return out


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise FormatError("%s: invalid JSON (%s)" % (path, e)) from e
        except UnicodeDecodeError as e:
            raise FormatError("%s: not UTF-8 text (%s)" % (path, e)) from e


def _dump(data: dict, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def load_algebra(path: str) -> Algebra:
    return algebra_from_dict(_load(path))


def save_algebra(a: Algebra, path: str):
    _dump(algebra_to_dict(a), path)


def load_identity(path: str) -> IdentityCombination:
    return identity_from_dict(_load(path))


def save_identity(c: IdentityCombination, path: str):
    _dump(identity_to_dict(c), path)
