"""Built-in catalog of the workbench's algebras.

Every multiplication table that exists in printed form is transcribed here
as a sparse entry list {(i, j): ((k, coef), ...)} meaning e_i e_j has
component coef on e_k (all indices 1-based, matching the table
coordinates). Algebras defined only as spans inside a larger algebra are
derived through restrict, so their tables are computed, not transcribed.

Two entries are parameterized by a rational pair (alpha, beta); the
catalog accepts them spelled like "Sab_bar(2,1)" or "Sab_bar(-1/2,3)".
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebras import Algebra, BilinearMap, Subspace, restrict
from .linalg import format_rational, parse_rational


class UnknownAlgebraError(KeyError):
    def __init__(self, name: str, suggestions=()):
        super().__init__(name)
        self.name = name
        self.suggestions = tuple(suggestions)

    def __str__(self):
        msg = "unknown algebra %r" % self.name
        if self.suggestions:
            msg += " (did you mean: %s?)" % ", ".join(self.suggestions)
        return msg


def _build(name: str, dim: int, entries: dict) -> Algebra:
    products = {}
    for (i, j), terms in entries.items():
        vec = [0] * dim
        for k, coef in terms:
            vec[k - 1] += coef
        products[(i, j)] = vec
    return Algebra(name, dim, BilinearMap.from_products(dim, products))


# row e_i, column e_j -> ((k, coef), ...)
_W2_BIG = {
    (1, 1): ((1, -1),), (1, 2): ((2, -3),), (1, 3): ((3, 1),), (1, 4): ((4, 3),),
    (1, 5): ((5, -1),), (1, 6): ((6, 1),), (1, 7): ((7, 1),), (1, 8): ((8, -1),),
    (2, 1): ((2, 3),), (2, 3): ((1, 2),), (2, 4): ((3, 1),), (2, 6): ((5, -1),),
    (2, 7): ((8, 1),),
    (3, 1): ((3, -2),), (3, 2): ((1, -1),), (3, 3): ((4, -3),), (3, 5): ((6, 1),),
    (3, 8): ((7, -1),),
    (5, 1): ((1, -2),), (5, 2): ((2, -3),), (5, 3): ((3, -1),), (5, 5): ((5, -2),),
    (5, 6): ((6, -1),), (5, 7): ((7, -1),), (5, 8): ((8, -2),),
    (6, 1): ((3, 2),), (6, 2): ((1, 1),), (6, 3): ((4, 3),), (6, 5): ((6, -1),),
    (6, 8): ((7, 1),),
    (7, 1): ((3, 2),), (7, 2): ((1, 1),), (7, 3): ((4, 3),), (7, 5): ((6, -1),),
    (7, 8): ((7, 1),),
    (8, 2): ((2, 1),), (8, 3): ((3, -1),), (8, 4): ((4, -2),), (8, 6): ((6, -1),),
    (8, 7): ((7, -1),),
}

_W2BAR = {
    (1, 1): ((1, -1),), (1, 2): ((2, -3),), (1, 3): ((3, 1),), (1, 4): ((4, 3),),
    (1, 5): ((5, -1),), (1, 6): ((6, 1),), (1, 7): ((7, 1),), (1, 8): ((8, -1),),
    (2, 1): ((2, 3),),
    (3, 1): ((3, -2),), (3, 3): ((4, -3),), (3, 5): ((6, 1),), (3, 8): ((7, -1),),
    (5, 1): ((1, -2),), (5, 2): ((2, -3),), (5, 3): ((3, -1),), (5, 5): ((5, -2),),
    (5, 6): ((6, -1),), (5, 7): ((7, -1),), (5, 8): ((8, -2),),
    (6, 1): ((3, 2),), (6, 3): ((4, 3),), (6, 5): ((6, -1),), (6, 8): ((7, 1),),
    (7, 1): ((3, 2),), (7, 3): ((4, 3),), (7, 5): ((6, -1),), (7, 8): ((7, 1),),
    (8, 2): ((2, 1),), (8, 3): ((3, -1),), (8, 4): ((4, -2),), (8, 6): ((6, -1),),
    (8, 7): ((7, -1),),
}

_S1BAR = {
    (3, 3): ((4, -3),), (3, 5): ((6, 1),), (3, 8): ((7, -1),),
    (5, 1): ((1, -2),), (5, 2): ((2, -3),), (5, 3): ((3, -1),), (5, 5): ((5, -2),),
    (5, 6): ((6, -1),), (5, 7): ((7, -1),), (5, 8): ((8, -2),),
    (6, 3): ((4, 3),), (6, 5): ((6, -1),), (6, 8): ((7, 1),),
    (7, 3): ((4, 3),), (7, 5): ((6, -1),), (7, 8): ((7, 1),),
    (8, 2): ((2, 1),), (8, 3): ((3, -1),), (8, 4): ((4, -2),), (8, 6): ((6, -1),),
    (8, 7): ((7, -1),),
}

_S5BAR = {
    (1, 1): ((1, -1),), (1, 2): ((2, -3),), (1, 3): ((3, 1),), (1, 4): ((4, 3),),
    (1, 5): ((5, -1),), (1, 6): ((6, 1),), (1, 7): ((7, 1),), (1, 8): ((8, -1),),
    (2, 1): ((2, 3),),
    (3, 1): ((3, -2),), (3, 3): ((4, -3),), (3, 8): ((7, -1),),
    (6, 1): ((3, 2),), (6, 3): ((4, 3),), (6, 8): ((7, 1),),
    (7, 1): ((3, 2),), (7, 3): ((4, 3),), (7, 8): ((7, 1),),
    (8, 2): ((2, 1),), (8, 3): ((3, -1),), (8, 4): ((4, -2),), (8, 6): ((6, -1),),
    (8, 7): ((7, -1),),
}

_W2HAT = {
    (1, 1): ((1, -1),), (1, 2): ((2, -3),), (1, 3): ((3, 1),), (1, 4): ((4, 3),),
    (1, 5): ((5, -1),), (1, 6): ((6, 1),), (1, 7): ((7, 1),), (1, 8): ((8, -1),),
    (2, 1): ((2, 3),), (2, 3): ((1, 2),), (2, 4): ((3, 1),), (2, 6): ((5, -1),),
    (2, 7): ((8, 1),),
    (3, 1): ((3, -2),), (3, 2): ((1, -1),), (3, 3): ((4, -3),), (3, 5): ((6, 1),),
    (3, 8): ((7, -1),),
    (5, 1): ((1, -2),), (5, 2): ((2, -3),), (5, 3): ((3, -1),), (5, 5): ((5, -2),),
    (5, 6): ((6, -1),), (5, 7): ((7, -1),), (5, 8): ((8, -2),),
    (6, 1): ((3, 2),), (6, 2): ((1, 1),), (6, 3): ((4, 3),), (6, 5): ((6, -1),),
    (6, 8): ((7, 1),),
}

_W2HATHAT = {
    (1, 1): ((1, -1),), (1, 2): ((2, -3),), (1, 3): ((3, 1),), (1, 4): ((4, 3),),
    (1, 5): ((5, -1),), (1, 6): ((6, 1),), (1, 7): ((7, 1),), (1, 8): ((8, -1),),
    (2, 1): ((2, 3),), (2, 3): ((1, 2),), (2, 4): ((3, 1),), (2, 6): ((5, -1),),
    (2, 7): ((8, 1),),
    (3, 1): ((3, -2),), (3, 2): ((1, -1),), (3, 3): ((4, -3),), (3, 5): ((6, 1),),
    (3, 8): ((7, -1),),
}

_W2TILDE = {
    (1, 1): ((1, -1),), (1, 2): ((2, -3),), (1, 3): ((3, 1),), (1, 4): ((4, 3),),
    (1, 5): ((5, -1),), (1, 6): ((6, 1),), (1, 7): ((7, 1),), (1, 8): ((8, -1),),
    (2, 1): ((2, 3),), (2, 4): ((3, 1),), (2, 6): ((5, -1),), (2, 7): ((8, 1),),
    (3, 1): ((3, -2),),
    (6, 1): ((3, 2),),
    (7, 1): ((3, 2),),
}

_W2TILDETILDE = {
    (1, 1): ((1, -1),), (1, 2): ((2, -3),), (1, 3): ((3, 1),), (1, 4): ((4, 3),),
    (1, 5): ((5, -1),), (1, 6): ((6, 1),), (1, 7): ((7, 1),), (1, 8): ((8, -1),),
    (2, 1): ((2, 3),),
    (3, 1): ((3, -2),),
    (6, 1): ((3, 2),),
    (7, 1): ((3, 2),),
}


def _sab_adapted_entries(alpha: Fraction, beta: Fraction) -> dict:
    """The dim-8 algebra W2bar rewritten in the basis
    (e_1 + alpha e_8, e_2, e_3, e_4, e_5 + beta e_8, e_6, e_7, e_8)."""
    a, b = alpha, beta
    return {
        (1, 1): ((1, -1),), (1, 2): ((2, a - 3),), (1, 3): ((3, 1 - a),),
        (1, 4): ((4, 3 - 2 * a),), (1, 5): ((5, -1),), (1, 6): ((6, 1 - a),),
        (1, 7): ((7, 1 - a),), (1, 8): ((8, -1),),
        (2, 1): ((2, 3),),
        (3, 1): ((3, -2), (7, -a)), (3, 3): ((4, -3),), (3, 5): ((6, 1), (7, -b)),
        (3, 8): ((7, -1),),
        (5, 1): ((1, -2),), (5, 2): ((2, b - 3),), (5, 3): ((3, -1 - b),),
        (5, 4): ((4, -2 * b),), (5, 5): ((5, -2),), (5, 6): ((6, -1 - b),),
        (5, 7): ((7, -1 - b),), (5, 8): ((8, -2),),
        (6, 1): ((3, 2), (7, a)), (6, 3): ((4, 3),), (6, 5): ((6, -1), (7, b)),
        (6, 8): ((7, 1),),
        (7, 1): ((3, 2), (7, a)), (7, 3): ((4, 3),), (7, 5): ((6, -1), (7, b)),
        (7, 8): ((7, 1),),
        (8, 2): ((2, 1),), (8, 3): ((3, -1),), (8, 4): ((4, -2),),
        (8, 6): ((6, -1),), (8, 7): ((7, -1),),
    }


def _sab_bar_entries(alpha: Fraction, beta: Fraction) -> dict:
    ent = dict(_sab_adapted_entries(alpha, beta))
    for key in [(3, 8), (6, 8), (7, 8), (8, 2), (8, 3), (8, 4), (8, 6), (8, 7)]:
        del ent[key]
    return ent


def _fmt_pair(alpha: Fraction, beta: Fraction) -> str:
    return "(%s,%s)" % (format_rational(alpha), format_rational(beta))


def sab_adapted(alpha, beta) -> Algebra:
    """Contraction source for Sab_bar: the adapted-basis form of W2bar."""
    a, b = Fraction(alpha), Fraction(beta)
    return _build("Sab_adapted" + _fmt_pair(a, b), 8, _sab_adapted_entries(a, b))


def sab_bar(alpha, beta) -> Algebra:
    a, b = Fraction(alpha), Fraction(beta)
    return _build("Sab_bar" + _fmt_pair(a, b), 8, _sab_bar_entries(a, b))


def sab_sub(alpha, beta) -> Algebra:
    a, b = Fraction(alpha), Fraction(beta)
    return _restricted(sab_adapted(a, b), range(1, 8), "Sab_sub" + _fmt_pair(a, b))


def _restricted(parent: Algebra, indices, name: str) -> Algebra:
    sub = restrict(parent, Subspace.span_of_basis_indices(parent.dim, indices))
    return sub.renamed(name)


_FIXED_TABLES = {
    "W2(big)": (8, _W2_BIG),
    "W2bar": (8, _W2BAR),
    "S1bar": (8, _S1BAR),
    "S5bar": (8, _S5BAR),
    "W2hat": (8, _W2HAT),
    "W2hathat": (8, _W2HATHAT),
    "W2tilde": (8, _W2TILDE),
    "W2tildetilde": (8, _W2TILDETILDE),
}

# span-defined entries: (parent catalog key, 1-based basis indices)
_SPANS = {
    "B2": ("W2(big)", (1, 3, 4, 5, 6, 7, 8)),
    "W2": ("W2(big)", (1, 2, 3, 4, 5, 6)),
    "C2": ("W2(big)", (1, 3, 4, 5, 6)),
    "S2": ("W2(big)", (1, 2, 3, 4)),
    "D2": ("W2(big)", (1, 3, 4)),
    "E2": ("W2(big)", (1, 2)),
    "S1_sub": ("W2bar", (2, 3, 4, 5, 6, 7, 8)),
    "S2_sub": ("W2bar", (1, 3, 4, 5, 6, 7, 8)),
    "S5_sub": ("W2bar", (1, 2, 3, 4, 6, 7, 8)),
}

_PARAMETERIZED = {"Sab_bar": sab_bar, "Sab_sub": sab_sub}

CATALOG_KEYS = (
    "W2(big)", "W2bar", "S1bar", "S5bar", "Sab_bar(α,β)", "W2hat", "W2hathat",
    "W2tilde", "W2tildetilde", "B2", "W2", "C2", "S2", "D2", "E2",
    "Sab_sub(α,β)", "S1_sub", "S2_sub", "S5_sub",
)

_PARAM_RE = re.compile(r"^(Sab_bar|Sab_sub)\(\s*(-?[0-9]+(?:/[0-9]+)?)\s*,\s*(-?[0-9]+(?:/[0-9]+)?)\s*\)$")


def catalog_names() -> tuple:
    return CATALOG_KEYS


def catalog_summary() -> list:
    """(key, dim, parameterized?, construction) rows for listings."""
    rows = []
    for key in CATALOG_KEYS:
        if key.endswith("(α,β)"):
            rows.append((key, 8 if key.startswith("Sab_bar") else 7, True,
                         "parameterized table"))
        elif key in _FIXED_TABLES:
            rows.append((key, _FIXED_TABLES[key][0], False, "fixed table"))
        else:
            parent, idx = _SPANS[key]
            rows.append((key, len(idx), False,
                         "restriction of %s to e_%s" % (parent, ",e_".join(map(str, idx)))))
    return rows


def catalog(name: str) -> Algebra:
    """Look up an algebra by its catalog key."""
    name = name.strip()
    if name in _FIXED_TABLES:
        dim, entries = _FIXED_TABLES[name]
        return _build(name, dim, entries)
    if name in _SPANS:
        parent_key, indices = _SPANS[name]
        return _restricted(catalog(parent_key), indices, name)
    m = _PARAM_RE.match(name)
    if m:
        alpha = parse_rational(m.group(2))
        beta = parse_rational(m.group(3))
        return _PARAMETERIZED[m.group(1)](alpha, beta)
    import difflib

    bare = [k.replace("(α,β)", "") for k in CATALOG_KEYS]
    sugg = difflib.get_close_matches(name.split("(")[0], bare, n=3, cutoff=0.4)
    sugg = [k + "(α,β)" if k in _PARAMETERIZED else k for k in sugg]
    raise UnknownAlgebraError(name, sugg)
