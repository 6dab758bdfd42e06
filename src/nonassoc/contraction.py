"""Inönü–Wigner contraction along a subset of the basis.

Scaling the chosen basis vectors by t (s_i = 1 for a scaled e_i, else 0)
turns each structure constant into a monomial c * t^(s_i + s_j - s_k). A
negative power appears exactly when a product of two unscaled vectors has
a component along a scaled one, that is, when the unscaled vectors span no
subalgebra; otherwise letting t -> 0 keeps exactly the exponent-zero
entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebras import Algebra, BilinearMap, _basis_index


class ContractionError(ValueError):
    pass


def laurent_constants(a: Algebra, scaled_indices) -> dict:
    """{(i, j, k): (exponent, coefficient)}, 1-based keys, one entry per
    nonzero structure constant: in the scaled basis c[i][j][k] becomes
    coefficient * t^exponent with exponent s_i + s_j - s_k.

    Raises ContractionError for a basis index outside 1..dim, and when a
    negative exponent appears, which happens exactly when the unscaled
    vectors do not span a subalgebra; the message names the first such
    (i, j, k).
    """
    _scaled, e, carr, den = _exponents(a, scaled_indices)
    el, cl = e.tolist(), carr.tolist()
    return {
        (i + 1, j + 1, k + 1): (el[i][j][k], Fraction(cl[i][j][k], den))
        for i, j, k in np.argwhere(carr != 0).tolist()
    }


def _exponents(a: Algebra, scaled_indices):
    """(scaled, e, ints, den): the scaled indices, sorted, each checked by
    _basis_index; e[i, j, k] = s_i + s_j - s_k; and a's cleared constants
    ints / den. Raises as laurent_constants says."""
    scaled = set()
    for i in scaled_indices:
        try:
            scaled.add(_basis_index(i, a.dim))
        except ValueError:
            raise ContractionError("basis index %r out of range" % (i,)) from None
    s = np.array([int(i in scaled) for i in range(1, a.dim + 1)], dtype=np.int64)
    e = s[:, None, None] + s[None, :, None] - s[None, None, :]
    carr, den = a.int_constants()
    bad = np.argwhere((e < 0) & (carr != 0)).tolist()
    if bad:
        i, j, k = bad[0]
        raise ContractionError(
            "not a subalgebra: e_%d e_%d has component %s e_%d"
            % (i + 1, j + 1, Fraction(int(carr[i, j, k]), den), k + 1))
    return sorted(scaled), e, carr, den


def iw_contract(a: Algebra, scaled_indices, name: str = "") -> Algebra:
    """Contract a with respect to the subalgebra spanned by the unscaled
    basis vectors, keeping the exponent-zero constants; errors out if a
    scaled index is out of range or the unscaled vectors span no
    subalgebra."""
    scaled, e, carr, den = _exponents(a, scaled_indices)
    label = name or "%s~contracted{%s}" % (a.name, ",".join(map(str, scaled)))
    return Algebra(label, a.dim, BilinearMap._from_cleared(np.where(e == 0, carr, 0), den))


@dataclass(frozen=True)
class ContractionCheck:
    target: str
    source: str
    scaled: tuple
    ok: bool
    mismatches: tuple  # ((i, j, k, computed, expected), ...)


def compare_tables(computed: Algebra, expected: Algebra):
    """All (i, j, k, got, want) triples where two tables disagree."""
    if computed.dim != expected.dim:
        raise ValueError("dimension mismatch")
    if computed.mult == expected.mult:
        return ()
    (g, gden), (w, wden) = computed.int_constants(), expected.int_constants()
    diff = np.argwhere(g.astype(object) * wden != w.astype(object) * gden).tolist()
    return tuple(
        (i + 1, j + 1, k + 1, computed.c[i][j][k], expected.c[i][j][k]) for i, j, k in diff
    )


def contraction_chain_check(sab_pairs=((2, 1), (0, -3), (-1, 1), (0, 0), (Fraction(1, 2), Fraction(-2, 3)))):
    """Recompute every named contraction from its source and compare with
    the catalog table entry-for-entry."""
    from .catalog import catalog, sab_adapted, sab_bar

    w2big = catalog("W2(big)")
    w2bar = catalog("W2bar")
    cases = [
        ("W2bar", w2big, (2,)),
        ("S1bar", w2bar, (1,)),
        ("S5bar", w2bar, (5,)),
        ("W2hat", w2big, (7, 8)),
        ("W2hathat", w2big, (5, 6, 7, 8)),
        ("W2tilde", w2big, (3, 4, 5, 6, 7, 8)),
        ("W2tildetilde", w2big, (2, 3, 4, 5, 6, 7, 8)),
    ]
    report = []
    for target, source, scaled in cases:
        got = iw_contract(source, scaled)
        bad = compare_tables(got, catalog(target))
        report.append(ContractionCheck(target, source.name, tuple(scaled), not bad, bad))
    for alpha, beta in sab_pairs:
        source = sab_adapted(alpha, beta)
        expected = sab_bar(alpha, beta)
        got = iw_contract(source, (8,))
        bad = compare_tables(got, expected)
        report.append(ContractionCheck(expected.name, source.name, (8,), not bad, bad))
    return report
