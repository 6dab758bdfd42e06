"""Conservative products and the terminal identity.

An algebra with product P is conservative when some second bilinear map F
on the same space satisfies, for all a and b,

    [L_b, [L_a, P]] = -[L_{F(a,b)}, P]

where L_x is left multiplication and the bracket of an operator T with a
bilinear map B is [T, B](x, y) = T(B(x,y)) - B(Tx, y) - B(x, Ty). Expanding
both sides on basis vectors turns this into one shared linear system: the
unknown vector w = F(e_a, e_b) must solve G w = rhs(a, b), where G depends
only on the structure constants and the right hand side is the expanded
double commutator evaluated at (e_a, e_b, x, y). Solving the d^2 systems
simultaneously (they share G) settles conservativity exactly and produces
a canonical witness F.

The algebra is terminal when the specific choice F(a, b) = (2ab + ba)/3
works. Substituting that F into the expanded condition and clearing the
denominator yields one degree-4 multilinear identity with integer
coefficients, so terminality is an ordinary identity check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .algebras import Algebra, BilinearMap
from .fastrank import _abs_max, _exact_dtypes, rref_int
from .identities import evaluate_combination_table, first_violation, satisfies_identity
from .monomials import IdentityCombination

# [L_b, [L_a, P]](x, y) written out as tree monomials, with the variable
# correspondence a = x1, b = x2, x = x3, y = x4:
#
#     b(a(xy)) - b((ax)y) - b(x(ay))
#   - a((bx)y) + (a(bx))y + (bx)(ay)
#   - a(x(by)) + (ax)(by) + x(a(by))
_COMMUTATOR_TERMS = (
    (1, "x(x(xx))", (2, 1, 3, 4)),
    (-1, "x((xx)x)", (2, 1, 3, 4)),
    (-1, "x(x(xx))", (2, 3, 1, 4)),
    (-1, "x((xx)x)", (1, 2, 3, 4)),
    (1, "(x(xx))x", (1, 2, 3, 4)),
    (1, "(xx)(xx)", (2, 3, 1, 4)),
    (-1, "x(x(xx))", (1, 3, 2, 4)),
    (1, "(xx)(xx)", (1, 3, 2, 4)),
    (1, "x(x(xx))", (3, 1, 2, 4)),
)

# The side of the expanded condition that is linear in the witness value
# w = F(a, b), with w = x1, x = x2, y = x3: -w(xy) + (wx)y + x(wy).
_WITNESS_SIDE = IdentityCombination.from_terms(
    3,
    [(("x(xx)", (1, 2, 3)), -1), (("(xx)x", (1, 2, 3)), 1), (("x(xx)", (2, 1, 3)), 1)],
    name="witness-side",
)

# Sites where the witness value w = F(a, b) appears in the expanded
# condition: +w(xy), -(wx)y, -x(wy). Each template says which degree-4
# shape hosts the doubled pair and where the leaves of w's two factors go.
_WITNESS_SITES = (
    (1, "(xx)(xx)", lambda u, v: (u, v, 3, 4)),
    (-1, "((xx)x)x", lambda u, v: (u, v, 3, 4)),
    (-1, "x((xx)x)", lambda u, v: (3, u, v, 4)),
)


@lru_cache(maxsize=1)
def commutator_expansion() -> IdentityCombination:
    """[L_{x2}, [L_{x1}, P]] applied to (x3, x4), as a degree-4 combination."""
    return IdentityCombination.from_terms(
        4,
        [((sh, perm), c) for c, sh, perm in _COMMUTATOR_TERMS],
        name="double-commutator",
    )


@lru_cache(maxsize=1)
def terminal_identity() -> IdentityCombination:
    """The degree-4 identity equivalent to F(a,b) = (2ab + ba)/3 working.

    It is three times the expanded condition so that the 2/3 and 1/3 in F
    clear to integers: 3 [L_b,[L_a,P]](x,y) + (2ab+ba)(xy) - ((2ab+ba)x)y
    - x((2ab+ba)y), fifteen monomials in all.
    """
    terms = [((sh, perm), 3 * c) for c, sh, perm in _COMMUTATOR_TERMS]
    for site_coef, sh, place in _WITNESS_SITES:
        for u, v, weight in ((1, 2, 2), (2, 1, 1)):
            terms.append(((sh, place(u, v)), site_coef * weight))
    return IdentityCombination.from_terms(4, terms, name="terminal")


def is_terminal(a: Algebra) -> bool:
    return satisfies_identity(a, terminal_identity())


def first_terminal_violation(a: Algebra):
    """First basis tuple (1-based) where the terminal identity fails, or None."""
    return first_violation(a, terminal_identity())


def terminal_witness(a: Algebra) -> BilinearMap:
    """The map (x, y) -> (2xy + yx)/3 on coordinates."""
    carr, den = a.int_constants()  # int64 entries are below 2^31: no overflow
    return BilinearMap._from_cleared(2 * carr + carr.transpose(1, 0, 2), 3 * den)


def _g_tensor(a: Algebra):
    """Coefficient tensor of the witness side of the expanded condition.

    Returns (G, gden) with G[k, x, y, l] integral such that
    sum_k w_k G[k,x,y,l] / gden is the l-component of
    -w(e_x e_y) + (w e_x) e_y + e_x (w e_y) for w = sum_k w_k e_k.
    """
    g, gden = evaluate_combination_table(a, _WITNESS_SIDE)
    return np.asarray(g).reshape((a.dim,) * 4), gden


@dataclass(frozen=True)
class ConservativeWitness:
    """A verified associated multiplication.

    F is the canonical solution: every coordinate of F(e_a, e_b) not
    pinned by a pivot of the shared coefficient matrix is set to zero,
    taking the unknowns in (a, b, k) lexicographic column order. freedom
    counts the free rational parameters of the full solution set, d^2
    times the corank of the shared matrix.
    """

    F: BilinearMap
    freedom: int


def conservative_solve(a: Algebra) -> Optional[ConservativeWitness]:
    """Solve for an associated multiplication; None when there is none."""
    d = a.dim
    if d == 0:
        return ConservativeWitness(BilinearMap.zero(0), 0)
    g, gden = _g_tensor(a)
    g2 = g.transpose(1, 2, 3, 0).reshape(d**3, d)
    r_table, rden = evaluate_combination_table(a, commutator_expansion())
    h = np.asarray(r_table).reshape(d, d, d, d, d).transpose(2, 3, 4, 0, 1)
    h = h.reshape(d**3, d * d)
    # rref_int checks its lift against every row, so its RREF is certified
    pivots, num, den = rref_int(np.concatenate([g2, h], axis=1), d + d * d)

    g_rank = sum(1 for p in pivots if p < d)
    if g_rank < len(pivots):
        # a pivot in the right-hand-side block: some combination of
        # equations has zero coefficient side but a nonzero right hand
        # side, so some pair (a, b) has no solution
        return None

    # Every pivot sits in the coefficient block, so reading each right
    # hand side column off the pivot rows (free coordinates zero) solves
    # that pair's system: F(e_a, e_b)_p = num[row of p][d + a d + b] / den,
    # scaled by gden / rden.
    w = np.zeros((d * d, d), dtype=object)  # num * gden may pass 2^63
    w[:, list(pivots)] = num[:, d:].T
    witness = BilinearMap._from_cleared(w.reshape(d, d, d) * gden, den * rden)
    defect = _witness_defect(witness, g, gden, r_table, rden)
    if defect is not None:
        raise AssertionError("computed witness fails verification at %r" % (defect,))
    return ConservativeWitness(witness, d * d * (d - g_rank))


def is_conservative(a: Algebra) -> bool:
    return conservative_solve(a) is not None


def witness_defect(a: Algebra, f: BilinearMap):
    """Check a claimed F against the defining condition on all basis tuples.

    Returns None when F works, else the first failing (a, b, x, y, l)
    1-based, l being the coordinate where the two sides differ. The check
    is exact: both sides are cleared to integers and compared, on the path
    _exact_dtypes picks from the bound max|R| fden gden + d max|F| max|G|
    rden (R the cleared commutator table over rden, G the cleared tensor
    of _g_tensor over gden, F the witness cleared by fden).
    """
    d = a.dim
    if f.dim != d:
        raise ValueError("witness dimension %d != algebra dimension %d" % (f.dim, d))
    if d == 0:
        return None
    g, gden = _g_tensor(a)
    r_table, rden = evaluate_combination_table(a, commutator_expansion())
    return _witness_defect(f, g, gden, r_table, rden)


def _witness_defect(f: BilinearMap, g, gden: int, r_table, rden: int):
    """witness_defect, given the algebra's _g_tensor and commutator table."""
    d = f.dim
    fint, fden = f.ints.reshape(d * d, d), f.den  # (a, b) x k
    g = np.asarray(g).reshape(d, d**3)  # k x (x, y, l)
    lhs = np.asarray(r_table).reshape(d * d, d**3)
    bound = _abs_max(lhs) * fden * gden + d * _abs_max(fint) * _abs_max(g) * rden
    work, out = _exact_dtypes(bound, fint, g, lhs)
    fg = (fint.astype(work) @ g.astype(work)).astype(out)
    diff = lhs.astype(out) * (fden * gden) - fg * rden
    hits = np.flatnonzero(diff)
    if not hits.size:
        return None
    return tuple(int(h) + 1 for h in np.unravel_index(hits[0], (d,) * 5))


def verify_witness(a: Algebra, f: BilinearMap) -> bool:
    return witness_defect(a, f) is None
