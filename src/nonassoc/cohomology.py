"""Central extensions of an algebra inside the variety of an identity.

A one-dimensional central extension of A attaches an annihilator line
F·c and deforms the product by a bilinear form theta:

    (x, s)(y, t) = (xy, theta(x, y)).

Because c kills every product, the c-component of a bracketed monomial
evaluated on base arguments comes from the outermost multiplication
alone: it is theta(u, v) where u and v are the values of the two root
subtrees computed in A itself. A multilinear identity P therefore holds
in the extension exactly when it holds in A and theta kills the
P-weighted sum of these root pairs on every basis tuple. That linear
condition on the d^2 entries of theta cuts out the cocycles Z2_P; the
coborders B2 (deformations absorbed by moving the complement of the
annihilator line) are spanned by the component forms (x, y) -> (xy)_k.
B2 always sits inside Z2_P: the cocycle condition on (x, y) -> (xy)_k at
a basis tuple is the k-th component of P's value there, which is zero
because P holds in A. So dim H2_P = dim Z2_P - dim B2 counts genuinely
new extensions; H2_P = 0 means every extension in the variety of P is
split or a trivial deformation.

The same fact checks P in A from the rows themselves. With C the d^2 x d
array of the cleared structure constants, P's value at v is row(v) @ C up
to a positive scale, and identities reads every value of P this way, here
and in first_violation and evaluate_combination_table alike. Each block
of rows is multiplied by C, exactly, as it is built, and the first
nonzero product is at the lexicographically first tuple where P fails.
No block goes unchecked: certification stops before the end of the
stream only at rank d^2, and rows at tuples where P vanishes are
orthogonal to the d columns of C, so they reach rank d^2 only when
C = 0, where P holds at every tuple.

There is one row of that condition per basis tuple v. When P is
alternating in all its variables, the row at v o tau is sgn(tau) times
the row at v, and the row vanishes wherever an index of v repeats, so
the rows at the strictly increasing tuples already span the whole row
space: C(d, n) rows instead of d^n, and none at all when d < n, where
every form is a cocycle. The nullspace, and so its canonical basis, is
the same either way.

The checked rows (identities._checked_cocycle_rows) and the tuples they
are read at (identities._tuple_indices) come from identities, the one
module that evaluates combinations at basis tuples; this module streams
the rows in blocks and certifies their nullspace.

The brute-force alternative, building the (d+1)-dimensional extension
and running the identity checker on it, is deliberately kept as
extension_algebra for tests to cross-validate the root-pair rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import Algebra
from .conservative import terminal_identity
from .fastrank import Subspace, _certified_kernel
from .identities import (
    _checked_cocycle_rows,
    _parallel_blocks,
    _tuple_blocks,
    _tuple_indices,
)
# Unused here: benchmark/test_bench.py checks that its tracer rebinds these
# bindings too. Drop them together.
from .identities import _shape_tables, first_violation  # noqa: F401
from .linalg import Matrix, RankSink
from .monomials import IdentityCombination

BilinearForm = Matrix


def coborder_space(a: Algebra):
    """(dimension, basis) of the forms (x, y) -> f(xy), f a functional.

    These are spanned by the d component slices of the structure array,
    so the dimension equals the number of independent component forms.
    Their cleared rows have the same RREF. RankSink stays here: it is how
    benchmark/test_bench.py's entry-point check reaches RankSink.feed.
    """
    d = a.dim
    sink = RankSink(d * d)
    sink.feed_many(a.mult.ints.transpose(2, 0, 1).reshape(d, d * d).tolist())  # row k: (xy)_k
    basis = sink.basis()
    return basis.rank, [Matrix(d, d, row) for row in basis.rows]


def _cocycle_span(a: Algebra, p: IdentityCombination) -> Subspace:
    d = a.dim
    rows = _checked_cocycle_rows(a, p)
    chunks = _tuple_blocks(_tuple_indices(p, d), d * d)

    def block_source():
        return _parallel_blocks(chunks, rows)

    return _certified_kernel(d * d, block_source)


def cocycle_space(a: Algebra, p: IdentityCombination):
    """(dimension, basis of bilinear forms) of Z2 with respect to p.

    Raises ValueError when the base algebra itself violates p; no
    extension can repair that.
    """
    z2 = _cocycle_span(a, p)
    return z2.dim, [Matrix(a.dim, a.dim, row) for row in z2.basis.rows]


@dataclass(frozen=True)
class CohomologyReport:
    """Dimensions around one algebra/identity pair.

    h2_dim = z2_dim - b2_dim always: the coborder (x, y) -> (xy)_k meets
    the cocycle condition at a basis tuple in the k-th component of P's
    value there, and P holds in the base, so B2 lies inside Z2_P.
    """

    b2_dim: int
    z2_dim: int
    h2_dim: int


def cohomology(a: Algebra, p: IdentityCombination) -> CohomologyReport:
    z2_dim = _cocycle_span(a, p).dim
    b2_dim, _ = coborder_space(a)
    return CohomologyReport(b2_dim, z2_dim, z2_dim - b2_dim)


def terminal_cocycle_space(a: Algebra):
    """Z2 with respect to the terminal identity.

    A non-terminal base raises the ValueError of cocycle_space ("base
    does not satisfy P: ... fails terminal at basis tuple ...").
    """
    return cocycle_space(a, terminal_identity())


def terminal_cohomology(a: Algebra) -> CohomologyReport:
    return cohomology(a, terminal_identity())


def extension_algebra(a: Algebra, theta: Matrix, name: str = "") -> Algebra:
    """The (dim+1)-dimensional central extension with form theta.

    Direct construction for cross-checks: e_{d+1} annihilates everything
    and products of base vectors gain theta(e_i, e_j) on the new axis.
    """
    d = a.dim
    if theta.rows != d or theta.cols != d:
        raise ValueError("form size %dx%d, algebra dimension %d" % (theta.rows, theta.cols, d))
    from fractions import Fraction

    z = Fraction(0)
    c = [
        [list(a.c[i][j]) + [theta[i, j]] for j in range(d)] + [[z] * (d + 1)]
        for i in range(d)
    ]
    c.append([[z] * (d + 1) for _ in range(d + 1)])
    return Algebra(name or (a.name + "+c" if a.name else "extension"), d + 1, c)
