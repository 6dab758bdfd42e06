"""Structure-constant algebras and their operator calculus.

An algebra is a square array of rational structure constants c[i][j][k]
meaning e_i e_j = sum_k c[i][j][k] e_k (0-based indices internally; the
tables and file formats are 1-based). Left multiplication operators,
derivations, ideals and subalgebra restriction all reduce to exact linear
algebra over these constants.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

import numpy as np

from . import fastrank
from .linalg import Matrix, RankSink


class BilinearMap:
    """n x n x n rational array: (x, y) -> sum x_i y_j c[i][j]."""

    __slots__ = ("dim", "c", "_hash")

    def __init__(self, dim: int, c):
        self.dim = dim
        self.c = tuple(
            tuple(tuple(Fraction(x) for x in row) for row in plane) for plane in c
        )
        if len(self.c) != dim or any(
            len(p) != dim or any(len(r) != dim for r in p) for p in self.c
        ):
            raise ValueError("structure array is not %d^3" % dim)
        # immutable, and hashed on every value-table cache lookup
        self._hash = hash((dim, self.c))

    @classmethod
    def _from_fractions(cls, dim: int, c) -> "BilinearMap":
        """Unchecked constructor for the package's own results: c is
        already a dim x dim x dim nesting of sequences of Fractions."""
        b = cls.__new__(cls)
        b.dim = dim
        b.c = tuple(tuple(map(tuple, plane)) for plane in c)
        b._hash = hash((dim, b.c))
        return b

    @classmethod
    def zero(cls, dim: int) -> "BilinearMap":
        z = Fraction(0)
        return cls(dim, [[[z] * dim for _ in range(dim)] for _ in range(dim)])

    @classmethod
    def from_products(cls, dim: int, products: dict) -> "BilinearMap":
        """products: {(i, j): vector} with 1-based basis indices."""
        c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), vec in products.items():
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise ValueError("product index (%d,%d) out of range" % (i, j))
            if len(vec) != dim:
                raise ValueError("product vector for (%d,%d) has length %d" % (i, j, len(vec)))
            c[i - 1][j - 1] = [Fraction(x) for x in vec]
        return cls._from_fractions(dim, c)

    def apply(self, x: Sequence, y: Sequence) -> list[Fraction]:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("argument length mismatch")
        out = [Fraction(0)] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                row = self.c[i][j]
                s = xi * yj
                for k in range(self.dim):
                    if row[k]:
                        out[k] += s * row[k]
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, BilinearMap) and self.dim == other.dim and self.c == other.c

    def __hash__(self):
        return self._hash

    def is_zero(self) -> bool:
        return all(not x for p in self.c for r in p for x in r)


class Algebra:
    """A named algebra given by its structure constants.

    _identity_spaces is unset until identities certifies a space for this
    object; it then maps (degree, shape indices) to (dimension, basis
    tuple), so the answers live exactly as long as the algebra.
    """

    __slots__ = ("name", "dim", "mult", "_int_cache", "_identity_spaces")

    def __init__(self, name: str, dim: int, c):
        self.name = name
        self.dim = dim
        self.mult = c if isinstance(c, BilinearMap) else BilinearMap(dim, c)
        if self.mult.dim != dim:
            raise ValueError("structure array dimension mismatch")
        self._int_cache = None

    @property
    def c(self):
        return self.mult.c

    @classmethod
    def from_products(cls, name: str, dim: int, products: dict) -> "Algebra":
        return cls(name, dim, BilinearMap.from_products(dim, products))

    def __eq__(self, other) -> bool:
        return isinstance(other, Algebra) and self.dim == other.dim and self.mult == other.mult

    def __hash__(self):
        return hash((self.dim, self.mult))

    def __repr__(self):
        return "Algebra(%r, dim=%d)" % (self.name, self.dim)

    def basis_vector(self, i: int) -> list[Fraction]:
        """1-based coordinate vector of e_i."""
        v = [Fraction(0)] * self.dim
        v[i - 1] = Fraction(1)
        return v

    def int_constants(self):
        """(numpy integer array, denominator): c * den is integral.

        dtype is int64 when the cleared entries fit comfortably, else object.
        """
        if self._int_cache is None:
            den = 1
            for p in self.c:
                for r in p:
                    for x in r:
                        den = lcm(den, x.denominator)
            ints = [
                [[x.numerator * (den // x.denominator) for x in r] for r in p]
                for p in self.c
            ]
            big = max((abs(v) for p in ints for r in p for v in r), default=0)
            dtype = np.int64 if big < 2**31 else object
            arr = np.array(ints, dtype=dtype)
            arr.setflags(write=False)
            self._int_cache = (arr, den)
        return self._int_cache

    def renamed(self, name: str) -> "Algebra":
        return Algebra(name, self.dim, self.mult)


def multiply(a: Algebra, x: Sequence, y: Sequence) -> list[Fraction]:
    """Bilinear extension of the structure constants."""
    return a.mult.apply(x, y)


def left_mul_operator(a: Algebra, x: Sequence) -> Matrix:
    """Matrix of y -> x y on coordinate columns."""
    if len(x) != a.dim:
        raise ValueError("argument length mismatch")
    n = a.dim
    ent = [Fraction(0)] * (n * n)
    for k in range(n):
        for j in range(n):
            acc = Fraction(0)
            for i, xi in enumerate(x):
                if xi:
                    acc += xi * a.c[i][j][k]
            ent[k * n + j] = acc
    return Matrix(n, n, ent)


def bracket(a_map: Matrix, b_map: BilinearMap) -> BilinearMap:
    """[A,B](x,y) = A(B(x,y)) - B(Ax,y) - B(x,Ay), on all basis pairs."""
    n = b_map.dim
    if a_map.rows != n or a_map.cols != n:
        raise ValueError("dimension mismatch")
    out = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            first = a_map.mul_vec(b_map.c[i][j])
            # B(Ae_i, e_j) = sum_p A[p][i] B(e_p, e_j), same on the right
            second = [Fraction(0)] * n
            third = [Fraction(0)] * n
            for p in range(n):
                ci = a_map[p, i]
                cj = a_map[p, j]
                if ci:
                    row = b_map.c[p][j]
                    for k in range(n):
                        second[k] += ci * row[k]
                if cj:
                    row = b_map.c[i][p]
                    for k in range(n):
                        third[k] += cj * row[k]
            out[i][j] = [first[k] - second[k] - third[k] for k in range(n)]
    return BilinearMap._from_fractions(n, out)


class Subspace:
    """A subspace of coordinate space, canonically based."""

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: int, vectors: Sequence[Sequence]):
        sink = RankSink(ambient)
        for v in vectors:
            sink.feed(v)
        self.ambient = ambient
        self.basis = sink.basis()

    @classmethod
    def span_of_basis_indices(cls, ambient: int, indices) -> "Subspace":
        vecs = []
        for i in indices:
            v = [Fraction(0)] * ambient
            v[i - 1] = Fraction(1)
            vecs.append(v)
        return cls(ambient, vecs)

    @property
    def dim(self) -> int:
        return self.basis.rank

    def contains(self, vector: Sequence) -> bool:
        return self.basis.contains(vector)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return "Subspace(ambient=%d, dim=%d)" % (self.ambient, self.dim)


def is_subalgebra(a: Algebra, s: Subspace) -> bool:
    if s.ambient != a.dim:
        raise ValueError("ambient dimension mismatch")
    vecs = [list(r) for r in s.basis.rows]
    return all(s.contains(multiply(a, u, v)) for u in vecs for v in vecs)


def is_ideal(a: Algebra, s: Subspace) -> bool:
    if s.ambient != a.dim:
        raise ValueError("ambient dimension mismatch")
    vecs = [list(r) for r in s.basis.rows]
    for i in range(1, a.dim + 1):
        e = a.basis_vector(i)
        for v in vecs:
            if not s.contains(multiply(a, e, v)):
                return False
            if not s.contains(multiply(a, v, e)):
                return False
    return True


def restrict(a: Algebra, s: Subspace, name: str = "") -> Algebra:
    """The algebra induced on a subalgebra, in the canonical basis of s.

    Each product of two basis vectors of s is computed once; one outside s
    raises ValueError.
    """
    if s.ambient != a.dim:
        raise ValueError("ambient dimension mismatch")
    m = s.dim
    vecs = [list(r) for r in s.basis.rows]
    pivots = s.basis.pivot_cols
    c = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            prod = multiply(a, vecs[i], vecs[j])
            if not s.contains(prod):
                raise ValueError("not a subalgebra")
            # in the span of an RREF basis, the entries at the pivots are the coordinates
            c[i][j] = [prod[p] for p in pivots]
    return Algebra(name or (a.name + "|sub"), m, BilinearMap._from_fractions(m, c))


def change_of_basis(a: Algebra, columns: Sequence[Sequence], name: str = "") -> Algebra:
    """Rewrite a in the basis f_j = sum_i columns[j][i] e_i.

    columns[j] is the coordinate vector of the new basis vector f_{j+1}.
    """
    n = a.dim
    if len(columns) != n:
        raise ValueError("need %d basis vectors" % n)
    for j, col in enumerate(columns, start=1):
        if len(col) != n:
            raise ValueError("basis vector f_%d has %d coordinates, need %d" % (j, len(col), n))
    # solve t * coords = v for each product vector, t[i][j] = columns[j][i];
    # t must be invertible
    ident = Matrix.identity(n)
    aug = RankSink(2 * n)
    for i in range(n):
        aug.feed([Fraction(col[i]) for col in columns] + ident.row(i))
    basis = aug.basis()
    if aug.rank() != n or basis.pivot_cols[:n] != tuple(range(n)):
        raise ValueError("basis vectors are linearly dependent")
    inv = Matrix.from_rows([row[n:] for row in basis.rows])
    c = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            prod = multiply(a, columns[i], columns[j])
            c[i][j] = inv.mul_vec(prod)
    return Algebra(name or (a.name + "|chg"), n, BilinearMap._from_fractions(n, c))


def derivation_algebra(a: Algebra):
    """(dimension, basis of derivations as matrices).

    A derivation satisfies D(e_i e_j) = D(e_i) e_j + e_i D(e_j); with
    unknowns D[k][q] this is one linear equation per (i, j, k).
    """
    n = a.dim
    if n == 0:
        return 0, []
    carr, _den = a.int_constants()
    cols = n * n

    def blocks():
        rows = np.zeros((n * n * n, cols), dtype=carr.dtype)
        r = 0
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    row = rows[r]
                    for q in range(n):
                        row[k * n + q] += carr[i][j][q]
                    for p in range(n):
                        row[p * n + i] -= carr[p][j][k]
                        row[p * n + j] -= carr[i][p][k]
                    r += 1
        yield rows

    _rank, null = fastrank.certified_nullspace(cols, blocks)
    mats = [Matrix(n, n, list(row)) for row in null.rows]
    return null.rank, mats


def is_derivation(a: Algebra, d: Matrix) -> bool:
    """True when D satisfies the product rule on every basis pair."""
    n = a.dim
    for i in range(n):
        for j in range(n):
            ei = a.basis_vector(i + 1)
            ej = a.basis_vector(j + 1)
            lhs = d.mul_vec(multiply(a, ei, ej))
            rhs = [
                u + v
                for u, v in zip(
                    multiply(a, d.mul_vec(ei), ej), multiply(a, ei, d.mul_vec(ej))
                )
            ]
            if lhs != rhs:
                return False
    return True
