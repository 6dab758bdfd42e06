"""Structure-constant algebras and their operator calculus.

An algebra is a square array of rational structure constants c[i][j][k]
meaning e_i e_j = sum_k c[i][j][k] e_k (0-based indices internally; the
tables and file formats are 1-based), held once as an integer array over
one common denominator. The operator calculus (left multiplications, the
bracket [T, B], derivations, subalgebras, ideals, restriction and change
of basis) is exact integer products on that array, through one row-product
kernel and one span test, with echelon forms from fastrank. multiply and
BilinearMap.apply evaluate pointwise in Fractions: the reference the
integer path is tested against.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

import numpy as np

from . import fastrank
from .linalg import Matrix


def _cleared_rows(rows) -> tuple[list[list[int]], int]:
    """(ints, den) with rows = ints / den: den is the lcm of the entries'
    reduced denominators, so ints holds Python integers."""
    fr = [[x if type(x) is int or type(x) is Fraction else Fraction(x) for x in r] for r in rows]
    den = lcm(*(x.denominator for r in fr for x in r))
    return [[x.numerator * (den // x.denominator) for x in r] for r in fr], den


def _basis_index(i, n: int):
    """i, when it is an integer in 1..n (a bool is not); else ValueError."""
    if type(i) is bool or not isinstance(i, (int, np.integer)) or not 1 <= i <= n:
        raise ValueError("basis index %r is not an integer in 1..%d" % (i, n))
    return i


class BilinearMap:
    """n x n x n rational array: (x, y) -> sum x_i y_j c[i][j].

    The constants are held once, as the canonical cleared pair (ints, den):
    den is the lcm of their reduced denominators and ints = c * den, an
    int64 array when every |entry| is below 2^31 and an object array
    otherwise. Equal maps have equal pairs, so equality and the hash come
    from the pair. The nested Fraction tuple c is built on first access.
    """

    __slots__ = ("dim", "ints", "den", "_c", "_hash")

    def __init__(self, dim: int, c):
        planes = [[list(r) for r in p] for p in c]
        if len(planes) != dim or any(
            len(p) != dim or any(len(r) != dim for r in p) for p in planes
        ):
            raise ValueError("structure array is not %d^3" % dim)
        ints, den = _cleared_rows(r for p in planes for r in p)
        self._set(fastrank._int_array(ints, dim).reshape((dim,) * 3), den)

    def _set(self, x: np.ndarray, m: int) -> None:
        """Hold x / m (x an integer array of shape dim^3, m > 0) in canonical
        form: divided by gcd(m, every entry); the zero map is 0 / 1."""
        if not np.count_nonzero(x):
            x, m = np.zeros(x.shape, dtype=np.int64), 1
        g = gcd(m, int(np.gcd.reduce(x, axis=None))) if x.size else m
        big = fastrank._abs_max(x) // g
        x = (x // g).astype(np.int64 if big < 2**31 else object)
        x.setflags(write=False)
        self.dim, self.ints, self.den, self._c = len(x), x, m // g, None
        # immutable, and hashed on every value-table cache lookup
        self._hash = hash((self.dim, self.den, tuple(x.ravel().tolist())))

    @classmethod
    def _from_cleared(cls, x: np.ndarray, m: int) -> "BilinearMap":
        """The map with constants x / m: x an integer array (int64 or
        object) of shape dim^3, m a positive integer."""
        b = cls.__new__(cls)
        b._set(x, m)
        return b

    @classmethod
    def zero(cls, dim: int) -> "BilinearMap":
        return cls._from_cleared(np.zeros((dim,) * 3, dtype=np.int64), 1)

    @classmethod
    def from_products(cls, dim: int, products: dict) -> "BilinearMap":
        """products: {(i, j): vector} with 1-based basis indices."""
        c = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), vec in products.items():
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise ValueError("product index (%d,%d) out of range" % (i, j))
            if len(vec) != dim:
                raise ValueError("product vector for (%d,%d) has length %d" % (i, j, len(vec)))
            c[i - 1][j - 1] = vec
        return cls(dim, c)

    @property
    def c(self):
        if self._c is None:
            den = self.den
            fr = {v: Fraction(v, den) for v in set(self.ints.ravel().tolist())}
            self._c = tuple(
                tuple(tuple(fr[v] for v in r) for r in p) for p in self.ints.tolist()
            )
        return self._c

    def apply(self, x: Sequence, y: Sequence) -> list[Fraction]:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("argument length mismatch")
        out = [Fraction(0)] * self.dim
        c = self.c
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                row = c[i][j]
                s = xi * yj
                for k in range(self.dim):
                    if row[k]:
                        out[k] += s * row[k]
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, BilinearMap) and self.dim == other.dim
                and self.den == other.den and np.array_equal(self.ints, other.ints))

    def __hash__(self):
        return self._hash

    def is_zero(self) -> bool:
        return not np.count_nonzero(self.ints)


class Algebra:
    """A named algebra given by its structure constants.

    _identity_spaces is unset until identities certifies a space for this
    object; it then maps (degree, shape indices) to (dimension, basis
    tuple), so the answers live exactly as long as the algebra.
    """

    __slots__ = ("name", "dim", "mult", "_identity_spaces")

    def __init__(self, name: str, dim: int, c):
        self.name = name
        self.dim = dim
        self.mult = c if isinstance(c, BilinearMap) else BilinearMap(dim, c)
        if self.mult.dim != dim:
            raise ValueError("structure array dimension mismatch")

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
        """1-based coordinate vector of e_i; any other index is a ValueError."""
        v = [Fraction(0)] * self.dim
        v[_basis_index(i, self.dim) - 1] = Fraction(1)
        return v

    def int_constants(self):
        """(numpy integer array, denominator): c * den is integral.

        The map's canonical pair: den is the lcm of the constants' reduced
        denominators, the read-only array is int64 when every |entry| is
        below 2^31 and object otherwise.
        """
        return self.mult.ints, self.mult.den

    def renamed(self, name: str) -> "Algebra":
        return Algebra(name, self.dim, self.mult)


def multiply(a: Algebra, x: Sequence, y: Sequence) -> list[Fraction]:
    """Bilinear extension of the structure constants."""
    return a.mult.apply(x, y)


def _exact_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for integer arrays, exactly, as an int64 or object array."""
    out = fastrank._exact_products(x, y.T)
    return out.astype(np.int64) if out.dtype == np.float64 else out


def _row_products(u: np.ndarray, v: np.ndarray, carr: np.ndarray) -> np.ndarray:
    """x[i, j, k] = sum u[i, p] v[j, q] carr[p, q, k]: the products of the
    rows of the integer array u by those of v under the constants carr."""
    r, n = u.shape
    y = _exact_matmul(u, carr.reshape(n, n * n))  # y[i, q, k]
    y = y.reshape(r, n, n).transpose(0, 2, 1).reshape(r * n, n)
    return _exact_matmul(y, v.T).reshape(r, n, len(v)).transpose(0, 2, 1)


def left_mul_operator(a: Algebra, x: Sequence) -> Matrix:
    """Matrix of y -> x y on coordinate columns."""
    n = a.dim
    if len(x) != n:
        raise ValueError("argument length mismatch")
    carr, den = a.int_constants()
    rows, xden = _cleared_rows([x])
    y = _row_products(fastrank._int_array(rows, n), np.eye(n, dtype=np.int64), carr)[0]
    return Matrix(n, n, [Fraction(v, xden * den) for v in y.T.ravel().tolist()])


def bracket(a_map: Matrix, b_map: BilinearMap) -> BilinearMap:
    """[A,B](x,y) = A(B(x,y)) - B(Ax,y) - B(x,Ay), on all basis pairs.

    With A cleared to t / tden, the three terms are integer arrays over
    tden * B.den; their sum takes the dtype fastrank._exact_dtypes gives
    the sum of their largest entries.
    """
    n = b_map.dim
    if a_map.rows != n or a_map.cols != n:
        raise ValueError("dimension mismatch")
    rows, tden = _cleared_rows(a_map.row(i) for i in range(n))
    t, carr, eye = fastrank._int_array(rows, n), b_map.ints, np.eye(n, dtype=np.int64)
    terms = (
        _exact_matmul(carr.reshape(n * n, n), t.T).reshape((n,) * 3),
        _row_products(t.T, eye, carr),  # B(Ae_i, e_j): row i of t.T is Ae_i
        _row_products(eye, t.T, carr),
    )
    _work, out = fastrank._exact_dtypes(sum(fastrank._abs_max(x) for x in terms), *terms)
    x = terms[0].astype(out) - terms[1] - terms[2]
    return BilinearMap._from_cleared(x, tden * b_map.den)


class Subspace:
    """A subspace of coordinate space, held as its canonical RREF: pivot
    columns and rows num / den, den the lcm of the reduced denominators.
    Equality and the hash come from these; basis is built on each read."""

    __slots__ = ("ambient", "pivots", "num", "den")

    def __init__(self, ambient: int, vectors: Sequence[Sequence]):
        rows, _den = _cleared_rows(vectors)
        for r in rows:
            if len(r) != ambient:
                raise ValueError("vector length %d, expected %d" % (len(r), ambient))
        self.ambient = ambient
        self.pivots, num, den = fastrank.rref_int(rows, ambient)
        g = gcd(den, int(np.gcd.reduce(num, axis=None)))
        self.num, self.den = num // g, den // g
        self.num.setflags(write=False)

    @classmethod
    def span_of_basis_indices(cls, ambient: int, indices) -> "Subspace":
        """The span of e_i for the 1-based indices i; any other index is a
        ValueError."""
        indices = [_basis_index(i, ambient) for i in indices]
        return cls(ambient, [[int(k == i) for k in range(1, ambient + 1)] for i in indices])

    @property
    def basis(self):
        return fastrank.rref_basis(self.ambient, self.pivots, self.num, self.den)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def contains(self, vector: Sequence) -> bool:
        return self.basis.contains(vector)

    def _key(self) -> tuple:
        return self.ambient, self.pivots, self.den, tuple(self.num.ravel().tolist())

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "Subspace(ambient=%d, dim=%d)" % (self.ambient, self.dim)


def _span_products(a: Algebra, s: Subspace, u: np.ndarray, v: np.ndarray):
    """The products x[i, j] of the rows of u by those of v, or None if one
    lies outside s: a vector lies in s exactly when its entries at the
    pivots times the rows of s give it back (fastrank._reproduces)."""
    if s.ambient != a.dim:
        raise ValueError("ambient dimension mismatch")
    x = _row_products(u, v, a.mult.ints)
    flat = x.reshape(x.shape[0] * x.shape[1], a.dim)
    inside = fastrank._reproduces(flat, s.pivots, s.num, s.den, fastrank._abs_max(flat))
    return x if inside else None


def is_subalgebra(a: Algebra, s: Subspace) -> bool:
    return _span_products(a, s, s.num, s.num) is not None


def is_ideal(a: Algebra, s: Subspace) -> bool:
    eye = np.eye(a.dim, dtype=np.int64)
    return all(_span_products(a, s, u, v) is not None for u, v in ((eye, s.num), (s.num, eye)))


def restrict(a: Algebra, s: Subspace, name: str = "") -> Algebra:
    """The algebra induced on a subalgebra, in the canonical basis of s.

    With the basis rows num / sden of s and the constants cleared to
    c / den, every product of two basis rows is x / (sden^2 den) for one
    integer array x, whose coordinates in s are its entries at the pivots.
    A product outside s raises ValueError.
    """
    x = _span_products(a, s, s.num, s.num)  # x[i, j] is the product of basis rows i and j
    if x is None:
        raise ValueError("not a subalgebra")
    mult = BilinearMap._from_cleared(x[:, :, s.pivots], s.den * s.den * a.mult.den)
    return Algebra(name or (a.name + "|sub"), s.dim, mult)


def change_of_basis(a: Algebra, columns: Sequence[Sequence], name: str = "") -> Algebra:
    """Rewrite a in the basis f_j = sum_i columns[j][i] e_i.

    columns[j] is the coordinate vector of the new basis vector f_{j+1}.
    With the columns cleared to t / tden (t[i][j] = tden columns[j][i]) and
    the constants to c / den, the RREF num / rden of [t | I] is [I | t^-1]
    when t is invertible, and the new constants are
    sum num[k][l] t[p][i] t[q][j] c[p][q][l] / (tden rden den): exact
    integer matrix products.
    """
    n = a.dim
    if len(columns) != n:
        raise ValueError("need %d basis vectors" % n)
    for j, col in enumerate(columns, start=1):
        if len(col) != n:
            raise ValueError("basis vector f_%d has %d coordinates, need %d" % (j, len(col), n))
    cols, tden = _cleared_rows(columns)
    aug = [[col[i] for col in cols] + [int(k == i) for k in range(n)] for i in range(n)]
    pivots, num, rden = fastrank.rref_int(aug, 2 * n)
    if pivots != tuple(range(n)):
        raise ValueError("basis vectors are linearly dependent")
    carr, den = a.int_constants()
    f = fastrank._int_array(cols, n)  # row j is tden f_j
    x = _row_products(f, f, carr)  # x[i, j, l]
    x = _exact_matmul(x.reshape(n * n, n), num[:, n:].T).reshape(n, n, n)
    mult = BilinearMap._from_cleared(x, tden * rden * den)
    return Algebra(name or (a.name + "|chg"), n, mult)


def derivation_algebra(a: Algebra):
    """(dimension, basis of derivations as matrices).

    A derivation satisfies D(e_i e_j) = D(e_i) e_j + e_i D(e_j); with
    unknowns D[k][q] this is one linear equation per (i, j, k).
    """
    n = a.dim
    if n == 0:
        return 0, []
    carr, eye = a.mult.ints, np.eye(n, dtype=np.int64)
    # row (i, j, k), column (p, q): the coefficient of D[p][q] in
    # D(e_i e_j)_k - (D(e_i) e_j)_k - (e_i D(e_j))_k
    rows = (np.einsum("ijq,kp->ijkpq", carr, eye)
            - np.einsum("pjk,iq->ijkpq", carr, eye)
            - np.einsum("ipk,jq->ijkpq", carr, eye)).reshape(n ** 3, n * n)
    # nullspace_int checks its lift against every row: one exact elimination
    _rank, free, prim = fastrank.nullspace_int(rows, n * n)
    null = fastrank.null_basis(n * n, free, prim)
    return null.rank, [Matrix(n, n, list(row)) for row in null.rows]


def is_derivation(a: Algebra, d: Matrix) -> bool:
    """True when D satisfies the product rule on every basis pair."""
    return bracket(d, a.mult).is_zero()
