"""Multilinear identity spaces over an algebra.

The evaluation matrix of degree n has one row per (basis tuple, output
component) and one column per monomial. Rather than evaluating monomials
tuple by tuple, each bracketing shape gets a value table: an array indexed
by the flattened leaf tuple whose row is the product vector. Tables are
built bottom-up with integer matrix products (structure constants cleared
of denominators; the uniform scale den^(n-1) does not move nullspaces).
A permutation of variables, or the leaf positions of a subtree, becomes
an index map into a table, computed from the digit table at just the
basis tuples being read.

The system is symmetric. Column (s, sigma), at index s * n! + (the
lexicographic rank of sigma), holds the monomial of shape s whose leaves
read the variables sigma(1), ..., sigma(n); its index map (_index_weights)
evaluates it at the tuple v o sigma, with (v o sigma)_i = v_{sigma(i)}.
For a permutation tau, (v o tau) o sigma = v o (tau sigma), so the rows
at v o tau and at v (same component) satisfy

    x_{v o tau}[(s, sigma)] = x_v[(s, tau sigma)].

For the adjacent transposition tau = s_i of variables i and i + 1 this
says x_{v o s_i} = x_v[g_i] in numpy's reading (x[g][c] = x[g[c]]), where
g_i maps column s * n! + r to s * n! + _adjacent_swaps(n)[i - 1][r], the
rank of s_i o sigma_r. The s_i generate S_n and every tuple is v o tau for
its non-decreasing rearrangement v, so the rows at the C(d + n - 1, n)
non-decreasing tuples generate the whole d^n-tuple system under the g_i:
those rows are all that is built, and fastrank certifies that their span
is invariant under each g_i. Of those, only the nonzero rows are kept: a
zero row and its images are zero, so the rest generate the same system.
A block holds the nonzero rows at its tuples in component-major order
(_evaluation_block_builder), gathered one component at a time, so its
dense (d * tuples, cols) matrix never exists; on W2(big) the one block
of a degree-5 shape keeps 489-545 of its 6,336 rows.

This module is the one place that evaluates a combination at basis
tuples, and it does so one way: by its root-pair rows (_cocycle_rows),
one batched product over all its terms, whose row at v times the cleared
structure constants is its value at v (_violator). Its values
(evaluate_combination_table), its first violation (first_violation) and
the cocycle rows of its central extensions, checked against it
(cohomology, _checked_cocycle_rows), are all read off these rows, from
tables of at most n - 1 leaves. What the rows need from the coefficients
is compiled once per combination object into a plan (_Plan): whether it
alternates and each term's root pair; its integer weights are its own
numerators. The plan is kept on the combination but is no part of its
value: equality, hashing and pickling ignore it. Later calls only look up
tables and sum bounds.

A certified identity space is kept on the Algebra object it was computed
for, keyed by degree and shapes (Algebra._identity_spaces), so asking
again, for instance once for a dimension and once for a basis, costs a
dict lookup. There is no global cache and no bound: the answers live
exactly as long as their algebra, and each call gets a new list of the
same combinations. Held as cleared integers, a full degree-5 basis takes
about 1 MiB (E2) or 6 MiB (S2) under tracemalloc.

Value tables are kept per algebra, one subtree key -> table map for
every degree (_shape_tables), each table built the first time it is
read: a subtree's table is the same in every shape that contains it. An
identity system's n-leaf root tables are the exception: they are built
straight into the system's side-by-side table from their children's
tables (_ValueTables.product) and not kept, since a degree-n combination
reads tables of at most n - 1 leaves. Tables hold integers. The table of
a k-leaf subtree has the proven L1 row bound (d * cmax)^(k-1), and its
dtype follows from that bound alone: int64 tables below 2^53 are built
with float64 matrix products (BLAS) and cast back, exactly, because every
term and partial sum of both products is at most the bound (the argument
is in _ValueTables). Larger int64 bounds use int64 products, and bounds
from 2^62, or object constants, object tables.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

import numpy as np

from . import fastrank
from .algebras import Algebra, _exact_matmul, multiply
from .linalg import RankSink
from .monomials import (
    IdentityCombination,
    MultilinearMonomial,
    _check_degree,
    _count_leaves,
    _permutations,
    monomial_count,
    perm_index,
    shapes,
)


_CHUNK_BYTES = 1 << 20  # bound on the arrays of one chunk of _cocycle_rows


def _tuple_blocks(tuples: np.ndarray, cols: int) -> list:
    """tuples cut, in order, into the blocks of a streamed system with cols
    columns: 2^19 // cols tuples a block, so that one output component's
    rows of a block hold at most 2^19 entries, but never fewer than 16."""
    block = max(16, (1 << 19) // max(1, cols))
    return [tuples[v0:v0 + block] for v0 in range(0, len(tuples), block)]


def _parallel_blocks(ranges, build):
    """Yield build(r) for each range in order, each built only when the
    consumer asks for it, so a stream holds one block at a time."""
    # Name and signature kept: benchmark/tracer.py wraps it here and in cohomology.
    for r in ranges:
        yield build(r)


@lru_cache(maxsize=8)
def _digit_table(d: int, n: int) -> np.ndarray:
    """(d^n, n) array: row v = the digits of v, most significant first."""
    idx = np.arange(d**n, dtype=np.int64)
    cols = [(idx // d ** (n - 1 - j)) % d for j in range(n)]
    out = np.stack(cols, axis=1)
    out.setflags(write=False)
    return out


def _index_weights(d: int, positions, n: int) -> np.ndarray:
    """(n, len(positions)) int64 weights, compiled once per caller: for
    digits, the rows of _digit_table(d, n), entry (j, r) of digits @ weights
    is the flat index of the subtuple (v_p for p in positions[r], 1-based)
    of the basis tuple whose digits are digits[j]."""
    weights = np.zeros((n, len(positions)), dtype=np.int64)
    for r, pos in enumerate(positions):
        for j, p in enumerate(pos):
            weights[p - 1, r] = d ** (len(pos) - 1 - j)
    return weights


def _product_table(tl: np.ndarray, tr: np.ndarray, cflat: np.ndarray) -> np.ndarray:
    """(dl, dr, d) array of the products of two subtrees' values, in the
    dtype of the arguments: entry [a, b] is (row a of tl)(row b of tr)
    under the structure constants cflat, of shape (d, d * d). A strided
    view; the table is its C-order reshape to (dl * dr, d)."""
    d = cflat.shape[0]
    dl, dr = tl.shape[0], tr.shape[0]
    w = (tl @ cflat).reshape(dl, d, d)  # [a, q, k]
    t = tr @ w.transpose(1, 0, 2).reshape(d, dl * d)  # [b, (a k)]
    return t.reshape(dr, dl, d).transpose(1, 0, 2)


class _ValueTables(dict):
    """Subtree (its BracketShape.tree) -> value table of one algebra, each
    built on its first lookup and kept, for subtrees of every degree. Only
    the structure constants, den and scale are held, never a function that
    refers back to the mapping, so an evicted entry is freed at once.

    The table of a k-leaf subtree has shape (d^k, d): its row at flat leaf
    tuple w is the product vector scaled by den^(k-1). bound(k) =
    scale^(k-1), scale = d * cmax for cmax the largest absolute cleared
    structure constant, bounds the L1 norm of every row, so also every
    entry: a leaf's rows are unit vectors, ||xy||_1 <= d * cmax * ||x||_1
    * ||y||_1, and the children's leaf counts add up to k.

    A table's dtypes follow from its bound alone, by fastrank._exact_dtypes:
    object when the constants are object or the bound reaches 2^62, else
    int64. An int64 table whose bound is below 2^53 is computed with float64
    (BLAS) products and cast back, exactly. The first product's entries sum_p
    tl[a, p] c[p, q, k] have terms and partial sums of absolute sum at
    most ||tl_a||_1 * cmax; the second product's entries sum_q tr[b, q]
    w[a, q, k] at most ||tr_b||_1 * ||tl_a||_1 * cmax. Both are at most
    d * cmax * bound(left) * bound(right) = bound(k), so every product and
    every partial sum is an integer below 2^53, which float64 holds
    exactly, whatever order BLAS sums in. Other int64 tables use int64
    products, and object tables Python integers.
    """

    def __init__(self, carr: np.ndarray, den: int):
        d = carr.shape[0]
        super().__init__({None: np.eye(d, dtype=carr.dtype)})
        self.cflat = carr.reshape(d, d * d)
        self.den = den
        self.scale = d * max(1, int(abs(carr).max())) if d else 1

    def bound(self, leaves: int) -> int:
        return self.scale ** (leaves - 1)

    def dtypes(self, key) -> tuple:
        """(work, out) dtypes of key's table (see above)."""
        return fastrank._exact_dtypes(self.bound(_count_leaves(key)), self.cflat)

    def product(self, key) -> np.ndarray:
        """key's values as the (dl, dr, d) _product_table of its children's
        tables, in the work dtype. The children's tables are looked up and
        kept; this is not."""
        work = self.dtypes(key)[0]
        lk, rk = key
        return _product_table(*(m.astype(work, copy=False) for m in (self[lk], self[rk], self.cflat)))

    def __missing__(self, key):
        t = np.ascontiguousarray(self.product(key), dtype=self.dtypes(key)[1])
        t = t.reshape(t.shape[0] * t.shape[1], t.shape[2])
        t.setflags(write=False)
        self[key] = t
        return t


@lru_cache(maxsize=1)
def _shape_tables(a: Algebra) -> _ValueTables:
    """The value tables of a (see _ValueTables), for every degree.

    Only the last algebra is kept. Callers ask for one algebra many times
    in a row, and certified identity spaces are kept on their algebra, so
    a larger cache mostly holds tables no one reads again: replaying the
    registry's 378 lookups against an LRU gave 235 hits at every size from
    1 to 5, and 236 at size 6.
    """
    return _ValueTables(*a.int_constants())


def evaluate_monomial(a: Algebra, m: MultilinearMonomial, args) -> list:
    """Exact product vector of one monomial at 1-based basis indices."""
    args = tuple(args)
    if len(args) != m.degree:
        raise ValueError("argument count != degree")
    cursor = [0]

    def ev(t):
        if t is None:
            cursor[0] += 1
            return a.basis_vector(args[m.perm[cursor[0] - 1] - 1])
        return multiply(a, ev(t[0]), ev(t[1]))

    return ev(m.shape.tree)


def _evaluation_block_builder(a: Algebra, n: int, shape_indices):
    """Returns (build(idx)->array, cols), idx an array of flat basis tuple
    indices. Column order: for each listed shape, all n! permutations in
    lexicographic order. A block holds the nonzero rows of the (d * len(idx),
    cols) evaluation matrix at idx, in component-major order: component k
    at idx[j] before component k at idx[j + 1], and every row of component
    k before those of component k + 1. It is gathered one component at a
    time from the shapes' root tables laid side by side, so the dense
    matrix never exists; a zero row is dropped as its component's slice is
    read. The root tables are built straight into that side-by-side array
    from their children's tables, and are not kept in _shape_tables."""
    d = a.dim
    tables = _shape_tables(a)
    digits = _digit_table(d, n)
    perms = _permutations(n)
    weights = _index_weights(d, perms, n)
    keys = [shapes(n)[si].tree for si in shape_indices]
    # row k, column ci * d^n + w: component k of shape ci at leaf tuple w;
    # every root has n leaves, so one dtype
    table = np.empty((d, len(keys) * d**n), dtype=tables.dtypes(keys[0])[1])
    for ci, key in enumerate(keys):
        product = tables.product(key)  # (dl, dr, d)
        view = table[:, ci * d**n:(ci + 1) * d**n].reshape(d, *product.shape[:2])
        view[...] = product.transpose(2, 0, 1)
    offsets = np.arange(len(keys))[:, None] * d**n
    cols = len(perms) * len(keys)

    def build(idx):
        gather = ((digits[idx] @ weights)[:, None, :] + offsets).reshape(len(idx), cols)
        parts = []
        for k in range(d):  # component k at every tuple of idx
            rows = table[k][gather]
            parts.append(rows[rows.any(axis=1)])
        return np.concatenate(parts)

    return build, cols


@lru_cache(maxsize=16)
def _sorted_tuples(d: int, n: int, strict: bool = False) -> np.ndarray:
    """Flat indices, ascending, of the non-decreasing basis tuples of
    length n (strictly increasing if strict)."""
    steps = np.diff(_digit_table(d, n), axis=1)
    out = np.flatnonzero((steps > 0 if strict else steps >= 0).all(axis=1))
    out.setflags(write=False)
    return out


def _nullspace_combinations(a: Algebra, n: int, shape_indices):
    """(dimension, canonical basis) of the identities supported on the
    listed shapes. Certified on the first call for an algebra object and
    kept on it (see _identity_spaces); every call returns a new list of
    the kept combinations."""
    key = (n, tuple(shape_indices))
    try:
        spaces = a._identity_spaces
    except AttributeError:
        spaces = a._identity_spaces = {}
    space = spaces.get(key)
    if space is None:
        space = spaces[key] = _certified_combinations(a, n, key[1])
    rank, basis = space
    return rank, list(basis)


def _certified_combinations(a: Algebra, n: int, shape_indices: tuple):
    """(dimension, tuple of the canonical basis) of the identities
    supported on the listed shapes, from the rows at the non-decreasing
    tuples and the symmetries g_i of the module docstring: row i is
    prim[i] / prim[i, free[i]], in lowest terms (prim is primitive), and
    column ci * n! + r is monomial si * n! + r, si the ci-th shape."""
    build, cols = _evaluation_block_builder(a, n, shape_indices)
    nf = factorial(n)
    tuples = _sorted_tuples(a.dim, n)
    chunks = _tuple_blocks(tuples, cols)
    shape_cols = np.arange(len(shape_indices))[:, None] * nf
    symmetries = [(shape_cols + swap).ravel() for swap in _adjacent_swaps(n)]

    def source():
        return _parallel_blocks(chunks, build)

    _rank, free, prim, *_check = fastrank._certify(cols, source, symmetries)[0]
    rows, at = np.nonzero(prim)
    monos = (np.asarray(shape_indices)[at // nf] * nf + at % nf).tolist()
    nums = prim[rows, at].tolist()
    cuts = np.searchsorted(rows, np.arange(len(free) + 1)).tolist()
    dens = prim[np.arange(len(free)), free].tolist()
    return len(free), tuple(IdentityCombination._from_cleared(n, zip(monos[i:j], nums[i:j]), den)
                            for i, j, den in zip(cuts, cuts[1:], dens))


def identity_space(a: Algebra, n: int):
    """(dimension, canonical basis) of the degree-n identities of a.

    Degree 5 joins all 14 shapes into one 1680-column system with dim^6
    rows and a very wide nullspace, built only at the non-decreasing
    tuples (C(dim + 4, 5) of them), streamed as their nonzero rows only,
    and certified invariant under the symmetries of the module docstring.
    Warm, on a 2-core machine (BENCH_29.json), it took 0.018-0.021 s for
    E2 (dim 2), 0.058-0.063 s for S2 (dim 4), and at dim 8 0.14-0.17 s
    for S1bar, 0.21-0.24 s for W2bar and 0.59-0.69 s for W2(big) (large
    constants, rank 1,655 of 1,680). When one shape at a time is enough,
    shape_identity_space stays fast even at degree 5.

    The answer is kept on a, so a repeat call on the same object returns
    a new list of the same combinations without certifying again. A full
    degree-5 basis holds about 1 MiB (E2) or 6 MiB (S2) for as long as a
    lives; no Fraction is made until a caller reads .coeffs or .terms().
    """
    _check_degree(n)
    return _nullspace_combinations(a, n, range(len(shapes(n))))


def shape_identity_space(a: Algebra, n: int, shape_index: int):
    """Identities supported on a single bracketing shape (1-based index)."""
    _check_degree(n)
    count = len(shapes(n))
    if not 1 <= shape_index <= count:
        raise ValueError("shape index must be in 1..%d" % count)
    return _nullspace_combinations(a, n, (shape_index - 1,))


def satisfies_identity(a: Algebra, c: IdentityCombination) -> bool:
    return first_violation(a, c) is None


@lru_cache(maxsize=4)
def _adjacent_swaps(n: int) -> tuple:
    """For each adjacent transposition s_i of variables (i = 1..n-1), the
    list mapping the lexicographic rank of sigma to that of s_i o sigma."""
    perms = _permutations(n)
    swaps = []
    for i in range(1, n):
        flip = {i: i + 1, i + 1: i}
        swaps.append([perm_index([flip.get(v, v) for v in perm]) for perm in perms])
    return tuple(swaps)


def _is_alternating(c: IdentityCombination) -> bool:
    """True iff c changes sign under every adjacent transposition of its
    variables: the coefficient of (shape, s_i o sigma) is minus that of
    (shape, sigma). Each s_i is an involution, so checking the nonzero
    coefficients is enough."""
    nf = factorial(c.degree)
    values = dict(zip(c.index, c.nums))
    return all(values.get(i - i % nf + swap[i % nf]) == -x
               for swap in _adjacent_swaps(c.degree) for i, x in values.items())


class _Plan:
    """What evaluating one combination needs from its coefficients, read
    from them once (see _plan).

    alternating is _is_alternating(c). Term t is monomial i = c.index[t]:
    shape i // n!, permutation of lexicographic rank i % n!, weight
    c.nums[t]. keys[t] is its root pair: (subtree key, index into
    positions) for the left and then the right root subtree. positions
    lists the distinct leaf position tuples of those subtrees, for
    _index_weights.
    """

    __slots__ = ("alternating", "keys", "positions")

    def __init__(self, c: IdentityCombination):
        n = c.degree
        nf, degree_shapes, perms = factorial(n), shapes(n), _permutations(n)
        self.alternating = _is_alternating(c)
        self.keys, positions = [], {}
        for i in c.index:
            left, right = degree_shapes[i // nf].split()
            perm = perms[i % nf]
            pair = ((left, perm[:left.leaves]), (right, perm[left.leaves:]))
            self.keys.append([(sub.tree, positions.setdefault(pos, len(positions)))
                              for sub, pos in pair])
        self.positions = list(positions)


def _plan(c: IdentityCombination) -> _Plan:
    """c's evaluation plan, compiled on first use and kept on c. A
    combination's coefficients never change, and scaled, plus and every
    constructor make a new object, so a plan is never read for other
    coefficients than its own."""
    try:
        return c._plan
    except AttributeError:
        c._plan = plan = _Plan(c)
        return plan


def _tuple_indices(c: IdentityCombination, d: int) -> np.ndarray:
    """Flat indices, ascending, of the basis tuples to evaluate c on.

    All d^n tuples in general. When c is alternating in all n variables,
    its value at v o tau is sgn(tau) times its value at v and vanishes
    wherever an index repeats (the same holds for its cocycle rows), so
    the strictly increasing tuples decide everything: C(d, n) of them,
    none when d < n.
    """
    if not _plan(c).alternating:
        return np.arange(d**c.degree)
    return _sorted_tuples(d, c.degree, strict=True)


def _cocycle_rows(a: Algebra, p: IdentityCombination):
    """rows(idx) -> (len(idx), d^2) array: row j is the cocycle condition
    of p at the flat basis tuple idx[j], the sum over p's terms of the
    weight times the outer product of the values of the two root subtrees
    (see cohomology). Every value of p is read off these rows (_violator).

    The T terms are one batched product. Every distinct root-subtree table
    is stacked once into one array; a chunk of m tuples takes all left
    factors and all right factors in one gather each, (m, T, d), scales
    the left ones by the weights, and sums the T outer products as one
    matmul (m, d, T) @ (m, T, d). Every product and partial sum is at most
    sum |w| * scale^(n-2) (a factor of k leaves is at most scale^(k-1),
    see _ValueTables), which picks the dtypes by fastrank._exact_dtypes:
    float64 (BLAS) work below 2^53, exact as in _ValueTables, int64 below
    2^62, object otherwise; the rows are int64 or object. Chunks keep the
    chunk's arrays within _CHUNK_BYTES, however many terms p has.
    """
    d, n = a.dim, p.degree
    digits = _digit_table(d, n)
    tables = _shape_tables(a)
    plan = _plan(p)
    work, dtype = fastrank._exact_dtypes(sum(map(abs, p.nums)) * tables.scale ** (n - 2),
                                         tables.cflat)
    start: dict = {}  # subtree key -> the first row of its table in the stack
    stacked = []
    for key in (key for factors in plan.keys for key, _r in factors):
        if key not in start:
            start[key] = sum(map(len, stacked))
            stacked.append(tables[key].astype(work, copy=False))
    stack = np.concatenate([np.zeros((0, d), dtype=work), *stacked])
    # first[s, t]: the stack row where the table of side s of term t starts;
    # pos[s, t]: the index of that factor's leaf positions
    first, pos = np.array([[(start[key], r) for key, r in factors] for factors in plan.keys],
                          dtype=np.int64).reshape(-1, 2, 2).transpose(2, 1, 0)
    w = np.array(p.nums, dtype=work)[:, None]
    weights = _index_weights(d, plan.positions, n)
    # bytes per tuple: index maps, both sides' indices and factors, product
    step = max(1, _CHUNK_BYTES // (8 * (len(plan.positions) + 2 * len(w) * (d + 1) + 2 * d * d)))

    def chunk(idx):  # its arrays are freed on return
        gathers = digits[idx] @ weights  # (m, positions)
        lv, rv = (np.take(stack, first[s] + gathers[:, pos[s]], axis=0) for s in (0, 1))
        lv *= w
        return np.matmul(lv.transpose(0, 2, 1), rv)

    def rows(idx):
        out = np.empty((len(idx), d, d), dtype=dtype)
        for v0 in range(0, len(idx), step):
            out[v0:v0 + step] = chunk(idx[v0:v0 + step])
        return out.reshape(len(idx), d * d)

    return rows


def _basis_tuple(d: int, n: int, flat) -> tuple:
    """The 1-based basis tuple of length n with flat index flat."""
    return tuple(int(x) + 1 for x in _digit_table(d, n)[flat])


def _violator(a: Algebra, c: IdentityCombination, rows: np.ndarray, idx: np.ndarray):
    """None, or the first tuple of idx (1-based) where c is nonzero, read
    off its rows there, rows = _cocycle_rows(a, c)(idx).

    c's value at v is row(v) @ C / (c.den * den^(n-1)), for C the cleared
    structure constants as a (d^2, d) array: row(v) sums w * L (x) R over
    the terms, and (L (x) R) @ C is den times the product of the root
    pair's values, L and R being scaled by den^(leaves - 1). The products
    are exact (fastrank._exact_products(x, y) is x @ y^T).
    """
    d = a.dim
    values = fastrank._exact_products(rows, a.mult.ints.reshape(d * d, d).T)
    bad = np.flatnonzero((values != 0).any(axis=1))
    return _basis_tuple(d, c.degree, idx[bad[0]]) if bad.size else None


def _checked_cocycle_rows(a: Algebra, p: IdentityCombination):
    """rows(idx) of _cocycle_rows without its zero rows, idx ascending,
    that also checks p at those tuples from the full rows first: the first
    violator in idx (_violator) raises ValueError."""
    rows = _cocycle_rows(a, p)

    def checked(idx):
        block = rows(idx)
        bad = _violator(a, p, block, idx)
        if bad is not None:
            raise ValueError("base does not satisfy P: %s fails %s at basis tuple %r"
                             % (a.name or "algebra", p.name or "the identity", bad))
        return block[block.any(axis=1)]

    return checked


def first_violation(a: Algebra, c: IdentityCombination):
    """None, or the lexicographically first basis tuple (1-based) where
    the combination has a nonzero value, read off its rows (_violator).

    Only _tuple_indices' tuples are scanned, in order. For an alternating
    c that loses nothing: a violator v has distinct entries, and its
    sorted rearrangement is no later than v and takes plus or minus the
    nonzero value at v, so the first violator is strictly increasing.
    """
    if a.dim == 0:
        return None
    rows = _cocycle_rows(a, c)
    idx = _tuple_indices(c, a.dim)
    for v0 in range(0, len(idx), 4096):
        bad = _violator(a, c, rows(idx[v0:v0 + 4096]), idx[v0:v0 + 4096])
        if bad is not None:
            return bad
    return None


def evaluate_combination_table(a: Algebra, c: IdentityCombination):
    """(R, denom): R[flat(v), k] * 1/denom is the exact value of the
    combination at the basis tuple v, component k, read off its rows at
    every tuple as in _violator."""
    d, n = a.dim, c.degree
    rows = _cocycle_rows(a, c)(np.arange(d**n))
    return _exact_matmul(rows, a.mult.ints.reshape(d * d, d)), c.den * a.mult.den ** (n - 1)


def combination_in_span(c: IdentityCombination, basis) -> bool:
    """True iff c is a rational combination of the given identities (the
    span of none is {0}): the span of their integer rows contains c's."""
    if any(b.degree != c.degree for b in basis):
        raise ValueError("degree mismatch")
    cols = monomial_count(c.degree)
    x = np.zeros((len(basis) + 1, cols), dtype=object)
    for row, b in zip(x, [*basis, c]):  # b times its den
        row[list(b.index)] = b.nums
    return fastrank.Subspace._from_rref(cols, *fastrank.rref_int(x[:-1], cols)).contains(x[-1])


def spaces_equal(basis_a, basis_b) -> bool:
    """Do two identity lists span the same subspace?"""
    combos = [*basis_a, *basis_b]
    if len({c.degree for c in combos}) > 1:
        raise ValueError("degree mismatch")
    if not combos:
        return True
    length = monomial_count(combos[0].degree)

    def span(basis):
        sink = RankSink(length)
        sink.feed_many(c.coeffs for c in basis)
        return sink.basis()

    return span(basis_a) == span(basis_b)
