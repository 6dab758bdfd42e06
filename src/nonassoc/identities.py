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
read the variables sigma(1), ..., sigma(n); _flat_indices evaluates it at
the tuple v o sigma, with (v o sigma)_i = v_{sigma(i)}. For a permutation
tau, (v o tau) o sigma = v o (tau sigma), so the rows at v o tau and at v
(same component) satisfy

    x_{v o tau}[(s, sigma)] = x_v[(s, tau sigma)].

For the adjacent transposition tau = s_i of variables i and i + 1 this
says x_{v o s_i} = x_v[g_i] in numpy's reading (x[g][c] = x[g[c]]), where
g_i maps column s * n! + r to s * n! + _adjacent_swaps(n)[i - 1][r], the
rank of s_i o sigma_r. The s_i generate S_n and every tuple is v o tau for
its non-decreasing rearrangement v, so the rows at the C(d + n - 1, n)
non-decreasing tuples generate the whole d^n-tuple system under the g_i:
those rows are all that is built, and fastrank certifies that their span
is invariant under each g_i.

This module is the one place that evaluates a combination at basis
tuples: its values (first_violation, evaluate_combination_table) and the
cocycle rows of its central extensions (cohomology) come from one term
walk over the same tables. What that walk needs from the coefficients
is compiled once per combination object into a plan (_Plan): whether it
alternates, the weight denominator, the nonzero terms as (integer
weight, shape, permutation), and for each evaluator the subtree keys and
leaf positions of every term's factors. The plan is kept on the
combination but is no part of its value: equality, hashing and pickling
ignore it. Later calls only look up tables and sum bounds.

Value tables hold integers, and an int64 table whose proven bound is
below 2^53 is built with float64 matrix products (BLAS) and cast back.
The bounds are L1 bounds of table rows, and every term and partial sum
of both products is at most the table's bound, so each is an integer
that float64 holds exactly, in whatever order the sums run (the
argument is in _ValueTables). Larger int64 bounds use int64 products,
and object tables stay object.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial, lcm

import numpy as np

from . import fastrank
from .algebras import Algebra, multiply
from .fastrank import _INT64_LIMIT
from .linalg import RankSink
from .monomials import (
    BracketShape,
    IdentityCombination,
    MultilinearMonomial,
    monomial_count,
    shapes,
)


def _block_ranges(total: int, block: int):
    return [(v0, min(v0 + block, total)) for v0 in range(0, total, block)]


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


def _flat_indices(d: int, positions, digits: np.ndarray) -> np.ndarray:
    """(len(positions), len(digits)) int64: entry (r, j) is the flat index
    of the subtuple (v_p for p in positions[r], 1-based) of the basis tuple
    whose digits are digits[j]."""
    weights = np.zeros((len(positions), digits.shape[1]), dtype=np.int64)
    for r, pos in enumerate(positions):
        for j, p in enumerate(pos):
            weights[r, p - 1] = d ** (len(pos) - 1 - j)
    return weights @ digits.T


def _subtree_keys(tree, out):
    if tree is None:
        out.setdefault("x", None)
        return "x"
    lk = _subtree_keys(tree[0], out)
    rk = _subtree_keys(tree[1], out)
    key = "(%s%s)" % (lk, rk)
    out.setdefault(key, tree)
    return key


# Integers of absolute value at most 2^53 are exact float64 values.
_FLOAT_EXACT = 1 << 53


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
    """Subtree key -> value table, each table built on its first lookup and
    kept. Only the structure constants, each key's two children and the
    bounds are held, never a function that refers back to the mapping, so
    an evicted entry is freed at once.

    An int64 table whose bound is below 2^53 is computed with float64
    (BLAS) products and cast back, exactly. bounds[key] bounds the L1 norm
    of every row of the key's table (see _shape_tables). The first
    product's entries sum_p tl[a, p] c[p, q, k] have terms and partial
    sums of absolute sum at most ||tl_a||_1 * cmax; the second product's
    entries sum_q tr[b, q] w[a, q, k] at most ||tr_b||_1 * ||tl_a||_1 *
    cmax. Both are at most bounds[key] = d * cmax * bounds[left] *
    bounds[right], so every product and every partial sum is an integer
    below 2^53, which float64 holds exactly, whatever order BLAS sums in.
    Other int64 tables use int64 products; object tables stay object.
    """

    def __init__(self, cflat: np.ndarray, children: dict, bounds: dict):
        d = cflat.shape[0]
        super().__init__(x=np.eye(d, dtype=cflat.dtype))
        self.cflat = cflat
        self.children = children
        self.bounds = bounds

    def __missing__(self, key):
        lk, rk = self.children[key]
        factors = (self[lk], self[rk], self.cflat)
        dtype = self.cflat.dtype
        if dtype == np.int64 and self.bounds[key] < _FLOAT_EXACT:
            factors = (m.astype(np.float64) for m in factors)
        t = np.ascontiguousarray(_product_table(*factors), dtype=dtype)
        t = t.reshape(-1, t.shape[2])
        t.setflags(write=False)
        self[key] = t
        return t


@lru_cache(maxsize=6)
def _shape_tables(a: Algebra, n: int):
    """Value tables for the subtrees of the degree-n shapes.

    Returns (tables, bounds, den): tables maps a subtree key to an array
    of shape (d^leaves, d) whose row at flat leaf tuple w is the product
    vector scaled by den^(leaves-1); bounds maps the key to a proven bound
    on the L1 norm of every row, so also on its absolute entries: a leaf's
    rows are unit vectors, and ||xy||_1 <= d * cmax * ||x||_1 * ||y||_1
    for cmax the largest absolute cleared structure constant. Bounds and
    the dtype (int64 unless a bound crosses 2^62) are decided here for
    every subtree; a table is built the first time a caller looks it up,
    and stays in this cached entry.
    """
    d = a.dim
    carr, den = a.int_constants()
    cmax = max(1, int(abs(carr).max())) if d else 1

    trees: dict = {}
    for s in shapes(n):
        _subtree_keys(s.tree, trees)
    # _subtree_keys inserts every subtree after both of its children, so one
    # pass in insertion order meets each child's bound first.
    children = {key: (_subtree_keys(tree[0], {}), _subtree_keys(tree[1], {}))
                for key, tree in trees.items() if tree is not None}

    bounds = {"x": 1}
    for key, (lk, rk) in children.items():
        bounds[key] = d * bounds[lk] * bounds[rk] * cmax

    use_object = any(b >= _INT64_LIMIT for b in bounds.values()) or carr.dtype == object
    dtype = object if use_object else np.int64
    return _ValueTables(carr.astype(dtype).reshape(d, d * d), children, bounds), bounds, den


def _shape_key(shape: BracketShape) -> str:
    return _subtree_keys(shape.tree, {})


def evaluate_monomial(a: Algebra, m: MultilinearMonomial, args) -> list:
    """Exact product vector of one monomial at 1-based basis indices."""
    args = tuple(args)
    if len(args) != m.degree:
        raise ValueError("argument count != degree")
    for v in args:
        if not (1 <= v <= a.dim):
            raise ValueError("basis index %r out of range" % (v,))
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
    lexicographic order. Rows are component-major: row k * len(idx) + j
    holds component k at the tuple idx[j]. A block is one gather from the
    shapes' root tables laid side by side, with no copy."""
    d = a.dim
    tables, _bounds, _den = _shape_tables(a, n)
    digits = _digit_table(d, n)
    perms = list(permutations(range(1, n + 1)))
    # shape ci's leaf tuple w sits at column ci * d^n + w
    table = np.concatenate([tables[_shape_key(shapes(n)[si])] for si in shape_indices]).T
    offsets = np.arange(len(shape_indices))[:, None] * d**n
    cols = len(perms) * len(shape_indices)

    def build(idx):
        sub = _flat_indices(d, perms, digits[idx]).T  # (block, n!)
        gather = (sub[:, None, :] + offsets).reshape(len(idx), cols)
        return np.take(table, gather, axis=1).reshape(-1, cols)

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
    listed shapes, from the rows at the non-decreasing tuples and the
    symmetries g_i of the module docstring."""
    build, cols = _evaluation_block_builder(a, n, shape_indices)
    nf = factorial(n)
    tuples = _sorted_tuples(a.dim, n)
    block = max(16, (1 << 19) // max(1, cols))
    chunks = [tuples[v0:v1] for v0, v1 in _block_ranges(len(tuples), block)]
    shape_cols = np.arange(len(shape_indices))[:, None] * nf
    symmetries = [(shape_cols + swap).ravel() for swap in _adjacent_swaps(n)]

    def source():
        return _parallel_blocks(chunks, build)

    _rank, basis = fastrank.certified_nullspace(cols, source, symmetries)
    if tuple(shape_indices) == tuple(range(len(shapes(n)))):
        coeffs = basis.rows  # every shape, in order: the columns are the monomials
    else:  # shape ci's n! columns are the coefficients of shape si
        zero = [Fraction(0)] * monomial_count(n)
        coeffs = []
        for row in basis.rows:
            full = list(zero)
            for ci, si in enumerate(shape_indices):
                full[si * nf:(si + 1) * nf] = row[ci * nf:(ci + 1) * nf]
            coeffs.append(tuple(full))
    return basis.rank, [IdentityCombination._from_fractions(n, c) for c in coeffs]


def identity_space(a: Algebra, n: int):
    """(dimension, canonical basis) of the degree-n identities of a.

    Degree 5 joins all 14 shapes into one 1680-column system with dim^6
    rows and a very wide nullspace, built only at the non-decreasing
    tuples (C(dim + 4, 5) of them) and certified invariant under the
    symmetries of the module docstring. Warm, on a 2-core machine, it
    took 0.2-0.3 s for E2 (dim 2), 0.9-1.1 s for S2 (dim 4), 1.9-2.5 s
    for S1bar and 6.3-6.5 s for W2bar (dim 8); W2(big) (dim 8, large
    constants) takes over a minute. When one shape at a time is enough,
    shape_identity_space stays fast even at degree 5.
    """
    if not 2 <= n <= 5:
        raise ValueError("degree must be between 2 and 5")
    if n == 5 and a.dim >= 4:
        warnings.warn(
            "full degree-5 identity space on dim %d certifies a %d x 1680 "
            "system exactly (about 1 s at dim 4 and 2-7 s at dim 8 on a "
            "2-core machine, over a minute for W2(big)); shape_identity_space "
            "handles a single shape quickly"
            % (a.dim, (a.dim ** 5) * a.dim),
            RuntimeWarning,
            stacklevel=2,
        )
    return _nullspace_combinations(a, n, range(len(shapes(n))))


def shape_identity_space(a: Algebra, n: int, shape_index: int):
    """Identities supported on a single bracketing shape (1-based index)."""
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
    perms = list(permutations(range(1, n + 1)))
    rank = {perm: r for r, perm in enumerate(perms)}
    swaps = []
    for i in range(1, n):
        flip = {i: i + 1, i + 1: i}
        swaps.append([rank[tuple(flip.get(v, v) for v in perm)] for perm in perms])
    return tuple(swaps)


def _is_alternating(c: IdentityCombination) -> bool:
    """True iff c changes sign under every adjacent transposition of its
    variables: the coefficient of (shape, s_i o sigma) is minus that of
    (shape, sigma). Each s_i is an involution, so checking the nonzero
    coefficients is enough."""
    nf = factorial(c.degree)
    coeffs = c.coeffs
    for swap in _adjacent_swaps(c.degree):
        for i, x in enumerate(coeffs):
            if x and coeffs[i - i % nf + swap[i % nf]] != -x:
                return False
    return True


class _Plan:
    """What evaluating one combination needs from its coefficients, read
    from them once (see _plan).

    alternating is _is_alternating(c); wden is the lcm of the coefficient
    denominators; terms holds (w, shape, permutation) for each nonzero
    coefficient (shape i // n!, permutation of lexicographic rank i % n!),
    w = coefficient * wden an integer. For each split function, splits
    holds (keys, positions): keys[t] lists the factors split(shape,
    permutation) of term t as (subtree key, index into positions), and
    positions the distinct leaf position tuples, for _flat_indices.
    """

    __slots__ = ("alternating", "wden", "terms", "splits")

    def __init__(self, c: IdentityCombination):
        n = c.degree
        nf = factorial(n)
        degree_shapes = shapes(n)
        perms = list(permutations(range(1, n + 1)))
        self.alternating = _is_alternating(c)
        self.wden = lcm(*(x.denominator for x in c.coeffs))
        self.terms = [(int(x * self.wden), degree_shapes[i // nf], perms[i % nf])
                      for i, x in enumerate(c.coeffs) if x]
        self.splits = {}

    def factors(self, split):
        out = self.splits.get(split)
        if out is None:
            positions: dict = {}
            keys = [[(_shape_key(sub), positions.setdefault(pos, len(positions)))
                     for sub, pos in split(shape, perm)]
                    for _w, shape, perm in self.terms]
            out = self.splits[split] = (keys, list(positions))
        return out


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


def _term_factors(a: Algebra, c: IdentityCombination, split):
    """(terms, positions, dtype, denom) for evaluating c at basis tuples.

    terms holds (w, [(value table, row of positions)]) for each term of
    c's plan, with the factors split lists; positions lists the distinct
    position tuples, for _flat_indices. dtype is int64 unless the tables
    are object or sum |w| * (product of factor bounds) reaches the int64
    limit; denom = weight denominator * den^(n-1). Tables are looked up
    here.
    """
    tables, bounds, den = _shape_tables(a, c.degree)
    plan = _plan(c)
    keys, positions = plan.factors(split)
    terms = []
    total_bound = 0
    for (w, _shape, _perm), factors in zip(plan.terms, keys):
        bound = abs(w)
        for key, _r in factors:
            bound *= bounds[key]
        total_bound += bound
        terms.append((w, [(tables[key], r) for key, r in factors]))
    use_object = tables["x"].dtype == object or total_bound >= _INT64_LIMIT
    return terms, positions, object if use_object else np.int64, plan.wden * den ** (c.degree - 1)


def _whole(shape: BracketShape, perm: tuple):
    return [(shape, perm)]


def _combination_values(a: Algebra, c: IdentityCombination):
    """(values, denom): values(idx)[j, k] / denom is the exact value of the
    combination at the flat basis tuple idx[j], component k."""
    d = a.dim
    digits = _digit_table(d, c.degree)
    terms, positions, dtype, denom = _term_factors(a, c, _whole)

    def values(idx):
        gathers = _flat_indices(d, positions, digits[idx])
        acc = np.zeros((len(idx), d), dtype=dtype)
        for w, [(table, r)] in terms:
            acc += w * table[gathers[r]].astype(dtype, copy=False)
        return acc

    return values, denom


def _root_pair(shape: BracketShape, perm: tuple):
    left, right = shape.split()
    return [(left, perm[:left.leaves]), (right, perm[left.leaves:])]


def _cocycle_rows(a: Algebra, p: IdentityCombination):
    """rows(idx) -> (len(idx), d^2) array: row j is the cocycle condition
    of p at the flat basis tuple idx[j], the sum over p's terms of the
    weight times the outer product of the values of the two root subtrees
    (see cohomology)."""
    d = a.dim
    digits = _digit_table(d, p.degree)
    terms, positions, dtype, _denom = _term_factors(a, p, _root_pair)

    def rows(idx):
        gathers = _flat_indices(d, positions, digits[idx])
        acc = np.zeros((len(idx), d, d), dtype=dtype)
        for w, [(tl, lr), (tr, rr)] in terms:
            lv = tl[gathers[lr]].astype(dtype, copy=False)
            rv = tr[gathers[rr]].astype(dtype, copy=False)
            acc += (w * lv)[:, :, None] * rv[:, None, :]
        return acc.reshape(len(idx), d * d)

    return rows


def first_violation(a: Algebra, c: IdentityCombination):
    """None, or the lexicographically first basis tuple (1-based) where
    the combination has a nonzero value.

    Only _tuple_indices' tuples are scanned, in order. For an alternating
    c that loses nothing: a violator v has distinct entries, and its
    sorted rearrangement is no later than v and takes plus or minus the
    nonzero value at v, so the first violator is strictly increasing.
    """
    n = c.degree
    d = a.dim
    if d == 0:
        return None
    values, _den = _combination_values(a, c)
    idx = _tuple_indices(c, d)
    for v0, v1 in _block_ranges(len(idx), 4096):
        nz = np.flatnonzero(values(idx[v0:v1]).any(axis=1))
        if nz.size:
            digits = _digit_table(d, n)[idx[v0 + nz[0]]]
            return tuple(int(x) + 1 for x in digits)
    return None


def evaluate_combination_table(a: Algebra, c: IdentityCombination):
    """(R, denom): R[flat(v), k] * 1/denom is the exact value of the
    combination at the basis tuple v, component k."""
    values, denom = _combination_values(a, c)
    return values(np.arange(a.dim**c.degree)), denom


def combination_in_span(c: IdentityCombination, basis) -> bool:
    """True iff c is a rational combination of the given identities."""
    if not basis:
        return not any(c.coeffs)
    length = len(c.coeffs)
    sink = RankSink(length)
    for b in basis:
        if b.degree != c.degree:
            raise ValueError("degree mismatch")
        sink.feed(b.coeffs)
    return not sink.feed(c.coeffs)


def spaces_equal(basis_a, basis_b) -> bool:
    """Do two identity lists span the same subspace?"""
    combos = [*basis_a, *basis_b]
    if len({c.degree for c in combos}) > 1:
        raise ValueError("degree mismatch")
    if not combos:
        return True
    length = len(combos[0].coeffs)

    def span(basis):
        sink = RankSink(length)
        sink.feed_many(c.coeffs for c in basis)
        return sink.basis()

    return span(basis_a) == span(basis_b)
