import gc
import hashlib
import itertools
import pickle
import random
import re
import tracemalloc
import weakref
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nonassoc.algebras import (
    Algebra,
    Subspace,
    _derivation_span,
    change_of_basis,
    is_ideal,
    multiply,
    restrict,
)
from nonassoc.catalog import catalog, sab_bar
from nonassoc.claims import _algebra, load_claims, named_identity, resolve_identity
from nonassoc.cohomology import _cocycle_span
from nonassoc.conservative import terminal_identity
from nonassoc.fastrank import certified_nullspace
from nonassoc.formats import identity_from_dict, identity_to_dict
from nonassoc.identities import (
    _cocycle_rows,
    _digit_table,
    _evaluation_block_builder,
    _index_weights,
    _is_alternating,
    _parallel_blocks,
    _product_table,
    _shape_tables,
    _sorted_tuples,
    _tuple_blocks,
    _tuple_indices,
    combination_in_span,
    evaluate_combination_table,
    evaluate_monomial,
    first_violation,
    identity_space,
    satisfies_identity,
    shape_identity_space,
    spaces_equal,
)
from nonassoc.monomials import (
    MAX_DEGREE,
    BracketShape,
    IdentityCombination,
    MultilinearMonomial,
    _count_leaves,
    enumerate_monomials,
    monomial_count,
    perm_sign,
    right_comb,
    shapes,
    st_identity,
    tail_fixed_alternating,
)

# Catalog algebras of dimensions 2 to 8.
SMALL_TO_LARGE = ("E2", "D2", "S2", "C2", "W2", "B2", "S1bar", "W2tildetilde")


def _naive_monomial(a, m, args):
    """Plain recursive evaluation over Fractions, no tables."""
    cursor = [0]

    def ev(t):
        if t is None:
            cursor[0] += 1
            return a.basis_vector(args[m.perm[cursor[0] - 1] - 1])
        return multiply(a, ev(t[0]), ev(t[1]))

    return ev(m.shape.tree)


def _naive_identity_dim(a, n):
    """Exact nullspace of the evaluation matrix, one row per (tuple, comp)."""
    from nonassoc.linalg import Matrix, nullspace

    monos = enumerate_monomials(n)
    rows = []
    for args in itertools.product(range(1, a.dim + 1), repeat=n):
        cols = [evaluate_monomial(a, m, args) for m in monos]
        for k in range(a.dim):
            rows.append([col[k] for col in cols])
    return nullspace(Matrix.from_rows(rows)).rank


def test_evaluate_monomial_against_recursion():
    rng = random.Random(5)
    for key, n in [("D2", 3), ("S2", 3), ("E2", 4)]:
        a = catalog(key)
        monos = enumerate_monomials(n)
        for _ in range(15):
            m = rng.choice(monos)
            args = tuple(rng.randint(1, a.dim) for _ in range(n))
            assert evaluate_monomial(a, m, args) == _naive_monomial(a, m, args)


def test_evaluate_monomial_validation():
    a = catalog("E2")
    m = enumerate_monomials(3)[0]
    with pytest.raises(ValueError):
        evaluate_monomial(a, m, (1, 2))
    with pytest.raises(ValueError):
        evaluate_monomial(a, m, (1, 2, 3))


@pytest.mark.parametrize("index", [0, 3, True, 1.5])
def test_evaluate_monomial_rejects_a_bad_basis_index(index):
    # True was once read as index 1, and 1.5 raised TypeError
    m = enumerate_monomials(3)[0]
    with pytest.raises(ValueError, match=r"basis index %s is not an integer in 1\.\.2"
                       % re.escape(repr(index))):
        evaluate_monomial(catalog("E2"), m, (1, index, 2))


def test_identity_space_dims_match_brute_force():
    for key, n in [("D2", 3), ("E2", 3), ("E2", 4)]:
        a = catalog(key)
        dim, basis = identity_space(a, n)
        assert dim == _naive_identity_dim(a, n)
        assert len(basis) == dim
        for c in basis:
            assert satisfies_identity(a, c)


def test_identity_space_known_dimensions():
    assert identity_space(catalog("D2"), 3)[0] == 6
    assert identity_space(catalog("E2"), 3)[0] == 8
    assert identity_space(catalog("S2"), 3)[0] == 3
    assert identity_space(catalog("B2"), 3)[0] == 0


def test_identity_space_degree_bounds():
    a = catalog("E2")
    with pytest.raises(ValueError):
        identity_space(a, 1)
    with pytest.raises(ValueError):
        identity_space(a, 6)


@pytest.mark.parametrize("n", [0, 1, 6])
def test_shape_identity_space_has_the_degree_bounds_of_identity_space(n):
    # degree 1 has one shape, the leaf, so only the degree check refuses it
    a = catalog("E2")
    for space in (lambda: identity_space(a, n), lambda: shape_identity_space(a, n, 1)):
        with pytest.raises(ValueError, match="degree must be between 2 and 5"):
            space()


# every entry point that takes a degree, each refusing it at the call
_DEGREE_ENTRY_POINTS = {
    "enumerate_monomials": enumerate_monomials,
    "st_identity": lambda n: st_identity(n, 1),
    "tail_fixed_alternating": lambda n: tail_fixed_alternating(n, 1),
    "IdentityCombination": lambda n: IdentityCombination(n, [1]),
    "from_terms": lambda n: IdentityCombination.from_terms(n, []),
    "identity_space": lambda n: identity_space(catalog("E2"), n),
    "shape_identity_space": lambda n: shape_identity_space(catalog("E2"), n, 1),
}


@pytest.mark.parametrize("n", [0, 1, MAX_DEGREE + 1, True, 5.0])
@pytest.mark.parametrize("entry", sorted(_DEGREE_ENTRY_POINTS))
def test_every_entry_point_refuses_a_degree_outside_the_one_rule(entry, n):
    with pytest.raises(ValueError, match="^degree must be between 2 and %d$" % MAX_DEGREE):
        _DEGREE_ENTRY_POINTS[entry](n)


@pytest.mark.parametrize("n", [-1, 0, 1, True, *range(2, MAX_DEGREE + 3), 5.0])
def test_every_combination_that_can_be_made_can_be_read_back(n):
    # a combination of any degree the constructors accept survives its file
    ones = [1] * monomial_count(max(1, int(n)))
    for make in (lambda: IdentityCombination.from_terms(n, []),
                 lambda: IdentityCombination(n, ones)):
        try:
            c = make()
        except ValueError:
            assert not 2 <= n <= MAX_DEGREE or type(n) is not int
            continue
        assert identity_from_dict(identity_to_dict(c)) == c


def test_identity_spaces_are_certified_once_per_algebra(monkeypatch):
    import nonassoc.fastrank as fr

    a = catalog("D2")
    first = identity_space(a, 3)
    shape_first = shape_identity_space(a, 4, 2)
    assert first[0] == 6 and shape_first[0] > 0

    def refuse(*args, **kwargs):
        raise AssertionError("certified again")

    monkeypatch.setattr(fr, "_certify", refuse)
    again = identity_space(a, 3)
    assert again == first and again[1] is not first[1]
    shape_again = shape_identity_space(a, 4, 2)
    assert shape_again == shape_first and shape_again[1] is not shape_first[1]
    # the kept answer is not the caller's list: editing it changes nothing
    again[1].clear()
    shape_again[1].append(None)
    assert identity_space(a, 3) == first
    assert shape_identity_space(a, 4, 2) == shape_first
    # another key, or a fresh copy of the same algebra, certifies again
    with pytest.raises(AssertionError, match="certified again"):
        shape_identity_space(a, 4, 3)
    with pytest.raises(AssertionError, match="certified again"):
        identity_space(catalog("D2"), 3)


def test_kept_degree_five_basis_pickles_the_same():
    a = catalog("E2")
    dim, basis = identity_space(a, 5)
    # the canonical basis is pinned byte for byte: each combination's
    # nonzero (index, numerator, denominator) triples, hashed in order
    h = hashlib.sha256()
    for c in basis:
        nz = [(i, x.numerator, x.denominator) for i, x in enumerate(c.coeffs) if x]
        h.update(repr(nz).encode() + b"\n")
    assert (dim, h.hexdigest()) == (
        1674,
        "f0a7ba694da7d507d0c2cecd1515a3c55aa3717df4f9130115a906d68b4921ef",
    )
    before = pickle.dumps(basis)
    dim_again, basis_again = identity_space(a, 5)
    assert dim_again == dim == 1674
    assert basis_again is not basis
    assert pickle.dumps(basis_again) == before


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_zero_algebra_satisfies_every_identity(n):
    zero = Algebra("zero", 0, [])
    assert identity_space(zero, n)[0] == monomial_count(n)
    assert shape_identity_space(zero, n, 1)[0] == factorial(n)


def test_shape_identity_space_is_a_subspace():
    a = catalog("D2")
    total_dim, total_basis = identity_space(a, 3)
    shape_dims = 0
    for si in range(1, len(shapes(3)) + 1):
        dim, basis = shape_identity_space(a, 3, si)
        shape_dims += dim
        for c in basis:
            assert satisfies_identity(a, c)
            assert combination_in_span(c, total_basis)
    assert shape_dims <= total_dim
    with pytest.raises(ValueError):
        shape_identity_space(a, 3, 3)


def test_st_implication_up_the_degrees():
    # an algebra obeying the alternating identity at degree n obeys it at n+1
    for key in ("D2", "E2"):
        a = catalog(key)
        for variant in (1, 2):
            assert satisfies_identity(a, st_identity(3, variant))
            assert satisfies_identity(a, st_identity(4, variant))


def test_st_profile_of_the_six_dim_subalgebra():
    a = catalog("W2")
    assert not satisfies_identity(a, st_identity(4, 2))
    assert not satisfies_identity(a, st_identity(5, 1))
    assert satisfies_identity(a, st_identity(5, 2))


def test_degree_three_combination_at_special_pair():
    a = sab_bar(0, -3)
    dim, basis = identity_space(a, 3)
    assert dim == 1
    gen = st_identity(3, 1).scaled(2).plus(st_identity(3, 2).scaled(3))
    assert satisfies_identity(a, gen)
    assert spaces_equal(basis, [gen])
    flipped = st_identity(3, 1).scaled(2).plus(st_identity(3, 2).scaled(-3))
    assert not satisfies_identity(a, flipped)


def test_generic_pair_has_no_degree_three_identities():
    rng = random.Random(41)
    special = {(Fraction(0), Fraction(-3))}
    for _ in range(4):
        while True:
            pair = (
                Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
                Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
            )
            if pair not in special:
                break
        assert identity_space(sab_bar(*pair), 3)[0] == 0, pair


def test_first_violation_is_lexicographically_first():
    a = catalog("W2")
    c = st_identity(4, 2)
    v = first_violation(a, c)
    assert v is not None and len(v) == 4
    # no earlier tuple evaluates to a nonzero vector
    assert any(_value_at(a, c, v))
    for args in itertools.product(range(1, a.dim + 1), repeat=4):
        if args == v:
            break
        assert not any(_value_at(a, c, args))


def test_first_violation_none_for_satisfied_identity():
    assert first_violation(catalog("D2"), st_identity(3, 1)) is None


def _value_at(a, c, args):
    """Exact value of c at 1-based basis indices, monomial by monomial."""
    total = [Fraction(0)] * a.dim
    for m, coef in c.terms():
        vec = evaluate_monomial(a, m, args)
        total = [t + coef * x for t, x in zip(total, vec)]
    return total


# Dims 4 to 8; Sab_bar(1/2,-2/3) has structure constants with a denominator.
EVALUATED_ALGEBRAS = ("S2", "W2", "S1bar", (Fraction(1, 2), Fraction(-2, 3)))


@st.composite
def evaluated_combinations(draw):
    """Random mixed-shape combinations of degree 3-5 with fractional
    weights, terminal, or tail5_j."""
    kind = draw(st.sampled_from(["mixed", "terminal", "tail"]))
    if kind == "terminal":
        return terminal_identity()
    if kind == "tail":
        return tail_fixed_alternating(5, draw(st.integers(1, 5)))
    n = draw(st.integers(3, 5))
    weight = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    term = st.tuples(st.sampled_from(shapes(n)), st.permutations(range(1, n + 1)), weight)
    terms = draw(st.lists(term, min_size=1, max_size=6))
    return IdentityCombination.from_terms(n, [((sh, tuple(p)), w) for sh, p, w in terms])


@settings(max_examples=20, deadline=None)
@given(c=evaluated_combinations(), data=st.data())
def test_evaluate_combination_table_is_exact(c, data):
    for key in EVALUATED_ALGEBRAS:
        a = catalog(key) if isinstance(key, str) else sab_bar(*key)
        table, denom = evaluate_combination_table(a, c)
        assert table.shape == (a.dim**c.degree, a.dim)
        index = st.integers(1, a.dim)
        for args in data.draw(st.lists(st.tuples(*[index] * c.degree), min_size=1, max_size=2)):
            flat = 0
            for v in args:
                flat = flat * a.dim + (v - 1)
            got = [Fraction(int(table[flat][k]), denom) for k in range(a.dim)]
            assert got == _value_at(a, c, args)


def test_evaluation_blocks_hold_the_monomial_values_at_their_tuples():
    a = sab_bar(Fraction(1, 2), Fraction(-2, 3))  # dim 8, constants with a denominator
    n = 3
    scale = a.int_constants()[1] ** (n - 1)
    assert scale > 1
    perms = list(itertools.permutations(range(1, n + 1)))
    dropped = 0
    for shape_indices in [(1, 0), (1,)]:
        build, cols = _evaluation_block_builder(a, n, shape_indices)
        assert cols == len(shape_indices) * len(perms)
        for idx in [np.arange(0, 5), np.arange(200, 233), np.arange(448, 460),
                    _sorted_tuples(a.dim, n), np.array([511, 7, 300, 7, 0])]:
            # the dense rows, component-major (component k at every tuple of
            # idx in turn), from evaluate_monomial; the block is its nonzero
            # rows, in order
            values = []
            for v in idx:
                args = tuple(int(x) + 1 for x in np.unravel_index(v, (a.dim,) * n))
                values.append([evaluate_monomial(a, MultilinearMonomial(shapes(n)[si], perm), args)
                               for si in shape_indices for perm in perms])
            dense = [[value[k] * scale for value in row] for k in range(a.dim) for row in values]
            want = [row for row in dense if any(row)]
            block = build(idx)
            assert block.shape == (len(want), cols) and want
            assert block.tolist() == want
            dropped += len(dense) - len(want)
    assert dropped


def _all_tuple_space(a, n, shape_indices):
    """(dimension, basis) of the identities on the listed shapes from the
    rows at all d^n tuples, with no symmetries: the oracle for the
    library's sorted-tuple stream."""
    build, cols = _evaluation_block_builder(a, n, shape_indices)
    block = max(16, (1 << 19) // cols)
    tuples = np.arange(a.dim**n)
    _rank, null = certified_nullspace(
        cols, lambda: (build(tuples[i:i + block]) for i in range(0, len(tuples), block)))
    nf = factorial(n)
    combos = []
    for row in null.rows:
        coeffs = [Fraction(0)] * monomial_count(n)
        for ci, si in enumerate(shape_indices):
            for r in range(nf):
                coeffs[si * nf + r] = row[ci * nf + r]
        combos.append(IdentityCombination(n, coeffs))
    return null.rank, combos


@pytest.mark.parametrize("shape", range(1, 15))
def test_sorted_tuples_agree_with_all_tuples_on_the_big_degree_five_shapes(shape):
    a = catalog("W2(big)")
    assert shape_identity_space(a, 5, shape) == _all_tuple_space(a, 5, (shape - 1,))


REGISTRY_IDENTITY_ALGEBRAS = sorted({
    rec[k] for rec in load_claims() if rec["scope"] == "identities"
    for k in ("algebra", "left", "right") if k in rec})


@pytest.mark.parametrize("name", REGISTRY_IDENTITY_ALGEBRAS)
def test_sorted_tuples_agree_with_all_tuples_on_the_registry_algebras(name):
    a = catalog(name)
    for n in (3, 4):
        assert identity_space(a, n) == _all_tuple_space(a, n, range(len(shapes(n))))


def test_sorted_tuples_agree_with_all_tuples_at_full_degree_five():
    a = catalog("E2")
    assert identity_space(a, 5) == _all_tuple_space(a, 5, range(14))


def test_weights_beyond_int64_are_evaluated_exactly():
    a = catalog("W2(big)")
    c = st_identity(3, 1)
    big = c.scaled(3**40)
    table, denom = evaluate_combination_table(a, c)
    big_table, big_denom = evaluate_combination_table(a, big)
    assert big_table.dtype == object and denom == big_denom
    assert (big_table == table.astype(object) * 3**40).all()
    assert first_violation(a, big) == first_violation(a, c)


def test_combination_in_span_and_spaces_equal():
    s1 = st_identity(3, 1)
    s2 = st_identity(3, 2)
    both = [s1, s2]
    assert combination_in_span(s1.scaled(5), both)
    assert combination_in_span(s1.plus(s2.scaled(-2)), both)
    zero = IdentityCombination(3, [0] * monomial_count(3))
    assert combination_in_span(zero, [])
    assert not combination_in_span(s1, [])
    assert not combination_in_span(s1, [s2])
    assert spaces_equal([s1, s2], [s1.plus(s2), s1.plus(s2.scaled(-1))])
    assert not spaces_equal([s1], [s2])
    assert spaces_equal([zero], []) and spaces_equal([], [])
    assert not spaces_equal([], [s1])
    with pytest.raises(ValueError):
        combination_in_span(st_identity(4, 1), [s1])
    with pytest.raises(ValueError, match="degree mismatch"):
        spaces_equal([s1], [st_identity(4, 1)])


def test_evicted_value_tables_are_freed_without_the_cycle_collector():
    gc.disable()
    try:
        tables = _shape_tables(catalog("D2"))
        tables[shapes(4)[0].tree]  # tables are built on demand
        ref = weakref.ref(tables[max(tables, key=_count_leaves)])
        del tables
        _shape_tables.cache_clear()
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("k", [2, 3])
def test_parallel_blocks_bounded_read_ahead(k):
    # nothing is read ahead: when block i is taken, exactly blocks 0..i
    # are built, and abandoning the stream after block k builds no more
    built = []

    def build(r):
        built.append(r)
        return r

    ranges = list(range(40))
    stream = _parallel_blocks(ranges, build)
    for i, r in enumerate(stream):
        assert r == i
        assert built == ranges[:i + 1]
        if i == k:
            break
    stream.close()
    assert built == ranges[:k + 1]
    # an unabandoned stream still yields every block, in order
    assert list(_parallel_blocks(ranges, build)) == ranges


def test_identity_dims_invariant_under_change_of_basis():
    a = catalog("D2")
    rng = random.Random(13)
    want = identity_space(a, 3)[0]
    for _ in range(3):
        while True:
            cols = [
                [Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)
            ]
            try:
                b = change_of_basis(a, cols)
                break
            except ValueError:
                continue
        assert identity_space(b, 3)[0] == want


def antisymmetrised(n, terms):
    """sum over tau of sgn(tau) tau.m, weighted, for (shape index, perm, weight)
    terms: (shape, rho) gets the sum of weight * sgn(perm) * sgn(rho)."""
    nf = factorial(n)
    coeffs = [Fraction(0)] * monomial_count(n)
    for si, perm, weight in terms:
        for r, rho in enumerate(itertools.permutations(range(1, n + 1))):
            coeffs[si * nf + r] += weight * perm_sign(perm) * perm_sign(rho)
    return IdentityCombination(n, coeffs)


@lru_cache(maxsize=None)
def alternating_identities(name, n):
    """Weights over shapes of a basis of the alternating degree-n identities
    of the algebra, from its values at all d^n basis tuples."""
    a = catalog(name)
    ident = tuple(range(1, n + 1))
    tables = [evaluate_combination_table(a, antisymmetrised(n, [(si, ident, 1)]))[0]
              for si in range(len(shapes(n)))]
    system = np.stack([t.reshape(-1) for t in tables], axis=1)
    return certified_nullspace(len(tables), lambda: [system])[1].rows


@st.composite
def alternating_combinations(draw, satisfied, max_tuples=8**5):
    """(algebra name, alternating combination over mixed shapes) with at
    most max_tuples basis tuples; with satisfied, an alternating identity
    of the algebra, from at most two of its basis rows."""
    name = draw(st.sampled_from(SMALL_TO_LARGE))
    dim = catalog(name).dim
    n = draw(st.sampled_from([k for k in (3, 4, 5) if dim**k <= max_tuples]))
    weight = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    ident = tuple(range(1, n + 1))
    if satisfied:
        basis = alternating_identities(name, n)
        rows = draw(st.lists(st.tuples(weight, st.sampled_from(basis)), max_size=2)
                    if basis else st.just([]))
        terms = [(si, ident, y * x) for y, row in rows for si, x in enumerate(row) if x]
    else:
        perm = st.permutations(ident).map(tuple)
        term = st.tuples(st.integers(0, len(shapes(n)) - 1), perm, weight)
        terms = draw(st.lists(term, min_size=1, max_size=4))
    return name, antisymmetrised(n, terms)


@settings(max_examples=30, deadline=None)
@given(case=st.booleans().flatmap(alternating_combinations))
def test_first_violation_of_alternating_combinations_matches_a_full_scan(case):
    name, c = case
    a = catalog(name)
    assert _is_alternating(c)
    table, _den = evaluate_combination_table(a, c)
    nz = np.flatnonzero((table != 0).any(axis=1))
    want = None
    if nz.size:
        want = tuple(int(x) + 1 for x in np.unravel_index(nz[0], (a.dim,) * c.degree))
    assert first_violation(a, c) == want


def test_is_alternating():
    for n in (3, 4, 5):
        for variant in (1, 2):
            assert _is_alternating(st_identity(n, variant))
    assert _is_alternating(st_identity(3, 1).scaled(2).plus(st_identity(3, 2).scaled(3)))
    for j in range(1, 6):
        assert not _is_alternating(tail_fixed_alternating(5, j))
    assert not _is_alternating(terminal_identity())
    extra = IdentityCombination.from_terms(5, [((right_comb(5), (1, 2, 3, 4, 5)), 1)])
    assert not _is_alternating(st_identity(5, 1).plus(extra))


def test_an_identity_block_is_one_gather_from_the_tables_in_place():
    # S1bar at degree 5: the 14 shapes' root tables side by side take 29 MB,
    # and the dense rows at one block of 312 tuples would take 33.5 MB. The
    # block is gathered one component's 4.2 MB slice at a time, copying no
    # table, and keeps only nonzero rows (1 of the 2,496 here); a dense
    # block peaked at 1.26 times its bytes
    a = catalog("S1bar")
    build, cols = _evaluation_block_builder(a, 5, range(len(shapes(5))))
    idx = _tuple_blocks(_sorted_tuples(a.dim, 5), cols)[0]
    build(idx[:1])  # digit table of degree 5 in place
    tracemalloc.start()
    try:
        block = build(idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dense_bytes = len(idx) * a.dim * cols * block.itemsize
    assert len(idx) == 312 and block.shape[1] == cols and block.dtype == np.int64
    assert len(block) < len(idx) * a.dim and block.any(axis=1).all()
    assert peak < 0.5 * dense_bytes


def test_a_degree_five_shape_system_on_dim_eight_stays_small_from_cold_caches():
    # W2(big), shape 13: one block of 792 tuples whose 6,336 dense rows of
    # 120 columns hold 545 nonzero ones; with dense blocks and a kept
    # 5-leaf root table this peaked at 13.6 MiB
    a = catalog("W2(big)")
    _shape_tables.cache_clear()
    _digit_table.cache_clear()
    tracemalloc.start()
    try:
        assert shape_identity_space(a, 5, 13)[0] == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert max(_count_leaves(key) for key in _shape_tables(a)) == 4


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_an_identity_system_keeps_no_root_table(n):
    # its n-leaf root tables are built into the system's own table from
    # their children's, which are kept
    a = catalog("E2")
    _shape_tables.cache_clear()
    identity_space(a, n)
    assert max(_count_leaves(key) for key in _shape_tables(a)) == n - 1


def test_object_identity_blocks_drop_the_same_zero_rows():
    # constants times 3^40: degree-3 tables bound (d * cmax)^2 >= 2^62 and
    # take the object path; each value is 3^80 times the int64 one
    a = catalog("W2")
    k = 3**40
    big = Algebra("W2*k", a.dim, [[[x * k for x in r] for r in plane] for plane in a.c])
    assert big.int_constants()[1] == a.int_constants()[1]
    idx = np.arange(a.dim**3)
    for shape_indices in [(0, 1), (1,)]:
        block = _evaluation_block_builder(a, 3, shape_indices)[0](idx)
        big_block = _evaluation_block_builder(big, 3, shape_indices)[0](idx)
        assert block.dtype == np.int64 and big_block.dtype == object
        assert 0 < len(block) < a.dim * len(idx) and block.any(axis=1).all()
        assert big_block.shape == block.shape
        assert (big_block == block.astype(object) * k**2).all()


def _fraction_first_violation(a, c):
    """The first basis tuple, in lexicographic order, where c's value,
    summed in Fractions over its terms from evaluate_monomial, is nonzero."""
    terms = c.terms()
    for v in itertools.product(range(1, a.dim + 1), repeat=c.degree):
        value = [0] * a.dim
        for m, x in terms:
            value = [t + x * y for t, y in zip(value, evaluate_monomial(a, m, v))]
        if any(value):
            return v
    return None


ORACLE_ALGEBRAS = ("E2", "D2", "S2")


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_first_violation_of_named_combinations_matches_a_fraction_scan(name):
    a = catalog(name)
    combos = [terminal_identity(),
              *(tail_fixed_alternating(n, j) for n in (3, 4) for j in range(1, n + 1))]
    if a.dim < 4:  # a full Fraction scan of S2's 1,024 tuples takes about 1 s each
        combos += [named_identity("tail5_%d" % j) for j in range(1, 6)]
    for c in combos:
        assert first_violation(a, c) == _fraction_first_violation(a, c), c.name


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_first_violation_of_random_combinations_matches_a_fraction_scan(data):
    # an identity of the algebra (degree-3 basis rows, or the terminal
    # identity at degree 4) plus a few random terms, not alternating
    a = catalog(data.draw(st.sampled_from(ORACLE_ALGEBRAS)))
    n = data.draw(st.sampled_from([3, 4]))
    held = identity_space(a, 3)[1] if n == 3 else [terminal_identity()]
    weight = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    coeffs = list(data.draw(st.sampled_from(held)).scaled(data.draw(weight)).coeffs) if held \
        else [Fraction(0)] * monomial_count(n)
    for i, w in data.draw(st.lists(st.tuples(st.integers(0, len(coeffs) - 1), weight),
                                   max_size=4)):
        coeffs[i] += w
    c = IdentityCombination(n, coeffs)
    assume(not _is_alternating(c))
    assert first_violation(a, c) == _fraction_first_violation(a, c)


def test_first_violation_builds_only_the_tables_it_reads():
    a = catalog("W2bar")
    _shape_tables.cache_clear()
    assert first_violation(a, st_identity(5, 1)) is None
    tables = _shape_tables(a)
    # read off the root-pair rows: no table of all five leaves is built
    assert set(tables) == {_tree(key) for key in ("x", "(xx)", "((xx)x)", "(((xx)x)x)")}


@st.composite
def position_tuples(draw, n):
    """A permutation of 1..n, or the leaf positions of one root subtree
    under it: a proper prefix or suffix."""
    perm = tuple(draw(st.permutations(range(1, n + 1))))
    cut = draw(st.integers(0, n - 1))
    if not cut:
        return perm
    return perm[:cut] if draw(st.booleans()) else perm[cut:]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_flat_indices_decode_the_basis_tuples(data):
    d = data.draw(st.integers(1, 8))
    n = data.draw(st.integers(1, 5))
    positions = data.draw(st.lists(position_tuples(n), min_size=1, max_size=6))
    idx = np.array(data.draw(st.lists(st.integers(0, d**n - 1), max_size=20)), dtype=np.int64)
    got = _digit_table(d, n)[idx] @ _index_weights(d, positions, n)
    assert got.shape == (len(idx), len(positions))
    for j, v in enumerate(idx.tolist()):
        digits = []
        for _ in range(n):
            v, r = divmod(v, d)
            digits.insert(0, r)
        for r, pos in enumerate(positions):
            want = 0
            for p in pos:
                want = want * d + digits[p - 1]
            assert got[j, r] == want


REGISTRY_ALGEBRAS = sorted({rec[k] for rec in load_claims()
                            for k in ("algebra", "left", "right", "source", "target")
                            if k in rec})


def _product_subtrees() -> dict:
    """key -> (left key, right key) of every product subtree of the shapes
    of degree 2 to 5, each after both of its children."""
    out = {}

    def walk(tree):
        if tree is None:
            return "x"
        lk, rk = walk(tree[0]), walk(tree[1])
        key = "(%s%s)" % (lk, rk)
        out.setdefault(key, (lk, rk))
        return key

    for n in range(2, 6):
        for s in shapes(n):
            walk(s.tree)
    return out


SUBTREES = _product_subtrees()


def _tree(key: str):
    """The value-table key of the subtree written key: its BracketShape.tree."""
    return BracketShape.parse(key).tree


def _reference_tables(tables) -> dict:
    """The table of every subtree in SUBTREES, rebuilt with products in
    the dtype its bound gives (int64 or object), never float64."""
    d = tables.cflat.shape[0]
    ref = {"x": np.eye(d, dtype=tables.cflat.dtype)}
    for key, (lk, rk) in SUBTREES.items():
        big = tables.cflat.dtype == object or tables.bound(key.count("x")) >= 2**62
        dtype = object if big else np.int64
        factors = (m.astype(dtype) for m in (ref[lk], ref[rk], tables.cflat))
        ref[key] = _product_table(*factors).reshape(-1, d)
    return ref


def _assert_tables_match_reference(a):
    tables = _shape_tables.__wrapped__(a)  # a fresh, uncached entry
    for key in SUBTREES:
        tables[_tree(key)]
    ref = {_tree(key): table for key, table in _reference_tables(tables).items()}
    assert set(tables) == set(ref)
    for key, table in tables.items():
        assert table.dtype == ref[key].dtype and table.flags.c_contiguous, key
        assert np.array_equal(table, ref[key]), key
    # the closed form scale^(k-1) is the recursion it replaced
    carr, den = a.int_constants()
    assert tables.den == den
    cmax = max(1, int(abs(carr).max()))
    old = {"x": 1}
    for key, (lk, rk) in SUBTREES.items():
        assert _tree(key) == (_tree(lk), _tree(rk)), key
        old[key] = a.dim * old[lk] * old[rk] * cmax
        assert tables.bound(key.count("x")) == old[key], key
    return tables


@pytest.mark.parametrize("name", REGISTRY_ALGEBRAS)
def test_value_tables_equal_integer_builds_on_the_registry_algebras(name):
    tables = _assert_tables_match_reference(_algebra(name))
    assert all(table.dtype == np.int64 for table in tables.values())


def test_value_tables_beyond_the_float64_bound_are_built_in_int64():
    # dense positive constants: the degree-5 bounds lie in [2^58, 2^59),
    # under the int64 limit, and the entries really pass 2^53, where
    # float64 would round
    rng = random.Random(7)
    dense = Algebra("dense", 3, [[[rng.randint(4001, 7999) for _ in range(3)]
                                  for _ in range(3)] for _ in range(3)])
    tables = _assert_tables_match_reference(dense)
    assert all(table.dtype == np.int64 for table in tables.values())
    bounds = {key: tables.bound(key.count("x")) for key in SUBTREES}
    beyond = [key for key in SUBTREES if bounds[key] >= 2**53]
    assert beyond and all(bounds[key] < 2**62 for key in beyond)
    assert any(int(abs(tables[_tree(key)]).max()) > 2**53 for key in beyond)
    assert any(bounds[key] < 2**53 for key in SUBTREES)  # both paths ran
    objects = tables.cflat.astype(object)
    obj = {"x": np.eye(3, dtype=object)}
    for key, (lk, rk) in SUBTREES.items():
        obj[key] = _product_table(obj[lk], obj[rk], objects).reshape(-1, 3)
        assert (tables[_tree(key)] == obj[key]).all(), key


def _exact_table(a, c):
    table, denom = evaluate_combination_table(a, c)
    return table.astype(object) * Fraction(1, denom)


def test_combination_plans_stay_out_of_equality_hash_and_pickle():
    a = catalog("W2")
    c = tail_fixed_alternating(4, 2)
    fresh = IdentityCombination(c.degree, c.coeffs, c.name)
    before = pickle.dumps(c), hash(c)
    assert first_violation(a, c) is not None
    _cocycle_rows(a, c)
    assert hasattr(c, "_plan")  # the plan is in place
    assert (pickle.dumps(c), hash(c)) == before
    assert c == fresh and fresh == c
    assert pickle.loads(pickle.dumps(c)) == c
    # the canonical degree-5 basis pickles the same before and after use
    e2 = catalog("E2")
    _dim, basis = identity_space(e2, 5)
    before = pickle.dumps(basis)
    assert all(first_violation(e2, b) is None for b in basis[:40])
    assert pickle.dumps(basis) == before


def test_scaled_plus_and_combinations_get_their_own_plans():
    a = catalog("W2")
    s1, s2 = named_identity("st3_1"), named_identity("st3_2")
    t1, t2 = _exact_table(a, s1), _exact_table(a, s2)  # plans compiled here
    assert t1.any() and t2.any()
    half = Fraction(3, 2)
    assert (_exact_table(a, s1.scaled(half)) == t1 * half).all()
    assert (_exact_table(a, s1.plus(s2)) == t1 + t2).all()
    combo = resolve_identity({"combo": [["2", "st3_1"], ["-3", "st3_2"]]})
    assert (_exact_table(a, combo) == 2 * t1 - 3 * t2).all()
    # the same coefficients in a new object: the same values
    assert (_exact_table(a, IdentityCombination(3, s1.coeffs)) == t1).all()


def _registry_identities():
    specs = {}
    for rec in load_claims():
        for spec in [rec.get("identity"), *rec.get("identities", ()),
                     rec.get("equals"), rec.get("combo") and {"combo": rec["combo"]}]:
            if spec:
                specs[repr(spec)] = spec
    return [resolve_identity(spec) for spec in specs.values()]


# Resolved once, so each combination's plan is compiled on the first
# algebra and read warm on every later one.
REGISTRY_IDENTITIES = _registry_identities()

# the algebras of the scopes the cocycles4 benchmark workload runs
COCYCLE_ALGEBRAS = sorted({rec[k] for rec in load_claims() if rec["scope"] != "shapes"
                           for k in ("algebra", "left", "right", "source", "target")
                           if k in rec})


@pytest.mark.parametrize("name", COCYCLE_ALGEBRAS)
def test_warm_plans_agree_with_fresh_combinations(name):
    a = _algebra(name)
    for c in REGISTRY_IDENTITIES:
        fresh = IdentityCombination(c.degree, c.coeffs)
        assert first_violation(a, c) == first_violation(a, fresh)
        idx = _tuple_indices(c, a.dim)[:512]
        assert np.array_equal(_tuple_indices(fresh, a.dim)[:512], idx)
        assert np.array_equal(_cocycle_rows(a, c)(idx), _cocycle_rows(a, fresh)(idx))


def test_answers_make_no_fraction_until_read(monkeypatch):
    """Identity bases and subspaces hold cleared integers: no Fraction is
    made until .coeffs, .terms() or .basis is read, and span questions
    (Subspace.contains, combination_in_span) make none. (Before they did,
    an E2 degree-5 basis alone made 11,297.) A cocycle space and a
    derivation kernel are spans too, read the same way; coborder spaces
    and spaces_equal, which still run linalg.RankSink, are left out."""
    e2, w2 = catalog("E2").renamed("fresh E2"), catalog("W2bar").renamed("fresh W2bar")
    st3 = st_identity(3, 1)
    made = []
    new = Fraction.__dict__["__new__"]

    def counting(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    dim, basis = identity_space(e2, 5)
    shape_dim, shape_basis = shape_identity_space(w2, 5, 14)
    line = Subspace(8, [[0, 0, 0, 0, 0, 1, -1, 0]])
    sub = restrict(w2, line)
    ideal = is_ideal(w2, Subspace.span_of_basis_indices(8, (2, 3, 4, 6, 7, 8)))
    z2, der = _cocycle_span(e2, st3), _derivation_span(w2)
    assert (dim, len(basis), sub.dim, ideal, z2.dim, der.dim) == (1674, 1674, 1, True, 4, 3)
    assert shape_dim == len(shape_basis) > 0
    assert line.contains([0, 0, 0, 0, 0, 3, -3, 0]) and not line.contains([0] * 5 + [1, 1, 0])
    assert combination_in_span(basis[0].plus(basis[1]), basis[:2])
    assert not combination_in_span(basis[5], basis[:5])
    assert made == []
    for read in (lambda: basis[0].coeffs, lambda: shape_basis[0].terms(), lambda: line.basis,
                 lambda: z2.basis, lambda: der.basis):
        read()
        assert made
        made.clear()
