import random
import re
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonassoc.algebras import (
    Algebra,
    BilinearMap,
    Subspace,
    bracket,
    change_of_basis,
    derivation_algebra,
    is_derivation,
    is_ideal,
    is_subalgebra,
    left_mul_operator,
    multiply,
    restrict,
)
from nonassoc.catalog import catalog, catalog_names
from nonassoc.claims import _algebra, load_claims
from nonassoc.contraction import iw_contract
from nonassoc.linalg import Matrix, rref


def _rand_vec(rng, n):
    return [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]


def test_basis_vector_is_one_based():
    a = catalog("D2")
    assert a.basis_vector(1) == [1, 0, 0]
    assert a.basis_vector(3) == [0, 0, 1]


@pytest.mark.parametrize("index", [0, -1, 3, True, 1.0, 1.5, "1"])
def test_basis_vector_rejects_a_bad_index(index):
    # 0 and -1 once indexed from the end (e_2, e_1) and 3 raised IndexError
    with pytest.raises(ValueError, match=r"basis index %s is not an integer in 1\.\.2"
                       % re.escape(repr(index))):
        catalog("E2").basis_vector(index)


def test_basis_vector_accepts_numpy_integers():
    assert catalog("E2").basis_vector(np.int64(2)) == [0, 1]


def test_product_spot_checks_against_printed_rows():
    a = catalog("W2(big)")
    e = a.basis_vector

    def prod(i, j):
        return multiply(a, e(i), e(j))

    # a scattering of table cells, one from each nonzero row
    assert prod(1, 2) == [0, -3, 0, 0, 0, 0, 0, 0]
    assert prod(2, 3) == [2, 0, 0, 0, 0, 0, 0, 0]
    assert prod(3, 3) == [0, 0, 0, -3, 0, 0, 0, 0]
    assert prod(5, 5) == [0, 0, 0, 0, -2, 0, 0, 0]
    assert prod(6, 2) == [1, 0, 0, 0, 0, 0, 0, 0]
    assert prod(8, 4) == [0, 0, 0, -2, 0, 0, 0, 0]
    # fourth row is identically zero, and the seventh row repeats the sixth
    for j in range(1, 9):
        assert prod(4, j) == [0] * 8
        assert prod(7, j) == prod(6, j)


def test_multiply_is_bilinear():
    a = catalog("W2bar")
    rng = random.Random(11)
    for _ in range(10):
        x, y, z = (_rand_vec(rng, 8) for _ in range(3))
        lam = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        left = multiply(a, [xi + lam * yi for xi, yi in zip(x, y)], z)
        want = [
            u + lam * v for u, v in zip(multiply(a, x, z), multiply(a, y, z))
        ]
        assert left == want
        right = multiply(a, z, [xi + lam * yi for xi, yi in zip(x, y)])
        want = [
            u + lam * v for u, v in zip(multiply(a, z, x), multiply(a, z, y))
        ]
        assert right == want


def test_multiply_rejects_wrong_length():
    a = catalog("E2")
    with pytest.raises(ValueError):
        multiply(a, [1, 0, 0], [0, 1])


def test_left_mul_operator_columns_are_products():
    for key in ("W2(big)", "S2"):
        a = catalog(key)
        x = a.basis_vector(1)
        ell = left_mul_operator(a, x)
        for j in range(1, a.dim + 1):
            col = [ell[k, j - 1] for k in range(a.dim)]
            assert col == multiply(a, x, a.basis_vector(j))


@pytest.mark.parametrize("build", [
    lambda: left_mul_operator(catalog("E2"), [1, 2, 3]),
    lambda: Subspace(2, [[1, 0], [1, 2, 3]]),
    lambda: Subspace(2, [[1, 0]]).contains([1]),
])
def test_a_vector_of_the_wrong_length_is_refused_with_its_length(build):
    with pytest.raises(ValueError, match=r"vector length [13], expected 2"):
        build()


def test_left_mul_operator_is_linear_in_x():
    a = catalog("W2bar")
    rng = random.Random(3)
    x, y = _rand_vec(rng, 8), _rand_vec(rng, 8)
    combo = left_mul_operator(a, [u + 2 * v for u, v in zip(x, y)])
    lx, ly = left_mul_operator(a, x), left_mul_operator(a, y)
    for i in range(8):
        for j in range(8):
            assert combo[i, j] == lx[i, j] + 2 * ly[i, j]


def test_bracket_matches_pointwise_definition():
    b = catalog("W2bar").mult
    rng = random.Random(17)
    ent = [Fraction(rng.randint(-3, 3)) for _ in range(64)]
    amat = Matrix(8, 8, ent)
    out = bracket(amat, b)
    for _ in range(6):
        x, y = _rand_vec(rng, 8), _rand_vec(rng, 8)
        direct = [
            f - s - t
            for f, s, t in zip(
                amat.mul_vec(b.apply(x, y)),
                b.apply(amat.mul_vec(x), y),
                b.apply(x, amat.mul_vec(y)),
            )
        ]
        assert out.apply(x, y) == direct


def test_bracket_of_left_mul_with_mult():
    # [L_x, mult](u, v) = x(uv) - (xu)v - u(xv), spot checked numerically
    a = catalog("S2")
    x = a.basis_vector(2)
    out = bracket(left_mul_operator(a, x), a.mult)
    u, v = a.basis_vector(1), a.basis_vector(3)
    direct = [
        f - s - t
        for f, s, t in zip(
            multiply(a, x, multiply(a, u, v)),
            multiply(a, multiply(a, x, u), v),
            multiply(a, u, multiply(a, x, v)),
        )
    ]
    assert out.apply(u, v) == direct


def test_derivation_dimensions():
    dim_big, basis_big = derivation_algebra(catalog("W2(big)"))
    assert dim_big == 2 and len(basis_big) == 2
    dim_bar, basis_bar = derivation_algebra(catalog("W2bar"))
    assert dim_bar == 3 and len(basis_bar) == 3


def test_derivation_basis_satisfies_product_rule():
    a = catalog("W2bar")
    _, basis = derivation_algebra(a)
    for d in basis:
        assert is_derivation(a, d)


def test_identity_map_is_not_a_derivation():
    a = catalog("E2")
    assert not is_derivation(a, Matrix.identity(2))


def test_subspace_canonical_basis():
    s = Subspace(3, [[1, 1, 0], [0, 1, 1], [1, 2, 1]])
    assert s.dim == 2
    assert s.contains([1, 0, -1])
    assert not s.contains([0, 0, 1])
    # a different spanning set of the same plane compares equal
    t = Subspace(3, [[1, 0, -1], [0, 1, 1]])
    assert s == t
    assert hash(s) == hash(t)
    # spaces with the same pivots but other rows differ
    assert Subspace(3, [[1, 1, 0]]) != Subspace(3, [[1, 2, 0]])


_ENTRIES = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-2**70, 2**70),
                                                    st.integers(1, 2**66)))


@settings(max_examples=60, deadline=None)
@given(vectors=st.lists(st.lists(_ENTRIES, min_size=4, max_size=4), min_size=1, max_size=4),
       k=st.builds(Fraction, st.integers(1, 2**65), st.integers(1, 2**65)))
def test_subspaces_of_one_space_are_equal_and_based_by_the_oracle(vectors, k):
    s = Subspace(4, vectors)
    # another spanning set of the same space: reversed, scaled, plus a sum
    other = [[k * x for x in v] for v in reversed(vectors)] + [[sum(c) for c in zip(*vectors)]]
    t = Subspace(4, other)
    assert s == t and hash(s) == hash(t)
    assert s.basis == t.basis == rref(Matrix.from_rows(vectors))
    assert s.dim == s.basis.rank and gcd(s.den, *s.num.ravel().tolist()) == 1
    assert all(s.contains(v) for v in vectors)


def test_span_of_basis_indices():
    s = Subspace.span_of_basis_indices(5, (2, 4))
    assert s.dim == 2
    assert s.contains([0, 3, 0, -1, 0])
    assert not s.contains([1, 0, 0, 0, 0])


def test_ideal_of_w2bar():
    a = catalog("W2bar")
    s = Subspace.span_of_basis_indices(8, (2, 3, 4, 6, 7, 8))
    assert is_subalgebra(a, s)
    assert is_ideal(a, s)


def test_subalgebra_but_not_ideal():
    a = catalog("W2(big)")
    s = Subspace.span_of_basis_indices(8, (1, 2))
    assert is_subalgebra(a, s)
    assert not is_ideal(a, s)


def test_not_a_subalgebra():
    a = catalog("W2(big)")
    s = Subspace.span_of_basis_indices(8, (1, 2, 3))
    # the third basis vector squares to a multiple of the fourth
    assert not is_subalgebra(a, s)
    with pytest.raises(ValueError):
        restrict(a, s)


def test_restrict_matches_hand_computed_tables():
    w2 = catalog("W2(big)")
    e2 = restrict(w2, Subspace.span_of_basis_indices(8, (1, 2)))
    assert e2.dim == 2
    assert multiply(e2, [1, 0], [1, 0]) == [-1, 0]
    assert multiply(e2, [1, 0], [0, 1]) == [0, -3]
    assert multiply(e2, [0, 1], [1, 0]) == [0, 3]
    assert multiply(e2, [0, 1], [0, 1]) == [0, 0]

    d2 = restrict(w2, Subspace.span_of_basis_indices(8, (1, 3, 4)))
    assert d2.dim == 3
    # sub-basis order is e1, e3, e4
    assert multiply(d2, [1, 0, 0], [0, 1, 0]) == [0, 1, 0]
    assert multiply(d2, [0, 1, 0], [1, 0, 0]) == [0, -2, 0]
    assert multiply(d2, [0, 1, 0], [0, 1, 0]) == [0, 0, -3]
    assert multiply(d2, [1, 0, 0], [0, 0, 1]) == [0, 0, 3]


def test_restrict_handles_non_coordinate_spans():
    a = catalog("W2bar")
    # e_6 - e_7 spans a null subalgebra: (e6-e7)(e6-e7) = 0
    s = Subspace(8, [[0, 0, 0, 0, 0, 1, -1, 0]])
    sub = restrict(a, s)
    assert sub.dim == 1
    assert multiply(sub, [1], [1]) == [0]


def test_change_of_basis_identity_is_noop():
    a = catalog("D2")
    cols = [a.basis_vector(i) for i in range(1, 4)]
    assert change_of_basis(a, cols).mult == a.mult


def test_change_of_basis_round_trip():
    a = catalog("S2")
    cols = [
        [1, 0, 0, 0],
        [2, 1, 0, 0],
        [0, 0, 3, 0],
        [0, 1, 0, 1],
    ]
    inv = [
        [1, 0, 0, 0],
        [-2, 1, 0, 0],
        [0, 0, Fraction(1, 3), 0],
        [2, -1, 0, 1],
    ]
    b = change_of_basis(a, cols)
    back = change_of_basis(b, inv)
    assert back.mult == a.mult


def test_change_of_basis_scaling_rescales_constants():
    a = catalog("E2")
    b = change_of_basis(a, [[2, 0], [0, 1]])
    # f1 = 2 e1, so f1 f1 = 4 e1 e1 = -4 e1 = -2 f1
    assert multiply(b, [1, 0], [1, 0]) == [-2, 0]


def test_change_of_basis_preserves_derivation_dimension():
    a = catalog("D2")
    rng = random.Random(23)
    while True:
        cols = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        try:
            b = change_of_basis(a, cols)
            break
        except ValueError:
            continue
    assert derivation_algebra(b)[0] == derivation_algebra(a)[0]


def test_change_of_basis_rejects_dependent_columns():
    a = catalog("E2")
    with pytest.raises(ValueError):
        change_of_basis(a, [[1, 1], [2, 2]])


@pytest.mark.parametrize("columns", [[[1, 0], [1]], [[1, 0], [0, 1, 0]]])
def test_change_of_basis_rejects_vectors_of_the_wrong_length(columns):
    with pytest.raises(ValueError, match="basis vector f_2 has"):
        change_of_basis(catalog("E2"), columns)


def test_derivations_of_dimension_zero():
    assert derivation_algebra(Algebra("0", 0, [])) == (0, [])


def test_from_products_validation():
    with pytest.raises(ValueError):
        BilinearMap.from_products(2, {(3, 1): [1, 0]})
    with pytest.raises(ValueError):
        BilinearMap.from_products(2, {(1, 1): [1, 0, 0]})


@pytest.mark.parametrize("key", [(True, 1), (1, True), (1.0, 2), (2, 1.5), ("1", 1), (0, 1), (1, 3)])
def test_from_products_takes_basis_indices_by_the_one_rule(key):
    # an integer, not a bool, in 1..dim, as every other basis index
    with pytest.raises(ValueError, match="basis index .* is not an integer in 1..2"):
        BilinearMap.from_products(2, {key: [1, 0]})


def test_from_products_takes_numpy_integer_indices():
    i, j = np.int64(2), np.int32(1)
    assert BilinearMap.from_products(2, {(i, j): [0, 5]}) == BilinearMap.from_products(2, {(2, 1): [0, 5]})


def test_bilinear_map_zero_and_equality():
    z = BilinearMap.zero(3)
    assert z.is_zero()
    assert z.apply([1, 2, 3], [4, 5, 6]) == [0, 0, 0]
    w = BilinearMap.from_products(3, {(1, 1): [0, 1, 0]})
    assert not w.is_zero()
    assert w != z
    assert w == BilinearMap.from_products(3, {(1, 1): [0, 1, 0]})


def test_int_constants_integral_tables():
    a = catalog("W2(big)")
    arr, den = a.int_constants()
    assert den == 1
    for i in range(8):
        for j in range(8):
            for k in range(8):
                assert arr[i][j][k] == a.c[i][j][k]


def test_int_constants_clears_denominators():
    a = catalog("Sab_bar(1/2,-2/3)")
    arr, den = a.int_constants()
    assert den == 6
    for i in range(8):
        for j in range(8):
            for k in range(8):
                assert Fraction(int(arr[i][j][k]), den) == a.c[i][j][k]


@pytest.mark.parametrize("name", sorted({
    rec[k] for rec in load_claims() for k in ("algebra", "left", "right", "source", "target")
    if k in rec} | {k for k in catalog_names() if "α" not in k}))
def test_int_constants_match_fraction_products(name):
    a = _algebra(name)
    arr, den = a.int_constants()
    assert [[[int(x * den) for x in r] for r in p] for p in a.c] == arr.tolist()


def test_algebra_equality_ignores_name():
    a = catalog("E2")
    b = a.renamed("other")
    assert b.name == "other"
    assert a == b
    assert hash(a) == hash(b)


def test_algebra_structure_array_must_be_cubic():
    with pytest.raises(ValueError):
        Algebra("bad", 2, [[[1, 0], [0, 0]]])


def test_hashing_an_algebra_does_not_rehash_its_constants(monkeypatch):
    a = catalog("W2(big)")
    b = Algebra("copy", a.dim, [[list(row) for row in plane] for plane in a.c])
    assert a == b and hash(a) == hash(b) and hash(a.mult) == hash(b.mult)
    hashed = []
    fraction_hash = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda x: hashed.append(x) or fraction_hash(x))
    hash(a)
    hash(b.mult)
    assert hashed == []


def _assert_canonical(m: BilinearMap):
    """m holds what the checked constructor would: tuples of Fractions,
    equal to, and hashed like, a checked rebuild."""
    assert type(m.c) is tuple
    assert all(type(p) is tuple and all(type(r) is tuple for r in p) for p in m.c)
    assert all(type(x) is Fraction for p in m.c for r in p for x in r)
    checked = BilinearMap(m.dim, m.c)
    assert m == checked and hash(m) == hash(checked)


def test_package_results_match_the_checked_constructor():
    from nonassoc.claims import _algebra
    from nonassoc.conservative import conservative_solve, terminal_witness
    from nonassoc.contraction import iw_contract

    a = catalog("W2bar")
    cols = [[Fraction(int(i == j) + int(j == i + 1), 1 + (i == 0)) for i in range(8)]
            for j in range(8)]
    _assert_canonical(change_of_basis(a, cols).mult)
    _assert_canonical(change_of_basis(a, [[int(i == j) for i in range(8)] for j in range(8)]).mult)
    _assert_canonical(restrict(a, Subspace(8, [[0, 0, 0, 0, 0, 1, -1, 0]])).mult)
    _assert_canonical(bracket(left_mul_operator(a, a.basis_vector(2)), a.mult))
    _assert_canonical(conservative_solve(_algebra("S1_sub")).F)
    _assert_canonical(iw_contract(a, [5]).mult)
    _assert_canonical(terminal_witness(catalog("S2")))


@pytest.mark.parametrize("index", [0, -1, 4, True, 1.0, "1"])
def test_span_of_basis_indices_rejects_a_bad_index(index):
    # 0 and -1 once indexed from the end (e_3, e_2) and 4 raised IndexError
    with pytest.raises(ValueError, match=r"basis index %s is not an integer in 1\.\.3"
                       % re.escape(repr(index))):
        Subspace.span_of_basis_indices(3, [2, index])


def test_span_of_basis_indices_accepts_numpy_integers():
    s = Subspace.span_of_basis_indices(3, np.array([3, 1]))
    assert s == Subspace(3, [[1, 0, 0], [0, 0, 1]])


# -- the integer form, checked against Fractions ------------------------------


def _oracle_int_constants(c, d):
    """The lcm clearing of the nested Fractions, as int_constants did it
    before the constants were stored as integers (its dimension-0 array was
    1-d; it is reshaped here)."""
    den = 1
    for p in c:
        for r in p:
            for x in r:
                den = lcm(den, x.denominator)
    ints = [[[x.numerator * (den // x.denominator) for x in r] for r in p] for p in c]
    big = max((abs(v) for p in ints for r in p for v in r), default=0)
    dtype = np.int64 if big < 2**31 else object
    return np.array(ints, dtype=dtype).reshape((d,) * 3), den


def _random_table(rng, d, wide):
    def entry():
        if rng.random() < 0.4:
            return Fraction(0)
        bound = 2**40 if wide and rng.random() < 0.3 else 9
        return Fraction(rng.randint(-bound, bound), rng.choice((1, 1, 2, 3, 4, 7)))

    return [[[entry() for _ in range(d)] for _ in range(d)] for _ in range(d)]


def _as_tuples(c):
    return tuple(tuple(tuple(r) for r in p) for p in c)


RANDOM_TABLES = [(d, wide, seed) for d in range(5) for wide in (False, True) for seed in range(3)]
# cleared entries on both sides of the int64 rule's 2^31
EDGE_TABLES = [
    [[[Fraction(2**31 - 1)]]],
    [[[Fraction(2**31)]]],
    [[[Fraction(-2**31)]]],
    [[[Fraction(2**31 - 1, 2), Fraction(1, 3)], [0, 0]], [[0, 0], [0, 0]]],
    [[[Fraction(2**62, 5), 0], [0, Fraction(-1, 2**40)]], [[0, 0], [0, 0]]],
]


def _tables():
    for d, wide, seed in RANDOM_TABLES:
        yield "d%d-%s-%d" % (d, "wide" if wide else "small", seed), (
            _random_table(random.Random(1000 * d + 10 * wide + seed), d, wide))
    for k, c in enumerate(EDGE_TABLES):
        yield "edge%d" % k, [[[Fraction(x) for x in r] for r in p] for p in c]


TABLES = dict(_tables())


@pytest.mark.parametrize("key", sorted(TABLES))
def test_integer_form_matches_the_fraction_oracle(key):
    c = TABLES[key]
    d = len(c)
    m = BilinearMap(d, c)
    assert m.c == _as_tuples(c)
    arr, den = Algebra("t", d, m).int_constants()
    want, want_den = _oracle_int_constants(c, d)
    assert den == want_den and arr.dtype == want.dtype and arr.shape == (d,) * 3
    assert arr.tolist() == want.tolist()
    assert not arr.flags.writeable
    products = {(i + 1, j + 1): c[i][j] for i in range(d) for j in range(d) if any(c[i][j])}
    built = [
        BilinearMap.from_products(d, products),
        BilinearMap._from_cleared(want.astype(object) * 6, want_den * 6),
        BilinearMap._from_cleared(want, want_den),
    ]
    for other in built:
        assert other == m and hash(other) == hash(m)
        assert other.den == den and other.ints.dtype == arr.dtype
        assert other.c == m.c
    assert (m == BilinearMap.zero(d)) == m.is_zero()


def _oracle_inverse(columns):
    n = len(columns)
    aug = Matrix.from_rows(
        [[Fraction(col[i]) for col in columns] + [int(k == i) for k in range(n)] for i in range(n)])
    basis = rref(aug)
    if basis.pivot_cols[:n] != tuple(range(n)) or basis.rank != n:
        return None
    return Matrix.from_rows([row[n:] for row in basis.rows])


def _random_basis(rng, n, wide):
    while True:
        bound = 2**33 if wide else 3
        cols = [[Fraction(rng.randint(-bound, bound), rng.choice((1, 2, 5)))
                 for _ in range(n)] for _ in range(n)]
        inv = _oracle_inverse(cols)
        if inv is not None:
            return cols, inv


@pytest.mark.parametrize("key", sorted(k for k in TABLES if not k.startswith("d0")))
def test_change_of_basis_matches_the_fraction_oracle(key):
    c = TABLES[key]
    n = len(c)
    a = Algebra("t", n, c)
    rng = random.Random(key)
    cols, inv = _random_basis(rng, n, "wide" in key)
    b = change_of_basis(a, cols)
    want = [[inv.mul_vec(multiply(a, cols[i], cols[j])) for j in range(n)] for i in range(n)]
    assert b.c == _as_tuples(want)
    assert b.mult == BilinearMap(n, want)
    back = change_of_basis(b, [[inv[i, j] for i in range(n)] for j in range(n)])
    assert back == a and back.int_constants()[0].dtype == a.int_constants()[0].dtype
    # the last column is twice the first: t is singular
    dependent = cols[:-1] + [[2 * x for x in cols[0]]] if n > 1 else [[0]]
    with pytest.raises(ValueError, match="linearly dependent"):
        change_of_basis(a, dependent)


def _oracle_restrict(a, s):
    vecs = [list(r) for r in s.basis.rows]
    out = []
    for u in vecs:
        out.append([])
        for v in vecs:
            prod = multiply(a, u, v)
            assert s.contains(prod)
            out[-1].append([prod[p] for p in s.basis.pivot_cols])
    return out


@pytest.mark.parametrize("parent, indices", [
    ("W2(big)", (1, 2)), ("W2(big)", (1, 3, 4, 5, 6)), ("W2bar", (2, 3, 4, 6, 7, 8)),
    ("Sab_bar(1/2,-2/3)", (1, 2, 3, 4, 5, 6, 7)),
])
def test_restrict_matches_the_fraction_oracle_in_a_moved_basis(parent, indices):
    # b is the parent in a random rational basis; span(e_i) becomes a
    # subalgebra of b with a rational, non-coordinate canonical basis
    a = catalog(parent)
    cols, inv = _random_basis(random.Random(parent), a.dim, False)
    b = change_of_basis(a, cols)
    s = Subspace(a.dim, [[inv[j, i - 1] for j in range(a.dim)] for i in indices])
    assert any(x.denominator > 1 for r in s.basis.rows for x in r)
    sub = restrict(b, s)
    assert sub.c == _as_tuples(_oracle_restrict(b, s))
    outside = Subspace(a.dim, list(s.basis.rows)[:-1] + [[1] * a.dim])
    assert not is_subalgebra(b, outside)
    with pytest.raises(ValueError, match="not a subalgebra"):
        restrict(b, outside)


@pytest.mark.parametrize("key", sorted(TABLES))
def test_terminal_witness_matches_the_fraction_oracle(key):
    from nonassoc.conservative import terminal_witness

    c = TABLES[key]
    d = len(c)
    want = [[[(2 * c[i][j][k] + c[j][i][k]) / 3 for k in range(d)] for j in range(d)]
            for i in range(d)]
    got = terminal_witness(Algebra("t", d, c))
    assert got.c == _as_tuples(want)
    assert got.ints.tolist() == _oracle_int_constants(want, d)[0].tolist()


def _tiny_square():
    # e1 e1 = 2^-70 e2: the cleared table is int64 over den 2^70
    return Algebra("tiny", 2, [[[0, Fraction(1, 2**70)], [0, 0]], [[0, 0], [0, 0]]])


@pytest.mark.parametrize("build", [
    lambda: iw_contract(_tiny_square(), [1]),
    lambda: change_of_basis(Algebra("z", 2, [[[0, 0]] * 2] * 2),
                            [[Fraction(1, 2**70), 0], [0, 1]]),
    lambda: restrict(Algebra("z", 2, [[[0, 0]] * 2] * 2),
                     Subspace(2, [[1, Fraction(1, 2**70)]])),
], ids=["iw_contract", "change_of_basis", "restrict"])
def test_a_zero_table_over_a_denominator_from_2_63_is_the_zero_algebra(build):
    a = build()
    assert _tiny_square().int_constants()[1] == 2**70
    assert a.mult == BilinearMap.zero(a.dim)
    carr, den = a.int_constants()
    assert den == 1 and carr.dtype == np.int64 and not carr.any()
