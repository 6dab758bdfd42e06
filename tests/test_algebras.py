import random
from fractions import Fraction

import pytest

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
from nonassoc.linalg import Matrix


def _rand_vec(rng, n):
    return [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]


def test_basis_vector_is_one_based():
    a = catalog("D2")
    assert a.basis_vector(1) == [1, 0, 0]
    assert a.basis_vector(3) == [0, 0, 1]


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


def test_from_products_validation():
    with pytest.raises(ValueError):
        BilinearMap.from_products(2, {(3, 1): [1, 0]})
    with pytest.raises(ValueError):
        BilinearMap.from_products(2, {(1, 1): [1, 0, 0]})


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
