"""The operator calculus of algebras.py against a Fraction reference.

left_mul_operator, bracket, is_derivation, is_subalgebra, is_ideal and
derivation_algebra work on the cleared integer table. The reference below
is the entry-by-entry algorithm, built only on multiply (the pointwise
Fraction evaluator), Matrix.mul_vec, Subspace.contains and linalg's
row-at-a-time nullspace.
"""

import itertools
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
)
from nonassoc.catalog import catalog
from nonassoc.linalg import Matrix, nullspace, solve_particular

# -- the reference ---------------------------------------------------------


def _unit(n, i):
    return [Fraction(int(k == i)) for k in range(n)]


def ref_left_mul_operator(a, x):
    n = a.dim
    cols = [multiply(a, x, _unit(n, j)) for j in range(n)]
    return Matrix(n, n, [cols[j][k] for k in range(n) for j in range(n)])


def ref_bracket(amat, b):
    n = b.dim
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            ei, ej = _unit(n, i), _unit(n, j)
            first = amat.mul_vec(b.apply(ei, ej))
            second = b.apply(amat.mul_vec(ei), ej)
            third = b.apply(ei, amat.mul_vec(ej))
            out[i][j] = [f - s - t for f, s, t in zip(first, second, third)]
    return BilinearMap(n, out)


def ref_failing_pairs(a, d):
    """The basis pairs (i, j), 0-based, where D breaks the product rule."""
    n = a.dim
    bad = []
    for i in range(n):
        for j in range(n):
            ei, ej = _unit(n, i), _unit(n, j)
            lhs = d.mul_vec(multiply(a, ei, ej))
            rhs = [u + v for u, v in zip(multiply(a, d.mul_vec(ei), ej),
                                         multiply(a, ei, d.mul_vec(ej)))]
            if lhs != rhs:
                bad.append((i, j))
    return bad


def ref_is_subalgebra(a, s):
    vecs = [list(r) for r in s.basis.rows]
    return all(s.contains(multiply(a, u, v)) for u in vecs for v in vecs)


def ref_is_ideal(a, s):
    vecs = [list(r) for r in s.basis.rows]
    return all(s.contains(multiply(a, e, v)) and s.contains(multiply(a, v, e))
               for e in (_unit(a.dim, i) for i in range(a.dim)) for v in vecs)


def ref_derivation_algebra(a):
    """One equation per (i, j, k) in the unknowns D[p][q], column p n + q."""
    n = a.dim
    if n == 0:
        return 0, []
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = [Fraction(0)] * (n * n)
                for q in range(n):
                    row[k * n + q] += a.c[i][j][q]
                for p in range(n):
                    row[p * n + i] -= a.c[p][j][k]
                    row[p * n + j] -= a.c[i][p][k]
                rows.append(row)
    null = nullspace(Matrix.from_rows(rows))
    return null.rank, [Matrix(n, n, list(r)) for r in null.rows]


def _check_all(a, s=None, mats=(), vecs=()):
    for x in vecs:
        assert left_mul_operator(a, x) == ref_left_mul_operator(a, x)
    for d in mats:
        assert bracket(d, a.mult) == ref_bracket(d, a.mult)
        assert is_derivation(a, d) == (not ref_failing_pairs(a, d))
    if s is not None:
        assert is_subalgebra(a, s) == ref_is_subalgebra(a, s)
        assert is_ideal(a, s) == ref_is_ideal(a, s)


# -- inputs ----------------------------------------------------------------

SMALL = ("E2", "D2", "S2")  # the catalog algebras of dimension at most 4
LARGE = ("W2(big)", "W2bar", "S1bar", "W2tilde", "Sab_bar(1/2,-2/3)")


def _rand_vec(rng, n, big=False):
    bound = 2**70 if big else 4
    return [Fraction(rng.randint(-bound, bound), rng.choice((1, 2, 3))) for _ in range(n)]


def _rand_matrix(rng, n, big=False):
    return Matrix(n, n, _rand_vec(rng, n * n, big))


def _random_algebra(rng, n):
    def entry():
        return Fraction(0) if rng.random() < 0.4 else Fraction(rng.randint(-6, 6),
                                                                 rng.choice((1, 2, 5)))

    return Algebra("r%d" % n, n, [[[entry() for _ in range(n)] for _ in range(n)]
                                  for _ in range(n)])


def _scaled(a, lam=Fraction(2**80 + 1, 2**70)):
    """a with every product multiplied by lam: the same derivations, ideals
    and subalgebras, numerators above 2^63 over den 2^70."""
    return Algebra(a.name + "*", a.dim, [[[lam * x for x in r] for r in p] for p in a.c])


def _coordinate_subspaces(n):
    for r in range(n + 1):
        for idx in itertools.combinations(range(1, n + 1), r):
            yield idx, Subspace.span_of_basis_indices(n, idx)


def _closure(a, idx):
    """The smallest index set containing idx whose coordinate span holds
    the support of every product of two of its basis vectors."""
    idx = set(idx)
    while True:
        more = {k + 1 for i in idx for j in idx
                for k, x in enumerate(multiply(a, a.basis_vector(i), a.basis_vector(j))) if x}
        if more <= idx:
            return sorted(idx)
        idx |= more


# -- subspaces -------------------------------------------------------------


@pytest.mark.parametrize("name", SMALL)
def test_subspace_predicates_on_every_coordinate_subspace(name):
    a = catalog(name)
    verdicts = set()
    for _idx, s in _coordinate_subspaces(a.dim):
        got = (is_subalgebra(a, s), is_ideal(a, s))
        assert got == (ref_is_subalgebra(a, s), ref_is_ideal(a, s))
        verdicts.add(got)
    # some subalgebra is not an ideal, and the zero subspace is an ideal
    assert {(True, False), (True, True)} <= verdicts


@pytest.mark.parametrize("name", LARGE)
def test_subspace_predicates_on_a_sample_of_dimension_8(name):
    a = catalog(name)
    rng = random.Random(name)
    subs = [Subspace.span_of_basis_indices(8, rng.sample(range(1, 9), rng.randint(1, 7)))
            for _ in range(4)]
    subs += [Subspace.span_of_basis_indices(8, _closure(a, rng.sample(range(1, 9), k)))
             for k in (1, 1, 2)]
    subs += [Subspace(8, [_rand_vec(rng, 8) for _ in range(k)]) for k in (1, 3)]
    subs += [Subspace(8, []), Subspace(8, [_unit(8, i) for i in range(8)])]
    assert any(ref_is_subalgebra(a, s) and s.dim < 8 for s in subs)
    for s in subs:
        _check_all(a, s)


@pytest.mark.parametrize("name", SMALL)
def test_subspace_predicates_at_numerators_above_2_63(name):
    a = _scaled(catalog(name))
    assert a.int_constants()[0].dtype == object and a.int_constants()[1] == 2**70
    assert max(abs(x) for x in a.int_constants()[0].ravel().tolist()) > 2**63
    for _idx, s in _coordinate_subspaces(a.dim):
        _check_all(a, s)


@pytest.mark.parametrize("name", SMALL)
@pytest.mark.parametrize("scale", [1, Fraction(1, 2**70)], ids=["1", "2^-70"])
def test_subspace_predicates_in_a_moved_basis(name, scale):
    # b is the algebra in a random rational basis f whose first vector is
    # scaled: the coordinate subspaces of a become subspaces of b with a
    # rational, non-coordinate canonical basis and the same verdicts
    a = catalog(name)
    n, rng = a.dim, random.Random(name)
    while True:
        cols = [_rand_vec(rng, n) for _ in range(n)]
        cols[0] = [scale * x for x in cols[0]]
        t = Matrix.from_rows([[col[i] for col in cols] for i in range(n)])
        if nullspace(t).rank == 0:
            break
    b = change_of_basis(a, cols)
    # images[i] holds the coordinates of e_i in the basis f
    images = [solve_particular(t, _unit(n, i)) for i in range(n)]
    dens = set()
    for idx, s in _coordinate_subspaces(n):
        moved = Subspace(n, [images[i - 1] for i in idx])
        dens.update(x.denominator for r in moved.basis.rows for x in r)
        assert is_subalgebra(b, moved) == is_subalgebra(a, s)
        assert is_ideal(b, moved) == is_ideal(a, s)
        _check_all(b, moved)
    assert max(dens) > (1 if scale == 1 else 2**60)


# -- left multiplication and the bracket -----------------------------------


@pytest.mark.parametrize("name", SMALL + LARGE)
def test_left_mul_operator_and_bracket_on_random_input(name):
    a = catalog(name)
    rng = random.Random(name)
    vecs = [_rand_vec(rng, a.dim) for _ in range(2)] + [_unit(a.dim, a.dim - 1)]
    mats = [_rand_matrix(rng, a.dim), left_mul_operator(a, vecs[0])]
    _check_all(a, mats=mats, vecs=vecs)


@pytest.mark.parametrize("seed", range(6))
def test_left_mul_operator_and_bracket_on_random_tables(seed):
    rng = random.Random(seed)
    for n in range(1, 5):
        a = _random_algebra(rng, n)
        _check_all(a, mats=[_rand_matrix(rng, n)], vecs=[_rand_vec(rng, n)])
        b = _scaled(a)
        _check_all(b, mats=[_rand_matrix(rng, n, big=True)], vecs=[_rand_vec(rng, n, big=True)])


def test_bracket_is_exact_beyond_int64():
    # the constants and A are int64 arrays and each product of a constant
    # by an entry of A is C M < 2^61, but the nine such products in the e_3
    # component at (e_1, e_2) add up to 9 C M, above 2^63
    n, cmax = 3, 2**31 - 1
    m = (2**62 - 1) // (3 * cmax)
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    c[0][1] = [cmax, cmax, cmax]
    c[2][1][2] = c[0][2][2] = c[1][1][2] = c[0][0][2] = -cmax
    amat = Matrix.from_rows([[-m, m, 0], [m, -m, 0], [m, m, m]])
    b = BilinearMap(n, c)
    assert b.ints.dtype.kind == "i"
    got = bracket(amat, b)
    assert got == ref_bracket(amat, b)
    assert got.den == 1 and got.c[0][1][2] == 9 * cmax * m > 2**63


# -- derivations -----------------------------------------------------------


@pytest.mark.parametrize("name", SMALL + ("W2bar",))
def test_derivation_algebra_matches_the_fraction_nullspace(name):
    a = catalog(name)
    want = ref_derivation_algebra(a)
    assert derivation_algebra(a) == want
    rng = random.Random(name)
    combo = [sum(rng.randint(-3, 3) * d[k, l] for d in want[1])
             for k in range(a.dim) for l in range(a.dim)]
    _check_all(a, mats=want[1] + [Matrix(a.dim, a.dim, combo), _rand_matrix(rng, a.dim)])
    assert all(is_derivation(a, d) for d in want[1])


@pytest.mark.parametrize("name", SMALL)
def test_derivation_algebra_at_numerators_above_2_63(name):
    a = catalog(name)
    big = _scaled(a)
    want = derivation_algebra(a)
    assert derivation_algebra(big) == want == ref_derivation_algebra(big)
    _check_all(big, mats=want[1])


@pytest.mark.parametrize("seed", range(4))
def test_derivation_algebra_of_random_tables(seed):
    rng = random.Random(seed)
    for n in range(1, 4):
        a = _random_algebra(rng, n)
        assert derivation_algebra(a) == ref_derivation_algebra(a)


def _graded(lams, rng):
    """An algebra with e_i e_j a multiple of e_k only when lam_k = lam_i +
    lam_j, so that diag(lam) is a derivation."""
    n = len(lams)
    c = [[[Fraction(rng.randint(1, 9), rng.randint(1, 4)) if lams[k] == lams[i] + lams[j] else 0
           for k in range(n)] for j in range(n)] for i in range(n)]
    return c, Matrix(n, n, [Fraction(lams[i]) if i == j else 0 for i in range(n) for j in range(n)])


def test_a_derivation_broken_at_exactly_one_basis_pair():
    rng = random.Random(5)
    lams = (1, 2, 3, 5)
    c, d = _graded(lams, rng)
    assert is_derivation(Algebra("g", 4, c), d)
    for i, j in itertools.product(range(4), repeat=2):
        k = next(k for k in range(4) if lams[k] != lams[i] + lams[j])
        broken = [[list(r) for r in p] for p in c]
        broken[i][j][k] += 1
        a = Algebra("g'", 4, broken)
        assert ref_failing_pairs(a, d) == [(i, j)]
        assert not is_derivation(a, d)
        _check_all(a, mats=[d])


def test_a_matrix_unit_broken_at_one_pair():
    # on a table whose only nonzero product is e_i e_j = (3/7) e_k with
    # i, j != k, the matrix unit E_kk breaks the product rule on (i, j) alone
    for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 2, 0)):
        c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        c[i][j][k] = Fraction(3, 7)
        a = Algebra("one", 3, c)
        e = Matrix(3, 3, [int(r == k and s == k) for r in range(3) for s in range(3)])
        assert ref_failing_pairs(a, e) == [(i, j)]
        assert not is_derivation(a, e)
        _check_all(a, mats=[e])


# -- dimension 0 -----------------------------------------------------------


def test_dimension_0():
    a = Algebra("0", 0, [])
    empty = Matrix(0, 0, [])
    assert left_mul_operator(a, []) == empty == ref_left_mul_operator(a, [])
    assert bracket(empty, a.mult) == BilinearMap.zero(0) == ref_bracket(empty, a.mult)
    assert is_derivation(a, empty)
    s = Subspace(0, [])
    assert is_subalgebra(a, s) and is_ideal(a, s)
    assert derivation_algebra(a) == (0, []) == ref_derivation_algebra(a)


@pytest.mark.parametrize("name", SMALL + ("W2(big)",))
def test_the_zero_subspace_is_an_ideal(name):
    a = catalog(name)
    zero = Subspace(a.dim, [])
    assert is_subalgebra(a, zero) and is_ideal(a, zero)
    assert ref_is_subalgebra(a, zero) and ref_is_ideal(a, zero)
