import importlib
import tracemalloc
from fractions import Fraction
from itertools import permutations
from math import factorial, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_identities import alternating_combinations

from nonassoc.algebras import Algebra, multiply
from nonassoc.catalog import catalog, sab_bar
from nonassoc.claims import _algebra, load_claims, resolve_identity
from nonassoc.cohomology import (
    CohomologyReport,
    coborder_space,
    cocycle_space,
    cohomology,
    extension_algebra,
    terminal_cocycle_space,
    terminal_cohomology,
)
from nonassoc.conservative import is_terminal, terminal_identity
from nonassoc.fastrank import certified_nullspace
from nonassoc.fastrank import certified_rank
from nonassoc.identities import (
    _CHUNK_BYTES,
    _checked_cocycle_rows,
    _cocycle_rows,
    _digit_table,
    _shape_tables,
    _tuple_blocks,
    _tuple_indices,
    first_violation,
    satisfies_identity,
)
from nonassoc.linalg import Matrix, RankSink
from nonassoc.monomials import IdentityCombination, monomial_count, shapes, st_identity

# the module, not the function of the same name the package exports
cohomology_module = importlib.import_module("nonassoc.cohomology")


def _combo_2_3():
    return st_identity(3, 1).scaled(2).plus(st_identity(3, 2).scaled(3))


def _non_cocycle_form(a, basis_mats):
    """First elementary matrix outside the span of the given forms, if any."""
    d = a.dim
    sink = RankSink(d * d)
    for m in basis_mats:
        sink.feed(m.entries)
    for p in range(d):
        for q in range(d):
            flat = [Fraction(0)] * (d * d)
            flat[p * d + q] = Fraction(1)
            if sink.feed(flat):
                return Matrix(d, d, flat)
    return None


def test_coborder_space_of_the_two_dim_algebra():
    a = catalog("E2")
    dim, mats = coborder_space(a)
    assert dim == 2
    # a coborder is theta(x, y) = f(xy), so it vanishes wherever the
    # product does; e2 e2 = 0 in this algebra
    for m in mats:
        assert m[1, 1] == 0


@pytest.mark.parametrize("name", ["W2(big)", "W2bar", "S2", "E2", "Sab_bar(1/2,-2/3)"])
def test_coborder_space_is_the_fraction_rref_of_the_component_forms(name):
    a = catalog(name)
    d = a.dim
    sink = RankSink(d * d)
    for k in range(d):
        sink.feed([a.c[i][j][k] for i in range(d) for j in range(d)])
    dim, mats = coborder_space(a)
    assert dim == sink.rank()
    assert [tuple(m.entries) for m in mats] == sink.basis().rows


def test_coborder_space_of_zero_algebra():
    z = Algebra("z", 2, [[[0, 0]] * 2] * 2)
    assert coborder_space(z)[0] == 0


def test_cocycle_space_requires_satisfying_base():
    with pytest.raises(ValueError) as exc:
        cocycle_space(catalog("W2(big)"), st_identity(3, 1))
    assert str(exc.value).startswith("base does not satisfy P")


def test_cocycle_dimensions_spot_values():
    assert cocycle_space(catalog("D2"), st_identity(3, 1))[0] == 8
    assert cocycle_space(catalog("E2"), st_identity(3, 1))[0] == 4
    assert cocycle_space(catalog("S2"), st_identity(5, 1))[0] == 16


def all_tuple_cocycles(a, p):
    """Z2 of p from the certified nullspace of its rows at all d^n tuples."""
    d, n = a.dim, p.degree
    rows = _cocycle_rows(a, p)(np.arange(d**n))
    _rank, null = certified_nullspace(d * d, lambda: [rows])
    return null.rank, [Matrix(d, d, row) for row in null.rows]


# All d^n rows of a degree-5 system on dimension 8 take seconds per
# example, so the drawn cases stop at 8^4 tuples and S1bar's st5_2, the
# widest system in the registry, is checked once on its own.
@settings(max_examples=25, deadline=None)
@given(case=alternating_combinations(satisfied=True, max_tuples=8**4))
def test_cocycles_of_alternating_combinations_match_rows_at_all_tuples(case):
    name, p = case
    a = catalog(name)
    assert cocycle_space(a, p) == all_tuple_cocycles(a, p)


def test_st5_cocycles_of_the_widest_system_match_rows_at_all_tuples():
    a = catalog("S1bar")
    p = st_identity(5, 2)
    assert cocycle_space(a, p) == all_tuple_cocycles(a, p)


@pytest.mark.parametrize("compute, variant", [(first_violation, 1), (cocycle_space, 2)])
def test_degree_five_on_dim_eight_stays_small_from_cold_caches(compute, variant):
    # 56 increasing tuples are read of 32,768; index maps for all of them
    # (120 permutations) alone would take 30 MB
    a = catalog("S1bar")
    _shape_tables.cache_clear()
    _digit_table.cache_clear()
    tracemalloc.start()
    try:
        compute(a, st_identity(5, variant))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_cocycle_rows_with_weights_beyond_int64_are_exact():
    a = catalog("D2")
    p = st_identity(3, 1)
    idx = np.arange(a.dim**3)
    rows = _cocycle_rows(a, p)(idx)
    big_rows = _cocycle_rows(a, p.scaled(3**40))(idx)
    assert big_rows.dtype == object and rows.any()
    assert (big_rows == rows.astype(object) * 3**40).all()


def test_checked_cocycle_blocks_are_the_nonzero_rows_in_order():
    # S1bar is terminal; its terminal rows at the first 512 tuples are
    # mostly zero. The object path (weights times 3^40) drops the same rows
    a = catalog("S1bar")
    p = terminal_identity()
    idx = np.arange(512)
    full = _cocycle_rows(a, p)(idx)
    want = full[full.any(axis=1)]
    assert 0 < len(want) < len(full)
    got = _checked_cocycle_rows(a, p)(idx)
    assert got.dtype == np.int64 and got.tolist() == want.tolist()
    big = _checked_cocycle_rows(a, p.scaled(3**40))(idx)
    assert big.dtype == object and big.tolist() == (want.astype(object) * 3**40).tolist()


@pytest.mark.parametrize("name", ["E2", "S2"])
@pytest.mark.parametrize("variant", [1, 2])
def test_below_degree_five_every_form_is_an_st5_cocycle(name, variant):
    a = catalog(name)
    d = a.dim
    p = st_identity(5, variant)
    assert first_violation(a, p) is None
    units = [Matrix(d, d, [Fraction(int(i == j)) for j in range(d * d)]) for i in range(d * d)]
    assert cocycle_space(a, p) == (d * d, units)


def test_extensions_by_cocycles_satisfy_the_identity():
    cases = [
        (catalog("D2"), st_identity(3, 1)),
        (catalog("E2"), st_identity(3, 2)),
        (catalog("W2tildetilde"), st_identity(3, 1)),
        (sab_bar(0, -3), _combo_2_3()),
    ]
    for a, p in cases:
        dim, mats = cocycle_space(a, p)
        assert len(mats) == dim
        for theta in mats:
            ext = extension_algebra(a, theta)
            assert satisfies_identity(ext, p), (a.name, p.name)


def test_extensions_by_non_cocycles_violate_the_identity():
    for a, p in [
        (catalog("D2"), st_identity(3, 1)),
        (sab_bar(0, -3), _combo_2_3()),
    ]:
        _, mats = cocycle_space(a, p)
        bad = _non_cocycle_form(a, mats)
        assert bad is not None
        ext = extension_algebra(a, bad)
        assert not satisfies_identity(ext, p), (a.name, p.name)


def test_extension_oracle_at_degree_four():
    for key in ("D2", "E2"):
        a = catalog(key)
        p = st_identity(4, 1)
        dim, mats = cocycle_space(a, p)
        for theta in mats:
            assert satisfies_identity(extension_algebra(a, theta), p)
        bad = _non_cocycle_form(a, mats)
        if bad is not None:
            assert not satisfies_identity(extension_algebra(a, bad), p)


def test_cohomology_report_on_special_pair():
    rep = cohomology(sab_bar(0, -3), _combo_2_3())
    assert (rep.z2_dim, rep.b2_dim, rep.h2_dim) == (31, 8, 23)


_H2_CLAIMS = [r for r in load_claims() if r["kind"] == "h2_report"]


@pytest.mark.parametrize("rec", _H2_CLAIMS, ids=[r["id"] for r in _H2_CLAIMS])
def test_every_coborder_is_a_cocycle(rec):
    # cohomology() takes B2 inside Z2 from the base satisfying P; check it
    # here with the brute-force extension, which shares no code with the
    # cocycle rows, and with a rank test against the cocycle basis
    a = _algebra(rec["algebra"])
    p = resolve_identity(rec["identity"])
    _, zmats = cocycle_space(a, p)
    _, bmats = coborder_space(a)
    sink = RankSink(a.dim * a.dim)
    for m in zmats:
        sink.feed(m.entries)
    for theta in bmats:
        assert satisfies_identity(extension_algebra(a, theta), p)
        assert not sink.feed(theta.entries)


def test_h2_vanishes_for_terminal_extensions_of_these():
    for key in ("W2hat", "S2", "E2"):
        rep = terminal_cohomology(catalog(key))
        assert rep.h2_dim == 0


def test_terminal_wrappers_require_terminal_base():
    with pytest.raises(ValueError) as exc:
        terminal_cocycle_space(catalog("W2bar"))
    assert "W2bar fails terminal at basis tuple" in str(exc.value)
    with pytest.raises(ValueError):
        terminal_cohomology(catalog("W2(big)"))


def test_terminal_wrappers_agree_with_generic_route():
    a = catalog("W2tilde")
    dim, mats = terminal_cocycle_space(a)
    gdim, gmats = cocycle_space(a, terminal_identity())
    assert dim == gdim
    assert [m.entries for m in mats] == [m.entries for m in gmats]
    assert terminal_cohomology(a) == cohomology(a, terminal_identity())


def test_extension_algebra_structure():
    a = catalog("E2")
    theta = Matrix(2, 2, [1, Fraction(1, 2), 0, -3])
    ext = extension_algebra(a, theta, name="E2+c")
    assert ext.name == "E2+c"
    assert ext.dim == 3
    last = ext.basis_vector(3)
    for i in range(1, 4):
        assert multiply(ext, last, ext.basis_vector(i)) == [0, 0, 0]
        assert multiply(ext, ext.basis_vector(i), last) == [0, 0, 0]
    for i in range(1, 3):
        for j in range(1, 3):
            base = multiply(a, a.basis_vector(i), a.basis_vector(j))
            got = multiply(ext, ext.basis_vector(i), ext.basis_vector(j))
            assert got[:2] == base
            assert got[2] == theta[i - 1, j - 1]


def test_extension_algebra_validates_form_size():
    with pytest.raises(ValueError):
        extension_algebra(catalog("E2"), Matrix(3, 3, [0] * 9))


def test_split_extension_inherits_terminality():
    a = catalog("W2hat")
    assert is_terminal(a)
    assert is_terminal(extension_algebra(a, Matrix(8, 8, [0] * 64)))


# -- cocycle rows against a pointwise Fraction reference ----------------------


def _subtree_value(a, tree, leaves):
    """The product vector of a subtree whose leaves, left to right, are the
    basis vectors with the 1-based indices drawn from the iterator leaves."""
    if tree is None:
        return a.basis_vector(next(leaves))
    return multiply(a, _subtree_value(a, tree[0], leaves), _subtree_value(a, tree[1], leaves))


def _reference_rows(a, p, idx):
    """Row j: the sum over p's monomials of coefficient * L(v) (x) R(v) at
    the basis tuple v with flat index idx[j], L and R the values of the two
    root subtrees, in Fractions."""
    d, n = a.dim, p.degree
    perms = list(permutations(range(1, n + 1)))
    out = []
    for flat in idx:
        v = [int(x) + 1 for x in _digit_table(d, n)[flat]]
        row = [Fraction(0)] * (d * d)
        for i, coef in enumerate(p.coeffs):
            if not coef:
                continue
            tree, perm = shapes(n)[i // factorial(n)].tree, perms[i % factorial(n)]
            leaves = iter(v[q - 1] for q in perm)
            left = _subtree_value(a, tree[0], leaves)
            right = _subtree_value(a, tree[1], leaves)
            for r, x in enumerate(left):
                for c, y in enumerate(right):
                    row[r * d + c] += coef * x * y
        out.append(row)
    return out


def _rows_bound(a, p):
    """sum |w| * scale^(n-2), the bound that picks the rows' work dtype."""
    wden = lcm(*(x.denominator for x in p.coeffs))
    ints = a.mult.ints
    scale = a.dim * max(1, int(abs(ints).max())) if a.dim else 1
    return sum(abs(x * wden) for x in p.coeffs) * scale ** (p.degree - 2)


def _assert_rows_match_reference(a, p, idx, dtype=np.int64):
    got = _cocycle_rows(a, p)(idx)
    assert got.dtype == dtype and got.shape == (len(idx), a.dim**2)
    # the rows are the values times wden * den^(n-2), den the algebra's
    # common denominator: the two root factors are scaled by den^(k-1)
    scale = lcm(*(x.denominator for x in p.coeffs)) * a.mult.den ** (p.degree - 2)
    want = _reference_rows(a, p, idx)
    assert [[Fraction(int(x), scale) for x in row] for row in got.tolist()] == want


def _sample(a, p, k=24, seed=0):
    total = a.dim**p.degree
    rng = np.random.default_rng(seed)
    return np.unique(np.concatenate([[0, total - 1], rng.integers(0, total, k)]))


def _scaled_algebra(a, k):
    """a with every structure constant multiplied by the integer k."""
    return Algebra(a.name + "*k", a.dim, [[[x * k for x in r] for r in plane] for plane in a.c])


@pytest.mark.parametrize("name", ["E2", "S2", "W2", "W2bar", "S1bar", "Sab_bar(1/2,-2/3)"])
def test_cocycle_rows_of_catalog_algebras_match_the_fraction_reference(name):
    a = catalog(name)
    for p in (terminal_identity(), st_identity(3, 1), _combo_2_3(), st_identity(4, 2)):
        assert _rows_bound(a, p) < 2**53  # the float64 path
        _assert_rows_match_reference(a, p, _sample(a, p))


def test_cocycle_rows_between_two_bounds_take_the_int64_path_exactly():
    # int64 constants (below 2^31) and rows beyond 2^53, with odd entries
    a = _scaled_algebra(catalog("W2"), 2**24 + 1)
    p = terminal_identity()
    assert a.mult.ints.dtype == np.int64 and 2**53 <= _rows_bound(a, p) < 2**62
    assert int(abs(_cocycle_rows(a, p)(np.arange(a.dim**4))).max()) > 2**54
    _assert_rows_match_reference(a, p, _sample(a, p))


def test_cocycle_rows_beyond_int64_take_the_object_path_exactly():
    a = catalog("W2bar")
    p = terminal_identity().scaled(3**40)
    assert _rows_bound(a, p) >= 2**62
    _assert_rows_match_reference(a, p, _sample(a, p), dtype=object)


@pytest.mark.parametrize("k", [2**52 - 1, 2**52])
def test_cocycle_rows_just_below_and_above_two_to_the_53(k):
    # at (i, i) the two terms add to 2k + 1 = the bound: 2^53 - 1 is exact in
    # float64, 2^53 + 1 is not, although each weight is below 2^53
    a = catalog("E2")
    p = IdentityCombination(2, [k, k + 1])
    assert _rows_bound(a, p) == 2 * k + 1
    rows = _cocycle_rows(a, p)(np.arange(4))
    assert rows.dtype == np.int64 and int(rows[0, 0]) == 2 * k + 1
    _assert_rows_match_reference(a, p, np.arange(4))


def test_cocycle_rows_of_dimension_one():
    a = Algebra("one", 1, [[[Fraction(3, 2)]]])
    for p in (terminal_identity(), _combo_2_3(), IdentityCombination(2, [1, 2])):
        _assert_rows_match_reference(a, p, np.arange(1))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cocycle_rows_of_the_zero_combination_are_zero(n):
    a = catalog("S1bar")
    p = IdentityCombination(n, [0] * monomial_count(n))
    rows = _cocycle_rows(a, p)(np.arange(16))
    assert rows.shape == (16, 64) and rows.dtype == np.int64 and not rows.any()
    assert cocycle_space(a, p)[0] == 64


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_cocycle_rows_of_random_combinations_match_the_fraction_reference(data):
    a = catalog(data.draw(st.sampled_from(["E2", "D2", "S2", "W2", "B2"])))
    n = data.draw(st.sampled_from([2, 3, 4]))
    weight = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    coeffs = [0] * monomial_count(n)
    for i, w in data.draw(st.lists(st.tuples(st.integers(0, len(coeffs) - 1), weight),
                                   max_size=6)):
        coeffs[i] += w
    p = IdentityCombination(n, coeffs)
    _assert_rows_match_reference(a, p, _sample(a, p, k=8, seed=data.draw(st.integers(0, 9))))


def test_cocycle_rows_of_a_dense_degree_five_combination_stay_within_one_chunk():
    # 1,680 terms over all 14 shapes: a chunk is a few tuples, and one call
    # holds its output block and one chunk's arrays
    a = catalog("S1bar")
    p = IdentityCombination(5, [1 + i % 7 for i in range(monomial_count(5))])
    rows = _cocycle_rows(a, p)
    idx = np.arange(512)
    rows(idx[:4])  # digit table and index maps of degree 5 in place
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = rows(idx)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.shape == (512, 64)
    assert peak < _CHUNK_BYTES + out.nbytes
    _assert_rows_match_reference(a, p, idx[[0, 7, 300, 511]])


# -- the base check read off the rows ---------------------------------------

_UNDEFINED = [r for r in load_claims() if r["kind"] == "z2_undefined"]


def _message(a, p):
    return "base does not satisfy P: %s fails %s at basis tuple %r" % (
        a.name, p.name or "the identity", first_violation(a, p))


@pytest.mark.parametrize("rec", _UNDEFINED, ids=[r["id"] for r in _UNDEFINED])
def test_base_check_names_the_first_violation(rec):
    a = _algebra(rec["algebra"])
    p = resolve_identity(rec["identity"])
    with pytest.raises(ValueError) as exc:
        cocycle_space(a, p)
    assert str(exc.value) == _message(a, p)


def test_base_check_over_many_blocks_names_the_first_violation(monkeypatch):
    # blocks of 16 tuples: on S1bar the first violation of st4_1 is the 63rd
    # of 70 increasing tuples, so three blocks pass the check first
    # a system of 2^19 columns gets the smallest blocks
    monkeypatch.setattr(cohomology_module, "_tuple_blocks",
                        lambda tuples, _cols: _tuple_blocks(tuples, 1 << 19))
    a = catalog("S1bar")
    p = st_identity(4, 1)
    bad = first_violation(a, p)
    assert bad == (3, 5, 6, 8)
    tuples = _tuple_indices(p, a.dim)
    assert int(np.searchsorted(tuples, np.ravel_multi_index(np.array(bad) - 1, (8,) * 4))) >= 48
    for rec in _UNDEFINED:
        a = _algebra(rec["algebra"])
        p = resolve_identity(rec["identity"])
        with pytest.raises(ValueError) as exc:
            cocycle_space(a, p)
        assert str(exc.value) == _message(a, p), rec["id"]


@pytest.mark.parametrize("rec", _UNDEFINED, ids=[r["id"] for r in _UNDEFINED])
def test_rows_where_p_holds_never_reach_full_rank(rec):
    # why no block goes unchecked: certification stops early only at rank
    # d^2, and the rows at the tuples before the first violation are
    # orthogonal to the columns of the nonzero structure array
    a = _algebra(rec["algebra"])
    p = resolve_identity(rec["identity"])
    d = a.dim
    bad = np.ravel_multi_index(np.array(first_violation(a, p)) - 1, (d,) * p.degree)
    tuples = _tuple_indices(p, d)
    rows = _cocycle_rows(a, p)(tuples[tuples < bad])
    assert not (rows @ a.mult.ints.reshape(d * d, d)).any()
    assert certified_rank(d * d, lambda: [rows]) < d * d


def test_zero_product_with_a_full_rank_system_has_no_cocycle():
    # the rows x1 x2 + 2 x2 x1 at all pairs span every form, and P holds in
    # the zero algebra
    z = Algebra("zero", 3, [[[0] * 3] * 3] * 3)
    p = IdentityCombination(2, [1, 2])
    assert certified_rank(9, lambda: [_cocycle_rows(z, p)(np.arange(9))]) == 9
    assert cocycle_space(z, p) == (0, [])
    assert cohomology(z, p) == CohomologyReport(0, 0, 0)
    e2 = catalog("E2")
    with pytest.raises(ValueError) as exc:
        cocycle_space(e2, p)
    assert str(exc.value) == _message(e2, p)
