import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from nonassoc.algebras import (
    Algebra,
    BilinearMap,
    bracket,
    change_of_basis,
    left_mul_operator,
)
from nonassoc.catalog import catalog, catalog_names, sab_bar
from nonassoc.claims import load_claims
from nonassoc.conservative import (
    _g_tensor,
    commutator_expansion,
    conservative_solve,
    first_terminal_violation,
    is_conservative,
    is_terminal,
    terminal_identity,
    terminal_witness,
    verify_witness,
    witness_defect,
)
from nonassoc.identities import (
    _product_table,
    _shape_tables,
    _ValueTables,
    evaluate_combination_table,
    first_violation,
)
from nonassoc.monomials import BracketShape, _count_leaves

# e1 e1 = -e2, e1 e2 = e1 - 2 e2, e2 e1 = -2 e1 + 2 e2, e2 e2 = -2 e1;
# found by random search, kept fixed as a known negative
_NOT_CONSERVATIVE = Algebra(
    "counterexample", 2, [[[0, -1], [1, -2]], [[-2, 2], [-2, 0]]]
)


def test_commutator_expansion_has_nine_unit_terms():
    c = commutator_expansion()
    terms = c.terms()
    assert len(terms) == 9
    assert all(coef in (1, -1) for _, coef in terms)
    assert c.degree == 4


def test_terminal_identity_has_fifteen_integer_terms():
    t = terminal_identity()
    terms = t.terms()
    assert len(terms) == 15
    assert all(coef.denominator == 1 for _, coef in terms)
    assert t.degree == 4


def _concrete_catalog():
    for key in catalog_names():
        yield catalog(key.replace("(α,β)", "(2,1)"))


def test_terminal_implies_conservative_across_catalog():
    saw_terminal = saw_nonterminal = False
    for a in _concrete_catalog():
        t = is_terminal(a)
        saw_terminal |= t
        saw_nonterminal |= not t
        if t:
            assert is_conservative(a), a.name
    assert saw_terminal and saw_nonterminal


def test_terminal_witness_verifies_exactly_when_terminal():
    for key in ("W2hat", "W2bar", "S1bar", "D2"):
        a = catalog(key)
        assert verify_witness(a, terminal_witness(a)) == is_terminal(a)


def test_terminal_witness_formula():
    a = catalog("W2hat")
    f = terminal_witness(a)
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                assert f.c[i][j][k] == Fraction(2 * a.c[i][j][k] + a.c[j][i][k], 3)


def test_first_terminal_violation():
    assert first_terminal_violation(catalog("W2hat")) is None
    v = first_terminal_violation(catalog("W2(big)"))
    assert v is not None and len(v) == 4
    assert all(1 <= x <= 8 for x in v)


def test_solver_freedom_on_known_cases():
    assert conservative_solve(catalog("W2(big)")).freedom == 384
    assert conservative_solve(catalog("S1bar")).freedom == 448


def test_solver_witness_satisfies_operator_form():
    # [L_b, [L_a, P]] must equal -[L_{F(a,b)}, P] as bilinear maps
    a = catalog("W2bar")
    wit = conservative_solve(a)
    assert wit is not None
    p = a.mult
    for ai in range(1, a.dim + 1):
        la = left_mul_operator(a, a.basis_vector(ai))
        inner = bracket(la, p)
        for bi in range(1, a.dim + 1):
            lb = left_mul_operator(a, a.basis_vector(bi))
            lhs = bracket(lb, inner)
            w = wit.F.apply(a.basis_vector(ai), a.basis_vector(bi))
            rhs = bracket(left_mul_operator(a, w), p)
            for i in range(a.dim):
                for j in range(a.dim):
                    assert lhs.c[i][j] == tuple(-x for x in rhs.c[i][j])


def test_printed_witness_for_checked_contraction():
    a = catalog("S5bar")
    f = BilinearMap.from_products(
        8,
        {
            (1, 1): [-1, 0, 0, 0, 0, 0, 0, 0],
            (1, 2): [0, -1, 0, 0, 0, 0, 0, 0],
            (2, 1): [0, 1, 0, 0, 0, 0, 0, 0],
            (2, 8): [0, -1, 0, 0, 0, 0, 0, 0],
        },
    )
    assert verify_witness(a, f)


def test_non_conservative_example():
    assert conservative_solve(_NOT_CONSERVATIVE) is None
    assert not is_conservative(_NOT_CONSERVATIVE)
    assert not is_terminal(_NOT_CONSERVATIVE)


def test_witness_defect_reports_first_failure():
    a = catalog("W2(big)")
    defect = witness_defect(a, BilinearMap.zero(8))
    assert defect == (1, 1, 1, 1, 1)
    assert not verify_witness(a, BilinearMap.zero(8))
    with pytest.raises(ValueError):
        witness_defect(a, BilinearMap.zero(3))


def test_parameterized_family_is_conservative():
    for pair in [(2, 1), (Fraction(-1, 2), Fraction(5, 3))]:
        a = sab_bar(*pair)
        wit = conservative_solve(a)
        assert wit is not None
        assert witness_defect(a, wit.F) is None


def test_terminal_only_at_special_pairs():
    assert is_terminal(sab_bar(-1, 1))
    assert is_terminal(sab_bar(0, 0))
    assert not is_terminal(sab_bar(2, 1))
    assert not is_terminal(sab_bar(0, -3))


def test_degenerate_dimensions():
    empty = Algebra("empty", 0, [])
    assert is_terminal(empty)
    wit = conservative_solve(empty)
    assert wit is not None and wit.freedom == 0
    line = Algebra("line", 1, [[[5]]])
    assert is_terminal(line)
    wit = conservative_solve(line)
    assert wit is not None and wit.freedom == 0
    null_line = Algebra("null", 1, [[[0]]])
    # with a zero product every F works
    wit = conservative_solve(null_line)
    assert wit is not None and wit.freedom == 1


def _einsum_g(a):
    """The witness-side tensor G[k, x, y, l] and its denominator, as object
    einsums over the cleared structure constants."""
    carr, den = a.int_constants()
    c = np.asarray(carr, dtype=object)
    g = (
        -np.einsum("xym,kml->kxyl", c, c)  # e_k (e_x e_y)
        + np.einsum("kxm,myl->kxyl", c, c)  # (e_k e_x) e_y
        + np.einsum("kym,xml->kxyl", c, c)  # e_x (e_k e_y)
    )
    return g, den * den


def _object_defect(a, f):
    """witness_defect as one object-dtype einsum: the independent check."""
    d = a.dim
    g, gden = _einsum_g(a)
    r_table, rden = evaluate_combination_table(a, commutator_expansion())
    fden = lcm(*(x.denominator for plane in f.c for row in plane for x in row))
    fint = np.array([[[int(x * fden) for x in row] for row in plane] for plane in f.c],
                    dtype=object)
    lhs = np.asarray(r_table, dtype=object).reshape(d, d, d, d, d)
    fg = np.einsum("abk,kxyl->abxyl", fint, g)
    hits = np.nonzero(lhs * (fden * gden) - fg * rden)
    return tuple(int(h[0]) + 1 for h in hits) if len(hits[0]) else None


def _scaled_s2():
    # scaling the basis by s scales every structure constant by s, the
    # commutator table by s^3 and G by s^2
    s = 2**21
    a = catalog("S2")
    return change_of_basis(a, [[s * (i == j) for i in range(a.dim)] for j in range(a.dim)])


@pytest.mark.parametrize("name", ["E2", "D2", "S2", "W2", "W2bar", "Sab_bar(1/2,-2/3)", "S2*2^21"])
def test_g_tensor_equals_the_object_einsum(name):
    a = _scaled_s2() if name == "S2*2^21" else catalog(name)
    g, gden = _g_tensor(a)
    want, want_den = _einsum_g(a)
    assert gden == want_den
    assert g.shape == want.shape
    assert np.array_equal(np.asarray(g, dtype=object), want)


def _perturbed(f, i, j, k, delta):
    c = [[list(row) for row in plane] for plane in f.c]
    c[i][j][k] += delta
    return BilinearMap(f.dim, c)


def _assert_defects_agree(a, rng, failures=2):
    """Perturb single entries of the solved witness until `failures` of
    them break it (a change along the solution space does not); both
    checks must agree on every one."""
    wit = conservative_solve(a)
    assert wit is not None
    assert witness_defect(a, wit.F) is None and _object_defect(a, wit.F) is None
    d = a.dim
    failed = 0
    for _ in range(40):
        i, j, k = (rng.randrange(d) for _ in range(3))
        f = _perturbed(wit.F, i, j, k, Fraction(rng.choice([-1, 1]), rng.randint(1, 7)))
        want = _object_defect(a, f)
        assert witness_defect(a, f) == want
        if want is not None:
            assert want[:2] == (i + 1, j + 1)  # only F(e_i, e_j) changed
            failed += 1
            if failed == failures:
                return
    raise AssertionError("too few perturbations broke the witness")


_CONSERVATIVE_CLAIMS = sorted(r["algebra"] for r in load_claims() if r["kind"] == "conservative")


@pytest.mark.parametrize("name", _CONSERVATIVE_CLAIMS)
def test_perturbed_witness_fails_at_the_object_checks_first_tuple(name):
    _assert_defects_agree(catalog(name), random.Random(name))


def test_witness_check_past_the_int64_bound_agrees():
    # the commutator table alone passes the int64 bound, so the check runs
    # on Python integers
    big = _scaled_s2()
    r_table, _ = evaluate_combination_table(big, commutator_expansion())
    assert max(abs(int(v)) for v in np.asarray(r_table).ravel()) >= 2**62
    _assert_defects_agree(big, random.Random(7), failures=4)


def test_conservative_solve_builds_each_value_table_once(monkeypatch):
    # G reads degree-3 tables and the commutator table degree-4 ones; both
    # come from the algebra's one cache entry, and no table is built twice
    built = []
    build = _ValueTables.__missing__

    def counting(self, key):
        built.append(key)
        return build(self, key)

    monkeypatch.setattr(_ValueTables, "__missing__", counting)
    _shape_tables.cache_clear()
    conservative_solve(catalog("W2bar"))
    assert _shape_tables.cache_info().misses == 1
    assert built and len(built) == len(set(built))


def test_value_tables_take_their_dtype_from_their_own_bound():
    # scale = d * cmax = 4 * 3 * 2^21: the bound scale^(k-1) stays below
    # 2^53 up to k = 3 leaves and passes 2^62 at k = 4
    big = _scaled_s2()
    _shape_tables.cache_clear()
    assert conservative_solve(big) is not None
    first_violation(big, terminal_identity())
    tables = _shape_tables(big)
    # degree-4 values are read off root pairs of at most 3 leaves: build
    # one 4-leaf table to cover the object path
    tables[BracketShape.parse("(((xx)x)x)").tree]
    assert tables.scale == 4 * 3 * 2**21
    leaves = {key: _count_leaves(key) for key in tables}
    assert set(leaves.values()) == {1, 2, 3, 4}
    for key, table in tables.items():
        assert table.dtype == (object if leaves[key] == 4 else np.int64), key
    objects = tables.cflat.astype(object)
    ref = {None: np.eye(big.dim, dtype=object)}
    for key in sorted(tables, key=_count_leaves):
        if key is not None:
            lk, rk = key
            ref[key] = _product_table(ref[lk], ref[rk], objects).reshape(-1, big.dim)
        assert (tables[key] == ref[key]).all(), key
