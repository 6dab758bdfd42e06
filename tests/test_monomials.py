import hashlib
import pickle
from fractions import Fraction
from itertools import permutations
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonassoc.catalog import catalog
from nonassoc.conservative import terminal_identity
from nonassoc.identities import identity_space
from nonassoc.monomials import (
    MAX_DEGREE,
    BracketShape,
    IdentityCombination,
    MultilinearMonomial,
    _all_trees,
    _collapse_key,
    _permutations,
    _render,
    enumerate_monomials,
    left_comb,
    monomial_count,
    monomial_index,
    perm_index,
    right_comb,
    shapes,
    st_identity,
    tail_fixed_alternating,
)

CATALAN = {1: 1, 2: 1, 3: 2, 4: 5, 5: 14}


def test_shape_counts_are_catalan():
    for n in range(1, MAX_DEGREE + 1):
        assert len(shapes(n)) == CATALAN[n]


def test_degree_out_of_range():
    for _ in range(2):  # a bad degree raises on every call
        with pytest.raises(ValueError):
            shapes(MAX_DEGREE + 1)
        with pytest.raises(ValueError):
            shapes(0)


def test_shapes_is_one_list_per_degree():
    assert shapes(4) is shapes(4)


def test_tree_order_is_pinned():
    """Every tree of 1-9 leaves, each degree sorted by the closed-form key,
    one rendering per line: the digest was read off the cherry-collapse
    definition of sort_key."""
    lines = [_render(t) for n in range(1, 10) for t in sorted(_all_trees(n), key=_collapse_key)]
    text = "\n".join(lines) + "\n"
    assert len(lines) == 2056
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "360434c74deabc8f0b8a5985cf1f5c1dec828f5d1509ead54f41190b671c6dbe")


def test_degree_4_shape_order():
    assert [str(s) for s in shapes(4)] == [
        "((xx)x)x", "(xx)(xx)", "(x(xx))x", "x((xx)x)", "x(x(xx))"]


def test_permutations_are_numbered_by_perm_index():
    for n in range(1, 6):
        perms = _permutations(n)
        assert len(perms) == len(set(perms)) == factorial(n)
        assert all(perm_index(p) == r for r, p in enumerate(perms))


@pytest.mark.parametrize("perm", [[1, 1], [0, 1], [1, 3], [2, 3], [1, 2, 2], [1, 2, 4], [1, 2, 3, 4, 5, 6, 7]])
def test_perm_index_refuses_what_is_not_a_permutation_of_a_monomial(perm):
    with pytest.raises(ValueError, match="not a permutation"):
        perm_index(perm)


def test_terms_match_the_enumerate_and_filter_reference():
    named = [st_identity(5, 1), st_identity(5, 2), terminal_identity(),
             tail_fixed_alternating(5, 3)]
    for c in named + identity_space(catalog("E2"), 4)[1]:
        reference = [(m, x) for m, x in zip(enumerate_monomials(c.degree), c.coeffs) if x]
        assert c.terms() == reference


def test_shape_parse_and_str_round_trip():
    for n in range(1, MAX_DEGREE + 1):
        for s in shapes(n):
            text = str(s)
            assert BracketShape.parse(text) == s
            assert BracketShape.parse(text).leaves == n


def test_parse_accepts_fully_parenthesized_form():
    assert BracketShape.parse("((xx)x)") == BracketShape.parse("(xx)x")


def test_combs_are_extreme_shapes():
    # canonical order starts at the left comb and ends at the right comb
    for n in range(2, MAX_DEGREE + 1):
        all_shapes = shapes(n)
        assert all_shapes[0] == left_comb(n)
        assert all_shapes[-1] == right_comb(n)


def test_left_and_right_comb_strings():
    assert str(left_comb(4)) == "((xx)x)x"
    assert str(right_comb(4)) == "x(x(xx))"


def test_monomial_count():
    for n in range(1, MAX_DEGREE + 1):
        fact = 1
        for k in range(2, n + 1):
            fact *= k
        assert monomial_count(n) == CATALAN[n] * fact


def test_enumeration_matches_index():
    for n in (3, 4):
        seen = list(enumerate_monomials(n))
        assert len(seen) == monomial_count(n)
        for pos, m in enumerate(seen):
            assert monomial_index(m) == pos


def test_enumeration_is_shape_major_perm_lex():
    seq = list(enumerate_monomials(3))
    assert [(str(m.shape), m.perm) for m in seq[:3]] == [
        ("(xx)x", (1, 2, 3)),
        ("(xx)x", (1, 3, 2)),
        ("(xx)x", (2, 1, 3)),
    ]
    assert str(seq[-1].shape) == "x(xx)"
    assert seq[-1].perm == (3, 2, 1)


def test_monomial_validation():
    shape = shapes(3)[0]
    with pytest.raises(ValueError):
        MultilinearMonomial(shape, (1, 1, 2))
    with pytest.raises(ValueError):
        MultilinearMonomial(shape, (1, 2))


def test_st_identity_term_structure():
    for n in (3, 4, 5):
        for variant in (1, 2):
            c = st_identity(n, variant)
            terms = c.terms()
            fact = 1
            for k in range(2, n + 1):
                fact *= k
            assert len(terms) == fact
            assert {abs(x) for _, x in terms} == {Fraction(1)}
            want = left_comb(n) if variant == 1 else right_comb(n)
            assert all(m.shape == want for m, _ in terms)


def test_st3_explicit_terms():
    # st3_1 = sum over sigma of sign * (x_s1 x_s2) x_s3
    got = {(m.perm, x) for m, x in st_identity(3, 1).terms()}
    want = set()
    for sigma in permutations((1, 2, 3)):
        inv = sum(1 for a in range(3) for b in range(a + 1, 3)
                  if sigma[a] > sigma[b])
        want.add((sigma, Fraction((-1) ** inv)))
    assert got == want


def test_st3_2_reverses_leaf_order():
    # the right-comb variant puts sigma(1) in the innermost slot
    terms = {m.perm: x for m, x in st_identity(3, 2).terms()}
    assert terms[(3, 2, 1)] == 1  # identity permutation, leaves reversed


def test_combination_arithmetic():
    a = st_identity(3, 1)
    b = st_identity(3, 2)
    c = a.scaled(2).plus(b.scaled(-2))
    assert c.degree == 3
    doubled = {m.perm: x for m, x in a.scaled(2).terms()}
    assert doubled[(1, 2, 3)] == 2


def test_scaled_and_plus_match_the_entrywise_reference():
    a = st_identity(4, 1)
    b = IdentityCombination(4, [Fraction(i % 7 - 3, 1 + i % 4) for i in range(monomial_count(4))],
                            name="dense")
    for c in (a, b):
        for k in (0, 1, -3, Fraction(2, 3), "5/7"):
            got = c.scaled(k)
            assert list(got.coeffs) == [Fraction(k) * x for x in c.coeffs]
            assert all(type(x) is Fraction for x in got.coeffs)
            assert got.name == c.name and got.degree == 4
    assert a.scaled(0).terms() == []
    for c, d in [(a, b), (b, a), (a, a.scaled(-1)), (b, b.scaled(-1)), (a, a)]:
        got = c.plus(d)
        assert list(got.coeffs) == [x + y for x, y in zip(c.coeffs, d.coeffs)]
        assert all(type(x) is Fraction for x in got.coeffs)
        assert got.name == ""
    # cancellation to zero leaves no terms
    assert b.plus(b.scaled(-1)).terms() == []
    assert b.plus(b.scaled(-1)) == IdentityCombination(4, [0] * monomial_count(4))
    with pytest.raises(ValueError):
        a.plus(st_identity(3, 1))


def test_from_terms_round_trip():
    c = IdentityCombination.from_terms(
        3, [(("x(xx)", (1, 2, 3)), 1), (("x(xx)", (2, 1, 3)), -1)], name="swap")
    assert c.name == "swap"
    back = {(str(m.shape), m.perm): x for m, x in c.terms()}
    assert back == {("x(xx)", (1, 2, 3)): Fraction(1),
                    ("x(xx)", (2, 1, 3)): Fraction(-1)}


def test_tail_fixed_is_right_comb_with_pinned_last_leaf():
    for j in range(1, 6):
        c = tail_fixed_alternating(5, j)
        terms = c.terms()
        assert len(terms) == 24
        for m, x in terms:
            assert m.shape == right_comb(5)
            assert m.perm[-1] == j
            assert abs(x) == 1


def test_alternating_tail_combination_is_st5_2():
    total = None
    for j, sign in zip(range(1, 6), (1, -1, 1, -1, 1)):
        part = tail_fixed_alternating(5, j).scaled(sign)
        total = part if total is None else total.plus(part)
    assert total.coeffs == st_identity(5, 2).coeffs


# The format against a dense-Fraction oracle: sparse degree-3 vectors (36
# monomials), the zero vector among them, with numerators beyond 2^63 and
# denominators beyond 2^64.
_NUMERATORS = st.one_of(st.integers(-6, 6), st.integers(-2**70, 2**70))
_DENOMINATORS = st.one_of(st.integers(1, 6), st.integers(2**64, 2**66))
_RATIONALS = st.builds(Fraction, _NUMERATORS, _DENOMINATORS)
_DENSE = st.dictionaries(st.integers(0, monomial_count(3) - 1), _RATIONALS, max_size=6).map(
    lambda d: [d.get(i, Fraction(0)) for i in range(monomial_count(3))])


def _check_format(c, dense):
    """c holds the canonical triple of the dense Fraction vector dense."""
    assert c.coeffs == tuple(dense) and all(type(x) is Fraction for x in c.coeffs)
    assert list(c.index) == [i for i, x in enumerate(dense) if x]
    assert all(type(x) is int and x for x in c.nums) and c.den > 0
    assert gcd(c.den, *c.nums) == 1
    assert [Fraction(x, c.den) for x in c.nums] == [x for x in dense if x]
    back = pickle.loads(pickle.dumps(c))
    assert back == c and back.coeffs == c.coeffs and back.name == c.name


@settings(max_examples=150, deadline=None)
@given(u=_DENSE, v=_DENSE, k=st.one_of(st.just(Fraction(0)), _RATIONALS))
def test_combination_format_matches_a_dense_fraction_oracle(u, v, k):
    a = IdentityCombination(3, u, name="u")
    _check_format(a, u)
    monos = enumerate_monomials(3)
    from_terms = IdentityCombination.from_terms(3, [(monos[i], x) for i, x in enumerate(u) if x])
    _check_format(from_terms, u)
    assert from_terms == a and hash(from_terms) == hash(a)
    scaled = a.scaled(k)
    _check_format(scaled, [k * x for x in u])
    assert scaled.name == "u"
    b = IdentityCombination(3, v)
    _check_format(a.plus(b), [x + y for x, y in zip(u, v)])
    _check_format(a.plus(a.scaled(-1)), [Fraction(0)] * len(u))
    # equal exactly when the dense vectors are equal, and then hashed alike
    assert (a == b) == (u == v)
    if u == v:
        assert hash(a) == hash(b)
    assert a.scaled(2) == a.plus(a) and hash(a.scaled(2)) == hash(a.plus(a))
