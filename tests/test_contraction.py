import re
from fractions import Fraction

import numpy as np
import pytest

from nonassoc.catalog import catalog, sab_adapted, sab_bar
from nonassoc.contraction import (
    ContractionError,
    compare_tables,
    contraction_chain_check,
    iw_contract,
    laurent_constants,
)


def _manual_contract_constants(a, scaled):
    """Keep the t^0 entries of the rescaled table, the long way round."""
    s = [1 if i in scaled else 0 for i in range(1, a.dim + 1)]
    kept = {}
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                c = a.c[i][j][k]
                if not c:
                    continue
                e = s[i] + s[j] - s[k]
                assert e >= 0
                if e == 0:
                    kept[(i + 1, j + 1, k + 1)] = c
    return kept


def test_every_cataloged_contraction_recomputes():
    for check in contraction_chain_check():
        assert check.ok, "%s from %s: %r" % (check.target, check.source, check.mismatches)


def test_iw_contract_matches_manual_filter():
    a = catalog("W2(big)")
    for scaled in [{2}, {7, 8}, {5, 6, 7, 8}]:
        got = iw_contract(a, scaled)
        kept = _manual_contract_constants(a, scaled)
        for i in range(8):
            for j in range(8):
                for k in range(8):
                    want = kept.get((i + 1, j + 1, k + 1), Fraction(0))
                    assert got.c[i][j][k] == want


def test_two_step_contraction_composes():
    a = catalog("W2(big)")
    one_shot = iw_contract(a, {5, 6, 7, 8})
    two_step = iw_contract(iw_contract(a, {7, 8}), {5, 6})
    assert not compare_tables(two_step, one_shot)


def test_contraction_requires_closed_complement():
    a = catalog("W2(big)")
    with pytest.raises(ContractionError) as exc:
        iw_contract(a, {1})
    assert "not a subalgebra" in str(exc.value)
    assert "e_2 e_3" in str(exc.value)


def test_iw_contract_rejects_out_of_range_indices():
    a = catalog("W2(big)")
    for bad in (0, 9, -1):
        with pytest.raises(ContractionError, match="basis index %d out of range" % bad):
            iw_contract(a, {bad})
    with pytest.raises(ContractionError, match="basis index 9 out of range"):
        iw_contract(a, {2, 9})


@pytest.mark.parametrize("compute", [iw_contract, laurent_constants])
@pytest.mark.parametrize("bad", [1.5, 2.5, 2.0, True, "1"])
def test_scaled_indices_are_basis_indices_by_the_one_rule(compute, bad):
    # an integer, not a bool, in 1..dim: a float, a bool or a string is
    # refused like an index out of range, whatever the others are
    for scaled in ([bad], [3, bad]):
        with pytest.raises(ContractionError, match="basis index %s out of range" % re.escape(repr(bad))):
            compute(catalog("W2(big)"), scaled)


def test_scaled_indices_may_be_numpy_integers():
    a = catalog("W2(big)")
    assert iw_contract(a, [np.int64(2)]) == iw_contract(a, [2])
    assert iw_contract(a, [np.int64(2)]).name == "W2(big)~contracted{2}"
    assert laurent_constants(a, np.array([2])) == laurent_constants(a, [2])


def test_laurent_constants_bookkeeping():
    a = catalog("W2(big)")
    lc = laurent_constants(a, {2})
    # e_2 e_3 = 2 e_1 picks up one factor of t, e_1 e_2 = -3 e_2 stays flat
    assert lc[(2, 3, 1)] == (1, Fraction(2))
    assert lc[(1, 2, 2)] == (0, Fraction(-3))
    assert (4, 1, 1) not in lc
    assert all(1 <= i <= 8 and 1 <= j <= 8 and 1 <= k <= 8 for (i, j, k) in lc)
    assert all(coef and e in (0, 1, 2) for e, coef in lc.values())


def test_compare_tables_reports_triples():
    a = catalog("E2")
    assert compare_tables(a, a) == ()
    doctored = catalog("E2")
    c = [list(map(list, plane)) for plane in doctored.c]
    c[0][1][1] = Fraction(99)
    from nonassoc.algebras import Algebra

    b = Algebra("doctored", 2, c)
    bad = compare_tables(b, a)
    assert bad == ((1, 2, 2, Fraction(99), Fraction(-3)),)
    with pytest.raises(ValueError):
        compare_tables(catalog("E2"), catalog("D2"))


def test_contraction_naming():
    a = catalog("W2(big)")
    assert iw_contract(a, (2,)).name == "W2(big)~contracted{2}"
    assert iw_contract(a, (8, 7), name="flat").name == "flat"


def test_adapted_source_contracts_to_sab_bar():
    for alpha, beta in [(2, 1), (Fraction(1, 3), Fraction(-5, 2))]:
        got = iw_contract(sab_adapted(alpha, beta), (8,))
        assert not compare_tables(got, sab_bar(alpha, beta))
