"""Scaling limits, step by step.

Starting from the eight-dimensional algebra W2(big), rescale part of the
basis by a parameter t, track every structure constant as a Laurent
monomial in t, and read off the limit algebra at t -> 0.  The script
shows the bookkeeping for one contraction in full, then recomputes the
whole recorded chain and reports an entry-for-entry comparison.

Run as ``python demos/contraction_chain.py``.
"""

from fractions import Fraction

from nonassoc.catalog import catalog
from nonassoc.contraction import (
    compare_tables,
    contraction_chain_check,
    iw_contract,
    laurent_constants,
)
from nonassoc.linalg import format_rational


def main():
    a = catalog("W2(big)")
    print("source: %s, with e2 rescaled to t*e2" % a.name)
    print()
    print("structure constants as Laurent monomials in t")
    print("(only products whose t-power is positive change in the limit):")
    lc = laurent_constants(a, (2,))
    moved = 0
    for (i, j, k), (e, coef) in sorted(lc.items()):
        if e:
            print("  e%d e%d -> (%s t^%d) e%d   vanishes at t=0"
                  % (i, j, format_rational(coef), e, k))
            moved += 1
    print("  %d entries carry a positive power of t" % moved)

    limit = iw_contract(a, (2,))
    target = catalog("W2bar")
    bad = compare_tables(limit, target)
    print()
    print("limit at t=0: %s" % limit.name)
    print("entry-for-entry comparison with the recorded table %s: %s"
          % (target.name, "match" if not bad else bad[:3]))

    print()
    print("the full chain, each limit recomputed from its source")
    print("-----------------------------------------------------")
    for check in contraction_chain_check(
            sab_pairs=((2, 1), (0, -3), (Fraction(1, 2), Fraction(-2, 3)))):
        verdict = "ok" if check.ok else "MISMATCH %s" % (check.mismatches[:3],)
        print("  %-22s <- %-22s scaling %-12s %s"
              % (check.target, check.source, check.scaled, verdict))


if __name__ == "__main__":
    main()
