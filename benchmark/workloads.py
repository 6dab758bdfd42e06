"""Workloads of the registry benchmark and the seeded algebras they run on.

A workload is a fixed list of claims from the registry
(``nonassoc/data/claims.json``).  The seed never changes which claims run;
it changes the algebras they run on.  Seed 0 keeps the recorded tables.
Any other seed rewrites every resolved algebra through the public
``change_of_basis`` with a seeded sign change (a diagonal matrix of +1 and
-1).  A sign change flips the signs of structure constants but keeps
their sparsity, their magnitudes and the order of the basis, so every
system keeps its size, its arithmetic path and the position of its early
exits, and every basis-invariant claim must still match its recorded
value.  The claim kinds that depend on the basis stay on the recorded
tables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from nonassoc import change_of_basis, claims

# Claim kinds whose recorded answer is stated in the recorded basis.
BASIS_DEPENDENT = frozenset({"contraction", "witness", "ideal"})

# Record fields that name an algebra.
_ALGEBRA_FIELDS = ("algebra", "left", "right", "source", "target")

SCOPES = ("cohomology", "conservative", "contractions", "derivations",
          "identities", "shapes", "st")


@dataclass(frozen=True)
class Workload:
    why: str
    scopes: tuple
    # claim ids to keep within the scopes; None keeps them all
    ids: Optional[tuple] = None
    # claim ids to leave out of the scopes
    skip: tuple = ()
    # layer entry points (tracer names) the workload must reach
    entry_points: tuple = ()


# entry points every workload reaches
_SHARED = (
    "fastrank.ModularFilter.filter_block",
    "fastrank.rref_int",
    "fastrank.nullspace_int",
    "fastrank._find_violators",
    "fastrank._exact_products",
    "identities._parallel_blocks",
    "identities._shape_tables",
    "linalg.RankSink.feed",
)

# The claims cocycles4 leaves out: 19 of the 20 degree-5 cocycle systems
# that take 1-2.3 s each, 10 of the 16 degree-4 identity spaces, and the
# second degree-5 ST identity.  They repeat systems it keeps on other
# algebras, and without them one pass takes 13-18 s on a 2-core box,
# so that a run holds three passes.
_COCYCLES4_SKIP = tuple(
    "z2/%s/st5_%d" % (name, k)
    for name in ("B2", "S1bar", "S5bar", "Sab_bar(-1,1)", "Sab_bar(0,0)", "W2bar",
                 "W2hathat", "W2tilde", "W2tildetilde")
    for k in (1, 2)
    if (name, k) != ("S1bar", 2)
) + (
    "z2/W2(big)/st5_2",
    "z2/W2hat/st5_2",
) + tuple(
    "dimS4/%s" % name
    for name in ("S1bar", "S5bar", "Sab_bar(-1,1)", "Sab_bar(0,0)", "W2", "W2bar",
                 "W2hat", "W2hathat", "W2tilde", "W2tildetilde")
) + tuple(
    "st/%s/st5_2" % name
    for name in ("S1bar", "S5bar", "Sab_bar(-1,1)", "Sab_bar(0,-3)", "Sab_bar(0,0)",
                 "Sab_bar(1/2,-2/3)", "Sab_bar(2,1)", "W2(big)", "W2bar", "W2hat",
                 "W2hathat", "W2tilde", "W2tildetilde")
)

WORKLOADS = {
    # The whole shapes scope takes about a minute, so shape5 keeps shape 14
    # (the only one with identities, dim 5), its basis and combination
    # claims, and shape 13, one of the thirteen full-rank shapes.  Every
    # shape system is 262,144 x 120 on W2(big).
    "shape5": Workload(
        why="degree-5 shape systems on W2(big), 262144 x 120 each: "
            "the modular filter, full-rank early exit and block read-ahead dominate",
        scopes=("shapes",),
        ids=(
            "shape-basis/W2(big)/14",
            "shape-combo/st5_2",
            "shape/W2(big)/13",
            "shape/W2(big)/14",
        ),
        entry_points=_SHARED,
    ),
    "cocycles4": Workload(
        why="cohomology, identities, st, conservative, contractions, derivations: "
            "narrow cocycle systems and degree-3/4 nullspaces, not the filter",
        scopes=("cohomology", "identities", "st", "conservative", "contractions",
                "derivations"),
        skip=_COCYCLES4_SKIP,
        entry_points=_SHARED + (
            "cohomology._parallel_blocks",
            "identities.first_violation",
            "conservative.conservative_solve",
            "algebras.derivation_algebra",
            "contraction.iw_contract",
        ),
    ),
}


def select_records(workload: Workload) -> list:
    """The workload's claim records, in registry (claim id) order."""
    records = [r for r in claims.load_claims() if r["scope"] in workload.scopes]
    named = set(workload.skip) | set(workload.ids or ())
    missing = named - {r["id"] for r in records}
    if missing:
        raise ValueError("claims missing from the registry: %s" % sorted(missing))
    if workload.ids is not None:
        records = [r for r in records if r["id"] in workload.ids]
    return [r for r in records if r["id"] not in workload.skip]


def sign_change(seed: int, name: str, dim: int) -> list:
    """Columns of a diagonal matrix of signs, for change_of_basis.

    Seed 0 gives the identity.  Other seeds draw the signs from the seed
    and the algebra's name, so every run with the same seed sees the same
    copies.  The basis order is kept on purpose: a permutation moves the
    rows that fill the first filter block and the first violation, and on
    a 2-core box it changed the time of one degree-5 shape claim between
    3.3 s and 5.2 s from one draw to another.
    """
    signs = [1] * dim
    if seed != 0:
        rng = random.Random("%d/%s" % (seed, name))
        signs = [rng.choice((1, -1)) for _ in range(dim)]
    columns = [[0] * dim for _ in range(dim)]
    for j, s in enumerate(signs):
        columns[j][j] = s
    return columns


class SeededAlgebras:
    """Every algebra a list of claims resolves, built once in set-up.

    ``install`` routes the registry's name resolution to these copies:
    basis-dependent claim kinds get the recorded table, every other kind
    gets the seeded copy.  Claims on one algebra share its copy, so value
    tables are reused between them as in ``nonassoc reproduce``.  Set
    ``current`` to the record of the claim about to run.
    """

    def __init__(self, records, seed: int):
        self._resolve = claims._algebra
        self.recorded = {}
        self.seeded = {}
        self.current = None
        for rec in records:
            for field in _ALGEBRA_FIELDS:
                name = rec.get(field)
                if name is None or name in self.recorded:
                    continue
                a = self.recorded[name] = self._resolve(name)
                self.seeded[name] = change_of_basis(
                    a, sign_change(seed, name, a.dim), name=a.name)

    def lookup(self, name: str):
        if self.current["kind"] in BASIS_DEPENDENT:
            return self.recorded[name]
        return self.seeded[name]

    def install(self):
        """Patch the registry's resolver; returns the undo callable."""
        claims._algebra = self.lookup

        def undo():
            claims._algebra = self._resolve

        return undo
