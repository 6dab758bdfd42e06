"""Certified rank and nullspace for large integer systems.

The systems here are very tall (up to a few hundred thousand rows) but
narrow (at most a few thousand columns), with integer entries. Doing exact
rational elimination row by row is far too slow, so the computation runs in
three stages:

1. Filter. Rows are reduced modulo a fixed prime against an RREF kept in
   float64. A row whose residue is nonzero is provably independent (over
   Q) of the rows accepted before it: a rational dependency among integer
   rows scales to a primitive integer dependency, which survives reduction
   mod p because not all of its coefficients can be divisible by p. Rows
   that reduce to zero mod p are merely *suspected* dependent and are
   dropped. Each block is taken in chunks of max(2 * cols, 512) rows: one
   BLAS product reduces a chunk against the current RREF, and the
   per-pivot loop then runs over that chunk's surviving rows only, so the
   accepted rows are the greedy in-order ones whatever the chunking.
   Residues come from _mod_p, x - p * trunc(x * (1/p)) plus one
   conditional correction each way, which is exact for |x| < 2^53 (see
   _mod_p) and far cheaper than np.mod.

   Full-rank shortcut: once the filter rank reaches cols, the rest of the
   stream is never read and the answer is rank cols with an empty
   nullspace. The accepted rows are independent mod p, hence over Q, so
   neither the exact stage nor certification runs; the block iterator is
   closed, and a parallel source cancels its queued builds.

2. Exact stage. The filter runs until a block accepts no row, or the
   stream ends. The accepted rows (at most `cols` of them) then go through
   fraction-free integer elimination once, with the columns reversed.
   The pivot P_i of each row of that RREF is its last nonzero column in
   the original order, so each free column f gives the null vector
   e_f - sum_i R[i][f] e_{P_i}, whose leading entry is the 1 at f and
   which is zero at every other free column. These vectors already are
   the canonical RREF of the candidate nullspace; no second elimination
   is needed.

3. Certification. Each row is multiplied against the candidate nullspace
   exactly (float64 BLAS when a proven bound keeps every partial sum below
   2^53). A nonzero product exposes a row the filter dropped wrongly or
   never saw; at most cols - rank such rows join the accepted set, and the
   exact stage reruns. Each rerun strictly increases the exact rank, so
   the loop terminates; at rank cols the stream is closed.
   - In-stream: the block that accepted nothing, and every block after
     it, skip the filter and are certified against the candidate as they
     arrive.
   - Final pass: only the leading blocks that the filter alone has seen
     are streamed again, and the stream is closed after them.
   Adding rows only shrinks the candidate kernel, so a row that
   annihilates an earlier candidate annihilates every later one: when no
   row violates the final candidate, every row of the system has been
   certified against it, the accepted rows prove rank >= r, and the
   certification proves rank <= r.

PRIME must be small enough that a full reduction fits float64 exactly:
with p < 2^20 and at most 2^13 pivot columns, every accumulated dot product
stays below 2^13 * (p-1)^2 < 2^53.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from typing import NamedTuple

import numpy as np

from .linalg import RowEchelonBasis

PRIME = 1_048_573  # largest prime below 2^20
_MAX_FILTER_COLS = 8192  # 2^13; keeps float64 dot products exact
_INT64_LIMIT = 2**62  # a proven |entry| bound below this keeps int64 exact
_FLOAT64_LIMIT = 2**53  # a proven |entry| bound below this keeps float64 exact
_MIN_CHUNK = 512  # filter rows per BLAS reduction, whatever the width
_PRODUCT_ROWS = 1024  # block rows per float64 certification product
_INV_PRIME = 1.0 / PRIME


def _mod_p(x: np.ndarray) -> np.ndarray:
    """x mod PRIME, in [0, PRIME), for a float64 array of integers below 2^53.

    The computed quotient x * (1/PRIME) is within |x| * 2^-52 / PRIME of
    x / PRIME, so its truncation q is off by at most one and |q * PRIME|
    <= |x| + 1 <= 2^53: the product and the difference are exact, x - q *
    PRIME lies in [-PRIME, PRIME], and one conditional +PRIME and one
    -PRIME bring it into range. A new array is returned; x is unchanged.
    """
    r = x * _INV_PRIME
    np.trunc(r, out=r)
    r *= -PRIME
    r += x
    np.add(r, PRIME, out=r, where=r < 0)
    np.subtract(r, PRIME, out=r, where=r >= PRIME)
    return r


def _content_reduce(row: list) -> list:
    g = 0
    for v in row:
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return [v // g for v in row]
    return row


def echelon_int(rows, cols: int):
    """Fraction-free forward elimination over the integers.

    Returns (pivot_cols, echelon_rows) with echelon rows sorted by pivot
    column and content-reduced. Inserting rows out of arrival order is
    sound: every stored row is zero left of its own pivot.
    """
    piv = []  # sorted list of (pivot_col, row)
    for raw in rows:
        row = [int(v) for v in raw]
        for pc, prow in piv:
            c = row[pc]
            if c:
                lead = prow[pc]
                row = [a * lead - c * b for a, b in zip(row, prow)]
        p = next((j for j, v in enumerate(row) if v), None)
        if p is None:
            continue
        row = _content_reduce(row)
        lo = 0
        while lo < len(piv) and piv[lo][0] < p:
            lo += 1
        piv.insert(lo, (p, row))
    return tuple(p for p, _ in piv), [r for _, r in piv]


def _backward_eliminate(pivots, rows):
    """Clear entries above each pivot, keeping integer rows."""
    rows = [list(r) for r in rows]
    for i in range(len(rows) - 1, -1, -1):
        pc = pivots[i]
        lead = rows[i][pc]
        for u in range(i):
            c = rows[u][pc]
            if c:
                rows[u] = [a * lead - c * b for a, b in zip(rows[u], rows[i])]
                rows[u] = _content_reduce(rows[u])
    return rows


def rref_int(rows, cols: int):
    """(pivot_cols, RREF rows as Fraction tuples) of an integer matrix."""
    pivots, ech = echelon_int(rows, cols)
    ech = _backward_eliminate(pivots, ech)
    out = []
    for pc, row in zip(pivots, ech):
        lead = row[pc]
        out.append(tuple(Fraction(v, lead) for v in row))
    return pivots, out


def nullspace_int(rows, cols: int):
    """(rank, canonical nullspace basis, primitive integer basis rows).

    The third element carries the same basis rows scaled to primitive
    integer vectors, for exact certification products. Clearing the
    denominators of an RREF row (leading entry 1) leaves it primitive.
    """
    rev_pivots, rref = rref_int([row[::-1] for row in rows], cols)
    pivots = [cols - 1 - p for p in rev_pivots]
    pivset = set(pivots)
    free = [f for f in range(cols) if f not in pivset]
    zero, one = Fraction(0), Fraction(1)
    null_rows, prim = [], []
    for f in free:
        v = [zero] * cols
        v[f] = one
        entries = []
        for pc, row in zip(pivots, rref):
            x = row[cols - 1 - f]
            if x:
                v[pc] = -x
                entries.append((pc, x))
        den = lcm(*(x.denominator for _, x in entries))
        w = [0] * cols
        w[f] = den
        for pc, x in entries:
            w[pc] = -x.numerator * (den // x.denominator)
        null_rows.append(v)
        prim.append(w)
    return len(pivots), RowEchelonBasis(cols, null_rows, free), prim


def _residues(rows: np.ndarray) -> np.ndarray:
    """float64 integers congruent to rows mod PRIME, all in (-PRIME, PRIME).

    Integer entries already in that range are converted as they are (the
    conversion is monotone, so the range check on the result is exact);
    anything else is reduced with integer arithmetic first.
    """
    if rows.dtype != object:
        out = rows.astype(np.float64)
        if max(out.max(initial=0.0), -out.min(initial=0.0)) < PRIME:
            return out
    return np.mod(rows, PRIME).astype(np.float64)


class ModularFilter:
    """Streaming independence filter modulo PRIME, reductions in float64.

    The RREF state is kept in insertion order (not pivot order); bulk
    reduction only needs each state row to be 1 at its own pivot and 0 at
    every other pivot, which back-substitution maintains.
    """

    def __init__(self, cols: int):
        if cols > _MAX_FILTER_COLS:
            raise ValueError("filter supports at most %d columns" % _MAX_FILTER_COLS)
        self.cols = cols
        self._buf = np.zeros((min(cols, 64), cols), dtype=np.float64)
        self.pivcols: list[int] = []
        self._chunk = max(2 * cols, _MIN_CHUNK)

    @property
    def state(self) -> np.ndarray:
        return self._buf[: len(self.pivcols)]

    def _insert(self, res: np.ndarray):
        """Normalize res, back-substitute the state, append. Returns (pivot, row)."""
        pc = int(np.nonzero(res)[0][0])
        inv = pow(int(res[pc]), -1, PRIME)
        newrow = _mod_p(res * float(inv))
        newrow[pc] = 1.0
        r = len(self.pivcols)
        if r:
            col = self._buf[:r, pc].copy()
            if col.any():
                self._buf[:r] = _mod_p(self._buf[:r] - np.outer(col, newrow))
        if r == self._buf.shape[0]:
            grown = np.zeros((min(self.cols, 2 * r), self.cols), dtype=np.float64)
            grown[:r] = self._buf
            self._buf = grown
        self._buf[r] = newrow
        self.pivcols.append(pc)
        return pc, newrow

    def filter_block(self, block: np.ndarray) -> list[int]:
        """Indices of rows provably independent of everything seen before.

        Rows are taken in order, one chunk at a time; the block's remaining
        rows are not looked at once the rank reaches cols.
        """
        accepted: list[int] = []
        for start in range(0, block.shape[0], self._chunk):
            if len(self.pivcols) == self.cols:
                break
            bm = _residues(block[start:start + self._chunk])
            if self.pivcols:
                bm = bm - bm[:, self.pivcols] @ self.state
            bm = _mod_p(bm)
            live = np.nonzero(bm.any(axis=1))[0]
            while live.size:
                r = int(live[0])
                accepted.append(start + r)
                pc, newrow = self._insert(bm[r])
                live = live[1:]
                coef = bm[live, pc]
                hit = np.nonzero(coef)[0]
                if hit.size:
                    rows = live[hit]
                    bm[rows] = _mod_p(bm[rows] - np.outer(coef[hit], newrow))
                    live = live[bm[live].any(axis=1)]
        return accepted

    @property
    def rank_lower_bound(self) -> int:
        return len(self.pivcols)


def _exact_products(block: np.ndarray, null_rows: list[list[int]], nmax: int) -> np.ndarray:
    """block @ null^T computed exactly; nmax bounds |entry| of null_rows.

    A proven bound bmax * nmax * cols on every partial sum picks the path:
    float64 BLAS below 2^53 (every product then is an exact integer held in
    float64), int64 below 2^62, Python integers otherwise.
    """
    cols = block.shape[1]
    if block.dtype != object:
        bmax = max(int(block.max(initial=0)), -int(block.min(initial=0)))
        if bmax == 0:
            return np.zeros((block.shape[0], len(null_rows)), dtype=np.int64)
        bound = bmax * nmax * cols
        if bound < _FLOAT64_LIMIT:
            null_t = np.array(null_rows, dtype=np.float64).T
            out = np.empty((block.shape[0], len(null_rows)))
            for i in range(0, block.shape[0], _PRODUCT_ROWS):  # bounds the float64 copy
                rows = slice(i, i + _PRODUCT_ROWS)
                np.matmul(block[rows].astype(np.float64), null_t, out=out[rows])
            return out
        if bound < _INT64_LIMIT:
            return block @ np.array(null_rows, dtype=np.int64).T
    return block.astype(object) @ np.array(null_rows, dtype=object).T


def _close(blocks):
    close = getattr(blocks, "close", None)
    if close is not None:
        close()  # a generator source cancels the builds still queued


class _Candidate(NamedTuple):
    """The exact nullspace of the accepted rows: their rank, its canonical
    basis, the same rows as primitive integer vectors, and the largest
    |entry| of those."""

    rank: int
    basis: RowEchelonBasis
    prim: list
    nmax: int


def _candidate(accepted: list[list[int]], cols: int, prev_rank: int) -> _Candidate:
    rank, basis, prim = nullspace_int(accepted, cols)
    if rank <= prev_rank:
        raise AssertionError("certification produced no rank growth")
    return _Candidate(rank, basis, prim, max((abs(v) for r in prim for v in r), default=0))


def _violating_rows(block: np.ndarray, cand: _Candidate) -> np.ndarray:
    """Indices of the block's rows not annihilated by the candidate basis."""
    prod = _exact_products(block, cand.prim, cand.nmax)
    nz = prod.astype(bool) if prod.dtype == object else prod != 0
    return np.nonzero(nz.any(axis=1))[0]


def _certify(cols: int, block_source):
    """(rank, nullspace basis, accepted rows) of a streamed integer system.

    The filter-certify loop behind every certified_* entry point; unless
    the rank is cols, the accepted rows span the row space of the whole
    system on return. Blocks go through the filter until one accepts no
    row; from that block on, each block is certified exactly against the
    candidate as it arrives, and a final pass re-streams only the blocks
    before it.
    """
    filt = ModularFilter(cols)
    accepted: list[list[int]] = []
    filtered = 0  # leading blocks that only the filter has seen
    cand = None  # the exact candidate, once a block accepts no row
    blocks = iter(block_source())
    try:
        for block in blocks:
            if cand is None:
                rows = filt.filter_block(block)
                accepted.extend([int(v) for v in block[r]] for r in rows)
                if filt.rank_lower_bound == cols:
                    # the accepted rows are independent outright
                    return cols, RowEchelonBasis(cols, [], []), accepted
                if rows:
                    filtered += 1
                    continue
                cand = _candidate(accepted, cols, -1)
            # Rows of this block annihilate the candidate, and so every later,
            # smaller one, unless they violate it; only violators are rechecked.
            while True:
                bad = _violating_rows(block, cand)
                if not bad.size:
                    break
                k = cols - cand.rank  # no more of them can be independent
                accepted.extend([int(v) for v in block[r]] for r in bad[:k])
                cand = _candidate(accepted, cols, cand.rank)
                if cand.rank == cols:
                    return cols, cand.basis, accepted
                block = block[bad[k:]]
    finally:
        _close(blocks)
    if cand is None:  # every block accepted rows
        cand = _candidate(accepted, cols, -1)
    while cand.prim and filtered:  # re-stream the blocks only the filter has seen
        violators = _find_violators(block_source, cand, filtered)
        if not violators:
            break
        accepted.extend(violators)
        cand = _candidate(accepted, cols, cand.rank)
    return cand.rank, cand.basis, accepted


def _find_violators(block_source, cand: _Candidate, nblocks: int) -> list[list[int]]:
    """Up to cols - rank rows among the first nblocks streamed blocks that
    the candidate basis does not annihilate; the stream is closed after them."""
    violators: list[list[int]] = []
    blocks = iter(block_source())
    try:
        for block in islice(blocks, nblocks):
            for r in _violating_rows(block, cand):
                violators.append([int(v) for v in block[r]])
                if len(violators) == len(cand.prim):
                    return violators
    finally:
        _close(blocks)
    return violators


def certified_nullspace(cols: int, block_source):
    """Exact (rank, nullspace basis) of a streamed integer row system.

    block_source is a zero-argument callable returning a fresh iterable of
    2-d integer numpy arrays, the system's rows. Every call must yield the
    same blocks in the same order: it is called once for the filter pass
    and once per final certification pass, and a pass may stop early (the
    iterator is then closed) because a final pass reads only the leading
    blocks that accepted rows.
    """
    rank, basis, _accepted = _certify(cols, block_source)
    return rank, basis


def certified_rank(cols: int, block_source) -> int:
    return _certify(cols, block_source)[0]


def certified_rowspace(cols: int, block_source):
    """Exact (rank, RowEchelonBasis of the row space) of a streamed system.

    Once certification ends, the accepted rows span the full row space and
    their RREF is the canonical answer; at full rank it is the identity.
    """
    rank, _basis, accepted = _certify(cols, block_source)
    if rank == cols:
        identity = [[int(i == j) for j in range(cols)] for i in range(cols)]
        return rank, RowEchelonBasis(cols, identity, range(cols))
    pivots, rref = rref_int(accepted, cols)
    return rank, RowEchelonBasis(cols, rref, pivots)
