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
   Residues come from _mod_p, exact below 2^53 and cheaper than np.mod.

   Full-rank shortcut: once the filter rank reaches cols, the rest of the
   stream is never read and the answer is rank cols with an empty
   nullspace. The accepted rows are independent mod p, hence over Q, so
   neither the exact stage nor certification runs; the block iterator is
   closed, so a generator source runs its cleanup at once.

2. Exact stage. The filter runs until a block accepts no row, or the
   stream ends. rref_int then takes the RREF of the accepted rows (at
   most `cols` of them) once, columns reversed, on the filter's kernel:
   a ModularFilter over each prime q from _primes leaves the RREF mod q
   as its state. A prime dividing a minor can only lower the rank or move
   a pivot right, so primes rank by highest rank, then smallest pivot
   list, and CRT joins only those tying with the best, modulo their
   product M. Rational reconstruction (Wang) over one common denominator
   den lifts the result, kept only if the rows' pivot columns times its
   numerators equal den times the rows: the rows then lie in the span of
   the r lifted rows, which are in RREF, and have rank >= r (their rank
   mod q), so the lift is their unique RREF, byte-identical to that of
   any exact elimination. Otherwise the next prime joins. RREF entries
   are ratios of minors over one common minor, so once M > 2 H^2, H the
   Hadamard bound of the rows, the lift is right and a failure raises.
   rref_int hands on the lift as it is, the RREF being num / den with num
   an int64 (or object) array. The pivot P_i of each row R_i is its last
   nonzero column in the original order, so each free column f gives the
   null vector e_f - sum_i R[i][f] e_{P_i}: 1 at f and zero at every
   other free column. These vectors already are the canonical RREF of the
   candidate nullspace; no second elimination is needed. nullspace_int
   builds them as one integer array (den at f, -num at the pivots,
   divided by the row's gcd) for certification, and makes Fractions only
   at the boundary: at the nonzero entries of the basis it returns.

3. Certification. Each row is multiplied against the candidate nullspace
   exactly (float64 BLAS when a proven bound keeps every partial sum below
   2^53). A nonzero product exposes a row the filter dropped wrongly or
   never saw; at most cols - rank such rows join the accepted set, and the
   exact stage reruns. Each rerun strictly increases the exact rank, so
   the loop terminates; at rank cols the stream is closed.
   - In-stream: from the block that accepted nothing on, blocks skip the
     filter and are certified against the candidate as they arrive.
   - In place: if the stream ends while every block has accepted rows,
     the last block is still held; it is certified against the first
     candidate where it is, and the translates of its violators follow.
   - Final pass: only the leading blocks that the filter alone has seen,
     the held block excepted, are streamed again, and the stream is
     closed after them.
   Adding rows only shrinks the candidate kernel, so a row that
   annihilates an earlier candidate annihilates every later one: when no
   row violates the final candidate, every row of the system has been
   certified against it, the accepted rows prove rank >= r, and the
   certification proves rank <= r.

4. Symmetries. A caller may name column permutations g under which the
   system's row set is closed: if x is a row, so is x[g]. The source's
   blocks are then read as generators: the system is the set of images
   of their rows under the group G the g generate. After the source's
   own blocks, the translates x[g] of the accepted rows not yet
   translated run through the same loop as further blocks, each no
   larger than the largest source block. They are filtered mod p while
   blocks accept rows (the closure mod p: translates of rows a translate
   block accepted follow in later blocks), then certified exactly; rows
   that certification adds are translated in turn, and the final pass
   rebuilds the translate blocks the filter alone has seen from the
   accepted rows. On return the final candidate annihilates every source
   row and every translate of every accepted row. That is a complete
   proof. The accepted rows are genuine rows, since translates of rows
   are rows; they are independent mod p or raised the exact rank, so
   rank >= r. A row the candidate annihilates lies in the span A of the
   accepted rows, since the candidate is their exact nullspace. So A
   contains the source rows and A[g] is in A for each g; with equal
   dimensions A[g] = A, so A is invariant under G and contains every
   row of the system: rank <= r.

Every filter prime (PRIME and all that _primes yields) must be small enough
that a full reduction fits float64 exactly: with p < 2^20 and at most 2^13
pivot columns, every accumulated dot product stays below 2^13 * (p-1)^2 < 2^53.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice
from math import isqrt
from typing import NamedTuple

import numpy as np

from .linalg import RowEchelonBasis

PRIME = 1_048_573  # largest prime below 2^20
_MAX_FILTER_COLS = 8192  # 2^13; keeps float64 dot products exact
_INT64_LIMIT = 2**62  # a proven |entry| bound below this keeps int64 exact
_FLOAT64_LIMIT = 2**53  # a proven |entry| bound below this keeps float64 exact
_MIN_CHUNK = 512  # filter rows per BLAS reduction, whatever the width
_PRODUCT_ROWS = 1024  # block rows per float64 certification product


def _mod_p(x: np.ndarray, p: int = PRIME) -> np.ndarray:
    """x mod p, in [0, p), for a float64 array of integers below 2^53; p < 2^20.

    The computed quotient x * (1/p) is within |x| * 2^-52 / p of x / p, so
    its truncation q is off by at most one and |q * p| <= |x| + 1 <= 2^53:
    the product and the difference are exact, x - q * p lies in [-p, p],
    and one conditional +p and one -p bring it into range. A new array is
    returned; x is unchanged.
    """
    r = x * (1.0 / p)
    np.trunc(r, out=r)
    r *= -p
    r += x
    np.add(r, p, out=r, where=r < 0)
    np.subtract(r, p, out=r, where=r >= p)
    return r


def _primes():
    """PRIME, then every smaller odd prime in descending order."""
    return (q for q in range(PRIME, 2, -2) if all(q % d for d in range(3, isqrt(q) + 1, 2)))


def _int_array(rows, cols: int) -> np.ndarray:
    """rows as an int64 array, or as an object array if an entry does not fit."""
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), cols)
    except OverflowError:
        return np.array(rows, dtype=object).reshape(len(rows), cols)


def _abs_max(x: np.ndarray) -> int:
    return max(int(x.max(initial=0)), -int(x.min(initial=0)))


def _lift(res: np.ndarray, mod: int):
    """(num, den) with num = den * res mod `mod` and every |num| and den at
    most sqrt(mod / 2), by rational reconstruction; den is 0 if none."""
    bound = isqrt((mod - 1) // 2)
    den = 1
    while den <= bound:
        num = res * den % mod
        bad = np.flatnonzero((num > bound) & (num < mod - bound))
        if not bad.size:
            return np.where(num > bound, num - mod, num), den
        r0, r1, t0, t1 = mod, int(num.flat[bad[0]]), 0, 1
        while r1 > bound:  # half-extended Euclid: t1 * u = r1 (mod `mod`)
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        den *= abs(t1)
    return None, 0


def rref_int(rows, cols: int):
    """(pivot_cols, num, den) of an integer matrix, its RREF being num / den
    with num an int64 or object array, from its RREF modulo one prime at a
    time (stage 2 of the module docstring)."""
    a = _int_array(rows, cols)
    amax = _abs_max(a)
    bits = len(a) * (cols * amax * amax).bit_length()  # 2^bits >= H^2
    best = None
    for q in _primes():
        filt = ModularFilter(cols, q)
        filt.filter_block(a)
        key = (-len(filt.pivcols), sorted(filt.pivcols))
        rq = filt.state[np.argsort(filt.pivcols)].astype(np.int64)
        if best is None or key < best:
            best, res, mod = key, rq, q
        elif key == best:
            if mod * q * isqrt(mod * q) >= _INT64_LIMIT:  # _lift's res * den
                res, rq = res.astype(object), rq.astype(object)
            res, mod = res + mod * ((rq - res) * pow(mod, -1, q) % q), mod * q
        else:
            continue
        num, den = _lift(res, mod)
        if den:
            want = a * den if den * amax < _INT64_LIMIT else a.astype(object) * den
            if np.array_equal(_exact_products(a[:, best[1]], num.T), want):
                return tuple(best[1]), num, den
        if mod.bit_length() > bits + 1:  # M > 2 H^2: a kept prime is lucky
            raise AssertionError("no verified RREF at a %d-bit modulus" % mod.bit_length())


def nullspace_int(rows, cols: int):
    """(rank, canonical nullspace basis, primitive integer basis rows).

    The third element is the same basis as one array of primitive integer
    rows, for exact certification products: den at the free column, -num
    at the pivots, divided by the row's gcd. Each basis row is that row
    over its (positive) entry at the free column, so Fractions are made
    only at its nonzero pivot entries.
    """
    rev_pivots, num, den = rref_int([row[::-1] for row in rows], cols)
    pivots = [cols - 1 - p for p in rev_pivots]
    pivset = set(pivots)
    free = [f for f in range(cols) if f not in pivset]
    prim = np.zeros((len(free), cols), dtype=num.dtype)
    prim[np.arange(len(free)), free] = den
    prim[:, pivots] = -num[:, [cols - 1 - f for f in free]].T
    prim //= np.gcd.reduce(prim, axis=1, keepdims=True)
    if prim.dtype == object:
        prim = _int_array(prim, cols)
    zero, one = Fraction(0), Fraction(1)
    null_rows = [[zero] * cols for _ in free]
    for row, f in zip(null_rows, free):
        row[f] = one
    at_free = prim[np.arange(len(free)), free].tolist()
    at_pivots = prim[:, pivots]
    ii, jj = np.nonzero(at_pivots)
    for i, j, x in zip(ii.tolist(), jj.tolist(), at_pivots[ii, jj].tolist()):
        null_rows[i][pivots[j]] = Fraction(x, at_free[i])
    basis = RowEchelonBasis._from_fractions(cols, [tuple(r) for r in null_rows], free)
    return len(pivots), basis, prim


def _residues(rows: np.ndarray, p: int = PRIME) -> np.ndarray:
    """float64 integers congruent to rows mod p, all in (-p, p).

    Integer entries already in that range are converted as they are;
    anything else is reduced with integer arithmetic first.
    """
    if rows.dtype != object and _abs_max(rows) < p:
        return rows.astype(np.float64)
    return np.mod(rows, p).astype(np.float64)


class ModularFilter:
    """Streaming independence filter modulo p (PRIME by default), in float64.

    The RREF state is kept in insertion order (not pivot order); bulk
    reduction only needs each state row to be 1 at its own pivot and 0 at
    every other pivot, which back-substitution maintains.
    """

    def __init__(self, cols: int, p: int = PRIME):
        if cols > _MAX_FILTER_COLS:
            raise ValueError("filter supports at most %d columns" % _MAX_FILTER_COLS)
        self.cols = cols
        self.p = p
        self._buf = np.zeros((min(cols, 64), cols), dtype=np.float64)
        self.pivcols: list[int] = []
        self._chunk = max(2 * cols, _MIN_CHUNK)

    @property
    def state(self) -> np.ndarray:
        return self._buf[: len(self.pivcols)]

    def _insert(self, res: np.ndarray):
        """Normalize res, back-substitute the state, append. Returns (pivot, row)."""
        pc = int(np.nonzero(res)[0][0])
        inv = pow(int(res[pc]), -1, self.p)
        newrow = _mod_p(res * float(inv), self.p)
        newrow[pc] = 1.0
        r = len(self.pivcols)
        if r:
            col = self._buf[:r, pc].copy()
            if col.any():
                self._buf[:r] = _mod_p(self._buf[:r] - np.outer(col, newrow), self.p)
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
            bm = _residues(block[start:start + self._chunk], self.p)
            if self.pivcols:
                bm = bm - bm[:, self.pivcols] @ self.state
            bm = _mod_p(bm, self.p)
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
                    bm[rows] = _mod_p(bm[rows] - np.outer(coef[hit], newrow), self.p)
                    live = live[bm[live].any(axis=1)]
        return accepted

    @property
    def rank_lower_bound(self) -> int:
        return len(self.pivcols)


def _exact_products(block: np.ndarray, null: np.ndarray) -> np.ndarray:
    """block @ null^T computed exactly, for integer arrays block and null.

    A proven bound max|block| * max|null| * cols on every partial sum picks
    the path: float64 BLAS below 2^53 (every product then is an exact
    integer held in float64), int64 below 2^62, Python integers otherwise.
    """
    if block.dtype != object and null.dtype != object:
        bound = _abs_max(block) * _abs_max(null) * block.shape[1]
        if bound < _FLOAT64_LIMIT:
            null_t = null.T.astype(np.float64)
            out = np.empty((block.shape[0], len(null)))
            for i in range(0, block.shape[0], _PRODUCT_ROWS):  # bounds the float64 copy
                rows = slice(i, i + _PRODUCT_ROWS)
                np.matmul(block[rows].astype(np.float64), null_t, out=out[rows])
            return out
        if bound < _INT64_LIMIT:
            return block @ null.T
    return block.astype(object) @ null.astype(object).T


def _close(blocks):
    close = getattr(blocks, "close", None)
    if close is not None:
        close()  # a generator source runs its cleanup at once


class _Candidate(NamedTuple):
    """The exact nullspace of the accepted rows: their rank, its canonical
    basis, and the same rows as primitive integer vectors in one array."""

    rank: int
    basis: RowEchelonBasis
    prim: np.ndarray


def _candidate(accepted: list[list[int]], cols: int, prev_rank: int) -> _Candidate:
    rank, basis, prim = nullspace_int(accepted, cols)
    if rank <= prev_rank:
        raise AssertionError("certification produced no rank growth")
    return _Candidate(rank, basis, prim)


def _violating_rows(block: np.ndarray, cand: _Candidate) -> np.ndarray:
    """Indices of the block's rows not annihilated by the candidate basis."""
    prod = _exact_products(block, cand.prim)
    nz = prod.astype(bool) if prod.dtype == object else prod != 0
    return np.nonzero(nz.any(axis=1))[0]


def _absorb(block: np.ndarray, cand: _Candidate, accepted: list, cols: int) -> _Candidate:
    """Certify a block exactly against the candidate; rows that violate it
    join the accepted rows, and the new candidate is returned.

    Rows of the block annihilate the candidate, and so every later, smaller
    one, unless they violate it; only violators are rechecked.
    """
    while True:
        bad = _violating_rows(block, cand)
        if not bad.size:
            return cand
        k = cols - cand.rank  # no more of them can be independent
        accepted.extend([int(v) for v in block[r]] for r in bad[:k])
        cand = _candidate(accepted, cols, cand.rank)
        if cand.rank == cols:
            return cand
        block = block[bad[k:]]


class _System:
    """The blocks of a system given by a source and column symmetries.

    The stream is the source's blocks, then the translates x[g] of the
    accepted rows x, g in symmetries, read from the accepted list as it
    grows. Each translate block holds the translates of a range of accepted
    rows, no more rows than the largest source block (or one row's
    translates); the ranges are kept, so the blocks can be streamed again.
    """

    def __init__(self, cols: int, block_source, symmetries, accepted: list):
        self.cols = cols
        self.block_source = block_source
        self.symmetries = [np.asarray(g) for g in symmetries]
        self.accepted = accepted
        self.spans: list[tuple[int, int]] = []  # accepted-row range per translate block
        self.step = 1  # accepted rows per translate block

    def _translate(self, span) -> np.ndarray:
        rows = _int_array(self.accepted[span[0]:span[1]], self.cols)
        return np.concatenate([rows[:, g] for g in self.symmetries])

    def stream(self):
        """Source blocks, then translate blocks until every accepted row has
        been translated."""
        blocks = iter(self.block_source())
        try:
            for block in blocks:
                if self.symmetries:
                    self.step = max(self.step, len(block) // len(self.symmetries))
                yield block
        finally:
            _close(blocks)
        yield from self.translates()

    def translates(self):
        """Translate blocks of the accepted rows not translated yet."""
        done = self.spans[-1][1] if self.spans else 0
        while self.symmetries and done < len(self.accepted):
            span = (done, min(len(self.accepted), done + self.step))
            self.spans.append(span)
            yield self._translate(span)
            done = span[1]

    def replay(self):
        """The blocks streamed so far, in the same order."""
        yield from self.block_source()
        for span in self.spans:
            yield self._translate(span)


def _certify(cols: int, block_source, symmetries=()):
    """(rank, nullspace basis, accepted rows) of a streamed integer system.

    The filter-certify loop behind every certified_* entry point; unless
    the rank is cols, the accepted rows span the row space of the whole
    system on return. Blocks go through the filter until one accepts no
    row; from that block on, each block is certified exactly against the
    candidate as it arrives, and a final pass re-streams only the blocks
    before it. If the stream ends in the filter, its last block, still
    held, is certified in place and only the blocks before it are
    streamed again. With symmetries, translates of the accepted rows
    follow the source's blocks through the same loop.
    """
    filt = ModularFilter(cols)
    accepted: list[list[int]] = []
    system = _System(cols, block_source, symmetries, accepted)
    filtered = 0  # leading blocks that only the filter has seen
    cand = None  # the exact candidate, once a block accepts no row
    blocks = system.stream()
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
            cand = _absorb(block, cand, accepted, cols)
            if cand.rank == cols:
                return cols, cand.basis, accepted
    finally:
        blocks.close()  # a generator source runs its cleanup at once
    pending = ()  # blocks to certify as they come
    if cand is None:  # every block accepted rows
        cand = _candidate(accepted, cols, -1)
        if filtered:  # the last one is still held: certify it in place
            filtered -= 1
            pending = chain([block], system.translates())
    while True:
        for block in pending:
            cand = _absorb(block, cand, accepted, cols)
            if cand.rank == cols:
                return cols, cand.basis, accepted
        if not filtered:
            break
        # re-stream the blocks only the filter has seen
        violators = _find_violators(system.replay, cand, filtered)
        if not violators:
            break
        accepted.extend(violators)
        cand = _candidate(accepted, cols, cand.rank)
        pending = system.translates()  # of the violators
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


def certified_nullspace(cols: int, block_source, symmetries=()):
    """Exact (rank, nullspace basis) of a streamed integer row system.

    block_source is a zero-argument callable returning a fresh iterable of
    2-d integer numpy arrays, the system's rows. Every call must yield the
    same blocks in the same order: it is called once for the filter pass
    and once per final certification pass, and a pass may stop early (the
    iterator is then closed) because a final pass reads only the leading
    blocks that accepted rows.

    symmetries lists column permutations g (index arrays of length cols)
    under which the system's row set is closed: if x is a row, so is x[g].
    The blocks then need only generate the system: its rows are the images
    of the blocks' rows under the group the g generate.
    """
    rank, basis, _accepted = _certify(cols, block_source, symmetries)
    return rank, basis


def certified_rank(cols: int, block_source, symmetries=()) -> int:
    return _certify(cols, block_source, symmetries)[0]


def certified_rowspace(cols: int, block_source, symmetries=()):
    """Exact (rank, RowEchelonBasis of the row space) of a streamed system.

    Once certification ends, the accepted rows span the full row space and
    their RREF is the canonical answer; at full rank it is the identity.
    """
    rank, _basis, accepted = _certify(cols, block_source, symmetries)
    if rank == cols:
        identity = [[int(i == j) for j in range(cols)] for i in range(cols)]
        return rank, RowEchelonBasis(cols, identity, range(cols))
    pivots, num, den = rref_int(accepted, cols)
    zero = Fraction(0)
    rows = [tuple(Fraction(v, den) if v else zero for v in r) for r in num.tolist()]
    return rank, RowEchelonBasis._from_fractions(cols, rows, pivots)
