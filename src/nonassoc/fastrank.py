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
   dropped. Each block is taken in panels of _PANEL = 256 rows:
   - one BLAS product reduces the panel against the current RREF;
   - _echelon eliminates the panel's nonzero rows by recursive halving
     (the row rank profile mod p; Jeannerod, Pernet and Storjohann, J.
     Symbolic Comput. 56, 2013): at most _BASE_ROWS = 16 rows are taken
     in order, each row left nonzero normalised and its pivot cleared
     from the other rows by one outer product; more rows are halved, the
     first half is eliminated, one product reduces the second half
     against it, the rows left nonzero are eliminated in turn, and one
     product clears their pivots from the first half's rows;
   - one product, state -= state[:, new pivots] @ new rows, clears the
     new pivots from the old state, and the new rows are appended.
   Each row is reduced against exactly the rows before it, whatever the
   panel, half and block boundaries, so the accepted rows are the greedy
   in-order ones; the state is the unique RREF mod p of their span, its
   rows in insertion order. Every product is exact in float64 (see the
   end of this docstring), and one with a zero left factor is skipped;
   residues come from _mod_p, exact below 2^53 and cheaper than np.mod.

   Blocks carry no zero rows: the identity and cocycle sources drop them
   as they build each block, and a block may end up empty. That changes no
   decision. A zero row's residue is zero, so the filter never accepts
   it, and every candidate annihilates it, so certification never adds
   it. The accepted rows are the same rows in the same order, a block
   that accepts nothing (an empty one included) still does, and no step
   below reads a source block's row count.

   The stream filter reads each block with its columns reversed, so that
   its state is the RREF mod p that stage 2 starts from; a row's
   independence mod p does not depend on the column order, so the same
   rows are accepted.

   Full-rank shortcut: once the filter rank reaches cols, the rest of the
   stream is never read and the answer is rank cols with an empty
   nullspace. The accepted rows are independent mod p, hence over Q, so
   neither the exact stage nor certification runs; the block iterator is
   closed, so a generator source runs its cleanup at once.

2. Exact stage. The filter runs until a block accepts no row, or the
   stream ends. rref_int then takes the RREF of the accepted rows (at
   most `cols` of them) once, columns reversed, on the filter's kernel:
   a ModularFilter over each prime q from _primes leaves the RREF mod q
   as its state. The first candidate's rows are exactly the stream
   filter's accepted rows, and the RREF mod p of a span is unique, so the
   stream filter's state is its result at PRIME, and only later primes
   are eliminated afresh; a candidate made after certification added rows
   eliminates from scratch. A prime dividing a minor can only lower the
   rank or move a pivot right, so primes rank by highest rank, then
   smallest pivot list, and CRT joins only those tying with the best,
   modulo their product M. Rational reconstruction (Wang) over one
   common denominator den lifts the result, kept only if the rows' pivot
   columns times its numerators equal den times the rows; at the pivots,
   where residues 1 and 0 lift to den and 0, that holds, so only the free
   columns are compared (_outside_span). The rows then lie in the span of
   the r lifted rows, in RREF, and have rank >= r (their rank mod q), so
   the lift is their unique RREF, as any exact elimination gives it.
   Otherwise the next prime joins. RREF entries are ratios of minors over
   one common minor, so once M > 2 H^2, H the Hadamard bound of the rows,
   the lift is right and a failure raises.
   rref_int hands on the lift, the RREF being num / den with num an int64
   array, or an object array if an entry does not fit (the CRT residues
   of three or more primes are object, whatever the lift's size). The
   pivot P_i of each row R_i is its last nonzero column in the original
   order, so each free column f gives the null vector
   e_f - sum_i R[i][f] e_{P_i}: 1 at f, zero at every other free column
   and left of f. These vectors already are the canonical RREF of the
   candidate nullspace; no second elimination is needed. nullspace_int
   returns them as primitive integer rows (den at f, -num at the pivots,
   divided by the row's gcd) with the rank and the free columns. A
   Subspace holds a span as its canonical RREF in these integers, and
   makes its Fractions at one boundary, Subspace.basis, when a caller
   reads it, at the nonzero entries only.

   Because rref_int checks its lift against every row it is given, the
   lift is a proof on its own (the modular-then-verify scheme of Dixon,
   Numer. Math. 40, 1982). A system held in memory is solved by one
   rref_int or nullspace_int call; stages 1, 3 and 4 serve the streams.

3. Certification. Each row is checked exactly against the candidate
   nullspace, at the free columns as in stage 2: null row i is 0 at every
   free column but its own (_violating_rows). A violation exposes a row
   the filter dropped wrongly or never saw; at most cols - rank such rows
   join the accepted set, and the exact stage reruns. Each rerun strictly
   increases the exact rank, so the loop terminates; at rank cols the
   streams are closed. One pass checks each block once, against the
   candidate of the moment, in this order: the block the filter stopped
   on (the one that accepted nothing, or the last block if the stream
   ended in the filter), still held; the rest of the stream; the blocks
   before it, streamed again; then the translates of rows that
   certification added (stage 4). Adding rows only shrinks the candidate
   kernel, so a row that annihilates an earlier candidate annihilates
   every later one: when the pass ends, every row of the system has been
   certified against the final candidate, the accepted rows prove
   rank >= r, and the certification proves rank <= r.

4. Symmetries. A caller may name column permutations g under which the
   system's row set is closed: if x is a row, so is x[g]. The source's
   blocks are then read as generators: the system is the set of images of
   their rows under the group G the g generate. After the source's own
   blocks, the translates x[g] of the accepted rows not yet translated
   run through the same loop as further blocks, each the translates of
   max(1, _TRANSLATE_ENTRIES // (cols * len(symmetries))) accepted rows:
   at most 2^22 entries, 624 rows' translates at 1,680 columns under 4
   symmetries, the size of a dense degree-5 identity block on dimension 8
   (2,496 rows). The budget is fixed: sized from the source's blocks, it
   would shrink with their zero rows and stop the filter sooner.
   Translate blocks are filtered mod p while blocks accept rows (the
   closure mod p: translates of rows a translate block accepted follow
   in later blocks), then certified exactly; rows that
   certification adds are translated in turn, and the translate blocks
   the filter alone has seen are rebuilt from the accepted rows when they
   are streamed again. On return the final candidate annihilates every
   source row and every translate of every accepted row. That is a
   complete proof. The accepted rows are genuine rows, since translates
   of rows are rows; they are independent mod p or raised the exact rank,
   so rank >= r. A row the candidate annihilates lies in the span A of
   the accepted rows, since the candidate is their exact nullspace. So A
   contains the source rows and A[g] is in A for each g; with equal
   dimensions A[g] = A, so A is invariant under G and contains every row
   of the system: rank <= r.

Every filter prime (PRIME and all that _primes yields) must be small enough
that every filter product fits float64 exactly: the panel reduction, the
products of _echelon and the state update multiply residues in [0, p) over
an inner dimension of at most 2^13 (cols, or at most 256 rows of a panel),
so with p < 2^20 every accumulated sum, and its difference with a residue,
stays below 2^13 * (p-1)^2 + p < 2^53.

Every other exact integer computation in the package picks its arithmetic
path in one place, _exact_dtypes, from a proven bound on every product and
partial sum: float64 BLAS below 2^53 (each such value is an integer that
float64 holds exactly, in whatever order BLAS sums), int64 below 2^62, and
Python integers from 2^62 or for any object input.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice
from math import gcd, isqrt, lcm
from typing import NamedTuple, Sequence

import numpy as np

from .linalg import RowEchelonBasis

PRIME = 1_048_573  # largest prime below 2^20
_MAX_FILTER_COLS = 8192  # 2^13; keeps float64 dot products exact
_INT64_LIMIT = 2**62  # a proven |entry| bound below this keeps int64 exact
_FLOAT64_LIMIT = 2**53  # a proven |entry| bound below this keeps float64 exact
_PANEL = 256  # filter rows per panel: one reduction and one state update each
_BASE_ROWS = 16  # _echelon eliminates at most this many rows in order, unhalved
_PRODUCT_ROWS = 1024  # block rows per float64 certification product
_TRANSLATE_ENTRIES = 1 << 22  # entries per translate block, at most


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
    rest = range(PRIME - 2, 2, -2)
    return chain((PRIME,), (q for q in rest if all(q % d for d in range(3, isqrt(q) + 1, 2))))


def _int_array(rows, cols: int) -> np.ndarray:
    """rows as an int64 array, or as an object array if an entry does not fit."""
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), cols)
    except OverflowError:
        return np.array(rows, dtype=object).reshape(len(rows), cols)


def _cleared_rows(rows, cols: int) -> tuple[np.ndarray, int]:
    """(ints, den) with rows = ints / den, ints an integer array (_int_array)
    and den the lcm of the entries' reduced denominators; each row must
    have cols entries."""
    fr = [[x if type(x) is int or type(x) is Fraction else Fraction(x) for x in r] for r in rows]
    for r in fr:
        if len(r) != cols:
            raise ValueError("vector length %d, expected %d" % (len(r), cols))
    den = lcm(*(x.denominator for r in fr for x in r))
    return _int_array([[x.numerator * (den // x.denominator) for x in r] for r in fr], cols), den


def _basis_index(i, n: int):
    """i, when it is an integer in 1..n (a bool is not); else ValueError."""
    if type(i) is bool or not isinstance(i, (int, np.integer)) or not 1 <= i <= n:
        raise ValueError("basis index %r is not an integer in 1..%d" % (i, n))
    return i


def _abs_max(x: np.ndarray) -> int:
    return max(int(x.max(initial=0)), -int(x.min(initial=0)))


def _exact_dtypes(bound: int, *arrays) -> tuple:
    """(work, out): the dtypes of an exact integer computation on arrays
    whose every product and partial sum is at most bound in absolute value.
    float64 work below 2^53, int64 below 2^62, each with int64 out; object
    for both from 2^62, or when any of the arrays is object."""
    if bound >= _INT64_LIMIT or any(x.dtype == object for x in arrays):
        return object, object
    return (np.float64 if bound < _FLOAT64_LIMIT else np.int64), np.int64


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


def rref_int(rows, cols: int, filt: ModularFilter | None = None):
    """(pivot_cols, num, den) of an integer matrix, its RREF being num / den
    with num an int64 or object array, from its RREF modulo one prime at a
    time (stage 2 of the module docstring). filt, if given, is a
    ModularFilter at PRIME whose state already is the RREF mod PRIME of the
    rows' span: it stands for the first prime's elimination."""
    a = _int_array(rows, cols)
    amax = _abs_max(a)
    bits = len(a) * (cols * amax * amax).bit_length()  # 2^bits >= H^2
    best = None
    for q in _primes():
        if filt is None or filt.p != q:
            filt = ModularFilter(cols, q)
            filt.filter_block(a)
        key = (-len(filt.pivcols), sorted(filt.pivcols))
        rq = filt.state[np.argsort(filt.pivcols)].astype(np.int64)
        if best is None or key < best:
            best, res, mod = key, rq, q
        elif key == best:
            _work, out = _exact_dtypes(mod * q * isqrt(mod * q), res)  # _lift's res * den
            res, rq = res.astype(out, copy=False), rq.astype(out, copy=False)
            res, mod = res + mod * ((rq - res) * pow(mod, -1, q) % q), mod * q
        else:
            continue
        num, den = _lift(res, mod)
        if den:
            if num.dtype == object:  # res is object from three primes on
                num = _int_array(num, cols)
            if not _outside_span(a, best[1], num, den).size:
                return tuple(best[1]), num, den
        if mod.bit_length() > bits + 1:  # M > 2 H^2: a kept prime is lucky
            raise AssertionError("no verified RREF at a %d-bit modulus" % mod.bit_length())


def _complement(cols, n: int) -> np.ndarray:
    """The ascending indices in range(n) that cols does not list."""
    return np.flatnonzero(np.bincount(np.asarray(cols, dtype=np.intp), minlength=n) == 0)


def _outside_span(x: np.ndarray, pivots, num: np.ndarray, den: int) -> np.ndarray:
    """The rows of the integer array x outside the row space of the RREF num / den."""
    free = _complement(pivots, num.shape[1])
    return _violating_rows(x, pivots, free, num[:, free], den)


def _violating_rows(x: np.ndarray, pivots, free, w: np.ndarray, s) -> np.ndarray:
    """The rows j of the integer array x with x[j, pivots] @ w != x[j, free] * s,
    s an integer or one per column of w, exactly: each side on its own bound's
    path, and a float64 left side, below 2^53, compares exactly with either."""
    xf, s = x[:, free], np.asarray(s)
    right = xf.astype(_exact_dtypes(_abs_max(xf) * _abs_max(s), xf, s)[1], copy=False) * s
    return np.flatnonzero((_exact_products(x[:, pivots], w.T) != right).any(axis=1))


def nullspace_int(rows, cols: int, filt: ModularFilter | None = None):
    """(rank, free, prim) of an integer matrix, all in integers.

    free lists the free columns, ascending; row i of the integer array prim
    is the canonical nullspace basis row of free[i] made primitive: den at
    the free column, -num at the pivots, divided by the row's gcd. The
    basis row itself is prim's row over its (positive) entry at the free
    column; Subspace._kernel holds the span they make. filt, if given, is
    rref_int's: a filter at PRIME holding the RREF mod PRIME of the rows
    with their columns reversed.
    """
    rev_pivots, num, den = rref_int([row[::-1] for row in rows], cols, filt)
    pivots = [cols - 1 - p for p in rev_pivots]
    free = _complement(pivots, cols).tolist()
    prim = np.zeros((len(free), cols), dtype=num.dtype)
    prim[np.arange(len(free)), free] = den
    prim[:, pivots] = -num[:, [cols - 1 - f for f in free]].T
    prim //= np.gcd.reduce(prim, axis=1, keepdims=True)
    if prim.dtype == object:
        prim = _int_array(prim, cols)
    return len(pivots), free, prim


class Subspace:
    """A subspace of coordinate space, held as its canonical RREF: pivot
    columns and rows num / den, gcd(den, num) = 1. Equality and the hash
    come from these, since a canonical RREF is unique."""

    __slots__ = ("ambient", "pivots", "num", "den")

    def __init__(self, ambient: int, vectors: Sequence[Sequence]):
        self._set(ambient, *rref_int(_cleared_rows(vectors, ambient)[0], ambient))

    def _set(self, ambient: int, pivots, num: np.ndarray, den: int) -> "Subspace":
        g = gcd(den, int(np.gcd.reduce(num, axis=None)))
        self.ambient, self.pivots, self.num, self.den = ambient, tuple(pivots), num // g, den // g
        self.num.setflags(write=False)
        return self

    @classmethod
    def _from_rref(cls, ambient: int, pivots, num: np.ndarray, den: int) -> "Subspace":
        return cls.__new__(cls)._set(ambient, pivots, num, den)

    @classmethod
    def _kernel(cls, ambient: int, free, prim: np.ndarray) -> "Subspace":
        """The span of nullspace_int's (free, prim), whose rows over their
        entries at free already are its RREF: den is the lcm of those
        entries, and each row is scaled to it."""
        lead = prim[np.arange(len(free)), free].tolist()
        den = lcm(*lead)
        scale = _int_array([[den // x] for x in lead], 1)
        out = _exact_dtypes(_abs_max(prim) * _abs_max(scale), prim, scale)[1]
        return cls._from_rref(ambient, free, prim.astype(out) * scale, den)

    @classmethod
    def span_of_basis_indices(cls, ambient: int, indices) -> "Subspace":
        """The span of e_i for the 1-based indices i; any other index is a
        ValueError."""
        indices = [_basis_index(i, ambient) for i in indices]
        return cls(ambient, [[int(k == i) for k in range(1, ambient + 1)] for i in indices])

    @property
    def basis(self) -> RowEchelonBasis:
        """The rows num / den as Fractions, made at the nonzero entries only:
        the one place where an answer's Fractions are made."""
        zero = Fraction(0)
        rows = [[zero] * self.ambient for _ in self.pivots]
        ii, jj = np.nonzero(self.num)
        for i, j, x in zip(ii.tolist(), jj.tolist(), self.num[ii, jj].tolist()):
            rows[i][j] = Fraction(x, self.den)
        return RowEchelonBasis._from_fractions(self.ambient, [tuple(r) for r in rows], self.pivots)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def contains(self, vector: Sequence) -> bool:
        x, _den = _cleared_rows([vector], self.ambient)
        return not _outside_span(x, self.pivots, self.num, self.den).size

    def _key(self) -> tuple:
        return self.ambient, self.pivots, self.den, tuple(self.num.ravel().tolist())

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "Subspace(ambient=%d, dim=%d)" % (self.ambient, self.dim)


def _residues(rows: np.ndarray, p: int = PRIME) -> np.ndarray:
    """float64 integers congruent to rows mod p, all in (-p, p).

    Integer entries already in that range are converted as they are;
    anything else is reduced with integer arithmetic first.
    """
    if rows.dtype != object and _abs_max(rows) < p:
        return rows.astype(np.float64)
    return np.mod(rows, p).astype(np.float64)


def _echelon(bm: np.ndarray, p: int):
    """(rows, pivots, reduced) of residue rows bm mod p, each row nonzero.

    rows: the ascending indices of the rows outside the span of the rows
    before them; pivots[i]: the first nonzero column of row rows[i]'s
    residue against them; reduced[i]: 1 at pivots[i], 0 at the other pivots.
    """
    if len(bm) <= _BASE_ROWS:
        return _echelon_in_order(bm, p)
    h = len(bm) // 2
    rows, pivots, top = _echelon(bm[:h], p)
    rest, col = bm[h:], bm[h:, pivots]
    if col.any():
        rest = _mod_p(rest - col @ top, p)
    live = rest.any(axis=1).nonzero()[0]
    if not live.size:
        return rows, pivots, top
    rows2, pivots2, bottom = _echelon(rest[live], p)
    col = top[:, pivots2]  # bottom is 0 at pivots, so top stays 1/0 there
    if col.any():
        top = _mod_p(top - col @ bottom, p)
    live = live.tolist()
    return rows + [h + live[i] for i in rows2], pivots + pivots2, np.concatenate((top, bottom))


def _echelon_in_order(bm: np.ndarray, p: int):
    """_echelon's base case: each row left nonzero, in order, is normalised
    and its pivot cleared from the panel's other rows by one outer product."""
    bm = bm.copy()
    rows, pivots = [], []
    for i in range(len(bm)):
        nz = bm[i].nonzero()[0]
        if not nz.size:
            continue
        pc = int(nz[0])
        bm[i] = _mod_p(bm[i] * float(pow(int(bm[i, pc]), -1, p)), p)
        col = bm[:, pc].copy()
        col[i] = 0
        if col.any():
            bm = _mod_p(bm - np.outer(col, bm[i]), p)
        rows.append(i)
        pivots.append(pc)
    return rows, pivots, bm[rows]


class ModularFilter:
    """Streaming independence filter modulo p (PRIME by default), in float64.

    The RREF state is kept in insertion order (not pivot order); bulk
    reduction only needs each state row to be 1 at its own pivot and 0 at
    every other pivot, which one back-substitution per panel maintains.
    """

    def __init__(self, cols: int, p: int = PRIME):
        if cols > _MAX_FILTER_COLS:
            raise ValueError("filter supports at most %d columns" % _MAX_FILTER_COLS)
        self.cols = cols
        self.p = p
        self._buf = np.zeros((min(cols, 64), cols), dtype=np.float64)
        self.pivcols: list[int] = []

    @property
    def state(self) -> np.ndarray:
        return self._buf[: len(self.pivcols)]

    def filter_block(self, block: np.ndarray) -> list[int]:
        """Indices of rows provably independent of everything seen before.

        Rows are taken in order, one panel of _PANEL rows at a time; the
        block's remaining rows are not looked at once the rank reaches cols.
        """
        p = self.p
        accepted: list[int] = []
        for start in range(0, block.shape[0], _PANEL):
            if len(self.pivcols) == self.cols:
                break
            bm = _residues(block[start:start + _PANEL], p)
            if self.pivcols:
                bm = bm - bm[:, self.pivcols] @ self.state
            bm = _mod_p(bm, p)
            live = bm.any(axis=1).nonzero()[0]
            if live.size:
                rows, pivots, new = _echelon(bm[live], p)
                live = live.tolist()
                accepted += [start + live[i] for i in rows]
                self._extend(new, pivots)
        return accepted

    def _extend(self, new: np.ndarray, pivots: list[int]):
        """Append a panel's accepted rows, 1 at their own pivot and 0 at every
        other pivot, old or new; one product clears the new pivots from the
        state."""
        p, k, r = self.p, len(pivots), len(self.pivcols)
        col = self._buf[:r, pivots]
        if col.any():
            self._buf[:r] = _mod_p(self._buf[:r] - col @ new, p)
        if r + k > self._buf.shape[0]:
            grown = np.zeros((min(self.cols, max(2 * r, r + k)), self.cols), dtype=np.float64)
            grown[:r] = self._buf[:r]
            self._buf = grown
        self._buf[r:r + k] = new
        self.pivcols += pivots

    @property
    def rank_lower_bound(self) -> int:
        return len(self.pivcols)


def _exact_products(block: np.ndarray, null: np.ndarray) -> np.ndarray:
    """block @ null^T computed exactly, for integer arrays block and null,
    on the path _exact_dtypes picks from the proven bound max|block| *
    max|null| * cols on every partial sum. On the float64 path the result
    stays float64, and block is converted _PRODUCT_ROWS rows at a time."""
    work, _out = _exact_dtypes(_abs_max(block) * _abs_max(null) * block.shape[1], block, null)
    if work is np.float64:
        null_t = null.T.astype(np.float64)
        out = np.empty((block.shape[0], len(null)))
        for i in range(0, block.shape[0], _PRODUCT_ROWS):  # bounds the float64 copy
            rows = slice(i, i + _PRODUCT_ROWS)
            np.matmul(block[rows].astype(np.float64), null_t, out=out[rows])
        return out
    return block.astype(work, copy=False) @ null.astype(work, copy=False).T


class _Candidate(NamedTuple):
    """The exact nullspace of the accepted rows, as nullspace_int gives it,
    and what _find_violators reads of it (None at full rank)."""

    rank: int
    free: list
    prim: np.ndarray
    pivots: np.ndarray = None
    w: np.ndarray = None  # -prim[:, pivots].T
    s: np.ndarray = None  # prim[i, free[i]] for each basis row i


def _candidate(accepted: list[np.ndarray], cols: int, prev_rank: int, filt=None) -> _Candidate:
    rank, free, prim = nullspace_int(accepted, cols, filt)
    if rank <= prev_rank:
        raise AssertionError("certification produced no rank growth")
    pivots = _complement(free, cols)
    return _Candidate(rank, free, prim, pivots, -prim[:, pivots].T, prim[range(len(free)), free])


def _find_violators(block: np.ndarray, cand: _Candidate) -> np.ndarray:
    """The block's rows that the candidate basis does not annihilate (stage 3)."""
    return _violating_rows(block, cand.pivots, cand.free, cand.w, cand.s)


def _absorb(block: np.ndarray, cand: _Candidate, accepted: list, cols: int) -> _Candidate:
    """Certify a block exactly against the candidate; rows that violate it
    join the accepted rows, and the new candidate is returned.

    Rows of the block annihilate the candidate, and so every later, smaller
    one, unless they violate it; only violators are rechecked.
    """
    while True:
        bad = _find_violators(block, cand)
        if not bad.size:
            return cand
        k = cols - cand.rank  # no more of them can be independent
        accepted.extend(block[bad[:k]])
        cand = _candidate(accepted, cols, cand.rank)
        if cand.rank == cols:
            return cand
        block = block[bad[k:]]


class _System:
    """The blocks of a system given by a source and column symmetries.

    The stream is the source's blocks, then the translates x[g] of the
    accepted rows x, g in symmetries, read from the accepted list as it
    grows. Each translate block holds the translates of a range of accepted
    rows, at most _TRANSLATE_ENTRIES entries (or one row's translates),
    whatever the source's blocks hold; the ranges are kept, so the blocks
    can be streamed again.
    """

    def __init__(self, cols: int, block_source, symmetries, accepted: list):
        self.cols = cols
        self.block_source = block_source
        self.symmetries = [np.asarray(g) for g in symmetries]
        self.accepted = accepted
        self.spans: list[tuple[int, int]] = []  # accepted-row range per translate block
        # accepted rows per translate block
        self.step = max(1, _TRANSLATE_ENTRIES // max(1, cols * len(self.symmetries)))

    def _translate(self, span) -> np.ndarray:
        rows = _int_array(self.accepted[span[0]:span[1]], self.cols)
        return np.concatenate([rows[:, g] for g in self.symmetries])

    def stream(self):
        """Source blocks, then translate blocks until every accepted row has
        been translated."""
        yield from self.block_source()  # closing the stream closes the source
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
    """(candidate, accepted rows) of a streamed integer system.

    The filter-certify loop behind every certified_* entry point; unless
    the rank is cols, the accepted rows span the row space of the whole
    system on return. Blocks go through the filter until one accepts no
    row or the stream ends; the block it stopped on is still held. One
    loop then checks each of these blocks once, exactly, against the
    candidate of the moment: that block, the rest of the stream, the
    blocks before it streamed again, and the translates of the rows
    certification added. It stops early at rank cols.
    """
    filt = ModularFilter(cols)
    accepted: list[np.ndarray] = []  # rows of integer arrays
    system = _System(cols, block_source, symmetries, accepted)
    blocks, replay = system.stream(), system.replay()
    held, filtered = (), 0  # the block the filter stopped on; the blocks before it
    try:
        for filtered, block in enumerate(blocks):
            # columns reversed, so the state is what nullspace_int eliminates
            rows = filt.filter_block(block[:, ::-1])
            accepted.extend(block[rows])
            if filt.rank_lower_bound == cols:
                # the accepted rows are independent outright
                return _Candidate(cols, [], np.zeros((0, cols), dtype=np.int64)), accepted
            held = (block,)
            if not rows:
                break
        cand = _candidate(accepted, cols, -1, filt)  # the filter spans accepted
        for block in chain(held, blocks, islice(replay, filtered), system.translates()):
            cand = _absorb(block, cand, accepted, cols)
            if cand.rank == cols:
                break
        return cand, accepted
    finally:
        blocks.close()  # a generator source runs its cleanup at once
        replay.close()


def certified_nullspace(cols: int, block_source, symmetries=()):
    """Exact (rank, nullspace basis) of a streamed integer row system.

    block_source is a zero-argument callable returning a fresh iterable of
    2-d integer numpy arrays, the system's rows; a block may be empty.
    Every call must yield the same blocks in the same order: it is called
    at most twice, once for
    the filter and once to replay the blocks the filter alone has seen,
    and either pass may stop early (the iterator is then closed): the
    replay reads only the blocks before the one the filter stopped on.

    symmetries lists column permutations g (index arrays of length cols)
    under which the system's row set is closed: if x is a row, so is x[g].
    The blocks then need only generate the system: its rows are the images
    of the blocks' rows under the group the g generate.
    """
    null = _certified_kernel(cols, block_source, symmetries)
    return cols - null.dim, null.basis


def _certified_kernel(cols: int, block_source, symmetries=()) -> Subspace:
    """certified_nullspace's nullspace as a span, before any Fraction."""
    cand, _accepted = _certify(cols, block_source, symmetries)
    return Subspace._kernel(cols, cand.free, cand.prim)


def certified_rank(cols: int, block_source, symmetries=()) -> int:
    return _certify(cols, block_source, symmetries)[0].rank


def certified_rowspace(cols: int, block_source, symmetries=()):
    """Exact (rank, RowEchelonBasis of the row space) of a streamed system:
    once certification ends, the accepted rows span it, and their RREF is
    the canonical answer; at full rank it is the identity."""
    cand, accepted = _certify(cols, block_source, symmetries)
    if cand.rank == cols:
        return cols, Subspace._from_rref(cols, range(cols), np.eye(cols, dtype=np.int64), 1).basis
    return cand.rank, Subspace._from_rref(cols, *rref_int(accepted, cols)).basis
