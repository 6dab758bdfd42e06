"""Exact linear algebra over the rationals.

Everything here works with fractions.Fraction scalars: no rounding, no
tolerances. Subspaces are represented canonically by their reduced
row-echelon basis, so equality of subspaces is equality of objects.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


def parse_rational(s: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction. Rejects zero denominators."""
    text = s.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        if int(den) == 0:
            raise ValueError("zero denominator in rational %r" % s)
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(x: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def _to_fraction_row(row: Iterable) -> list[Fraction]:
    return [x if type(x) is Fraction else Fraction(x) for x in row]


class Matrix:
    """Dense rational matrix, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        if len(entries) != rows * cols:
            raise ValueError(
                "entry count %d does not match %dx%d" % (len(entries), rows, cols)
            )
        self.rows = rows
        self.cols = cols
        self.entries = [x if type(x) is Fraction else Fraction(x) for x in entries]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != m:
                raise ValueError("ragged rows")
        flat: list = []
        for r in rows:
            flat.extend(r)
        return cls(n, m, flat)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        ent = [Fraction(0)] * (n * n)
        for i in range(n):
            ent[i * n + i] = Fraction(1)
        return cls(n, n, ent)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [Fraction(0)] * (rows * cols))

    def row(self, i: int) -> list[Fraction]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_list(self) -> list[list[Fraction]]:
        return [self.row(i) for i in range(self.rows)]

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.entries[i * self.cols + j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.entries)))

    def __repr__(self):
        return "Matrix(%d, %d)" % (self.rows, self.cols)

    def mul_vec(self, v: Sequence) -> list[Fraction]:
        if len(v) != self.cols:
            raise ValueError("vector length %d, expected %d" % (len(v), self.cols))
        vv = _to_fraction_row(v)
        out = []
        for i in range(self.rows):
            base = i * self.cols
            acc = Fraction(0)
            for j, x in enumerate(vv):
                if x:
                    acc += self.entries[base + j] * x
            out.append(acc)
        return out


class RowEchelonBasis:
    """Reduced row-echelon basis of a row space. Canonical per subspace."""

    __slots__ = ("cols", "rows", "pivot_cols")

    def __init__(self, cols: int, rows: Sequence[Sequence], pivot_cols: Sequence[int]):
        self.cols = cols
        self.rows = [tuple(x if type(x) is Fraction else Fraction(x) for x in r) for r in rows]
        self.pivot_cols = tuple(pivot_cols)
        if len(self.rows) != len(self.pivot_cols):
            raise ValueError("pivot count mismatch")
        for r in self.rows:
            if len(r) != cols:
                raise ValueError("row length mismatch")

    @classmethod
    def _from_fractions(cls, cols: int, rows: list, pivot_cols) -> "RowEchelonBasis":
        """Unchecked constructor for the package's own results: rows is
        already a list of tuples of `cols` Fractions, one per pivot."""
        b = cls.__new__(cls)
        b.cols, b.rows, b.pivot_cols = cols, rows, tuple(pivot_cols)
        return b

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RowEchelonBasis)
            and self.cols == other.cols
            and self.pivot_cols == other.pivot_cols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.cols, self.pivot_cols, tuple(self.rows)))

    def __repr__(self):
        return "RowEchelonBasis(cols=%d, rank=%d)" % (self.cols, self.rank)

    def contains(self, vector: Sequence) -> bool:
        """Membership of a vector in the row space."""
        v = _to_fraction_row(vector)
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        for row, p in zip(self.rows, self.pivot_cols):
            c = v[p]
            if c:
                for j in range(p, self.cols):
                    v[j] -= c * row[j]
        return not any(v)


class RankSink:
    """Incremental row accumulator keeping a reduced echelon form.

    Rows are fed one at a time; dependent rows are dropped immediately, so
    memory stays bounded by rank x width however many rows pass through.
    """

    def __init__(self, cols: int):
        self.cols = cols
        self._rows: list[list[Fraction]] = []  # kept in RREF at all times
        self._pivots: list[int] = []

    def feed(self, row: Iterable) -> bool:
        """Reduce one row against the basis; keep it if independent.

        Returns True when the row enlarged the space.
        """
        v = _to_fraction_row(row)
        if len(v) != self.cols:
            raise ValueError("row length %d, expected %d" % (len(v), self.cols))
        for r, p in zip(self._rows, self._pivots):
            c = v[p]
            if c:
                for j in range(p, self.cols):
                    v[j] -= c * r[j]
        pivot = next((j for j, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        inv = Fraction(1) / v[pivot]
        for j in range(pivot, self.cols):
            v[j] *= inv
        # clear the new pivot column in the stored rows
        for r in self._rows:
            c = r[pivot]
            if c:
                for j in range(pivot, self.cols):
                    r[j] -= c * v[j]
        at = next(
            (k for k, p in enumerate(self._pivots) if p > pivot), len(self._pivots)
        )
        self._rows.insert(at, v)
        self._pivots.insert(at, pivot)
        return True

    def feed_many(self, rows: Iterable[Iterable]) -> None:
        for r in rows:
            self.feed(r)

    def rank(self) -> int:
        return len(self._rows)

    def basis(self) -> RowEchelonBasis:
        return RowEchelonBasis(self.cols, [tuple(r) for r in self._rows], self._pivots)

    def nullspace_of_fed_columns(self) -> RowEchelonBasis:
        """Canonical basis of the common kernel of all rows fed so far."""
        return _nullspace_from_rref(self.cols, self._rows, self._pivots)


def _nullspace_from_rref(
    cols: int, rows: Sequence[Sequence[Fraction]], pivots: Sequence[int]
) -> RowEchelonBasis:
    pivot_set = set(pivots)
    free_cols = [j for j in range(cols) if j not in pivot_set]
    raw = []
    for f in free_cols:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, p in zip(rows, pivots):
            v[p] = -r[f]
        raw.append(v)
    # the standard basis is not echelon in general, canonicalize it
    sink = RankSink(cols)
    sink.feed_many(raw)
    return sink.basis()


def rref(m: Matrix) -> RowEchelonBasis:
    """Unique reduced row-echelon basis of the row space of m."""
    sink = RankSink(m.cols)
    for i in range(m.rows):
        sink.feed(m.row(i))
    return sink.basis()


def nullspace(m: Matrix) -> RowEchelonBasis:
    """Canonical basis of the right kernel {v : m v = 0}."""
    sink = RankSink(m.cols)
    for i in range(m.rows):
        sink.feed(m.row(i))
    return sink.nullspace_of_fed_columns()


def solve_particular(m: Matrix, rhs: Sequence):
    """Canonical particular solution of m v = rhs, or None if inconsistent.

    Free variables (under ascending column order) are set to zero.
    """
    if len(rhs) != m.rows:
        raise ValueError("rhs length %d, expected %d" % (len(rhs), m.rows))
    sink = RankSink(m.cols + 1)
    for i in range(m.rows):
        sink.feed(list(m.row(i)) + [Fraction(rhs[i])])
    for row, p in zip(sink._rows, sink._pivots):
        if p == m.cols:
            return None  # pivot in the augmented column
    v = [Fraction(0)] * m.cols
    for row, p in zip(sink._rows, sink._pivots):
        v[p] = row[m.cols]
    return v
