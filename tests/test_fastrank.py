import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonassoc import fastrank
from nonassoc.fastrank import (
    PRIME,
    ModularFilter,
    _mod_p,
    _primes,
    certified_nullspace,
    certified_rank,
    certified_rowspace,
    null_basis,
    nullspace_int,
    rref_int,
)
from nonassoc.identities import _parallel_blocks
from nonassoc.linalg import Matrix, nullspace, rref


def _blocks_of(arr, step):
    def source():
        return [arr[i:i + step] for i in range(0, len(arr), step)]
    return source


SECOND_PRIME = list(islice(_primes(), 2))[1]


def exact_rank(arr):
    return rref(Matrix.from_rows([[int(x) for x in row] for row in arr])).rank


def _orbit(rows, symmetries):
    """Every row reachable from the given rows by maps x -> x[g], g in
    symmetries: the fully expanded system, for the oracle."""
    seen = {tuple(int(v) for v in row) for row in rows}
    todo = list(seen)
    while todo:
        x = todo.pop()
        for g in symmetries:
            y = tuple(x[i] for i in g)
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return sorted(seen)


def test_prime_is_prime_and_small_enough():
    assert sympy.isprime(PRIME)
    # the float64 filter needs cols * (p-1)^2 < 2^53 for exact accumulation
    assert 8192 * (PRIME - 1) ** 2 < 2 ** 53
    # so do the primes of the exact stage
    first = list(islice(_primes(), 20))
    assert first[0] == PRIME and len(set(first)) == 20
    assert all(sympy.isprime(q) and q < 2 ** 20 for q in first)


@pytest.mark.parametrize("rows", [
    [[1, 1], [1, 1 + PRIME]],  # PRIME lowers the rank
    [[PRIME, 1]],  # PRIME moves the pivot right
    [[SECOND_PRIME, 1]],  # a later prime, needed for the lift, moves it right
    [[1, PRIME + 1]],  # the lift from PRIME alone looks valid but is wrong
    [[3 ** 40, 1]],  # 1/3^40 needs several primes; 3^40 lies in [2^63, 2^64)
    [[2 ** 71, 3, 5], [2 ** 72 + 1, 7, 0], [3 * 2 ** 71 + 1, 10, 5]],  # dependent, object
    [[0, 0, 0], [0, 0, 0]],
])
def test_rref_int_matches_the_fraction_oracle(rows):
    oracle = rref(Matrix.from_rows(rows))
    pivots, num, den = rref_int(rows, len(rows[0]))
    got = [tuple(Fraction(v, den) for v in row) for row in num.tolist()]
    assert (pivots, got) == (oracle.pivot_cols, oracle.rows)


def test_certified_rank_random_matrices():
    rng = random.Random(3)
    for _ in range(30):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 10)
        arr = np.array(
            [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rows)],
            dtype=np.int64)
        assert certified_rank(cols, _blocks_of(arr, 4)) == exact_rank(arr)


def test_certified_rank_survives_modular_false_zeros():
    # rows that vanish mod PRIME but not over the rationals
    arr = np.array([
        [PRIME, 0, 0],
        [0, PRIME, PRIME],
        [2 * PRIME, 3 * PRIME, 0],
    ], dtype=np.int64)
    assert certified_rank(3, _blocks_of(arr, 2)) == 3


def test_certified_rank_modular_rank_drop():
    # second row is PRIME times the first: dependent mod p, independent exactly
    arr = np.array([[1, 2], [PRIME, 2 * PRIME + 1]], dtype=np.int64)
    assert certified_rank(2, _blocks_of(arr, 1)) == 2


def test_certified_nullspace_annihilates():
    rng = random.Random(5)
    for _ in range(15):
        cols = rng.randint(1, 7)
        arr = np.array(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(10)],
            dtype=np.int64)
        rank, null = certified_nullspace(cols, _blocks_of(arr, 3))
        assert rank == exact_rank(arr)
        assert null.rank == cols - rank
        m = Matrix.from_rows([[int(x) for x in row] for row in arr])
        for vec in null.rows:
            assert m.mul_vec(vec) == [Fraction(0)] * m.rows
        assert null == nullspace(m)


def test_certified_rowspace_equals_exact_row_space():
    rng = random.Random(9)
    for _ in range(15):
        cols = rng.randint(1, 7)
        arr = np.array(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(8)],
            dtype=np.int64)
        rank, basis = certified_rowspace(cols, _blocks_of(arr, 3))
        oracle = rref(Matrix.from_rows([[int(x) for x in r] for r in arr]))
        assert rank == oracle.rank == basis.rank
        for row in arr:
            assert basis.contains([int(x) for x in row])
        for row in basis.rows:
            assert oracle.contains(row)
        assert basis == oracle


def test_block_partition_irrelevant():
    arr = np.array(
        [[(-1) ** (i + j) * (i * 7 + j) for j in range(6)] for i in range(9)],
        dtype=np.int64)
    want = exact_rank(arr)
    for step in (1, 2, 3, 9):
        assert certified_rank(6, _blocks_of(arr, step)) == want


SIZES = ("small", "above_2_31", "above_2_63", "object")


@st.composite
def adversarial_systems(draw, sizes=SIZES):
    """(integer rows, cols, block size) built to trip the modular filter and
    the int64 product bound: rows that vanish mod PRIME, rows that agree
    with another row mod PRIME, scaled unit rows (full rank over Q, zero
    mod PRIME), entries above 2^31, and object arrays with entries in
    [2^63, 2^64) or above 2^70."""
    cols = draw(st.integers(1, 5))
    row = st.lists(st.integers(-1000, 1000), min_size=cols, max_size=cols)
    rows = draw(st.lists(row, min_size=1, max_size=8))
    for i in range(len(rows)):
        kind = draw(st.sampled_from(["plain", "plain", "times_p", "drop_mod_p"]))
        if kind == "times_p":
            rows[i] = [PRIME * x for x in rows[i]]
        elif kind == "drop_mod_p":
            base = rows[draw(st.integers(0, len(rows) - 1))]
            rows[i] = [x + PRIME * draw(st.integers(-3, 3)) for x in base]
    if draw(st.booleans()):
        rows += [[PRIME * (j == i) for j in range(cols)] for i in range(cols)]
    dtype = np.int64
    size = draw(st.sampled_from(sizes))
    if size != "small":
        big = draw(st.integers(0, len(rows) - 1))
        if size == "above_2_63":
            rows[big] = [2**63 + (x + 1000) * 2**40 for x in rows[big]]
        else:
            scale = 2**33 if size == "above_2_31" else 2**70
            rows[big] = [scale * x + 1 for x in rows[big]]
        if size != "above_2_31":
            dtype = object
    step = draw(st.integers(1, len(rows)))
    # none, one or two column permutations; the rows then generate a system
    symmetries = [np.array(g) for g in draw(st.lists(st.permutations(range(cols)), max_size=2))]
    return np.array(rows, dtype=dtype), cols, step, symmetries


@settings(max_examples=150, deadline=None)
@given(adversarial_systems())
def test_certified_rank_agrees_with_fraction_oracle(system):
    arr, cols, step, symmetries = system
    _assert_oracle_answers(_blocks_of(arr, step)(), cols, symmetries)


@pytest.mark.parametrize("size", SIZES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_nullspace_int_rows_are_the_basis_rows_made_primitive(size, data):
    arr, cols, _step, _symmetries = data.draw(adversarial_systems([size]))
    m = Matrix.from_rows(arr.tolist())
    rank, free, prim = nullspace_int(arr.tolist(), cols)
    basis = null_basis(cols, free, prim)
    assert (rank, basis) == (rref(m).rank, nullspace(m))
    assert list(basis.pivot_cols) == free
    assert prim.shape == (len(basis.rows), cols)
    for f, row, w in zip(basis.pivot_cols, basis.rows, prim.tolist()):
        assert gcd(*w) == 1 and w[f] > 0  # f, the pivot, is the free column
        scale = lcm(*(x.denominator for x in row))
        assert w == [x * scale for x in row]


@pytest.mark.parametrize("bound, work, out", [
    (2**53 - 1, np.float64, np.int64),
    (2**53, np.int64, np.int64),
    (2**62 - 1, np.int64, np.int64),
    (2**62, object, object),
])
def test_exact_dtypes_switch_paths_at_2_53_and_2_62(bound, work, out):
    small, big = np.zeros(2, dtype=np.int64), np.zeros(2, dtype=object)
    assert fastrank._exact_dtypes(bound, small) == (work, out)
    assert fastrank._exact_dtypes(bound) == (work, out)
    # any object array takes the object path, whatever the bound
    assert fastrank._exact_dtypes(0, small, big) == (object, object)


def test_full_rank_and_one_column_systems():
    unit = np.array([[PRIME * (i == j) for j in range(4)] for i in range(4)], dtype=np.int64)
    rank, null = certified_nullspace(4, _blocks_of(unit, 1))
    assert rank == 4 and null.rows == []
    assert certified_rowspace(4, _blocks_of(unit, 1))[1] == rref(Matrix.identity(4))
    column = np.array([[0], [PRIME], [3]], dtype=np.int64)
    assert certified_nullspace(1, _blocks_of(column, 1)) == (1, nullspace(Matrix.identity(1)))
    zero = np.zeros((3, 1), dtype=np.int64)
    rank, null = certified_nullspace(1, _blocks_of(zero, 2))
    assert rank == 0 and null.rows == [(Fraction(1),)]


def test_mod_p_matches_np_mod():
    edge = 2**53 - 1
    bound = 8192 * (PRIME - 1) ** 2  # the filter's largest |dot product|
    values = [0, 1, -1, PRIME - 1, PRIME, PRIME + 1, -PRIME, -PRIME - 1, 7 * PRIME,
              -7 * PRIME, edge, -edge, edge - 1, -(edge - 1), bound, -bound, bound + PRIME,
              -bound - PRIME + 1]
    values += [edge - k for k in range(0, 4 * PRIME, 997)]
    values += [-edge + k for k in range(0, 4 * PRIME, 991)]
    values += [PRIME * q + r for q in (-(2**32), -3, 2, 2**32) for r in (-2, -1, 0, 1, 2)]
    rng = np.random.default_rng(0)
    x = np.concatenate([np.array(values, dtype=np.float64),
                        rng.integers(-edge, edge, size=10_000).astype(np.float64)])
    assert np.all(np.abs(x) <= edge)
    before = x.copy()
    got = _mod_p(x)
    assert np.array_equal(got, np.mod(x, PRIME))
    assert got.min() >= 0 and got.max() < PRIME
    assert np.array_equal(x, before)  # the input is left alone
    q = list(islice(_primes(), 20))[-1]  # a prime of the exact stage
    got = _mod_p(x, q)
    assert np.array_equal(got, np.mod(x, q))
    assert got.min() >= 0 and got.max() < q


def _greedy_mod_p(rows, p=PRIME):
    """(indices, RREF) of the rows outside the mod-p span of the rows
    before them, one row at a time with Python integers; the RREF maps each
    pivot column, in insertion order, to its row."""
    pivots = {}  # pivot column -> row with a 1 there
    accepted = []
    for i, raw in enumerate(rows):
        row = [int(v) % p for v in raw]
        for pc, prow in pivots.items():
            c = row[pc]
            if c:
                row = [(a - c * b) % p for a, b in zip(row, prow)]
        pc = next((j for j, v in enumerate(row) if v), None)
        if pc is None:
            continue
        inv = pow(row[pc], -1, p)
        row = [v * inv % p for v in row]
        for q, qrow in pivots.items():
            c = qrow[pc]
            if c:
                pivots[q] = [(a - c * b) % p for a, b in zip(qrow, row)]
        pivots[pc] = row
        accepted.append(i)
    return accepted, pivots


@st.composite
def filter_streams(draw, panel):
    """(rows, cols, block lengths): mostly dependent rows, up to cols + 2
    fresh ones at drawn positions (dozens in one panel when cols is wide),
    rows congruent to 0 or to earlier rows mod PRIME, cut into blocks
    shorter than, equal to or longer than one panel."""
    cols = draw(st.integers(1, 64))
    total = draw(st.sampled_from([3, panel - 1, panel, panel + 1, 2 * panel + 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.zeros((total, cols), dtype=np.int64)
    nfresh = min(total, draw(st.integers(0, cols + 2)))
    fresh = set(rng.choice(total, size=nfresh, replace=False).tolist())
    basis = []
    for i in range(total):
        if i in fresh or not basis:
            row = rng.integers(-PRIME, PRIME, size=cols)
        else:
            coef = rng.integers(-3, 4, size=len(basis))
            row = coef @ np.array(basis)
            kind = rng.integers(0, 4)
            if kind == 0:
                row = row * PRIME
            elif kind == 1:
                row = row + PRIME * rng.integers(-2, 3, size=cols)
        rows[i] = row
        basis.append(row % PRIME)
        basis = basis[-3:]
    cuts = sorted(draw(st.lists(st.integers(1, total - 1), max_size=2))) if total > 1 else []
    return rows, cols, cuts


def _assert_greedy(stream):
    rows, cols, cuts = stream
    filt = ModularFilter(cols)
    got = []
    edges = [0] + cuts + [len(rows)]
    for lo, hi in zip(edges, edges[1:]):
        got += [lo + r for r in filt.filter_block(rows[lo:hi])]
    accepted, rref = _greedy_mod_p(rows)
    assert got == accepted
    assert filt.rank_lower_bound == len(got)
    assert filt.pivcols == list(rref)
    by_pivot = filt.state[np.argsort(filt.pivcols)]
    assert by_pivot.tolist() == [rref[pc] for pc in sorted(rref)]


@settings(max_examples=60, deadline=None)
@given(filter_streams(fastrank._PANEL))
def test_filter_block_accepts_the_greedy_rows(stream):
    _assert_greedy(stream)


@settings(max_examples=60, deadline=None)
@given(filter_streams(3))
def test_filter_block_accepts_the_greedy_rows_across_small_panels(stream):
    """Three-row panels: ranks spanning several panels, and full rank
    reached in the middle of a panel."""
    with mock.patch.object(fastrank, "_PANEL", 3):
        _assert_greedy(stream)


@settings(max_examples=40, deadline=None)
@given(filter_streams(3))
def test_filter_block_accepts_the_greedy_rows_halving_to_single_rows(stream):
    """Three-row panels halved down to one row each: the halving path, which
    the default base case never reaches on panels this small."""
    with mock.patch.object(fastrank, "_PANEL", 3), mock.patch.object(fastrank, "_BASE_ROWS", 1):
        _assert_greedy(stream)


@st.composite
def echelon_panels(draw):
    """(residue rows, p): 1-40 nonzero rows mod a small prime or PRIME, many
    of them combinations of earlier rows, so that they reduce to zero."""
    p = draw(st.sampled_from([7, 13, PRIME]))
    cols = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dependent = draw(st.sampled_from([0.3, 0.7, 0.95]))  # share of combinations
    rows = []
    for _ in range(draw(st.integers(1, 40))):
        if rows and rng.random() < dependent:
            coef = rng.integers(0, p, size=len(rows))
            row = coef @ np.array(rows) % p
        else:
            row = rng.integers(0, p, size=cols) * (rng.random(cols) < 0.6)
        if row.any():
            rows.append(row)
    rows = rows or [np.eye(1, cols, dtype=np.int64)[0]]
    return np.array(rows, dtype=np.float64), p


@pytest.mark.parametrize("base", [1, 2, fastrank._BASE_ROWS])
@settings(max_examples=60, deadline=None)
@given(echelon_panels())
def test_echelon_matches_the_greedy_oracle(base, panel):
    bm, p = panel
    accepted, oracle = _greedy_mod_p(bm.astype(np.int64).tolist(), p)
    before = bm.copy()
    with mock.patch.object(fastrank, "_BASE_ROWS", base):
        rows, pivots, reduced = fastrank._echelon(bm, p)
    assert rows == accepted and pivots == list(oracle)
    assert reduced.tolist() == [oracle[pc] for pc in pivots]
    assert np.array_equal(bm, before)  # the panel is left alone


def test_full_rank_stops_the_stream():
    pulled, closed = [], []
    unit = np.eye(3, dtype=np.int64)

    def blocks():
        try:
            for i in range(5):
                pulled.append(i)
                yield unit if i == 0 else np.ones((2, 3), dtype=np.int64)
        finally:
            closed.append(True)

    stream = blocks()  # held here, so only an explicit close() ends it
    assert certified_nullspace(3, lambda: stream)[0] == 3
    assert pulled == [0] and closed == [True]


def test_full_rank_closes_an_iterator_source():
    """A source that is an iterator object, not a generator, is closed too
    when full rank stops the stream."""

    class Blocks:
        def __init__(self):
            self.pulled, self.closed = 0, False

        def __iter__(self):
            return self

        def __next__(self):
            self.pulled += 1
            return np.eye(3, dtype=np.int64) if self.pulled == 1 else np.ones((2, 3), np.int64)

        def close(self):
            self.closed = True

    source = Blocks()
    assert certified_nullspace(3, lambda: source)[0] == 3
    assert source.pulled == 1 and source.closed


def test_full_rank_on_the_first_block_builds_no_other():
    built = []

    def build(r):
        built.append(r)
        return np.eye(4, dtype=np.int64) if r == 0 else np.ones((3, 4), dtype=np.int64)

    stream = _parallel_blocks(list(range(40)), build)
    rank, null = certified_nullspace(4, lambda: stream)
    assert rank == 4 and null.rows == []
    assert built == [0]


@pytest.mark.parametrize("k", [2, 3])
def test_full_rank_cancels_queued_builds(k):
    # full rank is reached on block k - 1; no later block is ever built
    built = []
    unit = np.eye(4, dtype=np.int64)
    parts = np.array_split(unit, k)

    def build(r):
        built.append(r)
        return parts[r] if r < k else np.ones((3, 4), dtype=np.int64)

    stream = _parallel_blocks(list(range(40)), build)
    rank, null = certified_nullspace(4, lambda: stream)
    assert rank == 4 and null.rows == []
    assert built == list(range(k))


class CountingSource:
    """A block source that records how many blocks each pass pulls and
    whether the pass's stream was closed."""

    def __init__(self, blocks):
        self.blocks = blocks
        self.pulls = []
        self.closed = []

    def __call__(self):
        k = len(self.pulls)
        self.pulls.append(0)
        self.closed.append(False)

        def stream():
            try:
                for block in self.blocks:
                    self.pulls[k] += 1
                    yield block
            finally:
                self.closed[k] = True

        return stream()


def _assert_oracle_answers(blocks, cols, symmetries=()):
    """Rank, nullspace and row space of the system the blocks generate
    agree with the Fraction oracle on its expanded orbit, and the source is
    streamed at most twice; returns the counting source of the
    certified_nullspace call."""
    m = Matrix.from_rows(_orbit([row for block in blocks for row in block], symmetries))
    oracle_rows, oracle_null = rref(m), nullspace(m)
    assert certified_rank(cols, CountingSource(blocks), symmetries) == oracle_rows.rank
    source = CountingSource(blocks)
    assert certified_nullspace(cols, source, symmetries) == (oracle_rows.rank, oracle_null)
    rowspace = certified_rowspace(cols, CountingSource(blocks), symmetries)
    assert rowspace == (oracle_rows.rank, oracle_rows)
    # once for the filter, once to replay the blocks only the filter saw
    assert len(source.pulls) <= 2 and all(source.closed)
    return source


@st.composite
def saturating_streams(draw):
    """(blocks, cols): a first block of drawn rows, a second block of integer
    combinations of them (which the filter accepts nothing from), then
    blocks of more combinations, one of which also holds PRIME times a drawn
    row: zero mod PRIME, nonzero over Q unless the drawn row is zero."""
    cols = draw(st.integers(2, 6))
    row = st.lists(st.integers(-9, 9), min_size=cols, max_size=cols)
    base = np.array(draw(st.lists(row, min_size=1, max_size=cols - 1)), dtype=np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def combos(k):
        return rng.integers(-3, 4, size=(k, len(base))) @ base

    hidden = PRIME * np.array([draw(row)], dtype=np.int64)
    blocks = [base, combos(3), combos(2), combos(2)]
    at = draw(st.integers(2, 3))
    blocks[at] = np.vstack([blocks[at][:1], hidden, blocks[at][1:]])
    return blocks, cols


@settings(max_examples=80, deadline=None)
@given(saturating_streams())
def test_zero_mod_p_row_after_saturation_is_caught_in_stream(system):
    blocks, cols = system
    source = _assert_oracle_answers(blocks, cols)
    # Only the blocks before the one the filter stopped on are streamed
    # again (the first, unless it is zero); later blocks were certified as
    # they came.
    pre_switch = 1 if blocks[0].any() else 0
    assert all(pulled == pre_switch for pulled in source.pulls[1:])
    assert all(source.closed)


def _filters_built(monkeypatch):
    """The primes of the ModularFilters built from now on, in order."""
    built = []
    init = ModularFilter.__init__

    def spy(self, cols, p=PRIME):
        built.append(p)
        init(self, cols, p)

    monkeypatch.setattr(ModularFilter, "__init__", spy)
    return built


@pytest.mark.parametrize("seed", range(4))
def test_a_system_without_violators_is_eliminated_once_at_prime(seed, monkeypatch):
    # the stream filter's state stands for the first candidate's elimination
    # at PRIME, so no second filter is built at PRIME, and the candidate is
    # the one nullspace_int computes from scratch
    rng = np.random.default_rng(seed)
    cols = 5 + seed
    base = rng.integers(-9, 10, size=(cols - 2, cols))
    arr = rng.integers(-3, 4, size=(30, len(base))) @ base
    built = _filters_built(monkeypatch)
    with mock.patch.object(fastrank, "_candidate", wraps=fastrank._candidate) as spy:
        cand, accepted = fastrank._certify(cols, _blocks_of(arr, 7))
    assert spy.call_count == 1 and built.count(PRIME) == 1
    rank, free, prim = nullspace_int(accepted, cols)
    assert cand.rank == rank == cols - 2 and cand.free == free
    assert np.array_equal(cand.prim, prim)


@contextmanager
def _handed_filters():
    """rref_int checking every filter handed to it against a fresh
    elimination of its rows at PRIME; yields the row counts handed."""
    handed, rref = [], fastrank.rref_int

    def checked(rows, cols, filt=None):
        if filt is not None:
            fresh = ModularFilter(cols)
            fresh.filter_block(fastrank._int_array(rows, cols))
            assert filt.p == PRIME and filt.pivcols == fresh.pivcols
            assert np.array_equal(filt.state, fresh.state)
            handed.append(len(rows))
        return rref(rows, cols, filt)

    with mock.patch.object(fastrank, "rref_int", checked):
        yield handed


def test_a_candidate_after_a_violator_eliminates_from_scratch():
    # (0, 0, 1, 1) arrives after the filter stopped and is independent mod
    # PRIME, so the stream filter's state no longer spans the accepted rows:
    # only the first candidate of each call takes it
    blocks = [
        np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=np.int64),
        np.array([[2, 3, 0, 0]], dtype=np.int64),  # accepts nothing
        np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=np.int64),  # a violator
    ]
    with _handed_filters() as handed:
        _assert_oracle_answers(blocks, 4)
    assert handed == [2, 2, 2]


@settings(max_examples=80, deadline=None)
@given(adversarial_systems())
def test_a_handed_filter_always_spans_the_rows_it_is_handed_with(system):
    arr, cols, step, symmetries = system
    with _handed_filters():
        _assert_oracle_answers(_blocks_of(arr, step)(), cols, symmetries)


def test_a_lift_joining_three_primes_is_checked_in_int64():
    # RREF entries of 31 and 32 bits need about 2^64 for the lift: three
    # joined primes, whose CRT residues are object; the lift itself fits
    # int64, so no product of the check takes the object path
    rng = random.Random(3)
    rows = [[rng.randint(-1500, 1500) for _ in range(5)] for _ in range(3)]
    lifts, products = [], []
    lift, exact_products = fastrank._lift, fastrank._exact_products

    def lift_spy(res, mod):
        lifts.append(res.dtype)
        return lift(res, mod)

    def products_spy(block, null):
        out = exact_products(block, null)
        products.append(out.dtype)
        return out

    with mock.patch.object(fastrank, "_lift", lift_spy), \
            mock.patch.object(fastrank, "_exact_products", products_spy):
        pivots, num, den = rref_int(rows, 5)
    assert object in lifts and num.dtype == np.int64
    assert products and products.count(object) == 0
    oracle = rref(Matrix.from_rows(rows))
    assert (pivots, [tuple(Fraction(v, den) for v in r) for r in num.tolist()]) == (
        oracle.pivot_cols, oracle.rows)


def test_a_block_after_one_that_accepted_nothing_raises_the_rank():
    blocks = [
        np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=np.int64),
        np.array([[2, 3, 0, 0]], dtype=np.int64),  # accepts nothing
        np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=np.int64),  # rank 3
        np.array([[1, 1, 2, 2]], dtype=np.int64),
    ]
    source = _assert_oracle_answers(blocks, 4)
    assert source.pulls == [4, 1] and all(source.closed)


def test_a_violator_found_on_replay_is_not_streamed_again():
    # (1, p, 0) is (1, 0, 0) mod PRIME, so the filter drops it and stops on
    # the second block; replaying the first block finds it, and no third
    # pass follows
    blocks = [np.array([[1, 0, 0], [1, PRIME, 0]], dtype=np.int64),
              np.array([[2, 0, 0]], dtype=np.int64)]
    source = _assert_oracle_answers(blocks, 3)
    assert source.pulls == [2, 1] and source.closed == [True, True]


def test_a_violator_block_that_reaches_full_rank_ends_the_stream():
    blocks = [
        np.array([[1, 0, 0], [0, 1, 0]], dtype=np.int64),
        np.array([[1, 1, 0]], dtype=np.int64),  # accepts nothing
        np.array([[0, 0, PRIME]], dtype=np.int64),  # zero mod p: found exactly
        np.array([[1, 2, 3]], dtype=np.int64),
    ]
    source = _assert_oracle_answers(blocks, 3)
    assert source.pulls == [3] and source.closed == [True]


def test_full_rank_needs_no_exact_elimination(monkeypatch):
    import nonassoc.fastrank as fastrank

    def refuse(*args):
        raise AssertionError("exact elimination at full rank")

    rng = np.random.default_rng(11)
    arr = rng.integers(-9, 10, size=(9, 5))
    m = Matrix.from_rows(arr.tolist())
    oracle_rows, oracle_null = rref(m), nullspace(m)
    assert oracle_rows.rank == 5
    monkeypatch.setattr(fastrank, "nullspace_int", refuse)
    monkeypatch.setattr(fastrank, "rref_int", refuse)
    for step in (1, 4, 9):
        blocks = [arr[i:i + step] for i in range(0, len(arr), step)]
        assert certified_rank(5, CountingSource(blocks)) == 5
        assert certified_nullspace(5, CountingSource(blocks)) == (5, oracle_null)
        source = CountingSource(blocks)
        assert certified_rowspace(5, source) == (5, oracle_rows)
        assert len(source.pulls) == 1 and source.closed == [True]


@settings(max_examples=60, deadline=None)
@given(adversarial_systems())
def test_a_one_block_system_is_streamed_once(system):
    arr, cols, _step, _symmetries = system
    m = Matrix.from_rows(arr.tolist())
    oracle_rows, oracle_null = rref(m), nullspace(m)
    sources = [CountingSource([arr]) for _ in range(3)]
    assert certified_rank(cols, sources[0]) == oracle_rows.rank
    assert certified_nullspace(cols, sources[1]) == (oracle_rows.rank, oracle_null)
    assert certified_rowspace(cols, sources[2]) == (oracle_rows.rank, oracle_rows)
    # the block the stream ends on is certified while it is still held
    assert all(s.pulls == [1] and s.closed == [True] for s in sources)


@pytest.mark.parametrize("rows, pulls", [
    ([[[1, 0, 0], [0, 0, PRIME]]], [1]),
    ([[[1, 0, 0, 0]], [[0, 0, 1, 0], [0, 0, 0, PRIME]]], [2, 1]),
])
def test_a_row_zero_mod_p_in_the_last_filtered_block_is_caught_in_place(rows, pulls):
    # every block accepts a row, so the stream ends in the filter; the
    # PRIME row, independent over Q only, is in the block it ends on, which
    # is certified where it is and not streamed again
    blocks = [np.array(block, dtype=np.int64) for block in rows]
    source = _assert_oracle_answers(blocks, len(rows[0][0]))
    assert source.pulls == pulls and all(source.closed)


def test_a_violator_in_the_last_translate_block_is_caught():
    # x[g] = (1 + p, 1, 0) is x mod PRIME: the translate block accepts
    # nothing and is certified as it comes, and its violator reaches full
    # rank, so it is the last block streamed
    blocks = [np.array([[1, 1 + PRIME, 0]], dtype=np.int64), np.array([[0, 0, 1]], dtype=np.int64)]
    source = _assert_oracle_answers(blocks, 3, [np.array([1, 0, 2])])
    assert source.pulls == [2] and source.closed == [True]


CYCLE5 = np.array([1, 2, 3, 4, 0])  # x[CYCLE5] shifts the entries left


def test_translates_of_translates_carry_the_rank():
    # the source rows have rank 1; the orbit of e_0 - e_1 under the cycle
    # spans the sum-zero hyperplane, and only repeated translation reaches it
    blocks = [np.array([[1, -1, 0, 0, 0], [2, -2, 0, 0, 0]], dtype=np.int64)]
    _assert_oracle_answers(blocks, 5, [CYCLE5])
    rank, null = certified_nullspace(5, CountingSource(blocks), [CYCLE5])
    assert rank == 4 and null.rows == [tuple(Fraction(1) for _ in range(5))]


@pytest.mark.parametrize("rows, g", [
    # x[g] = (1 + p, 1) is x mod PRIME, and independent of x over Q
    ([[[1, 1 + PRIME]]], [1, 0]),
    # b[g] = (0, 0, 1 + p, 1) is b mod PRIME and arrives in a block that
    # also accepts a[g]; that block ends the stream and is certified in place
    ([[[1, 0, 0, 0], [0, 0, 1, 1 + PRIME]]], [1, 0, 3, 2]),
    # PRIME * e_0 is found exactly; its translate is zero mod PRIME
    ([[[1, 1, 1, 1]], [[PRIME, 0, 0, 0]]], [1, 2, 3, 0]),
    # v = (1, 0, p, 0) is e_0 mod PRIME and found only when the first block
    # is streamed again; its translate (0, 1, 0, p) alone reaches rank 4
    ([[[1, 0, 0, 0], [1, 0, PRIME, 0]], [[2, 0, 0, 0]]], [1, 0, 3, 2]),
])
def test_a_translate_independent_only_over_q_is_caught(rows, g):
    blocks = [np.array(block, dtype=np.int64) for block in rows]
    cols = len(g)
    _assert_oracle_answers(blocks, cols, [np.array(g)])
    assert certified_rank(cols, CountingSource(blocks), [np.array(g)]) == cols


def test_full_rank_through_translates_needs_no_exact_elimination(monkeypatch):
    import nonassoc.fastrank as fastrank

    def refuse(*args):
        raise AssertionError("exact elimination at full rank")

    # the source rows have rank 2; their translates under the cycle reach 5
    blocks = [np.array([[3, 0, 1, 0, 0], [6, 0, 2, 0, 0]], dtype=np.int64),
              np.array([[1, 5, 0, 0, 0]], dtype=np.int64)]
    _assert_oracle_answers(blocks, 5, [CYCLE5])
    monkeypatch.setattr(fastrank, "nullspace_int", refuse)
    monkeypatch.setattr(fastrank, "rref_int", refuse)
    source = CountingSource(blocks)
    assert certified_nullspace(5, source, [CYCLE5]) == (5, nullspace(Matrix.identity(5)))
    assert certified_rowspace(5, CountingSource(blocks), [CYCLE5])[0] == 5
    assert source.pulls == [2] and source.closed == [True]


def test_translate_blocks_are_no_larger_than_the_source_blocks(monkeypatch):
    import nonassoc.fastrank as fastrank

    sizes = []
    translate = fastrank._System._translate

    def spy(self, span):
        block = translate(self, span)
        sizes.append(len(block))
        return block

    monkeypatch.setattr(fastrank._System, "_translate", spy)
    # a budget of one accepted row's translates (6 columns, 2 symmetries):
    # every translate block is then no larger than the 2-row source blocks
    monkeypatch.setattr(fastrank, "_TRANSLATE_ENTRIES", 6 * 2)
    # the dihedral group of the hexagon, from a rotation and a reflection
    symmetries = [np.array([1, 2, 3, 4, 5, 0]), np.array([5, 4, 3, 2, 1, 0])]
    blocks = [np.array([[1, -1, 0, 0, 0, 0], [2, -2, 0, 0, 0, 0]], dtype=np.int64),
              np.array([[0, 1, 0, -1, 0, 0], [1, 0, -1, 0, 0, 0]], dtype=np.int64)]
    _assert_oracle_answers(blocks, 6, symmetries)
    assert sizes and max(sizes) <= 2


@st.composite
def zero_padded_systems(draw):
    """(padded, compact, cols, symmetries): the blocks of an adversarial
    system with all-zero rows interleaved and all-zero or empty blocks
    inserted, and the same blocks with every zero row dropped (an all-zero
    block becomes an empty one)."""
    arr, cols, step, symmetries = draw(adversarial_systems())
    padded = []
    for i in range(0, len(arr), step):
        rows = list(arr[i:i + step])
        for _ in range(draw(st.integers(0, 3))):
            rows.insert(draw(st.integers(0, len(rows))), np.zeros(cols, dtype=arr.dtype))
        padded.append(np.array(rows, dtype=arr.dtype).reshape(len(rows), cols))
    for _ in range(draw(st.integers(0, 2))):
        zero_block = np.zeros((draw(st.integers(0, 3)), cols), dtype=arr.dtype)
        padded.insert(draw(st.integers(0, len(padded))), zero_block)
    compact = [block[block.any(axis=1)] for block in padded]
    return padded, compact, cols, symmetries


# e_0 and e_1 in blocks of one row, one of them padded to two; g swaps
# columns 1 and 2. Translate blocks sized by the source's blocks would hold
# one row compacted, where e_0[g] = e_0 accepts nothing and stops the
# filter, and two rows padded, where {e_0, e_2} reaches full rank
SWAP_PADDED = ([np.array([[1, 0, 0], [0, 0, 0]]), np.array([[0, 1, 0]])],
               [np.array([[1, 0, 0]]), np.array([[0, 1, 0]])], 3, [np.array([0, 2, 1])])


@settings(max_examples=80, deadline=None)
@given(zero_padded_systems(), st.sampled_from([1, 12, 1 << 22]))
@example(SWAP_PADDED, 1 << 22)
def test_zero_rows_change_no_decision_of_the_filter_or_certification(system, budget):
    # a zero row's residue is zero and every candidate annihilates it, so
    # dropping zero rows leaves each block's verdict as it was: the same
    # accepted rows in the same order, the same candidates, the same answer;
    # the translate budget, fixed, does not read the source's block sizes
    padded, compact, cols, symmetries = system
    answers = []
    for blocks in (padded, compact):
        with mock.patch.object(fastrank, "_TRANSLATE_ENTRIES", budget), \
                mock.patch.object(fastrank, "_candidate", wraps=fastrank._candidate) as spy:
            cand, accepted = fastrank._certify(cols, CountingSource(blocks), symmetries)
        answers.append((cand.rank, null_basis(cols, cand.free, cand.prim),
                        [row.tolist() for row in accepted], spy.call_count))
    assert answers[0] == answers[1]
    assert answers[0][0] == exact_rank(_orbit([r for b in compact for r in b], symmetries))
