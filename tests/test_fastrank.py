import random
from fractions import Fraction

import numpy as np
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from nonassoc.fastrank import (
    PRIME,
    certified_nullspace,
    certified_rank,
    certified_rowspace,
)
from nonassoc.linalg import Matrix, nullspace, rref


def _blocks_of(arr, step):
    def source():
        return [arr[i:i + step] for i in range(0, len(arr), step)]
    return source


def exact_rank(arr):
    return rref(Matrix.from_rows([[int(x) for x in row] for row in arr])).rank


def test_prime_is_prime_and_small_enough():
    assert sympy.isprime(PRIME)
    # the float64 filter needs cols * (p-1)^2 < 2^53 for exact accumulation
    assert 8192 * (PRIME - 1) ** 2 < 2 ** 53


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


@st.composite
def adversarial_systems(draw):
    """(integer rows, cols, block size) built to trip the modular filter and
    the int64 product bound: rows that vanish mod PRIME, rows that agree
    with another row mod PRIME, scaled unit rows (full rank over Q, zero
    mod PRIME), entries above 2^31 and object arrays above 2^63."""
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
    size = draw(st.sampled_from(["small", "above_2_31", "object"]))
    if size != "small":
        scale = 2**33 if size == "above_2_31" else 2**70
        big = draw(st.integers(0, len(rows) - 1))
        rows[big] = [scale * x + 1 for x in rows[big]]
        if size == "object":
            dtype = object
    step = draw(st.integers(1, len(rows)))
    return np.array(rows, dtype=dtype), cols, step


@settings(max_examples=150, deadline=None)
@given(adversarial_systems())
def test_certified_rank_agrees_with_fraction_oracle(system):
    arr, cols, step = system
    m = Matrix.from_rows([[int(x) for x in row] for row in arr])
    oracle_rows, oracle_null = rref(m), nullspace(m)
    source = _blocks_of(arr, step)
    assert certified_rank(cols, source) == oracle_rows.rank
    assert certified_nullspace(cols, source) == (oracle_rows.rank, oracle_null)
    assert certified_rowspace(cols, source) == (oracle_rows.rank, oracle_rows)


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
