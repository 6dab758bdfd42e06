"""Free multilinear nonassociative monomials.

A monomial of degree n is a planar binary tree with n leaves (the bracketing
shape) together with a permutation assigning the variables x_1..x_n to the
leaves from left to right. Shapes are kept in a fixed canonical order so that
coefficient vectors mean the same thing everywhere: identity files, computed
bases and the hardwired identity families all index monomials the same way.

Monomial i of degree n has shape shapes(n)[i // n!] and permutation
_permutations(n)[i % n!], the permutation of lexicographic rank i % n!.
Shapes are sorted by BracketShape.sort_key: the positions of the leftmost
pair of sibling leaves (a cherry) as it is collapsed to a leaf, again and
again, which has the closed form given there.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, factorial, gcd, lcm
from typing import Sequence

MAX_DEGREE = 5


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


class BracketShape:
    """Planar binary tree; leaves are None, inner nodes are (left, right)."""

    __slots__ = ("tree", "leaves")

    def __init__(self, tree):
        self.tree = tree
        self.leaves = _count_leaves(tree)

    @classmethod
    def parse(cls, s: str) -> "BracketShape":
        text = s.replace(" ", "")
        tree, rest = _parse_tree(text)
        if rest:
            # top level is written without the outer parentheses: "A B"
            right, rest = _parse_tree(rest)
            if rest:
                raise ValueError("trailing characters in shape %r" % s)
            tree = (tree, right)
        return cls(tree)

    def __str__(self) -> str:
        if self.tree is None:
            return "x"
        l, r = self.tree
        return "%s%s" % (_render(l), _render(r))

    def __repr__(self) -> str:
        return "BracketShape(%r)" % str(self)

    def __eq__(self, other) -> bool:
        return isinstance(other, BracketShape) and self.tree == other.tree

    def __hash__(self):
        return hash(self.tree)

    def split(self):
        """Left and right subtrees at the root."""
        if self.tree is None:
            raise ValueError("a leaf has no subtrees")
        l, r = self.tree
        return BracketShape(l), BracketShape(r)

    def sort_key(self):
        """Canonical ordering key.

        The key records, recursively, the leaf position (1-based, from the
        left) of the leftmost pair of sibling leaves, then collapses that
        pair to a single leaf. Left combs sort first, right combs last.
        It has a closed form: () for a leaf, and for the tree (L, R)

            key(L) + tuple(1 + p for p in key(R)) + (1,).

        While L is not a leaf the leftmost cherry lies in L (a non-leaf tree
        always has one, and the walk looks in L first), so the first entries
        are key(L) and L collapses to one leaf. The cherries of R follow,
        one place past that leaf, and the last cherry, (x x), sits at 1.
        """
        return _collapse_key(self.tree)


def _count_leaves(tree) -> int:
    if tree is None:
        return 1
    return _count_leaves(tree[0]) + _count_leaves(tree[1])


def _parse_tree(s: str):
    if not s:
        raise ValueError("empty shape")
    if s[0] == "x":
        return None, s[1:]
    if s[0] != "(":
        raise ValueError("expected 'x' or '(' at %r" % s)
    left, rest = _parse_tree(s[1:])
    right, rest = _parse_tree(rest)
    if not rest or rest[0] != ")":
        raise ValueError("unbalanced parentheses in shape")
    return (left, right), rest[1:]


def _render(tree) -> str:
    if tree is None:
        return "x"
    l, r = tree
    return "(%s%s)" % (_render(l), _render(r))


def _collapse_key(tree):
    """The sort_key of a tree, from its closed form (see sort_key)."""
    if tree is None:
        return ()
    left, right = _collapse_key(tree[0]), _collapse_key(tree[1])
    return left + tuple(1 + p for p in right) + (1,)


def _all_trees(n: int):
    if n == 1:
        yield None
        return
    for k in range(1, n):
        for l in _all_trees(k):
            for r in _all_trees(n - k):
                yield (l, r)


@lru_cache(maxsize=None)
def shapes(n: int) -> list[BracketShape]:
    """All bracketing shapes of degree n in canonical order."""
    if n < 1 or n > MAX_DEGREE:
        raise ValueError("degree %d out of range (1..%d)" % (n, MAX_DEGREE))
    return sorted((BracketShape(t) for t in _all_trees(n)), key=BracketShape.sort_key)


def left_comb(n: int) -> BracketShape:
    t = None
    for _ in range(n - 1):
        t = (t, None)
    return BracketShape(t)


def right_comb(n: int) -> BracketShape:
    t = None
    for _ in range(n - 1):
        t = (None, t)
    return BracketShape(t)


class MultilinearMonomial:
    """A shape with variables assigned to leaves: leaf j holds x_{perm[j]}."""

    __slots__ = ("shape", "perm")

    def __init__(self, shape: BracketShape, perm: Sequence[int]):
        if sorted(perm) != list(range(1, shape.leaves + 1)):
            raise ValueError("perm %r is not a permutation of 1..%d" % (perm, shape.leaves))
        self.shape = shape
        self.perm = tuple(perm)

    @property
    def degree(self) -> int:
        return self.shape.leaves

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultilinearMonomial)
            and self.shape == other.shape
            and self.perm == other.perm
        )

    def __hash__(self):
        return hash((self.shape, self.perm))

    def __repr__(self):
        return "MultilinearMonomial(%r, %r)" % (str(self.shape), self.perm)

    def __str__(self):
        out = []
        it = iter(self.perm)

        def walk(t):
            if t is None:
                out.append("x%d" % next(it))
                return
            out.append("(")
            walk(t[0])
            walk(t[1])
            out.append(")")

        walk(self.shape.tree)
        s = "".join(out)
        return s[1:-1] if s.startswith("(") else s


def perm_index(perm: Sequence[int]) -> int:
    """Lexicographic rank of a permutation of 1..n."""
    perm = list(perm)
    n = len(perm)
    rest = sorted(perm)
    idx = 0
    for i, v in enumerate(perm):
        k = rest.index(v)
        idx += k * factorial(n - 1 - i)
        del rest[k]
    return idx


def perm_sign(perm: Sequence[int]) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j] - 1
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@lru_cache(maxsize=None)
def _permutations(n: int) -> tuple:
    """The permutations of 1..n in lexicographic order: the one at
    position r has perm_index r."""
    return tuple(permutations(range(1, n + 1)))


def monomial_count(n: int) -> int:
    return catalan(n - 1) * factorial(n)


def enumerate_monomials(n: int) -> list[MultilinearMonomial]:
    """All degree-n monomials: shape-major, permutations in lex order."""
    if n < 2 or n > MAX_DEGREE:
        raise ValueError("degree %d out of range (2..%d)" % (n, MAX_DEGREE))
    return [MultilinearMonomial(sh, perm) for sh in shapes(n) for perm in _permutations(n)]


def monomial_index(m: MultilinearMonomial) -> int:
    """Position of a monomial in the canonical degree-n list."""
    return _shape_numbers(m.degree)[m.shape] * factorial(m.degree) + perm_index(m.perm)


@lru_cache(maxsize=None)
def _shape_numbers(n: int) -> dict:
    """Shape -> its position in shapes(n)."""
    return {sh: i for i, sh in enumerate(shapes(n))}


class IdentityCombination:
    """Rational coefficient vector over the canonical monomial list.

    Held as the canonical cleared triple: index, the ascending numbers of
    the monomials with a nonzero coefficient; nums, those coefficients
    times den; den, the lcm of their reduced denominators. So gcd(den,
    *nums) = 1, equal vectors hold equal triples, and equality, the hash
    and the pickled state come from the triple. The Fractions of coeffs
    and terms() are made on each read and not kept. _plan is a cache that
    identities fills on first evaluation, no part of the value.
    """

    __slots__ = ("degree", "index", "nums", "den", "name", "_plan")

    def __init__(self, degree: int, coeffs: Sequence, name: str = ""):
        expected = monomial_count(degree)
        coeffs = [c if type(c) is int or type(c) is Fraction else Fraction(c) for c in coeffs]
        if len(coeffs) != expected:
            raise ValueError("coefficient vector length %d, expected %d for degree %d"
                             % (len(coeffs), expected, degree))
        den = lcm(*(x.denominator for x in coeffs))
        self._set(degree, enumerate(x.numerator * (den // x.denominator) for x in coeffs),
                  den, name)

    def _set(self, degree: int, values, den: int, name: str) -> "IdentityCombination":
        """Hold the vector with value x / den at monomial number i, for the
        pairs (i, x) of values, i ascending, canonically; x may be 0."""
        values = [(i, x) for i, x in values if x]
        g = gcd(den, *(x for _i, x in values))
        self.degree, self.name, self.den = degree, name, den // g
        self.index = tuple(i for i, _x in values)
        self.nums = tuple(x // g for _i, x in values)
        return self

    @classmethod
    def _from_cleared(cls, degree: int, values, den: int, name: str = ""):
        """The combination of _set: values are (monomial number, numerator)."""
        return cls.__new__(cls)._set(degree, values, den, name)

    @classmethod
    def from_terms(cls, degree: int, terms, name: str = "") -> "IdentityCombination":
        """terms: iterable of (MultilinearMonomial | (shape, perm), coefficient)."""
        coeffs = [0] * monomial_count(degree)
        for mono, c in terms:
            if not isinstance(mono, MultilinearMonomial):
                sh, perm = mono
                if isinstance(sh, str):
                    sh = BracketShape.parse(sh)
                mono = MultilinearMonomial(sh, perm)
            if mono.degree != degree:
                raise ValueError("term degree %d != %d" % (mono.degree, degree))
            coeffs[monomial_index(mono)] += Fraction(c)
        return cls(degree, coeffs, name)

    @property
    def coeffs(self) -> tuple:
        """The dense Fraction vector, built on each read."""
        out = [Fraction(0)] * monomial_count(self.degree)
        for i, x in zip(self.index, self.nums):
            out[i] = Fraction(x, self.den)
        return tuple(out)

    def terms(self):
        """Nonzero (monomial, coefficient) pairs in canonical order; only
        those monomials are built, from the numbering in the module
        docstring."""
        n = self.degree
        nf, degree_shapes, perms = factorial(n), shapes(n), _permutations(n)
        return [(MultilinearMonomial(degree_shapes[i // nf], perms[i % nf]), Fraction(x, self.den))
                for i, x in zip(self.index, self.nums)]

    def _key(self) -> tuple:
        return self.degree, self.index, self.nums, self.den

    def __eq__(self, other) -> bool:
        return isinstance(other, IdentityCombination) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __getstate__(self):
        return None, {k: getattr(self, k) for k in ("degree", "index", "nums", "den", "name")}

    def __repr__(self):
        label = self.name or "%d terms" % len(self.index)
        return "IdentityCombination(degree=%d, %s)" % (self.degree, label)

    def scaled(self, k) -> "IdentityCombination":
        k = Fraction(k)
        return IdentityCombination._from_cleared(
            self.degree, zip(self.index, (k.numerator * x for x in self.nums)),
            k.denominator * self.den, self.name)

    def plus(self, other: "IdentityCombination") -> "IdentityCombination":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        den = lcm(self.den, other.den)
        values = dict(zip(self.index, (x * (den // self.den) for x in self.nums)))
        for i, x in zip(other.index, other.nums):
            values[i] = values.get(i, 0) + x * (den // other.den)
        return IdentityCombination._from_cleared(self.degree, sorted(values.items()), den)


def st_identity(n: int, variant: int) -> IdentityCombination:
    """The standard alternating identities.

    Variant 1 alternates over the left comb (...(x_{s(1)}x_{s(2)})...)x_{s(n)}.
    Variant 2 alternates over the right comb with the arguments reversed:
    x_{s(n)}(... x_{s(3)}(x_{s(2)}x_{s(1)})...).
    """
    if n < 2 or n > MAX_DEGREE:
        raise ValueError("degree %d out of range (2..%d)" % (n, MAX_DEGREE))
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    terms = []
    if variant == 1:
        comb_shape = left_comb(n)
        for sigma in permutations(range(1, n + 1)):
            terms.append((MultilinearMonomial(comb_shape, sigma), perm_sign(sigma)))
    else:
        comb_shape = right_comb(n)
        for sigma in permutations(range(1, n + 1)):
            # leaf j (from the left) holds x_{sigma(n+1-j)}
            leaf_perm = tuple(reversed(sigma))
            terms.append((MultilinearMonomial(comb_shape, leaf_perm), perm_sign(sigma)))
    return IdentityCombination.from_terms(n, terms, name="st%d_%d" % (n, variant))


def tail_fixed_alternating(n: int, j: int) -> IdentityCombination:
    """Alternating sum over the right comb with x_j pinned to the last leaf.

    The remaining variables are distributed over the first n-1 leaves in all
    orders, signed by the parity of the arrangement relative to increasing
    order. At degree 5 the combination of all five with alternating signs
    +,-,+,-,+ recovers st_identity(5, 2).
    """
    if n < 2 or n > MAX_DEGREE:
        raise ValueError("degree %d out of range (2..%d)" % (n, MAX_DEGREE))
    if not 1 <= j <= n:
        raise ValueError("fixed variable %d out of range 1..%d" % (j, n))
    others = [v for v in range(1, n + 1) if v != j]
    comb_shape = right_comb(n)
    terms = []
    for p in permutations(range(1, n)):
        leaf_perm = tuple(others[k - 1] for k in p) + (j,)
        terms.append((MultilinearMonomial(comb_shape, leaf_perm), perm_sign(p)))
    return IdentityCombination.from_terms(n, terms, name="tail%d_%d" % (n, j))
