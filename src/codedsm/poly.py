"""Univariate polynomials over a finite field, with naive and fast paths.

Coefficient lists run low to high degree.  Internal helpers work on raw
int lists so the hot loops stay cheap; `DensePoly` is the public wrapper.

Two algorithm modes exist for interpolation, multipoint evaluation, and
multiplication:

- ``naive``: schoolbook multiplication, Lagrange interpolation, Horner
  evaluation per point.  All O(n^2).
- ``fast``: Karatsuba multiplication, subproduct-tree multipoint
  evaluation and interpolation with Newton-iteration power-series
  division.  Sub-quadratic operation growth.

``auto`` (the default) picks naive below n = 32 and fast at or above it.
Both modes return identical values; only the operation counts differ.

Values and counts come apart:

- The coefficient-list arithmetic (sum, difference, schoolbook and
  Karatsuba products, Horner evaluation, long division, the linear
  remainder, naive interpolation and the subproduct tree's interpolation
  combine and remainders) lives in ``field.kernels``; this module has
  one code path over any field.  Over a prime field the kernels run on
  raw ints and each product is one exact bulk multiply; over GF(2^m)
  they call the field's counted operations one at a time.
- Counts are the modelled algorithm's: the schoolbook or Karatsuba
  product, the Newton series division, the Horner step, the combine's
  pairwise products.  They follow from the operands' lengths (and, in
  long division, from which quotient terms vanish), so the prime kernels
  `charge()` them in bulk and every backend charges the same numbers for
  the same operands.  The combine's operand lengths follow from the
  tree's shape alone, so over an int64 prime its values come from numpy
  sums over quotient blocks cached with the tree, not from the products
  it is charged for.  The remainder tree's lengths do too, unless a
  remainder loses its top coefficient, which a numpy sum per node over
  weights cached with the tree detects.  So over an int64 prime
  multipoint evaluation's values come from one Horner pass over the
  points, its count from the tree's shape, and the remainder loop runs
  only when a top coefficient is zero.
- Public per-point-set work (a point set's subproduct tree, its inverted
  derivative weights and each tree node's series inverses) is cached per
  field and charged on every use exactly what its first build counted.
  A cache hit saves time and changes no count.  The combine's quotient
  blocks and the remainders' node weights are no step of the modelled
  algorithm, so they are never charged.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .field import ConfigurationError, Field, Memo

AUTO_FAST_MIN = 32   # `auto` mode switches to the fast path at this size
MODES = ("auto", "naive", "fast")


def _resolve(mode: str, n: int) -> str:
    if mode == "auto":
        return "fast" if n >= AUTO_FAST_MIN else "naive"
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return mode


# ---------------------------------------------------------------------------
# raw coefficient-list helpers
# ---------------------------------------------------------------------------

def _trim(a: list[int]) -> list[int]:
    n = len(a)
    while n > 0 and a[n - 1] == 0:
        n -= 1
    return a[:n]


def _deriv(a: list[int], f: Field) -> list[int]:
    return [f.mul(a[i], i % f.char) for i in range(1, len(a))]


# ---------------------------------------------------------------------------
# subproduct tree
# ---------------------------------------------------------------------------

class SubproductTree:
    """Binary tree of the monic products prod(z - x_i) over point subsets.

    ``levels[0]`` holds the leaf linears (z - x_i); each higher level pairs
    adjacent nodes, carrying an unpaired trailing node up unchanged.  The
    tree keeps its nodes' series inverses and its interpolation weights,
    each charged on every use what it first cost.
    """

    def __init__(self, xs: Sequence[int], f: Field):
        self.field = f
        self.xs = tuple(xs)
        mul = f.kernels.mul_karatsuba
        level = [[f.neg(x), 1] for x in xs]
        self.levels = [level]
        while len(level) > 1:
            nxt = [mul(level[i], level[i + 1])
                   for i in range(0, len(level) - 1, 2)]
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
            self.levels.append(level)
        # room for each node's series inverse at a few precisions
        self.memo = Memo(8 * len(self.xs) + 8)
        # `PrimeKernels.combine`'s quotient blocks and
        # `PrimeKernels.remainders`' node weights, built on first use
        self.quotients = None
        self.node_weights = None

    @property
    def root(self) -> list[int]:
        return self.levels[-1][0]

    def remainders(self, p: list[int]) -> list[int]:
        """Evaluate p at every tree point by repeated remaindering.

        Charged as `LoopKernels.remainders` counts it.  Over an int64
        prime the values come from one Horner pass over the points
        (`PrimeKernels.remainders`).
        """
        return self.field.kernels.remainders(self, p)

    def weights(self) -> tuple[int, ...]:
        """1 / M'(x_i) for the root M, at every tree point (cached)."""
        f = self.field
        return self.memo.get("weights", lambda: tuple(
            f.inv(d) for d in self.remainders(_deriv(self.root, f))))

    def combine(self, ws: Sequence[int]) -> list[int]:
        """sum_i w_i * prod_{j != i} (z - x_j), from the leaves up.

        Charged as `LoopKernels.combine` counts it: two Karatsuba cross
        products and one sum per pair of nodes, which the tree's shape
        alone fixes.  Over an int64 prime the values come from the
        tree's cached quotient blocks (`PrimeKernels.combine`).
        """
        return self.field.kernels.combine(self, ws)


def _tree(xs: Sequence[int], f: Field) -> SubproductTree:
    """The point set's tree from the field's cache, charged on every use."""
    key = tuple(xs)
    return f.kernels.point_sets.get(key, lambda: SubproductTree(key, f))


# ---------------------------------------------------------------------------
# interpolation and multipoint evaluation
# ---------------------------------------------------------------------------

def _check_points(xs: Sequence[int], f: Field) -> None:
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must be distinct")
    for x in xs:
        f.check(x)


def vanishing(xs: Sequence[int], field: Field,
              mode: str = "auto") -> "DensePoly":
    """The master polynomial prod (z - x_i) of distinct points.

    ``fast`` takes the root of the point set's cached subproduct tree
    (charged, like every tree use, what its build counted); ``naive``
    multiplies the linear factors schoolbook-style.
    """
    if _resolve(mode, len(xs)) == "fast":
        return DensePoly(field, _tree(xs, field).root)
    master = [1]
    for x in xs:
        master = field.kernels.mul_schoolbook(master, [field.neg(x), 1])
    return DensePoly(field, master)


def _interp_naive(xs, ys, f: Field) -> list[int]:
    # master polynomial M = prod (z - x_i), then per-point synthetic division
    master = vanishing(xs, f, "naive").coeffs
    return f.kernels.lagrange(master, xs, ys)


def _interp_fast(xs, ys, f: Field) -> list[int]:
    tree = _tree(xs, f)
    return tree.combine([f.mul(y, w) for y, w in zip(ys, tree.weights())])


def interpolate(points: Iterable[tuple[int, int]], field: Field,
                mode: str = "auto") -> "DensePoly":
    """Unique polynomial of degree < n through n distinct points."""
    pts = list(points)
    if not pts:
        raise ValueError("need at least one interpolation point")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    _check_points(xs, field)
    for y in ys:
        field.check(y)
    m = _resolve(mode, len(xs))
    coeffs = _interp_fast(xs, ys, field) if m == "fast" \
        else _interp_naive(xs, ys, field)
    return DensePoly(field, coeffs)


def multipoint_eval(poly: "DensePoly", xs: Sequence[int],
                    mode: str = "auto") -> list[int]:
    """Evaluate a polynomial at many points."""
    f = poly.field
    for x in xs:
        f.check(x)
    m = _resolve(mode, len(xs))
    if m == "fast" and len(xs) > 1:
        return _tree(xs, f).remainders(list(poly.coeffs))
    coeffs = list(poly.coeffs)
    return [f.kernels.horner(coeffs, x) for x in xs]


# ---------------------------------------------------------------------------
# DensePoly
# ---------------------------------------------------------------------------

class DensePoly:
    """Immutable dense polynomial; coefficients low to high, trailing zeros trimmed."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable[int]):
        self.field = field
        self.coeffs = tuple(_trim(list(coeffs)))

    @classmethod
    def zero(cls, field: Field) -> "DensePoly":
        return cls(field, [])

    @classmethod
    def const(cls, field: Field, c: int) -> "DensePoly":
        return cls(field, [field.check(c)])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: int) -> int:
        return self.field.kernels.horner(list(self.coeffs), x)

    def _want(self, other: "DensePoly") -> None:
        if not isinstance(other, DensePoly) or other.field != self.field:
            raise ConfigurationError("polynomial operands must share a field")

    def __add__(self, other: "DensePoly") -> "DensePoly":
        self._want(other)
        return DensePoly(self.field, self.field.kernels.add(
            list(self.coeffs), list(other.coeffs)))

    def __sub__(self, other: "DensePoly") -> "DensePoly":
        self._want(other)
        return DensePoly(self.field, self.field.kernels.sub(
            list(self.coeffs), list(other.coeffs)))

    def mul(self, other: "DensePoly", mode: str = "auto") -> "DensePoly":
        self._want(other)
        m = _resolve(mode, max(len(self.coeffs), len(other.coeffs)))
        kern = self.field.kernels
        mul = kern.mul_karatsuba if m == "fast" else kern.mul_schoolbook
        return DensePoly(self.field, mul(list(self.coeffs), list(other.coeffs)))

    def __mul__(self, other: "DensePoly") -> "DensePoly":
        return self.mul(other)

    def divmod(self, other: "DensePoly") -> tuple["DensePoly", "DensePoly"]:
        self._want(other)
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        if len(self.coeffs) < len(other.coeffs):
            return DensePoly.zero(self.field), self
        q, r = self.field.kernels.divmod(self.coeffs, other.coeffs)
        return DensePoly(self.field, q), DensePoly(self.field, r)

    def __eq__(self, other) -> bool:
        return isinstance(other, DensePoly) and self.field == other.field \
            and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"DensePoly({list(self.coeffs)})"
