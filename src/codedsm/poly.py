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

- Values come from exact bulk arithmetic.  Over a prime field the
  helpers' loops run on raw ints and each product is one exact bulk
  multiply (``field.kernels.polymul``); over GF(2^m) the helpers call the
  field's counted operations one at a time.
- Counts are the modelled algorithm's: the schoolbook or Karatsuba
  product, the Newton series division, the Horner step.  They follow from
  the operands' lengths (and, in long division, from which quotient terms
  vanish), so the prime path `charge()`s them in bulk and both kinds of
  field charge the same numbers for the same operands.
- Public per-point-set work (a point set's subproduct tree, its inverted
  derivative weights and each tree node's series inverses) is cached per
  field and charged on every use exactly what its first build counted.
  A cache hit saves time and changes no count.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from .field import ConfigurationError, Field, Memo, Table, charge, uncounted

KARATSUBA_BASE = 8   # sizes at or below this multiply schoolbook-style
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


def _ladd(a: list[int], b: list[int], f: Field) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    if f.kind == "prime":
        p = f.p
        charge(adds=len(b))
        return [(x + y) % p for x, y in zip(a, b)] + list(a[len(b):])
    out = list(a)
    for i, c in enumerate(b):
        out[i] = f.add(out[i], c)
    return out


def _lsub(a: list[int], b: list[int], f: Field) -> list[int]:
    if f.kind == "prime":
        p = f.p
        charge(adds=len(b))
        return [(x - y) % p for x, y in zip(a, b)] + list(a[len(b):]) \
            + [-y % p for y in b[len(a):]]
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = f.sub(out[i], c)
    return out


def _mul_naive(a: list[int], b: list[int], f: Field) -> list[int]:
    if not a or not b:
        return []
    if f.kind == "prime":
        charge(adds=len(a) * len(b), muls=len(a) * len(b))
        return f.kernels.polymul(a, b)
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = f.add(out[i + j], f.mul(ai, bj))
    return out


@lru_cache(maxsize=1 << 14)
def _kar_ops(la: int, lb: int) -> tuple[int, int]:
    """The (adds, muls) `_mul_kar` makes for operands of these lengths."""
    if not la or not lb:
        return 0, 0
    n = max(la, lb)
    if n <= KARATSUBA_BASE or min(la, lb) == 1:
        return la * lb, la * lb
    h = n // 2
    la0, la1 = min(la, h), max(la - h, 0)
    lb0, lb1 = min(lb, h), max(lb - h, 0)
    lp0 = la0 + lb0 - 1
    lp2 = la1 + lb1 - 1 if la1 and lb1 else 0
    lpm = max(la0, la1) + max(lb0, lb1) - 1
    parts = (_kar_ops(la0, lb0), _kar_ops(la1, lb1),
             _kar_ops(max(la0, la1), max(lb0, lb1)))
    # the two half-sums, the two subtractions forming the middle product
    # and the two additions placing the middle and high products
    adds = min(la0, la1) + min(lb0, lb1) + lp0 + lp2 \
        + max(lpm, lp0, lp2) + lp2
    return adds + sum(a for a, _ in parts), sum(m for _, m in parts)


def _mul_kar(a: list[int], b: list[int], f: Field) -> list[int]:
    if not a or not b:
        return []
    if f.kind == "prime":
        adds, muls = _kar_ops(len(a), len(b))
        charge(adds=adds, muls=muls)
        return f.kernels.polymul(a, b)
    n = max(len(a), len(b))
    if n <= KARATSUBA_BASE or min(len(a), len(b)) == 1:
        return _mul_naive(a, b, f)
    h = n // 2
    a0, a1 = a[:h], a[h:]
    b0, b1 = b[:h], b[h:]
    p0 = _mul_kar(a0, b0, f)
    p2 = _mul_kar(a1, b1, f)
    pm = _mul_kar(_ladd(a0, a1, f), _ladd(b0, b1, f), f)
    p1 = _lsub(_lsub(pm, p0, f), p2, f)
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(p0):
        out[i] = c
    for i, c in enumerate(p1):
        out[h + i] = f.add(out[h + i], c)
    for i, c in enumerate(p2):
        out[2 * h + i] = f.add(out[2 * h + i], c)
    return out


def _mul(a: list[int], b: list[int], f: Field, mode: str) -> list[int]:
    if mode == "fast":
        return _mul_kar(a, b, f)
    return _mul_naive(a, b, f)


def _eval_at(a: list[int], x: int, f: Field) -> int:
    acc = 0
    if f.kind == "prime":
        p = f.p
        for c in reversed(a):
            acc = (acc * x + c) % p
        charge(adds=len(a), muls=len(a))
        return acc
    for c in reversed(a):
        acc = f.add(f.mul(acc, x), c)
    return acc


def _deriv(a: list[int], f: Field) -> list[int]:
    return [f.mul(a[i], i % f.char) for i in range(1, len(a))]


def _divmod_naive(a: list[int], b: list[int], f: Field):
    b = _trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    if len(a) - 1 < db:
        return [], _trim(a)
    ilead = f.inv(lead) if lead != 1 else 1
    q = [0] * (len(a) - db)
    if f.kind == "prime":
        p = f.p
        steps = 0
        for i in range(len(a) - 1, db - 1, -1):
            c = a[i] * ilead % p
            q[i - db] = c
            if c != 0:
                steps += 1
                a[i - db:i + 1] = [(x - c * y) % p
                                   for x, y in zip(a[i - db:i + 1], b)]
        charge(adds=steps * (db + 1),
               muls=steps * (db + 1) + (len(q) if lead != 1 else 0))
        return _trim(q), _trim(a[:db])
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] if lead == 1 else f.mul(a[i], ilead)
        q[i - db] = c
        if c != 0:
            for j in range(db + 1):
                a[i - db + j] = f.sub(a[i - db + j], f.mul(c, b[j]))
    return _trim(q), _trim(a[:db])


def _series_inv(s: list[int], k: int, f: Field) -> list[int]:
    """Inverse of the power series s modulo z^k (s[0] must be invertible)."""
    g = [f.inv(s[0])] if s[0] != 1 else [1]
    prec = 1
    two = [f.add(1, 1)]
    while prec < k:
        prec = min(2 * prec, k)
        w = _lsub(two, _mul_kar(s[:prec], g, f)[:prec], f)
        g = _mul_kar(g, w, f)[:prec]
    return g + [0] * (k - len(g))


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
        level = [[f.neg(x), 1] for x in xs]
        self.levels = [level]
        while len(level) > 1:
            nxt = [
                _mul_kar(level[i], level[i + 1], f)
                for i in range(0, len(level) - 1, 2)
            ]
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
            self.levels.append(level)
        # room for each node's series inverse at a few precisions
        self._memo = Memo(8 * len(self.xs) + 8)

    @property
    def root(self) -> list[int]:
        return self.levels[-1][0]

    def remainders(self, p: list[int]) -> list[int]:
        """Evaluate p at every tree point by repeated remaindering."""
        top = len(self.levels) - 1
        cur = [self._rem(p, top, 0)]
        for lev in range(top - 1, -1, -1):
            cur = [self._rem(cur[j // 2], lev, j)
                   for j in range(len(self.levels[lev]))]
        return [c[0] if c else 0 for c in cur]

    def _rem(self, a: list[int], lev: int, j: int) -> list[int]:
        """a mod node j of level lev, via its reversed-series inverse."""
        f = self.field
        b = self.levels[lev][j]
        db = len(b) - 1
        if len(a) - 1 < db:
            return list(a)
        if len(a) == 2 and db == 1:
            # a mod (z - x) is a(x): one Horner step, charged what the
            # series route below counts for these lengths
            charge(adds=5, muls=3)
            if f.kind == "prime":
                r = (a[0] - a[1] * b[0]) % f.p
            else:
                with uncounted():
                    r = f.sub(a[0], f.mul(a[1], b[0]))
            return [r] if r else []
        k = len(a) - db
        inv = self._memo.get((lev, j, k),
                             lambda: _series_inv(b[::-1], k, f))
        q = _mul_kar(a[:-k - 1:-1], inv, f)[k - 1::-1]
        return _trim(_lsub(a[:db], _mul_kar(q, b, f)[:db], f))

    def weights(self) -> tuple[int, ...]:
        """1 / M'(x_i) for the root M, at every tree point (cached)."""
        f = self.field
        return self._memo.get("weights", lambda: tuple(
            f.inv(d) for d in self.remainders(_deriv(self.root, f))))

    def combine(self, ws: Sequence[int]) -> list[int]:
        """Build sum_i w_i * prod_{j != i} (z - x_j) bottom-up."""
        f = self.field
        cur: list[list[int]] = [[w] for w in ws]
        for lev in range(len(self.levels) - 1):
            nodes = self.levels[lev]
            nxt = []
            for i in range(0, len(nodes) - 1, 2):
                left = _mul_kar(cur[i], nodes[i + 1], f)
                right = _mul_kar(cur[i + 1], nodes[i], f)
                nxt.append(_ladd(left, right, f))
            if len(nodes) % 2:
                nxt.append(cur[-1])
            cur = nxt
        return cur[0]


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


def _interp_naive(xs, ys, f: Field) -> list[int]:
    # master polynomial M = prod (z - x_i), then per-point synthetic division
    master = [1]
    for x in xs:
        master = _mul_naive(master, [f.neg(x), 1], f)
    out = [0] * len(xs)
    p = f.p if f.kind == "prime" else None
    for x, y in zip(xs, ys):
        # q = master / (z - x) by synthetic division from the top
        q = [0] * (len(master) - 1)
        acc = 0
        if p is not None:
            for j in range(len(master) - 1, 0, -1):
                acc = (master[j] + acc * x) % p
                q[j - 1] = acc
            w = y * pow(_eval_at(q, x, f), -1, p) % p
            out = [(o + w * c) % p for o, c in zip(out, q)]
        else:
            for j in range(len(master) - 1, 0, -1):
                acc = f.add(master[j], f.mul(acc, x))
                q[j - 1] = acc
            w = f.mul(y, f.inv(_eval_at(q, x, f)))
            for j, c in enumerate(q):
                out[j] = f.add(out[j], f.mul(w, c))
    if p is not None:
        # per point: the division, the inverse, the scaling and the sum
        n = len(xs)
        charge(adds=2 * n * n, muls=n * (2 * n + 1), invs=n)
    return out


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
    return [_eval_at(list(poly.coeffs), x, f) for x in xs]


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
        return _eval_at(list(self.coeffs), x, self.field)

    def _want(self, other: "DensePoly") -> None:
        if not isinstance(other, DensePoly) or other.field != self.field:
            raise ConfigurationError("polynomial operands must share a field")

    def __add__(self, other: "DensePoly") -> "DensePoly":
        self._want(other)
        return DensePoly(self.field,
                         _ladd(list(self.coeffs), list(other.coeffs), self.field))

    def __sub__(self, other: "DensePoly") -> "DensePoly":
        self._want(other)
        return DensePoly(self.field,
                         _lsub(list(self.coeffs), list(other.coeffs), self.field))

    def mul(self, other: "DensePoly", mode: str = "auto") -> "DensePoly":
        self._want(other)
        m = _resolve(mode, max(len(self.coeffs), len(other.coeffs)))
        return DensePoly(self.field,
                         _mul(list(self.coeffs), list(other.coeffs), self.field, m))

    def __mul__(self, other: "DensePoly") -> "DensePoly":
        return self.mul(other)

    def divmod(self, other: "DensePoly") -> tuple["DensePoly", "DensePoly"]:
        self._want(other)
        q, r = _divmod_naive(list(self.coeffs), list(other.coeffs), self.field)
        return DensePoly(self.field, q), DensePoly(self.field, r)

    def __eq__(self, other) -> bool:
        return isinstance(other, DensePoly) and self.field == other.field \
            and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"DensePoly({list(self.coeffs)})"


# ---------------------------------------------------------------------------
# evaluation domains and encoding coefficients
# ---------------------------------------------------------------------------

class EvalDomain:
    """The K data points (omegas) and N storage points (alphas) of a code.

    Machine k's plain value sits at omega_k; node i stores the evaluation
    at alpha_i.  All K+N points must be distinct, which requires the field
    to have at least K+N elements.
    """

    def __init__(self, field: Field, omegas: Sequence[int], alphas: Sequence[int]):
        omegas = tuple(omegas)
        alphas = tuple(alphas)
        pts = omegas + alphas
        for x in pts:
            field.check(x)
        if len(set(pts)) != len(pts):
            raise ConfigurationError("omega and alpha points must all be distinct")
        if not omegas or not alphas:
            raise ConfigurationError("need at least one omega and one alpha")
        self.field = field
        self.omegas = omegas
        self.alphas = alphas
        self._coeffs: Table | None = None

    @classmethod
    def default(cls, field: Field, K: int, N: int) -> "EvalDomain":
        """omega_k = k for k in 1..K; alpha_i = K+i for i in 1..N."""
        if K + N >= field.order:
            raise ConfigurationError(
                f"field of order {field.order} is too small for K={K}, N={N}")
        return cls(field, range(1, K + 1), range(K + 1, K + N + 1))

    @property
    def K(self) -> int:
        return len(self.omegas)

    @property
    def N(self) -> int:
        return len(self.alphas)

    def coeffs(self) -> Table:
        """The N x K matrix C with C[i][k] = prod_{l != k} (a_i - w_l)/(w_k - w_l).

        Row i maps plain values at the omegas to node i's stored evaluation.
        Computed once and cached; the code matrix never changes mid-run.
        Construction is public setup and is not charged to any counter.
        """
        if self._coeffs is None:
            with uncounted():
                self._coeffs = Table(self._build_coeffs())
        return self._coeffs

    def _build_coeffs(self) -> list[tuple[int, ...]]:
        f = self.field
        K = self.K
        dens = []
        for k in range(K):
            d = 1
            for l in range(K):
                if l != k:
                    d = f.mul(d, f.sub(self.omegas[k], self.omegas[l]))
            dens.append(f.inv(d))
        rows = []
        for a in self.alphas:
            diffs = [f.sub(a, w) for w in self.omegas]
            pre = [1] * (K + 1)
            for k in range(K):
                pre[k + 1] = f.mul(pre[k], diffs[k])
            suf = [1] * (K + 1)
            for k in range(K - 1, -1, -1):
                suf[k] = f.mul(suf[k + 1], diffs[k])
            rows.append(tuple(f.mul(f.mul(pre[k], suf[k + 1]), dens[k])
                              for k in range(K)))
        return rows

    def __repr__(self):
        return f"EvalDomain(K={self.K}, N={self.N}, field={self.field!r})"


def lagrange_coeffs(domain: EvalDomain) -> list[list[int]]:
    return [list(row) for row in domain.coeffs()]
