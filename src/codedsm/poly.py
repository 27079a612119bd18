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
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .field import ConfigurationError, Field, Table, active_counter, uncounted

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
    out = list(a)
    p = _raw_prime(f)
    if p is not None:
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % p
        return out
    for i, c in enumerate(b):
        out[i] = f.add(out[i], c)
    return out


def _lsub(a: list[int], b: list[int], f: Field) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    p = _raw_prime(f)
    if p is not None:
        for i, c in enumerate(b):
            out[i] = (out[i] - c) % p
        return out
    for i, c in enumerate(b):
        out[i] = f.sub(out[i], c)
    return out


def _lscale(a: list[int], s: int, f: Field) -> list[int]:
    return [f.mul(c, s) for c in a]


def _raw_prime(f: Field) -> int | None:
    """The modulus, when inner loops may skip counted per-op calls."""
    if f.kind == "prime" and active_counter() is None:
        return f.order
    return None


def _mul_naive(a: list[int], b: list[int], f: Field) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    p = _raw_prime(f)
    if p is not None:
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
        return out
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = f.add(out[i + j], f.mul(ai, bj))
    return out


def _mul_kar(a: list[int], b: list[int], f: Field) -> list[int]:
    if not a or not b:
        return []
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
    p = _raw_prime(f)
    if p is not None:
        for c in reversed(a):
            acc = (acc * x + c) % p
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
    two = f.add(1, 1)
    while prec < k:
        prec = min(2 * prec, k)
        w = _mul_kar(s[:prec], g, f)[:prec]
        w = [f.sub(two if i == 0 else 0, w[i]) for i in range(len(w))]
        g = _mul_kar(g, w, f)[:prec]
    return g + [0] * (k - len(g))


def _divmod_fast(a: list[int], b: list[int], f: Field):
    """Division with remainder by a monic divisor, via reversed-series inversion."""
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        return [], list(a)
    k = da - db + 1
    rb = b[::-1]
    ra = a[::-1][:k]
    qrev = _mul_kar(ra, _series_inv(rb, k, f), f)[:k]
    qrev += [0] * (k - len(qrev))
    q = qrev[::-1]
    qb = _mul_kar(q, b, f)[:db] if db else []
    r = _lsub(a[:db], qb, f) if db else []
    return q, _trim(r)


def _rem(a: list[int], b: list[int], f: Field) -> list[int]:
    if len(a) - 1 < len(b) - 1:
        return list(a)
    return _divmod_fast(a, b, f)[1]


# ---------------------------------------------------------------------------
# subproduct tree
# ---------------------------------------------------------------------------

class SubproductTree:
    """Binary tree of the monic products prod(z - x_i) over point subsets.

    ``levels[0]`` holds the leaf linears (z - x_i); each higher level pairs
    adjacent nodes, carrying an unpaired trailing node up unchanged.
    """

    def __init__(self, xs: Sequence[int], f: Field):
        self.field = f
        self.xs = list(xs)
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

    @property
    def root(self) -> list[int]:
        return self.levels[-1][0]

    def remainders(self, p: list[int]) -> list[int]:
        """Evaluate p at every tree point by repeated remaindering."""
        f = self.field
        cur = [_rem(p, self.root, f)]
        for lev in range(len(self.levels) - 2, -1, -1):
            nodes = self.levels[lev]
            cur = [_rem(cur[j // 2], nodes[j], f)
                   for j in range(len(nodes))]
        return [c[0] if c else 0 for c in cur]

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
    p = _raw_prime(f)
    for x, y in zip(xs, ys):
        # q = master / (z - x) by synthetic division from the top
        q = [0] * (len(master) - 1)
        acc = 0
        if p is not None:
            for j in range(len(master) - 1, 0, -1):
                acc = (master[j] + acc * x) % p
                q[j - 1] = acc
            w = y * pow(_eval_at(q, x, f), -1, p) % p
            for j, c in enumerate(q):
                out[j] = (out[j] + w * c) % p
        else:
            for j in range(len(master) - 1, 0, -1):
                acc = f.add(master[j], f.mul(acc, x))
                q[j - 1] = acc
            w = f.mul(y, f.inv(_eval_at(q, x, f)))
            for j, c in enumerate(q):
                out[j] = f.add(out[j], f.mul(w, c))
    return out


def _interp_fast(xs, ys, f: Field) -> list[int]:
    tree = SubproductTree(xs, f)
    dens = tree.remainders(_deriv(tree.root, f))
    ws = [f.mul(y, f.inv(d)) for y, d in zip(ys, dens)]
    return tree.combine(ws)


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
        return SubproductTree(xs, f).remainders(list(poly.coeffs))
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

    def scale(self, s: int) -> "DensePoly":
        return DensePoly(self.field, _lscale(list(self.coeffs), s, self.field))

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
