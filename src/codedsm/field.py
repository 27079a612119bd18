"""Exact finite-field arithmetic with ambient operation counting.

Two field kinds are supported: prime fields F_p (elements are integers
reduced mod p) and binary extension fields GF(2^m) (elements are bitmasks
of polynomials over F_2 reduced modulo a built-in irreducible polynomial).
Inversion uses the extended Euclidean algorithm in both kinds, so results
are exact and never probabilistic.

Every arithmetic call is charged to the currently active operation counter,
if any.  The simulation layer switches counters when it runs code on behalf
of a node, a worker, or an auditor, which is how per-role complexity is
measured without threading counter objects through every call site.

Bulk arithmetic (power tables of public points, matrix-vector products
and the polynomial layer's coefficient-list arithmetic) lives here too,
in each field's ``kernels``.  The field picks them once, at construction:

- `LoopKernels` for GF(2^m): every kernel is a loop over the field's
  counted operations.  It is also the reference the other must match.
- `PrimeKernels` for every prime: the polynomial kernels run on raw ints,
  and matrix-vector products and naive interpolation on numpy arrays
  (int64 when p^2 < 2^63, Python ints otherwise).

Both backends charge the same count for the same kernel call: what the
loops count for those operands.  The kernels also keep the bounded caches
of public per-point-set work (`Memo`).
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class ConfigurationError(ValueError):
    """Raised for invalid field/protocol configurations and mixed-field use."""


# ---------------------------------------------------------------------------
# operation counting
# ---------------------------------------------------------------------------

@dataclass
class OpCounter:
    """Tally of field operations charged to one accounting scope."""

    adds: int = 0
    muls: int = 0
    invs: int = 0

    def total(self) -> int:
        return self.adds + self.muls + self.invs

    def reset(self) -> None:
        self.adds = self.muls = self.invs = 0

    def __iadd__(self, other: "OpCounter") -> "OpCounter":
        self.adds += other.adds
        self.muls += other.muls
        self.invs += other.invs
        return self

    def __add__(self, other: "OpCounter") -> "OpCounter":
        return OpCounter(self.adds + other.adds, self.muls + other.muls,
                         self.invs + other.invs)


_ACTIVE: OpCounter | None = None


@contextmanager
def counting(counter: OpCounter):
    """Make ``counter`` the active sink for field-operation charges."""
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = counter
    try:
        yield counter
    finally:
        _ACTIVE = prev


@contextmanager
def uncounted():
    """Suspend operation counting, e.g. while building public setup tables."""
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = None
    try:
        yield
    finally:
        _ACTIVE = prev


def charge(adds: int = 0, muls: int = 0, invs: int = 0) -> None:
    """Bulk-charge operations to the active counter.

    Used by vectorized code paths that perform a known number of field
    operations without routing each one through a Field method.
    """
    c = _ACTIVE
    if c is not None:
        c.adds += adds
        c.muls += muls
        c.invs += invs


class CounterBoard:
    """Per-scope operation counters, keyed by (owner, phase).

    Owners are strings such as ``"node3"`` or ``"client0"``; phases name the
    protocol stage being accounted (``"rho"`` compute, ``"psi"`` decode,
    ``"chi"`` update, ``"audit"``, ...).
    """

    def __init__(self):
        self.counters: dict[tuple[str, str], OpCounter] = {}

    @contextmanager
    def scope(self, owner: str, phase: str = "work"):
        key = (owner, phase)
        counter = self.counters.get(key)
        if counter is None:
            counter = self.counters[key] = OpCounter()
        with counting(counter):
            yield counter

    def get(self, owner: str | None = None, phase: str | None = None) -> OpCounter:
        """Aggregate counters matching the given owner and/or phase."""
        agg = OpCounter()
        for (o, ph), c in self.counters.items():
            if owner is not None and o != owner:
                continue
            if phase is not None and ph != phase:
                continue
            agg += c
        return agg

    def reset(self) -> None:
        self.counters.clear()


# ---------------------------------------------------------------------------
# bulk kernels
# ---------------------------------------------------------------------------

TABLE_CACHE_SIZE = 256
POINT_SET_CACHE_SIZE = 32
SCHOOLBOOK_MAX = 16   # polymul multiplies directly up to this len(a) * len(b)
KARATSUBA_BASE = 8   # sizes at or below this multiply schoolbook-style


class Memo:
    """A bounded cache of repeated work, oldest entry evicted first.

    ``get`` builds a missing value once and, on every call, hit or miss,
    charges the active counter what that build counted.  So a hit saves
    time but never changes a count.  ``size=None`` keeps every entry.

    This is the simulator's one charging rule for repeated work: each
    node is charged what it runs, and a Byzantine node what an honest one
    would run; a computation that many nodes or roles repeat on the same
    input is computed once and charged to each of them, by one ``get``
    per node.
    """

    def __init__(self, size: int | None = None):
        self.size = size
        self._items: dict = {}

    def __len__(self) -> int:
        return len(self._items)

    def get(self, key, build):
        item = self._items.get(key)
        if item is None:
            cost = OpCounter()
            with counting(cost):
                value = build()
            if self.size is not None and len(self._items) >= self.size:
                del self._items[next(iter(self._items))]
            item = self._items[key] = (value, cost)
        value, cost = item
        charge(cost.adds, cost.muls, cost.invs)
        return value


class Table(tuple):
    """A public matrix of field elements: a tuple of row tuples of ints.

    Tables are built once and reused, so the numpy form a kernel needs is
    computed on first use and kept with the table, one per dtype.
    """

    def array(self, dtype) -> np.ndarray:
        arrays = self.__dict__.setdefault("_arrays", {})
        a = arrays.get(dtype)
        if a is None:
            a = arrays[dtype] = np.array(self, dtype=dtype)
        return a


class LoopKernels:
    """Bulk field arithmetic as loops over the field's counted operations.

    Exact in every field, and the per-operation reference for the other
    backends.  Each kernel takes and returns Python ints.  The polynomial
    kernels work on coefficient lists, low to high degree.  ``point_sets``
    caches the polynomial layer's per-point-set work.
    """

    def __init__(self, field: "Field"):
        self.field = field
        self._tables = Memo(TABLE_CACHE_SIZE)
        self.point_sets = Memo(POINT_SET_CACHE_SIZE)

    def power_table(self, points, ncols: int) -> Table:
        """Row i is (1, x_i, x_i^2, ...) with ncols entries.

        Public setup over public points, so it is not charged to any
        counter; the last TABLE_CACHE_SIZE tables are cached.
        """
        points = tuple(points)
        return self._tables.get((points, ncols),
                                lambda: self._power_rows(points, ncols))

    def _power_rows(self, points, ncols: int) -> Table:
        f = self.field
        rows = []
        with uncounted():
            for x in points:
                row, xj = [], 1
                for _ in range(ncols):
                    row.append(xj)
                    xj = f.mul(xj, x)
                rows.append(tuple(row))
        return Table(rows)

    # -- polynomial kernels ------------------------------------------------

    def add(self, a, b) -> list[int]:
        """a + b; one add per coefficient of the shorter operand."""
        if len(a) < len(b):
            a, b = b, a
        f = self.field
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return out

    def sub(self, a, b) -> list[int]:
        """a - b; one add per coefficient of b."""
        f = self.field
        out = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] = f.sub(out[i], c)
        return out

    def mul_schoolbook(self, a, b) -> list[int]:
        """a * b; one add and one mul per pair of coefficients."""
        if not a or not b:
            return []
        f = self.field
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = f.add(out[i + j], f.mul(ai, bj))
        return out

    def mul_karatsuba(self, a, b) -> list[int]:
        """a * b by Karatsuba, schoolbook at or below KARATSUBA_BASE."""
        if not a or not b:
            return []
        n = max(len(a), len(b))
        if n <= KARATSUBA_BASE or min(len(a), len(b)) == 1:
            return self.mul_schoolbook(a, b)
        f = self.field
        h = n // 2
        a0, a1 = a[:h], a[h:]
        b0, b1 = b[:h], b[h:]
        p0 = self.mul_karatsuba(a0, b0)
        p2 = self.mul_karatsuba(a1, b1)
        pm = self.mul_karatsuba(self.add(a0, a1), self.add(b0, b1))
        p1 = self.sub(self.sub(pm, p0), p2)
        out = [0] * (len(a) + len(b) - 1)
        out[:len(p0)] = p0
        for i, c in enumerate(p1):
            out[h + i] = f.add(out[h + i], c)
        for i, c in enumerate(p2):
            out[2 * h + i] = f.add(out[2 * h + i], c)
        return out

    def horner(self, a, x: int) -> int:
        """a(x); one add and one mul per coefficient."""
        f = self.field
        acc = 0
        for c in reversed(a):
            acc = f.add(f.mul(acc, x), c)
        return acc

    def divmod(self, a, b) -> tuple[list[int], list[int]]:
        """Long division by a trimmed nonzero b with len(b) <= len(a).

        Returns the quotient and the len(b) - 1 low coefficients of the
        remainder, both untrimmed.  A quotient term costs a mul unless b
        is monic, and one add and one mul per coefficient of b unless the
        term is zero.
        """
        f = self.field
        a = list(a)
        db, lead = len(b) - 1, b[-1]
        ilead = f.inv(lead) if lead != 1 else 1
        q = [0] * (len(a) - db)
        for i in range(len(a) - 1, db - 1, -1):
            c = a[i] if lead == 1 else f.mul(a[i], ilead)
            q[i - db] = c
            if c != 0:
                for j in range(db + 1):
                    a[i - db + j] = f.sub(a[i - db + j], f.mul(c, b[j]))
        return q, a[:db]

    def rem_linear(self, a, b) -> int:
        """[a0, a1] mod the monic [b0, 1]: one Horner step.

        Charged 5 adds and 3 muls, what the series-inverse remainder of
        the polynomial layer counts for these lengths.
        """
        charge(adds=5, muls=3)
        f = self.field
        with uncounted():
            return f.sub(a[0], f.mul(a[1], b[0]))

    def lagrange(self, master, xs, ys) -> list[int]:
        """The polynomial through (xs, ys), given master = prod (z - x_i)."""
        f = self.field
        out = [0] * len(xs)
        for x, y in zip(xs, ys):
            # q = master / (z - x) by synthetic division from the top
            q = [0] * (len(master) - 1)
            acc = 0
            for j in range(len(master) - 1, 0, -1):
                acc = f.add(master[j], f.mul(acc, x))
                q[j - 1] = acc
            w = f.mul(y, f.inv(self.horner(q, x)))
            for j, c in enumerate(q):
                out[j] = f.add(out[j], f.mul(w, c))
        return out

    # -- matrix-vector product ---------------------------------------------

    def matvec(self, matrix, vector) -> tuple[int, ...]:
        """Counted exact matrix-vector product.

        A row of k entries sums its k products from the first one: k muls
        and k - 1 adds.
        """
        f = self.field
        out = []
        for row in matrix:
            if len(row) != len(vector):
                raise ValueError("dimension mismatch")
            acc = 0
            for j, (a, x) in enumerate(zip(row, vector)):
                m = f.mul(a, x)
                acc = f.add(acc, m) if j else m
            out.append(acc)
        return tuple(out)

@lru_cache(maxsize=1 << 14)
def _kar_ops(la: int, lb: int) -> tuple[int, int]:
    """The (adds, muls) `LoopKernels.mul_karatsuba` makes for these lengths."""
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


class PrimeKernels(LoopKernels):
    """The kernels on raw ints and numpy arrays mod p, charged in bulk.

    Each kernel charges exactly what its `LoopKernels` version counts for
    the same operands: the counts follow from the operands' lengths (and,
    in long division, from which quotient terms vanish).  The numpy
    kernels, `matvec` and `lagrange`, use ``dtype``: int64 when p^2 < 2^63,
    so every product of two reduced values fits, and Python-int ``object``
    otherwise.  Exact for any prime.  The ``object`` kernels make one
    Python-int operation per element plus numpy's dispatch, so for
    p^2 >= 2^63 they are slower than a raw-int loop would be; they are
    kept as the one code path because no workload uses such a prime.
    """

    def __init__(self, field: "PrimeField"):
        super().__init__(field)
        self.p = field.p
        self.dtype = np.int64 if self.p * self.p < 1 << 63 else object

    def polymul(self, a, b) -> list[int]:
        """The product of two coefficient lists, uncounted.

        Short operands multiply schoolbook-style; longer ones make one
        big-integer product (Kronecker substitution): each operand is
        packed into an int with slots wide enough for any coefficient of
        the product, so no carry crosses a slot.
        """
        if not a or not b:
            return []
        p = self.p
        la, lb = len(a), len(b)
        if la * lb <= SCHOOLBOOK_MAX:
            out = [0] * (la + lb - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return [c % p for c in out]
        w = (min(la, lb) * (p - 1) ** 2).bit_length() // 8 + 1
        packed = [int.from_bytes(b"".join([c.to_bytes(w, "little")
                                           for c in v]), "little")
                  for v in (a, b)]
        raw = (packed[0] * packed[1]).to_bytes(w * (la + lb - 1), "little")
        return [int.from_bytes(raw[i:i + w], "little") % p
                for i in range(0, len(raw), w)]

    def add(self, a, b) -> list[int]:
        if len(a) < len(b):
            a, b = b, a
        p = self.p
        charge(adds=len(b))
        return [(x + y) % p for x, y in zip(a, b)] + list(a[len(b):])

    def sub(self, a, b) -> list[int]:
        p = self.p
        charge(adds=len(b))
        return [(x - y) % p for x, y in zip(a, b)] + list(a[len(b):]) \
            + [-y % p for y in b[len(a):]]

    def mul_schoolbook(self, a, b) -> list[int]:
        charge(adds=len(a) * len(b), muls=len(a) * len(b))
        return self.polymul(a, b)

    def mul_karatsuba(self, a, b) -> list[int]:
        adds, muls = _kar_ops(len(a), len(b))
        charge(adds=adds, muls=muls)
        return self.polymul(a, b)

    def horner(self, a, x: int) -> int:
        p = self.p
        acc = 0
        for c in reversed(a):
            acc = (acc * x + c) % p
        charge(adds=len(a), muls=len(a))
        return acc

    def divmod(self, a, b) -> tuple[list[int], list[int]]:
        p = self.p
        a = list(a)
        db, lead = len(b) - 1, b[-1]
        ilead = self.field.inv(lead) if lead != 1 else 1
        q = [0] * (len(a) - db)
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
        return q, a[:db]

    def rem_linear(self, a, b) -> int:
        charge(adds=5, muls=3)
        return (a[0] - a[1] * b[0]) % self.p

    def matvec(self, matrix, vector) -> tuple[int, ...]:
        if not len(matrix):
            return ()
        dt = self.dtype
        M = matrix.array(dt) if isinstance(matrix, Table) \
            else np.array(matrix, dtype=dt)
        v = np.array(vector, dtype=dt)
        if M.ndim != 2 or M.shape[1] != len(v):
            raise ValueError("dimension mismatch")
        p = self.p
        n, k = M.shape
        # in int64 a row sums k reduced products, below k * p < 2^63 for
        # any k that fits in memory
        out = (M * v[None, :] % p).sum(axis=1) % p
        charge(adds=n * max(0, k - 1), muls=n * k)
        return tuple(int(x) for x in out)

    def lagrange(self, master, xs, ys) -> list[int]:
        # `LoopKernels.lagrange` run for every point at once: row i of q is
        # master / (z - x_i), and h_i = q_i(x_i) the Horner check
        n = len(xs)
        if not n:
            return []
        p, dt = self.p, self.dtype
        x = np.array(xs, dtype=dt)
        q = np.zeros((n, n), dtype=dt)
        acc = np.zeros(n, dtype=dt)
        for j in range(n, 0, -1):
            acc = (master[j] + acc * x) % p
            q[:, j - 1] = acc
        h = np.zeros(n, dtype=dt)
        for j in range(n - 1, -1, -1):
            h = (h * x + q[:, j]) % p
        w = np.array([y * pow(int(d), -1, p) % p for y, d in zip(ys, h)],
                     dtype=dt)
        # in int64 a column sums n reduced products, below n * p < 2^63
        out = (w[:, None] * q % p).sum(axis=0) % p
        charge(adds=3 * n * n, muls=n * (3 * n + 1), invs=n)
        return [int(c) for c in out]


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin; the witness set covers all n < 3.3e24
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Abstract finite field.  Elements are canonical Python ints."""

    order: int
    char: int
    kernels: LoopKernels

    def add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def sub(self, a: int, b: int) -> int:
        raise NotImplementedError

    def neg(self, a: int) -> int:
        raise NotImplementedError

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    def pow_(self, a: int, e: int) -> int:
        """Square-and-multiply exponentiation (e may be negative)."""
        if e < 0:
            a, e = self.inv(a), -e
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def contains(self, a: int) -> bool:
        return isinstance(a, int) and 0 <= a < self.order

    def check(self, a: int) -> int:
        if not self.contains(a):
            raise ConfigurationError(f"{a!r} is not a canonical element of {self}")
        return a

    def rand(self, rng: random.Random) -> int:
        return rng.randrange(self.order)

    def embed_bit(self, b: int) -> int:
        raise ConfigurationError("bit embedding requires a binary extension field")

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self._key() == other._key()

    def _key(self) -> tuple:
        raise NotImplementedError

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(order={self.order})"


class PrimeField(Field):
    """F_p for prime p."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ConfigurationError(f"modulus {p} is not prime")
        self.p = p
        self.order = p
        self.char = p
        self.kernels = PrimeKernels(self)

    def add(self, a, b):
        c = _ACTIVE
        if c is not None:
            c.adds += 1
        return (a + b) % self.p

    def sub(self, a, b):
        c = _ACTIVE
        if c is not None:
            c.adds += 1
        return (a - b) % self.p

    def neg(self, a):
        c = _ACTIVE
        if c is not None:
            c.adds += 1
        return -a % self.p

    def mul(self, a, b):
        c = _ACTIVE
        if c is not None:
            c.muls += 1
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        c = _ACTIVE
        if c is not None:
            c.invs += 1
        # CPython's pow(a, -1, p) runs the extended Euclidean algorithm
        return pow(a, -1, self.p)

    def _key(self):
        return ("prime", self.p)

    def __repr__(self):
        return f"PrimeField({self.p})"


# Lowest-weight irreducible reduction polynomials over F_2, as bitmasks
# (trinomial where one exists for the degree, pentanomial otherwise).
REDUCTION_POLYS: dict[int, int] = {
    1: 0x3,            # x + 1
    2: 0x7,            # x^2 + x + 1
    3: 0xB,            # x^3 + x + 1
    4: 0x13,           # x^4 + x + 1
    5: 0x25,           # x^5 + x^2 + 1
    6: 0x43,           # x^6 + x + 1
    7: 0x83,           # x^7 + x + 1
    8: 0x187,          # x^8 + x^7 + x^2 + x + 1
    9: 0x203,          # x^9 + x + 1
    10: 0x409,         # x^10 + x^3 + 1
    11: 0x805,         # x^11 + x^2 + 1
    12: 0x1009,        # x^12 + x^3 + 1
    13: 0x2027,        # x^13 + x^5 + x^2 + x + 1
    14: 0x4021,        # x^14 + x^5 + 1
    15: 0x8003,        # x^15 + x + 1
    16: 0x10047,       # x^16 + x^6 + x^2 + x + 1
    17: 0x20009,       # x^17 + x^3 + 1
    18: 0x40009,       # x^18 + x^3 + 1
    19: 0x80027,       # x^19 + x^5 + x^2 + x + 1
    20: 0x100009,      # x^20 + x^3 + 1
    21: 0x200005,      # x^21 + x^2 + 1
    22: 0x400003,      # x^22 + x + 1
    23: 0x800021,      # x^23 + x^5 + 1
    24: 0x1000087,     # x^24 + x^7 + x^2 + x + 1
    25: 0x2000009,     # x^25 + x^3 + 1
    26: 0x4000047,     # x^26 + x^6 + x^2 + x + 1
    27: 0x8000027,     # x^27 + x^5 + x^2 + x + 1
    28: 0x10000003,    # x^28 + x + 1
    29: 0x20000005,    # x^29 + x^2 + 1
    30: 0x40000003,    # x^30 + x + 1
    31: 0x80000009,    # x^31 + x^3 + 1
    32: 0x100400007,   # x^32 + x^22 + x^2 + x + 1
}

_LOG_TABLE_MAX_M = 16


class BinaryField(Field):
    """GF(2^m) with elements stored as bitmasks of degree < m.

    Multiplication uses discrete log/antilog tables for m <= 16 and
    carry-less shift-and-add reduction above that.  Either way each call
    counts as a single field multiplication.
    """

    def __init__(self, m: int):
        if m not in REDUCTION_POLYS:
            raise ConfigurationError(f"unsupported extension degree m={m}")
        self.m = m
        self.order = 1 << m
        self.char = 2
        self.reduction = REDUCTION_POLYS[m]
        # log/antilog tables are built lazily on first multiplication
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._tables_wanted = m <= _LOG_TABLE_MAX_M
        self.kernels = LoopKernels(self)

    # raw carry-less multiply with reduction, independent of tables
    def _clmul(self, a: int, b: int) -> int:
        r = 0
        red = self.reduction
        m = self.m
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a >> m & 1:
                a ^= red
        return r

    def _build_tables(self) -> None:
        # find a multiplicative generator by trial
        n = self.order - 1
        fac = []
        q, d = n, 2
        while d * d <= q:
            if q % d == 0:
                fac.append(d)
                while q % d == 0:
                    q //= d
            d += 1
        if q > 1:
            fac.append(q)
        g = 2
        while True:
            if all(self._pow_raw(g, n // f) != 1 for f in fac):
                break
            g += 1
        exp = [1] * (2 * n)
        log = [0] * self.order
        x = 1
        for i in range(n):
            exp[i] = x
            log[x] = i
            x = self._clmul(x, g)
        for i in range(n, 2 * n):
            exp[i] = exp[i - n]
        self._exp, self._log = exp, log

    def _pow_raw(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._clmul(r, a)
            a = self._clmul(a, a)
            e >>= 1
        return r

    def add(self, a, b):
        c = _ACTIVE
        if c is not None:
            c.adds += 1
        return a ^ b

    sub = add  # characteristic 2

    def neg(self, a):
        return a

    def mul(self, a, b):
        c = _ACTIVE
        if c is not None:
            c.muls += 1
        if a == 0 or b == 0:
            return 0
        if self._exp is None:
            if not self._tables_wanted:
                return self._clmul(a, b)
            self._build_tables()
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        c = _ACTIVE
        if c is not None:
            c.invs += 1
        # extended Euclid over F_2[x]
        r0, r1 = self.reduction, a
        s0, s1 = 0, 1
        while r1 != 0:
            d = r0.bit_length() - r1.bit_length()
            if d < 0:
                r0, r1, s0, s1 = r1, r0, s1, s0
                continue
            r0 ^= r1 << d
            s0 ^= s1 << d
        # r0 is now gcd = 1 (reduction is irreducible), s1 pairs with r1=0
        assert r0 == 1
        return self._reduce(s0)

    def _reduce(self, a: int) -> int:
        red, m = self.reduction, self.m
        while a.bit_length() > m:
            a ^= red << (a.bit_length() - m - 1)
        return a

    def embed_bit(self, b: int) -> int:
        """Map a bit to its field embedding: 0 -> all-zero word, 1 -> 0...01."""
        if b not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {b!r}")
        return b

    def _key(self):
        return ("binary", self.m)

    def __repr__(self):
        return f"BinaryField(m={self.m})"


# A tiny prime field for worked examples.
def f11() -> PrimeField:
    return PrimeField(11)


def parse_field(spec: str) -> Field:
    """Parse a field description such as ``prime:11`` or ``binary:8``."""
    try:
        kind, _, param = spec.partition(":")
        if kind == "prime":
            return PrimeField(int(param))
        if kind == "binary":
            return BinaryField(int(param))
    except ConfigurationError:
        raise
    except ValueError:
        pass
    raise ConfigurationError(f"cannot parse field spec {spec!r}")
