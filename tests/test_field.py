"""Field arithmetic: frozen examples, axioms, counting, and table checks."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codedsm.field import (
    COMBINE_BASE,
    REDUCTION_POLYS,
    BinaryField,
    ConfigurationError,
    CounterBoard,
    LoopKernels,
    OpCounter,
    PrimeField,
    PrimeKernels,
    Table,
    _remainders_ops,
    counting,
    parse_field,
)
from codedsm.poly import DensePoly, SubproductTree

F11 = PrimeField(11)
FBIG = PrimeField((1 << 31) - 1)
GF8 = BinaryField(3)
GF256 = BinaryField(8)


# ---------------------------------------------------------------------------
# frozen worked examples
# ---------------------------------------------------------------------------

def test_f11_mul_example():
    assert F11.mul(9, 3) == 5


def test_f11_inverse_examples():
    assert F11.inv(2) == 6
    assert F11.inv(10) == 10


def test_gf8_reduction_example():
    # x * x^2 = x^3 = x + 1 under x^3 + x + 1
    assert GF8.reduction == 0b1011
    assert GF8.mul(0b010, 0b100) == 0b011


# ---------------------------------------------------------------------------
# axioms and inverses
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", [F11, FBIG, GF8, GF256], ids=repr)
def test_field_axioms_random_triples(field):
    rng = random.Random(20240901)
    for _ in range(10_000):
        a = field.rand(rng)
        b = field.rand(rng)
        c = field.rand(rng)
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == \
            field.add(field.mul(a, b), field.mul(a, c))
        assert field.add(a, 0) == a
        assert field.mul(a, 1) == a
        assert field.add(a, field.neg(a)) == 0


@pytest.mark.parametrize("field", [F11, GF8, PrimeField(97), BinaryField(10)],
                         ids=repr)
def test_exhaustive_inverses(field):
    # every nonzero element has a two-sided inverse; |F| <= 2^10 keeps it cheap
    for a in range(1, field.order):
        inv = field.inv(a)
        assert field.mul(a, inv) == 1
        assert field.mul(inv, a) == 1


def test_inverse_of_zero_raises():
    for field in (F11, GF256):
        with pytest.raises(ZeroDivisionError):
            field.inv(0)


@given(a=st.integers(0, 255), b=st.integers(0, 255))
def test_embedding_is_a_boolean_homomorphism(a, b):
    # bits embed as the words 0 and 1, where add is XOR and mul is AND
    x, y = a & 1, b & 1
    assert GF256.add(x, y) == x ^ y
    assert GF256.mul(x, y) == x & y


# ---------------------------------------------------------------------------
# operand checks
# ---------------------------------------------------------------------------

def test_mixed_field_operands_rejected():
    a = DensePoly(F11, [4, 1])
    for other in (DensePoly(PrimeField(13), [4, 1]), DensePoly(GF8, [1])):
        with pytest.raises(ConfigurationError):
            _ = a + other
        with pytest.raises(ConfigurationError):
            _ = a - other
        with pytest.raises(ConfigurationError):
            _ = a * other
        with pytest.raises(ConfigurationError):
            a.divmod(other)


def test_non_canonical_values_rejected():
    with pytest.raises(ConfigurationError):
        F11.check(11)
    with pytest.raises(ConfigurationError):
        GF8.check(8)
    with pytest.raises(ConfigurationError):
        F11.check(-1)


def test_nonprime_modulus_rejected():
    with pytest.raises(ConfigurationError):
        PrimeField(12)


# ---------------------------------------------------------------------------
# operation counting
# ---------------------------------------------------------------------------

def test_counter_records_ops():
    c = OpCounter()
    with counting(c):
        F11.mul(3, 4)
        F11.add(1, 2)
        F11.inv(7)
    assert (c.adds, c.muls, c.invs) == (1, 1, 1)
    assert c.total() == 3


def test_counting_is_scoped():
    outer = OpCounter()
    inner = OpCounter()
    with counting(outer):
        F11.mul(2, 2)
        with counting(inner):
            F11.mul(2, 2)
            F11.mul(2, 2)
        F11.add(1, 1)
    assert outer.muls == 1 and outer.adds == 1
    assert inner.muls == 2 and inner.total() == 2


def test_counts_deterministic_for_fixed_seed():
    def run():
        c = OpCounter()
        rng = random.Random(7)
        with counting(c):
            for _ in range(500):
                GF256.mul(GF256.rand(rng), GF256.rand(rng))
                F11.add(F11.rand(rng), F11.rand(rng))
        return (c.adds, c.muls, c.invs)

    assert run() == run()


def test_counter_board_aggregation():
    board = CounterBoard()
    with board.scope("node0", "rho"):
        F11.mul(2, 3)
    with board.scope("node0", "psi"):
        F11.mul(2, 3)
        F11.add(2, 3)
    with board.scope("node1", "rho"):
        F11.inv(2)
    assert board.get("node0").total() == 3
    assert board.get(phase="rho").muls == 1
    assert board.get(phase="rho").invs == 1
    assert board.get("node0", "psi").adds == 1
    board.reset()
    assert board.get().total() == 0


# ---------------------------------------------------------------------------
# reduction polynomial table
# ---------------------------------------------------------------------------

def _pmulmod(a, b, f, m):
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> m & 1:
            a ^= f
    return r


def _pgcd(a, b):
    while b:
        while a and a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def _is_irreducible(f, m):
    x2k = 2
    for _ in range(m):
        x2k = _pmulmod(x2k, x2k, f, m)
    if x2k != 2:
        return False
    primes = set()
    q, d = m, 2
    while d * d <= q:
        while q % d == 0:
            primes.add(d)
            q //= d
        d += 1
    if q > 1:
        primes.add(q)
    for p in primes:
        h = 2
        for _ in range(m // p):
            h = _pmulmod(h, h, f, m)
        if _pgcd(f, h ^ 2) != 1:
            return False
    return True


def test_reduction_table_is_irreducible_and_low_weight():
    assert set(REDUCTION_POLYS) == set(range(1, 33))
    for m in range(2, 33):
        f = REDUCTION_POLYS[m]
        assert f.bit_length() == m + 1
        assert bin(f).count("1") in (3, 5)
        assert _is_irreducible(f, m)


def test_gf16_tables_match_carryless_mul():
    gf = BinaryField(4)
    for a in range(16):
        for b in range(16):
            assert gf.mul(a, b) == gf._clmul(a, b)


@settings(max_examples=200)
@given(st.integers(1, (1 << 18) - 1), st.integers(1, (1 << 18) - 1))
def test_gf18_untabled_mul_agrees_with_pow_order(a, b):
    # m=18 is above the table threshold; sanity-check via commutativity
    # and the known group order
    gf = BinaryField(18)
    assert gf.mul(a, b) == gf.mul(b, a)
    assert gf.pow_(a, gf.order - 1) == 1


def test_parse_field():
    assert parse_field("prime:11") == F11
    assert parse_field("binary:8") == GF256
    with pytest.raises(ConfigurationError):
        parse_field("weird:9")
    with pytest.raises(ConfigurationError):
        parse_field("prime:15")


# ---------------------------------------------------------------------------
# bulk kernels
# ---------------------------------------------------------------------------

def test_kernel_backend_follows_the_int64_bound():
    # one prime backend; 3037000493 is the largest prime with p^2 < 2^63
    for p in (2, 97, (1 << 31) - 1, 3037000493, 4294967311, (1 << 61) - 1):
        assert type(PrimeField(p).kernels) is PrimeKernels
    assert PrimeField(3037000493).kernels.dtype is np.int64
    assert PrimeField(4294967311).kernels.dtype is object
    assert PrimeField((1 << 61) - 1).kernels.dtype is object
    assert type(GF256.kernels) is LoopKernels


F97 = PrimeField(97)
ELEM97 = st.integers(0, 96)
# int64 numpy, then Python-int numpy, on either side of p^2 = 2^63
BULK_PRIMES = [97, (1 << 31) - 1, 4294967311, (1 << 61) - 1]


def _values_and_counts(fn):
    c = OpCounter()
    with counting(c):
        out = fn()
    return out, c


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 7), k=st.integers(1, 7),
       p=st.sampled_from(BULK_PRIMES))
def test_int64_kernels_match_loop_kernels(data, n, k, p):
    fld = PrimeField(p)
    loop = LoopKernels(fld)
    elem = st.integers(0, p - 1)
    row = st.lists(elem, min_size=k, max_size=k)
    M = data.draw(st.lists(row, min_size=n, max_size=n))
    v = data.draw(row)
    want = _values_and_counts(lambda: loop.matvec(M, v))
    assert _values_and_counts(lambda: fld.kernels.matvec(M, v)) == want
    T = Table(map(tuple, M))
    assert _values_and_counts(lambda: fld.kernels.matvec(T, v)) == want
    pts = data.draw(st.lists(elem, min_size=1, max_size=n, unique=True))
    assert fld.kernels.power_table(pts, k) == loop.power_table(pts, k)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 40), p=st.sampled_from(BULK_PRIMES))
def test_int64_lagrange_matches_loop_kernels(data, n, p):
    # values and counts: the vectorised kernel charges the loops' counts
    fld = PrimeField(p)
    loop = LoopKernels(fld)
    elem = st.integers(0, p - 1)
    xs = data.draw(st.lists(elem, min_size=min(n, p), max_size=min(n, p),
                            unique=True))
    ys = data.draw(st.lists(elem, min_size=len(xs), max_size=len(xs)))
    master = [1]
    for x in xs:
        master = loop.mul_schoolbook(master, [fld.neg(x), 1])
    expected, want = _values_and_counts(
        lambda: loop.lagrange(master, xs, ys))
    assert _values_and_counts(
        lambda: fld.kernels.lagrange(master, xs, ys)) == (expected, want)
    assert [loop.horner(expected, x) for x in xs] == ys


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 1 << 30),
       p=st.sampled_from(BULK_PRIMES + [3037000493]))
@example(n=COMBINE_BASE, seed=1, p=(1 << 31) - 1)
@example(n=2 * COMBINE_BASE, seed=2, p=3037000493)
@example(n=300, seed=3, p=(1 << 31) - 1)
@example(n=300, seed=4, p=(1 << 61) - 1)
def test_int64_combine_matches_loop_kernels(n, seed, p):
    # one block, several, and a trailing partial one, cold and then warm;
    # 3037000493 is the largest int64 prime, and above it the object
    # dtype keeps the loop.  Every weight at p - 1 is the widest sum.
    fld = PrimeField(p)
    rng = random.Random(seed)
    xs = rng.sample(range(p), min(n, p))
    pick = (lambda: p - 1) if seed % 3 == 0 else (lambda: rng.randrange(p))
    ws = [pick() for _ in xs]
    tree = SubproductTree(xs, fld)
    want = _values_and_counts(lambda: LoopKernels(fld).combine(tree, ws))
    for _ in range(2):
        assert _values_and_counts(
            lambda: fld.kernels.combine(tree, ws)) == want


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 1 << 30),
       p=st.sampled_from([5, 13] + BULK_PRIMES + [3037000493]))
@example(n=3, seed=1, p=5)
@example(n=5, seed=2, p=13)
@example(n=77, seed=3, p=97)
@example(n=129, seed=4, p=(1 << 31) - 1)
@example(n=300, seed=5, p=3037000493)
@example(n=300, seed=6, p=(1 << 61) - 1)
def test_int64_remainders_match_loop_kernels(n, seed, p):
    # operands shorter than the tree, as long, and longer, cold and then
    # warm.  Small primes make a zero top coefficient common, and one
    # operand, a multiple of a node the loop divides, forces one: both
    # leave the count from the tree's shape for the loop's.  Above
    # 3037000493 the object dtype keeps the loop.
    fld = PrimeField(p)
    rng = random.Random(seed)
    xs = rng.sample(range(p), min(n, p))
    n = len(xs)
    tree, loop_tree = SubproductTree(xs, fld), SubproductTree(xs, fld)
    lengths = (0, 1, rng.randrange(n), n, n + 1, 2 * n + 1)
    cases = [[rng.randrange(p) for _ in range(m)] for m in lengths]
    levels = tree.levels
    divided = [node for lev in range(1, len(levels))
               for j, node in enumerate(levels[lev]) if len(node) > 2
               and (lev == len(levels) - 1
                    or len(node) < len(levels[lev + 1][j // 2]))]
    if divided:
        cofactor = [rng.randrange(p) for _ in range(rng.randint(1, n))]
        cases.append(LoopKernels(fld).mul_schoolbook(cofactor,
                                                      rng.choice(divided)))
    for a in cases:
        want = _values_and_counts(
            lambda: LoopKernels(fld).remainders(loop_tree, a))
        for _ in range(2):
            assert _values_and_counts(
                lambda: fld.kernels.remainders(tree, a)) == want
    if divided:
        assert (want[1].adds, want[1].muls) != _remainders_ops(n, len(a))
    assert (tree.node_weights is None) == (fld.kernels.dtype is object)


def test_table_arrays_are_kept_per_dtype():
    # one table through an int64 kernel and a Python-int kernel: each
    # reads its own array, and a big prime's products never wrap
    big = PrimeField((1 << 61) - 1)
    t = F97.kernels.power_table((3, 5, 96), 3)
    v = (96, 95, 94)
    for fld in (F97, big, F97):
        assert fld.kernels.matvec(t, v) == LoopKernels(fld).matvec(t, v)
    assert t.array(np.int64).dtype == np.int64
    assert t.array(object).dtype == object
    assert t.array(np.int64) is t.array(np.int64)
    assert big.kernels.matvec(t, (big.p - 1,) * 3) \
        == tuple((-sum(row)) % big.p for row in t)


def test_power_table_is_cached_and_uncounted():
    c = OpCounter()
    with counting(c):
        t = F11.kernels.power_table((3, 4), 3)
    assert c.total() == 0
    assert F11.kernels.power_table([3, 4], 3) is t


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 80), st.integers(1, 80), st.integers(0, 1 << 30),
       st.sampled_from([2, 97, (1 << 31) - 1, 4294967311, (1 << 61) - 1]))
def test_polymul_is_the_exact_product(la, lb, seed, p):
    # every coefficient at its largest value is the worst case for the
    # slot width, so draw it often
    rng = random.Random(seed)
    pick = (lambda: p - 1) if seed % 3 == 0 else (lambda: rng.randrange(p))
    a = [pick() for _ in range(la)]
    b = [pick() for _ in range(lb)]
    want = [0] * (la + lb - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            want[i + j] = (want[i + j] + x * y) % p
    c = OpCounter()
    with counting(c):
        assert PrimeField(p).kernels.polymul(a, b) == want
    assert c.total() == 0
