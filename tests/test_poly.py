"""Polynomial layer: frozen examples, round trips, fast/naive agreement."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedsm.csm import CodingConfig
from codedsm.field import (
    POINT_SET_CACHE_SIZE,
    BinaryField,
    ConfigurationError,
    LoopKernels,
    OpCounter,
    PrimeField,
    PrimeKernels,
    counting,
)
from codedsm.machine import bank_machine
from codedsm.poly import (
    DensePoly,
    SubproductTree,
    _tree,
    interpolate,
    multipoint_eval,
    vanishing,
)

F11 = PrimeField(11)
F97 = PrimeField(97)
FBIG = PrimeField((1 << 31) - 1)
GF8 = BinaryField(3)
GF8_256 = BinaryField(8)


# ---------------------------------------------------------------------------
# frozen worked examples over F_11
# ---------------------------------------------------------------------------

def test_interpolate_two_points():
    p = interpolate([(1, 4), (2, 7)], F11)
    assert list(p.coeffs) == [1, 3]  # 3z + 1
    q = interpolate([(1, 2), (2, 3)], F11)
    assert list(q.coeffs) == [1, 1]  # z + 1


def test_multipoint_linear():
    p = DensePoly(F11, [1, 3])
    assert multipoint_eval(p, [3, 4, 5, 6, 7]) == [10, 2, 5, 8, 0]


def test_multipoint_quadratic():
    p = DensePoly(F11, [1, 4, 3])  # 3z^2 + 4z + 1
    assert multipoint_eval(p, [3, 4, 5, 6, 7]) == [7, 10, 8, 1, 0]


def _deployment(fld, K, N):
    return CodingConfig(bank_machine(fld), K, N, "sync", 0)


def test_lagrange_coeff_rows():
    cfg = _deployment(F11, 2, 5)
    counter = OpCounter()
    with counting(counter):
        C = cfg.coeffs
    assert C == ((10, 2), (9, 3), (8, 4), (7, 5), (6, 6))
    # public setup: charged to no counter, built once and kept
    assert counter.total() == 0 and cfg.coeffs is C


def test_coeff_row_reproduces_evaluation():
    # row for alpha=4 applied to values (4, 7) gives u(4) where u = 3z+1
    row = _deployment(F11, 2, 5).coeffs[1]
    val = F11.add(F11.mul(row[0], 4), F11.mul(row[1], 7))
    assert val == 2
    assert val == DensePoly(F11, [1, 3])(4)


def test_coeff_matrix_equals_interpolate_then_evaluate():
    rng = random.Random(11)
    for K, N in ((2, 5), (3, 7), (5, 9)):
        dom = _deployment(F97, K, N)
        C = dom.coeffs
        vals = [F97.rand(rng) for _ in range(K)]
        u = interpolate(list(zip(dom.omegas, vals)), F97)
        direct = multipoint_eval(u, dom.alphas)
        via_C = [
            sum(C[i][k] * vals[k] for k in range(K)) % 97
            for i in range(N)
        ]
        assert direct == via_C


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

def test_duplicate_points_rejected():
    with pytest.raises(ValueError):
        interpolate([(1, 4), (1, 7)], F11)


def test_domain_validation():
    with pytest.raises(ConfigurationError, match="too small"):
        _deployment(F11, 5, 6)  # 11 points needed, order 11 too small
    with pytest.raises(ConfigurationError):
        _deployment(F11, 0, 5)
    dom = _deployment(F11, 2, 5)
    assert dom.omegas == (1, 2) and dom.alphas == (3, 4, 5, 6, 7)


def test_degree_and_zero_conventions():
    assert DensePoly.zero(F11).degree == -1
    assert DensePoly(F11, [0, 0]).degree == -1
    assert DensePoly(F11, [5]).degree == 0
    assert DensePoly(F11, [0, 1, 0]).degree == 1


@given(st.lists(st.integers(0, 96), max_size=12),
       st.lists(st.integers(0, 96), min_size=1, max_size=12))
def test_divmod_identity(acoeffs, bcoeffs):
    a = DensePoly(F97, acoeffs)
    b = DensePoly(F97, bcoeffs)
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.divmod(b)
        return
    q, r = a.divmod(b)
    assert r.degree < b.degree or r.is_zero()
    assert q * b + r == a


@given(st.integers(2, 40), st.integers(0, 1 << 30))
def test_interpolation_round_trip_random(n, seed):
    rng = random.Random(seed)
    xs = rng.sample(range(F97.order), min(n, 90))
    ys = [F97.rand(rng) for _ in xs]
    p = interpolate(list(zip(xs, ys)), F97)
    assert p.degree < len(xs)
    assert multipoint_eval(p, xs) == ys


def test_round_trip_large_sizes():
    rng = random.Random(404)
    for n in (128, 256):
        xs = rng.sample(range(FBIG.order), n)
        ys = [FBIG.rand(rng) for _ in xs]
        p = interpolate(list(zip(xs, ys)), FBIG, "fast")
        assert p.degree < n
        assert multipoint_eval(p, xs, "fast") == ys


def test_binary_field_interpolation():
    rng = random.Random(9)
    gf = BinaryField(8)
    xs = rng.sample(range(256), 20)
    ys = [gf.rand(rng) for _ in xs]
    p = interpolate(list(zip(xs, ys)), gf)
    assert multipoint_eval(p, xs) == ys
    # fast machinery over a binary field
    assert interpolate(list(zip(xs, ys)), gf, "fast") == p
    assert multipoint_eval(p, xs, "fast") == ys


# ---------------------------------------------------------------------------
# fast path == naive path
# ---------------------------------------------------------------------------

def test_fast_equals_naive_sweep():
    # 500 fresh instances per size; interpolation and multipoint evaluation
    # must agree exactly between modes on every one
    rng = random.Random(20240902)
    for n in (8, 16, 32, 64, 128, 256):
        for _ in range(500):
            xs = rng.sample(range(FBIG.order), n)
            ys = [FBIG.rand(rng) for _ in xs]
            pts = list(zip(xs, ys))
            pn = interpolate(pts, FBIG, "naive")
            pf = interpolate(pts, FBIG, "fast")
            assert pn == pf
            q = DensePoly(FBIG, [FBIG.rand(rng) for _ in range(rng.randint(1, n))])
            assert multipoint_eval(q, xs, "naive") == multipoint_eval(q, xs, "fast")


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 48), st.integers(0, 1 << 30))
def test_fast_equals_naive_binary_field(n, seed):
    gf = BinaryField(8)
    rng = random.Random(seed)
    xs = rng.sample(range(256), n)
    ys = [gf.rand(rng) for _ in xs]
    pts = list(zip(xs, ys))
    assert interpolate(pts, gf, "naive") == interpolate(pts, gf, "fast")
    p = DensePoly(gf, [gf.rand(rng) for _ in range(n)])
    assert multipoint_eval(p, xs, "naive") == multipoint_eval(p, xs, "fast")


def test_karatsuba_equals_schoolbook():
    rng = random.Random(77)
    for _ in range(200):
        la = rng.randint(0, 70)
        lb = rng.randint(0, 70)
        a = DensePoly(F97, [F97.rand(rng) for _ in range(la)])
        b = DensePoly(F97, [F97.rand(rng) for _ in range(lb)])
        assert a.mul(b, "fast") == a.mul(b, "naive")


def test_subproduct_tree_root():
    xs = [3, 4, 5]
    tree = SubproductTree(xs, F11)
    expect = DensePoly.const(F11, 1)
    for x in xs:
        expect = expect * DensePoly(F11, [F11.neg(x), 1])
    assert list(tree.root) == list(expect.coeffs)
    assert vanishing(xs, F11, "naive") == vanishing(xs, F11, "fast") == expect


@pytest.mark.parametrize("n,blocks,above", [(96, 1, 0), (300, 3, 4)])
def test_warm_interpolation_multiplies_only_above_the_blocks(
        monkeypatch, n, blocks, above):
    # 300 points make blocks of 128, 128 and 44 points, and two pairs
    # above them, each of two products; 96 points are one block
    calls = {"polymul": 0, "_quotients": 0}
    for name in calls:
        def spy(self, *args, _name=name, _real=getattr(PrimeKernels, name)):
            calls[_name] += 1
            return _real(self, *args)
        monkeypatch.setattr(PrimeKernels, name, spy)
    f = PrimeField((1 << 31) - 1)
    rng = random.Random(n)
    xs = rng.sample(range(1, f.order), n)
    interpolate([(x, f.rand(rng)) for x in xs], f, "fast")
    assert calls["_quotients"] == blocks
    calls.update(polymul=0, _quotients=0)
    interpolate([(x, f.rand(rng)) for x in xs], f, "fast")
    assert calls == {"polymul": above, "_quotients": 0}


def test_int64_evaluation_takes_the_remainder_loop_only_on_a_zero_top(
        monkeypatch):
    # a generic polynomial keeps every remainder's top coefficient, so its
    # values come from the Horner pass alone; one vanishing on the points
    # of a node (the first 32 in tree order, or all of them) zeroes that
    # node's remainder, and the loop runs
    calls = []
    real = LoopKernels._rem

    def spy(self, *args):
        calls.append(1)
        return real(self, *args)

    monkeypatch.setattr(LoopKernels, "_rem", spy)
    rng = random.Random(96)
    xs = rng.sample(range(1, FBIG.order), 96)
    q = DensePoly(FBIG, [FBIG.rand(rng) for _ in range(48)])
    for _ in range(2):
        assert multipoint_eval(q, xs, "fast") == [q(x) for x in xs]
    assert calls == []
    for r in (q * vanishing(xs[:32], FBIG), q * vanishing(xs, FBIG)):
        calls.clear()
        assert multipoint_eval(r, xs, "fast") == [r(x) for x in xs]
        assert calls


# ---------------------------------------------------------------------------
# counting behavior
# ---------------------------------------------------------------------------

def test_counts_identical_between_counted_runs():
    rng = random.Random(14)
    xs = rng.sample(range(FBIG.order), 64)
    ys = [FBIG.rand(rng) for _ in xs]

    def counted():
        c = OpCounter()
        with counting(c):
            interpolate(list(zip(xs, ys)), FBIG, "fast")
        return (c.adds, c.muls, c.invs)

    assert counted() == counted()


def test_counted_and_uncounted_results_agree():
    rng = random.Random(15)
    xs = rng.sample(range(FBIG.order), 40)
    ys = [FBIG.rand(rng) for _ in xs]
    plain = interpolate(list(zip(xs, ys)), FBIG, "naive")
    with counting(OpCounter()):
        counted = interpolate(list(zip(xs, ys)), FBIG, "naive")
    assert plain == counted


def test_naive_quadratic_fast_subquadratic():
    # doubling n should not quite quadruple fast-path work, but the naive
    # path should
    def ops(n, mode):
        rng = random.Random(16)
        xs = rng.sample(range(FBIG.order), n)
        ys = [FBIG.rand(rng) for _ in xs]
        c = OpCounter()
        with counting(c):
            interpolate(list(zip(xs, ys)), FBIG, mode)
        return c.total()

    assert ops(128, "naive") / ops(64, "naive") > 3.9
    assert ops(128, "fast") / ops(64, "fast") < 3.8


# ---------------------------------------------------------------------------
# cached per-point-set work
# ---------------------------------------------------------------------------

def test_fast_equals_naive_on_one_point_set_many_values():
    # the sweep above draws fresh points every time; here one point set is
    # reused, so every fast call after the first runs on cached work
    rng = random.Random(31)
    for F, n in ((FBIG, 64), (F97, 40)):
        xs = rng.sample(range(F.order), n)
        for _ in range(100):
            pts = [(x, F.rand(rng)) for x in xs]
            assert interpolate(pts, F, "fast") == interpolate(pts, F, "naive")
            m = rng.randint(1, 2 * n)
            q = DensePoly(F, [F.rand(rng) for _ in range(m)])
            assert multipoint_eval(q, xs, "fast") == \
                multipoint_eval(q, xs, "naive")


def test_point_set_cache_is_per_field():
    xs = list(range(3, 43))
    F101 = PrimeField(101)
    for F in (F97, F101, GF8_256):
        ys = [(7 * x + 1) % 90 for x in xs]
        p = interpolate(list(zip(xs, ys)), F, "fast")
        assert multipoint_eval(p, xs, "fast") == ys
    trees = [_tree(xs, F) for F in (F97, F101, GF8_256)]
    assert [t.field for t in trees] == [F97, F101, GF8_256]
    assert len({id(t) for t in trees}) == 3


def test_point_set_cache_stays_bounded():
    F = PrimeField(10007)
    rng = random.Random(5)
    sets = [rng.sample(range(F.order), 33)
            for _ in range(POINT_SET_CACHE_SIZE + 8)]
    q = DensePoly(F, [F.rand(rng) for _ in range(33)])

    def agree(xs):
        fast = multipoint_eval(q, xs, "fast")
        return fast == multipoint_eval(q, xs, "naive")

    for xs in sets:
        assert agree(xs)
        assert len(F.kernels.point_sets) <= POINT_SET_CACHE_SIZE
    # the oldest set was evicted; asking again rebuilds it, same answer
    assert agree(sets[0])
    assert len(F.kernels.point_sets) == POINT_SET_CACHE_SIZE


def test_caller_cannot_corrupt_cached_work():
    rng = random.Random(8)
    xs = rng.sample(range(FBIG.order), 40)
    ys = [FBIG.rand(rng) for _ in xs]
    q = DensePoly(FBIG, ys)
    want_vals = multipoint_eval(q, xs, "naive")
    want_poly = interpolate(list(zip(xs, ys)), FBIG, "naive")
    for _ in range(3):
        points = list(xs)
        vals = multipoint_eval(q, points, "fast")
        assert vals == want_vals
        vals[:] = [0] * len(vals)
        points[:] = [0] * len(points)
        assert interpolate(list(zip(xs, ys)), FBIG, "fast") == want_poly
        weights = _tree(xs, FBIG).weights()
        with pytest.raises(TypeError):
            weights[0] = 0
