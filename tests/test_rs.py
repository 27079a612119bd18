"""Decoder tests: frozen example, brute-force oracle, uniqueness trials."""

import itertools
import random

import pytest

from codedsm.field import BinaryField, PrimeField
from codedsm.poly import DensePoly, multipoint_eval
from codedsm.rs import (
    DecodeFailure,
    NoisyCodeword,
    agreement_set,
    agreement_threshold,
    decode,
)

F11 = PrimeField(11)
F97 = PrimeField(97)
GF16 = BinaryField(4)
FBIG = PrimeField((1 << 31) - 1)
MODES = ("naive", "fast")


def make_codeword(field, coeffs, points, budget, corrupt=(), missing=()):
    p = DensePoly(field, coeffs)
    vals = multipoint_eval(p, list(points))
    values = []
    for i, v in enumerate(vals):
        if i in missing:
            values.append(None)
        elif i in dict(corrupt):
            values.append(dict(corrupt)[i])
        else:
            values.append(v)
    return NoisyCodeword(field, tuple(points), tuple(values),
                         degree_bound=len(coeffs) - 1, budget=budget)


# ---------------------------------------------------------------------------
# frozen worked example
# ---------------------------------------------------------------------------

def test_decode_recovers_quadratic_with_one_corruption():
    # 3z^2 + 4z + 1 at (3,4,5,6,7), value at point 4 corrupted to 0
    cw = make_codeword(F11, [1, 4, 3], (3, 4, 5, 6, 7), budget=1,
                       corrupt=[(1, 0)])
    res = decode(cw)
    assert list(res.poly.coeffs) == [1, 4, 3]
    assert res.agreement == frozenset({0, 2, 3, 4})


def test_budget_two_rejected_at_five_points():
    cw = make_codeword(F11, [1, 4, 3], (3, 4, 5, 6, 7), budget=1)
    bad = NoisyCodeword(F11, cw.points, cw.values, degree_bound=2, budget=2)
    with pytest.raises(ValueError):
        decode(bad)


def test_wrong_polynomial_fails_certificate():
    cw = make_codeword(F11, [1, 4, 3], (3, 4, 5, 6, 7), budget=1,
                       corrupt=[(1, 0)])
    wrong = DensePoly(F11, [2, 4, 3])
    tau = agreement_set(wrong, cw)
    assert len(tau) < agreement_threshold(5, 2)
    assert agreement_threshold(5, 2) == 4


def test_decode_no_errors_full_agreement():
    cw = make_codeword(F11, [1, 4, 3], (3, 4, 5, 6, 7), budget=1)
    res = decode(cw)
    assert list(res.poly.coeffs) == [1, 4, 3]
    assert res.agreement == frozenset(range(5))


def test_decode_with_erasure():
    # missing value consumes no error budget but shrinks n
    cw = make_codeword(F11, [1, 4, 3], (3, 4, 5, 6, 7, 8), budget=1,
                       missing=(2,), corrupt=[(0, 9)])
    res = decode(cw)
    assert list(res.poly.coeffs) == [1, 4, 3]
    assert 2 not in res.agreement and 0 not in res.agreement


# ---------------------------------------------------------------------------
# brute-force oracle on a tiny field
# ---------------------------------------------------------------------------

def brute_force_decode(cw):
    """All degree-bounded polynomials meeting the agreement requirement."""
    n = len(cw.present())
    need = n - cw.budget
    found = []
    for coeffs in itertools.product(range(cw.field.order),
                                    repeat=cw.degree_bound + 1):
        p = DensePoly(cw.field, list(coeffs))
        if len(agreement_set(p, cw)) >= need:
            if p not in found:
                found.append(p)
    return found


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("field", [F11, GF16], ids=["F11", "GF16"])
def test_decode_matches_brute_force(field, mode):
    rng = random.Random(31337)
    checked_failures = 0
    for trial in range(120):
        n = rng.randint(3, 7)
        D = rng.randint(0, min(2, n - 1))
        bmax = (n - D - 1) // 2
        b = rng.randint(0, bmax)
        pts = tuple(rng.sample(range(field.order), n))
        coeffs = [field.rand(rng) for _ in range(D + 1)]
        nerr = rng.randint(0, b)
        bad = rng.sample(range(n), nerr)
        corrupt = [(i, field.rand(rng)) for i in bad]
        cw = make_codeword(field, coeffs, pts, b, corrupt=corrupt)
        survivors = brute_force_decode(cw)
        try:
            res = decode(cw, mode)
        except DecodeFailure:
            assert survivors == []
            checked_failures += 1
        else:
            assert survivors == [res.poly]
    assert checked_failures == 0  # <= b corruptions always decode


@pytest.mark.parametrize("mode", MODES)
def test_decode_matches_brute_force_on_overload(mode):
    # corrupting b+1 values may kill decoding; brute force must agree
    rng = random.Random(999)
    outcomes = {"fail": 0, "ok": 0}
    for _ in range(60):
        n = 7
        D = 2
        b = (n - D - 1) // 2  # 2
        pts = tuple(rng.sample(range(11), n))
        coeffs = [F11.rand(rng) for _ in range(D + 1)]
        bad = rng.sample(range(n), b + 1)
        corrupt = [(i, F11.rand(rng)) for i in bad]
        cw = make_codeword(F11, coeffs, pts, b, corrupt=corrupt)
        survivors = brute_force_decode(cw)
        try:
            res = decode(cw, mode)
            outcomes["ok"] += 1
            assert survivors == [res.poly]
        except DecodeFailure:
            outcomes["fail"] += 1
            assert survivors == []
    assert outcomes["fail"] > 0


# ---------------------------------------------------------------------------
# uniqueness at scale
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", MODES)
def test_unique_decoding_many_trials(mode):
    rng = random.Random(20240903)
    for trial in range(10_000):
        n = rng.randint(3, 12)
        D = rng.randint(0, n - 1)
        bmax = (n - D - 1) // 2
        if bmax < 0:
            continue
        b = rng.randint(0, bmax)
        pts = tuple(rng.sample(range(97), n))
        coeffs = [F97.rand(rng) for _ in range(D + 1)]
        nerr = rng.randint(0, b)
        bad = rng.sample(range(n), nerr)
        corrupt = []
        for i in bad:
            true = DensePoly(F97, coeffs)(pts[i])
            delta = rng.randrange(1, 97)
            corrupt.append((i, (true + delta) % 97))
        cw = make_codeword(F97, coeffs, pts, b, corrupt=corrupt)
        res = decode(cw, mode)
        assert res.poly == DensePoly(F97, coeffs)
        assert len(res.agreement) == n - nerr


@pytest.mark.parametrize("mode", MODES)
def test_large_codeword_at_full_error_budget(mode):
    # exactly b = (n-D-1)/2 wrong values, the most the decoder must correct
    rng = random.Random(4242)
    n = rng.randint(32, 128)
    D = rng.randint(1, n // 2)
    b = (n - D - 1) // 2
    pts = tuple(rng.sample(range(1, 1 << 20), n))
    coeffs = [FBIG.rand(rng) for _ in range(D)] + [rng.randrange(1, FBIG.p)]
    true = multipoint_eval(DensePoly(FBIG, coeffs), list(pts))
    bad = rng.sample(range(n), b)
    corrupt = [(i, (true[i] + rng.randrange(1, FBIG.p)) % FBIG.p)
               for i in bad]
    cw = make_codeword(FBIG, coeffs, pts, b, corrupt=corrupt)
    res = decode(cw, mode)
    assert list(res.poly.coeffs) == coeffs
    assert res.agreement == frozenset(range(n)) - set(bad)


def test_agreement_certificate_is_sound():
    # no second polynomial of the same degree bound can reach the threshold
    rng = random.Random(5150)
    for _ in range(40):
        n = rng.randint(4, 7)
        D = rng.randint(0, 2)
        if agreement_threshold(n, D) > n:
            continue
        pts = tuple(rng.sample(range(11), n))
        coeffs = [F11.rand(rng) for _ in range(D + 1)]
        cw = make_codeword(F11, coeffs, pts, 0)
        reaching = [
            p for p in brute_force_decode(
                NoisyCodeword(F11, cw.points, cw.values, D, 0))
            if len(agreement_set(p, cw)) >= agreement_threshold(n, D)
        ]
        assert len(reaching) <= 1


def test_binary_field_decode():
    gf = BinaryField(8)
    rng = random.Random(8)
    pts = tuple(rng.sample(range(256), 9))
    coeffs = [gf.rand(rng) for _ in range(3)]
    cw = make_codeword(gf, coeffs, pts, budget=2,
                       corrupt=[(0, 7), (4, 99)])
    res = decode(cw)
    assert list(res.poly.coeffs) == coeffs
    assert res.agreement == frozenset(range(9)) - {0, 4}


def test_constructed_overload_fails_or_lies():
    # with b_max + 1 guaranteed-wrong values the decoder cannot return the
    # true polynomial
    rng = random.Random(2718)
    for _ in range(50):
        n = rng.randint(5, 10)
        D = rng.randint(1, 3)
        bmax = (n - D - 1) // 2
        if bmax < 0:
            continue
        pts = tuple(rng.sample(range(97), n))
        coeffs = [F97.rand(rng) for _ in range(D + 1)]
        bad = rng.sample(range(n), bmax + 1)
        corrupt = []
        for i in bad:
            true = DensePoly(F97, coeffs)(pts[i])
            corrupt.append((i, (true + 1 + i) % 97))
        cw = make_codeword(F97, coeffs, pts, bmax, corrupt=corrupt)
        try:
            res = decode(cw)
            assert res.poly != DensePoly(F97, coeffs)
        except DecodeFailure:
            pass
