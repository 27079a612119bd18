"""Recovery of a bounded-degree polynomial from noisy evaluations.

Given values of an unknown polynomial of degree <= D at distinct points,
up to b of which are wrong and some of which may be missing, `decode`
returns the unique consistent polynomial together with its agreement set.
Missing values are erasures: they shrink n and cost no error budget.
The core is Gao's decoder (S. Gao, "A new algorithm for decoding
Reed-Solomon codes", 2003), built from the polynomial layer alone:
interpolate all n received values, run the extended Euclidean algorithm
on that interpolant and the master polynomial prod (z - x_i) until the
remainder r has degree below (n + D + 1) / 2, and divide r by the
interpolant's cofactor.  It corrects up to (n - D - 1) / 2 errors; unique
recovery requires 2b <= n - D - 1 for n received values, and parameters
violating that bound are rejected up front.

The agreement set tau lists the received positions where the recovered
polynomial matches the received value.  Any candidate reaching
|tau| >= (n + D + 1) / 2 is unique, which is what makes the set usable
as a third-party-checkable certificate of a claimed decoding.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import Field
from .poly import DensePoly, interpolate, vanishing


class DecodeFailure(Exception):
    """No polynomial of the required degree explains enough of the values."""


@dataclass(frozen=True)
class NoisyCodeword:
    """Received evaluations, possibly corrupted and possibly incomplete.

    ``values[i]`` is the value reported for ``points[i]``, or None when
    nothing was received for that position.  ``degree_bound`` is the
    maximum degree D of the encoded polynomial and ``budget`` the maximum
    number of wrong (not missing) values the decoder must tolerate.
    """

    field: Field
    points: tuple[int, ...]
    values: tuple[int | None, ...]
    degree_bound: int
    budget: int

    def __post_init__(self):
        if len(self.points) != len(self.values):
            raise ValueError("points and values must have equal length")
        if len(set(self.points)) != len(self.points):
            raise ValueError("evaluation points must be distinct")
        for x in self.points:
            self.field.check(x)
        for v in self.values:
            if v is not None:
                self.field.check(v)
        if self.degree_bound < 0:
            raise ValueError("degree bound must be nonnegative")
        if self.budget < 0:
            raise ValueError("error budget must be nonnegative")

    def present(self) -> list[int]:
        return [i for i, v in enumerate(self.values) if v is not None]


@dataclass(frozen=True)
class DecodeResult:
    poly: DensePoly
    agreement: frozenset[int]


def _eval_many(coeffs: list[int], pts: list[int], field: Field) -> list[int]:
    """Evaluate at many points: a product with the points' power table."""
    if not coeffs:
        return [0] * len(pts)
    kernels = field.kernels
    return list(kernels.matvec(kernels.power_table(pts, len(coeffs)), coeffs))


def agreement_set(poly: DensePoly, cw: NoisyCodeword) -> frozenset[int]:
    """Positions of the codeword where poly matches the received value."""
    idx = cw.present()
    vals = _eval_many(list(poly.coeffs), [cw.points[i] for i in idx], cw.field)
    return frozenset(i for i, v in zip(idx, vals) if cw.values[i] == v)


def agreement_threshold(n: int, degree_bound: int) -> int:
    """Smallest agreement size certifying a unique degree-bounded polynomial.

    Two distinct polynomials of degree <= D can share at most D points, so
    a candidate matching at least (n + D + 1) / 2 of n received values is
    the only one that can do so.
    """
    return (n + degree_bound + 2) // 2  # ceil((n + D + 1) / 2)


def _gao_candidate(field, pts, vals, D, mode):
    """Gao's candidate: the quotient r / t of a partial extended Euclid.

    Euclid runs on the master polynomial prod (z - x_i) and the
    interpolant of every received value, keeping the interpolant's
    cofactor t, and stops at the first remainder r with 2 deg r < n+D+1.
    With at most (n-D-1)/2 errors, t is the error locator up to a scalar
    and r = t * f for the encoded f.  None if t does not divide r or the
    quotient's degree exceeds D.
    """
    n = len(pts)
    r0 = vanishing(pts, field, mode)
    r1 = interpolate(zip(pts, vals), field, mode)
    t0, t1 = DensePoly.zero(field), DensePoly.const(field, 1)
    while 2 * r1.degree >= n + D + 1:
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        t0, t1 = t1, t0 - q.mul(t1, mode)
    quo, rem = r1.divmod(t1)
    if not rem.is_zero() or quo.degree > D:
        return None
    return quo


def decode(cw: NoisyCodeword, mode: str = "auto") -> DecodeResult:
    """Recover the encoded polynomial from a noisy codeword.

    Raises ValueError when the (n, D, b) parameters cannot guarantee unique
    decoding, and DecodeFailure when no degree-bounded polynomial agrees
    with at least n - b of the received values.  ``mode`` picks the
    polynomial arithmetic route (interpolation, the master polynomial and
    the Euclid products).

    The optimistic path interpolates the first D+1 values and keeps the
    result if it agrees with n - b of them.  Otherwise, when b > 0, one
    Gao candidate is built and checked the same way.
    """
    idx = cw.present()
    n = len(idx)
    D, b = cw.degree_bound, cw.budget
    field = cw.field
    if 2 * b > n - D - 1:
        raise ValueError(
            f"cannot decode degree {D} from {n} values with {b} errors: "
            f"2*{b} > {n}-{D}-1")
    pts = [cw.points[i] for i in idx]
    vals = [cw.values[i] for i in idx]
    need = n - b

    # optimistic path: interpolate the first D+1 values and hope the error
    # pattern missed them; the agreement check keeps this sound
    guess = interpolate(list(zip(pts[:D + 1], vals[:D + 1])), field, mode)
    tau = agreement_set(guess, cw)
    if len(tau) >= need:
        return DecodeResult(guess, tau)

    if b > 0:
        cand = _gao_candidate(field, pts, vals, D, mode)
        if cand is not None:
            tau = agreement_set(cand, cw)
            if len(tau) >= need:
                return DecodeResult(cand, tau)
    raise DecodeFailure(
        f"no degree-{D} polynomial matches {need} of {n} received values")
