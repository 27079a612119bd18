"""Transition-function mechanics and the bundled machines."""

import random

import pytest

from codedsm.boolfunc import MultiPoly
from codedsm.field import BinaryField, ConfigurationError, PrimeField
from codedsm.machine import (
    MACHINES,
    TransitionFunction,
    bank_machine,
    boolcounter_machine,
    make_machine,
    product_machine,
    qmix_machine,
)
from codedsm.poly import interpolate

F11 = PrimeField(11)
F97 = PrimeField(97)
GF16 = BinaryField(4)


def test_bank_machine_is_linear_accumulator():
    m = bank_machine(F11)
    nxt, out = m.apply((4,), (2,))
    assert nxt == (6,) and out == (6,)
    assert m.total_degree() == 1


def test_product_machine():
    m = product_machine(F11)
    nxt, out = m.apply((4,), (2,))
    assert nxt == (8,) and out == (8,)
    assert m.total_degree() == 2


def test_qmix_machine_coordinates():
    m = qmix_machine(F11)
    # a=4, b=7, x=2: a' = 16+8+2 = 4 (mod 11), b' = 7+4 = 0, y = 4+14 = 7
    nxt, out = m.apply((4, 7), (2,))
    assert nxt == (4, 0)
    assert out == (7,)
    assert m.state_dim == 2 and m.out_dim == 1


def test_boolcounter_counts_bits():
    m = boolcounter_machine(GF16)
    state = (0, 0)
    seen = []
    for bit in (1, 1, 1, 0, 1):
        state, out = m.apply(state, (bit,))
        seen.append((state, out[0]))
    # counts set bits mod 4: 1,2,3 then hold on 0, then wrap to 0 with carry
    assert seen == [((0, 1), 0), ((1, 0), 1), ((1, 1), 0),
                    ((1, 1), 0), ((0, 0), 1)]


def test_boolcounter_needs_binary_field():
    with pytest.raises(ConfigurationError):
        boolcounter_machine(F11)


def test_machine_registry():
    assert set(MACHINES) == {"bank", "product", "qmix", "boolcounter"}
    assert make_machine("bank", F11).total_degree() == 1
    with pytest.raises(ConfigurationError):
        make_machine("nope", F11)


def test_apply_validates_dimensions_and_elements():
    m = qmix_machine(F11)
    with pytest.raises(ValueError):
        m.apply((1,), (2,))
    with pytest.raises(ValueError):
        m.apply((1, 2), (3, 4))
    with pytest.raises(ConfigurationError):
        m.apply((1, 12), (3,))


def test_declared_degree_checked():
    sq = MultiPoly.make(2, {(2, 0): 1})
    with pytest.raises(ConfigurationError):
        TransitionFunction(F11, 1, 1, 0, (sq,), 1)
    tf = TransitionFunction(F11, 1, 1, 0, (sq,), 3)
    assert tf.total_degree() == 3  # declared bound may exceed the actual


def test_coefficients_must_be_canonical():
    bad = MultiPoly.make(2, {(1, 0): 11})
    with pytest.raises(ConfigurationError):
        TransitionFunction(F11, 1, 1, 0, (bad,))


def test_eval_all_concatenates_state_and_output():
    m = qmix_machine(F11)
    assert m.eval_all((4, 7), (2,)) == (4, 0, 7)


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_composite_along_degree_k_curves_stays_bounded(name):
    # feed every coordinate polynomial with degree-(K-1) univariate curves
    # for state and command; the composite must be a univariate polynomial
    # of degree at most d*(K-1), which we certify by interpolating from
    # d*(K-1)+1 samples and checking extra samples agree
    fld = BinaryField(5) if name == "boolcounter" else F97
    m = make_machine(name, fld)
    rng = random.Random(hash(name) & 0xFFFF)
    for K in (1, 2, 3, 5):
        D = m.total_degree() * (K - 1)
        npts = D + 1 + 4
        zs = rng.sample(range(fld.order), npts)
        curves_s = [[fld.rand(rng) for _ in range(K)]
                    for _ in range(m.state_dim)]
        curves_x = [[fld.rand(rng) for _ in range(K)]
                    for _ in range(m.cmd_dim)]

        def curve_at(coeffs, z):
            acc = 0
            for c in reversed(coeffs):
                acc = fld.add(fld.mul(acc, z), c)
            return acc

        samples = []
        for z in zs:
            s = tuple(curve_at(c, z) for c in curves_s)
            x = tuple(curve_at(c, z) for c in curves_x)
            samples.append(m.eval_all(s, x))
        for coord in range(m.state_dim + m.out_dim):
            pts = [(z, vals[coord]) for z, vals in zip(zs, samples)]
            h = interpolate(pts[:D + 1], fld)
            assert h.degree <= D
            for z, v in pts[D + 1:]:
                assert h(z) == v


def test_samplers_have_declared_dims():
    m = qmix_machine(F97)
    rng = random.Random(0)
    assert len(m.random_state(rng)) == 2
    assert len(m.random_command(rng)) == 1
