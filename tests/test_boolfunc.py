"""Boolean-to-polynomial compilation and extension-field embedding."""

import itertools

import pytest

from codedsm.boolfunc import (
    MultiPoly,
    TruthTable,
    bits_to_index,
    boolean_to_polynomial,
    eval_embedded,
    index_to_bits,
)
from codedsm.field import BinaryField, ConfigurationError, PrimeField

F2 = BinaryField(1)
GF4 = BinaryField(2)
GF16 = BinaryField(4)
GF256 = BinaryField(8)
F11 = PrimeField(11)


def all_tables(n):
    for bits in itertools.product((0, 1), repeat=1 << n):
        yield TruthTable(n, bits)


# ---------------------------------------------------------------------------
# frozen small cases
# ---------------------------------------------------------------------------

def test_and_compiles_to_single_product_term():
    t = TruthTable.from_function(2, lambda a, b: a & b)
    p = boolean_to_polynomial(t)
    assert dict(p.terms) == {(1, 1): 1}


def test_xor_compiles_to_sum_of_variables():
    t = TruthTable.from_function(2, lambda a, b: a ^ b)
    p = boolean_to_polynomial(t)
    assert dict(p.terms) == {(1, 0): 1, (0, 1): 1}


def test_constant_zero_is_empty_sum():
    t = TruthTable(2, (0, 0, 0, 0))
    assert boolean_to_polynomial(t).terms == ()


def test_and_embedded_at_ones_is_one():
    p = boolean_to_polynomial(TruthTable.from_function(2, lambda a, b: a & b))
    assert eval_embedded(p, (1, 1), GF256) == 1
    assert eval_embedded(p, (1, 1), GF16) == 1


def test_xor_embedded_at_ones_is_zero():
    p = boolean_to_polynomial(TruthTable.from_function(2, lambda a, b: a ^ b))
    assert eval_embedded(p, (1, 1), GF256) == 0


def test_embedding_rejects_prime_field():
    p = boolean_to_polynomial(TruthTable.from_function(1, lambda a: a))
    with pytest.raises(ConfigurationError):
        eval_embedded(p, (1,), F11)


# ---------------------------------------------------------------------------
# exhaustive sweeps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_function_reproduced_over_gf2(n):
    for t in all_tables(n):
        p = boolean_to_polynomial(t)
        assert p.total_degree <= n
        assert len(p.terms) <= 1 << n
        for inp in itertools.product((0, 1), repeat=n):
            assert p.eval(F2, inp) == t.evaluate(inp)


@pytest.mark.parametrize("m", [2, 4, 8])
def test_two_input_functions_embed_exactly(m):
    fld = BinaryField(m)
    for t in all_tables(2):
        p = boolean_to_polynomial(t)
        for inp in itertools.product((0, 1), repeat=2):
            got = eval_embedded(p, inp, fld)
            assert got == fld.embed_bit(t.evaluate(inp))


def test_three_input_functions_embed_exactly_gf16():
    for t in all_tables(3):
        p = boolean_to_polynomial(t)
        for inp in itertools.product((0, 1), repeat=3):
            assert eval_embedded(p, inp, GF16) == GF16.embed_bit(t.evaluate(inp))


def test_multilinear_term_count_measurement():
    # how far expansion drifts from the pre-expansion term bound is a
    # recorded observation, not a requirement
    worst = {}
    for n in (2, 3):
        worst[n] = max(len(boolean_to_polynomial(t).terms)
                       for t in all_tables(n))
        assert worst[n] <= 1 << n
    # parity-with-offset style tables reach the full monomial count
    assert worst[2] == 4 and worst[3] == 8


# ---------------------------------------------------------------------------
# truth table plumbing
# ---------------------------------------------------------------------------

def test_index_bit_round_trip():
    for idx in range(16):
        assert bits_to_index(index_to_bits(idx, 4)) == idx
    assert index_to_bits(5, 3) == (1, 0, 1)


def test_table_validation():
    with pytest.raises(ValueError):
        TruthTable(2, (0, 1, 0))
    with pytest.raises(ValueError):
        TruthTable(1, (0, 2))


def test_ones_zeros_partition():
    t = TruthTable.from_function(2, lambda a, b: a | b)
    assert set(t.ones()) == {(0, 1), (1, 0), (1, 1)}


# ---------------------------------------------------------------------------
# MultiPoly mechanics (shared with the machine layer)
# ---------------------------------------------------------------------------

def test_multipoly_general_exponents():
    # 3*a^2*c + 5*b over F_11 at (2, 4, 6): 3*4*6 + 20 = 92 -> 4
    p = MultiPoly.make(3, {(2, 0, 1): 3, (0, 1, 0): 5})
    assert p.eval(F11, (2, 4, 6)) == 4
    assert p.total_degree == 3


def test_multipoly_remap():
    p = MultiPoly.make(2, {(1, 1): 7})
    q = p.remap(4, {0: 3, 1: 1})
    assert dict(q.terms) == {(0, 1, 0, 1): 7}
    with pytest.raises(ValueError):
        p.remap(4, {0: 3})


def test_multipoly_rejects_bad_terms():
    with pytest.raises(ValueError):
        MultiPoly.make(2, {(1,): 1})
    with pytest.raises(ValueError):
        MultiPoly.make(1, {(-1,): 1})
    assert MultiPoly.make(2, {(1, 1): 0}).terms == ()
