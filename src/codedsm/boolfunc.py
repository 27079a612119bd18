"""Boolean functions as multilinear polynomials over characteristic-2 fields.

A truth table on n bits is compiled into a multilinear polynomial with 0/1
coefficients. Over F_2 the polynomial reproduces the table exactly, and
because the 0/1 embedding into GF(2^m) is a ring homomorphism on {0, 1},
evaluating the same polynomial at embedded bits yields the embedded output
bit. That is what lets bit-level machines run on extension-field words.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import BinaryField, ConfigurationError, Field


@dataclass(frozen=True)
class MultiPoly:
    """Sparse multivariate polynomial.

    ``terms`` maps an exponent tuple (one entry per variable) to a nonzero
    canonical coefficient. Coefficients are interpreted in whatever field is
    supplied at evaluation time; constructors are expected to keep them
    canonical there.
    """

    arity: int
    terms: tuple[tuple[tuple[int, ...], int], ...]

    @staticmethod
    def make(arity: int, term_map: dict[tuple[int, ...], int]) -> "MultiPoly":
        items = []
        for exps, coeff in term_map.items():
            if len(exps) != arity:
                raise ValueError(f"exponent tuple {exps} has wrong arity")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            if coeff != 0:
                items.append((tuple(exps), coeff))
        items.sort()
        return MultiPoly(arity, tuple(items))

    @property
    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(exps) for exps, _ in self.terms)

    def eval(self, field: Field, args: list[int] | tuple[int, ...]) -> int:
        if len(args) != self.arity:
            raise ValueError(
                f"expected {self.arity} arguments, got {len(args)}")
        acc = 0
        for exps, coeff in self.terms:
            term = coeff
            for x, e in zip(args, exps):
                if e:
                    term = field.mul(term, field.pow_(x, e))
            acc = field.add(acc, term)
        return acc

    def remap(self, new_arity: int, var_map: dict[int, int]) -> "MultiPoly":
        """Re-index variables into a wider variable space.

        ``var_map[i] = j`` sends old variable i to new variable j. Every
        variable that actually occurs must be mapped.
        """
        out: dict[tuple[int, ...], int] = {}
        for exps, coeff in self.terms:
            new = [0] * new_arity
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                if i not in var_map:
                    raise ValueError(f"variable {i} not mapped")
                new[var_map[i]] += e
            key = tuple(new)
            if key in out:
                raise ValueError("variable map is not injective on support")
            out[key] = coeff
        return MultiPoly.make(new_arity, out)


@dataclass(frozen=True)
class TruthTable:
    """A Boolean function given by its full output table.

    ``bits[idx]`` is the output for the input vector whose bits, read left
    to right, form the binary expansion of ``idx`` (so (0,...,0) is entry 0
    and (1,...,1) is the last entry).
    """

    arity: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if self.arity < 0:
            raise ValueError("arity must be nonnegative")
        if len(self.bits) != 1 << self.arity:
            raise ValueError(
                f"table needs {1 << self.arity} entries, got {len(self.bits)}")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("table entries must be bits")

    @staticmethod
    def from_function(arity: int, fn) -> "TruthTable":
        bits = []
        for idx in range(1 << arity):
            inp = index_to_bits(idx, arity)
            bits.append(1 if fn(*inp) else 0)
        return TruthTable(arity, tuple(bits))

    def evaluate(self, inp: tuple[int, ...] | list[int]) -> int:
        if len(inp) != self.arity:
            raise ValueError("input length mismatch")
        return self.bits[bits_to_index(inp)]

    def ones(self) -> list[tuple[int, ...]]:
        """Input vectors whose output is 1."""
        return [index_to_bits(i, self.arity)
                for i, b in enumerate(self.bits) if b == 1]


def index_to_bits(idx: int, arity: int) -> tuple[int, ...]:
    return tuple((idx >> (arity - 1 - i)) & 1 for i in range(arity))


def bits_to_index(inp) -> int:
    idx = 0
    for b in inp:
        if b not in (0, 1):
            raise ValueError("inputs must be bits")
        idx = (idx << 1) | b
    return idx


def boolean_to_polynomial(table: TruthTable) -> MultiPoly:
    """Multilinear polynomial reproducing the table over any binary field.

    The polynomial is the sum, over accepting inputs a, of the indicator
    of a: the product of x_i at positions where a_i = 1 and of (x_i + 1)
    at positions where a_i = 0. Expanding the products and collecting
    modulo 2 leaves multilinear monomials with coefficient 1, stored here
    as bitmask exponent vectors.
    """
    n = table.arity
    parity: set[int] = set()
    for a in table.ones():
        ones_mask = 0
        zero_pos = []
        for i, bit in enumerate(a):
            if bit:
                ones_mask |= 1 << i
            else:
                zero_pos.append(i)
        # expand the product of (x_i + 1) over the zero positions: one
        # monomial per subset, all with coefficient 1 in characteristic 2
        for sub in range(1 << len(zero_pos)):
            mask = ones_mask
            for j, pos in enumerate(zero_pos):
                if (sub >> j) & 1:
                    mask |= 1 << pos
            parity.symmetric_difference_update((mask,))
    terms = {}
    for mask in parity:
        exps = tuple((mask >> i) & 1 for i in range(n))
        terms[exps] = 1
    return MultiPoly.make(n, terms)


def eval_embedded(poly: MultiPoly, bits, field: Field) -> int:
    """Evaluate a bit-coefficient polynomial at embedded bits.

    Requires a characteristic-2 field so that carrying the arithmetic in
    the big field agrees with doing it on bits first and embedding after.
    """
    if not isinstance(field, BinaryField):
        raise ConfigurationError(
            "embedded evaluation needs a binary extension field, "
            f"got {field!r}")
    args = [field.embed_bit(b) for b in bits]
    return poly.eval(field, args)

