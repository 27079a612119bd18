"""Polynomial state machines.

A machine is a vector of multivariate polynomials over the concatenated
(state, command) variables. One evaluation produces the next state and the
round output together. Nothing in `apply` knows whether its inputs are real
states or coded ones; that obliviousness is what the coded pipeline relies
on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

from .boolfunc import (
    MultiPoly,
    TruthTable,
    boolean_to_polynomial,
)
from .field import BinaryField, ConfigurationError, Field


@dataclass(frozen=True)
class TransitionFunction:
    """State transition f: (state, command) -> (next state, output)."""

    field: Field
    state_dim: int
    cmd_dim: int
    out_dim: int
    coords: tuple[MultiPoly, ...]  # state coordinates first, then outputs
    degree: int = dc_field(default=0)

    def __post_init__(self):
        if self.state_dim < 1 or self.cmd_dim < 1 or self.out_dim < 0:
            raise ConfigurationError("bad machine dimensions")
        if len(self.coords) != self.state_dim + self.out_dim:
            raise ConfigurationError(
                f"need {self.state_dim + self.out_dim} coordinate "
                f"polynomials, got {len(self.coords)}")
        arity = self.state_dim + self.cmd_dim
        for c in self.coords:
            if c.arity != arity:
                raise ConfigurationError(
                    f"coordinate arity {c.arity}, expected {arity}")
            for _, coeff in c.terms:
                self.field.check(coeff)
        actual = max((c.total_degree for c in self.coords), default=0)
        declared = self.degree if self.degree else max(1, actual)
        if declared < 1:
            raise ConfigurationError("degree must be at least 1")
        if actual > declared:
            raise ConfigurationError(
                f"coordinate degree {actual} exceeds declared {declared}")
        object.__setattr__(self, "degree", declared)

    def total_degree(self) -> int:
        return self.degree

    def apply(self, state, command) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if len(state) != self.state_dim:
            raise ValueError(
                f"state has {len(state)} coordinates, need {self.state_dim}")
        if len(command) != self.cmd_dim:
            raise ValueError(
                f"command has {len(command)} coordinates, need {self.cmd_dim}")
        args = tuple(state) + tuple(command)
        for v in args:
            self.field.check(v)
        vals = tuple(c.eval(self.field, args) for c in self.coords)
        return vals[:self.state_dim], vals[self.state_dim:]

    def eval_all(self, state, command) -> tuple[int, ...]:
        """Next state and output as one flat vector."""
        nxt, out = self.apply(state, command)
        return nxt + out

    def random_state(self, rng: random.Random) -> tuple[int, ...]:
        return tuple(self.field.rand(rng) for _ in range(self.state_dim))

    def random_command(self, rng: random.Random) -> tuple[int, ...]:
        return tuple(self.field.rand(rng) for _ in range(self.cmd_dim))


# ---------------------------------------------------------------------------
# bundled machines
# ---------------------------------------------------------------------------

def bank_machine(fld: Field) -> TransitionFunction:
    """Degree-1 running-total machine: next state and output are S + X."""
    s_plus_x = MultiPoly.make(2, {(1, 0): 1, (0, 1): 1})
    return TransitionFunction(fld, 1, 1, 1, (s_plus_x, s_plus_x), 1)


def product_machine(fld: Field) -> TransitionFunction:
    """Degree-2 machine: next state and output are S * X."""
    s_times_x = MultiPoly.make(2, {(1, 1): 1})
    return TransitionFunction(fld, 1, 1, 1, (s_times_x, s_times_x), 2)


def qmix_machine(fld: Field) -> TransitionFunction:
    """Two-coordinate quadratic machine.

    State (a, b), command x:
        a' = a^2 + a x + x
        b' = b + x^2
        y  = a + b x
    """
    a2_ax_x = MultiPoly.make(3, {(2, 0, 0): 1, (1, 0, 1): 1, (0, 0, 1): 1})
    b_x2 = MultiPoly.make(3, {(0, 1, 0): 1, (0, 0, 2): 1})
    a_bx = MultiPoly.make(3, {(1, 0, 0): 1, (0, 1, 1): 1})
    return TransitionFunction(fld, 2, 1, 1, (a2_ax_x, b_x2, a_bx), 2)


def boolcounter_machine(fld: Field) -> TransitionFunction:
    """Two-bit modulo-4 counter compiled from truth tables.

    State (s1, s0), command bit x: s0 flips when x = 1, s1 absorbs the
    carry s0 AND x, and the carry is also reported as the output. Runs on
    any binary extension field via the bit embedding.
    """
    if not isinstance(fld, BinaryField):
        raise ConfigurationError(
            "the bit-counter machine needs a binary extension field")
    xor2 = boolean_to_polynomial(
        TruthTable.from_function(2, lambda a, b: a ^ b))
    and2 = boolean_to_polynomial(
        TruthTable.from_function(2, lambda a, b: a & b))
    carry3 = boolean_to_polynomial(
        TruthTable.from_function(3, lambda s1, s0, x: s1 ^ (s0 & x)))
    # variable space: (s1, s0, x)
    s0_next = xor2.remap(3, {0: 1, 1: 2})
    s1_next = carry3
    out = and2.remap(3, {0: 1, 1: 2})
    return TransitionFunction(fld, 2, 1, 1, (s1_next, s0_next, out), 2)


MACHINES = {
    "bank": bank_machine,
    "product": product_machine,
    "qmix": qmix_machine,
    "boolcounter": boolcounter_machine,
}


def make_machine(name: str, fld: Field) -> TransitionFunction:
    try:
        factory = MACHINES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown machine {name!r}; choices: {sorted(MACHINES)}")
    return factory(fld)
