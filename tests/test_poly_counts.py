"""Golden operation counts: the cost model the polynomial layer charges.

The counts below were recorded from the per-operation implementation, in
which every field addition, multiplication and inversion was charged as
it ran.  Any faster implementation must charge exactly the same numbers,
cold or warm, because they feed the reproduced throughput figure lambda.

One run's values were re-recorded when the Reed-Solomon decoder changed
from Berlekamp-Welch linear solves to Gao's decoder: ``csm-corrupt-fast``'s
psi counts and its ``net`` role total, because its decoder leaves the
optimistic path.  Its event-log digest and every other value are unchanged.

The two ``delegated-dishonest-worker`` runs' chi counts and role totals
were re-recorded when a consistent liar's anchor column was reduced
modulo the vector length: its lying update workers now carry their offset
through the halving dispute to a scalar alert, where before they tripped
the first sum check.  The dispute is charged as an auditor that
recomputes only the left half of each level, and a worker that pays for
its own offset additions.  Their event-log digests and their rho, psi and
setup counts are unchanged.
"""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedsm.field import (LoopKernels, OpCounter, PrimeField, PrimeKernels,
                           counting, parse_field)
from codedsm.poly import DensePoly, interpolate, multipoint_eval, vanishing
from codedsm.simnet import ExperimentConfig, run_experiment

SPECS = ("prime:2147483647", "binary:8")
SIZES = (1, 2, 9, 31, 32, 77, 96, 130)
OPS = ("interpolate", "multipoint_eval", "mul")
MODES = ("naive", "fast")


def _inputs(spec, n):
    f = parse_field(spec)
    rng = random.Random(f"{spec}/{n}")
    xs = rng.sample(range(1, min(f.order, 1 << 20)), n)
    ys = [f.rand(rng) for _ in xs]
    cs = [f.rand(rng) for _ in xs]
    ds = [f.rand(rng) for _ in range(n // 2 + 1)]
    return f, xs, ys, cs, ds


def _call(op, mode, f, xs, ys, cs, ds):
    if op == "interpolate":
        return interpolate(list(zip(xs, ys)), f, mode)
    if op == "multipoint_eval":
        return multipoint_eval(DensePoly(f, cs), xs, mode)
    return DensePoly(f, cs).mul(DensePoly(f, ds), mode)


def _counted(fn):
    c = OpCounter()
    with counting(c):
        out = fn()
    return (c.adds, c.muls, c.invs), out


# (spec, op, mode, n) -> (adds, muls, invs) of one call
GOLDEN = {
    ('prime:2147483647', 'interpolate', 'naive', 1): (6, 6, 1),
    ('prime:2147483647', 'interpolate', 'naive', 2): (20, 20, 2),
    ('prime:2147483647', 'interpolate', 'naive', 9): (342, 342, 9),
    ('prime:2147483647', 'interpolate', 'naive', 31): (3906, 3906, 31),
    ('prime:2147483647', 'interpolate', 'naive', 32): (4160, 4160, 32),
    ('prime:2147483647', 'interpolate', 'naive', 77): (23870, 23870, 77),
    ('prime:2147483647', 'interpolate', 'naive', 96): (37056, 37056, 96),
    ('prime:2147483647', 'interpolate', 'naive', 130): (67860, 67860, 130),
    ('prime:2147483647', 'interpolate', 'fast', 1): (1, 2, 1),
    ('prime:2147483647', 'interpolate', 'fast', 2): (22, 18, 2),
    ('prime:2147483647', 'interpolate', 'fast', 9): (642, 524, 9),
    ('prime:2147483647', 'interpolate', 'fast', 31): (6158, 4384, 31),
    ('prime:2147483647', 'interpolate', 'fast', 32): (6564, 4524, 32),
    ('prime:2147483647', 'interpolate', 'fast', 77): (39187, 23644, 77),
    ('prime:2147483647', 'interpolate', 'fast', 96): (52763, 31677, 96),
    ('prime:2147483647', 'interpolate', 'fast', 130): (106919, 58845, 130),
    ('prime:2147483647', 'multipoint_eval', 'naive', 1): (1, 1, 0),
    ('prime:2147483647', 'multipoint_eval', 'naive', 2): (4, 4, 0),
    ('prime:2147483647', 'multipoint_eval', 'naive', 9): (81, 81, 0),
    ('prime:2147483647', 'multipoint_eval', 'naive', 31): (961, 961, 0),
    ('prime:2147483647', 'multipoint_eval', 'naive', 32): (1024, 1024, 0),
    ('prime:2147483647', 'multipoint_eval', 'naive', 77): (5929, 5929, 0),
    ('prime:2147483647', 'multipoint_eval', 'naive', 96): (9216, 9216, 0),
    ('prime:2147483647', 'multipoint_eval', 'naive', 130): (16900, 16900, 0),
    ('prime:2147483647', 'multipoint_eval', 'fast', 1): (1, 1, 0),
    ('prime:2147483647', 'multipoint_eval', 'fast', 2): (16, 10, 0),
    ('prime:2147483647', 'multipoint_eval', 'fast', 9): (504, 401, 0),
    ('prime:2147483647', 'multipoint_eval', 'fast', 31): (4771, 3430, 0),
    ('prime:2147483647', 'multipoint_eval', 'fast', 32): (5038, 3564, 0),
    ('prime:2147483647', 'multipoint_eval', 'fast', 77): (31001, 19039, 0),
    ('prime:2147483647', 'multipoint_eval', 'fast', 96): (41452, 25405, 0),
    ('prime:2147483647', 'multipoint_eval', 'fast', 130): (86834, 48851, 0),
    ('prime:2147483647', 'mul', 'naive', 1): (1, 1, 0),
    ('prime:2147483647', 'mul', 'naive', 2): (4, 4, 0),
    ('prime:2147483647', 'mul', 'naive', 9): (45, 45, 0),
    ('prime:2147483647', 'mul', 'naive', 31): (496, 496, 0),
    ('prime:2147483647', 'mul', 'naive', 32): (544, 544, 0),
    ('prime:2147483647', 'mul', 'naive', 77): (3003, 3003, 0),
    ('prime:2147483647', 'mul', 'naive', 96): (4704, 4704, 0),
    ('prime:2147483647', 'mul', 'naive', 130): (8580, 8580, 0),
    ('prime:2147483647', 'mul', 'fast', 1): (1, 1, 0),
    ('prime:2147483647', 'mul', 'fast', 2): (4, 4, 0),
    ('prime:2147483647', 'mul', 'fast', 9): (71, 41, 0),
    ('prime:2147483647', 'mul', 'fast', 31): (629, 377, 0),
    ('prime:2147483647', 'mul', 'fast', 32): (663, 400, 0),
    ('prime:2147483647', 'mul', 'fast', 77): (3346, 1343, 0),
    ('prime:2147483647', 'mul', 'fast', 96): (4503, 1992, 0),
    ('prime:2147483647', 'mul', 'fast', 130): (7699, 3553, 0),
    ('binary:8', 'interpolate', 'naive', 1): (5, 6, 1),
    ('binary:8', 'interpolate', 'naive', 2): (18, 20, 2),
    ('binary:8', 'interpolate', 'naive', 9): (333, 342, 9),
    ('binary:8', 'interpolate', 'naive', 31): (3875, 3906, 31),
    ('binary:8', 'interpolate', 'naive', 32): (4128, 4160, 32),
    ('binary:8', 'interpolate', 'naive', 77): (23793, 23870, 77),
    ('binary:8', 'interpolate', 'naive', 96): (36960, 37056, 96),
    ('binary:8', 'interpolate', 'naive', 130): (67730, 67860, 130),
    ('binary:8', 'interpolate', 'fast', 1): (0, 2, 1),
    ('binary:8', 'interpolate', 'fast', 2): (20, 18, 2),
    ('binary:8', 'interpolate', 'fast', 9): (633, 524, 9),
    ('binary:8', 'interpolate', 'fast', 31): (6127, 4384, 31),
    ('binary:8', 'interpolate', 'fast', 32): (6532, 4524, 32),
    ('binary:8', 'interpolate', 'fast', 77): (39110, 23644, 77),
    ('binary:8', 'interpolate', 'fast', 96): (52667, 31677, 96),
    ('binary:8', 'interpolate', 'fast', 130): (106789, 58845, 130),
    ('binary:8', 'multipoint_eval', 'naive', 1): (1, 1, 0),
    ('binary:8', 'multipoint_eval', 'naive', 2): (4, 4, 0),
    ('binary:8', 'multipoint_eval', 'naive', 9): (81, 81, 0),
    ('binary:8', 'multipoint_eval', 'naive', 31): (961, 961, 0),
    ('binary:8', 'multipoint_eval', 'naive', 32): (1024, 1024, 0),
    ('binary:8', 'multipoint_eval', 'naive', 77): (5929, 5929, 0),
    ('binary:8', 'multipoint_eval', 'naive', 96): (9216, 9216, 0),
    ('binary:8', 'multipoint_eval', 'naive', 130): (16900, 16900, 0),
    ('binary:8', 'multipoint_eval', 'fast', 1): (1, 1, 0),
    ('binary:8', 'multipoint_eval', 'fast', 2): (14, 10, 0),
    ('binary:8', 'multipoint_eval', 'fast', 9): (495, 401, 0),
    ('binary:8', 'multipoint_eval', 'fast', 31): (4730, 3424, 0),
    ('binary:8', 'multipoint_eval', 'fast', 32): (5006, 3564, 0),
    ('binary:8', 'multipoint_eval', 'fast', 77): (30924, 19039, 0),
    ('binary:8', 'multipoint_eval', 'fast', 96): (41356, 25405, 0),
    ('binary:8', 'multipoint_eval', 'fast', 130): (86704, 48851, 0),
    ('binary:8', 'mul', 'naive', 1): (1, 1, 0),
    ('binary:8', 'mul', 'naive', 2): (4, 4, 0),
    ('binary:8', 'mul', 'naive', 9): (45, 45, 0),
    ('binary:8', 'mul', 'naive', 31): (496, 496, 0),
    ('binary:8', 'mul', 'naive', 32): (544, 544, 0),
    ('binary:8', 'mul', 'naive', 77): (3003, 3003, 0),
    ('binary:8', 'mul', 'naive', 96): (4704, 4704, 0),
    ('binary:8', 'mul', 'naive', 130): (8580, 8580, 0),
    ('binary:8', 'mul', 'fast', 1): (1, 1, 0),
    ('binary:8', 'mul', 'fast', 2): (4, 4, 0),
    ('binary:8', 'mul', 'fast', 9): (71, 41, 0),
    ('binary:8', 'mul', 'fast', 31): (629, 377, 0),
    ('binary:8', 'mul', 'fast', 32): (663, 400, 0),
    ('binary:8', 'mul', 'fast', 77): (3346, 1343, 0),
    ('binary:8', 'mul', 'fast', 96): (4503, 1992, 0),
    ('binary:8', 'mul', 'fast', 130): (7699, 3553, 0),
}


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("mode", MODES)
def test_golden_counts_cold_and_warm(spec, op, mode):
    for n in SIZES:
        # a fresh field object starts with empty per-field caches
        f, xs, ys, cs, ds = _inputs(spec, n)
        cold, first = _counted(lambda: _call(op, mode, f, xs, ys, cs, ds))
        warm, second = _counted(lambda: _call(op, mode, f, xs, ys, cs, ds))
        assert first == second
        assert cold == GOLDEN[spec, op, mode, n], (n, "cold")
        assert warm == GOLDEN[spec, op, mode, n], (n, "warm")


@pytest.mark.parametrize("loop", [False, True])
def test_multipoint_eval_counts_follow_trimmed_remainders(loop):
    # A node's remainder loses its top coefficient when the polynomial
    # vanishes on the node's points, and every node below it then gets a
    # shorter operand.  (adds, muls) of one degree-38 evaluation on 39
    # points: a generic polynomial, then one vanishing on the first 20
    # points in tree order, then one vanishing on the last 20.
    p = 2147483647
    f = _loop_twin(p) if loop else PrimeField(p)
    rng = random.Random(5)
    xs = rng.sample(range(1, p), 39)
    generic = DensePoly(f, [f.rand(rng) for _ in xs])
    cofactor = DensePoly(f, [f.rand(rng) for _ in range(19)])
    cases = ((generic, (8655, 5837)),
             (cofactor * vanishing(xs[:20], f), (7565, 5005)),
             (cofactor * vanishing(xs[-20:], f), (8144, 5451)))
    for poly, want in cases:
        assert poly.degree == 38
        for _ in range(2):  # cold, then warm
            (adds, muls, _), vals = _counted(
                lambda: multipoint_eval(poly, xs, "fast"))
            assert (adds, muls) == want
            assert vals == [poly(x) for x in xs]


RUNS = {
    "csm-corrupt-fast": dict(
        protocol="csm", n_nodes=30, degree=2, fault_fraction=Fraction(1, 10),
        adversary="corrupt", poly_mode="fast", rounds=3, seed=5),
    "delegated-dishonest-worker": dict(
        protocol="csm", n_nodes=16, degree=2, fault_fraction=Fraction(1, 4),
        delegate=True, adversary="dishonest_worker", rounds=2, seed=5),
    "delegated-dishonest-worker-fast": dict(
        protocol="csm", n_nodes=16, degree=2, fault_fraction=Fraction(1, 4),
        delegate=True, adversary="dishonest_worker", poly_mode="fast",
        rounds=2, seed=5),
}

# run -> (event-log SHA-256, {phase: (adds, muls, invs)},
#         {role: (adds, muls, invs)}), a role being an owner less its index
GOLDEN_RUNS = {
    'csm-corrupt-fast': (
        'caa8d189777a635de8ab92caabc13d7307704842fd086951a961a17f645b7cdb',
        {'chi': (990, 1080, 0),
         'psi': (2412720, 1820340, 10260),
         'rho': (1170, 2160, 0),
         'setup': (330, 360, 0)},
        {'net': (2415210, 1823940, 10260)}),
    'delegated-dishonest-worker': (
        'f3b816af70e9262a2a309f9f39af43f999b9ac8fe4b979fa1d4c8ab0127cdfe2',
        {'chi': (3330, 3316, 96),
         'psi': (4136, 4200, 28),
         'rho': (1696, 2016, 48),
         'setup': (48, 64, 0)},
        {'auditor': (6930, 6910, 120),
         'commoner': (0, 10, 0),
         'net': (112, 448, 0),
         'node': (2168, 2228, 52)}),
    'delegated-dishonest-worker-fast': (
        'f3b816af70e9262a2a309f9f39af43f999b9ac8fe4b979fa1d4c8ab0127cdfe2',
        {'chi': (14010, 10348, 96),
         'psi': (18316, 13964, 28),
         'rho': (7036, 5532, 48),
         'setup': (48, 64, 0)},
        {'auditor': (33540, 24920, 120),
         'commoner': (0, 10, 0),
         'net': (112, 448, 0),
         'node': (5758, 4530, 52)}),
}


def _run_summary(name):
    res = run_experiment(ExperimentConfig(**RUNS[name]))
    assert res.ok
    digest = hashlib.sha256(res.log.to_jsonl().encode()).hexdigest()
    phases = {}
    for phase in sorted({ph for _, ph in res.board.counters}):
        c = res.board.get(phase=phase)
        phases[phase] = (c.adds, c.muls, c.invs)
    roles = {}
    for (owner, _), c in res.board.counters.items():
        role = owner.rstrip("0123456789")
        roles[role] = roles.get(role, OpCounter()) + c
    return digest, phases, {r: (c.adds, c.muls, c.invs)
                            for r, c in sorted(roles.items())}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_run_costs_and_log(name):
    assert _run_summary(name) == GOLDEN_RUNS[name]


# ---------------------------------------------------------------------------
# bulk prime kernels against the per-operation loops
# ---------------------------------------------------------------------------

def _loop_twin(p):
    """F_p with the per-operation `LoopKernels`: the reference.

    Every polynomial kernel then makes one counted field call per
    operation, as over GF(2^m).
    """
    g = PrimeField(p)
    g.kernels = LoopKernels(g)
    assert type(g.kernels) is LoopKernels
    return g


def _both(f, g, fn):
    """fn's result and counts over a bulk field f and its loop twin g."""
    (cf, rf), (cg, rg) = _counted(lambda: fn(f)), _counted(lambda: fn(g))
    return cf, cg, rf, rg


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 70), st.integers(1, 70), st.integers(0, 1 << 30),
       st.sampled_from([5, 97, 2147483647, (1 << 61) - 1]))
def test_bulk_prime_path_charges_the_per_op_counts(n, m, seed, p):
    # small primes make zero coefficients common, so remainders get
    # trimmed and long division skips quotient terms: both change counts
    f, g = PrimeField(p), _loop_twin(p)
    # int64 below 2^31.5, exact ints above: both must match the loops
    assert isinstance(f.kernels, PrimeKernels)
    rng = random.Random(seed)
    xs = rng.sample(range(p), min(n, p))
    ys = [rng.randrange(p) for _ in xs]
    cs = [rng.randrange(p) for _ in range(m)]
    ds = [rng.randrange(p) for _ in range(rng.randint(1, 40))]
    ds[-1] = ds[-1] or 1
    for mode in MODES:
        cases = (
            lambda F: interpolate(list(zip(xs, ys)), F, mode).coeffs,
            lambda F: multipoint_eval(DensePoly(F, cs), xs, mode),
            lambda F: DensePoly(F, cs).mul(DensePoly(F, ds), mode).coeffs,
            lambda F: tuple(r.coeffs for r in
                            DensePoly(F, cs).divmod(DensePoly(F, ds))),
            lambda F: (DensePoly(F, cs) + DensePoly(F, ds)).coeffs,
            lambda F: (DensePoly(F, cs) - DensePoly(F, ds)).coeffs,
            # a longer second operand: the difference's tail is -b
            lambda F: (DensePoly(F, cs) + DensePoly(F, ds + cs)).coeffs,
            lambda F: (DensePoly(F, cs) - DensePoly(F, ds + cs)).coeffs,
            # a Vandermonde product, as encoding and auditing make
            lambda F: F.kernels.matvec(F.kernels.power_table(xs, m), cs),
        )
        for fn in cases:
            for _ in range(2):  # cold, then warm
                cf, cg, rf, rg = _both(f, g, fn)
                assert rf == rg
                assert cf == cg
