"""Acceptance gate: nine end-to-end criteria, one summary line each.

Every test prints a single ``criterion N: PASS`` line with its measured
quantities when it succeeds; a failure surfaces through the assert with
the offending instance attached.
"""

import math
import random
import time
from fractions import Fraction

from codedsm.csm import (
    CodingConfig,
    decode_claim,
    decode_round,
    encode_commands,
    encode_states,
    execute_local,
    max_machines,
)
from codedsm.field import (
    BinaryField,
    CounterBoard,
    OpCounter,
    counting,
    parse_field,
)
from codedsm.harness import read_csv, run_cli
from codedsm.intermix import (
    Delegation,
    HONEST,
    Worker,
    WorkerStrategy,
    audit,
    commoner_check,
    delegated_decode,
    elect_committee,
    intermix_cost,
    run_session,
    verify_decode_claim,
)
from codedsm.machine import (
    MACHINES,
    MultiPoly,
    boolcounter_machine,
    make_machine,
)
from codedsm.simnet import ExperimentConfig, run_experiment

FBIG = parse_field("prime:2147483647")
F97 = parse_field("prime:97")


def _pass(num: int, detail: str) -> None:
    print(f"criterion {num}: PASS - {detail}")


# ---------------------------------------------------------------------------
# 1. decoding threshold sharpness, synchronous setting
# ---------------------------------------------------------------------------

def test_criterion_1_sync_threshold_sharpness():
    start = time.time()
    rng = random.Random(20260814)
    machines = {1: make_machine("bank", FBIG),
                2: make_machine("product", FBIG)}
    rounds_clean = 0
    instances_broken = 0
    for d, mach in machines.items():
        sd = mach.state_dim
        for n in range(1, 17):
            for k in range(1, n + 1):
                dbound = d * (k - 1)
                if dbound >= n:
                    continue
                b_max = (n - dbound - 1) // 2

                def one_round(coding, b, attack):
                    states = tuple(mach.random_state(rng)
                                   for _ in range(k))
                    commands = tuple(mach.random_command(rng)
                                     for _ in range(k))
                    truth = [mach.eval_all(s, x)
                             for s, x in zip(states, commands)]
                    g = [execute_local(s, x, coding) for s, x in
                         zip(encode_states(states, coding),
                             encode_commands(commands, coding))]
                    faulty = rng.sample(range(n), b)
                    silent = rng.randrange(b + 1) if attack == "mix" \
                        else (b if attack == "withhold" else 0)
                    for pos, i in enumerate(faulty):
                        if pos < silent:
                            g[i] = None
                        else:
                            g[i] = tuple(
                                FBIG.add(v, rng.randrange(1, FBIG.order))
                                for v in g[i])
                    res = decode_round(g, coding)
                    correct = (res.success
                               and res.next_states == tuple(
                                   tuple(t[:sd]) for t in truth)
                               and res.outputs == tuple(
                                   tuple(t[sd:]) for t in truth))
                    return correct

                for b in range(b_max + 1):
                    coding = CodingConfig(mach, k, n, "sync", b=b)
                    for _ in range(2):
                        assert one_round(coding, b, "mix"), \
                            (n, d, k, b, "decode error within threshold")
                        rounds_clean += 1
                # one fault beyond the bound must break the round, by
                # silence or by corruption
                deployment = CodingConfig(mach, k, n, "sync", b=b_max)
                for attack in ("withhold", "corrupt"):
                    assert not one_round(deployment, b_max + 1, attack), \
                        (n, d, k, b_max + 1, attack, "survived overload")
                instances_broken += 1
    assert rounds_clean >= 1000
    _pass(1, f"{rounds_clean} adversarial rounds error-free at threshold, "
             f"{instances_broken} instances broken at b_max+1 "
             f"({time.time() - start:.1f}s)")


# ---------------------------------------------------------------------------
# 2. capacity formulas and full-scale runs at the bound
# ---------------------------------------------------------------------------

def test_criterion_2_capacity():
    start = time.time()
    assert max_machines(30, 0.1, 2, "sync") == 12
    res = run_experiment(ExperimentConfig(
        protocol="csm", n_nodes=30, k_machines=12, degree=2, b=3,
        adversary="corrupt", rounds=50, seed=7))
    assert res.ok and res.rounds_run == 50, res.violations

    assert max_machines(30, 0.1, 1, "psync") == 21
    for adv in ("withhold", "corrupt"):
        r = run_experiment(ExperimentConfig(
            protocol="csm", n_nodes=30, k_machines=21, degree=1, b=3,
            setting="psync", adversary=adv, rounds=50, seed=2))
        assert r.ok and r.rounds_run == 50, (adv, r.violations)
    _pass(2, f"K=12 at N=30 sync and K=21 psync, 50-round runs at b=3 "
             f"violation-free ({time.time() - start:.1f}s)")


# ---------------------------------------------------------------------------
# 3. coded trajectories equal uncoded execution
# ---------------------------------------------------------------------------

def test_criterion_3_trajectory_equivalence():
    start = time.time()
    catalog = ("none", "corrupt", "corrupt_random", "withhold", "delay",
               "equivocate", "false_audit", "dishonest_worker")
    runs = 0
    for name in MACHINES:
        spec = "binary:8" if name == "boolcounter" else "prime:2147483647"
        for seed in range(100):
            adv = catalog[seed % len(catalog)]
            cfg = ExperimentConfig(
                protocol="csm", n_nodes=10, machine=name, field_spec=spec,
                fault_fraction=Fraction(1, 5), rounds=20, seed=seed,
                adversary=adv,
                channel="p2p" if adv == "equivocate" else "broadcast")
            res = run_experiment(cfg)
            assert res.ok, (name, seed, adv, res.violations)
            assert res.rounds_run == 20
            runs += 1
    _pass(3, f"{runs} twenty-round runs across {len(MACHINES)} machines "
             f"match the uncoded trajectory exactly "
             f"({time.time() - start:.1f}s)")


# ---------------------------------------------------------------------------
# 4. verified-product fuzz: soundness, completeness, audit cost
# ---------------------------------------------------------------------------

def test_criterion_4_intermix_fuzz():
    start = time.time()
    rng = random.Random(44)
    frauds_accepted = honest_rejected = 0
    instances = 0
    for trial in range(10_000):
        k = rng.randrange(2, 65)
        a = (tuple(rng.randrange(97) for _ in range(k)),)
        x = tuple(rng.randrange(97) for _ in range(k))
        honest = trial % 2 == 0
        if honest:
            strat = HONEST
        else:
            strat = WorkerStrategy(
                deltas={0: (rng.randrange(1, 97), rng.randrange(k))},
                reply=rng.choice(("truthful", "consistent", "random",
                                  "silent")),
                seed=trial)
        w = Worker(F97, a, x, strat)
        transcript = audit(F97, a, x, w)
        assert len(transcript.levels) <= math.ceil(math.log2(k))
        counter = OpCounter()
        with counting(counter):
            verdict = commoner_check(transcript, a, x, F97, w.reply_log)
        assert counter.total() <= 4, (k, counter.total())
        if honest and not verdict.accepted:
            honest_rejected += 1
        if not honest and verdict.accepted:
            frauds_accepted += 1
        instances += 1
    assert frauds_accepted == 0 and honest_rejected == 0
    _pass(4, f"{instances} fuzz instances: 0 frauds accepted, 0 honest "
             f"rejected, paths within log2 K, commoner <= 4 ops "
             f"({time.time() - start:.1f}s)")


# ---------------------------------------------------------------------------
# 5. audited session cost stays within the closed-form bound
# ---------------------------------------------------------------------------

def test_criterion_5_cost_bound():
    start = time.time()
    rng = random.Random(55)
    checked = []
    for n in (16, 64):
        for k in (8, 32):
            a = tuple(tuple(rng.randrange(97) for _ in range(k))
                      for _ in range(n))
            x = tuple(rng.randrange(97) for _ in range(k))
            board = CounterBoard()
            committee = elect_committee(n, Fraction(1, 3), 1e-2, rng,
                                        worker=0)
            j = committee.target_size
            # worst case: a lie every auditor chases to the last scalar
            w = Worker(F97, a, x,
                       WorkerStrategy(deltas={0: (1, k - 1)},
                                      reply="consistent"),
                       board=board, name="worker")
            res = run_session(F97, a, x, w, committee, board=board)
            assert not res.accepted
            measured = board.get().total()
            bound = intermix_cost(j, k, n)
            assert measured <= bound, (n, k, measured, bound)
            checked.append(f"N={n},K={k}: {measured}<={bound}")
    _pass(5, "; ".join(checked) + f" ({time.time() - start:.1f}s)")


# ---------------------------------------------------------------------------
# 6. delegated decoding equals local decoding; fabrications rejected
# ---------------------------------------------------------------------------

def _random_decode_instance(rng, mach):
    k = rng.randrange(1, 5)
    d = mach.degree
    n_min = d * (k - 1) + 2
    n = rng.randrange(n_min, n_min + 9)
    b_max = (n - d * (k - 1) - 1) // 2
    b = rng.randrange(b_max + 1)
    coding = CodingConfig(mach, k, n, "sync", b=b)
    states = tuple(mach.random_state(rng) for _ in range(k))
    commands = tuple(mach.random_command(rng) for _ in range(k))
    g = [execute_local(s, x, coding) for s, x in
         zip(encode_states(states, coding),
             encode_commands(commands, coding))]
    for i in rng.sample(range(n), rng.randrange(b + 1)):
        if rng.random() < 0.3:
            g[i] = None
        else:
            g[i] = tuple(FBIG.add(v, rng.randrange(1, FBIG.order))
                         for v in g[i])
    return coding, g


def test_criterion_6_delegated_decode():
    start = time.time()
    rng = random.Random(66)
    machines = [make_machine("bank", FBIG), make_machine("product", FBIG)]
    agreed = 0
    for trial in range(1000):
        coding, g = _random_decode_instance(rng, machines[trial % 2])
        direct = decode_round(list(g), coding)
        dele = Delegation(coding, beacon=random.Random(trial),
                          board=CounterBoard())
        out = delegated_decode(list(g), dele)
        assert out.accepted
        got = out.value
        assert (got.success, got.next_states, got.outputs, got.tau) == \
               (direct.success, direct.next_states, direct.outputs,
                direct.tau), trial
        agreed += 1

    rejected = 0
    for trial in range(120):
        coding, g = _random_decode_instance(rng, machines[trial % 2])
        n = coding.n_nodes
        present = [v for v in g if v is not None]
        budget = coding.b - (n - len(present))
        claim = decode_claim(g, coding, max(budget, 0))
        if claim is None:
            continue
        dele = Delegation(coding, beacon=random.Random(trial),
                          board=CounterBoard())
        committee = elect_committee(n, coding.fault_fraction, dele.eps,
                                    random.Random(trial), worker=0)
        fabrications = []
        tampered_coeffs = [list(c) for c in claim.coeffs]
        tampered_coeffs[0][0] = FBIG.add(tampered_coeffs[0][0], 1)
        fabrications.append(claim.__class__(
            claim.tau, tuple(tuple(c) for c in tampered_coeffs),
            claim.evals))
        tampered_evals = [list(e) for e in claim.evals]
        tampered_evals[0][0] = FBIG.add(tampered_evals[0][0], 3)
        fabrications.append(claim.__class__(
            claim.tau, claim.coeffs,
            tuple(tuple(e) for e in tampered_evals)))
        # an agreement set below the decoding floor is never acceptable
        floor = len(present) - max(budget, 0)
        if floor > 1:
            fabrications.append(claim.__class__(
                claim.tau[:floor - 1], claim.coeffs, claim.evals))
        # claiming agreement from a node whose public result disagrees
        outside = [i for i in range(n)
                   if i not in claim.tau and g[i] is not None]
        if outside:
            swapped = tuple(sorted(claim.tau[1:] + (outside[0],)))
            fabrications.append(claim.__class__(
                swapped, claim.coeffs, claim.evals))
        for fake in fabrications:
            ok, reason, _ = verify_decode_claim(g, fake, coding, 0,
                                                committee, dele)
            assert not ok, (trial, reason)
            rejected += 1
    assert rejected > 200
    _pass(6, f"{agreed} delegated decodes equal local decoding; "
             f"{rejected} fabricated claims rejected "
             f"({time.time() - start:.1f}s)")


# ---------------------------------------------------------------------------
# 7. throughput trend at desk scale
# ---------------------------------------------------------------------------

def test_criterion_7_throughput_trend(tmp_path):
    start = time.time()
    assert run_cli(["scale", "16", "32", "64", "--compare", "csm,full",
                    "--mu", "1/4", "--d", "1", "--delegate", "--poly-mode",
                    "fast", "--rounds", "4", "--seed", "7",
                    "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "metrics.csv")
    lams = {p: [float(r["lambda"]) for r in rows if r["protocol"] == p]
            for p in ("csm", "full")}
    lams_csm, lams_full = lams["csm"], lams["full"]
    assert [int(r["N"]) for r in rows] == [16, 16, 32, 32, 64, 64]
    assert all(int(r["K"]) == int(r["N"]) // 2 for r in rows)
    assert lams_csm[0] < lams_csm[1] < lams_csm[2], lams_csm
    spread = max(lams_full) / min(lams_full) - 1
    assert spread <= 0.05, lams_full

    from codedsm.poly import interpolate
    rng = random.Random(77)
    ops = {}
    for n in (64, 128, 256, 512):
        pts = [(i + 1, rng.randrange(FBIG.order)) for i in range(n)]
        counter = OpCounter()
        with counting(counter):
            interpolate(pts, FBIG, mode="fast")
        ops[n] = counter.total()
    ratios = {n: ops[2 * n] / ops[n] for n in (64, 128, 256)}
    assert all(r <= 3.8 for r in ratios.values()), ratios
    _pass(7, f"lambda_csm {lams_csm[0]:.5f}<{lams_csm[1]:.5f}<"
             f"{lams_csm[2]:.5f}, lambda_full spread {spread:.1%}, "
             f"interp doubling ratios "
             f"{', '.join(f'{r:.2f}' for r in ratios.values())} "
             f"({time.time() - start:.1f}s)")


# ---------------------------------------------------------------------------
# 8. Boolean functions polynomialize exactly, embedded and plain
# ---------------------------------------------------------------------------

def _bits(idx: int, arity: int) -> tuple[int, ...]:
    """The input whose bits, read left to right, spell ``idx``."""
    return tuple((idx >> (arity - 1 - i)) & 1 for i in range(arity))


def _anf(arity: int, code: int) -> MultiPoly:
    """The algebraic normal form of the table whose output at ``_bits(idx)``
    is bit idx of ``code``: the Moebius transform over GF(2) turns the
    table into the coefficient of each monomial, indexed the same way."""
    coeffs = [(code >> idx) & 1 for idx in range(1 << arity)]
    for i in range(arity):
        for idx in range(1 << arity):
            if (idx >> i) & 1:
                coeffs[idx] ^= coeffs[idx ^ (1 << i)]
    return MultiPoly.make(arity, {_bits(idx, arity): c
                                  for idx, c in enumerate(coeffs)})


def _table(arity: int, fn) -> int:
    return sum(fn(*_bits(idx, arity)) << idx for idx in range(1 << arity))


def test_criterion_8_boolean_polynomialization():
    start = time.time()
    fields = [BinaryField(m) for m in (1, 2, 4, 8)]
    tables = 0
    for arity in (2, 3):
        for code in range(1 << (1 << arity)):
            poly = _anf(arity, code)
            for idx in range(1 << arity):
                inp, want = _bits(idx, arity), (code >> idx) & 1
                for fld in fields:
                    # bits embed as the words 0 and 1
                    assert poly.eval(fld, inp) == want, \
                        (arity, code, inp, fld)
            tables += 1
    assert tables == 16 + 256
    carry = _table(3, lambda s1, s0, x: s1 ^ (s0 & x))
    flip = _table(3, lambda s1, s0, x: s0 ^ x)
    out = _table(3, lambda s1, s0, x: s0 & x)
    assert boolcounter_machine(BinaryField(8)).coords == (
        _anf(3, carry), _anf(3, flip), _anf(3, out))
    _pass(8, f"all {tables} Boolean tables exact over GF(2) and "
             f"GF(2^m), m in 2,4,8 ({time.time() - start:.1f}s)")


# ---------------------------------------------------------------------------
# 9. storage/security table rows from the CLI
# ---------------------------------------------------------------------------

def test_criterion_9_storage_table(tmp_path):
    start = time.time()
    code = run_cli(["run", "--compare", "full,partial,csm", "--n", "12",
                    "--k", "3", "--d", "1", "--mu", "1/4", "--rounds",
                    "5", "--seed", "1", "--out", str(tmp_path)])
    assert code == 0
    rows = {r["protocol"]: r for r in read_csv(tmp_path / "metrics.csv")}
    assert (rows["full"]["gamma"], rows["full"]["beta"]) == ("1", "5")
    assert (rows["partial"]["gamma"], rows["partial"]["beta"]) == \
           ("3", "1")
    assert (rows["csm"]["gamma"], rows["csm"]["beta"]) == ("6", "3")
    assert rows["csm"]["K"] == "6"
    _pass(9, "table rows (gamma, beta): full (1,5), partial (3,1), "
             f"coded (6,3) at N=12 ({time.time() - start:.1f}s)")
