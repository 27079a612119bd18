"""Verified matrix-vector sessions and the delegated coding on top.

The load-bearing property is deterministic rejection: once a worker's
announced product differs from the truth, no reply strategy survives the
halving dispute plus the commoner's single-operation check.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedsm import intermix, simnet
from codedsm.csm import (
    CodingConfig,
    DecodeClaim,
    decode_claim,
    decode_round,
    encode_commands,
    encode_states,
    execute_local,
    update_coded_states,
)
from codedsm.field import (
    ConfigurationError,
    CounterBoard,
    OpCounter,
    PrimeField,
    counting,
    uncounted,
)
from codedsm.intermix import (
    AuditTranscript,
    Delegation,
    Worker,
    WorkerStrategy,
    audit,
    commoner_check,
    committee_size,
    delegated_decode,
    delegated_encode,
    delegated_update,
    elect_committee,
    intermix_cost,
    run_session,
    verify_decode_claim,
)
from codedsm.machine import bank_machine, product_machine

F11 = PrimeField(11)
F97 = PrimeField(97)


def random_instance(rng, n, k, fld=F97):
    m = tuple(tuple(rng.randrange(fld.order) for _ in range(k))
              for _ in range(n))
    v = tuple(rng.randrange(fld.order) for _ in range(k))
    return m, v


# ---------------------------------------------------------------------------
# single dispute, frozen numbers
# ---------------------------------------------------------------------------

def test_frozen_dispute_sum_inconsistency():
    a = [[1, 2], [3, 4]]
    x = (5, 6)
    assert F11.kernels.matvec(a, x) == (6, 6)
    w = Worker(F11, a, x, WorkerStrategy(deltas={1: (1, 1)}))
    assert w.claim() == (6, 7)
    tr = audit(F11, a, x, w)
    assert tr.row == 1
    assert tr.levels[0].claim_left == 4 and tr.levels[0].claim_right == 2
    assert tr.alert == ("sum", 0)
    v = commoner_check(tr, a, x, F11, w.reply_log)
    assert not v.accepted and v.blamed == "worker"
    assert v.reason == "inconsistency-at-level-1"


def test_consistent_liar_pinned_to_one_scalar():
    a = [[1, 2], [3, 4]]
    x = (5, 6)
    w = Worker(F11, a, x, WorkerStrategy(deltas={1: (1, 1)},
                                         reply="consistent"))
    tr = audit(F11, a, x, w)
    assert tr.alert == ("scalar", 1, 3)
    assert tr.path == (1, 1)
    v = commoner_check(tr, a, x, F11, w.reply_log)
    assert not v.accepted and v.reason == "final-scalar-mismatch"


def test_consistent_liar_anchor_wraps_to_a_column():
    # an anchor past the last column still lands in one half at every
    # level, so the sum checks pass and only the final scalar is wrong
    rng = random.Random(21)
    a, x = random_instance(rng, 3, 6)
    w = Worker(F97, a, x, WorkerStrategy(deltas={1: (4, 6 + 2)},
                                         reply="consistent"))
    tr = audit(F97, a, x, w)
    assert tr.alert[:2] == ("scalar", 2)
    v = commoner_check(tr, a, x, F97, w.reply_log)
    assert not v.accepted and v.reason == "final-scalar-mismatch"


def test_auditor_charged_recomputation_and_left_halves_only():
    # the lie sits in the last column, so the dispute goes right at every
    # level: [0, 8) -> [4, 8) -> [6, 8) -> column 7
    n, k = 4, 8
    rng = random.Random(22)
    a, x = random_instance(rng, n, k)
    w = Worker(F97, a, x, WorkerStrategy(deltas={2: (5, k - 1)},
                                         reply="consistent"))
    w.claim()
    auditor = OpCounter()
    with counting(auditor):
        tr = audit(F97, a, x, w)
    assert tr.alert == ("scalar", k - 1, F97.add(F97.mul(a[2][k - 1],
                                                         x[k - 1]), 5))
    left = 4 + 2 + 1   # the left halves' products, one add per term
    levels = 3         # one add per level checks c1 + c2 == parent
    assert (auditor.muls, auditor.adds, auditor.invs) == (
        n * k + left, n * (k - 1) + levels + left, 0)


def test_silent_worker_blamed():
    rng = random.Random(3)
    a, x = random_instance(rng, 4, 8)
    w = Worker(F97, a, x, WorkerStrategy(deltas={2: (9, 0)}, reply="silent"))
    tr = audit(F97, a, x, w)
    assert tr.alert[0] == "nonresponsive"
    v = commoner_check(tr, a, x, F97, w.reply_log)
    assert not v.accepted and v.reason == "worker-nonresponsive"


def test_honest_claim_passes_audit():
    rng = random.Random(4)
    a, x = random_instance(rng, 6, 5)
    w = Worker(F97, a, x)
    tr = audit(F97, a, x, w)
    assert tr.alert is None and tr.accepted_by_auditor
    v = commoner_check(tr, a, x, F97, w.reply_log)
    assert v.accepted and v.reason == "all-auditors-true"
    assert v.comparisons == 0


# ---------------------------------------------------------------------------
# deterministic rejection, any reply policy
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("reply", ["truthful", "consistent", "random",
                                   "silent"])
def test_lying_claim_always_rejected(reply):
    # a str seed goes through SHA-512, so every process draws the same
    rng = random.Random(f"lying-claim:{reply}")
    for trial in range(60):
        n = rng.randrange(1, 8)
        k = rng.randrange(1, 17)
        a, x = random_instance(rng, n, k)
        row = rng.randrange(n)
        delta = rng.randrange(1, 97)
        anchor = rng.randrange(k)
        w = Worker(F97, a, x, WorkerStrategy(deltas={row: (delta, anchor)},
                                             reply=reply, seed=trial))
        tr = audit(F97, a, x, w)
        v = commoner_check(tr, a, x, F97, w.reply_log)
        assert not v.accepted, (trial, tr)
        assert v.blamed == "worker"


@settings(max_examples=120, deadline=None)
@given(k=st.integers(1, 24), row=st.integers(0, 2),
       delta=st.integers(1, 96), anchor=st.integers(0, 23),
       reply=st.sampled_from(["truthful", "consistent", "random", "silent"]),
       seed=st.integers(0, 2**16))
def test_rejection_invariant_property(k, row, delta, anchor, reply, seed):
    rng = random.Random(seed)
    a, x = random_instance(rng, 3, k)
    w = Worker(F97, a, x, WorkerStrategy(
        deltas={row: (delta, anchor % k)}, reply=reply, seed=seed))
    assert w.claim() != F97.kernels.matvec(a, x)
    tr = audit(F97, a, x, w)
    v = commoner_check(tr, a, x, F97, w.reply_log)
    assert not v.accepted and v.blamed == "worker"


def test_dispute_path_is_logarithmic():
    rng = random.Random(11)
    for k in [1, 2, 3, 5, 17, 33, 64, 100]:
        a, x = random_instance(rng, 2, k)
        w = Worker(F97, a, x, WorkerStrategy(
            deltas={1: (5, rng.randrange(k))}, reply="consistent"))
        tr = audit(F97, a, x, w)
        bound = math.ceil(math.log2(k)) if k > 1 else 0
        assert len(tr.levels) <= bound + 1
        assert len(tr.path) <= bound + 1


def test_commoner_spends_at_most_four_field_ops():
    rng = random.Random(12)
    worst = 0
    for trial in range(40):
        n, k = rng.randrange(1, 6), rng.randrange(1, 20)
        a, x = random_instance(rng, n, k)
        reply = ["truthful", "consistent", "random", "silent"][trial % 4]
        tampered = trial % 3 != 0
        strat = WorkerStrategy(
            deltas={rng.randrange(n): (rng.randrange(1, 97),
                                       rng.randrange(k))} if tampered else {},
            reply=reply, seed=trial)
        w = Worker(F97, a, x, strat)
        tr = audit(F97, a, x, w)
        c = OpCounter()
        with counting(c):
            commoner_check(tr, a, x, F97, w.reply_log)
        worst = max(worst, c.total())
        assert c.total() <= 4
    assert worst >= 1  # the scalar or sum check really runs


# ---------------------------------------------------------------------------
# committees
# ---------------------------------------------------------------------------

def test_committee_size_frozen_values():
    assert committee_size(1e-3, Fraction(1, 3)) == 7
    assert committee_size(1e-3, Fraction(1, 4)) == 5
    assert committee_size(1e-2, Fraction(1, 3)) == 5
    assert committee_size(0.5, 0) == 1
    # exact power boundary: (1/3)^2 == 1/9
    assert committee_size(1 / 9, Fraction(1, 3)) == 2
    with pytest.raises(ConfigurationError):
        committee_size(0.0, 0.3)
    with pytest.raises(ConfigurationError):
        committee_size(1e-3, 0.5)


def test_election_excludes_worker():
    rng = random.Random(0)
    for _ in range(50):
        c = elect_committee(12, Fraction(1, 3), 1e-2, rng, worker=4)
        assert len(c.members) == c.target_size == 5
        assert 4 not in c.members
        assert len(set(c.members)) == 5
    # not enough candidates: everybody but the worker serves
    small = elect_committee(5, Fraction(1, 3), 1e-3, rng, worker=0)
    assert small.members == (1, 2, 3, 4) and small.target_size == 7
    with pytest.raises(ConfigurationError):
        elect_committee(1, Fraction(1, 3), 1e-3, rng, worker=0)


def test_all_bad_committee_rate_within_design():
    eps = 1e-3
    rng = random.Random(20260814)
    bad = frozenset(range(33))  # a third of 100 nodes
    hits = 0
    trials = 10_000
    for _ in range(trials):
        c = elect_committee(100, Fraction(1, 3), eps, rng, worker=99)
        if set(c.members) <= bad:
            hits += 1
    assert hits / trials <= 2 * eps


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------

def test_session_accepts_honest_worker():
    rng = random.Random(5)
    a, x = random_instance(rng, 10, 6)
    board = CounterBoard()
    c = elect_committee(10, Fraction(1, 3), 1e-2, rng, worker=0)
    res = run_session(F97, a, x, Worker(F97, a, x, board=board), c,
                      board=board)
    assert res.accepted and res.value == F97.kernels.matvec(a, x)
    assert res.reason == "all-auditors-true"
    assert not res.dismissed_auditors


def test_session_rejects_liar_with_one_honest_auditor():
    rng = random.Random(6)
    a, x = random_instance(rng, 10, 6)
    c = elect_committee(10, Fraction(1, 3), 1e-2, rng, worker=0)
    lone_honest = c.members[0]

    def policy(node):
        return "honest" if node == lone_honest else "silent"

    w = Worker(F97, a, x, WorkerStrategy(deltas={3: (7, 2)},
                                         reply="consistent"))
    res = run_session(F97, a, x, w, c, auditor_strategy=policy)
    assert not res.accepted
    assert res.reason == "final-scalar-mismatch"


def test_false_alerts_dismissed_and_claim_stands():
    rng = random.Random(7)
    a, x = random_instance(rng, 8, 5)
    c = elect_committee(8, Fraction(1, 3), 1e-2, rng, worker=2)
    liars = set(c.members[:2])

    def policy(node):
        return "false-alert" if node in liars else "honest"

    w = Worker(F97, a, x)
    res = run_session(F97, a, x, w, c, auditor_strategy=policy)
    assert res.accepted and res.value == F97.kernels.matvec(a, x)
    assert set(res.dismissed_auditors) == liars


def test_forged_transcript_blames_auditor():
    rng = random.Random(8)
    a, x = random_instance(rng, 4, 8)
    w = Worker(F97, a, x, WorkerStrategy(deltas={1: (3, 4)},
                                         reply="consistent"))
    tr = audit(F97, a, x, w)
    forged_levels = list(tr.levels)
    first = forged_levels[0]
    forged_levels[0] = type(first)(first.lo, first.mid, first.hi,
                                   first.parent_claim,
                                   F97.add(first.claim_left, 1),
                                   first.claim_right, first.chosen)
    forged = AuditTranscript(tr.auditor, tr.claim, tr.row,
                             tuple(forged_levels), tr.alert)
    v = commoner_check(forged, a, x, F97, w.reply_log)
    assert v.accepted and v.blamed == "auditor"
    assert v.reason == "auditor-alert-dismissed"


def test_measured_session_cost_within_budget():
    rng = random.Random(13)
    for n, k in ((16, 8), (16, 32), (64, 8)):
        a, x = random_instance(rng, n, k)
        board = CounterBoard()
        committee = elect_committee(n, Fraction(1, 3), 1e-2, rng, worker=0)
        j = committee.target_size
        # worst case: a lie every auditor chases to the final scalar
        w = Worker(F97, a, x, WorkerStrategy(deltas={0: (1, k - 1)},
                                             reply="consistent"),
                   board=board, name="worker")
        res = run_session(F97, a, x, w, committee, board=board)
        assert not res.accepted
        measured = board.get().total()
        assert measured <= intermix_cost(j, k, n), (n, k, measured)


def test_cost_formula_edge_values():
    assert intermix_cost(0, 5, 10) == 2 * 10 * 5 + 10 - 0 - 1
    assert intermix_cost(0, 1, 4) == 2 * 4 * 1 + 4 - 1
    assert intermix_cost(7, 2, 10) == 8 * 40 + 8 * 7 * 2 + 3 * 7 * 1 + 2


def test_power_rows_table():
    rows = F11.kernels.power_table((3, 4), 3)
    assert rows == ((1, 3, 9), (1, 4, 5))


# ---------------------------------------------------------------------------
# delegated coding
# ---------------------------------------------------------------------------

def fresh_cfg(k=3, n=12, fraction=0.25):
    return CodingConfig(product_machine(PrimeField((1 << 31) - 1)),
                        k, n, "sync", b=int(fraction * n))


def run_one_round(cfg, rng):
    m = cfg.machine
    states = [m.random_state(rng) for _ in range(cfg.k_machines)]
    cmds = [m.random_command(rng) for _ in range(cfg.k_machines)]
    cs = encode_states(states, cfg)
    cx = encode_commands(cmds, cfg)
    g = [execute_local(cs[i], cx[i], cfg) for i in range(cfg.n_nodes)]
    return states, cmds, list(g)


def corrupt(g, cfg, rng, count):
    g = list(g)
    fld = cfg.field
    for i in rng.sample(range(cfg.n_nodes), count):
        if rng.random() < 0.3:
            g[i] = None
        else:
            g[i] = tuple(fld.add(v, rng.randrange(1, 100)) for v in g[i])
    return g


def test_delegated_encode_equals_direct():
    cfg = fresh_cfg()
    rng = random.Random(30)
    states = [cfg.machine.random_state(rng) for _ in range(3)]
    out = delegated_encode(states, Delegation(cfg, beacon=1))
    assert out.accepted and out.attempts == 1
    assert out.value == encode_states(states, cfg)
    upd = delegated_update(states, Delegation(cfg, beacon=2))
    assert upd.accepted and upd.value == out.value


def test_delegated_decode_equals_direct_under_corruption():
    cfg = fresh_cfg()
    for seed in range(12):
        rng = random.Random(1000 + seed)
        _, _, g = run_one_round(cfg, rng)
        g = corrupt(g, cfg, rng, rng.randrange(cfg.b + 1))
        direct = decode_round(g, cfg)
        out = delegated_decode(g, Delegation(cfg, beacon=seed))
        assert out.accepted
        got = out.value
        assert got.success == direct.success
        assert got.next_states == direct.next_states
        assert got.outputs == direct.outputs
        if direct.success:
            assert got.tau == direct.tau


def test_dishonest_worker_is_replaced():
    cfg = fresh_cfg()
    rng = random.Random(31)
    _, _, g = run_one_round(cfg, rng)
    direct = decode_round(g, cfg)
    # make whoever is elected first a tampering worker
    probe = Delegation(cfg, beacon=77)
    first = probe.beacon.choice(range(cfg.n_nodes))
    strat = {first: WorkerStrategy(deltas={0: (1, 1)}, reply="consistent")}
    out = delegated_decode(g, Delegation(
        cfg, beacon=77, worker_strategy_for=lambda i: strat.get(i)))
    assert out.accepted
    assert out.rejected_workers == (first,)
    assert out.attempts == 2
    assert out.value.next_states == direct.next_states


def test_false_failure_claim_is_overruled():
    cfg = fresh_cfg()
    rng = random.Random(32)
    _, _, g = run_one_round(cfg, rng)
    direct = decode_round(g, cfg)
    probe = Delegation(cfg, beacon=5)
    first = probe.beacon.choice(range(cfg.n_nodes))
    strat = {first: WorkerStrategy(fail_claim=True)}
    out = delegated_decode(g, Delegation(
        cfg, beacon=5, worker_strategy_for=lambda i: strat.get(i)))
    assert out.accepted and first in out.rejected_workers
    assert out.value.next_states == direct.next_states


def test_genuine_decode_failure_is_concurred():
    cfg = fresh_cfg()
    rng = random.Random(33)
    _, _, g = run_one_round(cfg, rng)
    for i in range(2 * cfg.b):
        g[i] = tuple(cfg.field.add(v, i + 1) for v in g[i])
    direct = decode_round(g, cfg)
    assert not direct.success
    out = delegated_decode(g, Delegation(cfg, beacon=6))
    assert out.accepted
    assert not out.value.success
    assert out.value.violation == direct.violation


def test_fabricated_decode_claims_rejected():
    cfg = fresh_cfg()
    rng = random.Random(34)
    _, _, g = run_one_round(cfg, rng)
    g = corrupt(g, cfg, rng, 2)
    missing = sum(1 for v in g if v is None)
    honest = decode_claim(g, cfg, cfg.b - missing)
    assert honest is not None
    committee = elect_committee(cfg.n_nodes, cfg.fault_fraction, 1e-3,
                                random.Random(2), worker=5)
    dele = Delegation(cfg, beacon=3)

    ok, reason, _ = verify_decode_claim(g, honest, cfg, 5, committee, dele)
    assert ok, reason

    fld = cfg.field
    wrong_coeffs = DecodeClaim(
        honest.tau,
        (tuple(fld.add(c, 2) for c in honest.coeffs[0]),) + honest.coeffs[1:],
        honest.evals)
    ok, reason, _ = verify_decode_claim(g, wrong_coeffs, cfg, 5, committee,
                                        dele)
    assert not ok

    wrong_evals = DecodeClaim(
        honest.tau, honest.coeffs,
        (tuple(fld.add(e, 1) for e in honest.evals[0]),) + honest.evals[1:])
    ok, reason, _ = verify_decode_claim(g, wrong_evals, cfg, 5, committee,
                                        dele)
    assert not ok

    thin = DecodeClaim(honest.tau[:3], honest.coeffs, honest.evals)
    ok, reason, _ = verify_decode_claim(g, thin, cfg, 5, committee, dele)
    assert not ok and reason == "agreement set below decoding floor"

    # swap an agreeing node for a corrupted one of equal count
    bad = [i for i, v in enumerate(g) if v is not None
           and i not in honest.tau]
    if bad:
        swapped = tuple(sorted(honest.tau[1:] + (bad[0],)))
        lying_tau = DecodeClaim(swapped, honest.coeffs, honest.evals)
        ok, reason, _ = verify_decode_claim(g, lying_tau, cfg, 5, committee,
                                            dele)
        assert not ok


def test_delegated_single_machine_edge():
    cfg = CodingConfig(product_machine(PrimeField((1 << 31) - 1)),
                       1, 4, "sync", b=1)
    rng = random.Random(35)
    _, _, g = run_one_round(cfg, rng)
    g[2] = tuple(cfg.field.add(v, 9) for v in g[2])
    direct = decode_round(g, cfg)
    out = delegated_decode(g, Delegation(cfg, beacon=4))
    assert out.accepted and out.value.next_states == direct.next_states
    states = [cfg.machine.random_state(rng)]
    enc = delegated_encode(states, Delegation(cfg, beacon=4))
    assert enc.accepted and enc.value == encode_states(states, cfg)


def test_delegation_gives_up_after_all_workers_burned():
    cfg = fresh_cfg()
    rng = random.Random(36)
    _, _, g = run_one_round(cfg, rng)
    always_bad = WorkerStrategy(deltas={0: (1, 0)})
    out = delegated_decode(g, Delegation(
        cfg, beacon=8, worker_strategy_for=lambda i: always_bad))
    assert not out.accepted
    assert len(out.rejected_workers) == cfg.n_nodes
    assert not out.value.success
    assert out.value.violation.startswith("delegation failed")


def _count_routes(monkeypatch):
    """Count the delegated routes' runs, keyed by their inputs."""
    calls = Counter()
    real = {name: getattr(intermix, name)
            for name in ("interpolate", "multipoint_eval", "decode_claim")}

    def interpolate(points, fld, mode):
        points = tuple(points)
        calls["interpolate", points] += 1
        return real["interpolate"](points, fld, mode)

    def multipoint_eval(poly, xs, mode):
        calls["multipoint_eval", poly.coeffs, tuple(xs)] += 1
        return real["multipoint_eval"](poly, xs, mode)

    def decode_claim(g_values, cfg, budget):
        calls["decode_claim", tuple(g_values), budget] += 1
        return real["decode_claim"](g_values, cfg, budget)

    for name, fn in (("interpolate", interpolate),
                     ("multipoint_eval", multipoint_eval),
                     ("decode_claim", decode_claim)):
        monkeypatch.setattr(intermix, name, fn)
    return calls


@pytest.mark.parametrize("mode", ["auto", "fast"])
def test_each_delegated_route_runs_once_per_call(monkeypatch, mode):
    # The worker, every honest auditor and every re-elected worker run the
    # same public routes on the same inputs; within one delegated call each
    # distinct input is computed once, and the accepted value is still the
    # direct one.
    calls = _count_routes(monkeypatch)
    direct = {"delegated_encode": encode_commands,
              "delegated_update": update_coded_states,
              "delegated_decode": decode_round}
    seen = Counter()
    reelections = 0

    def checked(name):
        real = getattr(simnet, name)

        def call(values, dele, *args, **kwargs):
            nonlocal reelections
            calls.clear()
            out = real(values, dele, *args, **kwargs)
            assert calls and max(calls.values()) == 1, (name, calls)
            seen.update(key[0] for key in calls)
            reelections += len(out.rejected_workers)
            assert out.accepted and dele.cfg.poly_mode == mode
            with uncounted():
                assert out.value == direct[name](values, dele.cfg)
            return out
        monkeypatch.setattr(simnet, name, call)

    for name in direct:
        checked(name)
    res = simnet.run_experiment(simnet.ExperimentConfig(
        protocol="csm", n_nodes=16, degree=1, fault_fraction=Fraction(1, 4),
        delegate=True, adversary="dishonest_worker", poly_mode=mode,
        rounds=5, seed=3))
    assert res.rounds_run == 5 and not res.violations
    assert set(seen) == {"interpolate", "multipoint_eval", "decode_claim"}
    assert reelections > 0


def test_counter_decodes_share_one_run_and_are_each_charged(monkeypatch):
    calls = _count_routes(monkeypatch)
    cfg = fresh_cfg()
    rng = random.Random(32)
    _, _, g = run_one_round(cfg, rng)
    probe = Delegation(cfg, beacon=5)
    first = probe.beacon.choice(range(cfg.n_nodes))
    strat = {first: WorkerStrategy(fail_claim=True)}
    dele = Delegation(cfg, beacon=5,
                      worker_strategy_for=lambda i: strat.get(i))
    out = delegated_decode(g, dele)
    assert out.accepted and first in out.rejected_workers
    assert [n for (route, *_), n in calls.items()
            if route == "decode_claim"] == [1]
    # yet the failing worker, the member that defended its counter-decode
    # and the next worker were each charged the full decode
    solo = OpCounter()
    with counting(solo):
        decode_claim(g, cfg, cfg.b)
    assert solo.total() > 0
    assert dele.board.get(f"node{first}", "psi") == solo
    others = sum(c.total() for (owner, phase), c in dele.board.counters.items()
                 if phase == "psi" and owner.startswith("node")
                 and owner != f"node{first}")
    assert others >= 2 * solo.total()
