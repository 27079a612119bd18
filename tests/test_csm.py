"""Coded round pipeline: encoding, local execution, decoding, capacity."""

import random

import pytest

from codedsm.boolfunc import MultiPoly
from codedsm.csm import (
    CodingConfig,
    DeliveryFailure,
    check_budget,
    client_decide,
    decode_round,
    encode_commands,
    encode_states,
    execute_local,
    max_budget,
    max_machines,
    update_coded_states,
)
from codedsm.field import ConfigurationError, PrimeField
from codedsm.machine import (
    TransitionFunction,
    bank_machine,
    product_machine,
    qmix_machine,
)

F11 = PrimeField(11)
F97 = PrimeField(97)


def small_cfg():
    # product machine, K=2 machines on N=5 nodes, one tolerated fault
    return CodingConfig.make(product_machine(F11), 2, 5, "sync", b=1)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def test_encode_states_running_example():
    cfg = small_cfg()
    assert cfg.domain.omegas == (1, 2) and cfg.domain.alphas == (3, 4, 5, 6, 7)
    coded = encode_states(((4,), (7,)), cfg)
    assert coded == ((10,), (2,), (5,), (8,), (0,))


def test_encode_commands_running_example():
    cfg = small_cfg()
    coded = encode_commands(((2,), (3,)), cfg)
    assert coded == ((4,), (5,), (6,), (7,), (8,))


def test_single_machine_encoding_degenerates_to_replication():
    cfg = CodingConfig.make(bank_machine(F11), 1, 5, "sync", b=2)
    assert encode_states(((9,),), cfg) == ((9,),) * 5


def test_zero_states_encode_to_zero():
    cfg = small_cfg()
    assert encode_states(((0,), (0,)), cfg) == ((0,),) * 5


def test_encoding_is_linear():
    cfg = small_cfg()
    rng = random.Random(2)
    x = [(F11.rand(rng),) for _ in range(2)]
    y = [(F11.rand(rng),) for _ in range(2)]
    s = [((a[0] + b[0]) % 11,) for a, b in zip(x, y)]
    ex, ey, es = (encode_commands(v, cfg) for v in (x, y, s))
    assert es == tuple(((a[0] + b[0]) % 11,) for a, b in zip(ex, ey))


def test_encode_checks_shapes_and_elements():
    cfg = small_cfg()
    with pytest.raises(ValueError):
        encode_states(((4,),), cfg)
    with pytest.raises(ValueError):
        encode_states(((4, 1), (7, 2)), cfg)
    with pytest.raises(ConfigurationError):
        encode_states(((4,), (11,)), cfg)


def test_binary_field_encoding_matches_interpolation():
    from codedsm.field import BinaryField
    from codedsm.poly import interpolate
    gf = BinaryField(5)
    m = bank_machine(gf)
    cfg = CodingConfig.make(m, 3, 9, "sync", b=2)
    rng = random.Random(7)
    states = [(gf.rand(rng),) for _ in range(3)]
    coded = encode_states(states, cfg)
    u = interpolate([(w, s[0]) for w, s in zip(cfg.domain.omegas, states)], gf)
    assert coded == tuple((u(a),) for a in cfg.domain.alphas)


# ---------------------------------------------------------------------------
# execution and decoding
# ---------------------------------------------------------------------------

def test_local_execution_running_example():
    cfg = small_cfg()
    s = encode_states(((4,), (7,)), cfg)
    x = encode_commands(((2,), (3,)), cfg)
    g = [execute_local(s[i], x[i], cfg) for i in range(5)]
    assert [gi[0] for gi in g] == [7, 10, 8, 1, 0]
    assert all(gi == (gi[0], gi[0]) for gi in g)  # next state = output here


def test_decode_round_with_one_corruption():
    cfg = small_cfg()
    s = encode_states(((4,), (7,)), cfg)
    x = encode_commands(((2,), (3,)), cfg)
    g = [list(execute_local(s[i], x[i], cfg)) for i in range(5)]
    g[1] = [0, 0]
    rr = decode_round([tuple(v) for v in g], cfg)
    assert rr.success
    assert rr.outputs == ((8,), (10,))       # 4*2 and 7*3 mod 11
    assert rr.next_states == ((8,), (10,))
    assert rr.tau == frozenset({0, 2, 3, 4})


def test_decode_round_clean_matches_uncoded():
    cfg = small_cfg()
    rng = random.Random(5)
    states = [(F11.rand(rng),) for _ in range(2)]
    cmds = [(F11.rand(rng),) for _ in range(2)]
    s = encode_states(states, cfg)
    x = encode_commands(cmds, cfg)
    rr = decode_round([execute_local(s[i], x[i], cfg) for i in range(5)], cfg)
    assert rr.success and rr.tau == frozenset(range(5))
    for k in range(2):
        nxt, out = cfg.machine.apply(states[k], cmds[k])
        assert rr.next_states[k] == nxt
        assert rr.outputs[k] == out


def test_overloaded_round_is_flagged_or_wrong():
    cfg = small_cfg()
    s = encode_states(((4,), (7,)), cfg)
    x = encode_commands(((2,), (3,)), cfg)
    g = [list(execute_local(s[i], x[i], cfg)) for i in range(5)]
    g[1] = [0, 0]
    g[2] = [0, 0]  # budget is 1, two corruptions
    rr = decode_round([tuple(v) for v in g], cfg)
    assert (not rr.success) or rr.outputs != ((8,), (10,))
    if not rr.success:
        assert rr.violation


def test_missing_slot_consumes_budget_when_synchronous():
    cfg = small_cfg()
    s = encode_states(((4,), (7,)), cfg)
    x = encode_commands(((2,), (3,)), cfg)
    g = [execute_local(s[i], x[i], cfg) for i in range(5)]
    g1 = list(g)
    g1[3] = None
    rr = decode_round(g1, cfg)  # one silent node, budget left for 0 errors
    assert rr.success and rr.outputs == ((8,), (10,))
    g2 = list(g)
    g2[3] = None
    g2[4] = None
    rr2 = decode_round(g2, cfg)
    assert not rr2.success and "silent" in rr2.violation


def test_partially_synchronous_decoding_from_first_arrivals():
    # bank machine, K=2, N=7: 3b+1 <= 7-1 allows b=1
    cfg = CodingConfig.make(bank_machine(F11), 2, 7, "psync", b=1)
    rng = random.Random(11)
    states = [(F11.rand(rng),) for _ in range(2)]
    cmds = [(F11.rand(rng),) for _ in range(2)]
    s = encode_states(states, cfg)
    x = encode_commands(cmds, cfg)
    g = [list(execute_local(s[i], x[i], cfg)) for i in range(7)]
    g[0] = [3, 3]     # one lie among the arrivals
    g[6] = None       # one late message never waited for
    rr = decode_round([None if v is None else tuple(v) for v in g], cfg)
    assert rr.success
    for k in range(2):
        nxt, out = cfg.machine.apply(states[k], cmds[k])
        assert rr.next_states[k] == nxt and rr.outputs[k] == out


def test_update_reencodes_decoded_states():
    cfg = small_cfg()
    decoded = ((8,), (10,))
    assert update_coded_states(decoded, cfg) == encode_states(decoded, cfg)


def test_fixed_point_machine_keeps_coded_state():
    ident = MultiPoly.make(2, {(1, 0): 1})
    m = TransitionFunction(F11, 1, 1, 1, (ident, ident), 1)
    cfg = CodingConfig.make(m, 3, 7, "sync", b=1)
    states = ((3,), (6,), (9,))
    s = encode_states(states, cfg)
    x = encode_commands(((1,), (2,), (3,)), cfg)
    rr = decode_round([execute_local(s[i], x[i], cfg) for i in range(7)], cfg)
    assert rr.success
    assert update_coded_states(rr.next_states, cfg) == s


def test_two_round_trajectory_matches_uncoded():
    cfg = CodingConfig.make(qmix_machine(F97), 3, 12, "sync", b=2)
    rng = random.Random(42)
    states = [cfg.machine.random_state(rng) for _ in range(3)]
    coded = encode_states(states, cfg)
    for _ in range(2):
        cmds = [cfg.machine.random_command(rng) for _ in range(3)]
        x = encode_commands(cmds, cfg)
        g = [list(execute_local(coded[i], x[i], cfg)) for i in range(12)]
        for i in rng.sample(range(12), 2):
            g[i] = [F97.rand(rng) for _ in range(cfg.flat_dim)]
        rr = decode_round([tuple(v) for v in g], cfg)
        assert rr.success
        expected = [cfg.machine.apply(s, c) for s, c in zip(states, cmds)]
        assert rr.next_states == tuple(e[0] for e in expected)
        assert rr.outputs == tuple(e[1] for e in expected)
        states = list(rr.next_states)
        coded = update_coded_states(rr.next_states, cfg)


def test_round_trace_record_shape():
    cfg = small_cfg()
    s = encode_states(((4,), (7,)), cfg)
    x = encode_commands(((2,), (3,)), cfg)
    rr = decode_round([execute_local(s[i], x[i], cfg) for i in range(5)], cfg)
    rec = rr.record(3, commands=((2,), (3,)))
    assert rec["round"] == 3
    assert rec["commands"] == [[2], [3]]
    assert rec["tau"] == [0, 1, 2, 3, 4]
    assert rec["outputs"] == [[8], [10]]
    assert rec["success"] is True and rec["violation"] is None


# ---------------------------------------------------------------------------
# capacity formulas
# ---------------------------------------------------------------------------

def test_max_machines_frozen_values():
    assert max_machines(30, 0.1, 2, "sync") == 12
    assert max_machines(30, 0.1, 1, "psync") == 21
    assert max_machines(12, 0.25, 1, "sync") == 6
    assert max_machines(10, 0, 1, "sync") == 10  # fault-free: K = N


def test_max_machines_respects_decoding_bound():
    for n in range(2, 25):
        for d in (1, 2, 3):
            for num in range(0, n):
                for setting, cap in (("sync", 2), ("psync", 3)):
                    frac = num  # b = num faults exactly
                    from fractions import Fraction
                    mu = Fraction(num, n)
                    if (setting == "sync" and mu >= Fraction(1, 2)) or \
                       (setting == "psync" and mu >= Fraction(1, 3)):
                        continue
                    k = max_machines(n, mu, d, setting)
                    if k < 1:
                        continue
                    check_budget(n, k, d, num, setting)
                    if k + 1 >= 1:
                        with pytest.raises(ConfigurationError):
                            check_budget(n, k + 1, d, num, setting)


@pytest.mark.parametrize("setting", ["sync", "psync"])
def test_max_budget_is_the_largest_budget_check_budget_accepts(setting):
    for n in range(4, 16):
        for k in (1, 2, 3):
            for d in (1, 2):
                b = max_budget(n, k, d, setting)
                if b < 0:
                    continue
                check_budget(n, k, d, b, setting)
                with pytest.raises(ConfigurationError,
                                   match="decoding bound"):
                    check_budget(n, k, d, b + 1, setting)


def test_max_machines_rejects_bad_fractions():
    with pytest.raises(ConfigurationError):
        max_machines(10, 0.5, 1, "sync")
    with pytest.raises(ConfigurationError):
        max_machines(10, 1 / 3, 1, "psync")
    with pytest.raises(ConfigurationError):
        max_machines(10, -0.1, 1, "sync")
    with pytest.raises(ConfigurationError):
        max_machines(10, 0.1, 1, "async")


def test_config_validation():
    with pytest.raises(ConfigurationError):
        CodingConfig.make(product_machine(F11), 2, 5, "sync", b=2)
    with pytest.raises(ConfigurationError):
        CodingConfig.make(bank_machine(F11), 2, 7, "psync", b=2)
    cfg = small_cfg()
    from fractions import Fraction
    assert cfg.degree_bound == 2 and cfg.fault_fraction == Fraction(1, 5)
    m97 = product_machine(F97)
    with pytest.raises(ConfigurationError):
        CodingConfig(F11, m97, cfg.domain, "sync", 1)


# ---------------------------------------------------------------------------
# client decision rule
# ---------------------------------------------------------------------------

def test_client_majority():
    assert client_decide([(8,), (8,), (3,), (8,), (8,)], b=1) == (8,)


def test_client_unanimous():
    assert client_decide([(5,)] * 3, b=1) == (5,)


def test_client_three_way_split_fails():
    with pytest.raises(DeliveryFailure):
        client_decide([(1,), (2,), (3,)], b=1)


def test_client_needs_matching_quorum():
    with pytest.raises(DeliveryFailure):
        client_decide([(1,)], b=1)
    with pytest.raises(DeliveryFailure):
        client_decide([(1,), (2,), None, None], b=1)
    with pytest.raises(DeliveryFailure):
        client_decide([], b=0)
    # two matching reports suffice at b=1 even if only two arrived
    assert client_decide([(1,), (1,)], b=1) == (1,)
