"""Replication baselines: grouping, tolerance, targeted corruption."""

import random

import pytest

from codedsm.baseline import (
    BaselineRound,
    ReplicationConfig,
    run_replicated_round,
)
from codedsm.field import ConfigurationError, PrimeField
from codedsm.machine import bank_machine, product_machine
from codedsm.simnet import ground_truth

F11 = PrimeField(11)
F97 = PrimeField(97)


def lie(value):
    def tamper(i, report):
        return {k: value for k in report}
    return tamper


def lie_on(nodes, value):
    def tamper(i, report):
        if i in nodes:
            return {k: value for k in report}
        return report
    return tamper


def silence(nodes):
    def tamper(i, report):
        return None if i in nodes else report
    return tamper


def test_full_replication_tolerates_floor_half():
    cfg = ReplicationConfig(bank_machine(F11), "full", 5, 2, "sync")
    assert cfg.beta == 2
    rr = run_replicated_round([(4,), (7,)], [(2,), (3,)], cfg,
                              tamper=lie_on({0, 1}, (9, 9)))
    assert rr.success
    assert rr.outputs == ((6,), (10,))
    assert ground_truth(cfg.machine, [(4,), (7,)], [(2,), (3,)]) == \
        (((6,), (10,)), ((6,), (10,)))


def test_full_replication_beta_values():
    assert ReplicationConfig(bank_machine(F11), "full", 12, 3, "sync").beta == 5
    assert ReplicationConfig(bank_machine(F11), "full", 12, 3, "psync").beta == 3
    assert ReplicationConfig(bank_machine(F11), "full", 5, 2, "psync").beta == 1


def test_full_replication_majority_can_be_overwhelmed():
    cfg = ReplicationConfig(bank_machine(F11), "full", 5, 1, "sync")
    rr = run_replicated_round([(4,)], [(2,)], cfg,
                              tamper=lie_on({0, 1, 2}, (9, 9)))
    # three matching liars beat two honest nodes: the client accepts 9
    assert rr.outputs == ((9,),)
    assert rr.outputs[0] != (6,)


def test_zero_faults_trivially_correct():
    cfg = ReplicationConfig(product_machine(F97), "full", 4, 3, "sync")
    rng = random.Random(1)
    states = [(F97.rand(rng),) for _ in range(3)]
    cmds = [(F97.rand(rng),) for _ in range(3)]
    rr = run_replicated_round(states, cmds, cfg)
    for k in range(3):
        assert rr.outputs[k] == ((states[k][0] * cmds[k][0]) % 97,)


def test_partial_replication_groups_and_tolerance():
    cfg = ReplicationConfig(bank_machine(F11), "partial", 6, 2, "sync")
    assert cfg.group_size == 3 and cfg.beta == 1
    assert list(cfg.group(0)) == [0, 1, 2]
    assert list(cfg.group(1)) == [3, 4, 5]
    assert list(cfg.machines_of(4)) == [1]
    # one liar per group stays under the per-group majority
    rr = run_replicated_round([(4,), (7,)], [(2,), (3,)], cfg,
                              tamper=lie_on({0, 3}, (9, 9)))
    assert rr.success and rr.outputs == ((6,), (10,))


def test_partial_replication_concentrated_attack():
    cfg = ReplicationConfig(bank_machine(F11), "partial", 6, 2, "sync")
    # two liars in group 0 exceed beta=1 there and fake a matching quorum
    rr = run_replicated_round([(4,), (7,)], [(2,), (3,)], cfg,
                              tamper=lie_on({0, 1}, (9, 9)))
    assert rr.outputs[0] == (9,)
    assert rr.outputs[1] == (10,)


def test_partial_requires_divisibility():
    with pytest.raises(ConfigurationError):
        ReplicationConfig(bank_machine(F11), "partial", 7, 2, "sync")


def test_single_machine_partial_equals_full():
    m = bank_machine(F11)
    full = ReplicationConfig(m, "full", 6, 1, "sync")
    part = ReplicationConfig(m, "partial", 6, 1, "sync")
    assert part.group_size == full.group_size == 6
    assert part.beta == full.beta
    rr_f = run_replicated_round([(4,)], [(2,)], full,
                                tamper=lie_on({5}, (0, 0)))
    rr_p = run_replicated_round([(4,)], [(2,)], part,
                                tamper=lie_on({5}, (0, 0)))
    assert rr_f.outputs == rr_p.outputs == ((6,),)


def test_silence_events():
    cfg = ReplicationConfig(bank_machine(F11), "partial", 4, 2, "sync")
    assert cfg.beta == 0
    rr = run_replicated_round([(4,), (7,)], [(2,), (3,)], cfg,
                              tamper=silence({0, 1}))
    assert not rr.success
    assert rr.outputs[0] is None and rr.outputs[1] == (10,)
    assert rr.failures[0][0] == 0


def test_round_record_shape():
    cfg = ReplicationConfig(bank_machine(F11), "full", 3, 1, "sync")
    rr = run_replicated_round([(4,)], [(2,)], cfg)
    rec = rr.record(0, [(2,)])
    assert rec == {"round": 0, "commands": [[2]], "outputs": [[6]],
                   "success": True, "violation": None}


def test_unknown_mode_is_refused():
    with pytest.raises(ConfigurationError):
        ReplicationConfig(bank_machine(F11), "hierarchical", 4, 2, "sync")
