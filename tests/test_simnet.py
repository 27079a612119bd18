"""Simulator tests: determinism, the adversary catalog, timing modes,
config files, and violation flagging."""

import dataclasses
import random
from fractions import Fraction

import pytest

from codedsm import harness, simnet
from codedsm.csm import RoundResult
from codedsm.field import (
    ConfigurationError,
    OpCounter,
    charge,
    counting,
    parse_field,
)
from codedsm.machine import TransitionFunction, make_machine
from codedsm.simnet import (
    ADVERSARIES,
    CONFIG_KEYS,
    AdversaryModel,
    EventLog,
    ExperimentConfig,
    ground_truth,
    judge_consistency,
    judge_delivery,
    judge_reconstruction,
    run_experiment,
)

F = parse_field("prime:2147483647")


def _cfg(**kw):
    base = dict(protocol="csm", n_nodes=10, degree=2,
                fault_fraction=Fraction(1, 5), rounds=5, seed=11)
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# determinism and the event log
# ---------------------------------------------------------------------------

def test_same_seed_same_log_bytes():
    cfg = _cfg(adversary="corrupt")
    a = run_experiment(cfg).log.to_jsonl()
    b = run_experiment(cfg).log.to_jsonl()
    assert a == b
    assert a.encode() == b.encode()


def test_different_seeds_diverge():
    a = run_experiment(_cfg(seed=1)).log.to_jsonl()
    b = run_experiment(_cfg(seed=2)).log.to_jsonl()
    assert a != b


def test_log_file_round_trip(tmp_path):
    res = run_experiment(_cfg())
    path = tmp_path / "run.jsonl"
    res.log.write(path)
    back = EventLog.from_jsonl(path.read_text())
    assert back.events == res.log.events
    assert back.to_jsonl() == res.log.to_jsonl()


def test_log_filter_and_header_fields():
    res = run_experiment(_cfg(setting="psync", adversary="delay"))
    (header,) = res.log.of("header")
    assert header["protocol"] == "csm"
    assert header["channel"] == "broadcast"
    assert header["timing"]["mode"] == "psync"
    assert header["timing"]["gst"] >= 0
    assert sorted(header["faulty"]) == header["faulty"]
    assert len(res.log.of("consensus")) == res.rounds_run


def test_log_records_initial_states_for_replay():
    res = run_experiment(_cfg(adversary="none", rounds=4))
    (init,) = res.log.of("init")
    machine = make_machine("product", F)
    states = [tuple(s) for s in init["states"]]
    sd = machine.state_dim
    decode_events = res.log.of("decode")
    for ev_cons, ev_dec in zip(res.log.of("consensus"), decode_events):
        truth = [machine.eval_all(s, tuple(x))
                 for s, x in zip(states, ev_cons["commands"])]
        assert ev_dec["outputs"] == [list(t[sd:]) for t in truth]
        states = [tuple(t[:sd]) for t in truth]
    assert tuple(states) == res.oracle_states


# ---------------------------------------------------------------------------
# consensus oracle
# ---------------------------------------------------------------------------

def test_every_agreed_command_was_submitted():
    res = run_experiment(_cfg(adversary="corrupt", rounds=6))
    submitted = {(ev["machine"], tuple(ev["command"]))
                 for ev in res.log.of("submit")}
    for ev in res.log.of("consensus"):
        for mk, (cmd, client) in enumerate(zip(ev["commands"],
                                               ev["clients"])):
            if client >= 0:
                assert (mk, tuple(cmd)) in submitted


# ---------------------------------------------------------------------------
# adversary catalog
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("strategy", ["none", "corrupt", "corrupt_random",
                                      "withhold", "delay"])
def test_csm_masks_catalog_at_capacity(strategy):
    res = run_experiment(_cfg(adversary=strategy, rounds=5))
    assert res.ok, res.violations
    assert res.rounds_run == 5


@pytest.mark.parametrize("spec", ["prime:2305843009213693951",
                                  "prime:4294967311"])
def test_csm_over_primes_beyond_int64_products(spec):
    res = run_experiment(ExperimentConfig(
        protocol="csm", n_nodes=30, degree=2, field_spec=spec,
        fault_fraction=Fraction(1, 10), adversary="corrupt", rounds=2,
        seed=7))
    assert res.ok, res.violations
    assert res.rounds_run == 2


def test_delegated_csm_over_a_61_bit_prime():
    res = run_experiment(ExperimentConfig(
        protocol="csm", n_nodes=16, degree=1, machine="bank",
        field_spec="prime:2305843009213693951",
        fault_fraction=Fraction(1, 4), delegate=True,
        adversary="dishonest_worker", rounds=2, seed=3))
    assert res.ok, res.violations
    assert res.rounds_run == 2


def test_corrupt_changes_faulty_broadcasts_only():
    res = run_experiment(_cfg(adversary="corrupt", rounds=3))
    faulty = set(res.log.of("header")[0]["faulty"])
    assert faulty
    for exe, dlv in zip(res.log.of("execute"), res.log.of("delivered")):
        for i, (honest, seen) in enumerate(zip(exe["g"], dlv["g"])):
            if i in faulty:
                assert seen != honest
            else:
                assert seen == honest


def test_withhold_shows_up_as_silence():
    res = run_experiment(_cfg(adversary="withhold", rounds=3))
    faulty = set(res.log.of("header")[0]["faulty"])
    for dlv in res.log.of("delivered"):
        for i in faulty:
            assert dlv["g"][i] is None
    for ev in res.log.of("decode"):
        assert ev["success"]
        assert set(ev["tau"]).isdisjoint(faulty)


def test_audit_strategies_act_honest_without_delegation():
    base = run_experiment(_cfg(adversary="none")).log
    for strategy in ("false_audit", "dishonest_worker"):
        res = run_experiment(_cfg(adversary=strategy))
        assert res.ok
        assert [e["g"] for e in res.log.of("delivered")] == \
               [e["g"] for e in base.of("delivered")]


def test_baselines_mask_catalog_at_their_capacity():
    for proto, n, k in [("full", 5, 3), ("partial", 9, 3)]:
        for strategy in ("corrupt", "corrupt_random", "withhold"):
            res = run_experiment(ExperimentConfig(
                protocol=proto, n_nodes=n, k_machines=k, machine="bank",
                fault_fraction=Fraction(1, n), adversary=strategy,
                rounds=4, seed=5))
            assert res.ok, (proto, strategy, res.violations)


def test_overwhelmed_replication_is_flagged_not_hidden():
    res = run_experiment(ExperimentConfig(
        protocol="full", n_nodes=5, k_machines=2, machine="bank", b=3,
        adversary="corrupt", rounds=4, seed=1))
    assert not res.ok
    clauses = {v["clause"] for v in res.violations}
    assert clauses <= {"liveness", "correctness"}
    (summary,) = res.log.of("summary")
    assert summary["ok"] is False
    assert summary["violations"] == len(res.violations)


def test_csm_beyond_decoding_bound_is_rejected_up_front():
    with pytest.raises(ConfigurationError, match="decoding bound"):
        run_experiment(ExperimentConfig(protocol="csm", n_nodes=10,
                                        k_machines=3, degree=2, b=3,
                                        rounds=2, seed=0))


# ---------------------------------------------------------------------------
# channels and equivocation
# ---------------------------------------------------------------------------

def test_equivocation_tolerated_on_p2p_at_capacity():
    res = run_experiment(_cfg(adversary="equivocate", channel="p2p",
                              degree=1, rounds=5))
    assert res.ok, res.violations
    assert not any(v["clause"] == "consistency" for v in res.violations)


def test_equivocation_collapses_under_broadcast():
    res = run_experiment(_cfg(adversary="equivocate", rounds=5))
    assert res.ok
    # one shared view: the delivered event is the view every node decodes
    faulty = set(res.log.of("header")[0]["faulty"])
    for exe, dlv in zip(res.log.of("execute"), res.log.of("delivered")):
        for i in faulty:
            assert dlv["g"][i] != exe["g"][i]


def test_delegation_refuses_p2p_channel():
    with pytest.raises(ConfigurationError, match="broadcast"):
        ExperimentConfig(protocol="csm", n_nodes=8, degree=1,
                         fault_fraction=Fraction(1, 8), delegate=True,
                         channel="p2p")
    cfg = _cfg(degree=1)
    assert dataclasses.replace(cfg, channel="p2p").channel == "p2p"
    with pytest.raises(ConfigurationError):
        dataclasses.replace(_cfg(degree=1, delegate=True,
                                 fault_fraction=Fraction(1, 10)),
                            channel="p2p")


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------

def test_timing_validation():
    with pytest.raises(ConfigurationError, match="setting"):
        AdversaryModel(frozenset(), F, setting="later")
    with pytest.raises(ConfigurationError):
        AdversaryModel(frozenset(), F, gst=-1)
    (header,) = run_experiment(_cfg(setting="sync")).log.of("header")
    assert header["timing"]["gst"] == 0


def test_psync_gst_is_seeded_and_logged():
    gsts = set()
    for seed in range(8):
        res = run_experiment(_cfg(setting="psync", seed=seed, rounds=8))
        gsts.add(res.log.of("header")[0]["timing"]["gst"])
        assert res.ok
    assert len(gsts) > 1


@pytest.mark.parametrize("strategy", ["withhold", "delay", "corrupt"])
def test_psync_rounds_complete_on_first_arrivals(strategy):
    res = run_experiment(ExperimentConfig(
        protocol="csm", n_nodes=12, degree=1, b=2, setting="psync",
        adversary=strategy, rounds=8, seed=3))
    assert res.ok, res.violations
    n, b = 12, 2
    for dlv in res.log.of("delivered"):
        present = sum(1 for g in dlv["g"] if g is not None)
        assert present == n - b  # nodes stop waiting at the timeout rule
    if strategy == "delay":
        gst = res.log.of("header")[0]["timing"]["gst"]
        faulty = set(res.log.of("header")[0]["faulty"])
        for rnd, dlv in enumerate(res.log.of("delivered")):
            arrived = {i for i, g in enumerate(dlv["g"]) if g is not None}
            if rnd < gst:
                assert arrived.isdisjoint(faulty)


# ---------------------------------------------------------------------------
# delegated runs inside the simulator
# ---------------------------------------------------------------------------

def _delegated_cfg(**kw):
    base = dict(protocol="csm", n_nodes=8, k_machines=2, degree=2,
                fault_fraction=Fraction(1, 8), delegate=True, rounds=4,
                seed=13)
    base.update(kw)
    return ExperimentConfig(**base)


def test_delegated_run_matches_direct_outputs():
    direct = run_experiment(_delegated_cfg(delegate=False))
    deleg = run_experiment(_delegated_cfg())
    assert deleg.ok
    assert [e["outputs"] for e in deleg.log.of("decode")] == \
           [e["outputs"] for e in direct.log.of("decode")]


@pytest.mark.parametrize("strategy", ["dishonest_worker", "false_audit"])
def test_delegated_run_survives_audit_adversaries(strategy):
    res = run_experiment(_delegated_cfg(adversary=strategy))
    assert res.ok, res.violations
    assert res.rounds_run == 4


def test_delegated_costs_fold_into_protocol_phases():
    res = run_experiment(_delegated_cfg(adversary="dishonest_worker"))
    phases = {ph for (_, ph) in res.board.counters}
    assert phases <= {"setup", "rho", "psi", "chi"}
    for ph in ("rho", "psi", "chi"):
        assert res.board.get(phase=ph).total() > 0


# ---------------------------------------------------------------------------
# operation accounting
# ---------------------------------------------------------------------------

def _spy_costs(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that records each call's count
    and still charges it where the call was made."""
    real = getattr(owner, name)
    costs = []

    def spy(*args):
        cost = OpCounter()
        with counting(cost):
            out = real(*args)
        charge(cost.adds, cost.muls, cost.invs)
        costs.append(cost.total())
        return out

    monkeypatch.setattr(owner, name, spy)
    return costs


def test_decode_cost_charged_for_every_node(monkeypatch):
    # one shared broadcast view: decoded once, charged to all 10 nodes
    decodes = _spy_costs(monkeypatch, simnet, "decode_round")
    for adversary in ("none", "corrupt"):
        decodes.clear()
        res = run_experiment(_cfg(adversary=adversary, rounds=3))
        assert res.rounds_run == 3
        assert len(decodes) == 3
        assert res.board.get(phase="psi").total() == 10 * sum(decodes)


def test_p2p_decodes_every_receivers_view(monkeypatch):
    decodes = _spy_costs(monkeypatch, simnet, "decode_round")
    res = run_experiment(_cfg(channel="p2p", adversary="equivocate",
                              rounds=3))
    assert res.rounds_run == 3
    assert len(res.log.of("header")[0]["faulty"]) == 2
    assert len(decodes) == 3 * 10   # faulty receivers decode too
    assert res.board.get(phase="psi").total() == sum(decodes)


@pytest.mark.parametrize("adversary", ["withhold", "corrupt", "collude"])
@pytest.mark.parametrize("protocol,n,group", [("full", 10, 10),
                                              ("partial", 9, 3)])
def test_replicated_round_evaluates_each_transition_once(
        monkeypatch, protocol, n, group, adversary):
    evals = _spy_costs(monkeypatch, TransitionFunction, "eval_all")
    res = run_experiment(ExperimentConfig(
        protocol=protocol, n_nodes=n, k_machines=3, machine="qmix",
        b=1, adversary=adversary, rounds=3, seed=11))
    assert res.rounds_run == 3
    # K in the round and K in the uncounted ground truth, per round
    assert len(evals) == 3 * (3 + 3)
    # each transition's count, charged once to every host (the faulty one
    # too, and nothing for its lie); evals holds it twice, from the round
    # and the truth
    assert 2 * res.board.get(phase="rho").total() == group * sum(evals)


def test_baseline_boards_have_no_coding_phases():
    res = run_experiment(ExperimentConfig(
        protocol="full", n_nodes=5, k_machines=3, machine="bank",
        fault_fraction=Fraction(1, 5), rounds=4, seed=2))
    assert res.board.get(phase="rho").total() > 0
    assert res.board.get(phase="psi").total() == 0
    assert res.board.get(phase="chi").total() == 0


def test_setup_encoding_kept_out_of_round_phases():
    res = run_experiment(_cfg(rounds=1))
    assert res.board.get("net", "setup").total() > 0


# ---------------------------------------------------------------------------
# the round loop's shared pieces
# ---------------------------------------------------------------------------

def test_ground_truth_is_eval_all_split_and_uncounted():
    machine = make_machine("qmix", F)
    rng = random.Random(5)
    states = [machine.random_state(rng) for _ in range(3)]
    commands = [machine.random_command(rng) for _ in range(3)]
    counter = OpCounter()
    with counting(counter):
        flat = [machine.eval_all(s, x) for s, x in zip(states, commands)]
        assert counter.total() > 0
        counter.reset()
        truth = ground_truth(machine, states, commands)
    assert counter.total() == 0
    assert truth == (tuple(t[:2] for t in flat), tuple(t[2:] for t in flat))


@pytest.mark.parametrize("pre_stabilization", [False, True])
def test_judge_reconstruction_clauses(pre_stabilization):
    truth = (((6,), (10,)), ((6,), (10,)))

    def judge(result):
        return judge_reconstruction(result, truth, 3, pre_stabilization)

    assert judge(RoundResult(True, *truth, (), frozenset())) == []
    liveness = [] if pre_stabilization else [
        {"round": 3, "clause": "liveness",
         "detail": "malformed result vector"}]
    assert judge(RoundResult.failed((), "malformed result vector")) == liveness
    unnamed = RoundResult(False, None, None, (), None)
    assert judge(unnamed) == ([] if pre_stabilization else [
        {"round": 3, "clause": "liveness", "detail": "round not decodable"}])
    # a wrong reconstruction is flagged before stabilization too
    for wrong in ((((6,), (11,)), truth[1]), (truth[0], ((6,), (11,)))):
        assert judge(RoundResult(True, *wrong, (), frozenset())) == [
            {"round": 3, "clause": "correctness",
             "detail": "reconstruction differs from fault-free trajectory"}]


@pytest.mark.parametrize("pre_stabilization", [False, True])
def test_judge_delivery_clauses(pre_stabilization):
    truth_out = ((6,), (10,), (1,))

    def judge(outputs):
        return judge_delivery(outputs, truth_out, 2, pre_stabilization,
                              "nobody spoke")

    assert judge([(6,), [10], (1,)]) == []
    liveness = [] if pre_stabilization else [
        {"round": 2, "clause": "liveness",
         "detail": "machine 0: nobody spoke"}]
    correctness = [{"round": 2, "clause": "correctness",
                    "detail": "machine 2: delivered output differs from "
                              "fault-free run"}]
    assert judge([None, (10,), (2,)]) == liveness + correctness


def test_judge_consistency_compares_honest_outcomes_only():
    good = RoundResult(True, ((6,),), ((1,),), (), frozenset())
    bad = RoundResult(True, ((6,),), ((2,),), (), frozenset())
    assert judge_consistency([good] * 4, frozenset(), 1) == []
    assert judge_consistency([good, bad, good, bad], frozenset({1, 3}),
                             1) == []
    assert judge_consistency([good, good, bad, good], frozenset({1}),
                             1) == [{"round": 1, "clause": "consistency",
                                     "detail": "honest receivers "
                                               "reconstructed different "
                                               "values"}]


def test_sweep_and_experiment_play_the_same_round(monkeypatch):
    assert harness.protocol_round is simnet.protocol_round
    real = simnet.protocol_round
    played = []

    def spy(config, *args):
        play = real(config, *args)

        def counted(*round_args):
            played.append(config.protocol)
            return play(*round_args)

        return counted

    for module in (simnet, harness):
        monkeypatch.setattr(module, "protocol_round", spy)
    assert run_experiment(_cfg(rounds=2)).rounds_run == 2
    assert played == ["csm", "csm"]
    played.clear()
    assert harness.sweep_security(ExperimentConfig("csm", 6, 2)).beta == 2
    assert played and set(played) == {"csm"}
    played.clear()
    assert harness.sweep_security(ExperimentConfig("full", 5, 3)).beta == 2
    assert played and set(played) == {"full"}


def test_psync_sweep_decodes_from_the_first_arrivals(monkeypatch):
    real = simnet.decode_round
    present = []

    def spy(view, *args):
        present.append(sum(v is not None for v in view))
        return real(view, *args)

    monkeypatch.setattr(simnet, "decode_round", spy)
    # N=9, K=2, d=1 under psync: the decoding budget is b = 2
    assert harness.sweep_security(
        ExperimentConfig("csm", 9, 2, setting="psync")).beta == 2
    assert present and max(present) <= 9 - 2


# ---------------------------------------------------------------------------
# configuration files
# ---------------------------------------------------------------------------

def test_config_text_round_trip(tmp_path):
    cfg = _cfg(adversary="equivocate", channel="p2p", setting="psync",
               fault_fraction=Fraction(1, 10), degree=1)
    # every other field off its default (delegation needs broadcast)
    every = ExperimentConfig(
        protocol="partial", n_nodes=12, k_machines=3, degree=2,
        machine="product", field_spec="prime:65537",
        fault_fraction=Fraction(1, 4), b=2, setting="psync",
        adversary="false_audit", rounds=4, seed=9, delegate=True, eps=0.25,
        poly_mode="naive")
    default = ExperimentConfig(protocol="csm", n_nodes=1)
    for f in dataclasses.fields(ExperimentConfig):
        off = cfg if f.name == "channel" else every
        assert getattr(off, f.name) != getattr(default, f.name), f.name
    for c in (cfg, every):
        text = c.to_text()
        assert ExperimentConfig.parse(text) == c
        p = tmp_path / "exp.cfg"
        p.write_text(text)
        assert ExperimentConfig.from_file(p) == c


def test_config_parse_accepts_comments_and_blanks():
    cfg = ExperimentConfig.parse(
        "# coded run\n\nprotocol = csm\nn = 10\nmu = 1/5  # one in five\n"
        "d = 2\nrounds = 3\n")
    assert cfg.fault_fraction == Fraction(1, 5)
    assert cfg.rounds == 3


def test_config_parse_rejects_junk():
    with pytest.raises(ConfigurationError, match="key = value"):
        ExperimentConfig.parse("protocol csm\nn = 4\n")
    with pytest.raises(ConfigurationError, match="unknown config keys"):
        ExperimentConfig.parse("protocol = csm\nn = 4\nflavor = mint\n")
    with pytest.raises(ConfigurationError, match="protocol and n"):
        ExperimentConfig.parse("rounds = 4\n")
    with pytest.raises(ConfigurationError, match="protocol"):
        ExperimentConfig.parse("protocol = raft\nn = 4\n")


def test_every_config_field_has_one_table_row():
    rows = sorted(c.field for c in CONFIG_KEYS)
    assert rows == sorted(f.name for f in dataclasses.fields(
        ExperimentConfig))
    assert len({c.key for c in CONFIG_KEYS}) == len(CONFIG_KEYS)


def test_config_parse_refuses_a_repeated_key():
    with pytest.raises(ConfigurationError,
                       match="line 4: key 'seed' repeats line 3"):
        ExperimentConfig.parse("protocol = csm\nn = 12\nseed = 3\nseed = 9\n")


@pytest.mark.parametrize("eps", [0, 1, 7, -0.5])
def test_config_refuses_eps_outside_the_unit_interval(eps):
    with pytest.raises(ConfigurationError, match="eps"):
        _cfg(eps=eps)


def test_config_parse_refuses_zero_rounds():
    with pytest.raises(ConfigurationError, match="one round"):
        ExperimentConfig.parse("protocol = csm\nn = 4\nrounds = 0\n")


@pytest.mark.parametrize("line", ["n = four", "delegate = maybe", "mu = x",
                                  "eps = e", "mu = 1/0"])
def test_config_parse_refuses_unreadable_values(line):
    with pytest.raises(ConfigurationError, match="line 3"):
        ExperimentConfig.parse("protocol = csm\nn = 4\n" + line + "\n")


def test_poly_mode_is_validated():
    with pytest.raises(ConfigurationError, match="poly_mode"):
        _cfg(poly_mode="bogus")


@pytest.mark.parametrize("kw", [
    dict(n_nodes=30, fault_fraction=Fraction(1, 10), adversary="corrupt"),
    dict(channel="p2p", adversary="equivocate"),
])
def test_poly_mode_applies_to_direct_decoding(kw):
    naive = run_experiment(_cfg(rounds=2, poly_mode="naive", **kw))
    fast = run_experiment(_cfg(rounds=2, poly_mode="fast", **kw))
    assert naive.ok and fast.ok
    assert naive.log.to_jsonl() == fast.log.to_jsonl()
    psi = [r.board.get(phase="psi").total() for r in (naive, fast)]
    assert psi[0] != psi[1]


def test_adversary_model_validates_strategy():
    with pytest.raises(ConfigurationError):
        AdversaryModel(frozenset(), F, "bribe")
    streams = AdversaryModel(frozenset(), F, "corrupt", 7)
    assert streams.stream("a", 1).random() == streams.stream("a", 1).random()
    assert streams.stream("a", 1).random() != streams.stream("a", 2).random()


HONEST_VECS = [(1, 2, 3), (4, 5, 6)]


def _sent(strategy, rnd=0, setting="sync", gst=0, vectors=HONEST_VECS,
          node=1):
    adv = AdversaryModel(frozenset({1, 2}), F, strategy, 7, setting, gst)
    return adv.send("deliver", rnd, node, vectors)


@pytest.mark.parametrize("strategy", ADVERSARIES)
def test_send_returns_honest_vectors_unchanged(strategy):
    assert _sent(strategy, node=0) is HONEST_VECS


@pytest.mark.parametrize("strategy", ["none", "false_audit",
                                      "dishonest_worker"])
def test_send_passes_message_strategies_through(strategy):
    assert _sent(strategy) is HONEST_VECS


@pytest.mark.parametrize("strategy", ["corrupt", "corrupt_random",
                                      "equivocate"])
def test_send_gives_one_message_per_label_round_and_node(strategy):
    adv = AdversaryModel(frozenset({1, 2}), F, strategy, 7)
    msg = adv.send("result", 3, 1, HONEST_VECS)
    assert msg == adv.send("result", 3, 1, HONEST_VECS)
    others = [adv.send("deliver", 3, 1, HONEST_VECS),
              adv.send("result", 4, 1, HONEST_VECS),
              adv.send("result", 3, 2, HONEST_VECS),
              adv.send("result", 3, 1, HONEST_VECS, 0)]
    assert all(other != msg for other in others)


def test_withhold_sends_nothing():
    assert _sent("withhold") is None
    assert _sent("withhold", rnd=5, setting="psync", gst=2) is None


def test_delay_is_silent_until_stabilization():
    assert _sent("delay", rnd=2, setting="psync", gst=3) is None
    assert _sent("delay", rnd=3, setting="psync", gst=3) == HONEST_VECS
    assert _sent("delay", rnd=9) is None  # sync never stabilizes late


def test_sync_arrivals_are_the_whole_view():
    view = [(0,), (1,), (2,), (3,)]
    sync = AdversaryModel(frozenset({1}), F, "corrupt", 7)
    assert sync.arrivals(view, 1, 0) is view
    psync = dataclasses.replace(sync, setting="psync")
    assert sum(v is not None for v in psync.arrivals(view, 1, 0)) == 3


def test_corrupt_shifts_every_coordinate():
    sent = _sent("corrupt")
    assert len(sent) == len(HONEST_VECS)
    for lie, truth in zip(sent, HONEST_VECS):
        assert len(lie) == len(truth)
        assert all(x != y for x, y in zip(lie, truth))


def test_colluders_add_the_same_shifts():
    honest = {1: [(1, 2, 3)], 2: [(4, 5, 6)]}
    for strategy, shared in (("collude", True), ("corrupt", False)):
        adv = AdversaryModel(frozenset({1, 2}), F, strategy, 7)
        shifts = [tuple(F.sub(lie, truth) for lie, truth in zip(
                      adv.send("result", 3, i, vecs)[0],
                      vecs[0]))
                  for i, vecs in honest.items()]
        assert all(s != 0 for shift in shifts for s in shift)
        assert (shifts[0] == shifts[1]) is shared


@pytest.mark.parametrize("strategy", ["corrupt_random", "equivocate"])
def test_random_strategies_draw_fresh_values(strategy):
    sent = _sent(strategy)
    rng = AdversaryModel(frozenset(), F, strategy, 7).stream("deliver", 0,
                                                             1)
    assert sent == [tuple(rng.randrange(F.order) for _ in v)
                    for v in HONEST_VECS]
    assert sent == _sent(strategy, vectors=[(0, 0, 0), (9, 9, 9)])


def test_delegated_roles_follow_the_strategy():
    liar = AdversaryModel(frozenset({1}), F, "dishonest_worker", 7)
    assert liar.worker_strategy(0) is None
    assert not liar.worker_strategy(1).honest
    assert liar.worker_strategy(1) == liar.worker_strategy(1)
    assert liar.auditor_policy(1) == "honest"
    alarmist = AdversaryModel(frozenset({1}), F, "false_audit", 7)
    assert alarmist.worker_strategy(1) is None
    assert alarmist.auditor_policy(1) == "false-alert"
    assert alarmist.auditor_policy(0) == "honest"
