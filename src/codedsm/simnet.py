"""Deterministic simulation of coded and replicated state machines under
Byzantine faults.

One process plays N nodes, a handful of clients, and the network. All
randomness flows from the experiment seed through named streams, so a
config and seed pin the entire event log byte for byte. Messages carry
unforgeable sender tags (the simulator simply never lets one node write
another's slot), and the channel runs in broadcast mode (everyone sees the
same value of every message) or point-to-point mode (a Byzantine sender
may equivocate).
"""

from __future__ import annotations

import hashlib
import json
import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .baseline import ReplicationConfig, run_replicated_round
from .csm import (
    SETTINGS,
    CodingConfig,
    NO_QUORUM,
    _as_fraction,
    client_outputs,
    decode_round,
    encode_commands,
    encode_states,
    execute_local,
    max_machines,
    update_coded_states,
)
from .field import (
    ConfigurationError,
    CounterBoard,
    Field,
    Memo,
    parse_field,
    uncounted,
)
from .intermix import (
    REPLY_POLICIES,
    Delegation,
    WorkerStrategy,
    delegated_decode,
    delegated_encode,
    delegated_update,
)
from .machine import MACHINES, make_machine
from .poly import MODES as POLY_MODES

PROTOCOLS = ("csm", "full", "partial")
CHANNELS = ("broadcast", "p2p")
ADVERSARIES = ("none", "corrupt", "collude", "corrupt_random", "withhold",
               "delay", "equivocate", "false_audit", "dishonest_worker")


# ---------------------------------------------------------------------------
# the network model
# ---------------------------------------------------------------------------

def tamper(strategy: str, vectors, fld, rng: random.Random, stabilized: bool):
    """What one Byzantine node sends in place of its honest ``vectors``:
    the same list, a corrupted list, or None for silence. ``corrupt``
    and ``collude`` shift every coordinate by a nonzero draw;
    ``corrupt_random`` and ``equivocate`` (which a broadcast channel
    collapses to one value) replace every coordinate by a fresh draw;
    ``delay`` is silent until the network has ``stabilized``."""
    if strategy in ("none", "false_audit", "dishonest_worker"):
        return vectors
    if strategy == "withhold":
        return None
    if strategy == "delay":
        return vectors if stabilized else None
    if strategy in ("corrupt", "collude"):
        return [tuple(fld.add(v, rng.randrange(1, fld.order)) for v in vec)
                for vec in vectors]
    if strategy in ("corrupt_random", "equivocate"):
        return [tuple(rng.randrange(fld.order) for _ in vec)
                for vec in vectors]
    raise ConfigurationError(f"unhandled strategy {strategy}")


@dataclass(frozen=True)
class AdversaryModel:
    """The network: which nodes are Byzantine, what they do with that
    freedom, and when messages arrive.

    Every deviation of a faulty node comes from here, and every message
    draws from its own stream, so one message's draws never shift
    another's. Colluders share one stream per message, so they all add
    the same shifts. Under ``psync`` messages may be delayed arbitrarily
    before the stabilization round ``gst`` and are delivered within one
    round afterwards; node logic never reads ``gst``, only the scheduler
    does."""

    faulty: frozenset[int]
    field: Field
    strategy: str = "none"
    seed: int = 0
    setting: str = "sync"
    gst: int = 0

    def __post_init__(self):
        if self.strategy not in ADVERSARIES:
            raise ConfigurationError(
                f"adversary must be one of {ADVERSARIES}")
        if self.setting not in SETTINGS:
            raise ConfigurationError(f"setting must be one of {SETTINGS}")
        if self.gst < 0:
            raise ConfigurationError("bad timing parameters")

    def stream(self, *salt) -> random.Random:
        # string hashing is randomized per process, so derive the child
        # seed from a stable digest instead of hash()
        tag = ":".join(str(s) for s in (self.seed,) + salt)
        digest = hashlib.sha256(tag.encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def pre_stabilization(self, rnd: int) -> bool:
        """Whether round ``rnd`` runs before psync's stabilization, when
        a missing output breaks no guarantee."""
        return self.setting == "psync" and rnd < self.gst

    def send(self, label: str, rnd: int, node: int, vectors, *salt):
        """What ``node`` sends as the message ``label`` of round ``rnd``
        (its round result, its decoded outputs, its baseline report, or
        one receiver's view, named by ``salt``) in place of its honest
        ``vectors``; None is silence."""
        if node not in self.faulty:
            return vectors
        sender = () if self.strategy == "collude" else (node,)
        # under sync a delayed message misses every round's bound
        stabilized = self.setting == "psync" and rnd >= self.gst
        # a faulty node is charged what an honest one runs (`Memo`), so
        # its lie itself is never counted
        with uncounted():
            return tamper(self.strategy, vectors, self.field,
                          self.stream(label, rnd, *sender, *salt),
                          stabilized)

    def arrivals(self, values, b: int, rnd: int, *salt) -> list:
        """The results a node acts on: all of ``values`` under sync, the
        first N-b under psync's timeout rule.

        Byzantine senders rush their messages; the scheduler (adversary
        before stabilization, arbitrary-but-fair after) picks which honest
        results fill the remaining slots. Honest results do all arrive, the
        node just stops waiting at N - b."""
        if self.setting == "sync":
            return values
        n = len(values)
        keep = n - b
        rushed = [i for i in range(n)
                  if i in self.faulty and values[i] is not None]
        honest = [i for i in range(n)
                  if i not in self.faulty and values[i] is not None]
        chosen = set(rushed[:keep])
        chosen.update(self.stream("sched", rnd, *salt).sample(
            honest, min(len(honest), keep - len(chosen))))
        return [values[i] if i in chosen else None for i in range(n)]

    def worker_strategy(self, node: int) -> WorkerStrategy | None:
        """How ``node`` lies when elected delegated-coding worker; None
        means honestly."""
        if self.strategy != "dishonest_worker" or node not in self.faulty:
            return None
        rng = self.stream("worker", node)
        reply = rng.choice(REPLY_POLICIES)
        delta = rng.randrange(1, self.field.order)
        return WorkerStrategy(deltas={0: (delta, rng.randrange(64))},
                              reply=reply, seed=rng.randrange(2 ** 31))

    def auditor_policy(self, node: int) -> str:
        """How ``node`` audits a delegated-coding worker."""
        if self.strategy == "false_audit" and node in self.faulty:
            return "false-alert"
        return "honest"


# ---------------------------------------------------------------------------
# consensus
# ---------------------------------------------------------------------------

def consensus_oracle(submitted):
    """Agree on the round's commands: the ``(client, command)`` that was
    submitted for each machine, as ``(commands, clients)``.

    Acts as an ideal functionality: every agreed command is one a client
    submitted, and every honest node observes the same choice. Each
    round submits one command per machine, so there is nothing to order
    and no no-op to pick.
    """
    clients, commands = zip(*submitted)
    return commands, clients


# ---------------------------------------------------------------------------
# event log
# ---------------------------------------------------------------------------

class EventLog:
    """Append-only list of JSON-serializable events."""

    def __init__(self):
        self.events: list[dict] = []

    def append(self, type_: str, **fields) -> dict:
        ev = {"type": type_, **fields}
        self.events.append(ev)
        return ev

    def of(self, type_: str) -> list[dict]:
        return [e for e in self.events if e["type"] == type_]

    def to_jsonl(self) -> str:
        return "".join(json.dumps(e, sort_keys=True) + "\n"
                       for e in self.events)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())

    @staticmethod
    def from_jsonl(text: str) -> "EventLog":
        log = EventLog()
        for line in text.splitlines():
            line = line.strip()
            if line:
                log.events.append(json.loads(line))
        return log


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------

def read_bool(text: str) -> bool:
    word = text.lower()
    if word in ("true", "1", "yes"):
        return True
    if word in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass(frozen=True)
class ConfigKey:
    """One experiment setting: its key in config files, the
    ExperimentConfig field it sets, and how its value reads from and
    writes to text. The key, with ``_`` as ``-``, is also its
    ``codedsm run`` flag."""

    key: str
    field: str
    read: Callable[[str], object] = str
    write: Callable[[object], str] = str
    help: str | None = None

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")

    def value(self, text: str, where: str):
        """The field value ``text`` spells; ``where`` names its source."""
        try:
            return self.read(text)
        except (ValueError, ArithmeticError):
            raise ConfigurationError(
                f"{where}: bad value {text!r} for {self.key}") from None


# One row per ExperimentConfig field: the config file format, the CLI
# flags and their merge are all derived from this table.
CONFIG_KEYS = (
    ConfigKey("protocol", "protocol", help="csm, full or partial"),
    ConfigKey("n", "n_nodes", int, help="number of nodes"),
    ConfigKey("k", "k_machines", int, help="number of machines"),
    ConfigKey("d", "degree", int, help="transition degree"),
    ConfigKey("machine", "machine", help="bundled machine name"),
    ConfigKey("field", "field_spec", help="prime:P or binary:m"),
    ConfigKey("mu", "fault_fraction", Fraction,
              help="fault fraction, e.g. 0.1 or 1/4"),
    ConfigKey("b", "b", int, help="explicit fault budget"),
    ConfigKey("setting", "setting", help="sync or psync"),
    ConfigKey("channel", "channel", help="broadcast or p2p"),
    ConfigKey("adversary", "adversary", help="Byzantine strategy"),
    ConfigKey("rounds", "rounds", int, help="rounds to run"),
    ConfigKey("seed", "seed", int, help="experiment seed"),
    ConfigKey("delegate", "delegate", read_bool, lambda v: str(v).lower(),
              help="verified worker coding instead of local coding"),
    ConfigKey("eps", "eps", float, repr,
              help="chance that a whole audit committee is Byzantine"),
    ConfigKey("poly_mode", "poly_mode",
              help="polynomial arithmetic: auto, naive or fast"),
)


@dataclass(frozen=True)
class ExperimentConfig:
    protocol: str
    n_nodes: int
    k_machines: int | None = None
    degree: int | None = None
    machine: str | None = None
    field_spec: str = "prime:2147483647"
    fault_fraction: object = 0
    b: int | None = None
    setting: str = "sync"
    channel: str = "broadcast"
    adversary: str = "none"
    rounds: int = 10
    seed: int = 0
    delegate: bool = False
    eps: float = 1e-3
    poly_mode: str = "auto"

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ConfigurationError(f"protocol must be one of {PROTOCOLS}")
        if self.channel not in CHANNELS:
            raise ConfigurationError(f"channel must be one of {CHANNELS}")
        if self.setting not in SETTINGS:
            raise ConfigurationError(f"setting must be one of {SETTINGS}")
        if self.adversary not in ADVERSARIES:
            raise ConfigurationError(
                f"adversary must be one of {ADVERSARIES}")
        if self.poly_mode not in POLY_MODES:
            raise ConfigurationError(
                f"poly_mode must be one of {POLY_MODES}")
        if self.rounds < 1 or self.n_nodes < 1:
            raise ConfigurationError("need at least one round and one node")
        if not 0 < self.eps < 1:
            raise ConfigurationError(f"eps must be in (0,1), got {self.eps}")
        if self.delegate and self.channel != "broadcast":
            raise ConfigurationError(
                "delegated verification requires the broadcast channel")
        if self.machine is not None and self.machine not in MACHINES:
            raise ConfigurationError(f"unknown machine {self.machine!r}")
        object.__setattr__(self, "fault_fraction",
                           _as_fraction(self.fault_fraction))

    @property
    def fault_share(self) -> Fraction:
        """The fault fraction a run reports: b/N where ``b`` sets the
        budget, else ``mu``."""
        if self.b is None:
            return self.fault_fraction
        return Fraction(self.b, self.n_nodes)

    def machine_name(self) -> str:
        if self.machine is not None:
            return self.machine
        if self.degree is not None and self.degree >= 2:
            return "product"
        return "bank"

    # -- plain-text key=value form -------------------------------------

    def to_text(self) -> str:
        lines = [f"{c.key} = {c.write(v)}" for c in CONFIG_KEYS
                 if (v := getattr(self, c.field)) is not None]
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse(text: str, **fields) -> "ExperimentConfig":
        """The config that ``text`` describes, with ``fields`` over it."""
        kv = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(
                    f"line {lineno}: expected key = value, got {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key in kv:
                raise ConfigurationError(
                    f"line {lineno}: key {key!r} repeats line {kv[key][0]}")
            kv[key] = (lineno, val)
        by_key = {c.key: c for c in CONFIG_KEYS}
        unknown = set(kv) - set(by_key)
        if unknown:
            raise ConfigurationError(
                f"unknown config keys: {sorted(unknown)}")
        merged = {by_key[key].field: by_key[key].value(val, f"line {lineno}")
                  for key, (lineno, val) in kv.items()}
        merged.update(fields)
        if not {"protocol", "n_nodes"} <= merged.keys():
            raise ConfigurationError("config needs protocol and n")
        return ExperimentConfig(**merged)

    @staticmethod
    def from_file(path, **fields) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                text = fh.read()
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"cannot read {path}: {exc}") from None
        return ExperimentConfig.parse(text, **fields)


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------

@dataclass
class ExperimentResult:
    config: ExperimentConfig
    log: EventLog
    violations: list[dict]
    board: CounterBoard
    rounds_run: int
    oracle_states: tuple
    layout: CodingConfig | ReplicationConfig   # the run's `deployment`

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def k_machines(self) -> int:
        return self.layout.k_machines


def seed_streams(seed: int):
    """A run's four streams: initial states, commands, the adversary's
    seed and the public beacon."""
    base = random.Random(seed)
    return [random.Random(base.randrange(2 ** 63)) for _ in range(4)]


def derive_sizes(config: ExperimentConfig):
    """The machine ``config`` runs, its machine count K, its fault budget
    b and the machine's degree d."""
    machine = make_machine(config.machine_name(),
                           parse_field(config.field_spec))
    n = config.n_nodes
    frac = config.fault_fraction
    d = machine.total_degree()
    if config.degree is not None and config.degree != d:
        raise ConfigurationError(
            f"machine {machine!r} has degree {d}, config says "
            f"{config.degree}")
    b = config.b if config.b is not None else int(frac * n)
    if not 0 <= b <= n:
        raise ConfigurationError(f"fault budget {b} outside 0..{n}")
    if config.k_machines is not None:
        k = config.k_machines
    elif config.protocol == "csm":
        k = max_machines(n, Fraction(b, n), d, config.setting)
    else:
        k = 1
    return machine, k, b, d


def _pick_faulty(n: int, b: int, rng: random.Random) -> frozenset[int]:
    if b == 0:
        return frozenset()
    return frozenset(rng.sample(range(n), b))


def ground_truth(machine, states, commands):
    """A round's fault-free next states and outputs. It is the
    experimenter's reference, not protocol work, so it is never counted."""
    with uncounted():
        flat = [machine.eval_all(s, x) for s, x in zip(states, commands)]
    sd = machine.state_dim
    return tuple(t[:sd] for t in flat), tuple(t[sd:] for t in flat)


def judge_reconstruction(result, truth, rnd: int,
                         pre_stabilization: bool) -> list[dict]:
    """Violations of one round's coded reconstruction: liveness, with the
    decoder's reason, when it failed, unless before stabilization; and
    correctness when it differs from the ground ``truth``."""
    if not result.success:
        if pre_stabilization:
            return []
        return [{"round": rnd, "clause": "liveness",
                 "detail": result.violation or "round not decodable"}]
    if (result.next_states, result.outputs) != truth:
        return [{"round": rnd, "clause": "correctness",
                 "detail": "reconstruction differs from fault-free "
                           "trajectory"}]
    return []


def judge_delivery(outputs, truth_out, rnd: int, pre_stabilization: bool,
                   why_missing: str) -> list[dict]:
    """Violations of per-machine delivered ``outputs``: a missing one
    (None) breaks liveness, for the reason ``why_missing``, unless before
    stabilization; a wrong one breaks correctness."""
    violations = []
    for mk, out in enumerate(outputs):
        if out is None:
            if not pre_stabilization:
                violations.append({"round": rnd, "clause": "liveness",
                                   "detail": f"machine {mk}: {why_missing}"})
        elif tuple(out) != tuple(truth_out[mk]):
            violations.append({"round": rnd, "clause": "correctness",
                               "detail": f"machine {mk}: delivered output "
                                         "differs from fault-free run"})
    return violations


def judge_consistency(outcomes, faulty, rnd: int) -> list[dict]:
    """A consistency violation when the decode ``outcomes`` (one per node)
    of honest nodes differ; faulty nodes' outcomes are ignored."""
    honest = {id(o): o for i, o in enumerate(outcomes) if i not in faulty}
    if len({(o.success, o.next_states, o.outputs)
            for o in honest.values()}) > 1:
        return [{"round": rnd, "clause": "consistency",
                 "detail": "honest receivers reconstructed different "
                           "values"}]
    return []


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one seeded experiment and return its log and violation list.

    Three judges check three guarantees: honest nodes reconstruct
    identical values (consistency, `judge_consistency`), reconstructed and
    delivered values match the fault-free trajectory (correctness), and
    every round delivers an output for every machine, after stabilization
    in the partially synchronous case (liveness; `judge_reconstruction`
    and `judge_delivery` judge both). Validity, that every executed
    command was submitted, is not judged: it holds by construction,
    because `consensus_oracle` is an ideal functionality that agrees on
    the submitted commands.
    """
    machine, k, b, d = derive_sizes(config)
    init_rng, cmd_rng, adv_seed_rng, beacon = seed_streams(config.seed)
    gst = 0
    if config.setting == "psync":
        gst = init_rng.randrange(0, max(1, config.rounds // 2) + 1)
    adversary = AdversaryModel(
        _pick_faulty(config.n_nodes, b, init_rng), machine.field,
        config.adversary, adv_seed_rng.randrange(2 ** 63), config.setting,
        gst)
    log = EventLog()
    board = CounterBoard()
    log.append("header", protocol=config.protocol, n=config.n_nodes, k=k,
               d=d, field=config.field_spec, setting=config.setting,
               channel=config.channel, adversary=config.adversary,
               delegate=config.delegate, rounds=config.rounds,
               seed=config.seed, b=b,
               mu=str(config.fault_share),
               machine=config.machine_name(),
               timing={"mode": config.setting, "delta": 1, "gst": gst},
               faulty=sorted(adversary.faulty))
    states = tuple(machine.random_state(init_rng) for _ in range(k))
    log.append("init", states=[list(s) for s in states])
    layout = deployment(config, machine, k, b)
    play = protocol_round(config, layout, adversary, log, board, beacon,
                          states)
    violations: list[dict] = []
    rounds_run = 0
    for rnd in range(config.rounds):
        submitted = _submit_round_commands(machine, k, cmd_rng, rnd, log)
        commands, clients = consensus_oracle(submitted)
        log.append("consensus", round=rnd,
                   commands=[list(c) for c in commands],
                   clients=list(clients))
        truth = ground_truth(machine, states, commands)
        found, goes_on = play(rnd, states, commands, truth)
        violations.extend(found)
        # A run stops at a liveness or correctness violation. A coded run
        # also stops at a round it cannot decode, even before
        # stabilization where that is no violation: no coded state can be
        # updated without a decode.
        if not goes_on:
            break
        states = truth[0]
        rounds_run += 1
    log.append("summary", rounds_run=rounds_run,
               violations=len(violations), ok=not violations)
    return ExperimentResult(config, log, violations, board, rounds_run,
                            states, layout)


def _submit_round_commands(machine, k: int, cmd_rng, rnd: int, log):
    """Each machine's ``(client, command)`` submitted in round ``rnd``."""
    submitted = []
    for mk in range(k):
        client = (rnd + mk) % k
        cmd = machine.random_command(cmd_rng)
        submitted.append((client, cmd))
        log.append("submit", round=rnd, machine=mk, client=client,
                   command=list(cmd))
    return submitted


def deployment(config: ExperimentConfig, machine, k: int, b: int):
    """The coding of ``k`` machines for ``b`` faults, or their replica
    placement, that ``config`` runs."""
    if config.protocol == "csm":
        return CodingConfig(machine, k, config.n_nodes, config.setting, b,
                            config.poly_mode)
    return ReplicationConfig(machine, config.protocol, config.n_nodes, k,
                             config.setting)


def protocol_round(config: ExperimentConfig, layout,
                   adversary: AdversaryModel, log: EventLog,
                   board: CounterBoard, beacon, states):
    """The round of ``config``'s protocol on ``layout`` (its
    `deployment`), starting from ``states``. Called as ``play(rnd,
    states, commands, truth)``, it plays round ``rnd`` against the
    network ``adversary``, logs it to ``log``, charges it to ``board``
    and returns its violations and whether the run goes on."""
    if config.protocol == "csm":
        return _coded_rounds(config, layout, adversary, log, board, beacon,
                             states)
    return _replicated_rounds(layout, adversary, log, board)


def _coded_rounds(config, coding, adversary, log, board, beacon, states):
    """Encode the initial ``states`` and return the coded round."""
    n, k, b = coding.n_nodes, coding.k_machines, coding.b
    with board.scope("net", "setup"):
        coded_states = encode_states(states, coding)
    dele = None
    if config.delegate:
        dele = Delegation(
            coding, eps=config.eps, beacon=beacon, board=board,
            worker_strategy_for=adversary.worker_strategy,
            auditor_strategy_for=adversary.auditor_policy)
    equivocating = (adversary.strategy == "equivocate"
                    and config.channel == "p2p")

    def play(rnd, states, commands, truth):
        nonlocal coded_states
        pre_stabilization = adversary.pre_stabilization(rnd)

        def deliver(g):
            # one view per node: all N share one on a broadcast channel
            log.append("execute", round=rnd, g=[list(v) for v in g])
            view = list(g)
            for i in () if equivocating else adversary.faulty:
                sent = adversary.send("result", rnd, i, [g[i]])
                view[i] = None if sent is None else sent[0]
            view = adversary.arrivals(view, b, rnd)
            log.append("delivered", round=rnd,
                       g=[None if v is None else list(v) for v in view])
            if not equivocating:
                return [view] * n
            # faulty receivers too; equivocation never withholds
            return [adversary.arrivals(
                        [adversary.send("equiv", rnd, i, [v], r)[0]
                         for i, v in enumerate(g)], b, rnd, r)
                    for r in range(n)]

        def decode(views):
            # each node's outcome: the audited worker's, or its own decode;
            # a view object that many nodes hold is decoded once and
            # charged to each of them (`Memo`)
            if dele is not None:
                return [delegated_decode(views[0], dele).value] * n
            decoded = Memo()
            with board.scope("net", "psi"):
                return [decoded.get(id(v), lambda v=v: decode_round(v, coding))
                        for v in views]

        if dele is not None:
            enc = delegated_encode(commands, dele, phase="rho")
            if not enc.accepted:
                return [{"round": rnd, "clause": "liveness",
                         "detail": f"command encoding unverifiable: "
                                   f"{enc.reason}"}], False
            coded_cmds = enc.value
        else:
            with board.scope("net", "rho"):
                coded_cmds = encode_commands(commands, coding)
        with board.scope("net", "rho"):
            g = [execute_local(s, x, coding)
                 for s, x in zip(coded_states, coded_cmds)]
        outcomes = decode(deliver(g))
        violations = judge_consistency(outcomes, adversary.faulty, rnd)
        result = next(o for i, o in enumerate(outcomes)
                      if i not in adversary.faulty)
        log.append("decode", **result.record(rnd, commands))
        failed = judge_reconstruction(result, truth, rnd, pre_stabilization)
        violations += failed
        if failed or not result.success:
            return violations, False

        sent = [adversary.send("deliver", rnd, i, result.outputs)
                for i in range(n)]
        delivered, _ = client_outputs(
            [[None if s is None else s[mk] for s in sent] for mk in range(k)],
            b)
        found = judge_delivery(delivered, truth[1], rnd, pre_stabilization,
                               NO_QUORUM)
        log.append("deliver", round=rnd, ok=not found,
                   delivered=[None if y is None else list(y)
                              for y in delivered])
        violations += found
        if found:
            return violations, False

        if dele is not None:
            upd = delegated_update(result.next_states, dele)
            if not upd.accepted:
                violations.append({"round": rnd, "clause": "liveness",
                                   "detail": f"state update unverifiable: "
                                             f"{upd.reason}"})
                return violations, False
            coded_states = upd.value
        else:
            with board.scope("net", "chi"):
                coded_states = update_coded_states(result.next_states,
                                                   coding)
        return violations, True

    return play


def _replicated_rounds(cfg, adversary, log, board):
    """The replicated round."""

    def play(rnd, states, commands, truth):
        def report(i, mine):
            # the whole report is one message: silence drops all of it
            sent = adversary.send("report", rnd, i, list(mine.values()))
            return None if sent is None else dict(zip(mine, sent))

        with board.scope("net", "rho"):
            round_res = run_replicated_round(states, commands, cfg, report)
        log.append("round", **round_res.record(rnd, commands))
        found = judge_delivery(round_res.outputs, truth[1], rnd,
                               adversary.pre_stabilization(rnd),
                               "no output delivered")
        return found, not found

    return play
