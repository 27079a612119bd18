"""Experiment runner: security, storage, and throughput metrics.

Three numbers summarize a protocol on a given deployment. Security is the
largest Byzantine head count the run tolerates, storage efficiency is how
many machine-states' worth of useful data one node-state's worth of
storage carries, and throughput is machines advanced per field operation
per node. The CLI drives seeded simulations and writes one CSV row per
run; a sweep mode searches for the actual breaking point instead of
quoting the design value.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .baseline import ReplicationConfig, run_replicated_round
from .csm import (
    CodingConfig,
    decode_round,
    encode_commands,
    encode_states,
    max_machines,
    resilience,
)
from .field import ConfigurationError, CounterBoard, parse_field, uncounted
from .machine import make_machine
from .simnet import (
    CONFIG_KEYS,
    PROTOCOLS,
    ExperimentConfig,
    ExperimentResult,
    Timing,
    coded_round,
    ground_truth,
    judge_delivery,
    judge_reconstruction,
    read_bool,
    run_experiment,
    tamper,
)

CSV_SCHEMA = "codedsm.metrics.v1"
CSV_COLUMNS = ("protocol", "N", "K", "d", "fault_fraction", "setting",
               "beta", "gamma", "lambda", "ops_rho", "ops_psi", "ops_chi",
               "seed", "violations")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricsRecord:
    protocol: str
    n_nodes: int
    k_machines: int
    degree: int
    fault_fraction: Fraction
    setting: str
    beta: int
    gamma: Fraction
    lam: float
    ops_rho: int
    ops_psi: int
    ops_chi: int
    seed: int
    violations: int
    valid: bool

    def row(self) -> tuple[str, ...]:
        return (self.protocol, str(self.n_nodes), str(self.k_machines),
                str(self.degree), str(self.fault_fraction), self.setting,
                str(self.beta), str(self.gamma), f"{self.lam:.10g}",
                str(self.ops_rho), str(self.ops_psi), str(self.ops_chi),
                str(self.seed), str(self.violations))


def design_tolerance(protocol: str, n_nodes: int, k_machines: int,
                     setting: str = "sync", b: int | None = None) -> int:
    """Fault count each protocol is built to mask on this deployment."""
    if protocol == "csm":
        if b is None:
            raise ValueError("coded deployments carry an explicit budget")
        return b
    group = n_nodes if protocol == "full" else n_nodes // k_machines
    return (group - 1) // resilience(setting)


def compute_metrics(result: ExperimentResult,
                    beta: int | None = None) -> MetricsRecord:
    """Reduce one finished run to its metric row.

    A run with flagged violations still yields a row (so sweeps can see
    what broke) but is marked invalid and its throughput is reported as 0.
    """
    cfg = result.config
    machine = make_machine(cfg.machine_name(), parse_field(cfg.field_spec))
    k, n = result.k_machines, cfg.n_nodes
    sd = machine.state_dim
    stored = sd * (k if cfg.protocol == "full" else 1)
    gamma = Fraction(k * sd, stored)
    if gamma > n:
        raise ConfigurationError(
            f"storage efficiency {gamma} exceeds node count {n}")
    ops = {ph: result.board.get(phase=ph).total()
           for ph in ("rho", "psi", "chi")}
    total = sum(ops.values())
    t = result.rounds_run
    lam = (k * n * t) / total if result.ok and t and total else 0.0
    if beta is None:
        beta = design_tolerance(cfg.protocol, n, k, cfg.setting, result.b)
    return MetricsRecord(cfg.protocol, n, k, machine.total_degree(),
                         cfg.fault_fraction, cfg.setting, beta, gamma, lam,
                         ops["rho"], ops["psi"], ops["chi"], cfg.seed,
                         len(result.violations), result.ok)


# ---------------------------------------------------------------------------
# security sweep
# ---------------------------------------------------------------------------

SWEEP_STRATEGIES = ("withhold", "corrupt", "collude")
SWEEP_ROUNDS = 2   # sampled (states, commands) trials per placement


@dataclass(frozen=True)
class SweepReport:
    beta: int
    witness: dict | None   # violating run at beta + 1, if one was found


def _sweep_rng(seed: int, *salt: int) -> random.Random:
    mix = seed
    for s in salt:
        mix = (mix * 1000003 + s + 1) & (2 ** 63 - 1)
    return random.Random(mix)


def _tampered(strategy: str, vectors, fld, rng, shared):
    """A faulty node's message in the sweep. Colluding nodes all add the
    same ``shared`` deltas; the other strategies are the simulator's."""
    if strategy == "collude":
        return [tuple(fld.add(v, d) for v, d in zip(vec, delta))
                for vec, delta in zip(vectors, shared)]
    return tamper(strategy, vectors, fld, rng, 0, Timing())


def sweep_security(protocol: str, n_nodes: int, k_machines: int = 1,
                   degree: int = 1, machine: str | None = None,
                   setting: str = "sync", seed: int = 0,
                   field_spec: str = "prime:2147483647") -> SweepReport:
    """Find the largest fault count no cataloged attack breaks.

    Exhausts every corruption placement against each strategy in the
    catalog, growing the Byzantine set until a violation appears. The
    result is a lower-bound certificate: beta faults never broke the run,
    and the witness shows beta + 1 faults doing so. Rounds are the
    simulator's, over ``field_spec``, with the placement as the network,
    the direct decoder, and the simulator's judges.
    """
    if n_nodes > 20:
        raise ConfigurationError(
            "exhaustive placement search is limited to 20 nodes")
    fld = parse_field(field_spec)
    name = machine or ("bank" if degree == 1 else "product")
    mach = make_machine(name, fld)
    if mach.total_degree() != degree:
        raise ConfigurationError(
            f"machine {name!r} has degree {mach.total_degree()}")
    sample_rng = _sweep_rng(seed, 0)
    trials = [(tuple(mach.random_state(sample_rng)
                     for _ in range(k_machines)),
               tuple(mach.random_command(sample_rng)
                     for _ in range(k_machines)))
              for _ in range(SWEEP_ROUNDS)]
    truths = [ground_truth(mach, states, commands)
              for states, commands in trials]

    if protocol == "csm":
        d_bound = degree * (k_machines - 1)
        slack = n_nodes - d_bound - 1
        b_design = slack // resilience(setting)
        if b_design < 0:
            raise ConfigurationError("no fault budget at this K and N")
        coding = CodingConfig.make(mach, k_machines, n_nodes, setting,
                                   b=b_design)
        board = CounterBoard()  # the sweep's own; nothing reads it

        def violates(trial, faulty, strategy, rng):
            states, commands = trials[trial]

            def deliver(g):
                view = list(g)
                shared = [tuple(rng.randrange(1, fld.order) for _ in g[0])]
                for i in faulty:
                    sent = _tampered(strategy, [view[i]], fld, rng, shared)
                    view[i] = None if sent is None else sent[0]
                return view

            result = coded_round(encode_states(states, coding),
                                 encode_commands(commands, coding), coding,
                                 deliver,
                                 lambda view: decode_round(view, coding),
                                 board)
            return judge_reconstruction(result, truths[trial], trial, False)
    else:
        deployment = ReplicationConfig(mach, protocol, n_nodes, k_machines,
                                       setting)

        def violates(trial, faulty, strategy, rng):
            states, commands = trials[trial]
            shared = [tuple(rng.randrange(1, fld.order)
                            for _ in range(mach.state_dim + mach.out_dim))
                      for _ in range(k_machines)]

            def report(i, mine):
                if i not in faulty:
                    return mine
                sent = _tampered(strategy, list(mine.values()), fld, rng,
                                 [shared[k] for k in mine])
                return None if sent is None else dict(zip(mine, sent))

            result = run_replicated_round(states, commands, deployment,
                                          report)
            return judge_delivery(result.outputs, truths[trial][1], trial,
                                  False, "no output delivered")

    with uncounted():
        for b in range(n_nodes + 1):
            for placement in itertools.combinations(range(n_nodes), b):
                place_key = sum((i + 1) * 31 ** p
                                for p, i in enumerate(placement))
                for strategy in SWEEP_STRATEGIES:
                    for trial in range(SWEEP_ROUNDS):
                        rng = _sweep_rng(seed, b, place_key,
                                         SWEEP_STRATEGIES.index(strategy),
                                         trial)
                        found = violates(trial, set(placement), strategy,
                                         rng)
                        if found:
                            witness = {"b": b, "placement": list(placement),
                                       "strategy": strategy,
                                       "clause": found[0]["clause"],
                                       "round": trial}
                            return SweepReport(b - 1, witness)
    return SweepReport(n_nodes, None)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codedsm",
        description="Run coded and replicated state machine experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="simulate and write metrics")
    which = run.add_mutually_exclusive_group()
    for c in CONFIG_KEYS:
        # a bare boolean flag (--delegate) means true
        bare = {"nargs": "?", "const": "true"} if c.read is read_bool else {}
        (which if c.key == "protocol" else run).add_argument(
            c.flag, dest=c.key, help=c.help, **bare)
    which.add_argument("--compare", metavar="P1,P2,...",
                       help="comma-separated protocols, one CSV row each")
    run.add_argument("--sweep-beta", action="store_true",
                     help="search for the breaking fault count (N <= 20)")
    run.add_argument("--config", type=Path,
                     help="key=value experiment file; given flags override")
    run.add_argument("--out", type=Path, required=True,
                     help="output directory for CSV and logs")
    return parser


def _config_from_args(args, protocol: str) -> ExperimentConfig:
    """The config file's settings, then every flag that was given."""
    given = {c.field: c.value(v, c.flag) for c in CONFIG_KEYS
             if (v := getattr(args, c.key)) is not None}
    given["protocol"] = protocol
    if args.config is not None:
        return dataclasses.replace(ExperimentConfig.from_file(args.config),
                                   **given)
    if "n_nodes" not in given:
        raise ConfigurationError("--n is required without --config")
    return ExperimentConfig(**given)


def _compare_k(cfg: ExperimentConfig, machine_degree: int) -> int:
    """K per protocol in a comparison row: replication keeps the requested
    K, the coded run takes everything its capacity formula allows. With no
    request, replication matches the coded K so rows share a workload."""
    capacity = max_machines(cfg.n_nodes, cfg.fault_fraction,
                            machine_degree, cfg.setting)
    if cfg.protocol == "csm" or cfg.k_machines is None:
        return capacity
    return cfg.k_machines


def write_csv(path: Path, records: list[MetricsRecord]) -> None:
    lines = [f"# schema: {CSV_SCHEMA}", ",".join(CSV_COLUMNS)]
    lines += [",".join(r.row()) for r in records]
    path.write_text("\n".join(lines) + "\n")


def read_csv(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def run_cli(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.protocol:
        protocols = [args.protocol]
    elif args.compare:
        protocols = [p.strip() for p in args.compare.split(",")]
    elif args.config is not None:
        try:
            protocols = [ExperimentConfig.from_file(args.config).protocol]
        except ConfigurationError as exc:
            parser.error(str(exc))
    else:
        parser.error("one of the arguments --protocol --compare is required")
    for p in protocols:
        if p not in PROTOCOLS:
            parser.error(f"unknown protocol {p!r}")

    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    records: list[MetricsRecord] = []
    failures = 0
    for protocol in protocols:
        try:
            cfg = _config_from_args(args, protocol)
            if args.compare is not None:
                machine = make_machine(cfg.machine_name(),
                                       parse_field(cfg.field_spec))
                k = _compare_k(cfg, machine.total_degree())
                cfg = dataclasses.replace(cfg, k_machines=k)
            result = run_experiment(cfg)
            beta = None
            if args.sweep_beta:
                report = sweep_security(
                    protocol, cfg.n_nodes, result.k_machines,
                    result.log.of("header")[0]["d"],
                    machine=cfg.machine_name(), setting=cfg.setting,
                    seed=cfg.seed, field_spec=cfg.field_spec)
                beta = report.beta
            rec = compute_metrics(result, beta=beta)
        except ConfigurationError as exc:
            parser.error(str(exc))
        records.append(rec)
        log_name = f"{protocol}_n{cfg.n_nodes}_seed{cfg.seed}.jsonl"
        result.log.write(out / log_name)
        status = "ok" if rec.valid else \
            f"VIOLATED ({rec.violations} flagged)"
        print(f"{protocol}: N={rec.n_nodes} K={rec.k_machines} "
              f"beta={rec.beta} gamma={rec.gamma} lambda={rec.lam:.6g} "
              f"[{status}] -> {out / log_name}")
        if not rec.valid:
            failures += 1
    write_csv(out / "metrics.csv", records)
    print(f"wrote {out / 'metrics.csv'} ({len(records)} rows)")
    return 3 if failures else 0


def main(argv=None) -> None:
    sys.exit(run_cli(argv))


if __name__ == "__main__":
    main()
