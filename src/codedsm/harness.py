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
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .baseline import group_tolerance
from .csm import max_machines, resilience
from .field import ConfigurationError, CounterBoard, parse_field, uncounted
from .machine import make_machine
from .simnet import (
    CONFIG_KEYS,
    PROTOCOLS,
    AdversaryModel,
    EventLog,
    ExperimentConfig,
    ExperimentResult,
    Timing,
    deployment,
    ground_truth,
    protocol_round,
    read_bool,
    run_experiment,
    seed_streams,
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
    return group_tolerance(
        n_nodes if protocol == "full" else n_nodes // k_machines, setting)


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


def sweep_security(protocol: str, n_nodes: int, k_machines: int = 1,
                   degree: int = 1, machine: str | None = None,
                   setting: str = "sync", seed: int = 0,
                   field_spec: str = "prime:2147483647") -> SweepReport:
    """Find the largest fault count no cataloged attack breaks.

    Exhausts every corruption placement against each strategy in the
    catalog, growing the Byzantine set until a violation appears. The
    result is a lower-bound certificate: beta faults never broke the run,
    and the witness shows beta + 1 faults doing so. Each trial is one
    round of the simulator's protocol, over ``field_spec``, after
    stabilization, against an `AdversaryModel` holding the placement, and
    judged as an experiment's round is.
    """
    if n_nodes > 20:
        raise ConfigurationError(
            "exhaustive placement search is limited to 20 nodes")
    config = ExperimentConfig(protocol, n_nodes, k_machines, degree, machine,
                              field_spec, setting=setting)
    mach = make_machine(config.machine_name(), parse_field(field_spec))
    if mach.total_degree() != degree:
        raise ConfigurationError(
            f"machine {config.machine_name()!r} has degree "
            f"{mach.total_degree()}")
    # a coded deployment is built for the most faults its decoder masks;
    # replication takes no budget
    b_design = (n_nodes - degree * (k_machines - 1) - 1) // resilience(setting)
    layout = deployment(config, mach, k_machines, b_design)
    states_rng, commands_rng, _, beacon = seed_streams(seed)
    trials = [(tuple(mach.random_state(states_rng)
                     for _ in range(k_machines)),
               tuple(mach.random_command(commands_rng)
                     for _ in range(k_machines)))
              for _ in range(SWEEP_ROUNDS)]
    truths = [ground_truth(mach, states, commands)
              for states, commands in trials]
    timing = Timing(setting)
    board = CounterBoard()  # the sweep's own; nothing reads it

    with uncounted():
        for b in range(n_nodes + 1):
            for placement in itertools.combinations(range(n_nodes), b):
                for strategy in SWEEP_STRATEGIES:
                    adversary = AdversaryModel(frozenset(placement),
                                               strategy, seed)
                    for trial, (states, commands) in enumerate(trials):
                        play = protocol_round(config, layout, timing,
                                              adversary, EventLog(), board,
                                              beacon, states)
                        found, _ = play(trial, states, commands,
                                        truths[trial], False)
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
