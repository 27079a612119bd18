"""Experiment runner: security, storage, and throughput metrics.

Three numbers summarize a protocol on a given deployment. Security is the
largest Byzantine head count the run tolerates, storage efficiency is how
many machine-states' worth of useful data one node-state's worth of
storage carries, and throughput is machines advanced per field operation
per node. The CLI drives seeded simulations and writes one CSV row per
run; a scale mode plays the same runs at several node counts, and a
sweep mode searches for the actual breaking point instead of quoting the
design value.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .csm import max_budget
from .field import ConfigurationError, CounterBoard, uncounted
from .simnet import (
    CONFIG_KEYS,
    AdversaryModel,
    EventLog,
    ExperimentConfig,
    ExperimentResult,
    deployment,
    derive_sizes,
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


def compute_metrics(result: ExperimentResult,
                    beta: int | None = None) -> MetricsRecord:
    """Reduce one finished run to its metric row.

    A run with flagged violations still yields a row (so sweeps can see
    what broke) but is marked invalid and its throughput is reported as 0.
    Machine, K, degree and the design tolerance β are the run's layout's;
    a given ``beta`` replaces the design value.
    """
    cfg, layout = result.config, result.layout
    k, n = layout.k_machines, layout.n_nodes
    sd = layout.machine.state_dim
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
        beta = layout.beta
    return MetricsRecord(cfg.protocol, n, k, layout.machine.total_degree(),
                         cfg.fault_share, cfg.setting, beta, gamma, lam,
                         ops["rho"], ops["psi"], ops["chi"], cfg.seed,
                         len(result.violations), result.ok)


# ---------------------------------------------------------------------------
# security sweep
# ---------------------------------------------------------------------------

SWEEP_STRATEGIES = ("withhold", "corrupt", "collude")
SWEEP_ROUNDS = 2   # sampled (states, commands) trials per placement
SWEEP_MAX_NODES = 20   # placements grow as 2^N


def _check_sweepable(n: int) -> None:
    """Refuse a deployment too large for the exhaustive placement search."""
    if n > SWEEP_MAX_NODES:
        raise ConfigurationError(f"exhaustive placement search is limited "
                                 f"to {SWEEP_MAX_NODES} nodes")


@dataclass(frozen=True)
class SweepReport:
    beta: int
    witness: dict | None   # violating run at beta + 1, if one was found


def sweep_security(config: ExperimentConfig) -> SweepReport:
    """Find the largest fault count no cataloged attack breaks on the
    deployment ``config`` describes.

    Exhausts every corruption placement against each strategy in the
    catalog, growing the Byzantine set until a violation appears. The
    result is a lower-bound certificate: beta faults never broke the run,
    and the witness shows beta + 1 faults doing so. Each trial is one
    round of the simulator's protocol as ``config`` plays it (a delegated
    config decodes through `delegated_decode`), after stabilization,
    against an `AdversaryModel` holding the placement, and judged as an
    experiment's round is. The sweep places its own faults and plays its
    own catalog, so it ignores the config's fault budget and adversary,
    except that a budget sizes K where the config gives none, as in the
    run. A coded deployment is built for `csm.max_budget` faults, the
    most its decoder masks.
    """
    n = config.n_nodes
    _check_sweepable(n)
    machine, k, _, d = derive_sizes(config)
    # replication takes no budget
    layout = deployment(config, machine, k,
                        max_budget(n, k, d, config.setting))
    states_rng, commands_rng, _, beacon = seed_streams(config.seed)
    trials = [(tuple(machine.random_state(states_rng) for _ in range(k)),
               tuple(machine.random_command(commands_rng) for _ in range(k)))
              for _ in range(SWEEP_ROUNDS)]
    truths = [ground_truth(machine, states, commands)
              for states, commands in trials]
    board = CounterBoard()  # the sweep's own; nothing reads it

    with uncounted():
        for b in range(n + 1):
            for placement in itertools.combinations(range(n), b):
                for strategy in SWEEP_STRATEGIES:
                    adversary = AdversaryModel(
                        frozenset(placement), machine.field, strategy,
                        config.seed, config.setting)
                    for trial, (states, commands) in enumerate(trials):
                        play = protocol_round(config, layout, adversary,
                                              EventLog(), board, beacon,
                                              states)
                        found, _ = play(trial, states, commands,
                                        truths[trial])
                        if found:
                            witness = {"b": b, "placement": list(placement),
                                       "strategy": strategy,
                                       "clause": found[0]["clause"],
                                       "round": trial}
                            return SweepReport(b - 1, witness)
    return SweepReport(n, None)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

# What a sweep deployment (protocol:N:K[:d]) spells, so not a sweep flag.
DEPLOYMENT_KEYS = ("protocol", "n", "k", "d")
# Not sweep flags either: the sweep places its own faults, plays its own
# catalog for SWEEP_ROUNDS trials, and its deployment's K needs no budget.
SWEEP_UNREAD_KEYS = ("mu", "b", "adversary", "rounds")


def _parse_deployment(text: str) -> dict:
    """The `ExperimentConfig` fields a ``protocol:N:K[:d]`` deployment
    spells. Without d, the degree is the config file's or the machine's."""
    parts = text.split(":")
    if not 3 <= len(parts) <= len(DEPLOYMENT_KEYS):
        raise ConfigurationError(f"expected protocol:N:K[:d], got {text!r}")
    keys = {c.key: c for c in CONFIG_KEYS}
    return {keys[key].field: keys[key].value(part, text)
            for key, part in zip(DEPLOYMENT_KEYS, parts)}


def _add_config_flags(parser, skip=(), which=None) -> None:
    """``--config`` and a flag for each `CONFIG_KEYS` setting not in
    ``skip``; ``--protocol`` goes in the group ``which``."""
    for c in CONFIG_KEYS:
        if c.key in skip:
            continue
        # a bare boolean flag (--delegate) means true
        bare = {"nargs": "?", "const": "true"} if c.read is read_bool else {}
        (which if c.key == "protocol" else parser).add_argument(
            c.flag, dest=c.key, help=c.help, **bare)
    parser.add_argument("--config", type=Path,
                        help="key=value experiment file; given flags override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codedsm",
        description="Run coded and replicated state machine experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="simulate and write metrics")
    scale = sub.add_parser(
        "scale", help="simulate run's rows at each node count N and print "
                      "lambda against N")
    scale.add_argument("sizes", nargs="+", type=int, metavar="N")
    for p in (run, scale):
        which = p.add_mutually_exclusive_group()
        which.add_argument("--compare", metavar="P1,P2,...",
                           help="comma-separated protocols, one CSV row each")
        _add_config_flags(p, skip=("n",) if p is scale else (), which=which)
        p.add_argument("--sweep-beta", action="store_true",
                       help="search for the breaking fault count "
                            f"(N <= {SWEEP_MAX_NODES})")
        p.add_argument("--out", type=Path, required=True,
                       help="output directory for CSV and logs")
    sweep = sub.add_parser(
        "sweep", help="find each deployment's breaking fault count by "
                      f"exhaustive attack (N <= {SWEEP_MAX_NODES})")
    # parsed after the flags, so a flag the sweep does not take is
    # reported as such, not as a bad deployment
    sweep.add_argument("deployments", nargs="+", metavar="protocol:N:K[:d]")
    _add_config_flags(sweep, skip=DEPLOYMENT_KEYS + SWEEP_UNREAD_KEYS)
    return parser


def _config_from_args(args, **fields) -> ExperimentConfig:
    """The config file's settings, then every flag that was given, then
    ``fields``."""
    given = {c.field: c.value(v, c.flag) for c in CONFIG_KEYS
             if (v := getattr(args, c.key, None)) is not None}
    given.update(fields)
    if args.config is not None:
        return ExperimentConfig.from_file(args.config, **given)
    if not {"protocol", "n_nodes"} <= given.keys():
        raise ConfigurationError(
            "--protocol (or --compare) and --n are required without --config")
    return ExperimentConfig(**given)


def _run_configs(args, **fields) -> list[ExperimentConfig]:
    """The run's config, or one per ``--compare`` protocol, with
    ``fields`` over each. A comparison sizes its coded K as a csm run
    does, from the budget b, and each replication row without a K takes
    that K, so the rows share a workload."""
    if args.compare is None:
        return [_config_from_args(args, **fields)]
    configs = []
    for protocol in args.compare.split(","):
        cfg = _config_from_args(args, **fields, protocol=protocol.strip())
        if cfg.protocol == "csm" or cfg.k_machines is None:
            coded = dataclasses.replace(cfg, protocol="csm", k_machines=None)
            cfg = dataclasses.replace(cfg, k_machines=derive_sizes(coded)[1])
        configs.append(cfg)
    return configs


def write_csv(path: Path, records: list[MetricsRecord]) -> None:
    lines = [f"# schema: {CSV_SCHEMA}", ",".join(CSV_COLUMNS)]
    lines += [",".join(r.row()) for r in records]
    path.write_text("\n".join(lines) + "\n")


def read_csv(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _sweep_cli(parser, args) -> int:
    """Print each deployment's measured tolerance and its witness."""
    try:
        deployments = [_parse_deployment(t) for t in args.deployments]
    except ConfigurationError as exc:
        parser.error(str(exc))
    for fields in deployments:
        try:
            cfg = _config_from_args(args, **fields)
            d = derive_sizes(cfg)[3]
            report = sweep_security(cfg)
        except ConfigurationError as exc:
            parser.error(str(exc))
        print(f"{cfg.protocol} N={cfg.n_nodes} K={cfg.k_machines} d={d}: "
              f"beta = {report.beta}")
        if report.witness:
            w = report.witness
            print(f"  broken at b={w['b']} by {w['strategy']} on nodes "
                  f"{w['placement']} ({w['clause']})")
        else:
            print("  no violating run found up to b = N")
    return 0


def _print_scale_table(records: list[MetricsRecord], n_sizes: int) -> None:
    """One line per size: N, the first row's K and each row's lambda."""
    per_size = len(records) // n_sizes
    rows = [records[i:i + per_size] for i in range(0, len(records), per_size)]
    print(f"{'N':>5} {'K':>5} " + " ".join(
        f"{'lambda_' + r.protocol:>12}" for r in rows[0]))
    for row in rows:
        print(f"{row[0].n_nodes:>5} {row[0].k_machines:>5} " + " ".join(
            f"{r.lam:>12.6f}" for r in row))


def run_cli(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep":
        return _sweep_cli(parser, args)
    # scale plays run's rows once per size
    sizes = ([{"n_nodes": n} for n in args.sizes]
             if args.command == "scale" else [{}])
    try:
        configs = [cfg for fields in sizes
                   for cfg in _run_configs(args, **fields)]
        # refuse every row before any row runs
        for cfg in configs:
            deployment(cfg, *derive_sizes(cfg)[:3])
            if args.sweep_beta:
                _check_sweepable(cfg.n_nodes)
    except ConfigurationError as exc:
        parser.error(str(exc))

    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    records: list[MetricsRecord] = []
    failures = 0
    for cfg in configs:
        try:
            result = run_experiment(cfg)
            beta = sweep_security(cfg).beta if args.sweep_beta else None
            rec = compute_metrics(result, beta=beta)
        except ConfigurationError as exc:
            parser.error(str(exc))
        records.append(rec)
        log_name = f"{cfg.protocol}_n{cfg.n_nodes}_seed{cfg.seed}.jsonl"
        result.log.write(out / log_name)
        status = "ok" if rec.valid else \
            f"VIOLATED ({rec.violations} flagged)"
        print(f"{cfg.protocol}: N={rec.n_nodes} K={rec.k_machines} "
              f"beta={rec.beta} gamma={rec.gamma} lambda={rec.lam:.6g} "
              f"[{status}] -> {out / log_name}")
        if not rec.valid:
            failures += 1
    write_csv(out / "metrics.csv", records)
    print(f"wrote {out / 'metrics.csv'} ({len(records)} rows)")
    if args.command == "scale":
        _print_scale_table(records, len(sizes))
    return 3 if failures else 0


def main(argv=None) -> None:
    sys.exit(run_cli(argv))
