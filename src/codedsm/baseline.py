"""Replication baselines with the same round shape as the coded pipeline.

Full replication runs every machine on every node; partial replication
splits the nodes into K disjoint groups and pins one machine to each. Both
decide client outputs by the matching-report rule, so the only differences
from the coded pipeline are storage layout and fault tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .csm import SETTINGS, client_outputs, resilience
from .field import ConfigurationError, Memo
from .machine import TransitionFunction

MODES = ("full", "partial")


@dataclass(frozen=True)
class ReplicationConfig:
    machine: TransitionFunction
    mode: str
    n_nodes: int
    k_machines: int
    setting: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}")
        if self.setting not in SETTINGS:
            raise ConfigurationError("setting must be sync or psync")
        if self.k_machines < 1 or self.n_nodes < 1:
            raise ConfigurationError("need at least one machine and node")
        if self.mode == "partial":
            if self.n_nodes % self.k_machines:
                raise ConfigurationError(
                    f"partial replication needs K | N, got "
                    f"N={self.n_nodes}, K={self.k_machines}")

    @property
    def group_size(self) -> int:
        """Nodes per machine: q = N/K under partial, all N under full."""
        if self.mode == "partial":
            return self.n_nodes // self.k_machines
        return self.n_nodes

    @property
    def beta(self) -> int:
        """Design fault tolerance of the client decision rule: the faults
        one replica group masks under the matching-report rule."""
        return (self.group_size - 1) // resilience(self.setting)

    def group(self, k: int) -> range:
        """Node indices responsible for machine k."""
        if self.mode == "full":
            return range(self.n_nodes)
        q = self.group_size
        return range(k * q, (k + 1) * q)

    def machines_of(self, i: int) -> range:
        """Machine indices node i executes and stores."""
        if self.mode == "full":
            return range(self.k_machines)
        k = i // self.group_size
        return range(k, k + 1)


@dataclass(frozen=True)
class BaselineRound:
    """One replicated round as the clients see it: the output decided for
    each machine (None where none was), and why each missing one failed."""

    outputs: tuple[tuple[int, ...] | None, ...]
    failures: tuple[tuple[int, str], ...]

    @property
    def success(self) -> bool:
        return not self.failures

    def record(self, round_index: int, commands=None) -> dict:
        return {
            "round": round_index,
            "commands": None if commands is None else
                        [list(c) for c in commands],
            "outputs": [None if y is None else list(y)
                        for y in self.outputs],
            "success": self.success,
            "violation": "; ".join(r for _, r in self.failures) or None,
        }


def run_replicated_round(states, commands, cfg: ReplicationConfig,
                         tamper=None) -> BaselineRound:
    """Execute one round of full or partial replication.

    ``tamper(i, report)`` may replace node i's report dict (machine index
    -> flat next-state+output vector), or return None to stay silent.
    """
    if len(states) != cfg.k_machines or len(commands) != cfg.k_machines:
        raise ValueError("need one state and one command per machine")
    # every host runs each transition it hosts, and that redundancy is the
    # cost being measured: a transition is computed once and charged to
    # every host (`Memo`)
    transitions = Memo()
    reports = []
    for i in range(cfg.n_nodes):
        mine = {k: transitions.get(k, lambda k=k: cfg.machine.eval_all(
                    states[k], commands[k]))
                for k in cfg.machines_of(i)}
        if tamper is not None:
            mine = tamper(i, mine)
        reports.append(mine)
    sd = cfg.machine.state_dim
    pools = [[None if r is None or r.get(k) is None else tuple(r[k][sd:])
              for r in (reports[i] for i in cfg.group(k))]
             for k in range(cfg.k_machines)]
    return BaselineRound(*client_outputs(pools, cfg.beta))
