"""The benchmark's workloads: which experiment each one runs, and why.

Every workload is one `codedsm` experiment, built from the keyword
arguments below plus the benchmark seed and a round count. The seed is the
only input that changes between runs; the same seed gives the same event
log byte for byte, which the correctness gate checks.

This module imports nothing from `codedsm`, so the parent process can read
it without paying for the import it measures in each pass.
"""

from __future__ import annotations

from dataclasses import dataclass

# The seed a benchmark run uses when none is given, and the held-out seed
# a performance change must also be checked on before it claims a gain.
DEFAULT_SEED = 7
HELD_OUT_SEED = 1013

# Fewest rounds one run pools, so that round_ms.p90 has ten samples above it.
MIN_ROUNDS = 100

# Rounds per pass in --smoke mode.
SMOKE_ROUNDS = 2


def experiment_seed(seed: int, index: int) -> int:
    """Seed of the index-th distinct experiment of a run with this seed."""
    return seed * 1000 + index


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict           # ExperimentConfig keyword arguments
    rounds_per_pass: int   # rounds one pass (one fresh process) runs


WORKLOADS = {w.name: w for w in (
    Workload(
        "coded-corrupt",
        "coded csm n=96 d=2 under corrupt: every decode runs one "
        "Berlekamp-Welch solve; poly interpolation and multipoint_eval "
        "dominate the round",
        dict(protocol="csm", n_nodes=96, degree=2, machine="product",
             fault_fraction="1/10", adversary="corrupt"),
        rounds_per_pass=30),
    Workload(
        "delegated-audit",
        "delegated csm n=48 fast path with a dishonest worker: elections, "
        "re-elections, bisection disputes; auditors' recomputation "
        "dominates",
        dict(protocol="csm", n_nodes=48, degree=1, machine="bank",
             fault_fraction="1/4", delegate=True, poly_mode="fast",
             adversary="dishonest_worker"),
        rounds_per_pass=25),
    Workload(
        "replicated",
        "full replication n=100 k=10 qmix under corrupt: no coding layer "
        "runs, so poly/rs/intermix changes must show no change here",
        dict(protocol="full", n_nodes=100, k_machines=10, machine="qmix",
             fault_fraction="1/10", adversary="corrupt"),
        rounds_per_pass=150),
)}
