"""Coded state machine round pipeline.

States of K machines are stored across N nodes as evaluations of the
degree-(K-1) interpolating polynomial through the machine states. Every
node runs the transition function on its coded slice; the results are
evaluations of a composite polynomial of degree at most d(K-1), so the true
next states and outputs can be recovered by noisy interpolation as long as
the corrupted share stays under the decoding radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .field import ConfigurationError, Table, uncounted
from .machine import TransitionFunction
from .poly import MODES, multipoint_eval
from .rs import DecodeFailure, NoisyCodeword, decode

SETTINGS = ("sync", "psync")
DECODE_FAILURE = "decode failure (fault budget exceeded)"
NO_QUORUM = "no value reached b+1 matching reports"


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(x).limit_denominator(10**6)


def resilience(setting: str) -> int:
    """Results each tolerated fault costs: b faults need 2b + 1 results
    beyond a round's degree under bounded delay (sync), and 3b + 1 under
    partial synchrony (psync), where b honest results may also be late."""
    if setting not in SETTINGS:
        raise ConfigurationError(f"setting must be one of {SETTINGS}")
    return 2 if setting == "sync" else 3


def max_machines(n_nodes: int, fault_fraction, degree: int,
                 setting: str) -> int:
    """Largest machine count a node budget supports at a fault fraction."""
    r = resilience(setting)
    if degree < 1:
        raise ConfigurationError("degree must be at least 1")
    frac = _as_fraction(fault_fraction)
    cap = Fraction(1, r)
    if not 0 <= frac < cap:
        raise ConfigurationError(
            f"fault fraction {fault_fraction} out of range for {setting} "
            f"(needs 0 <= f < {cap})")
    k = (1 - r * frac) * n_nodes / degree + 1 - Fraction(1, degree)
    return int(k)  # int() floors here since k >= 0


def max_budget(n_nodes: int, k_machines: int, degree: int,
               setting: str) -> int:
    """The most faults a coded deployment's decoder masks: the largest b
    with r*b + 1 <= N - d(K-1), r being the setting's `resilience`."""
    return (n_nodes - degree * (k_machines - 1) - 1) // resilience(setting)


def check_budget(n_nodes: int, k_machines: int, degree: int, b: int,
                 setting: str) -> None:
    """Enforce the decoding bound for b faults. It implies the consensus
    bound (b+1 <= N under sync, 3b+1 <= N under psync) and the output
    delivery bound 2b+1 <= N: with K >= 1 and r = `resilience` >= 2,
    r*b+1 <= N-d(K-1) <= N."""
    if b < 0:
        raise ConfigurationError("fault budget must be nonnegative")
    if b > max_budget(n_nodes, k_machines, degree, setting):
        raise ConfigurationError(
            f"decoding bound violated: {resilience(setting)}*{b}+1 > "
            f"{n_nodes}-{degree * (k_machines - 1)}")


@dataclass(frozen=True)
class CodingConfig:
    """One coded deployment: K machines stored across N nodes for b faults.

    It holds the machine's ``field``, the data points ``omegas`` and the
    storage points ``alphas`` (counting machines and nodes from 1, machine
    k's value sits at omega_k = k and node i stores the evaluation at
    alpha_i = K + i), the coding matrix ``coeffs`` between them, and
    ``poly_mode``, the polynomial arithmetic its decoders and delegated
    routes run.
    """

    machine: TransitionFunction
    k_machines: int
    n_nodes: int
    setting: str
    b: int
    poly_mode: str = "auto"

    def __post_init__(self):
        k, n, fld = self.k_machines, self.n_nodes, self.machine.field
        if k + n >= fld.order:   # the K + N points must be distinct
            raise ConfigurationError(
                f"field of order {fld.order} is too small for K={k}, N={n}")
        if k < 1 or n < 1:
            raise ConfigurationError("need at least one machine and node")
        if self.poly_mode not in MODES:
            raise ConfigurationError(f"poly_mode must be one of {MODES}")
        check_budget(n, k, self.machine.total_degree(), self.b, self.setting)
        object.__setattr__(self, "field", fld)
        object.__setattr__(self, "omegas", tuple(range(1, k + 1)))
        object.__setattr__(self, "alphas", tuple(range(k + 1, k + n + 1)))

    @cached_property
    def coeffs(self) -> Table:
        """The N x K matrix C[i][k] = prod_{l != k} (a_i - w_l)/(w_k - w_l).

        Row i maps plain values at the omegas to node i's stored evaluation.
        Building it is public setup, charged to no counter.
        """
        f, omegas = self.field, self.omegas
        K = self.k_machines
        with uncounted():
            dens = []
            for k in range(K):
                d = 1
                for l in range(K):
                    if l != k:
                        d = f.mul(d, f.sub(omegas[k], omegas[l]))
                dens.append(f.inv(d))
            rows = []
            for a in self.alphas:
                diffs = [f.sub(a, w) for w in omegas]
                pre = [1] * (K + 1)
                for k in range(K):
                    pre[k + 1] = f.mul(pre[k], diffs[k])
                suf = [1] * (K + 1)
                for k in range(K - 1, -1, -1):
                    suf[k] = f.mul(suf[k + 1], diffs[k])
                rows.append(tuple(f.mul(f.mul(pre[k], suf[k + 1]), dens[k])
                                  for k in range(K)))
        return Table(rows)

    @property
    def degree_bound(self) -> int:
        return self.machine.total_degree() * (self.k_machines - 1)

    @property
    def fault_fraction(self) -> Fraction:
        return Fraction(self.b, self.n_nodes)

    @property
    def beta(self) -> int:
        """Design fault tolerance: the budget the deployment was built for."""
        return self.b

    @property
    def flat_dim(self) -> int:
        return self.machine.state_dim + self.machine.out_dim


@dataclass(frozen=True)
class RoundResult:
    """Outcome of decoding one round of coded execution."""

    success: bool
    next_states: tuple[tuple[int, ...], ...] | None
    outputs: tuple[tuple[int, ...], ...] | None
    g_values: tuple[tuple[int, ...] | None, ...]
    tau: frozenset[int] | None
    violation: str | None = None

    @staticmethod
    def failed(g_values, violation: str) -> "RoundResult":
        return RoundResult(False, None, None, tuple(g_values), None,
                           violation=violation)

    def record(self, round_index: int, commands=None) -> dict:
        """Plain-dict form for a JSON-lines round trace."""
        return {
            "round": round_index,
            "commands": None if commands is None else
                        [list(c) for c in commands],
            "g": [None if g is None else list(g) for g in self.g_values],
            "tau": None if self.tau is None else sorted(self.tau),
            "outputs": None if self.outputs is None else
                       [list(y) for y in self.outputs],
            "success": self.success,
            "violation": self.violation,
        }


def _encode_vectors(vectors, cfg: CodingConfig) -> tuple[tuple[int, ...], ...]:
    """Per-node evaluations of the interpolant through K same-shaped vectors."""
    k, n = cfg.k_machines, cfg.n_nodes
    if len(vectors) != k:
        raise ValueError(f"need {k} vectors, got {len(vectors)}")
    dim = len(vectors[0])
    for v in vectors:
        if len(v) != dim:
            raise ValueError("mixed vector dimensions")
        for x in v:
            cfg.field.check(x)
    rows = cfg.coeffs
    cols = [cfg.field.kernels.matvec(rows, [v[j] for v in vectors])
            for j in range(dim)]
    return tuple(tuple(col[i] for col in cols) for i in range(n))


def encode_states(states, cfg: CodingConfig):
    if len(states) and len(states[0]) != cfg.machine.state_dim:
        raise ValueError("state dimension mismatch")
    return _encode_vectors(states, cfg)


def encode_commands(commands, cfg: CodingConfig):
    if len(commands) and len(commands[0]) != cfg.machine.cmd_dim:
        raise ValueError("command dimension mismatch")
    return _encode_vectors(commands, cfg)


def execute_local(coded_state_i, coded_command_i, cfg: CodingConfig):
    """What an honest node broadcasts: the transition on its coded slice."""
    return cfg.machine.eval_all(coded_state_i, coded_command_i)


def decode_budget(g_values, cfg: CodingConfig):
    """The public checks every round decoder makes before decoding.

    Returns the result slots as tuples, the error budget left for the
    decoder, and None; or the slots, None and the violation that makes
    decoding unsafe.
    """
    n = cfg.n_nodes
    g_values = tuple(None if g is None else tuple(g) for g in g_values)
    missing = sum(1 for g in g_values if g is None)
    budget = cfg.b - missing if cfg.setting == "sync" else cfg.b
    if budget < 0:
        return g_values, None, "more silent nodes than fault budget"
    if 2 * budget > (n - missing) - cfg.degree_bound - 1:
        return g_values, None, "too few results to decode safely"
    for g in g_values:
        if g is not None and len(g) != cfg.flat_dim:
            return g_values, None, "malformed result vector"
    return g_values, budget, None


@dataclass(frozen=True)
class DecodeClaim:
    """A round's decoding: an agreement set, the recovered coefficient
    vectors (one per flat coordinate, padded to the composite degree bound
    plus one), and the decoded per-machine evaluations. A delegated
    decoder announces one for audit."""

    tau: tuple[int, ...]
    coeffs: tuple[tuple[int, ...], ...]
    evals: tuple[tuple[int, ...], ...]   # K rows, flat_dim columns

    def round_result(self, g_values, cfg: CodingConfig) -> RoundResult:
        sd = cfg.machine.state_dim
        return RoundResult(True, tuple(e[:sd] for e in self.evals),
                           tuple(e[sd:] for e in self.evals),
                           tuple(g_values), frozenset(self.tau))


def decode_claim(g_values, cfg: CodingConfig,
                 budget: int) -> DecodeClaim | None:
    """Decode every coordinate of checked result slots (see
    `decode_budget`); None when any coordinate is undecodable."""
    dim = cfg.flat_dim
    polys = []
    tau = None
    for j in range(dim):
        values = tuple(None if g is None else g[j] for g in g_values)
        cw = NoisyCodeword(cfg.field, cfg.alphas, values, cfg.degree_bound,
                           budget)
        try:
            res = decode(cw, cfg.poly_mode)
        except DecodeFailure:
            return None
        polys.append(res.poly)
        tau = res.agreement if tau is None else tau & res.agreement
    width = cfg.degree_bound + 1
    coeffs = tuple(tuple(p.coeffs) + (0,) * (width - len(p.coeffs))
                   for p in polys)
    per = [multipoint_eval(p, list(cfg.omegas), cfg.poly_mode)
           for p in polys]
    evals = tuple(tuple(per[j][mk] for j in range(dim))
                  for mk in range(cfg.k_machines))
    return DecodeClaim(tuple(sorted(tau)), coeffs, evals)


def decode_round(g_values, cfg: CodingConfig) -> RoundResult:
    """Recover next states and outputs from noisy per-node results.

    ``g_values[i]`` is node i's broadcast vector or None if nothing usable
    arrived. Missing slots consume error budget here because under bounded
    delay an honest node's message cannot be absent; callers in the
    eventually-synchronous setting instead pass the first N - b arrivals
    and None elsewhere, which this same arithmetic accepts.
    """
    n = cfg.n_nodes
    if len(g_values) != n:
        raise ValueError(f"need {n} result slots, got {len(g_values)}")
    g_values, budget, violation = decode_budget(g_values, cfg)
    if violation is not None:
        return RoundResult.failed(g_values, violation)
    claim = decode_claim(g_values, cfg, budget)
    if claim is None:
        return RoundResult.failed(g_values, DECODE_FAILURE)
    return claim.round_result(g_values, cfg)


def update_coded_states(decoded_states, cfg: CodingConfig):
    """Re-encode decoded next states; same map as the initial encoding."""
    return encode_states(decoded_states, cfg)


def client_decide(reports, b: int):
    """Pick the value reported identically by at least b+1 nodes, or
    None when no value reaches b+1 (`NO_QUORUM`).

    Safe when the deployment satisfies 2b+1 <= N (enforced at config
    time): at most b of the reports lie, so b+1 matching reports always
    include an honest one, and no wrong value can gather b+1 matches.
    """
    present = [tuple(r) for r in reports if r is not None]
    counts: dict[tuple, int] = {}
    for r in present:
        counts[r] = counts.get(r, 0) + 1
    if counts:
        best = max(counts.items(), key=lambda kv: kv[1])
        if best[1] >= b + 1:
            return best[0]
    return None


def client_outputs(pools, b: int):
    """`client_decide` on each machine's pool of reports: the outputs, None
    where none was decided, and (machine, reason) for each of those."""
    outputs = tuple(client_decide(pool, b) for pool in pools)
    return outputs, tuple((k, NO_QUORUM) for k, y in enumerate(outputs)
                          if y is None)
