"""Interactively verified matrix-vector products, and coding delegated to
an untrusted worker.

One worker broadcasts a claimed product Y = AX. A small random committee of
auditors each recomputes the product; an auditor that disagrees runs a
halving dispute over the offending row's inner product. The resulting
transcript pins the worker to a single scalar equality that any bystander
("commoner") can check with one or two field operations against the public
matrix, so the cheap verdict is available to everyone without trusting the
auditor either.

The same machinery verifies the coded-state pipeline when its encoding and
decoding work is delegated: encoding claims are products with the public
coding matrix, and a decode claim (coefficients plus an agreement set) is
checked as two product claims against public Vandermonde tables.

In delegated coding every honest role that recomputes a route (the
worker's interpolation and evaluation, each auditor's recomputation, each
committee member's counter-decode) runs the same public function on the
same broadcast inputs.  Within one ``delegated_*`` call such a route is
therefore computed once per distinct input, through a `Memo`, and every
role that runs it is charged what that one run counted: the counted cost
(and so lambda) still includes each auditor's full recomputation, only the
simulator's wall-clock work is shared.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field

from .csm import (
    DECODE_FAILURE,
    CodingConfig,
    DecodeClaim,
    RoundResult,
    decode_budget,
    decode_claim,
)
from .field import (ConfigurationError, CounterBoard, Field, Memo, OpCounter,
                    counting)
from .poly import DensePoly, interpolate, multipoint_eval
from .rs import decode  # noqa: F401  (perfbench/tracer.py wraps this name)


# ---------------------------------------------------------------------------
# committee election
# ---------------------------------------------------------------------------

def committee_size(eps: float, mu) -> int:
    """Smallest J with mu^J <= eps (at least 1 auditor always)."""
    if not 0 < eps < 1:
        raise ConfigurationError(f"eps must be in (0,1), got {eps}")
    mu = float(mu)
    if not 0 <= mu < 0.5:
        raise ConfigurationError(f"mu must be in [0, 1/2), got {mu}")
    if mu == 0:
        return 1
    j = max(1, math.ceil(math.log(eps) / math.log(mu)))
    # guard the ceil against float noise on exact powers
    while j > 1 and mu ** (j - 1) <= eps:
        j -= 1
    while mu ** j > eps:
        j += 1
    return j


@dataclass(frozen=True)
class AuditCommittee:
    members: tuple[int, ...]
    target_size: int


def elect_committee(n_nodes: int, mu, eps: float, beacon: random.Random,
                    worker: int) -> AuditCommittee:
    """Draw J distinct auditors, never including the worker node.

    The draw is uniform without replacement from a seeded public beacon,
    which keeps the all-Byzantine-committee probability at mu^J <= eps
    under the mu-fraction fault model. When fewer than J candidates exist
    the whole remaining network serves, which can only strengthen the
    committee.
    """
    j = committee_size(eps, mu)
    if not 0 <= worker < n_nodes:
        raise ConfigurationError("worker index out of range")
    if n_nodes < 2:
        raise ConfigurationError("need at least one non-worker node")
    pool = [i for i in range(n_nodes) if i != worker]
    members = tuple(sorted(beacon.sample(pool, min(j, len(pool)))))
    return AuditCommittee(members, j)


# ---------------------------------------------------------------------------
# segment products
# ---------------------------------------------------------------------------

def _segment_product(fld: Field, row, vector, lo: int, hi: int) -> int:
    acc = 0
    for k in range(lo, hi):
        acc = fld.add(acc, fld.mul(row[k], vector[k]))
    return acc


# ---------------------------------------------------------------------------
# worker
# ---------------------------------------------------------------------------

REPLY_POLICIES = ("truthful", "consistent", "random", "silent")


@dataclass(frozen=True)
class WorkerStrategy:
    """How a worker lies. ``deltas`` maps a row to (offset, anchor column):
    the claimed entry is truth+offset, and under the ``consistent`` reply
    policy the offset rides with whichever queried segment contains the
    anchor, so every sum check passes and only the final scalar differs.
    """

    deltas: dict[int, tuple[int, int]] = dc_field(default_factory=dict)
    reply: str = "truthful"
    seed: int = 0
    fail_claim: bool = False   # refuse to produce any claim at all

    def __post_init__(self):
        if self.reply not in REPLY_POLICIES:
            raise ConfigurationError(
                f"reply policy must be one of {REPLY_POLICIES}")

    @property
    def honest(self) -> bool:
        return not self.deltas and not self.fail_claim


HONEST = WorkerStrategy()


class Worker:
    """Holds the instance, broadcasts a claim, and answers range queries.

    ``claim_fn`` lets the honest computation run through a different route
    than a plain row-by-row product (the delegated coder interpolates and
    evaluates instead); the announced claim must still be a vector the
    audit can dispute against ``matrix`` and ``vector``.  Tampering is
    applied to a copy of what ``claim_fn`` returns, so a route shared with
    the auditors is never the announced claim.
    """

    def __init__(self, fld: Field, matrix, vector,
                 strategy: WorkerStrategy = HONEST, claim_fn=None,
                 board: CounterBoard | None = None, name: str = "worker",
                 phase: str = "audit"):
        self.field = fld
        self.matrix = matrix
        self.vector = tuple(vector)
        self.strategy = strategy
        self.claim_fn = claim_fn
        self.board = board
        self.name = name
        self.phase = phase
        self.reply_log: dict[tuple[int, int, int, int],
                             tuple[int, int] | None] = {}
        self._claim: tuple[int, ...] | None = None
        self._rng = random.Random(strategy.seed)

    def _scoped(self):
        if self.board is None:
            # a throwaway sink, so unscoped runs take the counted paths too
            return counting(OpCounter())
        return self.board.scope(self.name, self.phase)

    def claim(self) -> tuple[int, ...]:
        if self._claim is None:
            with self._scoped():
                honest = (tuple(self.claim_fn()) if self.claim_fn is not None
                          else self.field.kernels.matvec(self.matrix,
                                                         self.vector))
            out = list(honest)
            for row, (delta, _) in self.strategy.deltas.items():
                out[row] = self.field.add(out[row], delta)
            self._claim = tuple(out)
        return self._claim

    def answer(self, row: int, lo: int, mid: int,
               hi: int) -> tuple[int, int] | None:
        key = (row, lo, mid, hi)
        if key in self.reply_log:
            return self.reply_log[key]
        policy = self.strategy.reply
        if policy == "silent" and not self.strategy.honest:
            reply = None
        else:
            with self._scoped():
                left = _segment_product(self.field, self.matrix[row],
                                        self.vector, lo, mid)
                right = _segment_product(self.field, self.matrix[row],
                                         self.vector, mid, hi)
                if policy == "consistent" and row in self.strategy.deltas:
                    delta, anchor = self.strategy.deltas[row]
                    anchor %= len(self.vector)
                    if lo <= anchor < mid:
                        left = self.field.add(left, delta)
                    elif mid <= anchor < hi:
                        right = self.field.add(right, delta)
            if policy == "random" and not self.strategy.honest:
                left = self._rng.randrange(self.field.order)
                right = self._rng.randrange(self.field.order)
            reply = (left, right)
        self.reply_log[key] = reply
        return reply


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelRecord:
    lo: int
    mid: int
    hi: int
    parent_claim: int
    claim_left: int | None
    claim_right: int | None
    chosen: int | None  # 0 = left half, 1 = right half, None = stopped here


@dataclass(frozen=True)
class AuditTranscript:
    auditor: int
    claim: tuple[int, ...]
    row: int | None
    levels: tuple[LevelRecord, ...]
    alert: tuple | None  # ("sum", j) | ("scalar", col, claimed) |
    #                      ("nonresponsive", j)

    @property
    def accepted_by_auditor(self) -> bool:
        return self.alert is None and self.row is None

    @property
    def path(self) -> tuple[int, ...]:
        if self.row is None:
            return ()
        return (self.row,) + tuple(l.chosen for l in self.levels
                                   if l.chosen is not None)


def audit(fld: Field, matrix, vector, worker: Worker, auditor: int = 0,
          expected=None) -> AuditTranscript:
    """Honest auditor: recompute the product and chase any disagreement.

    ``expected`` injects the auditor's own recomputation when it was
    produced by a faster equivalent route; by default the product is
    recomputed here, which is the cost the worst-case bound charges.
    """
    claim = worker.claim()
    if expected is None:
        expected = fld.kernels.matvec(matrix, vector)
    expected = tuple(expected)
    if len(claim) != len(expected):
        return AuditTranscript(auditor, claim, 0, (),
                               ("nonresponsive", 0))
    row = None
    for i, (c, t) in enumerate(zip(claim, expected)):
        if c != t:
            row = i
            break
    if row is None:
        return AuditTranscript(auditor, claim, None, (), None)
    lo, hi = 0, len(vector)
    parent = claim[row]
    levels: list[LevelRecord] = []
    while hi - lo > 1:
        mid = lo + (hi - lo) // 2
        reply = worker.answer(row, lo, mid, hi)
        if reply is None:
            levels.append(LevelRecord(lo, mid, hi, parent, None, None, None))
            return AuditTranscript(auditor, claim, row, tuple(levels),
                                   ("nonresponsive", len(levels) - 1))
        c1, c2 = reply
        if fld.add(c1, c2) != parent:
            levels.append(LevelRecord(lo, mid, hi, parent, c1, c2, None))
            return AuditTranscript(auditor, claim, row, tuple(levels),
                                   ("sum", len(levels) - 1))
        # the halves sum to a wrong parent, so a true left half convicts
        # the right one and only the left needs recomputing
        t1 = _segment_product(fld, matrix[row], vector, lo, mid)
        side = 0 if c1 != t1 else 1
        levels.append(LevelRecord(lo, mid, hi, parent, c1, c2, side))
        if side == 0:
            parent, hi = c1, mid
        else:
            parent, lo = c2, mid
    return AuditTranscript(auditor, claim, row, tuple(levels),
                           ("scalar", lo, parent))


# ---------------------------------------------------------------------------
# commoner verdict
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    accepted: bool          # does the worker's claim still stand?
    reason: str
    blamed: str | None      # "worker" | "auditor" | None
    comparisons: int = 0


def _chain_consistent(tr: AuditTranscript, reply_log) -> tuple[bool, int]:
    """Do the transcript's claims match the broadcast record? Comparisons
    only; messages are authenticated so a fabricated quote is detectable.
    """
    comps = 0
    parent = tr.claim[tr.row]
    for rec in tr.levels:
        comps += 1
        if rec.parent_claim != parent:
            return False, comps
        logged = reply_log.get((tr.row, rec.lo, rec.mid, rec.hi), "?")
        comps += 1
        if logged == "?":
            return False, comps
        if logged is None:
            if rec.claim_left is not None or rec.claim_right is not None:
                return False, comps
        elif logged != (rec.claim_left, rec.claim_right):
            return False, comps
        if rec.chosen == 0:
            parent = rec.claim_left
        elif rec.chosen == 1:
            parent = rec.claim_right
    return True, comps


def commoner_check(tr: AuditTranscript, matrix, vector, fld: Field,
                   reply_log) -> Verdict:
    """Settle one transcript with O(1) field arithmetic.

    Everything except the single flagged equality is comparisons against
    public broadcast data, ``reply_log`` being the worker's broadcast
    replies; the flagged equality costs one addition or one
    multiplication.
    """
    if tr.alert is None:
        return Verdict(True, "all-auditors-true", None, comparisons=0)
    if tr.row is None or not (0 <= tr.row < len(matrix)):
        return Verdict(True, "reject-transcript", "auditor", comparisons=1)
    ok, comps = _chain_consistent(tr, reply_log)
    if not ok:
        return Verdict(True, "auditor-alert-dismissed", "auditor",
                       comparisons=comps)
    kind = tr.alert[0]
    if kind == "nonresponsive":
        j = tr.alert[1]
        if (j == len(tr.levels) - 1 and tr.levels
                and tr.levels[j].claim_left is None):
            return Verdict(False, "worker-nonresponsive", "worker",
                           comparisons=comps)
        return Verdict(True, "reject-transcript", "auditor",
                       comparisons=comps)
    if kind == "sum":
        j = tr.alert[1]
        if j != len(tr.levels) - 1 or not tr.levels:
            return Verdict(True, "reject-transcript", "auditor",
                           comparisons=comps)
        rec = tr.levels[j]
        if rec.claim_left is None or rec.claim_right is None:
            return Verdict(True, "reject-transcript", "auditor",
                           comparisons=comps)
        lhs = fld.add(rec.claim_left, rec.claim_right)  # 1 field op
        comps += 1
        if lhs != rec.parent_claim:
            return Verdict(False, f"inconsistency-at-level-{j + 1}",
                           "worker", comparisons=comps)
        return Verdict(True, "auditor-alert-dismissed", "auditor",
                       comparisons=comps)
    if kind == "scalar":
        col, claimed = tr.alert[1], tr.alert[2]
        comps += 1
        if not (0 <= col < len(vector)):
            return Verdict(True, "reject-transcript", "auditor",
                           comparisons=comps)
        truth = fld.mul(matrix[tr.row][col], vector[col])  # 1 field op
        comps += 1
        if truth != claimed:
            return Verdict(False, "final-scalar-mismatch", "worker",
                           comparisons=comps)
        return Verdict(True, "auditor-alert-dismissed", "auditor",
                       comparisons=comps)
    return Verdict(True, "reject-transcript", "auditor", comparisons=comps)


# ---------------------------------------------------------------------------
# one full verification session
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SessionResult:
    accepted: bool
    value: tuple[int, ...] | None
    reason: str
    transcripts: tuple[AuditTranscript, ...]
    verdicts: tuple[Verdict, ...]
    comparisons: int
    dismissed_auditors: tuple[int, ...]


def _false_alert_transcript(fld, matrix, vector, worker, auditor):
    """A lying auditor quotes real broadcast replies but alerts anyway."""
    claim = worker.claim()
    row = 0
    lo, hi = 0, len(vector)
    if hi - lo == 1:
        return AuditTranscript(auditor, claim, row, (),
                               ("scalar", lo, claim[row]))
    mid = lo + (hi - lo) // 2
    reply = worker.answer(row, lo, mid, hi)
    if reply is None:
        levels = (LevelRecord(lo, mid, hi, claim[row], None, None, None),)
        return AuditTranscript(auditor, claim, row, levels,
                               ("nonresponsive", 0))
    c1, c2 = reply
    levels = (LevelRecord(lo, mid, hi, claim[row], c1, c2, None),)
    return AuditTranscript(auditor, claim, row, levels, ("sum", 0))


def run_session(fld: Field, matrix, vector, worker: Worker,
                committee: AuditCommittee, auditor_strategy=None,
                board: CounterBoard | None = None,
                expected_fn=None, phase: str = "audit") -> SessionResult:
    """Broadcast a claim, audit it, and settle the verdict.

    ``auditor_strategy(node) -> str`` assigns each committee member one of
    the catalog behaviors. ``expected_fn()`` supplies an auditor's own
    recomputation route when the direct product is not the route being
    measured; it is called once per honest auditor, in that auditor's
    scope, and must charge the full route each time even when it returns a
    shared result.  ``phase`` names the protocol stage the verification
    work is accounted under.
    """
    board = board if board is not None else CounterBoard()
    if worker.board is None:
        worker.board = board
    strategy_of = auditor_strategy or (lambda node: "honest")
    claim = worker.claim()
    transcripts = []
    for node in committee.members:
        s = strategy_of(node)
        if s == "silent":
            continue
        with board.scope(f"auditor{node}", phase):
            if s == "honest":
                expected = expected_fn() if expected_fn is not None else None
                transcripts.append(
                    audit(fld, matrix, vector, worker, node, expected))
            elif s == "false-alert":
                transcripts.append(
                    _false_alert_transcript(fld, matrix, vector, worker,
                                            node))
            else:
                raise ConfigurationError(f"unknown auditor strategy {s!r}")
    verdicts = []
    comparisons = 0
    dismissed = []
    outcome = None
    for tr in transcripts:
        with board.scope("commoner", phase):
            v = commoner_check(tr, matrix, vector, fld, worker.reply_log)
        verdicts.append(v)
        comparisons += v.comparisons
        if v.blamed == "auditor":
            dismissed.append(tr.auditor)
        if not v.accepted and outcome is None:
            outcome = v.reason
    if outcome is not None:
        return SessionResult(False, None, outcome, tuple(transcripts),
                             tuple(verdicts), comparisons, tuple(dismissed))
    return SessionResult(True, claim, "all-auditors-true",
                         tuple(transcripts), tuple(verdicts), comparisons,
                         tuple(dismissed))


def intermix_cost(j_auditors: int, k_cols: int, n_nodes: int) -> int:
    """Worst-case field-operation budget for one verified product."""
    j = j_auditors
    c = 2 * n_nodes * k_cols
    lg = math.ceil(math.log2(k_cols)) if k_cols > 1 else 0
    return (j + 1) * c + 8 * j * k_cols + 3 * j * lg + n_nodes - j - 1


# ---------------------------------------------------------------------------
# delegated coding: one worker does the polynomial work, a committee checks
# ---------------------------------------------------------------------------

@dataclass
class Delegation:
    """Shared context for handing coding work to elected workers.

    ``worker_strategy_for`` and ``auditor_strategy_for`` map a node index
    to its behavior, so the same fault pattern drives both roles; nodes
    without an entry act honestly.
    """

    cfg: CodingConfig
    eps: float = 1e-3
    beacon: random.Random | int = 0
    board: CounterBoard | None = None
    worker_strategy_for: object = None   # node -> WorkerStrategy | None
    auditor_strategy_for: object = None  # node -> str | None

    def __post_init__(self):
        if not isinstance(self.beacon, random.Random):
            self.beacon = random.Random(self.beacon)
        if self.board is None:
            self.board = CounterBoard()

    def strategy(self, node: int) -> WorkerStrategy:
        if self.worker_strategy_for is None:
            return HONEST
        return self.worker_strategy_for(node) or HONEST

    def auditor_policy(self, node: int) -> str:
        if self.auditor_strategy_for is None:
            return "honest"
        return self.auditor_strategy_for(node) or "honest"


@dataclass(frozen=True)
class DelegationOutcome:
    accepted: bool
    value: object
    reason: str
    worker: int | None
    attempts: int
    comparisons: int
    rejected_workers: tuple[int, ...]


def _attempt_loop(dele: Delegation, task):
    """Elect workers until one's claim survives its committee.

    ``task(worker, strategy, committee) -> (ok, payload, reason, comps)``.
    A rejected worker is banned for the rest of the call, so the loop ends
    after at most N elections.
    """
    n = dele.cfg.n_nodes
    banned: set[int] = set()
    rejected: list[int] = []
    comparisons = 0
    reason = "no eligible worker remained"
    for attempt in range(1, n + 1):
        w = dele.beacon.choice([i for i in range(n) if i not in banned])
        committee = elect_committee(n, dele.cfg.fault_fraction, dele.eps,
                                    dele.beacon, w)
        ok, payload, reason, comps = task(w, dele.strategy(w), committee)
        comparisons += comps
        if ok:
            return DelegationOutcome(True, payload, reason, w, attempt,
                                     comparisons, tuple(rejected))
        banned.add(w)
        rejected.append(w)
    return DelegationOutcome(False, None, reason, None, len(rejected),
                             comparisons, tuple(rejected))


def delegated_encode(vectors, dele: Delegation,
                     phase: str = "rho") -> DelegationOutcome:
    """Verified re-encoding: N-point claims about K interpolated vectors.

    The honest worker interpolates each coordinate through the K data
    points and evaluates at the N storage points; auditors redo exactly
    that, so the audited cost tracks the claimed computation instead of a
    quadratic fallback product.  The route runs once per distinct column
    in this call, re-elections included, and the worker and every honest
    auditor that runs it are each charged its full count.
    """
    cfg = dele.cfg
    k, n = cfg.k_machines, cfg.n_nodes
    if len(vectors) != k:
        raise ValueError(f"need {k} vectors, got {len(vectors)}")
    dim = len(vectors[0])
    rows = cfg.coeffs
    omegas, alphas = list(cfg.omegas), list(cfg.alphas)
    routes = Memo()

    def eval_route(col):
        def build():
            poly = interpolate(zip(omegas, col), cfg.field, cfg.poly_mode)
            return tuple(multipoint_eval(poly, alphas, cfg.poly_mode))
        return routes.get(col, build)

    def task(w, strategy, committee):
        cols = [tuple(v[j] for v in vectors) for j in range(dim)]
        if strategy.fail_claim:
            return False, None, "worker-nonresponsive", 0
        per_node = [[0] * dim for _ in range(n)]
        comparisons = 0
        for j, col in enumerate(cols):
            worker = Worker(cfg.field, rows, col, strategy,
                            claim_fn=lambda c=col: eval_route(c),
                            board=dele.board, name=f"node{w}", phase=phase)
            res = run_session(cfg.field, rows, col, worker, committee,
                              auditor_strategy=dele.auditor_policy,
                              board=dele.board,
                              expected_fn=lambda c=col: eval_route(c),
                              phase=phase)
            comparisons += res.comparisons
            if not res.accepted:
                return False, None, res.reason, comparisons
            for i, y in enumerate(res.value):
                per_node[i][j] = y
        coded = tuple(tuple(r) for r in per_node)
        return True, coded, "all-auditors-true", comparisons

    return _attempt_loop(dele, task)


def delegated_update(decoded_states, dele: Delegation) -> DelegationOutcome:
    return delegated_encode(decoded_states, dele, phase="chi")


# -- decode claims ----------------------------------------------------------

def verify_decode_claim(g_values, claim: DecodeClaim, cfg: CodingConfig,
                        defender: int, committee_members, dele: Delegation,
                        reply: str = "truthful", phase: str = "psi",
                        routes: Memo | None = None) -> tuple[bool, str, int]:
    """Check an announced decode against public data via audited products.

    Two claims per coordinate: the coefficients must reproduce the agreed
    broadcast values on tau (a Vandermonde product pinned to public data),
    and the announced machine evaluations must be the same coefficients
    evaluated at the data points. Any two claims passing the agreement
    floor share enough points to force identical polynomials, so a
    fabricated claim always trips one of the products.

    The auditors' evaluations are shared through ``routes`` (a fresh
    `Memo` when None), keyed by the announced coefficients and the points,
    so a forged claim never meets an honest claim's entry.
    """
    cfg_f = cfg.field
    routes = Memo() if routes is None else routes
    g_values, budget, violation = decode_budget(g_values, cfg)
    if violation is not None:
        return False, violation, 0
    comparisons = 1
    present = frozenset(i for i, g in enumerate(g_values) if g is not None)
    if not set(claim.tau) <= present or len(set(claim.tau)) != len(claim.tau):
        return False, "agreement set not among present results", comparisons
    comparisons += 1
    if len(claim.tau) < len(present) - budget:
        return False, "agreement set below decoding floor", comparisons
    width = cfg.degree_bound + 1
    dim = cfg.flat_dim
    comparisons += 1
    if (len(claim.coeffs) != dim
            or any(len(c) != width for c in claim.coeffs)
            or len(claim.evals) != cfg.k_machines
            or any(len(e) != dim for e in claim.evals)):
        return False, "malformed decode claim", comparisons
    alphas_tau = tuple(cfg.alphas[i] for i in claim.tau)
    v_rows = cfg_f.kernels.power_table(alphas_tau, width)
    o_rows = cfg_f.kernels.power_table(cfg.omegas, width)
    strategy = WorkerStrategy(reply=reply) if reply != "truthful" else HONEST

    def eval_route(poly, points):
        return routes.get((poly.coeffs, points), lambda: tuple(
            multipoint_eval(poly, points, cfg.poly_mode)))

    for j in range(dim):
        b = claim.coeffs[j]
        agreed = tuple(g_values[i][j] for i in claim.tau)
        announced = tuple(claim.evals[mk][j] for mk in range(cfg.k_machines))
        poly = DensePoly(cfg_f, b)
        for rows, target, points in ((v_rows, agreed, alphas_tau),
                                     (o_rows, announced, cfg.omegas)):
            worker = Worker(cfg_f, rows, b, strategy,
                            claim_fn=lambda t=target: t,
                            board=dele.board, name=f"node{defender}",
                            phase=phase)
            res = run_session(
                cfg_f, rows, b, worker, committee_members,
                auditor_strategy=dele.auditor_policy, board=dele.board,
                expected_fn=lambda p=poly, pts=points: eval_route(p, pts),
                phase=phase)
            comparisons += res.comparisons
            if not res.accepted:
                return False, res.reason, comparisons
    return True, "all-auditors-true", comparisons


def _tampered_claim(claim: DecodeClaim, strategy: WorkerStrategy,
                    fld: Field) -> DecodeClaim:
    coeffs = [list(c) for c in claim.coeffs]
    for coord, (delta, anchor) in strategy.deltas.items():
        row = coeffs[coord % len(coeffs)]
        row[anchor % len(row)] = fld.add(row[anchor % len(row)], delta)
    return DecodeClaim(claim.tau, tuple(tuple(c) for c in coeffs),
                       claim.evals)


def delegated_decode(g_values, dele: Delegation) -> DelegationOutcome:
    """Round decoding done once by an elected worker, checked by audits.

    The outcome's value is the same round record direct decoding yields.
    A worker that announces a bogus claim, goes silent, or cries failure
    on a decodable round is unseated and a fresh worker elected; a round
    that genuinely cannot be decoded is reported as a violation once the
    committee concurs.

    The worker's honest decode and every honest member's counter-decode
    share one run, as do the auditors' evaluations across re-elections;
    each role is still charged the full count of what it runs.
    """
    cfg = dele.cfg
    g_values, budget, violation = decode_budget(g_values, cfg)
    if violation is not None:
        rr = RoundResult.failed(g_values, violation)
        return DelegationOutcome(True, rr, violation, None, 0, 0, ())
    routes = Memo()

    def honest_claim():
        return routes.get("decode",
                          lambda: decode_claim(g_values, cfg, budget))

    def task(w, strategy, committee):
        comparisons = 0
        if strategy.fail_claim and strategy.reply == "silent":
            return False, None, "worker-nonresponsive", comparisons
        with dele.board.scope(f"node{w}", "psi"):
            honest = honest_claim()
        announced = None if strategy.fail_claim else honest
        if announced is not None and strategy.deltas:
            announced = _tampered_claim(announced, strategy, cfg.field)
        if announced is None:
            # Claimed failure: the committee retries the decode itself and
            # any member that succeeds must defend its counterclaim.
            for node in committee.members:
                if dele.auditor_policy(node) != "honest":
                    continue
                with dele.board.scope(f"node{node}", "psi"):
                    counter = honest_claim()
                if counter is None:
                    continue
                others = AuditCommittee(
                    tuple(m for m in committee.members if m != node),
                    committee.target_size)
                ok, _, comps = verify_decode_claim(
                    g_values, counter, cfg, node, others, dele,
                    routes=routes)
                comparisons += comps
                if ok:
                    return False, None, "false failure claim", comparisons
            rr = RoundResult.failed(g_values, DECODE_FAILURE)
            return True, rr, "decode-failure-concurred", comparisons
        ok, reason, comps = verify_decode_claim(
            g_values, announced, cfg, w, committee, dele,
            reply=strategy.reply, routes=routes)
        comparisons += comps
        if not ok:
            return False, None, reason, comparisons
        return True, announced.round_result(g_values, cfg), reason, \
            comparisons

    out = _attempt_loop(dele, task)
    if not out.accepted:
        rr = RoundResult.failed(g_values, f"delegation failed: {out.reason}")
        return DelegationOutcome(False, rr, out.reason, None, out.attempts,
                                 out.comparisons, out.rejected_workers)
    return out
