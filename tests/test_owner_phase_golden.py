"""Golden per-(owner, phase) counts: who is charged what, pinned.

The per-phase and per-role totals in the other golden tests would not
notice a charge moved from one auditor to another, or from a worker to an
auditor.  Each run here pins its event-log SHA-256, its throughput lambda,
and the SHA-256 of its sorted (owner, phase) -> (adds, muls, invs) map.
The values were recorded before delegated coding shared one computation of
each route among the roles that run it, and must not move.  The exception
is the two ``coded-corrupt`` runs' lambda and count digest, re-recorded
when the Reed-Solomon decoder changed from Berlekamp-Welch linear solves
to Gao's decoder: their decoder leaves the optimistic path, so their psi
counts moved.  Their event-log digests are unchanged.  The
``delegated-audit-7000`` lambda and count digest were re-recorded when the
honest auditor stopped recomputing the right half of each bisection level,
which it never reads, and a consistent liar's offset additions moved from
the querying auditor's count to the worker's; its event-log digest is
unchanged.

The runs are every benchmark workload (read from ``perfbench/workloads.py``
without importing ``perfbench`` as a package) at two experiment seeds,
three rounds each, the small delegated runs under every delegated-role
attack in both polynomial modes, and the point-to-point equivocation run
of ``test_adversary_golden.py`` under sync and psync.  Those two were
recorded after decoding began to charge every receiver, faulty ones
included.
"""

import hashlib
import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from codedsm.harness import compute_metrics
from codedsm.simnet import ExperimentConfig, run_experiment

WORKLOADS_FILE = (Path(__file__).resolve().parent.parent / "perfbench"
                  / "workloads.py")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


RUNS = {
    f"{name}-{seed}": dict(w.config, seed=seed, rounds=3)
    for name, w in _load_workloads().items()
    for seed in (7000, 1013000)
}
RUNS.update({
    f"delegated-{adversary}-{mode}": dict(
        protocol="csm", n_nodes=16, degree=1, fault_fraction=Fraction(1, 4),
        delegate=True, adversary=adversary, poly_mode=mode, rounds=5, seed=3)
    for adversary in ("false_audit", "withhold", "dishonest_worker")
    for mode in ("auto", "fast")
})
RUNS.update({
    f"p2p-equivocate-{setting}": dict(
        protocol="csm", n_nodes=30, degree=2, fault_fraction=Fraction(1, 10),
        channel="p2p", adversary="equivocate", setting=setting, rounds=5,
        seed=3)
    for setting in ("sync", "psync")
})

# run -> (event-log SHA-256, lambda, SHA-256 of the (owner, phase) counts)
GOLDEN = {
    'coded-corrupt-1013000': (
        'c799ca2de70de8111ac0c826b9c2e183cea7257fdb25cb63df892599fe923bc6',
        8.973190866672189e-05,
        '915517f1ea772f432d628f11061e8862f1645854604c272ac34b67cde6bf6526'),
    'coded-corrupt-7000': (
        'c9d8bce2c6ad1c284997bbfe22bee8c2d79ff6898b31b7bbb1f03d332c0946b8',
        8.973190866672189e-05,
        '915517f1ea772f432d628f11061e8862f1645854604c272ac34b67cde6bf6526'),
    'delegated-audit-1013000': (
        '1c0e0cdabe4e7e378c63e49565cab0990e267ae9e21dd82b7205996ff99790b8',
        0.0027473750484924417,
        '1d1aedb7b43c579c7dd5c35200d61238b63927d81586be5fb1de7cb7f6512372'),
    'delegated-audit-7000': (
        '1cba16c5194f61520b885c9f90a4ac4111c949f5ddfb56a90b12709b519525c7',
        0.0017638187492504025,
        '87bea6cf189a3ad5378c13020f8ce00884a8645d09bd75ebd2617aff96f53a67'),
    'delegated-dishonest_worker-auto': (
        '367f48062d5aec8d9cdd269a3ad01a1d771ea9617486ab650255a42237338c78',
        0.005715918833952558,
        '3b3cb7cff8c8592d166c9151de3a03ffc32eb2aa4718e182d529d30c7980d696'),
    'delegated-dishonest_worker-fast': (
        '367f48062d5aec8d9cdd269a3ad01a1d771ea9617486ab650255a42237338c78',
        0.001950494023564406,
        '7d690f9d9a7c31a3408bfcf6aa93551edc84ada22cb43c24cb8ab15b466a2fd8'),
    'delegated-false_audit-auto': (
        '97746837bcf24acad4a945b22b30416555b2216b5b84015d519a9f1268ab1038',
        0.009977861619531665,
        '70f7a2a958dae9d4accee3b274b01a6554bd2bc01a907d9abc2b6c764d988be5'),
    'delegated-false_audit-fast': (
        '97746837bcf24acad4a945b22b30416555b2216b5b84015d519a9f1268ab1038',
        0.0033278216287606984,
        '0421ac386d937cb6c956385bf93a255fcb7007e0bb7df1135dc9881b2c4fd645'),
    'delegated-withhold-auto': (
        '36684b43fc5e15c3c0d788c991a684d5b266abe82cdf9191f637ae0048b0ac0c',
        0.008606777837547068,
        '6e470e1ba3e83260e00938207135f97efb48350bb13b0bac96c95e1a688bf2b0'),
    'delegated-withhold-fast': (
        '36684b43fc5e15c3c0d788c991a684d5b266abe82cdf9191f637ae0048b0ac0c',
        0.002948901073584297,
        'cfc57ecbf25b2fa34e69aa5f9733e545dcc6085828555b7c73bca4af9d9a4d3e'),
    'p2p-equivocate-psync': (
        '90aed0c791f8aea889c5ca02fbfd066a8f4b98df6cfe7ab3a4f8679117a1b710',
        0.00038228956697018143,
        '01a4c14e27b154d786b8d208a4a9fbba4d8d20e98e672cc7cbbd09160d27dfc9'),
    'p2p-equivocate-sync': (
        '1e8fdc790a385953ee6126b559432199d44a6d208322a7d119661c981851cf0b',
        0.00034350489494475297,
        '400c0557271457ad04693b263e7e3ec6326bbafeca97aef3526954c9d6692437'),
    'replicated-1013000': (
        'f1c038b53e9f528c63b535c371593ee63751ef2684a047df952d6a6311a0fb7c',
        0.027548209366391185,
        'c864731ae6f602a8200dfeaca9794c837cf11300bee130ada505c48676e73be5'),
    'replicated-7000': (
        '4855483b0537ae79fec6734968c37fd1c308f678c8e6b0146935f68c3849a8b6',
        0.027548209366391185,
        'c864731ae6f602a8200dfeaca9794c837cf11300bee130ada505c48676e73be5'),
}


def _summary(name):
    res = run_experiment(ExperimentConfig(**RUNS[name]))
    log = hashlib.sha256(res.log.to_jsonl().encode()).hexdigest()
    counts = sorted([owner, phase, c.adds, c.muls, c.invs]
                    for (owner, phase), c in res.board.counters.items())
    owners = hashlib.sha256(json.dumps(counts).encode()).hexdigest()
    return log, compute_metrics(res).lam, owners


def test_golden_covers_every_run():
    assert sorted(GOLDEN) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_owner_phase_counts_pinned(name):
    assert _summary(name) == GOLDEN[name]
