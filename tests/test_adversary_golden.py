"""Golden adversary runs: what every Byzantine strategy does, pinned.

The values below were recorded before the tampering code was gathered
into ``simnet.tamper`` and ``AdversaryModel.send``; any rework of the
attack code must reproduce them exactly. Each small run pins its event-log
SHA-256, its throughput lambda, its per-phase (adds, muls, invs) and its
violation count, and each sweep pins its whole report.

The lambda and psi counts of the runs whose decoder leaves the optimistic
path (csm ``corrupt``, ``corrupt_random`` and ``equivocate`` under sync and
psync, both ``p2p-equivocate`` runs and ``boolcounter-binary-corrupt``)
were re-recorded when the Reed-Solomon decoder changed from
Berlekamp-Welch linear solves to Gao's decoder.  Every event-log digest,
violation count, sweep report and other run is unchanged.

The lambda and add counts of ``boolcounter-binary-corrupt``, the one
GF(2^m) run, were re-recorded again when the per-operation matrix-vector
product began each row's sum from its first product, charging k - 1 adds
per row of k entries as the prime fields always have.  Its digest, muls
and invs are unchanged.

The ``collude`` rows were added when that strategy, which the security
sweep had played on its own, joined the simulator's catalog.

The lambda and psi counts of both ``p2p-equivocate`` runs were
re-recorded when decoding began to charge every node, faulty receivers
included, instead of honest receivers only: psi went from
(2339550, 2353050, 15390) to (2599500, 2614500, 17100) under sync and from
(1925370, 1937520, 14040) to (2139300, 2152800, 15600) under psync, and
lambda from 3.8160e-4 to 3.4350e-4 and from 4.2467e-4 to 3.8229e-4.  They
now equal the broadcast ``csm-corrupt`` runs'.  Their event-log digests
are unchanged.

The lambda and rho counts of the eight ``{full,partial}-{corrupt,collude}``
runs were re-recorded when a faulty replica's tampering stopped being
charged as protocol work: rho went from (1950, 5580, 0) to (1860, 5580, 0)
under full replication and from (630, 1800, 0) to (600, 1800, 0) under
partial, and lambda from 0.061753 to 0.0625 and from 0.185185 to 0.1875.
Each now equals its ``none`` run.  Their event-log digests are unchanged.
"""

import hashlib
from fractions import Fraction

import pytest

from codedsm.harness import SweepReport, compute_metrics, sweep_security
from codedsm.simnet import ADVERSARIES, ExperimentConfig, run_experiment

MU = Fraction(1, 10)
DEPLOYMENTS = {
    "csm": dict(protocol="csm", n_nodes=30, degree=2, fault_fraction=MU),
    "full": dict(protocol="full", n_nodes=31, k_machines=3,
                 fault_fraction=MU),
    "partial": dict(protocol="partial", n_nodes=30, k_machines=3,
                    fault_fraction=MU),
}

RUNS = {
    f"{name}-{adversary}-{setting}": dict(
        kw, adversary=adversary, setting=setting, rounds=5, seed=3)
    for name, kw in DEPLOYMENTS.items()
    for adversary in ADVERSARIES
    for setting in ("sync", "psync")
}
RUNS.update({
    f"p2p-equivocate-{setting}": dict(
        DEPLOYMENTS["csm"], channel="p2p", adversary="equivocate",
        setting=setting, rounds=5, seed=3)
    for setting in ("sync", "psync")
})
RUNS.update({
    f"delegated-{adversary}": dict(
        protocol="csm", n_nodes=16, degree=1, fault_fraction=Fraction(1, 4),
        delegate=True, adversary=adversary, rounds=5, seed=3)
    for adversary in ("false_audit", "withhold", "dishonest_worker")
})
RUNS["boolcounter-binary-corrupt"] = dict(
    protocol="csm", n_nodes=30, machine="boolcounter", field_spec="binary:8",
    fault_fraction=MU, adversary="corrupt", rounds=5, seed=3)

# run -> (event-log SHA-256, lambda, violations,
#         {phase: (adds, muls, invs)})
GOLDEN_RUNS = {
    'boolcounter-binary-corrupt': (
        'f6130e885df78c87bf0ca0da7bfe08d5d9f1b44a2f50852b9ec6ab5cfd2d2b40',
        0.00023479506304247442, 0,
        {'chi': (3300, 3600, 0), 'psi': (3784080, 3842280, 25650),
         'rho': (2400, 4950, 0), 'setup': (660, 720, 0)}),
    'csm-collude-psync': (
        '1ddd9349b89d4cdc52baf04f0f6ffcd5bd7e33f83be2d9f0204d436c75224ed6',
        0.00038228956697018143, 0,
        {'chi': (1500, 1650, 0), 'psi': (2139300, 2152800, 15600),
         'rho': (1800, 3450, 0), 'setup': (300, 330, 0)}),
    'csm-collude-sync': (
        'c93392a700bdfd552c30a10a59508b082285b20821dc5c1fed57a31912171985',
        0.00034350489494475297, 0,
        {'chi': (1650, 1800, 0), 'psi': (2599500, 2614500, 17100),
         'rho': (1950, 3600, 0), 'setup': (330, 360, 0)}),
    'csm-corrupt-psync': (
        '5b9c08d7a47706e009c3d2ded5e9fd3c58961f59ef851855c6bed9e072a9a62f',
        0.00038228956697018143, 0,
        {'chi': (1500, 1650, 0), 'psi': (2139300, 2152800, 15600),
         'rho': (1800, 3450, 0), 'setup': (300, 330, 0)}),
    'csm-corrupt-sync': (
        'e091f425b27f3f588d082d1ac8d666e4a08a995a829507ee971a0c8eee348b1e',
        0.00034350489494475297, 0,
        {'chi': (1650, 1800, 0), 'psi': (2599500, 2614500, 17100),
         'rho': (1950, 3600, 0), 'setup': (330, 360, 0)}),
    'csm-corrupt_random-psync': (
        '523ab24dd851348a43c49a9793b86ae6be1aac78faae413632df804ad1d2ab67',
        0.00038228956697018143, 0,
        {'chi': (1500, 1650, 0), 'psi': (2139300, 2152800, 15600),
         'rho': (1800, 3450, 0), 'setup': (300, 330, 0)}),
    'csm-corrupt_random-sync': (
        '72404a04494d164ada06acbf9905b95e51349e242b2bf5ace854de41467e6a8c',
        0.00034350489494475297, 0,
        {'chi': (1650, 1800, 0), 'psi': (2599500, 2614500, 17100),
         'rho': (1950, 3600, 0), 'setup': (330, 360, 0)}),
    'csm-delay-psync': (
        '05684eb88e6c3f33a1f30e7940bf9eab81b20cd8f43bbc7349eaca3270143d39',
        0.001051625239005736, 0,
        {'chi': (1500, 1650, 0), 'psi': (773100, 781200, 6300),
         'rho': (1800, 3450, 0), 'setup': (300, 330, 0)}),
    'csm-delay-sync': (
        '9d3a803ea44a3f31cb99aadbbb69dc7e0868dfcebe2aaee3c3e43d3dbc2bb4a7',
        0.0009765625, 0,
        {'chi': (1650, 1800, 0), 'psi': (909600, 917700, 6900),
         'rho': (1950, 3600, 0), 'setup': (330, 360, 0)}),
    'csm-dishonest_worker-psync': (
        '753604ec2052299235e5f08a0ab0a39d6eba3adb97789ae9e442c99694679002',
        0.001051625239005736, 0,
        {'chi': (1500, 1650, 0), 'psi': (773100, 781200, 6300),
         'rho': (1800, 3450, 0), 'setup': (300, 330, 0)}),
    'csm-dishonest_worker-sync': (
        'd72bd9cfb3b0351909ca5f32ed36a0529ff77e9bf421607bde0dd43546823e87',
        0.0009555661729574773, 0,
        {'chi': (1650, 1800, 0), 'psi': (929400, 938400, 6900),
         'rho': (1950, 3600, 0), 'setup': (330, 360, 0)}),
    'csm-equivocate-psync': (
        '0d416432ae17fdac910adcf1dc67f91d4d282801df62c1d169b3a0e2b92204e9',
        0.00038228956697018143, 0,
        {'chi': (1500, 1650, 0), 'psi': (2139300, 2152800, 15600),
         'rho': (1800, 3450, 0), 'setup': (300, 330, 0)}),
    'csm-equivocate-sync': (
        '2aa703a98c4733f5fb4c83f2bccd8bbd1b38d1f83d509d1e1f2c44eee4c79b4e',
        0.00034350489494475297, 0,
        {'chi': (1650, 1800, 0), 'psi': (2599500, 2614500, 17100),
         'rho': (1950, 3600, 0), 'setup': (330, 360, 0)}),
    'csm-false_audit-psync': (
        '471c4270ff6cfff5907c57bb48be15b432c6a493f2536f696efc053063c52571',
        0.001051625239005736, 0,
        {'chi': (1500, 1650, 0), 'psi': (773100, 781200, 6300),
         'rho': (1800, 3450, 0), 'setup': (300, 330, 0)}),
    'csm-false_audit-sync': (
        'a397cd821b865eebac7c2911d603a9887e0a059bd3310c2495784a2dabe622b1',
        0.0009555661729574773, 0,
        {'chi': (1650, 1800, 0), 'psi': (929400, 938400, 6900),
         'rho': (1950, 3600, 0), 'setup': (330, 360, 0)}),
    'csm-none-psync': (
        'dc274693a79c66a8e09c5d77c76ba550974a610525315caed6e6f8e93eddf56f',
        0.001051625239005736, 0,
        {'chi': (1500, 1650, 0), 'psi': (773100, 781200, 6300),
         'rho': (1800, 3450, 0), 'setup': (300, 330, 0)}),
    'csm-none-sync': (
        'f8b119b6081752ea0690f6064fcff9048832a3a0f89d10bc576cbb468f97fb74',
        0.0009555661729574773, 0,
        {'chi': (1650, 1800, 0), 'psi': (929400, 938400, 6900),
         'rho': (1950, 3600, 0), 'setup': (330, 360, 0)}),
    'csm-withhold-psync': (
        'fede16603cb323fde0f5af79baba29e06c2a844a76fa74e83eac5ad0edeefea7',
        0.001051625239005736, 0,
        {'chi': (1500, 1650, 0), 'psi': (773100, 781200, 6300),
         'rho': (1800, 3450, 0), 'setup': (300, 330, 0)}),
    'csm-withhold-sync': (
        '43daa15ff422e5c153a7ba8d8377ee6d1474c108861bcccbd87a3eaf992ef2b0',
        0.0009765625, 0,
        {'chi': (1650, 1800, 0), 'psi': (909600, 917700, 6900),
         'rho': (1950, 3600, 0), 'setup': (330, 360, 0)}),
    'delegated-dishonest_worker': (
        '367f48062d5aec8d9cdd269a3ad01a1d771ea9617486ab650255a42237338c78',
        0.005715918833952558, 0,
        {'chi': (19254, 19224, 384), 'psi': (18742, 18968, 128),
         'rho': (17156, 17776, 336), 'setup': (112, 128, 0)}),
    'delegated-false_audit': (
        '97746837bcf24acad4a945b22b30416555b2216b5b84015d519a9f1268ab1038',
        0.009977861619531665, 0,
        {'chi': (9247, 9240, 184), 'psi': (12656, 12800, 80),
         'rho': (9559, 10192, 184), 'setup': (112, 128, 0)}),
    'delegated-withhold': (
        '36684b43fc5e15c3c0d788c991a684d5b266abe82cdf9191f637ae0048b0ac0c',
        0.008606777837547068, 0,
        {'chi': (12000, 12000, 240), 'psi': (12200, 12320, 80),
         'rho': (12320, 12960, 240), 'setup': (112, 128, 0)}),
    'full-collude-psync': (
        'dddba5791b3e6e6303e7c99cfbc08122abaa0c1cd24e377a2301e75d475408e4',
        0.0625, 0,
        {'rho': (1860, 5580, 0)}),
    'full-collude-sync': (
        '3e44b2e3e8815c16f7762540a7d716ddcae2d2b6b02f09baf43e1725214b3efd',
        0.0625, 0,
        {'rho': (1860, 5580, 0)}),
    'full-corrupt-psync': (
        'b2ffd84b18ff4d3b15c9f979ab9c30bfcc8313f5cc5426115220ca52a2e1e0d6',
        0.0625, 0,
        {'rho': (1860, 5580, 0)}),
    'full-corrupt-sync': (
        'e42f788c24f92edddac50fa5f4a98b482b53c3da14366b7e69e5ae890abb9246',
        0.0625, 0,
        {'rho': (1860, 5580, 0)}),
    'full-corrupt_random-psync': (
        'b82554f2abb16079c29e7b867055bc50e55cefc2623e1c4a13921e47d4064254',
        0.0625, 0,
        {'rho': (1860, 5580, 0)}),
    'full-corrupt_random-sync': (
        '6e92a733560394b84d534642d315d03993b4f66923d95057c438be4e0374d49a',
        0.0625, 0,
        {'rho': (1860, 5580, 0)}),
    'full-delay-psync': (
        'ea28d217f7e593e7aa8eaba4a50ae838913d3dd14ee7fe114b73434d4058f973',
        0.0625, 0,
        {'rho': (1860, 5580, 0)}),
    'full-delay-sync': (
        'd11f29147349c5c65f4fe61ea8af13e81d9c235fdd98572f9435c86ce17a2192',
        0.0625, 0,
        {'rho': (1860, 5580, 0)}),
    'full-dishonest_worker-psync': (
        'c2fd7f1e011a94efe39f060ffb24127afe0e8472839b56341422c0a37cb0247f',
        0.0625, 0,
        {'rho': (1860, 5580, 0)}),
    'full-dishonest_worker-sync': (
        'f8934b5d44cb0970778a68775cdd29b3e539e874805d204d062e1133b59fd6ac',
        0.0625, 0,
        {'rho': (1860, 5580, 0)}),
    'full-equivocate-psync': (
        '10fc04c4206de1cf8df4e8dd83d2e55694b9f4263a8ac0f6637b42b34773b523',
        0.0625, 0,
        {'rho': (1860, 5580, 0)}),
    'full-equivocate-sync': (
        '7f33c8fb912a715b583781053611e40a40eaee9be788908715ba577e2703240f',
        0.0625, 0,
        {'rho': (1860, 5580, 0)}),
    'full-false_audit-psync': (
        'fa219a722e04412424b54488d355466e3cedd88ab2ec0ca5736be655a12058f5',
        0.0625, 0,
        {'rho': (1860, 5580, 0)}),
    'full-false_audit-sync': (
        'b66215a877182f3d49845578ed3ae2b1b7f3973da591a84dfd05e893df90a24c',
        0.0625, 0,
        {'rho': (1860, 5580, 0)}),
    'full-none-psync': (
        '7bec303137d6a3077ee579029e5ee041e4f745113411441f05358eb9cb5b53f2',
        0.0625, 0,
        {'rho': (1860, 5580, 0)}),
    'full-none-sync': (
        'afcc056cc1f7aa84fb00bc4ed1ff25194fd339146cebc489acb479e3011d98be',
        0.0625, 0,
        {'rho': (1860, 5580, 0)}),
    'full-withhold-psync': (
        '923536dc2a3d40be67ba34d85fe82947af271381524ad7d0b078d670f0b5afcc',
        0.0625, 0,
        {'rho': (1860, 5580, 0)}),
    'full-withhold-sync': (
        '22472c9f2dd078a4b6301dcbfbb9fe067444109db9831908bc620f3219f85e24',
        0.0625, 0,
        {'rho': (1860, 5580, 0)}),
    'p2p-equivocate-psync': (
        '90aed0c791f8aea889c5ca02fbfd066a8f4b98df6cfe7ab3a4f8679117a1b710',
        0.00038228956697018143, 0,
        {'chi': (1500, 1650, 0), 'psi': (2139300, 2152800, 15600),
         'rho': (1800, 3450, 0), 'setup': (300, 330, 0)}),
    'p2p-equivocate-sync': (
        '1e8fdc790a385953ee6126b559432199d44a6d208322a7d119661c981851cf0b',
        0.00034350489494475297, 0,
        {'chi': (1650, 1800, 0), 'psi': (2599500, 2614500, 17100),
         'rho': (1950, 3600, 0), 'setup': (330, 360, 0)}),
    'partial-collude-psync': (
        'd45599989da4fb921f4ea1e295e66a2bfbdc14002da5ae360044ce3f237ca31a',
        0.1875, 0,
        {'rho': (600, 1800, 0)}),
    'partial-collude-sync': (
        '4ff25563448a847842e36b151e7051f9d156c8bf1dae2a50439e774900bb9bfe',
        0.1875, 0,
        {'rho': (600, 1800, 0)}),
    'partial-corrupt-psync': (
        '86a365ef03676974566292ce0c012133588762619ec7107d28650f7568e73833',
        0.1875, 0,
        {'rho': (600, 1800, 0)}),
    'partial-corrupt-sync': (
        '1f86fc91ba44073d2de6b19e2ed230f55c5f49084772b2983c705f0fb2f9d1ff',
        0.1875, 0,
        {'rho': (600, 1800, 0)}),
    'partial-corrupt_random-psync': (
        '6e1b87846574c97dfebf2fbaa43e5b24a5f8a150ce0482874fdca226ffe81b1d',
        0.1875, 0,
        {'rho': (600, 1800, 0)}),
    'partial-corrupt_random-sync': (
        '200fdd38afc458b8049d923b9555ad8ecb5c430b135668e284dcb25c1b7d4167',
        0.1875, 0,
        {'rho': (600, 1800, 0)}),
    'partial-delay-psync': (
        'df8f093d8b7f864c849ccdd2d1fc351c246768054104c568616fbf037ef4aeb3',
        0.1875, 0,
        {'rho': (600, 1800, 0)}),
    'partial-delay-sync': (
        '878431567e2bfea55dedbfaab9ef86fb2ebabf839c674645e09a33f266e05e88',
        0.1875, 0,
        {'rho': (600, 1800, 0)}),
    'partial-dishonest_worker-psync': (
        '952b1807ad8f05b4d68a818d031127f7e30d16e8c2f41d8a58faffe21a38b8f6',
        0.1875, 0,
        {'rho': (600, 1800, 0)}),
    'partial-dishonest_worker-sync': (
        '1c38395405a076108ca8953ef863ccbb8cc3f6f95252c2f68e9be0e611bd4292',
        0.1875, 0,
        {'rho': (600, 1800, 0)}),
    'partial-equivocate-psync': (
        'da5546545818a9a077cefe7d6c32415aef067f2b62e406f241af77656d8f3eb1',
        0.1875, 0,
        {'rho': (600, 1800, 0)}),
    'partial-equivocate-sync': (
        'b01c9d6e8642ba6b8d0d21463204923031515c1200ec9602a25210ff30bb38bc',
        0.1875, 0,
        {'rho': (600, 1800, 0)}),
    'partial-false_audit-psync': (
        'c9aed6d59ff164fd505cfa67e0e4129b79219d3576a403a5836563614969383c',
        0.1875, 0,
        {'rho': (600, 1800, 0)}),
    'partial-false_audit-sync': (
        'bbcc8b91342c64be80ef723fd0caf0285e0056c2402017f0d823c9a989bfaa11',
        0.1875, 0,
        {'rho': (600, 1800, 0)}),
    'partial-none-psync': (
        'ad60810e7740d2f3dde3444142b5a69b088677c72d66a4adb8c49bea5a208a00',
        0.1875, 0,
        {'rho': (600, 1800, 0)}),
    'partial-none-sync': (
        'd2de7d4b1b9210ead2fd4530d6ddec55a0855cd4b18519230a0b9f9564cc43e5',
        0.1875, 0,
        {'rho': (600, 1800, 0)}),
    'partial-withhold-psync': (
        'a6121cf62f2188035e986aee68edfaf4f0f9959ec9c455a9a048658b497e23f2',
        0.1875, 0,
        {'rho': (600, 1800, 0)}),
    'partial-withhold-sync': (
        '466017c23deaebe72efe7b4c83c0e271eda24fbc8159614bf35b6a5b3594558e',
        0.1875, 0,
        {'rho': (600, 1800, 0)}),
}


def _run_summary(name):
    res = run_experiment(ExperimentConfig(**RUNS[name]))
    digest = hashlib.sha256(res.log.to_jsonl().encode()).hexdigest()
    phases = {}
    for phase in sorted({ph for _, ph in res.board.counters}):
        c = res.board.get(phase=phase)
        phases[phase] = (c.adds, c.muls, c.invs)
    return digest, compute_metrics(res).lam, len(res.violations), phases


def test_golden_runs_cover_every_run():
    assert sorted(GOLDEN_RUNS) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_adversary_run(name):
    assert _run_summary(name) == GOLDEN_RUNS[name]


@pytest.mark.parametrize("name,lam", [("full", Fraction(1, 16)),
                                      ("partial", Fraction(3, 16))])
def test_replication_throughput_is_the_same_under_every_adversary(name,
                                                                  lam):
    # a faulty replica is charged what an honest one runs, never its lie
    for adversary in ADVERSARIES:
        for setting in ("sync", "psync"):
            config = ExperimentConfig(**RUNS[f"{name}-{adversary}-{setting}"])
            assert compute_metrics(run_experiment(config)).lam == lam


def _witness(b, strategy, clause):
    return {"b": b, "placement": list(range(b)), "strategy": strategy,
            "clause": clause, "round": 0}


# (protocol, N, K, d, setting) -> the sweep's report
GOLDEN_SWEEPS = {
    ("full", 5, 3, 1, "sync"):
        SweepReport(2, _witness(3, "withhold", "liveness")),
    ("partial", 6, 2, 1, "sync"):
        SweepReport(1, _witness(2, "withhold", "liveness")),
    ("csm", 10, 3, 2, "sync"):
        SweepReport(2, _witness(3, "withhold", "liveness")),
    ("full", 7, 1, 1, "psync"):
        SweepReport(3, _witness(4, "collude", "correctness")),
    ("csm", 9, 2, 1, "psync"):
        SweepReport(2, _witness(3, "corrupt", "liveness")),
}


@pytest.mark.parametrize("deployment", list(GOLDEN_SWEEPS))
def test_golden_sweep_report(deployment):
    protocol, n, k, d, setting = deployment
    report = sweep_security(ExperimentConfig(protocol, n, k, d,
                                             setting=setting))
    assert report == GOLDEN_SWEEPS[deployment]
