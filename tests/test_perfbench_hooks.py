"""The benchmark's tracer wraps names it looks up on codedsm's modules.

`perfbench/tracer.py` is imported as it is, and every name it wraps must
still resolve and still be called, so a refactor that renames or bypasses
one fails here rather than in a traced benchmark run.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import codedsm

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_site_resolves():
    tracer = _load_tracer()
    for module, name, _ in tracer.CALL_SITES:
        assert callable(getattr(getattr(codedsm, module), name)), \
            f"{module}.{name}"
    assert callable(codedsm.rs.agreement_set)
    assert callable(codedsm.simnet.consensus_oracle)
    assert callable(codedsm.machine.TransitionFunction.eval_all)


# Runs in a fresh interpreter, because installing the tracer patches
# codedsm's module globals for the rest of the process.
TRACED_RUNS = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import codedsm
from tracer import Tracer

runs = {
    "direct": dict(protocol="csm", n_nodes=10, degree=2, b=2,
                   adversary="corrupt"),
    "delegated": dict(protocol="csm", n_nodes=16, degree=1, b=4,
                      delegate=True),
    "p2p": dict(protocol="csm", n_nodes=10, degree=2, b=2, channel="p2p",
                adversary="equivocate"),
    "full": dict(protocol="full", n_nodes=7, k_machines=2, b=2,
                 adversary="corrupt"),
}
tracer = Tracer()
tracer.install(codedsm)
out = {}
for name, kw in runs.items():
    first = len(tracer.spans)
    result = codedsm.run_experiment(
        codedsm.ExperimentConfig(rounds=2, seed=3, **kw))
    tracer.finish(time.perf_counter())
    names = [span[1] for span in tracer.spans[first:]]
    out[name] = {"rounds_run": result.rounds_run,
                 "spans": {n: names.count(n) for n in set(names)}}
print(json.dumps(out))
"""

PATH_CALL_SITES = {
    "direct": ("csm.encode_states", "csm.encode_commands",
               "csm.execute_local", "csm.decode_round",
               "csm.update_coded_states"),
    "delegated": ("csm.encode_states", "csm.execute_local",
                  "intermix.delegated_encode", "intermix.delegated_decode",
                  "intermix.delegated_update"),
    "p2p": ("csm.encode_states", "csm.encode_commands", "csm.execute_local",
            "csm.decode_round", "csm.update_coded_states"),
    "full": ("baseline.run_replicated_round",),
}


def test_tracer_sees_every_layer_each_path_calls():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "perfbench"))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUNS, str(ROOT / "src")], env=env,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    for path, sites in PATH_CALL_SITES.items():
        spans = runs[path]["spans"]
        assert runs[path]["rounds_run"] == 2, path
        assert spans["simnet.round"] == 2, path
        for site in sites:
            assert spans.get(site, 0) >= 1, (path, site)
