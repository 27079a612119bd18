"""The benchmark's tracer wraps names it looks up on codedsm's modules.

`perfbench/tracer.py` is imported as it is, and every name it wraps must
still resolve, so a refactor that renames one fails here rather than in a
traced benchmark run.
"""

import importlib.util
from pathlib import Path

import codedsm

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
