"""One pass of a benchmark workload: one seeded experiment in this process.

Run by `run.py`, once per pass, in a fresh interpreter:

    python3 perfbench/child.py --workload NAME --seed N --rounds R \
        --trace 0|1 [--trace-file PATH]

It imports `codedsm` from the `src/` directory next to this one (and
refuses any other copy), runs the experiment through the same public calls
as `codedsm run` (`run_experiment`, then `compute_metrics`), and prints one
JSON object on its last line of output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from tracer import RoundClock, Tracer
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_codedsm():
    sys.path.insert(0, str(SRC))
    import codedsm
    where = Path(codedsm.__file__).resolve().parent
    if where != SRC / "codedsm":
        raise SystemExit(f"imported codedsm from {where}, not {SRC}")
    return codedsm


def _failed_rounds(result, requested: int) -> int:
    """Rounds that recorded a violation or were never reached."""
    bad = {v["round"] for v in result.violations}
    bad.update(range(result.rounds_run, requested))
    return len(bad)


def _layer_facts(result) -> dict:
    """Counted work of the run: field operations per phase and per owner
    scope, and the size of the event log."""
    board = result.board
    owners: dict[str, int] = {"commoner": 0, "auditor": 0}
    for (owner, _), counter in board.counters.items():
        for prefix in owners:
            if owner.startswith(prefix):
                owners[prefix] += counter.total()
    return {
        "ops": {**{ph: board.get(phase=ph).total()
                   for ph in ("rho", "psi", "chi")}, **owners},
        "events": len(result.log.events),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    clock = Tracer() if args.trace else RoundClock()
    t0 = time.perf_counter()
    codedsm = _import_codedsm()
    clock.install(codedsm)
    cfg = codedsm.ExperimentConfig(seed=args.seed, rounds=args.rounds,
                                   **workload.config)
    result = codedsm.run_experiment(cfg)
    t_end = time.perf_counter()
    clock.finish(t_end)

    record = codedsm.compute_metrics(result)
    log_text = result.log.to_jsonl()
    out = {
        "numpy": sys.modules["numpy"].__version__,
        "setup_s": clock.starts[0] - t0 if clock.starts else None,
        "round_s": clock.round_seconds(t_end),
        "rounds_requested": args.rounds,
        "rounds_run": result.rounds_run,
        "failed_rounds": _failed_rounds(result, args.rounds),
        "violations": result.violations,
        "ok": result.ok,
        "k": result.k_machines,
        "lambda": record.lam,
        "log_sha256": hashlib.sha256(log_text.encode()).hexdigest(),
        "log_bytes": len(log_text.encode()),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        **_layer_facts(result),
    }
    if args.trace:
        out["trace"] = clock.summary()
        if args.trace_file is not None:
            clock.write(args.trace_file)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
