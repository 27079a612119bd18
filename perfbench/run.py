"""codedsm benchmark: seeded workloads, timed per round, gated on correctness.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke] [--out DIR]

Each pass runs one seeded experiment in a fresh single-threaded process
(`child.py`). Passes repeat until `--seconds` have gone by and at least
`MIN_ROUNDS` rounds are pooled. With `--trace 0` the passes are untraced
and the run reports the end-to-end metrics; with `--trace 1` traced and
untraced passes alternate and the run reports the per-layer metrics and
the tracing overhead. `--smoke` runs two untraced passes and one traced
pass of a few rounds and reports both sets. `--workload all` runs every
workload in turn.

Every pass must finish every round without a violation, and passes that
repeat one experiment must give the same event-log SHA-256 and the same
lambda. Otherwise the run prints `correct: false` with no metrics and
exits 1. The last line of output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; see README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (DEFAULT_SEED, MIN_ROUNDS, SMOKE_ROUNDS, WORKLOADS,
                       experiment_seed)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "codedsm"

# A run starts no pass it expects to end later than this, whatever the
# round floor asks, so that it always exits well inside three minutes.
HARD_LIMIT_S = 150
MIN_PASSES = 3          # setup_s is the median of at least this many
SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS")}

END_TO_END_UNITS = {
    "setup_s": "s",
    "round_ms.p50": "ms",
    "round_ms.p90": "ms",
    "transitions_per_s": "1/s",
    "lambda": "transitions/op",
    "peak_rss_mb": "MB",
}

LAYERS = ("simnet", "csm", "rs", "poly", "intermix", "machine", "baseline")

PER_LAYER_UNITS = {
    "poly.interpolate.ms_per_round": "ms",
    "poly.interpolate.calls_per_round": "count",
    "poly.multipoint_eval.ms_per_round": "ms",
    "poly.multipoint_eval.calls_per_round": "count",
    "rs.decode.ms_per_call": "ms",
    "rs.decode.calls_per_round": "count",
    "rs.agreement_checks_per_decode": "count",
    "csm.decode_round.ms_per_round": "ms",
    "csm.decode_round.kernel_share": "ratio",
    "csm.encode.ms_per_round": "ms",
    "csm.execute.ms_per_round": "ms",
    "csm.encode_states.ms": "ms",
    "intermix.run_session.ms_per_round": "ms",
    "intermix.sessions_per_round": "count",
    "intermix.worker_acceptance_ratio": "ratio",
    "intermix.comparisons_per_round": "count",
    "ops.rho_per_round": "ops",
    "ops.psi_per_round": "ops",
    "ops.chi_per_round": "ops",
    "ops.commoner_per_round": "ops",
    "ops.auditor_per_round": "ops",
    "machine.eval_all.calls_per_round": "count",
    "machine.eval_all.us_per_call": "us",
    "baseline.round.ms_per_round": "ms",
    "simnet.events_per_round": "count",
    "simnet.log_bytes_per_round": "bytes",
    **{f"{layer}.self_ms_per_round": "ms" for layer in LAYERS},
    "trace.overhead_ms": "ms",
    "trace.spans_per_round": "count",
}


class PassError(RuntimeError):
    """A pass crashed or printed no result."""


def run_pass(workload: str, seed: int, rounds: int, traced: bool,
             trace_file: Path | None, timeout: float) -> dict:
    cmd = [sys.executable, "-E", "-s", str(HERE / "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--rounds", str(rounds), "--trace", str(int(traced))]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout,
                              env={**os.environ, **SINGLE_THREAD})
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{workload} pass exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{workload} pass exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def pass_plan(trace: bool, smoke: bool):
    """(traced, experiment index) of each pass, in order, without end.

    Pass 1 repeats pass 0's experiment, which is the repeat the
    correctness gate compares; later passes run new experiments, so a run
    pools more distinct rounds. Trace runs pair an untraced and a traced
    pass of each experiment, so the overhead compares like with like and
    the gate also checks that tracing leaves the event log unchanged.
    """
    if smoke:
        yield from ((False, 0), (False, 0), (True, 0))
        return
    i = 0
    while True:
        if trace:
            yield i % 2 == 1, i // 2
        else:
            yield False, max(0, i - 1)
        i += 1


def min_passes(workload: str, trace: bool) -> int:
    floor = max(MIN_PASSES, math.ceil(MIN_ROUNDS /
                                      WORKLOADS[workload].rounds_per_pass))
    return max(4, floor) if trace else floor


def run_passes(workload: str, seed: int, seconds: float, trace: bool,
               smoke: bool, out_dir: Path) -> list[tuple[bool, int, dict]]:
    """Run passes of one workload; return (traced, index, result) each.

    Passes continue until `seconds` have gone by, but never stop below the
    floor from `min_passes` (smoke runs stop after their three passes).
    """
    wl = WORKLOADS[workload]
    rounds = SMOKE_ROUNDS if smoke else wl.rounds_per_pass
    floor = 3 if smoke else min_passes(workload, trace)
    trace_file = out_dir / f"trace-{workload}-seed{seed}.jsonl"
    start = time.perf_counter()
    passes: list[tuple[bool, int, dict]] = []
    last = 0.0
    for traced, index in pass_plan(trace, smoke):
        elapsed = time.perf_counter() - start
        if len(passes) >= floor and elapsed + last > seconds:
            break
        if passes and elapsed + last > HARD_LIMIT_S:
            break
        t = time.perf_counter()
        res = run_pass(workload, experiment_seed(seed, index), rounds,
                       traced, trace_file if traced else None,
                       HARD_LIMIT_S + 20 - elapsed)
        last = time.perf_counter() - t
        passes.append((traced, index, res))
    return passes


def gate(passes: list[tuple[bool, int, dict]]) -> list[str]:
    """Reasons the run's outputs are wrong; empty when they are right."""
    problems = []
    for i, (_, _, p) in enumerate(passes):
        if not p["ok"] or p["failed_rounds"]:
            problems.append(f"pass {i}: {p['failed_rounds']} failed rounds, "
                            f"violations {p['violations'][:3]}")
    for index in sorted({index for _, index, _ in passes}):
        repeats = [p for _, i, p in passes if i == index]
        if len({p["log_sha256"] for p in repeats}) != 1:
            problems.append(f"experiment {index}: repeats gave different "
                            "event-log digests")
        if len({p["lambda"] for p in repeats}) != 1:
            problems.append(f"experiment {index}: repeats gave different "
                            "lambda values")
    return problems


def _p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def _round_ms(passes: list[dict]) -> list[float]:
    return [s * 1000 for p in passes for s in p["round_s"]]


def end_to_end(passes: list[dict], lams: list[float]) -> dict:
    samples = _round_ms(passes)
    completed = sum(p["rounds_run"] for p in passes)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "round_ms.p50": statistics.median(samples),
        "round_ms.p90": _p90(samples),
        "transitions_per_s": passes[0]["k"] * completed * 1000 / sum(samples),
        "lambda": statistics.fmean(lams),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def _summed(traced: list[dict], key: str) -> dict:
    total: dict[str, float] = {}
    for p in traced:
        for name, v in p["trace"][key].items():
            total[name] = total.get(name, 0) + v
    return total


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    rounds = len(_round_ms(traced))
    completed = sum(p["rounds_run"] for p in traced)
    calls = _summed(traced, "calls")
    incl = _summed(traced, "incl_s")
    setup = _summed(traced, "setup_s")
    layer_self = _summed(traced, "layer_self_s")
    scalars = {k: sum(p["trace"][k] for p in traced)
               for k in ("spans", "kernel_in_decode_s", "agreement_checks",
                         "accepted_outcomes", "attempts", "comparisons")}
    ops = {k: sum(p["ops"][k] for p in traced) for k in traced[0]["ops"]}

    def per_round(value):
        return value / rounds

    def ms(name):
        return incl.get(name, 0.0) * 1000 / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    decodes = calls.get("rs.decode", 0)
    evals = calls.get("machine.eval_all", 0)
    m = {
        "poly.interpolate.ms_per_round": ms("poly.interpolate"),
        "poly.interpolate.calls_per_round":
            per_round(calls.get("poly.interpolate", 0)),
        "poly.multipoint_eval.ms_per_round": ms("poly.multipoint_eval"),
        "poly.multipoint_eval.calls_per_round":
            per_round(calls.get("poly.multipoint_eval", 0)),
        "rs.decode.ms_per_call":
            ratio(incl.get("rs.decode", 0.0) * 1000, decodes),
        "rs.decode.calls_per_round": per_round(decodes),
        "rs.agreement_checks_per_decode":
            ratio(scalars["agreement_checks"], decodes),
        "csm.decode_round.ms_per_round": ms("csm.decode_round"),
        "csm.decode_round.kernel_share":
            ratio(scalars["kernel_in_decode_s"],
                  incl.get("csm.decode_round", 0.0)),
        "csm.encode.ms_per_round":
            ms("csm.encode_commands") + ms("csm.update_coded_states"),
        "csm.execute.ms_per_round": ms("csm.execute_local"),
        "csm.encode_states.ms":
            setup.get("csm.encode_states", 0.0) * 1000 / len(traced),
        "intermix.run_session.ms_per_round": ms("intermix.run_session"),
        "intermix.sessions_per_round":
            per_round(calls.get("intermix.run_session", 0)),
        "intermix.worker_acceptance_ratio":
            ratio(scalars["accepted_outcomes"], scalars["attempts"]),
        "intermix.comparisons_per_round": per_round(scalars["comparisons"]),
        **{f"ops.{k}_per_round": ratio(v, completed)
           for k, v in ops.items()},
        "machine.eval_all.calls_per_round": per_round(evals),
        "machine.eval_all.us_per_call":
            ratio(incl.get("machine.eval_all", 0.0) * 1e6, evals),
        "baseline.round.ms_per_round": ms("baseline.run_replicated_round"),
        "simnet.events_per_round":
            ratio(sum(p["events"] for p in traced), completed),
        "simnet.log_bytes_per_round":
            ratio(sum(p["log_bytes"] for p in traced), completed),
        **{f"{layer}.self_ms_per_round":
           layer_self.get(layer, 0.0) * 1000 / rounds for layer in LAYERS},
        "trace.overhead_ms": statistics.median(_round_ms(traced))
        - statistics.median(_round_ms(untraced)),
        "trace.spans_per_round": per_round(scalars["spans"]),
    }
    return m


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(numpy_version: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(PACKAGE.glob("*.py"))),
    }


def _with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def bench(workload: str, seed: int, seconds: float, trace: bool,
          smoke: bool, out_dir: Path) -> dict:
    """One workload's result object, also written to ``out_dir``."""
    passes = run_passes(workload, seed, seconds, trace, smoke, out_dir)
    attempted = sum(p["rounds_requested"] for _, _, p in passes)
    failed = sum(p["failed_rounds"] for _, _, p in passes)
    problems = gate(passes)
    untraced = [p for t, _, p in passes if not t]
    traced = [p for t, _, p in passes if t]
    # lambda is counted, so it must not depend on how many passes the
    # host's speed allowed: average it over the experiments of the floor
    floor = passes[:3 if smoke else min_passes(workload, trace)]
    lams = list({i: p["lambda"] for _, i, p in floor}.values())
    metrics = {}
    if not problems:
        if smoke or not trace:
            metrics.update(_with_units(end_to_end(untraced, lams),
                                       END_TO_END_UNITS))
        if smoke or trace:
            metrics.update(_with_units(per_layer(traced, untraced),
                                       PER_LAYER_UNITS))
    for problem in problems:
        print(f"{workload}: {problem}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    detail = {
        "workload": workload, "seed": seed, "trace": trace, "smoke": smoke,
        "environment": environment(passes[0][2]["numpy"]),
        "problems": problems,
        "passes": [{"traced": t, "index": i,
                    **{k: v for k, v in p.items() if k != "trace"}}
                   for t, i, p in passes],
        "result": result,
    }
    mode = "smoke" if smoke else f"trace{int(trace)}"
    (out_dir / f"result-{workload}-seed{seed}-{mode}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print("# env " + json.dumps(detail["environment"]))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark codedsm on seeded workloads.")
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few rounds per pass; report every metric")
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench-out",
                        help="directory for result and span files")
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no codedsm sources at {PACKAGE}", file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = bench(name, args.seed, args.seconds,
                                  bool(args.trace), args.smoke, args.out)
            if len(names) > 1:
                print(f"# {name} " + json.dumps(results[name]))
    except PassError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": v
                        for name, r in results.items()
                        for metric, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
