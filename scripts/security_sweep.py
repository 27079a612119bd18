#!/usr/bin/env python3
"""Find the breaking fault count of each protocol by exhaustive attack.

For every protocol deployment given on the command line, searches all
corruption placements against the attack catalog (withhold, random
corruption, colluding corruption) with a growing Byzantine set, and
reports the largest count that never produced a violation together with
the witness run that broke the next size up.

Example:
    python scripts/security_sweep.py full:5:3 partial:6:2 csm:10:3:2
"""

import argparse

from codedsm.harness import sweep_security
from codedsm.simnet import ExperimentConfig


def parse_deployment(text: str):
    parts = text.split(":")
    if len(parts) < 3:
        raise argparse.ArgumentTypeError(
            f"expected protocol:N:K[:d], got {text!r}")
    protocol, n, k = parts[0], int(parts[1]), int(parts[2])
    d = int(parts[3]) if len(parts) > 3 else 1
    return protocol, n, k, d


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("deployments", nargs="+", type=parse_deployment,
                    metavar="protocol:N:K[:d]")
    ap.add_argument("--setting", choices=("sync", "psync"),
                    default="sync")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    for protocol, n, k, d in args.deployments:
        report = sweep_security(ExperimentConfig(
            protocol, n, k, d, setting=args.setting, seed=args.seed))
        label = f"{protocol} N={n} K={k} d={d}"
        print(f"{label}: beta = {report.beta}")
        if report.witness:
            w = report.witness
            print(f"  broken at b={w['b']} by {w['strategy']} on nodes "
                  f"{w['placement']} ({w['clause']})")
        else:
            print("  no violating run found up to b = N")


if __name__ == "__main__":
    main()
