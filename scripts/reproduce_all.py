#!/usr/bin/env python3
"""Run every verification section and print a summary table.

The theorem searches run on QUIVERPERIOD_JOBS worker processes (default 1),
as under `quiverperiod reproduce`.
"""

import argparse
import random
import sys
import time

from quiverperiod import QuiverError, verify_theorem
from quiverperiod.cli import SECTIONS, CliError, _default_jobs
from quiverperiod.quiver import _integer
from quiverperiod.reductions import SECTION_TAGS, verify_section


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dynamics-seeds", type=int, default=3)
    parser.add_argument("--horizon", type=int, default=30)
    args = parser.parse_args()
    try:
        _integer(args.horizon, "horizon", least=1)
        _integer(args.dynamics_seeds, "dynamics seeds", least=0)
        jobs = _default_jobs()
    except (CliError, QuiverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)

    def reports():
        for name, max_param, bound in SECTIONS.values():
            yield verify_theorem(name, max_param, search_bound=bound, jobs=jobs)
        for tag in SECTION_TAGS:
            yield verify_section(tag, seeds=args.dynamics_seeds, horizon=args.horizon, rng=rng)

    failures = 0
    print(f"random seed: {args.seed}")
    t0 = time.monotonic()
    for report in reports():
        bad = [line for line in report.lines() if line.startswith("[FAIL]")]
        failures += len(bad)
        print(
            f"{report.name:12s} {len(report.rows):4d} checks "
            f"{len(bad):3d} failed  {time.monotonic() - t0:6.1f}s"
        )
        for line in bad:
            print(f"    {line}")
        t0 = time.monotonic()
    print("all green" if failures == 0 else f"{failures} failures")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
