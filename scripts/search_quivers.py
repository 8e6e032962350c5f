#!/usr/bin/env python3
"""Sweep the period-2 defining equations up to a bound and dump solutions."""

import argparse
import sys
import time

from quiverperiod import ONE_CYCLE, TWO_CYCLE, Period2Spec, QuiverError, SearchJob, search
from quiverperiod.formats import quiver_to_json
from quiverperiod.quiver import _integer


def specs_for(n: int):
    for shape in (ONE_CYCLE, TWO_CYCLE):
        specs = (Period2Spec(n, shape, k) for k in range(2, n + 1))
        yield from filter(Period2Spec.in_canonical_range, specs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=5)
    parser.add_argument("--bound", type=int, default=2)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", default="-", help="output path ('-' = stdout)")
    args = parser.parse_args()

    try:
        # below 3 no job would be built, so --bound and --jobs would go unchecked
        _integer(args.max_n, "--max-n", least=3)
        jobs = [
            SearchJob(spec, args.bound, connected_only=True, jobs=args.jobs)
            for n in range(3, args.max_n + 1)
            for spec in specs_for(n)
        ]
        out = sys.stdout if args.out == "-" else open(args.out, "w")
    except QuiverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write {args.out!r}: {exc}", file=sys.stderr)
        return 2
    total = 0
    for job in jobs:
        spec = job.spec
        t0 = time.monotonic()
        hits = list(search(job))
        total += len(hits)
        print(
            f"n={spec.n} {spec.shape} k={spec.k}: {len(hits)} connected "
            f"solutions ({time.monotonic() - t0:.1f}s)",
            file=sys.stderr,
        )
        for B in hits:
            out.write(quiver_to_json(B) + "\n")
    print(f"total: {total}", file=sys.stderr)
    if out is not sys.stdout:
        out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
