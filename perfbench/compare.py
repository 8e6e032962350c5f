"""Compare result sets of two commits.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files written by run.py (perfbench/results/ of
each checkout).  For every workload, on its own rows: each side's median and
quartiles of every end-to-end metric, the fraction of parent/change pairs the
change wins, and a verdict; then per-layer deltas from the traced runs.
Pairs are matched by seed, so both sides must have run the same seeds; the
job-list digests of matched runs must agree, which shows the inputs were
identical.

Verdicts (ties count for neither side; spread = the wider side's quartile
distance over its median):
  improved    the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's quartile distance;
  worse       the change's median is worse by more than the metric's bound
              and the spread is within the bound;
  no worse    the change's median is within the bound and the spread is
              within the bound, or every change run beats every parent run;
  unresolved  otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> dict:
    """(workload, trace) -> {seed: record}"""
    out: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        prov = record["provenance"]
        out.setdefault((prov["workload"], prov["trace"]), {})[prov["seed"]] = record
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent, change, better: str, bound: float):
    """(verdict, win fraction) for paired values of one metric."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    win_frac = wins / len(parent)
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    spread = max(
        (pq3 - pq1) / abs(pmed) if pmed else 0.0,
        (cq3 - cq1) / abs(cmed) if cmed else 0.0,
    )
    worse_by = (sign * (pmed - cmed)) / abs(pmed) if pmed else 0.0
    if win_frac >= 0.9 and sign * (cmed - pmed) > (pq3 - pq1):
        return "improved", win_frac
    if worse_by > bound and spread <= bound:
        return "worse", win_frac
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if worse_by <= bound and (spread <= bound or all_better):
        return "no worse", win_frac
    return "unresolved", win_frac


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK.read_text())
    parent, change = load(argv[0]), load(argv[1])
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        pa, ch = parent.get((workload, 0), {}), change.get((workload, 0), {})
        seeds = sorted(set(pa) & set(ch))
        print(f"\n== {workload}: {len(seeds)} paired runs")
        if not seeds:
            continue
        mismatched = [
            s for s in seeds
            if pa[s]["provenance"]["job_list_digest"] != ch[s]["provenance"]["job_list_digest"]
        ]
        if mismatched:
            print(f"   job lists differ for seeds {mismatched}: inputs are not identical")
        print(f"   {'metric':14s} {'parent q1/med/q3':>32s} {'change q1/med/q3':>32s} {'wins':>6s}  verdict")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p = [pa[s]["result"]["metrics"][name]["value"] for s in seeds]
            c = [ch[s]["result"]["metrics"][name]["value"] for s in seeds]
            v, win = verdict(p, c, metric["better"], metric["bound"])
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
            print(f"   {name:14s} {fmt(quartiles(p)):>32s} {fmt(quartiles(c)):>32s} {win:6.2f}  {v}")
        pt, ct = parent.get((workload, 1), {}), change.get((workload, 1), {})
        if not (pt and ct):
            continue
        print(f"   per-layer medians over {len(pt)} / {len(ct)} traced runs")
        for metric in bench["per_layer"]:
            name = metric["name"]
            p = statistics.median(r["result"]["metrics"][name]["value"] for r in pt.values())
            c = statistics.median(r["result"]["metrics"][name]["value"] for r in ct.values())
            if p == c == 0:
                continue
            rel = f"{(c - p) / p:+.1%}" if p else "new"
            print(f"   {name:44s} {p:12.5g} -> {c:12.5g}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
