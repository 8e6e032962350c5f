"""Run one benchmark workload against the quiverperiod sources of this
checkout and print its metrics.

    python3 perfbench/run.py --workload laurent --seed 1 --seconds 30 --trace 0

One process, jobs=1, no pool.  The job list is drawn from the seed and run
back to back as a closed loop (each job starts when the previous one ends);
a pass is one run of the whole list, and passes repeat while the next one
fits in --seconds.  Only calls into quiverperiod are timed.  Every output is
checked afterwards against its committed digest, plus a seeded check by the
benchmark's own routes.  With --trace 1, untraced and traced passes alternate
and the per-layer metrics come from the traced ones.  Times are normalised
to a reference host speed by a kernel run between jobs (see hostspeed.py).

The last line of standard output is one JSON object; the lines before it are
a table for people.  A result file with provenance goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE_DIR = ROOT / "src" / "quiverperiod"
RESULTS = HERE / "results"
SETUP_REPEATS = 9

sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


class BenchError(Exception):
    pass


def import_package():
    """A fresh import of quiverperiod from this checkout's src/."""
    if not (PACKAGE_DIR / "__init__.py").is_file():
        raise BenchError(f"no quiverperiod sources at {PACKAGE_DIR}")
    src = str(PACKAGE_DIR.parent)
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "quiverperiod" or m.startswith("quiverperiod.")]:
        del sys.modules[name]
    qp = importlib.import_module("quiverperiod")
    if Path(qp.__file__).resolve().parent != PACKAGE_DIR.resolve():
        raise BenchError(f"imported quiverperiod from {qp.__file__}, not from this checkout")
    return qp


def warm_up(qp):
    """One small call into each layer the workloads use."""
    fid, spec, B = qp.regression_instances(0)[0]
    qp.laurent_check(B, spec, 2)
    list(qp.search(qp.SearchJob(spec, 1)))
    tsys = qp.extract_system(B, spec, "T")
    qp.tabulate_system(B, spec, "T")
    qp.iterate_system(tsys, qp.initial_window_from_seed(tsys, [2] * B.n), 4)


def set_up(workload: str, seed: int, reference: dict):
    t0 = time.perf_counter()
    qp = import_package()
    catalogue = wl.Catalogue(qp)
    jobs = [catalogue.job(key) for key in wl.draw(workload, seed, reference)]
    warm_up(qp)
    return time.perf_counter() - t0, jobs


def run_pass(jobs, digests, rng=None, tracer=None, clock=None):
    """((start, end) of each job, failed jobs) of one pass.  With `clock`,
    host-speed samples are taken between jobs.  Each output is checked
    against its digest, and by the seeded check when `rng` is given, right
    after its job and outside the timed part; it is dropped before the next
    job starts, so peak memory is the program's, not the pass's."""
    intervals, failed = [], 0
    for job in jobs:
        if clock is not None:
            clock.tick()
        if tracer is not None:
            tracer.job = job.key
        t0 = time.perf_counter()
        try:
            out = job.run()
        except Exception as exc:  # a failing job is counted, not fatal
            out = exc
        intervals.append((t0, time.perf_counter()))
        ok = not isinstance(out, Exception) and wl.digest(job.output(out)) == digests[job.key]
        if ok and rng is not None and job.check is not None:
            ok = job.check(out, rng)
        failed += not ok
        del out
    if clock is not None:
        clock.sample()
    return intervals, failed


def p90(values) -> float:
    """Harrell-Davis estimate of the 90th percentile: the mean of the order
    statistics weighted by the Beta(0.9 (n+1), 0.1 (n+1)) mass of their
    cells.  The sample quantile rests on the two values next to it and jumps
    with their noise; this estimate rests on every value near it."""
    x = sorted(values)
    n = len(x)
    a, b = 0.9 * (n + 1), 0.1 * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 8  # midpoint rule inside each cell of width 1/n
    weights = []
    for i in range(n):
        ts = [(i + (j + 0.5) / steps) / n for j in range(steps)]
        weights.append(
            sum(math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta) for t in ts)
        )
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def job_latencies(per_pass_latencies) -> list[float]:
    """Each job's median latency across passes.  The host's speed drifts by
    tens of percent within seconds, and per-job medians drop a pass's slow
    stretch where the median of pass totals would keep it."""
    return [statistics.median(lats) for lats in zip(*per_pass_latencies)]


def list_time(per_pass_latencies) -> float:
    """Time to finish the job list: the sum of the per-job latencies."""
    return sum(job_latencies(per_pass_latencies))


def measure(jobs, seconds: float, digests, seed: int, trace: bool, clock):
    """Run passes while the next one fits in `seconds` of measured time.
    With `trace`, passes alternate untraced and traced (always one of each).
    Each side keeps the job intervals of every pass; `latencies` are filled
    in afterwards, normalised by `clock`."""
    rng = random.Random(f"check|{seed}")
    plain = {"times": [], "intervals": []}
    traced = {"times": [], "intervals": [], "layers": [], "spans": None}
    attempted = failed = 0
    used = last = 0.0
    while True:
        n_pass = len(plain["times"]) + len(traced["times"])
        tracer = tracing.Tracer() if trace and n_pass % 2 == 1 else None
        if tracer is not None:
            installed = tracing.Installed(tracer)
            try:
                intervals, bad = run_pass(jobs, digests, tracer=tracer, clock=clock)
            finally:
                installed.remove()
            side = traced
            traced["layers"].append(tracing.pass_metrics(tracer))
            if traced["spans"] is None:
                traced["spans"] = tracer.spans
        else:
            intervals, bad = run_pass(jobs, digests, rng if n_pass == 0 else None, clock=clock)
            side = plain
        last = sum(end - start for start, end in intervals)
        side["times"].append(last)
        side["intervals"].append(intervals)
        attempted += len(jobs)
        failed += bad
        used += last
        need_traced = trace and not traced["times"]
        if not need_traced and used + last > seconds:
            break
    for side in (plain, traced):
        side["latencies"] = [clock.scale(intervals) for intervals in side["intervals"]]
    return plain, traced, attempted, failed


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _git(*args):
    try:
        res = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, keys) -> dict:
    sha = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = _git("status", "--porcelain", "--", "src") if sha else None
    src = hashlib.sha256()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "source_digest": src.hexdigest()[:32],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": len(keys),
        "job_list_digest": wl.list_digest(keys),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        reference = wl.load_reference()
        clock = hostspeed.Clock(wl.HOST_KERNEL[args.workload])
        setups = []
        for _ in range(SETUP_REPEATS):
            jobs = None
            gc.collect()  # the previous set-up's modules and inputs
            clock.sample()
            start = time.perf_counter()
            dt, jobs = set_up(args.workload, args.seed, reference)
            setups.append((start, start + dt))
            clock.sample()
        digests = reference[args.workload]["digests"]
        plain, traced, attempted, failed = measure(
            jobs, args.seconds, digests, args.seed, bool(args.trace), clock
        )
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wall = list_time(plain["latencies"])
    end_to_end = {
        "setup_s": (statistics.median(clock.scale(setups)), "s"),
        "wall_s": (wall, "s"),
        "job_p90_s": (p90(job_latencies(plain["latencies"])), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ok_ratio": (1 - failed / attempted, "ratio"),
    }
    shown = dict(
        end_to_end,
        failed_ratio=(failed / attempted, "ratio"),
        raw_setup_s=(statistics.median(end - start for start, end in setups), "s"),
        raw_wall_s=(list_time([[e - s for s, e in iv] for iv in plain["intervals"]]), "s"),
        host_kernel_ms=(1000 * statistics.median(clock.costs), "ms"),
    )
    metrics = end_to_end
    if args.trace:
        per_layer = {
            name: statistics.median(p[name] for p in traced["layers"])
            for name in traced["layers"][0]
        }
        t_wall = list_time(traced["latencies"])
        per_layer["trace.untraced_wall_s"] = wall
        per_layer["trace.traced_wall_s"] = t_wall
        per_layer["trace.overhead_s"] = t_wall - wall
        units = _units()
        metrics = {name: (value, units[name]) for name, value in per_layer.items()}
        shown.update(metrics)

    keys = [job.key for job in jobs]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {
        "provenance": provenance(args, keys),
        "result": result,
        "all_metrics": {name: {"value": v, "unit": u} for name, (v, u) in shown.items()},
        "setup_intervals": setups,
        "pass_times": plain["times"],
        "traced_pass_times": traced["times"],
        "job_latencies": plain["latencies"],
        "job_intervals": plain["intervals"],
        "host_samples": list(zip(clock.times, clock.costs)),
        "job_keys": keys,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if traced["spans"] is not None:
        with open(RESULTS / f"{stem}-spans.jsonl", "w") as fh:
            for span in traced["spans"]:
                fh.write(json.dumps(span) + "\n")

    print(
        f"# {args.workload} seed={args.seed} jobs={len(keys)} passes={len(plain['times'])}"
        f"+{len(traced['times'])} traced  attempted={attempted} failed={failed}"
    )
    for name, (value, unit) in shown.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    print(json.dumps(result))
    return 0


def _units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
