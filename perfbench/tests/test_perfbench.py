"""Tests of the benchmark itself (run with `python3 -m pytest perfbench/tests`)."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def qp():
    return run.import_package()


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_size_passes_reference_check(qp, workload):
    reference = wl.load_reference()
    keys = wl.draw(workload, 7, reference, smoke=True)
    assert keys
    cat = wl.Catalogue(qp)
    jobs = [cat.job(k) for k in keys]
    t0 = time.perf_counter()
    _, failed = run.run_pass(jobs, reference[workload]["digests"], random.Random(3))
    assert time.perf_counter() - t0 < 30
    assert failed == 0


def test_draw_is_seeded():
    reference = wl.load_reference()
    assert wl.draw("laurent", 5, reference) == wl.draw("laurent", 5, reference)
    assert wl.draw("laurent", 5, reference) != wl.draw("laurent", 6, reference)


def test_digest_uses_exact_values_beyond_str_limit():
    big = Fraction(3**20000, 7)
    assert wl.digest([big]) != wl.digest([big + 1])
    assert wl.digest([1, (2, 3)]) != wl.digest([(1, 2), 3])


def test_self_time_of_synthetic_nest():
    # A [0,10] holds B [1,4] and C [3,6], which overlap; B holds D [2,3];
    # E starts inside A and ends after it, so only [9,10] counts for A
    spans = [
        ("A", 0.0, 10.0, -1, "j"),
        ("B", 1.0, 4.0, 0, "j"),
        ("D", 2.0, 3.0, 1, "j"),
        ("C", 3.0, 6.0, 0, "j"),
        ("E", 9.0, 12.0, 0, "j"),
    ]
    assert tracing.self_times(spans) == [10 - 5 - 1, 2.0, 1.0, 3.0, 3.0]
    layers = tracing.layer_times(spans + [("D", 20.0, 21.5, -1, "k")])
    assert layers["D"] == (2, 2.5)


def test_host_speed_factor_uses_nearby_samples():
    clock = hostspeed.Clock("small")
    ref = clock.reference
    clock.times = [0.0, 0.1, 0.2, 2.0, 2.1]
    clock.costs = [ref, ref, ref, 2 * ref, 2 * ref]
    assert clock.factor(0.05, 0.15) == 1.0
    assert clock.factor(2.02, 2.05) == 0.5
    # a long job far from any sample: the nearest one on each side counts
    clock.times, clock.costs = [0.0, 5.0], [ref, 3 * ref]
    assert clock.factor(1.0, 4.0) == 0.5
    assert clock.scale([(1.0, 4.0)]) == [1.5]
    clock.sample()
    assert len(clock.times) == 3 and clock.costs[-1] > 0
    fresh = hostspeed.Clock("small")
    fresh.tick()
    fresh.tick()  # too soon for another sample
    assert len(fresh.times) == 1
    fresh.times[-1] -= hostspeed.INTERVAL
    fresh.tick()
    assert len(fresh.times) == 2
    assert set(wl.HOST_KERNEL) == set(wl.WORKLOADS)
    for kind in hostspeed.KERNELS:
        hostspeed.Clock(kind).sample()


def test_p90_estimates_the_90th_percentile():
    assert run.p90([2.5]) == 2.5
    assert abs(run.p90([1.0] * 50) - 1.0) < 1e-12
    assert abs(run.p90(list(range(1, 1000))) - 900) < 1
    assert run.job_latencies([[1.0, 5.0], [3.0, 4.0], [2.0, 9.0]]) == [2.0, 5.0]


def _originals(qp):
    mods = tracing.package_modules()
    return {
        (id(m), k): v
        for m in mods
        for k, v in vars(m).items()
        if callable(v)
    }, {k: qp.LaurentPoly.__dict__[k] for k in ("__mul__", "__rmul__", "__pow__", "divide")}


def test_wrappers_catch_each_namespace_and_leave_no_patch(qp):
    import quiverperiod.cluster as cluster
    import quiverperiod.families as families
    import quiverperiod.quiver as quiver
    import quiverperiod.reductions as reductions
    import quiverperiod.systems as systems

    before, poly_before = _originals(qp)
    tracer = tracing.Tracer()
    installed = tracing.Installed(tracer)
    try:
        B = qp.ExchangeMatrix.from_entries(3, {(1, 2): 1, (2, 3): 1})
        spec = qp.Period2Spec(4, qp.ONE_CYCLE, 2)
        B4 = qp.ExchangeMatrix.from_entries(4, {(1, 2): -1, (1, 4): -1, (2, 3): -1, (3, 4): 1})
        for mutate in (quiver.mutate, cluster.mutate, families.mutate, systems.mutate, qp.mutate):
            mutate(B, 1)
        systems.is_period2(B4, spec)  # calls quiver.mutate and permute inside
        x = qp.LaurentPoly.variable(2, 1)
        _ = x * x, 2 * x, x ** 3, (x * x + x).divide(x)
        qp.mutate_seed(qp.Seed.ones(B4), 1)
        qp.mutate_seed(qp.Seed.initial(B4), 1)
        qp.verify_theorem("N3", 1, search_bound=1)  # imports search lazily
        reductions.somos_reduce("s82", 1, 8)
    finally:
        installed.remove()
    calls = {name: n for name, (n, _) in tracing.layer_times(tracer.spans).items()}
    assert calls["quiver.mutate"] >= 5 + 2
    assert calls["quiver.is_period2"] >= 1 and calls["quiver.permute"] >= 1
    assert calls["cluster.LaurentPoly.mul"] >= 2 + 2  # x*x, 2*x, inside pow
    assert calls["cluster.LaurentPoly.pow"] >= 1  # x ** 3, and inside mutate_seed
    assert calls["cluster.LaurentPoly.divide"] >= 1
    assert calls["cluster.mutate_seed.num"] == 1 and calls["cluster.mutate_seed.sym"] == 1
    assert calls["search.search"] >= 1 and calls["families.verify_theorem"] == 1
    assert calls["reductions.reduce"] == 1 and calls["systems.iterate_system"] >= 1
    after, poly_after = _originals(qp)
    assert after == before and poly_after == poly_before
    assert not any(hasattr(v, "__wrapped__") for v in after.values())


def test_benchmark_json_names_every_layer_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = [m["name"] for m in bench["per_layer"]]
    produced = list(tracing.pass_metrics(tracing.Tracer()))
    produced += ["trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s"]
    assert sorted(listed) == sorted(produced)


def test_template_candidates_counts_the_enumeration():
    # shift_bound=0, exp_bound=1: monomials 1, z(q), y(q), z(q)*y(q)
    assert tracing.template_candidates(0, 1) == 4 * 5 // 2 * 4 - 4
    # the s86 rediscovery setting tries about 89 k candidates
    assert tracing.template_candidates(4, 1) == 89320


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    faster = [x * 0.8 for x in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "improved"
    assert compare.verdict(parent, [x * 1.3 for x in parent], "lower", 0.1)[0] == "worse"
    assert compare.verdict(parent, list(parent), "lower", 0.1)[0] == "no worse"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, list(reversed(noisy)), "lower", 0.1)[0] == "unresolved"


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "laurent", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
