"""Regenerate reference.json: the job catalogue, its strata and the digest of
every job's exact output, each validated by routes that do not use the code
under test.

    python3 perfbench/make_reference.py

Run it only when the program's outputs are meant to change; a run that fails
a validation writes nothing.  Laurent and search jobs are timed here once to
order their strata by cost.
"""

from __future__ import annotations

import json
import random
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import quiverperiod as qp  # noqa: E402

import independent as ind  # noqa: E402
import workloads as wl  # noqa: E402

CHEAP_S = 0.9  # laurent instances below this cost go into the paired strata
SEARCH_MAX_S = 1.5
# the cheapest instance of the 1-20 s band, about 1 s; it sets the run's peak
# memory, so it is always in the list rather than drawn
BAND = ["N4#2(l=2,m=2,n=2)"]
BRUTE_MAX_N = 4


class TooSlow(Exception):
    pass


def _alarm(*_):
    raise TooSlow


def timed(job: wl.Job, limit: float | None = None):
    """(output, seconds), or (None, None) when the job exceeds `limit`."""
    if limit is not None:
        signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = time.perf_counter()
    try:
        out = job.run()
    except TooSlow:
        return None, None
    finally:
        if limit is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
    return out, time.perf_counter() - t0


def chunks(keys, size):
    return [keys[i : i + size] for i in range(0, len(keys), size)]


def cost_strata(keys, costs, size, fixed_tail):
    """Cost-sorted strata of `size` keys.  In the `fixed_tail` costliest
    strata the members differ most in cost, and they hold the 90th
    percentile job, so each keeps only its middle member instead of a draw."""
    strata = chunks(sorted(keys, key=costs.get), size)
    cut = len(strata) - fixed_tail
    return strata[:cut] + [[s[len(s) // 2]] for s in strata[cut:]]


def fail(msg):
    raise SystemExit(f"reference validation failed: {msg}")


# ---------------------------------------------------------------------------


def laurent(cat, digests):
    rng = random.Random(1)
    costs = {}
    for label in cat.instances:
        key = f"laurent|{label}"
        job = cat.job(key)
        out, dt = timed(job, limit=2.0)
        if out is None:
            continue
        if not (dt < CHEAP_S or label in BAND):
            continue
        for _ in range(2):
            if not job.check(out, rng):
                fail(key)
        costs[key] = dt
        digests[key] = wl.digest(job.output(out))
    cheap = [k for k in costs if k.split("|", 1)[1] not in BAND]
    band = [f"laurent|{label}" for label in BAND]
    if any(k not in costs for k in band):
        fail("band instance missing")
    print(f"laurent: {len(cheap)} cheap instances, {sum(costs[k] for k in cheap):.1f} s")
    return [cost_strata(cheap, costs, 2, len(cheap) // 10), [band]]


def growth(cat, digests):
    sections = [f"section|{tag}|{seed}" for tag, seed in wl.SECTION_RNG.items()]
    for key in sections:
        job = cat.job(key)
        rows = job.output(job.run())
        if not all(ok for _, ok, _ in rows):
            fail(key)
        digests[key] = wl.digest(rows)
    orbit_groups = []
    for fam_key, (params, steps) in wl.ORBITS.items():
        keys = [f"orbit|{fam_key}|{i}" for i in range(wl.POOL)]
        spec, B = wl._family(qp, fam_key, params)
        costs = {}
        for key in keys:
            job = cat.job(key)
            out, costs[key] = min((timed(job) for _ in range(2)), key=lambda r: r[1])
            seq, _ = out
            x0 = wl.pool_values(f"{key}|x", B.n, 16, 31)
            y0 = wl.pool_values(f"{key}|y", B.n, 16, 31)
            own = ind.orbit(B.rows, spec.shape, spec.k, x0, steps, y0)
            if any(seq[s] != own[s] for s in "zyAB") or not job.check(out, None):
                fail(key)
            digests[key] = wl.digest(out)
        orbit_groups.append(chunks(sorted(keys, key=costs.get), 2))
    return [[[k] for k in sections]] + orbit_groups


def _tz_holds(tsys, Z, steps):
    for eq in (tsys.eq1, tsys.eq2):
        nets = dict(eq.plus)
        for slot, e in eq.minus.items():
            nets[slot] = nets.get(slot, 0) - e
        max_off = max(off for _, off in nets)
        for q in range(steps - max_off):
            prod = Fraction(1)
            for (seq, off), e in nets.items():
                prod *= Z[seq][q + off] ** e
            if prod != 1:
                return False
    return True


def survey(cat, digests):
    groups = []
    # searches: every canonical equation with 3..8 vertices at bounds 2, 3
    costs, sizes = {}, {}
    for n in range(3, 9):
        for shape in (qp.ONE_CYCLE, qp.TWO_CYCLE):
            for k in range(2, n + 1):
                if not qp.Period2Spec(n, shape, k).in_canonical_range():
                    continue
                for bound in (2, 3):
                    key = f"search|{n}|{shape}|{k}|{bound}"
                    job = cat.job(key)
                    out, dt = timed(job, limit=2 * SEARCH_MAX_S)
                    if out is None or dt >= SEARCH_MAX_S:
                        continue
                    flats = job.output(out)
                    for flat in flats:
                        rows = tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))
                        if not (ind.connected(rows) and ind.is_period2(rows, shape, k)):
                            fail(f"{key}: unsound {flat}")
                    if n <= BRUTE_MAX_N and sorted(flats) != ind.brute_search(n, shape, k, bound):
                        fail(f"{key}: differs from brute force")
                    costs[key] = dt
                    sizes[key] = len(flats)
                    digests[key] = wl.digest(flats)
    # the search with the most solutions sets the workload's peak memory, so
    # it is always in the list rather than drawn
    largest = max(costs, key=lambda k: sizes[k])
    rest = [k for k in costs if k != largest]
    groups.append([[largest]] + cost_strata(rest, costs, 4, 4))
    print(f"search: {len(costs)} jobs, {sum(costs.values()):.1f} s, largest {largest}")

    thm = []
    for name in wl.THEOREM_RUNS:
        key = f"theorem|{name}"
        job = cat.job(key)
        rows = job.output(job.run())
        red = [r for r in rows if not r[1]]
        # criterion 6b: the n=6, k=5 bound-2 search finds 2 connected
        # solutions outside the published families; that is the expected output
        if name == "thm7":
            if len(red) != 1 or not red[0][0].startswith("search n=6 1-cycle k=5 bound=2") or "2 unexpected" not in red[0][2]:
                fail(f"{key}: expected exactly the 6b row red, got {red}")
        elif red:
            fail(f"{key}: {red}")
        digests[key] = wl.digest(rows)
        thm.append([key])
    groups.append(thm)

    sys_keys = []
    for label in cat.instances:
        for kind in ("T", "Y"):
            key = f"system|{label}|{kind}"
            job = cat.job(key)
            out = job.output(job.run())
            if not out[1]:
                fail(f"{key}: closed form and tabulation disagree")
            digests[key] = wl.digest(out)
            sys_keys.append(key)
    # all of them: they are nine tenths of the list, which puts the 90th
    # percentile inside their dense cluster instead of in the sparse tail
    groups.append([[k] for k in sys_keys])

    it = []
    for tag in qp.reductions.SECTION_TAGS:
        keys = [f"iterate|{tag}|{i}" for i in range(wl.POOL)]
        tmpl = qp.BUILTIN_TEMPLATES[tag]
        for key in keys:
            job = cat.job(key)
            out = job.run()
            seqs, _ = out
            period = tmpl.claimed_period
            vals = [ind.eval_template(tmpl.num, tmpl.den, seqs, q) for q in range(wl.TAME_HORIZON + period)]
            if not job.check(out, None) or any(vals[q + period] != vals[q] for q in range(wl.TAME_HORIZON)):
                fail(key)
            digests[key] = wl.digest(out)
        it.extend(chunks(keys, 4))
    groups.append(it)

    spec, B = wl._family(qp, "n4-k2-1", {"n": 1})
    tsys = qp.tabulate_system(B, spec, "T")
    tz = [["tz|ones|0"]] + chunks([f"tz|bump|{i}" for i in range(wl.POOL)], 4)
    for key in (k for stratum in tz for k in stratum):
        _, kind, index = key.split("|")
        out = cat.job(key).run()
        if out != _tz_holds(tsys, wl.tz_input(kind, int(index)), wl.TZ_STEPS + spec.n + 1):
            fail(key)
        digests[key] = wl.digest(out)
    groups.append(tz)

    tm = []
    for tag in wl.TEMPLATE_RUNS:
        key = f"template|{tag}"
        job = cat.job(key)
        out, dt = timed(job)
        found = job.output(out)
        tmpl = qp.BUILTIN_TEMPLATES[tag]
        if wl.template_key(tmpl) not in found:
            fail(f"{key}: built-in template not rediscovered")
        spec_t, B_t = wl._tame(qp, tag)
        long_ = wl._own_orbit_seqs(spec_t, B_t, wl.pool_values(key, B_t.n, 1, 2), 60)
        for num, den, period in found:
            vals = [ind.eval_template(num, den, long_, q) for q in range(40 + period)]
            if any(vals[q + period] != vals[q] for q in range(40)):
                fail(f"{key}: hit {num}/{den} not periodic on a longer trace")
        print(f"{key}: {len(found)} hits, {dt:.1f} s")
        digests[key] = wl.digest(found)
        tm.append([key])
    groups.append(tm)
    return groups


def main():
    cat = wl.Catalogue(qp)
    ref = {}
    for name, build in (("laurent", laurent), ("growth", growth), ("survey", survey)):
        digests = {}
        groups = build(cat, digests)
        ref[name] = {"groups": groups, "digests": digests}
        print(f"{name}: {sum(len(g) for g in groups)} strata, {len(digests)} jobs")
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
