"""The benchmark's three workloads, drawn from a committed job catalogue.

Every job a seed can draw is listed in reference.json together with the
digest of its exact output.  A workload is a list of groups; a group is a
list of strata, and a seed draws one key from each stratum.  Strata of the
laurent and search groups hold neighbours in measured cost, so every seed
gets the same amount of work while the instances change.

The package is passed in as `qp`: this module never imports it, so a run can
re-import the package for each set-up repeat.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import independent as ind

REFERENCE_PATH = Path(__file__).with_name("reference.json")
WORKLOADS = ("laurent", "growth", "survey")
# the host-speed kernel that does each workload's kind of work (hostspeed.py)
HOST_KERNEL = {"laurent": "small", "growth": "big", "survey": "small"}

LAURENT_DEPTH = 6
# theorem runs with the settings of `quiverperiod reproduce thm3..thm7`
THEOREM_RUNS = {
    "thm3": ("N3", 3, 3),
    "thm4": ("N4", 2, 2),
    "thm5": ("N5_1cycle", 3, None),
    "thm6": ("N5_other", 3, None),
    "thm7": ("N6", 3, 2),
}
SECTION_ARGS = {"seeds": 2, "horizon": 24}
# verify_section draws its windows from `rng`; its heavy-parameter iteration
# runs to a 600 k-bit budget, and its cost swings by 7x with the window, so
# each tag keeps one window stream of typical cost instead of a seeded one
SECTION_RNG = {"s81": 3, "s82": 1}
# numeric orbits with coefficient dynamics: (family key, parameters, steps)
ORBITS = {
    "n5-2c3-1": ({"m": 0, "n": 1, "p": 1}, 24),
    "n5-k3-2": ({"n": 1}, 18),
}
TAME_HORIZON = 24
POOL = 8  # windows per tag or family in the seeded pools
TZ_STEPS = 10
TEMPLATE_RUNS = {
    # tag: (shift_bound, exp_bound, orbit steps of the trace); the trace
    # starts from a window of 1, 2 and 1/2, which keeps s86 near 3 s
    "s81": (2, 1, 56),
    "s86": (4, 1, 26),
}


# ---------------------------------------------------------------------------
# digests: exact values go through hex(), never str()
# ---------------------------------------------------------------------------


def _feed(h, obj):
    """Stream a value into the hash as tagged tokens that identify it exactly."""
    if isinstance(obj, bool):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, int):
        h.update(b"i" + hex(obj).encode())
    elif isinstance(obj, Fraction):
        h.update(b"q" + hex(obj.numerator).encode() + b"/" + hex(obj.denominator).encode())
    elif isinstance(obj, str) or obj is None:
        h.update(b"s" + repr(obj).encode())
    elif isinstance(obj, (list, tuple)):
        h.update(b"(")
        for x in obj:
            _feed(h, x)
            h.update(b",")
        h.update(b")")
    elif isinstance(obj, dict):
        _feed(h, sorted(obj.items()))
    elif hasattr(obj, "term_count"):  # LaurentPoly
        h.update(b"P")
        _feed(h, obj.terms)
    elif hasattr(obj, "num") and hasattr(obj, "den"):  # RatFunc
        h.update(b"R")
        _feed(h, (obj.num, obj.den))
    elif hasattr(obj, "flatten"):  # ExchangeMatrix
        h.update(b"B")
        _feed(h, obj.flatten())
    else:
        raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()[:32]


def rows_of(report):
    return [(r.label, r.ok, r.detail) for r in report.rows]


def template_key(t):
    return (t.num, t.den, t.claimed_period)


# ---------------------------------------------------------------------------
# seeded pools (seeded by the key, so a key always names the same input)
# ---------------------------------------------------------------------------


def pool_values(key: str, count: int, lo: int, hi: int) -> list[Fraction]:
    rng = random.Random(key)
    return [Fraction(rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(count)]


def tz_input(kind: str, index: int) -> dict[str, list]:
    """All-ones multipliers, or ones with a single seeded entry changed."""
    Z = {"z": [Fraction(1)] * 40, "y": [Fraction(1)] * 40}
    if kind == "bump":
        rng = random.Random(f"tz|{index}")
        Z[rng.choice("zy")][rng.randrange(TZ_STEPS)] = Fraction(rng.randint(2, 5))
    return Z


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


@dataclass
class Job:
    key: str
    run: Callable[[], object]
    # canonical output for the digest, and an optional seeded check that
    # uses only the independent routes
    output: Callable[[object], object] = lambda out: out
    check: Callable[[object, random.Random], bool] | None = None


def _family(qp, key, params):
    fam = qp.families.FAMILY_BY_KEY[key]
    return fam.spec, fam.matrix(**params)


def _tame(qp, tag):
    fam, pname = qp.families.section_family(tag)
    B = fam.matrix(**{pname: qp.reductions.TAME_PARAM[tag]})
    return fam.spec, B


def _own_orbit_seqs(spec, B, x0, count):
    """z/y sequences with at least `count` values each, by the reference
    orbit route."""
    own = ind.orbit(B.rows, spec.shape, spec.k, x0, 2 * count)
    return {"z": own["z"], "y": own["y"]}


class Catalogue:
    """Builds the job for any catalogue key."""

    def __init__(self, qp):
        self.qp = qp

    @functools.cached_property
    def instances(self):
        return {str(fid): (spec, B) for fid, spec, B in self.qp.regression_instances(2)}

    def job(self, key: str) -> Job:
        kind, _, rest = key.partition("|")
        return getattr(self, "_" + kind)(key, *rest.split("|"))

    # -- laurent --------------------------------------------------------------
    def _laurent(self, key, label):
        qp = self.qp
        spec, B = self.instances[label]

        def check(report, rng):
            point = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(B.n)]
            own = ind.orbit(B.rows, spec.shape, spec.k, point, LAURENT_DEPTH)["new"]
            got = [ind.eval_terms(v.terms, point) for v in report.values]
            return report.all_laurent and got == own

        return Job(
            key,
            lambda: qp.laurent_check(B, spec, LAURENT_DEPTH),
            lambda rep: (rep.laurent, rep.integral, rep.values),
            check,
        )

    # -- growth ---------------------------------------------------------------
    def _section(self, key, tag, rng_seed):
        qp = self.qp
        return Job(
            key,
            lambda: qp.verify_section(tag, rng=random.Random(int(rng_seed)), **SECTION_ARGS),
            rows_of,
        )

    def _orbit(self, key, fam_key, index):
        qp = self.qp
        params, steps = ORBITS[fam_key]
        spec, B = _family(qp, fam_key, params)
        x0 = tuple(pool_values(f"{key}|x", B.n, 16, 31))
        y0 = tuple(pool_values(f"{key}|y", B.n, 16, 31))
        tsys = qp.extract_system(B, spec, "T")
        window = qp.initial_window_from_seed(tsys, x0)
        q_steps = steps // 2 - max(qp.required_window(tsys).values())

        def run():
            trace = qp.run_orbit(qp.Seed(B, x0, y0), spec, steps, keep_states=False)
            return trace.seq, qp.iterate_system(tsys, window, q_steps)

        def check(out, rng):
            seq, seqs = out
            return all(seqs[s] == seq[s][: len(seqs[s])] for s in ("z", "y"))

        return Job(key, run, check=check)

    # -- survey ---------------------------------------------------------------
    def _search(self, key, n, shape, k, bound):
        qp = self.qp
        job = qp.SearchJob(qp.Period2Spec(int(n), shape, int(k)), int(bound), connected_only=True)
        return Job(key, lambda: list(qp.search(job)), lambda got: [B.flatten() for B in got])

    def _theorem(self, key, name):
        qp = self.qp
        theorem, max_param, bound = THEOREM_RUNS[name]
        return Job(
            key,
            lambda: qp.verify_theorem(theorem, max_param, search_bound=bound, jobs=1),
            rows_of,
        )

    def _system(self, key, label, kind):
        qp = self.qp
        spec, B = self.instances[label]

        def run():
            return qp.extract_system(B, spec, kind), qp.tabulate_system(B, spec, kind)

        def output(pair):
            closed, generic = pair
            return (closed.to_dict(), (closed.eq1, closed.eq2) == (generic.eq1, generic.eq2))

        return Job(key, run, output)

    def _iterate(self, key, tag, index):
        qp = self.qp
        spec, B = _tame(qp, tag)
        tsys = qp.extract_system(B, spec, "T")
        template = qp.BUILTIN_TEMPLATES[tag]
        steps = TAME_HORIZON + template.max_offset() + template.claimed_period + 2
        need = qp.required_window(tsys)
        x0 = pool_values(key, B.n, 1, 6)
        own = _own_orbit_seqs(spec, B, x0, max(need.values()) + steps + 1)
        window = {name: own[name][:cnt] for name, cnt in need.items()}

        def run():
            seqs = qp.iterate_system(tsys, window, steps)
            return seqs, qp.verify_periodic(seqs, template, TAME_HORIZON).ok

        def check(out, rng):
            seqs, ok = out
            return ok and all(seqs[s] == own[s][: len(seqs[s])] for s in ("z", "y"))

        return Job(key, run, check=check)

    def _tz(self, key, kind, index):
        qp = self.qp
        spec, B = _family(qp, "n4-k2-1", {"n": 1})
        tsys = qp.extract_system(B, spec, "T")
        Z = tz_input(kind, int(index))
        return Job(key, lambda: qp.check_TZ_condition(Z, tsys, steps=TZ_STEPS))

    def _template(self, key, tag):
        qp = self.qp
        spec, B = _tame(qp, tag)
        shift_bound, exp_bound, steps = TEMPLATE_RUNS[tag]
        trace = _own_orbit_seqs(spec, B, pool_values(key, B.n, 1, 2), steps // 2)
        return Job(
            key,
            lambda: qp.template_search(trace, shift_bound, exp_bound),
            lambda found: sorted(template_key(t) for t in found),
        )


# ---------------------------------------------------------------------------
# drawing a job list
# ---------------------------------------------------------------------------


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def draw(workload: str, seed: int, reference: dict, smoke: bool = False) -> list[str]:
    """One key from each stratum, in a seeded order.  Smoke size keeps the
    cheapest stratum of each group."""
    rng = random.Random(f"{workload}|{seed}")
    keys = []
    for group in reference[workload]["groups"]:
        strata = group[:1] if smoke else group
        keys.extend(rng.choice(stratum) for stratum in strata)
    rng.shuffle(keys)
    return keys


def list_digest(keys: list[str]) -> str:
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()[:32]
