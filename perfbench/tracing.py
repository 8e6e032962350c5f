"""Spans and counters recorded around the public functions of each layer.

A traced run installs wrappers in every namespace that holds a traced
function (the defining module, each module that imported it by name, and the
package), records one span per call in memory, and removes every wrapper
afterwards.  Spans carry (name, start, end, parent span, job id); a layer's
self time is its span time minus the part covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from fractions import Fraction

PACKAGE = "quiverperiod"


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, object]] = []
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, int] = {}
        self.job = None
        self._stack: list[int] = []

    def count(self, name: str, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def maximum(self, name: str, value: int):
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def call(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self.job))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.job)


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    clipped to the span itself."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _job in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_name, start, end, _parent, _job) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def layer_times(spans) -> dict[str, tuple[int, float]]:
    """Span name -> (calls, total self time)."""
    out: dict[str, tuple[int, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        calls, total = out.get(span[0], (0, 0.0))
        out[span[0]] = (calls + 1, total + own)
    return out


# ---------------------------------------------------------------------------
# size helpers and per-call counters
# ---------------------------------------------------------------------------


def frac_bits(v) -> int:
    v = Fraction(v)
    return max(v.numerator.bit_length(), v.denominator.bit_length())


def _poly_parts(value):
    """The Laurent polynomials inside a cluster value (RatFunc -> num, den)."""
    if hasattr(value, "num") and hasattr(value, "den"):
        return (value.num, value.den)
    return (value,)


def _coeff_bits(c) -> int:
    return frac_bits(c) if isinstance(c, Fraction) else abs(c).bit_length()


def _observe_mul(tr, fn, args, kwargs, result):
    a, b = args
    other_terms = b.term_count() if hasattr(b, "term_count") else 1
    tr.count("cluster.LaurentPoly.mul.pairs", a.term_count() * other_terms)
    if hasattr(result, "term_count"):
        tr.count("cluster.LaurentPoly.mul.terms_out", result.term_count())


def _observe_divide(tr, fn, args, kwargs, result):
    if result is None:
        tr.count("cluster.LaurentPoly.divide.none")
    else:
        tr.count("cluster.LaurentPoly.divide.terms_out", result.term_count())


def _observe_laurent_check(tr, fn, args, kwargs, report):
    for value in report.values:
        for poly in _poly_parts(value):
            tr.maximum("cluster.terms_max", poly.term_count())
            for c in poly.terms.values():
                tr.maximum("cluster.coeff_bits_max", _coeff_bits(c))


def _observe_mutate_seed_num(tr, args, kwargs, new):
    old = args[0]
    k = args[1] if len(args) > 1 else kwargs["k"]
    xb = frac_bits(new.x[k - 1])
    tr.maximum("cluster.x_bits_max", xb)
    tr.count("cluster.x_bits", xb)
    for before, after in zip(old.y, new.y):
        if after is not before:
            yb = frac_bits(after)
            tr.maximum("cluster.y_bits_max", yb)
            tr.count("cluster.y_bits", yb)


def _observe_iterate(tr, fn, args, kwargs, seqs):
    initial = args[1] if len(args) > 1 else kwargs["initial"]
    produced = 0
    for name, values in seqs.items():
        start = len(initial.get(name, ()))
        produced += len(values) - start
        for v in values[start:]:
            tr.maximum("systems.value_bits_max", frac_bits(v))
    tr.count("systems.iterate_system.values", produced)


def template_candidates(shift_bound: int, exp_bound: int) -> int:
    """(numerator, denominator) pairs template_search tries: numerators are
    one monomial or an unordered pair, denominators any monomial except the
    numerator's own single monomial."""
    slots = 2 * (shift_bound + 1)
    mono = 1 + slots * exp_bound + slots * (slots - 1) // 2 * exp_bound ** 2
    return mono * (mono + 1) // 2 * mono - mono


def _observe_template_search(tr, fn, args, kwargs, found):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    tr.count(
        "systems.template_search.candidates",
        template_candidates(bound.arguments["shift_bound"], bound.arguments["exp_bound"]),
    )
    tr.count("systems.template_search.hits", len(found))


def _observe_search(tr, fn, args, kwargs, result):
    tr.count("search.solutions", len(result))


def _observe_rows(prefix):
    def observe(tr, fn, args, kwargs, report):
        tr.count(prefix, len(report.rows))
        tr.count(f"{prefix}_failed", sum(1 for r in report.rows if not r.ok))

    return observe


# Counting runs in a span of its own, so its cost is not charged to the
# caller's self time; it is the tracing overhead, not a layer.
OBSERVE = "trace.observe"

# (module, attribute, span name, observer); mutate_seed splits into .sym and
# .num spans by the kind of seed, see _wrap
TARGETS = [
    ("quiver", "mutate", "quiver.mutate", None),
    ("quiver", "permute", "quiver.permute", None),
    ("quiver", "is_period2", "quiver.is_period2", None),
    ("quiver", "find_relabeling", "quiver.find_relabeling", None),
    ("search", "search", "search.search", _observe_search),
    ("families", "verify_theorem", "families.verify_theorem", _observe_rows("families.checks")),
    ("cluster", "laurent_check", "cluster.laurent_check", _observe_laurent_check),
    ("cluster", "mutate_seed", "cluster.mutate_seed", None),
    ("cluster", "run_orbit", "cluster.run_orbit", None),
    ("systems", "extract_system", "systems.extract_system", None),
    ("systems", "tabulate_system", "systems.tabulate_system", None),
    ("systems", "check_TZ_condition", "systems.check_TZ_condition", None),
    ("systems", "iterate_system", "systems.iterate_system", _observe_iterate),
    ("systems", "verify_periodic", "systems.verify_periodic", None),
    ("systems", "template_search", "systems.template_search", _observe_template_search),
    ("reductions", "verify_section", "reductions.verify_section", _observe_rows("reductions.rows")),
] + [
    ("reductions", name, "reductions.reduce", None)
    for name in ("reduce_somos4", "reduce_somos5", "reduce_s81", "reduce_s81_y", "reduce_s83", "reduce_s85")
]

# LaurentPoly methods: (attribute, span name, observer)
POLY_TARGETS = [
    ("__mul__", "cluster.LaurentPoly.mul", _observe_mul),
    ("__rmul__", "cluster.LaurentPoly.mul", _observe_mul),
    ("__pow__", "cluster.LaurentPoly.pow", None),
    ("divide", "cluster.LaurentPoly.divide", _observe_divide),
]


def _wrap(tracer: Tracer, fn, name: str, observe):
    if name == "cluster.mutate_seed":

        @functools.wraps(fn)
        def mutate_seed(*args, **kwargs):
            seed = args[0] if args else kwargs["seed"]
            if seed.symbolic:
                return tracer.call("cluster.mutate_seed.sym", fn, args, kwargs)
            new = tracer.call("cluster.mutate_seed.num", fn, args, kwargs)
            tracer.call(OBSERVE, _observe_mutate_seed_num, (tracer, args, kwargs, new), {})
            return new

        return mutate_seed

    if name == "search.search":
        # search() is a generator that does all its work before the first
        # yield; consume it inside the span so the span covers that work
        @functools.wraps(fn)
        def eager(*args, **kwargs):
            result = tracer.call(name, lambda *a, **k: list(fn(*a, **k)), args, kwargs)
            tracer.call(OBSERVE, observe, (tracer, fn, args, kwargs, result), {})
            return iter(result)

        return eager

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if observe is not None:
            tracer.call(OBSERVE, observe, (tracer, fn, args, kwargs, result), {})
        return result

    return wrapper


def package_modules() -> list:
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]


class Installed:
    """Wrappers installed for one tracer; `remove()` restores every patch."""

    def __init__(self, tracer: Tracer):
        self.patches: list[tuple[object, str, object]] = []
        try:
            self._install(tracer)
        except BaseException:
            self.remove()
            raise

    def _install(self, tracer: Tracer):
        namespaces = package_modules()
        for mod_name, attr, span, observe in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], attr)
            wrapper = _wrap(tracer, original, span, observe)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, wrapper)
        poly = sys.modules[f"{PACKAGE}.cluster"].LaurentPoly
        for attr, span, observe in POLY_TARGETS:
            self._patch(poly, attr, _wrap(tracer, poly.__dict__[attr], span, observe))

    def _patch(self, ns, key, value):
        self.patches.append((ns, key, vars(ns)[key]))
        setattr(ns, key, value)

    def remove(self):
        for ns, key, original in reversed(self.patches):
            setattr(ns, key, original)
        self.patches.clear()


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

TIMED = [
    "quiver.mutate",
    "quiver.permute",
    "quiver.is_period2",
    "quiver.find_relabeling",
    "search.search",
    "families.verify_theorem",
    "cluster.laurent_check",
    "cluster.LaurentPoly.mul",
    "cluster.LaurentPoly.pow",
    "cluster.LaurentPoly.divide",
    "cluster.mutate_seed.sym",
    "cluster.mutate_seed.num",
    "cluster.run_orbit",
    "systems.extract_system",
    "systems.tabulate_system",
    "systems.check_TZ_condition",
    "systems.iterate_system",
    "systems.verify_periodic",
    "systems.template_search",
    "reductions.verify_section",
    "reductions.reduce",
]

COUNTED = [
    "search.solutions",
    "families.checks",
    "families.checks_failed",
    "cluster.LaurentPoly.mul.pairs",
    "cluster.LaurentPoly.mul.terms_out",
    "cluster.LaurentPoly.divide.terms_out",
    "cluster.LaurentPoly.divide.none",
    "systems.iterate_system.values",
    "systems.template_search.candidates",
    "systems.template_search.hits",
    "reductions.rows",
    "reductions.rows_failed",
]

MAXIMA = [
    "cluster.terms_max",
    "cluster.coeff_bits_max",
    "cluster.x_bits_max",
    "cluster.y_bits_max",
    "systems.value_bits_max",
]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def pass_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced pass: calls, self seconds, counters,
    maxima and the ratios built from them."""
    out: dict[str, float] = {}
    layers = layer_times(tracer.spans)
    for name in TIMED:
        calls, own = layers.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = own
    for name in COUNTED:
        out[name] = tracer.counts.get(name, 0)
    for name in MAXIMA:
        out[name] = tracer.maxima.get(name, 0)
    out["cluster.LaurentPoly.mul.useful_ratio"] = _ratio(
        out["cluster.LaurentPoly.mul.terms_out"], out["cluster.LaurentPoly.mul.pairs"]
    )
    x_bits = tracer.counts.get("cluster.x_bits", 0)
    y_bits = tracer.counts.get("cluster.y_bits", 0)
    out["cluster.y_bits_share"] = _ratio(y_bits, x_bits + y_bits)
    out["systems.template_search.hit_ratio"] = _ratio(
        out["systems.template_search.hits"], out["systems.template_search.candidates"]
    )
    return out
