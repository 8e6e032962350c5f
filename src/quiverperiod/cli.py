"""Command-line interface: search, check, mutate, family verification,
T/Y-system extraction and iteration, periodic quantities, reproduction suites.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import families, formats, reductions
from .cluster import OrbitTrace, run_orbit
from .quiver import (
    ONE_CYCLE,
    TWO_CYCLE,
    Period2Spec,
    QuiverError,
    is_connected,
    is_period1,
    mutate,
)
from .report import Report
from .search import SearchJob, residual_report, search
from .systems import (
    BUILTIN_TEMPLATES,
    DEFAULT_BIT_BUDGET,
    SystemSpec,
    extract_system,
    iterate_system,
    parse_template,
    required_window,
    verify_periodic,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2

_SHAPES = {"1cycle": ONE_CYCLE, "2cycle": TWO_CYCLE}

# reproduction settings per section: (theorem, max parameter, search bound)
SECTIONS = {
    "thm3": ("N3", 3, 3),
    "thm4": ("N4", 2, 2),
    "thm5": ("N5_1cycle", 3, None),
    "thm6": ("N5_other", 3, None),
    "thm7": ("N6", 3, 2),
}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _load(path: str, parse):
    """parse applied to the text of path ('-' = stdin); a malformed file
    names its path."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as fh:
                text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path!r}: {exc}")
    try:
        return parse(text)
    except (ValueError, TypeError, AttributeError, KeyError, QuiverError) as exc:
        raise CliError(f"{path}: {exc}")


def _spec_from_args(args, n: int) -> Period2Spec:
    return Period2Spec(n, _SHAPES[args.shape], args.k)


def _default_jobs() -> int:
    env = os.environ.get("QUIVERPERIOD_JOBS")
    if env:
        try:
            jobs = int(env)
        except ValueError:
            raise CliError(f"QUIVERPERIOD_JOBS={env!r} is not an integer")
        if jobs < 1:
            raise CliError(f"QUIVERPERIOD_JOBS must be >= 1, got {jobs}")
        return jobs
    return 1


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_mutate(args) -> int:
    B = _load(args.quiver, formats.quiver_from_json)
    for v in args.at:
        B = mutate(B, v)
    if args.dot:
        try:
            with open(args.dot, "w") as fh:
                fh.write(formats.quiver_to_dot(B) + "\n")
        except OSError as exc:
            raise CliError(f"cannot write {args.dot!r}: {exc}")
    print(formats.quiver_to_json(B))
    return EXIT_OK


def cmd_check(args) -> int:
    B = _load(args.quiver, formats.quiver_from_json)
    notes = [] if is_connected(B) else ["disconnected"]
    if args.period1:
        ok = is_period1(B)
        verdict = "period-1" if ok else "not period-1"
        print(" ".join([verdict] + notes))
        return EXIT_OK if ok else EXIT_VERIFY
    spec = _spec_from_args(args, B.n)
    rows = residual_report(B, spec)
    ok = all(v == 0 for _, _, v in rows)
    verdict = "period-2" if ok else "not period-2"
    print(" ".join([verdict] + notes))
    if not ok:
        for pair, case, value in rows:
            if value != 0:
                print(f"  pair {pair}: case {case} residual {value}")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_search(args) -> int:
    spec = _spec_from_args(args, args.n)
    job = SearchJob(
        spec,
        args.bound,
        connected_only=args.connected,
        canonicalize=args.canonical,
        jobs=args.jobs if args.jobs else _default_jobs(),
    )
    count = 0
    for B in search(job):
        print(formats.quiver_to_json(B))
        count += 1
    print(f"# {count} solutions", file=sys.stderr)
    return EXIT_OK


def cmd_verify_theorem(args) -> int:
    theorem = SECTIONS[args.name][0] if args.name in SECTIONS else args.name
    report = families.verify_theorem(
        theorem, args.max_param, search_bound=args.bound, jobs=_default_jobs()
    )
    return _print_report(report, args.format, {"theorem": report.name}, report.name)


def _print_report(report: Report, fmt: str, header: dict, summary: str) -> int:
    """Print header + report as JSON, or its lines and an OK/FAILED summary."""
    if fmt == "structured":
        print(json.dumps({**header, **report.to_dict()}, indent=2))
    else:
        for line in report.lines():
            print(line)
        print(f"{'OK' if report.ok else 'FAILED'}: {summary}")
    return EXIT_OK if report.ok else EXIT_VERIFY


def cmd_tsys_extract(args) -> int:
    B = _load(args.quiver, formats.quiver_from_json)
    spec = _spec_from_args(args, B.n)
    try:
        sys_spec = extract_system(B, spec, args.kind.upper())
    except QuiverError as exc:
        raise CliError(str(exc), code=EXIT_VERIFY)
    if args.format == "structured":
        print(json.dumps(sys_spec.to_dict(), indent=2))
    else:
        print(sys_spec.text())
    return EXIT_OK


def cmd_tsys_iterate(args) -> int:
    sys_spec = _load(args.system, lambda text: SystemSpec.from_dict(json.loads(text)))
    window = _load(args.init, formats.window_from_json)
    Z = _load(args.z, formats.window_from_json) if args.z else None
    try:
        seqs = iterate_system(
            sys_spec, window, args.steps, Z=Z, bit_budget=args.bit_budget
        )
    except ZeroDivisionError as exc:
        raise CliError(str(exc), code=EXIT_VERIFY)
    reached = len(seqs["z"]) - required_window(sys_spec)["z"]
    if reached < args.steps:
        raise CliError(
            f"stopped after step {reached} of {args.steps}: a value exceeds the "
            f"bit budget of {args.bit_budget} bits (raise it with --bit-budget)",
            code=EXIT_VERIFY,
        )
    seqs.update(A=[], B=[])
    trace = OrbitTrace(sys_spec.spec, sys_spec.B0, 2 * args.steps, seqs)
    print(formats.trace_to_json(trace))
    return EXIT_OK


def cmd_tsys_verify_periodic(args) -> int:
    trace = _load(args.trace, formats.trace_from_json)
    if args.template.startswith("builtin:"):
        name = args.template.split(":", 1)[1]
        if name not in BUILTIN_TEMPLATES:
            raise CliError(
                f"unknown builtin template {name!r}; have {sorted(BUILTIN_TEMPLATES)}"
            )
        if args.period is not None:
            raise CliError(f"--period applies to expression templates only; {name} has its own")
        tmpl = BUILTIN_TEMPLATES[name]
    else:
        period = 1 if args.period is None else args.period
        tmpl = parse_template(args.template, claimed_period=period)
    horizon = args.horizon
    if horizon is None:
        length = min(len(trace.seq["z"]), len(trace.seq["y"]))
        horizon = length - tmpl.max_offset() - tmpl.claimed_period
    try:
        rep = verify_periodic(trace.seq, tmpl, horizon)
    except ZeroDivisionError as exc:
        raise CliError(str(exc), code=EXIT_VERIFY)
    except QuiverError as exc:  # a trace too short fails; a vacuous check is misuse
        vacuous = min(horizon, tmpl.claimed_period) < 1
        raise CliError(str(exc), code=EXIT_USAGE if vacuous else EXIT_VERIFY)
    state = "periodic" if rep.ok else f"fails at q={rep.first_failure}"
    print(f"{tmpl.name}: period {tmpl.claimed_period} over {horizon} steps: {state}")
    return EXIT_OK if rep.ok else EXIT_VERIFY


def cmd_tsys_somos(args) -> int:
    report = reductions.somos_reduce(args.family, args.param, args.steps)
    for row in report.rows:
        print(("PASS " if row.ok else "FAIL ") + row.label)
    return EXIT_OK if report.ok else EXIT_VERIFY


def cmd_reproduce(args) -> int:
    section = args.section
    rng = random.Random(args.seed)
    print(f"# section {section} (seed {args.seed})")
    if section == "sec8":
        report = Report(section)
        for tag in reductions.SECTION_TAGS:
            rep = reductions.verify_section(tag, seeds=3, horizon=30, rng=rng)
            report.rows.extend(rep.rows)
    else:
        theorem, max_param, bound = SECTIONS[section]
        report = families.verify_theorem(
            theorem, max_param, search_bound=bound, jobs=_default_jobs()
        )
    header = {"section": section, "seed": args.seed}
    return _print_report(report, args.format, header, f"{len(report.rows)} checks")


def cmd_orbit(args) -> int:
    seed = _load(args.seed, formats.seed_from_json)
    spec = _spec_from_args(args, seed.B.n)
    if args.steps < 0:
        raise CliError("steps must be >= 0")
    try:
        trace = run_orbit(seed, spec, args.steps, keep_states=False)
    except (QuiverError, ZeroDivisionError) as exc:
        raise CliError(str(exc), code=EXIT_VERIFY)
    if args.csv:
        try:
            with open(args.csv, "w") as fh:
                formats.trace_to_csv(trace, fh)
        except OSError as exc:
            raise CliError(f"cannot write {args.csv!r}: {exc}")
    print(formats.trace_to_json(trace))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiverperiod",
        description="period-2 quiver search and T/Y-system toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mutate", help="apply mutations to a quiver file")
    p.add_argument("--quiver", required=True, help="quiver-v1 JSON file ('-' = stdin)")
    p.add_argument("--at", required=True, type=int, nargs="+", help="vertices, applied left to right")
    p.add_argument("--dot", help="also write DOT output to this path")
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("check", help="check a periodicity equation")
    p.add_argument("--quiver", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--period1", action="store_true")
    group.add_argument("--shape", choices=sorted(_SHAPES))
    p.add_argument("--k", type=int, help="second mutation vertex (with --shape)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("search", help="bounded exhaustive period-2 search")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--shape", required=True, choices=sorted(_SHAPES))
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--bound", required=True, type=int)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--canonical", action="store_true")
    p.add_argument("--jobs", type=int, default=0, help="workers (default: QUIVERPERIOD_JOBS or 1)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify-theorem", help="re-check one classification")
    p.add_argument("--name", required=True, choices=sorted(SECTIONS) + sorted(families.THEOREMS))
    p.add_argument("--max-param", required=True, type=int)
    p.add_argument("--bound", type=int, help="also run the search completeness check")
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.set_defaults(func=cmd_verify_theorem)

    tsys = sub.add_parser("tsys", help="T/Y-system tools")
    tsub = tsys.add_subparsers(dest="tsys_command", required=True)

    p = tsub.add_parser("extract", help="closed-form system of a period-2 quiver")
    p.add_argument("--quiver", required=True)
    p.add_argument("--shape", required=True, choices=sorted(_SHAPES))
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--kind", required=True, choices=["t", "y", "tz"])
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.set_defaults(func=cmd_tsys_extract)

    p = tsub.add_parser("iterate", help="forward-iterate a system file")
    p.add_argument("--system", required=True, help="system-v1 JSON file")
    p.add_argument("--init", required=True, help="JSON object with 'z' and 'y' windows")
    p.add_argument("--steps", required=True, type=int)
    p.add_argument("--z", help="JSON object with 'z'/'y' multiplier sequences (TZ)")
    p.add_argument(
        "--bit-budget", type=int, default=DEFAULT_BIT_BUDGET, metavar="BITS",
        help="fail once a numerator or denominator exceeds BITS bits "
        f"(default {DEFAULT_BIT_BUDGET})",
    )
    p.set_defaults(func=cmd_tsys_iterate)

    p = tsub.add_parser("verify-periodic", help="check a periodic quantity on a trace")
    p.add_argument("--trace", required=True, help="trace-v1 JSON file")
    p.add_argument("--template", required=True, help="builtin:NAME or an expression")
    p.add_argument(
        "--period", type=int, help="claimed period of an expression template (default 1)"
    )
    p.add_argument("--horizon", type=int)
    p.set_defaults(func=cmd_tsys_verify_periodic)

    p = tsub.add_parser("somos", help="full vs reduced recurrence comparison")
    p.add_argument("--family", required=True, choices=reductions.SOMOS_TAGS)
    p.add_argument("--param", required=True, type=int)
    p.add_argument("--steps", type=int, default=30)
    p.set_defaults(func=cmd_tsys_somos)

    p = sub.add_parser("orbit", help="run a seed orbit and emit a trace")
    p.add_argument("--seed", required=True, help="seed-v1 JSON file")
    p.add_argument("--shape", required=True, choices=sorted(_SHAPES))
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--steps", required=True, type=int)
    p.add_argument("--csv", help="also write the trace as CSV to this path")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("reproduce", help="run one verification section")
    p.add_argument("section", choices=[*SECTIONS, "sec8"])
    p.add_argument("--seed", type=int, default=0, help="random seed for randomized checks")
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "check" and not args.period1:
        if args.k is None:
            parser.error("--k is required with --shape")
    # exact values and traces routinely exceed the default 4300-digit limit
    # on int/str conversion (Python 3.11+); lift it for this call only
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (QuiverError, formats.FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
