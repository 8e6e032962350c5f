"""Command-line interface: search, check, mutate, family verification,
T/Y-system extraction and iteration, periodic quantities, reproduction suites.

Exit codes, decided in main alone: 0 success; 1 a failed check (a check that
does not hold, a Period2Error, a BitBudgetError or a ZeroDivisionError); 2 a
usage or input error (any other QuiverError, a FormatError).  A CliError
carries its own code.
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
    Period2Error,
    Period2Spec,
    QuiverError,
    _integer,
    is_connected,
    is_period1,
    mutate,
)
from .report import Report
from .search import SearchJob, residual_report, search
from .systems import (
    BUILTIN_TEMPLATES,
    DEFAULT_BIT_BUDGET,
    BitBudgetError,
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
    """parse applied to the UTF-8 text of path ('-' = stdin); a malformed file
    (any ValueError: QuiverError, FormatError) names its path."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path!r}: {exc}")
    try:
        return parse(text)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}")


def _write(path: str, write) -> None:
    """write(fh) on path opened for writing; a failure names the path."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            write(fh)
    except OSError as exc:
        raise CliError(f"cannot write {path!r}: {exc}")


def _spec_from_args(args, n: int) -> Period2Spec:
    return Period2Spec(n, _SHAPES[args.shape], args.k)


def _default_jobs() -> int:
    env = os.environ.get("QUIVERPERIOD_JOBS") or "1"
    try:
        jobs = int(env)
    except ValueError:
        raise CliError(f"QUIVERPERIOD_JOBS={env!r} is not an integer")
    return _integer(jobs, "QUIVERPERIOD_JOBS", least=1)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_mutate(args) -> int:
    B = _load(args.quiver, formats.quiver_from_json)
    for v in args.at:
        B = mutate(B, v)
    if args.dot:
        _write(args.dot, lambda fh: fh.write(formats.quiver_to_dot(B) + "\n"))
    print(formats.quiver_to_json(B))
    return EXIT_OK


def cmd_check(args) -> int:
    if args.shape and args.k is None:
        raise CliError("--k is required with --shape")
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
    sys_spec = extract_system(B, _spec_from_args(args, B.n), args.kind)
    if args.format == "structured":
        print(json.dumps(sys_spec.to_dict(), indent=2))
    else:
        print(sys_spec.text())
    return EXIT_OK


def cmd_tsys_iterate(args) -> int:
    sys_spec = _load(args.system, formats.system_from_json)
    window = _load(args.init, formats.window_from_json)
    Z = _load(args.z, formats.window_from_json) if args.z else None
    seqs = iterate_system(sys_spec, window, args.steps, Z=Z, bit_budget=args.bit_budget)
    reached = len(seqs["z"]) - required_window(sys_spec)["z"]
    if reached < args.steps:
        raise BitBudgetError(reached, args.steps, args.bit_budget)
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
    row = verify_periodic(trace.seq, tmpl, horizon)
    print(f"{row.label}: {row.detail or 'periodic'}")
    return EXIT_OK if row.ok else EXIT_VERIFY


def cmd_tsys_somos(args) -> int:
    report = reductions.somos_reduce(args.family, args.param, args.steps, args.bit_budget)
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
    trace = run_orbit(seed, _spec_from_args(args, seed.B.n), args.steps, keep_states=False)
    if args.csv:
        _write(args.csv, lambda fh: formats.trace_to_csv(trace, fh))
    print(formats.trace_to_json(trace))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_bit_budget(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--bit-budget", type=int, default=DEFAULT_BIT_BUDGET, metavar="BITS",
        help="fail once a numerator or denominator exceeds BITS bits "
        f"(default {DEFAULT_BIT_BUDGET})",
    )


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
    _add_bit_budget(p)
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
    _add_bit_budget(p)
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
    # exact values and traces routinely exceed the default 4300-digit limit
    # on int/str conversion (Python 3.11+); lift it for this call only
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (CliError, QuiverError, formats.FormatError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, CliError):
            return exc.code
        failed = (Period2Error, BitBudgetError, ZeroDivisionError)
        return EXIT_VERIFY if isinstance(exc, failed) else EXIT_USAGE
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
