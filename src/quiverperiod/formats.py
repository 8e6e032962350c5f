"""Versioned file formats (quiver-v1, seed-v1, trace-v1), system windows
and DOT export."""

from __future__ import annotations

import json
from fractions import Fraction
from typing import IO

from .cluster import OrbitTrace, Seed
from .quiver import ExchangeMatrix, Period2Spec, QuiverError

QUIVER_FORMAT = "quiverperiod/quiver-v1"
SEED_FORMAT = "quiverperiod/seed-v1"
TRACE_FORMAT = "quiverperiod/trace-v1"


class FormatError(ValueError):
    pass


def _loads(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(data, dict):
        raise FormatError("top-level value must be an object")
    return data


def quiver_to_dict(B: ExchangeMatrix) -> dict:
    return {"format": QUIVER_FORMAT, "n": B.n, "b": [list(r) for r in B.rows]}


def quiver_to_json(B: ExchangeMatrix) -> str:
    return json.dumps(quiver_to_dict(B))


def quiver_from_dict(data: dict) -> ExchangeMatrix:
    if data.get("format") != QUIVER_FORMAT:
        raise FormatError(f"expected format {QUIVER_FORMAT!r}, got {data.get('format')!r}")
    n = data.get("n")
    b = data.get("b")
    if not isinstance(n, int) or n < 1:
        raise FormatError("field 'n' must be a positive integer")
    if not isinstance(b, list) or len(b) != n:
        raise FormatError(f"field 'b' must be a {n}x{n} integer matrix")
    for i, row in enumerate(b):
        if not isinstance(row, list) or len(row) != n:
            raise FormatError(f"row {i + 1} of 'b' must have {n} entries")
        for j, x in enumerate(row):
            if not isinstance(x, int) or isinstance(x, bool):
                raise FormatError(f"entry b[{i + 1}][{j + 1}] must be an integer")
    try:
        return ExchangeMatrix.from_rows(b)
    except QuiverError as exc:
        raise FormatError(str(exc))


def quiver_from_json(text: str) -> ExchangeMatrix:
    return quiver_from_dict(_loads(text))


def _frac_str(v) -> str:
    f = Fraction(v)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _parse_frac(s, where: str) -> Fraction:
    """A rational from a JSON integer or string; a float or bool is refused."""
    try:
        if type(s) is not int and not isinstance(s, str):
            raise TypeError("expected an integer or a string")
        return Fraction(s)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {s!r} in {where}: {exc}")


def window_from_json(text: str) -> dict[str, list]:
    """The 'z' and 'y' lists of rationals of a JSON object (an absent one is
    empty): an initial window, or the multipliers of a TZ-system."""
    data = _loads(text)
    if not all(isinstance(data.get(name, []), list) for name in ("z", "y")):
        raise FormatError("expected an object with 'z' and 'y' lists")
    return {
        name: [_parse_frac(v, f"{name}[{i}]") for i, v in enumerate(data.get(name, []))]
        for name in ("z", "y")
    }


def seed_to_dict(seed: Seed) -> dict:
    if seed.symbolic:
        raise FormatError("only rational seeds can be serialized")
    data = quiver_to_dict(seed.B)
    data["format"] = SEED_FORMAT
    data["x"] = [_frac_str(v) for v in seed.x]
    data["y"] = [_frac_str(v) for v in seed.y]
    return data


def seed_to_json(seed: Seed) -> str:
    return json.dumps(seed_to_dict(seed))


def seed_from_dict(data: dict) -> Seed:
    if data.get("format") != SEED_FORMAT:
        raise FormatError(f"expected format {SEED_FORMAT!r}, got {data.get('format')!r}")
    B = quiver_from_dict({**data, "format": QUIVER_FORMAT})
    for name in ("x", "y"):
        if not isinstance(data.get(name), list) or len(data[name]) != B.n:
            raise FormatError(f"field {name!r} must list {B.n} rationals")
    x = tuple(_parse_frac(v, f"x[{i + 1}]") for i, v in enumerate(data["x"]))
    y = tuple(_parse_frac(v, f"y[{i + 1}]") for i, v in enumerate(data["y"]))
    try:
        return Seed(B, x, y)
    except QuiverError as exc:
        raise FormatError(str(exc))


def seed_from_json(text: str) -> Seed:
    return seed_from_dict(_loads(text))


def trace_to_dict(trace: OrbitTrace) -> dict:
    return {
        "format": TRACE_FORMAT,
        "n": trace.spec.n,
        "shape": trace.spec.shape,
        "k": trace.spec.k,
        "b": [list(r) for r in trace.B0.rows],
        "steps": trace.steps,
        "z": [_frac_str(v) for v in trace.seq["z"]],
        "y": [_frac_str(v) for v in trace.seq["y"]],
        "A": [_frac_str(v) for v in trace.seq["A"]],
        "B": [_frac_str(v) for v in trace.seq["B"]],
    }


def trace_to_json(trace: OrbitTrace) -> str:
    return json.dumps(trace_to_dict(trace))


def trace_from_dict(data: dict) -> OrbitTrace:
    if data.get("format") != TRACE_FORMAT:
        raise FormatError(f"expected format {TRACE_FORMAT!r}, got {data.get('format')!r}")
    B = quiver_from_dict({**data, "format": QUIVER_FORMAT})
    k = data.get("k")
    if not isinstance(k, int) or isinstance(k, bool):
        raise FormatError("field 'k' must be an integer")
    try:
        spec = Period2Spec(B.n, data.get("shape"), k)
    except QuiverError as exc:
        raise FormatError(str(exc))
    seq = {}
    for name in ("z", "y", "A", "B"):
        if not isinstance(data.get(name, []), list):
            raise FormatError(f"field {name!r} must be a list of rationals")
        seq[name] = [_parse_frac(v, f"{name}[{i}]") for i, v in enumerate(data.get(name, []))]
    return OrbitTrace(spec, B, data.get("steps", 0), seq, None)


def trace_from_json(text: str) -> OrbitTrace:
    return trace_from_dict(_loads(text))


def trace_to_csv(trace: OrbitTrace, out: IO[str]) -> None:
    """Rows (u, slot, value): u = 2q for z/A slots, 2q+1 for y/B slots."""
    out.write("u,slot,value\n")
    for name, parity in (("z", 0), ("y", 1), ("A", 0), ("B", 1)):
        for q, v in enumerate(trace.seq.get(name, [])):
            out.write(f"{2 * q + parity},{name},{_frac_str(v)}\n")


def quiver_to_dot(B: ExchangeMatrix, name: str = "quiver") -> str:
    """Directed graph with one labeled edge per positive entry."""
    lines = [f"digraph {name} {{"]
    for i in range(1, B.n + 1):
        lines.append(f"  {i};")
    for i in range(1, B.n + 1):
        for j in range(1, B.n + 1):
            w = B.b(i, j)
            if w > 0:
                lines.append(f'  {i} -> {j} [label="{w}"];')
    lines.append("}")
    return "\n".join(lines)
