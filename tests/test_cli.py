import argparse
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from quiverperiod.cli import build_parser, main
from quiverperiod.formats import quiver_from_json, quiver_to_json, trace_from_json, trace_to_json
from quiverperiod import BUILTIN_TEMPLATES, ExchangeMatrix, extract_system, iterate_system
from quiverperiod.reductions import SECTION_TAGS
from quiverperiod.report import Report, Row
import quiverperiod.families as fm
import quiverperiod.reductions as reductions

ROOT = Path(__file__).resolve().parents[1]

MARKOV_JSON = json.dumps(
    {"format": "quiverperiod/quiver-v1", "n": 3, "b": [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]}
)
A2 = ExchangeMatrix.from_rows([[0, 1], [-1, 0]])


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def markov_file(tmp_path):
    path = tmp_path / "markov.json"
    path.write_text(MARKOV_JSON)
    return str(path)


class TestMutateCommand:
    def test_involution(self, markov_file, capsys):
        code, out, _ = run_cli(["mutate", "--quiver", markov_file, "--at", "1", "1"], capsys)
        assert code == 0
        assert quiver_from_json(out.strip()) == quiver_from_json(MARKOV_JSON)

    def test_single_mutation_value(self, markov_file, capsys):
        code, out, _ = run_cli(["mutate", "--quiver", markov_file, "--at", "1"], capsys)
        assert code == 0
        assert quiver_from_json(out.strip()) == ExchangeMatrix.from_rows(
            [[0, -2, 2], [2, 0, -2], [-2, 2, 0]]
        )

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run_cli(["mutate", "--quiver", str(bad), "--at", "1"], capsys)
        assert code == 2
        assert "line 1" in err

    def test_vertex_out_of_range_exit_2(self, tmp_path, capsys):
        path = tmp_path / "a2.json"
        path.write_text(quiver_to_json(A2))
        code, out, err = run_cli(["mutate", "--quiver", str(path), "--at", "3"], capsys)
        assert (code, out, err) == (2, "", "error: vertex 3 out of range 1..2\n")

    def test_dot_output(self, markov_file, tmp_path, capsys):
        dot = tmp_path / "out.dot"
        code, _, _ = run_cli(
            ["mutate", "--quiver", markov_file, "--at", "1", "1", "--dot", str(dot)],
            capsys,
        )
        assert code == 0
        text = dot.read_text()
        assert text.startswith("digraph") and '1 -> 2 [label="2"]' in text

    def test_unwritable_dot_exit_2_before_any_output(self, markov_file, tmp_path, capsys):
        dot = tmp_path / "missing" / "out.dot"
        code, out, err = run_cli(
            ["mutate", "--quiver", markov_file, "--at", "1", "--dot", str(dot)], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write") and "Traceback" not in err


class TestCheckCommand:
    def test_family_instance_two_cycle(self, tmp_path, capsys):
        B = fm.FAMILY_BY_KEY["n4-2c2-1"].matrix(m=1, n=1)
        path = tmp_path / "q.json"
        path.write_text(quiver_to_json(B))
        code, out, _ = run_cli(
            ["check", "--quiver", str(path), "--shape", "2cycle", "--k", "2"], capsys
        )
        assert code == 0
        assert "period-2" in out

    def test_k_out_of_range_message(self, tmp_path, capsys):
        path = tmp_path / "a2.json"
        path.write_text(quiver_to_json(A2))
        code, out, err = run_cli(
            ["check", "--quiver", str(path), "--shape", "1cycle", "--k", "5"], capsys
        )
        assert (code, out, err) == (2, "", "error: k=5 out of range for n=2\n")

    def test_zero_quiver_periodic_but_disconnected(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(quiver_to_json(ExchangeMatrix.zero(3)))
        code, out, _ = run_cli(
            ["check", "--quiver", str(path), "--shape", "1cycle", "--k", "2"], capsys
        )
        assert code == 0
        assert "disconnected" in out

    def test_perturbed_family_lists_residuals(self, tmp_path, capsys):
        B = fm.FAMILY_BY_KEY["n4-k2-1"].matrix(n=1)
        rows = [list(r) for r in B.rows]
        rows[0][2] += 1
        rows[2][0] -= 1
        path = tmp_path / "q.json"
        path.write_text(
            json.dumps({"format": "quiverperiod/quiver-v1", "n": 4, "b": rows})
        )
        code, out, _ = run_cli(
            ["check", "--quiver", str(path), "--shape", "1cycle", "--k", "2"], capsys
        )
        assert code == 1
        assert "case" in out and "residual" in out

    def test_shape_without_k_exit_2(self, markov_file, capsys):
        code, out, err = run_cli(["check", "--quiver", markov_file, "--shape", "1cycle"], capsys)
        assert (code, out, err) == (2, "", "error: --k is required with --shape\n")

    def test_period1(self, tmp_path, capsys):
        from quiverperiod import period1_from_row

        path = tmp_path / "p1.json"
        path.write_text(quiver_to_json(period1_from_row((-1, 2, -1))))
        code, out, _ = run_cli(["check", "--quiver", str(path), "--period1"], capsys)
        assert code == 0 and "period-1" in out


class TestSearchCommand:
    def test_streams_sorted_quivers(self, capsys):
        code, out, err = run_cli(
            ["search", "--n", "3", "--shape", "1cycle", "--k", "2", "--bound", "2",
             "--connected"],
            capsys,
        )
        assert code == 0
        lines = [l for l in out.strip().splitlines() if l]
        mats = [quiver_from_json(l) for l in lines]
        assert len(mats) == 6
        flats = [m.flatten() for m in mats]
        assert flats == sorted(flats)
        assert "# 6 solutions" in err

    def test_jobs_flag_same_result(self, capsys):
        base = run_cli(
            ["search", "--n", "4", "--shape", "2cycle", "--k", "3", "--bound", "1"],
            capsys,
        )
        par = run_cli(
            ["search", "--n", "4", "--shape", "2cycle", "--k", "3", "--bound", "1",
             "--jobs", "2"],
            capsys,
        )
        assert base[0] == par[0] == 0
        assert base[1] == par[1]

    @pytest.mark.parametrize("jobs", ["-1", "-5"])
    def test_negative_jobs_exit_2(self, jobs, capsys):
        code, out, err = run_cli(
            ["search", "--n", "3", "--shape", "1cycle", "--k", "2", "--bound", "1",
             "--jobs", jobs],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == f"error: jobs must be >= 1, got {jobs}\n"

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_n_below_two_is_blamed_on_n(self, n, capsys):
        code, out, err = run_cli(
            ["search", "--n", n, "--shape", "1cycle", "--k", "2", "--bound", "1"], capsys
        )
        assert (code, out, err) == (2, "", f"error: n must be >= 2, got {n}\n")

    def test_jobs_zero_means_default(self, monkeypatch, capsys):
        monkeypatch.delenv("QUIVERPERIOD_JOBS", raising=False)
        args = ["search", "--n", "3", "--shape", "1cycle", "--k", "2", "--bound", "1"]
        assert run_cli(args + ["--jobs", "0"], capsys) == run_cli(args, capsys)

    def test_jobs_env_sets_the_default(self, monkeypatch, capsys):
        args = ["search", "--n", "4", "--shape", "2cycle", "--k", "3", "--bound", "1"]
        monkeypatch.delenv("QUIVERPERIOD_JOBS", raising=False)
        base = run_cli(args, capsys)
        monkeypatch.setenv("QUIVERPERIOD_JOBS", "2")
        assert run_cli(args, capsys) == base
        assert base[0] == 0 and base[2].startswith("# ")

    @pytest.mark.parametrize("env, message", [
        ("-3", "QUIVERPERIOD_JOBS must be >= 1, got -3"),
        ("0", "QUIVERPERIOD_JOBS must be >= 1, got 0"),
        ("abc", "QUIVERPERIOD_JOBS='abc' is not an integer"),
    ], ids=["-3", "0", "abc"])
    def test_bad_jobs_env_exit_2(self, env, message, monkeypatch, capsys):
        monkeypatch.setenv("QUIVERPERIOD_JOBS", env)
        code, out, err = run_cli(
            ["search", "--n", "3", "--shape", "1cycle", "--k", "2", "--bound", "1"], capsys
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestTsysCommands:
    def test_extract_iterate_verify(self, tmp_path, capsys):
        B = fm.FAMILY_BY_KEY["n4-k2-1"].matrix(n=1)
        qpath = tmp_path / "q.json"
        qpath.write_text(quiver_to_json(B))
        code, out, _ = run_cli(
            ["tsys", "extract", "--quiver", str(qpath), "--shape", "1cycle",
             "--k", "2", "--kind", "t", "--format", "structured"],
            capsys,
        )
        assert code == 0
        spath = tmp_path / "sys.json"
        spath.write_text(out)
        ipath = tmp_path / "init.json"
        ipath.write_text(json.dumps({"z": ["1", "1", "1"], "y": ["1"]}))
        code, out, _ = run_cli(
            ["tsys", "iterate", "--system", str(spath), "--init", str(ipath),
             "--steps", "20"],
            capsys,
        )
        assert code == 0
        tpath = tmp_path / "trace.json"
        tpath.write_text(out)
        code, out, _ = run_cli(
            ["tsys", "verify-periodic", "--trace", str(tpath),
             "--template", "builtin:s81"],
            capsys,
        )
        assert code == 0 and "periodic" in out
        # an expression template that does not hold exits 1 and names the first failing q
        code, out, _ = run_cli(
            ["tsys", "verify-periodic", "--trace", str(tpath),
             "--template", "z(q)/y(q)", "--period", "1"],
            capsys,
        )
        assert code == 1
        assert out == "custom: period 1 over 20 steps: fails at q=0\n"

    def test_extract_text_form(self, tmp_path, capsys):
        B = fm.FAMILY_BY_KEY["n5-k2-5"].matrix(p=2)
        qpath = tmp_path / "q.json"
        qpath.write_text(quiver_to_json(B))
        code, out, _ = run_cli(
            ["tsys", "extract", "--quiver", str(qpath), "--shape", "1cycle",
             "--k", "2", "--kind", "t"],
            capsys,
        )
        assert code == 0
        assert "z(q)*y(q+1)" in out and "z(q+2)^2" in out

    def test_extract_rejects_aperiodic(self, tmp_path, capsys):
        qpath = tmp_path / "q.json"
        qpath.write_text(
            json.dumps(
                {"format": "quiverperiod/quiver-v1", "n": 3,
                 "b": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]}
            )
        )
        code, _, err = run_cli(
            ["tsys", "extract", "--quiver", str(qpath), "--shape", "1cycle",
             "--k", "2", "--kind", "t"],
            capsys,
        )
        assert code == 1

    def test_somos(self, capsys):
        code, out, _ = run_cli(
            ["tsys", "somos", "--family", "s82", "--param", "2", "--steps", "30"],
            capsys,
        )
        assert code == 0 and "PASS" in out

    @pytest.mark.parametrize("family, least, steps", [
        ("s82", 6, "0"), ("s82", 6, "-3"), ("s82", 6, "5"), ("s86", 7, "6"), ("s86", 7, "-1"),
    ])
    def test_somos_steps_below_window_exit_2(self, capsys, family, least, steps):
        code, out, err = run_cli(
            ["tsys", "somos", "--family", family, "--param", "2", "--steps", steps], capsys
        )
        assert (code, out, err) == (
            2, "", f"error: steps must be >= {least}, got {steps}\n"
        )

    def test_somos_stops_at_bit_budget(self, capsys):
        # s82 param 3 grows about 1.6x in bits per step: its full system
        # passes the default budget after step 27 of the 36 that 40 terms need
        start = time.perf_counter()
        code, out, err = run_cli(
            ["tsys", "somos", "--family", "s82", "--param", "3", "--steps", "40"], capsys
        )
        assert time.perf_counter() - start < 3
        assert (code, out) == (1, "")
        assert err == ("error: stopped after step 27 of 36: a value exceeds the bit budget "
                       "of 600000 bits (raise it with --bit-budget)\n")
        code, out, err = run_cli(
            ["tsys", "somos", "--family", "s86", "--param", "2", "--steps", "30",
             "--bit-budget", "20"], capsys,
        )
        assert (code, out) == (1, "") and err.startswith("error: stopped after step ")
        assert "of 26: " in err and "20 bits" in err

    def test_somos_nonpositive_bit_budget_exit_2(self, capsys):
        code, out, err = run_cli(
            ["tsys", "somos", "--family", "s82", "--param", "2", "--bit-budget", "0"], capsys
        )
        assert (code, out, err) == (2, "", "error: bit budget must be >= 1, got 0\n")

    def test_values_beyond_int_str_digit_limit(self, tmp_path, capsys):
        family = fm.FAMILY_BY_KEY["n4-k2-1"]
        tsys = extract_system(family.matrix(n=2), family.spec, "T")
        spath = tmp_path / "sys.json"
        spath.write_text(json.dumps(tsys.to_dict()))
        window = {"z": [1, 2, 3], "y": [2]}
        ipath = tmp_path / "init.json"
        ipath.write_text(json.dumps(window))
        code, out, err = run_cli(
            ["tsys", "iterate", "--system", str(spath), "--init", str(ipath),
             "--steps", "8"],
            capsys,
        )
        assert code == 0, err
        seqs = iterate_system(tsys, window, 8)
        assert max(abs(v.numerator) for v in seqs["z"] + seqs["y"]) > 10 ** 4300
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            trace = trace_from_json(out)
            assert trace_to_json(trace) == out.strip()
        finally:
            sys.set_int_max_str_digits(limit)
        assert trace.seq["z"] == seqs["z"] and trace.seq["y"] == seqs["y"]

    def test_iterate_stops_at_bit_budget(self, tmp_path, capsys):
        # n4-k2-1 n=2 values grow about 3.7x in bits per step: step 10 passes
        # the default budget, long before 40 steps
        family = fm.FAMILY_BY_KEY["n4-k2-1"]
        tsys = extract_system(family.matrix(n=2), family.spec, "T")
        spath = tmp_path / "sys.json"
        spath.write_text(json.dumps(tsys.to_dict()))
        ipath = tmp_path / "init.json"
        ipath.write_text(json.dumps({"z": [1, 2, 3], "y": [2]}))
        args = ["tsys", "iterate", "--system", str(spath), "--init", str(ipath)]
        code, out, err = run_cli(args + ["--steps", "40"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: stopped after step 10 of 40")
        assert "600000 bits" in err
        code, out, err = run_cli(args + ["--steps", "40", "--bit-budget", "200"], capsys)
        assert code == 1 and out == ""
        assert "step 4 of 40" in err and "200 bits" in err

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_iterate_nonpositive_bit_budget_exit_2(self, budget, tmp_path, capsys):
        spath = tmp_path / "sys.json"
        spath.write_text(_n4_system())
        ipath = tmp_path / "init.json"
        ipath.write_text(_GOOD_INIT)
        code, out, err = run_cli(
            ["tsys", "iterate", "--system", str(spath), "--init", str(ipath), "--steps", "3",
             "--bit-budget", budget],
            capsys,
        )
        assert code == 2 and out == ""
        assert err == f"error: bit budget must be >= 1, got {budget}\n"

    def test_iterate_names_a_float_window_value(self, tmp_path, capsys):
        spath = tmp_path / "sys.json"
        spath.write_text(_n4_system())
        ipath = tmp_path / "init.json"
        ipath.write_text(json.dumps({"z": ["1", 0.1, "1"], "y": ["1"]}))
        code, out, err = run_cli(
            ["tsys", "iterate", "--system", str(spath), "--init", str(ipath), "--steps", "3"],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "bad rational 0.1 in z[1]" in err

    def test_iterate_negative_steps_exit_2(self, tmp_path, capsys):
        spath = tmp_path / "sys.json"
        spath.write_text(_n4_system())
        ipath = tmp_path / "init.json"
        ipath.write_text(_GOOD_INIT)
        code, out, err = run_cli(
            ["tsys", "iterate", "--system", str(spath), "--init", str(ipath), "--steps", "-3"],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "steps" in err

    def test_iterate_y_system_zero_in_minus_slot_exit_1(self, tmp_path, capsys):
        # eq1: A(q)*B(q+1) = 1 / (1+B(q)^-1)*(1+A(q+1)^-1), and A(1) is 0
        family = fm.FAMILY_BY_KEY["n3-k2-1"]
        ysys = extract_system(family.matrix(n=1), family.spec, "Y")
        assert ysys.eq1.minus == {("y", 0): 1, ("z", 1): 1}
        spath = tmp_path / "sys.json"
        spath.write_text(json.dumps(ysys.to_dict()))
        ipath = tmp_path / "init.json"
        ipath.write_text(json.dumps({"z": ["1", "0"], "y": ["1"]}))
        code, out, err = run_cli(
            ["tsys", "iterate", "--system", str(spath), "--init", str(ipath), "--steps", "3"],
            capsys,
        )
        assert code == 1 and out == ""
        assert err == "error: zero value in Y-system denominator\n"


def _n4_system(top=(), **eq1_changes):
    family = fm.FAMILY_BY_KEY["n4-k2-1"]
    data = extract_system(family.matrix(n=1), family.spec, "T").to_dict()
    data["eq1"].update(eq1_changes)
    data.update(top)
    return json.dumps(data)


_N4_TRACE = {
    "format": "quiverperiod/trace-v1", "n": 4, "shape": "1-cycle", "k": 2,
    "b": [list(r) for r in fm.FAMILY_BY_KEY["n4-k2-1"].matrix(n=1).rows],
    "z": ["1", "1", "1"], "y": ["1"],
}
_VERIFY = ["tsys", "verify-periodic", "--trace", "BAD", "--template", "builtin:s81"]
_BAD_INIT = ["tsys", "iterate", "--system", "SYS", "--init", "BAD", "--steps", "2"]
_BAD_SYSTEM = ["tsys", "iterate", "--system", "BAD", "--init", "INIT", "--steps", "2"]
_GOOD_INIT = json.dumps({"z": ["1", "1", "1"], "y": ["1"]})

# case: (command line, {file placeholder in the command line: file contents});
# BAD is the malformed file
MALFORMED = {
    "orbit-seed": (
        ["orbit", "--seed", "BAD", "--shape", "1cycle", "--k", "2", "--steps", "2"],
        {"BAD": "{broken"},
    ),
    "orbit-float-seed": (
        ["orbit", "--seed", "BAD", "--shape", "1cycle", "--k", "2", "--steps", "2"],
        {"BAD": json.dumps({"format": "quiverperiod/seed-v1", "n": 4, "b": _N4_TRACE["b"],
                            "x": [0.1, "1", "1", "1"], "y": ["1"] * 4})},
    ),
    "trace-json": (_VERIFY, {"BAD": "[1, 2]"}),
    "trace-no-shape": (
        _VERIFY, {"BAD": json.dumps({k: v for k, v in _N4_TRACE.items() if k != "shape"})}
    ),
    "trace-z-not-list": (_VERIFY, {"BAD": json.dumps({**_N4_TRACE, "z": 5})}),
    "init-not-list": (_BAD_INIT, {"SYS": _n4_system(), "BAD": json.dumps({"z": 5})}),
    "init-float": (
        _BAD_INIT, {"SYS": _n4_system(), "BAD": json.dumps({"z": [0.1, "1", "1"], "y": ["1"]})}
    ),
    "init-bool": (
        _BAD_INIT, {"SYS": _n4_system(), "BAD": json.dumps({"z": [True, "1", "1"], "y": ["1"]})}
    ),
    "system-bad-exponent": (_BAD_SYSTEM, {"BAD": _n4_system(plus=[[1]]), "INIT": _GOOD_INIT}),
    "system-negative-offset": (
        _BAD_SYSTEM, {"BAD": _n4_system(plus=[["z", -1, 1]]), "INIT": _GOOD_INIT}
    ),
    "system-reads-ahead": (
        _BAD_SYSTEM, {"BAD": _n4_system(plus=[["z", 9, 1]]), "INIT": _GOOD_INIT}
    ),
    "system-one-slot-lhs": (_BAD_SYSTEM, {"BAD": _n4_system(lhs=[["z", 0]]), "INIT": _GOOD_INIT}),
    "system-fractional-exponent": (
        _BAD_SYSTEM, {"BAD": _n4_system(plus=[["y", 0, 1.5], ["z", 1, 1]]), "INIT": _GOOD_INIT}
    ),
    "system-bool-offset": (
        _BAD_SYSTEM, {"BAD": _n4_system(plus=[["y", False, 1], ["z", 1, 1]]), "INIT": _GOOD_INIT}
    ),
    "system-unknown-kind": (_BAD_SYSTEM, {"BAD": _n4_system({"kind": "Q"}), "INIT": _GOOD_INIT}),
    "system-n-mismatch": (_BAD_SYSTEM, {"BAD": _n4_system({"n": 5}), "INIT": _GOOD_INIT}),
}

# the file parses; iterate_system rejects the system it describes
CHECKED_AFTER_READING = {"system-reads-ahead"}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_file_exit_2(case, tmp_path, capsys):
    argv, files = MALFORMED[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / arg) if arg in files else arg for arg in argv]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    if case in CHECKED_AFTER_READING:
        assert err.startswith("error: ")
    else:
        assert err.startswith(f"error: {tmp_path / 'BAD'}: ")


_N4_SEED = {"format": "quiverperiod/seed-v1", "n": 4, "b": _N4_TRACE["b"],
            "x": ["1"] * 4, "y": ["1"] * 4}
_LONG_TRACE = json.dumps({**_N4_TRACE, "z": ["1"] * 8, "y": ["1"] * 8})

# the file options of every subcommand: (a command line that exits 0 when
# BAD holds the valid contents, the other files it reads, the valid contents)
FILE_OPTIONS = {
    "mutate --quiver": (["mutate", "--quiver", "BAD", "--at", "1"], {}, MARKOV_JSON),
    "check --quiver": (
        ["check", "--quiver", "BAD", "--shape", "1cycle", "--k", "2"], {}, MARKOV_JSON
    ),
    "tsys extract --quiver": (
        ["tsys", "extract", "--quiver", "BAD", "--shape", "1cycle", "--k", "2", "--kind", "y"],
        {}, MARKOV_JSON,
    ),
    "orbit --seed": (
        ["orbit", "--seed", "BAD", "--shape", "1cycle", "--k", "2", "--steps", "2"],
        {}, json.dumps(_N4_SEED),
    ),
    "tsys iterate --system": (_BAD_SYSTEM, {"INIT": _GOOD_INIT}, _n4_system()),
    "tsys iterate --init": (_BAD_INIT, {"SYS": _n4_system()}, _GOOD_INIT),
    "tsys iterate --z": (
        _BAD_INIT[:5] + ["INIT", "--z", "BAD", "--steps", "2"],
        {"SYS": _n4_system({"kind": "TZ"}), "INIT": _GOOD_INIT},
        json.dumps({"z": ["1", "2"], "y": ["1", "3"]}),
    ),
    "tsys verify-periodic --trace": (_VERIFY, {}, _LONG_TRACE),
}


def _bad_file(case, valid):
    """The bytes of a bad input file made from the valid contents."""
    data = json.loads(valid)
    if case == "format-tag":
        data["format"] = "quiverperiod/bogus-v1"
    elif case == "ragged-b":
        data["b"][1] = []
    return {
        "non-utf8": b'{"b": "\xff"}',
        "invalid-json": b"{broken",
        "json-list": b"[1, 2]",
    }.get(case, json.dumps(data).encode())


# a window file (--init, --z) has no format tag and no matrix
BAD_FILE_CASES = [
    (option, case)
    for option, (_, _, valid) in FILE_OPTIONS.items()
    for case in ("missing", "directory", "non-utf8", "invalid-json", "json-list",
                 "format-tag", "ragged-b")
    if "format" in json.loads(valid) or case not in ("format-tag", "ragged-b")
]


def _file_argv(option, tmp_path):
    """The option's command line with every placeholder a path in tmp_path,
    and the other files written."""
    argv, others, _ = FILE_OPTIONS[option]
    for name, text in others.items():
        (tmp_path / name).write_text(text)
    return [str(tmp_path / arg) if arg in others or arg == "BAD" else arg for arg in argv]


@pytest.mark.parametrize("option", sorted(FILE_OPTIONS))
def test_file_option_accepts_its_valid_file(option, tmp_path, capsys):
    # so that each refusal below is the bad file's doing
    (tmp_path / "BAD").write_text(FILE_OPTIONS[option][2])
    code, out, err = run_cli(_file_argv(option, tmp_path), capsys)
    assert code == 0 and out and err == "", err


@pytest.mark.parametrize("option, case", BAD_FILE_CASES)
def test_bad_input_file_exit_2(option, case, tmp_path, capsys):
    path = tmp_path / "BAD"
    if case == "directory":
        path.mkdir()
    elif case != "missing":
        path.write_bytes(_bad_file(case, FILE_OPTIONS[option][2]))
    code, out, err = run_cli(_file_argv(option, tmp_path), capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.count("\n") == 1 and str(path) in err


def _commands(parser, path=()):
    """(command, its parser) for every leaf command of the argparse tree."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
    for sub in subs:
        for name, child in sub.choices.items():
            yield from _commands(child, (*path, name))


COMMANDS = dict(_commands(build_parser()))

# every command: a command line that exits 0, and the files it reads
# (placeholders, as in MALFORMED)
VALID_COMMANDS = {
    "mutate": (["--quiver", "Q", "--at", "1"], {"Q": MARKOV_JSON}),
    "check": (["--quiver", "Q", "--shape", "1cycle", "--k", "2"], {"Q": MARKOV_JSON}),
    "search": (["--n", "3", "--shape", "1cycle", "--k", "2", "--bound", "1"], {}),
    "verify-theorem": (["--name", "N3", "--max-param", "1"], {}),
    "tsys extract": (
        ["--quiver", "Q", "--shape", "1cycle", "--k", "2", "--kind", "y"], {"Q": MARKOV_JSON}
    ),
    "tsys iterate": (
        ["--system", "SYS", "--init", "INIT", "--steps", "2"],
        {"SYS": _n4_system(), "INIT": _GOOD_INIT},
    ),
    "tsys verify-periodic": (["--trace", "T", "--template", "z(q)/y(q)"], {"T": _LONG_TRACE}),
    "tsys somos": (["--family", "s82", "--param", "1", "--steps", "8"], {}),
    "orbit": (
        ["--seed", "S", "--shape", "1cycle", "--k", "2", "--steps", "2"],
        {"S": json.dumps(_N4_SEED)},
    ),
    "reproduce": (["thm3"], {}),
}


def _options(keep):
    return [(command, action.option_strings[0])
            for command, parser in COMMANDS.items()
            for action in parser._actions if action.option_strings and keep(action)]


# the integer options, and the options naming a file to write
INT_OPTIONS = _options(lambda action: action.type is int)
OUTPUT_OPTIONS = _options(lambda action: "write" in (action.help or ""))


def _sweep(command, option, value, tmp_path, capsys, monkeypatch):
    """Run the command's valid line with option set to value, in-process:
    (exit code, stdout, stderr); argparse's exit is caught."""
    monkeypatch.delenv("QUIVERPERIOD_JOBS", raising=False)
    args, files = VALID_COMMANDS[command]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    args = [str(tmp_path / arg) if arg in files else arg for arg in args]
    if option in args:
        args[args.index(option) + 1] = value
    elif option is not None:
        args += [option, value]
    try:
        code = main([*command.split(), *args])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return code, out, err


def _one_error_line(err):
    return sum("error:" in line for line in err.splitlines()) == 1


def test_sweep_covers_every_command_and_option():
    assert sorted(VALID_COMMANDS) == sorted(COMMANDS)
    assert sorted(OUTPUT_OPTIONS) == [("mutate", "--dot"), ("orbit", "--csv")]
    assert {("mutate", "--at"), ("tsys somos", "--bit-budget")} <= set(INT_OPTIONS)


@pytest.mark.parametrize("command", sorted(VALID_COMMANDS))
def test_valid_command_line_exits_0(command, tmp_path, capsys, monkeypatch):
    # so that each exit 2 below is the swept option's doing
    code, out, err = _sweep(command, None, None, tmp_path, capsys, monkeypatch)
    assert code == 0 and out and "error" not in err


@pytest.mark.parametrize("value", ["-1", "0", "x"])
@pytest.mark.parametrize("command, option", INT_OPTIONS)
def test_integer_option_sweep(command, option, value, tmp_path, capsys, monkeypatch):
    """-1 and 0 are run or refused with one error line, never a traceback; a
    non-number is argparse's usage error."""
    code, out, err = _sweep(command, option, value, tmp_path, capsys, monkeypatch)
    assert code == 2 if value == "x" else code in (0, 2)
    assert code == 0 or (out == "" and _one_error_line(err)), err


@pytest.mark.parametrize("target", ["missing/out", "."])
@pytest.mark.parametrize("command, option", OUTPUT_OPTIONS)
def test_output_option_sweep(command, option, target, tmp_path, capsys, monkeypatch):
    code, out, err = _sweep(command, option, str(tmp_path / target), tmp_path, capsys,
                            monkeypatch)
    assert (code, out) == (2, "") and err.startswith("error: cannot write")
    assert _one_error_line(err), err


def _set(path, value):
    """An edit of a system-v1 dict: set the item at path, or delete it when value is None."""

    def edit(data):
        *outer, last = path
        for key in outer:
            data = data[key]
        if value is None:
            del data[last]
        else:
            data[last] = value

    return edit


# case: (edit of the n4-k2-1 T-system file, the error after the path)
SYSTEM_FILE_ERRORS = {
    "b-half": (_set(["b", 0, 0], 0.5), "entry b[1][1] must be an integer"),
    "b-string": (_set(["b", 0, 0], "0"), "entry b[1][1] must be an integer"),
    "b-bool": (_set(["b", 0, 1], True), "entry b[1][2] must be an integer"),
    "b-not-rows": (_set(["b"], 7), "field 'b' must be a list of integer rows"),
    "no-b": (_set(["b"], None), "missing field 'b'"),
    "no-eq2": (_set(["eq2"], None), "missing field 'eq2'"),
    "k-string": (_set(["k"], "2"), "field 'k' must be an integer"),
    "plus-pair": (
        _set(["eq1", "plus"], [["z", 1]]),
        "field 'eq1.plus' must be a list of [seq, offset, exponent] lists",
    ),
    "lhs-not-list": (_set(["eq2", "lhs"], 5), "field 'eq2.lhs' must be a list of [seq, offset] lists"),
    "eq1-not-object": (_set(["eq1"], [1, 2]), "field 'eq1.lhs' must be a list of [seq, offset] lists"),
    "plus-repeated-slot": (
        _set(["eq1", "plus"], [["y", 0, 1], ["z", 1, 1], ["y", 0, 5]]),
        "field 'eq1.plus' lists slot ['y', 0] twice",
    ),
}


@pytest.mark.parametrize("case", sorted(SYSTEM_FILE_ERRORS))
def test_iterate_names_the_bad_system_field(case, tmp_path, capsys):
    edit, message = SYSTEM_FILE_ERRORS[case]
    data = json.loads(_n4_system())
    edit(data)
    (tmp_path / "sys.json").write_text(json.dumps(data))
    (tmp_path / "init.json").write_text(_GOOD_INIT)
    code, out, err = run_cli(
        ["tsys", "iterate", "--system", str(tmp_path / "sys.json"),
         "--init", str(tmp_path / "init.json"), "--steps", "2"],
        capsys,
    )
    assert code == 2 and out == ""
    assert err == f"error: {tmp_path / 'sys.json'}: {message}\n"


VACUOUS = {
    "horizon-negative": ["--template", "builtin:s81", "--horizon", "-5"],
    "horizon-zero": ["--template", "builtin:s81", "--horizon", "0"],
    "period-zero": ["--template", "z(q)/y(q)", "--period", "0"],
    "period-negative": ["--template", "z(q)/y(q)", "--period", "-2"],
}


@pytest.mark.parametrize("case", sorted(VACUOUS))
def test_vacuous_periodicity_check_exit_2(case, tmp_path, capsys):
    (tmp_path / "trace.json").write_text(_LONG_TRACE)
    argv = ["tsys", "verify-periodic", "--trace", str(tmp_path / "trace.json")]
    code, out, err = run_cli(argv + VACUOUS[case], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "must be >= 1" in err


def test_period_only_for_expression_templates(tmp_path, capsys):
    (tmp_path / "trace.json").write_text(_LONG_TRACE)
    argv = ["tsys", "verify-periodic", "--trace", str(tmp_path / "trace.json")]
    code, out, err = run_cli(argv + ["--template", "builtin:s81", "--period", "0"], capsys)
    assert code == 2 and out == ""
    assert err == "error: --period applies to expression templates only; s81 has its own\n"
    code, out, _ = run_cli(argv + ["--template", "z(q)/y(q)"], capsys)
    assert code == 0 and out == "custom: period 1 over 7 steps: periodic\n"


def test_unknown_builtin_template_exit_2(tmp_path, capsys):
    (tmp_path / "trace.json").write_text(_LONG_TRACE)
    code, out, err = run_cli(
        ["tsys", "verify-periodic", "--trace", str(tmp_path / "trace.json"),
         "--template", "builtin:nope"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err == f"error: unknown builtin template 'nope'; have {sorted(BUILTIN_TEMPLATES)}\n"
    assert all(name in err for name in ("s81", "s82", "s83", "s84", "s85", "s86"))


def test_horizon_beyond_the_trace_exit_2(tmp_path, capsys):
    # the 8-value trace serves s81 (max offset 1, period 2) up to horizon 5
    (tmp_path / "trace.json").write_text(_LONG_TRACE)
    argv = ["tsys", "verify-periodic", "--trace", str(tmp_path / "trace.json"),
            "--template", "builtin:s81", "--horizon"]
    code, out, err = run_cli(argv + ["5"], capsys)
    assert code == 0 and out == "s81: period 2 over 5 steps: periodic\n"
    code, out, err = run_cli(argv + ["6"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: trace too short: template needs 9 values")


def test_vanishing_template_denominator_exit_1(tmp_path, capsys):
    (tmp_path / "trace.json").write_text(_LONG_TRACE)
    code, out, err = run_cli(
        ["tsys", "verify-periodic", "--trace", str(tmp_path / "trace.json"),
         "--template", "z(q)/0"],
        capsys,
    )
    assert code == 1 and out == ""
    assert err == "error: template custom denominator vanished at q=0\n"


class TestOrbitCommand:
    def test_negative_steps_exit_2(self, tmp_path, capsys):
        B = fm.FAMILY_BY_KEY["n4-k2-1"].matrix(n=1)
        seed = {"format": "quiverperiod/seed-v1", "n": 4, "b": [list(r) for r in B.rows],
                "x": ["1"] * 4, "y": ["1"] * 4}
        spath = tmp_path / "seed.json"
        spath.write_text(json.dumps(seed))
        argv = ["orbit", "--seed", str(spath), "--shape", "1cycle", "--steps"]
        code, out, err = run_cli(argv + ["-1", "--k", "2"], capsys)
        assert code == 2 and out == "" and err == "error: steps must be >= 0, got -1\n"
        # a seed that fails its period-2 equation is a failed check
        code, _, err = run_cli(argv + ["2", "--k", "3"], capsys)
        assert code == 1 and "period-2 equation" in err

    def test_orbit_trace_and_csv(self, tmp_path, capsys):
        B = fm.FAMILY_BY_KEY["n4-k2-1"].matrix(n=1)
        seed = {
            "format": "quiverperiod/seed-v1",
            "n": 4,
            "b": [list(r) for r in B.rows],
            "x": ["1", "1", "1", "1"],
            "y": ["1", "2", "1/3", "1"],
        }
        spath = tmp_path / "seed.json"
        spath.write_text(json.dumps(seed))
        cpath = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            ["orbit", "--seed", str(spath), "--shape", "1cycle", "--k", "2",
             "--steps", "12", "--csv", str(cpath)],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["format"] == "quiverperiod/trace-v1"
        assert len(data["z"]) == 6
        assert cpath.read_text().startswith("u,slot,value")

    def test_unwritable_csv_exit_2_before_any_output(self, tmp_path, capsys):
        B = fm.FAMILY_BY_KEY["n4-k2-1"].matrix(n=1)
        seed = {"format": "quiverperiod/seed-v1", "n": 4, "b": [list(r) for r in B.rows],
                "x": ["1"] * 4, "y": ["1"] * 4}
        spath = tmp_path / "seed.json"
        spath.write_text(json.dumps(seed))
        cpath = tmp_path / "missing" / "trace.csv"
        code, out, err = run_cli(
            ["orbit", "--seed", str(spath), "--shape", "1cycle", "--k", "2",
             "--steps", "4", "--csv", str(cpath)],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write") and "Traceback" not in err


class TestVerifyTheorem:
    def test_structured_success(self, capsys):
        code, out, err = run_cli(
            ["verify-theorem", "--name", "N3", "--max-param", "1", "--bound", "1",
             "--format", "structured"],
            capsys,
        )
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["theorem"] == "N3" and data["ok"] is True and data["checks"]

    def test_negative_max_param_exit_2(self, capsys):
        code, out, err = run_cli(
            ["verify-theorem", "--name", "thm4", "--max-param", "-1"], capsys
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "max_param" in err


class TestReproduce:
    def test_thm3(self, capsys):
        code, out, _ = run_cli(["reproduce", "thm3"], capsys)
        assert code == 0
        assert "OK" in out and "[PASS]" in out

    def test_structured_report_records_seed(self, capsys):
        code, out, _ = run_cli(
            ["reproduce", "thm3", "--seed", "7", "--format", "structured"], capsys
        )
        assert code == 0
        data = json.loads(out.split("\n", 1)[1])
        assert data["seed"] == 7 and data["ok"] is True

    @pytest.mark.parametrize("failing", [None, "s84"])
    def test_sec8_rows_in_section_order(self, failing, monkeypatch, capsys):
        # verify_section stubbed: sec8 checks every tag in SECTION_TAGS order
        # with 3 seeds and horizon 30, on one generator seeded by --seed, and
        # exits 1 when any row fails
        calls = []

        def fake(tag, seeds, horizon, rng):
            if not calls:
                assert rng.getstate() == random.Random(5).getstate()
            calls.append((tag, seeds, horizon, rng))
            return Report(tag, [Row(f"{tag} first", True, "d"),
                                Row(f"{tag} second", tag != failing)])

        monkeypatch.setattr(reductions, "verify_section", fake)
        code, out, err = run_cli(["reproduce", "sec8", "--seed", "5"], capsys)
        assert [c[:3] for c in calls] == [(tag, 3, 30) for tag in SECTION_TAGS]
        assert len({id(c[3]) for c in calls}) == 1
        assert (code, err) == (0 if failing is None else 1, "")
        labels = [f"{tag} {which}" for tag in SECTION_TAGS for which in ("first", "second")]
        rows = [f"[{'FAIL' if label == f'{failing} second' else 'PASS'}] {label}"
                + ("  (d)" if label.endswith("first") else "") for label in labels]
        summary = f"{'OK' if failing is None else 'FAILED'}: 12 checks"
        assert out.splitlines() == ["# section sec8 (seed 5)", *rows, summary]
        calls.clear()
        code, out, _ = run_cli(["reproduce", "sec8", "--seed", "5", "--format", "structured"],
                               capsys)
        header, body = out.split("\n", 1)
        data = json.loads(body)
        assert header == "# section sec8 (seed 5)" and code == (0 if failing is None else 1)
        assert (data["section"], data["seed"], data["ok"]) == ("sec8", 5, failing is None)
        assert [c["label"] for c in data["checks"]] == labels


@pytest.mark.parametrize("script", ["reproduce_all.py", "search_quivers.py"])
def test_script_help(script):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr


def test_search_script_rejects_jobs_zero(tmp_path):
    out = tmp_path / "hits.jsonl"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "search_quivers.py"),
         "--max-n", "3", "--bound", "1", "--jobs", "0", "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: jobs must be >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("max_n", ["2", "-1"])
def test_search_script_rejects_max_n_below_3(tmp_path, max_n):
    out = tmp_path / "hits.jsonl"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "search_quivers.py"),
         "--max-n", max_n, "--bound", "0", "--jobs", "0", "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: --max-n must be >= 3, got {max_n}\n"
    assert not out.exists()


def test_search_script_unwritable_out_exit_2(tmp_path):
    out = tmp_path / "missing" / "hits.jsonl"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "search_quivers.py"),
         "--max-n", "3", "--bound", "1", "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: cannot write {str(out)!r}")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flag, value, message", [
    ("--horizon", "-1", "error: horizon must be >= 1, got -1\n"),
    ("--horizon", "0", "error: horizon must be >= 1, got 0\n"),
    ("--dynamics-seeds", "-1", "error: dynamics seeds must be >= 0, got -1\n"),
    # not a flag: the environment variable the theorem searches read
    ("QUIVERPERIOD_JOBS", "0", "error: QUIVERPERIOD_JOBS must be >= 1, got 0\n"),
])
def test_reproduce_script_rejects_bad_bounds_before_any_section(flag, value, message):
    argv, env = ([flag, value], {}) if flag.startswith("--") else ([], {flag: value})
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_all.py"), *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), **env},
    )
    assert proc.returncode == 2
    assert proc.stderr == message
    assert proc.stdout == ""


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "quiverperiod.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "period-2" in proc.stdout
