"""Command-line interface: formats, exit codes, determinism, batch mode."""

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import brieskorn
from brieskorn import HilbertSeries, MZWitness, bci_data, bci_graph, pg_max
from brieskorn.cli import ReportContext, main, pgmax_report
from brieskorn.report import (_HELD, _dumps, _Prewritten, _text_lines, json_list_text,
                              json_map_text, series_fields)
from conftest import EXPONENT_CORPUS
from properties import PROPERTY, example, exponent_tuples, given

TABLE_TSV = (
    "type\tpg\tmult\temb\n"
    "brieskorn complete intersection\t8\t6\t4\n"
    "maximal geometric genus\t10\t4\t4\n"
    "\n"
    "h3\th4\th5\th7\tpg\tmult\temb\tgorenstein\tgenerator_degrees"
    "\tvalue_semigroup\n"
    "1\t1\t1\t1\t8\t3\t4\tno\t2,3,8,10\t<3,8,10>\n"
    "0\t2\t1\t1\t8\t4\t4\tno\t2,4,5,11\t<4,5,11>\n"
    "0\t2\t0\t1\t7\t4\t5\tno\t2,4,7,9,10\t<4,7,9,10>\n"
    "0\t1\t1\t2\t8\t5\t5\tyes\t2,5,6,7,8\t<5,6,7,8>\n"
    "0\t1\t1\t1\t7\t5\t5\tno\t2,5,6,8,9\t<5,6,8,9>\n"
    "0\t1\t0\t1\t6\t6\t7\tno\t2,6,7,8,9,10,11\t<6,7,8,9,10,11>\n"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def error_envelope(capsys, expected_code, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == expected_code
    assert out == ""
    envelope = json.loads(err)["error"]
    assert envelope["code"] == expected_code
    return envelope


# -- single reports ----------------------------------------------------------


def test_bci_json_report(capsys):
    report = run_json(capsys, "bci", "2", "3", "3", "4")
    assert report["schema_version"] == 1
    assert report["ell"] == 12
    assert report["e"] == [6, 4, 4, 3]
    assert report["pg"] == 8
    assert report["a_invariant"] == 7
    assert report["a_invariant_in_weights"] is True  # 7 = 3 + 4
    assert report["m_equals_z"] is False
    assert report["e_m"] == 3 and report["alpha"] == 2
    assert report["deg_divisor"] == "1/2"
    assert report["fundamental_cycle"] == {"0": 2, "1": 1, "2": 1, "3": 1}
    assert report["maximal_ideal_cycle"] == {"0": 3, "1": 2, "2": 2, "3": 2}
    assert report["canonical_cycle"] == {"0": 8, "1": 4, "2": 4, "3": 4}
    assert report["numerically_gorenstein"] is True
    assert report["gorenstein"] is True
    assert report["pa_fundamental_cycle"] == 4
    assert report["minus_z_squared"] == 2
    assert report["minus_m_squared"] == 6
    assert report["multiplicity_lower_bound"] == 3
    assert report["embedding_dimension"] == 4
    assert report["weight_semigroup_generators"] == [3, 4]  # 6 = 3 + 3
    assert report["hilbert_coefficients"][:9] == [1, 0, 0, 1, 2, 0, 2, 2, 3]
    assert len(report["hilbert_coefficients"]) == 25  # through t^(2 ell)
    assert (report["z0"], report["m0"]) == (2, 3)
    # 64 coefficients reach past the series' own check order of 63 here
    report = run_json(capsys, "bci", "9", "12", "12")
    assert report["hilbert_coefficients"][60:] == [51, 48, 45, 54, 51]


def test_bci_text_report(capsys):
    code, out, err = run_cli(capsys, "bci", "2", "3", "3", "4",
                             "--format", "text")
    assert code == 0
    assert "pg: 8" in out.splitlines()
    assert "ell: 12" in out.splitlines()
    assert "m_equals_z: False" in out.splitlines()


@pytest.mark.parametrize("stage, wrong", [
    ("lattice_pg", lambda data: 9),
    # the count reads the a-invariant; Laufer's formula does not
    ("a_invariant", lambda data: 3),
    ("laufer_pg", lambda data: 9),
])
def test_pg_routes_must_agree(capsys, monkeypatch, stage, wrong):
    monkeypatch.setattr(brieskorn.bci, stage, wrong)
    code, out, err = run_cli(capsys, "pg", "2", "3", "3", "4")
    assert (code, out) == (4, "")
    laufer = 9 if stage == "laufer_pg" else 8
    assert json.loads(err)["error"]["message"].startswith(
        "Laufer's formula gives pg = %d, lattice count " % laufer)


def test_pg_text_default(capsys):
    code, out, err = run_cli(capsys, "pg", "2", "3", "3", "4")
    assert (code, out) == (0, "8\n")
    code, out, err = run_cli(capsys, "pg", "2", "2", "5")  # a-invariant -2
    assert (code, out) == (0, "0\n")
    report = run_json(capsys, "pg", "2", "3", "3", "4", "--format", "json")
    assert report["pg"] == 8


def test_pgmax(capsys):
    code, out, err = run_cli(capsys, "pgmax", "2", "3", "3", "4")
    assert (code, out) == (0, "10\n")
    report = run_json(capsys, "pgmax", "2", "3", "3", "4", "--format", "json")
    assert report["value"] == 10 and report["exact"] is True


def _assert_pgmax_is_the_period_tally(exponents):
    # on a rational central curve pgmax prints the checked p_g; pg_max's
    # tally over one period of degrees is the oracle, on every genus
    expected = pg_max(bci_data(exponents).seifert).to_json_dict()
    assert pgmax_report(ReportContext(None, exponents)) == expected, exponents


def test_pgmax_at_genus_zero_is_the_period_tally_on_the_corpus():
    rational = [t for t in EXPONENT_CORPUS if bci_data(t).g == 0]
    assert len(rational) == 595
    for exponents in rational:
        _assert_pgmax_is_the_period_tally(exponents)


@PROPERTY
@given(exponent_tuples())
@example((2, 3, 5))
@example((2, 3, 3, 4))
def test_pgmax_is_the_period_tally_property(exponents):
    _assert_pgmax_is_the_period_tally(exponents)


def test_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "bci", "6", "10", "45")
    _, second, _ = run_cli(capsys, "bci", "6", "10", "45")
    assert first == second
    assert first.endswith("\n")


def test_graph_reports(capsys):
    report = run_json(capsys, "graph", "2", "3", "5")
    assert report["negative_definite"] is True
    assert report["seifert"]["arms"] == [[2, 1], [3, 2], [5, 4]]
    assert len(report["graph"]["vertices"]) == 8

    code, out, _ = run_cli(capsys, "graph", "2", "3", "5", "--format", "dot")
    assert code == 0
    assert out.count("doublecircle") == 1
    assert out.endswith("\n")


def test_cycles_with_ladder(capsys):
    report = run_json(capsys, "cycles", "2", "3", "3", "4", "--order", "4")
    assert report["fundamental_cycle"]["coefficients"] == \
        {"0": 2, "1": 1, "2": 1, "3": 1}
    assert report["fundamental_cycle"]["pa"] == 4
    ladder = report["minimal_cycles"]
    assert ladder["3"]["cycle"] == {"0": 3, "1": 2, "2": 2, "3": 2}
    assert ladder["3"]["deg_on_central"] == 0
    assert ladder["2"]["deg_on_central"] == 1


def test_series_report(capsys):
    report = run_json(capsys, "series", "2", "3", "3", "4", "--order", "8")
    assert report["order"] == 8
    assert report["coefficients"] == [1, 0, 0, 1, 2, 0, 2, 2, 3]
    assert report["numerator"][12] == -2
    assert report["denominator_factors"] == [3, 4, 4, 6]
    assert "1 - 2t^12 + t^24" in report["series"]
    error_envelope(capsys, 2, "series", "2", "3", "4", "--order", "-1")


def test_dumps_splices_numerators_byte_for_byte():
    # two numerators at the top level and one nested, pre-written as the
    # reports hold them, against the plain report, whose numerators are the
    # dense coefficient lists, and a report string equal to the placeholder
    def plain(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    def plain_fields(series, prefix=""):
        return {prefix + "numerator": list(series.numerator.coeffs),
                prefix + "denominator_factors": list(series.denominator_factors),
                "series": series.format()}

    first = HilbertSeries.from_terms([(0, 1), (9, -2), (18, 1)], [3, 4])
    second = HilbertSeries.from_terms([(2, -(2 ** 64))], [])
    report = {"z": 1, **plain_fields(first, "a_"), **plain_fields(second, "b_"),
              "nested": plain_fields(second)}
    assert report["b_numerator"] == [0, 0, -(2 ** 64)]
    assert _dumps(report) == plain(report)
    # each numerator is spliced in where json.dumps wrote its placeholder,
    # with more pre-written values further down, and a placeholder string
    # in the report, at the top level or nested, makes _dumps fall back to
    # the plain values
    written = {"z": 1, **series_fields(first, "a_"), **series_fields(second, "b_"),
               "nested": series_fields(second)}
    assert type(written["a_numerator"]) is type(written["nested"]["numerator"]) is _Prewritten
    assert written == report and _dumps(written) == plain(report)
    assert _dumps({**written, "s": _HELD}) == plain({**report, "s": _HELD})
    assert _dumps(series_fields(first)["numerator"]) == "[1,0,0,0,0,0,0,0,0,-2," \
        "0,0,0,0,0,0,0,0,1]"
    graph = bci_graph(bci_data((2, 3, 3, 4)))
    values = [3, -1, 2 ** 64, 4]
    deep = {"ladder": {"1": {"cycle": _Prewritten(json_map_text(values)), "deg": 0},
                       "2": [_Prewritten(json_list_text(values)), None]},
            "graph": _Prewritten(graph.to_json())}
    plain_deep = {"ladder": {"1": {"cycle": {str(i): v for i, v in enumerate(values)},
                                   "deg": 0},
                             "2": [values, None]},
                  "graph": {"vertices": [{"selfint": s, "genus": g}
                                         for s, g in zip(graph.selfint, graph.genus)],
                            "edges": [list(e) for e in graph.edges], "central": 0}}
    for extra in ({}, {"s": _HELD}, {"t": [{"u": _HELD}]}, {_HELD: 0}):
        assert _dumps({**written, **deep, **extra}) == plain({**report, **plain_deep, **extra})
    assert _dumps(_Prewritten("[1,2]")) == "[1,2]"
    assert _dumps([_Prewritten("[1,2]"), _HELD]) == plain([[1, 2], _HELD])


def test_text_lines_write_pre_written_values():
    # a pre-written value is written as its text, alone or nested, never as
    # the object's repr
    graph = bci_graph(bci_data((9, 10, 18, 27)))
    report = {"graph": _Prewritten(graph.to_json()), "n": 3,
              "ladder": {"1": {"cycle": _Prewritten(json_map_text([1, 2]))}}}
    assert _text_lines(report, ("graph", "n", "ladder")) == (
        'graph: %s\nn: 3\nladder: {"1":{"cycle":{"0":1,"1":2}}}\n' % graph.to_json())
    assert graph.to_json().startswith('{"central":0,"edges":[[0,1],')


def test_semigroup_reports(capsys):
    code, out, _ = run_cli(capsys, "semigroup", "15", "9", "2",
                           "--member", "3")
    assert (code, out) == (0, "false\n")
    code, out, _ = run_cli(capsys, "semigroup", "15", "9", "2",
                           "--member", "64")
    assert (code, out) == (0, "true\n")

    code, out, _ = run_cli(capsys, "semigroup", "4", "5", "11", "9")
    assert code == 0
    assert "minimal_generators: 4,5,11" in out
    assert "frobenius: 7" in out

    code, out, _ = run_cli(capsys, "semigroup", "4", "6")
    assert code == 0 and "frobenius: -" in out

    report = run_json(capsys, "semigroup", "4", "6", "--format", "json",
                      "--member", "8")
    assert report["gcd"] == 2 and report["frobenius"] is None
    assert report["member"] == {"n": 8, "contained": True}


def test_case2334(capsys):
    report = run_json(capsys, "case2334", "--overrides", "1,1,1,1")
    assert report["pg"] == 8
    assert report["multiplicity"] == 3
    assert report["generator_degrees"] == [2, 3, 8, 10]
    assert report["mz"]["caveat"]

    code, out, _ = run_cli(capsys, "case2334", "--overrides", "0 1 1 2",
                           "--format", "text")
    assert code == 0
    assert "pg: 8" in out.splitlines()
    assert "gorenstein: True" in out.splitlines()


def test_case2334_failures(capsys):
    envelope = error_envelope(capsys, 3, "case2334", "--overrides", "0,1,0,2")
    assert envelope["kind"] == "model"
    assert "t^13" in envelope["message"]
    error_envelope(capsys, 2, "case2334", "--overrides", "1,1")
    error_envelope(capsys, 2, "case2334", "--overrides", "3,1,1,1")
    error_envelope(capsys, 2, "case2334")


def test_table_tsv_golden(capsys):
    code, out, _ = run_cli(capsys, "table")
    assert (code, out) == (0, TABLE_TSV)
    code, out, _ = run_cli(capsys, "table", "1")
    assert out == TABLE_TSV.split("\n\n")[0] + "\n"


def test_table_json(capsys):
    report = run_json(capsys, "table", "--format", "json")
    assert {"table1", "table2", "max_type"} <= set(report)
    assert report["max_type"]["relation_degrees"] == [6, 20]
    only1 = run_json(capsys, "table", "1", "--format", "json")
    assert "table2" not in only1


# -- failure envelopes ---------------------------------------------------------


def test_input_errors(capsys, tmp_path):
    envelope = error_envelope(capsys, 2, "bci", "2", "3", "1")
    assert envelope["kind"] == "input"
    error_envelope(capsys, 2, "bci", "2", "3")
    error_envelope(capsys, 2, "bci")
    error_envelope(capsys, 2, "pg", "2", "3", "x")
    error_envelope(capsys, 2, "bogus")
    error_envelope(capsys, 2)

    # --order is checked once for cycles and series, single and batch alike
    batch = tmp_path / "tuples.txt"
    batch.write_text("2 3 4\n")
    for argv in (("cycles", "2", "3", "4"), ("cycles", "--batch", str(batch)),
                 ("series", "--batch", str(batch))):
        envelope = error_envelope(capsys, 2, *argv, "--order", "-1")
        assert envelope["message"] == "--order must be >= 0"


# -- batch mode -----------------------------------------------------------------


def test_batch_json(capsys, tmp_path):
    batch = tmp_path / "tuples.txt"
    batch.write_text("2 3 3 4\n# a comment\n\n2,3,5\n")
    code, out, _ = run_cli(capsys, "pg", "--batch", str(batch))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["pg"] == 8
    assert json.loads(lines[1])["pg"] == 0


def test_batch_text(capsys, tmp_path):
    batch = tmp_path / "tuples.txt"
    batch.write_text("2 3 3 4\n6 10 45\n")
    code, out, _ = run_cli(capsys, "pg", "--batch", str(batch),
                           "--format", "text")
    assert code == 0
    assert out == "2,3,3,4\t8\n6,10,45\t284\n"
    code, out, _ = run_cli(capsys, "pgmax", "--batch", str(batch),
                           "--format", "text")
    assert out.splitlines()[0] == "2,3,3,4\t10"


def test_batch_failures(capsys, tmp_path):
    batch = tmp_path / "bad.txt"
    batch.write_text("2 3 3 4\nnope\n")
    envelope = error_envelope(capsys, 2, "pg", "--batch", str(batch))
    assert "line 2" in envelope["message"]

    valid = tmp_path / "ok.txt"
    valid.write_text("2 3 4\n")
    error_envelope(capsys, 2, "pg", "2", "3", "4", "--batch", str(valid))
    error_envelope(capsys, 2, "bci", "--batch", str(valid), "--format", "text")

    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    error_envelope(capsys, 2, "pg", "--batch", str(empty))
    error_envelope(capsys, 2, "pg", "--batch", str(tmp_path / "missing.txt"))
    not_utf8 = tmp_path / "latin.txt"
    not_utf8.write_bytes(b"\xff\xfe\n")
    envelope = error_envelope(capsys, 2, "pg", "--batch", str(not_utf8))
    assert envelope["message"].startswith("cannot read batch file")

    bad_tuple = tmp_path / "short.txt"
    bad_tuple.write_text("2 3 3 4\n2 3\n")
    envelope = error_envelope(capsys, 2, "pg", "--batch", str(bad_tuple))
    assert "line 2" in envelope["message"]


# -- the report envelope ---------------------------------------------------------

TUPLE_COMMANDS = (("bci",), ("graph",), ("cycles",), ("pg",), ("pgmax",), ("series",))
OTHER_COMMANDS = (("semigroup", "6", "10", "15"), ("case2334", "--overrides", "1,1,1,1"),
                  ("table",))


@pytest.mark.parametrize("argv", TUPLE_COMMANDS + OTHER_COMMANDS)
def test_every_report_has_the_envelope(capsys, argv):
    # the input order is not sorted, so the exponents are the sorted copy
    tuple_args = ("4", "2", "3", "3") if argv in TUPLE_COMMANDS else ()
    report = run_json(capsys, *argv, *tuple_args, "--format", "json")
    assert report["schema_version"] == 1
    if tuple_args:
        assert report["exponents"] == [2, 3, 3, 4]
    else:
        assert "exponents" not in report


@pytest.mark.parametrize("argv", TUPLE_COMMANDS)
def test_every_batch_report_has_the_envelope(capsys, tmp_path, argv):
    batch = tmp_path / "tuples.txt"
    batch.write_text("4 3 3 2\n45,6,10\n")
    code, out, err = run_cli(capsys, *argv, "--batch", str(batch))
    assert code == 0, err
    reports = [json.loads(line) for line in out.splitlines()]
    assert [r["schema_version"] for r in reports] == [1, 1]
    assert [r["exponents"] for r in reports] == [[2, 3, 3, 4], [6, 10, 45]]


def test_bci_verdict_must_match_its_cycles(capsys, monkeypatch, tmp_path):
    # M = Z on (6, 10, 45) although h0(D_alpha) = 0, so no other check
    # stops a verdict flipped to False
    report = run_json(capsys, "bci", "6", "10", "45")
    assert report["m_equals_z"] is True and report["h0_alpha_nonzero"] is False
    m_equals_z = brieskorn.bci.m_equals_z

    def flipped(data):
        witness = m_equals_z(data)
        return MZWitness(equal=False, e_m=witness.e_m, alpha=witness.alpha)

    monkeypatch.setattr(brieskorn.bci, "m_equals_z", flipped)
    envelope = error_envelope(capsys, 4, "bci", "6", "10", "45")
    assert envelope["message"] == ("m_equals_z is False by e_m <= alpha but "
                                   "True by the cycles")
    # in batch mode the message names the line it came from
    batch = tmp_path / "tuples.txt"
    batch.write_text("2 3 3 4\n6 10 45\n")
    envelope = error_envelope(capsys, 4, "bci", "--batch", str(batch))
    assert envelope["message"] == ("batch line 2 (6,10,45): m_equals_z is False "
                                   "by e_m <= alpha but True by the cycles")


def test_memory_error_is_an_internal_error(capsys, monkeypatch):
    apery = brieskorn.numerics.NumericalSemigroup.__dict__["_apery"]

    def exhausted(self):
        raise MemoryError

    monkeypatch.setattr(apery, "func", exhausted)
    envelope = error_envelope(capsys, 4, "semigroup", "6", "10", "15")
    assert envelope == {"code": 4, "kind": "internal", "message": "out of memory"}


def test_recursion_error_is_an_internal_error(capsys, monkeypatch):
    # no input is known to recurse too deep; a stage is made to
    def too_deep(data):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(brieskorn.bci, "lattice_pg", too_deep)
    code, out, err = run_cli(capsys, "pg", "2", "3", "3", "4")
    assert (code, out) == (4, "")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert json.loads(err)["error"] == {"code": 4, "kind": "internal",
                                        "message": "maximum recursion depth exceeded"}


# -- entry points ------------------------------------------------------------


def fresh_python(*args):
    """Run python with args in a fresh interpreter that imports the same
    brieskorn package the suite imported."""
    src = str(Path(brieskorn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, timeout=60, env=env)


def launch(*argv):
    """Run the CLI in a fresh interpreter."""
    return fresh_python("-m", "brieskorn.cli", *argv)


# what a fresh interpreter has loaded after one cli.main call
_LOADED = """
import sys
from brieskorn import cli
cli.main(%r)
print(sorted(name for name in ("dataclasses", "brieskorn.pdmodel") if name in sys.modules))
"""


@pytest.mark.parametrize("argv, loaded", [
    (["pg", "2", "3", "3", "4"], []),
    (["graph", "2", "3", "3", "4"], []),
    (["cycles", "2", "3", "3", "4"], []),
    (["semigroup", "3", "5"], []),
    (["bci", "2", "3", "3", "4"], ["brieskorn.pdmodel"]),
])
def test_a_launch_imports_only_what_it_runs(argv, loaded):
    # no record needs dataclasses, and pdmodel loads in the builders that
    # use it alone
    proc = fresh_python("-c", _LOADED % (argv,))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr(loaded)


def test_the_package_namespace_resolves_on_first_access():
    # importing the package loads no module; each public name loads its own
    proc = fresh_python("-c", "import sys, brieskorn; print(sorted("
                              "m for m in sys.modules if m.startswith('brieskorn')))")
    assert proc.stdout == "['brieskorn']\n", proc.stderr
    namespace = {}
    exec("from brieskorn import *", namespace)
    assert set(brieskorn.__all__) <= set(namespace)
    assert set(brieskorn.__all__) | {"PDDegreeModel"} <= set(dir(brieskorn))
    assert "PDDegreeModel" not in brieskorn.__all__
    assert brieskorn.PDDegreeModel.from_bci is brieskorn.bci_seifert
    assert brieskorn.laufer_pg is brieskorn.bci.laufer_pg
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        brieskorn.no_such_name


@pytest.mark.parametrize("first, second", [
    (("cycles", "2", "3", "3", "4", "--order", "2"), ("cycles", "2", "3", "3", "4")),
    (("series", "6", "10", "45", "--order", "5"), ("series", "6", "10", "45")),
    (("pg", "2", "3", "3", "4", "--format", "json"), ("pg", "2", "3", "3", "4")),
])
def test_repeated_calls_leak_no_options(capsys, first, second):
    # the parser is built once per process; each call still parses afresh
    for argv in (first, second):
        code, out, err = run_cli(capsys, *argv)
        fresh = launch(*argv)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_console_script():
    # The declared launch, run in a fresh interpreter: the only check that the
    # __main__ guard maps main's return value to the process exit status.
    proc = launch("pg", "2", "3", "3", "4")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "8\n"
    assert proc.stderr == ""
    proc = launch("pg", "2", "3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"]["code"] == 2

    # The console script that pip generates calls this entry point.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"brieskorn": "brieskorn.cli:main"}
    module, _, attr = scripts["brieskorn"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main


@pytest.mark.skipif(shutil.which("brieskorn") is None,
                    reason="no installed brieskorn console script on PATH")
def test_installed_console_script():
    exe = shutil.which("brieskorn")
    assert exe, "console script should be installed with the package"
    proc = subprocess.run([exe, "pg", "2", "3", "3", "4"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "8\n"
