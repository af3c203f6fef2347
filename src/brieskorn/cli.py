"""Command-line front end.

Subcommands: bci, graph, cycles, pg, pgmax, series, semigroup, case2334,
table.  Output is deterministic: identical invocations produce byte-identical
output.  Failures print a JSON envelope {"error": {...}} to stderr and exit
with 2 (bad input), 3 (model inconsistency) or 4 (internal invariant breach).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, cached_property
from math import gcd
from typing import Callable, NamedTuple

from . import bci as _bci
from .cycles import (cycle_report, deg_on_central, fundamental_cycle,
                     minimal_cycle)
from .errors import InputError, InternalInvariantError, ModelInconsistencyError
from .graph import canonical_cycle, exact_json
from .numerics import NumericalSemigroup
from .pdmodel import (BciModel, case_study_2334, max_type_2334,
                      mz_criterion_weighted, pg_max, pinkham_pg_closed,
                      table1_rows, table2_rows)

SCHEMA_VERSION = 1

# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so errors share one envelope."""

    def error(self, message):
        raise InputError(message)


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _text_lines(report, keys):
    out = []
    for k in keys:
        v = report[k]
        if isinstance(v, (dict, list)):
            v = _dumps(v)
        out.append("%s: %s" % (k, v))
    return "\n".join(out) + "\n"


def _parse_exponents(values):
    try:
        return tuple(int(v) for v in values)
    except (TypeError, ValueError):
        raise InputError("exponents must be integers, got %r" % (values,))


def _batch_tuples(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError("cannot read batch file %s: %s" % (path, exc))
    items = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.replace(",", " ").split()
        try:
            items.append((lineno, tuple(int(p) for p in parts)))
        except ValueError:
            raise InputError("batch line %d is not an exponent tuple: %r"
                             % (lineno, stripped))
    if not items:
        raise InputError("batch file %s has no exponent tuples" % path)
    return items


# ---------------------------------------------------------------------------
# per-tuple context
# ---------------------------------------------------------------------------


class ReportContext:
    """The parsed options and the exponent tuple (None for subcommands that
    take none) of one report, with every stage the reports read computed on
    first use and kept, so no report computes a stage twice."""

    def __init__(self, args, exponents):
        self.args = args
        self.exponents = exponents

    @cached_property
    def data(self):
        return _bci.bci_data(self.exponents)

    @cached_property
    def graph(self):
        return _bci.bci_graph(self.data)

    @cached_property
    def model(self):
        return BciModel(self.data)

    @cached_property
    def z(self):
        return fundamental_cycle(self.graph)

    @cached_property
    def zk(self):
        return canonical_cycle(self.graph)


# ---------------------------------------------------------------------------
# reports and their text renderings
# ---------------------------------------------------------------------------


def _seifert_json(seifert):
    return {"g": seifert.g, "c0": seifert.c0, "arms": [list(p) for p in seifert.arms]}


def _checked_pg(ctx):
    """p_g by two routes that must agree: the lattice count, which rests on
    Watanabe's a-invariant, and Pinkham's sum of the h1(D_n) over one
    checked series expansion, which does not use the a-invariant."""
    pg = _bci.lattice_pg(ctx.data)
    pg_pinkham = pinkham_pg_closed(ctx.model)
    if pg != pg_pinkham:
        raise InternalInvariantError(
            "cohomology route gives pg = %d, lattice count %d" % (pg_pinkham, pg))
    return pg


def bci_report(ctx):
    """Full invariant report for one Brieskorn complete intersection.  Z^2
    and p_a(Z) come from one cycle report of Z, M^2 from one of M, and the
    Hilbert coefficients from the model's one checked expansion."""
    data, graph, z, zk, model = ctx.data, ctx.graph, ctx.z, ctx.zk, ctx.model
    series = model.series
    pg = _checked_pg(ctx)
    mx = _bci.maximal_ideal_cycle(data, graph)
    mz = mz_criterion_weighted(model)
    z_report = cycle_report(graph, z)
    z_square = z_report.self_intersection
    a_inv = _bci.a_invariant(data)

    report = data.to_json_dict()
    report.update({
        "schema_version": SCHEMA_VERSION,
        "seifert": _seifert_json(data.seifert),
        "graph": graph.to_json_dict(),
        "deg_divisor": exact_json(data.seifert.deg_divisor()),
        "fundamental_cycle": z.coeff_map(),
        "maximal_ideal_cycle": mx.coeff_map(),
        "canonical_cycle": zk.coeff_map(),
        "numerically_gorenstein": zk.is_integral,
        "pa_fundamental_cycle": z_report.pa,
        "minus_z_squared": -z_square,
        "minus_m_squared": -cycle_report(graph, mx).self_intersection,
        "multiplicity_lower_bound": 1 - z_square,
        "pg": pg,
        "a_invariant": a_inv,
        "a_invariant_in_weights": model.weights.contains(a_inv),
        "gorenstein": True,
        "m_equals_z": mz.verdict,
        "e_m": mz.e_m,
        "alpha": data.alpha,
        "h0_alpha_nonzero": mz.h0_alpha_nonzero,
        "z0": mz.z0,
        "m0": mz.m0,
        "embedding_dimension": data.m,
        "weight_semigroup_generators": model.weights.minimal_generators(),
        "series_numerator": list(series.numerator.coeffs),
        "series_denominator_factors": list(series.denominator_factors),
        "series": series.format(),
        "hilbert_coefficients": model.coefficients[:min(2 * data.ell, 64) + 1],
    })
    return report


def graph_report(ctx):
    return {
        "schema_version": SCHEMA_VERSION,
        "exponents": list(ctx.data.exponents),
        "graph": ctx.graph.to_json_dict(),
        "seifert": _seifert_json(ctx.data.seifert),
        "negative_definite": True,  # construction would have failed otherwise
        "numerically_gorenstein": ctx.zk.is_integral,
    }


def _graph_text(ctx, report):
    if ctx.args.format == "dot":
        return ctx.graph.to_dot() + "\n"
    return _text_lines(report, ("exponents", "graph", "seifert",
                                "negative_definite", "numerically_gorenstein"))


def cycles_report(ctx):
    graph = ctx.graph
    mx = _bci.maximal_ideal_cycle(ctx.data, graph)
    report = {
        "schema_version": SCHEMA_VERSION,
        "exponents": list(ctx.data.exponents),
        "fundamental_cycle": cycle_report(graph, ctx.z).to_json_dict(),
        "maximal_ideal_cycle": cycle_report(graph, mx).to_json_dict(),
        "canonical_cycle": ctx.zk.coeff_map(),
        "numerically_gorenstein": ctx.zk.is_integral,
    }
    if ctx.args.order is not None:
        ladder = {}
        for n in range(1, ctx.args.order + 1):
            ln = minimal_cycle(graph, n)
            ladder[str(n)] = {"cycle": ln.coeff_map(),
                              "deg_on_central": deg_on_central(graph, ln)}
        report["minimal_cycles"] = ladder
    return report


def pg_report(ctx):
    return {"schema_version": SCHEMA_VERSION, "exponents": list(ctx.data.exponents),
            "pg": _checked_pg(ctx)}


def pgmax_report(ctx):
    report = {"schema_version": SCHEMA_VERSION, "exponents": list(ctx.data.exponents)}
    report.update(pg_max(ctx.data.seifert).to_json_dict())
    return report


def series_report(ctx):
    series = ctx.model.series
    order = ctx.args.order
    if order is None:
        order = min(2 * ctx.data.ell, 64)
    return {
        "schema_version": SCHEMA_VERSION,
        "exponents": list(ctx.data.exponents),
        "numerator": list(series.numerator.coeffs),
        "denominator_factors": list(series.denominator_factors),
        "series": series.format(),
        "order": order,
        "coefficients": series.expand(order),
    }


def _series_text(ctx, report):
    return "%s\ncoefficients: %s\n" % (report["series"],
                                        " ".join(map(str, report["coefficients"])))


def semigroup_report(ctx):
    sg = NumericalSemigroup(_parse_exponents(ctx.args.generators))
    report = {
        "schema_version": SCHEMA_VERSION,
        "generators": list(sg.generators),
        "minimal_generators": sg.minimal_generators(),
    }
    report["gcd"] = gcd(*sg.generators)
    report["frobenius"] = sg.frobenius() if report["gcd"] == 1 else None
    if ctx.args.member is not None:
        report["member"] = {"n": ctx.args.member, "contained": sg.contains(ctx.args.member)}
    return report


def _semigroup_text(ctx, report):
    if "member" in report:
        return ("true" if report["member"]["contained"] else "false") + "\n"
    frob = report["frobenius"]
    return ("minimal_generators: %s\ngcd: %d\nfrobenius: %s\n"
            % (",".join(map(str, report["minimal_generators"])),
               report["gcd"], "-" if frob is None else str(frob)))


def case_report(ctx):
    parts = ctx.args.overrides.replace(",", " ").split()
    if len(parts) != 4:
        raise InputError("--overrides needs exactly four values h3,h4,h5,h7")
    report = case_study_2334(*_parse_exponents(parts)).to_json_dict()
    report["schema_version"] = SCHEMA_VERSION
    return report


def table_report(ctx):
    report = {"schema_version": SCHEMA_VERSION,
              "max_type": max_type_2334().to_json_dict()}
    if ctx.args.which in ("1", "all"):
        report["table1"] = table1_rows()
    if ctx.args.which in ("2", "all"):
        report["table2"] = [row.to_json_dict() for row in table2_rows()]
    return report


def _table_tsv(ctx, report):
    blocks = []
    if "table1" in report:
        lines = ["type\tpg\tmult\temb"]
        for row in report["table1"]:
            lines.append("%s\t%d\t%d\t%d" % (row["type"], row["pg"], row["mult"],
                                             row["emb"]))
        blocks.append("\n".join(lines))
    if "table2" in report:
        lines = ["h3\th4\th5\th7\tpg\tmult\temb\tgorenstein\tgenerator_degrees"
                 "\tvalue_semigroup"]
        for row in report["table2"]:
            lines.append("\t".join([
                "%(h3)d\t%(h4)d\t%(h5)d\t%(h7)d" % row["overrides"],
                str(row["pg"]), str(row["multiplicity"]),
                str(row["embedding_dimension"]),
                "yes" if row["gorenstein"] else "no",
                ",".join(str(d) for d in row["generator_degrees"]),
                "<%s>" % ",".join(str(d) for d in row["value_semigroup_generators"]),
            ]))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _keys(*keys):
    return lambda ctx, report: _text_lines(report, [k for k in keys if k in report])


# ---------------------------------------------------------------------------
# the subcommand table, argument parsing and dispatch
# ---------------------------------------------------------------------------


class Command(NamedTuple):
    build: Callable           # ReportContext -> report dict
    render: Callable          # (ReportContext, report) -> text, for non-JSON formats
    formats: tuple            # accepted --format values; the first is the default
    batch_scalar: str | None  # report key of batch text lines; None: batch text refused


COMMANDS = {
    "bci": Command(bci_report, _keys(
        "exponents", "ell", "e", "alpha_i", "alpha", "ghat", "ghat_i", "beta_i",
        "g", "c0", "deg_divisor", "seifert", "fundamental_cycle",
        "maximal_ideal_cycle", "canonical_cycle", "numerically_gorenstein",
        "pa_fundamental_cycle", "minus_z_squared", "minus_m_squared",
        "multiplicity_lower_bound", "pg", "a_invariant", "m_equals_z", "e_m",
        "z0", "m0", "embedding_dimension", "weight_semigroup_generators",
        "series"), ("json", "text"), None),
    "graph": Command(graph_report, _graph_text, ("json", "text", "dot"), None),
    "cycles": Command(cycles_report, _keys(
        "exponents", "fundamental_cycle", "maximal_ideal_cycle",
        "canonical_cycle", "numerically_gorenstein", "minimal_cycles"),
        ("json", "text"), None),
    "pg": Command(pg_report, lambda ctx, r: "%d\n" % r["pg"], ("text", "json"), "pg"),
    "pgmax": Command(pgmax_report, lambda ctx, r: "%d\n" % r["value"],
                     ("text", "json"), "value"),
    "series": Command(series_report, _series_text, ("json", "text"), None),
    "semigroup": Command(semigroup_report, _semigroup_text, ("text", "json"), None),
    "case2334": Command(case_report, _keys(
        "overrides", "pg", "multiplicity", "embedding_dimension", "gorenstein",
        "generator_degrees", "value_semigroup_generators", "series", "z0", "m0",
        "hypotheses"), ("json", "text"), None),
    "table": Command(table_report, _table_tsv, ("tsv", "json"), None),
}


@cache
def _build_parser():
    """The argument parser, built on the first call and kept: parsing
    leaves it unchanged, and each parse returns a fresh namespace."""
    parser = _Parser(prog="brieskorn",
                     description="Exact invariants of Brieskorn complete "
                                 "intersection surface singularities.")
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")

    def add(name, help_text):
        formats = COMMANDS[name].formats
        p = sub.add_parser(name, help=help_text)
        p.add_argument("exponents", nargs="*", metavar="a_i",
                       help="exponent tuple, e.g. 2 3 3 4")
        p.add_argument("--batch", metavar="FILE",
                       help="newline-delimited exponent tuples")
        p.add_argument("--format", choices=formats, default=None,
                       help="output format (default: %s)" % formats[0])
        return p

    add("bci", "full invariant report for an exponent tuple")
    add("graph", "resolution graph of an exponent tuple")
    p = add("cycles", "fundamental, maximal ideal and canonical cycles")
    p.add_argument("--order", type=int, default=None, metavar="N",
                   help="also list the minimal cycles L_1..L_N")
    add("pg", "geometric genus (two independent routes)")
    add("pgmax", "maximal geometric genus over the graph")
    p = add("series", "Hilbert series of the graded coordinate ring")
    p.add_argument("--order", type=int, default=None, metavar="N",
                   help="expansion order (default min(2*ell, 64))")

    p = sub.add_parser("semigroup", help="numerical semigroup of the given "
                                         "generators")
    p.add_argument("generators", nargs="+", metavar="g_i")
    p.add_argument("--member", type=int, default=None, metavar="N",
                   help="test membership of N")
    p.add_argument("--format", choices=COMMANDS["semigroup"].formats, default=None)

    p = sub.add_parser("case2334", help="classify an analytic structure on "
                                        "the (2,3,3,4) graph")
    p.add_argument("--overrides", required=True, metavar="h3,h4,h5,h7",
                   help="section counts at degrees 3,4,5,7")
    p.add_argument("--format", choices=COMMANDS["case2334"].formats, default=None)

    p = sub.add_parser("table", help="summary tables for the (2,3,3,4) graph")
    p.add_argument("which", nargs="?", choices=("1", "2", "all"), default="all")
    p.add_argument("--format", choices=COMMANDS["table"].formats, default=None)
    return parser


def _run_single(args, command):
    exponents = None
    if hasattr(args, "exponents"):
        if not args.exponents:
            raise InputError("an exponent tuple is required (or --batch FILE)")
        exponents = _parse_exponents(args.exponents)
    ctx = ReportContext(args, exponents)
    report = command.build(ctx)
    if (args.format or command.formats[0]) == "json":
        return _dumps(report) + "\n"
    return command.render(ctx, report)


def _run_batch(args, command):
    if args.exponents:
        raise InputError("give either positional exponents or --batch, not both")
    fmt = args.format or "json"
    if fmt not in ("json", "text"):
        raise InputError("batch mode supports --format json or text")
    lines = []
    for lineno, tup in _batch_tuples(args.batch):
        try:
            report = command.build(ReportContext(args, tup))
        except (InputError, ModelInconsistencyError) as exc:
            raise type(exc)("batch line %d (%s): %s"
                            % (lineno, ",".join(map(str, tup)), exc))
        if fmt == "json":
            lines.append(_dumps(report))
        elif command.batch_scalar:
            lines.append("%s\t%d" % (",".join(map(str, tup)),
                                     report[command.batch_scalar]))
        else:
            raise InputError("batch --format text is only available for "
                             "pg and pgmax; use json")
    return "\n".join(lines) + "\n"


def run(argv=None):
    """Parse argv and write the result to stdout; returns the exit code."""
    args = _build_parser().parse_args(argv)
    if args.subcommand is None:
        raise InputError("missing subcommand; see --help")
    if getattr(args, "order", None) is not None and args.order < 0:
        raise InputError("--order must be >= 0")
    command = COMMANDS[args.subcommand]
    if getattr(args, "batch", None):
        out = _run_batch(args, command)
    else:
        out = _run_single(args, command)
    sys.stdout.write(out)
    return 0


def main(argv=None):
    try:
        return run(argv)
    except InputError as exc:
        return _fail(2, "input", exc)
    except ModelInconsistencyError as exc:
        return _fail(3, "model", exc)
    except InternalInvariantError as exc:
        return _fail(4, "internal", exc)
    except BrokenPipeError:
        return 0


def _fail(code, kind, exc):
    envelope = {"error": {"code": code, "kind": kind, "message": str(exc)}}
    sys.stderr.write(_dumps(envelope) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
