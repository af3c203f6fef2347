"""Output checks for the CLI benchmark.

A call fails on a nonzero exit, an exception, any stderr output, stdout
that differs from the same call's stdout in the first pass, or a failed
check below.  The checks compare values across subcommands and against
truths the benchmark computes on its own:

- every m = 3 `pg` equals the lattice-point count
  #{i, j, k >= 1 : i/a1 + j/a2 + k/a3 <= 1}, in exact Fractions;
- the goldens pg 2 3 3 4 = 8, pgmax 2 3 3 4 = 10 and pg 6 10 45 = 284;
- the `pg` field of a `bci` report equals the `pg` output;
- pgmax >= pg;
- graphs have the vertex count the workload generator computed;
- the fundamental cycle of `cycles` equals that of `bci`;
- series expansions have the requested length, start with 1, and agree
  with the Hilbert coefficients of `bci`;
- every JSON report names the tuple it was asked for.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

GOLDEN_PG = {(2, 3, 3, 4): 8, (6, 10, 45): 284}
GOLDEN_PGMAX = {(2, 3, 3, 4): 10}


def lattice_pg(a1, a2, a3):
    """#{i, j, k >= 1 : i/a1 + j/a2 + k/a3 <= 1}, the geometric genus of the
    Brieskorn hypersurface x^a1 + y^a2 + z^a3 = 0."""
    count = 0
    for i in range(1, a1):
        for j in range(1, a2):
            room = (1 - Fraction(i, a1) - Fraction(j, a2)) * a3
            if room < 1:
                break
            count += math.floor(room)
    return count


def _order(argv):
    return int(argv[argv.index("--order") + 1]) if "--order" in argv else None


def _reports(call, stdout):
    """One report dict per tuple of the call, in order."""
    if "--batch" in call.argv:
        reports = [json.loads(line) for line in stdout.splitlines()]
    elif call.sub in ("pg", "pgmax"):
        if not stdout.endswith("\n") or not stdout[:-1].isdigit():
            raise ValueError("expected one integer line, got %r" % stdout[:80])
        reports = [{"pg" if call.sub == "pg" else "value": int(stdout)}]
    else:
        reports = [json.loads(stdout)]
    if len(reports) != len(call.tuples):
        raise ValueError("%d reports for %d tuples" % (len(reports), len(call.tuples)))
    return reports


def _summary(call, t, report, shape):
    """The values of one report that the cross-checks compare."""
    if "exponents" in report and report["exponents"] != list(t):
        raise ValueError("report is for %r, not %r" % (report["exponents"], t))
    if call.sub == "pg":
        return report["pg"]
    if call.sub == "pgmax":
        return report["value"]
    if call.sub == "bci":
        return {"pg": report["pg"], "z": report["fundamental_cycle"],
                "vertices": len(report["graph"]["vertices"]),
                "hilbert": report["hilbert_coefficients"]}
    if call.sub == "graph":
        return len(report["graph"]["vertices"])
    if call.sub == "cycles":
        order = _order(call.argv)
        if len(report.get("minimal_cycles", ())) != (order or 0):
            raise ValueError("cycles lists %d minimal cycles, asked for %s"
                             % (len(report.get("minimal_cycles", ())), order))
        return report["fundamental_cycle"]["coefficients"]
    if call.sub == "series":
        order = _order(call.argv)
        if order is None:
            order = min(2 * shape.ell, 64)
        coeffs = report["coefficients"]
        if len(coeffs) != order + 1 or coeffs[0] != 1:
            raise ValueError("series of order %d has %d coefficients, first %r"
                             % (order, len(coeffs), coeffs[:1]))
        return coeffs[:64]
    raise ValueError("no check for subcommand %r" % call.sub)


class Checker:
    """Collects the first pass's outputs and cross-checks them."""

    def __init__(self, workload):
        self.workload = workload
        self.values = {}    # (sub, tuple) -> (call index, summary)
        self.problems = {}  # call index -> first problem found

    def record(self, index, stdout):
        call = self.workload.calls[index]
        try:
            for t, report in zip(call.tuples, _reports(call, stdout)):
                summary = _summary(call, t, report, self.workload.shapes[t])
                self.values[(call.sub, t)] = (index, summary)
        except (ValueError, KeyError, TypeError) as exc:
            self._fail(index, "unreadable output: %s" % exc)

    def _fail(self, index, message):
        self.problems.setdefault(index, message)

    def _expect(self, sub, t, ok, message):
        if (sub, t) in self.values and not ok:
            self._fail(self.values[(sub, t)][0], "%s %s: %s"
                       % (sub, " ".join(map(str, t)), message))

    def verify(self):
        """Run the cross-checks; returns {call index: problem}."""
        tuples = {t for call in self.workload.calls for t in call.tuples}
        for t in sorted(tuples):
            get = lambda sub: self.values.get((sub, t), (None, None))[1]
            pg, pgmax, bci = get("pg"), get("pgmax"), get("bci")
            truth = lattice_pg(*t) if len(t) == 3 else GOLDEN_PG.get(t)
            if truth is not None:
                self._expect("pg", t, pg == truth, "pg %s, expected %d" % (pg, truth))
                self._expect("bci", t, bci is None or bci["pg"] == truth,
                             "bci pg %s, expected %d" % (bci and bci["pg"], truth))
            if pg is not None:
                self._expect("bci", t, bci is None or bci["pg"] == pg,
                             "bci pg %s, pg %s" % (bci and bci["pg"], pg))
            known = [v for v in (pg, bci and bci["pg"], truth) if v is not None]
            self._expect("pgmax", t, pgmax is None or all(pgmax >= v for v in known),
                         "pgmax %s below pg %s" % (pgmax, known))
            if t in GOLDEN_PGMAX:
                self._expect("pgmax", t, pgmax == GOLDEN_PGMAX[t],
                             "pgmax %s, expected %d" % (pgmax, GOLDEN_PGMAX[t]))
            vertices = self.workload.shapes[t].vertices
            self._expect("graph", t, get("graph") == vertices,
                         "%s vertices, expected %d" % (get("graph"), vertices))
            self._expect("bci", t, bci is None or bci["vertices"] == vertices,
                         "bci graph has %s vertices, expected %d"
                         % (bci and bci["vertices"], vertices))
            if bci is not None:
                self._expect("cycles", t, get("cycles") == bci["z"],
                             "fundamental cycle differs from bci")
                series = get("series") or []
                n = min(len(series), len(bci["hilbert"]))
                self._expect("series", t, series[:n] == bci["hilbert"][:n],
                             "expansion differs from bci hilbert_coefficients")
        return self.problems
