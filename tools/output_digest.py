"""One sha256 per seed over everything the command line prints on the
benchmark workloads, and one over a fixed list of calls they never make.

For each seed, every call of the three workloads in bench/workloads.py
(many-arms, long-series, small-batch) runs through `brieskorn.cli.main` in
this process, and its argv, exit code, stdout and stderr go into the hash.
Batch file paths enter as basenames, so the hash does not depend on the
temporary directory.  `brieskorn` is imported from PYTHONPATH, so two
checkouts are compared by running this script twice:

    PYTHONPATH=/path/to/base/src python3 tools/output_digest.py --seeds 5 19 > base.txt
    PYTHONPATH=src python3 tools/output_digest.py --seeds 5 19 > head.txt
    diff base.txt head.txt

Each seed's line reads `seed <n> calls <count> sha256 <hex>`.  A last line,
`fixed calls <count> sha256 <hex>`, hashes the same way the calls in
FIXED_CALLS, which do not depend on the seed: every `table` form, all 16
`case2334` override vectors in json and text (the inconsistent ones end in
their error envelopes), `semigroup` in text, in json, with `--member` and
with gcd > 1, and seven `series --order` expansions: three on the route
that makes a running sum for every denominator factor (`6 6 6`, `2 3 5`,
and `2 3 3 4` in text) and four on the route that multiplies the largest
factors into the sparse numerator and lays the next one down by strides:
`12 14 17 27` past the numerator's t^ell and t^(2 ell) terms (orders
30,000 and 2 ell + 1 = 25,705), `4 17 26 27` through ell = 23,868 with no
running sum, and `3 4 5 7 11` (m = 5) through 2 ell + 1 = 9,241.  Two more, `2 3 5 --order 7649` and
`--order 7650`, end just below and at the first coefficient that does not
fit a byte, 256, so they write the coefficients by each of the two routes
of `report.json_list_text`.  Three more hash how a star spreads the
values of its arm types over its arms: `graph` and `cycles` on
`30 30 30 30 31`, one run of 27,000 equal arms, and
`cycles 12 14 17 27 --order 5`, four runs of 1, 3, 6 and 2 arms.  Four
hash the renderers that are not JSON on a many-arms-sized star of 199
vertices: `bci`, `graph` and `cycles --order 3` on `9 10 18 27` with
`--format text`, and `graph --format dot`.  Five hash Seifert invariants
of few runs: `bci`, `pg`, `pgmax` and `series` on `200 200 200 201`, whose
40,000 arms are one run, and `bci 12 14 17 27`, four runs.  Five hash the
weight-semigroup facts of `bci` (`h0_alpha_nonzero`,
`a_invariant_in_weights`, `weight_semigroup_generators`): `6 10 15`,
whose ghat_i (5, 3, 2) have gcd 1, `6 6 6`, whose ghat_i have gcd 6,
`2 3 5`, whose a-invariant is -1, `4 17 26 27`, whose a-invariant is not
a weight and whose e_1 is 5,967, and `7 25 34 40`, the slowest `bci` of
the long-series workload.  The package file in use is named on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from itertools import product

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402  (bench/workloads.py, only read)
from brieskorn import cli  # noqa: E402

WORKLOADS = ("many-arms", "long-series", "small-batch")

FIXED_CALLS = (
    [["table"]]
    + [["table", which, "--format", fmt]
       for which in ("1", "2", "all") for fmt in ("tsv", "json")]
    + [["case2334", "--overrides", ",".join(map(str, vector)), "--format", fmt]
       for vector in product((0, 1), (1, 2), (0, 1), (1, 2))
       for fmt in ("json", "text")]
    + [["semigroup", "6", "10", "15"],
       ["semigroup", "6", "10", "15", "--format", "json"],
       ["semigroup", "6", "10", "15", "--member", "23"],
       ["semigroup", "4", "6", "--format", "json"]]
    # series expansions that the guard of HilbertSeries.expand sends to
    # running sums for every factor, then one on the sparse route that reads
    # the numerator's t^ell and t^(2 ell) terms
    + [["series", "6", "6", "6", "--order", "5000"],
       ["series", "2", "3", "5", "--order", "3000"],
       ["series", "2", "3", "3", "4", "--order", "200", "--format", "text"],
       ["series", "12", "14", "17", "27", "--order", "30000"]]
    # sparse expansions at ell and past the numerator's t^(2 ell) term, over
    # four and five factors
    + [["series", "4", "17", "26", "27", "--order", "23868"],
       ["series", "3", "4", "5", "7", "11", "--order", "9241"],
       ["series", "12", "14", "17", "27", "--order", "25705"]]
    # the int list writer's two routes: through degree 7,649 every
    # coefficient fits a byte (the largest is 255), and degree 7,650 adds
    # the first 256
    + [["series", "2", "3", "5", "--order", "7649"],
       ["series", "2", "3", "5", "--order", "7650"]]
    # stars: one run of 27,000 equal arms, and four runs of unequal lengths
    + [["graph", "30", "30", "30", "30", "31"],
       ["cycles", "30", "30", "30", "30", "31"],
       ["cycles", "12", "14", "17", "27", "--order", "5"]]
    # the text and dot renderers on a star of 199 vertices
    + [["bci", "9", "10", "18", "27", "--format", "text"],
       ["graph", "9", "10", "18", "27", "--format", "text"],
       ["cycles", "9", "10", "18", "27", "--order", "3", "--format", "text"],
       ["graph", "9", "10", "18", "27", "--format", "dot"]]
    # invariants from few runs: 40,000 equal arms in one run, and four runs
    + [["bci", "200", "200", "200", "201"],
       ["pg", "200", "200", "200", "201"],
       ["pgmax", "200", "200", "200", "201"],
       ["series", "200", "200", "200", "201"],
       ["bci", "12", "14", "17", "27"]]
    # the weight-semigroup facts: ghats (5, 3, 2) of gcd 1; ghats of gcd 6;
    # a = -1 and no member; a not a member, with e_1 = 5,967; and the
    # slowest long-series bci
    + [["bci", "6", "10", "15"],
       ["bci", "6", "6", "6"],
       ["bci", "2", "3", "5"],
       ["bci", "4", "17", "26", "27"],
       ["bci", "7", "25", "34", "40"]])


def _run(argv):
    """(exit code, stdout, stderr) of one call; an exception that escapes
    main is recorded by its type and message."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # a traceback is output too
            code = "raised %s: %s" % (type(exc).__name__, exc)
    return code, out.getvalue(), err.getvalue()


def _digest(records):
    """(number of records, sha256 hex) over (name, printed argv, argv)
    records, each hashed with the exit code, stdout and stderr of its run."""
    h = hashlib.sha256()
    calls = 0
    for name, shown, argv in records:
        record = [name, shown, *_run(argv)]
        h.update(json.dumps(record).encode("utf-8") + b"\n")
        calls += 1
    return calls, h.hexdigest()


def digest(seed):
    """(number of calls, sha256 hex) over every call of every workload."""
    with tempfile.TemporaryDirectory() as workdir:
        return _digest(
            (name, [os.path.basename(a) if a.startswith(workdir) else a
                    for a in call.argv], call.argv)
            for name in WORKLOADS
            for call in workloads.build(name, seed, workdir).calls)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    print("brieskorn from %s" % os.path.dirname(cli.__file__), file=sys.stderr)
    for seed in args.seeds:
        calls, hexdigest = digest(seed)
        print("seed %d calls %d sha256 %s" % (seed, calls, hexdigest), flush=True)
    calls, hexdigest = _digest(("fixed", argv, argv) for argv in FIXED_CALLS)
    print("fixed calls %d sha256 %s" % (calls, hexdigest), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
