"""Benchmark of the brieskorn command line: throughput, call latency, set-up
time and memory on three seeded workloads, with a per-layer trace recorded
from outside the package.

Run from the repository root; the package is imported from ./src:

    python3 bench/run.py --workload many-arms --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One process runs one workload in one thread, calling `brieskorn.cli.main`
in process over and over ("passes" over the workload's call list) until
--seconds have gone by, and at least twice.  The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it are a readable summary.  --workload all runs each workload in a
process of its own, so that peak memory belongs to that workload, and
prints one table (with error_rate = failed / attempted).

--trace 0 reports the end-to-end metrics:
  setup_s       median wall time of fresh `python -m brieskorn.cli pg 2 3 3 4`
                launches (PYTHONPATH=src), one at a time, three before each
                pass: interpreter start and import, before any real work
  tuples_per_s  tuple results per second of a pass (a batch line counts as
                one tuple), median over passes
  call_p50_ms   median latency of one cli.main call
  call_p90_ms   90th percentile of the same latencies (>= 200 samples)
  peak_rss_mb   peak resident memory of this process (ru_maxrss)
--trace 1 alternates untraced and traced passes and reports the self time
and counters of every layer (see tracer.py) for the traced pass with the
median call time, plus trace.overhead_frac, the median traced pass time
over the median untraced one, minus 1.  Spans are written to
bench/out/spans-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

WORKLOADS = ("many-arms", "long-series", "small-batch")
END_TO_END = (("setup_s", "s"), ("tuples_per_s", "1/s"), ("call_p50_ms", "ms"),
              ("call_p90_ms", "ms"), ("peak_rss_mb", "MB"))
SETUP_ARGV = ("pg", "2", "3", "3", "4")
SETUP_OUTPUT = "8\n"
SETUP_LAUNCHES_PER_PASS = 3


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_cli():
    """brieskorn.cli from ./src, or None when this is not a checkout."""
    if not os.path.isfile(os.path.join(SRC, "brieskorn", "cli.py")):
        return None
    sys.path.insert(0, SRC)
    from brieskorn import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        return None
    return cli


def probe_setup(launches):
    """(wall time, ok) of each of `launches` fresh CLI launches, one at a time."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(launches):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "brieskorn.cli", *SETUP_ARGV],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60)
        elapsed = time.perf_counter() - start
        samples.append((elapsed, proc.returncode == 0 and not proc.stderr
                        and proc.stdout == SETUP_OUTPUT))
    return samples


class Runner:
    """Passes over one workload's calls, with the output checks."""

    def __init__(self, workload, main, checker):
        self.workload = workload
        self.main = main
        self.checker = checker
        self.reference = [None] * len(workload.calls)
        self.pass_bad = []    # per pass: {call index: reason}
        self.latencies = []   # every untraced call
        self.pass_times = {False: [], True: []}
        self.tuples = sum(len(c.tuples) for c in workload.calls)

    def run_pass(self, tracer=None):
        bad = {}
        total = 0.0
        for i, call in enumerate(self.workload.calls):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    if tracer is None:
                        code = self.main(list(call.argv))
                    else:
                        code = tracer.call(self.main, list(call.argv))
                except Exception as exc:  # a crash is a failed call, not the end of the run
                    code = "%s: %s" % (type(exc).__name__, exc)
                elapsed = time.perf_counter() - start
            total += elapsed
            if tracer is None:
                self.latencies.append(elapsed)
            data = out.getvalue().encode("utf-8")
            if tracer is not None:
                tracer.counts["cli.output_bytes"] += len(data)
            digest = hashlib.sha256(data).digest()
            first = self.reference[i] is None
            if first:
                self.reference[i] = digest
            if code != 0:
                bad[i] = "exit %s" % (code,)
            elif err.getvalue():
                bad[i] = "stderr %r" % err.getvalue()[:200]
            elif digest != self.reference[i]:
                bad[i] = "stdout differs from the first pass"
            elif first:
                self.checker.record(i, out.getvalue())
        self.pass_bad.append(bad)
        self.pass_times[tracer is not None].append(total)

    def failures(self):
        """(attempted, failed, first few reasons) over every pass so far."""
        problems = self.checker.verify()
        failed, reasons = 0, []
        for bad in self.pass_bad:
            merged = {**problems, **bad}
            failed += len(merged)
            for i, reason in sorted(merged.items()):
                if len(reasons) < 5:
                    reasons.append("call %d (%s): %s"
                                   % (i, " ".join(self.workload.calls[i].argv), reason))
        return len(self.pass_bad) * len(self.workload.calls), failed, reasons


def _another_pass(start, seconds, passes, times):
    """At least `passes` passes; past that, another one while at least half
    of a mean pass fits in the time left."""
    if len(times) < passes:
        return True
    return time.perf_counter() - start + statistics.mean(times) / 2 <= seconds


def measure(runner, seconds):
    """Untraced passes for about `seconds`, at least two, each after a few
    fresh CLI launches, so that set-up time is sampled across the run."""
    setup = []
    start = time.perf_counter()
    while _another_pass(start, seconds, 2, runner.pass_times[False]):
        setup.extend(probe_setup(SETUP_LAUNCHES_PER_PASS))
        runner.run_pass()
    lat = runner.latencies
    return setup, {
        "setup_s": statistics.median(t for t, _ in setup),
        "tuples_per_s": statistics.median(runner.tuples / t for t in runner.pass_times[False]),
        "call_p50_ms": statistics.median(lat) * 1e3,
        "call_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure_traced(runner, seconds, tracer):
    """Untraced and traced passes in turn for about `seconds`, at least one
    of each; layer metrics of the traced pass with the median call time."""
    layers = []
    start = time.perf_counter()
    while not layers or _another_pass(start, seconds, 2, sum(runner.pass_times.values(), [])):
        if len(runner.pass_times[False]) <= len(layers):
            runner.run_pass()
            continue
        first = len(tracer.spans)
        tracer.install()
        try:
            runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        layers.append(tracer.take_pass(first))
    layers.sort(key=lambda m: m["trace.call_s"])
    metrics = layers[(len(layers) - 1) // 2]
    metrics["trace.overhead_frac"] = (statistics.median(runner.pass_times[True])
                                      / statistics.median(runner.pass_times[False]) - 1)
    return metrics


def run_workload(args, cli):
    # these import brieskorn, which _import_cli has put on the path
    import workloads
    from checks import Checker
    from tracer import COUNT_METRICS, Tracer

    os.makedirs(OUT, exist_ok=True)
    setup = []
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as workdir:
        workload = workloads.build(args.workload, args.seed, workdir)
        runner = Runner(workload, cli.main, Checker(workload))
        if args.trace:
            tracer = Tracer()
            values = measure_traced(runner, args.seconds, tracer)
            tracer.write(os.path.join(OUT, "spans-%s.jsonl" % args.workload))
            units = {name: "count" for name in COUNT_METRICS}
            units["cli.output_bytes"] = "bytes"
            units["trace.overhead_frac"] = "fraction"
            metrics = {k: {"value": v, "unit": units.get(k, "s")} for k, v in values.items()}
        else:
            setup, values = measure(runner, args.seconds)
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    attempted, failed, reasons = runner.failures()
    attempted += len(setup)
    failed += sum(1 for _, ok in setup if not ok)
    for reason in reasons:
        print("failed: " + reason, file=sys.stderr)

    passes = len(runner.pass_bad)
    print("workload %s, seed %d: %d passes of %d calls (%d tuple results), "
          "%d of %d calls failed"
          % (args.workload, args.seed, passes, len(workload.calls), runner.tuples,
             failed, attempted))
    if args.trace:
        call_s = values["trace.call_s"]
        for name, m in metrics.items():
            share = " %5.1f%%" % (100 * m["value"] / call_s) if name.endswith("_s") else ""
            print("  %-26s %14.6g %-8s%s" % (name, m["value"], m["unit"], share))
    else:
        for name, m in metrics.items():
            print("  %-14s %12.6g %s" % (name, m["value"], m["unit"]))
        print("  (%d latency samples; setup_s over %d launches)"
              % (len(runner.latencies), len(setup)))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process; one table of the results."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print("workload %s exited with %d" % (name, proc.returncode), file=sys.stderr)
            return 1
        print("\n".join(lines[:1] + lines[-2:-1]))
        results[name] = json.loads(lines[-1])
    names = list(results[WORKLOADS[0]]["metrics"])
    print("%-26s %-9s" % ("metric", "unit") + "".join("%14s" % w for w in WORKLOADS))
    for metric in names:
        unit = results[WORKLOADS[0]]["metrics"][metric]["unit"]
        print("%-26s %-9s" % (metric, unit) + "".join(
            "%14.6g" % results[w]["metrics"][metric]["value"] for w in WORKLOADS))
    print("%-26s %-9s" % ("error_rate", "fraction") + "".join(
        "%14.6g" % (results[w]["failed"] / results[w]["attempted"]) for w in WORKLOADS))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    args = _parse_args(argv)
    cli = _import_cli()
    if cli is None:
        print("bench/run.py: no brieskorn package under %s; run it from the root "
              "of a checkout" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, cli)


if __name__ == "__main__":
    sys.exit(main())
