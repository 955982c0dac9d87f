#!/usr/bin/env python3
"""Benchmark of the oddferrers package, run from the root of a checkout:

    python3 perfbench/run.py --workload {counts,series,maps} --seed N --seconds S --trace {0,1}

One workload runs in this single-threaded process, through the package's
public API, in passes until S seconds are used. Every output is checked,
and every pass must repeat the outcomes of the first. `attempted` and
`failed` are those of one pass, so they depend only on the seed. Times are
read from a clock that discounts the shared host's changing speed (see
hostspeed.py). The metrics are printed by name with their units, and the
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

--trace 0 reports the end-to-end metrics. Its run is split into five
segments, each starting with a fresh set-up. --trace 1 spends half the time
untraced and half traced (see tracer.py), and reports the per-layer metrics
of the traced passes, plus the tracing overhead. The spans of the first
traced pass are written to perfbench/out/.

Exit codes: 0 when every check holds, 1 when an output check fails, 2 when
the arguments are wrong or the package sources are missing.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import resource
import statistics
import sys
from itertools import zip_longest
from pathlib import Path
from time import perf_counter

import sampler
from hostspeed import HostClock
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "series_reference.txt"
OUT = HERE / "out"

COUNTS_MAX_N = 30
COUNTS_ARGV = ["verify", "--checks", "counts", "--max-n", str(COUNTS_MAX_N)]
SERIES_ARGV = ["count", "--class", "pnu", "--max-n", "600"]
WORKLOADS = ("counts", "series", "maps")
SETUP_REPEATS = 5
LAYERS = ("partitions", "ferrers", "classes", "bijections", "qseries", "cli")
CLASS_NAMES = ("O", "S", "D", "DO")

END_TO_END_UNITS = {
    "wall_s": "s",
    "call_us.p50": "us",
    "call_us.p99": "us",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def import_package():
    """A fresh import of the package from the checkout's sources, so that
    set-up time includes what the package does when it is imported."""
    for name in [m for m in sys.modules if m == "oddferrers" or m.startswith("oddferrers.")]:
        del sys.modules[name]
    pkg = importlib.import_module("oddferrers")
    importlib.import_module("oddferrers.cli")
    if Path(pkg.__file__).resolve().parent != (SRC / "oddferrers").resolve():
        raise SystemExit(f"error: imported {pkg.__file__}, not the sources under {SRC}")
    return pkg


class CliWorkload:
    """One `cli.main` call per pass; its exit code must be 0 and its standard
    output must equal the expected text byte for byte."""

    def __init__(self, pkg, argv, expected):
        self.pkg, self.argv, self.expected = pkg, argv, expected

    def describe(self):
        return f"cli.main({self.argv}); fixed inputs, the seed does not change them"

    def run_pass(self, clock):
        buf = io.StringIO()
        start = clock.now()
        with contextlib.redirect_stdout(buf):
            code = self.pkg.cli.main(self.argv)
        return (code, buf.getvalue()), [clock.now() - start]

    def check(self, raw):
        """(attempted, failed, messages of failed checks). Each expected
        output line is one attempt. A line that differs fails; every line
        fails when the exit code is not 0."""
        code, out = raw
        want = self.expected.splitlines()
        if code != 0:
            failed = len(want)
        else:
            failed = sum(a != b for a, b in zip_longest(want, out.splitlines()))
            failed = min(len(want), max(failed, int(out != self.expected)))
        if not failed:
            return len(want), 0, []
        return len(want), failed, [f"cli.main({self.argv}) exited {code}; {failed} of {len(want)} output lines differ"]


class MapsWorkload:
    """Each input goes to its map; a returned value goes through the inverse."""

    def __init__(self, pkg, seed):
        self.pkg = pkg
        tasks = sampler.make_tasks(seed)
        self.summary = sampler.describe(tasks)
        P, G = pkg.Partition, pkg.OddFerrersGraph
        self.tasks = [
            (name, G(P(x)) if name in sampler.GRAPH_INPUT else P(x), x, expected)
            for name, x, expected, _ in tasks
        ]

    def describe(self):
        return self.summary

    def run_pass(self, clock):
        bij = self.pkg.bijections
        fns = {name: getattr(bij, name) for name in sampler.MAP_NAMES}
        times, outcomes = [], []
        for name, arg, _, _ in self.tasks:
            out = _timed_call(clock, fns[name], arg, times)
            back = None if isinstance(out, Exception) else _timed_call(clock, fns[sampler.INVERSE[name]], out, times)
            outcomes.append((out, back))
        return outcomes, times

    def check(self, outcomes):
        """(attempted, failed, messages of failed checks).

        Every outcome is classified; none is filtered. Wrong outcomes are a
        member that raises or maps elsewhere, a return whose inverse does
        not give back the input, and any exception that is not an
        OddFerrersError. All count as failed. A non-member that a map
        accepts is the known gap in the maps' domain checks, so it fails
        the outcome but not the run's output checks."""
        error = self.pkg.errors.OddFerrersError
        failed, messages = 0, []
        for (name, _, x, expected), (out, back) in zip(self.tasks, outcomes):
            wrong, message = self._classify(x, expected, out, back, error)
            failed += wrong
            if message:
                messages.append(f"{name}({x}): {message}")
        return len(self.tasks), failed, messages

    def _classify(self, x, expected, out, back, error):
        for exc in (out, back):
            if isinstance(exc, Exception) and not isinstance(exc, error):
                return True, f"raised {type(exc).__name__}: {exc}"
        if isinstance(out, Exception):
            return (True, f"member rejected: {out}") if expected is not None else (False, None)
        returns = not isinstance(back, Exception) and self._parts(back) == x
        if expected is None:
            return not returns, None
        if self._parts(out) != expected or not returns:
            return True, f"mapped to {self._parts(out)}, expected {expected}; inverse gave {back!r}"
        return False, None

    def _parts(self, obj):
        return obj.shape.parts if isinstance(obj, self.pkg.OddFerrersGraph) else obj.parts


def _timed_call(clock, fn, arg, times):
    start = clock.now()
    try:
        out = fn(arg)
    except Exception as exc:  # every outcome is classified after the pass
        out = exc
    times.append(clock.now() - start)
    return out


def build(name, pkg, seed):
    if name == "counts":
        return CliWorkload(pkg, COUNTS_ARGV, f"# counts 0..{COUNTS_MAX_N}\n" + "".join(f"{n}\tPASS\n" for n in range(COUNTS_MAX_N + 1)))
    if name == "series":
        return CliWorkload(pkg, SERIES_ARGV, REFERENCE.read_text())
    return MapsWorkload(pkg, seed)


def set_up(name, seed, clock):
    """A fresh import of the package and the workload's inputs, and how long
    that took. Garbage left by earlier passes is collected first, so that
    it is not charged to the set-up."""
    gc.collect()
    start = clock.now()
    pkg = import_package()
    workload = build(name, pkg, seed)
    return pkg, workload, clock.now() - start


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


class Run:
    """Passes of one workload: their times, the percentiles of each pass's
    call times, and the checks of their outputs."""

    def __init__(self):
        self.walls, self.real_walls, self.p50s, self.p99s = [], [], [], []
        self.outcome = None  # (attempted, failed) of the first pass
        self.messages = []
        self.calls = 0

    def measure(self, workload, clock, seconds, after_pass=None):
        """At least one pass; no pass starts that would overrun `seconds` of
        real time by the length of the pass before it."""
        deadline = perf_counter() + seconds
        last = None
        while last is None or perf_counter() + last < deadline:
            real_start, start = perf_counter(), clock.now()
            raw, times = workload.run_pass(clock)
            self.walls.append(clock.now() - start)
            last = perf_counter() - real_start
            self.real_walls.append(last)
            if after_pass:
                after_pass()
            times.sort()
            self.calls = len(times)
            self.p50s.append(percentile(times, 50))
            self.p99s.append(percentile(times, 99))
            self.add_outcome(*workload.check(raw))
        return self

    def add_outcome(self, attempted, failed, messages):
        """Keep the first pass's outcome; a later pass that differs from it
        is a failed check."""
        if self.outcome is None:
            self.outcome = (attempted, failed)
            self.messages += messages[:10]
        elif (attempted, failed) != self.outcome:
            self.messages.append(f"pass {len(self.walls)}: {failed} of {attempted} failed, "
                                 f"the first pass {self.outcome[1]} of {self.outcome[0]}")


def untraced(name, seed, seconds, clock):
    """SETUP_REPEATS segments, each a fresh set-up followed by passes for its
    share of the time. The set-ups are spread over the run, so that, like
    the passes, they sample the host's load across it."""
    run, setups = Run(), []
    for _ in range(SETUP_REPEATS):
        _, workload, setup_s = set_up(name, seed, clock)
        setups.append(setup_s)
        run.measure(workload, clock, seconds / SETUP_REPEATS)
    return workload, run, end_to_end(run, statistics.median(setups))


def end_to_end(run, setup_s):
    # Medians over passes, of times read from the host-speed clock.
    values = {
        "wall_s": statistics.median(run.walls),
        "call_us.p50": statistics.median(run.p50s) * 1e6,
        "call_us.p99": statistics.median(run.p99s) * 1e6,
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def layer_values(t):
    """Per-layer metrics of one traced pass, from the tracer's totals."""
    calls, self_s, raised, edges, returned, work = (t[k] for k in ("calls", "self_s", "raised", "edges", "returned", "work"))
    out = {}
    for c in CLASS_NAMES:
        out[f"classes.count.{c}.self_s"] = (self_s[f"classes.count.{c}"], "s")
    leaves = {c: edges[f"classes.count.{c}", "partitions.hooks_compose"] for c in ("S", "O")}
    out["classes.S.leaves"] = (leaves["S"], "count")
    for c in ("S", "O"):
        out[f"classes.{c}.accept_ratio"] = (returned[f"classes.count.{c}"] / leaves[c] if leaves[c] else 0.0, "ratio")
    labels = ["partitions.hooks_compose", "partitions.conjugate", "partitions.hook_decompose",
              "ferrers.weighted_hook_sums", "ferrers.graph_weight", "classes.is_in_S", "classes.is_in_D"]
    for label in labels:
        out[f"{label}.calls"] = (calls[label], "count")
        out[f"{label}.self_s"] = (self_s[label], "s")
    for name in sampler.MAP_NAMES:
        label = f"bijections.{name}"
        out[f"{label}.calls"] = (calls[label], "count")
        out[f"{label}.self_s"] = (self_s[label], "s")
        out[f"{label}.raised"] = (raised[label], "count")
    out["qseries.nu_series.self_s"] = (self_s["qseries.nu_series"], "s")
    for label in ("qseries.series_mul", "qseries.series_invert"):
        out[f"{label}.calls"] = (calls[label], "count")
        out[f"{label}.self_s"] = (self_s[label], "s")
        out[f"{label}.coeff_mults"] = (work[label], "computed-count")
    out["qseries.pochhammer_q_odd.self_s"] = (self_s["qseries.pochhammer_q_odd"], "s")
    out["cli.main.self_s"] = (self_s["cli.main"], "s")
    return out


def make_tracer(clock=perf_counter):
    # coefficient products of schoolbook truncated arithmetic at order N,
    # computed from the operands' order; not counted inside the package
    def mul_work(args):
        n = args[0].order
        return (n + 1) * (n + 2) // 2

    def invert_work(args):
        n = args[0].order
        return n * (n + 1) // 2

    return Tracer(
        label_of={"classes.count": lambda args: f"classes.count.{args[0].value}"},
        work_of={"qseries.series_mul": mul_work, "qseries.series_invert": invert_work},
        tally_returns=("classes.count",),
        clock=clock,
    )


def traced(pkg, workload, seconds, clock, spans_path):
    """Untraced passes for half the time, traced passes for the other half;
    per-layer metrics are medians over the traced passes."""
    plain = Run().measure(workload, clock, seconds / 2)
    tracer = make_tracer(clock.now)
    modules = [getattr(pkg, layer) for layer in LAYERS]
    tracer.install(dict(zip(LAYERS, modules)), [pkg, pkg.errors] + modules)
    passes = []

    def after_pass():
        tracer.keep_spans = False
        passes.append(layer_values(tracer.reset()))

    tracer.keep_spans = True
    try:
        run = Run().measure(workload, clock, seconds / 2, after_pass)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(spans_path)
    metrics = {name: (statistics.median_low(p[name][0] for p in passes), unit) for name, (_, unit) in passes[0].items()}
    metrics["trace.overhead_s"] = (statistics.median(run.walls) - statistics.median(plain.walls), "s")
    metrics["failed_frac"] = (run.outcome[1] / run.outcome[0], "ratio")
    run.messages = plain.messages + run.messages
    plain.messages = []
    plain.add_outcome(*run.outcome, [])
    run.messages += plain.messages
    return run, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "oddferrers" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with HostClock() as clock:
        if args.trace:
            pkg, workload, _ = set_up(args.workload, args.seed, clock)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
            run, metrics = traced(pkg, workload, args.seconds, clock, spans_path)
            print(f"spans of the first traced pass: {spans_path.relative_to(HERE.parent)}")
        else:
            workload, run, metrics = untraced(args.workload, args.seed, args.seconds, clock)
    attempted, failed = run.outcome
    print(f"workload {args.workload}, seed {args.seed}: {workload.describe()}")
    print(f"{len(run.walls)} passes, {run.calls} calls per pass")
    for what, walls in (("host-adjusted", run.walls), ("real", run.real_walls)):
        print(f"pass seconds, {what}: min {min(walls)} median {statistics.median(walls)} max {max(walls)}")
    print(f"host slowdown against the reference: median {clock.slowdown():.3f} over {len(clock.samples)} samples")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(f"failed_frac = {failed / attempted} ({failed} failed of {attempted} attempted, per pass)")
    for message in run.messages:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    correct = not run.messages
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
