"""One benchmark run's measuring process, started fresh by run.py.

`worker.py probe` imports the program and prints the CLOCK_MONOTONIC time
at which the import finished, so the caller can time program set-up.
`worker.py --workload ...` drives one workload's operations in-process through
`coherence_lab.cli.main(argv)`, single-threaded, checks every report
outside the timed region, and writes its measurements to a JSON file.
"""

import sys
import time

# Program set-up ends when these two imports finish.
import coherence_lab
import coherence_lab.cli

READY = time.monotonic()

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

from speed import at_reference_speed, reference  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import build_ops  # noqa: E402

cli = coherence_lab.cli
REF_GAP_S = 0.2  # seconds of operations between reference points, at least
REF_SHARE = 0.05  # reference time per second of operations, at least
REF_MIN_SAMPLES = 10  # reference times that scale one operation, at least


def reference_point(since):
    """Run the reference job at least once and until its runs add up to
    REF_SHARE of `since` seconds of operations; returns their times."""
    times = [reference()]
    while sum(times) < REF_SHARE * since:
        times.append(reference())
    return times


def timed_pass(ops, tracer=None):
    """Run every operation once, with a reference point before the first
    operation, after the last, and between operations at least REF_GAP_S
    apart. Returns (elapsed seconds, [(exit code, stdout, op seconds,
    stderr, index of the reference point before the operation)],
    [reference times of each point])."""
    t0 = time.perf_counter()
    points = [reference_point(0)]
    outputs = []
    since = 0.0  # operation seconds since the last reference point
    for op in ops:
        if since >= REF_GAP_S:
            points.append(reference_point(since))
            since = 0.0
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.begin_op(op.label)
        s = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = cli.main(list(op.argv))
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 2
            except Exception:  # one failed operation must not end the run
                rc = None
                err.write(traceback.format_exc())
        lat = time.perf_counter() - s
        since += lat
        if tracer is not None:
            tracer.end_op()
        outputs.append((rc, out.getvalue(), lat, err.getvalue(), len(points) - 1))
    points.append(reference_point(since))
    return time.perf_counter() - t0, outputs, points


def nearby_references(points, k):
    """The reference times of points k and k + 1, which bracket an
    operation, widened one point at a time on each side until there are at
    least REF_MIN_SAMPLES of them or the pass runs out."""
    lo, hi = k, k + 1
    times = points[lo] + points[hi]
    while len(times) < REF_MIN_SAMPLES and (lo > 0 or hi < len(points) - 1):
        if lo > 0:
            lo -= 1
            times += points[lo]
        if hi < len(points) - 1:
            hi += 1
            times += points[hi]
    return times


class Tally:
    """Checks every report and keeps the untraced operation times, as
    measured and at reference speed (see speed.py), each scaled by the
    reference times taken around it."""

    def __init__(self, n_ops):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.passes_raw = []  # per untraced pass: sum of measured op seconds
        self.passes_scaled = []  # the same at reference speed
        self.op_latencies_scaled = [[] for _ in range(n_ops)]  # per operation, per pass

    def check(self, ops, outputs, points, tracer=None):
        if tracer is None:
            lats = [o[2] for o in outputs]
            scaled = [at_reference_speed(o[2], nearby_references(points, o[4])) for o in outputs]
            self.passes_raw.append(sum(lats))
            self.passes_scaled.append(sum(scaled))
            for samples, x in zip(self.op_latencies_scaled, scaled):
                samples.append(x)
        for op, (rc, out, _, err, _) in zip(ops, outputs):
            self.attempted += 1
            why = op.problem(rc, out)
            if why is not None:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(f"{op.label}: {why} {err.strip()[-300:]}")
            elif tracer is not None:
                tracer.count_report(json.loads(out))


def max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(ops, seconds, tracer):
    """Untraced passes until the time is spent; with a tracer, untraced and
    traced passes alternate. Always at least one pass of each kind. Also
    returns the peak resident set in MiB at the end of the first pass: one
    pass is what a fresh process per command would need, and later passes
    add heap fragmentation that varies with how many of them fit."""
    tally = Tally(len(ops))
    plain, traced = [], []
    while True:
        gc.collect()
        dt, outputs, points = timed_pass(ops)
        plain.append(dt)
        if len(plain) == 1:
            first_pass_rss_mb = max_rss_mb()
        tally.check(ops, outputs, points)
        if tracer is not None:
            gc.collect()
            tracer.install()
            try:
                dt, outputs, points = timed_pass(ops, tracer)
            finally:
                tracer.uninstall()
            traced.append(dt)
            tally.check(ops, outputs, points, tracer)
        spent = sum(plain) + sum(traced)
        next_cost = statistics.median(plain) + (statistics.median(traced) if traced else 0)
        if spent + next_cost > seconds:
            return tally, plain, traced, first_pass_rss_mb


def main(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args(argv)

    ops = build_ops(args.workload, args.seed, args.workdir)
    tracer = Tracer() if args.trace else None
    tally, plain, traced, first_pass_rss_mb = measure(ops, args.seconds, tracer)
    result = {
        "pass_s": plain,
        "traced_pass_s": traced,
        "pass_raw_s": tally.passes_raw,
        "pass_scaled_s": tally.passes_scaled,
        "op_latencies_scaled_s": tally.op_latencies_scaled,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "ops_per_pass": len(ops),
        "peak_rss_mb": first_pass_rss_mb,
        "run_peak_rss_mb": max_rss_mb(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        ratio = statistics.median(traced) / statistics.median(plain)
        result["layers"] = tracer.metrics(len(traced), ratio)
        tracer.write(
            args.workdir / "spans.json",
            {"workload": args.workload, "seed": args.seed, "trace.overhead_ratio": ratio},
        )
    (args.workdir / "worker.json").write_text(json.dumps(result))


if __name__ == "__main__":
    if sys.argv[1:] == ["probe"]:
        print(repr(READY))
    else:
        main(sys.argv[1:])
