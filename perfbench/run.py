"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The run generates its inputs from
the seed, times program set-up in fresh processes, then starts one fresh
single-threaded worker process that drives the workload through
`coherence_lab.cli.main(argv)` for about S seconds (at least one pass) and
checks every report. With --trace 0 it reports the end-to-end metrics;
with --trace 1 it reports the per-layer metrics of a traced run and the
tracing overhead. The last line of stdout is the result object; the line
before it records the machine. Work files go to .perfbench/ in the checkout.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import descgen
from speed import at_reference_speed, reference
from tracing import metric_specs
from workloads import DECIDE_COUNT, WORKLOADS, write_descriptors

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 6  # before the worker, and again after it
SETUP_REFS = 3  # reference runs after each set-up sample
DEADLINE_S = 170.0


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    # glibc raises its mmap threshold as large blocks are freed, so the peak
    # resident set jumped by 7 MiB (108 to 115 on skew-relations) with
    # details as small as the length of argv. Fixed at glibc's initial
    # 128 KiB, the peak repeats to within 0.2 MiB.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    return env


def setup_samples(env, count):
    """Times from process start until the program is imported, one per
    fresh process, and times of the reference job (see speed.py) run
    between the processes."""
    samples, refs = [], [reference() for _ in range(SETUP_REFS)]
    for _ in range(count):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(WORKER), "probe"], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
        refs += [reference() for _ in range(SETUP_REFS)]
    return samples, refs


def decide_inputs(seed, workdir):
    """The decide-suite inputs, each checked by the program's validate()."""
    sys.path.insert(0, str(SRC))
    from coherence_lab.descriptors import parse_descriptor
    from coherence_lab.root_datum import validate

    descriptors = descgen.generate(seed, DECIDE_COUNT)
    for i, descriptor in enumerate(descriptors):
        problems = validate(parse_descriptor(descriptor))
        if problems:
            raise RuntimeError(f"generated descriptor {i} is invalid: {problems}")
    write_descriptors(workdir, descriptors)


def machine(numpy_version):
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def p99(values):
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-99 * len(ordered) // 100) - 1)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    start = time.monotonic()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("error: terminated"))

    if not (SRC / "coherence_lab" / "cli.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'coherence_lab'}")
    workdir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    if args.workload == "decide-suite":
        decide_inputs(args.seed, workdir)

    env = child_env()
    setup_samples(env, 1)  # may compile bytecode; not counted
    setup, setup_refs = setup_samples(env, SETUP_SAMPLES)
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(workdir)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr.fileno())
    try:
        rc = proc.wait(timeout=max(1.0, DEADLINE_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        sys.exit("error: worker exceeded the run deadline")
    finally:  # also on SIGTERM or Ctrl-C: never leave the worker running
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        sys.exit(f"error: worker exited with {rc}")
    res = json.loads((workdir / "worker.json").read_text())
    more, more_refs = setup_samples(env, SETUP_SAMPLES)
    setup += more
    setup_refs += more_refs

    if args.trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit, _ in metric_specs()}
    else:
        # Times at reference speed (see speed.py). The latency percentiles
        # are over the operations, each taken at its median over the passes.
        lat_ms = [statistics.median(xs) * 1000 for xs in res["op_latencies_scaled_s"]]
        values = {
            "wall_s": (statistics.median(res["pass_scaled_s"]), "s"),
            "setup_s": (at_reference_speed(statistics.median(setup), setup_refs), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
            "op_p50_ms": (statistics.median(lat_ms), "ms"),
            "op_p99_ms": (p99(lat_ms), "ms"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    env_info = machine(res["numpy"])
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(res["pass_s"]), "traced_passes": len(res["traced_pass_s"]),
        "ops_per_pass": res["ops_per_pass"],
        "latency_samples": sum(map(len, res["op_latencies_scaled_s"])),
        "measured_pass_s": res["pass_raw_s"], "pass_at_reference_speed_s": res["pass_scaled_s"],
        "measured_setup_s": setup, "run_peak_rss_mb": res["run_peak_rss_mb"],
        "fail_frac": res["failed"] / res["attempted"], "failures": res["failures"],
        "machine": env_info, "metrics": metrics,
    }
    (workdir / "result.json").write_text(json.dumps(summary, indent=1))
    for failure in res["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"machine": env_info, "fail_frac": summary["fail_frac"],
                      "passes": summary["passes"], "latency_samples": summary["latency_samples"]}))
    print(json.dumps({
        "correct": res["failed"] == 0 and res["attempted"] > 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
