"""Every metric of the benchmark, per workload, in one table.

    python3 perfbench/report.py [--seed N] [--seconds S]

Run from the root of a source checkout. For each workload it makes one
untraced run (end-to-end metrics, fail_frac and the number of operations
attempted) and one traced run (per-layer metrics and the tracing overhead),
each in its own process through run.py. Takes about four minutes at the
default 35 seconds per run.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracing import metric_specs
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} (trace {trace}) failed:\n{proc.stderr}")
    *_, machine_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(machine_line), json.loads(result_line)


def fmt(value):
    return f"{value:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    args = ap.parse_args()

    plain, traced = {}, {}
    for w in WORKLOADS:
        plain[w] = run(w, args.seed, args.seconds, 0)
        traced[w] = run(w, args.seed, args.seconds, 1)
    machine = plain[WORKLOADS[0]][0]["machine"]
    print(f"machine: {json.dumps(machine)}; seed {args.seed}; {args.seconds} s per run")

    width = max(len(name) for name, _, _ in metric_specs()) + 2
    header = f"{'metric':<{width}}{'unit':<8}" + "".join(f"{w:>18}" for w in WORKLOADS)
    print("\nend to end (untraced)\n" + header)
    e2e = plain[WORKLOADS[0]][1]["metrics"]
    for name, m in e2e.items():
        cells = "".join(f"{fmt(plain[w][1]['metrics'][name]['value']):>18}" for w in WORKLOADS)
        print(f"{name:<{width}}{m['unit']:<8}{cells}")
    print(f"{'fail_frac':<{width}}{'ratio':<8}"
          + "".join(f"{fmt(plain[w][0]['fail_frac']):>18}" for w in WORKLOADS))
    print(f"{'attempted':<{width}}{'count':<8}"
          + "".join(f"{plain[w][1]['attempted']:>18}" for w in WORKLOADS))
    print(f"{'latency_samples':<{width}}{'count':<8}"
          + "".join(f"{plain[w][0]['latency_samples']:>18}" for w in WORKLOADS))

    print("\nper layer (traced run, per traced pass)\n" + header)
    for name, unit, _ in metric_specs():
        cells = "".join(f"{fmt(traced[w][1]['metrics'][name]['value']):>18}" for w in WORKLOADS)
        print(f"{name:<{width}}{unit:<8}{cells}")
    print(f"{'fail_frac (traced run)':<{width}}{'ratio':<8}"
          + "".join(f"{fmt(traced[w][0]['fail_frac']):>18}" for w in WORKLOADS))


if __name__ == "__main__":
    main()
