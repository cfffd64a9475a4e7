"""The host's current speed, from a fixed pure-Python reference job.

The benchmark shares a few cores of a host with other tenants, and their
load slows this machine's CPUs by up to 2x, in spells of a second to
several minutes. No statistic over one 35-second run removes a spell that
covers the run. So the benchmark runs this reference job between the
program's operations (and between set-up samples) and scales each measured
time to the job's nominal speed:

    scaled = measured * (REF_NOMINAL_S / median reference time) ** REF_EXPONENT

For an operation the median is over at least ten reference runs made just
before and just after it (for set-up: over every reference run of the
run). The job is interpreted Python integer arithmetic and small dict and
list traffic; the program's work slows less than this tight loop under the
same load. Across the passes of one run, log(pass time) followed
log(median reference time during the pass) with slope 0.56 on decide-suite
and 0.40 on skew-relations (correlation 0.90 and 0.82, 37 and 23 passes),
hence REF_EXPONENT = 0.5.

`REF_NOMINAL_S` is a fixed constant near the job's median time on a 2-vCPU
2.1 GHz Xeon VM, so it cancels from any ratio between two commits' times;
a change that makes the program faster makes its scaled times smaller by the
same share. The measured times are kept beside the scaled ones in each
run's result.json.
"""

from statistics import median
from time import perf_counter
from typing import Sequence

REF_ITERATIONS = 36_000
REF_NOMINAL_S = 0.010
REF_EXPONENT = 0.5


def reference() -> float:
    """Seconds the reference job takes now."""
    t0 = perf_counter()
    acc, table, row = 1, {}, []
    for i in range(REF_ITERATIONS):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 255] = table.get(acc & 255, 0) + 1
        row.append(acc)
        if len(row) > 64:
            row.clear()
    return perf_counter() - t0



def at_reference_speed(seconds: float, reference_times: Sequence[float]) -> float:
    """A measured time scaled to the reference job's nominal speed."""
    return seconds * (REF_NOMINAL_S / median(reference_times)) ** REF_EXPONENT
