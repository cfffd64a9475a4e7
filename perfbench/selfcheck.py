"""Self-check of the benchmark's oracle and of BENCHMARK.json.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout; takes about ten seconds. It runs
the cheap operations of every workload for real, requires the oracle to
accept each report, then mutates the reports (a flipped verdict,
`ok: false`, a wrong `interior_checked`, the corrupt control exiting 0, a
forged certificate, ...) and requires the oracle to reject every mutant.
It also requires BENCHMARK.json to list exactly the workloads and
per-layer metrics the benchmark emits. Exits 1 on any miss.
"""

import contextlib
import io
import json
import random
import shutil
import sys
from pathlib import Path

import descgen
import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from coherence_lab import cli  # noqa: E402


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(list(argv))
        except SystemExit as e:
            rc = e.code
    return rc, out.getvalue()


def mutant(text, edit):
    report = json.loads(text)
    edit(report)
    return json.dumps(report)


def real_cases(workdir):
    """(op, rc, stdout, [(mutation name, rc, stdout)]) for cheap real operations."""
    cases = []

    def add(op, mutations):
        rc, out = run(op.argv)
        cases.append((op, rc, out, [(name, mrc, mutant(out, edit)) for name, mrc, edit in mutations]))

    skew_op, corrupt_op = wl.skew_ops()[0], wl.skew_ops()[-1]
    add(skew_op, [
        ("ok false", 0, lambda r: r.update(ok=False)),
        ("interior_checked + 1", 0,
         lambda r: r["relations"].update(interior_checked=r["relations"]["interior_checked"] + 1)),
        ("soundness entry false", 0, lambda r: r["relations"]["soundness"][2].update(ok=False)),
        ("completeness exception", 0,
         lambda r: r["relations"]["completeness_exceptions"].append("degree 1: x")),
        ("mjm degree", 0, lambda r: r["mjm_degrees"].update({"[tF^2]": 1})),
        ("exit 1", 1, lambda r: None),
    ])
    add(corrupt_op, [
        ("corrupt control exits 0", 0, lambda r: None),
        ("corrupt S1[0] accepted", 1, lambda r: r["relations"]["soundness"][0].update(ok=True)),
    ])
    mackey_op = wl.mackey_ops(random.Random(0))[0]
    add(mackey_op, [
        ("ok false", 0, lambda r: r.update(ok=False)),
        ("lhs_dim + 1", 0, lambda r: r["mackey"].update(lhs_dim=r["mackey"]["lhs_dim"] + 1)),
        ("double_cosets - 1", 0,
         lambda r: r["mackey"].update(double_cosets=r["mackey"]["double_cosets"] - 1)),
        ("printed order holds", 0, lambda r: r["commutator"].update(printed_order_holds=True)),
    ])

    wl.write_descriptors(workdir, descgen.generate(0, 60))
    seen = set()
    for op in wl.decide_ops(workdir):
        rc, out = run(op.argv)
        kind = op.label
        if op.label.endswith(".json"):
            result = json.loads(out)["result"]
            kind = result["verdict"]
            if kind == "coherent" and not any(result["generator"]):
                kind = "coherent, trivial image"
        if kind in seen:
            continue
        seen.add(kind)
        cases.append((op, rc, out, decide_mutations(kind, out)))
    return cases


def decide_mutations(kind, out):
    def flip(r):
        v = r["result"]["verdict"]
        r["result"]["verdict"] = "coherent" if v == "not_coherent" else "not_coherent"

    muts = [("flipped verdict", 0, flip), ("exit 2", 2, lambda r: None)]
    if kind == "coherent":
        muts.append(("generator doubled", 0,
                     lambda r: r["result"].update(generator=[2 * g for g in r["result"]["generator"]])))
    if kind.startswith("coherent"):
        muts += [
            ("generator perturbed", 0,
             lambda r: r["result"].update(generator=[g + 1 for g in r["result"]["generator"]])),
        ]
    elif kind == "not_coherent":
        muts += [
            ("witness perturbed", 0,
             lambda r: r["result"].update(mixed_witness=[x + 1 for x in r["result"]["mixed_witness"]])),
            ("combination doubled", 0,
             lambda r: r["result"].update(
                 torus_combination=[2 * c for c in r["result"]["torus_combination"]])),
            ("witness kind", 0, lambda r: r["result"]["embedded"].update(kind="K4")),
        ]
    elif kind == "catalog --check":
        muts = [("row mismatch", 0, lambda r: r["results"][4].update(ok=False))]
    elif kind == "obstruction":
        muts = [("stage collapses", 0, lambda r: r["steps"][1].update(strict=False))]
    return [(name, rc, mutant(out, edit)) if rc == 0 else (name, rc, out)
            for name, rc, edit in muts]


def check_manifest():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in manifest["workloads"]] != list(wl.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    listed = [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]]
    if listed != tracing.metric_specs():
        problems.append("BENCHMARK.json per_layer differs from tracing.metric_specs()")
    return problems


def main():
    workdir = ROOT / ".perfbench" / "selfcheck"
    shutil.rmtree(workdir, ignore_errors=True)
    misses = check_manifest()
    accepted = rejected = 0
    for op, rc, out, mutations in real_cases(workdir):
        why = op.problem(rc, out)
        if why is None:
            accepted += 1
        else:
            misses.append(f"real report rejected: {op.label}: {why}")
        for name, mrc, text in mutations + [("not JSON", rc, "Traceback (most recent call last)")]:
            if op.problem(mrc, text) is None:
                misses.append(f"mutant accepted: {op.label}: {name}")
            else:
                rejected += 1
    shutil.rmtree(workdir, ignore_errors=True)
    for m in misses:
        print(m)
    print(f"selfcheck: {accepted} real reports accepted, {rejected} mutants rejected, "
          f"{len(misses)} misses")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
