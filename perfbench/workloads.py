"""The benchmark's workloads: CLI operations and the oracle for each report.

An operation is one `coherence_lab.cli.main(argv)` call. Its check takes
the exit code and the captured stdout (the JSON report, since every argv
starts with `--json -`) and returns None when the output is correct, or a
one-line reason when it is not. Checks never run inside a timed region.

The oracle pins what the paper's claims fix (verdicts, certificates, module
dimensions, `interior_checked`) and re-verifies every decide certificate
from the descriptor on its own. It pins neither `kernel_dim` nor whole
report bytes: the first is expected to be versioned on purpose, and the
acceptance suite already pins byte determinism.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Check = Callable[[Optional[int], str], Optional[str]]

WORKLOADS = ("skew-relations", "mackey-groups", "decide-suite")
DECIDE_COUNT = 1000

# (p, trunc, window, mmax, precision) -> interior_checked. (3, 12, 5, 4)
# (458 interior, about 14 s) is left out: a pass must repeat several times
# in one run, and the host's speed, measured between operations, must not
# drift far within one operation (see speed.py).
SKEW_CASES = {
    (2, 8, 4, 3, 0): 222,
    (2, 6, 3, 3, 1): 254,
}
CORRUPT_CASE = (2, 8, 4, 3, 0)
MJM_DEGREES = {"[t]": 0, "[tF^2]": 2, "[t],[F]": 1}

# (p, a, H, G1, dim) -> (lhs_dim, rhs_dim, double_cosets, printed_order_holds).
# Order 2197 (p=13, a=1; about 11 s and 1.4 GiB) is left out for the same
# reason as skew (3, 12, 5, 4).
MACKEY_CASES = {
    (3, 1, "e12", "e23", 2): (18, 18, 3, False),
    (3, 2, "e12", "e23", 2): (162, 162, 9, False),
    (3, 2, "center", "row", 2): (18, 18, 9, False),
}

# Catalog name -> (expected verdict, expected witness kind or None).
CATALOG_EXPECTED = {
    "Qp": ("coherent", None),
    "Qp^3": ("coherent", None),
    "U3": ("coherent", None),
    "pZ-semidirect-Qp": ("coherent", None),
    "G3": ("not_coherent", "G3"),
    "H3": ("not_coherent", "H3"),
    "SL2": ("coherent", None),
    "PGL2": ("coherent", None),
    "SL3": ("not_coherent", None),
    "GL3": ("not_coherent", None),
    "GL4": ("not_coherent", None),
    "Sp4": ("not_coherent", None),
    "A2": ("not_coherent", None),
    "B2": ("not_coherent", None),
    "C2": ("not_coherent", None),
    "G2": ("not_coherent", None),
}


@dataclass(frozen=True)
class Op:
    label: str
    argv: Tuple[str, ...]
    check: Check

    def problem(self, rc: Optional[int], out: str) -> Optional[str]:
        """The check's verdict; a report missing fields or of the wrong
        shape is a failure, not an error of the benchmark."""
        try:
            return self.check(rc, out)
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as e:
            return f"malformed report ({type(e).__name__}: {e})"


def _report(rc: Optional[int], out: str, want_rc: int = 0):
    """(report, None) or (None, reason)."""
    if rc != want_rc:
        return None, f"exit code {rc}, expected {want_rc}"
    try:
        return json.loads(out), None
    except json.JSONDecodeError:
        return None, "stdout is not a JSON report"


# --- skew-relations -------------------------------------------------------


def check_skew(interior: int) -> Check:
    def check(rc, out):
        rep, why = _report(rc, out)
        if why:
            return why
        rel = rep["relations"]
        if rep.get("ok") is not True:
            return "ok is not true"
        if not rel["soundness"] or not all(e["ok"] is True for e in rel["soundness"]):
            return "a soundness entry is not true"
        if rel["completeness_exceptions"]:
            return "completeness exceptions reported"
        if rep["mjm_degrees"] != MJM_DEGREES:
            return f"mjm_degrees {rep['mjm_degrees']}"
        if rel["interior_checked"] != interior:
            return f"interior_checked {rel['interior_checked']}, expected {interior}"
        return None

    return check


def check_corrupt(rc, out):
    rep, why = _report(rc, out, want_rc=1)
    if why:
        return why
    first = rep["relations"]["soundness"][0]
    if first["element"] != "S1[0]" or first["ok"] is not False:
        return "corrupted S1[0] was not rejected"
    if rep.get("ok") is not False:
        return "ok is not false under the corrupt control"
    return None


def _skew_argv(p, trunc, window, mmax, precision):
    argv = ["--json", "-", "verify-skew", "--p", str(p), "--trunc", str(trunc),
            "--window", str(window), "--mmax", str(mmax)]
    if precision:
        argv += ["--precision", str(precision)]
    return argv


def skew_ops() -> List[Op]:
    ops = [
        Op(f"verify-skew {case}", tuple(_skew_argv(*case)), check_skew(interior))
        for case, interior in SKEW_CASES.items()
    ]
    ops.append(
        Op(
            f"verify-skew {CORRUPT_CASE} --corrupt-s1",
            tuple(_skew_argv(*CORRUPT_CASE) + ["--corrupt-s1"]),
            check_corrupt,
        )
    )
    return ops


# --- mackey-groups --------------------------------------------------------


def check_mackey(pins) -> Check:
    def check(rc, out):
        rep, why = _report(rc, out)
        if why:
            return why
        if rep.get("ok") is not True:
            return "ok is not true"
        m = rep["mackey"]
        got = (m["lhs_dim"], m["rhs_dim"], m["double_cosets"],
               rep["commutator"]["printed_order_holds"])
        if got != pins:
            return f"(lhs_dim, rhs_dim, double_cosets, printed_order_holds) = {got}, expected {pins}"
        return None

    return check


def mackey_ops(rng: random.Random) -> List[Op]:
    ops = []
    for (p, a, h, g1, dim), pins in MACKEY_CASES.items():
        argv = ("--json", "-", "--seed", str(rng.randrange(2**31)), "mackey",
                "--p", str(p), "--a", str(a), "--H", h, "--G1", g1, "--dim", str(dim))
        ops.append(Op(f"mackey {(p, a, h, g1, dim)}", argv, check_mackey(pins)))
    return ops


# --- decide-suite ---------------------------------------------------------


def torus_images(descriptor: Dict[str, Any]) -> List[Tuple[int, ...]]:
    """f(t) for every torus generator t: one valuation per weight."""
    return [
        tuple(sum(e * x for e, x in zip(w["exponents"], t)) for w in descriptor["weights"])
        for t in descriptor["torus_generators"]
    ]


def _cofactor(gen: Sequence[int], v: Sequence[int]) -> Optional[int]:
    """c with v = c * gen (gen nonzero), or None."""
    k = next(i for i, g in enumerate(gen) if g)
    if v[k] % gen[k]:
        return None
    c = v[k] // gen[k]
    return c if all(c * g == x for g, x in zip(gen, v)) else None


def certificate_problem(descriptor: Dict[str, Any], result: Dict[str, Any]) -> Optional[str]:
    """Re-verify a solvable verdict's certificate against the descriptor."""
    images = torus_images(descriptor)
    n_phi = len(descriptor["weights"])
    if result["verdict"] == "coherent":
        gen = result["generator"]
        if len(gen) != n_phi or any(g < 0 for g in gen):
            return "generator is not a nonnegative vector of the right length"
        if not any(gen):
            return None if not any(map(any, images)) else "zero generator, nonzero image"
        cofactors = [_cofactor(gen, img) for img in images]
        if None in cofactors:
            return "generator does not divide every torus image"
        g = 0
        for c in cofactors:
            g = gcd(g, c)
        return None if g == 1 else f"cofactors have gcd {g}, generator is not primitive"
    if result["verdict"] == "not_coherent":
        combo = result["torus_combination"]
        if len(combo) != len(images):
            return "torus combination has the wrong length"
        witness = [sum(c * img[i] for c, img in zip(combo, images)) for i in range(n_phi)]
        if witness != result["mixed_witness"]:
            return "mixed witness is not the stated combination of the images"
        if all(x >= 0 for x in witness) or all(x <= 0 for x in witness):
            return "mixed witness lies in the sign cone"
        if not witness[result["alpha"]] > 0 > witness[result["beta"]]:
            return "alpha/beta do not index a positive and a negative coordinate"
        if result["embedded"]["kind"] not in ("G3", "H3"):
            return f"embedded witness of kind {result['embedded']['kind']!r}"
        return None
    return f"unknown verdict {result['verdict']!r}"


def check_decide(descriptor: Dict[str, Any]) -> Check:
    def check(rc, out):
        rep, why = _report(rc, out)
        return why or certificate_problem(descriptor, rep["result"])

    return check


def check_catalog_name(name: str) -> Check:
    verdict, kind = CATALOG_EXPECTED[name]

    def check(rc, out):
        rep, why = _report(rc, out)
        if why:
            return why
        result = rep["result"]
        if result["verdict"] != verdict:
            return f"{name}: verdict {result['verdict']}, expected {verdict}"
        if kind is not None and result["embedded"]["kind"] != kind:
            return f"{name}: witness kind {result['embedded']['kind']}, expected {kind}"
        descriptor = rep["inputs"]["descriptor"]
        if descriptor["kind"] == "solvable":
            return certificate_problem(descriptor, result)
        return None

    return check


def check_catalog_check(rc, out):
    rep, why = _report(rc, out)
    if why:
        return why
    rows = {r["name"]: r["ok"] for r in rep["results"]}
    if rep.get("ok") is not True or not all(rows.values()):
        return "catalog --check reports a mismatch"
    if set(CATALOG_EXPECTED) - set(rows):
        return "catalog --check is missing entries"
    return None


def check_obstruction(rc, out):
    rep, why = _report(rc, out)
    if why:
        return why
    steps = rep["steps"]
    if rep.get("all_strict") is not True or not steps or not all(s["strict"] for s in steps):
        return "obstruction chain is not strict at every stage"
    return None


def write_descriptors(workdir: Path, descriptors: Sequence[Dict[str, Any]]) -> None:
    """Lay out the decide-suite inputs where decide_ops() reads them."""
    out = workdir / "descriptors"
    out.mkdir(parents=True)
    for i, descriptor in enumerate(descriptors):
        (out / f"{i:04d}.json").write_text(json.dumps(descriptor))


def decide_ops(workdir: Path) -> List[Op]:
    ops = []
    for path in sorted((workdir / "descriptors").glob("*.json")):
        descriptor = json.loads(path.read_text())
        ops.append(Op(f"decide {path.name}", ("--json", "-", "decide", str(path)),
                      check_decide(descriptor)))
    for name in CATALOG_EXPECTED:
        ops.append(Op(f"decide {name}", ("--json", "-", "decide", name),
                      check_catalog_name(name)))
    ops.append(Op("catalog --check", ("--json", "-", "catalog", "--check"), check_catalog_check))
    ops.append(Op("obstruction", ("--json", "-", "obstruction"), check_obstruction))
    return ops


def build_ops(workload: str, seed: int, workdir: Path) -> List[Op]:
    """The workload's operations, always in the same order, so that the
    peak resident set does not depend on the seed."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "skew-relations":
        ops = skew_ops()
    elif workload == "mackey-groups":
        ops = mackey_ops(rng)
    elif workload == "decide-suite":
        ops = decide_ops(workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops
