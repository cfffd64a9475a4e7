"""Command-line surface.

Subcommands: decide, verify-skew, obstruction, mackey, catalog. Verdicts
are data, not exit status: a "not coherent" answer still exits 0. Exit 2
means the input could not be parsed or validated; exit 1 means a
verification arm failed. --json writes the byte-deterministic report to a
path ('-' writes only the JSON to stdout).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Dict, Optional

from . import __version__
from . import finite_groups as fg
from . import fp_linalg
from . import skew_checks as sc
from .catalog import CATALOG, catalog_check
from .coherence import InvalidDatum, RootSystemLabel, decide_semisimple, decide_solvable
from .descriptors import (
    SCHEMA,
    DescriptorError,
    dumps_report,
    loads_descriptor,
    parse_descriptor,
    verdict_to_json,
)
from .root_datum import MalformedDatum
from .skew_poly import SkewPoly

# name -> (generators, k) for a subgroup of U3(Z/p^a) of order p^(a*k);
# None generates the whole group from e12, e23 and e13.
SUBGROUP_SELECTORS = {
    "center": ([(0, 0, 1)], 1),
    "row": ([(1, 0, 0), (0, 0, 1)], 2),
    "column": ([(0, 1, 0), (0, 0, 1)], 2),
    "e12": ([(1, 0, 0)], 1),
    "e23": ([(0, 1, 0)], 1),
    "diagonal-free": ([(1, 1, 0), (0, 0, 1)], 2),
    "full": (None, 3),
    "trivial": ([], 0),
}

# Largest induced dimension [G:G1]*dim that `mackey` takes on: the
# comparison map is a square matrix of that size, checked densely.
MAX_INDUCED_DIM = 768


def _emit(report: Dict[str, Any], args, human_lines) -> None:
    text = dumps_report(report)
    if args.json == "-":
        sys.stdout.write(text)
        return
    if args.json:
        Path(args.json).write_text(text)
    if not args.quiet:
        for line in human_lines:
            print(line)


def _base_report(command: str, inputs: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "schema": SCHEMA,
        "command": command,
        "version": __version__,
        "inputs": inputs,
    }


def cmd_decide(args) -> int:
    target = args.target
    if target in CATALOG:
        descriptor = CATALOG[target]["descriptor"]
        try:
            parsed = parse_descriptor(descriptor)
        except DescriptorError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    else:
        path = Path(target)
        if not path.exists():
            print(
                f"error: {target!r} is neither a catalog name nor a file",
                file=sys.stderr,
            )
            return 2
        try:
            parsed = loads_descriptor(path.read_text())
        except DescriptorError as e:
            print(f"error: {path}: {e}", file=sys.stderr)
            return 2
        from .descriptors import datum_to_descriptor, label_to_descriptor

        descriptor = (
            label_to_descriptor(parsed)
            if isinstance(parsed, RootSystemLabel)
            else datum_to_descriptor(parsed)
        )
    try:
        if isinstance(parsed, RootSystemLabel):
            verdict = decide_semisimple(parsed)
        else:
            verdict = decide_solvable(parsed)
    except (InvalidDatum, MalformedDatum) as e:
        print(f"error: invalid group datum: {e}", file=sys.stderr)
        return 2
    vjson = verdict_to_json(verdict)
    report = _base_report("decide", {"target": target, "descriptor": descriptor})
    report["result"] = vjson
    lines = [f"{target}: {vjson['verdict'].replace('_', ' ')}"]
    if "generator" in vjson:
        lines.append(f"  image lattice generator: {tuple(vjson['generator'])}")
    if "embedded" in vjson:
        w = vjson["embedded"]
        lines.append(
            f"  witness: kind {w['kind']}, n_u={w['n_u']}, n_v={w['n_v']}, "
            f"f(t)={tuple(vjson['mixed_witness'])}"
        )
    if "reason" in vjson:
        lines.append(f"  reason: {vjson['reason']}")
    _emit(report, args, lines)
    return 0


def cmd_verify_skew(args, parser) -> int:
    if args.p not in (2, 3, 5):
        parser.error("--p must be one of 2, 3, 5")
    if not 1 <= args.trunc <= 16:
        parser.error("--trunc must be in [1, 16]")
    if not 1 <= args.window <= 6:
        parser.error("--window must be in [1, 6]")
    if not 0 <= args.precision <= 1:
        parser.error("--precision must be 0 or 1")
    if args.precision == 1 and args.window > 3:
        parser.error("--precision 1 needs --window <= 3 (grid size)")
    if args.nu < 1 or args.nv < 1:
        parser.error("--nu and --nv must be >= 1")

    relations = sc.verify_relations(
        p=args.p,
        n_u=args.nu,
        n_v=args.nv,
        window=args.window,
        trunc=args.trunc,
        m_max=args.mmax,
        corrupt_s1=args.corrupt_s1,
        precision=args.precision,
    )
    free = sc.one_var_free_decomposition(args.p, args.trunc)

    kmax = 4
    ctx1 = sc.one_var_context(args.p, args.trunc, window=kmax + 1 + 3)
    t_poly = SkewPoly.from_series(ctx1, ctx1.base.var("t"))
    f_poly = ctx1.gen("F")
    filtration = sc.filtration_identity_check([(t_poly, f_poly)], kmax)
    mjm = {
        "[t]": sc.mjm_degree_detect([(t_poly,)], kmax),
        "[tF^2]": sc.mjm_degree_detect([(t_poly * ctx1.gen("F", 2),)], kmax),
        "[t],[F]": sc.mjm_degree_detect([(t_poly,), (f_poly,)], kmax),
    }
    mjm_ok = mjm == {"[t]": 0, "[tF^2]": 2, "[t],[F]": 1}

    ok = relations.ok and free.ok and filtration.ok and mjm_ok
    report = _base_report(
        "verify-skew",
        {
            "p": args.p,
            "nu": args.nu,
            "nv": args.nv,
            "trunc": args.trunc,
            "precision": args.precision,
            "window": args.window,
            "mmax": args.mmax,
            "corrupt_s1": args.corrupt_s1,
        },
    )
    report["relations"] = {
        "soundness": [{"element": n, "ok": o} for n, o in relations.soundness],
        "kernel_dim": relations.kernel_dim,
        "interior_checked": relations.interior_checked,
        "completeness_exceptions": relations.completeness_exceptions,
        "note": "completeness is bound-relative: asserted only for kernel vectors "
        "inside the safety margin below the window and truncation",
    }
    report["free_decomposition"] = {
        "checked": free.checked,
        "unique": free.unique,
        "onto": free.onto,
    }
    report["filtration"] = {
        "k_checked": filtration.k_checked,
        "failures": filtration.failures,
    }
    report["mjm_degrees"] = mjm
    report["ok"] = ok
    lines = [
        f"relation generators: soundness {'ok' if relations.soundness_ok else 'FAIL'}, "
        f"completeness {'ok' if relations.completeness_ok else 'FAIL'} "
        f"({relations.interior_checked} interior kernel vectors checked against "
        "span(S))",
        f"free rank-p decomposition: {'ok' if free.ok else 'FAIL'}",
        f"filtration identity k<=4: {'ok' if filtration.ok else 'FAIL'}",
        f"module degree detection: {'ok' if mjm_ok else 'FAIL'} {mjm}",
    ]
    _emit(report, args, lines)
    return 0 if ok else 1


def cmd_obstruction(args, parser) -> int:
    try:
        prime = fp_linalg.is_prime(args.p)
    except ValueError as e:
        parser.error(str(e))
    if not prime:
        parser.error(f"p={args.p} is not prime")
    if (args.nu < 1 or args.nv < 1) and not args.control:
        parser.error("--nu and --nv must be >= 1 (pass --control for the n=0 case)")
    demo = sc.not_fg_demonstration(
        p=args.p, n_u=args.nu, n_v=args.nv, n_max=args.nmax, window=args.window
    )
    report = _base_report(
        "obstruction",
        {
            "p": args.p,
            "nu": args.nu,
            "nv": args.nv,
            "nmax": args.nmax,
            "window": args.window,
            "control": args.control,
        },
    )
    report["steps"] = [
        {
            "stage": s.stage,
            "strict": s.strict,
            "collapse_pair": list(s.collapse_pair) if s.collapse_pair else None,
        }
        for s in demo.steps
    ]
    report["all_strict"] = demo.all_strict
    lines = [
        f"stage {s.stage}: {'strict' if s.strict else f'collapses via {s.collapse_pair}'}"
        for s in demo.steps
    ]
    lines.append(
        f"generator chain strict at all {len(demo.steps)} stages: {demo.all_strict}"
    )
    _emit(report, args, lines)
    return 0


def _resolve_subgroup(G, name: str):
    gens = SUBGROUP_SELECTORS[name][0]
    if gens is None:
        return G.full()
    pa = G.pa
    return fg.Subgroup(G, [G.index[tuple(c % pa for c in g)] for g in gens])


def cmd_mackey(args, parser) -> int:
    try:
        G = fg.FiniteGroup(args.p, args.a)
    except (ValueError, fg.BudgetExceeded) as e:
        parser.error(str(e))
    for name in (args.H, args.G1):
        if name not in SUBGROUP_SELECTORS:
            parser.error(
                f"unknown subgroup selector {name!r} "
                f"(choose from {sorted(SUBGROUP_SELECTORS)})"
            )
    # [G:G1]*dim from the selector orders, before any subgroup is closed.
    induced_dim = G.pa ** (3 - SUBGROUP_SELECTORS[args.G1][1]) * args.dim
    if induced_dim > MAX_INDUCED_DIM:
        parser.error(
            f"induced dimension [G:G1]*dim = {induced_dim} exceeds "
            f"{MAX_INDUCED_DIM}; choose a larger G1, a smaller group or --dim 1"
        )
    H = _resolve_subgroup(G, args.H)
    G1 = _resolve_subgroup(G, args.G1)
    if args.dim == 1:
        module = fg.FinModule.trivial(G1, args.p, 1)
    else:
        module = fg.random_unipotent_module(G1, args.p, dim=args.dim, seed=args.seed)
    mackey = fg.mackey_check(G, H, G1, module)
    cosets_ok = fg.coset_rep_check(G, H, G1)
    comm = fg.commutator_identity_report(args.p, args.a)
    ok = mackey.ok and cosets_ok and comm.ok
    report = _base_report(
        "mackey",
        {
            "p": args.p,
            "a": args.a,
            "H": args.H,
            "G1": args.G1,
            "dim": args.dim,
            "seed": args.seed,
        },
    )
    report["mackey"] = {
        "lhs_dim": mackey.lhs_dim,
        "rhs_dim": mackey.rhs_dim,
        "dims_match": mackey.dims_match,
        "psi_equivariant": mackey.psi_equivariant,
        "psi_bijective": mackey.psi_bijective,
        "double_cosets": mackey.double_coset_count,
    }
    report["coset_representatives_ok"] = cosets_ok
    report["commutator"] = {
        "group_identity": comm.group_identity,
        "algebra_identity": comm.algebra_identity,
        "printed_order_holds": comm.printed_order_holds,
    }
    report["note"] = (
        "finite-scale check: validates the combinatorial skeleton of the "
        "restriction formula on finite quotients only"
    )
    report["ok"] = ok
    lines = [
        f"group U3(Z/{G.pa}), |G|={G.order}, H={args.H} (order {H.order}), "
        f"G1={args.G1} (order {G1.order}), module dim {module.dim}",
        f"restriction of induction: dims {mackey.lhs_dim}={mackey.rhs_dim} "
        f"match={mackey.dims_match}, comparison map equivariant="
        f"{mackey.psi_equivariant}, bijective={mackey.psi_bijective}",
        f"glued coset representatives: {'ok' if cosets_ok else 'FAIL'}",
        f"commutator identity: {'ok' if comm.ok else 'FAIL'}",
    ]
    _emit(report, args, lines)
    return 0 if ok else 1


def cmd_catalog(args) -> int:
    if args.name:
        if args.name not in CATALOG:
            print(f"error: unknown catalog name {args.name!r}", file=sys.stderr)
            return 2
        entry = CATALOG[args.name]
        report = _base_report("catalog", {"name": args.name})
        report["entry"] = {
            "name": args.name,
            "expected": entry["expected"],
            "note": entry["note"],
            "descriptor": entry["descriptor"],
        }
        _emit(
            report,
            args,
            [f"{args.name}: expected {entry['expected']} ({entry['note']})"],
        )
        return 0
    report = _base_report("catalog", {"check": args.check})
    if args.check:
        rows = catalog_check()
        report["results"] = rows
        report["ok"] = all(r["ok"] for r in rows)
        lines = [
            f"{r['name']}: {r['got']}"
            + (f" [{r['witness']}]" if r["witness"] else "")
            + ("" if r["ok"] else "  MISMATCH")
            for r in rows
        ]
        lines.append(f"all match: {report['ok']}")
        _emit(report, args, lines)
        return 0 if report["ok"] else 1
    report["names"] = [
        {"name": n, "expected": e["expected"], "note": e["note"]}
        for n, e in CATALOG.items()
    ]
    _emit(
        report,
        args,
        [f"{n}: expected {e['expected']}" for n, e in CATALOG.items()],
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coherence-lab",
        description="Exact coherence verdicts and finite-scale algebra checks "
        "for augmented group algebras of p-adic Lie groups.",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the JSON report to PATH ('-' prints only JSON to stdout)",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized data")
    parser.add_argument("--quiet", action="store_true", help="suppress human output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_decide = sub.add_parser(
        "decide", help="coherence verdict for a catalog name or descriptor file"
    )
    p_decide.add_argument("target", help="catalog name or path to a descriptor JSON")

    p_skew = sub.add_parser(
        "verify-skew", help="relation-generator and one-variable filtration checks"
    )
    p_skew.add_argument("--p", type=int, default=2)
    p_skew.add_argument("--nu", type=int, default=1)
    p_skew.add_argument("--nv", type=int, default=1)
    p_skew.add_argument("--trunc", type=int, default=8)
    p_skew.add_argument("--precision", type=int, default=0)
    p_skew.add_argument("--window", type=int, default=4)
    p_skew.add_argument("--mmax", type=int, default=3)
    p_skew.add_argument("--corrupt-s1", action="store_true", help=argparse.SUPPRESS)

    p_obs = sub.add_parser(
        "obstruction", help="monomial obstruction to finite generation"
    )
    p_obs.add_argument("--p", type=int, default=2)
    p_obs.add_argument("--nu", type=int, default=1)
    p_obs.add_argument("--nv", type=int, default=1)
    p_obs.add_argument("--nmax", type=int, default=6)
    p_obs.add_argument("--window", type=int, default=8)
    p_obs.add_argument(
        "--control", action="store_true", help="allow nu/nv = 0 control runs"
    )

    p_mack = sub.add_parser(
        "mackey", help="restriction-of-induction checks on finite unitriangular groups"
    )
    p_mack.add_argument("--p", type=int, default=2)
    p_mack.add_argument("--a", type=int, default=1)
    p_mack.add_argument("--H", default="e12", help=f"one of {sorted(SUBGROUP_SELECTORS)}")
    p_mack.add_argument("--G1", default="e23", help="subgroup selector")
    p_mack.add_argument("--dim", type=int, default=1, choices=(1, 2))

    p_cat = sub.add_parser("catalog", help="named groups and expected verdicts")
    p_cat.add_argument("name", nargs="?", help="echo one entry's descriptor")
    p_cat.add_argument(
        "--check", action="store_true", help="re-decide every entry and compare"
    )
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "decide":
        return cmd_decide(args)
    if args.command == "verify-skew":
        return cmd_verify_skew(args, parser)
    if args.command == "obstruction":
        return cmd_obstruction(args, parser)
    if args.command == "mackey":
        return cmd_mackey(args, parser)
    if args.command == "catalog":
        return cmd_catalog(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
