"""Command-line surface.

Subcommands: decide, verify-skew, obstruction, mackey, catalog. Verdicts
are data, not exit status: a "not coherent" answer still exits 0. Exit 2
means the input could not be parsed or validated; exit 1 means a
verification arm failed. --json writes the byte-deterministic report to a
path ('-' writes only the JSON to stdout).

At module level this imports only what building the parser and writing a
report need. Each handler imports the layers it runs, in one
`from . import ...` statement when it runs, and calls through their module
attributes. A handler refuses its flags through its own subparser, so the
usage line it prints is that subcommand's.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Dict, Optional

from . import __version__
from .report import SCHEMA, dumps_report

# name -> generators of a subgroup of U3(Z/p^a); None generates the whole
# group from e12, e23 and e13.
SUBGROUP_SELECTORS = {
    "center": [(0, 0, 1)],
    "row": [(1, 0, 0), (0, 0, 1)],
    "column": [(0, 1, 0), (0, 0, 1)],
    "e12": [(1, 0, 0)],
    "e23": [(0, 1, 0)],
    "diagonal-free": [(1, 1, 0), (0, 0, 1)],
    "full": None,
    "trivial": [],
}

# Largest truncation `verify-skew --precision 1` takes on, per p. The refined
# grid multiplies the series slab by p. The caps were set against a budget of
# about 20 s for the worst admitted case over window <= 3 and mmax <= 6, on
# code that has since become far faster: that case now takes under a second
# (README "Scale limits"). Re-deriving them from a stated time and memory
# budget is ROADMAP direction 1.
PRECISION1_MAX_TRUNC = {2: 11, 3: 9, 5: 6}


def _emit(report: Dict[str, Any], args, human_lines) -> None:
    text = dumps_report(report)
    if args.json == "-":
        sys.stdout.write(text)
        return
    if args.json_file:
        # Closing here, not in main, leaves no unwritten text for a second
        # close to fail on.
        try:
            with args.json_file:
                args.json_file.write(text)
        except OSError as e:
            PARSER.exit(2, f"error: {args.json}: {e.strerror}\n")
    if not args.quiet:
        for line in human_lines:
            print(line)


def _base_report(command: str, inputs: Dict[str, Any]) -> Dict[str, Any]:
    return {"schema": SCHEMA, "command": command, "version": __version__, "inputs": inputs}


def cmd_decide(args) -> int:
    from . import catalog, coherence, descriptors, root_datum

    target = args.target
    path = Path(target)
    try:
        found = target in catalog.CATALOG or path.exists()
    except OSError as e:  # e.g. a name longer than the file system allows
        print(f"error: decide target: {e.strerror}", file=sys.stderr)
        return 2
    if not found:
        print(f"error: {target!r} is neither a catalog name nor a file", file=sys.stderr)
        return 2
    try:
        if target in catalog.CATALOG:
            parsed = descriptors.parse_descriptor(catalog.CATALOG[target]["descriptor"])
        else:
            parsed = descriptors.loads_descriptor(path.read_text())
    except (descriptors.DescriptorError, OSError, UnicodeDecodeError) as e:
        print(f"error: {path}: {e}", file=sys.stderr)
        return 2
    try:
        verdict = coherence.decide(parsed)
    except (coherence.InvalidDatum, root_datum.MalformedDatum) as e:
        print(f"error: invalid group datum: {e}", file=sys.stderr)
        return 2
    vjson = descriptors.verdict_to_json(verdict)
    report = _base_report(
        "decide", {"target": target, "descriptor": descriptors.to_descriptor(parsed)}
    )
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


def cmd_verify_skew(args) -> int:
    # Below truncation 2, s and t vanish in F_p[[s,t]]/(deg >= 1), so the
    # relation check has no generators to work with.
    if not 2 <= args.trunc <= 16:
        args.parser.error("--trunc must be in [2, 16]")
    if not 1 <= args.window <= 6:
        args.parser.error("--window must be in [1, 6]")
    if args.precision == 1 and args.window > 3:
        args.parser.error("--precision 1 needs --window <= 3 (grid size)")
    if args.precision == 1 and args.trunc > PRECISION1_MAX_TRUNC[args.p]:
        args.parser.error(
            f"--precision 1 needs --trunc <= {PRECISION1_MAX_TRUNC[args.p]} "
            f"at p = {args.p} (time budget)"
        )
    if not 0 <= args.mmax <= 6:
        args.parser.error("--mmax must be in [0, 6]")
    if not (1 <= args.nu <= 16 and 1 <= args.nv <= 16):
        args.parser.error("--nu and --nv must be in [1, 16]")

    from . import skew_checks as sc, skew_poly

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
    t_poly = skew_poly.SkewPoly.from_series(ctx1, ctx1.base.var("t"))
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
        "interior_checked": relations.kernel_dim,
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
        f"({relations.kernel_dim} interior kernel vectors checked against "
        "span(S))",
        f"free rank-p decomposition: {'ok' if free.ok else 'FAIL'}",
        f"filtration identity k<=4: {'ok' if filtration.ok else 'FAIL'}",
        f"module degree detection: {'ok' if mjm_ok else 'FAIL'} {mjm}",
    ]
    _emit(report, args, lines)
    return 0 if ok else 1


def cmd_obstruction(args) -> int:
    from . import echelon, obstruction

    try:
        prime = echelon.is_prime(args.p)
    except ValueError as e:
        args.parser.error(str(e))
    if not prime:
        args.parser.error(f"p={args.p} is not prime")
    if not (1 <= args.window <= 64 and 1 <= args.nmax <= 64):
        args.parser.error("--window and --nmax must be in [1, 64]")
    lo = 0 if args.control else 1
    if not (lo <= args.nu <= 16 and lo <= args.nv <= 16):
        args.parser.error(f"--nu and --nv must be in [{lo}, 16] (--control admits 0)")
    demo = obstruction.not_fg_demonstration(
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
    from . import finite_groups as fg

    gens = SUBGROUP_SELECTORS[name]
    if gens is None:
        return G.full()
    pa = G.pa
    return fg.Subgroup(G, [G.index[tuple(c % pa for c in g)] for g in gens])


def cmd_mackey(args) -> int:
    from . import finite_groups as fg

    try:
        G = fg.FiniteGroup(args.p, args.a)
    except (ValueError, fg.BudgetExceeded) as e:
        args.parser.error(str(e))
    H = _resolve_subgroup(G, args.H)
    G1 = _resolve_subgroup(G, args.G1)
    module = fg.random_unipotent_module(G1, args.p, dim=args.dim, seed=args.seed)
    mackey = fg.mackey_check(G, H, G1, module)
    comm = fg.commutator_identity_report(args.p, args.a)
    ok = mackey.ok and comm.ok
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
    report["coset_representatives_ok"] = mackey.coset_reps_ok
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
        f"glued coset representatives: {'ok' if mackey.coset_reps_ok else 'FAIL'}",
        f"commutator identity: {'ok' if comm.ok else 'FAIL'}",
    ]
    _emit(report, args, lines)
    return 0 if ok else 1


def cmd_catalog(args) -> int:
    from . import catalog

    if args.name:
        if args.name not in catalog.CATALOG:
            print(f"error: unknown catalog name {args.name!r}", file=sys.stderr)
            return 2
        entry = catalog.CATALOG[args.name]
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
        rows = catalog.catalog_check()
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
        for n, e in catalog.CATALOG.items()
    ]
    _emit(
        report,
        args,
        [f"{n}: expected {e['expected']}" for n, e in catalog.CATALOG.items()],
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
    p_decide.set_defaults(run=cmd_decide, parser=p_decide)

    p_skew = sub.add_parser(
        "verify-skew", help="relation-generator and one-variable filtration checks"
    )
    p_skew.add_argument("--p", type=int, default=2, choices=(2, 3, 5))
    p_skew.add_argument("--nu", type=int, default=1)
    p_skew.add_argument("--nv", type=int, default=1)
    p_skew.add_argument("--trunc", type=int, default=8)
    p_skew.add_argument("--precision", type=int, default=0, choices=(0, 1))
    p_skew.add_argument("--window", type=int, default=4)
    p_skew.add_argument("--mmax", type=int, default=3)
    p_skew.add_argument("--corrupt-s1", action="store_true", help=argparse.SUPPRESS)
    p_skew.set_defaults(run=cmd_verify_skew, parser=p_skew)

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
    p_obs.set_defaults(run=cmd_obstruction, parser=p_obs)

    p_mack = sub.add_parser(
        "mackey", help="restriction-of-induction checks on finite unitriangular groups"
    )
    p_mack.add_argument("--p", type=int, default=2)
    p_mack.add_argument("--a", type=int, default=1)
    p_mack.add_argument("--H", default="e12", choices=SUBGROUP_SELECTORS)
    p_mack.add_argument("--G1", default="e23", choices=SUBGROUP_SELECTORS)
    p_mack.add_argument("--dim", type=int, default=1, choices=(1, 2))
    p_mack.set_defaults(run=cmd_mackey, parser=p_mack)

    p_cat = sub.add_parser("catalog", help="named groups and expected verdicts")
    p_cat.add_argument("name", nargs="?", help="echo one entry's descriptor")
    p_cat.add_argument(
        "--check", action="store_true", help="re-decide every entry and compare"
    )
    p_cat.set_defaults(run=cmd_catalog, parser=p_cat)
    return parser


# Built once per process: every main() call parses with the same tree.
PARSER = build_parser()


def main(argv: Optional[list] = None) -> int:
    args = PARSER.parse_args(argv)
    args.json_file = None
    if not args.json or args.json == "-":
        return args.run(args)
    # Opened before the work so that an unwritable path is refused at once;
    # an input error found later leaves the file empty.
    try:
        args.json_file = open(args.json, "w")
    except OSError as e:
        print(f"error: {args.json}: {e.strerror}", file=sys.stderr)
        return 2
    with args.json_file:
        return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
