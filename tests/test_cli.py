import ast
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from coherence_lab import cli, coherence
from coherence_lab import finite_groups as fg
from coherence_lab import echelon
from coherence_lab.catalog import CATALOG
from coherence_lab.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decide_catalog_name(capsys):
    code, out, _ = run(["decide", "SL2"], capsys)
    assert code == 0
    assert "coherent" in out


def test_decide_not_coherent_still_exits_zero(capsys):
    code, out, _ = run(["decide", "GL4"], capsys)
    assert code == 0
    assert "not coherent" in out


def test_decide_witness_in_output(capsys):
    code, out, _ = run(["decide", "G3"], capsys)
    assert code == 0
    assert "kind G3" in out


def test_decide_unknown_target(capsys):
    code, _, err = run(["decide", "no-such-group"], capsys)
    assert code == 2
    assert "neither" in err


def test_decide_overlong_target(capsys):
    # Path.exists() raises for a name longer than the file system allows;
    # that is an input error (exit 2), not a failed verification arm.
    code, out, err = run(["decide", "x" * 5000], capsys)
    assert code == 2
    assert err.startswith("error:") and "File name too long" in err
    assert "Traceback" not in out + err


def test_decide_descriptor_file(tmp_path, capsys):
    path = tmp_path / "h3.json"
    path.write_text(json.dumps(CATALOG["H3"]["descriptor"]))
    code, out, _ = run(["decide", str(path)], capsys)
    assert code == 0
    assert "kind H3" in out


def test_decide_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, err = run(["decide", str(path)], capsys)
    assert code == 2
    assert "line" in err


def test_decide_deeply_nested_file(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, out, err = run(["decide", str(path)], capsys)
    assert code == 2
    assert "nesting too deep" in err
    assert "Traceback" not in out + err


def test_decide_oversized_datum_file(tmp_path, capsys):
    big = {
        "schema": "coherence-lab/1",
        "kind": "solvable",
        "p": 2,
        "torus_rank": 0,
        "torus_generators": [],
        "weights": [{"exponents": [], "dim": 13}],
        "basis_weights": [0] * 13,
        "brackets": [],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(big))
    code, _, err = run(["decide", str(path)], capsys)
    assert code == 2
    assert "invalid" in err


def test_decide_refuses_large_dim_before_quadratic_work(tmp_path, capsys):
    # One weight of multiplicity 4000 and no brackets: the bracket table is
    # built from the given entries only, so the dim bound refuses at once.
    n = 4000
    big = {
        "schema": "coherence-lab/1",
        "kind": "solvable",
        "p": 2,
        "torus_rank": 0,
        "torus_generators": [],
        "weights": [{"exponents": [], "dim": n}],
        "basis_weights": [0] * n,
        "brackets": [],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(big))
    t0 = time.perf_counter()
    code, out, err = run(["decide", str(path)], capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert f"invalid group datum: dim {n} exceeds exhaustive-validation bound 12" in err
    assert "Traceback" not in out + err


def test_decide_invalid_label_file(tmp_path, capsys):
    path = tmp_path / "a0.json"
    path.write_text(
        json.dumps(
            {"schema": "coherence-lab/1", "kind": "semisimple", "family": "A", "rank": 0}
        )
    )
    code, _, err = run(["decide", str(path)], capsys)
    assert code == 2
    assert "malformed" in err


def test_decide_invalid_datum_file(tmp_path, capsys):
    bad = json.loads(json.dumps(CATALOG["G3"]["descriptor"]))
    bad["weights"][1]["exponents"] = [1]  # duplicate weight
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(["decide", str(path)], capsys)
    assert code == 2
    assert "invalid" in err


def test_decide_out_of_range_basis_weight(tmp_path, capsys):
    bad = json.loads(json.dumps(CATALOG["H3"]["descriptor"]))
    bad["basis_weights"][0] = 99
    path = tmp_path / "missing-weight.json"
    path.write_text(json.dumps(bad))
    code, out, err = run(["decide", str(path)], capsys)
    assert code == 2
    assert "missing weight 99" in err
    assert "Traceback" not in out + err


def _g3_descriptor_file(tmp_path, mutate):
    desc = json.loads(json.dumps(CATALOG["G3"]["descriptor"]))
    mutate(desc)
    path = tmp_path / "g3-variant.json"
    path.write_text(json.dumps(desc))
    return path


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(p=2.9),
        lambda d: d.update(p="3"),
        lambda d: d.update(torus_generators=[[1.5]]),
        lambda d: d.update(torus_generators=[["1"]]),
        lambda d: d.update(torus_rank=True),
        lambda d: d["weights"][0].update(exponents=[True]),
        lambda d: d["weights"][1].update(exponents=[False]),
        lambda d: d.update(basis_weights=[0.0, 1]),
        lambda d: d.update(p=561),  # Carmichael number
        lambda d: d.update(p=1000000016000000063),  # (10^9+7)(10^9+9)
        lambda d: d.update(p=10**25 + 13),  # beyond the exact primality range
    ],
    ids=[
        "float-p",
        "string-p",
        "float-torus-entry",
        "string-torus-entry",
        "bool-torus-rank",
        "bool-exponent-true",
        "bool-exponent-false",
        "float-basis-weight",
        "carmichael-p",
        "semiprime-p",
        "huge-p",
    ],
)
def test_decide_refuses_mistyped_or_composite_descriptor(tmp_path, capsys, mutate):
    path = _g3_descriptor_file(tmp_path, mutate)
    t0 = time.perf_counter()
    code, out, err = run(["decide", str(path)], capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in out + err


def test_decide_large_prime_is_fast(tmp_path, capsys):
    path = _g3_descriptor_file(tmp_path, lambda d: d.update(p=1000000000000000009))
    t0 = time.perf_counter()
    code, out, err = run(["decide", str(path)], capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    assert "not coherent" in out and not err


def _filiform_descriptor_file(tmp_path, c1, c2):
    """The filiform algebra [e1, e2] = c1 e3, [e1, e3] = c2 e4 with weights
    (1), (-2), (-1), (0): its H3 witness basis holds c1 * c2."""
    desc = {
        "schema": "coherence-lab/1",
        "kind": "solvable",
        "p": 2,
        "torus_rank": 1,
        "torus_generators": [[1]],
        "weights": [{"exponents": [e]} for e in (1, -2, -1, 0)],
        "basis_weights": [0, 1, 2, 3],
        "brackets": [
            {"i": 0, "j": 1, "terms": [{"k": 2, "c": c1}]},
            {"i": 0, "j": 2, "terms": [{"k": 3, "c": c2}]},
        ],
    }
    path = tmp_path / "filiform.json"
    path.write_text(json.dumps(desc))
    return path


BOUND = 10**190


@pytest.mark.parametrize(
    "c1, c2",
    [
        (str(BOUND - 1), str(BOUND - 1)),
        (str(-(BOUND - 1)), f"{BOUND - 1}/{BOUND - 2}"),
        (f"1/{BOUND - 2}", f"-3/{BOUND - 2}"),
    ],
    ids=["numerators", "numerator-and-denominator", "common-denominator"],
)
def test_decide_bracket_constants_at_bound(tmp_path, capsys, c1, c2):
    path = _filiform_descriptor_file(tmp_path, c1, c2)
    t0 = time.perf_counter()
    code, out, err = run(["--json", "-", "decide", str(path)], capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == 0 and not err
    embedded = json.loads(out)["result"]["embedded"]
    assert embedded["kind"] == "H3"
    product = Fraction(c1) * Fraction(c2)
    assert f"{product.numerator}/{product.denominator}" in sum(
        embedded["subalgebra_basis"], []
    )


@pytest.mark.parametrize(
    "c1, c2",
    [
        (str(BOUND), "1"),
        ("1", str(-BOUND)),
        (f"{BOUND}/7", "1"),
        ("1", f"1/{BOUND}"),
        (f"1/{10**95}", f"1/{10**95 + 1}"),  # each below, lcm above
        (str(10**3000), str(10**3000)),
    ],
    ids=["numerator", "negative", "fraction", "denominator", "common-denominator", "huge"],
)
def test_decide_bracket_constants_above_bound(tmp_path, capsys, c1, c2):
    path = _filiform_descriptor_file(tmp_path, c1, c2)
    code, out, err = run(["decide", str(path)], capsys)
    assert code == 2 and not out
    assert err.startswith("error:") and "10**190" in err
    assert "Traceback" not in err


def test_catalog_listing(capsys):
    code, out, _ = run(["catalog"], capsys)
    assert code == 0
    assert "G3" in out and "SL2" in out


def test_catalog_check(capsys):
    code, out, _ = run(["catalog", "--check"], capsys)
    assert code == 0
    assert "all match: True" in out


def test_catalog_lookup_unknown(capsys):
    code, _, err = run(["catalog", "Zp"], capsys)
    assert code == 2


def test_catalog_lookup_echo(capsys):
    code, out, _ = run(["--json", "-", "catalog", "H3"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["entry"]["descriptor"]["kind"] == "solvable"


def test_verify_skew_flag_ranges(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-skew", "--p", "7"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["verify-skew", "--trunc", "40"])
    with pytest.raises(SystemExit):
        main(["verify-skew", "--window", "9"])


@pytest.mark.parametrize(
    "argv",
    [
        ["--mmax", "7"],
        ["--mmax", "1000000"],
        ["--mmax", "-1"],
        ["--nu", "17"],
        ["--nv", "100000000"],
        ["--nu", "0"],
        ["--p", "2", "--trunc", "12", "--window", "3", "--precision", "1"],
        ["--p", "3", "--trunc", "16", "--window", "3", "--mmax", "3"]
        + ["--precision", "1"],
        ["--p", "3", "--trunc", "10", "--window", "1", "--precision", "1"],
        ["--p", "5", "--trunc", "7", "--window", "2", "--precision", "1"],
        ["--precision", "2"],
        ["--trunc", "1"],
        ["--trunc", "1", "--precision", "1"],
    ],
    ids=[
        "mmax-7",
        "mmax-huge",
        "mmax-negative",
        "nu-17",
        "nv-huge",
        "nu-zero",
        "precision1-p2-trunc12",
        "precision1-p3-trunc16",
        "precision1-p3-trunc10",
        "precision1-p5-trunc7",
        "precision-2",
        "trunc-1",
        "precision1-trunc-1",
    ],
)
def test_verify_skew_refused_before_work(capsys, argv):
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["verify-skew"] + argv)
    assert time.perf_counter() - t0 < 1.0
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert "error:" in out.err
    assert "Traceback" not in out.out + out.err


def test_verify_skew_precision1_admitted(capsys):
    code, out, _ = run(
        ["verify-skew", "--trunc", "6", "--window", "3", "--mmax", "3"]
        + ["--precision", "1"],
        capsys,
    )
    assert code == 0
    assert "soundness ok, completeness ok" in out


def test_verify_skew_small(capsys):
    code, out, _ = run(
        ["verify-skew", "--window", "2", "--mmax", "1"], capsys
    )
    assert code == 0
    assert "soundness ok" in out


def test_verify_skew_corrupted_exits_one(capsys):
    code, _, _ = run(
        ["--quiet", "verify-skew", "--window", "2", "--mmax", "1", "--corrupt-s1"],
        capsys,
    )
    assert code == 1


def test_obstruction_default(capsys):
    code, out, _ = run(["obstruction"], capsys)
    assert code == 0
    assert "strict at all 6 stages: True" in out


def test_obstruction_control(capsys):
    code, out, _ = run(["obstruction", "--control", "--nu", "0"], capsys)
    assert code == 0
    assert "collapses" in out


def test_obstruction_rejects_zero_without_control(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["obstruction", "--nu", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("p", ["4", "1", "0"])
def test_obstruction_refuses_non_prime(capsys, p):
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["obstruction", "--p", p])
    assert time.perf_counter() - t0 < 1.0
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert "error:" in out.err and "not prime" in out.err
    assert "Traceback" not in out.out + out.err


@pytest.mark.parametrize(
    "argv",
    [
        ["--window", "0"],
        ["--window", "65"],
        ["--window", "2000"],
        ["--nmax", "0"],
        ["--nmax", "-3"],
        ["--nmax", "65"],
        ["--nmax", "3000000"],
        ["--nu", "17"],
        ["--nv", "-1"],
        ["--nu", "-5", "--control"],
        ["--nv", "17", "--control"],
    ],
    ids=[
        "window-0",
        "window-65",
        "window-2000",
        "nmax-0",
        "nmax-negative",
        "nmax-65",
        "nmax-huge",
        "nu-17",
        "nv-negative",
        "nu-negative-control",
        "nv-17-control",
    ],
)
def test_obstruction_refused_before_work(capsys, argv):
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["obstruction"] + argv)
    assert time.perf_counter() - t0 < 1.0
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert "error:" in out.err
    assert "Traceback" not in out.out + out.err


def test_obstruction_worst_admitted_corner_is_fast(capsys):
    # The largest prime is_prime settles exactly, at the largest admitted
    # window, stage count and n_u, n_v.
    p = echelon.MR_EXACT_BOUND - 1
    while not echelon.is_prime(p):
        p -= 1
    t0 = time.perf_counter()
    code, out, _ = run(
        ["obstruction", "--p", str(p), "--window", "64", "--nmax", "64"]
        + ["--nu", "16", "--nv", "16"],
        capsys,
    )
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    assert "strict at all 64 stages: True" in out


@pytest.mark.parametrize(
    "case",
    [
        "decide-directory",
        "decide-not-utf8",
        "decide-huge-json-int",
        "decide-huge-exponent",
        "json-directory",
        "json-no-parent",
        "json-refused-before-work",
    ],
)
def test_file_errors_exit_two(tmp_path, capsys, monkeypatch, case):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"kind": "solvable", "name": "\xe9"}')
    # An integer above the 4300-digit int/str conversion limit.
    huge_int = tmp_path / "huge-int.json"
    huge_int.write_text('{"schema": "coherence-lab/1", "p": ' + "9" * 5000 + "}")
    # Parses, but f(t) would have 8001 digits: refused at parse time.
    huge_exp = tmp_path / "huge-exponent.json"
    desc = json.loads(json.dumps(CATALOG["pZ-semidirect-Qp"]["descriptor"]))
    desc["torus_generators"] = [[10**4000]]
    desc["weights"][0]["exponents"] = [10**4000]
    huge_exp.write_text(json.dumps(desc))
    missing = tmp_path / "missing" / "x.json"
    argv = {
        "decide-directory": ["decide", str(tmp_path)],
        "decide-not-utf8": ["decide", str(latin1)],
        "decide-huge-json-int": ["decide", str(huge_int)],
        "decide-huge-exponent": ["decide", str(huge_exp)],
        "json-directory": ["--json", str(tmp_path), "decide", "H3"],
        "json-no-parent": ["--json", str(missing), "decide", "H3"],
        "json-refused-before-work": ["--json", str(missing), "decide", "H3"],
    }[case]
    if case == "json-refused-before-work":
        # The handler reads decide from its module when it runs.
        monkeypatch.setattr(coherence, "decide", lambda parsed: pytest.fail("decide ran"))
    t0 = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    out = capsys.readouterr()
    assert out.err.startswith(f"error: {tmp_path}")
    assert "Traceback" not in out.out + out.err
    if case.startswith("json-"):
        assert out.err.count(argv[1]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-skew", "--trunc", "1"],
        ["verify-skew", "--precision", "1", "--window", "4"],
        ["obstruction", "--window", "0"],
        ["obstruction", "--p", "4"],
        ["mackey", "--p", "4"],
    ],
    ids=["skew-trunc", "skew-precision", "obstruction-window", "obstruction-prime", "mackey"],
)
def test_refusals_print_the_subcommand_usage(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: coherence-lab {argv[0]} [-h]"), err
    assert err.splitlines()[-1].startswith(f"coherence-lab {argv[0]}: error: "), err


def _distinct_conjugates(argv):
    """The distinct gG1g^-1 over the least elements g of the double cosets
    HgG1, each double coset the set of products h g k."""
    opts = dict(zip(argv[::2], argv[1::2]))
    G = fg.FiniteGroup(int(opts["--p"]), int(opts["--a"]))
    H, G1 = (cli._resolve_subgroup(G, opts[k]) for k in ("--H", "--G1"))
    classes = {
        frozenset(G.mul(G.mul(h, g), k) for h in H.elements for k in G1.elements)
        for g in range(G.order)
    }
    return {frozenset(G.conjugate(min(c), x) for x in G1.elements) for c in classes}


@pytest.mark.parametrize(
    "argv, double_cosets, conjugates",
    [
        (["--p", "2", "--a", "1", "--H", "e12", "--G1", "e23"], 2, 1),
        (["--p", "3", "--a", "1", "--H", "center", "--G1", "row", "--dim", "2"], 3, 1),
        (["--p", "2", "--a", "2", "--H", "diagonal-free", "--G1", "trivial"], 4, 1),
        (["--p", "3", "--a", "1", "--H", "e12", "--G1", "e12"], 5, 3),
    ],
    ids=["defaults", "p3-center-row", "p2a2-diagonal-free-trivial", "p3-e12-e12"],
)
def test_mackey_decomposes_double_cosets_once(
    capsys, monkeypatch, argv, double_cosets, conjugates
):
    # One H\G/G1 enumeration per run, one conjugated closure and one
    # intersection closure per distinct conjugate gG1g^-1 (pieces with equal
    # conjugates share them, distinct ones are not merged), and one module,
    # the one the command builds: every piece reads its blocks from it.
    assert len(_distinct_conjugates(argv)) == conjugates
    calls = {"double_cosets": 0, "subgroup_from_elements": 0}
    for name in calls:
        original = getattr(fg, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(fg, name, counted)
    calls.update(conjugated_closures=0, modules=0)
    subgroup_init, module_init = fg.Subgroup.__init__, fg.FinModule.__init__

    def counted_subgroup(self, *args):
        # Only the closures _decompose makes itself: subgroup_from_elements
        # closes its own.
        calls["conjugated_closures"] += sys._getframe(1).f_code.co_name == "_decompose"
        subgroup_init(self, *args)

    def counted_module(self, *args, **kwargs):
        calls["modules"] += 1
        module_init(self, *args, **kwargs)

    monkeypatch.setattr(fg.Subgroup, "__init__", counted_subgroup)
    monkeypatch.setattr(fg.FinModule, "__init__", counted_module)
    code, out, _ = run(["--json", "-", "mackey"] + argv, capsys)
    report = json.loads(out)
    assert code == 0 and report["coset_representatives_ok"]
    assert report["mackey"]["double_cosets"] == double_cosets
    assert calls == {
        "double_cosets": 1,
        "conjugated_closures": conjugates,
        "subgroup_from_elements": conjugates,
        "modules": 1,
    }


def test_mackey_defaults(capsys):
    code, out, _ = run(["mackey"], capsys)
    assert code == 0
    assert "bijective=True" in out


def test_mackey_selectors(capsys):
    code, out, _ = run(
        ["mackey", "--p", "3", "--H", "center", "--G1", "row", "--dim", "2"],
        capsys,
    )
    assert code == 0


def test_mackey_bad_selector(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mackey", "--H", "sideways"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, pins",
    [
        (["--p", "2", "--a", "4", "--H", "e12", "--G1", "e23", "--dim", "1"], (256, 256, 16)),
        (["--p", "13", "--a", "1", "--H", "e12", "--G1", "e23", "--dim", "2"], (338, 338, 13)),
        # Induced dimensions 1458 and 4096: only the group-order cap bounds
        # `mackey`.
        (["--p", "3", "--a", "2", "--H", "full", "--G1", "trivial", "--dim", "2"], (1458, 1458, 1)),
        (["--p", "2", "--a", "4", "--H", "full", "--G1", "trivial", "--dim", "1"], (4096, 4096, 1)),
    ],
    ids=["order-4096", "p13", "induced-1458", "induced-4096"],
)
def test_mackey_largest_groups(capsys, argv, pins):
    t0 = time.perf_counter()
    code, out, _ = run(["--json", "-", "mackey"] + argv, capsys)
    assert time.perf_counter() - t0 < 20.0
    assert code == 0
    m = json.loads(out)["mackey"]
    assert (m["lhs_dim"], m["rhs_dim"], m["double_cosets"]) == pins


@pytest.mark.parametrize(
    "argv",
    [["--p", "2", "--a", "-1"]],
    ids=["negative-a"],
)
def test_mackey_refused_before_work(capsys, argv):
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["mackey"] + argv)
    assert time.perf_counter() - t0 < 1.0
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert "error:" in out.err
    assert "Traceback" not in out.out + out.err


def test_json_report_files_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = main(["--quiet", "--json", str(path), "decide", "H3"])
        assert code == 0
        capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [["catalog"], ["decide", "G3"]], ids=["catalog", "decide"])
def test_unwritable_json_path_exits_two_without_traceback(argv):
    # Every write to /dev/full fails with ENOSPC. In a fresh process, so
    # that a second failure while the file closes at exit would show.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "coherence_lab.cli", "--json", "/dev/full", *argv],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: /dev/full: No space left on device\n"
    assert proc.stdout == ""


def test_json_stdout_only_json(capsys):
    code, out, _ = run(["--json", "-", "decide", "SL2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "decide"
    assert report["result"]["verdict"] == "coherent"


def test_parser_reused_after_refusal(capsys):
    # One parser serves every call in a process; a refused call leaves
    # nothing behind that changes the next report.
    with pytest.raises(SystemExit) as exc:
        main(["verify-skew", "--p", "7"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(["--json", "-", "decide", "H3"], capsys)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    fresh = subprocess.run(
        [sys.executable, "-m", "coherence_lab.cli", "--json", "-", "decide", "H3"],
        capture_output=True,
        env=env,
        check=False,
    )
    assert (code, out.encode()) == (fresh.returncode, fresh.stdout)


def test_decide_name_and_descriptor_file_agree(tmp_path, capsys):
    for name, entry in CATALOG.items():
        path = tmp_path / "entry.json"
        path.write_text(json.dumps(entry["descriptor"]))
        reports = []
        for target in (name, str(path)):
            code, out, _ = run(["--json", "-", "decide", target], capsys)
            assert code == 0
            reports.append(json.loads(out))
        by_name, by_file = reports
        assert by_name["inputs"]["descriptor"] == by_file["inputs"]["descriptor"]
        assert by_name["inputs"]["descriptor"] == entry["descriptor"]
        assert by_name["result"] == by_file["result"]


# Lists, as the last line of stderr, which of numpy and the package's
# submodules are loaded.
_LOADED = """print("loaded:", *sorted(
    m for m in sys.modules if m == "numpy" or m.startswith("coherence_lab.")
), file=sys.stderr)"""

# Runs the command line as `python -m coherence_lab.cli` does, then reports
# on stderr, after the command has exited, what it ever imported.
PROBE = f"""
import atexit, runpy, sys
atexit.register(lambda: {_LOADED})
runpy.run_module("coherence_lab.cli", run_name="__main__", alter_sys=True)
"""


def _fresh(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", *args], capture_output=True, text=True, env=env, check=False
    )


def _loaded(proc):
    """The modules a run reported loaded, package prefix removed."""
    last = proc.stderr.splitlines()[-1] if proc.stderr else ""
    assert last.startswith("loaded:"), proc.stderr
    return {name.removeprefix("coherence_lab.") for name in last.split()[1:]}


# What each command loads of the package, besides `cli`. The package root
# resolves its names on first use, so importing it loads no layer.
REPORT = {"report"}
DECIDE_LAYERS = REPORT | {
    "catalog", "coherence", "descriptors", "root_datum", "int_lattice", "echelon"
}
SKEW_LAYERS = REPORT | {"skew_checks", "skew_poly", "skew_series", "fp_linalg", "echelon"}
GROUP_LAYERS = REPORT | {"finite_groups", "fp_linalg", "echelon"}
OBSTRUCTION_LAYERS = REPORT | {"obstruction", "skew_series", "echelon"}


def test_import_leaves_numpy_unloaded():
    proc = _fresh(f"import sys, coherence_lab, coherence_lab.cli; {_LOADED}")
    assert proc.returncode == 0, proc.stderr
    assert _loaded(proc) == REPORT | {"cli"}


_SKEW = ["--json", "-", "verify-skew", "--p", "2"]


# Every subcommand, each in its own fresh process: every layer is imported
# inside the handlers, so only a fresh process shows that each handler
# imports what it uses and nothing more. verify-skew runs the three
# operations of the benchmark's skew-relations workload, the last one the
# corrupted control; its refusals come before any import.
@pytest.mark.parametrize(
    "argv,code,layers",
    [
        (["decide", "Qp"], 0, DECIDE_LAYERS),
        (["decide", "FILE"], 0, DECIDE_LAYERS),
        (["catalog"], 0, DECIDE_LAYERS),
        (["catalog", "--check"], 0, DECIDE_LAYERS),
        (["obstruction"], 0, OBSTRUCTION_LAYERS),
        (["--help"], 0, REPORT),
        (["--json", "-", "mackey", "--p", "3", "--a", "1"], 0, GROUP_LAYERS),
        (["--json", "-", "mackey", "--p", "3", "--a", "1", "--dim", "2"], 0, GROUP_LAYERS),
        (_SKEW + ["--trunc", "8", "--window", "4", "--mmax", "3"], 0, SKEW_LAYERS),
        (
            _SKEW + ["--trunc", "6", "--window", "3", "--mmax", "3", "--precision", "1"],
            0,
            SKEW_LAYERS,
        ),
        (
            _SKEW + ["--trunc", "8", "--window", "4", "--mmax", "3", "--corrupt-s1"],
            1,
            SKEW_LAYERS,
        ),
        (["verify-skew", "--trunc", "1"], 2, REPORT),
    ],
    ids=[
        "decide-name",
        "decide-file",
        "catalog",
        "catalog-check",
        "obstruction",
        "help",
        "mackey-27",
        "mackey-27-dim-2",
        "verify-skew",
        "verify-skew-precision-1",
        "verify-skew-corrupt",
        "verify-skew-refused",
    ],
)
def test_commands_in_a_fresh_process_leave_numpy_unloaded(tmp_path, argv, code, layers):
    path = tmp_path / "h3.json"
    path.write_text(json.dumps(CATALOG["H3"]["descriptor"]))
    argv = [str(path) if a == "FILE" else a for a in argv]
    proc = _fresh(PROBE, *argv)
    assert proc.returncode == code, proc.stderr
    if argv[0] == "--json":
        assert json.loads(proc.stdout)["ok"] is (code == 0)
    loaded = _loaded(proc)
    assert "numpy" not in loaded
    assert loaded == layers


def test_package_imports_only_the_standard_library():
    # The package has no runtime dependency: every absolute import in it
    # names a standard-library module.
    outside = set()
    for path in sorted((SRC / "coherence_lab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside.update(
                (path.stem, name)
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            )
    assert not outside


def test_reports_written_as_json_dumps(tmp_path, capsys, monkeypatch):
    # Every report kind, captured on its way to the writer, renders as
    # json.dumps(indent=2) does, byte for byte.
    from coherence_lab import descriptors

    seen = []

    def checked(report):
        text = descriptors.dumps_report(report)
        assert text == json.dumps(report, indent=2) + "\n"
        seen.append(report["command"])
        return text

    monkeypatch.setattr(cli, "dumps_report", checked)
    path = tmp_path / "h3.json"
    path.write_text(json.dumps(CATALOG["H3"]["descriptor"]))
    skew = ["verify-skew", "--p", "2", "--trunc", "8", "--window", "4", "--mmax", "3"]
    argvs = [["decide", str(path)], ["catalog"], ["catalog", "--check"], ["obstruction"]]
    argvs += [["decide", name] for name in CATALOG]
    argvs += [skew, skew + ["--corrupt-s1"], ["mackey", "--p", "3", "--a", "1"]]
    for argv in argvs:
        code, _, _ = run(["--json", "-", *argv], capsys)
        assert code == (1 if "--corrupt-s1" in argv else 0)
    assert set(seen) == {"decide", "catalog", "obstruction", "verify-skew", "mackey"}
    assert len(seen) == len(argvs)


@pytest.mark.parametrize(
    "brackets, message",
    [
        (
            [{"i": 0, "j": 1, "terms": [{"k": 0, "c": "1/1"}]}] * 2,
            "bracket entry (0, 1) is given twice",
        ),
        (
            [{"i": 0, "j": 1, "terms": [{"k": 1, "c": "5/1"}, {"k": 1, "c": "1/1"}]}],
            "bracket entry (0, 1) gives target 1 twice",
        ),
    ],
    ids=["repeated-pair", "repeated-target"],
)
def test_decide_refuses_ambiguous_brackets(tmp_path, capsys, brackets, message):
    path = _g3_descriptor_file(tmp_path, lambda d: d.update(brackets=brackets))
    code, out, err = run(["decide", str(path)], capsys)
    assert code == 2
    assert err.startswith("error:") and message in err
    assert "Traceback" not in out + err
