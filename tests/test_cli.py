import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from coherence_lab import cli
from coherence_lab import finite_groups as fg
from coherence_lab import fp_linalg
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
    p = fp_linalg.MR_EXACT_BOUND - 1
    while not fp_linalg.is_prime(p):
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
        monkeypatch.setattr(cli, "decide", lambda parsed: pytest.fail("decide ran"))
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
        ["--p", "2", "--a", "1", "--H", "e12", "--G1", "e23"],
        ["--p", "3", "--a", "1", "--H", "center", "--G1", "row", "--dim", "2"],
        ["--p", "2", "--a", "2", "--H", "diagonal-free", "--G1", "trivial"],
    ],
    ids=["defaults", "p3-center-row", "p2a2-diagonal-free-trivial"],
)
def test_mackey_decomposes_double_cosets_once(capsys, monkeypatch, argv):
    # One H\G/G1 enumeration per run, one conjugate closure and one
    # intersection closure per double coset.
    calls = {"double_cosets": 0, "conjugate_module": 0, "subgroup_from_elements": 0}
    for name in calls:
        original = getattr(fg, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(fg, name, counted)
    code, out, _ = run(["--json", "-", "mackey"] + argv, capsys)
    report = json.loads(out)
    assert code == 0 and report["coset_representatives_ok"]
    n = report["mackey"]["double_cosets"]
    assert calls == {"double_cosets": 1, "conjugate_module": n, "subgroup_from_elements": n}


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
