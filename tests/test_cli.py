import json
import time

import pytest

from coherence_lab.cli import main


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
    from coherence_lab.catalog import CATALOG

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
    from coherence_lab.catalog import CATALOG

    bad = json.loads(json.dumps(CATALOG["G3"]["descriptor"]))
    bad["weights"][1]["exponents"] = [1]  # duplicate weight
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(["decide", str(path)], capsys)
    assert code == 2
    assert "invalid" in err


def test_decide_out_of_range_basis_weight(tmp_path, capsys):
    from coherence_lab.catalog import CATALOG

    bad = json.loads(json.dumps(CATALOG["H3"]["descriptor"]))
    bad["basis_weights"][0] = 99
    path = tmp_path / "missing-weight.json"
    path.write_text(json.dumps(bad))
    code, out, err = run(["decide", str(path)], capsys)
    assert code == 2
    assert "missing weight 99" in err
    assert "Traceback" not in out + err


def _g3_descriptor_file(tmp_path, mutate):
    from coherence_lab.catalog import CATALOG

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
    ],
    ids=["order-4096", "p13"],
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
    [
        ["--p", "3", "--a", "2", "--H", "full", "--G1", "trivial", "--dim", "2"],
        ["--p", "2", "--a", "4", "--H", "full", "--G1", "trivial", "--dim", "1"],
        ["--p", "2", "--a", "-1"],
    ],
    ids=["induced-1458", "induced-4096", "negative-a"],
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
