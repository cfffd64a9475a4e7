import json

import pytest

from coherence_lab import descriptors as ds
from coherence_lab.catalog import CATALOG
from coherence_lab.coherence import (
    RootSystemLabel,
    decide_semisimple,
    decide_solvable,
)
from coherence_lab.root_datum import SolvableGroupDatum


def test_catalog_round_trip():
    for name, entry in CATALOG.items():
        parsed = ds.parse_descriptor(entry["descriptor"])
        if isinstance(parsed, RootSystemLabel):
            again = ds.label_to_descriptor(parsed)
        else:
            again = ds.datum_to_descriptor(parsed)
        assert ds.parse_descriptor(again) is not None
        if isinstance(parsed, SolvableGroupDatum):
            reparsed = ds.parse_descriptor(again)
            assert reparsed.weights == parsed.weights
            assert reparsed.torus_generators == parsed.torus_generators
            assert reparsed.lie.weight_of == parsed.lie.weight_of
            for i in range(parsed.lie.dim):
                for j in range(i + 1, parsed.lie.dim):
                    assert reparsed.lie.bracket_basis(i, j) == parsed.lie.bracket_basis(i, j)


def test_rational_strings():
    assert ds._frac_from_str("3/4").numerator == 3
    assert ds._frac_from_str("-2").denominator == 1
    with pytest.raises(ds.DescriptorError):
        ds._frac_from_str("1/0")
    with pytest.raises(ds.DescriptorError):
        ds._frac_from_str("x")


def test_parse_rejects_bad_schema():
    with pytest.raises(ds.DescriptorError):
        ds.parse_descriptor({"schema": "nope/9", "kind": "semisimple"})
    with pytest.raises(ds.DescriptorError):
        ds.parse_descriptor({"schema": ds.SCHEMA, "kind": "mystery"})
    with pytest.raises(ds.DescriptorError):
        ds.loads_descriptor("{not json")


def test_parse_reports_missing_fields():
    with pytest.raises(ds.DescriptorError):
        ds.parse_descriptor({"schema": ds.SCHEMA, "kind": "solvable", "p": 2})


def test_verdict_serialization():
    g3 = ds.parse_descriptor(CATALOG["G3"]["descriptor"])
    out = ds.verdict_to_json(decide_solvable(g3))
    assert out["verdict"] == "not_coherent"
    assert out["embedded"]["kind"] == "G3"
    assert out["mixed_witness"] == [1, -1]
    json.dumps(out)  # everything JSON-serializable

    semi = ds.verdict_to_json(decide_semisimple(RootSystemLabel("A", 1)))
    assert semi["verdict"] == "coherent" and "reason" in semi

    qp = ds.parse_descriptor(CATALOG["Qp"]["descriptor"])
    out = ds.verdict_to_json(decide_solvable(qp))
    assert out["verdict"] == "coherent" and out["trivial_image"] is True


def test_dumps_report_deterministic():
    report = {"schema": ds.SCHEMA, "b": 1, "a": 2}
    assert ds.dumps_report(report) == ds.dumps_report(dict(report))
    assert ds.dumps_report(report).endswith("\n")


@pytest.mark.parametrize("field", ["weight", "torus"])
def test_entry_bound(field):
    # Weight exponents and torus-generator entries stay within (-2**31, 2**31).
    def parsed(x):
        desc = json.loads(json.dumps(CATALOG["pZ-semidirect-Qp"]["descriptor"]))
        if field == "weight":
            desc["weights"][0]["exponents"] = [x]
        else:
            desc["torus_generators"] = [[x]]
        return ds.parse_descriptor(desc)

    assert parsed(2**31 - 1).torus_rank == 1
    assert parsed(-(2**31) + 1).torus_rank == 1
    for x in (2**31, -(2**31)):
        with pytest.raises(ds.DescriptorError, match="2\\*\\*31"):
            parsed(x)
