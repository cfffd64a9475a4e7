import json

import pytest
from hypothesis import given, settings, strategies as st

from coherence_lab import descriptors as ds
from coherence_lab.catalog import CATALOG
from coherence_lab.coherence import (
    RootSystemLabel,
    decide_semisimple,
    decide_solvable,
)
from coherence_lab.root_datum import SolvableGroupDatum, validate


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


# Values the report writer must render as json.dumps(indent=2) does:
# empty and nested-empty containers, escapes and non-ASCII text in values
# and keys, long and negative integers, the three constants, and tuples.
WRITER_CORPUS = [
    {},
    [],
    (),
    "",
    0,
    -7,
    10**3999,
    -(10**3999),
    True,
    False,
    None,
    {"a": {}, "b": [], "c": [[]], "d": [{}], "e": {"f": {"g": []}}},
    [[[], {}], [[[]]], ({},)],
    ["é", "日本", "\U0001f600", 'quo"te', "back\\slash", "\x00\x1f\t\n\r\x7f"],
    {"ключ": 1, 'k"ey': 2, "k\\ey": 3, "\n\x01": 4, "": 5},
    {"mixed": [1, "two", None, True, [3, {"x": (4, 5)}], {}, -0]},
    (1, (2, (3,)), [True, False, None]),
    [10**3999, -(10**3999), 2**63, -(2**63) - 1],
]


@pytest.mark.parametrize("value", WRITER_CORPUS, ids=range(len(WRITER_CORPUS)))
def test_dumps_report_matches_json_dumps(value):
    assert ds.dumps_report(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize(
    "value",
    [1.5, {1, 2}, b"bytes", {"a": [0.0]}, [frozenset()], {1: "int key"}, {None: 1}, {(1,): 2}],
    ids=["float", "set", "bytes", "nested-float", "frozenset", "int-key", "none-key", "tuple-key"],
)
def test_dumps_report_refuses_other_types(value):
    with pytest.raises(TypeError):
        ds.dumps_report(value)


# Random report trees: every type the writer takes, nested, with keys and
# strings over every code point (control characters, quotes, non-ASCII,
# astral and lone surrogates among them) and ints far beyond 64 bits. The
# code points are drawn as integers: st.text() alone would spend seconds
# building its table of Unicode categories.
_CHARS = (st.integers(0, 0x7F) | st.integers(0x80, 0x10FFFF)).map(chr)
_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**400), 10**400)
    | st.text(_CHARS)
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(_CHARS), inner, max_size=4),
    max_leaves=20,
)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_JSON_TREES)
def test_dumps_report_property(value):
    assert ds.dumps_report(value) == json.dumps(value, indent=2) + "\n"


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    st.floats() | st.dictionaries(st.integers(), _JSON_LEAVES, min_size=1, max_size=2),
    st.lists(st.text(_CHARS, max_size=3) | st.none(), max_size=6),
)
def test_dumps_report_property_refuses_float_and_non_str_key(value, path):
    # json.dumps would write both; the report writer refuses them at any
    # depth, in a dict (a str step of the path) or a list (None).
    for step in path:
        value = [1, value] if step is None else {step: value}
    with pytest.raises(TypeError):
        ds.dumps_report(value)


def _h3_with_brackets(brackets):
    desc = json.loads(json.dumps(CATALOG["H3"]["descriptor"]))
    desc["brackets"] = brackets
    return desc


def _entry(i, j, *terms):
    return {"i": i, "j": j, "terms": [{"k": k, "c": c} for k, c in terms]}


def test_parse_refuses_repeated_bracket_entries():
    # A repeated pair or a repeated target would otherwise be read
    # last-one-wins; the error names the pair.
    with pytest.raises(ds.DescriptorError, match=r"bracket entry \(0, 1\) is given twice"):
        ds.parse_descriptor(_h3_with_brackets([_entry(0, 1, (2, "1/1")), _entry(0, 1, (2, "2/1"))]))
    with pytest.raises(ds.DescriptorError, match=r"bracket entry \(0, 1\) is given twice"):
        ds.parse_descriptor(_h3_with_brackets([_entry(0, 1, (2, "1/1")), _entry(0, 1, (2, "1/1"))]))
    with pytest.raises(ds.DescriptorError, match=r"bracket entry \(1, 0\) gives target 2 twice"):
        ds.parse_descriptor(_h3_with_brackets([_entry(1, 0, (2, "5/1"), (2, "1/1"))]))


def test_mirrored_bracket_entries():
    # Mirrored entries that agree are accepted; a conflicting pair is
    # reported once.
    agree = ds.parse_descriptor(
        _h3_with_brackets([_entry(0, 1, (2, "1/1")), _entry(1, 0, (2, "-1/1"))])
    )
    assert validate(agree) == []
    assert agree.lie.bracket_basis(0, 1) == {2: 1}
    conflict = ds.parse_descriptor(
        _h3_with_brackets([_entry(1, 0, (2, "1/1")), _entry(0, 1, (2, "1/1"))])
    )
    problems = [v for v in validate(conflict) if "antisymmetric" in v]
    assert problems == ["brackets (0, 1) and (1, 0) are not antisymmetric"]


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
