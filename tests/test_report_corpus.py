"""Pinned report bytes: exit code and the sha256 of stdout and stderr of
fixed CLI runs.

`report_corpus.jsonl` holds one line per argv of CORPUS, written by

    PYTHONPATH=src python tests/test_report_corpus.py

from the commit whose bytes are to be kept. A deliberate change of the
bytes, such as a `version` bump (every report carries it), regenerates the
file in the same commit.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path
from unittest import mock

from coherence_lab import __version__
from coherence_lab.catalog import CATALOG
from coherence_lab.cli import SUBGROUP_SELECTORS, main

CORPUS_FILE = Path(__file__).resolve().parent / "report_corpus.jsonl"


def _skew(p, trunc, window, mmax, *extra):
    return ["--json", "-", "verify-skew", "--p", str(p), "--trunc", str(trunc),
            "--window", str(window), "--mmax", str(mmax), *extra]


CORPUS = [
    _skew(2, 8, 4, 3),
    _skew(2, 8, 4, 3, "--corrupt-s1"),
    _skew(2, 6, 3, 3, "--precision", "1"),
    _skew(3, 12, 5, 4),
    _skew(2, 16, 6, 5),
    _skew(5, 16, 6, 5),
]
# Each further run prints its human lines plain and its report with --json -.
_RUNS = [
    *(["decide", name] for name in CATALOG),
    ["catalog"],
    ["catalog", "--check"],
    ["obstruction"],
    ["obstruction", "--control", "--nu", "0", "--nv", "0"],
    *(
        ["mackey", "--p", p, "--a", a, "--H", h, "--G1", g1, "--dim", dim]
        for p, a in (("3", "1"), ("2", "2"))  # orders 27 and 64
        for h in SUBGROUP_SELECTORS
        for g1 in SUBGROUP_SELECTORS
        for dim in ("1", "2")
    ),
]
CORPUS += [argv for run in _RUNS for argv in (run, ["--json", "-", *run])]
# Refusals exit 2 with a message on stderr.
CORPUS += [
    ["verify-skew", "--trunc", "1"],
    ["mackey", "--p", "4"],
    ["decide", "no-such-name"],
    ["obstruction", "--window", "0"],
]
# The benchmark's order 729 over every selector pair, and three pairs at
# orders 2197 and 4096: a module validated over all of G (full/full), one
# double coset per element (trivial/trivial), and a center acting on the
# cosets of a row (center/row).
_MACKEY = ["--json", "-", "mackey", "--dim", "2"]
CORPUS += [
    [*_MACKEY, "--p", "3", "--a", "2", "--H", h, "--G1", g1]
    for h in SUBGROUP_SELECTORS
    for g1 in SUBGROUP_SELECTORS
]
CORPUS += [
    [*_MACKEY, "--p", p, "--a", a, "--H", h, "--G1", g1]
    for p, a in (("13", "1"), ("2", "4"))
    for h, g1 in (("full", "full"), ("trivial", "trivial"), ("center", "row"))
]
# The group of order 1, whose subgroups have an empty polycyclic sequence,
# and a module over every selector at order 512.
CORPUS += [[*_MACKEY, "--p", p, "--a", "0"] for p in ("2", "3")]
CORPUS += [
    [*_MACKEY, "--p", "2", "--a", "3", "--H", "full", "--G1", g1]
    for g1 in SUBGROUP_SELECTORS
]


def _sha256(stream):
    return hashlib.sha256(stream.getvalue().encode()).hexdigest()


def _replay(argv):
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage lines to the terminal width.
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
    return {
        "argv": list(argv),
        "exit": code,
        "stdout_sha256": _sha256(out),
        "stderr_sha256": _sha256(err),
        "version": __version__,
    }


def _load():
    return [json.loads(line) for line in CORPUS_FILE.read_text().splitlines()]


def test_corpus_file_covers_the_declared_argvs():
    assert [entry["argv"] for entry in _load()] == CORPUS


def test_report_bytes_match_the_pinned_corpus():
    for entry in _load():
        assert entry["version"] == __version__, "version changed: regenerate the corpus"
        assert _replay(entry["argv"]) == entry


if __name__ == "__main__":
    CORPUS_FILE.write_text("".join(json.dumps(_replay(argv)) + "\n" for argv in CORPUS))
