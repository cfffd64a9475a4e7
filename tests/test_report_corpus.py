"""Pinned report bytes: exit code and stdout sha256 of fixed CLI runs.

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
from pathlib import Path

from coherence_lab import __version__
from coherence_lab.cli import main

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


def _replay(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {
        "argv": list(argv),
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
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
