"""The benchmark's per-layer tracer (`perfbench/tracing.py`) patches library
names by lookup. These tests install it against the package as it is, so a
renamed or removed traced name fails here rather than in a traced run."""

import importlib
import importlib.util
import json
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(target):
    module, qual = target.split(":")
    owner = importlib.import_module(f"coherence_lab.{module}")
    if "." in qual:
        cls_name, attr = qual.split(".")
        return vars(getattr(owner, cls_name))[attr]
    return getattr(owner, qual)


def test_tracer_installs_runs_and_uninstalls(capsys):
    from coherence_lab import cli

    tracing = _load_tracing()
    targets = list(tracing.SPANS) + list(tracing.COUNTED)
    targets.append("finite_groups:FiniteGroup.__init__")
    before = {t: _resolve(t) for t in targets}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(_resolve(t) is not before[t] for t in targets)
        tracer.begin_op("mackey")
        code = cli.main(["--json", "-", "mackey"])
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert all(_resolve(t) is before[t] for t in targets)
    assert code == 0 and json.loads(capsys.readouterr().out)["ok"]
    metrics = tracer.metrics(1, 0.0)
    assert not any(v for k, v in metrics.items() if k.endswith(".errors"))
    assert metrics["finite_groups.mackey_check.self_s"] > 0
    assert metrics["finite_groups.double_cosets.self_s"] > 0
