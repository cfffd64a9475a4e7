"""Per-layer tracing installed from outside the program.

Wrappers replace the public functions and methods of the `coherence_lab`
modules for the traced passes only. A module-level function is replaced
wherever its name is bound, including modules that imported it with
`from ... import`; a method is replaced on its class. Timed wrappers record
one span per call (name, start, end, parent span) in memory; a layer's self
time is its span time minus the time of the spans it directly contains.
The hot inner methods get count-only wrappers, since a span per call would
cost more than the call. Spans are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# Timed spans: target "module:Qualified.name" -> fields reported per pass.
# Every span also reports `.errors` (calls that raised).
SPANS: Dict[str, Tuple[str, ...]] = {
    "skew_poly:syzygy_bounded": ("self_s",),
    "skew_poly:FlatSpace.from_vec": ("calls", "self_s"),
    "skew_poly:FlatSpace.to_vec": ("calls",),
    "skew_poly:ideal_membership_bounded": ("total_s",),
    "skew_checks:verify_relations": ("self_s",),
    "skew_checks:filtration_identity_check": ("total_s",),
    "skew_checks:mjm_degree_detect": ("total_s",),
    "skew_checks:one_var_free_decomposition": ("total_s",),
    "fp_linalg:solve": ("self_s",),
    "fp_linalg:rref": ("self_s",),
    "fp_linalg:kernel_basis": ("calls", "self_s", "cells"),
    "fp_linalg:rank": ("calls", "self_s", "cells"),
    "finite_groups:Subgroup.__init__": ("calls", "self_s"),
    "finite_groups:FinModule.__init__": ("self_s",),
    "finite_groups:induce": ("self_s", "action_bytes"),
    "finite_groups:mackey_check": ("self_s",),
    "finite_groups:coset_rep_check": ("self_s",),
    "finite_groups:double_cosets": ("self_s",),
    "finite_groups:commutator_identity_report": ("total_s",),
    "root_datum:validate": ("calls", "self_s"),
    "root_datum:witness_subgroup": ("total_s",),
    "int_lattice:cyclic_cone_generator_tracked": ("total_s",),
    "coherence:decide_solvable": ("self_s",),
    "coherence:decide_semisimple": ("total_s",),
    "descriptors:loads_descriptor": ("total_s",),
    "descriptors:verdict_to_json": ("total_s",),
    "descriptors:dumps_report": ("total_s",),
    "cli:main": ("self_s",),
    "cli:build_parser": ("total_s",),
    "catalog:catalog_check": ("total_s",),
}

# Count-only wrappers on the hot methods.
COUNTED = (
    "skew_poly:SkewPoly.__mul__",
    "skew_series:TruncSeries.__mul__",
    "skew_series:FrobeniusEndo.apply",
    "finite_groups:FiniteGroup.mul",
    "int_lattice:divides_vec",
)

# Metrics read from the reports or from outside the program's objects.
DERIVED = (
    ("skew_checks.kernel_vectors", "count", "lower"),
    ("skew_checks.interior_checked", "count", "higher"),
    ("skew_checks.interior_ratio", "ratio", "higher"),
    ("finite_groups.mul_cache_entries", "count", "lower"),
    ("finite_groups.mul_cache_hit_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

_FIELD_UNITS = {
    "calls": "count",
    "self_s": "s",
    "total_s": "s",
    "cells": "count",
    "action_bytes": "B",
    "errors": "count",
}


def span_name(target: str) -> str:
    module, qual = target.split(":")
    return f"{module}.{qual.replace('__init__', 'init').replace('__mul__', 'mul')}"


def metric_specs() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []
    for target, fields in SPANS.items():
        name = span_name(target)
        for f in fields + ("errors",):
            out.append((f"{name}.{f}", _FIELD_UNITS[f], "lower"))
    out += [(f"{span_name(t)}.calls", "count", "lower") for t in COUNTED]
    out += list(DERIVED)
    return out


def _cells(args, result) -> int:
    m = args[0]
    return m.rows * m.cols


def _action_bytes(args, result) -> int:
    module, _reps = result
    return sum(a.nbytes for a in module.gen_actions)


_EXTRAS: Dict[str, Callable[[Sequence[Any], Any], int]] = {
    "fp_linalg:kernel_basis": _cells,
    "fp_linalg:rank": _cells,
    "finite_groups:induce": _action_bytes,
}


class Tracer:
    """Span and count store for the traced passes of one run."""

    def __init__(self):
        self.names: List[str] = ["op"]
        # span name -> [calls, total_s, self_s, errors, active depth, extra sum]
        self.stats: Dict[str, List[float]] = {}
        for target in SPANS:
            self.names.append(span_name(target))
            self.stats[span_name(target)] = [0, 0.0, 0.0, 0, 0, 0]
        self.counts: Dict[str, List[int]] = {span_name(t): [0] for t in COUNTED}
        self.spans: List[Optional[Tuple[int, float, float, int]]] = []
        self.op_labels: Dict[int, str] = {}
        self.mul_cache_entries = 0
        self.report_counts = {"kernel_vectors": 0, "interior_checked": 0}
        self._stack: List[List[float]] = []
        self._undo: List[Tuple[Any, str, Any]] = []
        self._groups: List[Any] = []

    def _span_wrapper(self, name: str, fn, extra):
        nid = self.names.index(name)
        st = self.stats[name]
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            frame = [idx, 0.0]
            stack.append(frame)
            st[4] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st[3] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                st[4] -= 1
                dur = t1 - t0
                st[0] += 1
                if not st[4]:
                    st[1] += dur
                st[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                spans[idx] = (nid, t0, t1, parent[0] if parent is not None else -1)
            if extra is not None:
                st[5] += extra(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    @staticmethod
    def _count_wrapper(cell: List[int], fn, hook=None):
        if hook is None:
            def wrapper(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                cell[0] += 1
                hook(args)
                return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def _patch(self, target: str, make: Callable[[Any], Any]) -> None:
        module, qual = target.split(":")
        mod = importlib.import_module(f"coherence_lab.{module}")
        if "." in qual:
            cls_name, attr = qual.split(".")
            owner = getattr(mod, cls_name)
            original = owner.__dict__[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, make(original))
            return
        original = getattr(mod, qual)
        wrapper = make(original)
        for name, loaded in list(sys.modules.items()):
            if name != "coherence_lab" and not name.startswith("coherence_lab."):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._undo.append((loaded, attr, original))
                    setattr(loaded, attr, wrapper)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracing is already installed")
        for target in SPANS:
            self._patch(
                target,
                lambda fn, t=target: self._span_wrapper(span_name(t), fn, _EXTRAS.get(t)),
            )
        for target in COUNTED:
            cell = self.counts[span_name(target)]
            self._patch(target, lambda fn, c=cell: self._count_wrapper(c, fn))
        # Every group made during an operation, so its product cache can be
        # measured from outside when the operation ends.
        self._patch(
            "finite_groups:FiniteGroup.__init__",
            lambda fn: self._count_wrapper([0], fn, hook=lambda a: self._groups.append(a[0])),
        )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def begin_op(self, label: str) -> None:
        """Open the root span that every span of one operation descends from."""
        idx = len(self.spans)
        self.spans.append(None)
        self.op_labels[idx] = label
        self._stack.append([idx, 0.0])
        self._op_start = perf_counter()

    def end_op(self) -> None:
        t1 = perf_counter()
        idx, _ = self._stack.pop()
        self.spans[idx] = (0, self._op_start, t1, -1)
        self.mul_cache_entries += sum(len(g._mul_cache) for g in self._groups)
        self._groups.clear()

    def count_report(self, report: Dict[str, Any]) -> None:
        rel = report.get("relations")
        if rel is not None:
            self.report_counts["kernel_vectors"] += rel["kernel_dim"]
            self.report_counts["interior_checked"] += rel["interior_checked"]

    def metrics(self, passes: int, overhead_ratio: float) -> Dict[str, float]:
        """Every per-layer metric, per traced pass."""
        field_index = {"calls": 0, "total_s": 1, "self_s": 2, "errors": 3,
                       "cells": 5, "action_bytes": 5}
        out: Dict[str, float] = {}
        for target, fields in SPANS.items():
            name = span_name(target)
            st = self.stats[name]
            for f in fields + ("errors",):
                out[f"{name}.{f}"] = st[field_index[f]] / passes
        for target in COUNTED:
            out[f"{span_name(target)}.calls"] = self.counts[span_name(target)][0] / passes
        kernel = self.report_counts["kernel_vectors"]
        interior = self.report_counts["interior_checked"]
        out["skew_checks.kernel_vectors"] = kernel / passes
        out["skew_checks.interior_checked"] = interior / passes
        out["skew_checks.interior_ratio"] = interior / kernel if kernel else 0.0
        mul_calls = self.counts["finite_groups.FiniteGroup.mul"][0]
        out["finite_groups.mul_cache_entries"] = self.mul_cache_entries / passes
        out["finite_groups.mul_cache_hit_ratio"] = (
            1 - self.mul_cache_entries / mul_calls if mul_calls else 0.0
        )
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def write(self, path: Path, meta: Dict[str, Any]) -> None:
        """All spans as [name index, start, end, parent span index]."""
        with path.open("w") as fh:
            json.dump(
                {
                    "meta": meta,
                    "names": self.names,
                    "op_labels": {str(k): v for k, v in self.op_labels.items()},
                    "spans": self.spans,
                },
                fh,
            )
