"""In-memory span recording around the public functions of ``nesyhar``.

The package imports most of its collaborators by name (``strategies.py`` does
``from .nn import forward``), so a function is wrapped where its caller looks
it up, not where it is defined: ``nesyhar.strategies.forward`` is the call
site that ``train`` and ``predict_many`` use. Every wrapped name is checked
before anything is installed, so a later rename fails loudly instead of
reporting zero calls.

A span is ``(id, parent_id, name, start, end, trace_id, attrs)``. The trace id
is set per timed pass of a workload, so all spans of one pass share it. Spans
stay in a list until :meth:`Tracer.write` dumps them once at the end.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path


def _kind(args, kwargs):
    return {"kind": args[0].kind}


def _train_attrs(args, kwargs, result):
    return {"windows": len(args[0]), "epochs": result.meta["epochs_run"],
            "steps": result.meta["steps_run"]}


def _forward_attrs(args, kwargs, result):
    return {"mode": kwargs.get("mode", "infer"), "rows": len(args[2])}


def _rows_attrs(args, kwargs, result):
    return {"rows": len(args[1])}


def _refine_attrs(args, kwargs, result):
    return {"fallback": bool(result[1])}


def _segment_attrs(args, kwargs, result):
    return {"windows": len(result)}


def _write_attrs(args, kwargs, result):
    files = [p for p in Path(result).iterdir() if p.is_file()]
    return {"bytes": sum(p.stat().st_size for p in files)}


def _report_attrs(args, kwargs, result):
    return {"cells": len(result.cells),
            "cells_failed": sum(1 for c in result.cells if c.error)}


# (module, attribute path at the call site, span name, attrs before, attrs after)
CALL_SITES = (
    ("nesyhar.cli", "main", "cli.main", None, None),
    ("nesyhar.config", "load_config", "config.load_config", None, None),
    ("nesyhar.knowledge", "load_knowledge", "knowledge.load_knowledge", None, None),
    ("nesyhar.knowledge", "KnowledgeModel.consistent_activities",
     "knowledge.consistent_activities", None, None),
    ("nesyhar.data", "generate_synthetic", "data.generate_synthetic", None, None),
    ("nesyhar.data", "write_dataset", "data.write_dataset", None, _write_attrs),
    ("nesyhar.data", "load_dataset", "data.load_dataset", None, None),
    ("nesyhar.data", "segment", "data.segment", None, _segment_attrs),
    ("nesyhar.data", "encode_windows", "data.encode_windows", None, None),
    ("nesyhar.data", "aggregate_context", "context.aggregate_context", None, None),
    ("nesyhar.evaluation", "run_experiment", "evaluation.run_experiment", None,
     _report_attrs),
    ("nesyhar.evaluation", "write_report", "evaluation.write_report", None, None),
    ("nesyhar.evaluation", "train", "strategies.train", None, _train_attrs),
    ("nesyhar.evaluation", "predict_many", "strategies.predict_many", _kind, None),
    ("nesyhar.strategies", "train", "strategies.train", None, _train_attrs),
    ("nesyhar.strategies", "predict_many", "strategies.predict_many", _kind, None),
    ("nesyhar.strategies", "predict", "strategies.predict", _kind, None),
    ("nesyhar.strategies", "consistency_masks", "strategies.consistency_masks", None,
     _rows_attrs),
    ("nesyhar.strategies", "refine", "strategies.refine", None, _refine_attrs),
    ("nesyhar.strategies", "forward", "nn.forward", None, _forward_attrs),
    ("nesyhar.strategies", "backward", "nn.backward", None, None),
    ("nesyhar.strategies", "adam_step", "nn.adam_step", None, None),
    ("nesyhar.strategies", "combined_loss_batch", "losses.combined_loss_batch", None, None),
)


class MissingCallSite(RuntimeError):
    """A name the tracer wraps no longer exists where its caller looks it up."""


def call_site(module_name: str, path: str) -> tuple:
    """The entry of CALL_SITES for one call site, to install a tracer on it alone."""
    return next(s for s in CALL_SITES if s[:2] == (module_name, path))


def _resolve(module_name: str, path: str):
    """Return (owner object, attribute name, current value) for a call site."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def check_call_sites(sites=CALL_SITES) -> None:
    missing = []
    for module_name, path, _, _, _ in sites:
        try:
            _, _, value = _resolve(module_name, path)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{path}")
            continue
        if not callable(value):
            missing.append(f"{module_name}.{path} (not callable)")
    if missing:
        raise MissingCallSite("traced call sites not found: " + ", ".join(missing))


class Tracer:
    """Records spans of the wrapped call sites while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.trace_id = 0
        self._stack: list[int] = []
        self._next_id = 1
        self._installed: list[tuple] = []

    def _wrap(self, name, fn, before, after):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            attrs = before(args, kwargs) if before else {}
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, parent, name, start, end, self.trace_id, attrs))
            if after:
                attrs.update(after(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, sites=CALL_SITES) -> None:
        check_call_sites(sites)
        for module_name, path, name, before, after in sites:
            owner, attr, fn = _resolve(module_name, path)
            setattr(owner, attr, self._wrap(name, fn, before, after))
            self._installed.append((owner, attr, fn))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, fn = self._installed.pop()
            setattr(owner, attr, fn)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for span_id, parent, name, start, end, trace_id, attrs in self.spans:
                f.write(json.dumps({
                    "run": self.run_id, "trace": trace_id, "id": span_id,
                    "parent": parent, "name": name, "start": start, "end": end,
                    **({"attrs": attrs} if attrs else {})}) + "\n")


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer counts and busy times of one pass's spans.

    ``strategies.predict_many`` is counted per model kind, and only for batch
    calls: the call inside ``strategies.predict`` belongs to the single-window
    path. ``strategies.train.self_s`` is train's time minus its child spans.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple]] = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)
    m: dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    def count(name, duration):
        add(f"{name}.calls", 1)
        add(f"{name}.s", duration)

    for span_id, parent, name, start, end, _, attrs in spans:
        duration = end - start
        kids = children.get(span_id, [])
        if name in ("strategies.predict", "strategies.predict_many"):
            if not (parent in by_id and by_id[parent][2] == "strategies.predict"):
                count(f"{name}.{attrs['kind']}", duration)
            continue
        count(name, duration)
        if name == "nn.forward" and attrs.get("mode") == "infer":
            count("nn.forward.infer", duration)
        elif name == "strategies.train":
            add("strategies.train.self_s", duration - sum(k[4] - k[3] for k in kids))
            add("strategies.train.steps", sum(1 for k in kids if k[2] == "nn.adam_step"))
            add("strategies.train.epochs", attrs.get("epochs", 0))
        elif name == "strategies.consistency_masks":
            add("strategies.consistency_masks.rows", attrs.get("rows", 0))
            add("mask_reasoner_calls",
                sum(1 for k in kids if k[2] == "knowledge.consistent_activities"))
        elif name == "strategies.refine":
            add("refine_fallbacks", int(attrs.get("fallback", False)))
        elif name == "data.segment":
            add("data.segment.windows", attrs.get("windows", 0))
        elif name == "data.write_dataset":
            add("data.write_dataset.mb", attrs.get("bytes", 0) / 2**20)
        elif name == "evaluation.run_experiment":
            add("evaluation.cells", attrs.get("cells", 0))
            add("evaluation.cells_failed", attrs.get("cells_failed", 0))

    rows = m.get("strategies.consistency_masks.rows", 0)
    m["strategies.mask_cache_hit_ratio"] = (
        1.0 - m.pop("mask_reasoner_calls", 0) / rows if rows else 0.0)
    refines = m.get("strategies.refine.calls", 0)
    m["strategies.refine.fallback_ratio"] = (
        m.pop("refine_fallbacks", 0) / refines if refines else 0.0)
    return m
