"""Span recorder for the traced run, and the per-layer metrics it yields.

``installed(recorder)`` wraps the public functions of the oockit layers, both
on their own module and on every ``from .x import y`` binding of them in
other oockit modules, so calls between layers are seen.  Private helpers are
not wrapped, nor are the per-codeword primitives of ``core`` and ``verify``
listed in ``UNWRAPPED``: a span per cell operation would cost more than the
operation.  The originals are put back when the context ends.

A span records its name, start, end, parent span and operation id.  Spans
stay in memory; the run writes them out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]

LAYERS = ("cli", "core", "document", "construct", "verify", "search", "bounds")
UNWRAPPED = frozenset({
    "core.make_codeword", "core.translate", "core.codeword_rows",
    "core.difference_profile", "core.pure_difference_support",
    "core.halved_difference_set", "core.is_equi_difference_codeword",
    "core.classify_codeword", "core.parity_class", "verify.matrix_correlation",
})


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 at the top
    op: int  # operation id
    info: object = None  # what an observer took from the call's result


class Recorder:
    """Collects spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, layer: str, name: str, fn, observe=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            parent = rec._stack[-1] if rec._stack else -1
            span = Span(f"{layer}.{name}", layer, perf_counter(), 0.0, parent, rec.op)
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                rec._stack.pop()
            if observe is not None:
                span.info = observe(args, kwargs, result)
            return result

        return traced


# ---------------------------------------------------------------------------
# observers: counts taken from a call's arguments or result
# ---------------------------------------------------------------------------


def _observe_search(fn):
    from oockit.search import SearchConfig

    sig = inspect.signature(fn)

    def observe(args, kwargs, outcome):
        config = sig.bind(*args, **kwargs).arguments.get("config") or SearchConfig()
        stopped = not outcome.proven_optimal and (
            outcome.elapsed >= config.time_budget or outcome.nodes >= config.node_budget
        )
        return (outcome.nodes, outcome.proven_optimal, stopped)

    return observe


def _observer(layer: str, name: str, fn):
    if layer == "search":
        return _observe_search(fn)
    if layer == "construct":
        return lambda args, kwargs, res: res.code.size()
    if name in ("render_json", "render_matrix"):
        return lambda args, kwargs, text: len(text)
    if name == "parse_json":
        return lambda args, kwargs, doc: len(args[0])
    return None


@contextmanager
def installed(recorder: Recorder):
    """Wrap every public layer function for the duration of the block."""
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"oockit.{layer}")
        for name, fn in vars(mod).items():
            if (
                name.startswith("_")
                or not inspect.isfunction(fn)
                or fn.__module__ != mod.__name__
                or f"{layer}.{name}" in UNWRAPPED
            ):
                continue
            wrappers[fn] = recorder.wrap(layer, name, fn, _observer(layer, name, fn))
    replaced = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "oockit" and not mod_name.startswith("oockit."):
            continue
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, attr, wrappers[value])
                replaced.append((mod, attr, value))
    try:
        yield
    finally:
        for mod, attr, value in replaced:
            setattr(mod, attr, value)


# ---------------------------------------------------------------------------
# self time and per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


# What each per-layer metric of BENCHMARK.json should move, on which workload;
# its unit and direction are read from BENCHMARK.json.
MOVES = {
    "cli.self_ms": ("op_p50_ms", "emit, build-verify"),
    "core.normalize_s": ("wall_s, op_p90_ms", "emit (no change on search, build-verify)"),
    "core.normalize_calls": ("wall_s, op_p90_ms", "emit"),
    "document.to_document_s": ("wall_s, op_p90_ms", "emit"),
    "document.render_s": ("wall_s, op_p90_ms", "emit"),
    "document.parse_s": ("wall_s, op_p90_ms", "build-verify"),
    "document.bytes_out": ("wall_s", "emit"),
    "document.bytes_in": ("wall_s", "build-verify"),
    "construct.self_s": ("wall_s", "build-verify; emit once normalize is fixed"),
    "construct.public_calls": ("wall_s", "build-verify"),
    "construct.stage_calls": ("wall_s", "build-verify"),
    "construct.codewords": ("wall_s", "build-verify"),
    "verify.verify_code_s": ("wall_s, op_p90_ms", "build-verify"),
    "verify.verify_code_calls": ("wall_s, op_p90_ms", "build-verify"),
    "verify.structural_facts_s": ("wall_s, op_p90_ms", "build-verify"),
    "verify.structural_facts_calls": ("wall_s, op_p90_ms", "build-verify"),
    "verify.census_s": ("wall_s", "build-verify"),
    "verify.calls_per_result": ("wall_s, op_p90_ms", "build-verify"),
    "search.self_s": ("wall_s, op_p90_ms", "search"),
    "search.calls": ("wall_s", "search"),
    "search.nodes": ("wall_s, op_p90_ms", "search"),
    "search.nodes_per_s": ("wall_s, op_p90_ms", "search"),
    "search.proven_ratio": ("wall_s", "search"),
    "search.budget_stops": ("wall_s", "search"),
    "search.known_defects": ("share of frontier commands that fail", "search"),
    "bounds.self_s": ("op_p50_ms", "build-verify (catalog)"),
    "bounds.calls": ("op_p50_ms", "build-verify (catalog)"),
    "trace.overhead_ratio": ("none", "all"),
}
UNITS = {
    m["name"]: m["unit"]
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
}


def layer_metrics(
    spans: list[Span], cli_ops: int, known_defects: int, overhead_ratio: float
) -> dict[str, float]:
    """Per-layer metrics of a traced pass, from its spans.

    Times are self times.  ``construct.public_calls`` counts construct spans
    with no construct span above them; the others are stage calls.
    ``search.nodes`` leaves out searches stopped by their budget, so that it
    repeats exactly for a seed; ``search.nodes_per_s`` counts them.
    """
    own = self_times(spans)
    in_construct = [False] * len(spans)
    total: dict[str, float] = {}
    counts: dict[str, int] = {}
    public = stage = codewords = 0
    nodes = done_nodes = proven = stops = 0
    search_inclusive = 0.0
    bytes_out = bytes_in = 0
    for i, s in enumerate(spans):
        total[s.layer] = total.get(s.layer, 0.0) + own[i]
        total[s.name] = total.get(s.name, 0.0) + own[i]
        counts[s.name] = counts.get(s.name, 0) + 1
        counts[s.layer] = counts.get(s.layer, 0) + 1
        if s.parent >= 0:
            in_construct[i] = in_construct[s.parent] or spans[s.parent].layer == "construct"
        if s.layer == "construct":
            if in_construct[i]:
                stage += 1
            else:
                public += 1
                codewords += s.info or 0
        elif s.layer == "search" and s.info is not None:
            nodes += s.info[0]
            done_nodes += 0 if s.info[2] else s.info[0]
            proven += s.info[1]
            stops += s.info[2]
            search_inclusive += s.end - s.start
        elif s.name in ("document.render_json", "document.render_matrix"):
            bytes_out += s.info or 0
        elif s.name == "document.parse_json":
            bytes_in += s.info or 0

    def t(key):
        return total.get(key, 0.0)

    def c(key):
        return counts.get(key, 0)

    verify_calls = counts.get("verify.verify_code", 0) + counts.get("verify.structural_facts", 0)
    return {
        "cli.self_ms": 1000 * total.get("cli", 0.0) / max(cli_ops, 1),
        "core.normalize_s": t("core.normalize"),
        "core.normalize_calls": c("core.normalize"),
        "document.to_document_s": t("document.code_to_document"),
        "document.render_s": t("document.render_json") + t("document.render_matrix"),
        "document.parse_s": t("document.parse_json") + t("document.document_to_code"),
        "document.bytes_out": bytes_out,
        "document.bytes_in": bytes_in,
        "construct.self_s": t("construct"),
        "construct.public_calls": public,
        "construct.stage_calls": stage,
        "construct.codewords": codewords,
        "verify.verify_code_s": t("verify.verify_code"),
        "verify.verify_code_calls": c("verify.verify_code"),
        "verify.structural_facts_s": t("verify.structural_facts"),
        "verify.structural_facts_calls": c("verify.structural_facts"),
        "verify.census_s": t("verify.composition_census") + t("verify.parity_census"),
        "verify.calls_per_result": verify_calls / public if public else 0.0,
        "search.self_s": t("search"),
        "search.calls": c("search"),
        "search.nodes": done_nodes,
        "search.nodes_per_s": nodes / search_inclusive if search_inclusive else 0.0,
        "search.proven_ratio": proven / counts["search"] if counts.get("search") else 0.0,
        "search.budget_stops": stops,
        "search.known_defects": known_defects,
        "bounds.self_s": t("bounds"),
        "bounds.calls": c("bounds"),
        "trace.overhead_ratio": overhead_ratio,
    }


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self seconds per layer: which layer did the work."""
    out = dict.fromkeys(LAYERS, 0.0)
    for s, own in zip(spans, self_times(spans)):
        out[s.layer] += own
    return out
