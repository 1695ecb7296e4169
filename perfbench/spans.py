"""In-memory span tracer that wraps the package's module-level calls from
outside, so the per-layer split needs no change to the package itself.

A span is recorded around each wrapped call: its layer, the wrapped name,
start and end times and the span that was open when it began. A layer's
self time is the time its spans cover minus the time their child spans
cover. A name missing at some commit (renamed or deleted by a refactor) is
reported as absent, so its time falls into the self time of the caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from time import perf_counter

PACKAGE = "aircomp_ris"
LAYERS = ("cli", "config", "experiments", "model", "optimizer", "worst_case", "svgplot")

# (module, attribute, layer, annotation). Each call crosses into a layer
# through the name bound in the calling module, so that binding is wrapped.
# "scheme" marks a design span; "iters" records alternating iterations.
WRAPPED = (
    ("cli", "main", "cli", None),
    ("cli", "load_config", "config", "bytes"),
    ("config", "parse_config", "config", None),
    ("cli", "run_sweep", "experiments", None),
    ("cli", "synthesize_instance", "model", None),
    ("experiments", "synthesize_instance", "model", None),
    ("experiments", "design_for_scheme", "optimizer", "scheme"),
    ("cli", "multi_start", "optimizer", "solve"),
    ("cli", "run_algorithm1", "optimizer", "solve+iters"),
    ("experiments", "run_algorithm1", "optimizer", "iters"),
    ("optimizer", "run_algorithm1", "optimizer", "iters"),
    ("experiments", "worst_case_objective", "worst_case", "eval"),
    ("experiments", "mse_at_error", "worst_case", "eval"),
    ("cli", "certificate", "worst_case", "cert"),
    ("cli", "records_to_csv", "cli", "csv"),
    ("cli", "line_plot_svg", "svgplot", None),
    ("cli", "records_to_series", "svgplot", None),
)

# span record fields
SID, PARENT, LAYER, NAME, T0, T1, ATTRS = range(7)


def _iters(result):
    trace = result[1] if isinstance(result, tuple) and len(result) > 1 else None
    return getattr(trace, "n_iters", None)


def _scheme(args, kwargs):
    scheme = kwargs.get("scheme", args[1] if len(args) > 1 else None)
    return scheme if isinstance(scheme, str) else "unknown"


def _annotate(kind, args, kwargs, result):
    if kind == "scheme":
        return {"scheme": _scheme(args, kwargs)}
    if kind == "solve":
        return {"scheme": "solve"}
    if kind == "solve+iters":
        return {"scheme": "solve", "iters": _iters(result)}
    if kind == "iters":
        return {"iters": _iters(result)}
    if kind == "bytes":
        return {"bytes": _file_size(args[0] if args else kwargs.get("path"))}
    return {"tag": kind}


def _file_size(path):
    try:
        return os.stat(path).st_size
    except (OSError, TypeError):
        return 0


class Tracer:
    """Wraps the names in WRAPPED while active; spans stay in memory."""

    def __init__(self):
        self.spans = []
        self.present = []
        self.absent = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        for mod_name, attr, layer, kind in WRAPPED:
            qualname = f"{mod_name}.{attr}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.absent.append(qualname)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(qualname)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, layer, qualname, kind))
            self.present.append(qualname)
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def _wrap(self, fn, layer, name, kind):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, layer, name, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[SID])
            rec[T0] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[T1] = perf_counter()
                stack.pop()
            if kind is not None:
                rec[ATTRS] = _annotate(kind, args, kwargs, result)
            return result

        return wrapper

    def write(self, path, header):
        """Write the header and then one JSON span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def summarize(spans, commands, ops, scale=1.0):
    """Per-layer metrics from the spans of `commands` CLI commands that did
    `ops` operations in total (trial-designs, or solves). Span times are
    multiplied by `scale`."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += (rec[T1] - rec[T0]) * scale

    self_time = dict.fromkeys(LAYERS, 0.0)
    root_time = 0.0
    by_tag = {}
    design = {}  # scheme -> [calls, seconds, iterations]
    synth = [0, 0.0]
    for rec in spans:
        dur = (rec[T1] - rec[T0]) * scale
        self_time[rec[LAYER]] += dur - child_time[rec[SID]]
        if rec[PARENT] < 0:
            root_time += dur
        attrs = rec[ATTRS] or {}
        if "tag" in attrs:
            entry = by_tag.setdefault(attrs["tag"], [0, 0.0])
            entry[0] += 1
            entry[1] += dur
        if "bytes" in attrs:
            entry = by_tag.setdefault("in_bytes", [0, 0.0])
            entry[0] += 1
            entry[1] += attrs["bytes"]
        if "scheme" in attrs:
            entry = design.setdefault(attrs["scheme"], [0, 0.0, 0])
            entry[0] += 1
            entry[1] += dur
        if rec[LAYER] == "model":
            synth[0] += 1
            synth[1] += dur
        if attrs.get("iters") is not None:
            owner = _design_owner(spans, rec)
            if owner is not None:
                design.setdefault(owner, [0, 0.0, 0])[2] += attrs["iters"]

    def tag_total(tag):
        return by_tag.get(tag, [0, 0.0])[1]

    def tag_mean(tag):
        calls, total = by_tag.get(tag, [0, 0.0])
        return total / calls if calls else 0.0

    metrics = {}
    for scheme in ("multistart", "nonrobust", "robust_exact", "solve"):
        calls, seconds, iters = design.get(scheme, [0, 0.0, 0])
        metrics[f"optimizer.design_us.{scheme}"] = (1e6 * seconds / calls if calls else 0.0, "us")
        metrics[f"optimizer.iters_mean.{scheme}"] = (iters / calls if calls else 0.0, "count")
    metrics["model.synth_us"] = (1e6 * synth[1] / synth[0] if synth[0] else 0.0, "us")
    metrics["model.synth_calls"] = (synth[0] / ops, "count/op")
    metrics["worst_case.eval_us"] = (1e6 * tag_mean("eval"), "us")
    metrics["worst_case.cert_ms"] = (1e3 * tag_mean("cert"), "ms")
    metrics["experiments.self_us"] = (1e6 * self_time["experiments"] / ops, "us")
    metrics["config.load_ms"] = (1e3 * self_time["config"] / commands, "ms")
    metrics["config.in_bytes"] = (tag_total("in_bytes") / commands, "B")
    metrics["cli.self_ms"] = (1e3 * self_time["cli"] / commands, "ms")
    metrics["cli.csv_ms"] = (1e3 * tag_total("csv") / commands, "ms")
    metrics["svgplot.svg_ms"] = (1e3 * self_time["svgplot"] / commands, "ms")
    for layer in LAYERS:
        metrics[f"share.{layer}"] = (self_time[layer] / root_time if root_time else 0.0, "frac")
    return metrics


def _design_owner(spans, rec):
    """Scheme of the innermost design span enclosing rec (rec included)."""
    while rec is not None:
        attrs = rec[ATTRS] or {}
        if "scheme" in attrs:
            return attrs["scheme"]
        rec = spans[rec[PARENT]] if rec[PARENT] >= 0 else None
    return None
