"""Span recorder for the traced benchmark run, and the wrappers that feed it.

The wrappers replace hdnorm's public functions at the module attributes
their callers look them up from (``hdnorm.harness.hdn_loss`` for the fit
loop, ``hdnorm.loss.hdn_loss`` for the CLI, and so on), so the program's
own files stay untouched. Each span records its name, start, end, parent
span and op id; spans stay in memory and are written out when the run
ends. This module imports only the standard library so that the CLI
launcher can load it before it times ``import hdnorm``.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

# Modelled bytes per pixel visit of the loss: pred value and normalized gt
# value forward; the backward pass adds the residual sign and the
# gradient contribution.
LOSS_BYTES_PER_PIXEL = {"loss.forward": 16, "loss.forward_grad": 32}


class Recorder:
    """Spans of one process, kept as dicts in start order."""

    def __init__(self):
        self.spans = []
        self.op = None  # op id stamped on every span that starts
        self.paired = {}  # loss key -> first (pred, gt, cfg) seen with a gradient
        self._stack = []
        self._patched = []

    def begin(self, name, **attrs) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, "op": self.op, "attrs": attrs})
        self._stack.append(idx)
        return idx

    def end(self, idx) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, **attrs):
        idx = self.begin(name, **attrs)
        try:
            yield
        finally:
            self.end(idx)

    def extend(self, spans, op) -> None:
        """Append spans recorded in another process under op id ``op``."""
        base = len(self.spans)
        for s in spans:
            parent = None if s["parent"] is None else s["parent"] + base
            self.spans.append(dict(s, parent=parent, op=op))

    def wrap(self, module, attr, classify) -> None:
        """Replace module.attr with a timed wrapper. ``classify(*args,
        **kwargs)`` returns (span name, attrs, after), where after, if not
        None, maps the result to more attrs once the span has ended. A
        name the module no longer has is a call site that is gone, so
        there is nothing to wrap."""
        fn = getattr(module, attr, None)
        if fn is None:
            return

        def wrapper(*args, **kwargs):
            name, attrs, after = classify(*args, **kwargs)
            idx = self.begin(name, **attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                self.spans[idx]["attrs"].update(after(result))
            return result

        wrapper.__wrapped__ = fn
        setattr(module, attr, wrapper)
        self._patched.append((module, attr, fn))

    def restore(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)


# ---------------------------------------------------------------------------
# The wrapped call sites

def _hierarchy_size(hierarchy):
    contexts = pixels = 0
    for part in hierarchy.levels:
        contexts += len(part.contexts)
        pixels += sum(len(ctx) for ctx in part.contexts)
    return contexts, pixels


def _loss_name(with_gradient) -> str:
    return "loss.forward_grad" if with_gradient else "loss.forward"


def _classify_hdn(pred, gt, cfg, with_gradient=False, **_):
    def after(_result):
        contexts, pixels = _hierarchy_size(cfg.hierarchy)
        return {"visits": contexts, "pixels": pixels}
    key = ",".join(part.level_tag for part in cfg.hierarchy.levels)
    return _loss_name(with_gradient), {"key": key}, after


def _classify_ssi(pred, gt, *_, **__):
    return "loss.forward", {"key": "ssi"}, lambda r: {"visits": 1, "pixels": r.used_pixels}


def _classify_l1(pred, gt, cfg, lam, with_gradient=False, **_):
    # the nested hdn_loss span carries the visit counts
    return _loss_name(with_gradient), {"key": "l1+hdn"}, None


def _classify_build(gt, spec, *_, **__):
    return ("contexts.build_hierarchy", {"kind": spec.kind},
            lambda h: {"built": _hierarchy_size(h)[0]})


def _classify_fit(gt, cfg, *_, **__):
    return "harness.fit", {"label": cfg.label, "steps": cfg.steps}, None


def _fixed(name):
    return lambda *args, **kwargs: (name, {}, None)


def _classify_read(name):
    return lambda path, *_, **__: (name, {"bytes": os.path.getsize(path)}, None)


def install(rec: Recorder) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from hdnorm import cli, contexts, depth_core, harness, loss, metrics

    def classify_hdn(pred, gt, cfg, with_gradient=False, **kwargs):
        name, attrs, after = _classify_hdn(pred, gt, cfg, with_gradient, **kwargs)
        if with_gradient:
            rec.paired.setdefault(attrs["key"], (pred, gt, cfg))
        return name, attrs, after

    rec.wrap(harness, "fit_depth", _classify_fit)
    rec.wrap(harness, "hdn_loss", classify_hdn)
    rec.wrap(harness, "build_hierarchy", _classify_build)
    rec.wrap(harness, "align_scale_shift", _fixed("metrics.align"))
    rec.wrap(loss, "hdn_loss", classify_hdn)
    rec.wrap(loss, "ssi_loss", _classify_ssi)
    rec.wrap(loss, "l1_plus_hdn", _classify_l1)
    rec.wrap(contexts, "build_hierarchy", _classify_build)
    rec.wrap(cli, "build_hierarchy", _classify_build)
    rec.wrap(metrics, "evaluate", _fixed("metrics.evaluate"))
    rec.wrap(metrics, "align_scale_shift", _fixed("metrics.align"))
    rec.wrap(depth_core, "read_pfm", _classify_read("depth_core.read_pfm"))
    rec.wrap(depth_core, "read_mask", _classify_read("depth_core.read_mask"))
    rec.wrap(depth_core, "write_pfm", _fixed("depth_core.write_pfm"))


# ---------------------------------------------------------------------------
# Deriving per-layer metrics from spans

def _outermost(spans):
    """Spans with no ancestor of the same name: their durations add up to
    a layer's busy time without counting nested calls twice."""
    out = []
    for s in spans:
        p = s["parent"]
        while p is not None and spans[p]["name"] != s["name"]:
            p = spans[p]["parent"]
        if p is None:
            out.append(s)
    return out


def _dur(s) -> float:
    return s["end"] - s["start"]


def layer_metrics(spans, ops: int, backward_share: dict) -> dict:
    """Per-op layer metrics over ``ops`` traced ops. ``backward_share``
    maps a loss key to the share of a forward+gradient call that the
    paired forward-only call did not need."""
    top = _outermost(spans)

    def of(name, **match):
        return [s for s in top if s["name"] == name
                and all(s["attrs"].get(k) == v for k, v in match.items())]

    def busy(name, **match):
        return sum(_dur(s) for s in of(name, **match)) / ops

    def calls(name):
        return len(of(name)) / ops

    loss_spans = [s for s in spans if "visits" in s["attrs"]]
    fits = _fits(spans)
    evals = sum(f["evals"] for f in fits.values())
    steps = sum(spans[i]["attrs"]["steps"] for i in fits)
    grad = of("loss.forward_grad")

    m = {
        "loss.forward_grad.calls": calls("loss.forward_grad"),
        "loss.forward_grad.busy_s": busy("loss.forward_grad"),
        "loss.backward.busy_s": sum(
            _dur(s) * backward_share.get(s["attrs"]["key"], 0.0) for s in grad) / ops,
        "loss.context_visits": sum(s["attrs"]["visits"] for s in loss_spans) / ops,
        "loss.pixel_visits": sum(s["attrs"]["pixels"] for s in loss_spans) / ops,
        "loss.bytes_computed": sum(
            s["attrs"]["pixels"] * LOSS_BYTES_PER_PIXEL[s["name"]] for s in loss_spans) / ops,
        "loss.forward.calls": calls("loss.forward"),
        "loss.forward.busy_s": busy("loss.forward"),
        "contexts.build_hierarchy.calls": calls("contexts.build_hierarchy"),
        "contexts.build_hierarchy.busy_s": busy("contexts.build_hierarchy"),
        "contexts.build_hierarchy.contexts": sum(
            s["attrs"]["built"] for s in of("contexts.build_hierarchy")) / ops,
        "harness.fit.calls": calls("harness.fit"),
        "harness.fit.busy_s": busy("harness.fit"),
        "harness.fit.self_s": sum(_dur(spans[i]) - f["child_s"] for i, f in fits.items()) / ops,
        "harness.fit.loss_evals": evals / len(fits) if fits else 0.0,
        "harness.fit.evals_per_step": evals / steps if steps else 0.0,
        "harness.fit.useful_ratio": steps / evals if evals else 0.0,
        "metrics.evaluate.calls": calls("metrics.evaluate"),
        "metrics.evaluate.busy_s": busy("metrics.evaluate"),
        "metrics.align.busy_s": busy("metrics.align"),
        "depth_core.read_pfm.calls": calls("depth_core.read_pfm"),
        "depth_core.read_pfm.busy_s": busy("depth_core.read_pfm"),
        "depth_core.read_pfm.bytes": sum(
            s["attrs"]["bytes"] for s in of("depth_core.read_pfm")) / ops,
        "depth_core.read_mask.busy_s": busy("depth_core.read_mask"),
        "depth_core.write_pfm.busy_s": busy("depth_core.write_pfm"),
        "cli.import_s": busy("cli.import"),
        "cli.main.busy_s": busy("cli.main"),
        "cli.spawn_s": busy("cli.process") - busy("cli.import") - busy("cli.main"),
    }
    for kind in ("spatial", "depth_percentile", "depth_range"):
        m[f"contexts.build_hierarchy.{kind}.busy_s"] = busy(
            "contexts.build_hierarchy", kind=kind)
    return m


def _fits(spans) -> dict:
    """Per fit span index, its loss evaluations and its children's time."""
    fits = {i: {"evals": 0, "child_s": 0.0}
            for i, s in enumerate(spans) if s["name"] == "harness.fit"}
    for s in spans:
        fit = fits.get(s["parent"])
        if fit is not None:
            fit["child_s"] += _dur(s)
            fit["evals"] += s["name"].startswith("loss.")
    return fits


def fit_loss_evals(spans) -> list:
    """Distinct (label, loss evaluations) of the traced fits, in order."""
    return list(dict.fromkeys((spans[i]["attrs"]["label"], f["evals"])
                              for i, f in _fits(spans).items()))
