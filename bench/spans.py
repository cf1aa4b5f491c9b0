"""In-memory span tracer for the faceseg benchmark.

The tracer wraps the public functions of every ``faceseg`` module (and the
public methods of its plain classes) at each place they are bound: the
defining module and every other ``faceseg`` module that imported the name.
The program itself is left unchanged; ``uninstall`` puts the originals back.

A span is (name, start, end, parent, tag).  Spans stay in memory while the
run lasts and are written out once at the end.  Per-layer metrics are
derived from them: call counts, self time ("busy" time: a span's duration
minus the time its child spans cover) and a few counts read off arguments
and results at the same boundary (rows per forward, proposals kept, bytes
written).
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# conv2d shapes of the two networks, keyed by (in_channels, in_side, out_channels)
CONV_SHAPES = {
    (3, 64, 8): "druid_t1",
    (8, 32, 16): "druid_t2",
    (16, 16, 32): "druid_t3",
    (32, 8, 480): "druid_branch",
    (1, 32, 8): "dsf_c1",
    (8, 16, 16): "dsf_c2",
}

# plain classes whose public methods are layer boundaries
TRACED_METHODS = {
    "faceseg.nn": {"Adam": ("step",)},
    "faceseg.detectors": {"MultiColumnNet": ("forward", "backward", "patches_for")},
}


def conv_tag(x_shape, w_shape) -> str:
    _, c, h, _ = x_shape
    return CONV_SHAPES.get((c, h, w_shape[0]), f"c{c}_s{h}_f{w_shape[0]}")


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus its direct children's.

    ``spans`` holds (name_id, start, end, parent_index, tag) tuples; parent
    index -1 marks a root.  Children of one span never overlap (one thread),
    so the covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


class Tracer:
    """Span recorder plus the patch table that routes calls through it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        """Record a span around a block of benchmark code."""
        nid = self._name_id(name)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (nid, start, end, parent, tag)

    def wrap(self, name: str, fn, observe=None):
        """A stand-in for ``fn`` that records one span per call.

        ``observe(tracer, args, kwargs, result)`` may add counts and return a
        tag for the span; it runs after the span has ended.
        """
        nid = self._name_id(name)
        spans, stack = self.spans, self._stack

        # the bookkeeping of ``span`` written out inline: a context manager
        # per call would add a generator to every traced call's cost
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (nid, start, end, parent, None)
            if observe is not None:
                tag = observe(self, args, kwargs, result)
                if tag is not None:
                    spans[idx] = (nid, start, end, parent, tag)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # --- patching ---------------------------------------------------------

    def install(self) -> int:
        """Route every public faceseg function and traced method through a span.

        Returns the number of bindings replaced.
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {n: m for n, m in sys.modules.items()
                   if (n == "faceseg" or n.startswith("faceseg.")) and m is not None}
        for mod_name, mod in sorted(modules.items()):
            short = mod_name.split(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod_name):
                    continue
                wrapper = self.wrap(f"{short}.{attr}", obj, OBSERVERS.get(f"{short}.{attr}"))
                for other in modules.values():
                    for alias, val in list(vars(other).items()):
                        if val is obj:
                            self._patched.append((other, alias, obj))
                            setattr(other, alias, wrapper)
            for cls_name, methods in TRACED_METHODS.get(mod_name, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    full = f"{short}.{cls_name}.{meth}"
                    self._patched.append((cls, meth, orig))
                    setattr(cls, meth, self.wrap(full, orig, OBSERVERS.get(full)))
        return len(self._patched)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # --- output -----------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds; per (name, tag) too."""
        out: dict[str, dict] = {}
        busy = self_times(self.spans)
        for (nid, start, end, _, tag), self_s in zip(self.spans, busy):
            for key in (self.names[nid],) + ((f"{self.names[nid]}.{tag}",) if tag else ()):
                s = out.setdefault(key, {"calls": 0, "total_s": 0.0, "busy_s": 0.0})
                s["calls"] += 1
                s["total_s"] += end - start
                s["busy_s"] += self_s
        return out

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent", "tag"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh,
                      separators=(",", ":"))


# --- counts read at span boundaries -------------------------------------------

def _conv_forward(tr, args, kwargs, result):
    x, w = args[0], args[1]
    n, c, h, wd = x.shape
    tag = conv_tag(x.shape, w.shape)
    k = w.shape[2]
    rows, inner = n * h * wd, c * k * k
    tr.counts[f"nn.conv2d.{tag}.flop"] += 2.0 * rows * inner * w.shape[0]
    tr.counts[f"nn.conv2d.{tag}.cols_bytes"] += 8.0 * rows * inner  # float64 patch matrix
    return tag


def _conv_backward(tr, args, kwargs, result):
    _, x_shape, w = args[1]
    return conv_tag(x_shape, w.shape)


def _count_result(key):
    def observe(tr, args, kwargs, result):
        tr.counts[key] += len(result)
    return observe


def _mcn_forward(tr, args, kwargs, result):
    tr.counts["detectors.MultiColumnNet.forward.rows"] += args[1].shape[0]


def _write_corpus(tr, args, kwargs, result):
    dirpath, images = args[0], args[1]
    paths = [os.path.join(dirpath, "images", f"{ai.image_id}.pgm") for ai in images]
    paths += [os.path.join(dirpath, "annotations.jsonl"), os.path.join(dirpath, "spec.json")]
    tr.counts["corpus.write_corpus.bytes"] += sum(os.path.getsize(p) for p in paths
                                                  if os.path.exists(p))


OBSERVERS = {
    "nn.conv2d": _conv_forward,
    "nn.conv2d_back": _conv_backward,
    "detectors.MultiColumnNet.forward": _mcn_forward,
    "proposals.cluster_detections": _count_result("proposals.clusters"),
    "proposals.enumerate_subsets": _count_result("proposals.enumerated"),
    "proposals.generate_proposals": _count_result("proposals.kept"),
    "corpus.simulate_segment_detectors": _count_result("corpus.detections"),
    "corpus.write_corpus": _write_corpus,
}


# --- per-layer metrics ----------------------------------------------------------

CONV_TAGS = ("druid_t1", "druid_t2", "druid_t3", "druid_branch", "dsf_c1", "dsf_c2")

BUSY = (
    "nn.conv2d", "nn.conv2d_back", "nn.conv1x1", "nn.conv1x1_back", "nn.Adam.step",
    "druid_loss.total_loss", "druid_loss.loss_grad",
    "druid_model.forward", "druid_model.backward", "druid_model.infer",
    "imageops.bilinear_resize",
    "detectors.MultiColumnNet.forward", "detectors.MultiColumnNet.backward",
    "detectors.MultiColumnNet.patches_for", "imageops.sample_rect",
    "detectors.train_linear", "detectors.fsfd_score",
    "priors.prior_features", "priors.fit_priors",
    "proposals.generate_proposals",
    "corpus.render_synthetic", "augment.photometric", "augment.apply_crop",
    "corpus.simulate_segment_detectors", "corpus.write_corpus", "corpus.read_corpus",
    "imageops.write_pgm", "imageops.read_pgm",
    "pipeline.proposals_for_corpus", "pipeline.evaluate_proposal_detector",
    "pipeline.evaluate_druid",
    "evalkit.roc_curve", "evalkit.pr_curve", "evalkit.coverage_upper_bound",
)

CALLS = (
    "druid_loss.total_loss", "druid_loss.loss_grad",
    "druid_model.forward", "druid_model.infer",
    "detectors.MultiColumnNet.forward", "detectors.MultiColumnNet.patches_for",
    "imageops.sample_rect", "detectors.fsfd_score",
    "priors.prior_features", "priors.rerank",
    "proposals.generate_proposals",
    "pipeline.label_proposal", "evalkit.iou",
)

CLI_COMMANDS = ("gen-data", "propose", "fit-priors")


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for tag in CONV_TAGS:
        units[f"nn.conv2d.{tag}.ms_per_call"] = "ms"
        units[f"nn.conv2d_back.{tag}.ms_per_call"] = "ms"
        units[f"nn.conv2d.{tag}.mflop"] = "MFLOP-computed"
        units[f"nn.conv2d.{tag}.cols_mb"] = "MB-computed"
    for name in BUSY:
        units[f"{name}.busy_s"] = "s"
    for name in CALLS:
        units[f"{name}.calls"] = "count"
    units["detectors.MultiColumnNet.forward.rows_per_call"] = "rows/call"
    units["proposals.clusters_per_image"] = "clusters/image"
    units["proposals.enumerated"] = "count"
    units["proposals.kept"] = "count"
    units["proposals.kept_per_enumerated"] = "ratio"
    units["proposals.per_image"] = "props/image"
    units["corpus.detections_per_image"] = "dets/image"
    units["corpus.write_corpus.mb"] = "MB"
    for cmd in CLI_COMMANDS:
        units[f"cli.{cmd}.wall_s"] = "s"
    units["cli.propose.jsonl_mb"] = "MB"
    units["trace.overhead_pct"] = "%"
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, counts: dict, rounds: int,
                  overhead_pct: float) -> dict[str, float]:
    """Per-layer values per traced round; 0 for layers the round never reached."""
    def stat(name, field):
        return summary.get(name, {}).get(field, 0) / rounds

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    out: dict[str, float] = {}
    for tag in CONV_TAGS:
        for kernel in ("nn.conv2d", "nn.conv2d_back"):
            key = f"{kernel}.{tag}"
            out[f"{key}.ms_per_call"] = 1e3 * _ratio(summary.get(key, {}).get("total_s", 0.0),
                                                      calls(key))
        n = calls(f"nn.conv2d.{tag}")
        out[f"nn.conv2d.{tag}.mflop"] = _ratio(counts.get(f"nn.conv2d.{tag}.flop", 0.0), n) / 1e6
        out[f"nn.conv2d.{tag}.cols_mb"] = _ratio(
            counts.get(f"nn.conv2d.{tag}.cols_bytes", 0.0), n) / 1e6
    for name in BUSY:
        out[f"{name}.busy_s"] = stat(name, "busy_s")
    for name in CALLS:
        out[f"{name}.calls"] = stat(name, "calls")
    out["detectors.MultiColumnNet.forward.rows_per_call"] = _ratio(
        counts.get("detectors.MultiColumnNet.forward.rows", 0.0),
        calls("detectors.MultiColumnNet.forward"))
    images = calls("proposals.generate_proposals")
    enumerated = counts.get("proposals.enumerated", 0.0)
    kept = counts.get("proposals.kept", 0.0)
    out["proposals.clusters_per_image"] = _ratio(counts.get("proposals.clusters", 0.0), images)
    out["proposals.enumerated"] = enumerated / rounds
    out["proposals.kept"] = kept / rounds
    out["proposals.kept_per_enumerated"] = _ratio(kept, enumerated)
    out["proposals.per_image"] = _ratio(kept, images)
    out["corpus.detections_per_image"] = _ratio(
        counts.get("corpus.detections", 0.0), calls("corpus.simulate_segment_detectors"))
    out["corpus.write_corpus.mb"] = counts.get("corpus.write_corpus.bytes", 0.0) / rounds / 1e6
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.wall_s"] = stat(f"cli.{cmd}", "total_s")
    out["cli.propose.jsonl_mb"] = counts.get("cli.propose.jsonl_bytes", 0.0) / rounds / 1e6
    out["trace.overhead_pct"] = overhead_pct
    return out
