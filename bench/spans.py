"""Spans recorded from outside the library, and the per-layer metrics built from them.

A :class:`Tracer` replaces library functions with timing wrappers at the
module attribute where their caller looks them up (``prato.pipeline``
calls ``encode_tokens`` through its own namespace, so the wrapper goes
there). Each span records its name, start, end, parent span and the
benchmark call it belongs to; spans stay in memory until ``write``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

from prato import encoder, pipeline, synth

# (module, attribute, span name). The same function can be looked up from two
# modules; both lookups get a wrapper with one span name.
TARGETS = [
    (pipeline, "run_batch", "pipeline.run_batch"),
    (pipeline, "run_pipeline", "pipeline.run_pipeline"),
    (synth, "run_pipeline", "pipeline.run_pipeline"),
    (pipeline, "build_pipeline_weights", "pipeline.build_pipeline_weights"),
    (pipeline, "tokenize_image", "tokens.tokenize_image"),
    (pipeline, "encode_tokens", "encoder.encode_tokens"),
    (encoder, "softmax_rows", "encoder.softmax_rows"),
    (encoder, "layer_norm", "encoder.layer_norm"),
    (encoder, "gelu", "encoder.gelu"),
    (pipeline, "map_box_to_grid", "roi.map_box_to_grid"),
    (pipeline, "roi_align", "roi.roi_align"),
    (pipeline, "compute_similarity", "prune.compute_similarity"),
    (pipeline, "softmax_rows", "prune.softmax_rows"),
    (pipeline, "entropy_rows", "prune.entropy_rows"),
    (pipeline, "inverse_entropy_weights", "prune.inverse_entropy_weights"),
    (pipeline, "relevance_scores", "prune.relevance_scores"),
    (pipeline, "build_mask", "prune.build_mask"),
    (synth, "generate_scene", "synth.generate_scene"),
    (synth, "run_sweep", "synth.run_sweep"),
]
SPAN_NAMES = frozenset(name for _, _, name in TARGETS)
SCORE_SPANS = ("prune.compute_similarity", "prune.softmax_rows", "prune.entropy_rows",
               "prune.inverse_entropy_weights", "prune.relevance_scores")

# What a span counts besides its time: (rows, columns) entering a block, and
# (candidates, kept) of a mask.
_COUNTS = {
    "encoder.encode_tokens": lambda args, out: args[0].shape,
    "prune.build_mask": lambda args, out: (out[0].size, int(out[0].sum())),
}

# name, unit, better; every entry is a value per traced call
PER_LAYER = [
    ("encoder.softmax_s", "s", "lower"),
    ("encoder.block_s", "s", "lower"),
    ("encoder.gelu_s", "s", "lower"),
    ("encoder.layer_norm_s", "s", "lower"),
    ("encoder.calls", "count", "lower"),
    ("encoder.tokens_in", "count", "lower"),
    ("encoder.modeled_gflop", "GFLOP", "lower"),
    ("encoder.achieved_gflop_per_s", "GFLOP/s", "higher"),
    ("pipeline.weights_s", "s", "lower"),
    ("pipeline.weights_builds", "count", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("synth.scene_s", "s", "lower"),
    ("synth.scenes", "count", "lower"),
    ("synth.self_s", "s", "lower"),
    ("roi.pool_s", "s", "lower"),
    ("roi.calls", "count", "lower"),
    ("prune.score_s", "s", "lower"),
    ("prune.mask_s", "s", "lower"),
    ("prune.calls", "count", "lower"),
    ("prune.keep_ratio", "ratio", "lower"),
    ("tokens.tokenize_s", "s", "lower"),
    ("pipeline.flops_reduction", "ratio", "higher"),
    ("pipeline.wall_saving", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.name, self.start, self.end, self.parent, self.call, self.counts = [], [], [], [], [], {}
        self.call_id = -1  # the benchmark call spans belong to; -1 is set-up
        self._stack = []
        self._saved = []

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.call.append(self.call_id)
        self.end.append(None)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            out = fn(*args, **kwargs)
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()
        if name in _COUNTS:
            self.counts[i] = _COUNTS[name](args, out)
        return out

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self):
        for module, attr, name in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrapper(name, fn))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def totals(self):
        """Per span name: count, summed duration and summed self time."""
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros(len(dur))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        count, total, own = defaultdict(int), defaultdict(float), defaultdict(float)
        for i, n in enumerate(self.name):
            count[n] += 1
            total[n] += dur[i]
            own[n] += dur[i] - child[i]
        return count, total, own

    def layer_metrics(self, calls: int) -> dict:
        """Per-layer metrics per traced call, from every span recorded (set-up included)."""
        count, total, own = self.totals()
        enc = [self.counts[i] for i, n in enumerate(self.name) if n == "encoder.encode_tokens"]
        masks = [self.counts[i] for i, n in enumerate(self.name) if n == "prune.build_mask"]
        flops = sum(sum(pipeline.block_flop_terms(n, c).values()) for n, c in enc)
        m = {
            "encoder.softmax_s": total["encoder.softmax_rows"],
            "encoder.block_s": own["encoder.encode_tokens"],
            "encoder.gelu_s": total["encoder.gelu"],
            "encoder.layer_norm_s": total["encoder.layer_norm"],
            "encoder.calls": count["encoder.encode_tokens"],
            "encoder.tokens_in": sum(n for n, _ in enc),
            "encoder.modeled_gflop": flops / 1e9,
            "pipeline.weights_s": total["pipeline.build_pipeline_weights"],
            "pipeline.weights_builds": count["pipeline.build_pipeline_weights"],
            "pipeline.self_s": own["pipeline.run_pipeline"] + own["pipeline.run_batch"],
            "synth.scene_s": total["synth.generate_scene"],
            "synth.scenes": count["synth.generate_scene"],
            "synth.self_s": own["synth.generate_scene"] + own["synth.run_sweep"],
            "roi.pool_s": total["roi.roi_align"] + total["roi.map_box_to_grid"],
            "roi.calls": count["roi.roi_align"],
            "prune.score_s": sum(total[n] for n in SCORE_SPANS),
            "prune.mask_s": total["prune.build_mask"],
            "prune.calls": count["prune.build_mask"],
            "tokens.tokenize_s": total["tokens.tokenize_image"],
        }
        m = {k: v / calls for k, v in m.items()}
        m["encoder.achieved_gflop_per_s"] = flops / 1e9 / total["encoder.encode_tokens"]
        m["prune.keep_ratio"] = sum(k for _, k in masks) / sum(n for n, _ in masks)
        return m

    def write(self, path) -> None:
        """Write the spans as columns; times are seconds since the tracer was made."""
        names = sorted(set(self.name))
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as f:
            json.dump({
                "names": names,
                "name": [index[n] for n in self.name],
                "start": [s - self.t0 for s in self.start],
                "end": [e - self.t0 for e in self.end],
                "parent": self.parent,
                "call": self.call,
            }, f)
