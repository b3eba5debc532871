"""Span tracing of tcmnet from the outside.

`Tracer.install()` swaps the public functions of `tcmnet.tensor`, `model`,
`train`, `data` and `metrics` for timing wrappers, in every tcmnet module
that binds them, and `uninstall()` puts the originals back. Nothing inside
`src/` knows it is being traced.

A span is `(name, start_ns, end_ns, parent)`; spans are kept in memory in
start order and written out once at the end. A layer's self time is its
spans' durations minus the time their child spans cover.

Backward time is attributed by wrapping the closure that each tensor op
has just appended to `tt.active_tape().ops`.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

TENSOR_OPS = (
    "affine", "mhsa_core", "layer_norm", "swish", "gelu", "sigmoid",
    "depthwise_conv1d", "mul_const", "concat", "slice_axis", "add", "mul",
    "reshape", "expand", "mean_over_time", "log_softmax_rows", "scale",
    "sum_all",
)
MODEL_METHODS = {
    "project_features": "model.project_features",
    "block_forward": "model.block_forward",
    "tcm_forward": "model.tcm_forward",
    "generate_head_tokens": "model.generate_head_tokens",
    "tcm_attention": "model.tcm_attention",
    "enrich_cls": "model.enrich_cls",
}
# (module, function) -> layer name; several functions may share a layer
FUNCTIONS = {
    ("train", "batch_logits"): "train.batch_logits",
    ("train", "weighted_cross_entropy"): "train.weighted_cross_entropy",
    ("train", "adam_step"): "train.adam_step",
    ("train", "validate"): "train.validate",
    ("train", "checkpoint_from_model"): "train.checkpoint",
    ("train", "average_checkpoints"): "train.checkpoint",
    ("train", "load_into_model"): "train.checkpoint",
    ("data", "generate_corpus"): "data.generate_corpus",
    ("data", "batch_iter"): "data.batch_iter",
    ("data", "fix_length"): "data.fix_length",
    ("metrics", "score_split"): "metrics.score_split",
    ("metrics", "split_by_label"): "metrics.split_by_label",
    ("metrics", "compute_eer"): "metrics.compute_eer",
    ("metrics", "compute_min_tdcf"): "metrics.compute_min_tdcf",
    ("metrics", "det_points"): "metrics.det_points",
    ("metrics", "read_scores"): "metrics.read_scores",
    ("metrics", "write_scores"): "metrics.write_scores",
}
ROOT = -1


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []  # (name id, start ns, end ns, parent index); start order
        self.stack = [ROOT]
        self.tape_nodes = []  # tape length at each backward call
        self.dropout_masks = 0
        self.thresholds = 0
        self._saved = []  # (owner, attribute, original)

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name):
        """A span around a `with` block (the root span of a unit of work)."""
        nid, idx, parent = self._id(name), len(self.spans), self.stack[-1]
        self.spans.append(None)
        self.stack.append(idx)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans[idx] = (nid, t0, time.perf_counter_ns(), parent)
            self.stack.pop()

    def timed(self, name, fn):
        nid, spans, stack, clock = self._id(name), self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (nid, t0, clock(), parent)
                stack.pop()

        return wrapper

    def timed_generator(self, name, fn):
        """Each `next()` of the generator is one span."""
        step = self.timed(name, next)

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                try:
                    item = step(gen)
                except StopIteration:
                    return
                yield item

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        from tcmnet import metrics, model, tensor as tt

        modules = {name: sys.modules[f"tcmnet.{name}"]
                   for name in ("tensor", "model", "train", "data", "metrics")}
        for op in TENSOR_OPS:
            self._replace(getattr(tt, op), self._tensor_op(op, getattr(tt, op)))
        for (mod, fn_name), layer in FUNCTIONS.items():
            fn = getattr(modules[mod], fn_name)
            wrap = self.timed_generator if inspect.isgeneratorfunction(fn) else self.timed
            self._replace(fn, wrap(layer, fn))
        self._replace(tt.backward,
                      self._count_tape(self.timed("tensor.backward", tt.backward)))
        self._replace(metrics.sweep_thresholds,
                      self._count_thresholds(metrics.sweep_thresholds))
        for meth, layer in MODEL_METHODS.items():
            self._set(model.Model, meth, self.timed(layer, getattr(model.Model, meth)))
        self._set(model.DropoutCtx, "mask",
                  self._count_masks(self.timed("model.dropout_mask", model.DropoutCtx.mask)))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace(self, fn, wrapper):
        """Rebind `fn` to `wrapper` in every tcmnet module that binds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "tcmnet" or mod_name.startswith("tcmnet."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, attr, wrapper)

    def _tensor_op(self, op, fn):
        from tcmnet import tensor as tt

        fwd = self.timed(f"tensor.{op}.fwd", fn)
        bwd_name = f"tensor.{op}.bwd"
        ops = tt.active_tape().ops

        def wrapper(*args, **kwargs):
            n = len(ops)
            out = fwd(*args, **kwargs)
            if len(ops) > n:
                node, closure = ops[-1]
                ops[-1] = (node, self.timed(bwd_name, closure))
            return out

        return wrapper

    def _count_tape(self, fn):
        from tcmnet import tensor as tt

        tape = tt.active_tape()

        def wrapper(out):
            self.tape_nodes.append(len(tape))
            return fn(out)

        return wrapper

    def _count_masks(self, fn):
        def wrapper(ctx, shape):
            self.dropout_masks += 1
            return fn(ctx, shape)

        return wrapper

    def _count_thresholds(self, fn):
        def wrapper(bona, spoof):
            out = fn(bona, spoof)
            self.thresholds += len(out)
            return out

        return wrapper

    # -- analysis ------------------------------------------------------------

    def self_times(self):
        """{(root name, layer name): [self ns, span count]} over all spans."""
        spans = self.spans
        child_ns = [0] * len(spans)
        root_of = [0] * len(spans)
        for i, (_, t0, t1, parent) in enumerate(spans):
            if parent == ROOT:
                root_of[i] = i
            else:
                child_ns[parent] += t1 - t0
                root_of[i] = root_of[parent]
        out = defaultdict(lambda: [0, 0])
        for i, (nid, t0, t1, _) in enumerate(spans):
            key = (self.names[spans[root_of[i]][0]], self.names[nid])
            out[key][0] += t1 - t0 - child_ns[i]
            out[key][1] += 1
        return out

    def roots(self, name):
        nid = self._ids.get(name)
        return [s for s in self.spans if s[3] == ROOT and s[0] == nid]

    def write(self, path):
        """Gzipped JSON lines: a header with the name table, then one span per line."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "names": self.names}, fh)
            fh.write("\n")
            for nid, t0, t1, parent in self.spans:
                fh.write(f"[{nid},{t0},{t1},{parent}]\n")
