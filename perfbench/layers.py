"""Tracing of groupopt's layers from outside the package.

instrumented() swaps module and class attributes for span-recording
stand-ins and puts the originals back on exit; src/groupopt is not edited.
layer_metrics() turns the spans of the traced repetitions into the
per-layer metrics listed in BENCHMARK.json.

A layer is the module that owns the function a span wraps: model, training,
metrics, optimizers, prox or regret. A span's layer is its name up to the
first dot. Metrics of a layer that a workload never calls read 0.
"""

from __future__ import annotations

import contextlib

import numpy as np

from groupopt import optimizers, regret, training
from groupopt.model import EMBEDDING

from spans import Span, Tracer, self_times

STEP_SPANS = ("optimizers.step", "optimizers.step_group")
PROX_SPANS = ("prox.group_shrink", "prox.soft_threshold")
LAYERS = ("model", "optimizers", "prox", "training", "metrics", "regret")


def _block_name(*args):
    # GroupOptimizer.step(self, block, grad) and step_group(state, block, ...)
    return args[1].name


def _swaps() -> list:
    """(owner, attribute, span name, Tracer.wrap options) per traced function."""
    return [
        (training, "forward", "model.forward",
         {"batch_role": "open", "count": lambda result, blocks, ids, config: {"ids": ids}}),
        (training, "backward", "model.backward",
         {"batch_role": "join",
          "count": lambda grads, *args: {"emb_grad_bytes": grads[EMBEDDING].nbytes}}),
        (training, "evaluate", "training.evaluate", {}),
        (training, "auc", "metrics.auc", {}),
        (training, "sparsity", "metrics.sparsity", {}),
        (training, "nonzero_groups", "metrics.nonzero_groups", {}),
        (optimizers, "soft_threshold", "prox.soft_threshold", {}),
        (optimizers, "group_shrink", "prox.group_shrink", {}),
        (optimizers.GroupOptimizer, "step", "optimizers.step",
         {"batch_role": "join", "tag": _block_name,
          "count": lambda result, opt, block, grad: {
              "rows_stepped": grad.size // (block.group_size or 1)}}),
        (regret, "step_group", "optimizers.step_group",
         {"batch_role": "open", "tag": _block_name}),
    ]


def snapshot() -> list:
    """The objects the traced attributes currently hold."""
    return [getattr(owner, attr) for owner, attr, _, _ in _swaps()]


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    originals = snapshot()
    try:
        for owner, attr, name, options in _swaps():
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), **options))
        yield
    finally:
        for (owner, attr, _, _), original in zip(_swaps(), originals):
            setattr(owner, attr, original)


def resolve_counts(spans: list[Span]) -> None:
    """Replace the id arrays that forward spans hold by rows touched; done
    after the repetition so the counting is not timed."""
    for span in spans:
        if span.counts and "ids" in span.counts:
            span.counts = {"rows_touched": int(np.unique(span.counts["ids"]).size)}


def _pct(values, q: float, scale: float) -> float:
    return float(np.percentile(values, q)) * scale if len(values) else 0.0


def _median(values, scale: float = 1.0) -> float:
    return _pct(values, 50, scale)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(reps: list[list[Span]], generate_s: float, overhead_share: float) -> dict:
    """Per-layer metrics pooled over the traced repetitions.

    Per-batch figures are totals over all repetitions divided by the number
    of batches; in the regret workload each online step is one batch.
    """
    forward, backward, grad_bytes, emb_step, batch = [], [], [], [], []
    sg_step, evaluate, auc_ms, sparsity_ms, regret_self, bound = [], [], [], [], [], []
    prox = {(name, split): [] for name in PROX_SPANS for split in ("embedding", "small")}
    busy = dict.fromkeys(LAYERS, 0.0)
    dense_total = step_self_total = loop_self_total = workload_total = 0.0
    step_calls = prox_calls = batches = rows_stepped = rows_touched = spans_total = 0
    for spans in reps:
        selfs = self_times(spans)
        spans_total += len(spans)
        extent: dict[int, list[float]] = {}
        for span, own in zip(spans, selfs):
            name, d = span.name, span.duration
            busy[name.split(".")[0]] += own
            counts = span.counts or {}
            if span.parent is None:
                workload_total += d
            elif spans[span.parent].parent is None and span.batch is not None:
                lo_hi = extent.setdefault(span.batch, [span.start, span.end])
                lo_hi[1] = span.end
            if name == "model.forward" and span.batch is not None:
                forward.append(d)
                rows_touched += counts["rows_touched"]
            elif name == "model.backward":
                backward.append(d)
                grad_bytes.append(counts["emb_grad_bytes"])
            elif name in STEP_SPANS:
                step_calls += 1
                step_self_total += own
                if span.tag == EMBEDDING:
                    emb_step.append(d)
                    rows_stepped += counts["rows_stepped"]
                elif name == "optimizers.step":
                    dense_total += d
                else:
                    sg_step.append(d)
            elif name in PROX_SPANS:
                prox_calls += 1
                split = "embedding" if spans[span.parent].tag == EMBEDDING else "small"
                prox[name, split].append(d)
            elif name == "training.evaluate":
                evaluate.append(d)
            elif name == "metrics.auc":
                auc_ms.append(d)
            elif name == "metrics.sparsity":
                sparsity_ms.append(d)
            elif name == "training.train_model":
                loop_self_total += own
            elif name == "regret.run_regret":
                regret_self.append(own)
            elif name == "regret.measure_bound_constants":
                bound.append(d)
        batches += len(extent)
        batch += [hi - lo for lo, hi in extent.values()]
    training_batches = batches if forward else 0
    n = len(reps)
    return {
        "model.forward_ms_p50": _pct(forward, 50, 1e3),
        "model.forward_ms_p99": _pct(forward, 99, 1e3),
        "model.backward_ms_p50": _pct(backward, 50, 1e3),
        "model.backward_ms_p99": _pct(backward, 99, 1e3),
        "model.emb_grad_bytes": _median(grad_bytes),
        "optimizers.step_embedding_ms_p50": _pct(emb_step, 50, 1e3),
        "optimizers.step_embedding_ms_p99": _pct(emb_step, 99, 1e3),
        "optimizers.step_dense_ms_per_batch": 1e3 * _ratio(dense_total, training_batches),
        "optimizers.step_calls_per_batch": _ratio(step_calls, batches),
        "optimizers.step_self_ms_per_batch": 1e3 * _ratio(step_self_total, batches),
        "optimizers.rows_stepped_per_batch": _ratio(rows_stepped, training_batches),
        "optimizers.rows_touched_per_batch": _ratio(rows_touched, training_batches),
        "optimizers.rows_useful_ratio": _ratio(rows_touched, rows_stepped),
        **{f"{name}_us_p50.{split}": _median(values, 1e6)
           for (name, split), values in prox.items()},
        "prox.calls": _ratio(prox_calls, n),
        "training.batch_ms_p50": _pct(batch, 50, 1e3) if training_batches else 0.0,
        "training.batch_ms_p99": _pct(batch, 99, 1e3) if training_batches else 0.0,
        "training.loop_self_ms_per_batch": 1e3 * _ratio(loop_self_total, training_batches),
        "training.evaluate_ms": _median(evaluate, 1e3),
        "metrics.auc_ms": _median(auc_ms, 1e3),
        "metrics.sparsity_ms": _median(sparsity_ms, 1e3),
        "data.generate_s": generate_s,
        "regret.step_group_us_p50": _pct(sg_step, 50, 1e6),
        "regret.step_group_us_p99": _pct(sg_step, 99, 1e6),
        "regret.self_s": _median(regret_self),
        "regret.bound_s": _median(bound),
        **{f"{layer}.busy_share": _ratio(busy[layer], workload_total) for layer in LAYERS},
        "trace.overhead_share": overhead_share,
        "trace.batches": float(batches),
        "trace.reps": float(n),
        "trace.spans_per_rep": _ratio(spans_total, n),
    }
