"""Span tracer for one heatseg process, installed from outside the package.

Every hook wraps a public function or method of ``heatseg``: the functions are
replaced wherever a module holds them (``from .tensor import conv2d`` makes a
copy in each importer), methods are replaced on their class, and ``restore``
puts every original back.  Backward time per op is taken by wrapping the
``_backward_fn`` closure of each tensor an op returns, and graph size by
walking ``_parents`` from the loss; both are engine internals, so when either
is gone those metrics are reported missing and the rest of the run goes on.

Spans live in flat arrays (name id, start, end, parent index, step id) and
are written once, when the run ends.
"""
from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from array import array
from collections import defaultdict

# Autograd ops of heatseg.tensor that build graph nodes; ``ew_binary`` and
# ``activation`` only dispatch to these, so they get no span of their own.
OPS = (
    "add", "sub", "mul", "div", "sigmoid", "tanh", "relu", "exp", "log",
    "reshape", "transpose2d", "concat", "gather_rows", "reduce",
    "softmax_axis", "matmul", "conv2d", "upsample_nearest",
)

# (module, attribute, span name); a dotted attribute names a class method.
LAYER_HOOKS = (
    ("heatseg.data", "load_dataset", "data.load"),
    ("heatseg.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("heatseg.model", "SegModel.forward", "model.forward"),
    ("heatseg.model", "SegModel.encoder_forward", "model.encoder"),
    ("heatseg.model", "SegModel.decode", "model.decode"),
    ("heatseg.model", "SegModel.output_head", "model.head"),
    ("heatseg.coupling", "coupling_forward", "coupling.forward"),
    ("heatseg.losses", "total_loss", "losses.total"),
    ("heatseg.losses", "heatmap_loss", "losses.heatmap"),
    ("heatseg.losses", "fisher_loss", "losses.fisher"),
    ("heatseg.optim", "adam_step", "optim.adam"),
    ("heatseg.metrics", "ConfusionMatrix.accumulate", "metrics.accumulate"),
)

# per-step metric -> span summed over the step
STEP_SPANS = {
    "data.stack_ms": "data.stack",
    "model.encoder_ms": "model.encoder",
    "model.decode_ms": "model.decode",
    "model.head_ms": "model.head",
    "coupling.forward_ms": "coupling.forward",
    "losses.total_ms": "losses.total",
    "losses.heatmap_ms": "losses.heatmap",
    "losses.fisher_ms": "losses.fisher",
    "tensor.backward_ms": "tensor.backward",
    "optim.adam_ms": "optim.adam",
    "metrics.accumulate_ms": "metrics.accumulate",
}

# metrics lost when a hook cannot be installed, by span
SPAN_METRICS = {span: [metric] for metric, span in STEP_SPANS.items()}
SPAN_METRICS.update({
    "data.load": ["data.load_s"],
    "checkpoint.load": ["checkpoint.load_ms"],
    "coupling.forward": ["coupling.calls", "coupling.forward_ms"],
    "tensor.backward": ["tensor.backward_ms", "tensor.engine_ms", "tensor.graph_nodes"],
})

# metrics that read engine internals (``_parents``, ``_backward_fn``)
INTERNAL_METRICS = ["tensor.graph_nodes", "tensor.closure_ms", "tensor.engine_ms"] + [
    f"tensor.op.{op}.bwd_ms" for op in OPS
]


def per_layer_units():
    """Unit of every per-layer metric a traced run reports, in report order."""
    names = ["data.load_s", "checkpoint.load_ms", "coupling.calls", "tensor.graph_nodes",
             "tensor.closure_ms", "tensor.engine_ms", "cli.self_ms"]
    names += list(STEP_SPANS)
    for op in OPS:
        names += [f"tensor.op.{op}.calls", f"tensor.op.{op}.fwd_ms", f"tensor.op.{op}.bwd_ms"]
    names.append("trace.overhead_frac")
    suffix_units = (("_ms", "ms"), ("_s", "s"), ("_frac", "ratio"))
    return {n: next((u for sfx, u in suffix_units if n.endswith(sfx)), "count") for n in names}


def _heatseg_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "heatseg" or name.startswith("heatseg."))]


class Patches:
    """Replaced heatseg attributes, each put back by ``restore``."""

    def __init__(self):
        self._saved: list = []   # (owner, attr, original)

    def _replace(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def function(self, module_name: str, attr: str, make) -> bool:
        """Wrap a module-level function in every heatseg module that holds it."""
        orig = getattr(sys.modules.get(module_name), attr, None)
        if not callable(orig):
            return False
        new = make(orig)
        for mod in _heatseg_modules():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._replace(mod, key, new)
        return True

    def method(self, module_name: str, dotted: str, make) -> bool:
        cls_name, attr = dotted.split(".")
        cls = getattr(sys.modules.get(module_name), cls_name, None)
        if cls is None or not callable(vars(cls).get(attr)):
            return False
        self._replace(cls, attr, make(vars(cls)[attr]))
        return True

    def restore(self) -> bool:
        """Put every original back; True when all of them are in place again."""
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        ok = all(vars(owner)[attr] is orig for owner, attr, orig in self._saved)
        self._saved.clear()
        return ok


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.step = array("q")
        self._open: list = []
        self._step_span = None                # index of the running step span
        self.step_id = -1
        self.graph_nodes = defaultdict(int)   # step id -> nodes under the loss
        self.missing: set = set()             # metrics whose hook is gone

    # ----- spans -----

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.step.append(self.step_id if self._step_span is not None else -1)
        self.end.append(math.nan)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        # pops idx and anything left open above it
        while self._open and self._open.pop() != idx:
            pass

    def begin_step(self) -> None:
        """Close the running step span, if any, and open the next one."""
        self.end_step()
        self.step_id += 1
        self._step_span = -1   # in a step from here on, so the step span gets the new id
        self._step_span = self.open("step")

    def end_step(self) -> None:
        if self._step_span is not None:
            self.close(self._step_span)
            self._step_span = None

    def span(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    # ----- installation -----

    def install(self, patches: Patches) -> None:
        """Hook every layer and op; call after ``heatseg.cli`` is imported."""
        for module_name, attr, span in LAYER_HOOKS:
            replace = patches.method if "." in attr else patches.function
            if not replace(module_name, attr, lambda fn, s=span: self.span(fn, s)):
                self.missing.update(SPAN_METRICS.get(span, ()))

        tensor_cls = getattr(sys.modules.get("heatseg.tensor"), "Tensor", None)
        slots = set(getattr(tensor_cls, "__slots__", ())) | set(dir(tensor_cls))
        internals = {"_parents", "_backward_fn"} <= slots
        if not internals:
            self.missing.update(INTERNAL_METRICS)

        for op in OPS:
            patches.function("heatseg.tensor", op, lambda fn, o=op: self._op(fn, o, internals))
        if not patches.function("heatseg.tensor", "backward",
                                lambda fn: self._backward(fn, internals)):
            self.missing.update(SPAN_METRICS["tensor.backward"])

    def _op(self, fn, op, internals):
        tracer = self
        fwd, bwd = f"tensor.op.{op}.fwd", f"tensor.op.{op}.bwd"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            closure = getattr(out, "_backward_fn", None) if internals else None
            if closure is not None:
                out._backward_fn = tracer.span(closure, bwd)
            return out

        return traced

    def _backward(self, fn, internals):
        tracer = self

        @functools.wraps(fn)
        def traced(loss, *args, **kwargs):
            if internals:
                # walked outside the span so the walk is not billed to the engine
                tracer.graph_nodes[tracer.step_id] += _count_nodes(loss)
            idx = tracer.open("tensor.backward")
            try:
                return fn(loss, *args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    # ----- results -----

    def write(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            step=np.frombuffer(self.step, dtype=np.int64),
        )

    def summarize(self, timed_steps) -> dict:
        """Per-layer metrics: per-step means over ``timed_steps``, per-run medians.

        Metrics whose hook or engine internal is gone are left out.
        """
        timed = set(timed_steps)
        n = max(1, len(timed))
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child_time = [0.0] * count
        for i in range(count):
            if self.parent[i] >= 0:
                child_time[self.parent[i]] += dur[i]

        per_name = defaultdict(float)
        calls = defaultdict(int)
        run_level = defaultdict(list)
        cli_self = 0.0
        for i in range(count):
            name = self.names[self.name_id[i]]
            if self.step[i] in timed:
                per_name[name] += dur[i]
                calls[name] += 1
                if name == "step":
                    cli_self += dur[i] - child_time[i]
            elif self.step[i] < 0:
                run_level[name].append(dur[i])

        def per_step_ms(name):
            return 1e3 * per_name[name] / n

        def run_median(name, scale):
            values = run_level.get(name)
            return scale * statistics.median(values) if values else 0.0

        out = {
            "data.load_s": run_median("data.load", 1.0),
            "checkpoint.load_ms": run_median("checkpoint.load", 1e3),
            "coupling.calls": calls["coupling.forward"] / n,
            "cli.self_ms": 1e3 * cli_self / n,
        }
        for metric, span in STEP_SPANS.items():
            out[metric] = per_step_ms(span)
        closure = 0.0
        for op in OPS:
            out[f"tensor.op.{op}.calls"] = calls[f"tensor.op.{op}.fwd"] / n
            out[f"tensor.op.{op}.fwd_ms"] = per_step_ms(f"tensor.op.{op}.fwd")
            out[f"tensor.op.{op}.bwd_ms"] = per_step_ms(f"tensor.op.{op}.bwd")
            closure += out[f"tensor.op.{op}.bwd_ms"]
        out["tensor.closure_ms"] = closure
        out["tensor.engine_ms"] = out["tensor.backward_ms"] - closure
        out["tensor.graph_nodes"] = sum(self.graph_nodes.get(s, 0) for s in timed) / n
        return {k: v for k, v in out.items() if k not in self.missing}


def _count_nodes(loss) -> int:
    """Distinct tensors reachable from ``loss`` through ``_parents``, itself included."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)
