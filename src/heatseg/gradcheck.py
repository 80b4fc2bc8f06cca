"""Finite-difference verification of every adjoint in the package.

Each check builds a scalar loss from fresh leaves, runs one backward pass,
then re-evaluates the forward function with every leaf element nudged by
+/- eps (central differences, double precision).  The numeric path never
touches the recorded graph, so it stays independent of the adjoints it
judges.  Relative error uses max(1, |a|, |n|) in the denominator: relative
for large gradients, absolute near zero.

``run_all`` covers the primitive operations, every parameter group of one
coupling layer, and every parameter group of a small end-to-end model under
the full training objective.  ``corrupt=True`` deliberately breaks one
adjoint first; the run must then fail, which guards the checker itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from . import tensor as T
from .config import RunConfig
from .coupling import CouplingParams, TopKConfig, coupling_forward
from .losses import total_loss
from .model import SegModel
from .optim import zero_grad
from .tensor import Tensor, no_grad

DEFAULT_EPS = 1e-5
TOL = 1e-4


@dataclass
class CheckResult:
    name: str
    max_err: float

    @property
    def ok(self) -> bool:
        return np.isfinite(self.max_err) and self.max_err <= TOL


def numerical_grad(fn: Callable[[], float], t: Tensor, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Central finite differences of scalar fn() w.r.t. every element of t."""
    grad = np.zeros_like(t.data)
    flat = t.data.reshape(-1)
    gflat = grad.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            hi = fn()
            flat[i] = saved - eps
            lo = fn()
            flat[i] = saved
            gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def check_gradients(
    name: str,
    build_loss: Callable[[], Tensor],
    leaves: Sequence[Tuple[str, Tensor]],
    eps: float = DEFAULT_EPS,
) -> List[CheckResult]:
    """One result per leaf: analytic backward vs central differences."""
    zero_grad([t for _, t in leaves])
    loss = build_loss()
    loss.backward()

    def value() -> float:
        return float(build_loss().data)

    results = []
    for leaf_name, leaf in leaves:
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        numeric = numerical_grad(value, leaf, eps)
        label = f"{name}.{leaf_name}" if leaf_name else name
        results.append(CheckResult(label, max_rel_err(analytic, numeric)))
    return results


def _leaf(rng: np.random.Generator, shape, lo=-1.0, hi=1.0) -> Tensor:
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


def _project(out: Tensor, r: np.ndarray) -> Tensor:
    # random projection makes the loss sensitive to every output element
    return T.reduce(T.mul(out, Tensor(r)), kind="sum")


def op_checks(seed: int = 0, eps: float = DEFAULT_EPS) -> List[CheckResult]:
    rng = np.random.default_rng(seed)
    results: List[CheckResult] = []

    def run(name, build, leaves):
        results.extend(check_gradients(name, build, leaves, eps))

    a, b = _leaf(rng, (3, 4)), _leaf(rng, (4,))
    r = rng.standard_normal((3, 4))
    for name, op in (("add", T.add), ("sub", T.sub), ("mul", T.mul)):
        run(f"op.{name}", lambda op=op: _project(op(a, b), r), [("a", a), ("b", b)])
    bpos = Tensor(rng.uniform(0.5, 2.0, size=(4,)), requires_grad=True)
    run("op.div", lambda: _project(T.div(a, bpos), r), [("a", a), ("b", bpos)])

    m1, m2 = _leaf(rng, (3, 4)), _leaf(rng, (4, 2))
    rm = rng.standard_normal((3, 2))
    run("op.matmul", lambda: _project(T.matmul(m1, m2), rm), [("a", m1), ("b", m2)])
    # a 2-d weight under a stacked operand, and stacked operands whose batch
    # axes broadcast against each other
    s3, w2 = _leaf(rng, (2, 3, 4)), _leaf(rng, (4, 2))
    rs3 = rng.standard_normal((2, 3, 2))
    run("op.matmul_stacked_2d", lambda: _project(T.matmul(s3, w2), rs3), [("a", s3), ("b", w2)])
    b1, b2 = _leaf(rng, (1, 3, 4)), _leaf(rng, (2, 4, 2))
    run("op.matmul_broadcast", lambda: _project(T.matmul(b1, b2), rs3), [("a", b1), ("b", b2)])

    x = _leaf(rng, (3, 4))
    rx = rng.standard_normal((3, 4))
    run("op.sigmoid", lambda: _project(T.sigmoid(x), rx), [("x", x)])
    run("op.tanh", lambda: _project(T.tanh(x), rx), [("x", x)])
    run("op.exp", lambda: _project(T.exp(x), rx), [("x", x)])
    signs = rng.choice([-1.0, 1.0], size=(3, 4))
    xoff = Tensor(rng.uniform(0.2, 1.5, size=(3, 4)) * signs, requires_grad=True)
    run("op.relu", lambda: _project(T.relu(xoff), rx), [("x", xoff)])
    xpos = Tensor(rng.uniform(0.3, 2.0, size=(3, 4)), requires_grad=True)
    run("op.log", lambda: _project(T.log(xpos), rx), [("x", xpos)])

    sm = _leaf(rng, (3, 5), -2.0, 2.0)
    rs = rng.standard_normal((3, 5))
    run("op.softmax_axis", lambda: _project(T.softmax_axis(sm, 1), rs), [("x", sm)])

    red = _leaf(rng, (2, 3, 4))
    rr = rng.standard_normal((4,))
    run(
        "op.reduce_sum",
        lambda: _project(T.reduce(red, axis=(0, 1), kind="sum"), rr),
        [("x", red)],
    )
    rk = rng.standard_normal((2, 1, 4))
    run(
        "op.reduce_mean",
        lambda: _project(T.reduce(red, axis=1, kind="mean", keepdims=True), rk),
        [("x", red)],
    )

    c1, c2, c3 = _leaf(rng, (2, 3)), _leaf(rng, (2, 2)), _leaf(rng, (2, 4))
    rc = rng.standard_normal((2, 9))
    run(
        "op.concat",
        lambda: _project(T.concat([c1, c2, c3], axis=1), rc),
        [("a", c1), ("b", c2), ("c", c3)],
    )

    # two index rows per batch entry, with a repeated index in each
    gx = _leaf(rng, (2, 5, 3))
    idx = np.array([[[0, 2], [2, 4]], [[1, 1], [3, 0]]])
    rg = rng.standard_normal((2, 2, 2, 3))
    run("op.gather", lambda: _project(T.gather(gx, idx, axis=1), rg), [("x", gx)])

    # channels-last (B, H, W, C) inputs and outputs
    cx, cw, cb = _leaf(rng, (2, 6, 6, 3)), _leaf(rng, (4, 3, 3, 3)), _leaf(rng, (4,))
    rc1 = rng.standard_normal((2, 6, 6, 4))
    run(
        "op.conv2d_s1",
        lambda: _project(T.conv2d(cx, cw, cb, stride=1, padding=1), rc1),
        [("x", cx), ("w", cw), ("b", cb)],
    )
    rc2 = rng.standard_normal((2, 3, 3, 4))
    run(
        "op.conv2d_s2",
        lambda: _project(T.conv2d(cx, cw, cb, stride=2, padding=1), rc2),
        [("x", cx), ("w", cw), ("b", cb)],
    )
    # 1x1 kernels read their (strided) input as the columns
    pw = _leaf(rng, (4, 3, 1, 1))
    run(
        "op.conv2d_1x1_s1",
        lambda: _project(T.conv2d(cx, pw, cb), rc1),
        [("x", cx), ("w", pw), ("b", cb)],
    )
    run(
        "op.conv2d_1x1_s2",
        lambda: _project(T.conv2d(cx, pw, cb, stride=2), rc2),
        [("x", cx), ("w", pw), ("b", cb)],
    )

    t3 = _leaf(rng, (2, 3, 4))
    rt = rng.standard_normal((4, 3, 2))
    run("op.swapaxes", lambda: _project(T.swapaxes(t3, 0, 2), rt), [("x", t3)])
    t2 = _leaf(rng, (3, 4))
    rshp = rng.standard_normal((4, 3))
    run("op.reshape", lambda: _project(T.reshape(t2, (4, 3)), rshp), [("x", t2)])

    return results


def layer_checks(seed: int = 0, eps: float = DEFAULT_EPS) -> List[CheckResult]:
    rng = np.random.default_rng(seed + 1)
    batch, c_feat, c_class, n, pixels = 2, 6, 4, 3, 16
    params = CouplingParams.initialize(c_feat, c_class, rng)
    feats = _leaf(rng, (batch, pixels, c_feat))
    emb = _leaf(rng, (batch, n, c_class))
    cfg = TopKConfig(ratio=0.2, eps=1e-6)

    def build():
        f_out, e_out, _, _ = coupling_forward(feats, emb, params, cfg)
        return T.reduce(f_out, kind="sum") + T.reduce(e_out, kind="sum")

    leaves = [(name.split(".", 1)[1], p) for name, p in params.named("layer")]
    leaves += [("feats", feats), ("emb", emb)]
    return check_gradients("layer", build, leaves, eps)


def model_checks(seed: int = 0, eps: float = DEFAULT_EPS) -> List[CheckResult]:
    """Full objective on a 2-sample, 3-category, 16x16 batch in double precision."""
    rng = np.random.default_rng(seed + 2)
    config = RunConfig(num_categories=3, c_feat=12, c_class=6, encoder_widths=(6, 8))
    model = SegModel(config.model_config(), seed=seed)
    images = Tensor(rng.uniform(0.0, 1.0, size=(2, 3, 16, 16)))
    labels = rng.integers(0, 3, size=(2, 16, 16))
    weights = config.loss_weights()

    def build():
        out = model.forward(images)
        loss, _ = total_loss(
            out.logits, labels, out.scores_per_layer, out.embeddings_per_layer, weights
        )
        return loss

    return check_gradients("model", build, model.named_parameters(), eps)


def _corrupted(op):
    """``op`` with its adjoint off by 1%; run_all(corrupt=True) must report a failure."""

    def wrong(*args):
        out = op(*args)
        adjoint = out._backward_fn
        if adjoint is not None:
            out._backward_fn = lambda g: tuple(1.01 * pg for pg in adjoint(g))
        return out

    return wrong


def run_all(seed: int = 0, eps: float = DEFAULT_EPS, corrupt: bool = False) -> List[CheckResult]:
    if corrupt:
        original = T.sigmoid
        T.sigmoid = _corrupted(original)
        try:
            results = op_checks(seed, eps)
        finally:
            T.sigmoid = original
        return results
    return op_checks(seed, eps) + layer_checks(seed, eps) + model_checks(seed, eps)


def format_report(results: Sequence[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "ok  " if r.ok else "FAIL"
        lines.append(f"{status} {r.name:<34} max_rel_err={r.max_err:.3e} tol={TOL:.1e}")
    failed = sum(1 for r in results if not r.ok)
    lines.append(f"{len(results) - failed}/{len(results)} gradient checks passed")
    return "\n".join(lines)
