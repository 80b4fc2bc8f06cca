"""Dense arrays with recorded operations and reverse-mode differentiation.

Every operation stamps its output with a monotonically increasing sequence
number, so the implicit graph is ordered exactly by execution.  ``backward``
walks the ancestors of a scalar loss in reverse execution order and pushes
adjoints through per-operation closures.  Gradients accumulate on leaves
(tensors created directly rather than by an operation) that were built with
``requires_grad=True``; repeated backward calls keep adding until the
accumulator is cleared.

Arrays are float32 or float64; anything else passed to the constructor is
promoted to float64.  Broadcasting in elementwise operations follows numpy's
trailing-axis rule (an extent of 1 stretches), and adjoints are summed back
to the operand shapes.
"""
from __future__ import annotations

import itertools
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_SEQ = itertools.count()
_GRAD_ENABLED = True

BackwardFn = Callable[[np.ndarray], tuple]


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float64)
    return arr


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_seq")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward_fn: Optional[BackwardFn] = None
        self._seq = next(_SEQ)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        backward(self)

    def __add__(self, other):
        return add(self, _lift(other, self))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _lift(other, self))

    def __rsub__(self, other):
        return sub(_lift(other, self), self)

    def __mul__(self, other):
        return mul(self, _lift(other, self))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _lift(other, self))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


class no_grad:
    """Disable graph recording inside a with-block (forward values only)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def _lift(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def _node(data: np.ndarray, parents: tuple, backward_fn: BackwardFn) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def _bw(g):
        return (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape))

    return _node(out, (a, b), _bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def _bw(g):
        return (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape))

    return _node(out, (a, b), _bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def _bw(g):
        return (_unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape))

    return _node(out, (a, b), _bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    out = a.data / b.data

    def _bw(g):
        ga = _unbroadcast(g / b.data, a.data.shape)
        gb = _unbroadcast(-g * out / b.data, b.data.shape)
        return (ga, gb)

    return _node(out, (a, b), _bw)


# ---------------------------------------------------------------------------
# activations and pointwise transcendentals


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    t = np.exp(-np.abs(d))
    out = np.where(d >= 0, 1.0 / (1.0 + t), t / (1.0 + t))

    def _bw(g):
        return (g * out * (1.0 - out),)

    return _node(out, (x,), _bw)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def _bw(g):
        return (g * (1.0 - out * out),)

    return _node(out, (x,), _bw)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)
    # derivative at the kink is taken as 0
    mask = x.data > 0

    def _bw(g):
        return (g * mask,)

    return _node(out, (x,), _bw)


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)

    def _bw(g):
        return (g * out,)

    return _node(out, (x,), _bw)


def log(x: Tensor) -> Tensor:
    out = np.log(x.data)

    def _bw(g):
        return (g / x.data,)

    return _node(out, (x,), _bw)


# ---------------------------------------------------------------------------
# shape and structure


def reshape(x: Tensor, shape) -> Tensor:
    out = x.data.reshape(shape)

    def _bw(g):
        return (g.reshape(x.data.shape),)

    return _node(out, (x,), _bw)


def swapaxes(x: Tensor, axis1: int, axis2: int) -> Tensor:
    out = np.swapaxes(x.data, axis1, axis2)

    def _bw(g):
        return (np.swapaxes(g, axis1, axis2),)

    return _node(out, (x,), _bw)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ValueError("concat needs at least one tensor")
    arrays = [t.data for t in tensors]
    out = np.concatenate(arrays, axis=axis)
    sizes = [a.shape[axis] for a in arrays]
    splits = np.cumsum(sizes)[:-1]

    def _bw(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(out, tuple(tensors), _bw)


def _normalize_axes(axis, ndim: int):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    axes = []
    for a in axis:
        if not -ndim <= a < ndim:
            raise ValueError(f"axis {a} out of range for {ndim}-d tensor")
        axes.append(a % ndim)
    if len(set(axes)) != len(axes):
        raise ValueError("duplicate reduction axes")
    return tuple(sorted(axes))


def reduce(x: Tensor, axis=None, kind: str = "sum", keepdims: bool = False) -> Tensor:
    if kind not in ("sum", "mean"):
        raise ValueError(f"unknown reduction kind {kind!r}")
    axes = _normalize_axes(axis, x.data.ndim)
    count = 1
    for a in axes:
        count *= x.data.shape[a]
    if kind == "sum":
        out = x.data.sum(axis=axes, keepdims=keepdims)
    else:
        out = x.data.mean(axis=axes, keepdims=keepdims)
    scale = 1.0 if kind == "sum" else 1.0 / count

    def _bw(g):
        gg = g if keepdims or not axes else np.expand_dims(g, axes)
        gg = np.broadcast_to(gg, x.data.shape)
        return (gg * scale if kind == "mean" else gg.copy(),)

    return _node(out, (x,), _bw)


def gather(x: Tensor, indices, axis: int) -> Tensor:
    """Pick entries along ``axis``, batched over the axes before it.

    ``indices`` starts with the extents of x.shape[:axis] and may add any
    number of index axes after them.  With l running over the leading axes, s
    over the index axes and t over the axes after ``axis``,
    out[l, s, t] = x[l, indices[l, s], t].  The adjoint scatter-adds, so
    repeated indices accumulate.
    """
    xd = x.data
    (ax,) = _normalize_axes(axis, xd.ndim)
    idx = np.asarray(indices)
    lead, extent = xd.shape[:ax], xd.shape[ax]
    if not np.issubdtype(idx.dtype, np.integer) or idx.shape[:ax] != lead:
        raise ValueError(
            f"gather needs integer indices with leading extents {lead}, got "
            f"{idx.dtype} indices of shape {idx.shape}"
        )
    if idx.size and (idx.min() < 0 or idx.max() >= extent):
        raise ValueError(f"gather index out of range for axis extent {extent}")
    rows = int(np.prod(lead, dtype=np.int64))
    # one flat row index per picked entry into the (rows * extent, trailing) view
    flat = (np.arange(rows).reshape(rows, 1) * extent + idx.reshape(rows, -1)).reshape(-1)
    src = xd.reshape(rows * extent, -1)
    out = src[flat].reshape(idx.shape + xd.shape[ax + 1 :])

    def _bw(g):
        gx = np.zeros_like(src)
        np.add.at(gx, flat, g.reshape(flat.size, -1))
        return (gx.reshape(xd.shape),)

    return _node(out, (x,), _bw)


def softmax_axis(x: Tensor, axis: int) -> Tensor:
    (ax,) = _normalize_axes(axis, x.data.ndim)
    shifted = x.data - x.data.max(axis=ax, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=ax, keepdims=True)

    def _bw(g):
        dot = (g * out).sum(axis=ax, keepdims=True)
        return ((g - dot) * out,)

    return _node(out, (x,), _bw)


# ---------------------------------------------------------------------------
# linear algebra and convolution


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast as in numpy."""
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ValueError(f"matmul expects operands of at least 2-d, got {ad.shape} and {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ValueError(f"matmul inner extents differ: {ad.shape} vs {bd.shape}")
    try:
        np.broadcast_shapes(ad.shape[:-2], bd.shape[:-2])
    except ValueError:
        raise ValueError(f"matmul batch axes of {ad.shape} and {bd.shape} differ") from None
    inner, cols = bd.shape[-2:]
    # a 2-d right operand folds the stacked left one into a single GEMM each way
    folded = bd.ndim == 2 and ad.ndim > 2
    if folded:
        out = (ad.reshape(-1, inner) @ bd).reshape(ad.shape[:-1] + (cols,))
    else:
        out = ad @ bd

    def _bw(g):
        ga = gb = None
        if folded:
            g2 = g.reshape(-1, cols)
            if a.requires_grad:
                ga = (g2 @ bd.T).reshape(ad.shape)
            if b.requires_grad:
                gb = ad.reshape(-1, inner).T @ g2
        else:
            if a.requires_grad:
                ga = _unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape)
            if b.requires_grad:
                gb = _unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape)
        return (ga, gb)

    return _node(out, (a, b), _bw)


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlate a channels-last (B, H, W, C) input with an (O, C, kh, kw)
    kernel and add the (O,) bias; the output is (B, oh, ow, O).

    The input is unrolled into (B*oh*ow, kh*kw*C) columns, so the forward and
    the weight gradient are one GEMM each over every output pixel of the batch.
    A 1x1 unpadded kernel reads its (strided) input itself as the columns.
    """
    xd, wd, bd = x.data, w.data, b.data
    if xd.ndim != 4 or wd.ndim != 4:
        raise ValueError("conv2d expects a 4-d input and a 4-d kernel")
    batch, height, width, cin = xd.shape
    cout, ck, kh, kw = wd.shape
    if cin != ck:
        raise ValueError(f"conv2d channel mismatch: input has {cin}, kernel expects {ck}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"conv2d kernel extents must be odd, got ({kh}, {kw})")
    if bd.shape != (cout,):
        raise ValueError(f"conv2d bias must be shaped ({cout},), got {bd.shape}")
    s, p = int(stride), int(padding)
    if s < 1 or p < 0:
        raise ValueError("conv2d stride must be >= 1 and padding >= 0")
    oh = (height + 2 * p - kh) // s + 1
    ow = (width + 2 * p - kw) // s + 1
    if oh < 1 or ow < 1:
        raise ValueError(f"conv2d output extents ({oh}, {ow}) are not positive")

    pointwise = kh == kw == 1 and p == 0
    # columns run over (u, v, c), the kernel's rows likewise
    wmat = wd.transpose(2, 3, 1, 0).reshape(kh * kw * cin, cout)
    if pointwise:
        cols = xd[:, ::s, ::s].reshape(-1, cin)
    else:
        xp = np.pad(xd, ((0, 0), (p, p), (p, p), (0, 0)))
        win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::s, ::s]
        cols = np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(-1, kh * kw * cin)
    # backward keeps only the padded extents; the padded copy dies here
    padded = (batch, height + 2 * p, width + 2 * p, cin)
    out = cols @ wmat
    out += bd

    def _bw(g):
        g2 = g.reshape(-1, cout)
        gx = gw = gb = None
        if w.requires_grad:
            gw = (cols.T @ g2).reshape(kh, kw, cin, cout).transpose(3, 2, 0, 1)
        if b.requires_grad:
            gb = g2.sum(axis=0)
        if x.requires_grad:
            gcols = g2 @ wmat.T
            if pointwise and s == 1:
                gx = gcols.reshape(xd.shape)
            else:
                gcols = gcols.reshape(batch, oh, ow, kh, kw, cin)
                gxp = np.zeros(padded, dtype=xd.dtype)
                for u in range(kh):
                    for v in range(kw):
                        gxp[:, u : u + s * oh : s, v : v + s * ow : s] += gcols[:, :, :, u, v]
                gx = gxp[:, p : p + height, p : p + width]
        return (gx, gw, gb)

    return _node(out.reshape(batch, oh, ow, cout), (x, w, b), _bw)


# ---------------------------------------------------------------------------
# selection (not differentiated)


def topk_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries along the last axis, ties toward the lower index.

    Leading axes are independent rows, so one call selects for every row.
    """
    if values.ndim < 1:
        raise ValueError("topk_indices expects at least a 1-d array")
    if not 1 <= k <= values.shape[-1]:
        raise ValueError(f"k={k} out of range for length {values.shape[-1]}")
    order = np.argsort(-values, axis=-1, kind="stable")
    return order[..., :k].astype(np.int64)


# ---------------------------------------------------------------------------
# engine


def backward(loss: Tensor) -> None:
    """Accumulate dLoss/dLeaf on every requires_grad leaf under ``loss``."""
    if loss.data.ndim != 0:
        raise ValueError(f"backward root must be a scalar, got shape {loss.data.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.data.dtype)}
    for t in reversed(ancestors_in_order(loss)):
        g = grads.pop(id(t), None)
        if g is None:
            continue
        if t._backward_fn is None:
            if t.requires_grad:
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                t.grad += g
            continue
        for parent, pg in zip(t._parents, t._backward_fn(g)):
            if pg is None or not parent.requires_grad:
                continue
            prev = grads.get(id(parent))
            grads[id(parent)] = pg if prev is None else prev + pg


def ancestors_in_order(loss: Tensor) -> list:
    """All graph nodes under ``loss`` sorted by execution sequence."""
    nodes = [loss]
    seen = {id(loss)}
    stack = [loss]
    while stack:
        t = stack.pop()
        for p in t._parents:
            if id(p) not in seen:
                seen.add(id(p))
                nodes.append(p)
                stack.append(p)
    return sorted(nodes, key=lambda t: t._seq)
