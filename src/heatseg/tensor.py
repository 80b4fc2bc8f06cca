"""Dense arrays with recorded operations and reverse-mode differentiation.

Every operation stamps its output with a monotonically increasing sequence
number, so the implicit graph is ordered exactly by execution.  ``backward``
walks the ancestors of a scalar loss in reverse execution order and pushes
adjoints through per-operation closures.  Gradients accumulate on leaves
(tensors created directly rather than by an operation) that were built with
``requires_grad=True``; backward passes over fresh graphs keep adding until
the accumulator is cleared.

Each graph back-propagates once.  As soon as a node's adjoint has run, its
closure is dropped, so the arrays only the closure saved (kernel matrices,
indices, intermediates the adjoint reuses) are freed while the pass runs; node
values and parent links stay.  No closure saves im2col columns.
A second backward from the same loss raises ``ValueError`` at its root, before
any leaf gradient changes.

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
# activations


def _sigmoid(d: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument only, so neither branch overflows
    t = np.exp(-np.abs(d))
    return np.where(d >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def _softmax(d: np.ndarray, axis: int) -> np.ndarray:
    e = np.exp(d - d.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def sigmoid(x: Tensor) -> Tensor:
    out = _sigmoid(x.data)

    def _bw(g):
        return (g * out * (1.0 - out),)

    return _node(out, (x,), _bw)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def _bw(g):
        return (g * (1.0 - out * out),)

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
    arrays = [t.data for t in tensors]
    out = np.concatenate(arrays, axis=axis)
    sizes = [a.shape[axis] for a in arrays]
    splits = np.cumsum(sizes)[:-1]

    def _bw(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(out, tuple(tensors), _bw)


def reduce(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Sum over ``axis``: an int, a tuple, or None for all; numpy checks it."""
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def _bw(g):
        gg = g if keepdims or axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, x.data.shape).copy(),)

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
    ax = range(xd.ndim)[axis]
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
    out = _softmax(x.data, axis)

    def _bw(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return _node(out, (x,), _bw)


# ---------------------------------------------------------------------------
# linear algebra and convolution


def _fold(ad: np.ndarray, bd: np.ndarray) -> np.ndarray:
    """``ad @ bd`` for a 2-d ``bd`` as one GEMM over all of ad's leading axes;
    for a 2-d ``ad`` it is ``ad @ bd`` itself."""
    return (ad.reshape(-1, bd.shape[0]) @ bd).reshape(ad.shape[:-1] + bd.shape[1:])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast as in numpy."""
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ValueError(f"matmul expects operands of at least 2-d, got {ad.shape} and {bd.shape}")
    # numpy checks the batch axes; the folded GEMM below would hide this mismatch
    if ad.shape[-1] != bd.shape[-2]:
        raise ValueError(f"matmul inner extents differ: {ad.shape} vs {bd.shape}")
    inner, cols = bd.shape[-2:]
    # a 2-d right operand folds the stacked left one into a single GEMM each way
    folded = bd.ndim == 2 and ad.ndim > 2
    out = _fold(ad, bd) if folded else ad @ bd

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


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0,
           relu: bool = False, acc: Optional[Tensor] = None) -> Tensor:
    """Cross-correlate a channels-last (B, H, W, C) input with an (O, C, kh, kw)
    kernel and add the (O,) bias; the output is (B, oh, ow, O).

    The input is unrolled into (B*oh*ow, kh*kw*C) columns, so the forward and
    the weight gradient are one GEMM each over every output pixel of the batch.
    A 1x1 unpadded kernel reads its (strided) input itself as the columns.  The
    graph keeps no columns: the adjoint rebuilds them from the input's current
    values, as ``mul`` and ``matmul`` read their operands', and drops them
    after its GEMM.

    ``relu=True`` clamps the output in place and masks the adjoint with
    ``out > 0`` (0 at the kink); ``acc`` adds an output-shaped tensor in place
    after the bias and takes the output gradient.  They do not combine.  An
    ``acc`` recorded by an op hands this node its parents and adjoint, which
    runs inside this one, so the graph does not keep its value: no adjoint
    reads it, and a chain of running sums keeps only the last.

    The input gradient is taken per kernel tap (u, v): one GEMM of the
    (pixels, O) output gradient against that tap's (C, O) block of the kernel
    matrix, transposed, gives the tap's (pixels, C) share.  Its rows that read
    the unpadded input are added into the span they read, so no column
    gradient or padded buffer is built, and a tap that reads only padding is
    skipped.  The stride-1 pointwise kernel's input gradient is one GEMM.
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
    if acc is not None and (relu or acc.shape != (batch, oh, ow, cout)):
        raise ValueError(
            f"conv2d acc must be {(batch, oh, ow, cout)} without relu, got {acc.shape}")

    # the kernel's rows run over (u, v, c), as the columns do
    wmat = wd.transpose(2, 3, 1, 0).reshape(kh * kw * cin, cout)
    out = _im2col(xd, kh, kw, s, p) @ wmat
    out += bd
    # parents past (x, w, b) and their adjoint from the output gradient
    tail, tail_bw = (), lambda g: ()
    if acc is not None:
        out += acc.data.reshape(-1, cout)
        if acc._backward_fn is None:
            tail, tail_bw = (acc,), lambda g: (g,)
        else:
            tail, tail_bw = acc._parents, acc._backward_fn
    # the closure must hold neither acc nor a non-relu output, or the values
    # this node spares would stay reachable
    relu_out = np.maximum(out, 0.0, out=out) if relu else None

    def _bw(g):
        g2 = g.reshape(-1, cout)
        if relu_out is not None:
            g2 = g2 * (relu_out > 0)
        gx = gw = gb = None
        if w.requires_grad:
            gw = (_im2col(xd, kh, kw, s, p).T @ g2).reshape(kh, kw, cin, cout).transpose(3, 2, 0, 1)
        if b.requires_grad:
            gb = g2.sum(axis=0)
        if x.requires_grad:
            if kh == kw == 1 and p == 0 and s == 1:
                gx = (g2 @ wmat.T).reshape(xd.shape)
            else:
                gx = np.zeros_like(xd)
                taps = wmat.reshape(kh, kw, cin, cout)
                rows, spans = _tap_spans(kh, height, oh, s, p), _tap_spans(kw, width, ow, s, p)
                for (u, oi, yi), (v, oj, xj) in itertools.product(rows, spans):
                    tap = (g2 @ taps[u, v].T).reshape(batch, oh, ow, cin)
                    gx[:, yi, xj] += tap[:, oi, oj]
        return (gx, gw, gb, *tail_bw(g))

    return _node(out.reshape(batch, oh, ow, cout), (x, w, b, *tail), _bw)


def _im2col(xd: np.ndarray, kh: int, kw: int, s: int, p: int) -> np.ndarray:
    """(B*oh*ow, kh*kw*C) columns of a channels-last input, running over
    (u, v, c); a 1x1 unpadded kernel reads its (strided) input itself, which
    at stride 1 is a free reshape."""
    if kh == kw == 1 and p == 0:
        return xd[:, ::s, ::s].reshape(-1, xd.shape[3])
    xp = np.pad(xd, ((0, 0), (p, p), (p, p), (0, 0)))
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::s, ::s]
    return np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(-1, kh * kw * xd.shape[3])


def _tap_spans(k_n: int, n: int, out_n: int, s: int, p: int) -> list:
    """(offset, output slice, input slice) along one axis for every kernel
    offset that reads the unpadded extent ``n``; offsets reading only padding
    are left out."""
    spans = []
    for k in range(k_n):
        # output index i reads input index i*s + k - p
        i0 = max(0, -((k - p) // s))
        i1 = min(out_n, (n - 1 + p - k) // s + 1)
        if i0 < i1:
            y0 = i0 * s + k - p
            spans.append((k, slice(i0, i1), slice(y0, y0 + s * (i1 - i0 - 1) + 1, s)))
    return spans


# ---------------------------------------------------------------------------
# selection (not differentiated)


def topk_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries along the last axis, ties toward the lower index.

    Leading axes are independent rows, so one call selects for every row.  The
    result equals the first k of a stable descending argsort: ``np.partition``
    finds each row's k-th value, every entry above it is taken, then the
    lowest-index entries equal to it, and only those k are sorted.
    """
    if values.ndim < 1:
        raise ValueError("topk_indices expects at least a 1-d array")
    n = values.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for length {n}")
    neg = -values.reshape(-1, n)
    kth = np.partition(neg, k - 1, axis=-1)[:, k - 1 : k]
    # with k = n the sort is all the work; NaN sorts last but equals nothing
    if k == n or np.isnan(kth).any():
        order = np.argsort(neg, axis=-1, kind="stable")[:, :k]
    else:
        above = neg < kth
        ties = neg == kth
        ties &= np.cumsum(ties, axis=-1) <= k - above.sum(axis=-1, keepdims=True)
        picks = np.nonzero(above | ties)[1].reshape(-1, k)
        rank = np.argsort(np.take_along_axis(neg, picks, axis=-1), axis=-1, kind="stable")
        order = np.take_along_axis(picks, rank, axis=-1)
    return order.reshape(values.shape[:-1] + (k,)).astype(np.int64)


# ---------------------------------------------------------------------------
# engine


def _released(g):
    raise ValueError("graph already back-propagated; build a new graph for another backward")


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
        # frees what only the closure held while the pass runs
        t._backward_fn = _released


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
