"""Adam parameter updates with bias correction, and the cosine decay schedule."""
from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .tensor import Tensor


class AdamState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self, params: Sequence[Tensor]):
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0


# the moment decay rates and the denominator guard
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


def adam_step(
    params: Sequence[Tensor],
    grads: Sequence[Optional[np.ndarray]],
    state: AdamState,
    lr: float,
) -> AdamState:
    """Apply one in-place Adam update; a missing gradient counts as zero."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params, grads and state must have matching lengths")
    state.t += 1
    c1 = 1.0 - _BETA1 ** state.t
    c2 = 1.0 - _BETA2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g is None:
            g = np.zeros_like(p.data)
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * (g * g)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + _EPS)
    return state


def cosine_lr(step: int, total: int, lr0: float) -> float:
    """Half-cosine decay from lr0 at step 0 down to 0 at step == total."""
    if total <= 0:
        raise ValueError("total steps must be positive")
    if not 0 <= step <= total:
        raise ValueError(f"step {step} outside [0, {total}]")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * step / total))


def zero_grad(params: Sequence[Tensor]) -> None:
    for p in params:
        p.grad = None
