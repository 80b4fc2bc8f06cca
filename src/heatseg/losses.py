"""Training objective: cross entropy + dice on the final prediction, deep
heatmap supervision on every layer's raw scores, and a within/between scatter
ratio that pushes per-category embeddings apart across the batch.

The prediction and the layer scores stay on the coupled grid (H/f x W/f);
the labels come to them as per-block counts, built once per step.

The total is main + lambda_heatmap * heat term + lambda_fisher * scatter term.
Zero-weight terms still enter the graph; multiplying by an exact 0.0 adds
nothing to either the value or the gradients, so a zero-lambda run follows the
main-only trajectory bitwise while the terms remain available for logging.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .tensor import Tensor, exp, log, mul, reduce


@dataclass
class LossWeights:
    """The loss's share of ``RunConfig``; its fields carry the same names."""

    lambda_heatmap: float
    lambda_fisher: float
    fisher_eps: float
    ignore_index: Optional[int]

    def __post_init__(self):
        if self.lambda_heatmap < 0 or self.lambda_fisher < 0:
            raise ValueError("loss weights must be non-negative")
        if self.fisher_eps <= 0:
            raise ValueError("fisher_eps must be positive")


def _check_labels(labels: np.ndarray, num_categories: int, ignore_index) -> np.ndarray:
    """Validate the label map and return the scored-pixel mask."""
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    if ignore_index is None:
        scored = np.ones_like(labels, dtype=bool)
    else:
        scored = labels != ignore_index
    bad = scored & ((labels < 0) | (labels >= num_categories))
    if bad.any():
        raise ValueError(f"label value {labels[bad][0]} outside [0, {num_categories})")
    if not scored.any():
        raise ValueError("no scored pixels: every label is the ignore index")
    return scored


@dataclass(frozen=True)
class LabelCounts:
    """Label statistics of a batch on a score grid of H/f x W/f blocks.

    ``cnt[b, n, i, j]`` is the number of scored pixels of category n in block
    (i, j) of image b, ``valid[b, 0, i, j]`` the number of scored pixels in
    that block, and ``n_scored`` the number of scored pixels in the batch.
    """

    cnt: np.ndarray
    valid: np.ndarray
    n_scored: float


def label_counts(labels: np.ndarray, scores: Tensor, ignore_index: Optional[int] = None) -> LabelCounts:
    """Count the (B, H, W) labels into the blocks of a (B, N, h, w) score map.

    The counts take the dtype of ``scores``; H and W must be multiples of h
    and w by one common factor.
    """
    if scores.ndim != 4:
        raise ValueError(f"expected scores shaped (B, N, h, w), got {scores.shape}")
    batch, n, hh, ww = scores.shape
    if labels.ndim != 3 or labels.shape[0] != batch:
        raise ValueError(f"labels shape {labels.shape} does not match scores {scores.shape}")
    height, width = labels.shape[1:]
    if height % hh or width % ww or height // hh != width // ww:
        raise ValueError(
            f"label extents {labels.shape[1:]} not a multiple of "
            f"score extents {(hh, ww)} by one factor"
        )
    mask = _check_labels(labels, n, ignore_index)
    f = height // hh
    # flat (b, n, i, j) bin of every pixel; ignored pixels are never counted
    block = (np.arange(height) // f)[:, None] * ww + (np.arange(width) // f)[None, :]
    bins = (np.arange(batch)[:, None, None] * n + np.where(mask, labels, 0)) * (hh * ww) + block
    cnt = np.bincount(bins[mask], minlength=batch * n * hh * ww)
    cnt = cnt.reshape(batch, n, hh, ww).astype(scores.dtype)
    return LabelCounts(cnt, cnt.sum(axis=1, keepdims=True), float(mask.sum()))


def ce_dice_loss(scores: Tensor, counts: LabelCounts) -> Tensor:
    """Cross entropy plus soft dice of a (B, N, h, w) score map on its own grid.

    Equal to both losses on the scores nearest-upsampled to the label
    resolution, since upsampling repeats one value over each block: CE is
    -sum(cnt * log_softmax) / n_scored, and the dice overlap and prediction
    mass weight the softmax by the per-block category and scored-pixel
    counts.  Dice sums over the whole batch and averages over every category,
    so categories absent from both prediction mass and labels still
    contribute through the smoothing term of 1.  The per-pixel max is subtracted as
    a constant before exponentiation; that leaves the gradients exact while
    keeping the exponentials bounded.
    """
    if scores.shape != counts.cnt.shape:
        raise ValueError(f"scores {scores.shape} do not match label counts {counts.cnt.shape}")
    cnt = Tensor(counts.cnt)
    shifted = scores - Tensor(scores.data.max(axis=1, keepdims=True))
    log_p = shifted - log(reduce(exp(shifted), axis=1, kind="sum", keepdims=True))
    ce = reduce(mul(log_p, cnt), kind="sum") / -counts.n_scored

    p = exp(log_p)
    inter = reduce(mul(p, cnt), axis=(0, 2, 3), kind="sum")
    p_sum = reduce(mul(p, Tensor(counts.valid)), axis=(0, 2, 3), kind="sum")
    g_sum = counts.cnt.sum(axis=(0, 2, 3))
    dice = (2.0 * inter + 1.0) / (p_sum + (g_sum + 1.0))
    return ce + (1.0 - reduce(dice, kind="mean"))


def heatmap_loss(scores_per_layer: Sequence[Tensor], counts: LabelCounts) -> Tensor:
    """Deep supervision: CE plus dice of each layer's raw scores on the coupled
    grid, summed over one or more layers."""
    total = None
    for scores in scores_per_layer:
        term = ce_dice_loss(scores, counts)
        total = term if total is None else total + term
    return total


def fisher_loss(embeddings_per_layer: Sequence[Tensor], eps: float) -> Tensor:
    """Sum over one or more layers of within-category over between-category scatter.

    Embeddings come in as (B, N, C).  Within: mean squared distance of each
    sample's category embedding to the category mean, averaged over B * N.
    Between: mean squared distance of category means to their overall mean,
    averaged over N.  A batch of identical embeddings gives an exact zero when
    the mean reduction is exact (batches of 2 and 4); larger batches sit at
    the square of the unit roundoff because the accumulation order rounds.
    """
    total = None
    for emb in embeddings_per_layer:
        if emb.ndim != 3:
            raise ValueError(f"expected embeddings shaped (B, N, C), got {emb.shape}")
        batch, n = emb.shape[0], emb.shape[1]
        cat_means = reduce(emb, axis=0, kind="mean")          # (N, C)
        overall = reduce(cat_means, axis=0, kind="mean")      # (C,)
        within_dev = emb - cat_means
        s_w = reduce(mul(within_dev, within_dev), kind="sum") / float(batch * n)
        between_dev = cat_means - overall
        s_b = reduce(mul(between_dev, between_dev), kind="sum") / float(n)
        term = s_w / (s_b + eps)
        total = term if total is None else total + term
    return total


def total_loss(
    logits: Tensor,
    labels: np.ndarray,
    scores_per_layer: Sequence[Tensor],
    embeddings_per_layer: Sequence[Tensor],
    weights: LossWeights,
) -> Tuple[Tensor, Dict[str, float]]:
    """Combined objective and a float breakdown for logging.

    ``logits`` and every layer's scores share the coupled grid, so the label
    counts are built once and serve every CE + dice term.
    """
    counts = label_counts(labels, logits, weights.ignore_index)
    main = ce_dice_loss(logits, counts)
    if scores_per_layer:
        heat = heatmap_loss(scores_per_layer, counts)
        fisher = fisher_loss(embeddings_per_layer, weights.fisher_eps)
    else:
        # with no layers both terms are zero, in the logits' dtype: a float64
        # zero would promote the whole single-precision graph
        heat = fisher = Tensor(np.zeros((), dtype=logits.dtype))
    total = main + weights.lambda_heatmap * heat + weights.lambda_fisher * fisher
    parts = {
        "l_total": total.item(),
        "l_main": main.item(),
        "l_hm": heat.item(),
        "l_fd": fisher.item(),
    }
    return total, parts
