"""Training objective: cross entropy + dice on the final prediction, deep
heatmap supervision on every layer's raw scores, and a within/between scatter
ratio that pushes per-category embeddings apart across the batch.

The prediction and the layer scores stay on the coupled grid (H/f x W/f);
the labels come to them as per-block counts, built once per step.
Each CE + dice term and each layer's scatter ratio is one graph node with a
closed-form adjoint (see ``ce_dice_loss``, ``fisher_loss``); the CE's per-pixel
max shift is exact as log-softmax ignores a constant added to a pixel's scores.

The total is main + lambda_heatmap * heat term + lambda_fisher * scatter term.
Zero-weight terms still enter the graph; multiplying by an exact 0.0 adds
nothing to either the value or the gradients, so a zero-lambda run follows the
main-only trajectory bitwise while the terms remain available for logging.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .config import RunConfig
from .tensor import Tensor, _node, add

# guards each scatter ratio's denominator against coinciding category means
FISHER_EPS = 1e-6


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
    """Cross entropy plus soft dice of a (B, N, h, w) score map on its own grid,
    as one graph node over ``scores``.

    Equal to both losses on the scores nearest-upsampled to the label
    resolution, since upsampling repeats one value over each block: CE is
    -sum(cnt * log p) / n_scored for the softmax p, and dice per category is
    (2I + 1) / D with overlap I = sum(p * cnt) and D = sum(p * valid) +
    sum(cnt) + 1.  Dice sums over the whole batch and averages over the N
    categories, so a category absent from both prediction and labels still
    contributes through the smoothing term of 1.

    Subtracting the per-pixel max before exponentiation bounds the
    exponentials and is exact: log-softmax is unchanged by a constant added to
    one pixel's scores, so neither the value nor the adjoint depends on it.
    The adjoint is closed-form: (p * valid - cnt) / n_scored from CE, plus the
    dice gradient gp = -(2 cnt / D - (2I + 1) valid / D^2) / N pushed through
    the softmax Jacobian, p * (gp - sum_n p * gp).
    """
    if scores.shape != counts.cnt.shape:
        raise ValueError(f"scores {scores.shape} do not match label counts {counts.cnt.shape}")
    cnt, valid, n_scored = counts.cnt, counts.valid, counts.n_scored
    # scalars in the scores' dtype, so single precision stays single
    dtype = scores.dtype.type
    shifted = scores.data - scores.data.max(axis=1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    ce = (log_p * cnt).sum() / dtype(-n_scored)

    p = np.exp(log_p)
    inter = (p * cnt).sum(axis=(0, 2, 3))
    den = (p * valid).sum(axis=(0, 2, 3)) + (cnt.sum(axis=(0, 2, 3)) + 1.0)
    dice = (2.0 * inter + 1.0) / den
    out = ce + (dtype(1.0) - dice.mean())

    def _bw(g):
        d = den[:, None, None]
        gp = ((2.0 * inter[:, None, None] + 1.0) / d * valid - 2.0 * cnt) / (cnt.shape[1] * d)
        gz = (p * valid - cnt) / n_scored + p * (gp - (p * gp).sum(axis=1, keepdims=True))
        return (g * gz,)

    return _node(out, (scores,), _bw)


def heatmap_loss(scores_per_layer: Sequence[Tensor], counts: LabelCounts) -> Tensor:
    """Deep supervision: CE plus dice of each layer's raw scores on the coupled
    grid, summed over one or more layers."""
    return functools.reduce(add, (ce_dice_loss(s, counts) for s in scores_per_layer))


def fisher_loss(embeddings_per_layer: Sequence[Tensor], eps: float) -> Tensor:
    """Sum over one or more layers of within-category over between-category scatter.

    Embeddings come in as (B, N, C).  Within: mean squared distance of each
    sample's category embedding to the category mean, averaged over B * N.
    Between: mean squared distance of category means to their overall mean,
    averaged over N.  A batch of identical embeddings gives an exact zero when
    the mean reduction is exact (batches of 2 and 4); larger batches sit at
    the square of the unit roundoff because the accumulation order rounds.

    Each layer's r = s_w / (s_b + eps) is one graph node.  Deviations sum to
    zero over their own mean, so with mu the category means and mu_bar their
    mean, its adjoint is (2 (e - mu) - r * 2 (mu - mu_bar)) / (B N (s_b + eps)).
    """
    def term(emb: Tensor) -> Tensor:
        if emb.ndim != 3:
            raise ValueError(f"expected embeddings shaped (B, N, C), got {emb.shape}")
        count, n, dtype = emb.shape[0] * emb.shape[1], emb.shape[1], emb.dtype.type
        cat_means = emb.data.mean(axis=0)          # (N, C)
        within_dev = emb.data - cat_means
        between_dev = cat_means - cat_means.mean(axis=0)
        s_w = (within_dev * within_dev).sum() / dtype(count)
        den = (between_dev * between_dev).sum() / dtype(n) + dtype(eps)
        ratio = s_w / den

        def _bw(g):
            return (g * (2.0 / (count * den)) * (within_dev - ratio * between_dev),)

        return _node(ratio, (emb,), _bw)

    return functools.reduce(add, map(term, embeddings_per_layer))


def total_loss(
    logits: Tensor,
    labels: np.ndarray,
    scores_per_layer: Sequence[Tensor],
    embeddings_per_layer: Sequence[Tensor],
    cfg: RunConfig,
) -> Tuple[Tensor, Dict[str, float]]:
    """Combined objective and a float breakdown for logging.

    The run config supplies the loss keys: ``ignore_index`` marks unscored
    pixels, and ``lambda_heatmap`` and ``lambda_fisher`` weight the two
    auxiliary terms; the constant ``FISHER_EPS`` guards the scatter ratio.
    ``logits`` and every layer's scores share the coupled grid, so the label
    counts are built once and serve every CE + dice term.
    """
    counts = label_counts(labels, logits, cfg.ignore_index)
    main = ce_dice_loss(logits, counts)
    if scores_per_layer:
        heat = heatmap_loss(scores_per_layer, counts)
        fisher = fisher_loss(embeddings_per_layer, FISHER_EPS)
    else:
        # with no layers both terms are zero, in the logits' dtype: a float64
        # zero would promote the whole single-precision graph
        heat = fisher = Tensor(np.zeros((), dtype=logits.dtype))
    total = main + cfg.lambda_heatmap * heat + cfg.lambda_fisher * fisher
    parts = {
        "l_total": total.item(),
        "l_main": main.item(),
        "l_hm": heat.item(),
        "l_fd": fisher.item(),
    }
    return total, parts
