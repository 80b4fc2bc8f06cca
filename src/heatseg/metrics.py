"""Confusion-matrix accumulation and the derived segmentation scores.

Rows index the true category, columns the predicted one.  Counts are int64
and add exactly, so sharded accumulation merges by summing matrices.
IoU and F1 are reported per category; categories never seen in either labels
or predictions (tp + fp + fn == 0) are left out of the means and reported as
null in JSON.
"""
from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np


class ConfusionMatrix:
    def __init__(self, num_categories: int):
        if num_categories < 2:
            raise ValueError(f"need at least 2 categories, got {num_categories}")
        self.num_categories = num_categories
        self.counts = np.zeros((num_categories, num_categories), dtype=np.int64)

    def accumulate(
        self,
        pred: np.ndarray,
        label: np.ndarray,
        ignore_index: Optional[int] = None,
    ) -> "ConfusionMatrix":
        pred = np.asarray(pred)
        label = np.asarray(label)
        if pred.shape != label.shape:
            raise ValueError(f"prediction shape {pred.shape} != label shape {label.shape}")
        n = self.num_categories
        if ignore_index is not None:
            keep = label != ignore_index
            pred, label = pred[keep], label[keep]
        else:
            pred, label = pred.ravel(), label.ravel()
        if pred.size == 0:
            return self
        if pred.min() < 0 or pred.max() >= n:
            raise ValueError(f"prediction value outside [0, {n})")
        if label.min() < 0 or label.max() >= n:
            raise ValueError(f"label value outside [0, {n})")
        # widened once, after ignore_index; int64 inputs are not copied
        flat = label.astype(np.int64, copy=False) * n + pred.astype(np.int64, copy=False)
        self.counts += np.bincount(flat, minlength=n * n).reshape(n, n)
        return self


def summarize(cm: ConfusionMatrix) -> Dict:
    """Mean IoU, overall accuracy, mean F1 and the per-category breakdown."""
    counts = cm.counts
    total = int(counts.sum())
    if total == 0:
        raise ValueError("confusion matrix is empty")
    tp = np.diag(counts).astype(np.float64)
    fp = counts.sum(axis=0).astype(np.float64) - tp
    fn = counts.sum(axis=1).astype(np.float64) - tp
    denom = tp + fp + fn
    seen = denom > 0
    # unseen categories divide by one and are reported as None
    ious = tp / np.where(seen, denom, 1.0)
    f1s = 2.0 * tp / np.where(seen, 2.0 * tp + fp + fn, 1.0)
    per_class: List[Dict] = [
        {"iou": float(iou), "f1": float(f1)} if ok else {"iou": None, "f1": None}
        for ok, iou, f1 in zip(seen, ious, f1s)
    ]
    return {
        "miou": float(np.mean(ious[seen])),
        "oa": float(tp.sum() / total),
        "mf1": float(np.mean(f1s[seen])),
        "per_class": per_class,
    }
