"""Semantic segmentation with heatmap-coupled class embeddings.

The package is self-contained: a small reverse-mode tensor core, the coupling
layer that exchanges information between per-category embeddings and pixel
features through class heatmaps, the surrounding model, losses, metrics, a
deterministic synthetic dataset, and a CLI.  Every adjoint is covered by
finite-difference checks (``heatseg gradcheck``).
"""
from .coupling import CouplingParams, coupling_forward
from .losses import (
    LabelCounts,
    ce_dice_loss,
    fisher_loss,
    heatmap_loss,
    label_counts,
    total_loss,
)
from .metrics import ConfusionMatrix, summarize
from .model import ModelConfig, ModelOutput, SegModel
from .tensor import Tensor, backward, no_grad

__version__ = "0.1.0"

__all__ = [
    "ConfusionMatrix",
    "CouplingParams",
    "LabelCounts",
    "ModelConfig",
    "ModelOutput",
    "SegModel",
    "Tensor",
    "backward",
    "ce_dice_loss",
    "coupling_forward",
    "fisher_loss",
    "heatmap_loss",
    "label_counts",
    "no_grad",
    "summarize",
    "total_loss",
    "__version__",
]
