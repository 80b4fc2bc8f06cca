"""Segmentation model: small conv encoder, coupling decode loop, linear head.

The encoder is a fixed stack of 3x3 convolution + relu stages: one stride-2
stage per entry of ``encoder_widths``, so the downsample factor f is
2 ** len(encoder_widths), then a final stride-1 stage.  It runs
channels-last: the (B, 3, H, W) images are turned into (B, H, W, 3) once,
and every activation after that is (B, h, w, C), so each convolution is one
GEMM over all pixels of the batch and adds its bias inside ``conv2d``.  Each
stage output is projected to c_feat by a 1x1 convolution as soon as it is
computed, strided down to the aggregation scale H/f x W/f (the strided
stages come first, so no stage is coarser), and summed into the
(B, H', W', c_feat) base feature map.  ``conv2d`` applies the relu and adds
the running sum in place, and each projection takes over the previous sum's
node, so the graph is one ``conv2d`` node per stage and one for the sum.

Decoding reshapes the base map to contiguous (B, P, c_feat) pixel features
without a transpose, broadcasts a learnable, input-independent embedding table
shared by all images to (B, N, c_class), and runs the coupling layer L times on
the whole batch.  The head scores pixels against the final embeddings
projected by ``head.weight``, through the layers' own ``class_scores``.  It
has no bias: a query bias b adds feats[p] . b to every category's score at
pixel p alike, which the softmax cancels.  Those logits, like every layer's
scores, are the prediction at H/f x W/f.  ``predict`` repeats their argmax
over each f x f block.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .checkpoint import copy_named
from .coupling import CouplingParams, class_scores, coupling_forward, uniform_init
from .tensor import Tensor, conv2d, matmul, no_grad, reshape, swapaxes

# guards each heatmap region's weight normalizer against an all-cold region
TOPK_EPS = 1e-6


@dataclass
class ModelConfig:
    """The model's share of ``RunConfig``; its fields carry the same names."""

    num_categories: int
    c_feat: int
    c_class: int
    decoder_layers: int
    encoder_widths: Tuple[int, ...]
    topk_ratio: float

    def __post_init__(self):
        self.encoder_widths = tuple(self.encoder_widths)
        errors = []
        # labels are stored as uint8
        if not 2 <= self.num_categories <= 256:
            errors.append(f"num_categories must be in [2, 256], got {self.num_categories}")
        if self.c_feat < 4 or self.c_class < 4:
            errors.append("c_feat and c_class must be >= 4")
        if self.decoder_layers < 0:
            errors.append(f"decoder_layers must be >= 0, got {self.decoder_layers}")
        if not self.encoder_widths:
            errors.append("encoder_widths needs at least one stride-2 stage, got none")
        if not 0.0 < self.topk_ratio <= 1.0:
            errors.append(f"topk_ratio must be in (0, 1], got {self.topk_ratio}")
        if errors:
            raise ValueError("; ".join(errors))

    @property
    def downsample_factor(self) -> int:
        """Input extent over coupled-grid extent: one halving per stride-2 stage."""
        return 2 ** len(self.encoder_widths)

    @property
    def stage_plan(self) -> List[Tuple[int, int]]:
        """(width, stride) per encoder stage, strided stages first."""
        plan = [(w, 2) for w in self.encoder_widths]
        plan.append((self.c_feat, 1))
        return plan


@dataclass
class ModelOutput:
    logits: Tensor                       # (B, N, H', W'), pre-softmax
    scores_per_layer: List[Tensor]       # each (B, N, H', W'); the heat is their sigmoid
    embeddings_per_layer: List[Tensor]   # each (B, N, c_class), post-update


class SegModel:
    """Parameters plus forward logic; construction is deterministic in (config, seed)."""

    def __init__(self, config: ModelConfig, seed: int, dtype=np.float64):
        self.config = config
        rng = np.random.default_rng(seed)
        self.dtype = np.dtype(dtype)

        self.enc_weights: List[Tuple[Tensor, Tensor]] = []
        cin = 3
        for width, _stride in config.stage_plan:
            self.enc_weights.append(uniform_init(rng, cin * 9, (width, cin, 3, 3), width, dtype))
            cin = width

        self.proj_weights: List[Tuple[Tensor, Tensor]] = [
            uniform_init(rng, width, (config.c_feat, width, 1, 1), config.c_feat, dtype)
            for width, _stride in config.stage_plan
        ]

        # the embedding table is not a projection; a moderate fixed scale keeps
        # the query/head products responsive at small learning rates
        self.embeddings = Tensor(
            rng.uniform(-0.5, 0.5, size=(config.num_categories, config.c_class)).astype(dtype),
            requires_grad=True,
        )

        self.layers: List[CouplingParams] = [
            CouplingParams.initialize(config.c_feat, config.c_class, rng, dtype=dtype)
            for _ in range(config.decoder_layers)
        ]

        self.head_w, _ = uniform_init(
            rng, config.c_class, (config.c_class, config.c_feat), config.c_feat, dtype
        )

    # ----- parameter plumbing -----

    def named_parameters(self) -> List[Tuple[str, Tensor]]:
        out: List[Tuple[str, Tensor]] = []
        for i, (w, b) in enumerate(self.enc_weights):
            out.append((f"encoder.stage{i}.weight", w))
            out.append((f"encoder.stage{i}.bias", b))
        for i, (w, b) in enumerate(self.proj_weights):
            out.append((f"encoder.proj{i}.weight", w))
            out.append((f"encoder.proj{i}.bias", b))
        out.append(("embeddings", self.embeddings))
        for i, layer in enumerate(self.layers):
            out.extend(layer.named(f"layers.{i}"))
        out.append(("head.weight", self.head_w))
        return out

    def load_arrays(self, arrays: dict) -> None:
        """Copy named arrays into the parameters; shapes must match exactly."""
        copy_named(arrays, [(name, p.data) for name, p in self.named_parameters()])

    # ----- forward pieces -----

    def encoder_forward(self, images: Tensor) -> Tensor:
        if images.ndim != 4 or images.shape[1] != 3:
            raise ValueError(f"expected images shaped (B, 3, H, W), got {images.shape}")
        height, width = images.shape[2], images.shape[3]
        f = self.config.downsample_factor
        if height % f or width % f:
            raise ValueError(f"image extents {(height, width)} not divisible by {f}")
        target = height // f

        # center [0, 1] inputs so the first stage sees a signed signal, then
        # go channels-last: (B, 3, H, W) -> (B, H, W, 3)
        h = swapaxes(swapaxes(2.0 * images - 1.0, 1, 3), 1, 2)
        agg = None
        stages = zip(self.enc_weights, self.proj_weights, self.config.stage_plan)
        for (w, b), (pw, pb), (_width, stride) in stages:
            h = conv2d(h, w, b, stride, 1, relu=True)
            # projected at once, so under no_grad one stage output is alive at a time
            agg = conv2d(h, pw, pb, stride=h.shape[1] // target, acc=agg)
        return agg

    def decode(self, base: Tensor):
        """Run the coupling layers on the batch as stacked (B, P, c_feat) features.

        ``base`` is the channels-last (B, H', W', c_feat) encoder output, so
        the features are a plain C-contiguous reshape of it.

        Returns the final features and embeddings, then per layer the raw
        scores as (B, N, H', W') maps and the updated (B, N, c_class)
        embeddings.
        """
        batch, hh, ww, c_feat = base.shape
        ratio = self.config.topk_ratio
        feats = reshape(base, (batch, hh * ww, c_feat))
        # adding zeros broadcasts the shared table; the adjoint sums the batch back
        emb = self.embeddings + np.zeros((batch, 1, 1))

        maps = (batch, self.config.num_categories, hh, ww)
        scores_layers: List[Tensor] = []
        emb_layers: List[Tensor] = []
        for layer in self.layers:
            # scores come as (B, P, N)
            feats, emb, scores = coupling_forward(feats, emb, layer, ratio, TOPK_EPS)
            scores_layers.append(reshape(swapaxes(scores, 1, 2), maps))
            emb_layers.append(emb)
        return feats, emb, scores_layers, emb_layers

    def output_head(self, feats: Tensor, emb: Tensor, hh: int, ww: int) -> Tensor:
        """(B, N, H', W') logits on the coupled grid from (B, P, c_feat) features."""
        # (B, P, N) scores keep the features' adjoint C-contiguous
        z = swapaxes(class_scores(feats, matmul(emb, self.head_w)), 1, 2)
        return reshape(z, (z.shape[0], z.shape[1], hh, ww))

    def forward(self, images: Tensor) -> ModelOutput:
        base = self.encoder_forward(images)
        hh, ww = base.shape[1], base.shape[2]
        feats, emb, scores_layers, emb_layers = self.decode(base)
        return ModelOutput(
            logits=self.output_head(feats, emb, hh, ww),
            scores_per_layer=scores_layers,
            embeddings_per_layer=emb_layers,
        )

    def readout(self, logits: np.ndarray) -> np.ndarray:
        """(B, H, W) category map: the argmax of the (B, N, H', W') coupled-grid
        logits, ties resolved toward the lower index, repeated over each
        factor x factor block."""
        f = self.config.downsample_factor
        return np.argmax(logits, axis=1).repeat(f, axis=1).repeat(f, axis=2)

    def predict(self, images: np.ndarray) -> np.ndarray:
        """The ``readout`` of a forward on (B, 3, H, W) images in [0, 1]."""
        if images.dtype == np.uint8:
            raise ValueError("predict takes images in [0, 1]; scale a raster with data.to_unit")
        with no_grad():
            out = self.forward(Tensor(images.astype(self.dtype, copy=False)))
        return self.readout(out.logits.data)
