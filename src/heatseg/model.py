"""Segmentation model: small conv encoder, coupling decode loop, linear head.

The encoder is a fixed stack of 3x3 convolution + relu stages; the first
log2(downsample_factor) stages use stride 2 and the final stage stride 1.  It
runs channels-last: the (B, 3, H, W) images are turned into (B, H, W, 3) once,
and every activation after that is (B, h, w, C), so each convolution is one
GEMM over all pixels of the batch and adds its bias inside ``conv2d``.  Every
stage output is projected to c_feat by a 1x1 convolution, strided down to the
aggregation scale H/factor x W/factor (the strided stages come first, so no
stage is coarser), then summed into the (B, H', W', c_feat) base feature map.

Decoding reshapes the base map to contiguous (B, P, c_feat) pixel features
without a transpose, broadcasts a learnable, input-independent embedding table
shared by all images to (B, N, c_class), and runs the coupling layer L times on
the whole batch.  The head scores pixels against projected final embeddings
on the coupled grid; those logits, like every layer's scores, are the
prediction at H/factor x W/factor.  ``predict`` repeats their argmax over each
factor x factor block.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .checkpoint import copy_named
from .coupling import CouplingParams, TopKConfig, coupling_forward, uniform_init
from .tensor import (
    Tensor,
    conv2d,
    matmul,
    no_grad,
    relu,
    reshape,
    swapaxes,
)


@dataclass
class ModelConfig:
    """The model's share of ``RunConfig``; its fields carry the same names."""

    num_categories: int
    c_feat: int
    c_class: int
    decoder_layers: int
    encoder_widths: Tuple[int, ...]
    downsample_factor: int
    topk_ratio: float
    topk_eps: float

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
        f = self.downsample_factor
        if f < 2 or (f & (f - 1)) != 0:
            errors.append(f"downsample_factor must be a power of two >= 2, got {f}")
        else:
            stride2 = int(math.log2(f))
            if len(self.encoder_widths) != stride2:
                errors.append(
                    f"encoder_widths needs {stride2} entries for factor {f}, "
                    f"got {len(self.encoder_widths)}"
                )
        try:
            self.topk()
        except ValueError as e:
            errors.append(str(e))
        if errors:
            raise ValueError("; ".join(errors))

    @property
    def stage_plan(self) -> List[Tuple[int, int]]:
        """(width, stride) per encoder stage, strided stages first."""
        plan = [(w, 2) for w in self.encoder_widths]
        plan.append((self.c_feat, 1))
        return plan

    def topk(self) -> TopKConfig:
        return TopKConfig(ratio=self.topk_ratio, eps=self.topk_eps)


@dataclass
class ModelOutput:
    logits: Tensor                       # (B, N, H', W'), pre-softmax
    scores_per_layer: List[Tensor]       # each (B, N, H', W'), raw heat scores
    heat_per_layer: List[Tensor]         # each (B, N, H', W'), sigmoid heat
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

        self.head_w, self.head_b = uniform_init(
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
        out.append(("head.bias", self.head_b))
        return out

    def parameters(self) -> List[Tensor]:
        return [p for _, p in self.named_parameters()]

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

        stage_outs = []
        # center [0, 1] inputs so the first stage sees a signed signal, then
        # go channels-last: (B, 3, H, W) -> (B, H, W, 3)
        h = swapaxes(swapaxes(2.0 * images - 1.0, 1, 3), 1, 2)
        for (w, b), (_width, stride) in zip(self.enc_weights, self.config.stage_plan):
            h = relu(conv2d(h, w, b, stride, 1))
            stage_outs.append(h)

        agg = None
        for (w, b), stage in zip(self.proj_weights, stage_outs):
            proj = conv2d(stage, w, b, stride=stage.shape[1] // target)
            agg = proj if agg is None else agg + proj
        return agg

    def decode(self, base: Tensor):
        """Run the coupling layers on the batch as stacked (B, P, c_feat) features.

        ``base`` is the channels-last (B, H', W', c_feat) encoder output, so
        the features are a plain C-contiguous reshape of it.

        Returns the final features and embeddings, then per layer the scores
        and heat as (B, N, H', W') maps and the updated (B, N, c_class)
        embeddings.
        """
        batch, hh, ww, c_feat = base.shape
        topk = self.config.topk()
        feats = reshape(base, (batch, hh * ww, c_feat))
        # adding zeros broadcasts the shared table; the adjoint sums the batch back
        emb = self.embeddings + np.zeros((batch, 1, 1))

        maps = (batch, self.config.num_categories, hh, ww)
        scores_layers: List[Tensor] = []
        heat_layers: List[Tensor] = []
        emb_layers: List[Tensor] = []
        for layer in self.layers:
            # scores come as (B, P, N), the heat already as (B, N, P) rows
            feats, emb, scores, heat = coupling_forward(feats, emb, layer, topk)
            scores_layers.append(reshape(swapaxes(scores, 1, 2), maps))
            heat_layers.append(reshape(heat, maps))
            emb_layers.append(emb)
        return feats, emb, scores_layers, heat_layers, emb_layers

    def output_head(self, feats: Tensor, emb: Tensor, hh: int, ww: int) -> Tensor:
        """(B, N, H', W') logits on the coupled grid from (B, P, c_feat) features."""
        queries = matmul(emb, self.head_w) + self.head_b
        # (B, P, N) scores keep the features' adjoint C-contiguous
        z = swapaxes(matmul(feats, swapaxes(queries, 1, 2)), 1, 2)
        return reshape(z, (z.shape[0], z.shape[1], hh, ww))

    def forward(self, images: Tensor) -> ModelOutput:
        base = self.encoder_forward(images)
        hh, ww = base.shape[1], base.shape[2]
        feats, emb, scores_layers, heat_layers, emb_layers = self.decode(base)
        return ModelOutput(
            logits=self.output_head(feats, emb, hh, ww),
            scores_per_layer=scores_layers,
            heat_per_layer=heat_layers,
            embeddings_per_layer=emb_layers,
        )

    def predict(self, images: np.ndarray) -> np.ndarray:
        """(B, H, W) category map: the argmax of the coupled-grid logits, ties
        resolved toward the lower index, repeated over each factor x factor block."""
        with no_grad():
            out = self.forward(Tensor(images.astype(self.dtype, copy=False)))
        f = self.config.downsample_factor
        return np.argmax(out.logits.data, axis=1).repeat(f, axis=1).repeat(f, axis=2)
