"""Bidirectional coupling between per-category embeddings and pixel features.

One layer runs on a whole batch at once: features are (B, P, c_feat) with
P = H' * W' pixels per image, embeddings are (B, N, c_class), and every piece
below treats its leading axes as independent batch axes.  A layer first scores
every pixel against every category embedding and squashes the scores into
per-category heatmaps.  Each heatmap picks its top-K pixels, whose normalized
heat weights pool a projected context vector; a scalar gate blends that
context into the embedding.  The updated embeddings then emit per-category
scale/shift pairs which modulate the features, and the modulated variants are
mixed back under softmax heat weights with a residual blend toward the
incoming features (folded into the scale and shift, see ``modulate_and_fuse``).

The heatmap is computed once per layer from the incoming features and
embeddings, and both directions reuse it; the feature update reads the
already-updated embeddings.  Top-K membership is fixed during backward while
gradients still flow through the selected heat values and features.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .tensor import (
    Tensor,
    _node,
    _unbroadcast,
    concat,
    gather,
    matmul,
    mul,
    reduce,
    reshape,
    sigmoid,
    softmax_axis,
    swapaxes,
    tanh,
    topk_indices,
)


def region_size(ratio: float, pixels: int) -> int:
    """Top-K size: the ``ratio`` share of ``pixels``, rounded half away from
    zero and clamped to [1, pixels]."""
    return max(1, min(pixels, int(ratio * pixels + 0.5)))


def uniform_init(rng: np.random.Generator, fan_in: int, shape, n_out: int, dtype):
    """A weight leaf drawn uniformly from +-1/sqrt(fan_in) and a zero (n_out,) bias leaf."""
    bound = 1.0 / np.sqrt(fan_in)
    w = rng.uniform(-bound, bound, size=shape).astype(dtype)
    b = np.zeros(n_out, dtype=dtype)
    return Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)


@dataclass
class CouplingParams:
    """Learnable state of one coupling layer.

    Weight matrices are stored (in, out) so projections read x @ w + b.
    ``blend`` is the raw residual scalar; its sigmoid is the effective
    share of the incoming features kept by the fusion step.
    """

    w_query: Tensor    # (c_class, c_feat), embeddings -> pixel-score queries
    b_query: Tensor    # (c_feat,)
    w_context: Tensor  # (c_feat, c_class), pooled features -> embedding space
    b_context: Tensor  # (c_class,)
    w_gate: Tensor     # (2 * c_class, 1)
    b_gate: Tensor     # (1,)
    w_scale: Tensor    # (c_class, c_feat)
    b_scale: Tensor    # (c_feat,)
    w_shift: Tensor    # (c_class, c_feat)
    b_shift: Tensor    # (c_feat,)
    blend: Tensor      # ()

    @classmethod
    def initialize(
        cls, c_feat: int, c_class: int, rng: np.random.Generator, dtype=np.float64
    ) -> "CouplingParams":
        def lin(n_in, n_out):
            return uniform_init(rng, n_in, (n_in, n_out), n_out, dtype)

        w_query, b_query = lin(c_class, c_feat)
        w_context, b_context = lin(c_feat, c_class)
        w_gate, b_gate = lin(2 * c_class, 1)
        w_scale, b_scale = lin(c_class, c_feat)
        w_shift, b_shift = lin(c_class, c_feat)
        # the fusion starts by keeping 0.9 of the incoming features
        raw = np.log(0.9 / (1.0 - 0.9))
        blend = Tensor(np.asarray(raw, dtype=dtype), requires_grad=True)
        return cls(
            w_query, b_query, w_context, b_context, w_gate, b_gate,
            w_scale, b_scale, w_shift, b_shift, blend,
        )

    def named(self, prefix: str) -> list:
        return [(f"{prefix}.{f.name}", getattr(self, f.name)) for f in fields(self)]


def class_scores(feats: Tensor, emb: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """(..., P, N) scores of (..., P, c_feat) pixels against (..., N, c_class)
    embeddings projected by ``w`` and ``b``; heatmaps are their sigmoid."""
    queries = matmul(emb, w) + b
    return matmul(feats, swapaxes(queries, -1, -2))


def normalize_region(heat: Tensor, region: np.ndarray, eps: float) -> Tensor:
    """In-region heat weights scaled by each channel's region total (plus eps).

    ``heat`` is (..., P) and ``region`` (..., K).  Off-region weights are
    identically zero and are never materialized; the result aligns with
    ``region``.
    """
    selected = gather(heat, region, axis=-1)
    denom = reduce(selected, axis=-1, keepdims=True) + eps
    return selected / denom


def pool_context(
    feats: Tensor,
    weights: Tensor,
    region: np.ndarray,
    w_context: Tensor,
    b_context: Tensor,
) -> Tensor:
    """Heat-weighted sum of projected region features.

    feats is (B, P, c_feat) and region (B, N, K), one row of K pixel indices
    per category, with weights aligned to it; the result is (B, N, c_class).
    Without the batch axis, (P, c_feat) features and a (K,) region give one
    (c_class,) context.
    """
    selected = gather(feats, region, axis=-2)
    projected = matmul(selected, w_context) + b_context
    weighted = mul(projected, reshape(weights, weights.shape + (1,)))
    return reduce(weighted, axis=-2)


def gated_update(emb_prev: Tensor, contexts: Tensor, w_gate: Tensor, b_gate: Tensor):
    """Convex per-category blend of old embedding and pooled context."""
    stacked = concat([emb_prev, contexts], axis=-1)
    gate = sigmoid(matmul(stacked, w_gate) + b_gate)
    updated = (1.0 - gate) * emb_prev + gate * contexts
    return updated, gate


# tanh saturates to exactly +-1 (float64 past |x| ~ 19), which would let the
# scale touch 0 or 2.  Shrinking by one part in 1e9 keeps the interval open in
# float64; float32 cannot represent 1 - 1e-9, so there the shrink is one ulp
# of 1.0 instead.
def _scale_guard(dtype) -> float:
    return max(1e-9, float(np.finfo(dtype).eps))


def affine_params(
    emb: Tensor,
    w_scale: Tensor,
    b_scale: Tensor,
    w_shift: Tensor,
    b_shift: Tensor,
):
    """Per-category modulation: scale strictly in (0, 2), unconstrained shift."""
    gamma = 1.0 + (1.0 - _scale_guard(emb.dtype)) * tanh(matmul(emb, w_scale) + b_scale)
    beta = matmul(emb, w_shift) + b_shift
    return gamma, beta


def modulate_and_fuse(
    feats: Tensor,
    gamma: Tensor,
    beta: Tensor,
    scores: Tensor,
    blend: Tensor,
) -> Tensor:
    """Mix per-category modulated features under softmax heat weights.

    The layer's output is alpha * feats + (1 - alpha) * mixed, with
    alpha = sigmoid(blend) the residual share and mixed[p] the category sum of
    soft[p, n] * (gamma_n * feats[p] + beta_n).  Each softmax row sums to one,
    so alpha * feats[p] = feats[p] * sum_n soft[p, n] * alpha, and the whole
    output factors exactly into

        feats * (soft @ (alpha + (1 - alpha) * gamma)) + soft @ ((1 - alpha) * beta).

    The scalar blend thus acts on the small (..., N, c_feat) scale and shift,
    and no (..., P, N, c_feat) intermediate is formed.  The pixel mix is one
    graph node holding one (..., P, c_feat) value; for an output gradient g its
    adjoint recomputes the N-term soft @ scale:

        d feats = g * (soft @ scale),   d soft = g @ shift^T + (g * feats) @ scale^T,
        d scale = soft^T @ (g * feats), d shift = soft^T @ g,

    each the numpy expression that mul, matmul and add evaluate, so value and
    gradients equal those of the unfused chain bit for bit.
    """
    soft = softmax_axis(scores, axis=-1)
    alpha = sigmoid(blend)
    keep = 1.0 - alpha
    scale = alpha + mul(keep, gamma)
    shift = mul(keep, beta)
    f, s, a, b = feats.data, soft.data, scale.data, shift.data

    def _bw(g):
        gf, s_t = g * f, np.swapaxes(s, -1, -2)
        d_soft = g @ np.swapaxes(b, -1, -2) + gf @ np.swapaxes(a, -1, -2)
        return (_unbroadcast(g * (s @ a), f.shape), _unbroadcast(d_soft, s.shape),
                _unbroadcast(s_t @ gf, a.shape), _unbroadcast(s_t @ g, b.shape))

    return _node(f * (s @ a) + s @ b, (feats, soft, scale, shift), _bw)


def coupling_forward(feats: Tensor, emb: Tensor, params: CouplingParams, ratio: float, eps: float):
    """One full layer pass; returns (feats_out, emb_out, scores).

    feats is (B, P, c_feat) and emb (B, N, c_class); the raw scores come back
    as (B, P, N), and their sigmoid is the layer's heat.  Each category channel
    pools its ``region_size(ratio, P)`` hottest pixels, normalized with
    ``eps``: the ``topk_ratio`` and ``topk_eps`` keys.
    """
    scores = class_scores(feats, emb, params.w_query, params.b_query)
    # one heat row per category channel, pixels last
    heat_rows = swapaxes(sigmoid(scores), -1, -2)
    region = topk_indices(heat_rows.data, region_size(ratio, heat_rows.shape[-1]))
    weights = normalize_region(heat_rows, region, eps)
    contexts = pool_context(feats, weights, region, params.w_context, params.b_context)

    emb_out, _ = gated_update(emb, contexts, params.w_gate, params.b_gate)
    gamma, beta = affine_params(
        emb_out, params.w_scale, params.b_scale, params.w_shift, params.b_shift
    )
    feats_out = modulate_and_fuse(feats, gamma, beta, scores, params.blend)
    return feats_out, emb_out, scores
