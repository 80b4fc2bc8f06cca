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

Three pieces of a layer are one graph node each, with a closed-form adjoint
given in its docstring: the gated embedding update (``gated_update``), the
modulation scale (``affine_params``) and the pixel mix with its softmax and
blend (``modulate_and_fuse``).  They evaluate the numpy expressions of the
ops they replace, so forward values equal the op chain's bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .tensor import (
    Tensor,
    _fold,
    _node,
    _sigmoid,
    _softmax,
    _unbroadcast,
    gather,
    matmul,
    mul,
    reduce,
    reshape,
    sigmoid,
    swapaxes,
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


def class_scores(feats: Tensor, queries: Tensor) -> Tensor:
    """(..., P, N) scores of (..., P, c_feat) pixels against (..., N, c_feat)
    queries, the category embeddings projected to feature space; heatmaps are
    their sigmoid."""
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
    """Convex per-category blend of old embedding and pooled context.

    With gate = sigmoid([emb_prev, contexts] @ w_gate + b_gate), the update
    (1 - gate) * emb_prev + gate * contexts is one graph node.  For an output
    gradient g its adjoint is

        dz = (sum_c g * contexts - sum_c g * emb_prev) * gate * (1 - gate),
        d [emb_prev, contexts] = [g * (1 - gate), g * gate] + dz @ w_gate^T,
        d w_gate = [emb_prev, contexts]^T @ dz,   d b_gate = sum dz.

    The gate comes back as a Tensor outside the graph.
    """
    e, c, w = emb_prev.data, contexts.data, w_gate.data
    stacked = np.concatenate([e, c], axis=-1)
    gate = _sigmoid(_fold(stacked, w) + b_gate.data)
    keep = 1.0 - gate

    def _bw(g):
        d_gate = (g * c).sum(axis=-1, keepdims=True) - (g * e).sum(axis=-1, keepdims=True)
        dz = d_gate * gate * keep
        dz2 = dz.reshape(-1, 1)
        d_stacked = (dz2 @ w.T).reshape(stacked.shape)
        width = e.shape[-1]
        return (g * keep + d_stacked[..., :width], g * gate + d_stacked[..., width:],
                stacked.reshape(-1, w.shape[0]).T @ dz2, _unbroadcast(dz, b_gate.shape))

    updated = _node(keep * e + gate * c, (emb_prev, contexts, w_gate, b_gate), _bw)
    return updated, Tensor(gate)


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
    """Per-category modulation: scale strictly in (0, 2), unconstrained shift.

    The scale 1 + shrink * tanh(emb @ w_scale + b_scale), shrink = 1 - guard,
    is one graph node.  With t its tanh and dz = g * shrink * (1 - t^2) for an
    output gradient g, the adjoint is

        d emb = dz @ w_scale^T,   d w_scale = emb^T @ dz,   d b_scale = sum dz.
    """
    e, w = emb.data, w_scale.data
    shrink = 1.0 - _scale_guard(e.dtype)
    t = np.tanh(_fold(e, w) + b_scale.data)

    def _bw(g):
        dz = g * shrink * (1.0 - t * t)
        dz2 = dz.reshape(-1, w.shape[1])
        return ((dz2 @ w.T).reshape(e.shape), e.reshape(-1, w.shape[0]).T @ dz2,
                _unbroadcast(dz, b_scale.shape))

    gamma = _node(1.0 + shrink * t, (emb, w_scale, b_scale), _bw)
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

        feats * (soft @ scale) + soft @ shift,
        scale = alpha + (1 - alpha) * gamma,   shift = (1 - alpha) * beta.

    The scalar blend thus acts on the small (..., N, c_feat) scale and shift,
    and no (..., P, N, c_feat) intermediate is formed.  The whole mix, softmax
    and blend included, is one graph node holding one (..., P, c_feat) value;
    for an output gradient g its adjoint recomputes the N-term soft @ scale:

        d feats = g * (soft @ scale),   d soft = g @ shift^T + (g * feats) @ scale^T,
        d scale = soft^T @ (g * feats), d shift = soft^T @ g,
        d gamma = (1 - alpha) * d scale,   d beta = (1 - alpha) * d shift,
        d scores = (d soft - sum_n d soft * soft) * soft,
        d blend = (sum d scale - sum d shift * beta - sum d scale * gamma) * alpha * (1 - alpha).
    """
    f, gam, bet = feats.data, gamma.data, beta.data
    s, alpha = _softmax(scores.data, -1), _sigmoid(blend.data)
    keep = 1.0 - alpha
    a, b = alpha + keep * gam, keep * bet

    def _bw(g):
        gf, s_t = g * f, np.swapaxes(s, -1, -2)
        d_soft = _unbroadcast(g @ np.swapaxes(b, -1, -2) + gf @ np.swapaxes(a, -1, -2), s.shape)
        d_scale, d_shift = _unbroadcast(s_t @ gf, a.shape), _unbroadcast(s_t @ g, b.shape)
        d_keep = _unbroadcast(d_shift * bet, ()) + _unbroadcast(d_scale * gam, ())
        d_alpha = _unbroadcast(d_scale, ()) - d_keep
        return (_unbroadcast(g * (s @ a), f.shape),
                _unbroadcast(d_scale * keep, gam.shape), _unbroadcast(d_shift * keep, bet.shape),
                (d_soft - (d_soft * s).sum(axis=-1, keepdims=True)) * s,
                d_alpha * alpha * (1.0 - alpha))

    return _node(f * (s @ a) + s @ b, (feats, gamma, beta, scores, blend), _bw)


def coupling_forward(feats: Tensor, emb: Tensor, params: CouplingParams, ratio: float, eps: float):
    """One full layer pass; returns (feats_out, emb_out, scores).

    feats is (B, P, c_feat) and emb (B, N, c_class); the raw scores come back
    as (B, P, N), and their sigmoid is the layer's heat.  Each category channel
    pools its ``region_size(ratio, P)`` hottest pixels, normalized with
    ``eps``: the ``topk_ratio`` key and ``model.TOPK_EPS``.
    """
    scores = class_scores(feats, matmul(emb, params.w_query) + params.b_query)
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
