"""Coupling layer tests.

The full layer is checked against a plain numpy re-derivation that mixes the
modulated variants pixel by pixel, so the factored implementation has an
independent oracle.  The smaller pieces get closed-form and boundary checks.
"""
import numpy as np
import pytest

from heatseg import tensor as T
from heatseg.coupling import (
    CouplingParams,
    TopKConfig,
    affine_params,
    class_heatmaps,
    coupling_forward,
    gated_update,
    modulate_and_fuse,
    normalize_region,
    pool_context,
    select_region,
)
from heatseg.tensor import Tensor


def make_params(c_feat, c_class, seed=0):
    return CouplingParams.initialize(c_feat, c_class, np.random.default_rng(seed))


def rand(shape, seed=0, lo=-1.0, hi=1.0):
    return np.random.default_rng(seed).uniform(lo, hi, size=shape)


# ---------------------------------------------------------------------------
# region selection


class TestTopKConfig:
    def test_k_rounds_half_away_from_zero(self):
        assert TopKConfig(ratio=0.02, eps=1e-6).k_for(100) == 2
        assert TopKConfig(ratio=0.5, eps=1e-6).k_for(5) == 3
        assert TopKConfig(ratio=0.25, eps=1e-6).k_for(10) == 3

    def test_k_is_at_least_one_and_at_most_all(self):
        assert TopKConfig(ratio=0.02, eps=1e-6).k_for(10) == 1
        assert TopKConfig(ratio=1.0, eps=1e-6).k_for(7) == 7

    def test_ratio_validation(self):
        with pytest.raises(ValueError, match="ratio"):
            TopKConfig(ratio=0.0, eps=1e-6)
        with pytest.raises(ValueError, match="ratio"):
            TopKConfig(ratio=1.5, eps=1e-6)
        with pytest.raises(ValueError, match="eps"):
            TopKConfig(ratio=0.5, eps=0.0)

    def test_select_region_prefers_lower_index_on_ties(self):
        channel = Tensor(np.array([0.9, 0.1, 0.9, 0.5]))
        region = select_region(channel, TopKConfig(ratio=0.5, eps=1e-6))
        np.testing.assert_array_equal(region, [0, 2])
        # stacked channels along the last axis each select on their own
        rows = Tensor(np.array([[[0.9, 0.1, 0.9, 0.5], [0.2, 0.7, 0.7, 0.7]]]))
        region = select_region(rows, TopKConfig(ratio=0.5, eps=1e-6))
        np.testing.assert_array_equal(region, [[[0, 2], [1, 2]]])


# ---------------------------------------------------------------------------
# heatmaps and normalization


class TestHeatmaps:
    def test_scores_and_sigmoid_closed_form(self):
        feats = Tensor(np.array([[1.0, 1.0]]))
        emb = Tensor(np.array([[2.0]]))
        w_query = Tensor(np.array([[0.5, 0.5]]))
        b_query = Tensor(np.zeros(2))
        scores, heat = class_heatmaps(feats, emb, w_query, b_query)
        np.testing.assert_allclose(scores.data, [[2.0]], atol=1e-15)
        np.testing.assert_allclose(heat.data, [[1.0 / (1.0 + np.exp(-2.0))]], atol=1e-15)

    def test_shapes_are_pixels_by_categories(self):
        feats = Tensor(rand((12, 5), 1))
        emb = Tensor(rand((3, 4), 2))
        scores, heat = class_heatmaps(feats, emb, Tensor(rand((4, 5), 3)), Tensor(rand(5, 4)))
        assert scores.shape == (12, 3) and heat.shape == (12, 3)
        assert np.all((heat.data > 0) & (heat.data < 1))

    def test_region_weights_sum_to_selected_over_total(self):
        channel = Tensor(rand((40,), 5, lo=0.01, hi=0.99))
        region = select_region(channel, TopKConfig(ratio=0.1, eps=1e-6))
        eps = 1e-6
        weights = normalize_region(channel, region, eps)
        s = float(channel.data[region].sum())
        assert abs(float(weights.data.sum()) - s / (s + eps)) <= 1e-12
        assert np.all(weights.data >= 0)


# ---------------------------------------------------------------------------
# pooling, gate, modulation


class TestPieces:
    def test_pool_context_matches_explicit_loop(self):
        feats = Tensor(rand((20, 6), 6))
        w_context, b_context = Tensor(rand((6, 4), 7)), Tensor(rand((4,), 8))
        region = np.array([3, 11, 17])
        weights = Tensor(np.array([0.5, 0.3, 0.2]))
        out = pool_context(feats, weights, region, w_context, b_context)
        expected = np.zeros(4)
        for w, i in zip((0.5, 0.3, 0.2), region):
            expected += w * (feats.data[i] @ w_context.data + b_context.data)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_gate_is_half_with_zero_weights(self):
        emb = Tensor(rand((3, 4), 9))
        ctx = Tensor(rand((3, 4), 10))
        updated, gate = gated_update(emb, ctx, Tensor(np.zeros((8, 1))), Tensor(np.zeros(1)))
        np.testing.assert_allclose(gate.data, 0.5, atol=1e-15)
        np.testing.assert_allclose(updated.data, 0.5 * (emb.data + ctx.data), atol=1e-15)

    def test_gate_endpoints_recover_inputs(self):
        emb = Tensor(rand((2, 3), 11))
        ctx = Tensor(rand((2, 3), 12))
        w = Tensor(np.zeros((6, 1)))
        toward_ctx, _ = gated_update(emb, ctx, w, Tensor(np.array([40.0])))
        np.testing.assert_allclose(toward_ctx.data, ctx.data, atol=1e-12)
        toward_emb, _ = gated_update(emb, ctx, w, Tensor(np.array([-40.0])))
        np.testing.assert_allclose(toward_emb.data, emb.data, atol=1e-12)

    def test_gated_update_is_componentwise_convex(self):
        emb = Tensor(rand((4, 5), 13))
        ctx = Tensor(rand((4, 5), 14))
        updated, gate = gated_update(emb, ctx, Tensor(rand((10, 1), 15)), Tensor(rand((1,), 16)))
        assert np.all((gate.data > 0) & (gate.data < 1))
        lo = np.minimum(emb.data, ctx.data)
        hi = np.maximum(emb.data, ctx.data)
        assert np.all(updated.data >= lo - 1e-12) and np.all(updated.data <= hi + 1e-12)

    def test_scale_stays_strictly_inside_zero_two(self):
        # the inputs saturate tanh in both precisions
        for dtype in (np.float64, np.float32):
            def t(a):
                return Tensor(np.asarray(a, dtype=dtype))

            emb = t([[-100.0, 100.0], [0.0, 3.0]])
            gamma, beta = affine_params(
                emb, t(rand((2, 3), 17, lo=-5, hi=5)), t(rand((3,), 18)),
                t(rand((2, 3), 19)), t(rand((3,), 20)),
            )
            assert gamma.dtype == dtype
            assert gamma.shape == (2, 3) and beta.shape == (2, 3)
            assert np.all((gamma.data > 0.0) & (gamma.data < 2.0)), dtype

    def test_fuse_keeps_features_when_blend_saturates(self):
        feats = Tensor(rand((10, 4), 21))
        gamma = Tensor(rand((3, 4), 22, lo=0.1, hi=1.9))
        beta = Tensor(rand((3, 4), 23))
        scores = Tensor(rand((10, 3), 24))
        out = modulate_and_fuse(feats, gamma, beta, scores, Tensor(np.asarray(40.0)))
        np.testing.assert_allclose(out.data, feats.data, atol=1e-12)

    def test_fuse_with_unit_scale_zero_shift_is_identity(self):
        # softmax weights sum to one per pixel, so modulating by gamma = 1 and
        # beta = 0 must reproduce the input for any blend value
        feats = Tensor(rand((10, 4), 25))
        gamma = Tensor(np.ones((3, 4)))
        beta = Tensor(np.zeros((3, 4)))
        scores = Tensor(rand((10, 3), 26))
        out = modulate_and_fuse(feats, gamma, beta, scores, Tensor(np.asarray(-1.3)))
        np.testing.assert_allclose(out.data, feats.data, atol=1e-12)

    def test_fuse_fold_matches_unfolded_blend(self):
        # alpha * feats + (1 - alpha) * mixed, and its adjoints, written out in
        # numpy; the layer folds alpha into the scale and shift instead
        b, p, n, c = 2, 10, 3, 4
        f, gam, bet = rand((b, p, c), 27), rand((b, n, c), 28, lo=0.1, hi=1.9), rand((b, n, c), 29)
        sc, raw, r = rand((b, p, n), 30, lo=-2, hi=2), 0.4, rand((b, p, c), 31)
        e = np.exp(sc - sc.max(axis=-1, keepdims=True))
        soft = e / e.sum(axis=-1, keepdims=True)
        alpha = 1.0 / (1.0 + np.exp(-raw))
        mixed = f * (soft @ gam) + soft @ bet
        ref = alpha * f + (1.0 - alpha) * mixed
        g_mixed = (1.0 - alpha) * r
        g_soft = (g_mixed * f) @ gam.swapaxes(1, 2) + g_mixed @ bet.swapaxes(1, 2)
        ref_grads = {
            "feats": alpha * r + g_mixed * (soft @ gam),
            "gamma": soft.swapaxes(1, 2) @ (g_mixed * f),
            "beta": soft.swapaxes(1, 2) @ g_mixed,
            "scores": soft * (g_soft - (g_soft * soft).sum(axis=-1, keepdims=True)),
            "blend": np.sum(r * (f - mixed)) * alpha * (1.0 - alpha),
        }
        leaves = {name: Tensor(a, requires_grad=True) for name, a in
                  (("feats", f), ("gamma", gam), ("beta", bet), ("scores", sc),
                   ("blend", np.asarray(raw)))}
        out = modulate_and_fuse(leaves["feats"], leaves["gamma"], leaves["beta"],
                                leaves["scores"], leaves["blend"])
        np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-12)
        T.reduce(T.mul(out, Tensor(r)), kind="sum").backward()
        for name, grad in ref_grads.items():
            assert leaves[name].grad.shape == np.shape(grad), name
            np.testing.assert_allclose(leaves[name].grad, grad, rtol=0, atol=1e-12, err_msg=name)


# ---------------------------------------------------------------------------
# whole layer


def layer_oracle(feats, emb, p, ratio, eps):
    """Re-derives one layer with per-pixel mixing, no factoring tricks.

    Scores come back as (P, N) and the heat as (N, P), as the layer gives them.
    """
    q = emb @ p.w_query.data + p.b_query.data
    scores = feats @ q.T
    heat = 1.0 / (1.0 + np.exp(-scores))
    pixels, n = scores.shape
    k = max(1, min(pixels, int(ratio * pixels + 0.5)))
    ctx = np.zeros_like(emb)
    for cat in range(n):
        idx = np.argsort(-heat[:, cat], kind="stable")[:k]
        sel = heat[idx, cat]
        weights = sel / (sel.sum() + eps)
        proj = feats[idx] @ p.w_context.data + p.b_context.data
        ctx[cat] = (weights[:, None] * proj).sum(axis=0)
    gate = 1.0 / (
        1.0 + np.exp(-(np.concatenate([emb, ctx], axis=1) @ p.w_gate.data + p.b_gate.data))
    )
    emb_new = (1.0 - gate) * emb + gate * ctx
    gamma = 1.0 + (1.0 - 1e-9) * np.tanh(emb_new @ p.w_scale.data + p.b_scale.data)
    beta = emb_new @ p.w_shift.data + p.b_shift.data
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    soft = e / e.sum(axis=1, keepdims=True)
    alpha = 1.0 / (1.0 + np.exp(-float(p.blend.data)))
    out = np.zeros_like(feats)
    for pi in range(pixels):
        mixed = np.zeros(feats.shape[1])
        for cat in range(n):
            mixed += soft[pi, cat] * (gamma[cat] * feats[pi] + beta[cat])
        out[pi] = alpha * feats[pi] + (1.0 - alpha) * mixed
    return out, emb_new, scores, heat.T


class TestFullLayer:
    def test_matches_per_pixel_oracle(self):
        p = make_params(5, 4, seed=3)
        feats = rand((30, 5), 30)
        emb = rand((3, 4), 31)
        cfg = TopKConfig(ratio=0.1, eps=1e-6)
        feats_out, emb_out, scores, heat = coupling_forward(
            Tensor(feats[None]), Tensor(emb[None]), p, cfg
        )
        ref_f, ref_e, ref_s, ref_h = layer_oracle(feats, emb, p, cfg.ratio, cfg.eps)
        np.testing.assert_allclose(scores.data[0], ref_s, atol=1e-10)
        np.testing.assert_allclose(heat.data[0], ref_h, atol=1e-10)
        np.testing.assert_allclose(emb_out.data[0], ref_e, atol=1e-10)
        np.testing.assert_allclose(feats_out.data[0], ref_f, atol=1e-10)

    def test_batch_matches_per_image_oracle(self):
        # distinct images and embeddings per sample, so any mixing across the
        # batch axis shows up against the one-image oracle
        p = make_params(5, 4, seed=8)
        feats = rand((3, 30, 5), 37)
        emb = rand((3, 3, 4), 38)
        cfg = TopKConfig(ratio=0.1, eps=1e-6)
        outs = coupling_forward(Tensor(feats), Tensor(emb), p, cfg)
        for b in range(3):
            refs = layer_oracle(feats[b], emb[b], p, cfg.ratio, cfg.eps)
            for name, got, ref in zip(("feats", "emb", "scores", "heat"), outs, refs):
                np.testing.assert_allclose(got.data[b], ref, rtol=0, atol=1e-12, err_msg=name)

    def test_pixel_permutation_equivariance(self):
        p = make_params(6, 4, seed=4)
        feats = rand((40, 6), 32)
        emb = rand((3, 4), 33)
        cfg = TopKConfig(ratio=0.2, eps=1e-6)
        out_a, emb_a, _, _ = coupling_forward(Tensor(feats[None]), Tensor(emb[None]), p, cfg)
        perm = np.random.default_rng(34).permutation(40)
        out_b, emb_b, _, _ = coupling_forward(
            Tensor(feats[perm][None]), Tensor(emb[None]), p, cfg
        )
        np.testing.assert_allclose(out_b.data[0], out_a.data[0][perm], atol=1e-10)
        np.testing.assert_allclose(emb_b.data, emb_a.data, atol=1e-10)

    def test_gradients_reach_every_parameter(self):
        p = make_params(5, 4, seed=5)
        feats = Tensor(rand((1, 25, 5), 35), requires_grad=True)
        emb = Tensor(rand((1, 3, 4), 36), requires_grad=True)
        feats_out, emb_out, _, _ = coupling_forward(feats, emb, p, TopKConfig(ratio=0.2, eps=1e-6))
        loss = T.reduce(T.mul(feats_out, feats_out), kind="sum") + T.reduce(emb_out, kind="sum")
        loss.backward()
        for name, param in p.named("layer"):
            assert param.grad is not None, f"{name} received no gradient"
            assert np.all(np.isfinite(param.grad)), f"{name} gradient is not finite"
        assert feats.grad is not None and emb.grad is not None

    def test_initialize_shapes_and_blend_start(self):
        p = make_params(8, 6, seed=6)
        assert p.w_query.shape == (6, 8) and p.w_context.shape == (8, 6)
        assert p.w_gate.shape == (12, 1) and p.blend.shape == ()
        # raw blend is the logit of the starting residual share
        assert abs(1.0 / (1.0 + np.exp(-float(p.blend.data))) - 0.9) < 1e-12

    def test_named_covers_all_fields(self):
        p = make_params(4, 4, seed=7)
        names = [n for n, _ in p.named("layers.0")]
        assert len(names) == 11
        assert names[0] == "layers.0.w_query" and names[-1] == "layers.0.blend"
