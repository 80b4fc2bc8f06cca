"""Loss tests.

Label counts, cross entropy + dice and the scatter ratio are checked against
slow per-element reference loops written independently of the library code;
cross entropy + dice also gets hand worked examples, and the coupled-grid
form is checked against the same loss on nearest-upsampled scores (upsampled
by repeat matrices, A @ z @ A^T).  The scatter ratio's one-node adjoint is
checked against the same ratio built from generic ops.  The
combination rules (layer summation, weighting, exact behavior at zero
weights) are checked structurally.
"""
import numpy as np
import pytest

from heatseg.config import ConfigError, RunConfig, parse_run_config
from heatseg.losses import (
    ce_dice_loss,
    fisher_loss,
    heatmap_loss,
    label_counts,
    total_loss,
)
from heatseg.model import SegModel
from heatseg.tensor import Tensor, ancestors_in_order, div, matmul, mul, reduce, sub


def rand(shape, seed=0, lo=-2.0, hi=2.0):
    return np.random.default_rng(seed).uniform(lo, hi, size=shape)


def rand_labels(shape, n, seed=0):
    return np.random.default_rng(seed).integers(0, n, size=shape).astype(np.int64)


# ---------------------------------------------------------------------------
# reference loops


def ce_oracle(logits, labels, ignore=None):
    b, _n, h, w = logits.shape
    total, count = 0.0, 0
    for bi in range(b):
        for y in range(h):
            for x in range(w):
                lab = int(labels[bi, y, x])
                if ignore is not None and lab == ignore:
                    continue
                z = logits[bi, :, y, x]
                z = z - z.max()
                total += np.log(np.exp(z).sum()) - z[lab]
                count += 1
    return total / count


def fisher_oracle(emb, eps):
    b, n, _c = emb.shape
    mu_n = emb.mean(axis=0)
    mu = mu_n.mean(axis=0)
    s_w = float(((emb - mu_n) ** 2).sum()) / (b * n)
    s_b = float(((mu_n - mu) ** 2).sum()) / n
    return s_w / (s_b + eps)


def fisher_op_chain(embeddings, eps):
    # the scatter ratio from generic ops, each mean a sum over its count
    total = None
    for emb in embeddings:
        b, n, _c = emb.shape
        mu_n = reduce(emb, axis=0) / float(b)
        mu = reduce(mu_n, axis=0) / float(n)
        within, between = sub(emb, mu_n), sub(mu_n, mu)
        s_w = reduce(mul(within, within)) / float(b * n)
        s_b = reduce(mul(between, between)) / float(n)
        term = div(s_w, s_b + eps)
        total = term if total is None else total + term
    return total


# ---------------------------------------------------------------------------
# label counts


class TestLabelCounts:
    def test_matches_reference_loop(self):
        labels = rand_labels((2, 8, 8), 3, 20)
        labels[1, 2:5, 1:7] = 255
        counts = label_counts(labels, Tensor(np.zeros((2, 3, 4, 4))), ignore_index=255)
        cnt = np.zeros((2, 3, 4, 4))
        for bi in range(2):
            for y in range(8):
                for x in range(8):
                    if labels[bi, y, x] != 255:
                        cnt[bi, labels[bi, y, x], y // 2, x // 2] += 1
        np.testing.assert_array_equal(counts.cnt, cnt)
        np.testing.assert_array_equal(counts.valid, cnt.sum(axis=1, keepdims=True))
        assert counts.n_scored == float((labels != 255).sum())

    def test_factor_one_counts_are_the_one_hot_labels(self):
        labels = rand_labels((2, 4, 4), 3, 21)
        counts = label_counts(labels, Tensor(np.zeros((2, 3, 4, 4), dtype=np.float32)))
        one_hot = labels[:, None] == np.arange(3)[None, :, None, None]
        np.testing.assert_array_equal(counts.cnt, one_hot)
        assert counts.cnt.dtype == np.float32 and counts.n_scored == 32.0


# ---------------------------------------------------------------------------
# cross entropy + dice; the hand cases run at factor 1, where the counts are
# the one-hot labels, and expect the sum of both reference values


def softmax_oracle(logits):
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def dice_oracle(probs, labels, ignore=None, smooth=1.0):
    b, n, h, w = probs.shape
    inter, p_sum, g_sum = np.zeros(n), np.zeros(n), np.zeros(n)
    for bi in range(b):
        for y in range(h):
            for x in range(w):
                lab = int(labels[bi, y, x])
                if ignore is not None and lab == ignore:
                    continue
                p_sum += probs[bi, :, y, x]
                inter[lab] += probs[bi, lab, y, x]
                g_sum[lab] += 1
    return 1.0 - float(np.mean((2 * inter + smooth) / (p_sum + g_sum + smooth)))


def ce_dice(logits, labels, ignore=None):
    z = Tensor(logits)
    return ce_dice_loss(z, label_counts(labels, z, ignore)).item()


class TestCrossEntropy:
    def test_matches_reference_loop(self):
        logits = rand((2, 3, 4, 4), 1)
        labels = rand_labels((2, 4, 4), 3, 2)
        expected = ce_oracle(logits, labels) + dice_oracle(softmax_oracle(logits), labels)
        assert abs(ce_dice(logits, labels) - expected) < 1e-12

    def test_ignore_index_excludes_pixels(self):
        logits = rand((1, 3, 4, 4), 3)
        labels = rand_labels((1, 4, 4), 3, 4)
        labels[0, :2, :] = 255
        expected = ce_oracle(logits, labels, ignore=255)
        expected += dice_oracle(softmax_oracle(logits), labels, ignore=255)
        assert abs(ce_dice(logits, labels, 255) - expected) < 1e-12

    def test_perfect_prediction_approaches_zero(self):
        # one-hot probabilities give CE 0 and per-category dice (2g+1)/(2g+1)
        labels = rand_labels((1, 2, 2), 3, 5)
        logits = np.full((1, 3, 2, 2), -50.0)
        for y in range(2):
            for x in range(2):
                logits[0, labels[0, y, x], y, x] = 50.0
        assert ce_dice(logits, labels) < 1e-12

    def test_large_logits_stay_finite(self):
        logits = rand((1, 3, 2, 2), 6) * 1000.0
        labels = rand_labels((1, 2, 2), 3, 7)
        assert np.isfinite(ce_dice(logits, labels))

    def test_label_validation(self):
        scores = Tensor(rand((1, 3, 2, 2), 8))
        with pytest.raises(ValueError, match="outside"):
            label_counts(np.full((1, 2, 2), 3, dtype=np.int64), scores)
        with pytest.raises(ValueError, match="integers"):
            label_counts(np.zeros((1, 2, 2)), scores)
        with pytest.raises(ValueError, match="labels shape"):
            label_counts(np.zeros((2, 2, 2), dtype=np.int64), scores)
        with pytest.raises(ValueError, match="no scored pixels"):
            label_counts(np.full((1, 2, 2), 9, dtype=np.int64), scores, ignore_index=9)


class TestDice:
    def test_hand_worked_example(self):
        probs = np.array([[[[0.8, 0.6], [0.3, 0.1]], [[0.2, 0.4], [0.7, 0.9]]]])
        labels = np.array([[[0, 1], [1, 1]]], dtype=np.int64)
        # CE: mean negative log of the labelled probabilities 0.8, 0.4, 0.7, 0.9
        ce = -(np.log(0.8) + np.log(0.4) + np.log(0.7) + np.log(0.9)) / 4
        # category 0: overlap 0.8, masses 1.8 and 1; category 1: overlap 2.0,
        # masses 2.2 and 3; smoothing 1 on both sides of each ratio
        d0 = (2 * 0.8 + 1) / (1.8 + 1 + 1)
        d1 = (2 * 2.0 + 1) / (2.2 + 3 + 1)
        expected = ce + 1.0 - (d0 + d1) / 2.0
        assert abs(ce_dice(np.log(probs), labels) - expected) < 1e-12

    def test_perfect_one_hot_prediction_scores_near_zero(self):
        labels = rand_labels((2, 4, 4), 3, 9)
        logits = np.full((2, 3, 4, 4), -50.0)
        for bi in range(2):
            for y in range(4):
                for x in range(4):
                    logits[bi, labels[bi, y, x], y, x] = 50.0
        assert ce_dice(logits, labels) < 0.05

    def test_ignored_pixels_leave_all_sums(self):
        labels = np.array([[[0, 1], [255, 255]]], dtype=np.int64)
        got = ce_dice(np.zeros((1, 2, 2, 2)), labels, 255)
        # probabilities 0.5: CE log 2; per category overlap 0.5, prediction
        # mass 1.0, label mass 1.0
        expected = np.log(2.0) + 1.0 - (2 * 0.5 + 1) / (1.0 + 1.0 + 1)
        assert abs(got - expected) < 1e-12

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError, match=r"\(B, N, h, w\)"):
            label_counts(np.zeros((1, 2, 2), dtype=np.int64), Tensor(np.zeros((2, 2))))
        counts = label_counts(rand_labels((1, 4, 4), 3, 22), Tensor(np.zeros((1, 3, 2, 2))))
        with pytest.raises(ValueError, match="do not match label counts"):
            ce_dice_loss(Tensor(np.zeros((1, 3, 4, 4))), counts)


class TestCoupledGrid:
    """The loss on the coupled grid equals the loss on the upsampled scores."""

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("ignore", [None, 255])
    def test_matches_upsampled_scores_at_factor_one(self, dtype, tol, ignore):
        labels = rand_labels((3, 12, 12), 4, 23)
        if ignore is not None:
            labels[0, :5, :] = ignore
            labels[2, 3:9, 4:10] = ignore
        z = Tensor(rand((3, 4, 3, 3), 24, -4.0, 4.0).astype(dtype), requires_grad=True)

        low = ce_dice_loss(z, label_counts(labels, z, ignore))
        low.backward()
        g_low, z.grad = z.grad, None
        # A repeats each of the 3 rows 4 times: A @ z @ A^T upsamples exactly
        rows = Tensor(np.repeat(np.eye(3, dtype=dtype), 4, axis=0))
        up = matmul(matmul(rows, z), Tensor(rows.data.T))
        full = ce_dice_loss(up, label_counts(labels, up, ignore))
        full.backward()

        assert low.dtype == full.dtype == dtype
        assert abs(low.item() - full.item()) <= tol
        np.testing.assert_allclose(g_low, z.grad, rtol=0, atol=tol)


# ---------------------------------------------------------------------------
# heatmap supervision


class TestHeatmapLoss:
    def test_sums_per_layer_terms_built_from_public_pieces(self):
        labels = rand_labels((2, 8, 8), 3, 10)
        s1 = Tensor(rand((2, 3, 4, 4), 11))
        s2 = Tensor(rand((2, 3, 4, 4), 12))
        counts = label_counts(labels, s1)
        got = heatmap_loss([s1, s2], counts).item()
        expected = ce_dice_loss(s1, counts).item() + ce_dice_loss(s2, counts).item()
        assert abs(got - expected) < 1e-12

    def test_empty_layer_list_gives_zero(self):
        # with no layers total_loss supplies one zero, in the logits' dtype,
        # for the heatmap and scatter terms alike
        labels = rand_labels((1, 4, 4), 2, 9)
        for dtype in (np.float32, np.float64):
            logits = Tensor(rand((1, 2, 2, 2), 9).astype(dtype))
            loss, parts = total_loss(logits, labels, [], [], RunConfig())
            assert parts["l_hm"] == parts["l_fd"] == 0.0
            assert loss.dtype == dtype and parts["l_total"] == parts["l_main"]

    def test_extent_mismatch_raises(self):
        scores = Tensor(rand((1, 2, 4, 4), 13))
        with pytest.raises(ValueError, match="not a multiple"):
            label_counts(np.zeros((1, 9, 9), dtype=np.int64), scores)
        with pytest.raises(ValueError, match="one factor"):
            label_counts(np.zeros((1, 8, 12), dtype=np.int64), scores)
        counts = label_counts(np.zeros((1, 8, 8), dtype=np.int64), scores)
        with pytest.raises(ValueError, match="do not match"):
            heatmap_loss([scores, Tensor(rand((1, 2, 2, 2), 14))], counts)


# ---------------------------------------------------------------------------
# scatter ratio


class TestFisher:
    def test_worked_example(self):
        # two samples, two categories, one channel: values {0, 2} and {10, 12}
        # give within scatter 1 and between scatter 25
        emb = np.array([[[0.0], [10.0]], [[2.0], [12.0]]])
        got = fisher_loss([Tensor(emb)], eps=1e-6).item()
        assert abs(got - 1.0 / (25.0 + 1e-6)) < 1e-15

    def test_matches_reference_loop(self):
        emb = rand((4, 3, 5), 14)
        got = fisher_loss([Tensor(emb)], eps=1e-6).item()
        assert abs(got - fisher_oracle(emb, 1e-6)) < 1e-12

    def test_identical_batch_gives_exact_zero(self):
        # the category mean of identical rows reduces exactly at these sizes
        row = rand((3, 5), 15)
        for b in (2, 4):
            emb = np.stack([row] * b)
            assert fisher_loss([Tensor(emb)], eps=1e-6).item() == 0.0

    def test_identical_larger_batch_sits_at_rounding_floor(self):
        row = rand((3, 5), 15)
        for b in (3, 8):
            emb = np.stack([row] * b)
            assert fisher_loss([Tensor(emb)], eps=1e-6).item() < 1e-30

    def test_identical_category_means_divides_by_eps(self):
        # per-sample constants shift every category the same way, so the
        # between scatter is exactly zero and the ratio is within / eps
        emb = np.zeros((2, 2, 1))
        emb[0] = 0.0
        emb[1] = 2.0
        got = fisher_loss([Tensor(emb)], eps=1e-6).item()
        assert got == pytest.approx(1.0 / 1e-6, rel=1e-12)

    def test_translation_and_scale_invariance(self):
        emb = rand((3, 4, 6), 16)
        base = fisher_loss([Tensor(emb)], eps=1e-12).item()
        shifted = fisher_loss([Tensor(emb + 7.25)], eps=1e-12).item()
        scaled = fisher_loss([Tensor(emb * 3.5)], eps=1e-12).item()
        assert abs(shifted - base) < 1e-9
        assert abs(scaled - base) < 1e-9

    def test_layers_add(self):
        e1, e2 = rand((2, 3, 4), 17), rand((2, 3, 4), 18)
        single = (fisher_loss([Tensor(e1)], eps=1e-6).item()
                  + fisher_loss([Tensor(e2)], eps=1e-6).item())
        both = fisher_loss([Tensor(e1), Tensor(e2)], eps=1e-6).item()
        assert abs(both - single) < 1e-12

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("case", ["one_layer", "two_layers", "single_sample",
                                      "collapsed_means"])
    def test_gradient_matches_generic_op_chain(self, dtype, tol, case):
        # per-sample constants leave every category mean equal, so the ratio
        # divides by eps; one sample has zero within scatter and zero gradient
        collapsed = np.zeros((2, 3, 4))
        collapsed[1] = 2.0
        arrays = {
            "one_layer": [rand((4, 3, 5), 20)],
            "two_layers": [rand((4, 3, 5), 21), rand((2, 3, 5), 22)],
            "single_sample": [rand((1, 3, 5), 23)],
            "collapsed_means": [collapsed],
        }[case]
        grads = []
        for build in (fisher_loss, fisher_op_chain):
            embs = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
            (build(embs, 1e-6) * 0.7).backward()
            grads.append([e.grad for e in embs])
        for got, want in zip(*grads):
            assert got.dtype == dtype
            assert np.abs(got - want).max() <= tol * np.abs(want).max()
        if case == "single_sample":
            assert not grads[0][0].any()

    @pytest.mark.parametrize("layers", [1, 2, 4])
    def test_graph_is_one_node_per_layer_plus_the_adds(self, layers):
        embs = [Tensor(rand((3, 4, 5), 30 + i), requires_grad=True) for i in range(layers)]
        nodes = ancestors_in_order(fisher_loss(embs, eps=1e-6))
        leaves = [t for t in nodes if not t._parents]
        terms = [t for t in nodes if len(t._parents) == 1]
        adds = [t for t in nodes if len(t._parents) == 2]
        assert [id(t) for t in leaves] == [id(e) for e in embs]
        assert [id(t._parents[0]) for t in terms] == [id(e) for e in embs]
        assert len(adds) == layers - 1 and len(nodes) == 3 * layers - 1
        assert all(t._backward_fn.__qualname__.startswith("add.") for t in adds)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match=r"\(B, N, C\)"):
            fisher_loss([Tensor(np.zeros((2, 2)))], eps=1e-6)


# ---------------------------------------------------------------------------
# combination


def small_forward(seed=0):
    cfg = RunConfig(num_categories=3, c_feat=12, c_class=6, encoder_widths=(6, 8))
    model = SegModel(cfg.model_config(), seed=seed)
    images = np.random.default_rng(seed + 100).uniform(0, 1, size=(2, 3, 16, 16))
    labels = rand_labels((2, 16, 16), 3, seed + 200)
    return model, model.forward(Tensor(images)), labels


class TestTotalLoss:
    def test_parts_recombine_to_total(self):
        _, out, labels = small_forward(1)
        cfg = RunConfig(lambda_heatmap=0.3, lambda_fisher=0.7)
        loss, parts = total_loss(
            out.logits, labels, out.scores_per_layer, out.embeddings_per_layer, cfg
        )
        assert set(parts) == {"l_total", "l_main", "l_hm", "l_fd"}
        assert parts["l_total"] == pytest.approx(loss.item(), abs=0)
        recombined = parts["l_main"] + 0.3 * parts["l_hm"] + 0.7 * parts["l_fd"]
        assert abs(parts["l_total"] - recombined) < 1e-12

    def test_zero_weights_match_main_term_exactly(self):
        _, out, labels = small_forward(2)
        _, parts = total_loss(
            out.logits, labels, out.scores_per_layer, out.embeddings_per_layer,
            RunConfig(lambda_heatmap=0.0, lambda_fisher=0.0),
        )
        assert parts["l_total"] == parts["l_main"]
        assert parts["l_hm"] > 0.0 and parts["l_fd"] >= 0.0

    def test_zero_weight_gradients_equal_main_only_gradients(self):
        # the weighted terms stay in the graph at weight zero; their adjoint
        # contributions must vanish identically, not just approximately
        model_a, out_a, labels = small_forward(3)
        loss_a, _ = total_loss(
            out_a.logits, labels, out_a.scores_per_layer, out_a.embeddings_per_layer,
            RunConfig(lambda_heatmap=0.0, lambda_fisher=0.0),
        )
        loss_a.backward()

        model_b, out_b, _ = small_forward(3)
        loss_b = ce_dice_loss(out_b.logits, label_counts(labels, out_b.logits))
        # CE + dice is one node over the scores
        assert loss_b._parents == (out_b.logits,)
        loss_b.backward()

        for (name, pa), (_, pb) in zip(
            model_a.named_parameters(), model_b.named_parameters()
        ):
            ga = pa.grad if pa.grad is not None else np.zeros_like(pa.data)
            gb = pb.grad if pb.grad is not None else np.zeros_like(pb.data)
            np.testing.assert_array_equal(ga, gb, err_msg=name)

    def test_weight_validation(self):
        # total_loss reads its keys as given; parsing the config rejects bad ones
        with pytest.raises(ConfigError, match="'lambda_fisher' must be >= 0"):
            parse_run_config({"lambda_fisher": -0.1})
