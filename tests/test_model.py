"""Model assembly tests: config validation, output shapes, determinism of
construction, and the parameter load path."""
import numpy as np
import pytest

from heatseg import model as model_module
from heatseg.coupling import coupling_forward, region_size
from heatseg.config import RunConfig
from heatseg.losses import total_loss
from heatseg.model import SegModel
from heatseg.tensor import Tensor, ancestors_in_order, softmax_axis


def small_config(**overrides):
    kw = dict(
        num_categories=3,
        c_feat=12,
        c_class=6,
        decoder_layers=2,
        encoder_widths=(6, 8),
    )
    kw.update(overrides)
    return RunConfig(**kw).model_config()


def images(batch=2, size=16, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=(batch, 3, size, size))


class TestConfig:
    def test_valid_config_passes(self):
        cfg = small_config()
        assert cfg.stage_plan == [(6, 2), (8, 2), (12, 1)]

    def test_errors_are_collected_and_joined(self):
        with pytest.raises(ValueError) as exc:
            small_config(num_categories=1, topk_ratio=0.0)
        msg = str(exc.value)
        assert "num_categories" in msg and "topk_ratio" in msg

    def test_width_count_must_match_factor(self):
        # the factor is derived: one stride-2 stage per width
        assert small_config(encoder_widths=(6,)).downsample_factor == 2
        assert small_config(encoder_widths=(6, 8, 8)).downsample_factor == 8
        with pytest.raises(ValueError, match="encoder_widths needs at least one"):
            small_config(encoder_widths=())

    def test_negative_layer_count_rejected(self):
        with pytest.raises(ValueError, match="decoder_layers"):
            small_config(decoder_layers=-1)

    def test_ratio_range_checked(self):
        with pytest.raises(ValueError, match="topk_ratio"):
            small_config(topk_ratio=0.0)


class TestForwardShapes:
    def test_output_shapes(self):
        model = SegModel(small_config(), seed=0)
        out = model.forward(Tensor(images()))
        assert out.logits.shape == (2, 3, 4, 4)
        assert len(out.scores_per_layer) == 2
        for scores in out.scores_per_layer:
            assert scores.shape == (2, 3, 4, 4)
        for emb in out.embeddings_per_layer:
            assert emb.shape == (2, 3, 6)

    def test_features_enter_coupling_contiguous(self, monkeypatch):
        seen = []

        def recording(feats, *args):
            seen.append(feats.data)
            return coupling_forward(feats, *args)

        monkeypatch.setattr(model_module, "coupling_forward", recording)
        SegModel(small_config(), seed=20).forward(Tensor(images()))
        # (B, P, c_feat) with P = 4 * 4 coupled-grid pixels
        assert seen[0].shape == (2, 16, 12) and seen[0].flags.c_contiguous

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batched_predict_equals_per_image(self, dtype):
        # the convolutions run one GEMM over every pixel of the batch
        model = SegModel(small_config(), seed=21, dtype=dtype)
        x = images(batch=4, seed=14)
        single = np.concatenate([model.predict(x[i : i + 1]) for i in range(4)])
        np.testing.assert_array_equal(model.predict(x), single)

    def test_probabilities_sum_to_one(self):
        model = SegModel(small_config(), seed=1)
        out = model.forward(Tensor(images(seed=2)))
        probs = softmax_axis(out.logits, axis=1).data
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_zero_layer_decode_skips_coupling(self):
        model = SegModel(small_config(decoder_layers=0), seed=3)
        out = model.forward(Tensor(images(seed=3)))
        assert out.scores_per_layer == [] and out.embeddings_per_layer == []
        assert out.logits.shape == (2, 3, 4, 4)

    def test_single_layer_runs(self):
        model = SegModel(small_config(decoder_layers=1), seed=4)
        out = model.forward(Tensor(images(seed=4)))
        assert len(out.scores_per_layer) == 1

    def test_predict_repeats_one_label_per_block(self):
        model = SegModel(small_config(), seed=5)
        pred = model.predict(images(seed=5))
        blocks = pred.reshape(2, 4, 4, 4, 4)
        # every 4x4 block repeats one coupled-grid label
        assert np.all(blocks == blocks[:, :, :1, :, :1])

    def test_encoder_input_validation(self):
        model = SegModel(small_config(), seed=6)
        with pytest.raises(ValueError, match=r"\(B, 3, H, W\)"):
            model.encoder_forward(Tensor(np.zeros((2, 1, 16, 16))))
        with pytest.raises(ValueError, match="divisible"):
            model.encoder_forward(Tensor(np.zeros((2, 3, 18, 18))))

    def test_predict_is_repeated_low_resolution_argmax(self):
        model = SegModel(small_config(), seed=7)
        x = images(seed=8)
        pred = model.predict(x)
        out = model.forward(Tensor(x))
        low = np.argmax(out.logits.data, axis=1)
        np.testing.assert_array_equal(pred, low.repeat(4, axis=1).repeat(4, axis=2))
        assert pred.shape == (2, 16, 16) and np.issubdtype(pred.dtype, np.integer)

    def test_predict_breaks_ties_toward_lower_index(self):
        model = SegModel(small_config(), seed=10)
        # a zero head scores every category 0 everywhere
        model.head_w.data[...] = 0.0
        assert np.all(model.predict(images(seed=11)) == 0)

    def test_predict_rejects_an_unscaled_raster(self):
        model = SegModel(small_config(), seed=12)
        with pytest.raises(ValueError, match="to_unit"):
            model.predict(np.zeros((1, 3, 16, 16), dtype=np.uint8))

    def test_predict_builds_no_graph(self):
        model = SegModel(small_config(), seed=8)
        model.predict(images(seed=9))
        assert all(p.grad is None for _, p in model.named_parameters())


class TestParameters:
    def test_construction_is_deterministic_in_seed(self):
        a = SegModel(small_config(), seed=11)
        b = SegModel(small_config(), seed=11)
        c = SegModel(small_config(), seed=12)
        for (name, pa), (_, pb), (_, pc) in zip(
            a.named_parameters(), b.named_parameters(), c.named_parameters()
        ):
            np.testing.assert_array_equal(pa.data, pb.data, err_msg=name)
        assert any(
            not np.array_equal(pa.data, pc.data)
            for (_, pa), (_, pc) in zip(a.named_parameters(), c.named_parameters())
        )

    def test_named_parameters_are_unique_and_complete(self):
        model = SegModel(small_config(), seed=13)
        names = [n for n, _ in model.named_parameters()]
        assert len(names) == len(set(names))
        # 3 encoder stages and 3 projections at 2 arrays each, the embedding
        # table, 11 arrays per coupling layer, and the head weight: a head bias
        # would shift every category's score at a pixel alike, so it has none
        assert len(names) == 6 + 6 + 1 + 11 * 2 + 1
        assert "embeddings" in names and "head.weight" in names

    def test_load_arrays_roundtrip_and_errors(self):
        src = SegModel(small_config(), seed=14)
        dst = SegModel(small_config(), seed=15)
        arrays = {n: p.data.copy() for n, p in src.named_parameters()}
        dst.load_arrays(arrays)
        for (name, ps), (_, pd) in zip(src.named_parameters(), dst.named_parameters()):
            np.testing.assert_array_equal(ps.data, pd.data, err_msg=name)

        missing = dict(arrays)
        del missing["head.weight"]
        with pytest.raises(ValueError, match="missing array 'head.weight'"):
            SegModel(small_config(), seed=16).load_arrays(missing)

        bad = dict(arrays)
        bad["embeddings"] = np.zeros((2, 2))
        with pytest.raises(ValueError, match="'embeddings' has shape"):
            SegModel(small_config(), seed=17).load_arrays(bad)

    def test_dtype_follows_constructor(self):
        model = SegModel(small_config(), seed=18, dtype=np.float32)
        assert all(p.data.dtype == np.float32 for _, p in model.named_parameters())
        out = model.forward(Tensor(images(seed=10).astype(np.float32)))
        assert out.logits.dtype == np.float32

    @pytest.mark.parametrize("layers", [0, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_loss_graph_stays_in_model_dtype(self, dtype, layers):
        model = SegModel(small_config(decoder_layers=layers), seed=19, dtype=dtype)
        out = model.forward(Tensor(images(seed=12).astype(dtype)))
        labels = np.random.default_rng(13).integers(0, 3, size=(2, 16, 16))
        loss, _ = total_loss(out.logits, labels, out.scores_per_layer,
                             out.embeddings_per_layer, RunConfig())
        seen, stack = {id(loss)}, [loss]
        while stack:
            node = stack.pop()
            assert node.data.dtype == dtype, node
            for parent in node._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)

    def test_graph_keeps_one_pixel_feature_value_per_layer(self):
        # the base features plus one pixel mix node per coupling layer; no
        # other (B, P, c_feat) value is kept for backward
        layers = 3
        model = SegModel(small_config(decoder_layers=layers), seed=20)
        out = model.forward(Tensor(images(seed=14)))
        labels = np.random.default_rng(15).integers(0, 3, size=(2, 16, 16))
        loss, _ = total_loss(out.logits, labels, out.scores_per_layer,
                             out.embeddings_per_layer, RunConfig())
        held = [n for n in ancestors_in_order(loss) if n._parents and n.shape == (2, 16, 12)]
        assert len(held) == layers + 1

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_every_parameter_reaches_the_objective(self, seed):
        # a parameter the objective cannot see has a gradient of rounding noise,
        # which Adam scales up to steps of lr.  The default topk_ratio picks
        # K = 5 of 256 pixels; at K = 1 each b_query's gradient is eps-sized.
        config = RunConfig(num_categories=3, image_size=64, c_feat=8, c_class=4,
                           decoder_layers=2, encoder_widths=(4, 6))
        model = SegModel(config.model_config(), seed=seed)
        rng = np.random.default_rng(seed + 11)
        out = model.forward(Tensor(rng.uniform(0.0, 1.0, size=(2, 3, 64, 64))))
        labels = rng.integers(0, 3, size=(2, 64, 64))
        loss, _ = total_loss(out.logits, labels, out.scores_per_layer,
                             out.embeddings_per_layer, config)
        loss.backward()
        peak = {name: 0.0 if p.grad is None else np.abs(p.grad).max()
                for name, p in model.named_parameters()}
        floor = 1e-10 * max(peak.values())
        assert [name for name, g in peak.items() if g < floor] == []


class TestPrecision:
    """Float32 model gradients against float64 on identical inputs.

    Both models hold the same float32-representable parameters and images.
    Each parameter group's error max|g32 - g64| is scaled by the larger of its
    own largest float64 gradient and SHARE of the largest over all groups, so
    a group whose exact gradient is near zero does not decide it: at K = 1,
    each layer's ``b_query`` (eps-sized).  Measured at seeds 0-5 of these
    shapes: at most 2.46e-5 (``layers.1.b_context``, 64², ratio 0.001, seed 2),
    so TOL leaves a margin of 4x.
    """

    SHARE = 1e-2
    TOL = 1e-4

    @staticmethod
    def gradients(config, dtype, params, images, labels):
        model = SegModel(config.model_config(), seed=0, dtype=dtype)
        for (_, p), (_, src) in zip(model.named_parameters(), params):
            p.data[...] = src.data
        out = model.forward(Tensor(images.astype(dtype)))
        loss, _ = total_loss(out.logits, labels, out.scores_per_layer,
                             out.embeddings_per_layer, config)
        loss.backward()
        return {name: p.grad.astype(np.float64) for name, p in model.named_parameters()}

    # the default topk_ratio picks K = 5 of 256 pixels at 64², and K = 1 at 16²
    @pytest.mark.parametrize("size, ratio, k", [(64, 0.02, 5), (64, 0.001, 1), (16, 0.02, 1)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_float32_gradients_match_float64(self, size, ratio, k, seed):
        # the tests' tiny config, with two coupling layers
        config = RunConfig(num_categories=3, image_size=size, c_feat=8, c_class=4,
                           decoder_layers=2, encoder_widths=(4, 6), topk_ratio=ratio)
        assert region_size(ratio, (size // config.model_config().downsample_factor) ** 2) == k
        params = SegModel(config.model_config(), seed=seed, dtype=np.float32).named_parameters()
        rng = np.random.default_rng(seed + 11)
        imgs = rng.uniform(0.0, 1.0, size=(2, 3, size, size)).astype(np.float32)
        labels = rng.integers(0, 3, size=(2, size, size))
        g32 = self.gradients(config, np.float32, params, imgs, labels)
        g64 = self.gradients(config, np.float64, params, imgs, labels)
        floor = self.SHARE * max(np.abs(g).max() for g in g64.values())
        errors = {name: np.abs(g32[name] - g).max() / max(np.abs(g).max(), floor)
                  for name, g in g64.items()}
        worst = max(errors, key=errors.get)
        assert errors[worst] <= self.TOL, (worst, errors[worst])
