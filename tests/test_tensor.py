"""Tensor engine tests: forward values against numpy, adjoints against
central finite differences, and the bookkeeping rules of the graph walk."""
import inspect

import numpy as np
import pytest

from heatseg import coupling, gradcheck, losses
from heatseg import tensor as T
from heatseg.config import RunConfig
from heatseg.gradcheck import max_rel_err, numerical_grad, op_checks
from heatseg.model import SegModel


def rand(shape, seed=0, lo=-1.0, hi=1.0):
    return np.random.default_rng(seed).uniform(lo, hi, size=shape)


def leaf(shape, seed=0, lo=-1.0, hi=1.0):
    return T.Tensor(rand(shape, seed, lo, hi), requires_grad=True)


# ---------------------------------------------------------------------------
# forward values


class TestForward:
    def test_elementwise_matches_numpy(self):
        a, b = rand((3, 4), 1), rand((3, 4), 2, lo=0.5, hi=2.0)
        for op, ref in ((T.add, a + b), (T.sub, a - b), (T.mul, a * b), (T.div, a / b)):
            out = op(T.Tensor(a), T.Tensor(b))
            np.testing.assert_array_equal(out.data, ref)

    def test_broadcast_trailing_axis(self):
        a, b = rand((3, 4), 1), rand((4,), 2)
        np.testing.assert_array_equal((T.Tensor(a) + T.Tensor(b)).data, a + b)

    def test_incompatible_shapes_raise(self):
        # numpy's own error names both shapes
        with pytest.raises(ValueError, match=r"broadcast.*\(3,4\) \(2,4\)"):
            T.add(T.Tensor(np.zeros((3, 4))), T.Tensor(np.zeros((2, 4))))

    def test_python_scalar_keeps_operand_dtype(self):
        x = T.Tensor(np.ones((2, 2), dtype=np.float32))
        assert (x * 0.5).dtype == np.float32
        assert (2.0 - x).dtype == np.float32

    def test_sigmoid_closed_form_and_saturation(self):
        x = np.array([-800.0, -2.0, 0.0, 2.0, 800.0])
        out = T.sigmoid(T.Tensor(x)).data
        assert np.all(np.isfinite(out)) and np.all((out >= 0) & (out <= 1))
        np.testing.assert_allclose(out[1:4], 1.0 / (1.0 + np.exp(-x[1:4])), rtol=1e-15)

    def test_pointwise_reference_values(self):
        x = rand((5,), 3, lo=0.1, hi=2.0)
        np.testing.assert_allclose(T.tanh(T.Tensor(x)).data, np.tanh(x), rtol=1e-15)
        # relu is fused into conv2d; an identity 1x1 kernel passes x - 1 through
        one = T.Tensor(np.ones((1, 1, 1, 1)))
        got = T.conv2d(T.Tensor((x - 1.0).reshape(1, 1, 5, 1)), one, T.Tensor(np.zeros(1)),
                       relu=True)
        np.testing.assert_array_equal(got.data.reshape(5), np.maximum(x - 1.0, 0))

    def test_softmax_rows_sum_to_one_and_shift_invariance(self):
        x = rand((4, 6), 4, lo=-5, hi=5)
        out = T.softmax_axis(T.Tensor(x), axis=1).data
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        shifted = T.softmax_axis(T.Tensor(x + 100.0), axis=1).data
        np.testing.assert_allclose(out, shifted, atol=1e-12)

    def test_matmul_matches_numpy(self):
        a, b = rand((3, 5), 5), rand((5, 2), 6)
        np.testing.assert_allclose(T.matmul(T.Tensor(a), T.Tensor(b)).data, a @ b, rtol=1e-14)
        # stacked operands, with a 2-d weight and with broadcast batch axes
        s, w = rand((4, 3, 5), 7), rand((1, 5, 2), 8)
        np.testing.assert_allclose(T.matmul(T.Tensor(s), T.Tensor(b)).data, s @ b, rtol=1e-14)
        np.testing.assert_allclose(T.matmul(T.Tensor(s), T.Tensor(w)).data, s @ w, rtol=1e-14)
        np.testing.assert_allclose(T.matmul(T.Tensor(a), T.Tensor(w)).data, a @ w, rtol=1e-14)

    def test_matmul_shape_errors(self):
        with pytest.raises(ValueError, match="2-d"):
            T.matmul(T.Tensor(np.zeros(2)), T.Tensor(np.zeros((2, 2))))
        with pytest.raises(ValueError, match="inner extents"):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 2))))
        with pytest.raises(ValueError, match="broadcast"):
            T.matmul(T.Tensor(np.zeros((2, 2, 3))), T.Tensor(np.zeros((3, 3, 2))))

    def test_transpose_reshape_concat(self):
        a = rand((2, 3), 7)
        np.testing.assert_array_equal(T.swapaxes(T.Tensor(a), 0, 1).data, a.T)
        c = rand((2, 3, 4), 12)
        np.testing.assert_array_equal(T.swapaxes(T.Tensor(c), -1, 0).data, c.swapaxes(-1, 0))
        np.testing.assert_array_equal(T.reshape(T.Tensor(a), (3, 2)).data, a.reshape(3, 2))
        parts = [rand((2, 2), s) for s in (1, 2, 3)]
        out = T.concat([T.Tensor(p) for p in parts], axis=1)
        np.testing.assert_array_equal(out.data, np.concatenate(parts, axis=1))
        with pytest.raises(ValueError, match="at least one"):
            T.concat([], axis=0)

    def test_gather(self):
        a = rand((5, 3), 8)
        idx = np.array([0, 2, 2, 4])
        np.testing.assert_array_equal(T.gather(T.Tensor(a), idx, axis=0).data, a[idx])
        # batched over the leading axis, with extra index axes and trailing features
        b = rand((2, 5, 3), 9)
        bidx = np.array([[[0, 4], [2, 2]], [[1, 3], [3, 0]]])
        out = T.gather(T.Tensor(b), bidx, axis=1).data
        assert out.shape == (2, 2, 2, 3)
        for i in range(2):
            np.testing.assert_array_equal(out[i], b[i][bidx[i]])
        # along the last axis the result matches take_along_axis
        rows = rand((2, 3, 5), 10)
        ridx = np.array([[[4, 0], [1, 2], [3, 3]], [[0, 1], [2, 4], [4, 0]]])
        np.testing.assert_array_equal(
            T.gather(T.Tensor(rows), ridx, axis=-1).data,
            np.take_along_axis(rows, ridx, axis=-1),
        )
        with pytest.raises(ValueError, match="out of range"):
            T.gather(T.Tensor(a), np.array([5]), axis=0)
        with pytest.raises(ValueError, match="leading extents"):
            T.gather(T.Tensor(b), np.zeros((3, 2), dtype=np.int64), axis=1)
        with pytest.raises(ValueError, match="integer"):
            T.gather(T.Tensor(a), np.array([0.0]), axis=0)

    def test_reduce_matches_numpy(self):
        a = rand((2, 3, 4), 9)
        np.testing.assert_allclose(T.reduce(T.Tensor(a)).data, a.sum(), rtol=1e-14)
        np.testing.assert_allclose(
            T.reduce(T.Tensor(a), axis=(0, 2), keepdims=True).data,
            a.sum(axis=(0, 2), keepdims=True),
            rtol=1e-14,
        )
        with pytest.raises(ValueError, match="out of bounds"):
            T.reduce(T.Tensor(a), axis=3)
        with pytest.raises(ValueError, match="duplicate"):
            T.reduce(T.Tensor(a), axis=(1, 1))

    def test_conv2d_matches_naive_loop(self):
        # conv2d is channels-last; the naive loop runs on the NCHW transpose
        x = rand((2, 3, 6, 6), 11)
        w = rand((4, 3, 3, 3), 12)
        b = rand((4,), 13)
        w1 = rand((4, 3, 1, 1), 14)
        cases = [(w, 1, 1), (w, 2, 1), (w, 1, 0), (w1, 1, 0), (w1, 2, 0)]
        for dtype, atol in ((np.float64, 1e-12), (np.float32, 1e-5)):
            x_cl = T.Tensor(x.transpose(0, 2, 3, 1).astype(dtype))
            for kernel, stride, padding in cases:
                got = T.conv2d(x_cl, T.Tensor(kernel.astype(dtype)), T.Tensor(b.astype(dtype)),
                               stride=stride, padding=padding).data
                assert got.dtype == dtype
                np.testing.assert_allclose(
                    got.transpose(0, 3, 1, 2), conv_naive(x, kernel, b, stride, padding), atol=atol
                )

    def test_conv2d_errors(self):
        x, w, b = np.zeros((1, 4, 4, 3)), np.zeros((2, 3, 2, 2)), T.Tensor(np.zeros(2))
        with pytest.raises(ValueError, match="odd"):
            T.conv2d(T.Tensor(x), T.Tensor(w), b)
        # channels are the input's last axis
        with pytest.raises(ValueError, match="channel mismatch: input has 3, kernel expects 4"):
            T.conv2d(T.Tensor(x), T.Tensor(np.zeros((2, 4, 3, 3))), b)
        with pytest.raises(ValueError, match="4-d"):
            T.conv2d(T.Tensor(np.zeros((3, 4, 4))), T.Tensor(np.zeros((2, 3, 3, 3))), b)
        for bias in (np.zeros(3), np.zeros((2, 1))):
            with pytest.raises(ValueError, match="bias"):
                T.conv2d(T.Tensor(x), T.Tensor(np.zeros((2, 3, 3, 3))), T.Tensor(bias))

    def test_conv2d_backward_keeps_no_padded_copy(self):
        x = leaf((2, 6, 6, 3), 15)
        out = T.conv2d(x, leaf((4, 3, 3, 3), 16), leaf((4,), 17), stride=1, padding=1)
        held = [c.cell_contents for c in out._backward_fn.__closure__]
        arrays = [a for a in held if isinstance(a, np.ndarray)]
        # no B*oh*ow*kh*kw*C columns either: the adjoint rebuilds them
        assert all(a.size != 2 * 6 * 6 * 3 * 3 * 3 for a in arrays)
        assert all(a.shape != (2, 8, 8, 3) for a in arrays)


def relu_reference(x):
    """The unfused relu node: np.maximum forward, adjoint masked by a kept x > 0."""
    mask = x.data > 0
    return T._node(np.maximum(x.data, 0.0), (x,), lambda g: (g * mask,))


# (kernel extent, stride, padding) of the encoder's stages and projections
ENCODER_KERNELS = [(3, 1, 1), (3, 2, 1), (1, 1, 0), (1, 2, 0)]


class TestFusedEpilogues:
    """conv2d's relu and acc epilogues against the unfused chains they
    replace: the same value and the same adjoints, bit for bit."""

    @staticmethod
    def run(build, leaves, dtype):
        for t in leaves:
            t.grad = None
        out = build()
        r = T.Tensor(rand(out.shape, 30).astype(dtype))
        T.reduce(T.mul(out, r)).backward()
        return [out.data] + [t.grad for t in leaves]

    @staticmethod
    def conv_leaves(dtype, k):
        x = T.Tensor(rand((2, 8, 8, 6), 31).astype(dtype), requires_grad=True)
        w = T.Tensor(rand((5, 6, k, k), 32).astype(dtype), requires_grad=True)
        b = T.Tensor(rand((5,), 33).astype(dtype), requires_grad=True)
        return x, w, b

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k, stride, padding", ENCODER_KERNELS)
    def test_relu_matches_unfused_bitwise(self, dtype, k, stride, padding):
        x, w, b = self.conv_leaves(dtype, k)
        fused = self.run(lambda: T.conv2d(x, w, b, stride, padding, relu=True), [x, w, b], dtype)
        unfused = self.run(
            lambda: relu_reference(T.conv2d(x, w, b, stride, padding)), [x, w, b], dtype
        )
        assert fused[0].dtype == dtype and 0 < (fused[0] > 0).mean() < 1
        for got, want in zip(fused, unfused):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k, stride, padding", ENCODER_KERNELS)
    def test_acc_matches_unfused_bitwise(self, dtype, k, stride, padding):
        x, w, b = self.conv_leaves(dtype, k)
        oh = (8 + 2 * padding - k) // stride + 1
        t = T.Tensor(rand((2, oh, oh, 5), 34).astype(dtype), requires_grad=True)
        leaves = [x, w, b, t]
        fused = self.run(lambda: T.conv2d(x, w, b, stride, padding, acc=t), leaves, dtype)
        unfused = self.run(lambda: T.add(t, T.conv2d(x, w, b, stride, padding)), leaves, dtype)
        for got, want in zip(fused, unfused):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_acc_chain_matches_separate_sums_bitwise(self, dtype):
        # three links of the encoder's running sum, each adding one projection
        links = [((2, 8, 8, 6), 1, 2, 0), ((2, 4, 4, 6), 1, 1, 0), ((2, 4, 4, 6), 3, 1, 1)]
        leaves = []
        for i, (shape, k, _, _) in enumerate(links):
            leaves += [T.Tensor(rand(shape, 40 + i).astype(dtype), requires_grad=True),
                       T.Tensor(rand((5, 6, k, k), 50 + i).astype(dtype), requires_grad=True),
                       T.Tensor(rand((5,), 60 + i).astype(dtype), requires_grad=True)]

        def chain(fused):
            total = None
            for i, (_, _, stride, padding) in enumerate(links):
                x, w, b = leaves[3 * i : 3 * i + 3]
                if fused:
                    total = T.conv2d(x, w, b, stride, padding, acc=total)
                else:
                    term = T.conv2d(x, w, b, stride, padding)
                    total = term if total is None else T.add(total, term)
            return total

        fused = self.run(lambda: chain(True), leaves, dtype)
        unfused = self.run(lambda: chain(False), leaves, dtype)
        assert fused[0].dtype == dtype and all(g is not None for g in fused[1:])
        for got, want in zip(fused, unfused):
            np.testing.assert_array_equal(got, want)

    def test_acc_chain_keeps_no_dead_partial_sum(self):
        x, w, b = self.conv_leaves(np.float64, 1)
        total = None
        for seed in range(3):
            total = T.conv2d(leaf(x.shape, 70 + seed), w, b, acc=total)
        # the last link's adjoint runs the earlier ones; the graph holds none
        # of their sums, in a parent link or a closure cell
        assert [p.shape for p in total._parents] == [x.shape, w.shape, b.shape] * 3
        partial = [a for a in reachable_arrays(total)
                   if a.size == total.data.size and not np.shares_memory(a, total.data)]
        assert partial == []

    def test_relu_with_acc_raises(self):
        x, w, b = self.conv_leaves(np.float64, 1)
        t = T.Tensor(np.zeros((2, 8, 8, 5)))
        with pytest.raises(ValueError, match="without relu"):
            T.conv2d(x, w, b, relu=True, acc=t)

    def test_acc_shape_mismatch_raises(self):
        x, w, b = self.conv_leaves(np.float64, 1)
        with pytest.raises(ValueError, match=r"acc must be \(2, 4, 4, 5\)"):
            T.conv2d(x, w, b, stride=2, acc=T.Tensor(np.zeros((2, 8, 8, 5))))

    def test_encoder_graph_is_one_conv2d_node_per_stage_and_the_sum(self):
        cfg = RunConfig(num_categories=3, c_feat=12, c_class=6, encoder_widths=(6, 8))
        model = SegModel(cfg.model_config(), seed=0)
        base = model.encoder_forward(T.Tensor(rand((2, 3, 16, 16), 35, 0.0, 1.0)))
        ops = [n._backward_fn.__qualname__ for n in T.ancestors_in_order(base)
               if n._backward_fn is not None]
        # each stage's relu conv2d, then one node for all the projections' sum
        assert ops == ["conv2d.<locals>._bw"] * (len(cfg.model_config().stage_plan) + 1)


def im2col_reference(x, k, stride, padding):
    """(B*oh*ow, k*k*C) columns of a channels-last input, one strided slice
    of the padded input per kernel tap, running over (u, v, c)."""
    batch, height, width, cin = x.shape
    oh = (height + 2 * padding - k) // stride + 1
    ow = (width + 2 * padding - k) // stride + 1
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    taps = [xp[:, u : u + stride * (oh - 1) + 1 : stride, v : v + stride * (ow - 1) + 1 : stride]
            for u in range(k) for v in range(k)]
    return np.stack(taps, axis=3).reshape(batch * oh * ow, k * k * cin)


class TestRebuiltColumns:
    """conv2d's adjoint rebuilds the forward's im2col columns instead of
    keeping them; the weight gradient is still the GEMM of those bytes."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k, stride, padding", ENCODER_KERNELS)
    @pytest.mark.parametrize("epilogue", [None, "relu", "acc"])
    def test_weight_gradient_is_the_gemm_of_the_columns_bitwise(self, dtype, k, stride,
                                                                padding, epilogue):
        x, w, b = TestFusedEpilogues.conv_leaves(dtype, k)
        oh = (8 + 2 * padding - k) // stride + 1
        extra = {}
        if epilogue == "relu":
            extra["relu"] = True
        elif epilogue == "acc":
            extra["acc"] = T.Tensor(rand((2, oh, oh, 5), 34).astype(dtype), requires_grad=True)
        out = T.conv2d(x, w, b, stride, padding, **extra)
        g = rand(out.shape, 35).astype(dtype)
        gw = out._backward_fn(g)[1]

        g2 = g.reshape(-1, 5)
        if epilogue == "relu":
            g2 = g2 * (out.data.reshape(-1, 5) > 0)
        cols = im2col_reference(x.data, k, stride, padding)
        want = (cols.T @ g2).reshape(k, k, 6, 5).transpose(3, 2, 0, 1)
        assert gw.dtype == dtype and gw.shape == w.shape
        assert gw.tobytes() == want.tobytes()


def reachable_arrays(root):
    """Every array the graph under ``root`` keeps alive: node values, closure
    cells, nested adjoints and the buffers behind views."""
    seen, arrays, stack = set(), [], [root]
    while stack:
        obj = stack.pop()
        if obj is None or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            stack.append(obj.base)
        elif isinstance(obj, T.Tensor):
            stack += [obj.data, obj._backward_fn, *obj._parents]
        elif isinstance(obj, tuple):
            stack += obj
        elif callable(obj):
            stack += [c.cell_contents for c in getattr(obj, "__closure__", None) or ()]
    return arrays


def conv_naive(x, w, bias, stride, padding):
    b, _cin, h, width = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (width + 2 * padding - kw) // stride + 1
    out = np.zeros((b, cout, oh, ow))
    for bi in range(b):
        for oc in range(cout):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[bi, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[bi, oc, i, j] = float((patch * w[oc]).sum()) + bias[oc]
    return out


# ---------------------------------------------------------------------------
# top-k selection


class TestTopK:
    def test_ties_break_toward_lower_index(self):
        idx = T.topk_indices(np.array([5.0, 3.0, 5.0, 1.0]), 2)
        np.testing.assert_array_equal(idx, [0, 2])

    def test_matches_stable_argsort(self):
        v = rand((50,), 13)
        v[10] = v[30]
        for k in (1, 5, 50):
            np.testing.assert_array_equal(
                T.topk_indices(v, k), np.argsort(-v, kind="stable")[:k]
            )
        # every row along the last axis selects on its own
        rows = np.stack([v, v[::-1], np.round(v, 1)]).reshape(3, 1, 50)
        got = T.topk_indices(rows, 5)
        assert got.shape == (3, 1, 5)
        for i in range(3):
            np.testing.assert_array_equal(got[i, 0], np.argsort(-rows[i, 0], kind="stable")[:5])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_partition_matches_stable_argsort_on_forced_ties(self, dtype):
        # few distinct values, so the k-th value is tied in almost every row;
        # signed zeros, infinities and NaN sort as argsort sorts them
        v = np.round(rand((4, 3, 64), 14) * 2.0).astype(dtype)
        v[0, 0, ::5] = -0.0
        v[1, 1, ::7] = np.inf
        v[2, 0, ::3] = -np.inf
        v[3, 2, ::2] = np.nan
        for k in (1, 2, 5, 21, 32, 40, 63, 64):
            want = np.argsort(-v, axis=-1, kind="stable")[..., :k]
            got = T.topk_indices(v, k)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    def test_k_bounds(self):
        with pytest.raises(ValueError, match="out of range"):
            T.topk_indices(np.ones(3), 0)
        with pytest.raises(ValueError, match="out of range"):
            T.topk_indices(np.ones(3), 4)
        with pytest.raises(ValueError, match="1-d"):
            T.topk_indices(np.float64(1.0), 1)


# ---------------------------------------------------------------------------
# backward pass


class TestBackward:
    def test_all_op_adjoints_match_finite_differences(self):
        results = op_checks(seed=0)
        failed = [r.name for r in results if not r.ok]
        assert not failed, f"finite difference mismatches: {failed}"

    def test_op_checks_cover_every_op_that_records_an_adjoint(self):
        # every public function that builds a graph node needs a row named
        # op.<fn> (leaf rows read op.<fn>.<leaf>) or op.<fn>_<variant>
        ops = [
            name for module in (T, losses, coupling) for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_") and "_node(" in inspect.getsource(fn)
        ]
        assert {"add", "div", "sigmoid", "gather", "conv2d", "ce_dice_loss",
                "fisher_loss", "modulate_and_fuse", "gated_update", "affine_params"} <= set(ops)
        rows = [r.name for r in op_checks(seed=0)]
        missing = [op for op in ops
                   if not any(row.startswith((f"op.{op}.", f"op.{op}_")) for row in rows)]
        assert not missing, f"ops without a gradcheck row: {missing}"

    @pytest.mark.parametrize("fn", ["gated_update", "affine_params", "modulate_and_fuse"])
    def test_fused_adjoint_one_percent_off_fails_its_row(self, monkeypatch, fn):
        # the ×8 projections lift these rows above max_rel_err's absolute floor
        original = getattr(gradcheck, fn)

        def wrong(*args):
            out = original(*args)
            node = out[0] if isinstance(out, tuple) else out
            adjoint = node._backward_fn
            node._backward_fn = lambda g: tuple(1.01 * pg for pg in adjoint(g))
            return out

        monkeypatch.setattr(gradcheck, fn, wrong)
        failed = [r.name for r in op_checks(seed=0) if not r.ok]
        assert failed and all(name.startswith(f"op.{fn}.") for name in failed), failed

    def test_matmul_gradient_tight_tolerance(self):
        a, b = leaf((3, 4), 1), leaf((4, 2), 2)

        def loss():
            return T.reduce(T.mul(T.matmul(a, b), T.matmul(a, b)))

        loss().backward()
        for t in (a, b):
            num = numerical_grad(lambda: loss().item(), t)
            assert max_rel_err(t.grad, num) < 1e-6

    def test_softmax_gradient_tight_tolerance(self):
        x = leaf((3, 5), 3)
        w = T.Tensor(rand((3, 5), 4))

        def loss():
            return T.reduce(T.mul(T.softmax_axis(x, axis=1), w))

        loss().backward()
        num = numerical_grad(lambda: loss().item(), x)
        assert max_rel_err(x.grad, num) < 1e-6

    def test_broadcast_adjoint_shape_and_value(self):
        a, b = leaf((3, 4), 5), leaf((4,), 6)
        T.reduce(T.mul(T.add(a, b), T.add(a, b))).backward()
        assert a.grad.shape == (3, 4) and b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, a.grad.sum(axis=0), atol=1e-12)

    def test_gather_accumulates_duplicate_indices(self):
        x = leaf((2, 4, 2), 7)
        idx = np.array([[1, 1, 3], [0, 2, 2]])
        T.reduce(T.gather(x, idx, axis=1)).backward()
        expected = np.zeros((2, 4, 2))
        for b in range(2):
            np.add.at(expected[b], idx[b], 1.0)
        np.testing.assert_array_equal(x.grad, expected)

    def test_gradients_are_linear_in_the_loss(self):
        def build(t):
            l1 = T.reduce(T.mul(t, t))
            l2 = T.reduce(T.sigmoid(t))
            return l1, l2

        x = leaf((3, 3), 8)
        l1, l2 = build(x)
        l1.backward()
        g1 = x.grad.copy()
        x.grad = None
        l1b, l2b = build(x)
        l2b.backward()
        g2 = x.grad.copy()
        x.grad = None
        l1c, l2c = build(x)
        (2.0 * l1c + 3.0 * l2c).backward()
        np.testing.assert_allclose(x.grad, 2.0 * g1 + 3.0 * g2, atol=1e-12)

    def test_repeated_backward_accumulates(self):
        x = leaf((2,), 9)
        T.reduce(x).backward()
        first = x.grad.copy()
        T.reduce(x).backward()
        np.testing.assert_array_equal(x.grad, 2.0 * first)

    def test_backward_requires_scalar_root(self):
        x = leaf((2, 2), 10)
        with pytest.raises(ValueError, match="scalar"):
            T.backward(T.mul(x, x))

    @pytest.mark.parametrize("x_shape, k, stride, padding", [
        ((2, 2, 2, 3), 5, 3, 2),   # one output pixel: taps 0, 1 and 4 read only padding
        ((2, 4, 5, 3), 5, 3, 2),
        ((2, 7, 9, 3), 3, 2, 1),
        ((2, 7, 9, 3), 3, 2, 0),
        ((2, 7, 9, 3), 1, 2, 0),
        ((2, 6, 6, 3), 3, 1, 1),
    ])
    def test_conv2d_input_gradient_matches_padded_scatter(self, x_shape, k, stride, padding):
        # bitwise in float64: each input pixel sums the same tap products in
        # the same tap order; only the products that landed in padding are gone
        x = leaf(x_shape, 20)
        w = T.Tensor(rand((4, x_shape[-1], k, k), 21))
        out = T.conv2d(x, w, T.Tensor(rand((4,), 22)), stride=stride, padding=padding)
        g = rand(out.shape, 23)
        T.reduce(T.mul(out, T.Tensor(g))).backward()
        np.testing.assert_array_equal(
            x.grad, padded_scatter_input_grad(g, w.data, x_shape, stride, padding)
        )

    def test_shared_subexpression_fans_in(self):
        x = leaf((3,), 11)
        y = T.sigmoid(x)
        T.reduce(T.add(y, y)).backward()
        s = T.sigmoid(T.Tensor(x.data)).data
        np.testing.assert_allclose(x.grad, 2.0 * s * (1.0 - s), atol=1e-12)


def padded_scatter_input_grad(g, w, x_shape, stride, padding):
    """conv2d's earlier input adjoint: the (pixels, kh*kw*C) column gradient
    scattered tap by tap into a zeroed padded buffer, then cropped."""
    batch, height, width, cin = x_shape
    cout, _, kh, kw = w.shape
    _, oh, ow, _ = g.shape
    s, p = stride, padding
    wmat = w.transpose(2, 3, 1, 0).reshape(kh * kw * cin, cout)
    gcols = (g.reshape(-1, cout) @ wmat.T).reshape(batch, oh, ow, kh, kw, cin)
    gxp = np.zeros((batch, height + 2 * p, width + 2 * p, cin))
    for u in range(kh):
        for v in range(kw):
            gxp[:, u : u + s * oh : s, v : v + s * ow : s] += gcols[:, :, :, u, v]
    return gxp[:, p : p + height, p : p + width]


# ---------------------------------------------------------------------------
# graph bookkeeping


class TestGraph:
    def test_no_grad_records_nothing(self):
        x = leaf((2, 2), 12)
        with T.no_grad():
            y = T.mul(x, x)
        assert not y.requires_grad and y._parents == ()

    def test_no_grad_restores_on_exit(self):
        x = leaf((2,), 13)
        with T.no_grad():
            pass
        assert T.mul(x, x).requires_grad

    def test_ancestors_sorted_by_execution_sequence(self):
        a, b = leaf((2,), 14), leaf((2,), 15)
        loss = T.reduce(T.add(T.mul(a, b), a))
        nodes = T.ancestors_in_order(loss)
        seqs = [n._seq for n in nodes]
        assert seqs == sorted(seqs)
        assert nodes[-1] is loss
        assert {id(a), id(b)} <= {id(n) for n in nodes}

    def test_constant_branches_are_skipped(self):
        x = leaf((2,), 16)
        c = T.Tensor(np.ones(2))
        T.reduce(T.mul(x, c)).backward()
        assert c.grad is None
        np.testing.assert_array_equal(x.grad, np.ones(2))

    def test_item(self):
        assert T.Tensor(3.5).item() == 3.5

    def test_tensor_promotes_integer_input(self):
        assert T.Tensor(np.arange(3)).dtype == np.float64


# ---------------------------------------------------------------------------
# one backward per graph


def held_arrays(node):
    """Arrays the node's adjoint closure keeps alive."""
    cells = getattr(node._backward_fn, "__closure__", None) or ()
    return [c.cell_contents for c in cells if isinstance(c.cell_contents, np.ndarray)]


class TestRelease:
    def test_second_backward_raises_and_leaves_grads_alone(self):
        a, b = leaf((3, 4), 24), leaf((4,), 25)
        s = T.add(a, b)
        loss = T.reduce(T.mul(T.sigmoid(s), s))
        value = loss.item()
        loss.backward()
        first = (a.grad.copy(), b.grad.copy())
        with pytest.raises(ValueError, match="already back-propagated"):
            loss.backward()
        np.testing.assert_array_equal(a.grad, first[0])
        np.testing.assert_array_equal(b.grad, first[1])
        # node values and parent links stay
        assert loss.item() == value and loss._parents[0]._parents[1] is s

    def test_train_step_backward_frees_every_closure_array(self):
        model, loss = small_train_graph()
        nodes = T.ancestors_in_order(loss)
        # kernel matrices, gather indices and the like live only in their
        # closures; the fused relu reads its mask from the node's own output
        assert sum(1 for n in nodes if held_arrays(n)) > 10
        loss.backward()
        assert [n for n in nodes if held_arrays(n)] == []
        assert all(p.grad is not None for _, p in model.named_parameters())

    def test_train_step_conv2d_closures_hold_no_columns(self):
        _, loss = small_train_graph()
        nodes = T.ancestors_in_order(loss)
        values = [n.data for n in nodes]
        adjoints = conv2d_adjoint_cells(nodes)
        # three stages and three projections, two of them handed on as acc
        assert len(adjoints) == 6
        for free in adjoints:
            out_size = free["batch"] * free["oh"] * free["ow"] * free["cout"]
            bound = max(out_size, free["w"].data.size)
            # arrays that are no node's value are what the closure alone keeps
            own = [a for a in free.values() if isinstance(a, np.ndarray)
                   and not any(np.shares_memory(a, v) for v in values)]
            assert all(a.size <= bound for a in own), [a.shape for a in own]


def small_train_graph():
    """The tests' small model (16x16, B = 2, L = 2) and its un-run training loss."""
    cfg = RunConfig(num_categories=3, c_feat=12, c_class=6, encoder_widths=(6, 8))
    model = SegModel(cfg.model_config(), seed=0)
    out = model.forward(T.Tensor(rand((2, 3, 16, 16), 26, 0.0, 1.0)))
    labels = np.random.default_rng(27).integers(0, 3, size=(2, 16, 16))
    loss, _ = losses.total_loss(
        out.logits, labels, out.scores_per_layer, out.embeddings_per_layer, cfg
    )
    return model, loss


CONV2D_BW = "conv2d.<locals>._bw"


def conv2d_adjoint_cells(nodes):
    """The free variables, by name, of every conv2d adjoint of the graph,
    with those a recorded acc handed on."""
    stack = [n._backward_fn for n in nodes
             if getattr(n._backward_fn, "__qualname__", None) == CONV2D_BW]
    found = []
    while stack:
        fn = stack.pop()
        free = dict(zip(fn.__code__.co_freevars, (c.cell_contents for c in fn.__closure__)))
        found.append(free)
        if getattr(free["tail_bw"], "__qualname__", None) == CONV2D_BW:
            stack.append(free["tail_bw"])
    return found
