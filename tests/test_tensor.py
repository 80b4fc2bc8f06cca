"""Tensor engine tests: forward values against numpy, adjoints against
central finite differences, and the bookkeeping rules of the graph walk."""
import inspect

import numpy as np
import pytest

from heatseg import tensor as T
from heatseg.gradcheck import max_rel_err, numerical_grad, op_checks


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
        np.testing.assert_allclose(T.exp(T.Tensor(x)).data, np.exp(x), rtol=1e-15)
        np.testing.assert_allclose(T.log(T.Tensor(x)).data, np.log(x), rtol=1e-15)
        np.testing.assert_array_equal(T.relu(T.Tensor(x - 1.0)).data, np.maximum(x - 1.0, 0))

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
        with pytest.raises(ValueError, match="batch axes"):
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
        np.testing.assert_allclose(T.reduce(T.Tensor(a), kind="sum").data, a.sum(), rtol=1e-14)
        np.testing.assert_allclose(
            T.reduce(T.Tensor(a), axis=(0, 2), kind="mean", keepdims=True).data,
            a.mean(axis=(0, 2), keepdims=True),
            rtol=1e-14,
        )
        with pytest.raises(ValueError, match="unknown reduction"):
            T.reduce(T.Tensor(a), kind="max")
        with pytest.raises(ValueError, match="out of range"):
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
        assert arrays, "the closure should hold the columns"
        assert all(a.shape != (2, 8, 8, 3) for a in arrays)


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
            name for name, fn in vars(T).items()
            if inspect.isfunction(fn) and fn.__module__ == T.__name__
            and not name.startswith("_") and "_node(" in inspect.getsource(fn)
        ]
        assert {"add", "div", "sigmoid", "gather", "conv2d"} <= set(ops)
        rows = [r.name for r in op_checks(seed=0)]
        missing = [op for op in ops
                   if not any(row.startswith((f"op.{op}.", f"op.{op}_")) for row in rows)]
        assert not missing, f"ops without a gradcheck row: {missing}"

    def test_matmul_gradient_tight_tolerance(self):
        a, b = leaf((3, 4), 1), leaf((4, 2), 2)

        def loss():
            return T.reduce(T.mul(T.matmul(a, b), T.matmul(a, b)), kind="sum")

        loss().backward()
        for t in (a, b):
            num = numerical_grad(lambda: loss().item(), t)
            assert max_rel_err(t.grad, num) < 1e-6

    def test_softmax_gradient_tight_tolerance(self):
        x = leaf((3, 5), 3)
        w = T.Tensor(rand((3, 5), 4))

        def loss():
            return T.reduce(T.mul(T.softmax_axis(x, axis=1), w), kind="sum")

        loss().backward()
        num = numerical_grad(lambda: loss().item(), x)
        assert max_rel_err(x.grad, num) < 1e-6

    def test_broadcast_adjoint_shape_and_value(self):
        a, b = leaf((3, 4), 5), leaf((4,), 6)
        T.reduce(T.mul(T.add(a, b), T.add(a, b)), kind="sum").backward()
        assert a.grad.shape == (3, 4) and b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, a.grad.sum(axis=0), atol=1e-12)

    def test_gather_accumulates_duplicate_indices(self):
        x = leaf((2, 4, 2), 7)
        idx = np.array([[1, 1, 3], [0, 2, 2]])
        T.reduce(T.gather(x, idx, axis=1), kind="sum").backward()
        expected = np.zeros((2, 4, 2))
        for b in range(2):
            np.add.at(expected[b], idx[b], 1.0)
        np.testing.assert_array_equal(x.grad, expected)

    def test_gradients_are_linear_in_the_loss(self):
        def build(t):
            l1 = T.reduce(T.mul(t, t), kind="sum")
            l2 = T.reduce(T.sigmoid(t), kind="sum")
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
        T.reduce(x, kind="sum").backward()
        first = x.grad.copy()
        T.reduce(x, kind="sum").backward()
        np.testing.assert_array_equal(x.grad, 2.0 * first)

    def test_backward_requires_scalar_root(self):
        x = leaf((2, 2), 10)
        with pytest.raises(ValueError, match="scalar"):
            T.backward(T.mul(x, x))

    def test_shared_subexpression_fans_in(self):
        x = leaf((3,), 11)
        y = T.sigmoid(x)
        T.reduce(T.add(y, y), kind="sum").backward()
        s = T.sigmoid(T.Tensor(x.data)).data
        np.testing.assert_allclose(x.grad, 2.0 * s * (1.0 - s), atol=1e-12)


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
        loss = T.reduce(T.add(T.mul(a, b), a), kind="sum")
        nodes = T.ancestors_in_order(loss)
        seqs = [n._seq for n in nodes]
        assert seqs == sorted(seqs)
        assert nodes[-1] is loss
        assert {id(a), id(b)} <= {id(n) for n in nodes}

    def test_constant_branches_are_skipped(self):
        x = leaf((2,), 16)
        c = T.Tensor(np.ones(2))
        T.reduce(T.mul(x, c), kind="sum").backward()
        assert c.grad is None
        np.testing.assert_array_equal(x.grad, np.ones(2))

    def test_item(self):
        assert T.Tensor(3.5).item() == 3.5

    def test_tensor_promotes_integer_input(self):
        assert T.Tensor(np.arange(3)).dtype == np.float64
