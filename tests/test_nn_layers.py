"""Tests for the neural-network substrate."""

import numpy as np
import pytest

from repro import tensor as T
from repro.core.taxonomy import OpCategory
from repro.nn import (MLP, AvgPool2d, BatchNorm2d, Conv2d, Flatten,
                      GlobalAvgPool, Linear, MaxPool2d, ReLU, Residual,
                      Sequential, Softmax, conv_block, small_convnet)
from repro.tensor.errors import TensorOpError


class TestLinear:
    def test_shapes_and_determinism(self):
        layer = Linear(8, 4, seed=3)
        x = T.tensor(np.ones((5, 8), dtype=np.float32))
        out = layer(x)
        assert out.shape == (5, 4)
        layer2 = Linear(8, 4, seed=3)
        np.testing.assert_array_equal(layer.weight, layer2.weight)

    def test_bias_optional(self):
        layer = Linear(4, 2, bias=False)
        assert layer.bias is None
        out = layer(T.tensor(np.zeros((1, 4), dtype=np.float32)))
        np.testing.assert_allclose(out.numpy(), [[0, 0]])

    def test_matmul_category(self):
        layer = Linear(4, 2)
        with T.profile("t") as prof:
            layer(T.tensor(np.ones((1, 4), dtype=np.float32)))
        assert prof.trace[0].category is OpCategory.MATMUL

    @pytest.mark.parametrize("x_dtype, bias_dtype", [
        (np.float32, np.float32), (np.float64, np.float32),
        (np.float32, np.float64)])
    def test_bias_sum_is_bit_identical(self, x_dtype, bias_dtype):
        rng = np.random.default_rng(0)
        layer = Linear(16, 8, seed=2)
        layer.bias = rng.standard_normal(8).astype(bias_dtype)
        x = rng.standard_normal((5, 16)).astype(x_dtype)
        out = layer(T.tensor(x)).numpy()
        expected = x @ layer.weight.T + layer.bias
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()

    def test_parameter_accounting(self):
        layer = Linear(8, 4)
        assert layer.num_parameters == 8 * 4 + 4
        assert layer.parameter_bytes == (8 * 4 + 4) * 4


class TestConvAndPool:
    def test_conv2d_layer(self):
        layer = Conv2d(2, 3, 3, padding=1, seed=1)
        out = layer(T.tensor(np.ones((1, 2, 8, 8), dtype=np.float32)))
        assert out.shape == (1, 3, 8, 8)

    def test_maxpool(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = MaxPool2d(2)(T.tensor(x))
        np.testing.assert_allclose(out.numpy()[0, 0], [[5, 7], [13, 15]])

    def test_avgpool(self):
        x = np.ones((1, 1, 4, 4), dtype=np.float32)
        out = AvgPool2d(2)(T.tensor(x))
        np.testing.assert_allclose(out.numpy()[0, 0], np.ones((2, 2)))

    def test_global_avgpool(self):
        x = np.ones((2, 3, 4, 4), dtype=np.float32) * 5
        out = GlobalAvgPool()(T.tensor(x))
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.numpy(), np.full((2, 3), 5.0))

    def test_batchnorm_shape_preserved(self):
        layer = BatchNorm2d(3, seed=0)
        out = layer(T.tensor(np.ones((2, 3, 4, 4), dtype=np.float32)))
        assert out.shape == (2, 3, 4, 4)

    def test_overlapping_maxpool(self):
        x = np.arange(25, dtype=np.float32).reshape(1, 1, 5, 5)
        out = MaxPool2d(3, stride=2)(T.tensor(x))
        np.testing.assert_array_equal(out.numpy()[0, 0],
                                      [[12, 14], [22, 24]])

    def test_maxpool_of_empty_batch(self):
        out = MaxPool2d(2)(T.tensor(np.zeros((0, 3, 4, 4), np.float32)))
        assert out.shape == (0, 3, 2, 2)


class TestPoolValidation:
    """Bad pooling geometry is refused with a classified TensorOpError
    (never numpy's raw ``ValueError``), by the same helper for both
    pool layers."""

    @pytest.mark.parametrize("layer", [MaxPool2d, AvgPool2d])
    @pytest.mark.parametrize("shape, k", [((1, 1, 2, 2), 3),
                                          ((1, 1, 1, 5), 2),
                                          ((2, 3, 4, 0), 1)])
    def test_window_larger_than_input(self, layer, shape, k):
        x = T.tensor(np.zeros(shape, np.float32))
        with pytest.raises(TensorOpError, match="larger than"):
            layer(k)(x)

    @pytest.mark.parametrize("layer", [MaxPool2d, AvgPool2d])
    @pytest.mark.parametrize("k, s", [(0, 1), (2, 0), (2, -1)])
    def test_kernel_and_stride_must_be_positive(self, layer, k, s):
        x = T.tensor(np.zeros((1, 1, 4, 4), np.float32))
        with pytest.raises(TensorOpError, match=">= 1"):
            layer(k, stride=s)(x)

    @pytest.mark.parametrize("layer", [MaxPool2d, AvgPool2d])
    def test_input_must_be_nchw(self, layer):
        with pytest.raises(TensorOpError, match="NCHW"):
            layer(2)(T.tensor(np.zeros((4, 4), np.float32)))

    def test_refusal_records_no_event(self):
        with T.profile("t") as prof:
            with pytest.raises(TensorOpError):
                MaxPool2d(3)(T.tensor(np.zeros((1, 1, 2, 2), np.float32)))
        assert len(prof.trace) == 0


class TestComposites:
    def test_sequential_and_flatten(self):
        net = Sequential(Flatten(), Linear(16, 4, seed=0), ReLU())
        out = net(T.tensor(np.ones((2, 1, 4, 4), dtype=np.float32)))
        assert out.shape == (2, 4)
        assert (out.numpy() >= 0).all()

    def test_residual_adds(self):
        class Zero:
            def __call__(self, x):
                return T.mul(x, 0.0)
        res = Residual(Zero())
        x = T.tensor(np.ones(4, dtype=np.float32))
        np.testing.assert_allclose(res(x).numpy(), [1, 1, 1, 1])

    def test_mlp_final_activations(self):
        x = T.tensor(np.random.default_rng(0).normal(
            size=(3, 6)).astype(np.float32))
        sig = MLP([6, 8, 2], final_activation="sigmoid")(x).numpy()
        assert ((sig > 0) & (sig < 1)).all()
        soft = MLP([6, 8, 4], final_activation="softmax")(x).numpy()
        np.testing.assert_allclose(soft.sum(axis=-1), np.ones(3), rtol=1e-5)

    def test_mlp_requires_two_sizes(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_conv_block_structure(self):
        block = conv_block(1, 8)
        out = block(T.tensor(np.ones((1, 1, 8, 8), dtype=np.float32)))
        assert out.shape == (1, 8, 8, 8)
        assert (out.numpy() >= 0).all()  # ReLU at the end

    def test_small_convnet_end_to_end(self):
        net = small_convnet(1, 10, seed=0)
        out = net(T.tensor(np.random.default_rng(1).normal(
            size=(4, 1, 32, 32)).astype(np.float32)))
        assert out.shape == (4, 10)
        assert net.num_parameters > 0

    def test_parameter_enumeration_recursive(self):
        net = Sequential(Linear(4, 4, seed=0), Sequential(Linear(4, 2, seed=1)))
        # 4*4+4 + 4*2+2
        assert net.num_parameters == 20 + 10

    def test_trace_categories_of_convnet(self):
        net = small_convnet(1, 5, seed=0)
        with T.profile("t") as prof:
            net(T.tensor(np.ones((1, 1, 16, 16), dtype=np.float32)))
        cats = {e.category for e in prof.trace}
        assert OpCategory.CONVOLUTION in cats
        assert OpCategory.MATMUL in cats
        assert OpCategory.ELEMENTWISE in cats
