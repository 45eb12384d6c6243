"""Fast neural-frontend kernels against the retained reference kernels.

The contract (see :mod:`repro.tensor.reference`): conv2d stays within
the summation-order bound ``2 * gamma_K * (|W| @ |cols|)`` plus bias
rounding, and integer convolutions match exactly; maxpool2d and
batchnorm2d are bit-identical, NaN positions and the sign of zero
included.
"""

import numpy as np
import pytest

from repro import tensor as T
from repro.nn import BatchNorm2d, MaxPool2d
from repro.tensor import reference

#: conv2d geometries of the roster's neural frontends:
#: (input, weight, stride), all with padding 1
ROSTER_CONVS = [
    ((16, 1, 32, 32), (32, 1, 3, 3), 1),       # nvsa
    ((16, 32, 16, 16), (64, 32, 3, 3), 1),
    ((16, 64, 8, 8), (128, 64, 3, 3), 1),
    ((16, 1, 32, 32), (64, 1, 3, 3), 1),       # prae
    ((16, 64, 16, 16), (128, 64, 3, 3), 1),
    ((16, 128, 8, 8), (256, 128, 3, 3), 1),
    ((120, 1, 16, 16), (32, 1, 3, 3), 1),      # zeroc
    ((120, 32, 16, 16), (64, 32, 3, 3), 2),
]

#: max-pool and batch-norm inputs of the roster (nvsa, prae)
ROSTER_POOLS = [(16, 32, 32, 32), (16, 64, 16, 16), (16, 128, 8, 8),
                (16, 64, 32, 32), (16, 128, 16, 16), (16, 256, 8, 8)]


def _conv_case(rng, x_shape, w_shape, dtype=np.float32, bias=True):
    x = rng.normal(size=x_shape).astype(dtype)
    w = (rng.normal(size=w_shape) / np.sqrt(np.prod(w_shape[1:]))).astype(dtype)
    b = rng.normal(size=w_shape[0]).astype(dtype) if bias else None
    return x, w, b


def _fast_conv(x, w, b, stride, padding):
    return T.conv2d(x, w, b, stride=stride, padding=padding).numpy()


class TestConv2d:
    @pytest.mark.parametrize("x_shape, w_shape, stride", ROSTER_CONVS)
    def test_roster_shapes_within_bound(self, x_shape, w_shape, stride):
        rng = np.random.default_rng(0)
        x, w, b = _conv_case(rng, x_shape, w_shape)
        args = (x, w, b, stride, 1)
        fast = _fast_conv(*args)
        assert reference.mismatch(fast, reference.conv2d(*args),
                                  reference.conv2d_bound(*args)) is None

    def test_fuzz_geometries_within_bound(self):
        rng = np.random.default_rng(1)
        for case in range(300):
            n = int(rng.choice((0, 1, 2)))
            c, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            h, w = int(rng.integers(3, 9)), int(rng.integers(3, 9))
            padding, stride = int(rng.integers(0, 2)), int(rng.integers(1, 3))
            kh = int(rng.integers(1, h + 2 * padding + 1))
            kw = int(rng.integers(1, w + 2 * padding + 1))
            dtype = (np.float32, np.float64)[case % 2]
            x, wt, b = _conv_case(rng, (n, c, h, w), (c_out, c, kh, kw),
                                  dtype, bias=bool(case % 3))
            args = (x, wt, b, stride, padding)
            fast = _fast_conv(*args)
            problem = reference.mismatch(fast, reference.conv2d(*args),
                                       reference.conv2d_bound(*args))
            assert problem is None, (case, args[3:], x.shape, wt.shape, problem)

    def test_empty_batch(self):
        x, w, b = _conv_case(np.random.default_rng(2), (0, 2, 5, 5),
                             (3, 2, 3, 3))
        fast = _fast_conv(x, w, b, 2, 1)
        assert fast.shape == (0, 3, 3, 3)
        assert reference.mismatch(fast, reference.conv2d(x, w, b, 2, 1),
                                  reference.conv2d_bound(x, w, b, 2, 1)) is None

    def test_integer_operands_match_exactly(self):
        rng = np.random.default_rng(3)
        x = rng.integers(-50, 50, size=(2, 3, 6, 6)).astype(np.int64)
        w = rng.integers(-5, 5, size=(4, 3, 3, 3)).astype(np.int64)
        b = rng.integers(-5, 5, size=4).astype(np.int64)
        args = (x, w, b, 1, 1)
        assert not reference.conv2d_bound(*args).any()
        fast = _fast_conv(*args)
        assert fast.dtype == np.int64
        assert reference.mismatch(fast, reference.conv2d(*args),
                                  reference.conv2d_bound(*args)) is None

    def test_integer_input_with_float_weights(self):
        """The float result is truncated back to the input's integer
        dtype, so the two kernels may land one apart."""
        rng = np.random.default_rng(8)
        x = rng.integers(-9, 9, size=(2, 2, 5, 5)).astype(np.int32)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        args = (x, w, None, 1, 1)
        fast = _fast_conv(*args)
        assert fast.dtype == np.int32
        assert reference.mismatch(fast, reference.conv2d(*args),
                                  reference.conv2d_bound(*args)) is None

    def test_wider_bias_widens_the_sum_as_before(self):
        rng = np.random.default_rng(4)
        x, w, _ = _conv_case(rng, (1, 2, 5, 5), (3, 2, 3, 3))
        b = rng.normal(size=3)                        # float64 bias
        args = (x, w, b, 1, 0)
        fast = _fast_conv(*args)
        assert fast.dtype == np.float32
        assert reference.mismatch(fast, reference.conv2d(*args),
                                  reference.conv2d_bound(*args)) is None

    def test_non_finite_inputs_propagate_like_the_reference(self):
        rng = np.random.default_rng(5)
        x, w, b = _conv_case(rng, (1, 2, 6, 6), (2, 2, 3, 3))
        x[0, 0, 2, 3] = np.nan
        x[0, 1, 0, 0] = np.inf
        args = (x, w, b, 1, 1)
        fast = _fast_conv(*args)
        assert not np.isfinite(fast).all()
        assert reference.mismatch(fast, reference.conv2d(*args),
                                  reference.conv2d_bound(*args)) is None

    def test_bound_rejects_a_wrong_kernel(self):
        x, w, b = _conv_case(np.random.default_rng(6), (2, 3, 8, 8),
                             (4, 3, 3, 3))
        flipped = _fast_conv(x, w[:, :, ::-1, ::-1].copy(), b, 1, 1)
        problem = reference.mismatch(flipped, reference.conv2d(x, w, b, 1, 1),
                                   reference.conv2d_bound(x, w, b, 1, 1))
        assert problem is not None and "exceeds the bound" in problem

    def test_bound_rejects_errors_far_above_rounding(self):
        """The bound scales with K*u: an error of a thousand unit
        roundoffs on one element fails."""
        x, w, b = _conv_case(np.random.default_rng(7), (1, 1, 4, 4),
                             (1, 1, 2, 2))
        ref = reference.conv2d(x, w, b, 1, 0)
        off = ref.copy()
        off.flat[0] += np.float32(1000 * 2.0 ** -24 * max(abs(off.flat[0]), 1))
        assert reference.mismatch(off, ref,
                                  reference.conv2d_bound(x, w, b, 1, 0))


def _pool_input(rng, shape, dtype=np.float32):
    """Values with ties, signed zeros and NaNs in every window size."""
    x = rng.normal(size=shape)
    x[rng.random(shape) < 0.2] = 0.0
    x[rng.random(shape) < 0.2] = -0.0
    x = np.round(x, 1).astype(dtype)                  # ties
    if np.issubdtype(dtype, np.floating):
        x[rng.random(shape) < 0.03] = np.nan
        x[rng.random(shape) < 0.01] = -np.inf
    return x


class TestMaxPool2d:
    @pytest.mark.parametrize("shape", ROSTER_POOLS)
    def test_roster_shapes_bit_identical(self, shape):
        x = np.maximum(np.random.default_rng(0).normal(size=shape), 0)
        x = x.astype(np.float32)
        fast = MaxPool2d(2)(T.tensor(x)).numpy()
        assert reference.mismatch(fast, reference.maxpool2d(x, 2, 2)) is None

    def test_random_geometries_bit_identical(self):
        rng = np.random.default_rng(1)
        for case in range(500):
            k = int(rng.integers(1, 4))
            s = 2 if case % 4 == 0 and k == 3 else int(rng.integers(1, k + 1))
            shape = (int(rng.choice((0, 1, 2))), int(rng.integers(1, 4)),
                     int(rng.integers(k, 9)), int(rng.integers(k, 9)))
            dtype = (np.float32, np.float64, np.int32)[case % 3]
            x = _pool_input(rng, shape, dtype)
            fast = MaxPool2d(k, stride=s)(T.tensor(x)).numpy()
            problem = reference.mismatch(fast, reference.maxpool2d(x, k, s))
            assert problem is None, (case, shape, k, s, dtype, problem)

    def test_nan_positions_and_zero_signs(self):
        x = np.array([[[[-0.0, 0.0, 1.0, np.nan],
                        [0.0, -0.0, -1.0, 2.0],
                        [np.nan, -0.0, -0.0, -0.0],
                        [3.0, np.nan, -0.0, -0.0]]]], np.float32)
        fast = MaxPool2d(2)(T.tensor(x)).numpy()
        ref = reference.maxpool2d(x, 2, 2)
        assert reference.mismatch(fast, ref) is None
        assert np.array_equal(np.isnan(fast), [[[[False, True],
                                                 [True, False]]]])
        assert np.signbit(fast[0, 0, 1, 1])

    def test_mismatch_names_the_first_differing_element(self):
        ref = np.zeros((2, 2), np.float32)
        fast = ref.copy()
        fast[1, 0] = -0.0
        problem = reference.mismatch(fast, ref)
        assert problem is not None and "flat index 2" in problem
        assert "float32" in reference.mismatch(ref.astype(np.float64), ref)


class TestBatchNorm2d:
    @staticmethod
    def _scale_shift(layer):
        c = layer.gamma.size
        scale = (layer.gamma / np.sqrt(layer.running_var + 1e-5)).reshape(1, c, 1, 1)
        shift = (layer.beta - layer.running_mean * scale.reshape(c)).reshape(1, c, 1, 1)
        return scale, shift

    @pytest.mark.parametrize("shape", ROSTER_POOLS)
    def test_roster_shapes_bit_identical(self, shape):
        layer = BatchNorm2d(shape[1], seed=3)
        x = np.random.default_rng(0).normal(size=shape).astype(np.float32)
        fast = layer(T.tensor(x)).numpy()
        ref = reference.batchnorm2d(x, *self._scale_shift(layer))
        assert reference.mismatch(fast, ref) is None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32])
    def test_other_dtypes_and_special_values_bit_identical(self, dtype):
        layer = BatchNorm2d(3, seed=1)
        x = _pool_input(np.random.default_rng(2), (2, 3, 5, 5), dtype)
        fast = layer(T.tensor(x)).numpy()
        ref = reference.batchnorm2d(x, *self._scale_shift(layer))
        assert reference.mismatch(fast, ref) is None
