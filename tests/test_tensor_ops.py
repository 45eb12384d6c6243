"""Unit tests for the instrumented tensor ops: numerical correctness
against raw numpy, plus trace-event accounting (category, FLOPs,
bytes, parents)."""

import numpy as np
import pytest

from repro import tensor as T
from repro.core.taxonomy import OpCategory


def last_event(prof):
    return prof.trace[-1]


class TestArithmetic:
    def test_add_matches_numpy(self):
        a = np.arange(12, dtype=np.float32).reshape(3, 4)
        b = np.ones((3, 4), dtype=np.float32)
        out = T.add(T.tensor(a), T.tensor(b))
        np.testing.assert_allclose(out.numpy(), a + b)

    def test_operator_sugar(self):
        a = T.tensor(np.array([1.0, 2.0], dtype=np.float32))
        b = T.tensor(np.array([3.0, 4.0], dtype=np.float32))
        np.testing.assert_allclose((a + b).numpy(), [4, 6])
        np.testing.assert_allclose((a - b).numpy(), [-2, -2])
        np.testing.assert_allclose((a * b).numpy(), [3, 8])
        np.testing.assert_allclose((a / b).numpy(), [1 / 3, 0.5])
        np.testing.assert_allclose((-a).numpy(), [-1, -2])

    def test_scalar_broadcast(self):
        a = T.tensor(np.ones(4, dtype=np.float32))
        np.testing.assert_allclose(T.mul(2.0, a).numpy(), [2, 2, 2, 2])
        np.testing.assert_allclose((3.0 + a).numpy(), [4, 4, 4, 4])

    def test_unary_functions(self):
        x = np.array([0.5, 1.0, 2.0], dtype=np.float32)
        t = T.tensor(x)
        np.testing.assert_allclose(T.exp(t).numpy(), np.exp(x), rtol=1e-6)
        np.testing.assert_allclose(T.sqrt(t).numpy(), np.sqrt(x), rtol=1e-6)
        np.testing.assert_allclose(T.tanh(t).numpy(), np.tanh(x), rtol=1e-6)
        np.testing.assert_allclose(T.abs(T.neg(t)).numpy(), x)

    def test_log_clamps_zero(self):
        out = T.log(T.tensor(np.zeros(3, dtype=np.float32)))
        assert np.isfinite(out.numpy()).all()

    def test_clip(self):
        out = T.clip(T.tensor(np.array([-1.0, 0.5, 2.0])), 0.0, 1.0)
        np.testing.assert_allclose(out.numpy(), [0, 0.5, 1])

    def test_maximum_minimum(self):
        a, b = T.tensor([1.0, 5.0]), T.tensor([3.0, 2.0])
        np.testing.assert_allclose(T.maximum(a, b).numpy(), [3, 5])
        np.testing.assert_allclose(T.minimum(a, b).numpy(), [1, 2])


class TestMatmulConv:
    def test_matmul_values_and_flops(self):
        a = np.random.default_rng(0).normal(size=(4, 5)).astype(np.float32)
        b = np.random.default_rng(1).normal(size=(5, 6)).astype(np.float32)
        with T.profile("t") as prof:
            out = T.matmul(T.tensor(a), T.tensor(b))
        np.testing.assert_allclose(out.numpy(), a @ b, rtol=1e-5)
        event = last_event(prof)
        assert event.category is OpCategory.MATMUL
        assert event.flops == pytest.approx(2 * 4 * 5 * 6)

    def test_batched_matmul_flops(self):
        a = np.ones((3, 4, 5), dtype=np.float32)
        b = np.ones((3, 5, 6), dtype=np.float32)
        with T.profile("t") as prof:
            T.matmul(T.tensor(a), T.tensor(b))
        assert last_event(prof).flops == pytest.approx(2 * 3 * 4 * 5 * 6)

    def test_vector_dot(self):
        a = T.tensor(np.array([1.0, 2.0, 3.0], dtype=np.float32))
        out = T.matmul(a, a)
        assert out.numpy() == pytest.approx(14.0)

    def test_outer(self):
        a = T.tensor(np.array([1.0, 2.0]))
        b = T.tensor(np.array([3.0, 4.0, 5.0]))
        np.testing.assert_allclose(T.outer(a, b).numpy(),
                                   np.outer([1, 2], [3, 4, 5]))

    def test_einsum(self):
        a = np.random.default_rng(2).normal(size=(3, 4)).astype(np.float32)
        b = np.random.default_rng(3).normal(size=(4, 2)).astype(np.float32)
        out = T.einsum("ij,jk->ik", T.tensor(a), T.tensor(b))
        np.testing.assert_allclose(out.numpy(), a @ b, rtol=1e-5)

    def test_conv2d_matches_direct_convolution(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        out = T.conv2d(T.tensor(x), T.tensor(w), stride=1, padding=0)
        assert out.shape == (1, 3, 4, 4)
        # direct reference computation at one output position
        expected = (x[0, :, 0:3, 0:3] * w[1]).sum()
        assert out.numpy()[0, 1, 0, 0] == pytest.approx(expected, rel=1e-4)

    def test_conv2d_padding_stride(self):
        x = T.tensor(np.ones((2, 1, 8, 8), dtype=np.float32))
        w = T.tensor(np.ones((4, 1, 3, 3), dtype=np.float32))
        out = T.conv2d(x, w, stride=2, padding=1)
        assert out.shape == (2, 4, 4, 4)

    def test_conv2d_channel_mismatch_raises(self):
        x = T.tensor(np.ones((1, 2, 4, 4), dtype=np.float32))
        w = T.tensor(np.ones((1, 3, 3, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="channel mismatch"):
            T.conv2d(x, w)

    def test_conv2d_flops(self):
        x = T.tensor(np.ones((1, 2, 5, 5), dtype=np.float32))
        w = T.tensor(np.ones((3, 2, 3, 3), dtype=np.float32))
        with T.profile("t") as prof:
            T.conv2d(x, w)
        assert last_event(prof).flops == pytest.approx(
            2 * 1 * 3 * 3 * 3 * 2 * 3 * 3)
        assert last_event(prof).category is OpCategory.CONVOLUTION


class TestReductionsActivations:
    def test_sum_axes(self):
        x = np.arange(6, dtype=np.float32).reshape(2, 3)
        assert T.sum(T.tensor(x)).numpy() == pytest.approx(15.0)
        np.testing.assert_allclose(T.sum(T.tensor(x), axis=0).numpy(),
                                   x.sum(axis=0))
        out = T.sum(T.tensor(x), axis=1, keepdims=True)
        assert out.shape == (2, 1)

    def test_mean_max_min_prod(self):
        x = T.tensor(np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32))
        assert T.mean(x).numpy() == pytest.approx(2.5)
        assert T.max(x).numpy() == pytest.approx(4.0)
        assert T.min(x).numpy() == pytest.approx(1.0)
        assert T.prod(x).numpy() == pytest.approx(24.0)

    def test_norm(self):
        x = T.tensor(np.array([3.0, 4.0], dtype=np.float32))
        assert T.norm(x).numpy() == pytest.approx(5.0)

    def test_relu_sigmoid(self):
        x = np.array([-2.0, 0.0, 2.0], dtype=np.float32)
        np.testing.assert_allclose(T.relu(T.tensor(x)).numpy(), [0, 0, 2])
        sig = T.sigmoid(T.tensor(x)).numpy()
        np.testing.assert_allclose(sig, 1 / (1 + np.exp(-x)), rtol=1e-6)

    def test_softmax_normalizes(self):
        x = np.random.default_rng(5).normal(size=(4, 7)).astype(np.float32)
        out = T.softmax(T.tensor(x), axis=-1).numpy()
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(4), rtol=1e-5)
        assert (out >= 0).all()

    def test_log_softmax_consistent(self):
        x = np.random.default_rng(6).normal(size=(5,)).astype(np.float32)
        ls = T.log_softmax(T.tensor(x)).numpy()
        np.testing.assert_allclose(np.exp(ls).sum(), 1.0, rtol=1e-5)

    def test_argmax_cumsum(self):
        x = T.tensor(np.array([1.0, 9.0, 3.0]))
        assert int(T.argmax(x).numpy()) == 1
        np.testing.assert_allclose(T.cumsum(x).numpy(), [1, 10, 13])


class TestCircularOps:
    def test_circular_conv_matches_direct(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=8).astype(np.float32)
        b = rng.normal(size=8).astype(np.float32)
        out = T.circular_conv(T.tensor(a), T.tensor(b)).numpy()
        direct = np.array([
            sum(a[j] * b[(i - j) % 8] for j in range(8)) for i in range(8)])
        np.testing.assert_allclose(out, direct, rtol=1e-4, atol=1e-5)

    def test_circular_corr_unbinds_conv(self):
        rng = np.random.default_rng(8)
        d = 512
        a = rng.normal(0, 1 / np.sqrt(d), d).astype(np.float32)
        b = rng.normal(0, 1 / np.sqrt(d), d).astype(np.float32)
        bound = T.circular_conv(T.tensor(a), T.tensor(b))
        recovered = T.circular_corr(T.tensor(a), bound).numpy()
        cos = np.dot(recovered, b) / (
            np.linalg.norm(recovered) * np.linalg.norm(b))
        assert cos > 0.5

    def test_batched_circular_conv(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(3, 16)).astype(np.float32)
        b = rng.normal(size=(3, 16)).astype(np.float32)
        out = T.circular_conv(T.tensor(a), T.tensor(b))
        assert out.shape == (3, 16)
        single = T.circular_conv(T.tensor(a[1]), T.tensor(b[1])).numpy()
        np.testing.assert_allclose(out.numpy()[1], single, rtol=1e-4,
                                   atol=1e-5)


class TestRealFFT:
    def test_rfft_irfft_round_trip(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=32).astype(np.float64)
        spectrum = T.rfft(T.tensor(x))
        np.testing.assert_allclose(spectrum.numpy(), np.fft.rfft(x))
        back = T.irfft(spectrum, n=32)
        np.testing.assert_allclose(back.numpy(), x, atol=1e-12)

    def test_batched_rfft_last_axis(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 16))
        out = T.rfft(T.tensor(x))
        assert out.shape == (4, 9)
        np.testing.assert_allclose(out.numpy(), np.fft.rfft(x, axis=-1))

    def test_irfft_default_length(self):
        spectrum = np.fft.rfft(np.arange(10.0))
        out = T.irfft(T.tensor(spectrum))
        assert out.shape == (10,)

    def test_fft_accounting(self):
        with T.profile("t") as prof:
            out = T.rfft(T.tensor(np.ones((2, 64))))
            T.irfft(out, n=64)
        rfft_ev, irfft_ev = prof.trace[-2:]
        assert rfft_ev.name == "rfft"
        assert irfft_ev.name == "irfft"
        # 5 * d * log2(d) per transform, batched over the leading axis
        expected = 2 * 5.0 * 64 * np.log2(64)
        assert rfft_ev.flops == pytest.approx(expected)
        assert irfft_ev.flops == pytest.approx(expected)
        assert rfft_ev.category is OpCategory.ELEMENTWISE
        assert irfft_ev.category is OpCategory.ELEMENTWISE


class TestTransforms:
    def test_reshape_transpose(self):
        x = T.tensor(np.arange(6, dtype=np.float32))
        r = T.reshape(x, (2, 3))
        assert r.shape == (2, 3)
        t = T.transpose(r)
        assert t.shape == (3, 2)
        np.testing.assert_allclose(t.numpy(), r.numpy().T)

    def test_concat_stack_split(self):
        a = T.tensor(np.ones((2, 3), dtype=np.float32))
        b = T.tensor(np.zeros((2, 3), dtype=np.float32))
        assert T.concat([a, b], axis=0).shape == (4, 3)
        assert T.stack([a, b], axis=0).shape == (2, 2, 3)
        parts = T.split(T.tensor(np.arange(8, dtype=np.float32)), 4)
        assert len(parts) == 4
        np.testing.assert_allclose(parts[2].numpy(), [4, 5])

    def test_pad_take_index(self):
        x = T.tensor(np.arange(4, dtype=np.float32))
        assert T.pad(x, (1, 1)).shape == (6,)
        taken = T.take(T.tensor(np.arange(10, dtype=np.float32)),
                       T.tensor(np.array([1, 3]), dtype=np.int64))
        np.testing.assert_allclose(taken.numpy(), [1, 3])
        row = T.index(T.tensor(np.arange(6, dtype=np.float32).reshape(2, 3)), 1)
        np.testing.assert_allclose(row.numpy(), [3, 4, 5])

    def test_masked_select_where(self):
        x = T.tensor(np.array([1.0, 2.0, 3.0]))
        m = T.tensor(np.array([True, False, True]))
        np.testing.assert_allclose(T.masked_select(x, m).numpy(), [1, 3])
        out = T.where(m, x, T.tensor(np.zeros(3)))
        np.testing.assert_allclose(out.numpy(), [1, 0, 3])

    def test_roll_flip_sort(self):
        x = T.tensor(np.array([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(T.roll(x, 1).numpy(), [2, 3, 1])
        np.testing.assert_allclose(T.flip(x).numpy(), [2, 1, 3])
        np.testing.assert_allclose(T.sort(x).numpy(), [1, 2, 3])
        np.testing.assert_allclose(T.argsort(x).numpy(), [1, 2, 0])

    def test_broadcast_to(self):
        x = T.tensor(np.array([[1.0], [2.0]], dtype=np.float32))
        out = T.broadcast_to(x, (2, 3))
        np.testing.assert_allclose(out.numpy(), [[1, 1, 1], [2, 2, 2]])

    def test_coalesce_sums_duplicates(self):
        idx = T.tensor(np.array([0, 1, 1, 3]), dtype=np.int64)
        val = T.tensor(np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32))
        out = T.coalesce(idx, val, size=5)
        np.testing.assert_allclose(out.numpy(), [1, 5, 0, 4, 0])

    def test_one_hot(self):
        out = T.one_hot(T.tensor(np.array([0, 2]), dtype=np.int64), 3)
        np.testing.assert_allclose(out.numpy(), [[1, 0, 0], [0, 0, 1]])


class TestMovementAndLogic:
    def test_copy_astype(self):
        x = T.tensor(np.arange(3, dtype=np.float32))
        c = T.copy(x)
        assert c.numpy() is not x.numpy()
        assert T.astype(x, np.float64).dtype == np.float64

    def test_to_device_records_movement(self):
        with T.profile("t") as prof:
            T.to_device(T.tensor(np.ones(100, dtype=np.float32)), "gpu")
            T.to_host(T.tensor(np.ones(50, dtype=np.float32)))
        cats = [e.category for e in prof.trace]
        assert all(c is OpCategory.MOVEMENT for c in cats)
        assert prof.trace[0].name == "to_gpu"
        assert prof.trace[1].name == "to_host"

    def test_fuzzy_ops_are_other_category(self):
        a = T.tensor(np.array([0.8], dtype=np.float32))
        b = T.tensor(np.array([0.4], dtype=np.float32))
        with T.profile("t") as prof:
            assert T.fuzzy_and(a, b).numpy() == pytest.approx(0.2)
            assert T.fuzzy_or(a, b).numpy() == pytest.approx(1.0)
            assert T.fuzzy_not(a).numpy() == pytest.approx(0.2, abs=1e-6)
            assert T.fuzzy_implies(a, b).numpy() == pytest.approx(0.6)
        assert all(e.category is OpCategory.OTHER for e in prof.trace)

    def test_comparisons(self):
        a = T.tensor(np.array([1.0, 3.0]))
        b = T.tensor(np.array([2.0, 2.0]))
        np.testing.assert_array_equal(T.greater(a, b).numpy(),
                                      [False, True])
        np.testing.assert_array_equal(T.less(a, b).numpy(), [True, False])
        np.testing.assert_array_equal(T.equal(a, a).numpy(), [True, True])
        np.testing.assert_array_equal(
            T.logical_and(T.greater(a, b), T.less(a, b)).numpy(),
            [False, False])


class TestEventAccounting:
    def test_bytes_accounting(self):
        a = np.ones((10, 10), dtype=np.float32)
        with T.profile("t") as prof:
            T.add(T.tensor(a), T.tensor(a))
        event = prof.trace[0]
        assert event.bytes_read == 2 * a.nbytes
        assert event.bytes_written == a.nbytes

    def test_parent_links(self):
        with T.profile("t") as prof:
            x = T.tensor(np.ones(4, dtype=np.float32))
            y = T.add(x, 1.0)
            z = T.mul(y, 2.0)
        assert prof.trace[1].parents == (prof.trace[0].eid,)
        assert z.producer == prof.trace[1].eid

    def test_sparsity_measured(self):
        x = np.zeros(100, dtype=np.float32)
        x[:10] = 1.0
        with T.profile("t") as prof:
            T.copy(T.tensor(x))
        assert prof.trace[0].output_sparsity == pytest.approx(0.9)

    def test_no_context_no_recording(self):
        out = T.add(T.tensor(np.ones(3)), 1.0)
        np.testing.assert_allclose(out.numpy(), [2, 2, 2])
        assert out.producer is None

    def test_reshape_is_free(self):
        with T.profile("t") as prof:
            T.reshape(T.tensor(np.ones((2, 3), dtype=np.float32)), (6,))
        event = prof.trace[0]
        assert event.bytes_written == 0
        assert event.flops == 0


class TestSparsityCount:
    """The dispatcher's sparsity equals the plain ``count_nonzero``
    zero fraction bit for bit, whichever count it picks."""

    @staticmethod
    def _values(dtype, size):
        rng = np.random.default_rng(size)
        if dtype == np.bool_:
            return rng.random(size) < 0.4
        if np.issubdtype(dtype, np.integer):
            return rng.integers(-2, 3, size).astype(dtype)
        arr = rng.standard_normal(size).astype(dtype)
        arr[rng.random(size) < 0.5] = 0.0
        specials = [np.nan, -0.0, 0.0, np.inf, -np.inf, -0.0, np.nan]
        arr[:len(specials)] = specials
        return arr

    @staticmethod
    def _plain(arr):
        return 1.0 - np.count_nonzero(arr) / arr.size

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64,
                                       np.bool_, np.int8, np.int64])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_equals_plain_count_around_threshold(self, dtype, offset):
        from repro.tensor.dispatch import (_SPARSITY_COMPARE_MIN,
                                           _measure_sparsity)
        arr = self._values(dtype, _SPARSITY_COMPARE_MIN + offset)
        assert _measure_sparsity(arr).hex() == self._plain(arr).hex()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_contiguous_and_0d(self, dtype):
        from repro.tensor.dispatch import (_SPARSITY_COMPARE_MIN,
                                           _measure_sparsity)
        base = self._values(dtype, 6 * _SPARSITY_COMPARE_MIN)
        views = [base[::3], base.reshape(-1, 6)[:, ::2].T,
                 np.asarray(base[3]), np.asarray(dtype(-0.0))]
        assert not views[0].flags.c_contiguous
        assert views[2].ndim == 0
        for view in views:
            assert _measure_sparsity(view).hex() == self._plain(view).hex()


class TestClassifiedErrors:
    """Degenerate/boundary inputs must fail as TensorOpError (the
    classified terminal state the fuzzer's oracle distinguishes from a
    crash) — or, where an empty result is well-defined, return it."""

    def test_axis_out_of_range(self):
        from repro.tensor.errors import TensorOpError
        t = T.tensor(np.ones((2, 3), dtype=np.float32))
        with pytest.raises(TensorOpError, match="axis"):
            T.sum(t, axis=2)
        with pytest.raises(TensorOpError, match="axis"):
            T.cumsum(t, axis=-3)

    def test_identity_free_reductions_need_elements(self):
        from repro.tensor.errors import TensorOpError
        empty = T.tensor(np.zeros((0, 4), dtype=np.float32))
        for op in (T.max, T.min, T.argmax):
            with pytest.raises(TensorOpError):
                op(empty)
        # reducing the non-empty axis of an empty tensor is still
        # undefined per empty row
        with pytest.raises(TensorOpError):
            T.max(T.tensor(np.zeros((4, 0), dtype=np.float32)), axis=1)

    def test_identity_reductions_accept_empty(self):
        empty = T.tensor(np.zeros((0, 4), dtype=np.float32))
        assert T.sum(empty).numpy() == 0.0
        assert T.prod(empty).numpy() == 1.0
        out = T.softmax(T.tensor(np.zeros((0, 4), dtype=np.float32)))
        assert out.shape == (0, 4)
        out = T.softmax(T.tensor(np.zeros((4, 0), dtype=np.float32)))
        assert out.shape == (4, 0)
        assert np.isfinite(out.numpy()).all()

    def test_matmul_rank_and_inner_dim(self):
        from repro.tensor.errors import TensorOpError
        scalar = T.tensor(np.float32(2.0))
        vec = T.tensor(np.ones(3, dtype=np.float32))
        with pytest.raises(TensorOpError, match="at least 1-d"):
            T.matmul(scalar, vec)
        with pytest.raises(TensorOpError):
            T.matmul(vec, T.tensor(np.ones(4, dtype=np.float32)))

    def test_fft_degenerate_lengths(self):
        from repro.tensor.errors import TensorOpError
        with pytest.raises(TensorOpError, match="length 0"):
            T.rfft(T.tensor(np.zeros(0, dtype=np.float32)))
        half = T.tensor(np.zeros(1, dtype=np.complex64))
        with pytest.raises(TensorOpError):
            T.irfft(half, n=0)

    def test_circular_binding_validates_dims(self):
        from repro.tensor.errors import TensorOpError
        a = T.tensor(np.ones(4, dtype=np.float32))
        with pytest.raises(TensorOpError, match="binding dimension"):
            T.circular_conv(T.tensor(np.zeros(0, dtype=np.float32)),
                            T.tensor(np.zeros(0, dtype=np.float32)))
        with pytest.raises(TensorOpError):
            T.circular_corr(a, T.tensor(np.ones(5, dtype=np.float32)))

    def test_split_take_validate_arguments(self):
        from repro.tensor.errors import TensorOpError
        t = T.tensor(np.arange(6, dtype=np.float32))
        with pytest.raises(TensorOpError):
            T.split(t, 4)           # 6 % 4 != 0
        with pytest.raises(TensorOpError):
            T.take(t, T.tensor(np.array([7], dtype=np.int64)))

    def test_indexed_builders_validate_ranges(self):
        from repro.tensor.errors import TensorOpError
        idx = T.tensor(np.array([0, 2], dtype=np.int64))
        val = T.tensor(np.ones(2, dtype=np.float32))
        with pytest.raises(TensorOpError, match="depth"):
            T.one_hot(idx, 0)
        with pytest.raises(TensorOpError):
            T.one_hot(idx, 2)       # index 2 out of range
        with pytest.raises(TensorOpError, match="negative size"):
            T.coalesce(idx, val, -1)
        with pytest.raises(TensorOpError):
            T.coalesce(idx, val, 2)  # coord 2 out of range

    def test_conv2d_validates_geometry(self):
        from repro.tensor.errors import TensorOpError
        x = T.tensor(np.ones((1, 2, 4, 4), dtype=np.float32))
        w_bad = T.tensor(np.ones((1, 3, 3, 3), dtype=np.float32))
        with pytest.raises(TensorOpError, match="channel mismatch"):
            T.conv2d(x, w_bad)
        w_big = T.tensor(np.ones((1, 2, 9, 9), dtype=np.float32))
        with pytest.raises(TensorOpError):
            T.conv2d(x, w_big)      # kernel larger than padded input
