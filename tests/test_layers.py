import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avtrait import layers as L
from avtrait import model as M
from avtrait.gradcheck import LAYER_CASES, collect
from oracles import (
    batchnorm_backward_three_term,
    batchnorm_eval_loops,
    batchnorm_train_loops,
    central_difference,
    conv1d_loops,
    conv2d_loops,
    fd_rel_err,
    lstm_step_loops,
    maxpool1d_windows,
    maxpool2d_windows,
)
from tracemem import traced

FD_TOL = 1e-5


def rng64(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


@pytest.mark.parametrize("layer, build", LAYER_CASES, ids=[layer for layer, _ in LAYER_CASES])
def test_gradients_match_finite_differences(layer, build):
    # the `gradcheck` command's own table, differenced by the frozen oracle
    run, arrays = build(rng64(0))
    _, analytic = run()
    for name, x in arrays.items():
        assert fd_rel_err(analytic[name], central_difference(lambda: run()[0], x)) <= FD_TOL, name


def reachable_arrays(obj):
    """Every array a (nested) cache reaches: its arrays and the buffers they view."""
    found, stack = [], [obj]
    while stack:
        o = stack.pop()
        if isinstance(o, (tuple, list)):
            stack.extend(o)
        elif dataclasses.is_dataclass(o) and not isinstance(o, type):
            stack.extend(getattr(o, f.name) for f in dataclasses.fields(o))
        elif isinstance(o, np.ndarray):
            while o is not None:  # a view of a view reaches its buffer through a chain of bases
                if isinstance(o, np.ndarray):
                    found.append(o)
                o = getattr(o, "base", None)
    return found


class TestConvSpec:
    def test_rank_consistency_enforced(self):
        with pytest.raises(ValueError):
            L.ConvSpec((3, 3), (1,), (1, 1))

    def test_positive_extents(self):
        with pytest.raises(ValueError):
            L.ConvSpec((0,), (1,), (0,))

    def test_output_extent_formula(self):
        assert L.out_extent(224, 7, 2, 3) == 112
        assert L.out_extent(50176, 49, 4, 24) == 12544


class TestConvForward:
    def test_1d_delta_kernel_is_identity(self):
        x = np.array([[[1.5, -2.0, 3.25]]], dtype=np.float32)
        w = np.array([[[0.0, 1.0, 0.0]]], dtype=np.float32)
        y, _ = L.conv_forward(x, w, L.ConvSpec((3,), (1,), (1,), 1, 1))
        np.testing.assert_array_equal(y, x)

    def test_zero_input_gives_constant_bias_map(self):
        x = np.zeros((1, 2, 6), dtype=np.float32)
        w = np.ones((3, 2, 3), dtype=np.float32)
        b = np.array([0.5, -1.0, 2.0], dtype=np.float32)
        y, _ = L.conv_forward(x, w, L.ConvSpec((3,), (1,), (1,), 2, 3), b)
        for o in range(3):
            np.testing.assert_array_equal(y[0, o], np.full(6, b[o]))

    def test_2d_random_matches_six_loop_oracle(self):
        rng = rng64(1)
        x = rng.standard_normal((1, 3, 8, 8))
        w = rng.standard_normal((2, 3, 3, 3))
        b = rng.standard_normal(2)
        y, _ = L.conv_forward(x, w, L.ConvSpec((3, 3), (2, 2), (1, 1), 3, 2), b)
        np.testing.assert_allclose(y, conv2d_loops(x, w, b, (2, 2), (1, 1)), rtol=1e-12)

    def test_1d_random_matches_loop_oracle(self):
        rng = rng64(2)
        x = rng.standard_normal((2, 2, 15))
        w = rng.standard_normal((4, 2, 5))
        b = rng.standard_normal(4)
        y, _ = L.conv_forward(x, w, L.ConvSpec((5,), (3,), (2,), 2, 4), b)
        np.testing.assert_allclose(y, conv1d_loops(x, w, b, 3, 2), rtol=1e-12)

    def test_channel_mismatch_rejected(self):
        x = np.zeros((1, 2, 8), dtype=np.float32)
        w = np.zeros((1, 3, 3), dtype=np.float32)
        with pytest.raises(L.ShapeMismatchError):
            L.conv_forward(x, w, L.ConvSpec((3,), (1,), (1,), 3, 1))

    def test_weight_mismatch_reports_both_shapes(self):
        x = np.zeros((1, 2, 8), dtype=np.float32)
        w = np.zeros((1, 2, 5), dtype=np.float32)
        with pytest.raises(L.ShapeMismatchError) as exc:
            L.conv_forward(x, w, L.ConvSpec((3,), (1,), (1,), 2, 1))
        assert "(1, 2, 5)" in str(exc.value) and "(1, 2, 3)" in str(exc.value)

    def test_too_small_output_rejected(self):
        x = np.zeros((1, 1, 2), dtype=np.float32)
        w = np.zeros((1, 1, 5), dtype=np.float32)
        with pytest.raises(ValueError, match="extent"):
            L.conv_forward(x, w, L.ConvSpec((5,), (1,), (0,), 1, 1))

    @pytest.mark.parametrize("ndim", [1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_sample_slices_match_the_whole_batch(self, monkeypatch, ndim, stride, dtype):
        rng = rng64(8)
        x = rng.standard_normal((3, 2) + (9,) * ndim).astype(dtype)
        w = rng.standard_normal((4, 2) + (3,) * ndim).astype(dtype)
        b = rng.standard_normal(4).astype(dtype)
        spec = L.ConvSpec((3,) * ndim, (stride,) * ndim, (1,) * ndim, 2, 4)
        y, _ = L.conv_forward(x, w, spec, b)
        monkeypatch.setattr(L, "BAND_BYTES", 1)
        y1, _ = L.conv_forward(x, w, spec, b)
        assert y1.dtype == y.dtype == dtype
        np.testing.assert_array_equal(y1, y)

    def test_peak_stays_below_the_whole_batch_columns(self, monkeypatch):
        rng = rng64(9)
        x = rng.standard_normal((8, 4, 32, 32))
        w = rng.standard_normal((4, 4, 3, 3))
        spec = L.ConvSpec((3, 3), (1, 1), (1, 1), 4, 4)
        sample_cols = w[0].size * 32 * 32 * x.itemsize
        monkeypatch.setattr(L, "BAND_BYTES", sample_cols)  # one sample a slice
        peak = traced(L.conv_forward, x, w, spec).peak
        # padded input, output and one slice's columns: about a third of
        # the whole batch's columns
        assert peak < 8 * sample_cols, (peak, 8 * sample_cols)

    def test_small_samples_hold_one_band_of_columns_at_a_time(self):
        # 32 samples of 147 KB of columns, 4.7 MB in all: slices of 7
        # samples, each below BAND_BYTES, next to the padded input and the
        # output, which the call holds whatever its slices
        rng = rng64(13)
        x = rng.standard_normal((32, 4, 32, 32)).astype(np.float32)
        w = rng.standard_normal((4, 4, 3, 3)).astype(np.float32)
        spec = L.ConvSpec((3, 3), (1, 1), (1, 1), 4, 4)
        sample_cols = w[0].size * 32 * 32 * x.itemsize
        assert 32 * sample_cols > 4 * L.BAND_BYTES and 32 * sample_cols < L.COLUMN_BYTES
        (y, _), peak, _ = traced(L.conv_forward, x, w, spec)
        padded = x.nbytes * 34 * 34 // (32 * 32)
        assert peak - padded - y.nbytes < L.BAND_BYTES + (64 << 10), (peak - padded - y.nbytes, L.BAND_BYTES)

    # the eval convolutions whose one sample's columns exceed COLUMN_BYTES:
    # a canonical 256x456 frame's visual stem and a stage-1 conv after its
    # pool, and a 15 s waveform's auditory stem
    @pytest.mark.parametrize(
        "x_shape, w_shape, spec",
        [
            ((1, 3, 256, 456), (32, 3, 7, 7), L.ConvSpec((7, 7), (2, 2), (3, 3), 3, 32)),
            ((1, 32, 64, 114), (32, 32, 3, 3), L.ConvSpec((3, 3), (1, 1), (1, 1), 32, 32)),
            ((1, 1, 240000), (32, 1, 49), L.ConvSpec((49,), (4,), (24,), 1, 32)),
            # 80399 positions: bands of as many as fit would leave a last one of 164
            ((1, 1, 321595), (32, 1, 49), L.ConvSpec((49,), (4,), (24,), 1, 32)),
        ],
        ids=["visual-stem", "visual-stage1", "auditory-stem", "auditory-stem-20s"],
    )
    def test_row_bands_match_the_whole_sample_product_at_real_sizes(self, monkeypatch, x_shape, w_shape, spec):
        rng = rng64(11)
        x = rng.standard_normal(x_shape).astype(np.float32)
        w = (rng.standard_normal(w_shape) * 0.1).astype(np.float32)
        b = rng.standard_normal(32).astype(np.float32)
        y, _ = L.conv_forward(x, w, spec, b)
        assert w[0].size * y[0, 0].size * x.itemsize > L.COLUMN_BYTES  # one sample, in bands
        monkeypatch.setattr(L, "BAND_BYTES", 1 << 40)
        whole, _ = L.conv_forward(x, w, spec, b)
        assert y.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("ndim", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forced_row_bands_match_the_whole_sample_product(self, monkeypatch, ndim, dtype):
        # 2 samples of 10 rows of 16 windows (2-d) or of 100 positions
        # (1-d), each alone, in 4 bands of at most 3 rows or 32 positions
        rng = rng64(12)
        extent = (20, 32) if ndim == 2 else (200,)
        x = rng.standard_normal((2, 2) + extent).astype(dtype)
        w = rng.standard_normal((4, 2) + (3,) * ndim).astype(dtype)
        spec = L.ConvSpec((3,) * ndim, (2,) * ndim, (1,) * ndim, 2, 4)
        monkeypatch.setattr(L, "COLUMN_BYTES", 1)
        whole, _ = L.conv_forward(x, w, spec)
        band_windows = 3 * 16 if ndim == 2 else 32
        monkeypatch.setattr(L, "BAND_BYTES", band_windows * w[0].size * x.itemsize)
        y, _ = L.conv_forward(x, w, spec)
        assert y.tobytes() == whole.tobytes()

    def test_training_step_is_bitwise_equal_after_a_forward_in_one_sample_slices(self, monkeypatch):
        # Only the forward slices here: conv_backward's dw adds its slices'
        # products, which equals one whole-batch product up to rounding
        # (TestConvBackward), so the backward runs at the default in both.
        arch = M.mini_architecture()
        params = M.build_network(arch, 7)
        rng = rng64(10)
        audio = rng.standard_normal((4, 1, 2048)).astype(np.float32)
        frames = rng.random((4, 3, 32, 32), dtype=np.float32)
        g = rng.standard_normal((4, 5)).astype(np.float32)
        default = L.BAND_BYTES

        def step(forward_bytes):
            own = {name: v.copy() for name, v in params.items()}
            monkeypatch.setattr(L, "BAND_BYTES", forward_bytes)
            pred, tape = M.forward_train(arch, own, audio, frames)
            monkeypatch.setattr(L, "BAND_BYTES", default)
            return pred, collect(functools.partial(M.backward, tape, g)), own

        want = step(default)
        got = step(1)
        np.testing.assert_array_equal(got[0], want[0])
        for i in (1, 2):  # gradients, then parameters with the running statistics
            assert set(got[i]) == set(want[i])
            for name in want[i]:
                np.testing.assert_array_equal(got[i][name], want[i][name], err_msg=name)


class TestConvBackward:
    def test_zero_grad_out_gives_zero_gradients(self):
        rng = rng64(3)
        x = rng.standard_normal((2, 2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        spec = L.ConvSpec((3, 3), (1, 1), (1, 1), 2, 3)
        y, cache = L.conv_forward(x, w, spec)
        dw, dx = L.conv_backward(cache, np.zeros_like(y))
        assert not dw.any() and not dx.any()

    def test_1x1_conv_input_grad_matches_matmul_oracle(self):
        # a 1-extent kernel at stride 1 is a per-position channel mix, so
        # dL/dx = w^T applied position-wise
        rng = rng64(4)
        x = rng.standard_normal((1, 3, 4, 4))
        w = rng.standard_normal((5, 3, 1, 1))
        spec = L.ConvSpec((1, 1), (1, 1), (0, 0), 3, 5)
        y, cache = L.conv_forward(x, w, spec)
        g = rng.standard_normal(y.shape)
        _, dx = L.conv_backward(cache, g)
        wm = w.reshape(5, 3)
        ref = np.einsum("bohw,oc->bchw", g, wm)
        np.testing.assert_allclose(dx, ref, rtol=1e-12)

    def test_grad_shape_mismatch_rejected(self):
        x = np.zeros((1, 1, 8), dtype=np.float32)
        w = np.zeros((1, 1, 3), dtype=np.float32)
        _, cache = L.conv_forward(x, w, L.ConvSpec((3,), (1,), (1,), 1, 1))
        with pytest.raises(L.ShapeMismatchError):
            L.conv_backward(cache, np.zeros((1, 1, 5), dtype=np.float32))

    @pytest.mark.parametrize("ndim", [1, 2])
    def test_cache_holds_nothing_larger_than_input_or_weight(self, ndim):
        # the columns are 9x the input here; backward builds grad_out's instead
        rng = rng64(5)
        x = rng.standard_normal((2, 4) + (12,) * ndim).astype(np.float32)
        w = rng.standard_normal((4, 4) + (3,) * ndim).astype(np.float32)
        spec = L.ConvSpec((3,) * ndim, (1,) * ndim, (1,) * ndim, 4, 4)
        _, cache = L.conv_forward(x, w, spec)
        largest = max(a.nbytes for a in reachable_arrays(cache))
        assert largest <= max(x.nbytes, w.nbytes)

    @pytest.mark.parametrize("ndim", [1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_sample_slices_match_the_whole_batch(self, monkeypatch, ndim, stride, dtype):
        # dx is bitwise equal; dw adds the slices' products, so only close
        rng = rng64(7)
        x = rng.standard_normal((3, 2) + (9,) * ndim).astype(dtype)
        w = rng.standard_normal((4, 2) + (3,) * ndim).astype(dtype)
        spec = L.ConvSpec((3,) * ndim, (stride,) * ndim, (1,) * ndim, 2, 4)
        y, cache = L.conv_forward(x, w, spec)
        g = rng.standard_normal(y.shape).astype(dtype)
        dw, dx = L.conv_backward(cache, g)
        monkeypatch.setattr(L, "COLUMN_BYTES", 1)
        dw1, dx1 = L.conv_backward(cache, g)
        assert dw1.dtype == dx1.dtype == dw.dtype == dx.dtype == dtype
        np.testing.assert_allclose(dw1, dw, rtol=1e-12 if dtype == np.float64 else 1e-5)
        np.testing.assert_array_equal(dx1, dx)

    def test_peak_stays_below_the_whole_batch_columns(self, monkeypatch):
        rng = rng64(11)
        x = rng.standard_normal((8, 4, 32, 32))
        w = rng.standard_normal((4, 4, 3, 3))
        spec = L.ConvSpec((3, 3), (1, 1), (1, 1), 4, 4)
        y, cache = L.conv_forward(x, w, spec)
        g = rng.standard_normal(y.shape)
        sample_cols = w[0].size * 32 * 32 * g.itemsize
        monkeypatch.setattr(L, "COLUMN_BYTES", sample_cols)  # one sample a slice
        peak = traced(L.conv_backward, cache, g).peak
        # dx, one slice's padded gradient and its columns: about a quarter
        # of the whole batch's gradient columns
        assert peak < 8 * sample_cols / 3, (peak, 8 * sample_cols)

    def test_padding_beyond_kernel_is_adjoint(self):
        # windows that lie wholly in the padding get gradients but add nothing to dx
        rng = rng64(6)
        x = rng.standard_normal((2, 2, 5, 4))
        w = rng.standard_normal((3, 2, 2, 3))
        spec = L.ConvSpec((2, 3), (1, 1), (2, 1), 2, 3)
        y, cache = L.conv_forward(x, w, spec)
        g = rng.standard_normal(y.shape)
        dw, dx = L.conv_backward(cache, g)
        lhs = float(np.sum(y * g))
        assert float(np.sum(x * dx)) == pytest.approx(lhs, rel=1e-12)
        assert float(np.sum(w * dw)) == pytest.approx(lhs, rel=1e-12)

    @pytest.mark.parametrize("ndim", [1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("sliced", [False, True], ids=["whole", "one-sample"])
    def test_weight_only_backward_equals_the_full_call(self, monkeypatch, ndim, stride, dtype, sliced):
        rng = rng64(12)
        x = rng.standard_normal((3, 2) + (11,) * ndim).astype(dtype)
        w = rng.standard_normal((4, 2) + (3,) * ndim).astype(dtype)
        spec = L.ConvSpec((3,) * ndim, (stride,) * ndim, (1,) * ndim, 2, 4)
        y, cache = L.conv_forward(x, w, spec)
        g = rng.standard_normal(y.shape).astype(dtype)
        if sliced:
            monkeypatch.setattr(L, "COLUMN_BYTES", 1)
        forms = []
        unit_stride_grads = L._unit_stride_grads
        monkeypatch.setattr(L, "_unit_stride_grads", lambda *a: forms.append(a[-1]) or unit_stride_grads(*a))
        dw, dx = L.conv_backward(cache, g)
        dw0, dx0 = L.conv_backward(cache, g, input_grad=False)
        assert forms == ([True, False] if stride == 1 else [])  # both forms are covered
        assert dx is not None and dx0 is None
        assert dw0.dtype == dw.dtype == dtype and dw0.tobytes() == dw.tobytes()


@st.composite
def window_geometry(draw, ndim):
    """Kernel 1-5, stride 1-4 (also above the kernel), padding 0..k-1 and
    extents that need not be multiples of the stride."""
    kernel = tuple(draw(st.integers(1, 5)) for _ in range(ndim))
    stride = tuple(draw(st.integers(1, 4)) for _ in range(ndim))
    padding = tuple(draw(st.integers(0, k - 1)) for k in kernel)
    extent = tuple(draw(st.integers(max(1, k - 2 * p), k - 2 * p + 8)) for k, p in zip(kernel, padding))
    batch, cin, cout = draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    spec = L.ConvSpec(kernel, stride, padding, cin, cout)
    return spec, (batch, cin) + extent, np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32))))


def conv_loops(x, w, b, spec):
    if spec.ndim == 1:
        return conv1d_loops(x, w, b, spec.stride[0], spec.padding[0])
    return conv2d_loops(x, w, b, spec.stride, spec.padding)


def unit_stride_grads_einsum(x, w, g, spec):
    """(dw, dx) of a stride-1 convolution, by einsum over x's padded window view.

    dw contracts the windows with g; dx adds each kernel offset's window
    gradients into a zero padded buffer and crops its interior.
    """
    nd = spec.ndim
    o, k = "yz"[:nd], "hw"[:nd]
    xp = np.pad(x, ((0, 0), (0, 0)) + tuple((p, p) for p in spec.padding))
    win = np.lib.stride_tricks.sliding_window_view(xp, spec.kernel, axis=tuple(range(2, 2 + nd)))
    dw = np.einsum(f"bc{o}{k},bd{o}->dc{k}", win, g)
    dwin = np.einsum(f"bd{o},dc{k}->bc{o}{k}", g, w)
    dxp = np.zeros_like(xp)
    for off in np.ndindex(spec.kernel):
        dxp[(Ellipsis,) + tuple(slice(m, m + n) for m, n in zip(off, g.shape[2:]))] += dwin[(Ellipsis,) + off]
    return dw, dxp[(Ellipsis,) + tuple(slice(p, p + n) for p, n in zip(spec.padding, x.shape[2:]))]


def maxpool_windows(x, spec):
    if spec.ndim == 1:
        return maxpool1d_windows(x, spec.kernel[0], spec.stride[0], spec.padding[0])
    return maxpool2d_windows(x, spec.kernel, spec.stride, spec.padding)


def window_max_mask(x, y, spec):
    """True where an input element equals the maximum of a window that holds it."""
    mask = np.zeros(x.shape, dtype=bool)
    for b, c, *o in np.ndindex(*y.shape):
        for k in np.ndindex(*spec.kernel):
            pos = tuple(oi * s - p + ki for oi, s, p, ki in zip(o, spec.stride, spec.padding, k))
            if all(0 <= q < n for q, n in zip(pos, x.shape[2:])) and x[(b, c) + pos] == y[(b, c) + tuple(o)]:
                mask[(b, c) + pos] = True
    return mask


def maxpool_backward_loops(x, y, g, spec):
    """maxpool_backward by loops: each window's gradient goes to its first
    element inside x, in row-major kernel-offset order, equal to its
    maximum, and each element adds its contributions in kernel-offset order."""
    routed = {}  # output index -> (winning kernel offset, its input index)
    for b, c, *o in np.ndindex(*y.shape):
        for k in np.ndindex(*spec.kernel):
            pos = tuple(oi * s - p + ki for oi, s, p, ki in zip(o, spec.stride, spec.padding, k))
            if all(0 <= q < n for q, n in zip(pos, x.shape[2:])) and x[(b, c) + pos] == y[(b, c) + tuple(o)]:
                routed[(b, c) + tuple(o)] = k, (b, c) + pos
                break
    dx = np.zeros(x.shape, g.dtype)
    for k in np.ndindex(*spec.kernel):
        for out, (won, at) in routed.items():
            if won == k:
                dx[at] += g[out]
    return dx


class TestWindows:
    @pytest.mark.parametrize("ndim", [1, 2])
    @pytest.mark.parametrize("stride", [1, 2, 4])
    def test_view_is_the_strided_sliding_window_of_its_buffer(self, ndim, stride):
        rng = rng64(13)
        x = rng.standard_normal((2, 3) + (13,) * ndim).astype(np.float32)
        spec = L.ConvSpec((3,) * ndim, (stride,) * ndim, (1,) * ndim)
        win = L._windows(x, spec)
        buf = win.base
        padded = np.pad(x, ((0, 0), (0, 0)) + ((1, 1),) * ndim)
        assert buf.tobytes() == padded.tobytes()
        every = np.lib.stride_tricks.sliding_window_view(buf, spec.kernel, axis=tuple(range(2, 2 + ndim)))
        np.testing.assert_array_equal(win, every[(slice(None),) * 2 + (slice(None, None, stride),) * ndim])
        assert win.flags.writeable and np.shares_memory(win, buf) and not np.shares_memory(win, x)
        win[(1, 2) + (1,) * ndim + (2,) * ndim] = 7.0
        assert buf[(1, 2) + (stride + 2,) * ndim] == 7.0

    @pytest.mark.parametrize("layer", ["maxpool", "strided-conv"])
    @pytest.mark.parametrize(
        "x_shape, geometry",
        [((2, 16, 32, 32), ((3, 3), (2, 2), (1, 1))), ((32, 16, 128), ((9,), (4,), (4,)))],
        ids=["2d", "1d"],
    )
    def test_scatters_allocate_no_padded_buffer(self, layer, x_shape, geometry):
        # A padded dx would take 33792 bytes (2-d) or 32768 bytes (1-d) more
        # than the unpadded one, over twice the slack below, which covers the
        # offset plan's index tuples and numpy's iterators.
        rng = rng64(19)
        x = rng.standard_normal(x_shape)
        C = x.shape[1]
        spec = L.ConvSpec(*geometry, C, C)
        if layer == "maxpool":
            y, cache = L.maxpool_forward(x, spec)
        else:
            y, cache = L.conv_forward(x, rng.standard_normal((C, C) + spec.kernel), spec)
        g = rng.standard_normal(y.shape)
        # numpy buffers each strided operand of a ufunc, 64 KB of float64 at
        # its default size; at 16 elements its buffers fit in the slack
        bufsize = np.setbufsize(16)
        try:
            if layer == "maxpool":
                # the pending mask, and per offset a hit mask and the routed
                # product
                temporaries = 2 * y.size + g.nbytes
                dx, peak, _ = traced(L.maxpool_backward, cache, g)
            else:
                # the per-slice padded copy, columns and window gradients,
                # which the weight gradient alone builds too
                temporaries = traced(L.conv_backward, cache, g, input_grad=False).peak
                (_, dx), peak, _ = traced(L.conv_backward, cache, g)
        finally:
            np.setbufsize(bufsize)
        assert dx.shape == x.shape
        assert peak <= x.nbytes + temporaries + 12288, (peak, x.nbytes + temporaries)


class TestWindowProperties:
    """The shared window view, checked in float64 over random 1-d and 2-d geometries."""

    @pytest.mark.parametrize("ndim", [1, 2])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_conv_forward_matches_loop_oracle(self, ndim, data):
        spec, shape, rng = data.draw(window_geometry(ndim))
        x = rng.standard_normal(shape)
        w = rng.standard_normal((spec.out_channels, spec.in_channels) + spec.kernel)
        b = rng.standard_normal(spec.out_channels)
        y, _ = L.conv_forward(x, w, spec, b)
        np.testing.assert_allclose(y, conv_loops(x, w, b, spec), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("ndim", [1, 2])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_conv_adjoint_identity(self, ndim, data):
        # conv is bilinear in (x, w), so <conv(x) - b, g> = <x, dx> = <w, dw>
        spec, shape, rng = data.draw(window_geometry(ndim))
        x = rng.standard_normal(shape)
        w = rng.standard_normal((spec.out_channels, spec.in_channels) + spec.kernel)
        b = rng.standard_normal(spec.out_channels)
        y, cache = L.conv_forward(x, w, spec, b)
        g = rng.standard_normal(y.shape)
        dw, dx = L.conv_backward(cache, g)
        assert dx.shape == x.shape and dw.shape == w.shape
        lhs = float(np.sum((y - b.reshape((1, -1) + (1,) * ndim)) * g))
        scale = float(np.sum(np.abs(y) * np.abs(g))) + 1.0
        assert abs(float(np.sum(x * dx)) - lhs) <= 1e-12 * scale
        assert abs(float(np.sum(w * dw)) - lhs) <= 1e-12 * scale

    @pytest.mark.parametrize("ndim", [1, 2])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_unit_stride_conv_grads_match_window_einsum(self, ndim, data):
        # every stride-1 draw has padding below its kernel: the correlation path
        spec, shape, rng = data.draw(window_geometry(ndim))
        spec = dataclasses.replace(spec, stride=(1,) * ndim)
        x = rng.standard_normal(shape)
        w = rng.standard_normal((spec.out_channels, spec.in_channels) + spec.kernel)
        y, cache = L.conv_forward(x, w, spec)
        g = rng.standard_normal(y.shape)
        dw, dx = L.conv_backward(cache, g)
        want_dw, want_dx = unit_stride_grads_einsum(x, w, g, spec)
        np.testing.assert_allclose(dw, want_dw, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(dx, want_dx, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("ndim", [1, 2])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), ties=st.booleans())
    def test_maxpool_matches_window_scan_and_routes_to_maxima(self, ndim, data, ties):
        spec, shape, rng = data.draw(window_geometry(ndim))
        # small integers make ties common; normals make them rare
        x = rng.integers(0, 3, shape).astype(np.float64) if ties else rng.standard_normal(shape)
        y, cache = L.maxpool_forward(x, spec)
        np.testing.assert_array_equal(y, maxpool_windows(x, spec))
        g = rng.standard_normal(y.shape)
        dx = L.maxpool_backward(cache, g)
        assert dx.shape == x.shape
        assert float(dx.sum()) == pytest.approx(float(g.sum()), rel=1e-12, abs=1e-12)
        assert not dx[~window_max_mask(x, y, spec)].any()
        # padded edges and ties route exactly as the loop does, to the bit
        assert dx.tobytes() == maxpool_backward_loops(x, y, g, spec).tobytes()


class TestDimensionalCorrespondence:
    def test_1d_equals_width1_2d_bitwise(self):
        rng = rng64(6)
        x = rng.standard_normal((2, 3, 17)).astype(np.float32)
        w = rng.standard_normal((4, 3, 5)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        y1, _ = L.conv_forward(x, w, L.ConvSpec((5,), (2,), (2,), 3, 4), b)
        y2, _ = L.conv_forward(x[..., None], w[..., None], L.ConvSpec((5, 1), (2, 1), (2, 0), 3, 4), b)
        np.testing.assert_array_equal(y1, y2[..., 0])

    def test_k_squared_kernel_tiling_equality(self):
        # n x n kernel with n x n stride over a width-n image visits the same
        # elements in the same order as the n^2 kernel with n^2 stride over
        # the row-major flattening
        rng = rng64(7)
        n, m, C, O = 3, 4, 2, 3
        img = rng.standard_normal((1, C, m * n, n)).astype(np.float32)
        w2 = rng.standard_normal((O, C, n, n)).astype(np.float32)
        b = rng.standard_normal(O).astype(np.float32)
        y2, _ = L.conv_forward(img, w2, L.ConvSpec((n, n), (n, n), (0, 0), C, O), b)
        flat = img.reshape(1, C, m * n * n)
        w1 = w2.reshape(O, C, n * n)
        y1, _ = L.conv_forward(flat, w1, L.ConvSpec((n * n,), (n * n,), (0,), C, O), b)
        np.testing.assert_array_equal(y1.reshape(-1), y2.reshape(-1))


class TestBatchNorm:
    def fresh_state(self, c):
        return L.BatchNormState(gamma=np.ones(c), beta=np.zeros(c), running_mean=np.zeros(c), running_var=np.ones(c))

    def test_eval_standardized_identity(self):
        rng = rng64(8)
        x = rng.standard_normal((3, 2, 4))
        y = batchnorm_eval_loops(x, self.fresh_state(2))
        np.testing.assert_allclose(y, x, rtol=1e-4, atol=1e-5)

    def test_train_normalizes_per_channel(self):
        rng = rng64(9)
        x = rng.standard_normal((4, 3, 5)) * 3.0 + 1.0
        y, _ = L.batchnorm_forward(x, self.fresh_state(3))
        np.testing.assert_allclose(y.mean(axis=(0, 2)), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.var(axis=(0, 2)), 1.0, atol=1e-4)

    def test_train_matches_scalar_loop_oracle(self):
        rng = rng64(10)
        x = rng.standard_normal((4, 3, 5))
        gamma = rng.standard_normal(3) + 1.0
        beta = rng.standard_normal(3)
        state = L.BatchNormState(gamma, beta, np.zeros(3), np.ones(3))
        y, _ = L.batchnorm_forward(x, state)
        np.testing.assert_allclose(y, batchnorm_train_loops(x, gamma, beta), atol=1e-6)

    def test_running_stats_update_rule(self):
        rng = rng64(11)
        x = rng.standard_normal((8, 2, 6))
        state = self.fresh_state(2)
        mean = x.mean(axis=(0, 2))
        var = x.var(axis=(0, 2))
        L.batchnorm_forward(x, state)
        np.testing.assert_allclose(state.running_mean, 0.1 * mean, rtol=1e-12)
        np.testing.assert_allclose(state.running_var, 0.9 + 0.1 * var, rtol=1e-12)

    def test_eval_is_pure(self):
        rng = rng64(12)
        x = rng.standard_normal((3, 2, 4))
        state = self.fresh_state(2)
        before = (state.running_mean.copy(), state.running_var.copy())
        y1 = batchnorm_eval_loops(x, state)
        y2 = batchnorm_eval_loops(x, state)
        np.testing.assert_array_equal(y1, y2)
        np.testing.assert_array_equal(state.running_mean, before[0])
        np.testing.assert_array_equal(state.running_var, before[1])

    @pytest.mark.parametrize("shape", [(6, 3, 40), (4, 3, 6, 7)], ids=["1d", "2d"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_forward_bitwise_equals_var_form(self, shape, dtype):
        rng = rng64(15)
        x = (rng.standard_normal(shape) * 3.0 + 1.0).astype(dtype)
        c = shape[1]
        gamma, beta = (rng.standard_normal(c) + 1.0).astype(dtype), rng.standard_normal(c).astype(dtype)
        state = L.BatchNormState(gamma, beta, rng.standard_normal(c).astype(dtype), rng.random(c).astype(dtype) + 0.5)
        axes, bc = (0,) + tuple(range(2, x.ndim)), (1, -1) + (1,) * (x.ndim - 2)
        mean, var = x.mean(axis=axes), x.var(axis=axes)
        inv_std = 1.0 / np.sqrt(var + L.BN_EPSILON)
        xhat = (x - mean.reshape(bc)) * inv_std.reshape(bc)
        ref = gamma.reshape(bc) * xhat + beta.reshape(bc)
        m = L.BN_MOMENTUM
        running = (m * state.running_mean + (1.0 - m) * mean, m * state.running_var + (1.0 - m) * var)
        y, cache = L.batchnorm_forward(x, state)
        assert y.dtype == ref.dtype and y.tobytes() == ref.tobytes()
        assert cache[0].tobytes() == xhat.tobytes()
        assert state.running_mean.tobytes() == running[0].tobytes()
        assert state.running_var.tobytes() == running[1].tobytes()

    @pytest.mark.parametrize("shape", [(7, 3), (5, 3, 11), (4, 3, 5, 6)], ids=["0d", "1d", "2d"])
    def test_backward_matches_three_term_oracle(self, shape):
        rng = rng64(16)
        c = shape[1]
        gamma = rng.standard_normal(c) * 2.0
        state = L.BatchNormState(gamma, rng.standard_normal(c), np.zeros(c), np.ones(c))
        _, cache = L.batchnorm_forward(rng.standard_normal(shape) * 2.0 - 0.5, state)
        g = rng.standard_normal(shape)
        xhat, inv_std, _, _ = cache
        got = L.batchnorm_backward(cache, g)
        for a, b in zip(got, batchnorm_backward_three_term(xhat, inv_std, gamma, g)):
            # dx sums to zero per channel, so the absolute floor is relative to its largest entry
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())

    def test_degenerate_batch_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            L.batchnorm_forward(np.ones((1, 2)), self.fresh_state(2))

    def test_gamma_grad_zero_for_zero_upstream(self):
        rng = rng64(13)
        x = rng.standard_normal((4, 2, 3))
        _, cache = L.batchnorm_forward(x, self.fresh_state(2))
        dgamma, dbeta, dx = L.batchnorm_backward(cache, np.zeros((4, 2, 3)))
        assert not dgamma.any() and not dbeta.any() and not dx.any()

    def test_input_grad_sums_to_zero_for_constant_upstream(self):
        # with gamma=1 the normalization removes the mean, so a constant
        # upstream gradient has nowhere to push the batch as a whole
        rng = rng64(14)
        x = rng.standard_normal((5, 3, 4))
        state = self.fresh_state(3)
        state.beta[:] = rng.standard_normal(3)
        _, cache = L.batchnorm_forward(x, state)
        _, _, dx = L.batchnorm_backward(cache, np.ones((5, 3, 4)))
        np.testing.assert_allclose(dx.sum(axis=(0, 2)), 0.0, atol=1e-10)


class TestMaxPool:
    def test_window_maxima(self):
        x = np.array([[[1.0, 3.0, 2.0, 5.0]]], dtype=np.float32)
        y, _ = L.maxpool_forward(x, L.ConvSpec((2,), (2,), (0,)))
        np.testing.assert_array_equal(y, [[[3.0, 5.0]]])

    def test_constant_input_constant_output(self):
        x = np.full((1, 2, 9), 4.25, dtype=np.float32)
        y, _ = L.maxpool_forward(x, L.ConvSpec((3,), (2,), (1,)))
        assert (y == 4.25).all()

    def test_matches_window_scan_oracle_1d(self):
        rng = rng64(16)
        x = rng.standard_normal((1, 1, 10))
        y, _ = L.maxpool_forward(x, L.ConvSpec((9,), (4,), (4,)))
        np.testing.assert_array_equal(y, maxpool1d_windows(x, 9, 4, 4))

    def test_matches_window_scan_oracle_2d(self):
        rng = rng64(17)
        x = rng.standard_normal((2, 3, 7, 9))
        y, _ = L.maxpool_forward(x, L.ConvSpec((3, 3), (2, 2), (1, 1)))
        np.testing.assert_array_equal(y, maxpool2d_windows(x, (3, 3), (2, 2), (1, 1)))

    def test_backward_conserves_gradient_mass(self):
        rng = rng64(18)
        x = rng.standard_normal((2, 2, 11))
        y, cache = L.maxpool_forward(x, L.ConvSpec((3,), (3,), (1,)))
        g = rng.standard_normal(y.shape)
        dx = L.maxpool_backward(cache, g)
        # stride >= kernel: windows are disjoint, every unit of gradient
        # lands on exactly one input element
        assert dx.sum() == pytest.approx(g.sum(), rel=1e-12)

    def test_ties_route_to_lowest_linear_index(self):
        x = np.array([[[2.0, 2.0, 1.0, 2.0]]], dtype=np.float32)
        y, cache = L.maxpool_forward(x, L.ConvSpec((4,), (4,), (0,)))
        dx = L.maxpool_backward(cache, np.ones_like(y))
        np.testing.assert_array_equal(dx, [[[1.0, 0.0, 0.0, 0.0]]])

    def test_output_extent_must_be_positive(self):
        with pytest.raises(ValueError):
            L.maxpool_forward(np.ones((1, 1, 2), np.float32), L.ConvSpec((4,), (4,), (0,)))

    def test_padding_must_stay_below_kernel(self):
        with pytest.raises(ValueError, match="padding"):
            L.maxpool_forward(np.ones((1, 1, 8), np.float32), L.ConvSpec((2,), (2,), (2,)))


class TestGlobalAveragePool:
    def test_constant_map(self):
        x = np.full((2, 3, 4, 4), 1.5, dtype=np.float32)
        y, _ = L.global_average_pool(x)
        np.testing.assert_allclose(y, 1.5)
        assert y.shape == (2, 3)

    def test_arithmetic_mean(self):
        x = np.array([[[2.0, 4.0, 6.0]]], dtype=np.float32)
        y, _ = L.global_average_pool(x)
        assert y[0, 0] == pytest.approx(4.0)

    def test_matches_reduce_mean_oracle(self):
        rng = rng64(20)
        x = rng.standard_normal((1, 2, 3, 3)).astype(np.float32)
        y, _ = L.global_average_pool(x)
        np.testing.assert_array_equal(y, x.mean(axis=(2, 3)))

    def test_any_spatial_extent_works(self):
        for shape in [(1, 4, 1), (1, 4, 173), (1, 4, 3, 11)]:
            y, _ = L.global_average_pool(np.ones(shape, np.float32))
            assert y.shape == (1, 4)


class TestLinear:
    def test_identity_weight_adds_bias(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        b = np.array([0.5, -0.5], dtype=np.float32)
        y, _ = L.linear_forward(x, np.eye(2, dtype=np.float32), b)
        np.testing.assert_array_equal(y, x + b)

    def test_zero_weight_broadcasts_bias(self):
        x = np.ones((3, 4), dtype=np.float32)
        b = np.array([1.0, 2.0], dtype=np.float32)
        y, _ = L.linear_forward(x, np.zeros((4, 2), np.float32), b)
        np.testing.assert_array_equal(y, np.tile(b, (3, 1)))

    def test_matches_matmul_oracle(self):
        from oracles import matmul_loops

        rng = rng64(22)
        x = rng.standard_normal((3, 5))
        w = rng.standard_normal((5, 2))
        b = rng.standard_normal(2)
        y, _ = L.linear_forward(x, w, b)
        np.testing.assert_allclose(y, matmul_loops(x, w) + b, rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(L.ShapeMismatchError):
            L.linear_forward(np.ones((2, 3), np.float32), np.ones((4, 2), np.float32), np.ones(2, np.float32))


class TestScaledTanh:
    def test_zero_maps_to_half(self):
        y, _ = L.scaled_tanh(np.zeros((1, 5), np.float32))
        np.testing.assert_array_equal(y, np.full((1, 5), 0.5, np.float32))

    def test_saturation_asymptote(self):
        y, _ = L.scaled_tanh(np.array([20.0]))
        assert abs(float(y[0]) - 1.0) <= 1e-7

    def test_inverse_point(self):
        z = np.arctanh(0.8)
        y, _ = L.scaled_tanh(np.array([z]))
        assert float(y[0]) == pytest.approx(0.9, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-8, 8), min_size=1, max_size=8))
    def test_range_and_monotonicity(self, vals):
        z = np.array(sorted(vals), dtype=np.float64)
        y, _ = L.scaled_tanh(z)
        assert np.all(y > 0.0) and np.all(y < 1.0)
        assert np.all(np.diff(y) >= 0.0)

    def test_monotone_across_the_tanh_kernel_seam(self):
        # numpy's float64 tanh steps back by one ulp at z = -8 and z = +8
        for dtype in (np.float64, np.float32):
            for edge in (-8.0, 8.0):
                z = np.asarray(edge, dtype)
                below = [z]
                above = [z]
                for _ in range(64):
                    below.append(np.nextafter(below[-1], dtype(-np.inf)))
                    above.append(np.nextafter(above[-1], dtype(np.inf)))
                z = np.array(below[::-1] + above[1:], dtype)
                y, _ = L.scaled_tanh(z)
                assert y.dtype == dtype
                assert np.all(np.diff(y) >= 0.0), (dtype, edge)


class TestRelu:
    def test_values_and_cache(self):
        for dtype in (np.float32, np.float64):
            y, cache = L.relu_forward(np.array([-1.0, 0.0, 2.0], dtype=dtype))
            assert y.dtype == dtype
            np.testing.assert_array_equal(y, [0.0, 0.0, 2.0])
            assert cache is y
            np.testing.assert_array_equal(L.relu_backward(cache, np.full(3, 5.0, dtype)), [0.0, 0.0, 5.0])
            g = np.full(3, 5.0, dtype)
            assert L.relu_backward(cache, g, out=g) is g
            np.testing.assert_array_equal(g, [0.0, 0.0, 5.0])

    def test_backward_from_the_output_passes_where_the_input_is_positive(self):
        # max(x, 0) > 0 exactly where x > 0, for every float: signed zeros,
        # subnormals, infinities and NaN (which np.maximum propagates)
        for dtype in (np.float32, np.float64):
            tiny = np.finfo(dtype).smallest_subnormal
            x = np.array([-np.inf, -1.0, -tiny, -0.0, 0.0, tiny, 1.0, np.inf, np.nan, -np.nan], dtype)
            g = np.arange(1, x.size + 1, dtype=dtype)
            _, cache = L.relu_forward(x)
            expect = g * (x > 0)
            got = L.relu_backward(cache, g)
            assert got.dtype == dtype
            assert got.tobytes() == expect.tobytes()


def random_bn(rng, c):
    """A batch-norm state far from identity: every statistic moves the output."""
    return L.BatchNormState(
        rng.uniform(0.5, 1.5, c), rng.standard_normal(c) * 0.3, rng.standard_normal(c) * 0.3, rng.uniform(0.5, 2.0, c)
    )


def make_block(rng, kind, ndim=2, in_ch=3, out_ch=None, zero_main=False, affine=False):
    """A block with unit batch norm, or with `affine` random batch-norm states."""
    out_ch = out_ch or (in_ch if kind == "identity" else in_ch + 2)
    stride = (1,) * ndim if kind == "identity" else (2,) * ndim
    kernel = (3,) * ndim
    pad = (1,) * ndim
    scale = 0.0 if zero_main else 0.4

    def bn(c):
        return random_bn(rng, c) if affine else L.BatchNormState(np.ones(c), np.zeros(c), np.zeros(c), np.ones(c))

    return L.ResidualBlockParams(
        conv1_w=rng.standard_normal((out_ch, in_ch) + kernel) * scale,
        bn1=bn(out_ch),
        spec1=L.ConvSpec(kernel, stride, pad, in_ch, out_ch),
        conv2_w=rng.standard_normal((out_ch, out_ch) + kernel) * scale,
        bn2=bn(out_ch),
        spec2=L.ConvSpec(kernel, (1,) * ndim, pad, out_ch, out_ch),
        shortcut_w=(rng.standard_normal((out_ch, in_ch) + (1,) * ndim) * 0.5 if kind == "projection" else None),
        shortcut_spec=(
            L.ConvSpec((1,) * ndim, stride, (0,) * ndim, in_ch, out_ch) if kind == "projection" else None
        ),
    )


def composed_eval_block(x, blk):
    """An eval-mode residual block from unfolded layers: conv_forward ->
    batchnorm_eval_loops -> relu_forward, twice, plus the shortcut."""
    h1, _ = L.conv_forward(x, blk.conv1_w, blk.spec1)
    r1, _ = L.relu_forward(batchnorm_eval_loops(h1, blk.bn1))
    h2, _ = L.conv_forward(r1, blk.conv2_w, blk.spec2)
    n2 = batchnorm_eval_loops(h2, blk.bn2)
    sc = x if blk.shortcut_w is None else L.conv_forward(x, blk.shortcut_w, blk.shortcut_spec)[0]
    return L.relu_forward(n2 + sc)[0]


def cast_block(blk, dtype):
    """blk with every array, its batch-norm states' included, cast to dtype."""
    def cast(v):
        if isinstance(v, L.BatchNormState):
            return dataclasses.replace(v, **{f: getattr(v, f).astype(dtype) for f in ("gamma", "beta", "running_mean", "running_var")})
        return v.astype(dtype) if isinstance(v, np.ndarray) else v

    return dataclasses.replace(blk, **{f.name: cast(getattr(blk, f.name)) for f in dataclasses.fields(blk)})


def keep_all_block_forward(x, blk):
    """A train-mode residual block from the public layer functions whose
    cache keeps every activation: conv2's input and both rectifier outputs too."""
    h1, c_conv1 = L.conv_forward(x, blk.conv1_w, blk.spec1)
    n1, c_bn1 = L.batchnorm_forward(h1, blk.bn1)
    r1, c_relu1 = L.relu_forward(n1)
    h2, c_conv2 = L.conv_forward(r1, blk.conv2_w, blk.spec2)
    n2, c_bn2 = L.batchnorm_forward(h2, blk.bn2)
    if blk.shortcut_w is not None:
        sc, c_sc = L.conv_forward(x, blk.shortcut_w, blk.shortcut_spec)
    else:
        sc, c_sc = x, None
    y, c_out = L.relu_forward(n2 + sc)
    return y, (c_conv1, c_bn1, c_relu1, c_conv2, c_bn2, c_sc, c_out)


def keep_all_block_backward(cache, grad_out):
    c_conv1, c_bn1, c_relu1, c_conv2, c_bn2, c_sc, c_out = cache
    g = L.relu_backward(c_out, grad_out)
    grads = {}
    grads["bn2.gamma"], grads["bn2.beta"], dh2 = L.batchnorm_backward(c_bn2, g)
    grads["conv2.w"], dr1 = L.conv_backward(c_conv2, dh2)
    grads["bn1.gamma"], grads["bn1.beta"], dh1 = L.batchnorm_backward(c_bn1, L.relu_backward(c_relu1, dr1))
    grads["conv1.w"], dx = L.conv_backward(c_conv1, dh1)
    if c_sc is None:
        return grads, dx + g
    grads["shortcut.w"], dsc = L.conv_backward(c_sc, g)
    return grads, dx + dsc


def distinct_buffers(cache, params) -> list:
    """The buffers a cache reaches, each once, that are not one of `params`' arrays."""
    skip = {id(a) for a in params}
    found = {id(a): a for a in reachable_arrays(cache) if a.base is None and id(a) not in skip}
    return list(found.values())


def contents(arrays) -> list:
    return sorted((a.dtype.str, a.shape, a.tobytes()) for a in arrays)


class TestLeanBlockTape:
    """A train-mode block keeps x, x-hat 1, x-hat 2 and its output y, and
    backward rebuilds conv2's input and both masks bitwise."""

    @staticmethod
    def pair(kind, ndim, dtype):
        """Two equal blocks (their running statistics apart) and an input."""
        blk, ref = (cast_block(make_block(rng64(34), kind, ndim=ndim, affine=True), dtype) for _ in range(2))
        return blk, ref, rng64(35).standard_normal((3, 3) + (8,) * ndim).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("ndim", [1, 2])
    @pytest.mark.parametrize("kind", ["identity", "projection"])
    def test_cache_keeps_input_two_xhats_and_output(self, kind, ndim, dtype):
        blk, ref, x = self.pair(kind, ndim, dtype)
        y, cache = L.residual_block_forward(x, blk)
        _, (_, c_bn1, _, _, c_bn2, _, _) = keep_all_block_forward(x, ref)
        # besides those, only the two per-channel inverse deviations (C values each)
        want = [x, c_bn1[0], c_bn2[0], y, c_bn1[1], c_bn2[1]]
        assert contents(distinct_buffers(cache, reachable_arrays(blk))) == contents(want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("ndim", [1, 2])
    @pytest.mark.parametrize("kind", ["identity", "projection"])
    def test_backward_bitwise_equals_the_keep_all_reference(self, kind, ndim, dtype):
        blk, ref, x = self.pair(kind, ndim, dtype)
        y, cache = L.residual_block_forward(x, blk)
        y_ref, ref_cache = keep_all_block_forward(x, ref)
        assert y.dtype == dtype and y.tobytes() == y_ref.tobytes()
        g = rng64(36).standard_normal(y.shape).astype(dtype)
        grads, dx = L.residual_block_backward(cache, g)
        want, dx_ref = keep_all_block_backward(ref_cache, g)
        assert set(grads) == set(want)
        for name in want:
            assert grads[name].dtype == want[name].dtype and grads[name].tobytes() == want[name].tobytes(), name
        assert dx.dtype == dx_ref.dtype and dx.tobytes() == dx_ref.tobytes()
        for bn, bn_ref in ((blk.bn1, ref.bn1), (blk.bn2, ref.bn2)):
            assert bn.running_mean.tobytes() == bn_ref.running_mean.tobytes()
            assert bn.running_var.tobytes() == bn_ref.running_var.tobytes()


class TestBatchNormFold:
    # float64, so any difference beyond rounding is a folding error
    @pytest.mark.parametrize("ndim", [1, 2])
    @pytest.mark.parametrize("kind", ["identity", "projection"])
    def test_eval_block_matches_composed_layers(self, kind, ndim):
        rng = rng64(29)
        blk = make_block(rng, kind, ndim=ndim, affine=True)
        x = rng.standard_normal((2, 3) + (9,) * ndim)
        y, cache = L.residual_block_forward(x, L.fold_block(blk))
        assert cache is None
        np.testing.assert_allclose(y, composed_eval_block(x, blk), rtol=1e-10)

    @pytest.mark.parametrize("ndim", [1, 2])
    def test_folded_stem_matches_composed_layers(self, ndim):
        # the streams' eval stem: conv with the folded pair, then ReLU
        rng = rng64(30)
        spec = L.ConvSpec((7,) * ndim, (2,) * ndim, (3,) * ndim, 3, 4)
        x = rng.standard_normal((2, 3) + (15,) * ndim)
        w = rng.standard_normal((4, 3) + spec.kernel) * 0.2
        state = random_bn(rng, 4)
        wf, bf = L.fold_batchnorm(w, state)
        y, _ = L.conv_forward(x, wf, spec, bf)
        h, _ = L.conv_forward(x, w, spec)
        ref, _ = L.relu_forward(batchnorm_eval_loops(h, state))
        np.testing.assert_allclose(np.maximum(y, 0.0), ref, rtol=1e-10)

    def test_folded_block_cannot_backpropagate(self):
        blk = L.fold_block(make_block(rng64(31), "identity", affine=True))
        x = rng64(32).standard_normal((2, 3, 6, 6))
        y, cache = L.residual_block_forward(x, blk)
        with pytest.raises(ValueError, match="no cache"):
            L.residual_block_backward(cache, np.ones_like(y))


class TestResidualBlock:
    def test_zero_main_path_identity_shortcut_is_relu(self):
        rng = rng64(25)
        x = rng.standard_normal((2, 3, 6, 6))
        blk = make_block(rng, "identity", zero_main=True)
        # zero conv weights push zeros into BN, which is degenerate; fold
        # it (eval mode) so the zero main path stays exactly zero
        y, _ = L.residual_block_forward(x, L.fold_block(blk))
        np.testing.assert_allclose(y, np.maximum(x, 0.0), atol=1e-12)

    def test_zero_input_zero_biases_gives_zero(self):
        rng = rng64(26)
        blk = make_block(rng, "projection")
        y, _ = L.residual_block_forward(np.zeros((2, 3, 6, 6)), L.fold_block(blk))
        np.testing.assert_allclose(y, 0.0, atol=1e-12)

    def test_matches_composed_layer_oracle(self):
        rng = rng64(27)
        x = rng.standard_normal((2, 3, 6, 6))
        blk = make_block(rng, "projection")
        y, _ = L.residual_block_forward(x, blk)

        h1, _ = L.conv_forward(x, blk.conv1_w, blk.spec1)
        n1, _ = L.batchnorm_forward(h1, make_block(rng64(27), "projection").bn1)
        r1 = np.maximum(n1, 0.0)
        h2, _ = L.conv_forward(r1, blk.conv2_w, blk.spec2)
        n2, _ = L.batchnorm_forward(h2, make_block(rng64(27), "projection").bn2)
        sc, _ = L.conv_forward(x, blk.shortcut_w, blk.shortcut_spec)
        ref = np.maximum(n2 + sc, 0.0)
        np.testing.assert_allclose(y, ref, rtol=1e-10)

    def test_identity_kind_rejects_channel_change(self):
        rng = rng64(28)
        blk = make_block(rng, "identity")
        with pytest.raises(ValueError, match="identity"):
            L.ResidualBlockParams(
                conv1_w=blk.conv1_w,
                bn1=blk.bn1,
                spec1=L.ConvSpec((3, 3), (2, 2), (1, 1), 3, 3),
                conv2_w=blk.conv2_w,
                bn2=blk.bn2,
                spec2=blk.spec2,
            )

    def test_projection_needs_its_shortcut_spec(self):
        blk = make_block(rng64(28), "projection")
        with pytest.raises(ValueError, match="projection block needs shortcut"):
            dataclasses.replace(blk, shortcut_spec=None)

    @pytest.mark.parametrize("bias", ["conv1_b", "conv2_b"])
    def test_a_convolution_before_a_batch_norm_refuses_a_bias(self, bias):
        # conv_backward forms no bias gradient, so the bias would never train
        blk = make_block(rng64(28), "identity")
        with pytest.raises(ValueError, match="carries no bias"):
            dataclasses.replace(blk, **{bias: np.zeros(blk.spec1.out_channels)})


class TestLstmStep:
    def make_params(self, rng, D=4, H=3):
        return (
            rng.standard_normal((2, D)),
            rng.standard_normal((2, H)),
            rng.standard_normal((2, H)),
            rng.standard_normal((D, 4 * H)) * 0.5,
            rng.standard_normal((H, 4 * H)) * 0.5,
            rng.standard_normal(4 * H) * 0.1,
        )

    def test_zero_parameters_closed_form(self):
        rng = rng64(30)
        x, h_prev, c_prev, wx, wh, b = self.make_params(rng)
        h, c, _ = L.lstm_step(x, h_prev, c_prev, np.zeros_like(wx), np.zeros_like(wh), np.zeros_like(b))
        np.testing.assert_allclose(c, 0.5 * c_prev, rtol=1e-12)
        np.testing.assert_allclose(h, 0.5 * np.tanh(0.5 * c_prev), rtol=1e-12)

    def test_saturated_gates_carry_cell_state(self):
        rng = rng64(31)
        x, h_prev, c_prev, wx, wh, b = self.make_params(rng)
        H = h_prev.shape[1]
        b = np.zeros(4 * H)
        b[H : 2 * H] = 40.0  # forget gate saturated open
        b[:H] = -40.0  # input gate closed
        h, c, _ = L.lstm_step(x, h_prev, c_prev, np.zeros_like(wx), np.zeros_like(wh), b)
        np.testing.assert_allclose(c, c_prev, rtol=1e-9)

    def test_matches_scalar_loop_oracle(self):
        rng = rng64(32)
        x, h_prev, c_prev, wx, wh, b = self.make_params(rng)
        h, c, _ = L.lstm_step(x, h_prev, c_prev, wx, wh, b)
        h_ref, c_ref = lstm_step_loops(x, h_prev, c_prev, wx, wh, b)
        np.testing.assert_allclose(h, h_ref, atol=1e-6)
        np.testing.assert_allclose(c, c_ref, atol=1e-6)

    def test_shape_mismatch_rejected(self):
        rng = rng64(34)
        x, h_prev, c_prev, wx, wh, b = self.make_params(rng)
        with pytest.raises(L.ShapeMismatchError):
            L.lstm_step(x, h_prev, c_prev, wx[:, :-1], wh, b)


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = np.ones((4, 5), np.float32)
        y, mask = L.dropout_forward(x, 0.0)
        assert mask is None
        np.testing.assert_array_equal(y, x)

    def test_inverted_scaling(self):
        rng = rng64(35)
        x = np.ones((2000,), np.float64)
        y, mask = L.dropout_forward(x, 0.25, rng)
        survivors = y[y != 0]
        np.testing.assert_allclose(survivors, 1.0 / 0.75)
        assert abs((y != 0).mean() - 0.75) < 0.05

    def test_backward_applies_same_mask(self):
        rng = rng64(36)
        x = np.ones((3, 4), np.float64)
        y, mask = L.dropout_forward(x, 0.5, rng)
        g = np.ones_like(x)
        np.testing.assert_array_equal(L.dropout_backward(mask, g), mask)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            L.dropout_forward(np.ones(3), 1.0, rng64(0))
