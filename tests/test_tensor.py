import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from avtrait import tensor as T


class TestElementwise:
    def test_add(self):
        out = T.add(T.tensor([1.0, 2.0]), T.tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out, [4.0, 6.0])

    def test_max0_is_relu(self):
        out = T.max0(T.tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(T.ShapeMismatchError) as exc:
            T.add(T.tensor([[1.0, 2.0]]), T.tensor([1.0, 2.0, 3.0]))
        assert "(1, 2)" in str(exc.value) and "(3,)" in str(exc.value)

    def test_no_implicit_broadcasting(self):
        with pytest.raises(T.ShapeMismatchError):
            T.mul(T.tensor(np.ones((2, 3))), T.tensor(np.ones((3,))))

    def test_scalar_broadcast_allowed(self):
        out = T.mul(T.tensor([1.0, 2.0]), 2.0)
        np.testing.assert_array_equal(out, [2.0, 4.0])

    @settings(max_examples=30, deadline=None)
    @given(hnp.arrays(np.float32, hnp.array_shapes(max_dims=3, max_side=5), elements=st.floats(-100, 100, width=32)))
    def test_add_commutes_and_sub_self_is_zero(self, a):
        b = np.full_like(a, 3.0)
        np.testing.assert_array_equal(T.add(a, b), T.add(b, a))
        np.testing.assert_array_equal(T.sub(a, a), np.zeros_like(a))


class TestReduceMean:
    def test_row_means(self):
        out = T.reduce_mean(T.tensor([[1.0, 3.0], [5.0, 7.0]]), {1})
        np.testing.assert_array_equal(out, [2.0, 6.0])

    def test_constant_mean_is_constant(self):
        c = T.tensor(np.full((3, 4), 2.5))
        np.testing.assert_allclose(T.reduce_mean(c, {0, 1}), 2.5)

    def test_ramp_mean(self):
        # 4x4 ramp 0..15 sums to 120, so the mean over everything is 7.5
        ramp = T.tensor(np.arange(16, dtype=np.float32).reshape(4, 4))
        assert T.reduce_mean(ramp, {0, 1}) == pytest.approx(7.5)

    def test_empty_axes_is_identity_copy(self):
        a = T.tensor([[1.0, 2.0]])
        out = T.reduce_mean(a, set())
        np.testing.assert_array_equal(out, a)
        assert out is not a

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            T.reduce_mean(T.tensor([1.0, 2.0]), {3})

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(-50, 50),
        hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
    )
    def test_constant_tensor_mean_within_accumulation_error(self, c, shape):
        a = np.full(shape, c, dtype=np.float32)
        out = T.reduce_mean(a, set(range(len(shape))))
        ulp = np.spacing(np.float32(abs(c))) if c != 0 else np.float32(1e-30)
        bound = float(ulp) * max(1.0, np.log2(a.size + 1))
        assert abs(float(out) - np.float32(c)) <= bound


class TestTensorConstruction:
    def test_row_major_f32(self):
        a = T.tensor([[1, 2], [3, 4]])
        assert a.dtype == np.float32 and a.flags["C_CONTIGUOUS"]

    def test_f64_mode(self):
        assert T.tensor([1.0], dtype=T.F64).dtype == np.float64

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            T.tensor(np.ones((0, 2)))
