import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avtrait import optim as O
from oracles import adam_scalar_reference
from tracemem import traced
from walks import sorted_walk


class TestMaeLoss:
    def test_perfect_prediction(self):
        p = np.array([[0.1, 0.9]], dtype=np.float32)
        loss, grad = O.mae_loss(p, p.copy())
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(p))

    def test_hand_computed_value(self):
        pred = np.full((1, 5), 0.5, dtype=np.float64)
        target = np.array([[0.2, 0.4, 0.6, 0.8, 1.0]])
        loss, grad = O.mae_loss(pred, target)
        # |diffs| = .3 .1 .1 .3 .5 -> mean 0.26
        assert loss == pytest.approx(0.26, abs=1e-12)
        np.testing.assert_allclose(grad, np.array([[1, 1, -1, -1, -1]]) / 5.0)

    def test_symmetry(self):
        rng = np.random.Generator(np.random.PCG64(0))
        a = rng.random((3, 5))
        b = rng.random((3, 5))
        assert O.mae_loss(a, b)[0] == O.mae_loss(b, a)[0]

    def test_sign_zero_convention(self):
        pred = np.array([[0.5, 0.7]])
        target = np.array([[0.5, 0.2]])
        _, grad = O.mae_loss(pred, target)
        assert grad[0, 0] == 0.0 and grad[0, 1] == pytest.approx(0.5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(O.ShapeMismatchError):
            O.mae_loss(np.zeros((2, 5)), np.zeros((2, 4)))

    def test_non_finite_rejected(self):
        with pytest.raises(FloatingPointError):
            O.mae_loss(np.array([[np.nan]]), np.array([[0.0]]))

    def test_gradient_is_exact_subgradient(self):
        rng = np.random.Generator(np.random.PCG64(1))
        pred = rng.random((4, 5))
        target = rng.random((4, 5))
        _, grad = O.mae_loss(pred, target)
        np.testing.assert_array_equal(grad, np.sign(pred - target) / pred.size)


def one_param(value, dtype=np.float64):
    return {"w": np.array(value, dtype=dtype)}


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        params = one_param([1.0, -2.0])
        state = O.init_adam(params, ["w"])
        O.adam_step(params, sorted_walk({"w": np.zeros(2)}), state)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])
        assert state.t == 1

    def test_first_step_moves_by_signed_alpha(self):
        params = one_param([1.0, 1.0, 1.0])
        state = O.init_adam(params, ["w"], alpha=2e-4)
        g = np.array([0.3, -0.7, 2.0])
        O.adam_step(params, sorted_walk({"w": g.copy()}), state)
        # at t=1 the update is alpha * g / (|g| + eps') = alpha * sign(g)
        np.testing.assert_allclose(params["w"], 1.0 - 2e-4 * np.sign(g), rtol=1e-6)

    def test_100_steps_match_scalar_oracle(self):
        # quadratic f(theta) = theta^2, gradient 2 theta
        params = one_param([1.0])
        state = O.init_adam(params, ["w"], alpha=2e-4)
        trace = []
        for _ in range(100):
            g = 2.0 * params["w"]
            O.adam_step(params, sorted_walk({"w": g}), state)
            trace.append(float(params["w"][0]))
        _, ref_trace = adam_scalar_reference(lambda th: 2.0 * th, 1.0, 100, 2e-4, 0.5, 0.999, 1e-8)
        np.testing.assert_allclose(trace, ref_trace, atol=1e-10)

    def test_permutation_equivariance(self):
        rng = np.random.Generator(np.random.PCG64(2))
        w = rng.standard_normal(16)
        g = rng.standard_normal(16)
        perm = rng.permutation(16)

        p1 = one_param(w.copy())
        s1 = O.init_adam(p1, ["w"])
        O.adam_step(p1, sorted_walk({"w": g.copy()}), s1)

        p2 = one_param(w[perm].copy())
        s2 = O.init_adam(p2, ["w"])
        O.adam_step(p2, sorted_walk({"w": g[perm]}), s2)
        np.testing.assert_array_equal(p1["w"][perm], p2["w"])

    def test_update_magnitude_bounded(self):
        rng = np.random.Generator(np.random.PCG64(3))
        params = one_param(rng.standard_normal(32))
        state = O.init_adam(params, ["w"], alpha=1e-3)
        bound = O.update_bound(state) * (1 + 1e-9)
        prev = params["w"].copy()
        for step in range(200):
            g = rng.standard_normal(32) * 10.0 ** rng.integers(-6, 3)
            O.adam_step(params, sorted_walk({"w": g}), state)
            assert float(np.max(np.abs(params["w"] - prev))) <= bound
            prev = params["w"].copy()

    def test_non_finite_gradient_names_parameter(self):
        params = one_param([1.0])
        state = O.init_adam(params, ["w"])
        with pytest.raises(O.NonFiniteGradientError, match="'w'"):
            O.adam_step(params, sorted_walk({"w": np.array([np.inf])}), state)

    def test_missing_gradient_rejected(self):
        params = {"w": np.ones(2), "b": np.ones(1)}
        state = O.init_adam(params, ["w", "b"])
        with pytest.raises(KeyError, match="'b'"):
            O.adam_step(params, sorted_walk({"w": np.full(2, 0.5)}), state)

    def test_tensors_of_other_dtypes_update_as_they_would_alone(self):
        rng = np.random.Generator(np.random.PCG64(3))
        params = {"a": rng.standard_normal(5).astype(np.float32), "b": rng.standard_normal(7)}
        grads = {"a": rng.standard_normal(5).astype(np.float32), "b": rng.standard_normal(7)}
        alone = {}
        for name in params:
            one = {name: params[name].copy()}
            O.adam_step(one, sorted_walk({name: grads[name].copy()}), O.init_adam(one, [name]))
            alone[name] = one[name]
        O.adam_step(params, sorted_walk(grads), O.init_adam(params, ["a", "b"]))
        for name in params:
            assert params[name].dtype == alone[name].dtype and params[name].tobytes() == alone[name].tobytes()

    def test_deterministic(self):
        def run():
            params = one_param([0.5, -0.5])
            state = O.init_adam(params, ["w"], alpha=1e-3)
            for t in range(10):
                O.adam_step(params, sorted_walk({"w": np.array([0.1 * t, -0.2])}), state)
            return params["w"]

        np.testing.assert_array_equal(run(), run())

    def test_second_step_allocates_no_tensor_sized_buffer(self):
        # a fresh update buffer for this tensor would be 4 MB
        params = one_param(np.zeros(1 << 20), np.float32)
        state = O.init_adam(params, ["w"])
        O.adam_step(params, sorted_walk({"w": np.full(1 << 20, 0.5, np.float32)}), state)
        g = {"w": np.full(1 << 20, 0.5, np.float32)}
        peak = traced(O.adam_step, params, sorted_walk(g), state).peak
        assert peak < 1 << 20, peak

    def test_scratch_is_two_blocks(self):
        state = O.init_adam(one_param(np.zeros(1 << 20), np.float32), ["w"])
        assert sum(a.size for a in state.scratch) <= 2 * O.ADAM_BLOCK

    def test_gradient_handed_over_is_overwritten_by_its_update(self):
        rng = np.random.Generator(np.random.PCG64(4))
        w = rng.standard_normal(O.ADAM_BLOCK + 5).astype(np.float32)
        g = rng.standard_normal(w.size).astype(np.float32)
        m, v = (1.0 - 0.5) * g, (1.0 - 0.999) * (g * g)
        want = 2e-4 * (m / (1.0 - 0.5)) / (np.sqrt(v / (1.0 - 0.999)) + 1e-8)
        params = one_param(w, np.float32)
        handed = g.copy()
        O.adam_step(params, sorted_walk({"w": handed}), O.init_adam(params, ["w"]))
        assert handed.tobytes() == want.tobytes()
        # a read-only gradient is left as it is and gives the same step
        ro = one_param(w, np.float32)
        handed = g.copy()
        handed.setflags(write=False)
        O.adam_step(ro, sorted_walk({"w": handed}), O.init_adam(ro, ["w"]))
        assert handed.tobytes() == g.tobytes() and ro["w"].tobytes() == params["w"].tobytes()

    def test_non_finite_moment_is_not_reported_as_a_gradient_fault(self):
        # the diagnosis reads the gradient, which the update has not yet overwritten
        params = one_param([1.0, 2.0, 3.0])
        state = O.init_adam(params, ["w"])
        state.m["w"][1] = np.nan
        with pytest.raises(FloatingPointError, match="bound") as err:
            O.adam_step(params, sorted_walk({"w": np.array([0.1, -0.2, 0.3])}), state)
        assert not isinstance(err.value, O.NonFiniteGradientError)
        np.testing.assert_array_equal(params["w"], [1.0, 2.0, 3.0])

    def test_moments_mirror_parameter_shapes(self):
        params = {"a": np.zeros((3, 4)), "b": np.zeros(7)}
        state = O.init_adam(params, ["a", "b"])
        assert state.m["a"].shape == (3, 4) and state.v["b"].shape == (7,)
        assert state.t == 0


class TestUpdateBound:
    def test_paper_betas_value(self):
        state = O.AdamState(alpha=2e-4)
        assert O.update_bound(state) == pytest.approx(2e-4 * math.sqrt(500.0))


class TestAdamHyperparameters:
    @pytest.mark.parametrize(
        "kwargs",
        [{"alpha": math.nan}, {"alpha": math.inf}, {"alpha": 0.0}, {"alpha": -1e-4}],
    )
    def test_init_rejects(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            O.init_adam(one_param([1.0, 2.0, 3.0]), ["w"], **kwargs)

    def test_nan_step_size_fails_closed(self):
        # a NaN bound must fail the check, not pass it
        params = one_param([1.0, 2.0, 3.0])
        state = O.init_adam(params, ["w"])
        state.alpha = math.nan
        with pytest.raises(FloatingPointError, match="bound"):
            O.adam_step(params, sorted_walk({"w": np.array([0.1, -0.2, 0.3])}), state)
        np.testing.assert_array_equal(params["w"], [1.0, 2.0, 3.0])


# 0-d, empty, and sizes on both sides of one and two block boundaries
ADAM_SHAPES = [(), (0,), (3, 0), (7,), (O.ADAM_BLOCK - 1,), (O.ADAM_BLOCK + 1,), (2, O.ADAM_BLOCK + 3), (3, 5, 7)]


def _adam_case(shape, dtype, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    p = np.asarray(rng.standard_normal(shape), dtype)  # a 0-d draw would otherwise decay to a scalar
    grads = [np.asarray(rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3), dtype) for _ in range(3)]
    return p, grads


class TestBlockedAdam:
    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(ADAM_SHAPES),
        st.sampled_from([np.float32, np.float64]),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1e-4, 2e-4, 3e-2]),
    )
    def test_three_steps_equal_textbook_update_bitwise(self, shape, dtype, seed, alpha):
        beta1, beta2 = 0.5, 0.999
        assert (O.BETA1, O.BETA2, O.EPSILON) == (beta1, beta2, 1e-8)
        p, grads = _adam_case(shape, dtype, seed)
        params = {"w": p.copy()}
        state = O.init_adam(params, ["w"], alpha=alpha)
        ref, m, v = p.copy(), np.zeros_like(p), np.zeros_like(p)
        for t, g in enumerate(grads, start=1):
            O.adam_step(params, sorted_walk({"w": g.copy()}), state)
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * (g * g)
            ref = ref - alpha * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + 1e-8)
        assert isinstance(params["w"], np.ndarray) and params["w"].dtype == dtype and params["w"].shape == shape
        assert params["w"].tobytes() == ref.tobytes()
        assert state.m["w"].tobytes() == m.tobytes() and state.v["w"].tobytes() == v.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([s for s in ADAM_SHAPES if math.prod(s) > 0]),
        st.sampled_from([np.float32, np.float64]),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["nan", "inf", "-inf", "bound"]),
        st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_rejected_step_leaves_parameter_unchanged(self, shape, dtype, seed, fault, where):
        p, grads = _adam_case(shape, dtype, seed)
        params = {"w": p}
        state = O.init_adam(params, ["w"])
        O.adam_step(params, sorted_walk({"w": grads[0]}), state)
        before = params["w"].tobytes()
        i = int(where * p.size)
        g = grads[1].copy()
        if fault == "bound":
            # a first moment with no second moment: the update is about m / epsilon
            state.m["w"].reshape(-1)[i] = 1.0
            state.v["w"].reshape(-1)[i] = 0.0
            g.reshape(-1)[i] = 0.0
            error = FloatingPointError
        else:
            g.reshape(-1)[i] = float(fault)
            error = O.NonFiniteGradientError
        with pytest.raises(error, match="'w'"):
            O.adam_step(params, sorted_walk({"w": g}), state)
        assert params["w"].tobytes() == before
