from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import lstm_reference as reference
from tradesim.errors import WarmupError
from tradesim.lstm import (
    Forecast,
    ForecastModel,
    LstmConfig,
    TrainSpec,
    accuracy,
    build_dataset,
    cell_forward,
    forward,
    init_params,
    load_checkpoint,
    loss_and_gradients,
    save_checkpoint,
    should_warn,
    train,
)
from tradesim.optim import AdamSpec, adam_init, adam_step
from tradesim.workload import FeatureScaling, TickHistory


def reference_cell(x, h, c, W, U, b):
    """Clean-room scalar-loop LSTM cell used as an independent oracle."""
    hidden = U.shape[1]
    h_new = np.zeros_like(h)
    c_new = np.zeros_like(c)
    gates = np.zeros((4,) + h.shape)  # i, f, o, g
    for row in range(x.shape[0]):
        z = [
            sum(W[j, m] * x[row, m] for m in range(x.shape[1]))
            + sum(U[j, m] * h[row, m] for m in range(hidden))
            + b[j]
            for j in range(4 * hidden)
        ]
        for m in range(hidden):
            i = 1.0 / (1.0 + math.exp(-z[m]))
            f = 1.0 / (1.0 + math.exp(-z[hidden + m]))
            o = 1.0 / (1.0 + math.exp(-z[2 * hidden + m]))
            g = math.tanh(z[3 * hidden + m])
            gates[:, row, m] = i, f, o, g
            c_new[row, m] = f * c[row, m] + i * g
            h_new[row, m] = o * math.tanh(c_new[row, m])
    return h_new, c_new, gates


def small_config(**kw) -> LstmConfig:
    cfg = dict(input_size=18, hidden_size=8, layers=2, dropout=0.3)
    cfg.update(kw)
    return LstmConfig(**cfg)


def sine_history(n: int, base: float = 100.0, amplitude: float = 40.0, period: float = 120.0) -> TickHistory:
    h = TickHistory()
    for t in range(n):
        h.append(base + amplitude * np.sin(2 * np.pi * t / period))
    return h


class TestCellForward:
    def test_zero_parameters_halve_cell_state(self):
        H = 5
        x = np.zeros((1, 3))
        h = np.zeros((1, H))
        c = np.full((1, H), 2.0)
        W, U, b = np.zeros((4 * H, 3)), np.zeros((4 * H, H)), np.zeros(4 * H)
        h2, c2, _ = cell_forward(x, h, c, W, U, b)
        assert np.allclose(c2, 0.5 * c)
        assert np.allclose(h2, 0.5 * np.tanh(0.5 * c))

    def test_saturated_forget_gate_retains_memory(self):
        H = 4
        x = np.ones((1, 2))
        h = np.zeros((1, H))
        c = np.array([[0.3, -0.7, 1.2, 0.0]])
        W, U = np.zeros((4 * H, 2)), np.zeros((4 * H, H))
        b = np.zeros(4 * H)
        b[:H] = -30.0  # input gate shut
        b[H : 2 * H] = 30.0  # forget gate wide open
        _, c2, _ = cell_forward(x, h, c, W, U, b)
        assert np.allclose(c2, c, atol=1e-9)

    def test_matches_clean_room_reference(self):
        rng = np.random.default_rng(12)
        H, D, B = 6, 4, 3
        for _ in range(10):
            x = rng.normal(size=(B, D))
            h = rng.normal(size=(B, H))
            c = rng.normal(size=(B, H))
            W = rng.normal(size=(4 * H, D))
            U = rng.normal(size=(4 * H, H))
            b = rng.normal(size=4 * H)
            got_h, got_c, got_gates = cell_forward(x, h, c, W, U, b)
            want_h, want_c, want_gates = reference_cell(x, h, c, W, U, b)
            assert np.allclose(got_h, want_h, atol=1e-10)
            assert np.allclose(got_c, want_c, atol=1e-10)
            assert np.allclose(np.stack(got_gates), want_gates, atol=1e-10)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            cell_forward(np.zeros((1, 5)), np.zeros((1, 4)), np.zeros((1, 4)),
                         np.zeros((16, 3)), np.zeros((16, 4)), np.zeros(16))


class TestForward:
    def test_inference_is_deterministic(self):
        cfg = small_config()
        params = init_params(cfg, seed=3)
        x = np.random.default_rng(0).normal(size=(4, 7, 18))
        a, _ = forward(x, params, cfg)
        b, _ = forward(x, params, cfg)
        assert np.array_equal(a, b)

    def test_dropout_keep_fraction_matches_rate(self):
        # inverted dropout: kept entries fraction = 0.7 +- 0.01 over 1e5 draws
        cfg = LstmConfig(input_size=4, hidden_size=50, layers=2, dropout=0.3)
        params = init_params(cfg, seed=1)
        rng = np.random.default_rng(42)
        x = np.random.default_rng(5).normal(size=(20, 100, 4))
        _, cache = forward(x, params, cfg, train_mode=True, rng=rng, need_cache=True)
        mask = cache["masks"][0]
        assert mask.size >= 100_000
        kept = np.mean(mask > 0)
        assert abs(kept - 0.7) < 0.01
        assert np.allclose(mask[mask > 0], 1.0 / 0.7)

    def test_single_step_equals_cell_composition(self):
        cfg = small_config(dropout=0.0)
        params = init_params(cfg, seed=9)
        x = np.random.default_rng(2).normal(size=(1, 1, 18))
        pred, _ = forward(x, params, cfg)
        inp = x[:, 0]
        H = cfg.hidden_size
        for layer in range(cfg.layers):
            h, _, _ = cell_forward(
                inp, np.zeros((1, H)), np.zeros((1, H)),
                params[f"W{layer}"], params[f"U{layer}"], params[f"b{layer}"],
            )
            inp = h
        want = inp @ params["Wy"] + params["by"][0]
        assert pred[0] == pytest.approx(want[0], abs=1e-12)

    def test_training_pass_predicts_as_inference(self):
        # the training pass forms each layer's x @ W.T for all steps in one
        # product; at the predictor's default shape that moves no bit
        cfg = LstmConfig()
        params = {k: v.astype(np.float32) for k, v in init_params(cfg, seed=1).items()}
        x = np.random.default_rng(1).normal(size=(32, 12, cfg.input_size))
        cached, cache = forward(x, params, cfg, need_cache=True)
        assert cache is not None
        assert cached.dtype == np.float32
        assert np.array_equal(cached, forward(x, params, cfg)[0])

    def test_wrong_feature_width_rejected(self):
        cfg = small_config()
        with pytest.raises(ValueError):
            forward(np.zeros((1, 5, 11)), init_params(cfg), cfg)

    def test_gate_ranges_and_cell_state_bound(self):
        cfg = small_config(hidden_size=6, layers=2, dropout=0.0)
        params = init_params(cfg, seed=6)
        rng = np.random.default_rng(8)
        x = rng.normal(scale=2.0, size=(4, 15, 18))
        _, cache = forward(x, params, cfg, need_cache=True)
        for layer in cache["layers"]:
            for gate in ("i", "f", "o"):
                assert np.all(layer[gate] > 0.0) and np.all(layer[gate] < 1.0)
            # |c_t| <= sum over steps of |candidate| since |f| < 1
            bound = np.cumsum(np.abs(layer["g"]), axis=1) + 1e-12
            assert np.all(np.abs(layer["c"]) <= bound)


class TestGradients:
    def test_zero_loss_zero_gradients(self):
        cfg = small_config(dropout=0.0)
        params = init_params(cfg, seed=4)
        x = np.random.default_rng(1).normal(size=(3, 5, 18))
        pred, _ = forward(x, params, cfg)
        loss, grads = loss_and_gradients(x, pred, params, cfg)
        assert loss == 0.0
        assert all(np.allclose(g, 0.0) for g in grads.values())

    def test_loss_nonnegative(self):
        cfg = small_config(dropout=0.0)
        params = init_params(cfg, seed=4)
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.normal(size=(2, 4, 18))
            y = rng.normal(size=2)
            loss, _ = loss_and_gradients(x, y, params, cfg)
            assert loss >= 0.0

    def test_bptt_matches_finite_differences(self):
        # downsized network (2 layers x 8 units), sequences of length <= 10
        cfg = small_config(hidden_size=8, layers=2, dropout=0.0)
        rng = np.random.default_rng(7)
        params = init_params(cfg, seed=11)
        x = rng.normal(size=(3, 10, 18))
        y = rng.normal(size=3)
        _, grads = loss_and_gradients(x, y, params, cfg)
        eps = 1e-5
        worst = 0.0
        for name in params:
            flat = params[name].reshape(-1)
            probe = rng.choice(flat.size, size=min(12, flat.size), replace=False)
            for idx in probe:
                orig = flat[idx]
                flat[idx] = orig + eps
                up, _ = loss_and_gradients(x, y, params, cfg)
                flat[idx] = orig - eps
                down, _ = loss_and_gradients(x, y, params, cfg)
                flat[idx] = orig
                numeric = (up - down) / (2 * eps)
                analytic = grads[name].reshape(-1)[idx]
                denom = max(abs(numeric), abs(analytic), 1e-8)
                worst = max(worst, abs(numeric - analytic) / denom)
        assert worst < 1e-4

    def test_every_array_matches_finite_differences_through_dropout(self):
        # 3 layers, so two dropout masks lie between layers; each loss below
        # draws the same masks from a fresh generator of one seed
        cfg = small_config(hidden_size=5, layers=3, dropout=0.3)
        params = init_params(cfg, seed=5)
        data = np.random.default_rng(9)
        x, y = data.normal(size=(4, 6, 18)), data.normal(size=4)

        def loss_and_grads():
            return loss_and_gradients(x, y, params, cfg, True, np.random.default_rng(3))

        _, grads = loss_and_grads()
        assert list(grads) == [f"{w}{layer}" for layer in range(3) for w in "WUb"] + ["Wy", "by"]
        eps = 1e-5
        for name in params:
            flat = params[name].reshape(-1)
            probe = data.choice(flat.size, size=min(10, flat.size), replace=False)
            numeric = []
            for idx in probe:
                orig = flat[idx]
                flat[idx] = orig + eps
                up, _ = loss_and_grads()
                flat[idx] = orig - eps
                down, _ = loss_and_grads()
                flat[idx] = orig
                numeric.append((up - down) / (2 * eps))
            np.testing.assert_allclose(
                grads[name].reshape(-1)[probe], numeric, rtol=1e-5, atol=1e-9, err_msg=name
            )

    def test_readout_weight_finite_difference(self):
        cfg = small_config(dropout=0.0)
        params = init_params(cfg, seed=2)
        x = np.random.default_rng(3).normal(size=(2, 6, 18))
        y = np.array([0.5, -0.2])
        _, grads = loss_and_gradients(x, y, params, cfg)
        eps = 1e-5
        params["Wy"][0] += eps
        up, _ = loss_and_gradients(x, y, params, cfg)
        params["Wy"][0] -= 2 * eps
        down, _ = loss_and_gradients(x, y, params, cfg)
        params["Wy"][0] += eps
        numeric = (up - down) / (2 * eps)
        assert abs(numeric - grads["Wy"][0]) / max(abs(numeric), 1e-8) < 1e-4


def assert_same_loss_and_gradients(got, want, exact=True):
    assert list(got[1]) == list(want[1])  # the clipping norm sums in this order
    if exact:
        assert got[0] == want[0]
        for name, grad in want[1].items():
            assert np.array_equal(got[1][name], grad), name
    else:
        assert got[0] == pytest.approx(want[0], rel=1e-12, abs=1e-15)
        for name, grad in want[1].items():
            np.testing.assert_allclose(got[1][name], grad, rtol=1e-9, atol=1e-15, err_msg=name)


class TestAgainstBatchMajorReference:
    """The time-major loops do the batch-major code's arithmetic in its order,
    and both group the same products over a layer's (t, b) rows, so
    predictions, losses, gradients and training runs equal it bit for bit.

    Below 4 hidden units they may not: a matrix-vector product whose (B, H)
    operand has fewer than 4 columns can round differently in numpy's BLAS
    call when that operand's rows are contiguous (time-major) rather than
    strided (batch-major). There the gradients agree to a tolerance.
    """

    @given(
        st.integers(1, 5), st.integers(1, 5), st.integers(1, 4), st.integers(1, 6),
        st.integers(1, 3), st.sampled_from([0.0, 0.3]), st.integers(0, 2**16),
    )
    def test_forward_and_gradients(self, B, T, D, H, layers, dropout, seed):
        cfg = LstmConfig(input_size=D, hidden_size=H, layers=layers, dropout=dropout)
        params = init_params(cfg, seed=seed)
        data = np.random.default_rng(seed)
        x, y = data.normal(scale=2.0, size=(B, T, D)), data.normal(size=B)
        pred, want = forward(x, params, cfg)[0], reference.forward(x, params, cfg)[0]
        if H >= 4:
            assert np.array_equal(pred, want)
        else:
            np.testing.assert_allclose(pred, want, rtol=1e-12, atol=1e-15)
        for train_mode in (False, True):
            got = loss_and_gradients(x, y, params, cfg, train_mode, np.random.default_rng(seed))
            want = reference.loss_and_gradients(
                x, y, params, cfg, train_mode, np.random.default_rng(seed)
            )
            assert_same_loss_and_gradients(got, want, exact=H >= 4)

    def test_gradients_at_the_predictor_default_shape(self):
        # the shape `train-predictor` runs: batches of 32, 12 steps, 3 x 128 units
        cfg = LstmConfig(hidden_size=128, layers=3, dropout=0.3)
        params = init_params(cfg, seed=1)
        data = np.random.default_rng(1)
        x, y = data.normal(size=(32, 12, cfg.input_size)), data.normal(size=32)
        got = loss_and_gradients(x, y, params, cfg, True, np.random.default_rng(2))
        want = reference.loss_and_gradients(x, y, params, cfg, True, np.random.default_rng(2))
        assert_same_loss_and_gradients(got, want)

    @given(st.integers(1, 2), st.sampled_from([0.0, 0.3]), st.sampled_from([0, 2]),
           st.integers(0, 2**16))
    def test_training_run(self, layers, dropout, epochs, seed):
        # one float64 start for both: `train` keeps the dtype of an `init`
        X = np.random.default_rng(seed).normal(size=(40, 4, 5))
        y = X[:, -1, 0] * 0.5 + 0.1
        cfg = LstmConfig(input_size=5, hidden_size=4, layers=layers, dropout=dropout)
        spec = TrainSpec(learning_rate=1e-2, epochs=epochs, batch_size=8, seed=seed)
        init = init_params(cfg, seed=seed)
        got, want = train(X, y, cfg, spec, init=init), reference.train(X, y, cfg, spec, init=init)
        assert got.curve == want.curve
        assert got.best_val_loss == want.best_val_loss
        assert got.residual_quantiles == want.residual_quantiles
        assert list(got.params) == list(want.params)
        assert all(np.array_equal(got.params[k], want.params[k]) for k in want.params)


class TestPrecision:
    """`train` runs in float32 unless given its start; the code computes in
    its parameters' dtype, so float64 parameters keep the float64 path."""

    def dataset(self):
        scaling = FeatureScaling(volume_scale=140.0)
        return build_dataset(sine_history(160), seq_len=8, window=8, horizon=10, scaling=scaling)

    def test_train_starts_in_float32_and_checkpoint_keeps_it(self, tmp_path):
        X, y = self.dataset()
        cfg = small_config(hidden_size=4, layers=2, dropout=0.2)
        result = train(X, y, cfg, TrainSpec(learning_rate=1e-2, epochs=2, batch_size=16, seed=3))
        assert {p.dtype for p in result.params.values()} == {np.dtype(np.float32)}
        model = ForecastModel(result.params, cfg, FeatureScaling(volume_scale=140.0),
                              seq_len=8, feature_window=8, horizon=10)
        save_checkpoint(model, tmp_path / "model.npz")
        loaded = load_checkpoint(tmp_path / "model.npz")
        for name, p in result.params.items():
            assert loaded.params[name].dtype == np.float32
            assert np.array_equal(loaded.params[name], p)

    def test_float32_validation_loss_near_float64(self):
        X, y = self.dataset()
        cfg = small_config(hidden_size=8, layers=2, dropout=0.2)
        spec = TrainSpec(learning_rate=1e-2, epochs=4, batch_size=16, seed=6)
        single = train(X, y, cfg, spec)
        double = train(X, y, cfg, spec, init=init_params(cfg, seed=spec.seed))
        assert single.params["W0"].dtype == np.float32
        assert double.params["W0"].dtype == np.float64
        assert single.best_val_loss == pytest.approx(double.best_val_loss, rel=1e-4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_buffer_in_the_params_dtype(self, dtype):
        cfg = small_config(hidden_size=4, layers=2, dropout=0.3)
        params = {k: v.astype(dtype) for k, v in init_params(cfg, seed=1).items()}
        data = np.random.default_rng(1)
        x, y = data.normal(size=(3, 5, 18)), data.normal(size=3)
        pred, cache = forward(x, params, cfg, True, np.random.default_rng(2), need_cache=True)
        assert pred.dtype == dtype
        for layer in cache["layers"]:
            assert {v.dtype for v in layer.values()} == {np.dtype(dtype)}
        assert all(m is None or m.dtype == dtype for m in cache["masks"])
        _, grads = loss_and_gradients(x, y, params, cfg, True, np.random.default_rng(2))
        assert {g.dtype for g in grads.values()} == {np.dtype(dtype)}

    def test_initialization_and_bptt_gradients_stay_float64(self):
        # c09's finite-difference check at eps 1e-5 needs float64 to mean anything
        cfg = LstmConfig(input_size=18, hidden_size=8, layers=2, dropout=0.0)
        params = init_params(cfg, seed=7)
        assert {p.dtype for p in params.values()} == {np.dtype(np.float64)}
        data = np.random.default_rng(5)
        x, y = data.normal(size=(3, 8, 18)), data.normal(size=3)
        _, grads = loss_and_gradients(x, y, params, cfg)
        assert {g.dtype for g in grads.values()} == {np.dtype(np.float64)}

    def test_float64_checkpoint_predicts_as_before(self, tmp_path):
        # the batch-major oracle is the float64 code this replaced
        cfg = small_config(hidden_size=6, layers=2)
        params = init_params(cfg, seed=4)
        scaling = FeatureScaling(volume_scale=140.0)
        model = ForecastModel(params, cfg, scaling, seq_len=8, feature_window=8, horizon=10)
        save_checkpoint(model, tmp_path / "model.npz")
        loaded = load_checkpoint(tmp_path / "model.npz")
        assert loaded.params["W0"].dtype == np.float64
        history = sine_history(60)
        sequence = reference.feature_sequence(history, 8, 8, scaling)
        want, _ = reference.forward(sequence[None], params, cfg)
        [forecast] = loaded.predict_and_warn(history, [len(history)])
        assert forecast.predicted == float(want[0]) * scaling.volume_scale


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.zeros(2)}
        state = adam_init(params)
        out = adam_step(params, grads, state, AdamSpec(learning_rate=0.1))
        assert np.array_equal(out["w"], params["w"])

    def test_first_step_magnitude_is_learning_rate(self):
        params = {"w": np.array([0.0, 0.0])}
        grads = {"w": np.array([3.0, -0.5])}
        state = adam_init(params)
        out = adam_step(params, grads, state, AdamSpec(learning_rate=0.01))
        assert np.allclose(out["w"], [-0.01, 0.01], atol=1e-6)

    def test_converges_on_quadratic(self):
        # minimize (w - 3)^2 within 500 steps at defaults
        params = {"w": np.array([-4.0])}
        state = adam_init(params)
        spec = AdamSpec(learning_rate=0.05)
        for _ in range(500):
            grads = {"w": 2.0 * (params["w"] - 3.0)}
            params = adam_step(params, grads, state, spec)
        assert abs(params["w"][0] - 3.0) < 1e-2


class TestTraining:
    def make_sine_dataset(self, n=420, seq_len=8, window=8):
        history = sine_history(n)
        scaling = FeatureScaling(volume_scale=140.0)
        X, y = build_dataset(history, seq_len=seq_len, window=window, horizon=10, scaling=scaling)
        return X, y, scaling

    def test_zero_learning_rate_keeps_params(self):
        X, y, _ = self.make_sine_dataset(n=120)
        cfg = small_config(hidden_size=4, layers=1, dropout=0.0)
        spec = TrainSpec(learning_rate=0.0, epochs=2, batch_size=16, seed=5)
        init = init_params(cfg, seed=5)
        result = train(X, y, cfg, spec, init={k: v.copy() for k, v in init.items()})
        assert all(np.array_equal(result.params[k], init[k]) for k in init)

    def test_fixed_seed_identical_curves(self):
        X, y, _ = self.make_sine_dataset(n=160)
        cfg = small_config(hidden_size=4, layers=1, dropout=0.2)
        spec = TrainSpec(learning_rate=1e-2, epochs=3, batch_size=16, seed=8)
        a = train(X, y, cfg, spec)
        b = train(X, y, cfg, spec)
        assert a.curve == b.curve

    def test_sine_forecast_converges(self):
        # noiseless periodic volume: validation relative error < 2%
        X, y, _ = self.make_sine_dataset(n=420)
        cfg = LstmConfig(input_size=18, hidden_size=24, layers=2, dropout=0.0)
        spec = TrainSpec(learning_rate=5e-3, epochs=60, batch_size=32, seed=3)
        result = train(X, y, cfg, spec)
        split = int(len(X) * 0.8)
        preds, _ = forward(X[split:], result.params, cfg)
        rel = np.abs(preds - y[split:]) / np.abs(y[split:])
        assert float(np.mean(rel)) < 0.02


class TestAccuracyMetric:
    def test_perfect_predictions(self):
        assert accuracy([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_all_off_by_half(self):
        assert accuracy([1.5, 3.0], [1.0, 2.0], tolerance=0.10) == 0.0

    def test_half_within_tolerance(self):
        assert accuracy([1.0, 4.0], [1.0, 2.0], tolerance=0.10) == 0.5

    def test_zero_actuals_excluded_and_counted(self):
        assert accuracy([1.0, 5.0], [0.0, 5.0]) == 1.0

    def test_monotone_in_tolerance(self):
        rng = np.random.default_rng(4)
        actual = rng.uniform(10, 100, 50)
        pred = actual * rng.uniform(0.7, 1.3, 50)
        tols = [0.05, 0.1, 0.2, 0.4]
        vals = [accuracy(pred, actual, t) for t in tols]
        assert vals == sorted(vals)


class TestForecasting:
    def test_warn_rule_trivials(self):
        assert not should_warn(predicted=100.0, baseline_mean=100.0, threshold=2.0)
        assert should_warn(predicted=300.0, baseline_mean=100.0, threshold=2.0)

    def test_forecast_band_brackets_prediction(self):
        with pytest.raises(ValueError):
            Forecast(predicted=10.0, burst_flag=False, band_low=11.0, band_high=12.0)

    def test_insufficient_history_is_warmup_error(self):
        h = sine_history(10)
        cfg = small_config(hidden_size=4, layers=1)
        model = ForecastModel(init_params(cfg), cfg, FeatureScaling(), seq_len=8,
                              feature_window=8, horizon=5)
        with pytest.raises(WarmupError):
            model.predict_and_warn(h, [len(h)])

    def test_constant_history_never_warns(self):
        history = TickHistory()
        for _ in range(200):
            history.append(50.0)
        scaling = FeatureScaling(volume_scale=50.0)
        X, y = build_dataset(history, seq_len=6, window=8, horizon=5, scaling=scaling)
        cfg = small_config(hidden_size=6, layers=1, dropout=0.0)
        result = train(X, y, cfg, TrainSpec(learning_rate=1e-2, epochs=20, batch_size=32, seed=1))
        model = ForecastModel(result.params, cfg, scaling, seq_len=6, feature_window=8,
                              horizon=5, residual_quantiles=result.residual_quantiles)
        [forecast] = model.predict_and_warn(history, [len(history)], burst_threshold=2.0)
        assert not forecast.burst_flag
        assert forecast.predicted == pytest.approx(50.0, rel=0.15)

    def test_checkpoint_round_trip(self, tmp_path):
        cfg = small_config(hidden_size=4, layers=1)
        model = ForecastModel(
            params=init_params(cfg, seed=2),
            config=cfg,
            scaling=FeatureScaling(volume_scale=10.0),
            seq_len=6,
            feature_window=8,
            horizon=5,
            residual_quantiles=(-0.1, 0.2),
        )
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        assert loaded.scaling == model.scaling
        assert loaded.residual_quantiles == model.residual_quantiles
        assert all(np.array_equal(loaded.params[k], model.params[k]) for k in model.params)
