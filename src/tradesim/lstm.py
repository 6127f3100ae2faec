"""Stacked LSTM load predictor trained with backpropagation through time.

Gate layout in every (4H, .) parameter block is [input, forget, output,
candidate]. The forward pass caches activations so the backward pass can run
the standard BPTT recursions; gradients are exact and checked against finite
differences in the test suite.
"""

from __future__ import annotations

from dataclasses import MISSING, Field, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DivergenceError, WarmupError
from .optim import AdamSpec, adam_init, adam_step, clip_global_norm, load_params, save_params, sigmoid
from .workload import FEATURE_COUNT, FeatureScaling, TickHistory, extract_features

Params = dict[str, np.ndarray]


@dataclass(frozen=True)
class LstmConfig:
    input_size: int = FEATURE_COUNT
    hidden_size: int = 128
    layers: int = 3
    dropout: float = 0.3

    def __post_init__(self) -> None:
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")
        if self.layers < 1 or self.hidden_size < 1:
            raise ConfigError("need at least one layer and one unit")


@dataclass(frozen=True)
class TrainSpec:
    learning_rate: float = 3e-3
    batch_size: int = 32
    epochs: int = 50
    seed: int = 0
    clip_norm: float = 5.0
    val_fraction: float = 0.2


@dataclass(frozen=True)
class Forecast:
    predicted: float  # requests/second over the next window
    burst_flag: bool
    band_low: float
    band_high: float

    def __post_init__(self) -> None:
        if not self.band_low <= self.predicted <= self.band_high:
            raise ValueError("confidence band must bracket the prediction")


def init_params(config: LstmConfig, seed: int = 0) -> Params:
    """Uniform +-1/sqrt(fan_in) with the forget-gate bias raised to 1."""
    rng = np.random.default_rng(seed)
    params: Params = {}
    h = config.hidden_size
    for layer in range(config.layers):
        d = config.input_size if layer == 0 else h
        bound_w, bound_u = 1.0 / np.sqrt(d), 1.0 / np.sqrt(h)
        params[f"W{layer}"] = rng.uniform(-bound_w, bound_w, size=(4 * h, d))
        params[f"U{layer}"] = rng.uniform(-bound_u, bound_u, size=(4 * h, h))
        bias = np.zeros(4 * h)
        bias[h : 2 * h] = 1.0
        params[f"b{layer}"] = bias
    params["Wy"] = rng.uniform(-1.0 / np.sqrt(h), 1.0 / np.sqrt(h), size=h)
    params["by"] = np.zeros(1)
    return params


def cell_forward(
    x: np.ndarray, h: np.ndarray, c: np.ndarray, W: np.ndarray, U: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """One LSTM cell step; x (B, D), h/c (B, H) -> (h', c', (i, f, o, g)),
    the gates being what backpropagation through the step needs."""
    hidden = U.shape[1]
    if x.shape[-1] != W.shape[1]:
        raise ValueError(f"input width {x.shape[-1]} does not match W {W.shape}")
    z = x @ W.T + h @ U.T + b
    ifo = sigmoid(z[..., : 3 * hidden])  # input, forget and output gates in one call
    i, f, o = ifo[..., :hidden], ifo[..., hidden : 2 * hidden], ifo[..., 2 * hidden :]
    g = np.tanh(z[..., 3 * hidden :])
    c_new = f * c + i * g
    h_new = o * np.tanh(c_new)
    return h_new, c_new, (i, f, o, g)


def forward(
    sequences: np.ndarray,
    params: Params,
    config: LstmConfig,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
    need_cache: bool = False,
) -> tuple[np.ndarray, dict | None]:
    """Run the stack over (B, T, input) sequences; returns (B,) predictions.

    Inverted dropout on inter-layer outputs in train mode only, so inference
    needs no rescaling.
    """
    x = np.asarray(sequences, dtype=float)
    if x.ndim == 2:
        x = x[None]
    B, T, D = x.shape
    if D != config.input_size:
        raise ValueError(f"expected feature width {config.input_size}, got {D}")
    if train_mode and config.dropout > 0 and rng is None:
        raise ValueError("training-mode dropout needs a seeded generator")

    H = config.hidden_size
    cache: dict = {"layers": [], "masks": [], "x": x} if need_cache else None
    inp = x
    for layer in range(config.layers):
        W, U, b = params[f"W{layer}"], params[f"U{layer}"], params[f"b{layer}"]
        h = np.zeros((B, H))
        c = np.zeros((B, H))
        gates_i = np.empty((B, T, H))
        gates_f = np.empty((B, T, H))
        gates_o = np.empty((B, T, H))
        gates_g = np.empty((B, T, H))
        c_prev_seq = np.empty((B, T, H))
        c_seq = np.empty((B, T, H))
        h_seq = np.empty((B, T, H))
        for t in range(T):
            c_prev_seq[:, t] = c
            h, c, gates = cell_forward(inp[:, t], h, c, W, U, b)
            gates_i[:, t], gates_f[:, t], gates_o[:, t], gates_g[:, t] = gates
            c_seq[:, t] = c
            h_seq[:, t] = h
        if not np.all(np.isfinite(h_seq)):
            raise DivergenceError(f"non-finite activations in layer {layer}")
        if need_cache:
            cache["layers"].append(
                dict(inp=inp, i=gates_i, f=gates_f, o=gates_o, g=gates_g,
                     c_prev=c_prev_seq, c=c_seq, h=h_seq)
            )
        out = h_seq
        if layer < config.layers - 1 and train_mode and config.dropout > 0:
            keep = 1.0 - config.dropout
            mask = (rng.random(out.shape) < keep) / keep
            out = out * mask
            if need_cache:
                cache["masks"].append(mask)
        elif need_cache:
            cache["masks"].append(None)
        inp = out

    pred = inp[:, -1] @ params["Wy"] + params["by"][0]
    if need_cache:
        cache["final_out"] = inp
    return pred, cache


def loss_and_gradients(
    sequences: np.ndarray,
    targets: np.ndarray,
    params: Params,
    config: LstmConfig,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[float, Params]:
    """Mean squared error and exact BPTT gradients over all gates and layers."""
    y = np.asarray(targets, dtype=float).reshape(-1)
    if y.size == 0:
        raise ValueError("empty batch")
    pred, cache = forward(sequences, params, config, train_mode, rng, need_cache=True)
    residual = pred - y
    mse = float(np.mean(residual**2))

    B, T, _ = cache["x"].shape
    H = config.hidden_size
    grads: Params = {k: np.zeros_like(v) for k, v in params.items()}

    dpred = 2.0 * residual / B  # (B,)
    final_out = cache["final_out"]
    grads["Wy"] = final_out[:, -1].T @ dpred
    grads["by"] = np.array([dpred.sum()])

    # gradient flowing into each layer's output sequence, top layer first
    d_out = np.zeros((B, T, H))
    d_out[:, -1] = np.outer(dpred, params["Wy"])

    for layer in range(config.layers - 1, -1, -1):
        lc = cache["layers"][layer]
        mask = cache["masks"][layer]
        if mask is not None:  # dropout sat between this output and the next layer
            d_out = d_out * mask
        W, U = params[f"W{layer}"], params[f"U{layer}"]
        dW = np.zeros_like(W)
        dU = np.zeros_like(U)
        db = np.zeros_like(params[f"b{layer}"])
        d_inp = np.zeros_like(lc["inp"])
        dh_rec = np.zeros((B, H))
        dc_rec = np.zeros((B, H))
        for t in range(T - 1, -1, -1):
            i, f, o, g = lc["i"][:, t], lc["f"][:, t], lc["o"][:, t], lc["g"][:, t]
            c_prev, c = lc["c_prev"][:, t], lc["c"][:, t]
            tanh_c = np.tanh(c)
            dh = d_out[:, t] + dh_rec
            do = dh * tanh_c
            dc = dh * o * (1.0 - tanh_c**2) + dc_rec
            di = dc * g
            dg = dc * i
            df = dc * c_prev
            dc_rec = dc * f
            dz = np.concatenate(
                [di * i * (1 - i), df * f * (1 - f), do * o * (1 - o), dg * (1 - g**2)],
                axis=1,
            )
            dW += dz.T @ lc["inp"][:, t]
            dU += dz.T @ (lc["h"][:, t - 1] if t > 0 else np.zeros((B, H)))
            db += dz.sum(axis=0)
            d_inp[:, t] = dz @ W
            dh_rec = dz @ U
        grads[f"W{layer}"], grads[f"U{layer}"], grads[f"b{layer}"] = dW, dU, db
        d_out = d_inp  # becomes the output-gradient of the layer below

    return mse, grads


# --- training -----------------------------------------------------------------


@dataclass
class TrainResult:
    params: Params
    curve: list[dict]  # per-epoch train/validation losses
    best_val_loss: float
    residual_quantiles: tuple[float, float]  # 5%/95% validation residuals


def train(
    sequences: np.ndarray,
    targets: np.ndarray,
    config: LstmConfig,
    spec: TrainSpec,
    init: Params | None = None,
) -> TrainResult:
    """Minibatch BPTT training with a time-ordered train/validation split."""
    X = np.asarray(sequences, dtype=float)
    y = np.asarray(targets, dtype=float)
    if len(X) != len(y) or len(X) < 4:
        raise ConfigError("dataset too small or mismatched")
    split = max(1, int(len(X) * (1.0 - spec.val_fraction)))
    X_train, y_train = X[:split], y[:split]
    X_val, y_val = X[split:], y[split:]
    if len(X_val) == 0:
        X_val, y_val = X_train, y_train

    rng = np.random.default_rng(spec.seed)
    drop_rng = np.random.default_rng(spec.seed + 1)
    params = init if init is not None else init_params(config, seed=spec.seed)
    adam = adam_init(params)
    adam_spec = AdamSpec(spec.learning_rate)

    best_val = float("inf")
    best_params = {k: v.copy() for k, v in params.items()}
    curve: list[dict] = []
    for epoch in range(spec.epochs):
        order = rng.permutation(len(X_train))
        epoch_loss = 0.0
        batches = 0
        for start in range(0, len(order), spec.batch_size):
            idx = order[start : start + spec.batch_size]
            loss, grads = loss_and_gradients(
                X_train[idx], y_train[idx], params, config, train_mode=True, rng=drop_rng
            )
            if not np.isfinite(loss):
                raise DivergenceError(f"training loss diverged at epoch {epoch}")
            clip_global_norm(grads, spec.clip_norm)
            params = adam_step(params, grads, adam, adam_spec)
            epoch_loss += loss
            batches += 1
        val_pred, _ = forward(X_val, params, config)
        val_loss = float(np.mean((val_pred - y_val) ** 2))
        curve.append(
            {"epoch": epoch, "train_loss": epoch_loss / max(batches, 1), "val_loss": val_loss}
        )
        if val_loss < best_val:
            best_val = val_loss
            best_params = {k: v.copy() for k, v in params.items()}

    val_pred, _ = forward(X_val, best_params, config)
    residuals = np.sort(y_val - val_pred)
    lo = float(np.quantile(residuals, 0.05)) if residuals.size else 0.0
    hi = float(np.quantile(residuals, 0.95)) if residuals.size else 0.0
    return TrainResult(best_params, curve, best_val, (lo, hi))


# --- forecasting --------------------------------------------------------------


@dataclass
class ForecastModel:
    """Trained predictor plus everything needed to run it on live history."""

    params: Params
    config: LstmConfig
    scaling: FeatureScaling
    seq_len: int
    feature_window: int
    horizon: int  # ticks ahead being predicted (mean volume over that span)
    residual_quantiles: tuple[float, float] = (0.0, 0.0)
    # session clock the time features were trained against
    ticks_per_day: int = 86_400
    market_open_tick: int = 0
    market_close_tick: int = 86_400
    # the feature rows of the history last forecast on, and what they depend on
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _rows_of: tuple = field(default=(None, 0, None), init=False, repr=False, compare=False)

    def configure_history(self, history: TickHistory) -> TickHistory:
        history.ticks_per_day = self.ticks_per_day
        history.market_open_tick = self.market_open_tick
        history.market_close_tick = self.market_close_tick
        return history

    def min_history(self) -> int:
        return self.feature_window + self.seq_len - 1

    def predict(self, history: TickHistory, end: int | None = None) -> float:
        """Predicted mean volume (requests/second) for the next horizon window."""
        pred, _ = forward(self._sequence(history, end)[None], self.params, self.config)
        return float(pred[0]) * self.scaling.volume_scale

    def _sequence(self, history: TickHistory, end: int | None) -> np.ndarray:
        """`feature_sequence` for this model, reusing the rows of earlier calls.

        Forecasts a few ticks apart share most of their rows. A row depends on
        the history up to its end, the window, the scaling and the session
        clock, so the rows are kept for one history, which is only appended to,
        and dropped when it is another history, when it got shorter or when any
        of the others changed. An indicator series not yet as long as a row's
        end contributes defaults to it, so that is part of the row's key.
        """
        n = len(history)
        end = n if end is None else end
        if end < self.feature_window + self.seq_len - 1:  # raises the WarmupError
            return feature_sequence(history, self.seq_len, self.feature_window, self.scaling, end)
        depends_on = (
            self.feature_window, self.scaling, history.tick_length, history.ticks_per_day,
            history.market_open_tick, history.market_close_tick,
        )
        held, held_len, held_on = self._rows_of
        if held is not history or held_len > n or held_on != depends_on:
            self._rows = {}
        self._rows_of = (history, n, depends_on)
        indicators = (
            history.price_volatility, history.order_cancel_ratio, history.burst_flags,
            history.busiest_utilization,
        )
        rows = []
        for row_end in range(end - self.seq_len + 1, end + 1):
            key = (row_end, *(len(series) >= row_end for series in indicators))
            row = self._rows.get(key)
            if row is None:
                row = extract_features(history, self.feature_window, self.scaling, row_end)
                row = self._rows[key] = row.as_array()
            rows.append(row)
        return np.stack(rows)

    def predict_and_warn(
        self, history: TickHistory, burst_threshold: float = 2.0, baseline_window: int = 60
    ) -> Forecast:
        predicted = self.predict(history)
        n = len(history)
        recent = np.asarray(history.volume[max(0, n - baseline_window) : n])
        baseline = float(recent.mean()) if recent.size else 0.0
        lo_q, hi_q = self.residual_quantiles
        scale = self.scaling.volume_scale
        band = (predicted + lo_q * scale, predicted + hi_q * scale)
        return Forecast(
            predicted=predicted,
            burst_flag=should_warn(predicted, baseline, burst_threshold),
            band_low=min(band[0], predicted),
            band_high=max(band[1], predicted),
        )


def should_warn(predicted: float, baseline_mean: float, threshold: float) -> bool:
    """Burst early-warning rule: forecast exceeds threshold x recent baseline."""
    return bool(baseline_mean > 0 and predicted > threshold * baseline_mean)


def feature_sequence(
    history: TickHistory,
    seq_len: int,
    window: int,
    scaling: FeatureScaling,
    end: int | None = None,
) -> np.ndarray:
    end = len(history) if end is None else end
    if end < window + seq_len - 1:
        raise WarmupError(
            f"need {window + seq_len - 1} ticks for a {seq_len}-step feature sequence, have {end}"
        )
    rows = [
        extract_features(history, window, scaling, end=end - seq_len + 1 + t).as_array()
        for t in range(seq_len)
    ]
    return np.stack(rows)


def build_dataset(
    history: TickHistory,
    seq_len: int,
    window: int,
    horizon: int,
    scaling: FeatureScaling,
    stride: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Sliding-window (sequences, targets); targets are normalized mean volume
    over the next `horizon` ticks.

    Sequence k is `feature_sequence(history, seq_len, window, scaling, end)`
    for the k-th `end`. Overlapping sequences share feature rows, so each
    distinct row is extracted once into a (rows, FEATURE_COUNT) table and the
    sequences are gathered from it.
    """
    n = len(history)
    first_end = window + seq_len - 1
    ends = np.arange(first_end, n - horizon + 1, stride)
    if ends.size == 0:
        raise WarmupError("history too short to build any training windows")
    # row_ends[k, t]: the `end` of row t of sequence k
    row_ends = ends[:, None] + np.arange(1 - seq_len, 1)
    distinct = np.unique(row_ends)
    table = np.stack(
        [extract_features(history, window, scaling, end=int(e)).as_array() for e in distinct]
    )
    X = table[np.searchsorted(distinct, row_ends)]
    volume = np.asarray(history.volume)
    y = [volume[end : end + horizon].mean() / scaling.volume_scale for end in ends]
    return X, np.asarray(y)


def accuracy(predictions, actuals, tolerance: float = 0.10) -> float:
    """Fraction of points with |pred-actual|/actual <= tolerance; zero-valued
    actuals are excluded from the denominator."""
    preds = np.asarray(predictions, dtype=float)
    acts = np.asarray(actuals, dtype=float)
    if preds.shape != acts.shape:
        raise ValueError("prediction/actual length mismatch")
    valid = acts != 0.0
    if not np.any(valid):
        return 0.0
    rel = np.abs(preds[valid] - acts[valid]) / np.abs(acts[valid])
    return float(np.mean(rel <= tolerance))


# --- checkpointing -------------------------------------------------------------


def _meta_fields() -> list[Field]:
    """The `ForecastModel` fields a checkpoint's meta holds: those set at
    construction, except the params, which are the checkpoint's arrays."""
    return [f for f in fields(ForecastModel) if f.init and f.name != "params"]


def save_checkpoint(model: ForecastModel, path: str | Path) -> None:
    meta = {}
    for f in _meta_fields():
        value = getattr(model, f.name)
        meta[f.name] = asdict(value) if is_dataclass(value) else value
    save_params(path, model.params, meta)


def load_checkpoint(path: str | Path) -> ForecastModel:
    """The model of a `save_checkpoint` file. Meta keys it omits take the
    `ForecastModel` defaults, and keys it does not name are ignored."""
    meta_fields = _meta_fields()
    required = tuple(
        f.name for f in meta_fields if f.default is MISSING and f.default_factory is MISSING
    )
    params, meta = load_params(path, required)
    given = {f.name: meta[f.name] for f in meta_fields if f.name in meta}
    try:
        given["config"] = LstmConfig(**given["config"])
        given["scaling"] = FeatureScaling(**given["scaling"])
    except TypeError as exc:
        raise ConfigError(f"{path} is not a predictor checkpoint: {exc}") from exc
    if "residual_quantiles" in given:
        given["residual_quantiles"] = tuple(given["residual_quantiles"])
    return ForecastModel(params=params, **given)


def save_curve_csv(curve: list[dict], path: str | Path) -> None:
    lines = ["epoch,train_loss,val_loss"]
    lines += [f"{row['epoch']},{row['train_loss']!r},{row['val_loss']!r}" for row in curve]
    Path(path).write_text("\n".join(lines) + "\n")
