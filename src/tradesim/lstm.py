"""Stacked LSTM load predictor trained with backpropagation through time.

Gate layout in every (4H, .) parameter block is [input, forget, output,
candidate]. The forward pass caches activations so the backward pass can run
the standard BPTT recursions; gradients are exact and checked against finite
differences in the test suite.

Each layer's time loop works on time-major (T, B, .) buffers, so a step reads
and writes whole contiguous slices. A training pass keeps, per layer, one
(T, B, 4H) buffer into which each step writes its gates in place (input GEMM,
recurrent GEMM, bias, then the sigmoid and tanh), plus c_t, tanh(c_t) and
h_t; the backward pass reads these instead of copying or recomputing them,
and builds each step's gate gradient in one reused (B, 4H) buffer. An
inference pass keeps only one step's gates and cell state, overwritten step by
step, and the (T, B, H) outputs the next layer reads. The GEMMs stay per step
and the products and sums keep their order, so the results equal those of the
batch-major loops this replaced (`tests/lstm_reference.py`).

`cell_forward`, `forward` and `loss_and_gradients` compute in the dtype of
their parameters: every buffer, the cast inputs and targets and the dropout
mask take it, so nothing upcasts. `init_params` draws float64 (the gradient
checks run there), and `train` casts that start to float32 when it builds its
own, which shortens each GEMM and halves the memory of every buffer; an
explicit `init` keeps its dtype. So checkpoints hold float32 arrays, half the size, and a float64 one
written before still loads and predicts in float64. A `ForecastModel`, and so
every loaded checkpoint, refuses parameters that are not the arrays of
`param_layout` in one floating dtype.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DivergenceError, WarmupError, from_json
from .optim import AdamSpec, adam_init, adam_step, check_layout, clip_global_norm, load_params
from .optim import save_params, sigmoid
from .workload import FEATURE_COUNT, FeatureScaling, TickHistory, extract_features

Params = dict[str, np.ndarray]

# Ends per block of `ForecastModel.predict_and_warn`: bounds its (rows, window)
# feature temporaries and its (seq_len + 1, block, hidden) forward buffers
# whatever the number of forecasts.
FORECAST_BLOCK = 256
# Ticks of volume before a forecast's end that its burst flag compares it with.
BASELINE_WINDOW = 60


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


def param_layout(config: LstmConfig) -> dict[str, tuple[int, ...]]:
    """The name and shape of each parameter array, in the order `init_params`
    fills them: per layer W (4H, input), U (4H, H) and b (4H,), then the
    readout Wy (H,) and by (1,)."""
    h = config.hidden_size
    layout: dict[str, tuple[int, ...]] = {}
    for layer in range(config.layers):
        d = config.input_size if layer == 0 else h
        layout.update({f"W{layer}": (4 * h, d), f"U{layer}": (4 * h, h), f"b{layer}": (4 * h,)})
    return layout | {"Wy": (h,), "by": (1,)}


def init_params(config: LstmConfig, seed: int = 0) -> Params:
    """Float64 weights uniform in +-1/sqrt(fan_in), fan_in being a weight's last
    axis; zero biases but for the forget gates', raised to 1."""
    rng = np.random.default_rng(seed)
    params: Params = {}
    h = config.hidden_size
    for name, shape in param_layout(config).items():
        if name.startswith("b"):
            params[name] = np.zeros(shape)
            params[name][h : 2 * h] = 1.0  # the forget-gate block, which by's (1,) lacks
        else:
            bound = 1.0 / np.sqrt(shape[-1])
            params[name] = rng.uniform(-bound, bound, size=shape)
    return params


def cell_forward(
    x: np.ndarray,
    h: np.ndarray,
    c: np.ndarray,
    W: np.ndarray,
    U: np.ndarray,
    b: np.ndarray,
    out: tuple[np.ndarray, ...] | None = None,
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """One LSTM cell step; x (B, D), h/c (B, H) -> (h', c', (i, f, o, g)),
    the gates being what backpropagation through the step needs.

    `out` is the (z, c', tanh(c'), h') buffers the step writes into, shaped
    (B, 4H), (B, H), (B, H) and (B, H); fresh ones in W's dtype when None. z
    ends up holding the gates, whose returned blocks are views of it; c' may
    be c.
    """
    hidden = U.shape[1]
    if x.shape[-1] != W.shape[1]:
        raise ValueError(f"input width {x.shape[-1]} does not match W {W.shape}")
    if out is None:
        shapes = [(len(x), 4 * hidden)] + [(len(x), hidden)] * 3
        out = tuple(np.empty(shape, dtype=W.dtype) for shape in shapes)
    z, c_new, tanh_c, h_new = out
    np.matmul(x, W.T, out=z)
    z += h @ U.T
    z += b
    sigmoid(z[:, : 3 * hidden], out=z[:, : 3 * hidden])  # input, forget and output gates
    np.tanh(z[:, 3 * hidden :], out=z[:, 3 * hidden :])
    i, f, o, g = _gate_blocks(z, hidden)
    np.multiply(f, c, out=c_new)
    c_new += i * g
    np.tanh(c_new, out=tanh_c)
    np.multiply(o, tanh_c, out=h_new)
    return h_new, c_new, (i, f, o, g)


def _gate_blocks(z: np.ndarray, hidden: int) -> tuple[np.ndarray, ...]:
    """The [input, forget, output, candidate] blocks of z's last axis, as views."""
    return tuple(z[..., k * hidden : (k + 1) * hidden] for k in range(4))


def forward(
    sequences: np.ndarray,
    params: Params,
    config: LstmConfig,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
    need_cache: bool = False,
) -> tuple[np.ndarray, dict | None]:
    """Run the stack over (B, T, input) sequences; returns (B,) predictions,
    computed in the dtype of `params["Wy"]`.

    Inverted dropout on inter-layer outputs in train mode only, so inference
    needs no rescaling. With `need_cache`, `cache["layers"][l]` holds the
    layer's time-major buffers and, as (B, T, H) views of them, its gates
    `i`, `f`, `o`, `g`, cell states `c` and outputs `h`.
    """
    dtype = params["Wy"].dtype
    x = np.asarray(sequences, dtype=dtype)
    if x.ndim == 2:
        x = x[None]
    B, T, D = x.shape
    if D != config.input_size:
        raise ValueError(f"expected feature width {config.input_size}, got {D}")
    if train_mode and config.dropout > 0 and rng is None:
        raise ValueError("training-mode dropout needs a seeded generator")

    H = config.hidden_size
    cache: dict = {"layers": [], "masks": []} if need_cache else None
    inp = x.transpose(1, 0, 2)  # (T, B, D): step t reads inp[t]
    for layer in range(config.layers):
        W, U, b = params[f"W{layer}"], params[f"U{layer}"], params[f"b{layer}"]
        h = np.zeros((T + 1, B, H), dtype)  # step t reads h[t] and writes h[t + 1]
        if need_cache:  # c likewise
            z, c = np.empty((T, B, 4 * H), dtype), np.zeros((T + 1, B, H), dtype)
            tanh_c = np.empty((T, B, H), dtype)
            for t in range(T):
                cell_forward(inp[t], h[t], c[t], W, U, b, out=(z[t], c[t + 1], tanh_c[t], h[t + 1]))
        else:  # one step's gates and cell state, overwritten step by step
            z, c = np.empty((B, 4 * H), dtype), np.zeros((B, H), dtype)
            tanh_c = np.empty((B, H), dtype)
            for t in range(T):
                cell_forward(inp[t], h[t], c, W, U, b, out=(z, c, tanh_c, h[t + 1]))
        out = h[1:]
        if not np.all(np.isfinite(out)):
            raise DivergenceError(f"non-finite activations in layer {layer}")
        if need_cache:
            layer_cache = dict(inp=inp, z=z, c_seq=c, tanh_c=tanh_c, h_seq=h)
            by_batch = dict(zip("ifog", _gate_blocks(z, H)), c=c[1:], h=out)
            layer_cache.update({k: v.transpose(1, 0, 2) for k, v in by_batch.items()})
            cache["layers"].append(layer_cache)
        mask = None
        if layer < config.layers - 1 and train_mode and config.dropout > 0:
            keep = 1.0 - config.dropout
            mask = ((rng.random((B, T, H)) < keep) / keep).astype(dtype, copy=False)
            out = np.multiply(out, mask.transpose(1, 0, 2), order="C")
        if need_cache:
            cache["masks"].append(mask)
        inp = out

    pred = inp[-1] @ params["Wy"] + params["by"][0]
    return pred, cache


def loss_and_gradients(
    sequences: np.ndarray,
    targets: np.ndarray,
    params: Params,
    config: LstmConfig,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[float, Params]:
    """Mean squared error and exact BPTT gradients over all gates and layers,
    computed in the dtype of `params["Wy"]`."""
    dtype = params["Wy"].dtype
    y = np.asarray(targets, dtype=dtype).reshape(-1)
    if y.size == 0:
        raise ValueError("empty batch")
    pred, cache = forward(sequences, params, config, train_mode, rng, need_cache=True)
    residual = pred - y
    mse = float(np.mean(residual**2))

    top = cache["layers"][-1]
    T, B, _ = top["z"].shape
    H = config.hidden_size
    grads: Params = dict.fromkeys(params)  # params' order, which the clipping norm sums in

    dpred = 2.0 * residual / B  # (B,)
    grads["Wy"] = top["h_seq"][T].T @ dpred
    grads["by"] = np.array([dpred.sum()])

    # gradient flowing into each layer's (T, B, H) output, top layer first
    d_out = np.zeros((T, B, H), dtype)
    d_out[-1] = np.outer(dpred, params["Wy"])

    dz = np.empty((B, 4 * H), dtype)  # one step's gate gradients, rebuilt block by block
    dz_i, dz_f, dz_o, dz_g = _gate_blocks(dz, H)
    for layer in range(config.layers - 1, -1, -1):
        lc = cache["layers"][layer]
        mask = cache["masks"][layer]
        if mask is not None:  # dropout sat between this output and the next layer
            d_out *= mask.transpose(1, 0, 2)
        W, U = params[f"W{layer}"], params[f"U{layer}"]
        inp, c_seq, h_seq = lc["inp"], lc["c_seq"], lc["h_seq"]
        dW = np.zeros_like(W)
        dU = np.zeros_like(U)
        db = np.zeros_like(params[f"b{layer}"])
        # nothing reads the gradient of layer 0's input, the sequences themselves
        d_inp = np.empty(inp.shape, dtype) if layer > 0 else None
        dh_rec = np.zeros((B, H), dtype)
        dc_rec = np.zeros((B, H), dtype)
        for t in range(T - 1, -1, -1):
            i, f, o, g = _gate_blocks(lc["z"][t], H)
            tanh_c = lc["tanh_c"][t]
            dh = d_out[t] + dh_rec
            dc = dh * o * (1.0 - tanh_c**2) + dc_rec
            np.multiply(dc, g, out=dz_i)
            dz_i *= i
            dz_i *= 1 - i
            np.multiply(dc, c_seq[t], out=dz_f)
            dz_f *= f
            dz_f *= 1 - f
            np.multiply(dh, tanh_c, out=dz_o)
            dz_o *= o
            dz_o *= 1 - o
            np.multiply(dc, i, out=dz_g)
            dz_g *= 1 - g**2
            dc_rec = dc * f
            dW += dz.T @ inp[t]
            if t > 0:  # h[0] is zeros
                dU += dz.T @ h_seq[t]
            db += dz.sum(axis=0)
            if d_inp is not None:
                np.matmul(dz, W, out=d_inp[t])
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
    """Minibatch BPTT training with a time-ordered train/validation split.

    It runs in the dtype of `init`, or in float32 from `init_params` cast to
    it when `init` is None. Losses and residuals are taken against the float64
    targets."""
    params = init
    if params is None:
        params = {k: v.astype(np.float32) for k, v in init_params(config, spec.seed).items()}
    X = np.asarray(sequences, dtype=params["Wy"].dtype)  # cast once, not per batch
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
    adam = adam_init(params)
    adam_spec = AdamSpec(spec.learning_rate)

    best_val = float("inf")
    best_params = {k: v.copy() for k, v in params.items()}
    best_pred = None  # the validation predictions of best_params
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
            best_pred = val_pred

    if best_pred is None:  # no epoch improved on the initial parameters
        best_pred, _ = forward(X_val, best_params, config)
    residuals = np.sort(y_val - best_pred)
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

    def __post_init__(self) -> None:
        lowest = dict(seq_len=1, horizon=1, ticks_per_day=1, market_open_tick=0,
                      market_close_tick=self.market_open_tick + 1)
        for name, low in lowest.items():
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        check_layout(self.params, param_layout(self.config), str(self.config))

    def configure_history(self, history: TickHistory) -> TickHistory:
        history.ticks_per_day = self.ticks_per_day
        history.market_open_tick = self.market_open_tick
        history.market_close_tick = self.market_close_tick
        return history

    def min_history(self) -> int:
        return self.feature_window + self.seq_len - 1

    def predict_and_warn(
        self, history: TickHistory, ends, burst_threshold: float = 2.0
    ) -> list[Forecast]:
        """One `Forecast` per end of `ends`, in their order: the predicted mean
        volume (requests/second) over the `horizon` ticks after
        `history[:end]`, its confidence band, and whether it exceeds
        `burst_threshold` times the mean volume of the `BASELINE_WINDOW` ticks
        before the end. Nothing at or past an end is read, so a history that
        runs on gives the same forecasts.

        The ends go in blocks of at most `FORECAST_BLOCK`: one
        `extract_features` call for the rows of a block's windows, then one
        `forward` over them, so the (rows, window) temporaries of a long
        horizon are a block's, not the whole run's. A row depends only on its
        own window, so it has the same bits in any block. One end is a
        batch-of-one forward; a larger block sums its GEMMs in another order,
        which can move a forecast's last bits.
        """
        ends = np.asarray(ends, dtype=np.int64).reshape(-1)
        if ends.size == 0:
            raise ValueError("no forecast ends")
        if ends.min() < self.min_history():
            raise WarmupError(
                f"need {self.min_history()} ticks for a {self.seq_len}-step feature sequence, "
                f"have {ends.min()}"
            )
        windows = ends[:, None] + np.arange(1 - self.seq_len, 1)  # each window's row ends
        blocks = []
        for k in range(0, len(ends), FORECAST_BLOCK):
            block = windows[k : k + FORECAST_BLOCK]
            rows = np.unique(block)  # each distinct row extracted once
            table = extract_features(history, self.feature_window, self.scaling, rows)
            blocks.append(forward(table[np.searchsorted(rows, block)], self.params, self.config)[0])
        pred = np.concatenate(blocks)
        scale = self.scaling.volume_scale
        lo_q, hi_q = self.residual_quantiles
        volume = np.asarray(history.volume, dtype=float)
        forecasts = []
        for end, predicted in zip(ends.tolist(), (pred.astype(float) * scale).tolist()):
            baseline = float(volume[max(0, end - BASELINE_WINDOW) : end].mean())
            forecasts.append(Forecast(
                predicted=predicted,
                burst_flag=should_warn(predicted, baseline, burst_threshold),
                band_low=min(predicted + lo_q * scale, predicted),
                band_high=max(predicted + hi_q * scale, predicted),
            ))
        return forecasts


def should_warn(predicted: float, baseline_mean: float, threshold: float) -> bool:
    """Burst early-warning rule: forecast exceeds threshold x recent baseline."""
    return bool(baseline_mean > 0 and predicted > threshold * baseline_mean)


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

    Sequence k holds the `extract_features` rows of the `seq_len` ends up to
    the k-th `end`. Overlapping sequences share feature rows, so every row up
    to the last end is extracted in one call and the sequences are gathered
    from that table.
    """
    n = len(history)
    first_end = window + seq_len - 1
    ends = np.arange(first_end, n - horizon + 1, stride)
    if ends.size == 0:
        raise WarmupError("history too short to build any training windows")
    table = extract_features(history, window, scaling, np.arange(window, ends[-1] + 1))
    # row t of sequence k ends at ends[k] - seq_len + 1 + t; table row r at window + r
    X = table[ends[:, None] + np.arange(1 - seq_len, 1) - window]
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


def save_checkpoint(model: ForecastModel, path: str | Path) -> None:
    meta = {}
    for f in fields(ForecastModel):
        if f.init and f.name != "params":  # the params are the checkpoint's arrays
            value = getattr(model, f.name)
            meta[f.name] = asdict(value) if is_dataclass(value) else value
    save_params(path, model.params, meta)


def load_checkpoint(path: str | Path) -> ForecastModel:
    """The model of a `save_checkpoint` file. Meta keys it omits take the
    `ForecastModel` defaults, and keys it does not name are ignored. Its arrays
    must be those `param_layout` gives for its config, float32 or float64."""
    params, meta = load_params(path)
    return from_json(ForecastModel, meta, f"predictor checkpoint {path}", params=params)


def save_curve_csv(curve: list[dict], path: str | Path) -> None:
    lines = ["epoch,train_loss,val_loss"]
    lines += [f"{row['epoch']},{row['train_loss']!r},{row['val_loss']!r}" for row in curve]
    Path(path).write_text("\n".join(lines) + "\n")
