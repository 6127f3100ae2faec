"""The batch-major LSTM that `tradesim.lstm` replaced, kept as the oracle of
its bit-identity tests.

`cell_forward`, `forward`, `loss_and_gradients` and `train` are the code as it
was before the time loops moved to time-major buffers: per-gate copies, a
`c_prev` copy, a second `tanh(c)` in the backward pass, each step's `dz`
concatenated from its four blocks, and a last forward over the validation set
for the residual quantiles. They group the products that need no step's
result as the rewrite does, each as one product over the time-major (t, b)
rows of a layer: the training forward's input projection x @ W.T, and the
backward's dW, dU and input gradient dz @ W. The rest of the arithmetic runs
per step in the same order in both, so the rewrite's results must be equal
to these bit for bit.

`feature_sequence` is the one-window row extraction that forecasts made
before `ForecastModel.predict_and_warn` took an array of ends; a one-end
forecast must equal a batch-of-one forward over it.
"""

from __future__ import annotations

import numpy as np

from tradesim.errors import ConfigError, DivergenceError, WarmupError
from tradesim.lstm import LstmConfig, Params, TrainResult, TrainSpec, init_params
from tradesim.optim import AdamSpec, adam_init, adam_step, clip_global_norm, sigmoid
from tradesim.workload import FeatureScaling, TickHistory, extract_features


def feature_sequence(
    history: TickHistory,
    seq_len: int,
    window: int,
    scaling: FeatureScaling,
    end: int | None = None,
) -> np.ndarray:
    """(seq_len, 18) feature rows of the window ending at `end` (the whole history when None)."""
    end = len(history) if end is None else end
    if end < window + seq_len - 1:
        raise WarmupError(
            f"need {window + seq_len - 1} ticks for a {seq_len}-step feature sequence, have {end}"
        )
    return extract_features(history, window, scaling, np.arange(end - seq_len + 1, end + 1))


def time_rows(seq: np.ndarray) -> np.ndarray:
    """A (B, T, .) sequence's rows in time-major (t, b) order, as a (T * B, .) copy."""
    return seq.transpose(1, 0, 2).reshape(-1, seq.shape[-1])


def cell_forward(
    x: np.ndarray, h: np.ndarray, c: np.ndarray, W: np.ndarray, U: np.ndarray, b: np.ndarray,
    x_proj: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """One LSTM cell step; x (B, D), h/c (B, H) -> (h', c', (i, f, o, g)),
    the gates being what backpropagation through the step needs. `x_proj` is
    x @ W.T when the caller formed it already."""
    hidden = U.shape[1]
    if x.shape[-1] != W.shape[1]:
        raise ValueError(f"input width {x.shape[-1]} does not match W {W.shape}")
    z = (x @ W.T if x_proj is None else x_proj) + h @ U.T + b
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
        proj = [None] * T
        if need_cache:  # every step's x @ W.T in one product over the (t, b) rows
            proj = (time_rows(inp) @ W.T).reshape(T, B, 4 * H)
        for t in range(T):
            c_prev_seq[:, t] = c
            h, c, gates = cell_forward(inp[:, t], h, c, W, U, b, proj[t])
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
        db = np.zeros_like(params[f"b{layer}"])
        dz_seq = np.empty((T, B, 4 * H))  # time-major, for the grouped products
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
            dz_seq[t] = dz
            db += dz.sum(axis=0)
            dh_rec = dz @ U
        # one product each over the time-major (t, b) rows; dU skips t = 0,
        # whose recurrent input is zeros
        rows = dz_seq.reshape(T * B, 4 * H)
        dW = rows.T @ time_rows(lc["inp"])
        dU = rows[B:].T @ time_rows(lc["h"][:, :-1])
        d_inp = (rows @ W).reshape(T, B, -1).transpose(1, 0, 2)
        grads[f"W{layer}"], grads[f"U{layer}"], grads[f"b{layer}"] = dW, dU, db
        d_out = d_inp  # becomes the output-gradient of the layer below

    return mse, grads


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
