"""Temporal convolutional age regressor over wrist-motion windows.

The network is fixed: three blocks of a KERNEL-tap 1-D convolution (as an
im2col matrix product) with CONV_CHANNELS outputs, ReLU and POOL-wide max
pooling, then the LINEAR hidden layers with ReLU and one linear output.
Everything is hand-rolled numpy: batched forward/backward passes, SGD with
momentum, early stopping, and participant-level stochastic cross-validation
with a confusion matrix that bins ages by the lower edge of each AGE_BINS
bin, as whole years round down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError, NumericalError
from .model_io import AGE_BINS


@dataclass(frozen=True)
class MotionWindow:
    values: np.ndarray        # (4, window) channels x frames, each in [-1, 1]
    label: float              # age in years
    participant_id: str


CONV_CHANNELS = (16, 32, 64)
KERNEL = 5
POOL = 3
LINEAR = (64, 32)


def normalize_window(raw):
    """Per-channel affine min-max normalization to [-1, 1]; constant -> 0."""
    raw = np.asarray(raw, dtype=float)
    lo = raw.min(axis=1, keepdims=True)
    hi = raw.max(axis=1, keepdims=True)
    span = hi - lo
    out = np.zeros_like(raw)
    nz = span[:, 0] > 0
    out[nz] = 2.0 * (raw[nz] - lo[nz]) / span[nz] - 1.0
    return out


def window_dataset(sequences, window: int = 200, stride: int = 100):
    """Slice per-participant channel arrays into normalized windows.

    ``sequences`` is an iterable of (participant_id, age, values) where
    values is (4, n_frames) wrist coordinates at the working frame rate.
    Windows never cross participants. Participants shorter than one window
    are skipped (with the skip recorded in the returned list of warnings).
    A window that does not normalize to finite values raises a
    NumericalError naming the participant and the window's first frame.
    """
    windows, skipped = [], []
    for pid, age, values in sequences:
        values = np.asarray(values, dtype=float)
        n = values.shape[1]
        if n < window:
            skipped.append(pid)
            continue
        for start in range(0, n - window + 1, stride):
            with np.errstate(all="ignore"):     # checked just below
                norm = normalize_window(values[:, start:start + window])
            if not np.isfinite(norm).all():
                raise NumericalError(
                    f"participant {pid}: the window from frame {start} of "
                    f"{n} (working rate) does not normalize to finite values")
            windows.append(MotionWindow(values=norm, label=float(age),
                                        participant_id=pid))
    if not windows:
        raise InputError("no participant has enough frames for a window")
    return windows, skipped


def wrist_channels(seq):
    """Extract (4, n_frames) wrist x/y channels from a 2D skeleton sequence,
    already confidence-gated and decimated to the model's working rate, on
    the frames where both wrists are tracked."""
    fl, _, left, _ = seq.joint_arrays("left_wrist")
    fr, _, right, _ = seq.joint_arrays("right_wrist")
    _, il, ir = np.intersect1d(fl, fr, return_indices=True)
    return np.stack([left[il, 0], left[il, 1], right[ir, 0], right[ir, 1]])


def windows_from_cohort(records, window: int = 200, stride: int = 100):
    """Cut windows from the ``wrist_channels`` that each record of the
    per-participant pass (``pipeline.cohort_metrics``) keeps, in order."""
    return window_dataset([(r.participant_id, r.age, r.channels)
                           for r in records], window, stride)


# --- model -----------------------------------------------------------------

class AgeNet:
    """Three ReLU conv+pool blocks followed by three linear layers."""

    def __init__(self, seed: int = 0, input_shape: tuple = (4, 200)):
        c, t = input_shape
        need = 1   # fewest frames that leave one after every conv and pool
        for _ in CONV_CHANNELS:
            need = need * POOL + KERNEL - 1
        if t < need:
            raise ConfigError(f"window of {t} frames is too short for the "
                              f"conv stack, which needs at least {need}")
        shapes = []   # (out, in[, k]) of each layer, input to output
        for out_c in CONV_CHANNELS:
            shapes.append((out_c, c, KERNEL))
            c, t = out_c, (t - KERNEL + 1) // POOL
        width = c * t
        for out_w in LINEAR + (1,):
            shapes.append((out_w, width))
            width = out_w
        rng = np.random.default_rng(seed)
        self.weights = [rng.normal(0.0, np.sqrt(2.0 / np.prod(s[1:])), s)
                        for s in shapes]
        self.biases = [np.zeros(s[0]) for s in shapes]

    # -- parameter vector ---------------------------------------------------

    def get_flat(self):
        return np.concatenate([p.ravel() for p in self.weights + self.biases])

    def set_flat(self, flat):
        flat = np.asarray(flat, dtype=float)
        i = 0
        for p in self.weights + self.biases:
            p[...] = flat[i:i + p.size].reshape(p.shape)
            i += p.size
        if i != flat.size:
            raise ValueError("parameter vector size mismatch")

    # -- forward / backward -------------------------------------------------

    def forward(self, x, cache=None):
        """Predict ages (B,) for a batch x of shape (B, C, T).

        Inside, activations are channels-last (B, T, C): a conv's im2col rows
        (B*To, C*K) times its (C*K, O) weights are (B, To, O) as they come.
        ``cache`` gets one (im2col rows, pre-activation, ReLU output, pooled
        output) per conv block, then one (input, pre-activation) per linear
        layer. Without a cache, each array is dropped once it is used."""
        n_conv = len(CONV_CHANNELS)
        for li, (W, b) in enumerate(zip(self.weights[:n_conv],
                                        self.biases[:n_conv])):
            O, C, K = W.shape
            if li == 0:     # the input is channels-first: one strided view
                cols = np.lib.stride_tricks.sliding_window_view(
                    x, K, axis=2).transpose(0, 2, 1, 3)
            else:
                To = a.shape[1] - K + 1
                cols = np.stack([a[:, k:k + To] for k in range(K)], axis=-1)
            To = cols.shape[1]
            cols = cols.reshape(-1, C * K)
            z = cols @ W.reshape(O, C * K).T
            z += b
            z = z.reshape(-1, To, O)
            if cache is None:
                cols = None
                r = np.maximum(z, 0.0, out=z)
            else:
                r = np.maximum(z, 0.0)
            stop = To // POOL * POOL
            a = np.maximum(r[:, 0:stop:POOL], r[:, 1:stop:POOL])
            for j in range(2, POOL):
                np.maximum(a, r[:, j:stop:POOL], out=a)
            if cache is not None:
                cache.append((cols, z, r, a))
            cols = z = r = None
        a = a.transpose(0, 2, 1).reshape(a.shape[0], -1)
        for W, b in zip(self.weights[n_conv:], self.biases[n_conv:]):
            z = a @ W.T + b
            if cache is not None:
                cache.append((a, z))
            a = np.maximum(z, 0.0)   # the output layer's z is the prediction
        return z[:, 0]

    def backward(self, cache, dout):
        """Gradients of a scalar loss; dout is d(loss)/d(prediction), (B,).

        Returns (dweights, dbiases) lists parallel to the parameter lists.
        Each layer's ``cache`` entry is set to None once its gradients are
        computed, so its arrays are freed for the rest of the pass.
        """
        n_conv, last = len(CONV_CHANNELS), len(self.weights) - 1
        dW = [None] * len(self.weights)
        db = [None] * len(self.biases)
        grad = np.asarray(dout, dtype=float)[:, None]   # (B, 1)
        for li in range(last, n_conv - 1, -1):
            a, z = cache[li]
            if li < last:
                grad = grad * (z > 0.0)
            dW[li] = grad.T @ a
            db[li] = grad.sum(axis=0)
            grad = grad @ self.weights[li]
            cache[li] = None
        B, T, C = cache[n_conv - 1][3].shape
        grad = grad.reshape(B, C, T).transpose(0, 2, 1)

        for li in range(n_conv - 1, -1, -1):
            cols, _, r, m = cache[li]
            cache[li] = None
            # Route grad to the first max of each pool window, in r's buffer,
            # which nothing reads again. (m > 0) is the ReLU mask there,
            # applied POOL times smaller; the int64 views write grad's exact
            # bits, and +0.0 everywhere else.
            bits = (grad * (m > 0.0)).view(np.int64)
            left = np.ones(m.shape, dtype=bool)
            stop = m.shape[1] * POOL
            for j in range(POOL):
                hit = (r[:, j:stop:POOL] == m) & left
                left &= ~hit
                np.multiply(bits, hit, out=r[:, j:stop:POOL].view(np.int64))
            r[:, stop:] = 0.0
            grad = r
            W = self.weights[li]
            O, C, K = W.shape
            To = grad.shape[1]
            g2 = grad.reshape(-1, O)
            dW[li] = (g2.T @ cols).reshape(W.shape)
            cols = None
            # numpy sums in memory order: a (B, O, To) copy keeps the
            # rounding of the channels-first bias gradient
            db[li] = np.ascontiguousarray(
                grad.transpose(0, 2, 1)).sum(axis=(0, 2))
            if li == 0:
                break   # nothing reads the gradient of the input
            # per-tap input gradients, (B, To, C, K), summed in tap order
            taps = (g2 @ W.reshape(O, C * K)).reshape(B, To, C, K)
            grad = np.zeros((B, To + K - 1, C))
            for k in range(K):
                grad[:, k:k + To] += taps[..., k]
        return dW, db


# --- training --------------------------------------------------------------

@dataclass
class TrainResult:
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    best_epoch: int = -1
    predictions: np.ndarray = None   # validation predictions of best_epoch


def _batch_arrays(windows):
    x = np.stack([w.values for w in windows])
    y = np.array([w.label for w in windows])
    return x, y


def evaluate_mse(model, windows):
    """(MSE, predictions) of windows or their arrays, in batches of 64."""
    x, y = windows if isinstance(windows, tuple) else _batch_arrays(windows)
    preds = np.concatenate([model.forward(x[i:i + 64])
                            for i in range(0, len(x), 64)])
    return float(np.mean((preds - y) ** 2)), preds


def train(model: AgeNet, train_windows, val_windows, epochs: int = 15,
          seed: int = 0) -> TrainResult:
    """SGD (learning rate 1e-3, momentum 0.9, batches of 16) on MSE loss that
    leaves ``model`` at its lowest validation loss (early stopping); the
    result holds that epoch's validation predictions."""
    train_ids = {w.participant_id for w in train_windows}
    val_ids = {w.participant_id for w in val_windows}
    if train_ids & val_ids:
        raise ValueError(f"participants in both splits: {train_ids & val_ids}")

    x, y = _batch_arrays(train_windows)
    val = _batch_arrays(val_windows)
    rng = np.random.default_rng(seed)
    params = model.weights + model.biases
    vel = [np.zeros_like(p) for p in params]

    result = TrainResult()
    best_val, best_flat = float("inf"), None
    for epoch in range(epochs):
        order = rng.permutation(len(x))
        epoch_loss = 0.0
        for start in range(0, len(x), 16):
            sel = order[start:start + 16]
            xb, yb = x[sel], y[sel]
            cache = []
            preds = model.forward(xb, cache=cache)
            err = preds - yb
            loss = float(np.mean(err ** 2))
            if not np.isfinite(loss):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}; trace: {result.train_loss}")
            epoch_loss += loss * len(sel)
            dout = 2.0 * err / len(sel)
            dW, db = model.backward(cache, dout)
            for p, v, g in zip(params, vel, dW + db):
                v *= 0.9
                v -= 1e-3 * g
                p += v
        result.train_loss.append(epoch_loss / len(x))
        val_mse, preds = evaluate_mse(model, val)
        result.val_loss.append(val_mse)
        if val_mse < best_val:
            best_val, best_flat = val_mse, model.get_flat()
            result.best_epoch, result.predictions = epoch, preds
    if result.predictions is None:
        raise NumericalError(f"non-finite validation loss in every epoch; "
                             f"trace: {result.val_loss}")
    model.set_flat(best_flat)
    return result


# --- cross-validation ------------------------------------------------------

@dataclass(frozen=True)
class CrossValReport:
    fold_rmse: tuple
    pooled_rmse: float
    predictions: tuple        # of (fold, participant_id, label, prediction)
    confusion: np.ndarray     # 4x4 counts, true bin x predicted bin (AGE_BINS)
    warnings: tuple = ()


def _bin_index(ages):
    """AGE_BINS index of each age by lower edge, as whole years round down
    (10.5 is in 9-10); ages outside 6-17 fall in the end bins."""
    return np.searchsorted([lo for lo, _ in AGE_BINS[1:]], ages, side="right")


def cross_validate(windows, folds: int = 5, epochs: int = 15, seed: int = 0,
                   predictor=None) -> CrossValReport:
    """Stochastic k-way cross-validation: k independent random participant
    splits, 70% to train (not a partition), each with early stopping.

    ``predictor`` optionally replaces the trained model (callable window ->
    age) for baseline and oracle checks.
    """
    by_pid = {}
    for w in windows:
        by_pid.setdefault(w.participant_id, []).append(w)
    pids = sorted(by_pid)
    if len(pids) < 10:
        raise InputError(f"need >= 10 participants, got {len(pids)}")

    rng = np.random.default_rng(seed)
    fold_rmse = []
    predictions = []
    warnings = []
    confusion = np.zeros((len(AGE_BINS), len(AGE_BINS)), dtype=int)

    for fold in range(folds):
        order = rng.permutation(len(pids))
        n_train = int(round(0.7 * len(pids)))
        train_pids = {pids[i] for i in order[:n_train]}
        val_pids = {pids[i] for i in order[n_train:]}
        train_w = [w for p in sorted(train_pids) for w in by_pid[p]]
        val_w = [w for p in sorted(val_pids) for w in by_pid[p]]

        if predictor is not None:
            preds = np.array([predictor(w) for w in val_w])
        else:
            model = AgeNet(seed=seed * 1000 + fold,
                           input_shape=train_w[0].values.shape)
            preds = train(model, train_w, val_w, epochs=epochs,
                          seed=seed * 1000 + fold).predictions

        labels = np.array([w.label for w in val_w])
        fold_rmse.append(float(np.sqrt(np.mean((preds - labels) ** 2))))
        true_bins = _bin_index(labels)
        np.add.at(confusion, (true_bins, _bin_index(preds)), 1)
        predictions += [(fold, w.participant_id, w.label, float(p))
                        for w, p in zip(val_w, preds)]
        warnings += [f"fold {fold}: validation lacks bin {AGE_BINS[i]}"
                     for i in range(len(AGE_BINS)) if i not in true_bins]

    all_pred = np.array([p for *_, p in predictions])
    all_lab = np.array([lab for _, _, lab, _ in predictions])
    pooled = float(np.sqrt(np.mean((all_pred - all_lab) ** 2)))
    return CrossValReport(tuple(fold_rmse), pooled, tuple(predictions),
                          confusion, warnings=tuple(warnings))
