"""Temporal convolutional age regressor over wrist-motion windows.

Everything is hand-rolled numpy: batched forward/backward passes through
1-D convolutions (as im2col matrix products), max pooling, ReLU and linear
layers, SGD with momentum, early stopping, and participant-level
stochastic cross-validation with binned confusion reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, DivergedLoss, SequenceTooShort,
                     TooFewParticipants)
from .model_io import AGE_BINS, Cohort


@dataclass(frozen=True)
class MotionWindow:
    values: np.ndarray        # (4, window) channels x frames, each in [-1, 1]
    label: float              # age in years
    participant_id: str


@dataclass(frozen=True)
class ArchDescriptor:
    conv_channels: tuple = (16, 32, 64)
    kernel: int = 5
    pool: int = 3
    linear: tuple = (64, 32)

    def layer_plan(self, channels, length):
        """Resolve per-layer shapes for (channels, length) inputs; the final
        linear layer emits one value."""
        need = 1   # fewest frames that leave one after every conv and pool
        for _ in self.conv_channels:
            need = need * self.pool + self.kernel - 1
        if length < need:
            raise ConfigError(f"window of {length} frames is too short for "
                              f"the conv stack, which needs at least {need}")
        plan = []
        c, t = channels, length
        for out_c in self.conv_channels:
            plan.append(("conv", (out_c, c, self.kernel)))
            t = t - self.kernel + 1
            plan.append(("pool", self.pool))
            t = t // self.pool
            c = out_c
        plan.append(("flatten", c * t))
        width = c * t
        for out_w in self.linear:
            plan.append(("linear", (out_w, width)))
            width = out_w
        plan.append(("linear_out", (1, width)))
        return plan


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
    """
    windows, skipped = [], []
    for pid, age, values in sequences:
        values = np.asarray(values, dtype=float)
        n = values.shape[1]
        if n < window:
            skipped.append(pid)
            continue
        for start in range(0, n - window + 1, stride):
            windows.append(MotionWindow(
                values=normalize_window(values[:, start:start + window]),
                label=float(age), participant_id=pid))
    if not windows:
        raise SequenceTooShort("no participant has enough frames for a window")
    return windows, skipped


def wrist_channels(seq):
    """Extract (4, n_frames) wrist x/y channels from a 2D skeleton sequence,
    already confidence-gated and decimated to the model's working rate."""
    _, _, left, _ = seq.joint_arrays("left_wrist")
    _, _, right, _ = seq.joint_arrays("right_wrist")
    n = min(len(left), len(right))
    return np.stack([left[:n, 0], left[:n, 1], right[:n, 0], right[:n, 1]])


def windows_from_cohort(cohort: Cohort, frames, window: int = 200,
                        stride: int = 100):
    """Cut windows from ``frames``, each session's gated and decimated 2D
    skeleton, in the order of ``cohort.sessions``."""
    seqs = [(s.participant_id, s.age, wrist_channels(seq))
            for s, seq in zip(cohort.sessions, frames)]
    return window_dataset(seqs, window, stride)


# --- model -----------------------------------------------------------------

class AgeNet:
    """Three ReLU conv+pool blocks followed by three linear layers."""

    def __init__(self, arch: ArchDescriptor = ArchDescriptor(), seed: int = 0,
                 input_shape: tuple = (4, 200)):
        self.arch = arch
        self.seed = seed
        self.plan = arch.layer_plan(*input_shape)
        rng = np.random.default_rng(seed)
        self.weights = []
        self.biases = []
        for kind, shape in self.plan:
            if kind in ("conv", "linear", "linear_out"):   # (out, in[, k])
                fan_in = np.prod(shape[1:])
                self.weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in),
                                               shape))
                self.biases.append(np.zeros(shape[0]))

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

    @property
    def n_params(self):
        return sum(p.size for p in self.weights + self.biases)

    # -- forward / backward -------------------------------------------------

    def forward(self, x, cache=None):
        """Predict ages for a batch; x is (B, C, T) or a single (C, T).

        Inside, activations are channels-last (B, T, C): a conv's im2col rows
        (B*To, C*K) times its (C*K, O) weights are (B, To, O) as they come."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 2
        if single:
            x = x[None]
        layer_idx = 0
        a = x.transpose(0, 2, 1)
        for kind, shape in self.plan:
            if kind == "conv":
                W, b = self.weights[layer_idx], self.biases[layer_idx]
                O, C, K = W.shape
                To = a.shape[1] - K + 1
                cols = np.stack([a[:, k:k + To] for k in range(K)],
                                axis=-1).reshape(-1, C * K)
                z = (cols @ W.reshape(O, C * K).T + b).reshape(-1, To, O)
                if cache is not None:
                    cache.append(("conv", cols, z, a.shape))
                a = np.maximum(z, 0.0)
                layer_idx += 1
            elif kind == "pool":
                p = shape
                stop = a.shape[1] // p * p
                m = a[:, 0:stop:p]
                for j in range(1, p):
                    m = np.maximum(m, a[:, j:stop:p])
                if cache is not None:
                    cache.append(("pool", a, m, p))
                a = m
            elif kind == "flatten":
                if cache is not None:
                    cache.append(("flatten", a.shape))
                a = a.transpose(0, 2, 1).reshape(a.shape[0], -1)
            else:
                W, b = self.weights[layer_idx], self.biases[layer_idx]
                z = a @ W.T + b
                if cache is not None:
                    cache.append((kind, a, z))
                a = np.maximum(z, 0.0) if kind == "linear" else z
                layer_idx += 1
        out = a[:, 0]
        return float(out[0]) if single else out

    def backward(self, cache, dout):
        """Gradients of a scalar loss; dout is d(loss)/d(prediction), (B,).

        Returns (dweights, dbiases) lists parallel to the parameter lists.
        """
        dW = [None] * len(self.weights)
        db = [None] * len(self.biases)
        layer_idx = len(self.weights) - 1
        grad = np.asarray(dout, dtype=float)[:, None]   # (B, 1)

        for entry in reversed(cache):
            kind = entry[0]
            if kind in ("linear", "linear_out"):
                _, a, z = entry
                if kind == "linear":
                    grad = grad * (z > 0.0)
                W = self.weights[layer_idx]
                dW[layer_idx] = grad.T @ a
                db[layer_idx] = grad.sum(axis=0)
                grad = grad @ W
                layer_idx -= 1
            elif kind == "flatten":
                B, T, C = entry[1]
                grad = grad.reshape(B, C, T).transpose(0, 2, 1)
            elif kind == "pool":
                _, a, m, p = entry
                # Route grad to the first max of each window. (m > 0) is the
                # conv's ReLU mask there, applied p times smaller; the int64
                # views write grad's exact bits, and +0.0 everywhere else.
                bits = (grad * (m > 0.0)).view(np.int64)
                grad = np.zeros(a.shape)
                left = np.ones(m.shape, dtype=bool)
                for j in range(p):
                    hit = (a[:, j:m.shape[1] * p:p] == m) & left
                    left &= ~hit
                    np.multiply(bits, hit,
                                out=grad[:, j:m.shape[1] * p:p].view(np.int64))
            else:  # conv
                _, cols, _, (B, T, C) = entry   # the pool applied the ReLU
                W = self.weights[layer_idx]
                O, _, K = W.shape
                To = grad.shape[1]
                g2 = grad.reshape(-1, O)
                dW[layer_idx] = (g2.T @ cols).reshape(W.shape)
                # numpy sums in memory order: a (B, O, To) copy keeps the
                # rounding of the channels-first bias gradient
                db[layer_idx] = np.ascontiguousarray(
                    grad.transpose(0, 2, 1)).sum(axis=(0, 2))
                if layer_idx == 0:
                    break   # nothing reads the gradient of the input
                # per-tap input gradients, (C, K, B, To), summed in tap order
                taps = (W.reshape(O, C * K).T @ g2.T).reshape(C, K, B, To)
                din = np.zeros((C, B, T))
                for k in range(K):
                    din[:, :, k:k + To] += taps[:, k]
                grad = din.transpose(1, 2, 0)
                layer_idx -= 1
        return dW, db


# --- training --------------------------------------------------------------

@dataclass
class TrainResult:
    model: AgeNet
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    best_epoch: int = -1


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
    """SGD (learning rate 1e-3, momentum 0.9, batches of 16) on MSE loss;
    returns the snapshot with the lowest validation loss (early stopping)."""
    train_ids = {w.participant_id for w in train_windows}
    val_ids = {w.participant_id for w in val_windows}
    if train_ids & val_ids:
        raise ValueError(f"participants in both splits: {train_ids & val_ids}")

    x, y = _batch_arrays(train_windows)
    val = _batch_arrays(val_windows)
    rng = np.random.default_rng(seed)
    params = model.weights + model.biases
    vel = [np.zeros_like(p) for p in params]

    result = TrainResult(model=model)
    best_val, best_flat = float("inf"), model.get_flat()
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
                raise DivergedLoss(
                    f"non-finite loss at epoch {epoch}; trace: {result.train_loss}")
            epoch_loss += loss * len(sel)
            dout = 2.0 * err / len(sel)
            dW, db = model.backward(cache, dout)
            for p, v, g in zip(params, vel, dW + db):
                v *= 0.9
                v -= 1e-3 * g
                p += v
        result.train_loss.append(epoch_loss / len(x))
        val_mse, _ = evaluate_mse(model, val)
        result.val_loss.append(val_mse)
        if val_mse < best_val:
            best_val, best_flat = val_mse, model.get_flat()
            result.best_epoch = epoch
    result.model = AgeNet(model.arch, model.seed, x.shape[1:])
    result.model.set_flat(best_flat)
    return result


# --- cross-validation ------------------------------------------------------

@dataclass(frozen=True)
class CrossValReport:
    fold_rmse: tuple
    pooled_rmse: float
    predictions: tuple        # of (fold, participant_id, label, prediction)
    confusion: np.ndarray     # 4x4 counts, true bin x predicted bin (AGE_BINS)
    warnings: tuple = ()


def _bin_index(age):
    for i, (lo, hi) in enumerate(AGE_BINS):
        if lo <= age <= hi:
            return i
    return len(AGE_BINS) - 1 if age > AGE_BINS[-1][1] else 0


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
        raise TooFewParticipants(f"need >= 10 participants, got {len(pids)}")

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
            result = train(model, train_w, val_w, epochs=epochs,
                           seed=seed * 1000 + fold)
            _, preds = evaluate_mse(result.model, val_w)

        labels = np.array([w.label for w in val_w])
        fold_rmse.append(float(np.sqrt(np.mean((preds - labels) ** 2))))
        seen_bins = set()
        for w, p in zip(val_w, preds):
            predictions.append((fold, w.participant_id, w.label, float(p)))
            ti = _bin_index(w.label)
            pi = _bin_index(p)
            confusion[ti, pi] += 1
            seen_bins.add(ti)
        for i in range(len(AGE_BINS)):
            if i not in seen_bins:
                warnings.append(f"fold {fold}: validation lacks bin {AGE_BINS[i]}")

    all_pred = np.array([p for *_, p in predictions])
    all_lab = np.array([lab for _, _, lab, _ in predictions])
    pooled = float(np.sqrt(np.mean((all_pred - all_lab) ** 2)))
    return CrossValReport(tuple(fold_rmse), pooled, tuple(predictions),
                          confusion, warnings=tuple(warnings))
