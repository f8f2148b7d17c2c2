import numpy as np
import pytest
from gradcheck import grad_check

from reachkin import agenet
from reachkin.agenet import (
    CONV_CHANNELS,
    KERNEL,
    LINEAR,
    POOL,
    AgeNet,
    MotionWindow,
    cross_validate,
    evaluate_mse,
    normalize_window,
    train,
    window_dataset,
)
from reachkin.errors import ConfigError, InputError, NumericalError


# --- normalization -----------------------------------------------------------

def test_normalize_window_bounds():
    rng = np.random.default_rng(0)
    out = normalize_window(rng.normal(3.0, 10.0, (4, 200)))
    assert out.min() == -1.0 and out.max() == 1.0
    assert np.all(out.min(axis=1) == -1.0)
    assert np.all(out.max(axis=1) == 1.0)


def test_normalize_window_constant_channel_is_zero():
    raw = np.vstack([np.full(200, 7.0), np.linspace(0, 1, 200),
                     np.zeros(200), np.linspace(-3, 4, 200)])
    out = normalize_window(raw)
    assert np.all(out[0] == 0.0)
    assert np.all(out[2] == 0.0)


def test_normalize_window_affine_invariant():
    rng = np.random.default_rng(1)
    raw = rng.normal(size=(4, 200))
    assert np.allclose(normalize_window(3.0 * raw + 250.0),
                       normalize_window(raw), atol=1e-12)


# --- window slicing ----------------------------------------------------------

def test_window_dataset_counts():
    rng = np.random.default_rng(2)
    seqs = [("a", 8, rng.normal(size=(4, 750))),
            ("b", 12, rng.normal(size=(4, 200))),
            ("c", 15, rng.normal(size=(4, 199)))]
    windows, skipped = window_dataset(seqs)
    per_pid = {}
    for w in windows:
        per_pid[w.participant_id] = per_pid.get(w.participant_id, 0) + 1
    assert per_pid == {"a": 6, "b": 1}
    assert skipped == ["c"]
    assert all(w.values.shape == (4, 200) for w in windows)
    labels = {w.participant_id: w.label for w in windows}
    assert labels == {"a": 8.0, "b": 12.0}


def test_window_dataset_all_too_short():
    with pytest.raises(InputError, match="^no participant has enough frames "
                                         "for a window$"):
        window_dataset([("a", 8, np.zeros((4, 50)))])


# --- forward pass ------------------------------------------------------------

def test_forward_zero_parameters_predicts_zero():
    model = AgeNet(seed=0)
    model.set_flat(np.zeros(model.get_flat().size))
    x = np.random.default_rng(3).normal(size=(2, 4, 200))
    assert np.array_equal(model.forward(x), [0.0, 0.0])


def test_forward_single_vs_batch():
    model = AgeNet(seed=1)
    rng = np.random.default_rng(4)
    xs = rng.normal(size=(3, 4, 200))
    batch = model.forward(xs)
    assert batch.shape == (3,)
    for i in range(3):
        one = model.forward(xs[i:i + 1])   # a single window: a batch of one
        assert one.shape == (1,)
        # batched matrix products reorder the sums; agreement is to rounding
        assert one[0] == pytest.approx(batch[i], rel=1e-12)


def test_forward_deterministic():
    x = np.random.default_rng(5).normal(size=(2, 4, 200))
    assert np.array_equal(AgeNet(seed=7).forward(x), AgeNet(seed=7).forward(x))


def test_flat_parameter_round_trip():
    model = AgeNet(seed=2)
    flat = model.get_flat()
    other = AgeNet(seed=3)
    other.set_flat(flat)
    assert np.array_equal(other.get_flat(), flat)
    with pytest.raises(ValueError):
        other.set_flat(flat[:-1])


# --- exact agreement with the einsum formulation -----------------------------

def _einsum_forward_backward(model, x, dout):
    """Reference forward/backward: strided windows contracted by einsum,
    max-pool by argmax. The model's own passes must match it bit for bit,
    since every CV artifact depends on each rounding of training."""
    from numpy.lib.stride_tricks import sliding_window_view
    n_conv = len(CONV_CHANNELS)
    convs, linears, a = [], [], x
    for W, b in zip(model.weights[:n_conv], model.biases[:n_conv]):
        assert W.shape[2] == KERNEL
        win = sliding_window_view(a, KERNEL, axis=2)
        z = np.einsum("ock,bctk->bot", W, win,
                      optimize=True) + b[None, :, None]
        r = np.maximum(z, 0.0)
        To = r.shape[2] // POOL
        blocks = r[:, :, :To * POOL].reshape(r.shape[0], r.shape[1], To, POOL)
        idx = blocks.argmax(axis=3)
        convs.append((a, win, z, blocks, idx))
        a = np.take_along_axis(blocks, idx[..., None], axis=3)[..., 0]
    pooled_shape = a.shape
    a = a.reshape(a.shape[0], -1)
    assert [W.shape[0] for W in model.weights[n_conv:]] == [*LINEAR, 1]
    for W, b in zip(model.weights[n_conv:], model.biases[n_conv:]):
        z = a @ W.T + b
        linears.append((a, z))
        a = np.maximum(z, 0.0)
    out = z[:, 0]

    dW = [None] * len(model.weights)
    db = [None] * len(model.biases)
    grad = np.asarray(dout, dtype=float)[:, None]
    for li in reversed(range(n_conv, len(model.weights))):
        a, z = linears[li - n_conv]
        if li < len(model.weights) - 1:
            grad = grad * (z > 0.0)
        dW[li] = grad.T @ a
        db[li] = grad.sum(axis=0)
        grad = grad @ model.weights[li]
    grad = grad.reshape(pooled_shape)
    for li in reversed(range(n_conv)):
        a, win, z, blocks, idx = convs[li]
        dblocks = np.zeros_like(blocks)
        np.put_along_axis(dblocks, idx[..., None], grad[..., None], axis=3)
        din = np.zeros(z.shape)
        To = blocks.shape[2]
        din[:, :, :To * POOL] = dblocks.reshape(z.shape[0], z.shape[1],
                                                To * POOL)
        grad = din * (z > 0.0)
        W = model.weights[li]
        dW[li] = np.einsum("bot,bctk->ock", grad, win, optimize=True)
        db[li] = grad.sum(axis=(0, 2))
        din = np.zeros_like(a)
        To = grad.shape[2]
        for k in range(KERNEL):
            din[:, :, k:k + To] += np.einsum(
                "oc,bot->bct", W[:, :, k], grad, optimize=True)
        grad = din
    return out, dW, db


def _tied_batch(size):
    """Windows with constant stretches, so pool blocks hold exact ties."""
    rng = np.random.default_rng(21)
    raw = np.repeat(rng.normal(size=(size, 4, 40)), 5, axis=2)  # (size, 4, 200)
    raw[1:2, :, 50:120] = 0.25
    raw[2:3] = 0.0
    return np.stack([normalize_window(r) for r in raw])


# BLAS picks its kernel by size, so each batch size the program runs is a
# case: 16 and the last, partial training batch (3); a validation batch of
# pipeline_full (29); the evaluation batch (64); and 1. The original cases,
# random at 16 and ties at 3, keep their names. At 1 and 29 the layer-0
# weight gradient, one (O, B*To) x (B*To, C*K) product, sums in another
# order than the einsum reference on the AVX-512 OpenBLAS kernel, and so
# differs in the last bits; the prediction and every other gradient match.
_LAYER0_DW_ROUNDS_APART = pytest.mark.xfail(
    strict=True, reason="layer-0 weight gradient sums in another order than "
                        "the einsum reference at this batch size")


@pytest.mark.parametrize("batch, size", [
    pytest.param(batch, size, id=batch if size == usual else f"{batch}-{size}",
                 marks=_LAYER0_DW_ROUNDS_APART if size in (1, 29) else ())
    for batch, usual in (("random", 16), ("ties", 3))
    for size in (1, 3, 16, 29, 64)])
def test_forward_backward_match_einsum_reference_exactly(batch, size):
    model = AgeNet(seed=9)
    rng = np.random.default_rng(22)
    if batch == "random":
        x = np.stack([normalize_window(rng.normal(size=(4, 200)))
                      for _ in range(size)])
    else:
        x = _tied_batch(size)
    dout = rng.normal(size=len(x))
    want_out, want_dW, want_db = _einsum_forward_backward(model, x, dout)

    cache = []
    out = model.forward(x, cache=cache)
    dW, db = model.backward(cache, dout)
    assert np.array_equal(out, want_out)
    assert len(dW) == len(want_dW) and len(db) == len(want_db)
    for got, want in zip(dW + db, want_dW + want_db):
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_input_length_comes_from_the_input_shape():
    x = np.random.default_rng(8).normal(size=(2, 4, 79))
    assert AgeNet(seed=0, input_shape=(4, 79)).forward(x).shape == (2,)
    with pytest.raises(ConfigError, match="needs at least 79"):
        AgeNet(seed=0, input_shape=(4, 78))


# --- gradient check ----------------------------------------------------------

def test_grad_check_reports_kink():
    model = AgeNet(seed=0)
    model.set_flat(np.zeros(model.get_flat().size))
    model.biases[0][0] = 1e-12   # first conv pre-activation sits on the kink
    err, checked = grad_check(model, np.zeros((4, 200)), n_params=20)
    assert checked == 0
    assert np.isnan(err)


# --- training ----------------------------------------------------------------

def _window(pid, label, seed):
    rng = np.random.default_rng(seed)
    return MotionWindow(normalize_window(rng.normal(size=(4, 200))),
                        float(label), pid)


def test_train_rejects_overlapping_splits():
    w = _window("a", 8, 0)
    with pytest.raises(ValueError):
        train(AgeNet(seed=0), [w], [w], epochs=1)


def test_train_overfits_single_sample():
    model = AgeNet(seed=5)
    result = train(model, [_window("a", 9, 2)], [_window("b", 9, 3)],
                   epochs=300)
    assert result.train_loss[-1] < 1e-3
    assert result.train_loss[-1] < result.train_loss[0]


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_train_raises_on_non_finite_loss():
    bad = MotionWindow(_window("a", 0, 4).values, 1e200, "a")
    with pytest.raises(NumericalError, match="^non-finite loss at epoch 0; "):
        train(AgeNet(seed=0), [bad], [_window("b", 9, 5)], epochs=1)


def _synthetic_pids(n_pids=20, per_pid=5, seed=0):
    rng = np.random.default_rng(seed)
    ages = np.array(list(range(6, 18)) + list(range(6, 14)))
    rng.shuffle(ages)
    windows = []
    for i in range(n_pids):
        pid = f"s{i:02d}"
        for j in range(per_pid):
            windows.append(MotionWindow(
                normalize_window(rng.normal(size=(4, 200))),
                float(ages[i]), pid))
    return windows


def _split(windows, n_train_pids):
    pids = sorted({w.participant_id for w in windows})
    train_p = set(pids[:n_train_pids])
    tr = [w for w in windows if w.participant_id in train_p]
    va = [w for w in windows if w.participant_id not in train_p]
    return tr, va


def test_training_on_label_noise_matches_constant_baseline():
    # labels carry no signal: best validation rMSE stays near the rMSE of
    # always predicting the training mean
    windows = _synthetic_pids()
    tr, va = _split(windows, 14)
    result = train(AgeNet(seed=1), tr, va, epochs=15, seed=1)
    best = float(np.sqrt(min(result.val_loss)))
    const = float(np.mean([w.label for w in tr]))
    baseline = float(np.sqrt(np.mean([(w.label - const) ** 2 for w in va])))
    assert 0.85 * baseline <= best <= 1.15 * baseline


def test_training_learns_planted_linear_signal():
    windows = [MotionWindow(w.values, 10.0 + 5.0 * float(w.values[0].mean()),
                            w.participant_id)
               for w in _synthetic_pids()]
    tr, va = _split(windows, 14)
    result = train(AgeNet(seed=1), tr, va, epochs=15, seed=1)
    first = float(np.sqrt(result.val_loss[0]))
    best = float(np.sqrt(min(result.val_loss)))
    assert best * 10.0 <= first


def test_evaluate_mse_matches_manual_computation():
    model = AgeNet(seed=6)
    windows = [_window("a", 8, i) for i in range(3)]
    mse, preds = evaluate_mse(model, windows)
    manual = [model.forward(w.values[None])[0] for w in windows]
    assert np.allclose(preds, manual)
    assert mse == pytest.approx(np.mean((np.asarray(manual) - 8.0) ** 2))


# --- cross-validation --------------------------------------------------------

def _cv_windows():
    rng = np.random.default_rng(7)
    ages = [6, 7, 9, 10, 11, 12, 13, 14, 15, 16, 17, 8]
    windows = []
    for i, age in enumerate(ages):
        for j in range(2):
            windows.append(MotionWindow(
                normalize_window(rng.normal(size=(4, 200))),
                float(age), f"c{i:02d}"))
    return windows


def test_cross_validate_requires_ten_participants():
    windows = [w for w in _cv_windows() if w.participant_id < "c09"]
    with pytest.raises(InputError, match="^need >= 10 participants, got 9$"):
        cross_validate(windows, predictor=lambda w: 10.0)


def test_cross_validate_constant_predictor_identity():
    windows = _cv_windows()
    report = cross_validate(windows, folds=3, seed=0,
                            predictor=lambda w: 11.0)
    labs = np.array([lab for _, _, lab, _ in report.predictions])
    assert report.pooled_rmse == pytest.approx(
        float(np.sqrt(np.mean((11.0 - labs) ** 2))))
    assert all(p == 11.0 for *_, p in report.predictions)
    assert report.confusion.sum() == len(report.predictions)


def test_cross_validate_perfect_predictor():
    report = cross_validate(_cv_windows(), folds=3, seed=0,
                            predictor=lambda w: w.label)
    assert report.pooled_rmse == 0.0
    assert report.fold_rmse == (0.0, 0.0, 0.0)
    conf = report.confusion
    off_diag = conf.sum() - np.trace(conf)
    assert off_diag == 0


@pytest.mark.parametrize("offset", [0.5, 0.99])
def test_confusion_bins_fractional_predictions_by_lower_edge(offset):
    # 8.5 is in 6-8, 10.99 in 9-10 and 13.5 in 11-13: whole years round down
    report = cross_validate(_cv_windows(), folds=3, seed=0,
                            predictor=lambda w: w.label + offset)
    conf = report.confusion
    assert conf.sum() == len(report.predictions) == np.trace(conf)


@pytest.mark.parametrize("age, column", [(-3.0, 0), (5.99, 0), (17.5, 3),
                                         (40.0, 3)])
def test_confusion_puts_out_of_range_predictions_in_the_end_bins(age, column):
    report = cross_validate(_cv_windows(), folds=3, seed=0,
                            predictor=lambda w: age)
    conf = report.confusion
    assert conf[:, column].sum() == conf.sum() == len(report.predictions)


def test_cross_validate_deterministic_for_fixed_seed():
    windows = _cv_windows()
    a = cross_validate(windows, folds=2, seed=3, predictor=lambda w: w.label + 1)
    b = cross_validate(windows, folds=2, seed=3, predictor=lambda w: w.label + 1)
    assert a.predictions == b.predictions
    assert np.array_equal(a.confusion, b.confusion)


def test_cross_validate_scores_each_fold_with_its_best_epochs_predictions(
        monkeypatch):
    # train keeps the best epoch's validation predictions, so no fold
    # evaluates its restored model again (the CV pins hold its bits)
    calls = []
    original = agenet.evaluate_mse
    monkeypatch.setattr(agenet, "evaluate_mse",
                        lambda *args: calls.append(1) or original(*args))
    report = cross_validate(_cv_windows(), folds=2, epochs=3, seed=1)
    assert len(calls) == 2 * 3
    assert len(report.fold_rmse) == 2
