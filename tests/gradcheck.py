"""Finite-difference check of ``AgeNet``'s analytic gradients, for tests."""

import numpy as np

from reachkin.agenet import CONV_CHANNELS, POOL, AgeNet


def _activation_pattern(cache):
    """Sign/argmax pattern of every nonlinearity, for kink-crossing detection:
    each conv's ReLU signs and pool argmax, then each hidden layer's ReLU
    signs (the output layer has no nonlinearity)."""
    pattern = []
    for _, z, r, m in cache[:len(CONV_CHANNELS)]:
        pattern.append(z > 0.0)
        pattern.append(r[:, :m.shape[1] * POOL].reshape(
            *m.shape[:2], POOL, -1).argmax(axis=2))
    pattern.extend(z > 0.0 for _, z in cache[len(CONV_CHANNELS):-1])
    return pattern


def _at_kink(cache, margin):
    """True when the forward pass sits exactly on a ReLU kink (pre-activation
    within ``margin`` of zero). Pool ties are handled per parameter instead:
    exact ties from constant input stretches move together under a
    finite-difference step, and any tie that does break shows up as an
    argmax pattern flip and excludes that parameter."""
    zs = [z for _, z, _, _ in cache[:len(CONV_CHANNELS)]]
    zs += [z for _, z in cache[len(CONV_CHANNELS):-1]]
    return any(np.any((np.abs(z) < margin) & (z != 0.0)) for z in zs)


def grad_check(model: AgeNet, window, n_params: int = 200, step: float = 1e-5,
               seed: int = 0, tie_margin: float = 1e-9):
    """Compare analytic gradients to central finite differences.

    Returns (max_relative_error, n_checked). ``n_checked`` is 0 (and the
    error nan) when the forward pass sits on a ReLU kink, where the analytic
    subgradient is not finite-difference-verifiable. Parameters whose
    finite-difference step flips a ReLU sign or a pool argmax are excluded
    and do not count toward ``n_checked``.
    """
    x = np.asarray(window, dtype=float)[None]
    cache = []
    model.forward(x, cache=cache)
    if _at_kink(cache, tie_margin):
        return float("nan"), 0
    base_pattern = _activation_pattern(cache)
    dW, db = model.backward(cache, np.ones(1))
    analytic = np.concatenate([g.ravel() for g in dW + db])

    def probed(flat):
        model.set_flat(flat)
        c = []
        val = model.forward(x, cache=c)[0]
        same = all(np.array_equal(p, q)
                   for p, q in zip(base_pattern, _activation_pattern(c)))
        return val, same

    flat = model.get_flat()
    rng = np.random.default_rng(seed)
    idx = rng.choice(flat.size, size=min(n_params, flat.size), replace=False)
    max_err = 0.0
    checked = 0
    for i in idx:
        saved = flat[i]
        flat[i] = saved + step
        hi, ok_hi = probed(flat)
        flat[i] = saved - step
        lo, ok_lo = probed(flat)
        flat[i] = saved
        if not (ok_hi and ok_lo):
            continue   # step crossed a kink; not finite-difference-verifiable
        numeric = (hi - lo) / (2.0 * step)
        denom = max(abs(analytic[i]), abs(numeric), 1e-8)
        max_err = max(max_err, abs(analytic[i] - numeric) / denom)
        checked += 1
    model.set_flat(flat)
    if checked == 0:
        return float("nan"), 0
    return float(max_err), checked
