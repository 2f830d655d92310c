import numpy as np
import pytest

import sdnet.logistic as logistic
from sdnet._blas import sum_squares
from sdnet.logistic import Design, logistic_train, _loss_grad
from sdnet.rng import stream
from sdnet.spectral import NumericError


# Reference: the full-batch gradient-descent trainer the Newton solve
# replaced, kept as an oracle for the loss it minimizes.
def ref_loss_grad(x, onehot, w, b, l2):
    """Mean cross-entropy plus (l2/2)||W||^2; bias is unregularized."""
    m = x.shape[0]
    logits = x @ w + b
    logits -= logits.max(axis=1, keepdims=True)
    expl = np.exp(logits)
    proba = expl / expl.sum(axis=1, keepdims=True)
    ce = -np.sum(onehot * np.log(np.maximum(proba, 1e-300))) / m
    loss = ce + 0.5 * l2 * float((w * w).sum())
    diff = (proba - onehot) / m
    grad_w = x.T @ diff + l2 * w
    grad_b = diff.sum(axis=0)
    return loss, grad_w, grad_b


def ref_gradient_descent(x, y, k, l2=1e-4, lr=0.1, epochs=500):
    """Train from zero weights by plain gradient steps; returns (w, b)."""
    onehot = np.zeros((y.size, k))
    onehot[np.arange(y.size), y] = 1.0
    w = np.zeros((x.shape[1], k))
    b = np.zeros(k)
    for _ in range(epochs):
        _, gw, gb = ref_loss_grad(x, onehot, w, b, l2)
        w -= lr * gw
        b -= lr * gb
    return w, b


# Reference: the Newton solve as it ran before its stop test reused the
# previous iteration's Hessian, with its 2-D gathers and a fresh weighted
# copy per Hessian block; it forms a fresh Hessian every iteration.
def ref_newton_loss_grad(x1t, yi, theta, l2):
    k, m = theta.shape[0], x1t.shape[1]
    rows = np.arange(m)
    logits = theta @ x1t
    logits -= logits.max(axis=0)
    e = np.exp(logits)
    below = logits < 0.0
    s = (e * below).sum(axis=0) + ((k - 1) - below.sum(axis=0))
    norm = 1.0 + s
    p = e / norm
    zy = logits[yi, rows]
    w = theta[:, :-1]
    loss = (float(np.sum(np.log1p(s)) - np.sum(zy)) / m
            + 0.5 * l2 * float((w * w).sum()))
    diff = p.copy()
    diff[yi, rows] -= 1.0
    hit = zy == 0.0
    diff[yi[hit], rows[hit]] = -s[hit] / norm[hit]
    grad = diff @ x1t.T / m
    grad[:, :-1] += l2 * w
    return loss, grad, p


def ref_newton_hessian(x1t, p, l2):
    d1, m = x1t.shape
    k = p.shape[0]
    h = np.zeros((k, d1, k, d1))
    for i in range(k):
        for j in range(i + 1, k):
            w = p[i] * p[j] / m
            c = np.zeros((d1, d1))
            for lo in range(0, m, logistic._BLOCK):
                xb = x1t[:, lo:lo + logistic._BLOCK]
                c += (xb * w[lo:lo + logistic._BLOCK]) @ xb.T
            h[i, :, j, :] = h[j, :, i, :] = -c
            h[i, :, i, :] += c
            h[j, :, j, :] += c
    h = h.reshape(k * d1, k * d1)
    reg = np.full(d1, l2)
    reg[-1] = 0.0
    h[np.diag_indices_from(h)] += np.tile(reg, k)
    bias = np.arange(k) * d1 + d1 - 1
    h[np.ix_(bias, bias)] += 1.0 / k
    return h


def ref_newton(x, y, k, l2, start=None):
    """Fit with classes 0..k-1 from zero or from ``start`` (W, b); returns
    (W, b, losses, grad_norm, Hessians formed)."""
    eps, roundoff = np.finfo(np.float64).eps, 64 * np.finfo(np.float64).eps
    m, d = x.shape
    x1t = np.empty((d + 1, m))  # C order, as BLAS's rounding depends on it
    x1t[:d] = x.T
    x1t[d] = 1.0
    theta = (np.zeros((k, d + 1)) if start is None
             else np.hstack([start[0].T, start[1][:, None]]))
    loss, grad, p = ref_newton_loss_grad(x1t, y, theta, l2)
    losses = []
    for hessians in range(1, logistic._MAX_ITER + 1):
        losses.append(loss)
        g = grad.ravel()
        step = -np.linalg.solve(ref_newton_hessian(x1t, p, l2), g)
        decrement = -float(g @ step)
        if decrement <= eps * loss:
            return (np.ascontiguousarray(theta[:, :-1].T), theta[:, -1].copy(),
                    losses, float(np.sqrt(sum_squares(g))), hessians)
        step = step.reshape(k, d + 1)
        t = 1.0
        while True:
            trial = theta + t * step
            loss_t, grad_t, p_t = ref_newton_loss_grad(x1t, y, trial, l2)
            if loss_t <= loss - 1e-4 * t * decrement:
                break
            if (abs(loss_t - loss) <= roundoff * loss
                    and sum_squares(grad_t) < sum_squares(grad)):
                break
            t *= 0.5
            assert t >= 2.0 ** -30, "line search failed"
        theta, loss, grad, p = trial, loss_t, grad_t, p_t
    raise AssertionError("no convergence")


def _onehot(y, k):
    out = np.zeros((y.size, k))
    out[np.arange(y.size), y] = 1.0
    return out


def _random_problem(seed, k, m=60, d=4):
    rng = stream(seed)
    centers = rng.normal(size=(k, d))
    y = np.arange(m) % k
    x = centers[y] + rng.normal(size=(m, d)) * 1.5
    return x, y


def test_linearly_separable_two_class():
    rng = stream(0)
    x = np.vstack([rng.normal(size=(30, 2)) + 3.0, rng.normal(size=(30, 2)) - 3.0])
    y = np.repeat([0, 1], 30)
    model = logistic_train(Design(x, y))
    assert np.mean(model.predict(x) == y) == 1.0


def test_constant_features_give_class_frequencies():
    # W is penalized and the bias is not, so the optimum puts everything in
    # the bias and the probabilities are the class frequencies
    x = np.ones((4, 3))
    y = np.array([0, 1, 2, 0])
    model = logistic_train(Design(x, y))
    np.testing.assert_allclose(model.predict_proba(x),
                               np.tile([0.5, 0.25, 0.25], (4, 1)), atol=1e-9)


def test_gradient_matches_finite_differences():
    rng = stream(3)
    x = rng.normal(size=(20, 4))
    y = rng.integers(0, 3, size=20)
    x1t = np.vstack([x.T, np.ones(20)])
    at_y = y * 20 + np.arange(20)  # each row's flat (class, row) index
    theta = rng.normal(size=(3, 5)) * 0.1
    l2 = 1e-3
    loss, grad, _ = _loss_grad(x1t, at_y, theta, l2)
    ref_loss, ref_gw, ref_gb = ref_loss_grad(x, _onehot(y, 3), theta[:, :-1].T,
                                             theta[:, -1], l2)
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    np.testing.assert_allclose(grad, np.vstack([ref_gw, ref_gb]).T, atol=1e-14)
    eps = 1e-6
    for idx in [(0, 0), (2, 1), (1, 3), (0, 4), (1, 4), (2, 4)]:
        tp = theta.copy(); tp[idx] += eps
        tm = theta.copy(); tm[idx] -= eps
        lp, _, _ = _loss_grad(x1t, at_y, tp, l2)
        lm, _, _ = _loss_grad(x1t, at_y, tm, l2)
        fd = (lp - lm) / (2 * eps)
        assert grad[idx] == pytest.approx(fd, rel=1e-5)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_newton_beats_gradient_descent_oracle(k):
    for seed in range(3):
        x, y = _random_problem(seed + 20 * k, k)
        model = logistic_train(Design(x, y))
        onehot = _onehot(y, k)
        w, b = ref_gradient_descent(x, y, k, epochs=2000)
        ref_loss, _, _ = ref_loss_grad(x, onehot, w, b, 1e-4)
        loss, gw, gb = ref_loss_grad(x, onehot, model.weights, model.bias, 1e-4)
        assert loss <= ref_loss
        assert loss == pytest.approx(model.losses[-1], rel=1e-12)
        assert np.linalg.norm(np.vstack([gw, gb])) <= 1e-8
        assert model.grad_norm <= 1e-8


def test_line_search_losses_decrease_monotonically():
    for seed in range(3):
        rng = stream(seed + 10)
        x = rng.normal(size=(40, 5))
        y = rng.integers(0, 3, size=40)
        model = logistic_train(Design(x, y))
        losses = np.asarray(model.losses)
        assert losses.size >= 2 and losses[-1] < losses[0]
        # Armijo steps decrease the loss; a step taken once the loss cannot
        # see it (the gradient norm falls) moves it by rounding error only
        assert np.all(np.diff(losses) <= 64 * np.finfo(float).eps * losses[:-1])


@pytest.mark.parametrize("seed,k,m,d,scale", [(566, 4, 196, 7, 2.0),
                                               (55, 5, 85, 6, 1.0)])
def test_confident_fit_converges(seed, k, m, d, scale):
    # features in the thousands and a tiny l2 give a fit so confident that
    # 1 - p_top is far below eps: the loss and gradient must keep their
    # relative precision for the decrement to reach eps * loss, and the
    # last steps, whose loss change is below rounding, are judged by the
    # gradient norm (the second case fails its line search without that)
    rng = stream(seed)
    centers = rng.normal(size=(k, d)) * scale
    y = np.arange(m) % k
    x = (centers[y] + rng.normal(size=(m, d)) * scale + 6) * 1e3
    model = logistic_train(Design(x, y), l2=1e-7)
    _, gw, gb = ref_loss_grad(x, _onehot(y, k), model.weights, model.bias, 1e-7)
    assert np.linalg.norm(np.vstack([gw, gb])) <= 1e-8
    assert model.grad_norm <= 1e-8


def test_warm_start_reaches_the_same_optimum():
    x, y = _random_problem(7, 3)
    design = Design(x, y)
    cold = logistic_train(design, l2=1e-3)
    warm = logistic_train(design, l2=1e-3, start=logistic_train(design, l2=1e-1))
    assert len(warm.losses) < len(cold.losses)
    np.testing.assert_allclose(warm.predict_proba(x), cold.predict_proba(x),
                               atol=1e-8)
    with pytest.raises(ValueError):
        logistic_train(Design(x[:, :3], y), start=cold)


def _battery_problem(seed):
    """K = 2-5 classes, m = 40-1500 rows, d = 1-30 features scaled 0.5-20."""
    rng = stream(seed)
    k, m, d = int(rng.integers(2, 6)), int(rng.integers(40, 1500)), int(rng.integers(1, 31))
    scale = float(rng.uniform(0.5, 20))
    y = np.arange(m) % k
    x = (rng.normal(size=(k, d))[y] + rng.normal(size=(m, d))) * scale
    return x, y, k


def _count_hessians(monkeypatch):
    calls = [0]
    real = logistic._hessian

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(logistic, "_hessian", counted)
    return calls


def _assert_fits_as_oracle(fit, ref):
    w, b, losses, grad_norm, _ = ref
    assert fit.weights.tobytes() == w.tobytes()
    assert fit.bias.tobytes() == b.tobytes()
    assert fit.losses == losses
    assert fit.grad_norm.hex() == grad_norm.hex()


def test_warm_started_chains_match_the_fresh_hessian_oracle(monkeypatch):
    # the stop test by the previous Hessian forms fewer Hessians and moves
    # no bit of any fit along the l2 chains linkpred_run takes, one Design
    # serving each whole chain
    from sdnet.pipeline import L2_GRID
    calls = _count_hessians(monkeypatch)
    problems = []  # (x, y, k, the oracle's fit at each l2 of the chain)
    for seed in range(40):
        x, y, k = _battery_problem(seed)
        refs, start = [], None
        for l2 in L2_GRID:
            refs.append(ref_newton(x, y, k, l2, start))
            start = refs[-1][:2]
        problems.append((x, y, k, refs))
    ref_hessians = sum(ref[4] for *_, refs in problems for ref in refs)
    calls[0] = 0
    for x, y, k, refs in problems:
        design = Design(x, y, np.arange(k))
        fit = None
        for l2, ref in zip(L2_GRID, refs):
            fit = logistic_train(design, l2=l2, start=fit)
            _assert_fits_as_oracle(fit, ref)
    assert calls[0] < ref_hessians


def test_stale_decrement_above_its_bound_forms_a_fresh_hessian(monkeypatch):
    # this fit's last iterate fails the previous Hessian's test at
    # eps * loss / 4 and stops on a fresh Hessian, one per iterate
    x, y, k = _battery_problem(1)
    calls = _count_hessians(monkeypatch)
    fit = logistic_train(Design(x, y, np.arange(k)), l2=1.0)
    ref = ref_newton(x, y, k, 1.0)
    _assert_fits_as_oracle(fit, ref)
    assert len(fit.losses) >= 2
    assert calls[0] == len(fit.losses) == ref[4]


def test_iteration_cap_raises_numeric_error(monkeypatch):
    x, y = _random_problem(1, 3)
    monkeypatch.setattr(logistic, "_MAX_ITER", 2)
    with pytest.raises(NumericError):
        logistic_train(Design(x, y))


def test_single_class_error():
    with pytest.raises(ValueError):
        Design(np.ones((3, 2)), np.array([1, 1, 1]))


def test_listed_class_absent_from_y_raises():
    x, y = _random_problem(2, 2)
    with pytest.raises(ValueError, match="every listed class"):
        Design(x, y, classes=np.array([0, 1, 2]))
    with pytest.raises(ValueError, match="not in the class list"):
        Design(x, y + 1, classes=np.array([0, 1]))


def test_design_raises_the_fit_errors():
    x, y = _random_problem(2, 2)
    with pytest.raises(ValueError, match="aligned with y"):
        Design(x[:-1], y)
    with pytest.raises(ValueError, match="aligned with y"):
        Design(x[:, 0], y)
    bad = x.copy()
    bad[3, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        Design(bad, y)
    with pytest.raises(ValueError, match="at least two classes"):
        Design(x, np.zeros_like(y))
    with pytest.raises(ValueError, match="label 2 not in the class list"):
        Design(x, y + 1, classes=np.array([0, 1]))
    with pytest.raises(ValueError, match="every listed class"):
        Design(x, y, classes=np.array([0, 1, 2]))


def test_design_brings_its_own_labels():
    x, y = _random_problem(2, 2)
    design = Design(x, y)
    with pytest.raises(ValueError, match="l2 must be positive"):
        logistic_train(design, l2=0.0)
    fit = logistic_train(design)
    ref = logistic_train(Design(x, y, np.array([0, 1])))
    np.testing.assert_array_equal(fit.classes, design.classes)
    assert fit.weights.tobytes() == ref.weights.tobytes()
    assert fit.losses == ref.losses


def test_design_reads_as_its_rows():
    # perfbench's tracer records np.shape(args[0])[0] of logistic_train, its Design
    x, y = _random_problem(4, 3, m=57, d=6)
    design = Design(x, y)
    assert np.shape(design) == x.shape == (57, 6)
    np.testing.assert_array_equal(design.classes, [0, 1, 2])
    for a in (design.classes, design.x1t, design.at_y):
        assert not a.flags.writeable


def test_identical_calls_give_identical_weights():
    x, y = _random_problem(3, 4)
    a, b = logistic_train(Design(x, y)), logistic_train(Design(x, y))
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.bias.tobytes() == b.bias.tobytes()
    assert a.losses == b.losses


def test_explicit_class_list_predicts_class_ids():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.1], [0.1, 1.0]])
    y = np.array([5, 9, 5, 9])
    model = logistic_train(Design(x, y, classes=np.array([5, 9])))
    assert set(model.predict(x)) <= {5, 9}
    assert model.predict_proba(x).shape == (4, 2)
