"""Multinomial logistic regression by a damped Newton (IRLS) solve.

``logistic_train`` minimizes the mean cross-entropy plus (l2/2)||W||^2,
with an unregularized bias, over all (d + 1) * K weights at once
(Böhning, "Multinomial logistic regression algorithm", Ann. Inst. Stat.
Math. 1992). Each iteration builds the full Hessian, takes the Newton
direction and backtracks along it until the Armijo condition holds, or,
once the loss change is below the loss's rounding error, until the
gradient norm falls. Adding one constant to every class bias leaves the
loss unchanged, so the Hessian is singular along that direction; the
gradient is orthogonal to it, and the direction is solved with
H + n n^T, n the normalized all-bias direction. The solve stops once
the Newton decrement g^T H^-1 g, twice the predicted remaining loss
decrease, is at most eps * loss. From the second iteration on, the
decrement is first taken with the previous iteration's Hessian, and at
most eps * loss / 4 stops the solve without forming a fresh one; near the
optimum the two differ by a relative O(||step||), so the factor 4 lets
through only stops the fresh test allows too. Otherwise the fresh Hessian
is formed, tested against eps * loss and solved for the step. Not getting
there within a fixed iteration cap, or a line search that finds no
acceptable step, raises ``NumericError``.

A ``Design`` holds the training rows prepared once: checked, their labels
encoded against the class list, transposed to [x | 1]^T and indexed by
(class, row). ``logistic_train`` fits a Design, so a chain of fits over
one fold (``pipeline.L2_GRID``) checks, encodes and copies its rows
once. A warm start's theta is ``np.hstack`` of the start's W^T and b,
which is F-ordered, and not a C-ordered theta carried over from the
previous fit: ``theta @ x1t`` rounds by layout, and a C-ordered theta
moves the last bit of some fits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._blas import NumericError, sum_squares

_MAX_ITER = 100
_ARMIJO = 1e-4
_MIN_STEP = 2.0 ** -30
_EPS = float(np.finfo(np.float64).eps)
# The loss sums terms of one sign, so its rounding error is a few
# _EPS * loss; a change smaller than _ROUNDOFF * loss cannot judge a step.
_ROUNDOFF = 64 * _EPS
# Hessian products run over blocks of this many rows, so the weighted copy
# of the features they need stays small next to the features themselves
_BLOCK = 2048


@dataclass
class LogisticModel:
    """Softmax classifier with weights (d x K), bias (K) and class ids.

    ``losses`` holds the loss at every Newton iterate, the starting point
    first; ``grad_norm`` is the gradient norm at the returned weights.
    """

    weights: np.ndarray
    bias: np.ndarray
    classes: np.ndarray
    losses: list[float] = field(default_factory=list)
    grad_norm: float = float("nan")

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        logits = np.asarray(x, dtype=np.float64) @ self.weights + self.bias
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        return p / p.sum(axis=1, keepdims=True)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.classes[np.argmax(self.predict_proba(x), axis=1)]


def _loss_grad(x1t, at_y, theta, l2):
    """Loss, gradient and class probabilities at ``theta``.

    ``x1t`` is [x | 1]^T (d+1 x m), ``theta`` is [W; b]^T (K x d+1) and
    ``at_y`` holds each row's flat (class, row) index into a K x m array
    (``Design.at_y``); everything runs class-major, so the per-row
    reductions run along the long axis. The loss is the mean
    cross-entropy plus (l2/2)||W||^2; the bias is unregularized.

    Each row's cross-entropy is log1p(s) - z_y, with the logits z shifted
    so their maximum is 0 and s the sum of the other exponentials: two
    nonnegative terms, so the loss keeps its relative precision however
    confident the fit. For the same reason 1 - p_y is s / (1 + s) where
    z_y is the maximum.
    """
    k, m = theta.shape[0], x1t.shape[1]
    logits = theta @ x1t
    logits -= logits.max(axis=0)
    zy = logits.take(at_y)
    below = logits < 0.0
    # logits, e and p share one K x m array; a second holds e * below, then diff
    e = np.exp(logits, out=logits)
    # the exponentials below the maximum, plus 1 per further tied maximum
    diff = np.multiply(e, below)
    s = diff.sum(axis=0) + ((k - 1) - below.sum(axis=0))
    norm = 1.0 + s
    p = np.divide(e, norm, out=e)
    w = theta[:, :-1]
    loss = (float(np.sum(np.log1p(s)) - np.sum(zy)) / m
            + 0.5 * l2 * float((w * w).sum()))
    diff[...] = p
    diff.reshape(-1)[at_y] = np.where(zy == 0.0, -s / norm, p.take(at_y) - 1.0)
    grad = diff @ x1t.T / m
    grad[:, :-1] += l2 * w
    return loss, grad, p


def _hessian(x1t: np.ndarray, p: np.ndarray, l2: float,
             buf: np.ndarray) -> np.ndarray:
    """Hessian in class-major order, plus n n^T on the all-bias direction.

    Block (i, j) is x1^T diag(p_i (delta_ij - p_j)) x1 / m. Columns of p
    sum to one, so a diagonal block is minus the sum of its row's
    off-diagonal blocks and only the K(K - 1)/2 blocks i < j need a
    product. Each weighted row block is written into ``buf``
    (d+1 x min(m, _BLOCK)).
    """
    d1, m = x1t.shape
    k = p.shape[0]
    h = np.zeros((k, d1, k, d1))
    for i in range(k):
        for j in range(i + 1, k):
            w = p[i] * p[j] / m
            c = np.zeros((d1, d1))
            for lo in range(0, m, _BLOCK):
                xb = x1t[:, lo:lo + _BLOCK]
                wx = np.multiply(xb, w[lo:lo + _BLOCK], out=buf[:, :xb.shape[1]])
                c += wx @ xb.T
            h[i, :, j, :] = h[j, :, i, :] = -c
            h[i, :, i, :] += c
            h[j, :, j, :] += c
    h = h.reshape(k * d1, k * d1)
    diag = h.reshape(-1)[::k * d1 + 1].reshape(k, d1)  # views, as h is contiguous
    diag[:, :-1] += l2  # the bias is unregularized
    h[d1 - 1::d1, d1 - 1::d1] += 1.0 / k  # the K x K bias entries
    return h


class Design:
    """Training rows (m x d) with their labels, prepared for any number of fits.

    ``classes`` lists the class ids (default: those in ``y``); every one
    must occur in ``y``, since an absent class has no finite optimal bias.
    The rows are checked and the labels encoded once. The class ids,
    ``x1t`` = [x | 1]^T (d+1 x m) and ``at_y``, each row's flat
    (class, row) index into a K x m array, are kept read-only. ``shape``
    is (m, d), so ``np.shape`` of a Design reads as that of its rows.
    """

    def __init__(self, x, y, classes=None):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y).ravel()
        if x.ndim != 2 or x.shape[0] != y.size:
            raise ValueError("x must be (m x d) aligned with y")
        if not np.all(np.isfinite(x)):
            raise ValueError("x must be finite")
        present = np.unique(y)
        if present.size < 2:
            raise ValueError("logistic regression needs at least two classes present")
        # a copy of the caller's classes, since it is made read-only
        classes = present if classes is None else np.array(classes)
        order = np.argsort(classes, kind="stable")
        pos = np.minimum(np.searchsorted(classes, y, sorter=order), classes.size - 1)
        yi = order[pos]
        bad = classes[yi] != y
        if bad.any():
            raise ValueError(f"label {y[bad].tolist()[0]!r} not in the class list")
        if np.bincount(yi, minlength=classes.size).min() == 0:
            raise ValueError("every listed class must occur in y")
        m, d = x.shape
        x1t = np.empty((d + 1, m))
        x1t[:d] = x.T
        x1t[d] = 1.0
        self.classes = classes
        self.x1t = x1t
        self.at_y = np.ravel_multi_index((yi, np.arange(m)), (classes.size, m))
        for a in (self.classes, self.x1t, self.at_y):
            a.flags.writeable = False

    @property
    def shape(self) -> tuple[int, int]:
        d1, m = self.x1t.shape
        return m, d1 - 1


def logistic_train(design: Design, l2: float = 1e-4,
                   start: LogisticModel | None = None) -> LogisticModel:
    """Fit ``design`` to the optimum from zero weights, or from ``start``'s weights.

    ``l2`` must be positive. A warm start must have the design's classes
    and feature count.
    """
    if not l2 > 0:
        raise ValueError("l2 must be positive")
    x1t, at_y, classes = design.x1t, design.at_y, design.classes
    m, d = design.shape
    k = classes.size
    if start is None:
        theta = np.zeros((k, d + 1))
    else:
        if start.weights.shape != (d, k) or not np.array_equal(start.classes, classes):
            raise ValueError("the warm start's classes or feature count differ")
        theta = np.hstack([start.weights.T, start.bias[:, None]])
    buf = np.empty((d + 1, min(m, _BLOCK)))
    loss, grad, p = _loss_grad(x1t, at_y, theta, l2)
    losses = []
    h = None  # the previous iteration's Hessian
    for _ in range(_MAX_ITER):
        losses.append(loss)
        g = grad.ravel()
        # the predicted decrease, decrement / 2, is below half an ulp of the
        # loss: by the previous Hessian with a margin of 4, else by a fresh one
        if (h is not None
                and float(g @ np.linalg.solve(h, g)) <= 0.25 * _EPS * loss):
            break
        h = _hessian(x1t, p, l2, buf)
        step = -np.linalg.solve(h, g)
        decrement = -float(g @ step)
        if decrement <= _EPS * loss:
            break
        step = step.reshape(k, d + 1)
        t = 1.0
        while True:
            trial = theta + t * step
            loss_t, grad_t, p_t = _loss_grad(x1t, at_y, trial, l2)
            if loss_t <= loss - _ARMIJO * t * decrement:
                break
            # near the optimum the loss cannot see the step; the gradient can
            if (abs(loss_t - loss) <= _ROUNDOFF * loss
                    and sum_squares(grad_t) < sum_squares(grad)):
                break
            t *= 0.5
            if t < _MIN_STEP:
                raise NumericError(f"Newton line search failed at decrement "
                                   f"{decrement:.3g}")
        theta, loss, grad, p = trial, loss_t, grad_t, p_t
    else:
        raise NumericError(f"Newton solve did not converge in {_MAX_ITER} iterations")
    return LogisticModel(np.ascontiguousarray(theta[:, :-1].T), theta[:, -1].copy(),
                         classes, losses, float(np.sqrt(sum_squares(g))))
