"""Output checks: acceptance intervals for stochastic estimators and the
optimality conditions of the classical heads.

Each stochastic check is sized so that a correct program fails a whole run
with probability below ``FALSE_ALARM`` (one in ten million): the budget is
split evenly over the values a run checks (union bound), and every interval
is an exact binomial quantile or a Chernoff bound, never a normal
approximation.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import binom

FALSE_ALARM = 1e-7


class CheckFailed(AssertionError):
    """A benchmark output did not match its independent computation."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ----------------------------------------------------------------- shots
def shots_interval(exact: np.ndarray, shots: int, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided acceptance interval of a ``shots``-sample Pauli estimate.

    The estimate is ``2 k / shots - 1`` with ``k ~ Binomial(shots, (1 + mu) / 2)``;
    the interval holds ``k`` with probability at least ``1 - delta``.
    """
    p = np.clip((1.0 + exact) / 2.0, 0.0, 1.0)
    lo = binom.ppf(delta / 2, shots, p)  # P(k < lo) < delta / 2
    hi = binom.isf(delta / 2, shots, p)  # P(k > hi) <= delta / 2
    return 2.0 * lo / shots - 1.0, 2.0 * hi / shots - 1.0


# --------------------------------------------------------------- shadows
_LAMBDAS = np.concatenate([-np.logspace(-4, 1, 300)[::-1], np.logspace(-4, 1, 300)])


def _shadow_log_mgf(mu: np.ndarray, weight: int) -> np.ndarray:
    """``log E exp(lam X)`` of one snapshot's estimate, for every lambda.

    A snapshot of a Pauli of locality L reads ``+-3**L`` when its random
    bases match the Pauli (probability ``3**-L``) and 0 otherwise; given a
    match the sign is +1 with probability ``(1 + mu) / 2``.  Shape
    ``(len(mu), len(_LAMBDAS))``.
    """
    w = float(3**weight)
    lam = _LAMBDAS[None, :]
    m = mu[:, None]
    return np.log(
        (1 - 1 / w)
        + (1 + m) / (2 * w) * np.exp(lam * w)
        + (1 - m) / (2 * w) * np.exp(-lam * w)
    )


def shadow_tolerance(mu: np.ndarray, weight: int, snapshots: int, delta: float) -> np.ndarray:
    """Largest deviation of a ``snapshots``-mean shadow estimate from ``mu``
    that a correct estimator exceeds with probability below ``delta``
    (Chernoff bound on each tail with the estimator's exact distribution)."""
    mu = np.asarray(mu, dtype=float)
    if weight == 0:
        return np.zeros_like(mu)
    psi = _shadow_log_mgf(mu, weight)
    target = np.log(2.0 / delta) / snapshots
    lo = np.zeros_like(mu)
    hi = np.full_like(mu, 2.0 * 3**weight)
    for _ in range(60):
        t = (lo + hi) / 2
        lam = _LAMBDAS[None, :]
        up = np.max(lam * (mu + t)[:, None] - psi, axis=1)
        down = np.max(lam * (mu - t)[:, None] - psi, axis=1)
        rate = np.minimum(up, down)
        ok = rate >= target
        hi = np.where(ok, t, hi)
        lo = np.where(ok, lo, t)
    return hi


def shadow_mean_tolerance(mu: np.ndarray, weight: int, snapshots: int, delta: float) -> float:
    """Tolerance on the mean signed error over rows of one feature column:
    the rows' snapshots are independent, so their log-MGFs add up."""
    mu = np.asarray(mu, dtype=float)
    if weight == 0:
        return 0.0
    psi = _shadow_log_mgf(mu, weight).sum(axis=0)  # sum over rows
    lam = _LAMBDAS
    target = np.log(2.0 / delta)
    lo, hi = 0.0, 2.0 * 3**weight
    for _ in range(60):
        t = (lo + hi) / 2
        # Sum over rows of (mean_r - mu_r) >= len(mu) * t, scaled to snapshots.
        shift = mu.sum()
        up = np.max(lam * (shift + len(mu) * t) * snapshots - snapshots * psi)
        down = np.max(lam * (shift - len(mu) * t) * snapshots - snapshots * psi)
        if min(up, down) >= target:
            hi = t
        else:
            lo = t
    return hi


# ----------------------------------------------------------------- heads
def logistic_gap(q: np.ndarray, y: np.ndarray, coef: np.ndarray, bias: float, l2: float) -> tuple[float, float]:
    """Stationarity of a fitted L2-penalised logistic head.

    The objective is ``sum(log(1 + e^z) - y z) + l2/2 |coef|^2`` with
    ``z = q coef + bias``.  Returns ``(gap, f)``: half the squared gradient
    norm in the inverse-Hessian metric (the Newton decrement), which is the
    objective's distance from its minimum to second order, and the
    objective itself.  Unlike the plain gradient norm it does not depend on
    how the features are scaled, so one tolerance fits every data set.
    """
    x = np.hstack([q, np.ones((q.shape[0], 1))])
    w = np.concatenate([coef, [bias]])
    z = x @ w
    p = 1.0 / (1.0 + np.exp(-z))
    grad = x.T @ (p - y)
    grad[:-1] += l2 * coef
    hess = x.T @ (x * (p * (1 - p))[:, None])
    hess[:-1, :-1] += l2 * np.eye(len(coef))
    f = float(np.sum(np.logaddexp(0.0, z) - y * z) + 0.5 * l2 * coef @ coef)
    return 0.5 * float(grad @ np.linalg.solve(hess, grad)), f


def ball_residual(q: np.ndarray, y: np.ndarray, alpha: np.ndarray, radius: float) -> float:
    """Fixed-point residual of projected gradient for
    ``min (1/d)|y - q alpha|^2  s.t. |alpha|_2 <= radius``, step ``1/L``."""
    d = q.shape[0]
    smax = np.linalg.norm(q, 2)
    step = d / (2.0 * smax**2)
    grad = (2.0 / d) * (q.T @ (q @ alpha - y))
    moved = alpha - step * grad
    norm = np.linalg.norm(moved)
    projected = moved if norm <= radius else moved * (radius / norm)
    return float(np.linalg.norm(alpha - projected))
