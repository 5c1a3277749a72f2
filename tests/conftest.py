"""Shared fuzz helpers and oracles for the test suite."""

import math

import numpy as np

from zcp_paclab import make_discrete


def random_pair(rng, max_support=64, min_support=2):
    """Two strictly positive distributions on a shared random support."""
    size = int(rng.integers(min_support, max_support + 1))
    p = make_discrete(rng.random(size) + 1e-3)
    q = make_discrete(rng.random(size) + 1e-3)
    return p, q


def random_dominated_pair(rng, max_support=64):
    """A pair with Q > 0 everywhere and P zero on a random subset of atoms."""
    size = int(rng.integers(2, max_support + 1))
    q_weights = rng.random(size) + 1e-3
    p_weights = rng.random(size) * (rng.random(size) < 0.7)
    if p_weights.sum() == 0.0:
        p_weights[int(rng.integers(size))] = 1.0
    return make_discrete(p_weights), make_discrete(q_weights)


def random_coins(rng, max_n=512):
    """Coin sequence in [-1, 1]; sometimes pinned to the +/-1 boundary."""
    n = int(rng.integers(1, max_n + 1))
    style = rng.random()
    if style < 0.2:
        return rng.choice([-1.0, 1.0], n)
    if style < 0.3:
        return np.full(n, float(rng.choice([-1.0, 1.0])))
    coins = rng.uniform(-1.0, 1.0, n)
    if style < 0.5:
        coins[rng.random(n) < 0.25] = rng.choice([-1.0, 1.0])
    return coins


def grid_max_log_wealth(coins, stages=3, points=513):
    """Independent grid-refinement oracle for the best fixed bet.

    Valid because the log-wealth is concave in beta: each stage brackets
    the maximizer within one grid step, so three stages of 513 points pin
    beta* to ~6e-8 and the optimal value far tighter.
    """
    coins = np.asarray(coins, dtype=float)
    lo, hi = -1.0, 1.0
    best_beta, best_value = 0.0, -np.inf
    for _ in range(stages):
        betas = np.linspace(lo, hi, points)
        with np.errstate(divide="ignore"):
            values = np.log1p(betas[:, None] * coins[None, :]).sum(axis=1)
        k = int(np.argmax(values))
        best_beta, best_value = float(betas[k]), float(values[k])
        step = betas[1] - betas[0]
        lo, hi = max(-1.0, betas[k] - step), min(1.0, betas[k] + step)
    return best_beta, best_value


def bisect_max_log_wealth(coins):
    """Derivative-bisection oracle for the best fixed bet, (beta*, ln W*).

    Bisects the sign change of the decreasing derivative to a bracket of
    width 1e-12, then keeps the best of its midpoint, both endpoints and
    beta = 0 (ties keep the earlier one).
    """
    coins = np.asarray(coins, dtype=float)

    def slope(beta):
        with np.errstate(divide="ignore"):
            return float(np.sum(coins / (1.0 + beta * coins)))

    if not coins.any():
        return 0.0, 0.0
    if slope(-1.0) <= 0.0:
        candidate = -1.0
    elif slope(1.0) >= 0.0:
        candidate = 1.0
    else:
        lo, hi = -1.0, 1.0
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if slope(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        candidate = 0.5 * (lo + hi)
    best_beta, best_value = 0.0, 0.0
    for beta in (candidate, -1.0, 1.0):
        with np.errstate(divide="ignore"):
            value = float(np.log1p(beta * coins).sum())
        if value > best_value:
            best_beta, best_value = beta, value
    return best_beta, best_value


def masked_log_abs_expm1(d):
    """Reference for ``divergences._log_abs_expm1``: ln|exp(d) - 1| with d < 0, 0 < d <= 700
    and d > 700 each computed under its own mask."""
    out = np.full_like(d, -np.inf)
    pos_small = (d > 0.0) & (d <= 700.0)
    pos_big = d > 700.0
    neg = d < 0.0
    with np.errstate(divide="ignore"):
        out[pos_small] = np.log(np.expm1(d[pos_small]))
        out[neg] = np.log(-np.expm1(d[neg]))
    out[pos_big] = d[pos_big] + np.log1p(-np.exp(-d[pos_big]))
    return out


def masked_log1p_sq(ln_t, c):
    """Reference for ``divergences._log1p_sq``: ln(1 + (ct)^2) with s2 = 2 ln(ct) <= 700 and
    s2 > 700 each computed under its own mask."""
    ln_t = np.asarray(ln_t, dtype=float)
    if c == 0.0:
        return np.zeros_like(ln_t)
    with np.errstate(over="ignore"):  # 2 ln(ct) overflows once ln(ct) > 8.9e307
        s2 = 2.0 * (math.log(c) + ln_t)
    out = np.empty_like(s2)
    small = s2 <= 700.0
    out[small] = np.log1p(np.exp(s2[small]))
    # ct > 1e152 territory: 2 ln(ct) + ln(1 + (ct)^-2)
    out[~small] = s2[~small] + np.log1p(np.exp(-s2[~small]))
    return out
