"""Shared fuzz helpers for the test suite."""

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
