"""Coin-betting wealth processes on [-1, 1]-valued coin sequences.

A bettor observes coins c_1..c_n and stakes a predictable fraction beta_t
of its wealth each round: W_t = W_{t-1} (1 + beta_t c_t), W_0 = 1.  The
best fixed fraction in hindsight defines W*_n = max_beta prod(1 + beta
c_t); the Krichevsky-Trofimov bettor (beta_t = running coin mean) tracks
it within a multiplicative 2 sqrt(n).  All wealth arithmetic is done in
log-space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _floats, _integer

__all__ = [
    "WealthTrace",
    "max_log_wealth",
    "kt_bettor",
    "wealth_quadratic_lower",
    "mean_zero_coins",
]


@dataclass(frozen=True)
class WealthTrace:
    """Per-round record of one bettor run.

    ``log_wealth`` has length n+1 with log_wealth[0] = 0, so log_wealth[t]
    is ln W_t; ``beta_star`` and ``log_wealth_star`` describe the best
    fixed fraction in hindsight.
    """

    coins: np.ndarray
    bets: np.ndarray
    log_wealth: np.ndarray
    beta_star: float
    log_wealth_star: float

    def __post_init__(self) -> None:
        n = self.coins.size
        if self.bets.shape != (n,) or self.log_wealth.shape != (n + 1,):
            raise ValidationError("trace arrays have inconsistent lengths")
        for arr in (self.coins, self.bets, self.log_wealth):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return int(self.coins.size)

    @property
    def log_regret(self) -> float:
        """ln(W*_n / W_n) of the recorded bettor."""
        return self.log_wealth_star - float(self.log_wealth[-1])


def _log_wealth(beta: float, arr: np.ndarray) -> float:
    with np.errstate(divide="ignore"):
        return float(np.log1p(beta * arr).sum())


def _wealth_slopes(beta: float, coins: np.ndarray) -> tuple[float, float]:
    """(d/dbeta, -d^2/dbeta^2) of ln W_n(beta) = sum ln(1 + beta c_t)."""
    ratio = coins / (1.0 + beta * coins)
    return float(ratio.sum()), float(ratio @ ratio)


def max_log_wealth(coins) -> tuple[float, float]:
    """(beta_star, ln W*_n): maximize the concave ln-wealth over [-1, 1].

    An interior maximizer is the root of the decreasing derivative.  Newton
    steps from beta = 0 use the closed-form second derivative inside a
    bracket of the root, which each evaluated derivative sign shrinks; a
    step that would leave the bracket bisects it instead.  The search ends
    with a Newton step of at most 1e-12, or a bracket that narrow.  The
    candidate is then compared against both endpoints and beta = 0, which
    also guarantees ln W*_n >= 0.
    """
    arr = _floats(coins, "coins", -1.0, 1.0, ndim=1)
    if not arr.any():
        return 0.0, 0.0
    with np.errstate(divide="ignore"):  # a +-1 coin makes an endpoint slope infinite
        d_lo, d_hi = _wealth_slopes(-1.0, arr)[0], _wealth_slopes(1.0, arr)[0]
    if d_lo <= 0.0:
        candidate = -1.0
    elif d_hi >= 0.0:
        candidate = 1.0
    else:
        lo, hi, candidate = -1.0, 1.0, 0.0
        while hi - lo > 1e-12:
            slope, curvature = _wealth_slopes(candidate, arr)
            step = slope / curvature
            if abs(step) <= 1e-12:
                candidate += step
                break
            if slope > 0.0:
                lo = candidate
            else:
                hi = candidate
            newton = candidate + step
            candidate = newton if lo < newton < hi else 0.5 * (lo + hi)
    best_beta, best_value = 0.0, 0.0
    for beta in (candidate, -1.0, 1.0):
        value = _log_wealth(beta, arr)
        if value > best_value:
            best_beta, best_value = beta, value
    return best_beta, best_value


def _kt_rows(coins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """KT bets and length n+1 log-wealth paths of each row of a (..., n) coin array.

    A row's bits do not depend on the rows beside it, so a block of paths
    gives each path what a one-row call would.
    """
    n = coins.shape[-1]
    prefix = np.zeros_like(coins)
    np.cumsum(coins[..., :-1], axis=-1, out=prefix[..., 1:])
    bets = prefix / np.arange(1, n + 1)
    log_wealth = np.zeros(coins.shape[:-1] + (n + 1,))
    np.cumsum(np.log1p(bets * coins), axis=-1, out=log_wealth[..., 1:])
    return bets, log_wealth


def kt_bettor(coins) -> WealthTrace:
    """Run the Krichevsky-Trofimov bettor beta_t = (sum_{s<t} c_s) / t.

    beta_1 = 0 and |beta_t| < 1 always, so the wealth never ruins.  The
    returned trace also carries the hindsight-optimal (beta*, ln W*).
    """
    arr = _floats(coins, "coins", -1.0, 1.0, ndim=1)
    bets, log_wealth = _kt_rows(arr)
    beta_star, log_wealth_star = max_log_wealth(arr)
    return WealthTrace(
        coins=arr.copy(),
        bets=bets,
        log_wealth=log_wealth,
        beta_star=beta_star,
        log_wealth_star=log_wealth_star,
    )


def wealth_quadratic_lower(coins) -> float:
    """Lower bound ln W*_n >= (sum c_t)^2 / (4 n)."""
    arr = _floats(coins, "coins", -1.0, 1.0, ndim=1)
    total = float(arr.sum())
    return total * total / (4.0 * arr.size)


def mean_zero_coins(n: int, seed: int, path: int = 0) -> np.ndarray:
    """n coins from ``default_rng((seed, path))``: a fair sign times a Uniform[0, 1) magnitude."""
    return _coin_row(_integer(n, "n", 1), _integer(seed, "seed", 0), _integer(path, "path", 0))


def _coin_row(n: int, seed: int, path: int) -> np.ndarray:
    rng = np.random.default_rng((seed, path))
    signs = rng.integers(0, 2, n) * 2 - 1
    return signs * rng.random(n)
