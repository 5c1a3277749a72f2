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
from typing import Iterator

import numpy as np

from .errors import _MAX_COUNT, ValidationError, _floats, _integer

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
    return _max_log_wealth(_floats(coins, "coins", -1.0, 1.0, ndim=1))


def _max_log_wealth(arr: np.ndarray) -> tuple[float, float]:
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
    return _wealth_quadratic_lower(_floats(coins, "coins", -1.0, 1.0, ndim=1))


def _wealth_quadratic_lower(arr: np.ndarray) -> float:
    total = float(arr.sum())
    return total * total / (4.0 * arr.size)


def mean_zero_coins(n: int, seed: int, path: int = 0) -> np.ndarray:
    """n coins of path ``path``: a fair sign times a Uniform[0, 1) magnitude.

    Path p is the n raw words of ``PCG64(seed)`` from word p * n on, one per
    coin, reached with ``advance`` alone; Ville reads paths 0, 1, ... as
    consecutive rows of the same stream (``_coin_blocks``).
    """
    n, seed = _integer(n, "n", 1, _MAX_COUNT), _integer(seed, "seed", 0)
    path = _integer(path, "path", 0)
    bit_generator = np.random.PCG64(seed)
    bit_generator.advance(path * n)  # the stream's period is 2**128, and advance wraps
    return _coins_from_words(bit_generator.random_raw(n))


def _coin_blocks(n: int, seed: int, paths: int, rows: int) -> Iterator[np.ndarray]:
    """Yield the coins of paths 0 .. paths - 1, ``rows`` at a time: row i of block k has
    the bits of ``mean_zero_coins(n, seed, k * rows + i)``.  One PCG64 made for this call
    is read in order, so concurrent calls cannot interleave draws."""
    bit_generator = np.random.PCG64(seed)
    for first in range(0, paths, rows):
        yield _coins_from_words(bit_generator.random_raw((min(rows, paths - first), n)))


def _coins_from_words(words: np.ndarray) -> np.ndarray:
    """The coins of raw 64-bit words, made in their memory: the magnitude (word >> 11) 2**-53
    that ``random()`` makes, negative where bit 0, which the magnitude does not read, is 0."""
    signs = ~words << np.uint64(63)
    words >>= np.uint64(11)
    coins = words.view(np.float64)
    np.multiply(words.view(np.int64), 2.0**-53, out=coins)  # below 2**53, so exact
    words |= signs
    return coins
