"""Coin-betting wealth processes on [-1, 1]-valued coin sequences.

A bettor observes coins c_1..c_n and stakes a predictable fraction beta_t
of its wealth each round: W_t = W_{t-1} (1 + beta_t c_t), W_0 = 1.  The
best fixed fraction in hindsight defines W*_n = max_beta prod(1 + beta
c_t); the Krichevsky-Trofimov bettor (beta_t = running coin mean) tracks
it within a multiplicative 2 sqrt(n).  All wealth arithmetic is done in
log-space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

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
    """n coins from ``default_rng((seed, path))``: a fair sign times a Uniform[0, 1) magnitude.

    The bits are those of ``integers(0, 2, n) * 2 - 1`` times ``random(n)``
    from that generator, drawn by ``_coin_blocks`` as Ville draws its paths.
    Ville and the coverage trials get their generators from one seeding
    helper, ``_seeded_generators``.
    """
    n, seed, path = _integer(n, "n", 1), _integer(seed, "seed", 0), _integer(path, "path", 0)
    return next(_coin_blocks(n, seed, [path], 1))[0]


# NumPy's SeedSequence, whose streams NEP 19 keeps stable.  Each hashmix of
# the entropy mixer reads a hash constant and multiplies it by _MULT_A, and
# generate_state runs a chain of its own.  The chains do not depend on the
# data, so they are precomputed as columns, and one array operation runs a
# row of consecutive hashmixes.  uint32 constants keep every result uint32
# under both numpy 1.x value-based casting and NEP 50 promotion.
_POOL = 4  # the entropy pool, in uint32 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_SIGN_BIT = np.uint64(1 << 63)
# Streams seeded at once: the array arithmetic costs a few dozen numpy calls
# whatever the count, and per stream about 2 us of Python-int work.
_SEEDING_PATHS = 512


def _hash_chain(init: int, mult: int, count: int) -> np.ndarray:
    """(count, 1) uint32 column of init * mult**k mod 2**32, k = 0 .. count - 1."""
    values = [init]
    while len(values) < count:
        values.append(values[-1] * mult & 0xFFFFFFFF)
    return np.array(values, dtype=np.uint32)[:, None]


# the pool's 16 hashmixes when the entropy fits it, and generate_state(4, uint64)'s 8 words
_HASH_A = _hash_chain(_INIT_A, _MULT_A, 4 * _POOL + 1)
_HASH_B = _hash_chain(0x8B51F9DD, 0x58F38DED, 2 * _POOL + 1)


def _hashmix(values: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """len(chain) - 1 consecutive hashmixes, one per row, from the chain's constants."""
    values = (values ^ chain[:-1]) * chain[1:]
    return values ^ values >> _SHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_L * x - _MIX_R * y
    return out ^ out >> _SHIFT


def _uint32_words(value: int) -> list[int]:
    """The little-endian uint32 words SeedSequence reads from a nonnegative int (0 is one word)."""
    words = [value & 0xFFFFFFFF]
    while value := value >> 32:
        words.append(value & 0xFFFFFFFF)
    return words


def _pcg64_states(seed: int, paths) -> list[tuple[int, int]]:
    """(state, inc) of ``PCG64(SeedSequence((seed, p)))`` for each p of paths.

    SeedSequence's entropy mixing and ``generate_state(4, uint64)`` run as
    uint32 array arithmetic over all paths at once.  PCG64 then takes
    initstate and initseq from the four state words, high word first, and
    steps its 128-bit LCG twice from state 0, in Python ints.
    """
    head = _uint32_words(seed)
    rows = [head + _uint32_words(path) for path in paths]
    lengths = np.array([len(row) for row in rows])
    width = max(_POOL, int(lengths.max()))
    entropy = np.array([row + [0] * (width - len(row)) for row in rows], dtype=np.uint32).T
    # each entropy word past the pool adds 4 hashmixes, after the pool's 16
    chain = _HASH_A if width == _POOL else _hash_chain(_INIT_A, _MULT_A, 4 * width + 1)
    pool = _hashmix(entropy[:_POOL], chain[: _POOL + 1])
    for src in range(_POOL):  # every other pool word takes a hashmix of this one
        others, k = [dst for dst in range(_POOL) if dst != src], _POOL + (_POOL - 1) * src
        pool[others] = _mix(pool[others], _hashmix(pool[src], chain[k : k + _POOL]))
    for word in range(_POOL, width):  # only the rows whose entropy has this word mix it in
        k = _POOL * word
        mixed = _mix(pool, _hashmix(entropy[word], chain[k : k + _POOL + 1]))
        pool = np.where(lengths > word, mixed, pool)
    words = _hashmix(pool[np.arange(2 * _POOL) % _POOL], _HASH_B).astype(np.uint64)
    state_words = (words[0::2] | words[1::2] << np.uint64(32)).tolist()  # little-endian pairs
    states = []
    for high, low, seq_high, seq_low in zip(*state_words):
        inc = ((seq_high << 64 | seq_low) << 1 | 1) & _MASK128
        states.append((((inc + (high << 64 | low)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def _seeded_generators(seed: int, indices) -> Iterator[np.random.Generator]:
    """Yield, for each index i of ``indices`` in order, a generator that draws what
    ``default_rng((seed, i))`` draws until the next is yielded: one Generator over one
    PCG64, both made for this call so that concurrent calls cannot interleave draws, set
    to the state of ``PCG64(SeedSequence((seed, i)))`` with no buffered 32-bit half (the
    Generator's binomial constants depend on (n, p) alone).  Up to _SEEDING_PATHS indices
    are seeded at once."""
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    template = bit_generator.state
    for first in range(0, len(indices), _SEEDING_PATHS):
        for state, inc in _pcg64_states(seed, indices[first : first + _SEEDING_PATHS]):
            template["state"] = {"state": state, "inc": inc}
            bit_generator.state = template
            yield generator


def _coin_blocks(n: int, seed: int, paths, rows: int) -> Iterator[np.ndarray]:
    """Yield the coins of paths, ``rows`` at a time: row i of block k has the
    bits of ``mean_zero_coins(n, seed, paths[k * rows + i])``.

    Each path's generator (``_seeded_generators``) gives ceil(n/2) raw words
    for the signs and then n for the magnitudes.
    """
    generators = _seeded_generators(seed, paths)
    for first in range(0, len(paths), rows):
        count = min(rows, len(paths) - first)
        signs = np.empty((count, (n + 1) // 2), dtype=np.uint64)
        coins = np.empty((count, n))
        magnitudes = coins.view(np.uint64)
        for i, generator in enumerate(itertools.islice(generators, count)):
            signs[i] = generator.bit_generator.random_raw(signs.shape[1])
            magnitudes[i] = generator.bit_generator.random_raw(n)
        _coins_from_words(signs, coins)
        yield coins


def _coins_from_words(signs: np.ndarray, coins: np.ndarray) -> None:
    """Turn each row of coins, which holds raw words, into what
    ``integers(0, 2, n) * 2 - 1`` times ``random(n)`` makes of the words
    drawn after the sign words of the same row of signs.

    ``integers(0, 2)`` is Lemire's method with range 2, which never rejects:
    it returns bit 31 of a 32-bit draw, and PCG64 serves the low then the
    high half of each word, so the signs come from bits 31 and 63 of the
    sign words.  ``random()`` takes (word >> 11) 2**-53 from each word.  A
    sign times a magnitude differs from the magnitude only in the sign bit,
    set where the drawn bit is 0 (a zero magnitude included).  Both arrays
    are overwritten.
    """
    bits = coins.view(np.uint64)
    bits >>= np.uint64(11)
    np.multiply(bits.view(np.int64), 2.0**-53, out=coins)  # below 2**53, so exact
    np.invert(signs, out=signs)
    bits[:, 1::2] |= (signs & _SIGN_BIT)[:, : coins.shape[1] // 2]  # bit 63: the high half's
    signs <<= np.uint64(32)  # bit 31: the low half's
    signs &= _SIGN_BIT
    bits[:, 0::2] |= signs
