"""Distribution families consumed by the divergence and bound machinery.

A finite-support distribution is its exact log-weights; the weights are a
derived view.  The adversarial two-block constructions put mass like
exp(-d**1.5) on half of their atoms, which underflows float64 weights long
before the divergences built from the log-ratios become meaningless.  The
Gaussian mixture pair is the continuous wide-plus-narrow family whose KL
stays large while total variation shrinks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import _MAX_COUNT, ValidationError, _floats, _integer, _real

__all__ = [
    "DiscreteDistribution",
    "GaussianMixturePair",
    "make_discrete",
    "from_log_weights",
    "bernoulli_instance",
    "multivariate_instance",
    "gaussian_instance",
]

_SUM_TOL = 1e-12
_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Probability vector over a finite support, held as its log-weights.

    ``weights`` is the derived view ``exp(log_weights)``, computed on first
    access; it may underflow to 0.0 for extreme atoms while the log-weights
    stay exact.  Atoms with zero mass carry ``-inf``.  Instances are
    immutable and safe to share across threads.
    """

    log_weights: np.ndarray

    def __post_init__(self) -> None:
        lw = _floats(self.log_weights, "log_weights", high=math.inf, open_high=True, ndim=1).copy()
        _summing_to_one(np.exp(lw))
        lw.setflags(write=False)
        object.__setattr__(self, "log_weights", lw)

    @functools.cached_property
    def weights(self) -> np.ndarray:
        w = np.exp(self.log_weights)
        w.setflags(write=False)
        return w

    @property
    def support_size(self) -> int:
        return int(self.log_weights.size)


def _summing_to_one(w: np.ndarray) -> np.ndarray:
    """Weights ``w``, each row of which must sum to 1 within _SUM_TOL."""
    total = w.sum(axis=-1)
    off = np.abs(total - 1.0) > _SUM_TOL
    if off.any():
        got = float(total[off][0])
        raise ValidationError(f"weights must sum to 1 within {_SUM_TOL}, got {got!r}")
    return w


def make_discrete(weights) -> DiscreteDistribution:
    """Normalize a nonnegative weight vector into a DiscreteDistribution."""
    w = _floats(weights, "weights", 0.0, math.inf, open_high=True, ndim=1)
    with np.errstate(over="ignore"):
        if w.sum() == math.inf:  # finite weights whose sum overflows: scale by the largest
            w = w / w.max()
    total = float(w.sum())
    if total <= 0.0:
        raise ValidationError("weights must have positive total mass")
    w = w / total
    with np.errstate(divide="ignore"):
        lw = np.where(w > 0, np.log(np.where(w > 0, w, 1.0)), -np.inf)
    return DiscreteDistribution(lw)


def from_log_weights(log_weights) -> DiscreteDistribution:
    """Build a DiscreteDistribution from unnormalized log-weights.

    Normalization happens in log-space, so inputs may span thousands of
    orders of magnitude; ``-inf`` entries denote zero-mass atoms.
    """
    lw = _floats(log_weights, "log_weights", high=math.inf, open_high=True, ndim=1)
    return DiscreteDistribution(_normalized(lw))


def _normalized(lw: np.ndarray) -> np.ndarray:
    """Each row of log-weights minus its log-sum-exp, so that its weights sum to 1: first the
    row maximum, then the shifted row's log-sum-exp.  Subtracting the log-sum-exp at once would
    round at the scale of the log-weights, and near -1.5e5 their ulp is 3e-11.  No entry may be
    NaN or +inf: ``from_log_weights`` refuses both, and ``_gibbs_log_weights`` makes neither."""
    hi = lw.max(axis=-1, keepdims=True)
    if (hi == -np.inf).any():
        raise ValidationError("log_weights must have at least one finite entry")
    shifted = lw - hi
    return np.subtract(shifted, _logsumexp(shifted)[..., None], out=shifted)


def _logsumexp(x: np.ndarray) -> np.ndarray:
    """ln(sum(exp(x))) along the last axis as hi + ln(k) + log1p(rest / k), the k entries equal
    to the maximum hi split off from the rest (Blanchard, Higham & Higham 2021).  Each row gives
    the bits of a 1-d call on it."""
    hi = x.max(axis=-1, keepdims=True)
    top = x == hi
    k = top.sum(axis=-1)
    rest = np.subtract(x, hi, out=np.full_like(x, -np.inf), where=~top)  # exp(-inf) = 0 at top
    rest = np.exp(rest, out=rest).sum(axis=-1)
    return np.log1p(rest / k) + np.log(k) + hi[..., 0]


# ---------------------------------------------------------------------------
# Adversarial finite instances
# ---------------------------------------------------------------------------


def bernoulli_instance(p: float, ln_a: float) -> tuple[DiscreteDistribution, DiscreteDistribution]:
    """Two-point pair P = (p, 1-p) versus Q = (p/a, 1 - p/a), a given as ln(a).

    Total variation is exactly p*(1 - 1/a) while KL(P, Q) sits between
    p*ln(a) - 1/e and p*ln(a), so cranking ln(a) up separates the two at
    will.  ln(a) is taken (and stored) in log form because interesting
    settings like ln(a) = 1/p**2 make a itself unrepresentable.
    """
    p = _real(p, "p", 0.0, 1.0, open_low=True, open_high=True)
    ln_a = _real(ln_a, "ln_a", 0.0, math.inf, open_high=True)
    dist_p = from_log_weights([math.log(p), math.log1p(-p)])
    lq0 = math.log(p) - ln_a
    lq1 = math.log1p(-math.exp(lq0))
    return dist_p, DiscreteDistribution(np.array([lq0, lq1]))


def multivariate_instance(d: int, u: float) -> tuple[DiscreteDistribution, DiscreteDistribution]:
    """Two-block pair on d atoms with p = d**(-1-u) and ln(a) = d**(1.5*u).

    The first d/2 atoms carry weight p under P and p/a under Q; the last
    d/2 atoms share the leftover mass uniformly.  As d grows, KL scales
    like d**(u/2), total variation like d**(-u), and the c=1 ZCP divergence
    like d**(-u/4).
    """
    d = _integer(d, "d", 2, _MAX_COUNT)
    if d % 2 != 0:
        raise ValidationError("d must be an even integer >= 2")
    u = _real(u, "u", 0.0, math.inf, open_low=True, open_high=True)
    ln_a = _multivariate_ln_a(d, u)
    half = d // 2
    log_p = (-1.0 - u) * math.log(d)
    log_half_mass = math.log(half) + log_p  # ln(p * d/2) = -ln 2 - u ln d < 0
    lp_last = math.log1p(-math.exp(log_half_mass)) - math.log(half)
    lq_first = log_p - ln_a
    lq_last = math.log1p(-math.exp(log_half_mass - ln_a)) - math.log(half)

    lw_p = np.concatenate([np.full(half, log_p), np.full(half, lp_last)])
    lw_q = np.concatenate([np.full(half, lq_first), np.full(half, lq_last)])
    return DiscreteDistribution(lw_p), DiscreteDistribution(lw_q)


def _multivariate_ln_a(d: int, u: float) -> float:
    """ln(a) = d**(1.5*u) of the two-block pair, at least 1 for d >= 2 and u > 0."""
    try:
        return float(d) ** (1.5 * u)
    except OverflowError:
        raise ValidationError(f"ln(a) = d**(1.5*u) overflows at d = {d}, u = {u!r}") from None


# ---------------------------------------------------------------------------
# Gaussian mixture pair
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianMixturePair:
    """P = p*N(0, 1) + (1-p)*N(0, sigma2^2) against Q = N(0, sigma2^2).

    The pair is held on the standard scale: every divergence of it is an
    f-divergence, unchanged by a shift and rescaling of x, so a pair of any
    mean and wide scale has the divergences of (p, sigma2 / wide scale).
    Immutable value object; densities are evaluated in log-space so the
    ratio dP/dQ stays usable even when it spans thousands of e-folds.
    """

    sigma2: float
    p: float

    def __post_init__(self) -> None:
        sigma2 = _real(self.sigma2, "sigma2", 0.0, math.inf, open_low=True, open_high=True)
        object.__setattr__(self, "sigma2", sigma2)  # a float, as an int's square may overflow one
        _real(self.p, "p", 0.0, 1.0)

    def log_pdf_p(self, x):
        """Log-density of the mixture P at x (a number or an array)."""
        return self._log_pdfs(x)[0]

    def log_pdf_q(self, x):
        """Log-density of the reference component Q at x (a number or an array)."""
        z = np.asarray(x, dtype=float) / self.sigma2
        return -0.5 * z * z - math.log(self.sigma2) - 0.5 * _LOG_2PI

    def _log_pdfs(self, x):
        """(ln p, ln q, ln phi) at x, phi the N(0, 1) density, ln q computed once; ln p is the
        array ln q at p = 0 and ln phi at p = 1, and no caller may write into them."""
        x = np.asarray(x, dtype=float)
        lq = self.log_pdf_q(x)
        l1 = -0.5 * x * x - 0.5 * _LOG_2PI
        if self.p == 0.0:
            return lq, lq, l1
        if self.p == 1.0:
            return l1, lq, l1
        return np.logaddexp(math.log(self.p) + l1, math.log1p(-self.p) + lq), lq, l1


def gaussian_instance(p: float, exponent: float) -> GaussianMixturePair:
    """Mixture pair with sigma2 = p**exponent, exponent in {1, 0.75}.

    exponent 1 realizes TV*KL <= 1/2 with KL >= 1/(2p) - 1.3; exponent 0.75
    realizes KL*sqrt(TV) <= 1/2 with KL >= 1/(2 sqrt(p)) - 1.22.
    """
    p = _real(p, "p", 0.0, 1.0, open_low=True, open_high=True)
    exponent = _real(exponent, "exponent")
    if exponent not in (1.0, 0.75):
        raise ValidationError("exponent must be 1 or 0.75")
    return GaussianMixturePair(sigma2=p**exponent, p=p)
