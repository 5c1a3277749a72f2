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
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _as_floats, _integer, _real

__all__ = [
    "DiscreteDistribution",
    "GaussianMixturePair",
    "make_discrete",
    "from_log_weights",
    "bernoulli_instance",
    "multivariate_instance",
    "gaussian_instance",
    "density_ratio_log",
    "to_json",
    "from_json",
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
        lw = _as_floats(self.log_weights, "log_weights").copy()
        if lw.ndim != 1 or lw.size < 1:
            raise ValidationError("log_weights must be a nonempty 1-d vector")
        if np.isnan(lw).any() or (lw == np.inf).any():
            raise ValidationError("log_weights must be < +inf and not NaN")
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
    w = _as_floats(weights, "weights")
    if w.ndim != 1 or w.size < 1:
        raise ValidationError("weights must be a nonempty 1-d vector")
    if np.isnan(w).any() or np.isinf(w).any() or (w < 0).any():
        raise ValidationError("weights must be finite and nonnegative")
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
    lw = _as_floats(log_weights, "log_weights")
    if lw.ndim != 1 or lw.size < 1:
        raise ValidationError("log_weights must be a nonempty 1-d vector")
    return DiscreteDistribution(_normalized(lw))


def _normalized(lw: np.ndarray) -> np.ndarray:
    """Each row of log-weights minus its log-sum-exp, so that its weights sum to 1."""
    if np.isnan(lw).any() or (lw == np.inf).any():
        raise ValidationError("log_weights must be < +inf and not NaN")
    log_total = _logsumexp(lw)
    if (log_total == -np.inf).any():
        raise ValidationError("log_weights must have at least one finite entry")
    return lw - log_total[..., None]


def _logsumexp(x: np.ndarray) -> np.ndarray:
    """ln(sum(exp(x))) along the last axis as hi + ln(k) + log1p(rest / k), the k entries equal
    to the maximum hi split off from the rest (Blanchard, Higham & Higham 2021).  Each row gives
    the bits of a 1-d call on it."""
    hi = x.max(axis=-1, keepdims=True)
    top = x == hi
    k = top.sum(axis=-1)
    with np.errstate(invalid="ignore"):  # -inf - -inf in a row of -inf, all of which is top
        rest = np.exp(np.where(top, -np.inf, x - hi)).sum(axis=-1)
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


def multivariate_instance(
    d: int, u: float, *, ln_a_override: float | None = None
) -> tuple[DiscreteDistribution, DiscreteDistribution]:
    """Two-block pair on d atoms with p = d**(-1-u) and ln(a) = d**(1.5*u).

    The first d/2 atoms carry weight p under P and p/a under Q; the last
    d/2 atoms share the leftover mass uniformly.  As d grows, KL scales
    like d**(u/2), total variation like d**(-u), and the c=1 ZCP divergence
    like d**(-u/4).  ``ln_a_override`` forces a different ln(a) (0 gives
    P = Q) for testing.
    """
    d = _integer(d, "d", 2)
    if d % 2 != 0:
        raise ValidationError("d must be an even integer >= 2")
    u = _real(u, "u", 0.0, math.inf, open_low=True, open_high=True)
    try:
        ln_a = float(d) ** (1.5 * u) if ln_a_override is None else ln_a_override
    except OverflowError:
        raise ValidationError(f"ln(a) = d**(1.5*u) overflows at d = {d}, u = {u!r}") from None
    ln_a = _real(ln_a, "ln_a_override", 0.0, math.inf, open_high=True)
    half = d // 2
    log_p = (-1.0 - u) * math.log(d)
    log_half_mass = math.log(half) + log_p  # ln(p * d/2) < 0
    if log_half_mass >= 0.0:
        raise ValidationError("first-block mass p*d/2 must be < 1")

    lp_last = math.log1p(-math.exp(log_half_mass)) - math.log(half)
    lq_first = log_p - ln_a
    lq_last = math.log1p(-math.exp(log_half_mass - ln_a)) - math.log(half)

    lw_p = np.concatenate([np.full(half, log_p), np.full(half, lp_last)])
    lw_q = np.concatenate([np.full(half, lq_first), np.full(half, lq_last)])
    return DiscreteDistribution(lw_p), DiscreteDistribution(lw_q)


# ---------------------------------------------------------------------------
# Gaussian mixture pair
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianMixturePair:
    """P = p*N(mu, sigma1^2) + (1-p)*N(mu, sigma2^2) against Q = N(mu, sigma2^2).

    Immutable value object; densities are evaluated in log-space so the
    ratio dP/dQ stays usable even when it spans thousands of e-folds.
    """

    mu: float
    sigma1: float
    sigma2: float
    p: float

    def __post_init__(self) -> None:
        for name, low in (("mu", -math.inf), ("sigma1", 0.0), ("sigma2", 0.0)):
            _real(getattr(self, name), name, low, math.inf, open_low=True, open_high=True)
        _real(self.p, "p", 0.0, 1.0)

    def log_pdf_p(self, x):
        """Log-density of the mixture P at x (a number or an array)."""
        l1 = _log_normal_pdf(x, self.mu, self.sigma1)
        l2 = _log_normal_pdf(x, self.mu, self.sigma2)
        if self.p == 0.0:
            return l2
        if self.p == 1.0:
            return l1
        return np.logaddexp(math.log(self.p) + l1, math.log1p(-self.p) + l2)

    def log_pdf_q(self, x):
        """Log-density of the reference component Q at x (a number or an array)."""
        return _log_normal_pdf(x, self.mu, self.sigma2)


def gaussian_instance(p: float, sigma1: float, exponent: float) -> GaussianMixturePair:
    """Mixture pair with sigma2 = sigma1 * p**exponent, exponent in {1, 0.75}.

    exponent 1 realizes TV*KL <= 1/2 with KL >= 1/(2p) - 1.3; exponent 0.75
    realizes KL*sqrt(TV) <= 1/2 with KL >= 1/(2 sqrt(p)) - 1.22.
    """
    p = _real(p, "p", 0.0, 1.0, open_low=True, open_high=True)
    sigma1 = _real(sigma1, "sigma1", 0.0, math.inf, open_low=True, open_high=True)
    exponent = _real(exponent, "exponent")
    if exponent not in (1.0, 0.75):
        raise ValidationError("exponent must be 1 or 0.75")
    return GaussianMixturePair(mu=0.0, sigma1=sigma1, sigma2=sigma1 * p**exponent, p=p)


def _log_normal_pdf(x, mu: float, sigma: float):
    z = (np.asarray(x, dtype=float) - mu) / sigma
    return -0.5 * z * z - math.log(sigma) - 0.5 * _LOG_2PI


def density_ratio_log(pair: GaussianMixturePair, x):
    """ln(dP/dQ)(x) for a GaussianMixturePair, stable over the whole real line.

    The difference of the two log-densities: in the far tail it grows like
    ln(p) + ln(sigma2/sigma1) + x^2 (1/(2 sigma2^2) - 1/(2 sigma1^2)) without
    ever forming the overflowing raw ratio.  ``x`` may be a number or an array.
    """
    x = _as_floats(x, "x")
    if not np.isfinite(x).all():
        raise ValidationError("x must be finite")
    return pair.log_pdf_p(x) - pair.log_pdf_q(x)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def to_json(dist: DiscreteDistribution | GaussianMixturePair) -> str:
    """Serialize a distribution to its interchange JSON form."""
    if isinstance(dist, DiscreteDistribution):
        payload = {
            "type": "discrete",
            "weights": [float(w) for w in dist.weights],
            # a zero-mass atom's -inf is written "-inf", as RFC 8259 has no infinity
            "log_weights": [float(lw) if lw > -math.inf else "-inf" for lw in dist.log_weights],
        }
    elif isinstance(dist, GaussianMixturePair):
        payload = {
            "type": "gaussian_mixture",
            "mu": dist.mu,
            "sigma1": dist.sigma1,
            "sigma2": dist.sigma2,
            "p": dist.p,
        }
    else:
        raise ValidationError(f"unsupported distribution type: {type(dist).__name__}")
    return json.dumps(payload)


def from_json(text: str) -> DiscreteDistribution | GaussianMixturePair:
    """Inverse of :func:`to_json`; raises ValidationError on malformed input."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed distribution JSON: {exc}") from exc
    if not isinstance(payload, dict) or "type" not in payload:
        raise ValidationError("distribution JSON must be an object with a 'type' field")
    kind = payload["type"]
    if kind == "discrete":
        if "weights" not in payload:
            raise ValidationError("discrete distribution JSON requires 'weights'")
        if "log_weights" not in payload:
            return make_discrete(payload["weights"])
        dist = DiscreteDistribution(payload["log_weights"])
        w = _as_floats(payload["weights"], "weights")
        if w.shape != dist.log_weights.shape or not (np.abs(w - dist.weights) <= _SUM_TOL).all():
            raise ValidationError("weights must equal exp(log_weights) atom by atom")
        return dist
    if kind == "gaussian_mixture":
        try:
            return GaussianMixturePair(
                **{name: _real(payload[name], name) for name in ("mu", "sigma1", "sigma2", "p")}
            )
        except KeyError as exc:
            raise ValidationError(f"gaussian_mixture JSON missing field {exc}") from exc
    raise ValidationError(f"unknown distribution type {kind!r}")
