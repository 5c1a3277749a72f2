"""Divergences between distribution pairs, exact and by quadrature.

The ZCP divergence of P against Q at scale c >= 0 is

    ZCP(P, Q; c) = integral |dP/dQ - 1| * sqrt(ln(1 + c^2 (dP/dQ - 1)^2)) dQ,

an f-divergence sitting between total variation (times a log factor) and
the Hellinger-type quantities: at c = 1 it is bounded by sqrt(8*TV*KL),
which is what makes it useful inside high-probability bounds.  For every
c >= 0 it is bounded by ZCP(P, Q; 1) + 2 sqrt(ln(1 + c^2)) TV
(``zcp_c_shift_upper_bound``) and by 2 sqrt(2 TV KL) + 2 sqrt(ln(1 + c^2)) TV
(``zcp_kl_tv_upper_bound``).  The older comparison values
``zcp_c_shift_bound`` and ``zcp_upper_bound_kl_tv`` carry a log constant
that is too small and dominate it for moderate c only.  Everything works
off log-weights / log-densities so that ratios like exp(d**1.5) never need
to exist as floats.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution, GaussianMixturePair, _logsumexp
from .errors import NumericalError, ValidationError, _real

__all__ = [
    "DivergenceKind",
    "DivergenceValue",
    "kl_discrete",
    "tv_discrete",
    "renyi_discrete",
    "zcp_discrete",
    "divergence_gaussian",
    "little_kl",
    "little_kl_inverse_upper",
    "zcp_upper_bound_kl_tv",
    "zcp_c_shift_bound",
    "zcp_c_shift_upper_bound",
    "zcp_kl_tv_upper_bound",
    "zcp1_upper_bound_kl_tv",
]


class DivergenceKind(enum.Enum):
    KL = "kl"
    TV = "tv"
    RENYI = "renyi"
    ZCP = "zcp"


@dataclass(frozen=True)
class DivergenceValue:
    """A divergence of a mixture pair and its absolute error estimate."""

    value: float
    abs_error: float


# ---------------------------------------------------------------------------
# Per-atom kernels: one array function per divergence formula, shared by the
# sums over atoms and the quadrature over nodes.  lp and lq are ln p and ln q.
# ---------------------------------------------------------------------------


def _log_abs_expm1(d: np.ndarray) -> np.ndarray:
    """ln|exp(d) - 1| elementwise for d in [-inf, +inf], never overflowing; -inf for the NaN d
    that lp - lq gives where p = q = 0."""
    with np.errstate(over="ignore", divide="ignore"):  # exp(d) past d = 709.78; ln 0 at d = 0
        out = np.expm1(d)
        np.fmax(np.log(np.abs(out, out=out), out=out), -np.inf, out=out)  # fmax(NaN, -inf) = -inf
    big = d > 700.0
    if big.any():  # where exp(d) - 1 may overflow: d + ln(1 - exp(-d))
        out[big] = d[big] + np.log1p(-np.exp(-d[big]))
    return out


def _log1p_sq(ln_t, c: float) -> np.ndarray:
    """ln(1 + (c*t)^2) elementwise given ln_t = ln(t), valid for arbitrarily large t."""
    ln_t = np.asarray(ln_t, dtype=float)
    if c == 0.0:
        return np.zeros_like(ln_t)
    with np.errstate(over="ignore"):  # 2 ln(ct) past the float range; exp(s2) where s2 > 700
        out = np.add(ln_t, math.log(c), out=np.empty_like(ln_t))  # an array, even for a 0-d ln_t
        out *= 2.0  # s2 = 2 ln(ct), then ln(1 + exp(s2)) in place
        big = out > 700.0
        s2 = out[big]
        np.log1p(np.exp(out, out=out), out=out)
    if s2.size:  # ct > 1e152 territory: 2 ln(ct) + ln(1 + (ct)^-2)
        out[big] = s2 + np.log1p(np.exp(-s2))
    return out


def _pair_logs(p: DiscreteDistribution, q: DiscreteDistribution) -> tuple[np.ndarray, np.ndarray]:
    if p.support_size != q.support_size:
        raise ValidationError(
            f"support sizes differ: {p.support_size} vs {q.support_size}"
        )
    return p.log_weights, q.log_weights


def _abs_diff_of_exps(lp: np.ndarray, lq: np.ndarray, d: np.ndarray) -> np.ndarray:
    """|exp(lp) - exp(lq)| per atom, exact when one side underflows, written over d = lp - lq."""
    np.expm1(np.negative(np.abs(d, out=d), out=d), out=d)
    np.fmax(d, -1.0, out=d)  # -1, not NaN, where p = q = 0: there d is NaN and exp(max) = 0
    top = np.maximum(lp, lq)
    d *= np.exp(top, out=top)  # exp(max) (exp(-|lp - lq|) - 1) = -|p - q|
    return np.negative(d, out=d)


def _kl_terms(lp: np.ndarray, lq: np.ndarray, p: np.ndarray) -> np.ndarray:
    """p ln(p/q) per atom, p = exp(lp); the atoms must have p > 0 and q > 0."""
    return p * (lp - lq)


def _zcp_terms(abs_diff: np.ndarray, ln_t: np.ndarray, c: float) -> np.ndarray:
    """q |r - 1| sqrt(ln(1 + c^2 (r - 1)^2)) per atom from |p - q| and ln|r - 1|, r = p/q."""
    root = _log1p_sq(ln_t, c)
    np.sqrt(root, out=root)
    wide = np.isinf(root) & np.isfinite(ln_t)  # there sqrt(ln(1 + (ct)^2)) = sqrt(2) sqrt(ln(ct))
    if wide.any():
        root[wide] = math.sqrt(2.0) * np.sqrt(math.log(c) + ln_t[wide])
    root *= abs_diff
    return root


# ---------------------------------------------------------------------------
# Exact divergences on finite support
# ---------------------------------------------------------------------------


def kl_discrete(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """KL(P, Q) = sum p_i ln(p_i / q_i); +inf when P is not dominated by Q."""
    return float(_kl_rows(*_pair_logs(p, q), p.weights))


def tv_discrete(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Total variation distance (1/2) sum |p_i - q_i|, always in [0, 1]."""
    return float(_tv_zcp_rows(*_pair_logs(p, q))[0])


def renyi_discrete(p: DiscreteDistribution, q: DiscreteDistribution, alpha: float) -> float:
    """Renyi divergence D_alpha(P, Q) for alpha > 0, alpha != 1.

    +inf when alpha > 1 and P is not dominated by Q; decreases to KL(P, Q)
    as alpha decreases to 1.
    """
    alpha = _real(alpha, "alpha", 0.0, math.inf, open_low=True, open_high=True)
    if alpha == 1.0:
        raise ValidationError("alpha = 1 is the KL limit; call kl_discrete")
    return float(_renyi_rows(*_pair_logs(p, q), alpha))


def zcp_discrete(p: DiscreteDistribution, q: DiscreteDistribution, c: float) -> float:
    """ZCP(P, Q; c) = sum q_i |r_i - 1| sqrt(ln(1 + c^2 (r_i - 1)^2)).

    +inf when some q_i = 0 < p_i and c > 0; identically 0 at c = 0.
    """
    c = _real(c, "c", 0.0, math.inf, open_high=True)
    return float(_tv_zcp_rows(*_pair_logs(p, q), c)[1])


# Row functions: a divergence of each row of lp against lq (broadcast together), summed along
# the last axis, for checked arguments; the coverage engine calls them on (trials, m) blocks.


def _undominated(lp: np.ndarray, lq: np.ndarray) -> np.ndarray:
    """Rows with an atom where p > 0 = q."""
    return ((lp > -np.inf) & (lq == -np.inf)).any(axis=-1)


def _atoms_in_use(used: np.ndarray, *arrays: np.ndarray):
    """``used`` and ``arrays`` without the atoms no row uses, which add zeros that regroup a
    row's pairwise sum, so that each row sums as a 1-d call on it; None when rows use different
    atoms.  ``compress`` keeps rows C-contiguous, as their sums need; ``a[..., keep]`` need not."""
    arrays = (used, *arrays)
    if used.all():
        return arrays
    keep = used.reshape(-1, used.shape[-1]).any(axis=0)
    return None if (used != keep).any() else tuple(a.compress(keep, axis=-1) for a in arrays)


def _kl_rows(lp: np.ndarray, lq: np.ndarray, p: np.ndarray) -> np.ndarray:
    if (in_use := _atoms_in_use(lp > -np.inf, lp, lq, p)) is None:  # each row sums alone
        return np.array([_kl_rows(*row) for row in zip(*np.broadcast_arrays(lp, lq, p))])
    infinite = _undominated(lp, lq)
    support, lp, lq, p = in_use
    with np.errstate(invalid="ignore"):
        terms = np.where(support, _kl_terms(lp, lq, p), 0.0)
    # KL >= 0, but rounding can put a value near 0 below it; + 0.0 turns -0.0 into +0.0
    return np.where(infinite, np.inf, np.maximum(terms.sum(axis=-1), 0.0) + 0.0)


_NEAR_ONE = 0.25  # |alpha - 1| below which _renyi_rows takes D from log1p and expm1


def _renyi_rows(lp: np.ndarray, lq: np.ndarray, alpha: float) -> np.ndarray:
    if (in_use := _atoms_in_use(~((lp == -np.inf) & (lq == -np.inf)), lp, lq)) is None:
        return np.array([_renyi_rows(*row, alpha) for row in zip(*np.broadcast_arrays(lp, lq))])
    infinite = (alpha > 1.0) & _undominated(lp, lq)
    active, lp, lq = in_use
    # over: alpha lp and (1 - alpha) lq; divide: log1p(-1) where P and Q are disjoint
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        terms = alpha * lp + (1.0 - alpha) * lq  # ln(p^alpha q^(1 - alpha))
        # a huge alpha can overflow a term, whose true value is lq + alpha (lp - lq); such a row
        # factors its largest d = lp - lq out: D = alpha/(alpha - 1) d_max + LSE(lq + alpha (d -
        # d_max))/(alpha - 1).  Every other row keeps its bits.
        wrong = active & (np.isnan(terms) | np.isinf(terms) & (lp > -np.inf) & (lq > -np.inf))
        np.copyto(terms, -np.inf, where=wrong | ~active)
        value = np.asarray(_logsumexp(terms) / (alpha - 1.0))
        redo = wrong.any(axis=-1) & ~infinite
        if redo.any():
            active, lp, lq = (a[redo] for a in np.broadcast_arrays(active, lp, lq))
            d = np.where(active, lp - lq, -np.inf)
            d_max = d.max(axis=-1, keepdims=True)
            value[redo] = (alpha / (alpha - 1.0) * d_max[..., 0]
                           + _logsumexp(lq + alpha * (d - d_max)) / (alpha - 1.0))
        if abs(alpha - 1.0) < _NEAR_ONE:
            # LSE's rounding over alpha - 1 swamps a D near 0 here; log1p(x) / (alpha - 1), x =
            # sum p expm1((alpha - 1)(lp - lq)) over p > 0, is 0 at P = Q and tends to KL.  LSE
            # stays where x nears -1 and cancels, or overflows.
            x = np.where(lp > -np.inf, np.exp(lp) * np.expm1((alpha - 1.0) * (lp - lq)), 0.0)
            x = x.sum(axis=-1)
            value = np.where((-0.5 < x) & (x < np.inf), np.log1p(x) / (alpha - 1.0), value)
        # D_alpha >= 0, but rounding can put a value near 0 below it; + 0.0 turns -0.0 into +0.0
        value = np.maximum(value, 0.0) + 0.0
    return np.where(infinite, np.inf, value)


def _tv_zcp_rows(lp: np.ndarray, lq: np.ndarray, *scales: float) -> tuple[np.ndarray, ...]:
    """TV of each row, then its ZCP at each of ``scales``, from one |p - q| and one ln|r - 1|."""
    with np.errstate(invalid="ignore"):  # -inf - -inf where p = q = 0
        d = lp - lq
    ln_t = _log_abs_expm1(d)
    abs_diff = _abs_diff_of_exps(lp, lq, d)
    infinite = _undominated(lp, lq)
    rows = [np.minimum((0.5 * abs_diff).sum(axis=-1), 1.0)]  # rounding can pass 1 on disjoint P, Q
    with np.errstate(invalid="ignore"):  # 0 * inf where an undominated p underflows to 0
        for c in scales:
            value = _zcp_terms(abs_diff, ln_t, c).sum(axis=-1)
            rows.append(np.where((c > 0.0) & infinite, np.inf, value))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Binary KL and its upper inverse
# ---------------------------------------------------------------------------
_TINY = sys.float_info.min  # the smallest normal float, read once for every _rel_entr call


def little_kl(p_hat: float, q: float) -> float:
    """kl(p_hat, q) between Bernoulli(p_hat) and Bernoulli(q).

    Conventions: 0 ln 0 = 0; +inf when p_hat > 0 = q or p_hat < 1 = q.
    """
    p_hat, q = _real(p_hat, "p_hat", 0.0, 1.0), _real(q, "q", 0.0, 1.0)
    return _rel_entr(p_hat, q) + _rel_entr(1.0 - p_hat, 1.0 - q)


def _rel_entr(x: float, y: float) -> float:
    """x ln(x/y) for x, y >= 0, with 0 ln(0/y) = 0 and x ln(x/0) = +inf; log1p keeps a small
    result accurate near x = y, and the logs are split once x/y leaves the normal range."""
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return math.inf
    ratio = x / y
    if 0.5 < ratio < 2.0:
        return x * math.log1p((x - y) / y)
    if _TINY < ratio < math.inf:
        return x * math.log(ratio)
    return x * (math.log(x) - math.log(y))


def little_kl_inverse_upper(p_hat: float, budget: float) -> float:
    """Largest q in [p_hat, 1] with kl(p_hat, q) <= budget.

    Closed forms at the edges (p_hat = 0 gives 1 - exp(-budget); p_hat = 1
    gives 1); otherwise bisection, run past the 1e-12 bracket width down to
    adjacent floats so the returned q also inverts kl to full precision.
    """
    p_hat = _real(p_hat, "p_hat", 0.0, 1.0)
    return _little_kl_inverse_upper(p_hat, _real(budget, "budget", 0.0, math.inf))


def _little_kl_inverse_upper(p_hat: float, budget: float) -> float:
    """``little_kl_inverse_upper`` for arguments already checked, as the coverage engine's are."""
    if budget == 0.0:
        return p_hat
    if p_hat == 1.0 or budget == math.inf:
        return 1.0
    if p_hat == 0.0:
        return min(1.0, -math.expm1(-budget))
    lo, hi = p_hat, 1.0  # kl(p_hat, lo) = 0 <= budget < kl(p_hat, hi) = +inf
    p_bar = 1.0 - p_hat
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return lo
        if _rel_entr(p_hat, mid) + _rel_entr(p_bar, 1.0 - mid) <= budget:  # kl(p_hat, mid)
            lo = mid
        else:
            hi = mid


def _above_kl_inverse(q: np.ndarray, p_hat: np.ndarray, budget: np.ndarray) -> np.ndarray:
    """``q > _little_kl_inverse_upper(p_hat, budget)`` entrywise, from one kl evaluation.

    K(x) = kl(p_hat, x) = t1 + t2 exactly, and S(x) = |t1| + |t2|, both increase on [p_hat, 1].
    The bisection's kl at any x, and the one computed here at q, are within 1e-13 S(x) + 5e-16
    of K(x) (a few ulps of S, and the roundings of 1 - p_hat and 1 - x).  With
    m = 1e-12 S(q) + 1e-15:
    - kl - m > budget: K - 1e-13 S exceeds budget + 5e-16 at q; it is 0 at p_hat, falls, then
      rises, so it rises on [q, 1].  The bisection rejects every midpoint >= q, so it ends below q.
    - kl + m <= budget: K + 1e-13 S + 5e-16 <= budget on [p_hat, q], so the bisection accepts
      every midpoint <= q; hi stays above q, and lo ends >= q as the loop stops only at adjacent
      floats.  If a float lies between lo and hi, so does the midpoint: with s the float after
      lo, fl(lo + the float after s) is 2s, so by monotone rounding the midpoint is at least s;
      likewise it is below hi.
    q <= p_hat reads kl = 0, never above.  The bisection decides entries inside the margin,
    p_hat in {0, 1}, budget in {0, inf} and a kl that is not finite.
    """
    d = np.maximum(q - p_hat, 0.0)
    with np.errstate(all="ignore"):  # at the edges, and where q = 1
        t1, t2 = -p_hat * np.log1p(d / p_hat), (1.0 - p_hat) * np.log1p(d / (1.0 - q))
        kl, margin = t1 + t2, 1e-12 * (t2 - t1) + 1e-15  # t1 <= 0 <= t2
        above, below = kl - margin > budget, kl + margin <= budget
    edge = (p_hat == 0.0) | (p_hat == 1.0) | (budget == 0.0) | (budget == math.inf)
    for i in np.flatnonzero(edge | ~np.isfinite(kl) | ~(above | below)).tolist():
        above[i] = q[i] > _little_kl_inverse_upper(float(p_hat[i]), float(budget[i]))
    return above


# ---------------------------------------------------------------------------
# Closed-form upper bounds linking ZCP to TV and KL
# ---------------------------------------------------------------------------


def zcp_upper_bound_kl_tv(kl: float, tv: float, c: float) -> float:
    """Reference value 2 sqrt(2 TV KL) + sqrt(2 ln(1+c)) TV.

    Dominates ZCP(P, Q; c) for moderate c (no violation found for c <= 10)
    but not for large c, where the sqrt(ln c) growth of the divergence is
    twice what this expression allows; tests/test_divergences.py pins a
    two-atom counterexample at c = 1e3.  ``zcp_kl_tv_upper_bound`` is the
    bound that holds for every c.
    """
    kl, tv, c = _check_chain_args(kl, tv, c)
    return 2.0 * math.sqrt(2.0 * tv * kl) + math.sqrt(2.0 * math.log1p(c)) * tv


def zcp_c_shift_bound(zcp_at_1: float, tv: float, c: float) -> float:
    """Reference value ZCP(P, Q; 1) + 2 sqrt(ln(2 + 2c)) TV.

    Dominates ZCP(P, Q; c) for moderate c but not for large c;
    tests/test_divergences.py pins a counterexample at c = 1e3.
    ``zcp_c_shift_upper_bound`` replaces the log constant by ln(1 + c^2) and
    holds for every c.
    """
    zcp_at_1 = _real(zcp_at_1, "zcp_at_1", 0.0, math.inf)
    _, tv, c = _check_chain_args(0.0, tv, c)
    return zcp_at_1 + 2.0 * math.sqrt(math.log(2.0 + 2.0 * c)) * tv


def zcp_c_shift_upper_bound(zcp_at_1: float, tv: float, c: float) -> float:
    """ZCP(P, Q; c) <= ZCP(P, Q; 1) + 2 sqrt(ln(1 + c^2)) TV for every c >= 0.

    Proof sketch, with x = |dP/dQ - 1|: for c >= 1, 1 + c^2 x^2 <=
    c^2 (1 + x^2); for c < 1, 1 + c^2 x^2 <= 1 + x^2.  Either way
    ln(1 + c^2 x^2) <= ln(1 + x^2) + ln(1 + c^2), and sqrt(a + b) <=
    sqrt(a) + sqrt(b).  Multiplying by x and integrating against Q gives
    ZCP(c) <= ZCP(1) + sqrt(ln(1 + c^2)) E_Q[x], and E_Q[x] = 2 TV.  The
    constant is sharp: for any pair with TV > 0 the ratio of ZCP(c) to
    this bound tends to 1 as c grows.  ln(1 + c^2) is taken in log space,
    so the value is finite for every finite c.
    """
    zcp_at_1 = _real(zcp_at_1, "zcp_at_1", 0.0, math.inf)
    _, tv, c = _check_chain_args(0.0, tv, c)
    return zcp_at_1 + 2.0 * math.sqrt(_log1p_sq(0.0, c)) * tv


def zcp_kl_tv_upper_bound(kl: float, tv: float, c: float) -> float:
    """ZCP(P, Q; c) <= 2 sqrt(2 TV KL) + 2 sqrt(ln(1 + c^2)) TV for every c >= 0.

    ``zcp_c_shift_upper_bound`` with ZCP(P, Q; 1) replaced by its upper
    bound sqrt(8 TV KL) = 2 sqrt(2 TV KL) (``zcp1_upper_bound_kl_tv``).
    """
    return zcp_c_shift_upper_bound(zcp1_upper_bound_kl_tv(kl, tv), tv, c)


def zcp1_upper_bound_kl_tv(kl: float, tv: float) -> float:
    """ZCP(P, Q; 1) <= sqrt(8 TV KL)."""
    kl, tv, _ = _check_chain_args(kl, tv, 0.0)
    return math.sqrt(8.0 * tv * kl)


def _check_chain_args(kl: float, tv: float, c: float) -> tuple[float, float, float]:
    kl, tv = _real(kl, "kl", 0.0, math.inf), _real(tv, "tv", 0.0, 1.0)
    if tv == 0.0 and kl == math.inf:
        # tv = 0 means P = Q, so kl = 0; sqrt(tv * kl) would be NaN
        raise ValidationError("kl = inf with tv = 0 is inconsistent: tv = 0 forces kl = 0")
    return kl, tv, _real(c, "c", 0.0, math.inf, open_high=True)


# ---------------------------------------------------------------------------
# Quadrature over Gaussian mixture pairs
# ---------------------------------------------------------------------------


# Half-width of the domain in units of the wider scale, and the relative part of the error target.
_HALF_WIDTH = 20.0
_REL_TOL = 1e-8
# Simpson steps per panel of the seed level, whose Simpson pairs start the refinement.
_ROUGH_STEPS = 32
# Intervals refined per integrand call; bounds memory when many refine at once.
_BATCH = 2048
# Integrand evaluations one integral may spend, as QUADPACK's ``limit``, past which it refuses:
# the benchmark integrals use at most about 2,050, a mixture weight of 1e-6 at most about 2,000.
_MAX_EVALUATIONS = 2**23


def _integrand(pair: GaussianMixturePair, kind: DivergenceKind, alpha, c):
    """The divergence's per-atom terms at an array of nodes."""

    def renyi(lp, lq, l1):
        # q (r^alpha - 1) with r - 1 = p expm1(ln phi - ln q), which does not cancel; ln r is
        # lp - lq where |r - 1| >= 1/2, as r - 1 may overflow, and q r^alpha - q is 0 * inf far out
        u = pair.p * np.expm1(l1 - lq)
        ln_r = np.log1p(u, out=lp - lq, where=np.abs(u) < 0.5)
        a, q = alpha * ln_r, np.exp(lq)
        return np.where(a > 30.0, np.exp(lq + a) - q, q * np.expm1(a))

    terms = {
        DivergenceKind.KL: lambda lp, lq, l1: _kl_terms(lp, lq, np.exp(lp)),
        DivergenceKind.ZCP: lambda lp, lq, l1: _zcp_terms(
            _abs_diff_of_exps(lp, lq, lp - lq), _log_abs_expm1(lp - lq), c),
        DivergenceKind.RENYI: renyi,
    }[kind]

    def integrand(x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # invalid: -inf - -inf where p = q = 0
            return terms(*pair._log_pdfs(x))

    return integrand


def _adaptive_simpson(f, seeds: np.ndarray, budget: float):
    """Adaptive Simpson from the seed intervals ``seeds``; returns (value, error).

    ``seeds`` holds the rows of k adjacent intervals (``_seed_intervals``).  The budget splits by
    subdivision: each seed gets tolerance budget / k, and both halves of an interval are refined
    at tol / 2 when their Simpson sum is more than 15 tol from its own; otherwise it is accepted
    and its Richardson-corrected sum counts.  A NaN difference is accepted: an inf node makes the
    difference inf where it first appears and NaN in the halves, so the value is not finite one
    level later.  Each test depends only on the interval itself, so the accepted intervals are
    those of the depth-first recursion from each seed; they are refined level by level instead.

    Each stack entry is a (7, k) array of k intervals of one depth, the seed rows, and their one
    tolerance; the seeds are the first entry.  A pop evaluates f once on both quarter points of
    every interval, and the refined intervals' children, left halves then right halves, go back
    in chunks of _BATCH columns, so a later call evaluates f on at most 2 * _BATCH nodes.  The
    chunks, the order of the pops and the grouping of every sum are those of one array per row,
    so the stacking changes no bit of the value or the error.
    """
    stack = [(seeds, budget / seeds.shape[1])]
    value = err = 0.0
    while stack:
        s, tol = stack.pop()
        lo, hi = s[0:2], s[1:3]  # (a, m) and (m, b): the left and right halves' ends
        quarters = 0.5 * (lo + hi)
        f_quarters = f(quarters.ravel()).reshape(2, -1)
        f_lo, f_hi = s[3:5], s[4:6]
        # the halves' Simpson sums (m - a)/6 (fa + 4 flm + fm) and (b - m)/6 (fm + 4 frm + fb)
        halves = (hi - lo) / 6.0 * (f_lo + 4.0 * f_quarters + f_hi)
        pair_sum = halves[0] + halves[1]
        delta = pair_sum - s[6]
        refine = np.abs(delta) > 15.0 * tol
        done = ~refine
        correction = delta[done] / 15.0
        value += float((pair_sum[done] + correction).sum())
        err += float(np.abs(correction).sum())
        if not refine.any():
            continue
        # children[:, 0] is each left half and children[:, 1] each right half, row for row as s
        children = np.stack([lo, quarters, hi, f_lo, f_quarters, f_hi, halves])
        children = children[:, :, refine].reshape(7, -1)
        for start in range(0, children.shape[1], _BATCH):
            stack.append((children[:, start : start + _BATCH], 0.5 * tol))
    return value, err


def _crossing(sigma2: float) -> float:
    """x* > 0 where N(0, 1) and N(0, sigma2^2 != 1) cross, found over t = min(sigma2, 1/sigma2)."""
    t = min(sigma2, 1.0 / sigma2)
    return min(1.0, sigma2) * math.sqrt(2.0 * abs(math.log(sigma2)) / (1.0 - t * t))


def _panel_edges(pair: GaussianMixturePair, *offsets: float) -> np.ndarray:
    """Breakpoints that always bracket the narrow component's spike, with one where P and Q
    cross and the nonnegative ``offsets``, over +/- the widest of them and _HALF_WIDTH times the
    wider scale."""
    multiples = (k * scale for scale in (pair.sigma2, 1.0) for k in (1.0, 2.0, 5.0, 10.0))
    offsets = {0.0, _HALF_WIDTH * max(1.0, pair.sigma2), *offsets, *multiples}
    if 0.0 < pair.p < 1.0 and pair.sigma2 != 1.0:
        offsets.add(_crossing(pair.sigma2))  # P - Q = p (N(0, 1) - Q) is 0 at +/- x*
    one_sided = sorted(offsets)
    return np.array([-o for o in reversed(one_sided[1:])] + one_sided)


def _seed_intervals(f, edges: np.ndarray) -> np.ndarray:
    """Rows a, m, b, f(a), f(m), f(b) and Simpson sum of the seed intervals, panel after panel:
    f once on _ROUGH_STEPS + 1 equal-spaced nodes per panel, (a, m, b) = nodes 2j, 2j+1, 2j+2."""
    x = np.linspace(edges[:-1], edges[1:], _ROUGH_STEPS + 1, axis=-1)
    a, m, b, fa, fm, fb = (v[:, j : j + _ROUGH_STEPS - 1 : 2] for v in (x, f(x)) for j in range(3))
    return np.stack([a, m, b, fa, fm, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb)]).reshape(7, -1)


def divergence_gaussian(
    pair: GaussianMixturePair,
    kind: DivergenceKind | str,
    *,
    alpha: float | None = None,
    c: float | None = None,
) -> DivergenceValue:
    """Divergence of a GaussianMixturePair: 0 when P = Q, TV in closed form with its rounding
    bound, and KL, ZCP (requires c >= 0) and RENYI (requires alpha > 0, alpha != 1) by adaptive
    Simpson over +/- _HALF_WIDTH times max(1, sigma2), from seed intervals that are the Simpson
    pairs of _ROUGH_STEPS + 1 equally spaced nodes per panel.  RENYI integrates J = integral
    q (r^alpha - 1), r = dP/dQ, out to its e^-70 edge where that is wider, and reports
    log1p(J)/(alpha - 1), +inf without integrating where (alpha - 1) - alpha sigma2^2 >= 0.
    Raises NumericalError when the integral would spend more than _MAX_EVALUATIONS integrand
    evaluations, when the seed sum or the integral is not finite, when the summed error estimate
    exceeds _REL_TOL * |integral| + 1e-12, or when J is within its error of -1.
    """
    try:
        kind = DivergenceKind(kind)
    except ValueError as exc:
        raise ValidationError(f"unknown divergence kind {kind!r}") from exc
    if kind is DivergenceKind.RENYI:
        alpha = _real(alpha, "alpha", 0.0, math.inf, open_low=True, open_high=True)
        if alpha == 1.0:
            raise ValidationError("RENYI requires alpha != 1 (the KL limit)")
    elif alpha is not None:
        raise ValidationError(f"alpha is only meaningful for RENYI, not {kind.value}")
    if kind is DivergenceKind.ZCP:
        c = _real(c, "c", 0.0, math.inf, open_high=True)
    elif c is not None:
        raise ValidationError(f"c is only meaningful for ZCP, not {kind.value}")

    if pair.p == 0.0 or pair.sigma2 == 1.0:  # P = Q
        return DivergenceValue(0.0, 0.0)
    if kind is DivergenceKind.TV:
        # TV = p |P1(|X| < x*) - Q(|X| < x*)|, stationary in x*; a rounded argument moves erf by at
        # most erf times its relative error, so ulps of p (ea + eb) bound the error of ea - eb
        a = _crossing(pair.sigma2) / math.sqrt(2.0)
        ea, eb = math.erf(a), math.erf(a / pair.sigma2)
        return DivergenceValue(pair.p * abs(ea - eb), 16.0 * math.ulp(pair.p * (ea + eb)))
    edges = ()
    if kind is DivergenceKind.RENYI:
        # past the spike's cliff the integrand is about (p phi)^alpha q^(1 - alpha) ~ exp(-spread
        # x^2 / (2 sigma2^2)): it diverges for spread <= 0, and is e^-70 phi(0) at this edge
        spread = alpha * (pair.sigma2 * pair.sigma2) + (1.0 - alpha)  # sigma2**2 could raise
        if spread <= 0.0:
            return DivergenceValue(math.inf, 0.0)
        log_peak = alpha * math.log(pair.p) + (alpha - 1.0) * math.log(pair.sigma2) + 70.0
        edges = (pair.sigma2 * math.sqrt(2.0 * max(log_peak, 0.0) / spread),)

    integrand = _integrand(pair, kind, alpha, c)
    spent = 0

    def f(x: np.ndarray) -> np.ndarray:
        nonlocal spent
        spent += x.size
        if spent > _MAX_EVALUATIONS:
            message = f"quadrature needs more than {_MAX_EVALUATIONS} integrand evaluations"
            raise NumericalError(message)
        return integrand(x)

    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN sum refuses below
        seeds = _seed_intervals(f, _panel_edges(pair, *edges))
        seed_sum = float(seeds[6].sum())
        if not math.isfinite(seed_sum):
            raise NumericalError("integrand overflows float64 on the truncated domain")
        budget = 0.5 * (_REL_TOL * abs(seed_sum) + 1e-12)
        value, err = _adaptive_simpson(f, seeds, budget)
    if not math.isfinite(value):
        raise NumericalError("integrand overflows float64 on the truncated domain")
    if err > _REL_TOL * abs(value) + 1e-12:
        raise NumericalError(
            f"quadrature error estimate {err:.3e} exceeds "
            f"rel_tol*|value| + 1e-12 = {_REL_TOL * abs(value) + 1e-12:.3e}"
        )

    if kind is DivergenceKind.RENYI:
        low = 1.0 + value - err  # log1p's slope over J +/- err is at most 1 / low
        if low <= 0.0:
            raise NumericalError(f"Renyi integral J = {value!r} is within its error of -1")
        value, err = math.log1p(value) / (alpha - 1.0), err / (abs(alpha - 1.0) * low)
    # every divergence is >= 0, but rounding can put a value near 0 below it; max gives +0.0
    return DivergenceValue(max(0.0, value), err)
