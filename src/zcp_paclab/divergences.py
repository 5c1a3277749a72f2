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
from .errors import NumericalError, ValidationError, _integer, _real

__all__ = [
    "DivergenceKind",
    "DivergenceValue",
    "QuadratureConfig",
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
    LITTLE_KL = "little_kl"


@dataclass(frozen=True)
class DivergenceValue:
    """A computed divergence plus the parameters that define it.

    ``abs_error`` is the quadrature error estimate (0 for exact discrete
    computations).
    """

    kind: DivergenceKind
    value: float
    alpha: float | None = None
    c: float | None = None
    abs_error: float = 0.0


@dataclass(frozen=True)
class QuadratureConfig:
    """Knobs for the adaptive Simpson integration over a mixture pair.

    The domain is [mu - half_width_in_sigma1 * sigma1, mu + ...]; the
    integrator targets an absolute error of rel_tol * |integral| + 1e-12
    and refuses to report a value it could not certify within
    ``max_subdivisions`` recursion levels and ``_MAX_EVALUATIONS`` integrand
    evaluations.
    """

    half_width_in_sigma1: float = 20.0
    rel_tol: float = 1e-8
    max_subdivisions: int = 60

    def __post_init__(self) -> None:
        _real(self.half_width_in_sigma1, "half_width_in_sigma1", 8.0, math.inf, open_high=True)
        _real(self.rel_tol, "rel_tol", 0.0, 1e-3, open_low=True)
        _integer(self.max_subdivisions, "max_subdivisions", 1)


# ---------------------------------------------------------------------------
# Per-atom kernels: one array function per divergence formula, shared by the
# sums over atoms and the quadrature over nodes.  lp and lq are ln p and ln q.
# ---------------------------------------------------------------------------


def _log_abs_expm1(d: np.ndarray) -> np.ndarray:
    """ln|exp(d) - 1| elementwise for d in [-inf, +inf], never overflowing."""
    out = np.full_like(d, -np.inf)
    pos_small = (d > 0.0) & (d <= 700.0)
    pos_big = d > 700.0
    neg = d < 0.0
    with np.errstate(divide="ignore"):
        out[pos_small] = np.log(np.expm1(d[pos_small]))
        out[neg] = np.log(-np.expm1(d[neg]))
    out[pos_big] = d[pos_big] + np.log1p(-np.exp(-d[pos_big]))
    return out


def _log1p_sq(ln_t, c: float) -> np.ndarray:
    """ln(1 + (c*t)^2) elementwise given ln_t = ln(t), valid for arbitrarily large t."""
    ln_t = np.asarray(ln_t, dtype=float)
    if c == 0.0:
        return np.zeros_like(ln_t)
    s2 = 2.0 * (math.log(c) + ln_t)
    out = np.empty_like(s2)
    small = s2 <= 700.0
    out[small] = np.log1p(np.exp(s2[small]))
    # ct > 1e152 territory: 2 ln(ct) + ln(1 + (ct)^-2)
    out[~small] = s2[~small] + np.log1p(np.exp(-s2[~small]))
    return out


def _pair_logs(p: DiscreteDistribution, q: DiscreteDistribution) -> tuple[np.ndarray, np.ndarray]:
    if p.support_size != q.support_size:
        raise ValidationError(
            f"support sizes differ: {p.support_size} vs {q.support_size}"
        )
    return p.log_weights, q.log_weights


def _abs_diff_of_exps(lp: np.ndarray, lq: np.ndarray) -> np.ndarray:
    """|exp(lp) - exp(lq)| per atom, exact even when one side underflows."""
    hi = np.maximum(lp, lq)
    both_zero = (lp == -np.inf) & (lq == -np.inf)
    with np.errstate(invalid="ignore"):  # -inf - -inf where both_zero
        gap = np.where(both_zero, np.inf, np.abs(lp - lq))
        return np.where(both_zero, 0.0, np.exp(hi) * (-np.expm1(-gap)))


def _kl_terms(lp: np.ndarray, lq: np.ndarray) -> np.ndarray:
    """p ln(p/q) per atom; the atoms must have p > 0 and q > 0."""
    return np.exp(lp) * (lp - lq)


def _tv_terms(lp: np.ndarray, lq: np.ndarray) -> np.ndarray:
    """|p - q| / 2 per atom."""
    return 0.5 * _abs_diff_of_exps(lp, lq)


def _renyi_log_terms(lp: np.ndarray, lq: np.ndarray, alpha: float) -> np.ndarray:
    """ln(p^alpha q^(1 - alpha)) per atom; the atoms must not have p = q = 0."""
    return alpha * lp + (1.0 - alpha) * lq


def _zcp_terms(lp: np.ndarray, lq: np.ndarray, c: float) -> np.ndarray:
    """q |r - 1| sqrt(ln(1 + c^2 (r - 1)^2)) per atom, r = p/q; no atom may have q = 0 < p."""
    both_zero = (lp == -np.inf) & (lq == -np.inf)
    ln_t = _log_abs_expm1(np.where(both_zero, 0.0, lp - lq))
    return _abs_diff_of_exps(lp, lq) * np.sqrt(_log1p_sq(ln_t, c))


# ---------------------------------------------------------------------------
# Exact divergences on finite support
# ---------------------------------------------------------------------------


def kl_discrete(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """KL(P, Q) = sum p_i ln(p_i / q_i); +inf when P is not dominated by Q."""
    return float(_kl_rows(*_pair_logs(p, q)))


def tv_discrete(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Total variation distance (1/2) sum |p_i - q_i|, always in [0, 1]."""
    return float(_tv_rows(*_pair_logs(p, q)))


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
    return float(_zcp_rows(*_pair_logs(p, q), c))


# Row functions: a divergence of each row of lp against lq (broadcast together), summed along
# the last axis, for checked arguments; the coverage engine calls them on (trials, m) blocks.


def _undominated(lp: np.ndarray, lq: np.ndarray) -> np.ndarray:
    """Rows with an atom where p > 0 = q."""
    return ((lp > -np.inf) & (lq == -np.inf)).any(axis=-1)


def _atoms_in_use(used: np.ndarray, lp: np.ndarray, lq: np.ndarray):
    """``used``, lp and lq without the atoms no row uses, which add zeros that regroup a row's
    pairwise sum: a row then sums as a 1-d call on it when all rows use the same atoms.
    ``compress`` keeps the rows C-contiguous, as their sums need; ``a[..., keep]`` need not."""
    keep = used.reshape(-1, used.shape[-1]).any(axis=0)
    arrays = (used, lp, lq)
    return arrays if keep.all() else tuple(a.compress(keep, axis=-1) for a in arrays)


def _kl_rows(lp: np.ndarray, lq: np.ndarray) -> np.ndarray:
    infinite = _undominated(lp, lq)
    support, lp, lq = _atoms_in_use(lp > -np.inf, lp, lq)
    with np.errstate(invalid="ignore"):
        terms = np.where(support, _kl_terms(lp, lq), 0.0)
    # KL >= 0, but rounding can put a value near 0 below it
    return np.where(infinite, np.inf, np.maximum(0.0, terms.sum(axis=-1)))


def _tv_rows(lp: np.ndarray, lq: np.ndarray) -> np.ndarray:
    return _tv_terms(lp, lq).sum(axis=-1)


def _renyi_rows(lp: np.ndarray, lq: np.ndarray, alpha: float) -> np.ndarray:
    infinite = (alpha > 1.0) & _undominated(lp, lq)
    active, lp, lq = _atoms_in_use(~((lp == -np.inf) & (lq == -np.inf)), lp, lq)
    with np.errstate(invalid="ignore"):
        log_sum = _logsumexp(np.where(active, _renyi_log_terms(lp, lq, alpha), -np.inf))
        # D_alpha >= 0, but rounding can put a value near 0 below it
        value = np.maximum(0.0, log_sum / (alpha - 1.0))
    return np.where(infinite, np.inf, value)


def _zcp_rows(lp: np.ndarray, lq: np.ndarray, c: float) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        value = _zcp_terms(lp, lq, c).sum(axis=-1)
    return np.where((c > 0.0) & _undominated(lp, lq), np.inf, value)


# ---------------------------------------------------------------------------
# Binary KL and its upper inverse
# ---------------------------------------------------------------------------


def little_kl(p_hat: float, q: float) -> float:
    """kl(p_hat, q) between Bernoulli(p_hat) and Bernoulli(q).

    Conventions: 0 ln 0 = 0; +inf when p_hat > 0 = q or p_hat < 1 = q.
    """
    return _little_kl(_real(p_hat, "p_hat", 0.0, 1.0), _real(q, "q", 0.0, 1.0))


def _little_kl(p_hat: float, q: float) -> float:
    """kl for arguments already checked, as inside the inverse's bisection."""
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
    if sys.float_info.min < ratio < math.inf:
        return x * math.log(ratio)
    return x * (math.log(x) - math.log(y))


def little_kl_inverse_upper(p_hat: float, budget: float) -> float:
    """Largest q in [p_hat, 1] with kl(p_hat, q) <= budget.

    Closed forms at the edges (p_hat = 0 gives 1 - exp(-budget); p_hat = 1
    gives 1); otherwise bisection, run past the 1e-12 bracket width down to
    adjacent floats so the returned q also inverts kl to full precision.
    """
    p_hat = _real(p_hat, "p_hat", 0.0, 1.0)
    budget = _real(budget, "budget", 0.0, math.inf)
    if budget == 0.0:
        return p_hat
    if p_hat == 1.0 or budget == math.inf:
        return 1.0
    if p_hat == 0.0:
        return min(1.0, -math.expm1(-budget))
    lo, hi = p_hat, 1.0  # kl(p_hat, lo) = 0 <= budget < kl(p_hat, hi) = +inf
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return lo
        if _little_kl(p_hat, mid) <= budget:
            lo = mid
        else:
            hi = mid


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


# Intervals refined per integrand call; bounds memory when many refine at once.
_BATCH = 2048
# Integrand evaluations one integral may spend, as QUADPACK's ``limit``: the
# benchmark integrals use at most about 3,000, a mixture weight of 1e-6 about a million.
_MAX_EVALUATIONS = 2**23


def _integrand(pair: GaussianMixturePair, kind: DivergenceKind, alpha, c):
    """The divergence's per-atom terms at an array of nodes; refuses a batch of nodes that would
    take the evaluations past ``_MAX_EVALUATIONS``."""
    terms = {
        DivergenceKind.KL: _kl_terms,
        DivergenceKind.TV: _tv_terms,
        DivergenceKind.ZCP: lambda lp, lq: _zcp_terms(lp, lq, c),
        DivergenceKind.RENYI: lambda lp, lq: np.exp(_renyi_log_terms(lp, lq, alpha)),
    }[kind]

    spent = 0

    def integrand(x: np.ndarray) -> np.ndarray:
        nonlocal spent
        spent += x.size
        if spent > _MAX_EVALUATIONS:
            message = f"quadrature needs more than {_MAX_EVALUATIONS} integrand evaluations"
            raise NumericalError(message + " (evaluation budget exhausted)")
        with np.errstate(over="ignore"):
            return terms(pair.log_pdf_p(x), pair.log_pdf_q(x))

    return integrand


def _adaptive_simpson(f, edges: np.ndarray, budget: float, max_depth: int):
    """Adaptive Simpson on every panel between ``edges``; returns (value, error, exhausted).

    A panel gets tolerance budget * width / total width.  An interval is
    accepted when its halves' Simpson sum is within 15 tol of its own (the
    Richardson-corrected sum counts), or when it is max_depth levels deep,
    which marks the result exhausted; otherwise both halves are refined at
    tol / 2.  Each test depends only on the interval itself, so the accepted
    intervals are those of the depth-first recursion; they are refined level
    by level instead, evaluating f on at most 2 * _BATCH nodes per call.
    """
    a, b = edges[:-1], edges[1:]
    m = 0.5 * (a + b)
    fe, fm = f(edges), f(m)
    fa, fb = fe[:-1], fe[1:]
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    tol = budget * (b - a) / (edges[-1] - edges[0])
    stack = [(a, m, b, fa, fm, fb, whole, tol, max_depth)]
    value = err = 0.0
    exhausted = False
    while stack:
        a, m, b, fa, fm, fb, whole, tol, depth = stack.pop()
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = np.split(f(np.concatenate([lm, rm])), 2)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        refine = ~(np.abs(delta) <= 15.0 * tol)
        if depth <= 0:
            exhausted = exhausted or bool(refine.any())
            refine[:] = False
        done = ~refine
        value += float(np.sum(left[done] + right[done] + delta[done] / 15.0))
        err += float(np.sum(np.abs(delta[done]) / 15.0))
        half_tol = 0.5 * tol
        children = ((a, m), (lm, rm), (m, b), (fa, fm), (flm, frm), (fm, fb), (left, right),
                    (half_tol, half_tol))
        halves = [np.concatenate([lo[refine], hi[refine]]) for lo, hi in children]
        for start in range(0, halves[0].size, _BATCH):
            stack.append((*(h[start : start + _BATCH] for h in halves), depth - 1))
    return value, err, exhausted


def _panel_edges(pair: GaussianMixturePair, half_width: float) -> np.ndarray:
    """Breakpoints that always bracket the narrow component's spike."""
    w = half_width * pair.sigma1
    offsets = {0.0, w}
    for scale in (pair.sigma2, pair.sigma1):
        for k in (1.0, 2.0, 5.0, 10.0):
            offsets.add(min(k * scale, w))
    one_sided = sorted(offsets)
    edges = [pair.mu - o for o in reversed(one_sided)] + [pair.mu + o for o in one_sided[1:]]
    return np.array(edges)


def _rough_composite(f, edges: np.ndarray, per_panel: int = 32) -> float:
    """Composite Simpson with per_panel steps on each panel, all nodes in one call."""
    ys = f(np.linspace(edges[:-1], edges[1:], per_panel + 1, axis=-1))
    h = np.diff(edges) / per_panel
    odd, even = ys[:, 1::2].sum(axis=1), ys[:, 2:-1:2].sum(axis=1)
    return float(np.sum(h / 3.0 * (ys[:, 0] + ys[:, -1] + 4.0 * odd + 2.0 * even)))


def divergence_gaussian(
    pair: GaussianMixturePair,
    kind: DivergenceKind | str,
    config: QuadratureConfig | None = None,
    *,
    alpha: float | None = None,
    c: float | None = None,
) -> DivergenceValue:
    """Divergence of a GaussianMixturePair by adaptive Simpson quadrature.

    Supports KL, TV, ZCP (requires c >= 0) and RENYI (requires alpha > 0,
    alpha != 1).  Integrates the defining integrand over mu +/-
    half_width_in_sigma1 * sigma1 with panel edges seeded at multiples of
    both component scales, so the narrow spike cannot be stepped over.
    RENYI is +inf, without integrating, when p > 0 and the integrand's tail
    exponent (alpha - 1)/(2 sigma2^2) - alpha/(2 sigma1^2) is >= 0.
    Raises NumericalError when the error estimate cannot be brought below
    rel_tol * |value| + 1e-12 within the subdivision and evaluation budgets.
    """
    config = config or QuadratureConfig()
    if isinstance(kind, str):
        try:
            kind = DivergenceKind(kind)
        except ValueError as exc:
            raise ValidationError(f"unknown divergence kind {kind!r}") from exc
    if kind is DivergenceKind.LITTLE_KL:
        raise ValidationError("little_kl is a scalar divergence; call little_kl directly")
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

    if kind is DivergenceKind.RENYI and pair.p > 0.0:
        # far out p^alpha q^(1 - alpha) ~ exp(tail * x^2), so tail >= 0 diverges
        tail = (alpha - 1.0) / (2.0 * pair.sigma2**2) - alpha / (2.0 * pair.sigma1**2)
        if tail >= 0.0:
            return DivergenceValue(kind, math.inf, alpha=alpha, abs_error=0.0)

    f = _integrand(pair, kind, alpha, c)
    edges = _panel_edges(pair, config.half_width_in_sigma1)
    rough = _rough_composite(f, edges)
    if not math.isfinite(rough):
        raise NumericalError("integrand overflows float64 on the truncated domain")
    budget = 0.5 * (config.rel_tol * abs(rough) + 1e-12)
    value, err, exhausted = _adaptive_simpson(f, edges, budget, config.max_subdivisions)
    if not math.isfinite(value):
        raise NumericalError("integrand overflows float64 on the truncated domain")
    if err > config.rel_tol * abs(value) + 1e-12:
        raise NumericalError(
            f"quadrature error estimate {err:.3e} exceeds "
            f"rel_tol*|value| + 1e-12 = {config.rel_tol * abs(value) + 1e-12:.3e}"
            + (" (subdivision budget exhausted)" if exhausted else "")
        )

    if kind is DivergenceKind.RENYI:
        if value <= 0.0:
            raise NumericalError("Renyi integral underflowed to a nonpositive value")
        renyi = math.log(value) / (alpha - 1.0)
        renyi_err = err / (abs(alpha - 1.0) * value)
        return DivergenceValue(kind, renyi, alpha=alpha, abs_error=renyi_err)
    return DivergenceValue(kind, value, alpha=alpha, c=c, abs_error=err)
