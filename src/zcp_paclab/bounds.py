"""High-probability generalization bounds built on the ZCP divergence.

Two families: a Hoeffding-type bound on the posterior-averaged empirical
gap, driven by ZCP at scale sqrt(2n)/delta, and a log-wealth complexity
term Comp_n (ZCP at scale sqrt(2) n^2.5 / delta times a Renyi log factor)
that converts into empirical-Bernstein and binary-kl bounds.  Vacuous
bounds are reported as exactly 1 since all losses live in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .distributions import DiscreteDistribution
from .divergences import _little_kl_inverse_upper, _pair_logs, _renyi_rows, _tv_zcp_rows
from .errors import _MAX_COUNT, ValidationError, _floats, _integer, _real

__all__ = [
    "BoundConfig",
    "BoundReport",
    "BOUND_NAMES",
    "hoeffding_zcp_bound",
    "mcallester_baseline",
    "complexity_term",
    "empirical_bernstein_bound",
    "sample_variance_from_sums",
    "little_kl_mean_bound",
    "AsymptoticsCheck",
    "asymptotics_inequality_check",
    "fenchel_dual_bound",
    "CheckRow",
    "analytic_inequality_suite",
]

BOUND_NAMES = ("hoeffding_zcp", "mcallester", "emp_bernstein", "little_kl")


@dataclass(frozen=True)
class BoundConfig:
    """Sample size, failure budget and Renyi order shared by the bounds."""

    n: int
    delta: float
    alpha: float = 2.0

    def __post_init__(self) -> None:
        _integer(self.n, "n", 1, _MAX_COUNT)
        _real(self.delta, "delta", 0.0, 1.0, open_low=True, open_high=True)
        _real(self.alpha, "alpha", 1.0, math.inf, open_low=True, open_high=True)
        # Comp_n's constant overflows first: 2 e^2 sqrt(n) (1 + 4 n^2/delta) > thm2_c >= thm1_c
        if not math.isfinite(_complexity(0.0, 0.0, self)):
            raise ValidationError(f"delta={self.delta:g} is too small for n={self.n}")

    @property
    def thm1_c(self) -> float:
        """ZCP scale sqrt(2n)/delta used by the Hoeffding-type bound."""
        return math.sqrt(2.0 * self.n) / self.delta

    @property
    def thm2_c(self) -> float:
        """ZCP scale sqrt(2) n^2.5 / delta used by the complexity term."""
        return math.sqrt(2.0) * float(self.n) ** 2.5 / self.delta


def hoeffding_zcp_bound(d_zcp: float, config: BoundConfig) -> float:
    """Gap bound (sqrt(2) ZCP + 2 + sqrt(ln(2 sqrt(n)/delta))) / sqrt(n).

    Holds for the posterior-averaged empirical-minus-true gap with
    probability at least 1 - 2 delta when d_zcp is the posterior/prior
    ZCP divergence at scale sqrt(2n)/delta.  Capped at the vacuous 1.
    """
    return float(_hoeffding_zcp(_real(d_zcp, "d_zcp", 0.0, math.inf), config))


def mcallester_baseline(d_kl: float, config: BoundConfig) -> float:
    """Classical baseline sqrt((KL + ln(2 sqrt(n)/delta)) / (2n)), capped at 1."""
    return float(_mcallester(_real(d_kl, "d_kl", 0.0, math.inf), config))


def complexity_term(d_alpha: float, d_zcp: float, config: BoundConfig) -> float:
    """Comp_n: log-wealth budget combining Renyi and ZCP divergences.

    (1/sqrt(2)) sqrt(ln(4 n^2/delta) + alpha/(alpha-1) ln n + D_alpha) *
    ZCP(.; sqrt(2) n^2.5/delta) + ln(2 e^2 sqrt(n) (1 + 4 n^2/delta)) +
    delta/(n(n+1)).  Requires n >= 2.
    """
    d_alpha = _real(d_alpha, "d_alpha", 0.0, math.inf)
    d_zcp = _real(d_zcp, "d_zcp", 0.0, math.inf)
    _integer(config.n, "n", 2)
    return float(_complexity(d_alpha, d_zcp, config))


def empirical_bernstein_bound(comp: float, v_hat: float, n: int) -> float:
    """Variance-sensitive gap bound from the complexity term.

    sqrt(2 Comp V) / (sqrt(n) - 2 Comp/sqrt(n)) + 2 Comp / (n - 2 Comp),
    reported as the vacuous 1 whenever n <= 2 Comp.
    """
    comp = _real(comp, "comp", 0.0, math.inf)
    v_hat = _real(v_hat, "v_hat", 0.0, math.inf)
    n = _integer(n, "n", 2)
    return float(_empirical_bernstein(comp, v_hat, n))


# Array kernels of the four formulas above, elementwise over checked arguments; their scalar
# constants come from ``math``, so each entry has the bits of the scalar call.


def _hoeffding_zcp(d_zcp, config: BoundConfig):
    n, delta = config.n, config.delta
    root_log = math.sqrt(math.log(2.0 * math.sqrt(n) / delta))
    return np.minimum((math.sqrt(2.0) * d_zcp + 2.0 + root_log) / math.sqrt(n), 1.0)


def _mcallester(d_kl, config: BoundConfig):
    n, delta = config.n, config.delta
    return np.minimum(np.sqrt((d_kl + math.log(2.0 * math.sqrt(n) / delta)) / (2.0 * n)), 1.0)


def _complexity(d_alpha, d_zcp, config: BoundConfig):
    n, delta, alpha = map(float, (config.n, config.delta, config.alpha))  # no overflow warning
    log_sum = math.log(4.0 * n * n / delta) + alpha / (alpha - 1.0) * math.log(n) + d_alpha
    # log_sum may be +inf where d_zcp = 0, and main is 0 there
    main = math.sqrt(0.5) * np.sqrt(np.where(d_zcp == 0.0, 0.0, log_sum)) * d_zcp
    constant = math.log(2.0 * math.e**2 * math.sqrt(n) * (1.0 + 4.0 * n * n / delta))
    return main + constant + delta / (n * (n + 1.0))


def _empirical_bernstein(comp, v_hat, n: int):
    slack = n - 2.0 * np.asarray(comp)
    with np.errstate(divide="ignore", invalid="ignore"):  # where slack <= 0
        value = np.sqrt(2.0 * comp * v_hat) / (slack / math.sqrt(n)) + 2.0 * comp / slack
    return np.where(slack <= 0.0, 1.0, np.minimum(value, 1.0))


def sample_variance_from_sums(s1: np.ndarray, s2: np.ndarray, n: int) -> np.ndarray:
    """Per-atom unbiased sample variance (n S2 - S1^2) / (n (n - 1)).

    S1 and S2 are the per-atom sums of n losses and of their squares.
    Rounding residue below zero is clipped, so the result is never
    negative.
    """
    n = _integer(n, "n", 2)
    return _sample_variance(_floats(s1, "s1", 0.0, n), _floats(s2, "s2", 0.0, n), n)


def _sample_variance(s1: np.ndarray, s2: np.ndarray, n: int) -> np.ndarray:
    return np.maximum(n * s2 - s1 * s1, 0.0) / (n * (n - 1.0))


def little_kl_mean_bound(p_hat_mean: float, comp: float, n: int) -> float:
    """Upper bound on the posterior-averaged true mean via kl inversion.

    Inverts kl(p_hat_mean, .) <= Comp_n / n upward; exactly 1 when the
    budget is infinite or the inversion saturates.
    """
    p_hat_mean = _real(p_hat_mean, "p_hat_mean", 0.0, 1.0)
    comp = _real(comp, "comp", 0.0, math.inf)
    return _little_kl_inverse_upper(p_hat_mean, comp / _integer(n, "n", 2))


@dataclass(frozen=True)
class BoundReport:
    """Every divergence and bound evaluated for one (sample, posterior) pair."""

    d_kl: float
    d_tv: float
    d_alpha: float
    d_zcp_thm1: float
    d_zcp_thm2: float
    comp_n: float
    hoeffding_zcp: float
    mcallester: float
    emp_bernstein: float
    little_kl_bound: float
    realized_gap: float
    v_hat: float
    p_hat_mean: float
    p_mean: float

    def failures(self) -> dict[str, bool]:
        """Which bounds the realized quantities violate."""
        return _failures(**asdict(self), little_kl=self.p_mean > self.little_kl_bound)


def _failures(realized_gap, hoeffding_zcp, mcallester, emp_bernstein, little_kl, **_):
    """Bound name -> whether the realized quantities violate it; numbers or arrays, elementwise.
    ``little_kl`` is already the verdict p_mean > little_kl_bound, which the coverage engine
    takes from ``divergences._above_kl_inverse`` without the inversion."""
    return {
        "hoeffding_zcp": realized_gap > hoeffding_zcp,
        "mcallester": realized_gap > mcallester,
        "emp_bernstein": abs(realized_gap) > emp_bernstein,
        "little_kl": little_kl,
    }


# ---------------------------------------------------------------------------
# Asymptotic-regime surrogate
# ---------------------------------------------------------------------------


class AsymptoticsCheck(NamedTuple):
    b_over_l: float
    a_value: float
    holds: bool


def asymptotics_inequality_check(
    p: DiscreteDistribution, p0: DiscreteDistribution, n: int
) -> AsymptoticsCheck:
    """Check B_n / L(n) <= A_n for the log-wealth bound at delta = 1/n^2.

    B_n is the complexity term at delta = 1/n^2 and alpha_n = 1 + 1/ln(n);
    L(n) = sqrt(2 ln(n) ln(en) ln(2 + 2 sqrt(2) n^4.5)) is its dominating
    log factor; A_n = 2 + (2 + sqrt(D_alpha_n)) (ZCP(.;1) + TV).  Holds
    deterministically for every pair once n >= 25; vacuously true (inf vs
    inf) when P is not dominated by P0.
    """
    n = _integer(n, "n", 25)
    [(ratio, a_n)] = _asymptotics_rows(*_pair_logs(p, p0), (n,))
    ratio, a_n = float(ratio), float(a_n)
    return AsymptoticsCheck(ratio, a_n, ratio <= a_n)


def _asymptotics_rows(lp: np.ndarray, lq: np.ndarray, ns) -> list[tuple[np.ndarray, np.ndarray]]:
    """(B_n / L(n), A_n) of each row of lp against lq, for each n >= 25 of ``ns``.  One TV
    and ZCP(.; 1) serve every n.  Both are inf on an undominated row, as D_alpha and ZCP are."""
    configs = [BoundConfig(n, 1.0 / (float(n) * n), 1.0 + 1.0 / math.log(n)) for n in ns]
    tv, zcp1, *zcp2 = _tv_zcp_rows(lp, lq, 1.0, *(config.thm2_c for config in configs))
    rows = []
    for config, d_zcp in zip(configs, zcp2):
        log_n = math.log(config.n)
        log_tail = math.log(2.0 + 2.0 * math.sqrt(2.0) * float(config.n) ** 4.5)
        l_n = math.sqrt(2.0 * log_n * (log_n + 1.0) * log_tail)
        d_alpha = _renyi_rows(lp, lq, config.alpha)
        ratio = _complexity(d_alpha, d_zcp, config) / l_n
        a_n = 2.0 + (2.0 + np.sqrt(d_alpha)) * (zcp1 + tv)
        rows.append((ratio, a_n))
    return rows


# ---------------------------------------------------------------------------
# Analytic lemmas and their fuzz suite
# ---------------------------------------------------------------------------


def fenchel_dual_bound(a, b, y):
    """Upper bound |y| sqrt(a ln(1 + a y^2/b^2)) - b on the conjugate of
    F*(x) = b exp(x^2 / (2a)); numbers or arrays, elementwise."""
    a = _floats(a, "a", 0.0, math.inf, open_low=True, open_high=True)
    b = _floats(b, "b", 0.0, math.inf, open_low=True, open_high=True)
    y = _floats(y, "y", open_low=True, open_high=True)
    return np.abs(y) * np.sqrt(a * np.log1p(a * y * y / (b * b))) - b


def _gaussian_potential_conjugate(a, b, y):
    """Exact sup_x (x y - b exp(x^2/(2a))) via the Lambert W stationary point."""
    u = _lambert_w(np.asarray(a) * np.square(y) / np.square(b))
    return np.abs(y) * np.sqrt(np.asarray(a) * u) - np.asarray(b) * np.exp(0.5 * u)


def _lambert_w(z):
    """W(z), the w >= 0 with w e^w = z >= 0: 8 Halley steps from log1p(z) (Corless et al. 1996)."""
    w = np.log1p(z)
    for _ in range(8):
        ew = np.exp(w)
        f = w * ew - z
        w = w - f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
    return w


def _max_linear_log_barrier(a, b):
    """Exact max over beta in [-1, 1] of a beta + b (ln(1 - |beta|) + |beta|)."""
    mag = np.abs(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        interior = mag + b * np.log(b / (mag + b))
    return np.where(b > 0.0, np.where(mag + b > 0.0, interior, 0.0), mag)


@dataclass(frozen=True)
class CheckRow:
    """One fuzzed inequality: its smallest slack and how many draws violate it."""

    check: str
    worst_slack: float
    violations: int
    passed: bool


# A lemma's draw is violated when its slack is below -_LEMMA_TOLERANCE, which forgives rounding.
_LEMMA_TOLERANCE = 1e-9


def analytic_inequality_suite(trials: int = 100_000, seed: int = 0) -> list[CheckRow]:
    """Fuzz the three analytic lemmas the bound proofs lean on.

    1. ln(1 + beta x) >= beta x + (ln(1 - |beta|) + |beta|) x^2 on
       |x| <= 1, |beta| < 1.
    2. max_beta a beta + b (ln(1 - |beta|) + |beta|) >= a^2 / ((4/3)|a| + 2b).
    3. The Fenchel conjugate of b exp(x^2/(2a)) is at most
       |y| sqrt(a ln(1 + a y^2 / b^2)) - b.

    Slack is bound minus quantity it must dominate (nonnegative when the
    lemma holds); a violation is slack < -_LEMMA_TOLERANCE.  One CheckRow per
    lemma, passed when it has no violation.
    """
    trials = _integer(trials, "trials", 1, _MAX_COUNT)
    rng = np.random.default_rng(_integer(seed, "seed", 0))

    beta = rng.uniform(-1.0, 1.0, trials)
    x = rng.uniform(-1.0, 1.0, trials)
    fan_slack = np.log1p(beta * x) - (beta * x + (np.log1p(-np.abs(beta)) + np.abs(beta)) * x * x)

    a = rng.normal(0.0, 5.0, trials)
    b = rng.uniform(0.0, 10.0, trials)
    a[:: max(trials // 100, 1)] = 0.0
    b[1 :: max(trials // 100, 1)] = 0.0
    denom = (4.0 / 3.0) * np.abs(a) + 2.0 * b
    rhs = np.where(denom > 0.0, a * a / np.where(denom > 0.0, denom, 1.0), 0.0)
    barrier_slack = _max_linear_log_barrier(a, b) - rhs

    fa = rng.uniform(0.1, 5.0, trials)
    fb = rng.uniform(0.1, 5.0, trials)
    fy = rng.uniform(-10.0, 10.0, trials)
    fy[:: max(trials // 100, 1)] = 0.0
    fenchel_slack = fenchel_dual_bound(fa, fb, fy) - _gaussian_potential_conjugate(fa, fb, fy)

    rows = []
    for name, slack in (
        ("fan_log_quadratic", fan_slack),
        ("max_linear_log_barrier", barrier_slack),
        ("fenchel_dual", fenchel_slack),
    ):
        violations = int((slack < -_LEMMA_TOLERANCE).sum())
        rows.append(CheckRow(name, float(slack.min()), violations, violations == 0))
    return rows
