"""Monte Carlo verification harness for the bounds.

A LearningInstance is a finite hypothesis grid (atom j sits at t = j/m)
with a bounded loss, a prior, and a posterior rule (data-independent or
Gibbs).  The harness draws i.i.d. samples, evaluates every bound on the
realized (sample, posterior) pair, and PASSes a bound when the one-sided
99% Wilson upper confidence bound on its failure frequency stays within
the theoretical budget.  Trials draw from generators seeded by
(master_seed, trial_index), so runs are reproducible and trials are
independent of execution order.
"""

from __future__ import annotations

import enum
import logging
import math
import statistics
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .betting import kt_log_wealth, mean_zero_coins
from .bounds import (
    BOUND_NAMES,
    BoundConfig,
    BoundReport,
    _complexity,
    _empirical_bernstein,
    _failures,
    _hoeffding_zcp,
    _mcallester,
    hoeffding_zcp_bound,
    little_kl_mean_bound,
    mcallester_baseline,
    sample_variance_from_sums,
)
from .distributions import (
    DiscreteDistribution,
    _normalized,
    _summing_to_one,
    gaussian_instance,
    make_discrete,
    multivariate_instance,
)
from .divergences import (
    DivergenceKind,
    QuadratureConfig,
    _kl_rows,
    _renyi_rows,
    _tv_rows,
    _zcp_rows,
    divergence_gaussian,
    kl_discrete,
    tv_discrete,
    zcp_discrete,
)
from .errors import ValidationError, _as_floats, _integer, _real

__all__ = [
    "LossKind",
    "FixedPosterior",
    "GibbsPosterior",
    "LearningInstance",
    "learning_instance_from_dict",
    "CoverageReport",
    "coverage_reports",
    "run_coverage",
    "wilson_upper",
    "ScalingRow",
    "ScalingTable",
    "divergence_scaling_table",
    "GaussianCheckRow",
    "gaussian_instance_check",
    "VilleRow",
    "ville_experiment",
    "TightnessRow",
    "tightness_comparison",
]

_MAX_ATOMS = 10_000

logger = logging.getLogger(__name__)


class LossKind(enum.Enum):
    ABS_DISTANCE = "abs"
    BERNOULLI = "bernoulli"


@dataclass(frozen=True)
class FixedPosterior:
    """Data-independent posterior: always return the given distribution."""

    distribution: DiscreteDistribution


@dataclass(frozen=True)
class GibbsPosterior:
    """Posterior proportional to prior * exp(-eta * n * empirical_mean)."""

    eta: float

    def __post_init__(self) -> None:
        _real(self.eta, "eta", 0.0, math.inf, open_high=True)


@dataclass(frozen=True)
class LearningInstance:
    """Finite-grid learning problem with losses in [0, 1].

    ABS_DISTANCE: one shared uniform sample X_i in [0, 1], loss
    |j/m - X_i| with exact true mean (j/m)^2 - j/m + 1/2.  BERNOULLI: atom
    j observes its own Bernoulli(bernoulli_means[j]) coordinate of the
    sample vector, the loss being the observed bit.
    """

    theta_count: int
    prior: DiscreteDistribution
    loss_kind: LossKind
    posterior_rule: FixedPosterior | GibbsPosterior
    bernoulli_means: np.ndarray | None = None

    def __post_init__(self) -> None:
        m = _integer(self.theta_count, "theta_count", 1, _MAX_ATOMS)
        if self.prior.support_size != m:
            raise ValidationError("prior support must equal theta_count")
        if isinstance(self.posterior_rule, FixedPosterior):
            if self.posterior_rule.distribution.support_size != m:
                raise ValidationError("fixed posterior support must equal theta_count")
        elif not isinstance(self.posterior_rule, GibbsPosterior):
            raise ValidationError("posterior_rule must be FixedPosterior or GibbsPosterior")
        if self.loss_kind is LossKind.BERNOULLI:
            means = self.bernoulli_means
            if means is None:
                means = np.linspace(0.1, 0.9, m)
            means = _as_floats(means, "bernoulli_means").copy()
            if means.shape != (m,) or np.isnan(means).any() or (means < 0).any() or (means > 1).any():
                raise ValidationError("bernoulli_means must be m values in [0, 1]")
            means.setflags(write=False)
            object.__setattr__(self, "bernoulli_means", means)
        elif self.bernoulli_means is not None:
            raise ValidationError("bernoulli_means only applies to BERNOULLI losses")

    @property
    def atom_positions(self) -> np.ndarray:
        return np.arange(self.theta_count) / self.theta_count

    def true_means(self) -> np.ndarray:
        """Exact per-atom expected loss."""
        if self.loss_kind is LossKind.ABS_DISTANCE:
            t = self.atom_positions
            return t * t - t + 0.5
        return self.bernoulli_means

    def draw_losses(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """(n, m) loss matrix for one i.i.d. sample of size n.

        Coverage trials use ``loss_sums`` instead; this matrix is the
        reference its sums are tested against.
        """
        n = _integer(n, "n", 1)
        if self.loss_kind is LossKind.ABS_DISTANCE:
            x = rng.random(n)
            return np.abs(self.atom_positions[None, :] - x[:, None])
        return (rng.random((n, self.theta_count)) < self.bernoulli_means[None, :]).astype(float)

    def loss_sums(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Per-atom sums (S1, S2) of the losses and squared losses of one
        i.i.d. sample of size n, without building the (n, m) loss matrix.

        ABS_DISTANCE makes the same draw as ``draw_losses`` and sorts it:
        with prefix sums C of the sorted sample and k = #{X_i < t_j},
        S1_j = t_j k - C[k] + (C[n] - C[k]) - t_j (n - k)
        = t_j (2k - n) + C[n] - 2 C[k] and
        S2_j = n t_j^2 - 2 t_j sum X + sum X^2, in O(n log n + m log n).
        BERNOULLI draws the per-atom counts as Binomial(n, mean_j), which
        has the law of ``draw_losses`` column sums but not its random
        stream; bits square to themselves, so S2 = S1, in O(m).  S1 is
        clipped to [0, n] and S2 to [0, S1], so rounding never pushes a
        mean out of [0, 1].
        """
        n = _integer(n, "n", 1)
        if self.loss_kind is LossKind.BERNOULLI:
            counts = rng.binomial(n, self.bernoulli_means).astype(float)
            return counts, counts
        x = np.sort(rng.random(n))
        prefix = np.concatenate(([0.0], np.cumsum(x)))
        t = self.atom_positions
        k = np.searchsorted(x, t)
        total = prefix[-1]
        s1 = np.clip(t * (2 * k - n) + total - 2.0 * prefix[k], 0.0, n)
        s2 = n * t * t - 2.0 * t * total + float(x @ x)
        return s1, np.clip(s2, 0.0, s1)

    def posterior(self, empirical_means: np.ndarray, n: int) -> DiscreteDistribution:
        """Posterior for one realized sample (empirical means, sample size)."""
        if isinstance(self.posterior_rule, FixedPosterior):
            return self.posterior_rule.distribution
        if self.posterior_rule.eta == 0.0:
            return self.prior
        mu_hat = _as_floats(empirical_means, "empirical_means")
        if mu_hat.shape != (self.theta_count,):
            raise ValidationError("empirical_means must have one entry per atom")
        return DiscreteDistribution(self._gibbs_log_weights(mu_hat, _integer(n, "n", 1)))

    def _gibbs_log_weights(self, mu_hat: np.ndarray, n: int) -> np.ndarray:
        """Normalized Gibbs posterior log-weights for each row of empirical means."""
        return _normalized(self.prior.log_weights - self.posterior_rule.eta * n * mu_hat)


def learning_instance_from_dict(payload: dict) -> LearningInstance:
    """Build a LearningInstance from its JSON-config form.

    Keys: m (int), loss ("abs" | "bernoulli"), posterior ("gibbs" |
    "fixed"), eta (gibbs), prior / fixed_weights (optional weight lists,
    uniform by default), bernoulli_means (optional).
    """
    if not isinstance(payload, dict):
        raise ValidationError("instance config must be a JSON object")
    if "m" not in payload:
        raise ValidationError("instance config requires an integer 'm'")
    m = _integer(payload["m"], "m", 1, _MAX_ATOMS)
    loss_name = payload.get("loss", "abs")
    try:
        loss = LossKind(loss_name)
    except ValueError:
        raise ValidationError(f"unknown loss kind {loss_name!r}") from None
    prior = make_discrete(payload["prior"]) if "prior" in payload else make_discrete(np.ones(m))
    rule_name = payload.get("posterior", "gibbs")
    if rule_name == "gibbs":
        rule: FixedPosterior | GibbsPosterior = GibbsPosterior(payload.get("eta", 1.0))
    elif rule_name == "fixed":
        weights = payload.get("fixed_weights")
        rule = FixedPosterior(make_discrete(weights) if weights is not None else prior)
    else:
        raise ValidationError(f"unknown posterior rule {rule_name!r}")
    return LearningInstance(
        theta_count=m,
        prior=prior,
        loss_kind=loss,
        posterior_rule=rule,
        bernoulli_means=payload.get("bernoulli_means"),
    )


# ---------------------------------------------------------------------------
# Coverage Monte Carlo
# ---------------------------------------------------------------------------


def wilson_upper(failures: int, trials: int, confidence: float = 0.99) -> float:
    """One-sided Wilson score upper bound on a binomial proportion."""
    trials = _integer(trials, "trials", 1)
    failures = _integer(failures, "failures", 0, trials)
    z = statistics.NormalDist().inv_cdf(_real(confidence, "confidence", 0.5, 1.0, open_high=True))
    p_hat = failures / trials
    z2n = z * z / trials
    center = p_hat + 0.5 * z2n
    radius = z * math.sqrt(p_hat * (1.0 - p_hat) / trials + 0.25 * z2n / trials)
    return min(1.0, (center + radius) / (1.0 + z2n))


# Entries in one (trials, m) array of a coverage block.  8,192 ran m = 2000
# coverage about 10% faster, but its peak RSS at m = 50 was 1.0 MB above that
# of one trial at a time; 4,096 keeps that rise near 0.5 MB.
_BLOCK_ENTRIES = 4096


def _trial_block(
    instance: LearningInstance, config: BoundConfig, trials: range, seed: int
) -> dict[str, np.ndarray]:
    """BoundReport field -> its value in each trial of ``trials``.

    Trial t draws its per-atom sums from default_rng((seed, t)) into one row
    of S1 and S2.  The posteriors, divergences and bounds of all rows are then
    computed at once, each row with the bits of a block of that row alone.
    """
    n = config.n
    rngs = (np.random.default_rng((seed, t)) for t in trials)
    s1, s2 = map(np.array, zip(*(instance.loss_sums(n, rng) for rng in rngs)))
    mu_hat = s1 / n
    rule = instance.posterior_rule
    if isinstance(rule, GibbsPosterior) and rule.eta > 0.0:
        lp = instance._gibbs_log_weights(mu_hat, n)
    else:  # one posterior serves the whole block
        lp = instance.posterior(mu_hat[0], n).log_weights
    w = _summing_to_one(np.exp(lp))
    lq = instance.prior.log_weights
    true_mu = instance.true_means()

    def mean(values):  # w @ values per row, by the dot product a 1-d ``@`` uses
        return np.matmul(w[..., None, :], values[..., :, None])[..., 0, 0]

    d_kl = _kl_rows(lp, lq)
    d_alpha = _renyi_rows(lp, lq, config.alpha)
    d_zcp1 = _zcp_rows(lp, lq, config.thm1_c)
    d_zcp2 = _zcp_rows(lp, lq, config.thm2_c)
    comp = _complexity(d_alpha, d_zcp2, config)
    v_hat = mean(sample_variance_from_sums(s1, s2, n))
    fields = {
        "d_kl": d_kl,
        "d_tv": _tv_rows(lp, lq),
        "d_alpha": d_alpha,
        "d_zcp_thm1": d_zcp1,
        "d_zcp_thm2": d_zcp2,
        "comp_n": comp,
        "hoeffding_zcp": _hoeffding_zcp(d_zcp1, config),
        "mcallester": _mcallester(d_kl, config),
        "emp_bernstein": _empirical_bernstein(comp, v_hat, n),
        "realized_gap": mean(mu_hat - true_mu),
        "v_hat": v_hat,
        "p_hat_mean": mean(mu_hat),
        "p_mean": mean(true_mu),
    }
    fields = {name: np.broadcast_to(values, mu_hat.shape[:1]) for name, values in fields.items()}
    # every other field is >= 0 by construction; little_kl_mean_bound checks p_hat_mean and comp_n
    for name, values in fields.items():
        if np.isnan(values).any():  # a NaN fails no bound, so it must not count as a pass
            raise ValidationError(f"{name} is NaN in trial {trials[np.isnan(values).argmax()]}")
    pairs = zip(fields["p_hat_mean"].tolist(), fields["comp_n"].tolist())
    fields["little_kl_bound"] = np.array([little_kl_mean_bound(p, comp, n) for p, comp in pairs])
    return fields


def _blocks(instance: LearningInstance, config: BoundConfig, trials: int, seed: int):
    """(first trial, ``_trial_block``) for consecutive blocks of ``trials`` trials."""
    rows = max(1, _BLOCK_ENTRIES // instance.theta_count)
    for first in range(0, trials, rows):
        yield first, _trial_block(instance, config, range(first, min(first + rows, trials)), seed)


def coverage_reports(
    instance: LearningInstance, config: BoundConfig, trials: int, seed: int
) -> Iterator[BoundReport]:
    """Yield one BoundReport per trial, in trial-index order.

    Trial t draws from default_rng((seed, t)), so any subset of trials can
    be reproduced independently.
    """
    seed = _integer(seed, "seed", 0)
    for _, block in _blocks(instance, config, _integer(trials, "trials", 1), seed):
        for row in zip(*(values.tolist() for values in block.values())):
            yield BoundReport(**dict(zip(block, row)))


@dataclass(frozen=True)
class CoverageReport:
    """Failure counts per bound plus the Wilson-upper PASS verdicts.

    ``failure_events`` retains every (trial index, bound name, full
    BoundReport) triple for post-mortem inspection; counting is exact.
    """

    trials: int
    delta_budget: float
    failures_per_bound: dict[str, int]
    empirical_failure_rate: dict[str, float]
    wilson_upper_99: dict[str, float]
    failure_events: tuple[tuple[int, str, BoundReport], ...]

    def passed(self, bound: str) -> bool:
        return self.wilson_upper_99[bound] <= self.delta_budget

    @property
    def all_passed(self) -> bool:
        return all(self.passed(name) for name in self.failures_per_bound)


def run_coverage(
    instance: LearningInstance, config: BoundConfig, trials: int, seed: int
) -> CoverageReport:
    """Monte Carlo coverage check of every bound on one instance.

    PASS criterion per bound: the one-sided 99% Wilson upper bound on the
    failure rate is at most 2*delta (both theorems spend at most 2*delta
    of failure probability).
    """
    trials = _integer(trials, "trials", 100)
    counts = dict.fromkeys(BOUND_NAMES, 0)
    events = []
    for first, block in _blocks(instance, config, trials, _integer(seed, "seed", 0)):
        # a BoundReport only for a trial that some bound fails
        for row in np.flatnonzero(np.logical_or.reduce(list(_failures(**block).values()))):
            report = BoundReport(**{name: float(values[row]) for name, values in block.items()})
            trial = first + int(row)
            for name, failed in report.failures().items():
                if failed:
                    counts[name] += 1
                    events.append((trial, name, report))
                    logger.warning(
                        "coverage failure: bound=%s trial=%d report=%r", name, trial, report)
    return CoverageReport(
        trials=trials,
        delta_budget=2.0 * config.delta,
        failures_per_bound=counts,
        empirical_failure_rate={k: v / trials for k, v in counts.items()},
        wilson_upper_99={k: wilson_upper(v, trials) for k, v in counts.items()},
        failure_events=tuple(events),
    )


# ---------------------------------------------------------------------------
# Divergence scaling on the two-block instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingRow:
    d: int
    kl: float
    tv: float
    zcp1: float
    kl_ratio: float
    tv_ratio: float
    zcp1_ratio: float


@dataclass(frozen=True)
class ScalingTable:
    """Divergences along a dimension sweep plus fitted log-log slopes.

    ``slopes`` are ordinary least squares fits of ln(value) against ln(d)
    over the top half of the grid, to be compared against the expected
    exponents (u/2, -u, -u/4).
    """

    u: float
    rows: tuple[ScalingRow, ...]
    slopes: dict[str, float]
    expected_slopes: dict[str, float]

    def max_slope_error(self) -> float:
        return max(abs(self.slopes[k] - self.expected_slopes[k]) for k in self.slopes)


def divergence_scaling_table(
    u: float, d_values, *, ln_a_override: float | None = None
) -> ScalingTable:
    """Exact KL / TV / ZCP(1) for the two-block instance along d_values."""
    ds = [_integer(d, "d_values", 4) for d in d_values]
    if len(ds) < 2 or any(d % 2 for d in ds) or any(b <= a for a, b in zip(ds, ds[1:])):
        raise ValidationError("d_values must be >= 4, even, strictly increasing, length >= 2")
    rows = []
    for d in ds:
        p, q = multivariate_instance(d, u, ln_a_override=ln_a_override)
        kl = kl_discrete(p, q)
        tv = tv_discrete(p, q)
        zcp1 = zcp_discrete(p, q, 1.0)
        rows.append(
            ScalingRow(
                d=d,
                kl=kl,
                tv=tv,
                zcp1=zcp1,
                kl_ratio=kl / d ** (0.5 * u),
                tv_ratio=tv / d ** (-u),
                zcp1_ratio=zcp1 / d ** (-0.25 * u),
            )
        )
    top = rows[len(rows) // 2 :]
    log_d = np.log([r.d for r in top])
    slopes = {}
    for name in ("kl", "tv", "zcp1"):
        values = np.array([getattr(r, name) for r in top])
        if (values <= 0).any():
            slopes[name] = math.nan
        else:
            slopes[name] = float(np.polyfit(log_d, np.log(values), 1)[0])
    expected = {"kl": 0.5 * u, "tv": -u, "zcp1": -0.25 * u}
    return ScalingTable(u=u, rows=tuple(rows), slopes=slopes, expected_slopes=expected)


# ---------------------------------------------------------------------------
# Gaussian mixture inequality checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianCheckRow:
    p: float
    exponent: float
    kl: float
    tv: float
    kl_floor: float
    kl_ok: bool
    product: float
    product_ok: bool


def gaussian_instance_check(
    p_values, exponent: float, config: QuadratureConfig | None = None
) -> list[GaussianCheckRow]:
    """Quadrature check of the mixture-pair KL floors and product caps.

    exponent 1: KL >= 1/(2p) - 1.3 and TV*KL <= 1/2.
    exponent 0.75: KL >= 1/(2 sqrt(p)) - 1.22 and KL*sqrt(TV) <= 1/2.
    """
    exponent = _real(exponent, "exponent")
    if exponent not in (1.0, 0.75):
        raise ValidationError("exponent must be 1 or 0.75")
    ps = [_real(p, "p values", 0.005, 0.5, open_low=True, open_high=True) for p in p_values]
    if not ps:
        raise ValidationError("p values must lie in (0.005, 0.5)")
    config = config or QuadratureConfig()
    rows = []
    for p in ps:
        pair = gaussian_instance(p, 1.0, exponent)
        kl = divergence_gaussian(pair, DivergenceKind.KL, config).value
        tv = divergence_gaussian(pair, DivergenceKind.TV, config).value
        if exponent == 1.0:
            kl_floor = 0.5 / p - 1.3
            product = tv * kl
        else:
            kl_floor = 0.5 / math.sqrt(p) - 1.22
            product = kl * math.sqrt(tv)
        rows.append(
            GaussianCheckRow(
                p=p,
                exponent=exponent,
                kl=kl,
                tv=tv,
                kl_floor=kl_floor,
                kl_ok=kl >= kl_floor,
                product=product,
                product_ok=product <= 0.5,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Ville crossing experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VilleRow:
    delta: float
    crossings: int
    paths: int
    rate: float
    wilson_upper_99: float
    passed: bool


def ville_experiment(n: int, delta_values, paths: int, seed: int) -> list[VilleRow]:
    """Crossing frequency of KT wealth over mean-zero coins vs 1/delta.

    Coins are Rademacher sign times Uniform[0, 1] magnitude, so the KT
    wealth is a nonnegative martingale started at 1 and Ville's inequality
    caps P(max_t W_t >= 1/delta) at delta.  PASS per delta: Wilson-99
    upper bound on the crossing rate <= delta.
    """
    n, paths = _integer(n, "n", 1), _integer(paths, "paths", 1000)
    deltas = [
        _real(d, "delta values", 0.0, 1.0, open_low=True, open_high=True) for d in delta_values
    ]
    if not deltas:
        raise ValidationError("delta values must lie in (0, 1)")
    thresholds = np.array([-math.log(d) for d in deltas])
    crossings = np.zeros(len(deltas), dtype=int)
    for path in range(paths):
        peak = float(kt_log_wealth(mean_zero_coins(n, seed, path))[1:].max())
        crossings += peak >= thresholds
    rows = []
    for delta, crossed in zip(deltas, crossings):
        upper = wilson_upper(int(crossed), paths)
        rows.append(
            VilleRow(
                delta=delta,
                crossings=int(crossed),
                paths=paths,
                rate=crossed / paths,
                wilson_upper_99=upper,
                passed=upper <= delta,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Bound tightness comparison on the two-block instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TightnessRow:
    d: int
    hoeffding_zcp: float
    mcallester: float
    ratio: float


def tightness_comparison(
    u: float, d_values, config: BoundConfig, *, ln_a_override: float | None = None
) -> list[TightnessRow]:
    """Hoeffding-ZCP vs McAllester when the posterior/prior pair is the
    two-block instance: the ratio decays as d grows because ZCP scales like
    d**(-u/4) while KL grows like d**(u/2).  With ln_a_override=0 the pair
    is identical and the rows isolate the bounds' additive constants."""
    ds = [_integer(d, "d_values", 2) for d in d_values]
    if not ds or any(d % 2 for d in ds):
        raise ValidationError("d_values must be even integers >= 2")
    rows = []
    for d in ds:
        p, q = multivariate_instance(d, u, ln_a_override=ln_a_override)
        zcp = zcp_discrete(p, q, config.thm1_c)
        kl = kl_discrete(p, q)
        h = hoeffding_zcp_bound(zcp, config)
        m = mcallester_baseline(kl, config)
        rows.append(TightnessRow(d=d, hoeffding_zcp=h, mcallester=m, ratio=h / m))
    return rows
