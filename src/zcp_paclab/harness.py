"""Monte Carlo verification harness for the bounds.

A LearningInstance is a finite hypothesis grid (atom j sits at t = j/m)
with a bounded loss, a prior, and a posterior rule (data-independent or
Gibbs).  The harness draws i.i.d. samples, evaluates every bound on the
realized (sample, posterior) pair, and PASSes a bound when the one-sided
99% Wilson upper confidence bound on its failure frequency stays within
the theoretical budget.  A run reads one PCG64 stream seeded by its master
seed, and each trial (and each Ville path) reads its own fixed span of that
stream, which ``advance`` reaches directly: runs are reproducible, and any
trial can be reproduced without the trials before it.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .betting import _coin_blocks, _kt_rows, _max_log_wealth, _wealth_quadratic_lower
from .bounds import (
    BOUND_NAMES,
    BoundConfig,
    BoundReport,
    CheckRow,
    _asymptotics_rows,
    _complexity,
    _empirical_bernstein,
    _failures,
    _hoeffding_zcp,
    _mcallester,
    _sample_variance,
    analytic_inequality_suite,
    hoeffding_zcp_bound,
    mcallester_baseline,
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
    _above_kl_inverse,
    _kl_rows,
    _little_kl_inverse_upper,
    _renyi_rows,
    _tv_zcp_rows,
    divergence_gaussian,
    kl_discrete,
    tv_discrete,
    zcp_discrete,
)
from .errors import _MAX_COUNT, ValidationError, _floats, _integer, _real

__all__ = [
    "LossKind",
    "FixedPosterior",
    "GibbsPosterior",
    "LearningInstance",
    "learning_instance_from_dict",
    "CoverageRow",
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
    "self_check_suite",
    "TightnessRow",
    "tightness_comparison",
]

_MAX_ATOMS = 10_000


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
    """Learning problem with losses in [0, 1] on the m atoms of the prior's grid.

    ABS_DISTANCE: one shared uniform sample X_i in [0, 1], loss
    |j/m - X_i| with exact true mean (j/m)^2 - j/m + 1/2.  BERNOULLI: atom
    j observes its own Bernoulli(bernoulli_means[j]) coordinate of the
    sample vector, the loss being the observed bit.
    """

    prior: DiscreteDistribution
    loss_kind: LossKind
    posterior_rule: FixedPosterior | GibbsPosterior
    bernoulli_means: np.ndarray | None = None

    def __post_init__(self) -> None:
        m = _integer(self.theta_count, "prior support size", 1, _MAX_ATOMS)
        if isinstance(self.posterior_rule, FixedPosterior):
            if self.posterior_rule.distribution.support_size != m:
                raise ValidationError("fixed posterior support must equal prior support")
        elif not isinstance(self.posterior_rule, GibbsPosterior):
            raise ValidationError("posterior_rule must be FixedPosterior or GibbsPosterior")
        if self.loss_kind is LossKind.BERNOULLI:
            means = self.bernoulli_means
            means = np.linspace(0.1, 0.9, m) if means is None else means
            means = _floats(means, "bernoulli_means", 0.0, 1.0).copy()
            if means.shape != (m,):
                raise ValidationError("bernoulli_means must be m values in [0, 1]")
            means.setflags(write=False)
            object.__setattr__(self, "bernoulli_means", means)
        elif self.bernoulli_means is not None:
            raise ValidationError("bernoulli_means only applies to BERNOULLI losses")

    @property
    def theta_count(self) -> int:
        """m, the number of atoms: the prior's support size."""
        return self.prior.support_size

    @functools.cached_property
    def atom_positions(self) -> np.ndarray:
        t = np.arange(self.theta_count) / self.theta_count
        t.setflags(write=False)
        return t

    def true_means(self) -> np.ndarray:
        """Exact per-atom expected loss; it and ``atom_positions`` are built once, read-only."""
        return self._true_means

    @functools.cached_property
    def _true_means(self) -> np.ndarray:
        t = self.atom_positions
        means = t * t - t + 0.5 if self.loss_kind is LossKind.ABS_DISTANCE else self.bernoulli_means
        means.setflags(write=False)
        return means

    def loss_sums(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Per-atom sums (S1, S2) of the losses and squared losses of one
        i.i.d. sample of size n, without building the (n, m) loss matrix.

        ABS_DISTANCE sorts the sample ``random(n)``, the one row of ``_abs_sums``:
        with prefix sums C of the sorted sample and k = #{X_i < t_j},
        S1_j = t_j k - C[k] + (C[n] - C[k]) - t_j (n - k)
        = t_j (2k - n) + C[n] - 2 C[k] and
        S2_j = n t_j^2 - 2 t_j sum X + sum X^2, in O(n log n + m log n), with S1
        clipped to [0, n] and S2 to [0, S1], so rounding never pushes a mean out of [0, 1].
        BERNOULLI draws the per-atom counts as Binomial(n, mean_j), the law
        of the column sums of an (n, m) matrix of Bernoulli(mean_j) bits;
        bits square to themselves, so S2 = S1, in O(m).
        """
        n = _integer(n, "n", 1, _MAX_COUNT)
        if self.loss_kind is LossKind.BERNOULLI:
            counts = rng.binomial(n, self.bernoulli_means).astype(float)
            return counts, counts
        return tuple(sums[0] for sums in self._abs_sums(rng.random(n)[None]))

    def _abs_sums(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``loss_sums``' ABS_DISTANCE (S1, S2) of each row of the samples x, sorted in place."""
        n, t = x.shape[-1], self.atom_positions
        x.sort(axis=-1)
        prefix = np.zeros((len(x), n + 1))
        total = np.cumsum(x, axis=-1, out=prefix[:, 1:])[:, -1:]
        k = np.array([np.searchsorted(sample, t) for sample in x])
        s1 = t * (2 * k - n) + total - 2.0 * np.take_along_axis(prefix, k, axis=-1)
        # sum X^2 by the dot product a 1-d ``@`` uses
        s2 = n * t * t - 2.0 * t * total + np.matmul(x[:, None, :], x[:, :, None])[:, 0]
        return s1, np.clip(s2, 0.0, np.clip(s1, 0.0, n, out=s1), out=s2)  # S1 clipped first

    def posterior(self, empirical_means: np.ndarray, n: int) -> DiscreteDistribution:
        """Posterior for one realized sample (empirical means, sample size)."""
        mu_hat = _floats(empirical_means, "empirical_means", 0.0, 1.0)
        if mu_hat.shape != (self.theta_count,):
            raise ValidationError("empirical_means must have one entry per atom")
        n = _integer(n, "n", 1)
        if isinstance(self.posterior_rule, FixedPosterior):
            return self.posterior_rule.distribution
        if self.posterior_rule.eta == 0.0:
            return self.prior
        return DiscreteDistribution(self._gibbs_log_weights(mu_hat, n))

    def _gibbs_log_weights(self, mu_hat: np.ndarray, n: int) -> np.ndarray:
        """Normalized Gibbs posterior log-weights for each row of empirical means.  The exponent
        -eta n (mu_hat - min mu_hat), the minimum on the prior's support, is 0 where a mean equals
        it, so an eta * n that overflows gives the prior on the empirical minimizers, not inf * 0."""
        lq = self.prior.log_weights
        excess = mu_hat - np.min(mu_hat, axis=-1, keepdims=True, where=lq > -np.inf, initial=np.inf)
        positive = excess > 0.0
        np.multiply(self.posterior_rule.eta * n, excess, out=excess, where=positive)
        np.copyto(excess, 0.0, where=~positive)
        return _normalized(np.subtract(lq, excess, out=excess))  # lq - the exponent


_INSTANCE_KEYS = ("m", "loss", "posterior", "eta", "prior", "fixed_weights", "bernoulli_means")


def learning_instance_from_dict(payload: dict) -> LearningInstance:
    """Build a LearningInstance from its JSON-config form.

    Keys: m (int), loss ("abs" | "bernoulli"), posterior ("gibbs" | "fixed"), eta (gibbs
    only, 5 by default), prior (optional weight list, uniform by default), fixed_weights
    (fixed only, the prior by default), bernoulli_means (optional).  A key the chosen
    posterior ignores is refused, and so is a None value: only an absent key takes a default.
    A bool, or a list holding one, is refused rather than read as the number 0 or 1.
    """
    if not isinstance(payload, dict):
        raise ValidationError("instance config must be a JSON object")
    for key, value in payload.items():
        if key not in _INSTANCE_KEYS:
            keys = ", ".join(_INSTANCE_KEYS)
            raise ValidationError(f"instance config key {key!r} is not one of {keys}")
        if value is None:
            raise ValidationError(f"instance config key {key!r} cannot be null")
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, bool):
                raise ValidationError(f"instance config key {key!r} cannot be {str(item).lower()}")
    if "m" not in payload:
        raise ValidationError("instance config requires an integer 'm'")
    m = _integer(payload["m"], "m", 1, _MAX_ATOMS)
    loss_name = payload.get("loss", "abs")
    try:
        loss = LossKind(loss_name)
    except ValueError:
        raise ValidationError(f"unknown loss kind {loss_name!r}") from None
    prior = make_discrete(payload["prior"]) if "prior" in payload else make_discrete(np.ones(m))
    if prior.support_size != m:
        raise ValidationError("prior support must equal m")
    rule_name = payload.get("posterior", "gibbs")
    if rule_name not in ("gibbs", "fixed"):
        raise ValidationError(f"unknown posterior rule {rule_name!r}")
    ignored = "fixed_weights" if rule_name == "gibbs" else "eta"
    if ignored in payload:
        raise ValidationError(f"{ignored!r} does not apply to a {rule_name} posterior")
    if rule_name == "gibbs":
        rule: FixedPosterior | GibbsPosterior = GibbsPosterior(payload.get("eta", 5.0))
    else:
        weights = payload.get("fixed_weights")
        rule = FixedPosterior(make_discrete(weights) if weights is not None else prior)
    return LearningInstance(
        prior=prior,
        loss_kind=loss,
        posterior_rule=rule,
        bernoulli_means=payload.get("bernoulli_means"),
    )


# ---------------------------------------------------------------------------
# Coverage Monte Carlo
# ---------------------------------------------------------------------------


# the 0.99 quantile of the standard normal, statistics.NormalDist().inv_cdf(0.99)
_Z99 = 2.3263478740408408


def wilson_upper(failures: int, trials: int) -> float:
    """One-sided 99% Wilson score upper bound on a binomial proportion."""
    trials = _integer(trials, "trials", 1)
    failures = _integer(failures, "failures", 0, trials)
    p_hat = failures / trials
    z2n = _Z99 * _Z99 / trials
    center = p_hat + 0.5 * z2n
    radius = _Z99 * math.sqrt(p_hat * (1.0 - p_hat) / trials + 0.25 * z2n / trials)
    return min(1.0, (center + radius) / (1.0 + z2n))


# A coverage block holds max(_BLOCK_ROWS, _BLOCK_ENTRIES // m) trials, 81 at m = 50 and 4 at
# m = 2000, whose 62.5 KiB (trials, m) arrays stay under glibc's 128 KiB mmap threshold, and
# draws abs-loss samples for at most max(1, _BLOCK_ENTRIES // max(n, m)) trials at a time.
_BLOCK_ENTRIES = 4096
_BLOCK_ROWS = 4
# Entries in one (paths, n) coin array of a Ville block: 8 paths at
# n = 1000.  The allocator reuses arrays this small: at 16,384 entries each
# block's arrays went back to the system, and `ville --n 1000 --paths 10000`
# took about 77,000 page faults per run (none at 8,192 once warm).
_VILLE_BLOCK_ENTRIES = 8192


def _trial_block(
    instance: LearningInstance, config: BoundConfig, trials: range,
    generators: Iterator[np.random.Generator],
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """BoundReport field -> its value in each trial of ``trials``, but for ``little_kl_bound``,
    and each trial's kl budget comp_n / n, which the kl inversion takes with p_hat_mean.

    The sample statistics are taken before the divergences' arrays are made.
    All rows are computed at once, each with the bits of a block of that row alone.
    """
    n = _integer(config.n, "n", 2)  # the sample variance needs two draws
    s1, variances = _block_samples(instance, n, generators, len(trials))
    mu_hat = np.divide(s1, n, out=s1)
    rule = instance.posterior_rule
    if isinstance(rule, GibbsPosterior) and rule.eta > 0.0:
        lp = instance._gibbs_log_weights(mu_hat, n)
    else:  # one posterior serves the whole block
        lp = (rule.distribution if isinstance(rule, FixedPosterior) else instance.prior).log_weights
    w = _summing_to_one(np.exp(lp))
    lq, true_mu = instance.prior.log_weights, instance.true_means()

    def mean(values):  # w @ values per row, by the dot product a 1-d ``@`` uses
        return np.matmul(w[..., None, :], values[..., :, None])[..., 0, 0]

    v_hat, p_hat_mean = mean(variances), mean(mu_hat)
    realized_gap = mean(np.subtract(mu_hat, true_mu, out=mu_hat))
    del s1, mu_hat, variances
    d_tv, d_zcp1, d_zcp2 = _tv_zcp_rows(lp, lq, config.thm1_c, config.thm2_c)
    d_kl = _kl_rows(lp, lq, w)
    d_alpha = _renyi_rows(lp, lq, config.alpha)
    comp = _complexity(d_alpha, d_zcp2, config)
    fields = {
        "d_kl": d_kl,
        "d_tv": d_tv,
        "d_alpha": d_alpha,
        "d_zcp_thm1": d_zcp1,
        "d_zcp_thm2": d_zcp2,
        "comp_n": comp,
        "hoeffding_zcp": _hoeffding_zcp(d_zcp1, config),
        "mcallester": _mcallester(d_kl, config),
        "emp_bernstein": _empirical_bernstein(comp, v_hat, n),
        "realized_gap": realized_gap,
        "v_hat": v_hat,
        "p_hat_mean": p_hat_mean,
        "p_mean": mean(true_mu),
    }
    for name, values in fields.items():
        if values.shape != (len(trials),):  # a divergence or bound of the one posterior
            fields[name] = values = np.broadcast_to(values, (len(trials),))
        if np.isnan(values).any():  # a NaN fails no bound, so it must not count as a pass
            raise ValidationError(f"{name} is NaN in trial {trials[np.isnan(values).argmax()]}")
    # every other field is >= 0 by construction; the kl inversion's arguments are checked here
    _floats(fields["p_hat_mean"], "p_hat_mean", 0.0, 1.0)
    return fields, _floats(fields["comp_n"], "comp", 0.0, math.inf) / n


def _block_samples(instance: LearningInstance, n: int, generators, rows: int):
    """S1 and the per-atom sample variances of ``rows`` trials, row t from the ``loss_sums`` of
    trial t and the next of ``generators`` (``_trial_generators``).  The abs loss's one
    generator draws (trials, n) samples, the doubles of as many ``random(n)`` calls."""
    s1 = np.empty((rows, instance.theta_count))
    if instance.loss_kind is LossKind.BERNOULLI:
        for row, rng in zip(s1, itertools.islice(generators, rows)):
            row[:] = rng.binomial(n, instance.bernoulli_means)
        return s1, _sample_variance(s1, s1, n)
    rng, s2 = next(generators), np.empty_like(s1)
    chunk = max(1, _BLOCK_ENTRIES // max(n, instance.theta_count))
    for first in range(0, rows, chunk):
        last = min(first + chunk, rows)
        s1[first:last], s2[first:last] = instance._abs_sums(rng.random((last - first, n)))
    return s1, _sample_variance(s1, s2, n)


def _trial_generators(instance: LearningInstance, seed: int) -> Iterator[np.random.Generator]:
    """Trial 0, 1, ...'s generator in turn: one Generator over one ``PCG64(seed)`` made for
    this call, so concurrent calls cannot interleave draws, at the trial's first word.

    An ABS_DISTANCE trial reads n words with ``random(n)``, so the stream read
    in order puts trial t at word t * n.  A BERNOULLI trial's ``binomial``
    reads a varying number of words, so the bit generator advances from the
    run's first state to word t * 2**64 (the binomial constants depend on
    (n, p) alone).
    """
    generator = np.random.Generator(np.random.PCG64(seed))
    if instance.loss_kind is LossKind.ABS_DISTANCE:
        return itertools.repeat(generator)
    bit_generator = generator.bit_generator
    start = bit_generator.state

    def at(trial: int) -> np.random.Generator:
        bit_generator.state = start
        bit_generator.advance(trial << 64)
        return generator

    return map(at, itertools.count())


def _trial_blocks(
    instance: LearningInstance, config: BoundConfig, trials: int, seed: int
) -> Iterator[tuple[dict[str, np.ndarray], np.ndarray]]:
    """``_trial_block`` of each block of max(_BLOCK_ROWS, _BLOCK_ENTRIES // m) consecutive
    trials."""
    generators = _trial_generators(instance, seed)
    rows = max(_BLOCK_ROWS, _BLOCK_ENTRIES // instance.theta_count)
    for first in range(0, trials, rows):
        yield _trial_block(instance, config, range(first, min(first + rows, trials)), generators)


def coverage_reports(
    instance: LearningInstance, config: BoundConfig, trials: int, seed: int
) -> Iterator[BoundReport]:
    """Yield one BoundReport per trial, in trial-index order.

    Trial t reads its own span of one ``PCG64(seed)`` stream, from word t * n
    for ABS_DISTANCE and from word t * 2**64 for BERNOULLI (``_trial_generators``),
    so any subset of trials can be reproduced independently.
    """
    seed, trials = _integer(seed, "seed", 0), _integer(trials, "trials", 1)
    for block, budgets in _trial_blocks(instance, config, trials, seed):
        p_hat, budgets = block["p_hat_mean"].tolist(), budgets.tolist()
        block["little_kl_bound"] = np.array(list(map(_little_kl_inverse_upper, p_hat, budgets)))
        for row in zip(*(values.tolist() for values in block.values())):
            yield BoundReport(**dict(zip(block, row)))


@dataclass(frozen=True)
class CoverageRow:
    """One bound's failure count and its Wilson-upper PASS verdict."""

    bound: str
    failures: int
    trials: int
    failure_rate: float
    wilson_upper_99: float
    budget: float
    passed: bool


def run_coverage(
    instance: LearningInstance, config: BoundConfig, trials: int, seed: int
) -> list[CoverageRow]:
    """Monte Carlo coverage check of every bound on one instance: one CoverageRow per bound,
    in BOUND_NAMES order.

    PASS criterion per bound: the one-sided 99% Wilson upper bound on the
    failure rate is at most 2*delta (both theorems spend at most 2*delta
    of failure probability).  A run keeps counts only: trial t's BoundReport
    is the t-th that ``coverage_reports`` yields for the same arguments, and
    it failed a bound where its ``failures()`` is true.
    """
    trials, seed = _integer(trials, "trials", 100), _integer(seed, "seed", 0)
    counts = dict.fromkeys(BOUND_NAMES, 0)
    for block, budgets in _trial_blocks(instance, config, trials, seed):
        above = _above_kl_inverse(block["p_mean"], block["p_hat_mean"], budgets)
        for name, mask in _failures(**block, little_kl=above).items():
            counts[name] += int(np.count_nonzero(mask))
    budget = 2.0 * config.delta
    rows = []
    for name, count in counts.items():
        upper = wilson_upper(count, trials)
        rows.append(
            CoverageRow(name, count, trials, count / trials, upper, budget, upper <= budget))
    return rows


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
    over the top half of the grid, and over at least its last two points,
    to be compared against the expected exponents (u/2, -u, -u/4).
    """

    rows: tuple[ScalingRow, ...]
    slopes: dict[str, float]
    expected_slopes: dict[str, float]


def divergence_scaling_table(u: float, d_values) -> ScalingTable:
    """Exact KL / TV / ZCP(1) for the two-block instance along d_values."""
    ds = [_integer(d, "d_values", 4, _MAX_COUNT) for d in d_values]
    if len(ds) < 2 or any(d % 2 for d in ds) or any(b <= a for a, b in zip(ds, ds[1:])):
        raise ValidationError("d_values must be >= 4, even, strictly increasing, length >= 2")
    rows = []
    for d in ds:
        p, q = multivariate_instance(d, u)
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
    top = rows[min(len(rows) // 2, len(rows) - 2) :]
    log_d = np.log([r.d for r in top])
    slopes = {}
    for name in ("kl", "tv", "zcp1"):
        values = np.array([getattr(r, name) for r in top])
        slopes[name] = float(np.polyfit(log_d, np.log(values), 1)[0])
    expected = {"kl": 0.5 * u, "tv": -u, "zcp1": -0.25 * u}
    return ScalingTable(rows=tuple(rows), slopes=slopes, expected_slopes=expected)


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


def gaussian_instance_check(p_values, exponent: float) -> list[GaussianCheckRow]:
    """Quadrature check of the mixture-pair KL floors and product caps.

    exponent 1: KL >= 1/(2p) - 1.3 and TV*KL <= 1/2.
    exponent 0.75: KL >= 1/(2 sqrt(p)) - 1.22 and KL*sqrt(TV) <= 1/2.
    """
    exponent = _real(exponent, "exponent")
    if exponent not in (1.0, 0.75):
        raise ValidationError("exponent must be 1 or 0.75")
    ps = _floats(p_values, "p values", 0.005, 0.5, open_low=True, open_high=True, ndim=1).tolist()
    rows = []
    for p in ps:
        pair = gaussian_instance(p, exponent)
        kl = divergence_gaussian(pair, DivergenceKind.KL).value
        tv = divergence_gaussian(pair, DivergenceKind.TV).value
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

    Coins are Rademacher sign times Uniform[0, 1) magnitude, so the KT
    wealth is a nonnegative martingale started at 1 and Ville's inequality
    caps P(max_t W_t >= 1/delta) at delta.  PASS per delta: Wilson-99
    upper bound on the crossing rate <= delta.  Path p is the coins of
    ``mean_zero_coins(n, seed, p)``, the n words of one ``PCG64(seed)``
    stream from word p * n on.  The stream is read in order, a block of up
    to 8,192 // n paths at a time, and the KT wealth paths of a block are
    computed at once, each with the bits of one path run alone.
    """
    n, paths = _integer(n, "n", 1, _MAX_COUNT), _integer(paths, "paths", 1000)
    seed = _integer(seed, "seed", 0)
    deltas = _floats(delta_values, "delta values", 0.0, 1.0, open_low=True, open_high=True, ndim=1)
    thresholds = np.array([-math.log(d) for d in deltas])
    crossings = np.zeros(len(deltas), dtype=int)
    for coins in _coin_blocks(n, seed, paths, max(1, _VILLE_BLOCK_ENTRIES // n)):
        peaks = _kt_rows(coins)[1][:, 1:].max(axis=1)
        crossings += (peaks[:, None] >= thresholds).sum(axis=0)
    rows = []
    for delta, crossed in zip(deltas.tolist(), crossings):
        upper = wilson_upper(int(crossed), paths)
        rows.append(
            VilleRow(
                delta=delta,
                crossings=int(crossed),
                paths=paths,
                rate=int(crossed) / paths,
                wilson_upper_99=upper,
                passed=upper <= delta,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Self-check: the analytic lemmas, the asymptotic surrogate and the wealth invariants
# ---------------------------------------------------------------------------

_FUZZ_DRAWS = 300
_ASYMPTOTICS_N = (25, 100, 10_000)


def self_check_suite(trials: int = 100_000, seed: int = 0) -> list[CheckRow]:
    """The three ``analytic_inequality_suite`` rows, then two fuzz rows.

    ``asymptotics_surrogate`` checks B_n / L(n) <= A_n
    (``asymptotics_inequality_check``) on 300 random pairs of 2 to 64 atoms
    at n in {25, 100, 10000}.  ``betting_invariants`` checks ln W*_n >=
    (sum c_t)^2 / (4n) on 300 [-1, 1] coin sequences, and the KT regret
    ln(W*_n / W_n) <= ln(2 sqrt(n)) on 300 +-1 sequences, with a violation
    below -1e-12.  The fuzz draws come from default_rng((seed, 1)) and
    default_rng((seed, 2)).  A fuzz row's worst slack is its smallest finite
    one; a violated fuzz check logs the first draw with that slack at
    WARNING.
    """
    seed = _integer(seed, "seed", 0)
    rows = analytic_inequality_suite(trials=trials, seed=seed)
    slack, violated = _asymptotics_fuzz(np.random.default_rng((seed, 1)))
    count = len(_ASYMPTOTICS_N)
    rows.append(_fuzz_row("asymptotics_surrogate", slack.ravel(), violated.ravel(),
                          lambda i: f"pair={i // count},n={_ASYMPTOTICS_N[i % count]}"))
    slack, lengths = _betting_fuzz(np.random.default_rng((seed, 2)))
    rows.append(_fuzz_row("betting_invariants", slack, slack < -1e-12,
                          lambda i: f"sequence={i},n={lengths[i]}"))
    return rows


def _asymptotics_fuzz(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Slack A_n - B_n / L(n) and violation of each (pair, n), both of shape (300, 3).

    Pair i draws its size from integers(2, 65), then the weights of P and P0
    as random(size) + 1e-3 each.  The pairs of one size form one block, and
    each row has the bits of ``asymptotics_inequality_check`` on its pair:
    no weight is 0, so every atom is in use.
    """
    sizes = np.empty(_FUZZ_DRAWS, dtype=int)
    weights = np.empty((_FUZZ_DRAWS, 2, 64))  # pair, side, atom
    for index in range(_FUZZ_DRAWS):
        sizes[index] = size = rng.integers(2, 65)
        rng.random(out=weights[index, 0, :size])
        rng.random(out=weights[index, 1, :size])
    slack = np.empty((_FUZZ_DRAWS, len(_ASYMPTOTICS_N)))
    violated = np.empty(slack.shape, dtype=bool)
    for size in set(sizes.tolist()):  # np.unique would import numpy.ma, a megabyte
        pairs = np.flatnonzero(sizes == size)
        w = weights[pairs, :, :size] + 1e-3
        # make_discrete's log-weights, row by row
        lp, lq = np.moveaxis(np.log(w / w.sum(axis=-1, keepdims=True)), 1, 0)
        for j, (ratio, a_n) in enumerate(_asymptotics_rows(lp, lq, _ASYMPTOTICS_N)):
            slack[pairs, j] = a_n - ratio
            violated[pairs, j] = ~(ratio <= a_n)
    return slack, violated


def _betting_fuzz(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The smaller wealth-invariant slack of each of 300 sequences, and its length n.

    Sequence i draws n from integers(1, 257) and n coins choice([-1, 1], n)
    * random(n) for the quadratic lower bound, then bias = uniform(0.1, 0.9)
    and n +-1 coins, +1 where random(n) < bias, for the KT regret.
    """
    slack = np.empty(_FUZZ_DRAWS)
    lengths = np.empty(_FUZZ_DRAWS, dtype=int)
    for index in range(_FUZZ_DRAWS):
        n = int(rng.integers(1, 257))
        # the quadratic wealth lower bound holds for every [-1, 1] sequence
        coins = rng.choice([-1.0, 1.0], n) * rng.random(n)
        quad_slack = _max_log_wealth(coins)[1] - _wealth_quadratic_lower(coins)
        # the 2 sqrt(n) KT regret guarantee is a binary-coin theorem and is
        # false for general magnitudes, so fuzz it on +-1 sequences only
        bias = rng.uniform(0.1, 0.9)
        binary = np.where(rng.random(n) < bias, 1.0, -1.0)
        log_regret = _max_log_wealth(binary)[1] - float(_kt_rows(binary)[1][-1])
        slack[index] = min(quad_slack, math.log(2.0 * math.sqrt(n)) - log_regret)
        lengths[index] = n
    return slack, lengths


def _fuzz_row(check: str, slack: np.ndarray, violated: np.ndarray, where) -> CheckRow:
    """The check row of per-draw slacks and violations; a violation logs ``where(i)`` of the
    first draw i with the smallest finite slack, importing ``logging`` only then."""
    finite = np.flatnonzero(np.isfinite(slack))
    first = finite[np.argmin(slack[finite])] if finite.size else None
    worst_slack, worst_at = (math.inf, "") if first is None else (float(slack[first]), where(first))
    violations = int(np.count_nonzero(violated))
    if violations:
        import logging
        logging.getLogger(__name__).warning("self-check: %s violated at %s", check, worst_at)
    return CheckRow(check, worst_slack, violations, violations == 0)


# ---------------------------------------------------------------------------
# Bound tightness comparison on the two-block instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TightnessRow:
    d: int
    hoeffding_zcp: float
    mcallester: float
    ratio: float


def tightness_comparison(u: float, d_values, config: BoundConfig) -> list[TightnessRow]:
    """Hoeffding-ZCP vs McAllester when the posterior/prior pair is the
    two-block instance: the ratio decays as d grows because ZCP scales like
    d**(-u/4) while KL grows like d**(u/2)."""
    ds = [_integer(d, "d_values", 2, _MAX_COUNT) for d in d_values]
    if not ds or any(d % 2 for d in ds):
        raise ValidationError("d_values must be even integers >= 2")
    rows = []
    for d in ds:
        p, q = multivariate_instance(d, u)
        zcp = zcp_discrete(p, q, config.thm1_c)
        kl = kl_discrete(p, q)
        h = hoeffding_zcp_bound(zcp, config)
        m = mcallester_baseline(kl, config)
        rows.append(TightnessRow(d=d, hoeffding_zcp=h, mcallester=m, ratio=h / m))
    return rows
