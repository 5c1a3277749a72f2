"""Learning instances, Monte Carlo coverage, and the verification tables."""

import dataclasses
import logging
import math
import os
import statistics
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import zcp_paclab
from conftest import oracle_expected_sample_variance, oracle_losses
from zcp_paclab import (
    BoundConfig,
    CheckRow,
    FixedPosterior,
    GibbsPosterior,
    LearningInstance,
    LossKind,
    ValidationError,
    analytic_inequality_suite,
    asymptotics_inequality_check,
    coverage_reports,
    divergence_scaling_table,
    gaussian_instance_check,
    hoeffding_zcp_bound,
    learning_instance_from_dict,
    kt_bettor,
    make_discrete,
    max_log_wealth,
    mcallester_baseline,
    run_coverage,
    sample_variance_from_sums,
    mean_zero_coins,
    tightness_comparison,
    ville_experiment,
    wealth_quadratic_lower,
    wilson_upper,
    zcp1_upper_bound_kl_tv,
)
from zcp_paclab import betting, bounds, cli, harness


def _instance(m=8, loss=LossKind.ABS_DISTANCE, rule=None, **kwargs):
    return LearningInstance(
        prior=make_discrete(np.ones(m)),
        loss_kind=loss,
        posterior_rule=rule or GibbsPosterior(5.0),
        **kwargs,
    )


class TestLearningInstance:
    def test_abs_true_means_closed_form(self):
        means = _instance(m=4).true_means()
        np.testing.assert_allclose(means, [0.5, 0.3125, 0.25, 0.3125], rtol=1e-15)

    def test_bernoulli_default_means(self):
        inst = _instance(m=5, loss=LossKind.BERNOULLI)
        np.testing.assert_allclose(inst.bernoulli_means, np.linspace(0.1, 0.9, 5), rtol=1e-15)
        np.testing.assert_array_equal(inst.true_means(), inst.bernoulli_means)

    def test_bernoulli_custom_means_are_copied_read_only(self):
        means = np.array([0.2, 0.8])
        inst = _instance(m=2, loss=LossKind.BERNOULLI, bernoulli_means=means)
        means[0] = 0.99
        assert inst.bernoulli_means[0] == 0.2
        with pytest.raises(ValueError):
            inst.bernoulli_means[0] = 0.5

    def test_abs_losses_are_distances_to_a_shared_point(self):
        inst = _instance(m=10)
        losses = oracle_losses(inst, 6, np.random.default_rng(1))
        assert losses.shape == (6, 10)
        # atom 0 sits at position 0, so column 0 recovers the sample point
        for row in losses:
            np.testing.assert_allclose(row, np.abs(inst.atom_positions - row[0]), rtol=0, atol=1e-15)

    def test_bernoulli_losses_are_bits_with_matching_rates(self):
        inst = _instance(m=3, loss=LossKind.BERNOULLI, bernoulli_means=[0.1, 0.5, 0.9])
        losses = oracle_losses(inst, 20_000, np.random.default_rng(2))
        assert set(np.unique(losses)) <= {0.0, 1.0}
        np.testing.assert_allclose(losses.mean(axis=0), [0.1, 0.5, 0.9], atol=0.02)

    def test_fixed_posterior_is_returned_verbatim(self):
        target = make_discrete([0.9] + [0.1 / 7] * 7)
        inst = _instance(rule=FixedPosterior(target))
        assert inst.posterior(np.zeros(8), 100) is target

    def test_gibbs_zero_eta_returns_the_prior_exactly(self):
        inst = _instance(rule=GibbsPosterior(0.0))
        assert inst.posterior(np.linspace(0, 1, 8), 100) is inst.prior

    @pytest.mark.parametrize(
        "rule", [FixedPosterior(make_discrete(np.ones(8))), GibbsPosterior(0.0)]
    )
    def test_a_sample_free_posterior_still_checks_its_arguments(self, rule):
        inst = _instance(rule=rule)
        for means in ([math.inf, "x"] * 4, [math.nan] * 8, [0.5] * 7, [1.5] * 8):
            with pytest.raises(ValidationError, match="empirical_means"):
                inst.posterior(means, 10)
        with pytest.raises(ValidationError, match="^n must"):
            inst.posterior(np.zeros(8), 0)

    @pytest.mark.parametrize("loss", list(LossKind))
    def test_grid_and_true_means_are_built_once_and_read_only(self, loss):
        inst = _instance(loss=loss)
        for array in (inst.atom_positions, inst.true_means()):
            assert not array.flags.writeable
        assert inst.atom_positions is inst.atom_positions
        assert inst.true_means() is inst.true_means()

    def test_gibbs_concentrates_with_eta(self):
        mu_hat = np.linspace(0.2, 0.8, 8)
        last = 0.0
        for eta in (0.0, 1.0, 5.0, 25.0):
            inst = _instance(rule=GibbsPosterior(eta))
            weight = inst.posterior(mu_hat, 50).weights[0]
            assert weight >= last
            last = weight
        assert last > 0.999

    @pytest.mark.parametrize("eta", [1e305, 1e308])
    def test_an_overflowing_eta_gives_the_prior_on_the_minimizers(self, eta):
        # eta * n overflows to inf at n = 1000; the minimum is taken on the prior's support
        prior = make_discrete([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        inst = LearningInstance(prior, LossKind.ABS_DISTANCE, GibbsPosterior(eta))
        mu_hat = np.array([0.1, 0.3, 0.2, 0.9, 0.2, 0.5, 0.2, 0.4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            post = inst.posterior(mu_hat, 1000)
        np.testing.assert_allclose(post.weights, [0, 0, 2 / 12, 0, 4 / 12, 0, 6 / 12, 0],
                                   rtol=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m": 0},
            {"m": 10_001},
            {"rule": FixedPosterior(make_discrete([0.5, 0.5]))},
            {"loss": LossKind.BERNOULLI, "bernoulli_means": [0.5, 0.5]},
            {"loss": LossKind.BERNOULLI, "bernoulli_means": [1.5] * 8},
            {"bernoulli_means": [0.5] * 8},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            _instance(**kwargs)

    def test_posterior_rule_must_be_fixed_or_gibbs(self):
        message = "^posterior_rule must be FixedPosterior or GibbsPosterior$"
        with pytest.raises(ValidationError, match=message):
            _instance(rule=object())

    def test_prior_support_must_match(self):
        # a config gives m and the prior apart, so learning_instance_from_dict checks them
        with pytest.raises(ValidationError, match="^prior support must equal m$"):
            learning_instance_from_dict({"m": 4, "prior": [0.5, 0.5]})
        with pytest.raises(ValidationError, match="^prior support must equal m$"):
            learning_instance_from_dict({"m": 2, "prior": [1, 2, 3], "posterior": "fixed"})


class _FixedDraw:
    """Stands in for a generator whose ``random(n)`` returns given points."""

    def __init__(self, points):
        self.points = np.asarray(points, dtype=float)

    def random(self, n):
        assert n == self.points.size
        return self.points.copy()


def _assert_sums_match_matrix(inst, n, make_rng):
    losses = oracle_losses(inst, n, make_rng())
    s1, s2 = inst.loss_sums(n, make_rng())
    np.testing.assert_allclose(s1, losses.sum(axis=0), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(s2, (losses * losses).sum(axis=0), rtol=1e-12, atol=1e-12)
    assert ((0.0 <= s2) & (s2 <= s1) & (s1 <= n)).all()
    posterior = make_discrete(np.linspace(1.0, 2.0, inst.theta_count))
    np.testing.assert_allclose(
        float(posterior.weights @ sample_variance_from_sums(s1, s2, n)),
        oracle_expected_sample_variance(losses, posterior),
        rtol=1e-10,
        atol=1e-15,
    )


class TestLossSums:
    @pytest.mark.parametrize("m, n", [(1, 2), (1, 1000), (7, 2), (50, 3), (50, 1000), (2000, 500)])
    def test_abs_sums_match_the_loss_matrix(self, m, n):
        inst = _instance(m=m)
        for seed in range(5):
            _assert_sums_match_matrix(inst, n, lambda: np.random.default_rng((seed, m)))

    def test_abs_sums_with_sample_points_on_atoms(self):
        # atoms sit at 0, 0.25, 0.5, 0.75; ties and repeats must not shift
        # the searchsorted split
        inst = _instance(m=4)
        for points in ([0.25, 0.5, 0.5, 0.0, 0.9], [0.0, 0.0], [0.75, 0.25], [0.5, 0.5, 0.5]):
            _assert_sums_match_matrix(inst, len(points), lambda: _FixedDraw(points))

    def test_bernoulli_counts_are_binomial(self):
        means = np.array([0.0, 0.1, 0.5, 0.9, 1.0])
        inst = _instance(m=5, loss=LossKind.BERNOULLI, bernoulli_means=means)
        n, draws = 50, 4000
        rng = np.random.default_rng(11)
        counts = np.empty((draws, 5))
        for t in range(draws):
            s1, s2 = inst.loss_sums(n, rng)
            np.testing.assert_array_equal(s1, s2)
            counts[t] = s1
        assert (counts == np.round(counts)).all()
        assert counts.min() >= 0 and counts.max() <= n
        np.testing.assert_array_equal(counts[:, 0], 0.0)
        np.testing.assert_array_equal(counts[:, -1], n)
        # standard error of each mean count is at most sqrt(50 / 4 / 4000) = 0.056
        np.testing.assert_allclose(counts.mean(axis=0), n * means, rtol=0, atol=0.35)

    @pytest.mark.parametrize("m, n", [(1, 2), (5, 2), (5, 50)])
    def test_bernoulli_variance_from_counts_matches_a_bit_matrix(self, m, n):
        inst = _instance(m=m, loss=LossKind.BERNOULLI)
        posterior = make_discrete(np.arange(1.0, m + 1.0))
        for seed in range(10):
            s1, s2 = inst.loss_sums(n, np.random.default_rng(seed))
            bits = (np.arange(n)[:, None] < s1[None, :]).astype(float)
            np.testing.assert_array_equal(bits.sum(axis=0), s1)
            np.testing.assert_allclose(
                float(posterior.weights @ sample_variance_from_sums(s1, s2, n)),
                oracle_expected_sample_variance(bits, posterior),
                rtol=1e-13,
                atol=1e-16,
            )

    def test_rejects_bad_n(self):
        for loss in LossKind:
            with pytest.raises(ValidationError):
                _instance(loss=loss).loss_sums(0, np.random.default_rng(0))

    def test_variance_kernel_needs_two_samples(self):
        with pytest.raises(ValidationError):
            sample_variance_from_sums(np.ones(3), np.ones(3), 1)

    @pytest.mark.parametrize("loss", list(LossKind))
    def test_coverage_never_builds_the_loss_matrix(self, loss):
        # at n = m = 2000 the (n, m) loss matrix would take 32 MB as float64 and 4 MB
        # even as bytes; the trials need only per-hypothesis sums
        n, m = 2000, 2000
        inst, config = _instance(m=m, loss=loss), BoundConfig(n=n, delta=0.05)
        list(coverage_reports(inst, config, 3, 0))  # builds the cached grid
        tracemalloc.start()
        try:
            assert len(list(coverage_reports(inst, config, 3, 0))) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * m, (loss, peak)


class TestInstanceFromDict:
    def test_full_payload(self):
        inst = learning_instance_from_dict(
            {
                "m": 3,
                "loss": "bernoulli",
                "posterior": "fixed",
                "fixed_weights": [0.2, 0.3, 0.5],
                "prior": [1, 1, 2],
                "bernoulli_means": [0.1, 0.2, 0.3],
            }
        )
        assert inst.loss_kind is LossKind.BERNOULLI
        assert isinstance(inst.posterior_rule, FixedPosterior)
        np.testing.assert_allclose(inst.prior.weights, [0.25, 0.25, 0.5], rtol=1e-15)
        np.testing.assert_allclose(inst.posterior_rule.distribution.weights, [0.2, 0.3, 0.5])

    def test_defaults(self):
        inst = learning_instance_from_dict({"m": 4})
        assert inst.loss_kind is LossKind.ABS_DISTANCE
        assert inst.posterior_rule == GibbsPosterior(5.0)
        np.testing.assert_allclose(inst.prior.weights, np.full(4, 0.25), rtol=1e-15)

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {},
            {"m": "many"},
            {"m": 4, "loss": "zero_one"},
            {"m": 4, "posterior": "map"},
            {"m": 2.5},
            {"m": 1e400},
            {"m": math.nan},
            {"m": -1},
            {"m": 4, "eta": math.inf},
            {"m": 4, "eta": math.nan},
            {"m": None},
            {"m": 4, "eta": None},
            {"m": 4, "prior": None},
            # keys the chosen posterior ignores
            {"m": 3, "posterior": "fixed", "eta": math.nan},
            {"m": 3, "posterior": "gibbs", "fixed_weights": [0, 0, 1]},
            # a null value is not an absent key: these two used to take the key's default
            {"m": 3, "posterior": "fixed", "fixed_weights": None},
            {"m": 3, "loss": "bernoulli", "bernoulli_means": None},
            {"m": 3, "loss": None},
            {"m": 3, "posterior": None},
            # a bool, alone or in a list, used to be read as the number 0 or 1
            {"m": True},
            {"m": 3, "eta": True},
            {"m": 3, "prior": [True, False, True]},
            {"m": 3, "prior": [1, True, 1]},
            {"m": 3, "posterior": "fixed", "fixed_weights": [False, False, True]},
            {"m": 2, "loss": "bernoulli", "bernoulli_means": [True, False]},
        ],
    )
    def test_rejects_malformed_payloads(self, payload):
        with pytest.raises(ValidationError):
            learning_instance_from_dict(payload)

    def test_a_bool_refusal_names_its_key(self):
        with pytest.raises(ValidationError, match="^instance config key 'eta' cannot be true$"):
            learning_instance_from_dict({"m": 3, "eta": True})
        with pytest.raises(ValidationError, match="^instance config key 'prior' cannot be false$"):
            learning_instance_from_dict({"m": 3, "prior": [1, False, 1]})

    @pytest.mark.parametrize(
        "payload",
        [
            {"m": 2, "eta": "x"},
            {"m": 2, "eta": [1.0]},
            {"m": 2, "prior": ["x", 1]},
            {"m": 2, "posterior": "fixed", "fixed_weights": "ab"},
            {"m": 2, "loss": "bernoulli", "bernoulli_means": ["x", 0.5]},
            {"m": 2, "loss": "bernoulli", "bernoulli_means": {"a": 1}},
        ],
    )
    def test_non_numeric_values_are_validation_errors(self, payload):
        with pytest.raises(ValidationError, match="must be numeric"):
            learning_instance_from_dict(payload)

    def test_non_numeric_bernoulli_means_in_the_constructor(self):
        with pytest.raises(ValidationError, match="must be numeric"):
            _instance(m=1, loss=LossKind.BERNOULLI, bernoulli_means={"a": 1})


class TestWilsonUpper:
    def test_all_failures_saturates(self):
        assert wilson_upper(50, 50) == 1.0

    def test_zero_failures_closed_form(self):
        z = 2.3263478740408408  # 99th normal percentile
        z2n = z * z / 100.0
        expected = (0.5 * z2n + z * math.sqrt(0.25 * z2n / 100.0)) / (1.0 + z2n)
        np.testing.assert_allclose(wilson_upper(0, 100), expected, rtol=1e-12)

    def test_z99_is_the_normal_quantile(self):
        assert harness._Z99 == statistics.NormalDist().inv_cdf(0.99)

    def test_monotone_in_failures(self):
        values = [wilson_upper(k, 200) for k in range(0, 201, 20)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValidationError):
            wilson_upper(5, 4)
        with pytest.raises(ValidationError):
            wilson_upper(0, 0)


class TestCoverage:
    def test_reports_are_trial_seeded(self):
        inst = _instance()
        config = BoundConfig(n=50, delta=0.05)
        full = list(coverage_reports(inst, config, trials=3, seed=7))
        third = next(iter(coverage_reports(inst, config, trials=1, seed=7)))
        # trial 0 of any run equals trial 0 of any other run with that seed
        assert full[0] == third
        assert full[1] != full[2]

    def test_run_is_deterministic(self):
        inst = _instance()
        config = BoundConfig(n=50, delta=0.05)
        assert run_coverage(inst, config, 100, 3) == run_coverage(inst, config, 100, 3)

    def test_report_accounting(self):
        inst = _instance(loss=LossKind.BERNOULLI)
        report = run_coverage(inst, BoundConfig(n=50, delta=0.05), 100, 3)
        assert all(row.trials == 100 for row in report)
        assert all(row.budget == 0.1 for row in report)
        assert [row.bound for row in report] == [
            "hoeffding_zcp",
            "mcallester",
            "emp_bernstein",
            "little_kl",
        ]
        reports = list(coverage_reports(inst, BoundConfig(n=50, delta=0.05), 100, 3))
        for row in report:
            assert row.failures == sum(r.failures()[row.bound] for r in reports)
        for row in report:
            assert row.failure_rate == row.failures / 100
            assert row.wilson_upper_99 == wilson_upper(row.failures, 100)

    def test_pass_verdicts_follow_wilson(self, monkeypatch):
        # a zero Hoeffding bound fails every trial with a positive gap, far beyond 2 delta
        monkeypatch.setattr(harness, "_hoeffding_zcp", lambda d_zcp, config: np.zeros_like(d_zcp))
        report = run_coverage(_instance(), BoundConfig(n=50, delta=0.05), 100, 3)
        verdicts = {row.bound: row.passed for row in report}
        assert verdicts["mcallester"] and not verdicts["hoeffding_zcp"]
        for row in report:
            assert row.passed == (row.wilson_upper_99 <= row.budget)
        assert not all(row.passed for row in report)

    def test_trials_floor(self):
        with pytest.raises(ValidationError):
            run_coverage(_instance(), BoundConfig(n=50, delta=0.05), 99, 0)


class TestPlainRows:
    def test_row_fields_are_python_scalars(self):
        # the CLI renders these rows as they are, so no numpy scalar may sit in one
        rows = [
            *run_coverage(_instance(), BoundConfig(n=50, delta=0.05), 100, 3),
            *ville_experiment(50, [0.1, 0.05], 1000, 0),
            *gaussian_instance_check([0.1], 0.75),
            *divergence_scaling_table(1.0, [16, 32, 64, 128]).rows,
            *analytic_inequality_suite(trials=1000, seed=0),
        ]
        for row in rows:
            for name, value in dataclasses.asdict(row).items():
                assert type(value) in (bool, int, float, str), (type(row).__name__, name, value)


class TestScalingTable:
    def test_slopes_match_theory(self):
        table = divergence_scaling_table(1.0, [16, 32, 64, 128, 256])
        assert table.expected_slopes == {"kl": 0.5, "tv": -1.0, "zcp1": -0.25}
        assert max(abs(table.slopes[k] - table.expected_slopes[k]) for k in table.slopes) < 0.01

    def test_ratio_columns_converge_to_constants(self):
        table = divergence_scaling_table(1.0, [64, 128, 256])
        last = table.rows[-1]
        np.testing.assert_allclose(last.tv_ratio, 0.5, atol=1e-12)
        np.testing.assert_allclose(last.zcp1_ratio, math.sqrt(2.0) / 2.0, atol=1e-3)

    def test_rows_satisfy_the_c_free_chain_bound(self):
        table = divergence_scaling_table(1.0, [16, 32, 64, 128])
        for row in table.rows:
            assert row.zcp1 <= zcp1_upper_bound_kl_tv(row.kl, row.tv) + 1e-9

    @pytest.mark.parametrize("d_values", [[4, 6], [4, 8], [16, 256]])
    def test_two_point_sweep_fits_the_line_through_both(self, d_values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a one-point fit warns that it is poorly conditioned
            table = divergence_scaling_table(1.0, d_values)
        first, last = table.rows
        for name in ("kl", "tv", "zcp1"):
            rise = math.log(getattr(last, name)) - math.log(getattr(first, name))
            expected = rise / (math.log(last.d) - math.log(first.d))
            assert abs(table.slopes[name] - expected) <= 1e-12, name

    @pytest.mark.parametrize("u", [1e-3, 0.25, 1.0, 2.0, 4.0])
    def test_every_divergence_is_positive_so_every_slope_is_finite(self, u):
        # ln a = d**(1.5u) >= 1 keeps KL, TV and ZCP(1) above 0 at every d
        table = divergence_scaling_table(u, [4, 16, 64, 256, 1024])
        assert all(min(row.kl, row.tv, row.zcp1) > 0.0 for row in table.rows)
        assert all(math.isfinite(slope) for slope in table.slopes.values())

    @pytest.mark.parametrize(
        "u, d_values",
        [
            (1.0, [16]),
            (1.0, [16, 15]),
            (1.0, [16, 16]),
            (1.0, [2, 16]),
            (1.0, [16, 31]),
            (0.0, [16, 32]),
            (-1.0, [16, 32]),
            (1.0, [4, 8.5]),
            (1.0, [16, math.inf]),
            (1.0, [16, math.nan]),
            (1.0, ["x", 16]),
            (math.nan, [16, 32]),
            (math.inf, [16, 32]),
            ("x", [16, 32]),
        ],
    )
    def test_validation(self, u, d_values):
        with pytest.raises(ValidationError):
            divergence_scaling_table(u, d_values)


class TestGaussianInstanceCheck:
    def test_exponent_one_row(self):
        (row,) = gaussian_instance_check([0.1], 1.0)
        assert row.kl_floor == 0.5 / 0.1 - 1.3
        assert row.kl >= 3.7
        assert 0.0 < row.tv <= 1.0
        assert row.kl_ok and row.product_ok
        assert row.product == row.tv * row.kl

    def test_exponent_three_quarters_row(self):
        (row,) = gaussian_instance_check([0.1], 0.75)
        assert row.kl_floor == 0.5 / math.sqrt(0.1) - 1.22
        assert row.product == row.kl * math.sqrt(row.tv)
        assert row.kl_ok and row.product_ok

    @pytest.mark.parametrize(
        "p_values, exponent",
        [([], 1.0), ([0.6], 1.0), ([0.001], 1.0), ([0.1], 0.5), (["x"], 1.0), ([math.nan], 1.0),
         ([math.inf], 1.0), ([0.1], math.nan)],
    )
    def test_validation(self, p_values, exponent):
        with pytest.raises(ValidationError):
            gaussian_instance_check(p_values, exponent)


class TestVilleExperiment:
    def test_small_run_respects_the_budget(self):
        rows = ville_experiment(100, [0.1, 0.05], 1000, seed=0)
        for row, delta in zip(rows, (0.1, 0.05)):
            assert row.delta == delta
            assert row.paths == 1000
            assert row.rate == row.crossings / 1000
            assert row.wilson_upper_99 == wilson_upper(row.crossings, 1000)
            assert row.passed

    def test_deterministic_in_seed(self):
        assert ville_experiment(50, [0.1], 1000, 5) == ville_experiment(50, [0.1], 1000, 5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0, "delta_values": [0.1], "paths": 1000},
            {"n": 10, "delta_values": [0.1], "paths": 999},
            {"n": 10, "delta_values": [], "paths": 1000},
            {"n": 10, "delta_values": [1.0], "paths": 1000},
            {"n": 10, "delta_values": [0.0], "paths": 1000},
            {"n": 10, "delta_values": [-0.1], "paths": 1000},
            {"n": 10, "delta_values": [-math.inf], "paths": 1000},
            {"n": math.inf, "delta_values": [0.1], "paths": 1000},
            {"n": 2.5, "delta_values": [0.1], "paths": 1000},
            {"n": "x", "delta_values": [0.1], "paths": 1000},
            {"n": 10, "delta_values": [0.1], "paths": math.inf},
            {"n": 10, "delta_values": [0.1], "paths": 1000.5},
            {"n": 10, "delta_values": [math.nan], "paths": 1000},
            {"n": 10, "delta_values": [math.inf], "paths": 1000},
            {"n": 10, "delta_values": ["x"], "paths": 1000},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            ville_experiment(seed=0, **kwargs)


def _path_by_path_crossings(n, deltas, paths, seed):
    """Crossing counts from one public KT wealth path per sample path."""
    rows = (mean_zero_coins(n, seed, path) for path in range(paths))
    peaks = [kt_bettor(row).log_wealth[1:].max() for row in rows]
    return [sum(peak >= -math.log(delta) for peak in peaks) for delta in deltas]


class TestVilleEngine:
    DELTAS = (0.5, 0.2, 0.1, 0.05)

    # around a boundary of the 4-path blocks that 4,096 entries gave at n = 1000
    @pytest.mark.parametrize("paths", [1003, 1004, 1005])
    def test_block_boundary_matches_path_by_path(self, paths):
        rows = ville_experiment(1000, self.DELTAS, paths, seed=1)
        assert [row.crossings for row in rows] == _path_by_path_crossings(
            1000, self.DELTAS, paths, 1
        )

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_ville_block_boundary_matches_path_by_path(self, offset):
        rows_per_block = harness._VILLE_BLOCK_ENTRIES // 1000
        paths = (1000 // rows_per_block + 1) * rows_per_block + offset  # at least 1,000 paths
        rows = ville_experiment(1000, self.DELTAS, paths, seed=1)
        assert [row.crossings for row in rows] == _path_by_path_crossings(
            1000, self.DELTAS, paths, 1
        )

    def test_one_path_per_block(self, monkeypatch):
        monkeypatch.setattr(harness, "_VILLE_BLOCK_ENTRIES", 1)
        rows = ville_experiment(50, self.DELTAS, 1000, seed=2)
        assert [row.crossings for row in rows] == _path_by_path_crossings(50, self.DELTAS, 1000, 2)

    def test_paths_longer_than_a_block(self):
        n = harness._VILLE_BLOCK_ENTRIES + 904  # each block holds one path
        rows = ville_experiment(n, self.DELTAS, 1000, seed=3)
        assert [row.crossings for row in rows] == _path_by_path_crossings(n, self.DELTAS, 1000, 3)

    @pytest.mark.parametrize("n", [1, 2, 1000])
    def test_block_kt_rows_are_the_public_path_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        block = np.array(
            [mean_zero_coins(n, 4, path) for path in range(5)]
            + [rng.choice([-1.0, 1.0], n), np.zeros(n), np.ones(n), rng.uniform(-1.0, 1.0, n)]
        )
        bets, log_wealth = betting._kt_rows(block)
        for row, row_bets, row_log_wealth in zip(block, bets, log_wealth):
            trace = betting.kt_bettor(row)
            assert row_log_wealth.tobytes() == trace.log_wealth.tobytes()
            assert row_bets.tobytes() == trace.bets.tobytes()


class TestTightnessComparison:
    def test_ratio_decays_with_dimension(self):
        config = BoundConfig(n=10**6, delta=0.05)
        rows = tightness_comparison(1.0, [2**k for k in range(6, 13, 2)], config)
        ratios = [row.ratio for row in rows]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[0] > 2.0 and ratios[-1] < 1.2

    def test_identical_pair_isolates_the_constants(self):
        config = BoundConfig(n=10**6, delta=0.05)
        hoeffding, mcallester = hoeffding_zcp_bound(0.0, config), mcallester_baseline(0.0, config)
        assert mcallester < hoeffding < 0.01
        assert hoeffding / mcallester > 1.0

    def test_tiny_sample_is_vacuous_on_both_sides(self):
        (row,) = tightness_comparison(1.0, [64], BoundConfig(n=4, delta=0.05))
        assert row.hoeffding_zcp == row.mcallester == 1.0
        assert row.ratio == 1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            tightness_comparison(1.0, [63], BoundConfig(n=100, delta=0.05))
        with pytest.raises(ValidationError):
            tightness_comparison(1.0, [], BoundConfig(n=100, delta=0.05))


def _asymptotics_oracle(seed):
    """(slack, holds) of each (pair, n) of the asymptotics fuzz, one checked pair at a time."""
    rng = np.random.default_rng((seed, 1))
    for index in range(300):
        size = int(rng.integers(2, 65))
        p = make_discrete(rng.random(size) + 1e-3)
        q = make_discrete(rng.random(size) + 1e-3)
        for n in (25, 100, 10_000):
            check = asymptotics_inequality_check(p, q, n)
            yield check.a_value - check.b_over_l, f"pair={index},n={n}", check.holds


def _betting_oracle(seed):
    """(slack, length) of each betting fuzz sequence, through the checked public calls."""
    rng = np.random.default_rng((seed, 2))
    for _ in range(300):
        n = int(rng.integers(1, 257))
        coins = rng.choice([-1.0, 1.0], n) * rng.random(n)
        quad_slack = max_log_wealth(coins)[1] - wealth_quadratic_lower(coins)
        bias = rng.uniform(0.1, 0.9)
        trace = kt_bettor(np.where(rng.random(n) < bias, 1.0, -1.0))
        yield min(quad_slack, math.log(2.0 * math.sqrt(trace.n)) - trace.log_regret), trace.n


def _first_worst(slacks_and_labels):
    """The first smallest finite slack and its label, scanning in draw order."""
    worst, at = math.inf, ""
    for slack, label in slacks_and_labels:
        if math.isfinite(slack) and slack < worst:
            worst, at = slack, label
    return worst, at


_INJECTED = """
import sys
from zcp_paclab import bounds, cli
complexity = bounds._complexity
bounds._complexity = lambda *args: complexity(*args) * float(sys.argv[1])
sys.exit(cli.run(["self-check", "--trials", "1000", "--seed", sys.argv[2]]))
"""


class TestSelfCheckFuzz:
    """The fuzz rows of self_check_suite against one checked call per draw.  The asymptotics
    blocks give each pair the bits of a 1-d call only if numpy sums each row of a C-contiguous
    2-d array as it sums that row alone."""

    @pytest.mark.parametrize("seed", range(21))
    def test_asymptotics_blocks_match_one_pair_calls(self, seed):
        slack, violated = harness._asymptotics_fuzz(np.random.default_rng((seed, 1)))
        expected = list(_asymptotics_oracle(seed))
        assert [s.hex() for s in slack.ravel().tolist()] == [s.hex() for s, _, _ in expected]
        assert violated.ravel().tolist() == [not holds for _, _, holds in expected]

    @pytest.mark.parametrize("seed", range(3))
    def test_betting_rows_match_the_checked_path(self, seed):
        slack, lengths = harness._betting_fuzz(np.random.default_rng((seed, 2)))
        expected = list(_betting_oracle(seed))
        assert [s.hex() for s in slack.tolist()] == [s.hex() for s, _ in expected]
        assert lengths.tolist() == [n for _, n in expected]
        worst, _ = _first_worst((s, "") for s, _ in expected)
        violations = sum(s < -1e-12 for s, _ in expected)
        row = harness.self_check_suite(trials=100, seed=seed)[4]
        assert row == CheckRow("betting_invariants", worst, violations, violations == 0)

    def test_suite_extends_the_analytic_rows(self):
        rows = harness.self_check_suite(trials=500, seed=4)
        assert rows[:3] == analytic_inequality_suite(trials=500, seed=4)
        assert [row.check for row in rows[3:]] == ["asymptotics_surrogate", "betting_invariants"]
        assert all(row.passed for row in rows)

    def test_tied_worst_slacks_name_the_first_pair(self, monkeypatch, caplog):
        # with TV and every ZCP patched to 0, A_n = 2 and B_n / L(n) depends on n alone, so all
        # pairs tie at each n; tripled, B_n / L(n) exceeds 2 at n = 25 and 100
        complexity = bounds._complexity
        monkeypatch.setattr(bounds, "_complexity", lambda *args: complexity(*args) * 3.0)
        monkeypatch.setattr(bounds, "_tv_zcp_rows",
                            lambda lp, lq, *scales: (np.zeros(lp.shape[:-1]),) * (len(scales) + 1))
        with caplog.at_level(logging.WARNING, logger="zcp_paclab.harness"):
            row = harness.self_check_suite(trials=100, seed=0)[3]
        assert row.violations == 600
        assert caplog.messages == ["self-check: asymptotics_surrogate violated at pair=0,n=25"]

    def test_injected_violation_names_the_first_worst_pair(self, monkeypatch, caplog):
        factor, seed = 3.0, 7
        complexity = bounds._complexity
        monkeypatch.setattr(bounds, "_complexity", lambda *args: complexity(*args) * factor)
        expected = list(_asymptotics_oracle(seed))
        worst, at = _first_worst((s, label) for s, label, _ in expected)
        violations = sum(not holds for _, _, holds in expected)
        assert 0 < violations < len(expected) and at != "pair=0,n=25"
        with caplog.at_level(logging.WARNING, logger="zcp_paclab.harness"):
            row = harness.self_check_suite(trials=100, seed=seed)[3]
        assert row == CheckRow("asymptotics_surrogate", worst, violations, False)
        assert caplog.messages == [f"self-check: asymptotics_surrogate violated at {at}"]
        # without a configured handler the warning reaches stderr as the bare message
        src = str(Path(zcp_paclab.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _INJECTED, str(factor), str(seed)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"self-check: asymptotics_surrogate violated at {at}",
            f"self-check failure: asymptotics_surrogate worst_slack={cli._fmt(worst)}",
        ]
