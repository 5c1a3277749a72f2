"""Generalization bounds, the asymptotic surrogate, and the lemma fuzz suite."""

import math
import warnings

import numpy as np
import pytest

from conftest import random_pair
from zcp_paclab import (
    AsymptoticsCheck,
    BoundConfig,
    BoundReport,
    ValidationError,
    analytic_inequality_suite,
    asymptotics_inequality_check,
    complexity_term,
    empirical_bernstein_bound,
    expected_sample_variance,
    fenchel_dual_bound,
    from_log_weights,
    hoeffding_zcp_bound,
    little_kl_mean_bound,
    make_discrete,
    mcallester_baseline,
)
from zcp_paclab.bounds import _gaussian_potential_conjugate, _lambert_w, _max_linear_log_barrier


class TestBoundConfig:
    def test_scales(self):
        config = BoundConfig(n=200, delta=0.1)
        np.testing.assert_allclose(config.thm1_c, math.sqrt(400.0) / 0.1, rtol=1e-15)
        np.testing.assert_allclose(
            config.thm2_c, math.sqrt(2.0) * 200.0**2.5 / 0.1, rtol=1e-15
        )
        assert config.alpha == 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0, "delta": 0.1},
            {"n": 2.5, "delta": 0.1},
            {"n": 10, "delta": 0.0},
            {"n": 10, "delta": 1.0},
            {"n": 10, "delta": math.nan},
            {"n": 10, "delta": 0.1, "alpha": 1.0},
            {"n": 10, "delta": 0.1, "alpha": math.nan},
            {"n": 10, "delta": "x"},
            {"n": math.inf, "delta": 0.05},
            {"n": 20, "delta": 0.05, "alpha": math.inf},
            {"n": "x", "delta": 0.05},
            {"n": math.nan, "delta": 0.05},
            {"n": 10, "delta": math.inf},
            {"n": 10, "delta": 0.1, "alpha": "x"},
            # the complexity term's constant 2 e^2 sqrt(n) (1 + 4 n^2/delta) overflows
            {"n": 1000, "delta": 1e-300},
            {"n": 1000, "delta": 1e-305},
            {"n": 2, "delta": 1e-308},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            BoundConfig(**kwargs)

    def test_a_delta_too_small_for_n_names_both(self):
        with pytest.raises(ValidationError, match=r"^delta=1e-300 is too small for n=1000$"):
            BoundConfig(n=1000, delta=1e-300)
        with warnings.catch_warnings():  # numpy scalars overflow with no warning either
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                BoundConfig(n=np.int64(1000), delta=np.float64(1e-300))
        config = BoundConfig(n=1000, delta=1e-290)
        assert math.isfinite(config.thm2_c) and math.isfinite(complexity_term(0.0, 0.0, config))


class TestHoeffdingZcp:
    def test_zero_divergence_closed_form(self):
        config = BoundConfig(n=10_000, delta=0.05)
        expected = (2.0 + math.sqrt(math.log(2.0 * 100.0 / 0.05))) / 100.0
        np.testing.assert_allclose(hoeffding_zcp_bound(0.0, config), expected, rtol=1e-15)

    def test_monotone_in_divergence(self):
        config = BoundConfig(n=10_000, delta=0.05)
        values = [hoeffding_zcp_bound(d, config) for d in (0.0, 0.5, 1.0, 5.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_caps_at_one(self):
        assert hoeffding_zcp_bound(10.0, BoundConfig(n=4, delta=0.05)) == 1.0

    def test_rejects_negative_divergence(self):
        with pytest.raises(ValidationError):
            hoeffding_zcp_bound(-0.1, BoundConfig(n=100, delta=0.05))


class TestMcAllester:
    def test_closed_form(self):
        config = BoundConfig(n=10_000, delta=0.05)
        expected = math.sqrt(math.log(2.0 * 100.0 / 0.05) / 20_000.0)
        np.testing.assert_allclose(mcallester_baseline(0.0, config), expected, rtol=1e-15)
        np.testing.assert_allclose(
            mcallester_baseline(3.0, config),
            math.sqrt((3.0 + math.log(4000.0)) / 20_000.0),
            rtol=1e-15,
        )

    def test_caps_at_one(self):
        assert mcallester_baseline(100.0, BoundConfig(n=2, delta=0.05)) == 1.0


class TestComplexityTerm:
    def test_zero_zcp_leaves_only_the_constant(self):
        config = BoundConfig(n=100, delta=0.05)
        expected = math.log(2.0 * math.e**2 * 10.0 * (1.0 + 4.0e4 / 0.05)) + 0.05 / (
            100.0 * 101.0
        )
        np.testing.assert_allclose(complexity_term(0.0, 0.0, config), expected, rtol=1e-15)
        # a zero divergence silences the main term even for huge d_alpha
        np.testing.assert_allclose(
            complexity_term(1e8, 0.0, config), expected, rtol=1e-15
        )

    def test_full_formula_at_alpha_two(self):
        config = BoundConfig(n=100, delta=0.05, alpha=2.0)
        log_sum = math.log(4.0 * 1e4 / 0.05) + 2.0 * math.log(100.0) + 0.7
        expected = (
            math.sqrt(0.5) * math.sqrt(log_sum) * 1.3
            + math.log(2.0 * math.e**2 * 10.0 * (1.0 + 4.0e4 / 0.05))
            + 0.05 / (100.0 * 101.0)
        )
        np.testing.assert_allclose(complexity_term(0.7, 1.3, config), expected, rtol=1e-15)

    def test_alpha_near_one_inflates_the_log_factor(self):
        # alpha = 1 + 1/ln(n) turns the Renyi coefficient into 1 + ln(n)
        n = 1000
        config = BoundConfig(n=n, delta=0.05, alpha=1.0 + 1.0 / math.log(n))
        log_sum = math.log(4.0 * n * n / 0.05) + (1.0 + math.log(n)) * math.log(n) + 0.2
        expected = (
            math.sqrt(0.5) * math.sqrt(log_sum) * 0.4
            + math.log(2.0 * math.e**2 * math.sqrt(n) * (1.0 + 4.0 * n * n / 0.05))
            + 0.05 / (n * (n + 1.0))
        )
        np.testing.assert_allclose(complexity_term(0.2, 0.4, config), expected, rtol=1e-14)

    def test_monotone_in_both_divergences(self):
        config = BoundConfig(n=500, delta=0.1)
        assert complexity_term(1.0, 2.0, config) <= complexity_term(3.0, 2.0, config)
        assert complexity_term(1.0, 2.0, config) <= complexity_term(1.0, 4.0, config)

    def test_requires_n_at_least_two(self):
        with pytest.raises(ValidationError):
            complexity_term(0.0, 0.0, BoundConfig(n=1, delta=0.05))


class TestEmpiricalBernstein:
    def test_known_value(self):
        np.testing.assert_allclose(
            empirical_bernstein_bound(5.0, 0.1, 10_000),
            1.0 / 99.9 + 10.0 / 9990.0,
            rtol=1e-15,
        )

    def test_vacuous_when_budget_swallows_n(self):
        assert empirical_bernstein_bound(50.0, 0.1, 100) == 1.0
        assert empirical_bernstein_bound(50.0, 0.1, 99) == 1.0

    def test_zero_variance_fast_rate(self):
        # only the 2 Comp / (n - 2 Comp) term survives
        np.testing.assert_allclose(
            empirical_bernstein_bound(5.0, 0.0, 10_000), 10.0 / 9990.0, rtol=1e-15
        )

    def test_validation(self):
        with pytest.raises(ValidationError):
            empirical_bernstein_bound(-1.0, 0.1, 100)
        with pytest.raises(ValidationError):
            empirical_bernstein_bound(1.0, 0.1, 1)


class TestExpectedSampleVariance:
    def test_matches_pairwise_double_sum(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            n, m = int(rng.integers(2, 12)), int(rng.integers(1, 6))
            losses = rng.random((n, m))
            posterior = make_discrete(rng.random(m) + 0.1)
            slow = 0.0
            for i in range(n):
                for j in range(n):
                    slow += float(posterior.weights @ (losses[i] - losses[j]) ** 2)
            slow /= 2.0 * n * (n - 1.0)
            np.testing.assert_allclose(
                expected_sample_variance(losses, posterior), slow, rtol=0, atol=1e-10
            )

    def test_two_sample_coin_flip(self):
        losses = np.array([[0.0], [1.0]])
        assert expected_sample_variance(losses, make_discrete([1.0])) == 0.5

    def test_constant_losses_have_zero_variance(self):
        losses = np.full((5, 3), 0.5)
        posterior = make_discrete([0.2, 0.3, 0.5])
        assert expected_sample_variance(losses, posterior) == 0.0
        # non-dyadic constants cancel only up to rounding; the clip keeps
        # the result from ever dipping below zero
        assert 0.0 <= expected_sample_variance(np.full((5, 3), 0.4), posterior) < 1e-15

    @pytest.mark.parametrize(
        "losses",
        [
            np.array([0.5, 0.5]),
            np.array([[0.5, 0.5]]),
            np.array([[0.5], [1.5]]),
            np.array([[0.5, 0.1], [0.2, 0.3]]),
        ],
    )
    def test_validation(self, losses):
        with pytest.raises(ValidationError):
            expected_sample_variance(losses, make_discrete([1.0]))


class TestLittleKlMeanBound:
    def test_half_budget_from_zero(self):
        # kl(0, q) = -ln(1 - q), so budget ln(2) lands exactly on 1/2
        np.testing.assert_allclose(
            little_kl_mean_bound(0.0, 100.0 * math.log(2.0), 100), 0.5, rtol=1e-12
        )

    def test_infinite_budget_saturates(self):
        assert little_kl_mean_bound(0.3, math.inf, 100) == 1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            little_kl_mean_bound(1.5, 1.0, 100)
        with pytest.raises(ValidationError):
            little_kl_mean_bound(0.5, 1.0, 1)


class TestBoundReport:
    @staticmethod
    def _report(**overrides):
        base = dict(
            d_kl=0.1,
            d_tv=0.05,
            d_alpha=0.2,
            d_zcp_thm1=0.3,
            d_zcp_thm2=0.4,
            comp_n=20.0,
            hoeffding_zcp=0.2,
            mcallester=0.15,
            emp_bernstein=0.1,
            little_kl_bound=0.6,
            realized_gap=0.01,
            v_hat=0.02,
            p_hat_mean=0.45,
            p_mean=0.5,
        )
        base.update(overrides)
        return BoundReport(**base)

    def test_no_failures_when_bounds_hold(self):
        assert not any(self._report().failures().values())

    def test_each_failure_flag(self):
        assert self._report(realized_gap=0.25).failures() == {
            "hoeffding_zcp": True,
            "mcallester": True,
            "emp_bernstein": True,
            "little_kl": False,
        }
        # the Bernstein bound is two-sided: a large negative gap trips it alone
        assert self._report(realized_gap=-0.12).failures() == {
            "hoeffding_zcp": False,
            "mcallester": False,
            "emp_bernstein": True,
            "little_kl": False,
        }
        assert self._report(p_mean=0.7).failures()["little_kl"] is True


class TestAsymptoticsCheck:
    def test_identical_pair_reduces_to_constant(self):
        p = make_discrete([0.25, 0.25, 0.5])
        check = asymptotics_inequality_check(p, p, 100)
        assert check.a_value == 2.0
        assert 0.0 < check.b_over_l < 2.0
        assert check.holds

    def test_ratio_decreases_with_n(self):
        p = make_discrete([0.7, 0.2, 0.1])
        q = make_discrete([0.3, 0.3, 0.4])
        ratios = [
            asymptotics_inequality_check(p, q, n).b_over_l
            / asymptotics_inequality_check(p, q, n).a_value
            for n in (25, 100, 1000, 10_000)
        ]
        assert all(b <= a for a, b in zip(ratios, ratios[1:]))
        assert all(r <= 1.0 for r in ratios)

    def test_non_dominated_pair_is_vacuous(self):
        p = make_discrete([0.5, 0.5, 0.0])
        q = make_discrete([0.0, 0.5, 0.5])
        check = asymptotics_inequality_check(p, q, 100)
        assert check == AsymptoticsCheck(math.inf, math.inf, True)

    def test_small_n_rejected(self):
        p = make_discrete([0.5, 0.5])
        with pytest.raises(ValidationError):
            asymptotics_inequality_check(p, p, 24)

    def test_near_identical_pairs_hold(self):
        # Renyi of P against P or a 1e-9 log-space perturbation rounds near 0;
        # unclamped, about one call in six was refused for a negative d_alpha
        rng = np.random.default_rng(0)
        for _ in range(300):
            size = int(rng.integers(2, 65))
            p = make_discrete(rng.random(size) + 1e-3)
            q = from_log_weights(p.log_weights + 1e-9 * rng.standard_normal(size))
            for a, b in ((p, p), (p, q), (q, p)):
                for n in (25, 100, 10_000):
                    assert asymptotics_inequality_check(a, b, n).holds

    def test_holds_on_fuzzed_pairs(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            p, q = random_pair(rng, max_support=32)
            for n in (25, 100, 10_000):
                assert asymptotics_inequality_check(p, q, n).holds


class TestFenchelDual:
    def test_zero_point_gives_minus_b(self):
        assert fenchel_dual_bound(2.0, 1.5, 0.0) == -1.5

    def test_known_value(self):
        np.testing.assert_allclose(
            fenchel_dual_bound(2.0, 1.0, 1.0),
            math.sqrt(2.0 * math.log(3.0)) - 1.0,
            rtol=1e-14,
        )

    def test_dominates_grid_supremum(self):
        xs = np.linspace(-20.0, 20.0, 400_001)
        for a, b, y in [(2.0, 1.0, 1.0), (0.5, 3.0, -4.0), (4.0, 0.2, 7.0), (1.0, 1.0, 0.3)]:
            grid_sup = float((xs * y - b * np.exp(xs * xs / (2.0 * a))).max())
            assert fenchel_dual_bound(a, b, y) >= grid_sup - 1e-9

    def test_validation(self):
        with pytest.raises(ValidationError):
            fenchel_dual_bound(0.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            fenchel_dual_bound(1.0, -1.0, 1.0)
        with pytest.raises(ValidationError):
            fenchel_dual_bound(1.0, 1.0, math.inf)


class TestPrivateHelpers:
    def test_conjugate_matches_grid(self):
        xs = np.linspace(-20.0, 20.0, 400_001)
        for a, b, y in [(2.0, 1.0, 1.0), (0.5, 3.0, -4.0), (4.0, 0.2, 7.0)]:
            grid_sup = float((xs * y - b * np.exp(xs * xs / (2.0 * a))).max())
            exact = float(_gaussian_potential_conjugate(a, b, y))
            assert grid_sup - 1e-9 <= exact <= grid_sup + 1e-6

    def test_lambert_w_is_within_4_ulps_of_the_root(self):
        rng = np.random.default_rng(31)
        z = np.concatenate([[0.0], 10.0 ** rng.uniform(-300.0, 6.0, 100_000)])
        w = _lambert_w(z)
        # w e^w - z changes sign across [w - 4 ulp, w + 4 ulp]; the residual at w
        # itself is no test, as rounding w e^w costs about (1 + w) ulps of z
        below, above = w - 4 * np.spacing(w), w + 4 * np.spacing(w)
        assert (below * np.exp(below) <= z).all()
        assert (above * np.exp(above) >= z).all()
        assert _lambert_w(0.0) == 0.0
        assert _lambert_w(math.e) == 1.0

    def test_barrier_max_matches_grid(self):
        betas = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, 2_000_001)
        for a, b in [(0.7, 0.5), (-1.2, 2.0), (3.0, 0.0), (0.0, 1.0)]:
            with np.errstate(divide="ignore"):
                grid_max = float(
                    (a * betas + b * (np.log1p(-np.abs(betas)) + np.abs(betas))).max()
                )
            exact = float(_max_linear_log_barrier(a, b))
            assert grid_max - 1e-12 <= exact <= grid_max + 1e-8


class TestAnalyticInequalitySuite:
    def test_no_violations_and_tight_slacks(self):
        rows = analytic_inequality_suite(trials=20_000, seed=7)
        assert all(row.passed for row in rows)
        assert [row.check for row in rows] == [
            "fan_log_quadratic",
            "max_linear_log_barrier",
            "fenchel_dual",
        ]
        for row in rows:
            assert row.violations == 0
            assert row.worst_slack >= -1e-9

    def test_deterministic_for_fixed_seed(self):
        first = analytic_inequality_suite(trials=5000, seed=11)
        second = analytic_inequality_suite(trials=5000, seed=11)
        assert first == second

    def test_trials_validation(self):
        with pytest.raises(ValidationError):
            analytic_inequality_suite(trials=0)
