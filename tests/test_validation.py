"""Every public number argument goes through one check, and every array argument through its twin.

A number argument that is non-numeric, NaN, outside its documented interval
or, for an integer, not integral raises ValidationError.  Invalid values for
functions that already have an invalid-input parametrization sit next to it
in their module's tests; this file holds the rest as one table.  Each entry
of an array argument follows the same rules, and an array of the wrong shape
is refused too; a second table holds every array argument.
"""

import dataclasses
import math

import numpy as np
import pytest

import zcp_paclab
from zcp_paclab import (
    BoundConfig,
    GibbsPosterior,
    LearningInstance,
    LossKind,
    ValidationError,
    analytic_inequality_suite,
    asymptotics_inequality_check,
    complexity_term,
    DiscreteDistribution,
    coverage_reports,
    divergence_gaussian,
    empirical_bernstein_bound,
    fenchel_dual_bound,
    gaussian_instance,
    from_log_weights,
    gaussian_instance_check,
    hoeffding_zcp_bound,
    kt_bettor,
    learning_instance_from_dict,
    little_kl,
    little_kl_inverse_upper,
    little_kl_mean_bound,
    make_discrete,
    max_log_wealth,
    mcallester_baseline,
    mean_zero_coins,
    multivariate_instance,
    renyi_discrete,
    run_coverage,
    sample_variance_from_sums,
    tightness_comparison,
    ville_experiment,
    wealth_quadratic_lower,
    wilson_upper,
    zcp1_upper_bound_kl_tv,
    zcp_c_shift_bound,
    zcp_c_shift_upper_bound,
    zcp_discrete,
    zcp_kl_tv_upper_bound,
    zcp_upper_bound_kl_tv,
)
from zcp_paclab import betting, bounds, distributions, divergences, errors, harness
from zcp_paclab.errors import _floats, _integer, _real

INF, NAN = math.inf, math.nan
_P = make_discrete([0.5, 0.3, 0.2])
_Q = make_discrete([0.2, 0.3, 0.5])
_PAIR = gaussian_instance(0.1, 1.0)
_CONFIG = BoundConfig(100, 0.05)


def _instance():
    return LearningInstance(make_discrete([1.0, 1.0]), LossKind.ABS_DISTANCE, GibbsPosterior(1.0))


# Values every real argument refuses, whatever its interval; None is never
# read as "use the default"
_NOT_REAL = ("x", NAN, None)
# An integer argument also refuses infinities and 2.5
_NOT_INT = ("x", NAN, None, INF, -INF, 2.5)
# A count that sizes an array also refuses values above errors._MAX_COUNT, 10**18 + 1 among
# them though its float is 1e18
_NOT_COUNT = (*_NOT_INT, 10**18 + 1, 2**63)

# name -> (call taking the value under test, values it must refuse)
_TABLE = {
    "GibbsPosterior.eta": (GibbsPosterior, (*_NOT_REAL, INF, -INF)),
    "learning_instance_from_dict.m": (lambda v: learning_instance_from_dict({"m": v}), _NOT_INT),
    "LearningInstance.loss_sums.n": (
        lambda v: _instance().loss_sums(v, np.random.default_rng(0)), _NOT_COUNT
    ),
    "LearningInstance.posterior.n": (lambda v: _instance().posterior([0.5, 0.5], v), _NOT_INT),
    "renyi_discrete.alpha": (lambda v: renyi_discrete(_P, _Q, v), (*_NOT_REAL, INF, -INF)),
    "zcp_discrete.c": (lambda v: zcp_discrete(_P, _Q, v), (*_NOT_REAL, INF, -INF)),
    "little_kl.p_hat": (lambda v: little_kl(v, 0.5), (*_NOT_REAL, INF, -INF)),
    "little_kl.q": (lambda v: little_kl(0.5, v), (*_NOT_REAL, INF, -INF)),
    "little_kl_inverse_upper.p_hat": (
        lambda v: little_kl_inverse_upper(v, 0.1), (*_NOT_REAL, INF, -INF)
    ),
    "little_kl_inverse_upper.budget": (
        lambda v: little_kl_inverse_upper(0.5, v), (*_NOT_REAL, -INF)
    ),
    "zcp_upper_bound_kl_tv.kl": (lambda v: zcp_upper_bound_kl_tv(v, 0.5, 1.0), (*_NOT_REAL, -INF)),
    "zcp_upper_bound_kl_tv.tv": (
        lambda v: zcp_upper_bound_kl_tv(0.1, v, 1.0), (*_NOT_REAL, INF, -INF)
    ),
    "zcp_upper_bound_kl_tv.c": (
        lambda v: zcp_upper_bound_kl_tv(0.1, 0.5, v), (*_NOT_REAL, INF, -INF)
    ),
    "zcp_c_shift_bound.zcp_at_1": (lambda v: zcp_c_shift_bound(v, 0.5, 1.0), (*_NOT_REAL, -INF)),
    "zcp_c_shift_bound.c": (lambda v: zcp_c_shift_bound(0.1, 0.5, v), (*_NOT_REAL, INF, -INF)),
    "zcp_c_shift_upper_bound.zcp_at_1": (
        lambda v: zcp_c_shift_upper_bound(v, 0.5, 1.0), (*_NOT_REAL, -INF)
    ),
    "zcp_c_shift_upper_bound.tv": (
        lambda v: zcp_c_shift_upper_bound(0.1, v, 1.0), (*_NOT_REAL, INF, -INF)
    ),
    "zcp_kl_tv_upper_bound.kl": (lambda v: zcp_kl_tv_upper_bound(v, 0.5, 1.0), (*_NOT_REAL, -INF)),
    "zcp_kl_tv_upper_bound.c": (
        lambda v: zcp_kl_tv_upper_bound(0.1, 0.5, v), (*_NOT_REAL, INF, -INF)
    ),
    "zcp1_upper_bound_kl_tv.kl": (lambda v: zcp1_upper_bound_kl_tv(v, 0.5), (*_NOT_REAL, -INF)),
    "zcp1_upper_bound_kl_tv.tv": (
        lambda v: zcp1_upper_bound_kl_tv(0.1, v), (*_NOT_REAL, INF, -INF)
    ),
    "divergence_gaussian.alpha": (
        lambda v: divergence_gaussian(_PAIR, "renyi", alpha=v), (*_NOT_REAL, INF, -INF)
    ),
    "divergence_gaussian.c": (
        lambda v: divergence_gaussian(_PAIR, "zcp", c=v), (*_NOT_REAL, INF, -INF)
    ),
    "mean_zero_coins.n": (lambda v: mean_zero_coins(v, 0), _NOT_COUNT),
    "mean_zero_coins.seed": (lambda v: mean_zero_coins(4, v), (*_NOT_INT, -1)),
    "mean_zero_coins.path": (lambda v: mean_zero_coins(4, 0, v), (*_NOT_INT, -1)),
    "hoeffding_zcp_bound.d_zcp": (lambda v: hoeffding_zcp_bound(v, _CONFIG), (*_NOT_REAL, -INF)),
    "mcallester_baseline.d_kl": (lambda v: mcallester_baseline(v, _CONFIG), (*_NOT_REAL, -INF)),
    "complexity_term.d_alpha": (lambda v: complexity_term(v, 0.1, _CONFIG), (*_NOT_REAL, -INF)),
    "complexity_term.d_zcp": (lambda v: complexity_term(0.1, v, _CONFIG), (*_NOT_REAL, -INF)),
    "BoundConfig.n": (lambda v: BoundConfig(v, 0.05), _NOT_COUNT),
    "complexity_term.config.n": (
        lambda v: complexity_term(0.1, 0.1, BoundConfig(v, 0.05)), (2.5, INF, 1)
    ),
    "empirical_bernstein_bound.comp": (
        lambda v: empirical_bernstein_bound(v, 0.1, 100), (*_NOT_REAL, -INF)
    ),
    "empirical_bernstein_bound.v_hat": (
        lambda v: empirical_bernstein_bound(1.0, v, 100), (*_NOT_REAL, -INF)
    ),
    "empirical_bernstein_bound.n": (lambda v: empirical_bernstein_bound(1.0, 0.1, v), _NOT_INT),
    "sample_variance_from_sums.n": (
        lambda v: sample_variance_from_sums([1.0], [1.0], v), _NOT_INT
    ),
    "little_kl_mean_bound.p_hat_mean": (
        lambda v: little_kl_mean_bound(v, 1.0, 100), (*_NOT_REAL, INF, -INF)
    ),
    "little_kl_mean_bound.comp": (lambda v: little_kl_mean_bound(0.5, v, 100), (*_NOT_REAL, -INF)),
    "little_kl_mean_bound.n": (lambda v: little_kl_mean_bound(0.5, 1.0, v), _NOT_INT),
    "asymptotics_inequality_check.n": (
        lambda v: asymptotics_inequality_check(_P, _Q, v), (*_NOT_INT, 25.5)
    ),
    "fenchel_dual_bound.a": (lambda v: fenchel_dual_bound(v, 1.0, 1.0), (*_NOT_REAL, INF, -INF)),
    "fenchel_dual_bound.b": (lambda v: fenchel_dual_bound(1.0, v, 1.0), (*_NOT_REAL, INF, -INF)),
    "fenchel_dual_bound.y": (lambda v: fenchel_dual_bound(1.0, 1.0, v), (*_NOT_REAL, INF, -INF)),
    "analytic_inequality_suite.trials": (
        lambda v: analytic_inequality_suite(trials=v), _NOT_COUNT
    ),
    "analytic_inequality_suite.seed": (
        lambda v: analytic_inequality_suite(trials=10, seed=v), (*_NOT_INT, -1)
    ),
    "wilson_upper.failures": (lambda v: wilson_upper(v, 10), (*_NOT_INT, 1.5)),
    "wilson_upper.trials": (lambda v: wilson_upper(0, v), _NOT_INT),
    "coverage_reports.trials": (
        lambda v: next(coverage_reports(_instance(), _CONFIG, v, 0)), _NOT_INT
    ),
    "coverage_reports.seed": (
        lambda v: next(coverage_reports(_instance(), _CONFIG, 1, v)), (*_NOT_INT, -1)
    ),
    "run_coverage.trials": (lambda v: run_coverage(_instance(), _CONFIG, v, 0), _NOT_INT),
    "run_coverage.seed": (lambda v: run_coverage(_instance(), _CONFIG, 100, v), (*_NOT_INT, -1)),
    "ville_experiment.n": (lambda v: ville_experiment(v, [0.1], 1000, 0), _NOT_COUNT),
    "ville_experiment.seed": (lambda v: ville_experiment(10, [0.1], 1000, v), (*_NOT_INT, -1)),
    "tightness_comparison.u": (
        lambda v: tightness_comparison(v, [4], _CONFIG), (*_NOT_REAL, INF, -INF)
    ),
    "tightness_comparison.d_values": (
        lambda v: tightness_comparison(1.0, [v], _CONFIG), (*_NOT_COUNT, 4.5)
    ),
    "divergence_scaling_table.d_values": (
        lambda v: harness.divergence_scaling_table(1.0, [4, v]), _NOT_COUNT
    ),
    "multivariate_instance.d": (lambda v: multivariate_instance(v, 1.0), _NOT_COUNT),
    "gaussian_instance.exponent": (
        lambda v: gaussian_instance(0.1, v), (np.array([1.0, 0.75]),)
    ),
    "gaussian_instance_check.exponent": (
        lambda v: gaussian_instance_check([0.1], v), (np.array([1.0, 0.75]),)
    ),
}


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(call, value, id=f"{name}={value!r}")
        for name, (call, values) in _TABLE.items()
        for value in values
    ],
)
def test_invalid_number_argument_is_a_validation_error(call, value):
    with pytest.raises(ValidationError):
        call(value)


class TestScalarChecks:
    def test_three_message_forms(self):
        with pytest.raises(ValidationError, match=r"^c must be numeric$"):
            _real("x", "c", 0.0, INF)
        with pytest.raises(ValidationError, match=r"^c must lie in \[0, inf\)$"):
            _real(NAN, "c", 0.0, INF, open_high=True)
        with pytest.raises(ValidationError, match=r"^delta must lie in \(0, 1\)$"):
            _real(1.0, "delta", 0.0, 1.0, open_low=True, open_high=True)
        with pytest.raises(ValidationError, match=r"^n must be an integer$"):
            _integer(2.5, "n", 1)
        with pytest.raises(ValidationError, match=r"^m must lie in \[1, 10000\]$"):
            _integer(10_001, "m", 1, 10_000)

    def test_integral_floats_and_numpy_integers_are_integers(self):
        for value in (4, 4.0, np.int64(4), np.float64(4.0)):
            result = _integer(value, "d", 2)
            assert result == 4 and type(result) is int
        assert _integer(2**60 + 1, "seed", 0) == 2**60 + 1

    def test_an_int_whose_float_rounds_to_high_is_out_of_range(self):
        with pytest.raises(ValidationError, match=r"^n must lie in \[1, 1e\+18\]$"):
            _integer(10**18 + 1, "n", 1, 10**18)
        assert _integer(10**18, "n", 1, 10**18) == 10**18

    def test_an_int_beyond_float_range_is_out_of_range(self):
        with pytest.raises(ValidationError, match=r"must lie in \[1, inf\)"):
            _integer(10**400, "n", 1)
        assert _real(10**400, "kl", 0.0, INF) == INF

    def test_an_integral_float_dimension_gives_the_same_pair(self):
        p4, q4 = multivariate_instance(4, 1.0)
        p, q = multivariate_instance(4.0, 1.0)
        np.testing.assert_array_equal(p.log_weights, p4.log_weights)
        np.testing.assert_array_equal(q.log_weights, q4.log_weights)
        assert tightness_comparison(1.0, [4.0], _CONFIG) == tightness_comparison(1.0, [4], _CONFIG)

    def test_dataclass_fields_keep_the_value_given(self):
        config = BoundConfig(n=np.int64(100), delta=0.05)
        assert type(config.n) is np.int64
        assert dataclasses.asdict(config) == {"n": 100, "delta": 0.05, "alpha": 2.0}


def _not_reals(outside, ok=0.25):
    """Two-entry lists an array argument refuses: numeric strings, None, an int beyond the
    float range (+inf), a ragged list, NaN and ``outside`` its interval, each beside (or made
    of) the valid entry ``ok``."""
    return (
        [str(ok), str(ok)],
        [None, ok],
        [10**400, ok],
        [[ok], [ok, ok]],
        [NAN, ok],
        [outside, ok],
    )


def _bernoulli_instance(means):
    return LearningInstance(
        make_discrete([1.0, 1.0]), LossKind.BERNOULLI, GibbsPosterior(1.0), bernoulli_means=means
    )


# name -> (call taking the array under test, arrays it must refuse)
_ARRAY_TABLE = {
    "max_log_wealth.coins": (max_log_wealth, (*_not_reals(1.5), [], [[0.25]])),
    "kt_bettor.coins": (kt_bettor, (*_not_reals(-1.5), [], [[0.25]])),
    "wealth_quadratic_lower.coins": (wealth_quadratic_lower, (*_not_reals(1.5), [], [[0.25]])),
    "DiscreteDistribution.log_weights": (
        DiscreteDistribution, (*_not_reals(INF, math.log(0.5)), [], [[0.0]])
    ),
    "from_log_weights.log_weights": (from_log_weights, (*_not_reals(INF), [], [[0.0]])),
    "make_discrete.weights": (make_discrete, (*_not_reals(-1.0), [], [[0.25, 0.25]])),
    "LearningInstance.bernoulli_means": (
        _bernoulli_instance, (*_not_reals(1.5), [-0.5, 0.25], [0.25], [[0.25, 0.25]])
    ),
    "LearningInstance.posterior.empirical_means": (
        lambda v: _instance().posterior(v, 10),
        (*_not_reals(INF), [-INF, 0.25], [1.5, 0.25], [0.25], [[0.25, 0.25]]),
    ),
    "sample_variance_from_sums.s1": (
        lambda v: sample_variance_from_sums(v, [0.5, 0.5], 2), _not_reals(3.0)
    ),
    "sample_variance_from_sums.s2": (
        lambda v: sample_variance_from_sums([0.5, 0.5], v, 2), _not_reals(-1.0)
    ),
    "fenchel_dual_bound.a": (lambda v: fenchel_dual_bound(v, 1.0, 1.0), _not_reals(0.0)),
    "fenchel_dual_bound.b": (lambda v: fenchel_dual_bound(1.0, v, 1.0), _not_reals(-1.0)),
    "fenchel_dual_bound.y": (lambda v: fenchel_dual_bound(1.0, 1.0, v), _not_reals(-INF)),
    "ville_experiment.delta_values": (
        lambda v: ville_experiment(10, v, 1000, 0), (*_not_reals(1.0), [], [[0.25]])
    ),
    "gaussian_instance_check.p_values": (
        lambda v: gaussian_instance_check(v, 1.0), (*_not_reals(0.5), [], [[0.25]])
    ),
}


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(call, value, id=f"{name}={value!r}".replace(str(10**400), "10**400"))
        for name, (call, values) in _ARRAY_TABLE.items()
        for value in values
    ],
)
def test_invalid_array_argument_is_a_validation_error(call, value):
    with pytest.raises(ValidationError):
        call(value)


@pytest.mark.parametrize(
    "s1, s2", [(["1"], ["1"]), ([10**400], [1]), ([NAN], [1.0])], ids=["str", "10**400", "nan"]
)
def test_sample_variance_from_sums_checks_its_sums(s1, s2):
    with pytest.raises(ValidationError):
        sample_variance_from_sums(s1, s2, 2)


class TestArrayChecks:
    def test_message_forms(self):
        for values in (["1", "2"], [None], [[1.0], [1.0, 2.0]], {"a": 1}, [1j]):
            with pytest.raises(ValidationError, match=r"^w must be numeric$"):
                _floats(values, "w")
        for values in ([NAN], [-1.0], [10**400]):
            with pytest.raises(ValidationError, match=r"^w must lie in \[0, inf\)$"):
                _floats(values, "w", 0.0, INF, open_high=True)
        for values in ([], [[0.5]], 0.5):
            with pytest.raises(ValidationError, match=r"^coins must be a nonempty 1-d array$"):
                _floats(values, "coins", -1.0, 1.0, ndim=1)

    def test_entries_follow_the_scalar_rules(self):
        assert _floats([10**400, -(10**400), 2], "y").tolist() == [INF, -INF, 2.0]
        with pytest.raises(ValidationError, match=r"^w must be numeric$"):
            _floats([True, 3], "w")  # a bool is not read as the number 1
        assert _floats([[0.5, 1.0]], "losses", 0.0, 1.0, ndim=2).shape == (1, 2)

    def test_a_float_array_is_not_copied(self):
        coins = np.linspace(-1.0, 1.0, 5)
        assert _floats(coins, "coins", -1.0, 1.0, ndim=1) is coins


class TestBoolRefusal:
    """A bool is not read as the number 0 or 1, alone, in an array or among numbers."""

    @pytest.mark.parametrize("value", [True, False, np.True_, np.False_])
    def test_scalar_checks(self, value):
        with pytest.raises(ValidationError, match=r"^x must be numeric$"):
            _real(value, "x")
        with pytest.raises(ValidationError, match=r"^n must be numeric$"):
            _integer(value, "n", 0)

    @pytest.mark.parametrize(
        "values", [np.array([True, False]), [True, False], [0.5, True], [[1.0], [np.False_]]])
    def test_array_checks(self, values):
        with pytest.raises(ValidationError, match=r"^w must be numeric$"):
            _floats(values, "w")

    def test_public_calls(self):
        with pytest.raises(ValidationError, match=r"^eta must be numeric$"):
            GibbsPosterior(True)
        with pytest.raises(ValidationError, match=r"^weights must be numeric$"):
            make_discrete([True, False, True])
        with pytest.raises(ValidationError, match=r"^coins must be numeric$"):
            kt_bettor([True, False])
        with pytest.raises(ValidationError, match=r"^n must be numeric$"):
            BoundConfig(n=True, delta=0.05)


def test_package_all_lists_each_module_export_once():
    names = zcp_paclab.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(zcp_paclab, name) for name in names)
    modules = (errors, distributions, divergences, betting, bounds, harness)
    assert set(names) == {"__version__", *(name for m in modules for name in m.__all__)}
    assert not any(name.startswith("_") and name != "__version__" for name in names)
