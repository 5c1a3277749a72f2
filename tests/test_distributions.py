"""Distribution value objects and named instances."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zcp_paclab import (
    DiscreteDistribution,
    GaussianMixturePair,
    ValidationError,
    bernoulli_instance,
    from_log_weights,
    gaussian_instance,
    kl_discrete,
    make_discrete,
    multivariate_instance,
    zcp_discrete,
)
from zcp_paclab.distributions import _logsumexp


class TestMakeDiscrete:
    def test_normalizes_weights(self):
        dist = make_discrete([2.0, 6.0])
        np.testing.assert_allclose(dist.weights, [0.25, 0.75], rtol=0, atol=1e-15)
        np.testing.assert_allclose(dist.log_weights, np.log([0.25, 0.75]))

    def test_zero_atoms_get_minus_inf_log_weight(self):
        dist = make_discrete([0.0, 1.0, 3.0])
        assert dist.weights[0] == 0.0
        assert dist.log_weights[0] == -math.inf
        assert np.isfinite(dist.log_weights[1:]).all()

    def test_arrays_are_read_only(self):
        dist = make_discrete([1.0, 1.0])
        with pytest.raises(ValueError):
            dist.weights[0] = 0.9
        with pytest.raises(ValueError):
            dist.log_weights[0] = 0.0

    @pytest.mark.parametrize(
        "weights",
        [[], [1.0, -0.5], [math.nan, 1.0], [math.inf, 1.0], [[1.0, 1.0]], [0.0, 0.0]],
    )
    def test_invalid_weights_rejected(self, weights):
        with pytest.raises(ValidationError):
            make_discrete(weights)

    @pytest.mark.parametrize("weights", [[1e308, 1e308], [1.7e308, 1.7e308, 0.0, 1.7e308]])
    def test_weights_whose_sum_overflows_normalize_without_a_warning(self, weights, recwarn):
        dist = make_discrete(weights)
        expected = np.where(np.array(weights) > 0, 1.0 / np.count_nonzero(weights), 0.0)
        np.testing.assert_array_equal(dist.weights, expected)
        assert len(recwarn) == 0

    def test_direct_construction_checks_consistency(self):
        with pytest.raises(ValidationError):  # the weights sum to 1.2
            DiscreteDistribution(np.log([0.6, 0.6]))

    def test_support_size(self):
        assert make_discrete([1, 2, 3]).support_size == 3

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_discrete(["a"]),
            lambda: make_discrete("ab"),
            lambda: make_discrete({"a": 1}),
            lambda: make_discrete([[1.0], [2.0, 3.0]]),
            lambda: from_log_weights(["a", 0]),
            lambda: DiscreteDistribution(["a"]),
        ],
    )
    def test_non_numeric_input_is_a_validation_error(self, build):
        with pytest.raises(ValidationError, match="must be numeric"):
            build()


class TestFromLogWeights:
    def test_normalizes_in_log_space(self):
        dist = from_log_weights([0.0, 0.0, math.log(2.0)])
        np.testing.assert_allclose(dist.weights, [0.25, 0.25, 0.5], atol=1e-15)

    def test_survives_underflowing_weights(self):
        dist = from_log_weights([-800.0, 0.0])
        assert dist.weights[0] == 0.0
        np.testing.assert_allclose(dist.log_weights[0], -800.0, rtol=1e-12)
        assert dist.weights[1] == 1.0

    def test_huge_shift_is_removed(self):
        dist = from_log_weights([5000.0, 5000.0])
        np.testing.assert_allclose(dist.weights, [0.5, 0.5])

    def test_all_minus_inf_rejected(self):
        with pytest.raises(ValidationError):
            from_log_weights([-math.inf, -math.inf])

    @settings(max_examples=300, deadline=None)
    @given(
        offset=st.floats(-1e300, 1e300),
        raw=st.lists(st.one_of(st.floats(-50.0, 50.0), st.just(-math.inf)), min_size=1,
                     max_size=50).filter(lambda lw: max(lw) > -math.inf),
    )
    @example(offset=-1e6, raw=[0.0, -0.3, -1.7])
    @example(offset=-1e6, raw=[0.0, -0.3, -1.7, -2.2, -5.0, 0.1, -0.05])
    @example(offset=-1.5e5, raw=[float(v) for v in np.linspace(0.0, -30.0, 50)])
    def test_any_offset_normalizes(self, offset, raw):
        # the weights' sum is checked within 1e-12, and an offset's ulp reaches 1.5e284
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist = from_log_weights(offset + np.array(raw))
        assert abs(dist.weights.sum() - 1.0) <= 1e-14


class TestBernoulliInstance:
    def test_q_reweights_first_atom_down(self):
        p_dist, q_dist = bernoulli_instance(0.2, math.log(4.0))
        np.testing.assert_allclose(p_dist.weights, [0.2, 0.8])
        np.testing.assert_allclose(q_dist.weights, [0.05, 0.95], atol=1e-15)

    def test_log_weights_follow_the_ratio(self):
        p_dist, q_dist = bernoulli_instance(0.1, 100.0)
        np.testing.assert_allclose(
            p_dist.log_weights[0] - q_dist.log_weights[0], 100.0, rtol=1e-13
        )

    def test_extreme_scale_keeps_log_weights_exact(self):
        _, q_dist = bernoulli_instance(0.05, 400.0)
        assert 0.0 < q_dist.weights[0] < 1e-170
        np.testing.assert_allclose(q_dist.log_weights[0], math.log(0.05) - 400.0)

    @pytest.mark.parametrize(
        "p,ln_a",
        [(0.0, 1.0), (1.0, 1.0), (0.5, -0.1), (0.5, math.inf), ("x", 1.0), (math.nan, 1.0),
         (math.inf, 1.0), (0.5, "x"), (0.5, math.nan)],
    )
    def test_invalid_arguments(self, p, ln_a):
        with pytest.raises(ValidationError):
            bernoulli_instance(p, ln_a)


class TestMultivariateInstance:
    def test_two_blocks_and_unit_mass(self):
        p_dist, q_dist = multivariate_instance(8, 1.0)
        assert p_dist.support_size == q_dist.support_size == 8
        np.testing.assert_allclose(p_dist.weights.sum(), 1.0, atol=1e-12)
        np.testing.assert_allclose(q_dist.weights.sum(), 1.0, atol=1e-12)
        # first block carries d**(-1-u) per atom
        np.testing.assert_allclose(p_dist.weights[:4], 8.0**-2.0)
        assert (q_dist.weights[:4] < p_dist.weights[:4]).all()

    def test_extreme_dimension_stays_finite_in_log_space(self):
        p_dist, q_dist = multivariate_instance(4096, 1.0)  # ln a = 4096**1.5 = 262144
        assert np.isfinite(q_dist.log_weights).all()
        assert (q_dist.weights[: 2048] == 0.0).all()
        np.testing.assert_allclose(
            p_dist.log_weights[0] - q_dist.log_weights[0], 262144.0, rtol=1e-12
        )

    def test_underflowed_weights_keep_kl_and_zcp_finite(self):
        # d = 4096 puts atoms below exp(-745), so their weights underflow to
        # 0.0 and only the log-weights keep KL and ZCP finite
        p, q = multivariate_instance(4096, 1.0)
        assert (q.weights == 0.0).any() and np.isfinite(q.log_weights).all()
        assert math.isfinite(kl_discrete(p, q))
        assert math.isfinite(zcp_discrete(p, q, 1.0))

    @pytest.mark.parametrize(
        "d,u",
        [(7, 1.0), (0, 1.0), (8, 0.0), (8, -1.0), (8, math.nan), (4.5, 1.0), (math.inf, 1.0),
         (math.nan, 1.0), ("x", 1.0), (8, math.inf), (8, "x")],
    )
    def test_invalid_arguments(self, d, u):
        with pytest.raises(ValidationError):
            multivariate_instance(d, u)

    def test_overflowing_ln_a_names_d_and_u(self):
        # 4096**150 is 2**1800, beyond the float range
        with pytest.raises(ValidationError, match=r"d = 4096, u = 100\.0"):
            multivariate_instance(4096, 100.0)


class TestGaussianMixturePair:
    def test_log_pdfs_integrate_to_one(self):
        pair = gaussian_instance(0.3, 1.0)
        xs = np.linspace(-12.0, 12.0, 40_001)
        w = xs[1] - xs[0]
        mass_p = w * sum(math.exp(pair.log_pdf_p(x)) for x in xs)
        mass_q = w * sum(math.exp(pair.log_pdf_q(x)) for x in xs)
        np.testing.assert_allclose([mass_p, mass_q], [1.0, 1.0], rtol=1e-8)

    def test_density_ratio_far_tail_asymptote(self):
        pair = gaussian_instance(0.1, 1.0)  # sigma2 = 0.1
        x = 50.0
        expected = (
            math.log(pair.p) + math.log(pair.sigma2) + 0.5 * x * x * (1.0 / pair.sigma2**2 - 1.0)
        )
        np.testing.assert_allclose(pair.log_pdf_p(x) - pair.log_pdf_q(x), expected, rtol=1e-12)

    def test_sigma2_from_exponent(self):
        assert gaussian_instance(0.25, 1.0).sigma2 == 0.25
        np.testing.assert_allclose(gaussian_instance(0.0625, 0.75).sigma2, 0.125)

    @pytest.mark.parametrize("p", [0.0, 0.25, 1.0])
    def test_densities_take_arrays(self, p):
        pair = GaussianMixturePair(sigma2=0.4, p=p)
        xs = np.array([[-30.0, -2.0, 0.5], [0.51, 3.0, 45.0]])
        for f in (pair.log_pdf_p, pair.log_pdf_q):
            values = f(xs)
            assert values.shape == xs.shape
            np.testing.assert_array_equal(values, [[f(x) for x in row] for row in xs])

    def test_degenerate_mixture_weights(self):
        pair = GaussianMixturePair(sigma2=0.5, p=0.0)
        assert pair.log_pdf_p(3.0) - pair.log_pdf_q(3.0) == 0.0
        np.testing.assert_allclose(pair.log_pdf_p(0.7), pair.log_pdf_q(0.7))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sigma2": -1.0, "p": 0.5},
            {"sigma2": 1.0, "p": 1.5},
            {"sigma2": math.nan, "p": 0.5},
            {"sigma2": 1.0, "p": math.nan},
            {"sigma2": 1.0, "p": "x"},
            {"sigma2": 0.0, "p": 0.5},
            {"sigma2": math.inf, "p": 0.5},
            {"sigma2": "x", "p": 0.5},
            {"sigma2": None, "p": 0.5},
            {"sigma2": [1.0], "p": 0.5},
            {"sigma2": 1.0, "p": -0.1},
            {"sigma2": 1.0, "p": None},
            {"sigma2": 1.0, "p": [0.5]},
            {"sigma2": -math.inf, "p": 0.5},
            {"sigma2": -0.0, "p": 0.5},
            {"sigma2": 10**400, "p": 0.5},  # an int beyond the float range counts as inf
            {"sigma2": 1j, "p": 0.5},
            {"sigma2": "0.5", "p": 0.5},
            {"sigma2": 1.0, "p": math.inf},
            {"sigma2": 1.0, "p": -math.inf},
            {"sigma2": 1.0, "p": math.nextafter(1.0, 2.0)},
            {"sigma2": 1.0, "p": -(10**400)},
        ],
    )
    def test_invalid_pairs(self, kwargs):
        with pytest.raises(ValidationError):
            GaussianMixturePair(**kwargs)

    @pytest.mark.parametrize("sigma2", [0.0, -1.0, math.inf, math.nan])
    def test_sigma2_outside_the_positive_reals_is_refused(self, sigma2):
        with pytest.raises(ValidationError, match=r"sigma2 must lie in \(0, inf\)"):
            GaussianMixturePair(sigma2=sigma2, p=0.5)

    def test_fields_are_sigma2_and_p(self):
        assert [field.name for field in dataclasses.fields(GaussianMixturePair)] == ["sigma2", "p"]
        assert type(GaussianMixturePair(sigma2=10**300, p=0.5).sigma2) is float

    @pytest.mark.parametrize(
        "p,exponent",
        [(0.5, 0.5), (0.0, 1.0), ("x", 1.0), (math.nan, 1.0), (math.inf, 1.0), (0.5, math.nan),
         (1.0, 1.0), (-0.1, 1.0), (0.5, 2.0), (0.5, "x")],
    )
    def test_invalid_instance_parameters(self, p, exponent):
        with pytest.raises(ValidationError):
            gaussian_instance(p, exponent)


# Unnormalized log-weights spanning far more than float64 weights can hold:
# after normalization some atoms sit below exp(-745), where the weight
# underflows to 0.0, and some are exact zeros (-inf).
_LOG_WEIGHTS = st.lists(
    st.one_of(st.floats(-2000.0, 50.0), st.just(-math.inf)), min_size=1, max_size=40
).filter(lambda lw: max(lw) > -math.inf)


class TestLogWeightsProperties:
    @settings(max_examples=200, deadline=None)
    @given(_LOG_WEIGHTS)
    @example([0.0, -800.0, -math.inf])
    def test_weights_are_a_cached_read_only_view(self, raw):
        dist = from_log_weights(raw)
        weights = dist.weights
        assert weights.tobytes() == np.exp(dist.log_weights).tobytes()
        assert not weights.flags.writeable
        assert dist.weights is weights


class TestLogSumExp:
    @settings(max_examples=300, deadline=None)
    @given(_LOG_WEIGHTS)
    @example([0.0, -800.0, -math.inf])
    @example([-0.5, -0.5, -0.5])
    def test_matches_the_shifted_sum(self, raw):
        x = np.array(raw)
        hi = float(x.max())
        reference = hi + math.log(float(np.exp(x - hi).sum()))
        scale = max(abs(hi), math.log(x.size), 1.0)
        assert abs(_logsumexp(x) - reference) <= 4 * math.ulp(scale)

    def test_exact_cases(self):
        assert _logsumexp(np.array([0.0, 0.0])) == math.log(2.0)
        assert _logsumexp(np.array([-3.25])) == -3.25
        assert _logsumexp(np.array([-math.inf, 7.5, -math.inf])) == 7.5
        assert _logsumexp(np.array([-math.inf, -math.inf])) == -math.inf
