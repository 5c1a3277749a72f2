"""Exact discrete divergences, the scalar kl helpers, and the quadrature."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zcp_paclab.divergences as divergences
from zcp_paclab import cli
from conftest import random_dominated_pair, random_pair
from zcp_paclab import (
    DivergenceKind,
    DivergenceValue,
    NumericalError,
    QuadratureConfig,
    ValidationError,
    divergence_gaussian,
    from_log_weights,
    gaussian_instance,
    kl_discrete,
    little_kl,
    little_kl_inverse_upper,
    make_discrete,
    renyi_discrete,
    tv_discrete,
    zcp_c_shift_bound,
    zcp_c_shift_upper_bound,
    zcp_discrete,
    zcp_kl_tv_upper_bound,
    zcp_upper_bound_kl_tv,
    zcp1_upper_bound_kl_tv,
)

P_HALF = make_discrete([0.5, 0.5])
Q_QUARTER = make_discrete([0.25, 0.75])


class TestDiscreteKnownValues:
    def test_kl_two_atoms(self):
        expected = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        np.testing.assert_allclose(kl_discrete(P_HALF, Q_QUARTER), expected, rtol=1e-15)

    def test_tv_two_atoms(self):
        assert tv_discrete(P_HALF, Q_QUARTER) == 0.25

    def test_zcp_two_atoms(self):
        # ratios 2 and 2/3: 0.25*sqrt(ln(1+1)) + 0.25*sqrt(ln(1+1/9))
        expected = 0.25 * math.sqrt(math.log(2.0)) + 0.25 * math.sqrt(math.log(10.0 / 9.0))
        np.testing.assert_allclose(zcp_discrete(P_HALF, Q_QUARTER, 1.0), expected, rtol=1e-14)

    def test_renyi_two_atoms(self):
        expected = math.log(0.25 * 4.0 + 0.75 * (2.0 / 3.0) ** 2)  # alpha = 2
        np.testing.assert_allclose(renyi_discrete(P_HALF, Q_QUARTER, 2.0), expected, rtol=1e-14)

    def test_self_divergences_vanish(self):
        assert kl_discrete(P_HALF, P_HALF) == 0.0
        assert tv_discrete(P_HALF, P_HALF) == 0.0
        assert zcp_discrete(P_HALF, P_HALF, 1e6) == 0.0
        assert abs(renyi_discrete(P_HALF, P_HALF, 3.0)) < 1e-14

    def test_support_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            kl_discrete(P_HALF, make_discrete([1.0, 1.0, 1.0]))


class TestDiscreteEdgeCases:
    def test_atoms_zero_on_both_sides_raise_no_warning(self):
        p, q = make_discrete([0.5, 0.5, 0.0]), make_discrete([0.25, 0.75, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tv_discrete(p, q) == 0.25
            kl_discrete(p, q), renyi_discrete(p, q, 2.0), zcp_discrete(p, q, 1.0)

    def test_kl_and_renyi_of_near_identical_pairs_are_never_negative(self):
        p = make_discrete([1, 2, 3])
        q = from_log_weights(np.log([1, 2, 3]) + [1e-12, 0, 0])
        assert kl_discrete(p, q) >= 0.0
        rng = np.random.default_rng(0)
        for _ in range(300):
            size = int(rng.integers(2, 65))
            p = make_discrete(rng.random(size) + 1e-3)
            q = from_log_weights(p.log_weights + 1e-9 * rng.standard_normal(size))
            for a, b in ((p, q), (q, p)):
                assert math.copysign(1.0, kl_discrete(a, b)) == 1.0  # never -0.0 either
                assert math.copysign(1.0, renyi_discrete(a, b, 2.0)) == 1.0

    def test_non_domination_gives_infinity(self):
        p = make_discrete([0.5, 0.5, 0.0])
        q = make_discrete([0.5, 0.0, 0.5])
        assert kl_discrete(p, q) == math.inf
        assert zcp_discrete(p, q, 1.0) == math.inf
        assert renyi_discrete(p, q, 2.0) == math.inf
        assert tv_discrete(p, q) == 0.5  # TV never blows up

    def test_renyi_below_one_tolerates_missing_mass(self):
        p = make_discrete([0.5, 0.5, 0.0])
        q = make_discrete([0.5, 0.0, 0.5])
        value = renyi_discrete(p, q, 0.5)
        assert math.isfinite(value) and value > 0.0

    def test_renyi_alpha_validation(self):
        with pytest.raises(ValidationError):
            renyi_discrete(P_HALF, Q_QUARTER, 1.0)
        with pytest.raises(ValidationError):
            renyi_discrete(P_HALF, Q_QUARTER, 0.0)

    def test_renyi_approaches_kl(self):
        kl = kl_discrete(P_HALF, Q_QUARTER)
        near = renyi_discrete(P_HALF, Q_QUARTER, 1.0 + 1e-6)
        np.testing.assert_allclose(near, kl, rtol=1e-5)

    def test_renyi_monotone_in_alpha(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            p, q = random_pair(rng, max_support=16)
            values = [renyi_discrete(p, q, a) for a in (0.5, 1.5, 2.0, 4.0)]
            assert all(b - a >= -1e-12 for a, b in zip(values, values[1:]))

    def test_zcp_zero_c_is_zero(self):
        assert zcp_discrete(P_HALF, Q_QUARTER, 0.0) == 0.0

    def test_zcp_monotone_in_c(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            p, q = random_pair(rng, max_support=16)
            values = [zcp_discrete(p, q, c) for c in (0.0, 1.0, 10.0, 1e3, 1e6, 1e12)]
            assert all(b - a >= -1e-12 for a, b in zip(values, values[1:]))

    def test_zcp_negative_c_rejected(self):
        with pytest.raises(ValidationError):
            zcp_discrete(P_HALF, Q_QUARTER, -1.0)

    def test_zcp_handles_extreme_ratio_pairs(self):
        # first-atom ratio e**400: the log kernel must be evaluated in log
        # space, where ln(1 + (r-1)**2) collapses to 2*ln(r) = 800 exactly
        # at double precision; the second atom keeps the ordinary formula.
        from zcp_paclab import bernoulli_instance

        p, q = bernoulli_instance(0.05, 400.0)
        expected_1 = 0.05 * math.sqrt(800.0) + 0.05 * math.sqrt(math.log1p(0.05**2))
        np.testing.assert_allclose(zcp_discrete(p, q, 1.0), expected_1, rtol=1e-13)
        expected_big = 0.05 * math.sqrt(800.0 + 2.0 * math.log(1e6)) + 0.05 * math.sqrt(
            math.log1p((1e6 * 0.05) ** 2)
        )
        np.testing.assert_allclose(zcp_discrete(p, q, 1e6), expected_big, rtol=1e-13)


class TestLittleKl:
    def test_known_values(self):
        assert little_kl(0.5, 0.5) == 0.0
        np.testing.assert_allclose(little_kl(0.0, 0.5), math.log(2.0), rtol=1e-15)
        np.testing.assert_allclose(
            little_kl(0.25, 0.5),
            0.25 * math.log(0.5) + 0.75 * math.log(1.5),
            rtol=1e-14,
        )

    def test_boundary_conventions(self):
        assert little_kl(0.0, 0.0) == 0.0
        assert little_kl(1.0, 1.0) == 0.0
        assert little_kl(0.5, 0.0) == math.inf
        assert little_kl(0.5, 1.0) == math.inf

    def test_validation(self):
        with pytest.raises(ValidationError):
            little_kl(-0.1, 0.5)
        with pytest.raises(ValidationError):
            little_kl(0.5, 1.1)

    def test_inverse_zero_budget_returns_p_hat(self):
        assert little_kl_inverse_upper(0.3, 0.0) == 0.3

    def test_inverse_closed_forms(self):
        np.testing.assert_allclose(little_kl_inverse_upper(0.0, math.log(2.0)), 0.5, rtol=1e-12)
        assert little_kl_inverse_upper(1.0, 0.123) == 1.0
        assert little_kl_inverse_upper(0.4, math.inf) == 1.0

    def test_inverse_monotone_in_budget(self):
        budgets = [0.0, 0.01, 0.1, 0.5, 1.0, 2.0]
        values = [little_kl_inverse_upper(0.2, b) for b in budgets]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_round_trip(self):
        rng = np.random.default_rng(23)
        for _ in range(2000):
            p_hat = rng.uniform(0.0, 0.8)
            budget = rng.uniform(1e-6, 2.0)
            q = little_kl_inverse_upper(p_hat, budget)
            if q < 1.0:
                np.testing.assert_allclose(little_kl(p_hat, q), budget, rtol=0, atol=1e-10)

    def test_validation_inverse(self):
        with pytest.raises(ValidationError):
            little_kl_inverse_upper(0.5, -1.0)
        with pytest.raises(ValidationError):
            little_kl_inverse_upper(1.5, 0.1)

    def test_equal_arguments_give_zero(self):
        for p in (5e-324, 1e-300, 1e-9, 0.3, 0.5, 0.7, 1.0 - 1e-16):
            assert little_kl(p, p) == 0.0

    def test_finite_when_the_ratio_overflows(self):
        # 0.5 / 5e-324 is inf, so the two logs are taken apart
        expected = 0.5 * (math.log(0.5) - math.log(5e-324)) + 0.5 * math.log(0.5)
        np.testing.assert_allclose(little_kl(0.5, 5e-324), expected, rtol=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(0.0, 1e6, exclude_min=True),
    )
    def test_inverse_stops_at_adjacent_floats(self, p_hat, budget):
        q = little_kl_inverse_upper(p_hat, budget)
        assert little_kl(p_hat, q) <= budget
        if q < 1.0:
            assert budget < little_kl(p_hat, math.nextafter(q, 1.0))


class TestChainBounds:
    def test_formulas(self):
        np.testing.assert_allclose(
            zcp_upper_bound_kl_tv(2.0, 0.25, 3.0),
            2.0 * math.sqrt(2.0 * 0.25 * 2.0) + math.sqrt(2.0 * math.log(4.0)) * 0.25,
            rtol=1e-15,
        )
        np.testing.assert_allclose(
            zcp_c_shift_bound(0.5, 0.25, 3.0),
            0.5 + 2.0 * math.sqrt(math.log(8.0)) * 0.25,
            rtol=1e-15,
        )
        np.testing.assert_allclose(
            zcp1_upper_bound_kl_tv(2.0, 0.25), math.sqrt(8.0 * 0.25 * 2.0), rtol=1e-15
        )

    def test_validation(self):
        with pytest.raises(ValidationError):
            zcp_upper_bound_kl_tv(-1.0, 0.25, 3.0)
        with pytest.raises(ValidationError):
            zcp_c_shift_bound(0.5, 2.0, 3.0)
        with pytest.raises(ValidationError):
            zcp1_upper_bound_kl_tv(1.0, -0.1)

    def test_chain_holds_on_dominated_pairs_for_moderate_c(self):
        # the shift and kl-tv bounds are only valid up to moderate c; see
        # test_shift_and_kl_tv_bounds_fail_for_large_c for the flip side.
        rng = np.random.default_rng(24)
        for _ in range(100):
            p, q = random_dominated_pair(rng, max_support=32)
            kl = kl_discrete(p, q)
            tv = tv_discrete(p, q)
            zcp1 = zcp_discrete(p, q, 1.0)
            for c in (0.0, 1.0, 10.0):
                zcp_c = zcp_discrete(p, q, c)
                assert zcp_c <= zcp_c_shift_bound(zcp1, tv, c) + 1e-9
                assert zcp_c <= zcp_upper_bound_kl_tv(kl, tv, c) + 1e-9
            assert zcp1 <= zcp1_upper_bound_kl_tv(kl, tv) + 1e-9

    def test_sqrt8_bound_holds_for_all_c_free_pairs(self):
        # the c-free bound has no large-c failure mode: fuzz it harder
        rng = np.random.default_rng(27)
        for _ in range(500):
            p, q = random_dominated_pair(rng, max_support=64)
            zcp1 = zcp_discrete(p, q, 1.0)
            assert zcp1 <= zcp1_upper_bound_kl_tv(kl_discrete(p, q), tv_discrete(p, q)) + 1e-9

    def test_shift_and_kl_tv_bounds_fail_for_large_c(self):
        # Both c-dependent comparison bounds are certifiably violated once c
        # is large: their additive constants grow like sqrt(ln c) while the
        # divergence itself grows like 2*sqrt(ln c) times the total
        # variation.  This pins the known counterexample so the restriction
        # to moderate c in the test above is visibly deliberate.
        p = make_discrete([0.65, 0.35])
        q = make_discrete([0.5, 0.5])
        kl = kl_discrete(p, q)
        tv = tv_discrete(p, q)
        zcp1 = zcp_discrete(p, q, 1.0)
        zcp_large = zcp_discrete(p, q, 1e3)
        assert zcp_large > zcp_upper_bound_kl_tv(kl, tv, 1e3) + 0.2
        assert zcp_discrete(p, q, 1e6) > zcp_c_shift_bound(zcp1, tv, 1e6) + 0.2
        # a corrected constant, 2*sqrt(ln(2 + 2c**2))*tv, restores domination
        for c in (1e3, 1e6):
            corrected = zcp1 + 2.0 * math.sqrt(math.log(2.0 + 2.0 * c * c)) * tv
            assert zcp_discrete(p, q, c) <= corrected

    # The bounds below carry ln(1 + c^2) and hold for every c >= 0 (proof
    # sketch in the zcp_c_shift_upper_bound docstring).

    def test_valid_bound_formulas(self):
        np.testing.assert_allclose(
            zcp_c_shift_upper_bound(0.5, 0.25, 3.0),
            0.5 + 2.0 * math.sqrt(math.log(10.0)) * 0.25,
            rtol=1e-15,
        )
        np.testing.assert_allclose(
            zcp_kl_tv_upper_bound(2.0, 0.25, 3.0),
            2.0 * math.sqrt(2.0 * 0.25 * 2.0) + 2.0 * math.sqrt(math.log(10.0)) * 0.25,
            rtol=1e-15,
        )
        assert zcp_c_shift_upper_bound(0.5, 0.25, 0.0) == 0.5
        np.testing.assert_allclose(
            zcp_kl_tv_upper_bound(2.0, 0.25, 0.0), zcp1_upper_bound_kl_tv(2.0, 0.25), rtol=1e-15
        )

    def test_valid_bound_validation(self):
        for bad_tv in (-0.1, 1.5, math.nan):
            with pytest.raises(ValidationError):
                zcp_c_shift_upper_bound(0.5, bad_tv, 3.0)
            with pytest.raises(ValidationError):
                zcp_kl_tv_upper_bound(2.0, bad_tv, 3.0)
        for bad_c in (-1.0, math.inf, math.nan):
            with pytest.raises(ValidationError):
                zcp_c_shift_upper_bound(0.5, 0.25, bad_c)
            with pytest.raises(ValidationError):
                zcp_kl_tv_upper_bound(2.0, 0.25, bad_c)
        with pytest.raises(ValidationError):
            zcp_kl_tv_upper_bound(-1.0, 0.25, 3.0)
        with pytest.raises(ValidationError):
            zcp_c_shift_upper_bound(-0.5, 0.25, 3.0)

    def test_valid_bounds_dominate_and_are_sharp_on_counterexample(self):
        p = make_discrete([0.65, 0.35])
        q = make_discrete([0.5, 0.5])
        kl = kl_discrete(p, q)
        tv = tv_discrete(p, q)
        zcp1 = zcp_discrete(p, q, 1.0)
        for c in (1e3, 1e6):
            zcp_c = zcp_discrete(p, q, c)
            assert zcp_c <= zcp_c_shift_upper_bound(zcp1, tv, c)
            assert zcp_c <= zcp_kl_tv_upper_bound(kl, tv, c)
        # not vacuous: at c = 1e6 the divergence is within 10% of the shift
        # bound (and the ratio tends to 1 as c grows)
        zcp_large = zcp_discrete(p, q, 1e6)
        assert zcp_large / zcp_c_shift_upper_bound(zcp1, tv, 1e6) > 0.9
        assert zcp_large / zcp_kl_tv_upper_bound(kl, tv, 1e6) > 0.8

    def test_valid_bounds_hold_on_dominated_pairs_for_all_c(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            p, q = random_dominated_pair(rng, max_support=32)
            kl = kl_discrete(p, q)
            tv = tv_discrete(p, q)
            zcp1 = zcp_discrete(p, q, 1.0)
            for c in (0.0, 1.0, 10.0, 1e3, 1e6):
                zcp_c = zcp_discrete(p, q, c)
                assert zcp_c <= zcp_c_shift_upper_bound(zcp1, tv, c) + 1e-9
                assert zcp_c <= zcp_kl_tv_upper_bound(kl, tv, c) + 1e-9

    def test_valid_bounds_finite_at_huge_c(self):
        # ln(1 + c^2) is evaluated without forming c^2, which overflows here
        c = 1e300
        shift = zcp_c_shift_upper_bound(0.5, 0.25, c)
        kl_tv = zcp_kl_tv_upper_bound(2.0, 0.25, c)
        expected_term = 2.0 * math.sqrt(2.0 * math.log(c)) * 0.25
        np.testing.assert_allclose(shift, 0.5 + expected_term, rtol=1e-15)
        np.testing.assert_allclose(kl_tv, 2.0 + expected_term, rtol=1e-15)

    @pytest.mark.parametrize(
        "bound",
        [
            lambda kl, tv: zcp1_upper_bound_kl_tv(kl, tv),
            lambda kl, tv: zcp_upper_bound_kl_tv(kl, tv, 3.0),
            lambda kl, tv: zcp_kl_tv_upper_bound(kl, tv, 3.0),
        ],
        ids=["zcp1_upper_bound_kl_tv", "zcp_upper_bound_kl_tv", "zcp_kl_tv_upper_bound"],
    )
    def test_infinite_kl_with_zero_tv_is_rejected(self, bound):
        # tv = 0 means P = Q, so kl = inf cannot go with it; sqrt(0 * inf)
        # used to come back as NaN
        with pytest.raises(ValidationError, match="kl = inf with tv = 0"):
            bound(math.inf, 0.0)
        assert bound(math.inf, 0.25) == math.inf
        assert bound(0.0, 0.0) == 0.0


class TestQuadrature:
    def test_config_validation(self):
        with pytest.raises(ValidationError):
            QuadratureConfig(half_width_in_sigma1=4.0)
        with pytest.raises(ValidationError):
            QuadratureConfig(rel_tol=0.0)
        with pytest.raises(ValidationError):
            QuadratureConfig(rel_tol=1e-2)
        with pytest.raises(ValidationError):
            QuadratureConfig(max_subdivisions=0)

    def test_matches_fine_discretization(self):
        # independent oracle: 200k-point trapezoid on [-20, 20] in log space
        pair = gaussian_instance(0.3, 1.0, 1.0)
        xs = np.linspace(-20.0, 20.0, 200_001)
        lp = np.array([pair.log_pdf_p(x) for x in xs])
        lq = np.array([pair.log_pdf_q(x) for x in xs])
        p, q = np.exp(lp), np.exp(lq)
        w = np.full(xs.size, xs[1] - xs[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        ell = lp - lq
        c = 10.0
        log_factor = np.where(
            ell > 40.0,
            2.0 * (np.log(c) + ell),
            np.log1p((c * np.abs(np.expm1(np.minimum(ell, 40.0)))) ** 2),
        )
        oracle = {
            "kl": float(np.sum(w * p * ell)),
            "tv": 0.5 * float(np.sum(w * np.abs(p - q))),
            "zcp": float(np.sum(w * np.abs(p - q) * np.sqrt(log_factor))),
        }
        kl = divergence_gaussian(pair, "kl").value
        tv = divergence_gaussian(pair, "tv").value
        zcp = divergence_gaussian(pair, "zcp", c=c).value
        np.testing.assert_allclose(kl, oracle["kl"], rtol=1e-4)
        np.testing.assert_allclose(tv, oracle["tv"], rtol=1e-4)
        np.testing.assert_allclose(zcp, oracle["zcp"], rtol=1e-4)

    def test_renyi_matches_discretization_when_finite(self):
        # alpha = 2 converges iff alpha < sigma1^2/(sigma1^2 - sigma2^2) = 2.29
        pair = gaussian_instance(0.75, 1.0, 1.0)
        xs = np.linspace(-20.0, 20.0, 200_001)
        lp = np.array([pair.log_pdf_p(x) for x in xs])
        lq = np.array([pair.log_pdf_q(x) for x in xs])
        w = np.full(xs.size, xs[1] - xs[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        oracle = math.log(float(np.sum(w * np.exp(2.0 * lp - lq))))
        value = divergence_gaussian(pair, "renyi", alpha=2.0).value
        np.testing.assert_allclose(value, oracle, rtol=1e-6)

    def test_divergent_renyi_is_infinite(self):
        pair = gaussian_instance(0.3, 1.0, 1.0)  # threshold 1.099 < 2
        assert divergence_gaussian(pair, "renyi", alpha=2.0).value == math.inf

    def test_divergent_renyi_on_a_slowly_diverging_pair(self):
        # tail exponent (alpha - 1)/(2 sigma2^2) - alpha/(2 sigma1^2) = +0.1: the
        # truncated integral is finite (732.6 at 20 sigma1) but the true one is not
        pair = gaussian_instance(0.2, 1.0, 1.0)
        result = divergence_gaussian(pair, "renyi", alpha=1.05)
        assert result == DivergenceValue(DivergenceKind.RENYI, math.inf, alpha=1.05, abs_error=0.0)
        # just below the threshold alpha = 1/(1 - p^2) the integral converges
        assert math.isfinite(divergence_gaussian(pair, "renyi", alpha=1.04).value)

    @pytest.mark.parametrize("max_subdivisions", [1, 3])
    def test_subdivision_budget_exhausted(self, max_subdivisions):
        pair = gaussian_instance(0.2, 1.0, 1.0)
        config = QuadratureConfig(max_subdivisions=max_subdivisions)
        with pytest.raises(NumericalError, match=r"\(subdivision budget exhausted\)"):
            divergence_gaussian(pair, "kl", config)

    def test_evaluation_budget_exhausted(self, monkeypatch):
        # p = 1e-4 TV takes 11,947 integrand evaluations, the rough pass included
        pair = gaussian_instance(1e-4, 1.0, 1.0)
        default = divergence_gaussian(pair, "tv")
        monkeypatch.setattr(divergences, "_MAX_EVALUATIONS", 10_000)
        with pytest.raises(NumericalError, match=r"\(evaluation budget exhausted\)$"):
            divergence_gaussian(pair, "tv")
        monkeypatch.setattr(divergences, "_MAX_EVALUATIONS", 12_000)
        assert divergence_gaussian(pair, "tv") == default

    def test_default_budget_reproduces_the_benchmark_reference(self, capsys):
        path = Path(__file__).parents[1] / "bench" / "quadrature_reference.json"
        reference = json.loads(path.read_text())
        assert divergences._MAX_EVALUATIONS == 2**23
        for argv, expected_rows in reference.items():
            assert cli.run(argv.split()) == 0, argv
            lines = capsys.readouterr().out.splitlines()
            header, body = lines[0].split(","), lines[1 : lines.index("# summary")]
            rows = [dict(zip(header, line.split(","))) for line in body]
            assert len(rows) == len(expected_rows), argv
            for row, expected in zip(rows, expected_rows):
                for field, value in expected.items():
                    assert float(row[field]) == pytest.approx(value, rel=1e-8), (argv, field)

    def test_small_subdivision_budget_suffices(self):
        pair = gaussian_instance(0.2, 1.0, 1.0)
        loose = divergence_gaussian(pair, "kl", QuadratureConfig(max_subdivisions=5))
        full = divergence_gaussian(pair, "kl")
        assert abs(loose.value - full.value) <= loose.abs_error + full.abs_error + 1e-12

    def test_refinement_batches_do_not_change_the_value(self, monkeypatch):
        pair = gaussian_instance(0.05, 1.0, 0.75)
        whole_levels = divergence_gaussian(pair, "zcp", c=10.0)
        monkeypatch.setattr(divergences, "_BATCH", 3)
        batched = divergence_gaussian(pair, "zcp", c=10.0)
        np.testing.assert_allclose(batched.value, whole_levels.value, rtol=1e-14)
        np.testing.assert_allclose(batched.abs_error, whole_levels.abs_error, rtol=1e-12)

    def test_error_estimate_brackets_refined_value(self):
        pair = gaussian_instance(0.2, 1.0, 1.0)
        loose = divergence_gaussian(pair, "kl", QuadratureConfig(rel_tol=1e-6))
        tight = divergence_gaussian(pair, "kl", QuadratureConfig(rel_tol=1e-10))
        assert abs(loose.value - tight.value) <= loose.abs_error + tight.abs_error + 1e-12
        assert loose.abs_error <= 1e-6 * abs(loose.value) + 1e-12

    def test_identical_pair_is_zero(self):
        pair = gaussian_instance(0.5, 1.0, 1.0)
        same = gaussian_instance(0.5, pair.sigma2, 1.0)  # any pair vs itself via p=...
        # direct: P with p = 0 equals Q exactly
        from zcp_paclab import GaussianMixturePair

        degenerate = GaussianMixturePair(mu=0.0, sigma1=2.0, sigma2=1.0, p=0.0)
        assert divergence_gaussian(degenerate, "kl").value == pytest.approx(0.0, abs=1e-12)
        assert divergence_gaussian(degenerate, "tv").value == pytest.approx(0.0, abs=1e-12)
        assert same is not pair  # silence linters about unused binding

    def test_kind_coercion_and_rejection(self):
        pair = gaussian_instance(0.4, 1.0, 1.0)
        by_enum = divergence_gaussian(pair, DivergenceKind.TV)
        by_name = divergence_gaussian(pair, "tv")
        assert by_enum.value == by_name.value
        with pytest.raises(ValidationError):
            divergence_gaussian(pair, "little_kl")
        with pytest.raises(ValidationError):
            divergence_gaussian(pair, "zcp")  # missing c
        with pytest.raises(ValidationError):
            divergence_gaussian(pair, "renyi")  # missing alpha
        with pytest.raises(ValidationError):
            divergence_gaussian(pair, "kl", alpha=2.0)  # stray parameter


class TestDivergenceAxiomsFuzz:
    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            p, q = random_pair(rng, max_support=32)
            for value in (
                kl_discrete(p, q),
                tv_discrete(p, q),
                renyi_discrete(p, q, 2.0),
                zcp_discrete(p, q, 10.0),
            ):
                assert value >= -1e-12
            assert kl_discrete(p, p) == 0.0
            assert zcp_discrete(q, q, 1e3) == 0.0
