"""Exact discrete divergences, the scalar kl helpers, and the quadrature."""

import json
import math
import warnings
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zcp_paclab.divergences as divergences
from zcp_paclab import cli
from conftest import (
    oracle_adaptive_simpson,
    oracle_integrand,
    oracle_kl_inverse_upper,
    random_dominated_pair,
    random_pair,
)
from zcp_paclab import (
    DivergenceKind,
    DivergenceValue,
    GaussianMixturePair,
    NumericalError,
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

# P and Q weights in [1e-3, 1] on 2 to 16 shared atoms, as random_pair(max_support=16) draws
_PAIRS = st.lists(st.tuples(*[st.floats(1e-3, 1.0)] * 2), min_size=2, max_size=16).map(
    lambda atoms: tuple(map(make_discrete, zip(*atoms)))
)


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

    @settings(max_examples=50, deadline=None)
    @given(_PAIRS)
    def test_renyi_monotone_in_alpha(self, pair):
        values = [renyi_discrete(*pair, a) for a in (0.5, 1.5, 2.0, 4.0)]
        assert all(b - a >= -1e-12 for a, b in zip(values, values[1:]))

    def test_zcp_zero_c_is_zero(self):
        assert zcp_discrete(P_HALF, Q_QUARTER, 0.0) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(_PAIRS)
    def test_zcp_monotone_in_c(self, pair):
        values = [zcp_discrete(*pair, c) for c in (0.0, 1.0, 10.0, 1e3, 1e6, 1e12)]
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

    @pytest.mark.parametrize("alpha", [1e300, 1e308])
    def test_renyi_at_huge_alpha_tends_to_the_max_log_ratio(self, alpha):
        # at alpha = 1e308 both alpha lp and (1 - alpha) lq overflow, with opposite signs
        p, q = make_discrete([0.1, 0.05, 0.85]), make_discrete([0.12, 0.08, 0.8])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = renyi_discrete(p, q, alpha)
        assert value == pytest.approx(math.log(0.85 / 0.8), rel=1e-12, abs=0.0)

    def test_renyi_at_huge_alpha_with_a_massless_atom(self):
        # where p = 0 < q, alpha lp is -inf and (1 - alpha) lq overflows to +inf
        p, q = make_discrete([0.0, 0.15, 0.85]), make_discrete([0.12, 0.08, 0.8])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert renyi_discrete(p, q, 1e308) == pytest.approx(
                math.log(0.15 / 0.08), rel=1e-12, abs=0.0)
            assert renyi_discrete(q, p, 1e308) == math.inf

    def test_renyi_overflow_fixup_leaves_other_rows_bits(self):
        # a block row takes the bits of a 1-d call on it, overflowed or not
        with np.errstate(divide="ignore"):
            lp = np.log([[0.1, 0.05, 0.85], [0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
            lq = np.log([[0.12, 0.08, 0.8], [0.25, 0.75, 0.0], [0.1, 0.1, 0.8]])
        for alpha in (2.0, 1e300, 1e308):
            block = divergences._renyi_rows(lp, lq, alpha)
            for row in range(3):
                one = divergences._renyi_rows(lp[row], lq[row], alpha)
                assert block[row].hex() == float(one).hex()

    @pytest.mark.parametrize("p", [0.1, 1e-154])
    def test_zcp_finite_where_twice_the_log_ratio_overflows(self, p):
        # ln a = 1e308: 2 ln(r - 1) overflows, while its root sqrt(2) sqrt(ln(r - 1)) does not
        from zcp_paclab import bernoulli_instance

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = zcp_discrete(*bernoulli_instance(p, 1e308), 1.0)
        expected = p * math.sqrt(2.0) * math.sqrt(1e308)  # p sqrt(2 ln a)
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)


def _inverse_pairs(count, seed):
    """(p_hat, budget) pairs for the kl inversion: edge p_hat values over 200 budgets, the edge
    rows, and ``count`` random pairs."""
    rng = np.random.default_rng(seed)
    edges = [1e-300, 1e-17, 0.5, 1.0 - 2.0**-53]
    budgets = np.geomspace(1e-15, 100.0, 200).tolist()
    pairs = [(p, b) for p in edges for b in budgets]
    pairs += [(p, b) for p in [0.0, 1.0, *edges] for b in [0.0, 5e-324, 1e-300, math.inf]]
    # mostly uniform p_hat: one near 0 takes up to twice the halvings of one near 1/2 (about
    # 55), many through _rel_entr's slower branch, and 100,000 pairs must run in seconds
    p_hat = np.where(rng.random(count) < 0.95, rng.random(count),
                     10.0 ** rng.uniform(-300.0, 0.0, count))
    return pairs + list(zip(p_hat.tolist(), (10.0 ** rng.uniform(-15.0, 2.0, count)).tolist()))


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

    @settings(max_examples=2000, deadline=None)
    @given(st.floats(0.0, 0.8), st.floats(1e-6, 2.0))
    def test_round_trip(self, p_hat, budget):
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


    def test_kernel_makes_the_first_bisections_comparisons(self):
        # the unchecked kernel against the bisection as first written on _little_kl, bit for bit
        pairs = _inverse_pairs(100_000, seed=18)
        for p, b in pairs:
            assert divergences._little_kl_inverse_upper(p, b).hex() == (
                oracle_kl_inverse_upper(p, b).hex()), (p, b)
        assert len(pairs) > 100_000


class TestAboveKlInverse:
    def test_verdicts_equal_the_bisections(self, monkeypatch):
        # q at the root r, 1, 2 and 40 spacings of r and 1e-6 either side of it, p_hat and 1
        pairs = _inverse_pairs(3_000, seed=29)
        r = np.array([oracle_kl_inverse_upper(p, b) for p, b in pairs])
        offsets = [k * np.spacing(r) for k in (0, 1, -1, 2, -2, 40, -40)] + [1e-6, -1e-6]
        p_hat, budget = (np.array(column) for column in zip(*pairs))
        q = np.clip(np.concatenate([r + x for x in offsets] + [p_hat, np.ones_like(r)]), 0.0, 1.0)
        p_hat, budget, r = (np.tile(a, len(offsets) + 2) for a in (p_hat, budget, r))
        assert divergences._above_kl_inverse(q, p_hat, budget).tolist() == (q > r).tolist()
        # the bisection's entries read as above at a root of -inf and not above at +inf; every
        # route is taken: certified above, certified not above, and the bisection
        verdicts = []
        for root in (-math.inf, math.inf):
            monkeypatch.setattr(divergences, "_little_kl_inverse_upper", lambda p, b: root)
            verdicts.append(divergences._above_kl_inverse(q, p_hat, budget))
        low, high = verdicts
        assert (low & high).any() and (~low & ~high).any() and (low & ~high).any()


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
    def test_nodes_where_both_densities_underflow_add_nothing(self):
        # P = Q, and away from 0 both log-densities of sigma 1e-300 are -inf
        pair = GaussianMixturePair(sigma2=1e-300, p=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert divergence_gaussian(pair, "tv").value == 0.0
            assert divergence_gaussian(pair, "zcp", c=1.0).value == 0.0

    def test_matches_fine_discretization(self):
        # independent oracle: 200k-point trapezoid on [-20, 20] in log space
        pair = gaussian_instance(0.3, 1.0)
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
        # alpha = 2 converges iff alpha < 1/(1 - sigma2^2) = 2.29
        pair = gaussian_instance(0.75, 1.0)
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
        pair = gaussian_instance(0.3, 1.0)  # threshold 1.099 < 2
        assert divergence_gaussian(pair, "renyi", alpha=2.0).value == math.inf

    def test_divergent_renyi_on_a_slowly_diverging_pair(self):
        # tail exponent (alpha - 1)/(2 sigma2^2) - alpha/2 = +0.1: the
        # truncated integral is finite (732.6 at x = 20) but the true one is not
        pair = gaussian_instance(0.2, 1.0)
        result = divergence_gaussian(pair, "renyi", alpha=1.05)
        assert result == DivergenceValue(math.inf, 0.0)
        # just below the threshold alpha = 1/(1 - p^2) the integral converges
        assert math.isfinite(divergence_gaussian(pair, "renyi", alpha=1.04).value)

    @pytest.mark.parametrize("max_depth", [1, 3])
    def test_subdivision_budget_exhausted(self, monkeypatch, max_depth):
        pair = gaussian_instance(0.2, 1.0)
        monkeypatch.setattr(divergences, "_MAX_DEPTH", max_depth)
        with pytest.raises(NumericalError, match=r"\(subdivision budget exhausted\)"):
            divergence_gaussian(pair, "kl")

    def test_evaluation_budget_exhausted(self, monkeypatch):
        # p = 1e-4 TV takes 11,947 integrand evaluations, the rough pass included
        pair = gaussian_instance(1e-4, 1.0)
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

    def test_small_subdivision_budget_suffices(self, monkeypatch):
        pair = gaussian_instance(0.2, 1.0)
        full = divergence_gaussian(pair, "kl")
        monkeypatch.setattr(divergences, "_MAX_DEPTH", 5)
        loose = divergence_gaussian(pair, "kl")
        assert abs(loose.value - full.value) <= loose.abs_error + full.abs_error + 1e-12

    def test_refinement_batches_do_not_change_the_value(self, monkeypatch):
        pair = gaussian_instance(0.05, 0.75)
        whole_levels = divergence_gaussian(pair, "zcp", c=10.0)
        monkeypatch.setattr(divergences, "_BATCH", 3)
        batched = divergence_gaussian(pair, "zcp", c=10.0)
        np.testing.assert_allclose(batched.value, whole_levels.value, rtol=1e-14)
        np.testing.assert_allclose(batched.abs_error, whole_levels.abs_error, rtol=1e-12)

    def test_error_estimate_brackets_refined_value(self, monkeypatch):
        pair = gaussian_instance(0.2, 1.0)
        monkeypatch.setattr(divergences, "_REL_TOL", 1e-6)
        loose = divergence_gaussian(pair, "kl")
        monkeypatch.setattr(divergences, "_REL_TOL", 1e-10)
        tight = divergence_gaussian(pair, "kl")
        assert abs(loose.value - tight.value) <= loose.abs_error + tight.abs_error + 1e-12
        assert loose.abs_error <= 1e-6 * abs(loose.value) + 1e-12

    def test_identical_pair_is_zero(self):
        # P with p = 0 equals Q exactly
        degenerate = GaussianMixturePair(sigma2=0.5, p=0.0)
        assert divergence_gaussian(degenerate, "kl").value == pytest.approx(0.0, abs=1e-12)
        assert divergence_gaussian(degenerate, "tv").value == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("sigma2", [0.25, 0.5, 2.0, 4.0, 100.0])
    def test_unit_weight_matches_the_closed_forms(self, sigma2):
        # at p = 1 the pair is N(0, 1) against N(0, sigma2^2), whose KL, TV and Renyi have closed
        # forms; sigma2 > 1 puts Q's mass beyond x = 20
        pair = GaussianMixturePair(sigma2=sigma2, p=1.0)
        kl = math.log(sigma2) + 0.5 / (sigma2 * sigma2) - 0.5
        assert divergence_gaussian(pair, "kl").value == pytest.approx(kl, rel=1e-8)
        # the densities cross at +/- x, and TV is the mass between the crossings' CDF values
        x = sigma2 * math.sqrt(2.0 * math.log(sigma2) / (sigma2 * sigma2 - 1.0))
        tv = 2.0 * abs(NormalDist().cdf(x) - NormalDist(0.0, sigma2).cdf(x))
        assert divergence_gaussian(pair, "tv").value == pytest.approx(tv, rel=1e-8)
        for alpha in (0.5, 0.9, 1.04, 1.5):
            # finite iff the mixed variance alpha sigma2^2 + 1 - alpha is positive
            mixed = alpha * sigma2 * sigma2 + 1.0 - alpha
            renyi = (
                math.log(sigma2) + math.log(sigma2 * sigma2 / mixed) / (2.0 * (alpha - 1.0))
                if mixed > 0.0
                else math.inf
            )
            got = divergence_gaussian(pair, "renyi", alpha=alpha).value
            assert got == pytest.approx(renyi, rel=1e-8), alpha

    def test_wide_reference_keeps_its_mass(self):
        # with the domain fixed at +/- 20 this gave 0.27632 with abs_error 2.4e-10
        pair = GaussianMixturePair(sigma2=100.0, p=0.5)
        # P - Q = p (N(0, 1) - Q), so TV is p times the closed form at p = 1
        x = 100.0 * math.sqrt(2.0 * math.log(100.0) / (100.0 * 100.0 - 1.0))
        tv = 0.5 * 2.0 * (NormalDist().cdf(x) - NormalDist(0.0, 100.0).cdf(x))
        result = divergence_gaussian(pair, "tv")
        assert result.value == pytest.approx(tv, rel=1e-8)
        assert result.value == pytest.approx(0.48669, abs=1e-5)

    def test_kind_coercion_and_rejection(self):
        pair = gaussian_instance(0.4, 1.0)
        by_enum = divergence_gaussian(pair, DivergenceKind.TV)
        by_name = divergence_gaussian(pair, "tv")
        assert by_enum.value == by_name.value
        # the enum holds the pair divergences; the scalar little_kl is not one
        assert [k.value for k in DivergenceKind] == ["kl", "tv", "renyi", "zcp"]
        with pytest.raises(ValidationError, match="unknown divergence kind 'little_kl'"):
            divergence_gaussian(pair, "little_kl")
        for kind in (5, None, [1]):  # not a name of a kind, nor hashable
            with pytest.raises(ValidationError, match="unknown divergence kind"):
                divergence_gaussian(pair, kind)
        with pytest.raises(ValidationError):
            divergence_gaussian(pair, "zcp")  # missing c
        with pytest.raises(ValidationError):
            divergence_gaussian(pair, "renyi")  # missing alpha
        with pytest.raises(ValidationError):
            divergence_gaussian(pair, "kl", alpha=2.0)  # stray parameter


# every kind, at the ZCP scales and Renyi orders the refinement must keep the bits of
_QUADRATURE_KINDS = [
    ("kl", {}),
    ("tv", {}),
    *(("zcp", {"c": c}) for c in (0.0, 1.0, 1e3)),
    *(("renyi", {"alpha": alpha}) for alpha in (0.5, 0.9, 1.04)),
]
_ORACLE_PAIRS = [
    gaussian_instance(p, exponent)
    for p in (0.2, 0.1, 0.05, 0.02, 1e-4)
    for exponent in (1.0, 0.75)
]


def _outcome(pair, kind, **kwargs):
    """divergence_gaussian's value and error as hex, or its refusal's message."""
    try:
        result = divergence_gaussian(pair, kind, **kwargs)
    except NumericalError as exc:
        return str(exc)
    return result.value.hex(), result.abs_error.hex()


def _quadrature(monkeypatch, oracle, pair, kind, **kwargs):
    """``_outcome`` and the raw (value, error, exhausted) of its Simpson pass, through the
    library's refinement and integrand or, with ``oracle``, through conftest's."""
    simpson, raw = (oracle_adaptive_simpson if oracle else divergences._adaptive_simpson), []

    def recording(*args):
        raw.append(simpson(*args))
        return raw[-1]

    with monkeypatch.context() as patch:
        patch.setattr(divergences, "_adaptive_simpson", recording)
        if oracle:
            patch.setattr(divergences, "_integrand", oracle_integrand)
        outcome = _outcome(pair, kind, **kwargs)
    return outcome, [(value.hex(), err.hex(), exhausted) for value, err, exhausted in raw]


def _evaluations(monkeypatch, pair, kind, **kwargs):
    """Integrand evaluations one divergence_gaussian call spends."""
    make, sizes = divergences._integrand, []

    def counting(*args):
        f = make(*args)
        return lambda x: (sizes.append(x.size), f(x))[1]

    with monkeypatch.context() as patch:
        patch.setattr(divergences, "_integrand", counting)
        divergence_gaussian(pair, kind, **kwargs)
    return sum(sizes)


class TestQuadratureOracle:
    """The stacked refinement and the integrand's single ln q against their first versions in
    conftest: the same intervals accepted in the same order give every value and error the same
    bits, and the evaluations run out at the same count."""

    def _agree(self, monkeypatch):
        outcomes = []
        for pair in _ORACLE_PAIRS:
            for kind, kwargs in _QUADRATURE_KINDS:
                expected = _quadrature(monkeypatch, True, pair, kind, **kwargs)
                got = _quadrature(monkeypatch, False, pair, kind, **kwargs)
                assert got == expected, (pair, kind, kwargs)
                outcomes.append(got)
        return outcomes

    @pytest.mark.parametrize("batch", [2048, 3])
    def test_same_bits_at_each_batch(self, monkeypatch, batch):
        monkeypatch.setattr(divergences, "_BATCH", batch)
        outcomes = self._agree(monkeypatch)
        assert all(isinstance(outcome, tuple) for outcome, _ in outcomes)

    def test_same_bits_when_the_subdivisions_run_out(self, monkeypatch):
        monkeypatch.setattr(divergences, "_MAX_DEPTH", 3)
        outcomes = self._agree(monkeypatch)
        assert any(exhausted for _, raw in outcomes for _, _, exhausted in raw)

    @pytest.mark.parametrize("exponent", [1.0, 0.75])
    @pytest.mark.parametrize("kind, kwargs", _QUADRATURE_KINDS)
    def test_same_bits_within_the_depth_limit_at_a_tiny_weight(
        self, monkeypatch, kind, kwargs, exponent
    ):
        # TV at a mixture weight of 1e-6 halves intervals 57 levels deep at exponent 1 and 60 at
        # 0.75, so _MAX_DEPTH = 60 leaves no margin; a pass at the limit would be exhausted
        pair = gaussian_instance(1e-6, exponent)
        expected = _quadrature(monkeypatch, True, pair, kind, **kwargs)
        got = _quadrature(monkeypatch, False, pair, kind, **kwargs)
        assert got == expected
        assert isinstance(got[0], tuple)
        # one Simpson pass per finite value; Renyi past its threshold is +inf without one
        finite = math.isfinite(float.fromhex(got[0][0]))
        assert [exhausted for _, _, exhausted in got[1]] == [False] * finite

    @pytest.mark.parametrize("kind, kwargs", _QUADRATURE_KINDS)
    def test_same_refusal_when_the_evaluations_run_out(self, monkeypatch, kind, kwargs):
        pair = gaussian_instance(1e-4, 1.0)
        spent = _evaluations(monkeypatch, pair, kind, **kwargs)
        if spent == 0:  # Renyi past its threshold is +inf without integrating
            assert divergence_gaussian(pair, kind, **kwargs).value == math.inf
            return
        for limit, refused in ((spent, False), (spent - 1, True)):
            monkeypatch.setattr(divergences, "_MAX_EVALUATIONS", limit)
            expected = _quadrature(monkeypatch, True, pair, kind, **kwargs)
            assert _quadrature(monkeypatch, False, pair, kind, **kwargs) == expected
            assert isinstance(expected[0], str) == refused, limit


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


_NEAR_ONE_ALPHAS = [1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 + 1e-6, 1.0 + 1e-3]


def _plus_zero(value):
    return value == 0.0 and math.copysign(1.0, value) == 1.0


class TestRenyiNearOne:
    """Near alpha = 1 the log-sum-exp's rounding, divided by alpha - 1, used to give P = Q a
    confident nonzero D; the log1p/expm1 form gives exactly 0 there and tends to KL."""

    @pytest.mark.parametrize("alpha", _NEAR_ONE_ALPHAS)
    def test_equal_pairs_give_exactly_zero(self, alpha):
        rng = np.random.default_rng(9)
        weights = [[0.1, 0.2, 0.3, 0.4], [1e-30, 1.0, 0.0, 3e-8]]
        weights += [rng.random(m) for m in (2, 8, 300)]
        for w in weights:
            p = make_discrete(w)
            assert _plus_zero(renyi_discrete(p, p, alpha)), w
        rows = np.array([make_discrete(rng.random(8)).log_weights for _ in range(5)])
        assert all(map(_plus_zero, divergences._renyi_rows(rows, rows, alpha).tolist()))

    @pytest.mark.parametrize("alpha", [*_NEAR_ONE_ALPHAS, 0.3, 0.76, 0.9, 1.1, 1.24, 2.0, 10.0])
    def test_separated_pairs_match_mpmath(self, alpha):
        mpmath = pytest.importorskip("mpmath")
        pairs = [
            ([0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1]),
            ([0.5, 0.5], [0.9, 0.1]),
            ([1.0, 2.0, 3.0, 0.0], [1.0, 1.0, 1.0, 1.0]),
            ([1e-12, 0.3, 0.7], [0.2, 0.2, 0.6]),
            (np.arange(1.0, 65.0).tolist(), np.arange(64.0, 0.0, -1.0).tolist()),
        ]
        with mpmath.workdps(60):
            for wp, wq in pairs:
                a = mpmath.mpf(alpha)
                sp, sq = mpmath.fsum(map(mpmath.mpf, wp)), mpmath.fsum(map(mpmath.mpf, wq))
                total = mpmath.fsum((mpmath.mpf(x) / sp) ** a * (mpmath.mpf(y) / sq) ** (1 - a)
                                    for x, y in zip(wp, wq) if x > 0)
                expected = float(mpmath.log(total) / (a - 1))
                value = renyi_discrete(make_discrete(wp), make_discrete(wq), alpha)
                assert abs(value - expected) <= 1e-12 * expected, (wp, wq, value, expected)

    def test_tends_to_kl(self):
        p, q = make_discrete([0.1, 0.2, 0.3, 0.4]), make_discrete([0.4, 0.3, 0.2, 0.1])
        kl = kl_discrete(p, q)
        for alpha in (1.0 - 1e-12, 1.0 + 1e-12):
            assert abs(renyi_discrete(p, q, alpha) - kl) <= 1e-11 * kl

    def test_cli_prints_zero_for_equal_pairs(self, capsys):
        weights = ("--p", "0.1,0.2,0.3,0.4", "--q", "0.1,0.2,0.3,0.4")
        for alpha in ("1.0000000001", "1.000001"):
            assert cli.run(["divergence", "--kind", "renyi", "--alpha", alpha, *weights]) == 0
            assert capsys.readouterr().out.splitlines()[1].split(",")[3] == "0"
        argv = ["bound", "--n", "100", "--m", "10", "--eta", "0", "--alpha", "1.0000000001"]
        assert cli.run([*argv, "--format", "json"]) == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert row["d_alpha"] == row["d_kl"] == row["d_tv"] == 0.0


class TestNoNegativeDivergence:
    """Every divergence is >= 0: a value that rounding puts below 0, or at -0.0, is +0.0."""

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_renyi_below_one_is_never_minus_zero(self, alpha):
        # a log-sum-exp of +0.0 over alpha - 1 < 0 gave -0.0: at P = Q for alpha = 0.7, and for
        # this near pair at 0.3 and 0.5
        p, q = make_discrete([0.1, 0.2, 0.3, 0.4]), make_discrete([0.1, 0.2, 0.3, 0.40000001])
        for a, b in ((p, p), (p, q), (q, p)):
            value = renyi_discrete(a, b, alpha)
            assert value >= 0.0 and math.copysign(1.0, value) == 1.0

    def test_cli_prints_no_minus_zero(self, capsys):
        argv = ["divergence", "--kind", "renyi", "--alpha", "0.5", "--p", "0.1,0.2,0.3,0.4",
                "--q", "0.1,0.2,0.3,0.40000001"]
        assert cli.run(argv) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[3] == "0"

    def test_tv_of_disjoint_pairs_is_at_most_one(self):
        # 1/2 (1 + the sum of q's weights) rounded to 1.0000000000000002
        p = make_discrete([0, 0, 0, 0, 0, 0, 0, 1])
        q = make_discrete([0, 0, 0, 0.0031622776601683794, 0, 1, 1, 0])
        assert tv_discrete(p, q) == tv_discrete(q, p) == 1.0

    def test_quadrature_renyi_at_tiny_alpha_is_plus_zero(self):
        # the integral's log is -1.29e-11 below 0 at alpha = 1e-12; the error estimate stays
        result = divergence_gaussian(gaussian_instance(0.2, 1.0), "renyi", alpha=1e-12)
        assert _plus_zero(result.value)
        assert result.abs_error.hex() == (1.3196878806390033e-10).hex()


# a weight of 0 or of 1e-30 to 1, so that P and Q span 30 orders of magnitude
_WEIGHT = st.one_of(st.just(0.0), st.floats(-30.0, 0.0).map(lambda e: 10.0**e))
_AXIOM_PAIRS = st.lists(st.tuples(_WEIGHT, _WEIGHT), min_size=2, max_size=8).filter(
    lambda atoms: any(a for a, _ in atoms) and any(b for _, b in atoms)
).map(lambda atoms: tuple(map(make_discrete, zip(*atoms))))
_ALPHAS = st.one_of(
    st.sampled_from([1e-12, 0.3, 0.5, 0.75, 1.25, 2.0, 10.0, 1e3, *_NEAR_ONE_ALPHAS]),
    st.floats(1e-6, 50.0).filter(lambda a: a != 1.0),
)
_SCALES = st.one_of(st.sampled_from([0.0, 1.0, 44.0, 1e3]), st.floats(0.0, 1e6))


class TestDivergenceAxiomProperties:
    @settings(max_examples=400, deadline=None)
    @given(_AXIOM_PAIRS, _SCALES, _SCALES, _ALPHAS, _ALPHAS)
    def test_axioms(self, pair, c1, c2, a1, a2):
        p, q = pair
        (c1, c2), (a1, a2) = sorted((c1, c2)), sorted((a1, a2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kl, tv, tv_swapped = kl_discrete(p, q), tv_discrete(p, q), tv_discrete(q, p)
            zcp1, zcp2 = zcp_discrete(p, q, c1), zcp_discrete(p, q, c2)
            renyi1, renyi2 = renyi_discrete(p, q, a1), renyi_discrete(p, q, a2)
            same = [kl_discrete(p, p), tv_discrete(p, p), zcp_discrete(p, p, c1)]
            renyi_same = [renyi_discrete(p, p, a) for a in (a1, a2)]
        for value in (kl, tv, zcp1, zcp2, renyi1, renyi2, *same, *renyi_same):
            assert value >= 0.0 and math.copysign(1.0, value) == 1.0
        assert all(map(_plus_zero, same))
        for alpha, value in zip((a1, a2), renyi_same):
            assert _plus_zero(value) if abs(alpha - 1.0) < divergences._NEAR_ONE else value <= 1e-14
        assert tv == tv_swapped <= 1.0
        assert zcp1 <= zcp2
        assert renyi1 <= renyi2 * (1.0 + 1e-12) + 1e-14
