"""The coverage engine runs trials as (trials, m) blocks with the bits of one trial at a time.

The oracle below builds one trial's BoundReport from public scalar functions
only, the way trials were computed one by one; every engine report must
equal it bit for bit.
"""

import dataclasses
import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from zcp_paclab import (
    BoundConfig,
    BoundReport,
    DiscreteDistribution,
    FixedPosterior,
    LearningInstance,
    ValidationError,
    complexity_term,
    coverage_reports,
    empirical_bernstein_bound,
    hoeffding_zcp_bound,
    kl_discrete,
    learning_instance_from_dict,
    little_kl_mean_bound,
    make_discrete,
    mcallester_baseline,
    renyi_discrete,
    run_coverage,
    sample_variance_from_sums,
    tv_discrete,
    zcp_discrete,
)
from zcp_paclab import bounds, divergences, harness
from zcp_paclab.distributions import _logsumexp, _normalized

from conftest import masked_log1p_sq, masked_log_abs_expm1

_CONFIG = BoundConfig(n=1000, delta=0.05, alpha=2.0)


def _oracle(instance, config, seed, trial):
    """Trial ``trial`` of a coverage run, from public scalar functions only."""
    n = config.n
    s1, s2 = instance.loss_sums(n, np.random.default_rng((seed, trial)))
    mu_hat = s1 / n
    post, prior = instance.posterior(mu_hat, n), instance.prior
    w, true_mu = post.weights, instance.true_means()
    v_hat = float(w @ sample_variance_from_sums(s1, s2, n))
    p_hat_mean = float(w @ mu_hat)
    d_kl, d_alpha = kl_discrete(post, prior), renyi_discrete(post, prior, config.alpha)
    d_zcp1 = zcp_discrete(post, prior, config.thm1_c)
    d_zcp2 = zcp_discrete(post, prior, config.thm2_c)
    comp = complexity_term(d_alpha, d_zcp2, config)
    return BoundReport(
        d_kl=d_kl,
        d_tv=tv_discrete(post, prior),
        d_alpha=d_alpha,
        d_zcp_thm1=d_zcp1,
        d_zcp_thm2=d_zcp2,
        comp_n=comp,
        hoeffding_zcp=hoeffding_zcp_bound(d_zcp1, config),
        mcallester=mcallester_baseline(d_kl, config),
        emp_bernstein=empirical_bernstein_bound(comp, v_hat, n),
        little_kl_bound=little_kl_mean_bound(p_hat_mean, comp, n),
        realized_gap=float(w @ (mu_hat - true_mu)),
        v_hat=v_hat,
        p_hat_mean=p_hat_mean,
        p_mean=float(w @ true_mu),
    )


def _bits(report):
    """Every field's exact bits; also fails unless each field is a Python float."""
    return [value.hex() for value in dataclasses.asdict(report).values()]


def _assert_engine_matches_oracle(instance, config, trials, seed):
    reports = list(coverage_reports(instance, config, trials, seed))
    assert len(reports) == trials
    for trial, report in enumerate(reports):
        assert _bits(report) == _bits(_oracle(instance, config, seed, trial)), trial
    return reports


class TestEngineMatchesOracle:
    @pytest.mark.parametrize("eta", [0.0, 5.0])
    @pytest.mark.parametrize("loss", ["abs", "bernoulli"])
    @pytest.mark.parametrize("m, trials", [(1, 5), (50, 5), (2000, 6), (10000, 2)])
    def test_gibbs_and_prior_posteriors(self, m, trials, loss, eta):
        instance = learning_instance_from_dict({"m": m, "loss": loss, "eta": eta})
        _assert_engine_matches_oracle(instance, _CONFIG, trials, seed=11)

    @pytest.mark.parametrize("loss", ["abs", "bernoulli"])
    def test_fixed_posterior(self, loss):
        payload = {"m": 50, "loss": loss, "posterior": "fixed",
                   "fixed_weights": np.linspace(1.0, 3.0, 50).tolist()}
        instance = learning_instance_from_dict(payload)
        _assert_engine_matches_oracle(instance, _CONFIG, 7, seed=2)

    def test_undominated_fixed_posterior_is_vacuous(self):
        prior = make_discrete([0.0] + [1.0] * 49)
        rule = FixedPosterior(make_discrete(np.ones(50)))
        instance = LearningInstance(prior, harness.LossKind.ABS_DISTANCE, rule)
        reports = _assert_engine_matches_oracle(instance, _CONFIG, 4, seed=5)
        for report in reports:
            assert report.d_kl == report.d_alpha == math.inf
            assert report.d_zcp_thm1 == report.d_zcp_thm2 == report.comp_n == math.inf
            bounds_ = (report.hoeffding_zcp, report.mcallester, report.emp_bernstein,
                       report.little_kl_bound)
            assert bounds_ == (1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("n", [2, 7, 1000])
    def test_gibbs_rows_sharing_zero_prior_atoms(self, n):
        # zero atoms shared by posterior and prior are dropped from the sums,
        # as a 1-d call drops them, so the pairwise sums group the same way
        instance = learning_instance_from_dict({"m": 50, "eta": 5.0, "prior": [0.0] + [1.0] * 49})
        _assert_engine_matches_oracle(instance, BoundConfig(n, 0.05), 20, seed=11)


class TestBlocks:
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_block_boundary_matches_one_trial_at_a_time(self, offset, monkeypatch):
        instance = learning_instance_from_dict({"m": 50, "loss": "abs", "eta": 5.0})
        rows = harness._BLOCK_ENTRIES // 50
        # coverage_reports around one block, run_coverage (>= 100 trials) around two
        blocked = list(coverage_reports(instance, _CONFIG, rows + offset, 4))
        blocked_run = run_coverage(instance, _CONFIG, 2 * rows + offset, 4)
        monkeypatch.setattr(harness, "_BLOCK_ENTRIES", 1)
        single = list(coverage_reports(instance, _CONFIG, rows + offset, 4))
        assert [_bits(r) for r in blocked] == [_bits(r) for r in single]
        assert run_coverage(instance, _CONFIG, 2 * rows + offset, 4) == blocked_run

    def test_failures_are_counted_and_logged_per_trial(self, monkeypatch, caplog):
        # a zero Hoeffding bound fails exactly the trials with a positive gap
        monkeypatch.setattr(harness, "_hoeffding_zcp", lambda d_zcp, config: np.zeros_like(d_zcp))
        instance = learning_instance_from_dict({"m": 50, "loss": "abs", "eta": 5.0})
        reports = list(coverage_reports(instance, _CONFIG, 200, 3))
        expected = tuple(
            (trial, name, report)
            for trial, report in enumerate(reports)
            for name, failed in report.failures().items()
            if failed
        )
        with caplog.at_level(logging.WARNING, logger="zcp_paclab.harness"):
            result = run_coverage(instance, _CONFIG, 200, 3)
        assert result.failure_events == expected
        failures = {row.bound: row.failures for row in result.rows}
        assert 0 < failures["hoeffding_zcp"] < 200
        assert sum(failures.values()) == len(expected) == len(caplog.records)
        assert all(type(trial) is int for trial, _, _ in result.failure_events)


class TestNaNIsNeverAPass:
    @pytest.mark.parametrize("eta", [0.0, 5.0])
    def test_nan_loss_sums_raise(self, eta, monkeypatch):
        original = LearningInstance.loss_sums

        def poisoned(self, n, rng):
            s1, s2 = original(self, n, rng)
            s1 = s1.copy()
            s1[3] = math.nan
            return s1, s2

        monkeypatch.setattr(LearningInstance, "loss_sums", poisoned)
        instance = learning_instance_from_dict({"m": 8, "eta": eta})
        with pytest.raises(ValidationError, match="NaN"):
            run_coverage(instance, BoundConfig(100, 0.05), 100, 0)
        with pytest.raises(ValidationError, match="NaN"):
            next(coverage_reports(instance, BoundConfig(100, 0.05), 1, 0))

    def test_nan_bound_raises_instead_of_passing(self, monkeypatch):
        def mcallester(d_kl, config):
            return np.where(np.arange(d_kl.size) == 3, math.nan, 0.5)

        monkeypatch.setattr(harness, "_mcallester", mcallester)
        instance = learning_instance_from_dict({"m": 8, "eta": 5.0})
        with pytest.raises(ValidationError, match=r"^mcallester is NaN in trial 3$"):
            run_coverage(instance, BoundConfig(100, 0.05), 100, 0)


_BLOCKS = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 4), st.integers(1, 300)),
    elements=st.one_of(st.floats(-2000.0, 50.0), st.just(-math.inf)),
)


class TestRowKernels:
    @settings(max_examples=200, deadline=None)
    @given(_BLOCKS)
    def test_logsumexp_rows_equal_1d_calls(self, block):
        rows = _logsumexp(block)
        assert rows.shape == block.shape[:1]
        assert [float(v).hex() for v in rows] == [float(_logsumexp(r.copy())).hex() for r in block]

    def test_divergence_rows_equal_1d_calls(self):
        rng = np.random.default_rng(7)
        scales = (44.0, 0.0, 1e200)  # at c = 1e200, ln(1 + (ct)^2) takes its s2 > 700 branch

        def shared(k):  # entry k of TV, then ZCP at every scale, from one call as a block makes it
            return lambda lp, lq, *_: divergences._tv_zcp_rows(lp, lq, *scales)[k]

        # (row function, public 1-d function, extra argument)
        kinds = [
            (lambda lp, lq: divergences._kl_rows(lp, lq, np.exp(lp)), kl_discrete, ()),
            (shared(0), tv_discrete, ()),
            (divergences._renyi_rows, renyi_discrete, (2.0,)),
            (divergences._renyi_rows, renyi_discrete, (0.5,)),
            *((shared(k), zcp_discrete, (c,)) for k, c in enumerate(scales, 1)),
        ]
        infinite = 0
        for m in (3, 9, 50, 300):
            weights = rng.random(m) * (rng.random(m) < 0.8)
            weights[0] = 1.0
            prior = make_discrete(weights)
            # rows sharing the prior's zero atoms, as Gibbs posteriors do, form one block;
            # rows with zero atoms of their own (some not dominated) each form a block of one
            shared = _normalized(prior.log_weights - rng.exponential(3.0, (5, m)))
            own = np.where(rng.random((4, m)) < 0.3, -np.inf, rng.normal(size=(4, m)))
            own[:, 0] = 0.0
            blocks = [shared, *(row[None] for row in _normalized(own))]
            for lp in blocks:
                for rows, scalar, extra in kinds:
                    values = rows(lp, prior.log_weights, *extra)
                    expected = [scalar(DiscreteDistribution(r), prior, *extra).hex() for r in lp]
                    assert [float(v).hex() for v in values] == expected, (m, lp, scalar, extra)
                    infinite += int(np.isinf(values).sum())
        assert infinite > 0

    def test_one_failure_predicate(self):
        rng = np.random.default_rng(3)
        names = list(BoundReport.__dataclass_fields__)
        fields = {name: rng.uniform(-0.5, 1.0, 100) for name in names}
        fields["hoeffding_zcp"][:3] = fields["realized_gap"][:3]  # ties do not fail
        failed = bounds._failures(**fields)
        for i in range(100):
            report = BoundReport(**{name: float(values[i]) for name, values in fields.items()})
            assert report.failures() == {name: bool(values[i]) for name, values in failed.items()}
        assert 0 < sum(int(values.sum()) for values in failed.values()) < 400

    @pytest.mark.parametrize("n", [2, 50, 1000])
    def test_bound_kernels_equal_scalar_calls(self, n):
        rng = np.random.default_rng(n)
        config = BoundConfig(n, 0.05)
        d = np.concatenate([[0.0, 5e-324, 1e-300, math.inf], rng.exponential(1.0, 100),
                            10.0 ** rng.uniform(-12, 8, 100)])
        d_alpha = rng.permutation(d)
        v_hat = np.concatenate([[0.0, 0.25], rng.uniform(0.0, 0.25, d.size - 2)])

        def check(array, scalars):
            assert [float(v).hex() for v in array] == [float(s).hex() for s in scalars]

        check(bounds._hoeffding_zcp(d, config), [hoeffding_zcp_bound(x, config) for x in d])
        check(bounds._mcallester(d, config), [mcallester_baseline(x, config) for x in d])
        comp = bounds._complexity(d_alpha, d, config)
        check(comp, [complexity_term(a, z, config) for a, z in zip(d_alpha, d)])
        check(bounds._empirical_bernstein(comp, v_hat, n),
              [empirical_bernstein_bound(c, v, n) for c, v in zip(comp, v_hat)])

    def test_log_kernels_equal_their_masked_oracles(self):
        rng = np.random.default_rng(11)
        big = np.nextafter(700.0, math.inf)
        edges = [0.0, -0.0, 5e-324, 1e-300, 1e-8, 1.0, 699.0, 700.0, big, 709.78, 710.0, 800.0,
                 1e300, math.inf]
        d = np.array([*edges, *(-x for x in edges), *rng.normal(0.0, 30.0, 200),
                      *rng.uniform(-1000.0, 1000.0, 200)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the mask-free kernels warn about nothing either
            ln_abs = divergences._log_abs_expm1(d)
        assert [v.hex() for v in ln_abs] == [v.hex() for v in masked_log_abs_expm1(d)]

        for c in (0.0, 1e-300, 1.0, 44.0, 3.7e12, 1e152, 1e200, 1.7e308):
            # ln_t around the s2 = 2 ln(ct) = 700 edge, at s2 = 709.9 where exp(s2) overflows, and
            # far enough out that 2 ln(ct) overflows
            edge = 350.0 - math.log(c) if c > 0.0 else 0.0
            near = edge + np.array([-1e-9, -2e-13, 0.0, 2e-13, 1e-9, 1.0, 4.95])
            ln_t = np.concatenate([ln_abs, near, [-math.inf, math.inf, 1e308, 1.7e308]])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = divergences._log1p_sq(ln_t, c)
                scalar = divergences._log1p_sq(0.0, c)
            assert [v.hex() for v in values] == [v.hex() for v in masked_log1p_sq(ln_t, c)], c
            assert scalar.shape == () and float(scalar).hex() == masked_log1p_sq(0.0, c)[()].hex()


class TestBlockMemory:
    def test_a_block_peaks_below_378_kb(self):
        # at m = 50 a block holds 81 trials, so each (trials, m) array takes 32 KB: at most
        # about eleven of them may be alive at once
        for loss in ("abs", "bernoulli"):
            instance = learning_instance_from_dict({"m": 50, "loss": loss, "eta": 5.0})
            harness._trial_block(instance, _CONFIG, range(81), 1)  # builds the cached grid
            tracemalloc.start()
            try:
                harness._trial_block(instance, _CONFIG, range(81), 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 378_000, (loss, peak)
