"""The coverage engine runs trials as (trials, m) blocks with the bits of one trial at a time.

The oracle (``conftest.oracle_report``) builds one trial's BoundReport from
public scalar functions only and its own PCG64(seed) advanced to the trial's
first word, the way trials were computed one by one; every engine report
must equal it bit for bit.
"""

import dataclasses
import json
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
    make_discrete,
    mcallester_baseline,
    renyi_discrete,
    run_coverage,
    ville_experiment,
    tv_discrete,
    zcp_discrete,
)
from zcp_paclab import betting, bounds, cli, divergences, harness
from zcp_paclab.betting import kt_bettor, mean_zero_coins
from zcp_paclab.distributions import _logsumexp, _normalized

from conftest import masked_log1p_sq, masked_log_abs_expm1, oracle_coins, oracle_report

_CONFIG = BoundConfig(n=1000, delta=0.05, alpha=2.0)


def _bits(report):
    """Every field's exact bits; also fails unless each field is a Python float."""
    return [value.hex() for value in dataclasses.asdict(report).values()]


def _assert_engine_matches_oracle(instance, config, trials, seed):
    reports = list(coverage_reports(instance, config, trials, seed))
    assert len(reports) == trials
    for trial, report in enumerate(reports):
        assert _bits(report) == _bits(oracle_report(instance, config, seed, trial)), trial
    return reports


class TestEngineMatchesOracle:
    @pytest.mark.parametrize("eta", [0.0, 5.0, 500.0, 1e308])
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


class TestLargeEta:
    @pytest.mark.parametrize("eta", ["500", "5000", "1e308"])
    @pytest.mark.parametrize("loss", ["abs", "bernoulli"])
    @pytest.mark.parametrize("m", ["50", "2000"])
    def test_coverage_runs_without_a_warning(self, m, loss, eta, capsys):
        # the Gibbs weights used to sum to 1 only within about 1e-11 at eta = 500, and
        # eta * n overflowed to inf * 0 at 1e308
        argv = ["coverage", "--n", "200", "--m", m, "--loss", loss, "--eta", eta, "--trials", "100"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.run(argv) in (0, 2)
        out, err = capsys.readouterr()
        assert err == "" and "# all_passed=" in out


class TestBlocks:
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_block_boundary_matches_one_trial_at_a_time(self, offset, monkeypatch):
        instance = learning_instance_from_dict({"m": 50, "loss": "abs", "eta": 5.0})
        rows = harness._BLOCK_ENTRIES // 50
        # coverage_reports around one block, run_coverage (>= 100 trials) around two
        blocked = list(coverage_reports(instance, _CONFIG, rows + offset, 4))
        blocked_run = run_coverage(instance, _CONFIG, 2 * rows + offset, 4)
        # one trial per block, and one trial per draw of samples
        monkeypatch.setattr(harness, "_BLOCK_ENTRIES", 1)
        monkeypatch.setattr(harness, "_BLOCK_ROWS", 1)
        single = list(coverage_reports(instance, _CONFIG, rows + offset, 4))
        assert [_bits(r) for r in blocked] == [_bits(r) for r in single]
        assert run_coverage(instance, _CONFIG, 2 * rows + offset, 4) == blocked_run

    def test_failures_are_counted_per_trial_and_not_logged(self, monkeypatch, caplog):
        # a zero Hoeffding bound fails exactly the trials with a positive gap
        monkeypatch.setattr(harness, "_hoeffding_zcp", lambda d_zcp, config: np.zeros_like(d_zcp))
        instance = learning_instance_from_dict({"m": 50, "loss": "abs", "eta": 5.0})
        reports = list(coverage_reports(instance, _CONFIG, 200, 3))
        with caplog.at_level(logging.WARNING, logger="zcp_paclab.harness"):
            result = run_coverage(instance, _CONFIG, 200, 3)
        failures = {row.bound: row.failures for row in result}
        assert failures == {
            name: sum(report.failures()[name] for report in reports) for name in failures}
        assert 0 < failures["hoeffding_zcp"] < 200
        assert all(type(count) is int for count in failures.values())
        assert caplog.records == []

    def test_little_kl_failures_match_the_inverted_bounds(self, monkeypatch):
        # run_coverage decides little_kl without the inversion; with budgets a hundredth of the
        # true ones at n = 2, about a third of the trials fail it
        kernel = bounds._complexity
        monkeypatch.setattr(harness, "_complexity", lambda *args: kernel(*args) * 0.01)
        instance = learning_instance_from_dict({"m": 50, "loss": "abs", "eta": 5.0})
        config = BoundConfig(n=2, delta=0.05)
        failed = sum(r.failures()["little_kl"] for r in coverage_reports(instance, config, 200, 3))
        [row] = [row for row in run_coverage(instance, config, 200, 3) if row.bound == "little_kl"]
        assert row.failures == failed
        assert 0 < failed < 200


# seeds of one to four 32-bit words
_SEEDS = [0, 1, 2**32, 2**64 + 5, 10**30]
_SEED_IDS = ["0", "1", "2**32", "2**64+5", "10**30"]


def _scaled_hoeffding(monkeypatch):
    """Shrink the Hoeffding bound in the engine and in the public scalar call alike, so that
    some trials fail it and the failure counts are not all 0."""
    kernel = bounds._hoeffding_zcp

    def scaled(d_zcp, config):
        return kernel(d_zcp, config) * 0.01

    monkeypatch.setattr(bounds, "_hoeffding_zcp", scaled)
    monkeypatch.setattr(harness, "_hoeffding_zcp", scaled)


class TestStreamSpans:
    """Coverage and Ville read one PCG64(seed) per run; trial or path i reads its own span of
    it, which the oracles reach alone with ``advance``."""

    @pytest.mark.parametrize("seed", _SEEDS, ids=_SEED_IDS)
    @pytest.mark.parametrize("loss", ["abs", "bernoulli"])
    def test_reports_and_counts_match_the_oracle_trials(self, loss, seed, monkeypatch):
        _scaled_hoeffding(monkeypatch)
        instance = learning_instance_from_dict({"m": 50, "loss": loss, "eta": 5.0})
        rows = harness._BLOCK_ENTRIES // 50
        trials = rows + 20  # past a block boundary
        _assert_engine_matches_oracle(instance, _CONFIG, trials, seed)
        report = run_coverage(instance, _CONFIG, 2 * rows + 1, seed)  # past two boundaries
        oracle = [oracle_report(instance, _CONFIG, seed, trial) for trial in range(2 * rows + 1)]
        counts = {row.bound: row.failures for row in report}
        assert counts == {name: sum(r.failures()[name] for r in oracle) for name in counts}
        assert counts["hoeffding_zcp"] > 0

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**200),
        loss=st.sampled_from(["abs", "bernoulli"]),
        m=st.integers(1, 10_000),  # blocks of max(4, 4,096 // m) trials: 4 to 4,096
        trials=st.integers(1, 12),
        n=st.integers(2, 300),
        eta=st.sampled_from([5.0, 1e308]),  # at 1e308 the rows' posterior supports differ
    )
    def test_a_trial_alone_is_its_row_of_any_block(self, seed, loss, m, trials, n, eta):
        instance = learning_instance_from_dict({"m": m, "loss": loss, "eta": eta})
        _assert_engine_matches_oracle(instance, BoundConfig(n, 0.05, 2.0), trials, seed)

    @pytest.mark.parametrize("seed", [0, 2**64 + 5], ids=["0", "2**64+5"])
    @pytest.mark.parametrize("loss", ["abs", "bernoulli"])
    @pytest.mark.parametrize("m, trials", [(50, 83), (2000, 9)])  # 81- and 4-trial blocks
    def test_block_boundaries_match_the_oracle_trials(self, m, trials, loss, seed):
        # the run's one generator carries on, or is reset and advanced, across each boundary
        instance = learning_instance_from_dict({"m": m, "loss": loss, "eta": 5.0})
        _assert_engine_matches_oracle(instance, _CONFIG, trials, seed)

    @pytest.mark.parametrize("seed", _SEEDS, ids=_SEED_IDS)
    @pytest.mark.parametrize("loss", ["abs", "bernoulli"])
    def test_bound_prints_the_oracle_trial(self, loss, seed, capsys):
        argv = ["bound", "--n", "1000", "--m", "50", "--loss", loss, "--eta", "5",
                "--seed", str(seed), "--format", "json"]
        assert cli.run(argv) == 0
        printed = json.loads(capsys.readouterr().out)["rows"][0]
        instance = learning_instance_from_dict({"m": 50, "loss": loss, "eta": 5.0})
        expected = oracle_report(instance, BoundConfig(1000, 0.05, 2.0), seed, 0)
        assert [float(v).hex() for v in printed.values()] == _bits(expected)

    @pytest.mark.parametrize("seed", [3, 2**64 + 5], ids=["3", "2**64+5"])
    def test_ville_matches_the_oracle_path_by_path(self, seed, monkeypatch):
        monkeypatch.setattr(harness, "_VILLE_BLOCK_ENTRIES", 30)
        n, deltas = 10, [0.5, 0.1]
        coins = np.concatenate(list(betting._coin_blocks(n, seed, 1000, 3)))
        expected = np.array([oracle_coins(n, seed, path) for path in range(1000)])
        assert coins.tobytes() == expected.tobytes()
        for path in (0, 6, 7, 999):
            assert mean_zero_coins(n, seed, path).tobytes() == coins[path].tobytes()
        peaks = [float(kt_bettor(row).log_wealth[1:].max()) for row in coins]
        rows = ville_experiment(n, deltas, 1000, seed)
        assert [row.crossings for row in rows] == [
            sum(peak >= -math.log(d) for peak in peaks) for d in deltas]
        assert rows[0].crossings > 0


class TestNaNIsNeverAPass:
    @pytest.mark.parametrize("eta", [0.0, 5.0])
    def test_nan_loss_sums_raise(self, eta, monkeypatch):
        original = harness._block_samples

        def poisoned(*args):  # the (trials, m) sums the engine reads
            s1, variances = original(*args)
            s1 = s1.copy()
            s1[:, 3] = math.nan
            return s1, variances

        monkeypatch.setattr(harness, "_block_samples", poisoned)
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


class TestBlockComposition:
    """A trial's bits do not depend on which trials share its block."""

    def test_rows_on_different_supports_sum_alone(self):
        # at eta * n = inf each Gibbs row keeps only its empirical minimizers, so the rows of one
        # block have different supports; each must sum its KL terms over its own atoms
        instance = learning_instance_from_dict({"m": 2048, "loss": "abs", "eta": 1e308})
        config = BoundConfig(n=200, delta=0.05, alpha=2.0)
        pair = next(coverage_reports(instance, config, 2, 1))
        alone = next(coverage_reports(instance, config, 1, 1))
        assert alone.d_kl.hex() == "0x1.3f137132c31d6p+2"
        assert pair.d_kl.hex() == alone.d_kl.hex()
        assert pair.mcallester.hex() == alone.mcallester.hex()
        assert _bits(pair) == _bits(alone) == _bits(oracle_report(instance, config, 1, 0))


class TestBlockChecks:
    """The kl inversion's arguments are checked once per block, with the words of the checked
    scalar call."""

    def test_p_hat_mean_out_of_range(self, monkeypatch):
        # five times the posterior weights: every posterior mean of an abs loss passes 1
        monkeypatch.setattr(harness, "_summing_to_one", lambda w: 5.0 * w)
        instance = learning_instance_from_dict({"m": 8, "eta": 5.0})
        with pytest.raises(ValidationError, match=r"^p_hat_mean must lie in \[0, 1\]$"):
            run_coverage(instance, BoundConfig(100, 0.05), 100, 0)
        with pytest.raises(ValidationError, match=r"^p_hat_mean must lie in \[0, 1\]$"):
            next(coverage_reports(instance, BoundConfig(100, 0.05), 1, 0))

    @pytest.mark.parametrize("eta", [0.0, 5.0])
    def test_comp_n_out_of_range(self, eta, monkeypatch):
        monkeypatch.setattr(harness, "_complexity", lambda d_alpha, d_zcp, config: -1.0 - d_zcp)
        monkeypatch.setattr(harness, "_empirical_bernstein", lambda comp, v_hat, n: v_hat)
        instance = learning_instance_from_dict({"m": 8, "eta": eta})
        with pytest.raises(ValidationError, match=r"^comp must lie in \[0, inf\]$"):
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
            # rows with zero atoms of their own (some not dominated) form one block, and each
            # a block of one
            shared = _normalized(prior.log_weights - rng.exponential(3.0, (5, m)))
            own = np.where(rng.random((4, m)) < 0.3, -np.inf, rng.normal(size=(4, m)))
            own[:, 0] = 0.0
            own = _normalized(own)
            blocks = [shared, own, *(row[None] for row in own)]
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
        failed = bounds._failures(**fields, little_kl=fields["p_mean"] > fields["little_kl_bound"])
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
            trials = range(81)
            # builds the cached grid
            harness._trial_block(instance, _CONFIG, trials, harness._trial_generators(instance, 1))
            generators = harness._trial_generators(instance, 1)
            tracemalloc.start()
            try:
                harness._trial_block(instance, _CONFIG, trials, generators)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 378_000, (loss, peak)

    def test_a_run_of_two_blocks_peaks_below_378_kb(self):
        # one block's arrays
        for loss in ("abs", "bernoulli"):
            instance = learning_instance_from_dict({"m": 50, "loss": loss, "eta": 5.0})
            run_coverage(instance, _CONFIG, 200, 1)  # builds the cached grid
            tracemalloc.start()
            try:
                run_coverage(instance, _CONFIG, 200, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 378_000, (loss, peak)

    def test_a_wide_run_peaks_below_600_kb(self):
        # at m = 2000 a block holds 4 trials and each (trials, m) array takes 64 KB
        for loss in ("abs", "bernoulli"):
            instance = learning_instance_from_dict({"m": 2000, "loss": loss, "eta": 5.0})
            run_coverage(instance, _CONFIG, 100, 1)  # builds the cached grid
            tracemalloc.start()
            try:
                run_coverage(instance, _CONFIG, 100, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 600_000, (loss, peak)
