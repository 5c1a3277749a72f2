"""Coin-betting wealth: coin checks, the hindsight optimum, and KT."""

import concurrent.futures
import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import bisect_max_log_wealth, grid_max_log_wealth, oracle_coins, random_coins
from zcp_paclab import (
    ValidationError,
    WealthTrace,
    kt_bettor,
    max_log_wealth,
    mean_zero_coins,
    ville_experiment,
    wealth_quadratic_lower,
)
from zcp_paclab import betting


class TestCoinValidation:
    @pytest.mark.parametrize("call", [max_log_wealth, kt_bettor, wealth_quadratic_lower])
    @pytest.mark.parametrize("coins", [[], [[0.5]], [1.2], [math.nan]])
    def test_invalid_coins(self, call, coins):
        with pytest.raises(ValidationError):
            call(coins)

    @pytest.mark.parametrize("call", [max_log_wealth, kt_bettor, wealth_quadratic_lower])
    @pytest.mark.parametrize("coins", [["a"], "ab", [{"x": 1}], [[0.5], [0.1, 0.2]]])
    def test_non_numeric_coins_are_validation_errors(self, call, coins):
        with pytest.raises(ValidationError, match="must be numeric"):
            call(coins)


class TestFixedBetLogWealth:
    """The private ln W_n(beta) that max_log_wealth scores its candidates with."""

    def test_known_value(self):
        np.testing.assert_allclose(
            betting._log_wealth(0.5, np.array([1.0, -1.0])),
            math.log(1.5) + math.log(0.5),
            rtol=1e-15,
        )

    def test_zero_bet_never_moves(self):
        assert betting._log_wealth(0.0, np.array([1.0, -1.0, 0.3])) == 0.0

    def test_exact_ruin_is_minus_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert betting._log_wealth(1.0, np.array([0.5, -1.0])) == -math.inf
            assert betting._log_wealth(-1.0, np.array([1.0])) == -math.inf


class TestMaxLogWealth:
    def test_interior_optimum_closed_form(self):
        # d/dbeta [ln(1+0.8b) + ln(1-0.5b)] = 0 at b = 3/8
        beta, value = max_log_wealth([0.8, -0.5])
        np.testing.assert_allclose(beta, 0.375, atol=1e-11)
        np.testing.assert_allclose(
            value, math.log(1.3) + math.log(1.0 - 0.1875), rtol=1e-12
        )

    def test_all_zero_coins(self):
        assert max_log_wealth([0.0, 0.0, 0.0]) == (0.0, 0.0)

    def test_single_positive_coin_bets_everything(self):
        beta, value = max_log_wealth([1.0])
        assert beta == 1.0
        np.testing.assert_allclose(value, math.log(2.0), rtol=1e-15)

    def test_never_below_zero_or_quadratic_lower(self):
        rng = np.random.default_rng(30)
        for _ in range(300):
            coins = random_coins(rng, max_n=128)
            _, value = max_log_wealth(coins)
            assert value >= 0.0
            assert value >= wealth_quadratic_lower(coins) - 1e-9

    def test_matches_grid_refinement(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            coins = random_coins(rng, max_n=128)
            _, value = max_log_wealth(coins)
            _, grid_value = grid_max_log_wealth(coins)
            assert value >= grid_value - 1e-9


def _slope(beta, coins):
    return float(np.sum(coins / (1.0 + beta * coins)))


def _assert_matches_bisection(coins):
    coins = np.asarray(coins, dtype=float)
    beta, value = max_log_wealth(coins)
    oracle_beta, oracle_value = bisect_max_log_wealth(coins)
    assert abs(beta - oracle_beta) <= 2e-12
    assert value >= oracle_value - 1e-13
    assert value == np.log1p(beta * coins).sum()
    if -1.0 < beta < 1.0 and beta != 0.0:  # an interior root of the derivative
        assert _slope(beta - 2e-12, coins) > 0.0 > _slope(beta + 2e-12, coins)


class TestNewtonOptimum:
    """Safeguarded Newton against the derivative bisection it replaced."""

    # sum |c| >= 1 keeps the root well conditioned: the derivative's rounding
    # error, over its curvature, stays far below the 2e-12 tolerance
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=200))
    @example([0.5] * 10 + [-1.0])  # Newton's first step leaves [-1, 1] and bisects
    @example([0.8, -0.5])
    def test_matches_bisection(self, coins):
        assume(np.abs(coins).sum() >= 1.0)
        _assert_matches_bisection(coins)

    def test_all_zero_coins(self):
        assert max_log_wealth(np.zeros(7)) == bisect_max_log_wealth(np.zeros(7)) == (0.0, 0.0)

    @pytest.mark.parametrize("coin", [1.0, -1.0, 0.3, -0.3, 1e-300, 0.0])
    def test_single_coin(self, coin):
        assert max_log_wealth([coin]) == bisect_max_log_wealth([coin])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_one_sided_sequences_bet_an_endpoint(self, sign):
        coins = sign * np.random.default_rng(36).random(50)
        beta, value = max_log_wealth(coins)
        assert beta == sign
        assert (beta, value) == bisect_max_log_wealth(coins)

    @pytest.mark.parametrize("n", [2, 3, 17, 64])
    def test_binary_coins_with_infinite_endpoint_slopes(self, n):
        # on +-1 coins with h heads the optimum is beta* = (2h - n) / n
        for heads in range(1, n):
            coins = np.array([1.0] * heads + [-1.0] * (n - heads))
            _assert_matches_bisection(coins)
            assert abs(max_log_wealth(coins)[0] - (2 * heads - n) / n) <= 1e-12

    def test_one_hundred_thousand_coins(self):
        _assert_matches_bisection(mean_zero_coins(100_000, 1))


class TestQuadraticLower:
    def test_formula(self):
        coins = [0.5, 0.5, -0.25, 1.0]
        np.testing.assert_allclose(
            wealth_quadratic_lower(coins), 1.75**2 / 16.0, rtol=1e-15
        )

    def test_validation(self):
        with pytest.raises(ValidationError):
            wealth_quadratic_lower([2.0])


class TestKtBettor:
    def test_all_ones_path(self):
        trace = kt_bettor([1.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(trace.bets, [0.0, 0.5, 2.0 / 3.0, 0.75], rtol=1e-15)
        np.testing.assert_allclose(trace.log_wealth[-1], math.log(4.375), rtol=1e-14)
        np.testing.assert_allclose(trace.log_wealth_star, 4.0 * math.log(2.0), rtol=1e-15)
        assert trace.beta_star == 1.0
        assert trace.n == 4

    def test_first_bet_is_always_zero(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            trace = kt_bettor(random_coins(rng, max_n=16))
            assert trace.bets[0] == 0.0
            assert trace.log_wealth[0] == 0.0

    def test_path_is_the_prefix_mean_recursion_bit_for_bit(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            coins = random_coins(rng, max_n=256)
            prefix = np.concatenate([[0.0], np.cumsum(coins)[:-1]])
            bets = prefix / np.arange(1, coins.size + 1)
            log_wealth = np.concatenate([[0.0], np.cumsum(np.log1p(bets * coins))])
            trace = kt_bettor(coins)
            assert trace.bets.tobytes() == bets.tobytes()
            assert trace.log_wealth.tobytes() == log_wealth.tobytes()

    def test_never_ruins_on_boundary_coins(self):
        trace = kt_bettor([1.0, -1.0, 1.0, -1.0, -1.0, -1.0])
        assert np.isfinite(trace.log_wealth).all()

    def test_regret_bound_two_sqrt_n_on_binary_coins(self):
        # ln W* - ln W_n <= ln(2 sqrt(n)) for +-1 coins of any bias; this is
        # a binary-coin theorem, see test_regret_bound_fails_for_fractional_coins
        rng = np.random.default_rng(34)
        for _ in range(300):
            n = int(rng.integers(1, 129))
            bias = rng.uniform(0.0, 1.0)
            coins = np.where(rng.random(n) < bias, 1.0, -1.0)
            trace = kt_bettor(coins)
            assert trace.log_regret <= math.log(2.0 * math.sqrt(trace.n)) + 1e-12

    def test_regret_bound_exhaustive_binary_profiles(self):
        # wealth on +-1 coins depends only on the head count, so checking
        # every head count up to n = 64 checks every binary sequence
        for n in range(1, 65):
            for heads in range(n + 1):
                coins = np.array([1.0] * heads + [-1.0] * (n - heads))
                trace = kt_bettor(coins)
                assert trace.log_regret <= math.log(2.0 * math.sqrt(n)) + 1e-12

    def test_regret_equality_at_single_boundary_coin(self):
        trace = kt_bettor([1.0])
        np.testing.assert_allclose(trace.log_regret, math.log(2.0), rtol=1e-15)

    def test_regret_bound_fails_for_fractional_coins(self):
        # For coins of magnitude below 1 the prefix-mean bettor can lag the
        # hindsight optimum by a linear-in-n amount: on sixty-four coins of
        # 0.3 the best fixed fraction is the boundary bet beta = 1 while KT
        # stakes about 0.3, so the 2 sqrt(n) envelope is a binary-coin fact
        # only.  Pinning the counterexample keeps the restriction above
        # visibly deliberate.
        trace = kt_bettor(np.full(64, 0.3))
        assert trace.beta_star == 1.0
        np.testing.assert_allclose(trace.log_wealth_star, 64.0 * math.log(1.3), rtol=1e-14)
        assert trace.log_regret > math.log(2.0 * math.sqrt(64.0)) + 8.0

    def test_coins_are_checked_once(self, monkeypatch):
        names = []
        check = betting._floats

        def counted(values, name, *args, **kwargs):
            names.append(name)
            return check(values, name, *args, **kwargs)

        monkeypatch.setattr(betting, "_floats", counted)
        trace = kt_bettor([0.5, -0.25, 1.0])
        assert names == ["coins"]
        assert trace.log_wealth_star == max_log_wealth([0.5, -0.25, 1.0])[1]

    def test_trace_arrays_read_only(self):
        trace = kt_bettor([0.5, -0.5])
        with pytest.raises(ValueError):
            trace.log_wealth[0] = 1.0

    def test_trace_length_validation(self):
        with pytest.raises(ValidationError):
            WealthTrace(
                coins=np.array([1.0, -1.0]),
                bets=np.array([0.0]),
                log_wealth=np.array([0.0, 0.1, 0.2]),
                beta_star=0.0,
                log_wealth_star=0.0,
            )


class TestMartingaleProperty:
    def test_exact_expectation_over_fair_binary_coins(self):
        # KT wealth on +-1 coins depends only on the number of heads, so
        # E W_n = sum_h C(n,h) 2^-n W(h) can be summed exactly: it is 1.
        n = 16
        total = 0.0
        for heads in range(n + 1):
            coins = np.array([1.0] * heads + [-1.0] * (n - heads))
            total += math.comb(n, heads) * 0.5**n * math.exp(kt_bettor(coins).log_wealth[-1])
        np.testing.assert_allclose(total, 1.0, rtol=1e-13)

    def test_wealth_order_independent_on_binary_coins(self):
        rng = np.random.default_rng(35)
        coins = np.array([1.0] * 5 + [-1.0] * 11)
        values = {kt_bettor(rng.permutation(coins)).log_wealth[-1] for _ in range(25)}
        assert max(values) - min(values) < 1e-12

    def test_monte_carlo_mean_one_for_uniform_coins(self):
        # mean-zero coins make W_n a nonnegative martingale with E W_n = 1
        rng = np.random.default_rng(42)
        paths, n = 100_000, 16
        coins = rng.uniform(-1.0, 1.0, size=(paths, n))
        prefix = np.concatenate(
            [np.zeros((paths, 1)), np.cumsum(coins, axis=1)[:, :-1]], axis=1
        )
        bets = prefix / np.arange(1, n + 1)
        wealth = np.exp(np.log1p(bets * coins).sum(axis=1))
        standard_error = wealth.std(ddof=1) / math.sqrt(paths)
        assert abs(wealth.mean() - 1.0) <= 5.0 * standard_error


# seeds of one to seven uint32 words at their edges, beyond SeedSequence's 4-word pool; as
# paths, offsets path * n below 2**32, past 2**64 and past the stream's 2**128 period
_WORD_COUNT_EDGES = [0, 2**32 - 1, 2**32, 2**64 + 5, 10**30, 2**200]
_EDGE_IDS = ["0", "2**32-1", "2**32", "2**64+5", "10**30", "2**200"]


class TestMeanZeroCoins:
    def test_stream_is_sign_times_uniform(self):
        # pins the random stream that `betting --n` and `ville` both draw
        for seed, path in [(0, 0), (4, 0), (1, 999)]:
            np.testing.assert_array_equal(mean_zero_coins(50, seed, path), oracle_coins(50, seed, path))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 1000, 1001])
    @pytest.mark.parametrize("seed", _WORD_COUNT_EDGES, ids=_EDGE_IDS)
    def test_stream_bit_for_bit_at_word_count_edges(self, n, seed):
        for path in _WORD_COUNT_EDGES:
            assert mean_zero_coins(n, seed, path).tobytes() == oracle_coins(n, seed, path).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**200),
        n=st.integers(1, 40),
        paths=st.integers(1, 30),
        rows=st.integers(1, 40),
        path=st.integers(0, 2**64),
    )
    @example(seed=2**200, n=1001, paths=3, rows=2, path=2**64)
    def test_a_path_alone_is_its_row_of_any_block(self, seed, n, paths, rows, path):
        blocks = list(betting._coin_blocks(n, seed, paths, rows))
        assert [len(block) for block in blocks[:-1]] == [rows] * (len(blocks) - 1)
        block_rows = np.concatenate(blocks)
        assert block_rows.shape == (paths, n)
        for i, row in enumerate(block_rows):
            assert row.tobytes() == mean_zero_coins(n, seed, i).tobytes(), i
            assert row.tobytes() == oracle_coins(n, seed, i).tobytes(), i
        # far into the stream, where only advance reaches
        assert mean_zero_coins(n, seed, path).tobytes() == oracle_coins(n, seed, path).tobytes()

    def test_concurrent_ville_runs_match_runs_alone(self):
        # each call seeds and draws from its own generator, so threads cannot interleave draws
        calls = [(1000, [0.5, 0.1], 1000, 1), (7, [0.5, 0.2], 10_000, 2)]
        alone = [ville_experiment(*args) for args in calls]
        def coins(args):
            n, _, paths, seed = args
            return np.concatenate(list(betting._coin_blocks(n, seed, paths, 100)))

        blocks = [coins(args) for args in calls]
        start = threading.Barrier(len(calls))

        def run(args):
            start.wait(timeout=60)
            return ville_experiment(*args), coins(args)

        with concurrent.futures.ThreadPoolExecutor(len(calls)) as pool:
            results = list(pool.map(run, calls))
        for (rows, block), rows_alone, block_alone in zip(results, alone, blocks):
            assert rows == rows_alone
            assert block.tobytes() == block_alone.tobytes()

    def test_coins_lie_in_the_open_interval(self):
        coins = mean_zero_coins(10_000, 3)
        assert coins.shape == (10_000,)
        assert (np.abs(coins) < 1.0).all()
        assert abs(coins.mean()) < 0.05

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_nonpositive_n(self, n):
        with pytest.raises(ValidationError):
            mean_zero_coins(n, 0)
