"""Eleven end-to-end acceptance checks.

Each test prints exactly one ``[criterion N] PASS|FAIL`` line (with a short
note) so a full run reads as a checklist; assertions carry the details.
Every criterion also asserts its own wall-clock budget.
"""

import math
import time

import numpy as np

from conftest import grid_max_log_wealth, random_pair
from zcp_paclab import (
    BoundConfig,
    QuadratureConfig,
    analytic_inequality_suite,
    asymptotics_inequality_check,
    bernoulli_instance,
    divergence_scaling_table,
    gaussian_instance_check,
    kl_discrete,
    kt_bettor,
    learning_instance_from_dict,
    little_kl,
    little_kl_inverse_upper,
    max_log_wealth,
    renyi_discrete,
    run_coverage,
    tv_discrete,
    ville_experiment,
    wealth_quadratic_lower,
    zcp_c_shift_bound,
    zcp_c_shift_upper_bound,
    zcp_discrete,
    zcp_kl_tv_upper_bound,
    zcp_upper_bound_kl_tv,
    zcp1_upper_bound_kl_tv,
)

_PAIR_SEED = 2024


def _fuzz_pairs():
    rng = np.random.default_rng(_PAIR_SEED)
    return [random_pair(rng, max_support=64) for _ in range(1000)]


PAIRS = _fuzz_pairs()


def _emit(capsys, number, ok, note=""):
    with capsys.disabled():
        line = f"[criterion {number}] {'PASS' if ok else 'FAIL'}"
        if note:
            line += f" - {note}"
        print(line, flush=True)


def test_criterion_01_divergence_axioms(capsys):
    ok, note = False, ""
    start = time.perf_counter()
    try:
        for p, q in PAIRS:
            values = (
                kl_discrete(p, q),
                tv_discrete(p, q),
                renyi_discrete(p, q, 2.0),
                zcp_discrete(p, q, 1.0),
                zcp_discrete(p, q, 1e3),
            )
            assert all(v > 1e-10 for v in values), "distinct pairs must separate"
            self_values = (
                kl_discrete(p, p),
                tv_discrete(p, p),
                renyi_discrete(p, p, 2.0),
                zcp_discrete(p, p, 1.0),
                zcp_discrete(p, p, 1e3),
            )
            assert all(abs(v) <= 1e-10 for v in self_values)
        elapsed = time.perf_counter() - start
        note = f"1000 pairs, {elapsed:.1f}s"
        assert elapsed < 5.0
        ok = True
    finally:
        _emit(capsys, 1, ok, note)


def test_criterion_02_inequality_chain(capsys):
    # The chain uses the comparison bounds that hold for every c >= 0 (log
    # constant ln(1 + c^2); proof sketch in zcp_c_shift_upper_bound).  The
    # older pair, zcp_c_shift_bound and zcp_upper_bound_kl_tv, is false for
    # large c; its violation counts are reported in the note but not
    # asserted here (TestChainBounds pins a two-atom counterexample).
    ok, note = False, ""
    start = time.perf_counter()
    try:
        c_values = (0.0, 1.0, 10.0, 1e3, 1e6)
        violations = {c: 0 for c in c_values}
        legacy_violations = {c: 0 for c in c_values}
        worst = -math.inf
        sqrt8_violations = 0
        for p, q in PAIRS:
            kl = kl_discrete(p, q)
            tv = tv_discrete(p, q)
            zcp1 = zcp_discrete(p, q, 1.0)
            if zcp1 > zcp1_upper_bound_kl_tv(kl, tv) + 1e-9:
                sqrt8_violations += 1
            for c in c_values:
                zcp_c = zcp_discrete(p, q, c)
                shift_excess = zcp_c - zcp_c_shift_upper_bound(zcp1, tv, c)
                kl_tv_excess = zcp_c - zcp_kl_tv_upper_bound(kl, tv, c)
                excess = max(shift_excess, kl_tv_excess)
                worst = max(worst, excess)
                if excess > 1e-9:
                    violations[c] += 1
                legacy_excess = max(
                    zcp_c - zcp_c_shift_bound(zcp1, tv, c),
                    zcp_c - zcp_upper_bound_kl_tv(kl, tv, c),
                )
                if legacy_excess > 1e-9:
                    legacy_violations[c] += 1
        elapsed = time.perf_counter() - start
        counts = ", ".join(f"c={c:g}: {violations[c]}" for c in c_values)
        legacy = ", ".join(f"c={c:g}: {legacy_violations[c]}" for c in c_values)
        note = (
            f"violations per c of 1000: {counts}; worst excess {worst:.1e}; "
            f"legacy pair (reported only): {legacy}; {elapsed:.1f}s"
        )
        assert elapsed < 10.0
        assert sqrt8_violations == 0
        assert all(count == 0 for count in violations.values())
        ok = True
    finally:
        _emit(capsys, 2, ok, note)


def test_criterion_03_bernoulli_instance(capsys):
    ok, note = False, ""
    start = time.perf_counter()
    try:
        for p in (0.2, 0.1, 0.05):
            ln_a = 1.0 / (p * p)
            dist_p, dist_q = bernoulli_instance(p, ln_a)
            tv = tv_discrete(dist_p, dist_q)
            np.testing.assert_allclose(tv, p * -math.expm1(-ln_a), rtol=1e-12)
            kl = kl_discrete(dist_p, dist_q)
            assert p * ln_a - math.exp(-1.0) <= kl <= p * ln_a
        elapsed = time.perf_counter() - start
        note = f"p in {{0.2, 0.1, 0.05}}, {elapsed:.2f}s"
        assert elapsed < 1.0
        ok = True
    finally:
        _emit(capsys, 3, ok, note)


def test_criterion_04_multivariate_scaling(capsys):
    ok, note = False, ""
    start = time.perf_counter()
    try:
        table = divergence_scaling_table(1.0, [2**k for k in range(4, 13)])
        for name, target in (("kl", 0.5), ("tv", -1.0), ("zcp1", -0.25)):
            assert abs(table.slopes[name] - target) <= 0.15, (name, table.slopes[name])
        elapsed = time.perf_counter() - start
        slopes = ", ".join(f"{k}={v:+.3f}" for k, v in table.slopes.items())
        note = f"slopes {slopes}; {elapsed:.1f}s"
        assert elapsed < 5.0
        ok = True
    finally:
        _emit(capsys, 4, ok, note)


def test_criterion_05_gaussian_mixture_floors(capsys):
    ok, note = False, ""
    start = time.perf_counter()
    try:
        config = QuadratureConfig(rel_tol=1e-8)
        p_values = [0.2, 0.1, 0.05, 0.02]
        for exponent in (1.0, 0.75):
            for row in gaussian_instance_check(p_values, exponent, config):
                assert row.kl_ok, (exponent, row)
                assert row.product_ok, (exponent, row)
        elapsed = time.perf_counter() - start
        note = f"both exponents, 4 mixture weights each; {elapsed:.1f}s"
        assert elapsed < 30.0
        ok = True
    finally:
        _emit(capsys, 5, ok, note)


def test_criterion_06_betting(capsys):
    # The 2 sqrt(n) KT envelope is asserted on the 500 binary sequences; it
    # is a binary-coin theorem and provably fails for fractional coins (see
    # tests/test_betting.py::TestKtBettor::test_regret_bound_fails_for_fractional_coins).
    # The hindsight-optimum and quadratic-lower checks cover all 1000.
    ok, note = False, ""
    start = time.perf_counter()
    try:
        rng = np.random.default_rng(606)
        binary, continuous = [], []
        for _ in range(500):
            n = int(rng.integers(1, 513))
            binary.append(np.where(rng.random(n) < rng.uniform(0.0, 1.0), 1.0, -1.0))
        for index in range(500):
            n = int(rng.integers(1, 513))
            if index % 3 == 0:
                continuous.append(rng.uniform(-1.0, 1.0, n))
            elif index % 3 == 1:
                continuous.append(rng.choice([-1.0, 1.0], n) * rng.random(n))
            else:
                continuous.append(rng.uniform(-1.0, 1.0, n) * rng.uniform(0.05, 1.0))
        for coins in binary + continuous:
            _, value = max_log_wealth(coins)
            _, grid_value = grid_max_log_wealth(coins)
            assert abs(value - grid_value) <= 1e-5
            assert value >= wealth_quadratic_lower(coins) - 1e-12
        max_ratio = 0.0
        for coins in binary:
            trace = kt_bettor(coins)
            assert trace.log_regret <= math.log(2.0 * math.sqrt(trace.n)) + 1e-12
            ratio = math.exp(trace.log_regret) / math.sqrt(2.0 * (trace.n + 1.0))
            max_ratio = max(max_ratio, ratio)
        elapsed = time.perf_counter() - start
        note = (
            "KT envelope on 500 binary sequences (false for fractional coins); "
            f"reported max (W*/W)/sqrt(2(n+1)) = {max_ratio:.3f}; {elapsed:.1f}s"
        )
        assert elapsed < 30.0
        ok = True
    finally:
        _emit(capsys, 6, ok, note)


def test_criterion_07_ville(capsys):
    ok, note = False, ""
    start = time.perf_counter()
    try:
        rows = ville_experiment(1000, [0.1, 0.05], 10_000, seed=1)
        for row in rows:
            assert row.passed, row
        elapsed = time.perf_counter() - start
        rates = ", ".join(f"delta={r.delta:g}: rate={r.rate:.4f}" for r in rows)
        note = f"{rates}; {elapsed:.1f}s"
        assert elapsed < 60.0
        ok = True
    finally:
        _emit(capsys, 7, ok, note)


def test_criterion_08_coverage(capsys):
    ok, note = False, ""
    start = time.perf_counter()
    try:
        config = BoundConfig(n=1000, delta=0.05, alpha=2.0)
        abs_instance = learning_instance_from_dict(
            {"m": 50, "loss": "abs", "posterior": "gibbs", "eta": 5.0}
        )
        abs_report = run_coverage(abs_instance, config, trials=2000, seed=3)
        abs_rows = {row.bound: row for row in abs_report.rows}
        for name in ("hoeffding_zcp", "mcallester", "emp_bernstein"):
            assert abs_rows[name].passed, (name, abs_rows[name].wilson_upper_99)
        bern_instance = learning_instance_from_dict(
            {"m": 50, "loss": "bernoulli", "posterior": "gibbs", "eta": 5.0}
        )
        bern_report = run_coverage(bern_instance, config, trials=2000, seed=3)
        bern_kl = {row.bound: row for row in bern_report.rows}["little_kl"]
        assert bern_kl.passed, bern_kl.wilson_upper_99
        elapsed = time.perf_counter() - start
        failures = sum(row.failures for row in (*abs_report.rows, *bern_report.rows))
        note = f"2x2000 trials, {failures} bound failures total; {elapsed:.0f}s"
        assert elapsed < 600.0
        ok = True
    finally:
        _emit(capsys, 8, ok, note)


def test_criterion_09_asymptotics_surrogate(capsys):
    ok, note = False, ""
    start = time.perf_counter()
    try:
        for p, q in PAIRS:
            for n in (25, 100, 10_000):
                assert asymptotics_inequality_check(p, q, n).holds
        elapsed = time.perf_counter() - start
        note = f"1000 pairs x 3 sample sizes; {elapsed:.1f}s"
        assert elapsed < 30.0
        ok = True
    finally:
        _emit(capsys, 9, ok, note)


def test_criterion_10_analytic_lemmas(capsys):
    ok, note = False, ""
    start = time.perf_counter()
    try:
        rows = analytic_inequality_suite(trials=100_000, seed=0, tolerance=1e-6)
        for row in rows:
            assert row.violations == 0, row
        elapsed = time.perf_counter() - start
        worst = min(row.worst_slack for row in rows)
        note = f"100000 draws, worst slack {worst:+.2e}; {elapsed:.1f}s"
        assert elapsed < 60.0
        ok = True
    finally:
        _emit(capsys, 10, ok, note)


def test_criterion_11_kl_inversion_round_trip(capsys):
    ok, note = False, ""
    start = time.perf_counter()
    try:
        # p_hat stays below 0.8 so the inverted root keeps enough distance
        # from 1 for the round trip to be meaningful in float64 (near 1 the
        # kl derivative blows up and representation error dominates)
        rng = np.random.default_rng(1111)
        checked = 0
        for _ in range(10_000):
            p_hat = rng.uniform(0.0, 0.8)
            budget = rng.uniform(1e-6, 2.0)
            q = little_kl_inverse_upper(p_hat, budget)
            if q < 1.0:
                checked += 1
                assert abs(little_kl(p_hat, q) - budget) <= 1e-10
        assert checked > 9000
        elapsed = time.perf_counter() - start
        note = f"{checked} of 10000 inversions below saturation; {elapsed:.1f}s"
        assert elapsed < 5.0
        ok = True
    finally:
        _emit(capsys, 11, ok, note)
