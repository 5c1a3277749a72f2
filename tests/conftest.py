"""Shared fuzz helpers and oracles for the test suite."""

import math

import numpy as np

import zcp_paclab.divergences as divergences
from zcp_paclab import (
    BoundReport,
    DivergenceKind,
    LossKind,
    NumericalError,
    cli,
    complexity_term,
    empirical_bernstein_bound,
    hoeffding_zcp_bound,
    kl_discrete,
    little_kl_mean_bound,
    make_discrete,
    mcallester_baseline,
    renyi_discrete,
    sample_variance_from_sums,
    tv_discrete,
    zcp_discrete,
)
from zcp_paclab.divergences import (
    _abs_diff_of_exps,
    _kl_terms,
    _log_abs_expm1,
    _rel_entr,
    _renyi_log_terms,
    _zcp_terms,
)


def random_pair(rng, max_support=64, min_support=2):
    """Two strictly positive distributions on a shared random support."""
    size = int(rng.integers(min_support, max_support + 1))
    p = make_discrete(rng.random(size) + 1e-3)
    q = make_discrete(rng.random(size) + 1e-3)
    return p, q


def random_dominated_pair(rng, max_support=64):
    """A pair with Q > 0 everywhere and P zero on a random subset of atoms."""
    size = int(rng.integers(2, max_support + 1))
    q_weights = rng.random(size) + 1e-3
    p_weights = rng.random(size) * (rng.random(size) < 0.7)
    if p_weights.sum() == 0.0:
        p_weights[int(rng.integers(size))] = 1.0
    return make_discrete(p_weights), make_discrete(q_weights)


def random_coins(rng, max_n=512):
    """Coin sequence in [-1, 1]; sometimes pinned to the +/-1 boundary."""
    n = int(rng.integers(1, max_n + 1))
    style = rng.random()
    if style < 0.2:
        return rng.choice([-1.0, 1.0], n)
    if style < 0.3:
        return np.full(n, float(rng.choice([-1.0, 1.0])))
    coins = rng.uniform(-1.0, 1.0, n)
    if style < 0.5:
        coins[rng.random(n) < 0.25] = rng.choice([-1.0, 1.0])
    return coins


def grid_max_log_wealth(coins, stages=3, points=513):
    """Independent grid-refinement oracle for the best fixed bet.

    Valid because the log-wealth is concave in beta: each stage brackets
    the maximizer within one grid step, so three stages of 513 points pin
    beta* to ~6e-8 and the optimal value far tighter.
    """
    coins = np.asarray(coins, dtype=float)
    lo, hi = -1.0, 1.0
    best_beta, best_value = 0.0, -np.inf
    for _ in range(stages):
        betas = np.linspace(lo, hi, points)
        with np.errstate(divide="ignore"):
            values = np.log1p(betas[:, None] * coins[None, :]).sum(axis=1)
        k = int(np.argmax(values))
        best_beta, best_value = float(betas[k]), float(values[k])
        step = betas[1] - betas[0]
        lo, hi = max(-1.0, betas[k] - step), min(1.0, betas[k] + step)
    return best_beta, best_value


def bisect_max_log_wealth(coins):
    """Derivative-bisection oracle for the best fixed bet, (beta*, ln W*).

    Bisects the sign change of the decreasing derivative to a bracket of
    width 1e-12, then keeps the best of its midpoint, both endpoints and
    beta = 0 (ties keep the earlier one).
    """
    coins = np.asarray(coins, dtype=float)

    def slope(beta):
        with np.errstate(divide="ignore"):
            return float(np.sum(coins / (1.0 + beta * coins)))

    if not coins.any():
        return 0.0, 0.0
    if slope(-1.0) <= 0.0:
        candidate = -1.0
    elif slope(1.0) >= 0.0:
        candidate = 1.0
    else:
        lo, hi = -1.0, 1.0
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if slope(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        candidate = 0.5 * (lo + hi)
    best_beta, best_value = 0.0, 0.0
    for beta in (candidate, -1.0, 1.0):
        with np.errstate(divide="ignore"):
            value = float(np.log1p(beta * coins).sum())
        if value > best_value:
            best_beta, best_value = beta, value
    return best_beta, best_value


def masked_log_abs_expm1(d):
    """Reference for ``divergences._log_abs_expm1``: ln|exp(d) - 1| with d < 0, 0 < d <= 700
    and d > 700 each computed under its own mask."""
    out = np.full_like(d, -np.inf)
    pos_small = (d > 0.0) & (d <= 700.0)
    pos_big = d > 700.0
    neg = d < 0.0
    with np.errstate(divide="ignore"):
        out[pos_small] = np.log(np.expm1(d[pos_small]))
        out[neg] = np.log(-np.expm1(d[neg]))
    out[pos_big] = d[pos_big] + np.log1p(-np.exp(-d[pos_big]))
    return out


def masked_log1p_sq(ln_t, c):
    """Reference for ``divergences._log1p_sq``: ln(1 + (ct)^2) with s2 = 2 ln(ct) <= 700 and
    s2 > 700 each computed under its own mask."""
    ln_t = np.asarray(ln_t, dtype=float)
    if c == 0.0:
        return np.zeros_like(ln_t)
    with np.errstate(over="ignore"):  # 2 ln(ct) overflows once ln(ct) > 8.9e307
        s2 = 2.0 * (math.log(c) + ln_t)
    out = np.empty_like(s2)
    small = s2 <= 700.0
    out[small] = np.log1p(np.exp(s2[small]))
    # ct > 1e152 territory: 2 ln(ct) + ln(1 + (ct)^-2)
    out[~small] = s2[~small] + np.log1p(np.exp(-s2[~small]))
    return out


def _pcg64_at(seed, word):
    """A fresh PCG64(seed) advanced to its word ``word``."""
    bit_generator = np.random.PCG64(seed)
    bit_generator.advance(word)
    return bit_generator


def oracle_coins(n, seed, path):
    """Path ``path`` of Ville's coins: the n words of PCG64(seed) from word path * n, read
    twice, for the sign bits (bit 0, negative where it is 0) and for ``Generator.random``'s
    magnitudes."""
    odd = _pcg64_at(seed, path * n).random_raw(n) % 2 == 1
    magnitudes = np.random.Generator(_pcg64_at(seed, path * n)).random(n)
    return np.where(odd, magnitudes, -magnitudes)


def oracle_losses(instance, n, rng):
    """The (n, m) loss matrix of one i.i.d. sample of size n, the reference ``loss_sums`` is
    tested against.  The abs loss reads the sample as ``rng.random(n)``, as ``loss_sums`` does;
    the Bernoulli loss draws (n, m) bits, whose column sums have the law of ``loss_sums``'
    counts but not its random stream."""
    if instance.loss_kind is LossKind.ABS_DISTANCE:
        x = rng.random(n)
        return np.abs(instance.atom_positions[None, :] - x[:, None])
    return (rng.random((n, instance.theta_count)) < instance.bernoulli_means[None, :]).astype(float)


def oracle_expected_sample_variance(losses, posterior):
    """Posterior average of the per-atom unbiased sample variance of an (n, m) loss matrix:
    (1/(n(n-1))) sum_{i<j} E_posterior[(f(theta, X_i) - f(theta, X_j))^2], computed from the
    column sums of the losses and of their squares rather than the quadratic double sum."""
    n = losses.shape[0]
    per_atom = sample_variance_from_sums(losses.sum(axis=0), (losses * losses).sum(axis=0), n)
    return float(posterior.weights @ per_atom)


def oracle_report(instance, config, seed, trial):
    """Trial ``trial`` of a coverage run, computed from public scalar functions only.  Its
    losses read PCG64(seed) from word trial * n (``random(n)`` of the abs loss) or from word
    trial * 2**64 (``binomial`` of the Bernoulli loss, which reads a varying number of words)."""
    n = config.n
    word = trial * n if instance.loss_kind is LossKind.ABS_DISTANCE else trial * 2**64
    s1, s2 = instance.loss_sums(n, np.random.Generator(_pcg64_at(seed, word)))
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


def _little_kl(p_hat, q):
    return _rel_entr(p_hat, q) + _rel_entr(1.0 - p_hat, 1.0 - q)


def oracle_kl_inverse_upper(p_hat, budget):
    """The kl inversion as its bisection was first written, on ``_little_kl``; the kernel must
    make the same comparisons and so return the same bits."""
    if budget == 0.0:
        return p_hat
    if p_hat == 1.0 or budget == math.inf:
        return 1.0
    if p_hat == 0.0:
        return min(1.0, -math.expm1(-budget))
    lo, hi = p_hat, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return lo
        if _little_kl(p_hat, mid) <= budget:
            lo = mid
        else:
            hi = mid


def oracle_integrand(pair, kind, alpha, c):
    """The quadrature integrand as first written, with ln q computed in both of the pair's
    log-density calls; it reads ``divergences._MAX_EVALUATIONS`` as the library does."""
    terms = {
        DivergenceKind.KL: lambda lp, lq: _kl_terms(lp, lq, np.exp(lp)),
        DivergenceKind.TV: lambda lp, lq: 0.5 * _abs_diff_of_exps(lp, lq, lp - lq),
        DivergenceKind.ZCP: lambda lp, lq: _zcp_terms(
            _abs_diff_of_exps(lp, lq, lp - lq), _log_abs_expm1(lp - lq), c),
        DivergenceKind.RENYI: lambda lp, lq: np.exp(_renyi_log_terms(lp, lq, alpha)),
    }[kind]

    spent = 0

    def integrand(x):
        nonlocal spent
        spent += x.size
        limit = divergences._MAX_EVALUATIONS
        if spent > limit:
            message = f"quadrature needs more than {limit} integrand evaluations"
            raise NumericalError(message + " (evaluation budget exhausted)")
        with np.errstate(over="ignore", invalid="ignore"):  # invalid: -inf - -inf where p = q = 0
            return terms(pair.log_pdf_p(x), pair.log_pdf_q(x))

    return integrand


def oracle_adaptive_simpson(f, edges, budget, max_depth):
    """Adaptive Simpson as first written, each field of an interval its own array and the
    children concatenated field by field; it reads ``divergences._BATCH`` as the library does.
    The library's stacked refinement must accept the same intervals in the same order and so
    return the same bits."""
    a, b = edges[:-1], edges[1:]
    m = 0.5 * (a + b)
    fe, fm = f(edges), f(m)
    fa, fb = fe[:-1], fe[1:]
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    tol = budget * (b - a) / (edges[-1] - edges[0])
    stack = [(a, m, b, fa, fm, fb, whole, tol, max_depth)]
    value = err = 0.0
    exhausted = False
    while stack:
        a, m, b, fa, fm, fb, whole, tol, depth = stack.pop()
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = np.split(f(np.concatenate([lm, rm])), 2)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        refine = ~(np.abs(delta) <= 15.0 * tol)
        if depth <= 0:
            exhausted = exhausted or bool(refine.any())
            refine[:] = False
        done = ~refine
        value += float(np.sum(left[done] + right[done] + delta[done] / 15.0))
        err += float(np.sum(np.abs(delta[done]) / 15.0))
        half_tol = 0.5 * tol
        children = ((a, m), (lm, rm), (m, b), (fa, fm), (flm, frm), (fm, fb), (left, right),
                    (half_tol, half_tol))
        halves = [np.concatenate([lo[refine], hi[refine]]) for lo, hi in children]
        for start in range(0, halves[0].size, divergences._BATCH):
            stack.append((*(h[start : start + divergences._BATCH] for h in halves), depth - 1))
    return value, err, exhausted


def _oracle_column(values):
    """(%-format, values) of one column: a float64 array as it is through ``%.17g``, a column of
    Python ints only through ``%d``, and any other column through ``cli._fmt`` first."""
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        return "%.17g", values
    values = values.tolist() if isinstance(values, np.ndarray) else values
    if set(map(type, values)) == {int}:
        return "%d", values
    return "%s", [cli._fmt(value) for value in values]


def oracle_render_csv(table, summary):
    """The CSV renderer as first written: one %-format per row, each float64 array cell through
    ``%.17g`` and each int through ``%d``; the array path must write the same bytes."""
    formats, columns = zip(*map(_oracle_column, table.values()))
    lines = [",".join(table)]
    lines += map(",".join(formats).__mod__, zip(*columns))  # one % per row
    lines.append("# summary")
    for key, value in summary.items():
        lines.append(f"# {key}={cli._fmt(value)}")
    return "\n".join(lines) + "\n"
