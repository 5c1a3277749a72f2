"""Command-line driver: batch computation and verification subcommands.

Output contract: a header row, data rows, and a trailing ``# summary``
comment block (CSV), or a ``{"rows": [...], "summary": {...}}`` document
mirroring the same fields (JSON).  The payload goes to stdout, or — with
--out — atomically to a file (temp file in the target directory, then
rename).  Identical argv and seed produce byte-identical output.

Exit codes: 0 success, 1 usage or validation error, 2 when a verification
subcommand (coverage, gaussian-check, ville, inequalities, self-check)
finds a failed PASS criterion.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from .betting import kt_bettor, max_log_wealth, wealth_quadratic_lower
from .bounds import BoundConfig, analytic_inequality_suite, asymptotics_inequality_check
from .distributions import (
    bernoulli_instance,
    gaussian_instance,
    make_discrete,
    multivariate_instance,
)
from .divergences import (
    DivergenceKind,
    QuadratureConfig,
    divergence_gaussian,
    kl_discrete,
    little_kl,
    renyi_discrete,
    tv_discrete,
    zcp_discrete,
)
from .errors import NumericalError, ValidationError
from .harness import (
    coverage_reports,
    divergence_scaling_table,
    gaussian_instance_check,
    learning_instance_from_dict,
    run_coverage,
    ville_experiment,
)

__all__ = ["run", "main"]


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors."""

    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# Flag coercion (flags arrive as strings; config values as JSON types)
# ---------------------------------------------------------------------------


def _require(value, flag: str):
    if value is None:
        raise ValidationError(f"missing required flag --{flag}")
    return value


def _as_float(value, flag: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"--{flag} expects a number, got {value!r}") from None


def _as_int(value, flag: str) -> int:
    try:
        out = int(str(value), 10) if not isinstance(value, (int, float)) else int(value)
    except (TypeError, ValueError):
        raise ValidationError(f"--{flag} expects an integer, got {value!r}") from None
    if isinstance(value, float) and value != out:
        raise ValidationError(f"--{flag} expects an integer, got {value!r}")
    return out


def _as_floats(value, flag: str) -> list[float]:
    if isinstance(value, str):
        parts = [part for part in value.split(",") if part.strip()]
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        parts = [value]
    if not parts:
        raise ValidationError(f"--{flag} expects a comma-separated list of numbers")
    return [_as_float(part, flag) for part in parts]


def _as_ints(value, flag: str) -> list[int]:
    return [_as_int(part, flag) for part in _as_floats(value, flag)]


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _plain(value):
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _fmt(value) -> str:
    value = _plain(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _render_csv(rows: list[dict], summary: dict) -> str:
    lines = [",".join(rows[0].keys())] if rows else []
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row.values()))
    lines.append("# summary")
    for key, value in summary.items():
        lines.append(f"# {key}={_fmt(value)}")
    return "\n".join(lines) + "\n"


def _render_json(rows: list[dict], summary: dict) -> str:
    payload = {
        "rows": [{k: _plain(v) for k, v in row.items()} for row in rows],
        "summary": {k: _plain(v) for k, v in summary.items()},
    }
    return json.dumps(payload, indent=2) + "\n"


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".zcp-paclab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, out_path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (rows, summary, passed).  ``passed`` is
# None for purely computational commands and drives exit code 2 otherwise.
# ---------------------------------------------------------------------------


def _cmd_divergence(args) -> tuple[list[dict], dict, bool | None]:
    kind_name = str(_require(args.kind, "kind"))
    try:
        kind = DivergenceKind(kind_name)
    except ValueError:
        valid = ", ".join(k.value for k in DivergenceKind)
        raise ValidationError(f"--kind must be one of {valid}, got {kind_name!r}") from None
    alpha = None if args.alpha is None else _as_float(args.alpha, "alpha")
    c = None if args.c is None else _as_float(args.c, "c")
    if kind is DivergenceKind.RENYI:
        _require(alpha, "alpha")
    if kind is DivergenceKind.ZCP:
        _require(c, "c")

    if kind is DivergenceKind.LITTLE_KL:
        p_hat = _as_float(_require(args.p, "p"), "p")
        q = _as_float(_require(args.q, "q"), "q")
        value, abs_error = little_kl(p_hat, q), 0.0
    elif args.p is not None or args.q is not None:
        p = make_discrete(_as_floats(_require(args.p, "p"), "p"))
        q = make_discrete(_as_floats(_require(args.q, "q"), "q"))
        if kind is DivergenceKind.KL:
            value = kl_discrete(p, q)
        elif kind is DivergenceKind.TV:
            value = tv_discrete(p, q)
        elif kind is DivergenceKind.RENYI:
            value = renyi_discrete(p, q, alpha)
        else:
            value = zcp_discrete(p, q, c)
        abs_error = 0.0
    elif args.mixture_p is not None:
        pair = gaussian_instance(
            _as_float(args.mixture_p, "mixture-p"),
            _as_float(args.sigma1, "sigma1") if args.sigma1 is not None else 1.0,
            _as_float(args.exponent, "exponent") if args.exponent is not None else 1.0,
        )
        result = divergence_gaussian(pair, kind, alpha=alpha, c=c)
        value, abs_error = result.value, result.abs_error
    else:
        raise ValidationError("divergence needs either --p/--q weights or --mixture-p")

    row = {
        "kind": kind.value,
        "alpha": alpha,
        "c": c,
        "value": value,
        "abs_error_estimate": abs_error,
    }
    return [row], {"seed": args.seed}, None


def _cmd_instance(args) -> tuple[list[dict], dict, bool | None]:
    kind = str(_require(args.kind, "kind"))
    if kind == "bernoulli":
        p = _as_float(_require(args.p, "p"), "p")
        ln_a = _as_float(args.lna, "lna") if args.lna is not None else 1.0 / (p * p)
        dist_p, dist_q = bernoulli_instance(p, ln_a)
        row = {
            "kind": kind,
            "p": p,
            "ln_a": ln_a,
            "tv": tv_discrete(dist_p, dist_q),
            "tv_exact": p * -math.expm1(-ln_a),
            "kl": kl_discrete(dist_p, dist_q),
            "kl_lower": p * ln_a - math.exp(-1.0),
            "kl_upper": p * ln_a,
            "zcp1": zcp_discrete(dist_p, dist_q, 1.0),
        }
    elif kind == "multivariate":
        d = _as_int(_require(args.d, "d"), "d")
        u = _as_float(_require(args.u, "u"), "u")
        dist_p, dist_q = multivariate_instance(d, u)
        row = {
            "kind": kind,
            "d": d,
            "u": u,
            "ln_a": float(d) ** (1.5 * u),
            "kl": kl_discrete(dist_p, dist_q),
            "tv": tv_discrete(dist_p, dist_q),
            "zcp1": zcp_discrete(dist_p, dist_q, 1.0),
        }
    elif kind == "gaussian":
        pair = gaussian_instance(
            _as_float(_require(args.mixture_p, "mixture-p"), "mixture-p"),
            _as_float(args.sigma1, "sigma1") if args.sigma1 is not None else 1.0,
            _as_float(args.exponent, "exponent") if args.exponent is not None else 1.0,
        )
        row = {
            "kind": kind,
            "p": pair.p,
            "sigma1": pair.sigma1,
            "sigma2": pair.sigma2,
            "mu": pair.mu,
            "kl": divergence_gaussian(pair, DivergenceKind.KL).value,
            "tv": divergence_gaussian(pair, DivergenceKind.TV).value,
            "zcp1": divergence_gaussian(pair, DivergenceKind.ZCP, c=1.0).value,
        }
    else:
        raise ValidationError("instance --kind must be bernoulli, multivariate, or gaussian")
    return [row], {"seed": args.seed}, None


def _sampled_coins(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng((seed, 0))
    signs = rng.integers(0, 2, n) * 2 - 1
    return signs * rng.random(n)


def _cmd_betting(args) -> tuple[list[dict], dict, bool | None]:
    if args.coins is not None:
        coins = np.asarray(_as_floats(args.coins, "coins"))
    elif args.n is not None:
        coins = _sampled_coins(_as_int(args.n, "n"), args.seed)
    else:
        raise ValidationError("betting needs --coins or --n (sampled mean-zero coins)")
    trace = kt_bettor(coins)
    rows = [
        {
            "t": t + 1,
            "c_t": float(trace.coins[t]),
            "beta_t": float(trace.bets[t]),
            "ln_w_t": float(trace.log_wealth[t + 1]),
        }
        for t in range(trace.n)
    ]
    summary = {
        "beta_star": trace.beta_star,
        "ln_w_star": trace.log_wealth_star,
        "ln_w_n": float(trace.log_wealth[-1]),
        "regret": math.exp(trace.log_regret),
        "quadratic_lower": wealth_quadratic_lower(coins),
        "seed": args.seed,
    }
    return rows, summary, None


def _bound_config(args) -> BoundConfig:
    return BoundConfig(
        n=_as_int(_require(args.n, "n"), "n"),
        delta=_as_float(args.delta, "delta") if args.delta is not None else 0.05,
        alpha=_as_float(args.alpha, "alpha") if args.alpha is not None else 2.0,
    )


def _instance_from_args(args):
    if args.instance_config is not None:
        return learning_instance_from_dict(args.instance_config)
    payload = {
        "m": _as_int(args.m, "m") if args.m is not None else 50,
        "loss": str(args.loss) if args.loss is not None else "abs",
        "posterior": "gibbs",
        "eta": _as_float(args.eta, "eta") if args.eta is not None else 5.0,
    }
    return learning_instance_from_dict(payload)


def _cmd_bound(args) -> tuple[list[dict], dict, bool | None]:
    config = _bound_config(args)
    instance = _instance_from_args(args)
    report = next(iter(coverage_reports(instance, config, trials=1, seed=args.seed)))
    row = report.as_dict()
    summary = {"n": config.n, "delta": config.delta, "alpha": config.alpha, "seed": args.seed}
    return [row], summary, None


def _cmd_coverage(args) -> tuple[list[dict], dict, bool | None]:
    config = _bound_config(args)
    instance = _instance_from_args(args)
    trials = _as_int(args.trials, "trials") if args.trials is not None else 2000
    report = run_coverage(instance, config, trials, args.seed)
    rows = [
        {
            "bound": name,
            "failures": report.failures_per_bound[name],
            "trials": report.trials,
            "failure_rate": report.empirical_failure_rate[name],
            "wilson_upper_99": report.wilson_upper_99[name],
            "budget": report.delta_budget,
            "passed": report.passed(name),
        }
        for name in report.failures_per_bound
    ]
    summary = {
        "n": config.n,
        "delta": config.delta,
        "alpha": config.alpha,
        "trials": report.trials,
        "seed": args.seed,
        "all_passed": report.all_passed,
    }
    return rows, summary, report.all_passed


def _cmd_scaling(args) -> tuple[list[dict], dict, bool | None]:
    u = _as_float(args.u, "u") if args.u is not None else 1.0
    d_values = (
        _as_ints(args.d, "d") if args.d is not None else [2**k for k in range(4, 13)]
    )
    table = divergence_scaling_table(u, d_values)
    rows = [
        {
            "d": r.d,
            "kl": r.kl,
            "tv": r.tv,
            "zcp1": r.zcp1,
            "kl_ratio": r.kl_ratio,
            "tv_ratio": r.tv_ratio,
            "zcp1_ratio": r.zcp1_ratio,
        }
        for r in table.rows
    ]
    summary = {"u": u}
    for name in ("kl", "tv", "zcp1"):
        summary[f"slope_{name}"] = table.slopes[name]
        summary[f"expected_slope_{name}"] = table.expected_slopes[name]
    return rows, summary, None


def _cmd_gaussian_check(args) -> tuple[list[dict], dict, bool | None]:
    p_values = _as_floats(args.p, "p") if args.p is not None else [0.2, 0.1, 0.05, 0.02]
    exponent = _as_float(args.exponent, "exponent") if args.exponent is not None else 1.0
    checks = gaussian_instance_check(p_values, exponent)
    rows = [
        {
            "p": r.p,
            "exponent": r.exponent,
            "kl": r.kl,
            "tv": r.tv,
            "kl_floor": r.kl_floor,
            "kl_ok": r.kl_ok,
            "product": r.product,
            "product_ok": r.product_ok,
        }
        for r in checks
    ]
    all_ok = all(r.kl_ok and r.product_ok for r in checks)
    return rows, {"exponent": exponent, "all_passed": all_ok}, all_ok


def _cmd_ville(args) -> tuple[list[dict], dict, bool | None]:
    n = _as_int(args.n, "n") if args.n is not None else 1000
    paths = _as_int(args.paths, "paths") if args.paths is not None else 10_000
    deltas = _as_floats(args.delta, "delta") if args.delta is not None else [0.1, 0.05]
    rows_data = ville_experiment(n, deltas, paths, args.seed)
    rows = [
        {
            "delta": r.delta,
            "crossings": r.crossings,
            "paths": r.paths,
            "rate": r.rate,
            "wilson_upper_99": r.wilson_upper_99,
            "passed": r.passed,
        }
        for r in rows_data
    ]
    all_ok = all(r.passed for r in rows_data)
    summary = {"n": n, "paths": paths, "seed": args.seed, "all_passed": all_ok}
    return rows, summary, all_ok


def _suite_rows(report) -> list[dict]:
    return [
        {
            "check": name,
            "worst_slack": result.worst_slack,
            "violations": result.violations,
            "passed": result.violations == 0,
        }
        for name, result in report.results.items()
    ]


def _cmd_inequalities(args) -> tuple[list[dict], dict, bool | None]:
    trials = _as_int(args.trials, "trials") if args.trials is not None else 100_000
    report = analytic_inequality_suite(trials=trials, seed=args.seed, tolerance=1e-9)
    rows = _suite_rows(report)
    summary = {"trials": report.trials, "tolerance": report.tolerance, "all_passed": report.ok}
    return rows, summary, report.ok


def _random_pair(rng: np.random.Generator, max_support: int = 64):
    size = int(rng.integers(2, max_support + 1))
    p = make_discrete(rng.random(size) + 1e-3)
    q = make_discrete(rng.random(size) + 1e-3)
    return p, q


def _cmd_self_check(args) -> tuple[list[dict], dict, bool | None]:
    trials = _as_int(args.trials, "trials") if args.trials is not None else 50_000
    rows = _suite_rows(analytic_inequality_suite(trials=trials, seed=args.seed, tolerance=1e-9))

    rng = np.random.default_rng((args.seed, 1))
    worst_slack, worst_at, violations = math.inf, "", 0
    for index in range(300):
        p, q = _random_pair(rng)
        for n in (25, 100, 10_000):
            check = asymptotics_inequality_check(p, q, n)
            slack = check.a_value - check.b_over_l
            if math.isfinite(slack) and slack < worst_slack:
                worst_slack, worst_at = slack, f"pair={index},n={n}"
            if not check.holds:
                violations += 1
    rows.append(
        {
            "check": "asymptotics_surrogate",
            "worst_slack": worst_slack,
            "violations": violations,
            "passed": violations == 0,
        }
    )
    if violations:
        print(f"self-check: asymptotics_surrogate violated at {worst_at}", file=sys.stderr)

    rng = np.random.default_rng((args.seed, 2))
    worst_slack, worst_at, violations = math.inf, "", 0
    for index in range(300):
        n = int(rng.integers(1, 257))
        # the quadratic wealth lower bound holds for every [-1, 1] sequence
        coins = rng.choice([-1.0, 1.0], n) * rng.random(n)
        quad_slack = max_log_wealth(coins)[1] - wealth_quadratic_lower(coins)
        # the 2 sqrt(n) KT regret guarantee is a binary-coin theorem and is
        # false for general magnitudes, so fuzz it on +-1 sequences only
        bias = rng.uniform(0.1, 0.9)
        trace = kt_bettor(np.where(rng.random(n) < bias, 1.0, -1.0))
        regret_slack = math.log(2.0 * math.sqrt(trace.n)) - trace.log_regret
        slack = min(quad_slack, regret_slack)
        if slack < worst_slack:
            worst_slack, worst_at = slack, f"sequence={index},n={trace.n}"
        if slack < -1e-12:
            violations += 1
    rows.append(
        {
            "check": "betting_invariants",
            "worst_slack": worst_slack,
            "violations": violations,
            "passed": violations == 0,
        }
    )
    if violations:
        print(f"self-check: betting_invariants violated at {worst_at}", file=sys.stderr)

    all_ok = all(row["passed"] for row in rows)
    for row in rows:
        if not row["passed"]:
            print(
                f"self-check failure: {row['check']} worst_slack={_fmt(row['worst_slack'])}",
                file=sys.stderr,
            )
    summary = {"trials": trials, "seed": args.seed, "all_passed": all_ok}
    return rows, summary, all_ok


# ---------------------------------------------------------------------------
# Parser assembly and entry points
# ---------------------------------------------------------------------------

_HANDLERS = {
    "divergence": _cmd_divergence,
    "instance": _cmd_instance,
    "betting": _cmd_betting,
    "bound": _cmd_bound,
    "coverage": _cmd_coverage,
    "scaling": _cmd_scaling,
    "gaussian-check": _cmd_gaussian_check,
    "ville": _cmd_ville,
    "inequalities": _cmd_inequalities,
    "self-check": _cmd_self_check,
}

_SUBCOMMAND_FLAGS = {
    "divergence": ["kind", "p", "q", "c", "alpha", "mixture-p", "sigma1", "exponent"],
    "instance": ["kind", "p", "lna", "d", "u", "mixture-p", "sigma1", "exponent"],
    "betting": ["coins", "n"],
    "bound": ["n", "delta", "alpha", "m", "loss", "eta"],
    "coverage": ["n", "delta", "alpha", "m", "loss", "eta", "trials"],
    "scaling": ["u", "d"],
    "gaussian-check": ["p", "exponent"],
    "ville": ["n", "delta", "paths"],
    "inequalities": ["trials"],
    "self-check": ["trials"],
}

_FLAG_HELP = {
    "kind": "divergence kind (kl, tv, renyi, zcp, little_kl) or instance family",
    "p": "comma-separated weights, scalar probability, or probability list",
    "q": "comma-separated weights or scalar probability",
    "c": "ZCP scale parameter",
    "alpha": "Renyi order (divergence) or complexity order (bounds, > 1)",
    "mixture-p": "Gaussian mixture weight of the narrow component",
    "sigma1": "Gaussian mixture base standard deviation",
    "exponent": "variance-decay exponent of the mixture pair (1 or 0.75)",
    "lna": "log likelihood-ratio scale of the Bernoulli instance",
    "d": "dimension (even) or comma-separated dimension sweep",
    "u": "scaling exponent of the two-block instance",
    "coins": "comma-separated coin outcomes in [-1, 1]",
    "n": "sample size / number of betting rounds",
    "delta": "failure budget in (0, 1); comma-separated list for ville",
    "m": "number of hypothesis atoms",
    "loss": "loss family for learning instances",
    "eta": "Gibbs posterior temperature",
    "trials": "number of Monte Carlo trials / fuzz draws",
    "paths": "number of independent sample paths",
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="zcp-paclab", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    for name, flags in _SUBCOMMAND_FLAGS.items():
        sub = subparsers.add_parser(name, prog=f"zcp-paclab {name}")
        for flag in flags:
            if flag == "loss":
                sub.add_argument("--loss", choices=["abs", "bernoulli"], help=_FLAG_HELP[flag])
            else:
                sub.add_argument(f"--{flag}", help=_FLAG_HELP[flag])
        sub.add_argument("--seed", help="master seed for all randomness")
        sub.add_argument("--format", choices=["csv", "json"], help="output format")
        sub.add_argument("--out", help="write output atomically to this path")
        sub.add_argument("--config", help="JSON file with default flag values")
    return parser


def _apply_config(args: argparse.Namespace) -> None:
    args.instance_config = None
    if args.config is None:
        return
    try:
        with open(args.config, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError("config file must contain a JSON object")
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest == "instance":
            args.instance_config = value
        elif hasattr(args, dest) and getattr(args, dest) is None:
            setattr(args, dest, value)


def run(argv: list[str]) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        _apply_config(args)
        args.seed = _as_int(args.seed, "seed") if args.seed is not None else 0
        rows, summary, passed = _HANDLERS[args.subcommand](args)
        text = _render_json(rows, summary) if args.format == "json" else _render_csv(rows, summary)
        _write_output(text, args.out)
    except (ValidationError, NumericalError) as exc:
        print(f"zcp-paclab {args.subcommand}: error: {exc}", file=sys.stderr)
        return 1
    return 0 if passed is None or passed else 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
