"""Command-line driver: batch computation and verification subcommands.

Output contract: a header row, data rows, and a trailing ``# summary``
comment block (CSV), or a ``{"rows": [...], "summary": {...}}`` document
mirroring the same fields (RFC 8259 JSON: non-finite floats are the strings
``"inf"``, ``"-inf"``, ``"nan"`` the CSV prints).  The payload goes to stdout,
or — with --out — atomically to a file (temp file in the target directory,
then rename).  Identical argv and seed produce byte-identical output.

Exit codes: 0 success, 1 usage or validation error, 2 when a verification
subcommand (coverage, gaussian-check, ville, inequalities, self-check)
finds a failed PASS criterion.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from .betting import kt_bettor, max_log_wealth, mean_zero_coins, wealth_quadratic_lower
from .bounds import BoundConfig, analytic_inequality_suite, asymptotics_inequality_check
from .distributions import (
    bernoulli_instance, gaussian_instance, make_discrete, multivariate_instance
)
from .divergences import (
    DivergenceKind,
    divergence_gaussian,
    kl_discrete,
    little_kl,
    renyi_discrete,
    tv_discrete,
    zcp_discrete,
)
from .errors import NumericalError, ValidationError
from .harness import (
    GibbsPosterior,
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


def float_list(text: str) -> list[float]:
    """Comma-separated numbers; empty items are skipped (the library rejects an empty list)."""
    return [float(part) for part in text.split(",") if part.strip()]


def int_list(text: str) -> list[int]:
    """Comma-separated integers, written as integers or integral floats."""
    values = float_list(text)
    if not all(value.is_integer() for value in values):
        raise ValueError("not integers")
    return [int(value) for value in values]


def _require_flags(args: argparse.Namespace, *flags: str) -> None:
    """Check flags that only some --kind values need, which argparse cannot express."""
    for flag in flags:
        if getattr(args, flag.replace("-", "_")) is None:
            raise ValidationError(f"missing required flag --{flag}")


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
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _json_value(value):
    """A plain value; a non-finite float becomes the text the CSV prints."""
    value = _plain(value)
    return _fmt(value) if isinstance(value, float) and not math.isfinite(value) else value


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
        "rows": [{k: _json_value(v) for k, v in row.items()} for row in rows],
        "summary": {k: _json_value(v) for k, v in summary.items()},
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


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
    try:
        kind = DivergenceKind(args.kind)
    except ValueError:
        valid = ", ".join(k.value for k in DivergenceKind)
        raise ValidationError(f"--kind must be one of {valid}, got {args.kind!r}") from None
    if kind is DivergenceKind.RENYI:
        _require_flags(args, "alpha")
    if kind is DivergenceKind.ZCP:
        _require_flags(args, "c")

    if kind is DivergenceKind.LITTLE_KL:
        if args.p is None or args.q is None or len(args.p) != 1 or len(args.q) != 1:
            raise ValidationError("little_kl takes one number for each of --p and --q")
        value, abs_error = little_kl(args.p[0], args.q[0]), 0.0
    elif args.p is not None or args.q is not None:
        _require_flags(args, "p", "q")
        p, q = make_discrete(args.p), make_discrete(args.q)
        if kind is DivergenceKind.KL:
            value = kl_discrete(p, q)
        elif kind is DivergenceKind.TV:
            value = tv_discrete(p, q)
        elif kind is DivergenceKind.RENYI:
            value = renyi_discrete(p, q, args.alpha)
        else:
            value = zcp_discrete(p, q, args.c)
        abs_error = 0.0
    elif args.mixture_p is not None:
        pair = gaussian_instance(args.mixture_p, args.sigma1, args.exponent)
        result = divergence_gaussian(pair, kind, alpha=args.alpha, c=args.c)
        value, abs_error = result.value, result.abs_error
    else:
        raise ValidationError("divergence needs either --p/--q weights or --mixture-p")

    row = dict(
        kind=kind.value, alpha=args.alpha, c=args.c, value=value, abs_error_estimate=abs_error
    )
    return [row], {"seed": args.seed}, None


def _cmd_instance(args) -> tuple[list[dict], dict, bool | None]:
    if args.kind == "bernoulli":
        _require_flags(args, "p")
        p, ln_a = args.p, args.lna if args.lna is not None else 1.0 / (args.p * args.p)
        dist_p, dist_q = bernoulli_instance(p, ln_a)
        row = {
            "kind": args.kind,
            "p": p,
            "ln_a": ln_a,
            "tv": tv_discrete(dist_p, dist_q),
            "tv_exact": p * -math.expm1(-ln_a),
            "kl": kl_discrete(dist_p, dist_q),
            "kl_lower": p * ln_a - math.exp(-1.0),
            "kl_upper": p * ln_a,
            "zcp1": zcp_discrete(dist_p, dist_q, 1.0),
        }
    elif args.kind == "multivariate":
        _require_flags(args, "d", "u")
        dist_p, dist_q = multivariate_instance(args.d, args.u)
        row = {
            "kind": args.kind,
            "d": args.d,
            "u": args.u,
            "ln_a": float(args.d) ** (1.5 * args.u),
            "kl": kl_discrete(dist_p, dist_q),
            "tv": tv_discrete(dist_p, dist_q),
            "zcp1": zcp_discrete(dist_p, dist_q, 1.0),
        }
    else:
        _require_flags(args, "mixture-p")
        pair = gaussian_instance(args.mixture_p, args.sigma1, args.exponent)
        row = {
            "kind": args.kind,
            "p": pair.p,
            "sigma1": pair.sigma1,
            "sigma2": pair.sigma2,
            "mu": pair.mu,
            "kl": divergence_gaussian(pair, DivergenceKind.KL).value,
            "tv": divergence_gaussian(pair, DivergenceKind.TV).value,
            "zcp1": divergence_gaussian(pair, DivergenceKind.ZCP, c=1.0).value,
        }
    return [row], {"seed": args.seed}, None


def _cmd_betting(args) -> tuple[list[dict], dict, bool | None]:
    if args.coins is not None:
        coins = np.asarray(args.coins)
    elif args.n is not None:
        coins = mean_zero_coins(args.n, args.seed)
    else:
        raise ValidationError("betting needs --coins or --n (sampled mean-zero coins)")
    trace = kt_bettor(coins)
    columns = zip(trace.coins, trace.bets, trace.log_wealth[1:])
    rows = [
        {"t": t, "c_t": float(c_t), "beta_t": float(beta_t), "ln_w_t": float(ln_w_t)}
        for t, (c_t, beta_t, ln_w_t) in enumerate(columns, start=1)
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


def _bound_inputs(args):
    """The bound config, the learning instance, and summary entries that name both."""
    config = BoundConfig(n=args.n, delta=args.delta, alpha=args.alpha)
    # a config instance's m, loss and eta were read as flags, so explicit flags win
    flags = {"m": args.m, "loss": args.loss, "eta": args.eta}
    instance = learning_instance_from_dict({**(args.instance or {}), **flags})
    rule = instance.posterior_rule
    named = {"m": instance.theta_count, "loss": instance.loss_kind.value}
    named.update({"eta": rule.eta} if isinstance(rule, GibbsPosterior) else {})
    return config, instance, {**dataclasses.asdict(config), **named}


def _cmd_bound(args) -> tuple[list[dict], dict, bool | None]:
    config, instance, summary = _bound_inputs(args)
    report = next(iter(coverage_reports(instance, config, trials=1, seed=args.seed)))
    return [report.as_dict()], {**summary, "seed": args.seed}, None


def _cmd_coverage(args) -> tuple[list[dict], dict, bool | None]:
    config, instance, summary = _bound_inputs(args)
    report = run_coverage(instance, config, args.trials, args.seed)
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
    summary.update(trials=report.trials, seed=args.seed, all_passed=report.all_passed)
    return rows, summary, report.all_passed


def _cmd_scaling(args) -> tuple[list[dict], dict, bool | None]:
    table = divergence_scaling_table(args.u, args.d)
    rows = [dataclasses.asdict(row) for row in table.rows]
    summary = {"u": args.u}
    for name in ("kl", "tv", "zcp1"):
        summary[f"slope_{name}"] = table.slopes[name]
        summary[f"expected_slope_{name}"] = table.expected_slopes[name]
    return rows, summary, None


def _cmd_gaussian_check(args) -> tuple[list[dict], dict, bool | None]:
    checks = gaussian_instance_check(args.p, args.exponent)
    rows = [dataclasses.asdict(row) for row in checks]
    all_ok = all(r.kl_ok and r.product_ok for r in checks)
    return rows, {"exponent": args.exponent, "all_passed": all_ok}, all_ok


def _cmd_ville(args) -> tuple[list[dict], dict, bool | None]:
    rows_data = ville_experiment(args.n, args.delta, args.paths, args.seed)
    rows = [dataclasses.asdict(row) for row in rows_data]
    all_ok = all(r.passed for r in rows_data)
    summary = {"n": args.n, "paths": args.paths, "seed": args.seed, "all_passed": all_ok}
    return rows, summary, all_ok


def _check_row(check: str, worst_slack: float, violations: int) -> dict:
    return dict(check=check, worst_slack=worst_slack, violations=violations, passed=violations == 0)


def _cmd_inequalities(args) -> tuple[list[dict], dict, bool | None]:
    report = analytic_inequality_suite(trials=args.trials, seed=args.seed, tolerance=1e-9)
    rows = [_check_row(name, r.worst_slack, r.violations) for name, r in report.results.items()]
    summary = {"trials": report.trials, "tolerance": report.tolerance, "all_passed": report.ok}
    return rows, summary, report.ok


def _asymptotics_fuzz(rng: np.random.Generator):
    for index in range(300):
        size = int(rng.integers(2, 65))
        p = make_discrete(rng.random(size) + 1e-3)
        q = make_discrete(rng.random(size) + 1e-3)
        for n in (25, 100, 10_000):
            check = asymptotics_inequality_check(p, q, n)
            yield check.a_value - check.b_over_l, f"pair={index},n={n}", not check.holds


def _betting_fuzz(rng: np.random.Generator):
    for index in range(300):
        n = int(rng.integers(1, 257))
        # the quadratic wealth lower bound holds for every [-1, 1] sequence
        coins = rng.choice([-1.0, 1.0], n) * rng.random(n)
        quad_slack = max_log_wealth(coins)[1] - wealth_quadratic_lower(coins)
        # the 2 sqrt(n) KT regret guarantee is a binary-coin theorem and is
        # false for general magnitudes, so fuzz it on +-1 sequences only
        bias = rng.uniform(0.1, 0.9)
        trace = kt_bettor(np.where(rng.random(n) < bias, 1.0, -1.0))
        slack = min(quad_slack, math.log(2.0 * math.sqrt(trace.n)) - trace.log_regret)
        yield slack, f"sequence={index},n={trace.n}", slack < -1e-12


def _fuzz_row(check: str, results) -> dict:
    """The check row of (slack, where, violated) fuzz results; stderr names the worst one."""
    worst_slack, worst_at, violations = math.inf, "", 0
    for slack, where, violated in results:
        if math.isfinite(slack) and slack < worst_slack:
            worst_slack, worst_at = slack, where
        violations += violated
    if violations:
        print(f"self-check: {check} violated at {worst_at}", file=sys.stderr)
    return _check_row(check, worst_slack, violations)


def _cmd_self_check(args) -> tuple[list[dict], dict, bool | None]:
    rows = _cmd_inequalities(args)[0]
    rng = np.random.default_rng((args.seed, 1))
    rows.append(_fuzz_row("asymptotics_surrogate", _asymptotics_fuzz(rng)))
    rng = np.random.default_rng((args.seed, 2))
    rows.append(_fuzz_row("betting_invariants", _betting_fuzz(rng)))
    all_ok = all(row["passed"] for row in rows)
    for row in rows:
        if not row["passed"]:
            message = f"self-check failure: {row['check']} worst_slack={_fmt(row['worst_slack'])}"
            print(message, file=sys.stderr)
    summary = {"trials": args.trials, "seed": args.seed, "all_passed": all_ok}
    return rows, summary, all_ok


# ---------------------------------------------------------------------------
# The flag table, parser assembly and entry points
# ---------------------------------------------------------------------------

# A flag is (type or choices, default); defaults are immutable, as the parser
# lives for the process.  _REQUIRED marks a flag that argv or --config must give.
_REQUIRED = object()

_MIXTURE_FLAGS = {"mixture-p": (float, None), "sigma1": (float, 1.0), "exponent": (float, 1.0)}

_BOUND_FLAGS = {
    "n": (int, _REQUIRED),
    "delta": (float, 0.05),
    "alpha": (float, 2.0),
    "m": (int, 50),
    "loss": (("abs", "bernoulli"), "abs"),
    "eta": (float, 5.0),
}

_COMMANDS = {
    "divergence": (
        _cmd_divergence,
        {
            "kind": (str, _REQUIRED),
            "p": (float_list, None),
            "q": (float_list, None),
            "c": (float, None),
            "alpha": (float, None),
            **_MIXTURE_FLAGS,
        },
    ),
    "instance": (
        _cmd_instance,
        {
            "kind": (("bernoulli", "multivariate", "gaussian"), _REQUIRED),
            "p": (float, None),
            "lna": (float, None),
            "d": (int, None),
            "u": (float, None),
            **_MIXTURE_FLAGS,
        },
    ),
    "betting": (_cmd_betting, {"coins": (float_list, None), "n": (int, None)}),
    "bound": (_cmd_bound, _BOUND_FLAGS),
    "coverage": (_cmd_coverage, {**_BOUND_FLAGS, "trials": (int, 2000)}),
    "scaling": (
        _cmd_scaling,
        {"u": (float, 1.0), "d": (int_list, tuple(2**k for k in range(4, 13)))},
    ),
    "gaussian-check": (
        _cmd_gaussian_check,
        {"p": (float_list, (0.2, 0.1, 0.05, 0.02)), "exponent": (float, 1.0)},
    ),
    "ville": (
        _cmd_ville,
        {"n": (int, 1000), "delta": (float_list, (0.1, 0.05)), "paths": (int, 10_000)},
    ),
    "inequalities": (_cmd_inequalities, {"trials": (int, 100_000)}),
    "self-check": (_cmd_self_check, {"trials": (int, 50_000)}),
}

_COMMON_FLAGS = {
    "seed": (int, 0),
    "format": (("csv", "json"), "csv"),
    "out": (str, None),
    "config": (str, None),
}

_INSTANCE_COMMANDS = ("bound", "coverage")  # take a nested "instance" object from --config

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
    "seed": "master seed for all randomness",
    "format": "output format",
    "out": "write output atomically to this path",
    "config": "JSON file of flag values; explicit flags win",
}


@functools.cache
def _parsers() -> tuple[_Parser, _Parser]:
    """The early --config reader and the full parser, built on first use."""
    # without abbreviations, so that --c is never read as --config
    config_reader = _Parser(prog="zcp-paclab", add_help=False, allow_abbrev=False)
    config_reader.add_argument("--config")

    parser = _Parser(prog="zcp-paclab", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    for name, (_, flags) in _COMMANDS.items():
        sub = subparsers.add_parser(name, prog=f"zcp-paclab {name}")
        for flag, (kind, default) in {**flags, **_COMMON_FLAGS}.items():
            options = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            options["required"] = default is _REQUIRED
            sub.add_argument(f"--{flag}", default=default, help=_FLAG_HELP[flag], **options)
    return config_reader, parser


def _read_config(command: str, path: str) -> tuple[list[str], dict | None]:
    """The config file's entries as flag text, and its nested ``instance`` object."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError("config file must contain a JSON object")
    flags, instance = [], None
    for key, value in data.items():
        flag = key.replace("_", "-")
        if value is None or isinstance(value, bool):
            raise ValidationError(f"config key {key!r} cannot be {json.dumps(value)}")
        if key == "instance" and command in _INSTANCE_COMMANDS:
            if not isinstance(value, dict):
                raise ValidationError("instance config must be a JSON object")
            instance = value
            flags += [f"--{name}={value[name]}" for name in ("m", "loss", "eta") if name in value]
        elif flag not in _COMMANDS[command][1] and flag not in _COMMON_FLAGS:
            raise ValidationError(f"config key {key!r} is not a flag of {command}")
        elif isinstance(value, dict):
            raise ValidationError(f"config key {key!r} cannot be a JSON object")
        else:
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            flags.append(f"--{flag}={text}")
    return flags, instance


def run(argv: list[str]) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    config_reader, parser = _parsers()
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        if command is None:
            parser.parse_args(argv)  # exits with help, or with a bad-subcommand error
            parser.print_usage(sys.stderr)
            return 1
        config = config_reader.parse_known_args(argv[1:])[0].config
        flags, instance = ([], None) if config is None else _read_config(command, config)
        # config entries come first, so explicit flags win
        namespace = argparse.Namespace(instance=instance)
        args = parser.parse_args([command, *flags, *argv[1:]], namespace)
        if args.config != config:
            raise ValidationError("write --config in full; it cannot be abbreviated")
        rows, summary, passed = _COMMANDS[command][0](args)
        text = _render_json(rows, summary) if args.format == "json" else _render_csv(rows, summary)
        _write_output(text, args.out)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValidationError, NumericalError) as exc:
        print(f"zcp-paclab {command}: error: {exc}", file=sys.stderr)
        return 1
    return 0 if passed is None or passed else 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
