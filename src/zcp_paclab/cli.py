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

from .betting import kt_bettor, mean_zero_coins, wealth_quadratic_lower
from .bounds import _LEMMA_TOLERANCE, BoundConfig, analytic_inequality_suite
from .distributions import (
    _multivariate_ln_a, bernoulli_instance, gaussian_instance, make_discrete, multivariate_instance
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
    self_check_suite,
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


def _refuse_flag(args: argparse.Namespace, flag: str, owner: str, used: str) -> None:
    """Refuse a flag that only ``owner`` reads, given where ``used`` runs instead."""
    if getattr(args, flag.replace("-", "_")) is not None:
        raise ValidationError(f"{flag} is only meaningful for {owner}, not {used}")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    """The text of one plain cell: None, a bool, an int, a float or a str."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _json_value(value):
    """A plain value; a non-finite float becomes the text the CSV prints."""
    return _fmt(value) if isinstance(value, float) and not math.isfinite(value) else value


def _cells(values):
    """A table column as a sequence of plain Python values (an array becomes a list)."""
    return values.tolist() if isinstance(values, np.ndarray) else values


def _column_csv(values) -> tuple[str, object]:
    """(%-format, values) of one column: each value formats to the text ``_fmt`` gives it.

    A float64 array, or a column of Python ints only, is formatted as it is;
    any other column is formatted by ``_fmt`` first.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        return "%.17g", values
    values = _cells(values)
    if set(map(type, values)) == {int}:
        return "%d", values
    return "%s", [_fmt(value) for value in values]


def _table(rows) -> dict[str, list]:
    """Column name -> values, from row dicts or dataclass rows sharing one set of fields."""
    rows = [row if isinstance(row, dict) else dataclasses.asdict(row) for row in rows]
    return {key: [row[key] for row in rows] for key in rows[0]}


def _render_csv(table: dict, summary: dict) -> str:
    formats, columns = zip(*map(_column_csv, table.values()))
    lines = [",".join(table)]
    lines += map(",".join(formats).__mod__, zip(*columns))  # one % per row
    lines.append("# summary")
    for key, value in summary.items():
        lines.append(f"# {key}={_fmt(value)}")
    return "\n".join(lines) + "\n"


def _render_json(table: dict, summary: dict) -> str:
    columns = ([_json_value(v) for v in _cells(values)] for values in table.values())
    payload = {
        "rows": [dict(zip(table, row)) for row in zip(*columns)],
        "summary": {k: _json_value(v) for k, v in summary.items()},
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    directory, tmp_path = os.path.dirname(out_path) or ".", None
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".zcp-paclab-", suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, out_path)
    except OSError as exc:
        raise ValidationError(f"cannot write output file: {exc.strerror}: {out_path!r}") from None
    finally:
        if tmp_path is not None and os.path.exists(tmp_path):  # not renamed
            os.unlink(tmp_path)


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (table, summary, passed), where the table
# maps each column name to its values, a list or a 1-d array.  ``passed`` is
# None for purely computational commands and drives exit code 2 otherwise.
# ---------------------------------------------------------------------------


def _cmd_divergence(args) -> tuple[dict, dict, bool | None]:
    kind = args.kind
    kinds = [k.value for k in DivergenceKind] + ["little_kl"]  # little_kl takes two numbers
    if kind not in kinds:
        raise ValidationError(f"--kind must be one of {', '.join(kinds)}, got {kind!r}")
    for flag, owner in (("alpha", "renyi"), ("c", "zcp")):
        if kind == owner:
            _require_flags(args, flag)
        else:
            _refuse_flag(args, flag, owner.upper(), kind)
    if args.p is not None or args.q is not None:
        _refuse_flag(args, "mixture-p", "a mixture pair", "--p/--q weights")

    if kind == "little_kl":
        if args.p is None or args.q is None or len(args.p) != 1 or len(args.q) != 1:
            raise ValidationError("little_kl takes one number for each of --p and --q")
        value, abs_error = little_kl(args.p[0], args.q[0]), 0.0
    elif args.p is not None or args.q is not None:
        _require_flags(args, "p", "q")
        p, q = make_discrete(args.p), make_discrete(args.q)
        if kind == "kl":
            value = kl_discrete(p, q)
        elif kind == "tv":
            value = tv_discrete(p, q)
        elif kind == "renyi":
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

    row = dict(kind=kind, alpha=args.alpha, c=args.c, value=value, abs_error_estimate=abs_error)
    return _table([row]), {"seed": args.seed}, None


def _cmd_instance(args) -> tuple[dict, dict, bool | None]:
    for flag, owner in {"p": "bernoulli", "lna": "bernoulli", "d": "multivariate",
                        "u": "multivariate", "mixture-p": "gaussian"}.items():
        if owner != args.kind:
            _refuse_flag(args, flag, owner, args.kind)
    if args.kind == "bernoulli":
        _require_flags(args, "p")
        p = args.p
        # p = 0, p*p underflows, or 1/p**2 overflows
        if args.lna is None and (p * p == 0.0 or 1.0 / (p * p) == math.inf):
            raise ValidationError(f"--lna defaults to 1/p**2, which is not finite at p = {p!r}")
        ln_a = args.lna if args.lna is not None else 1.0 / (p * p)
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
            "ln_a": _multivariate_ln_a(args.d, args.u),
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
    return _table([row]), {"seed": args.seed}, None


def _cmd_betting(args) -> tuple[dict, dict, bool | None]:
    if args.coins is not None:
        _refuse_flag(args, "n", "sampled coins", "--coins")
        coins = args.coins
    elif args.n is not None:
        coins = mean_zero_coins(args.n, args.seed)
    else:
        raise ValidationError("betting needs --coins or --n (sampled mean-zero coins)")
    trace = kt_bettor(coins)
    table = {
        "t": range(1, trace.n + 1),
        "c_t": trace.coins,
        "beta_t": trace.bets,
        "ln_w_t": trace.log_wealth[1:],
    }
    summary = {
        "beta_star": trace.beta_star,
        "ln_w_star": trace.log_wealth_star,
        "ln_w_n": float(trace.log_wealth[-1]),
        "regret": math.exp(trace.log_regret),
        "quadratic_lower": wealth_quadratic_lower(coins),
        "seed": args.seed,
    }
    return table, summary, None


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


def _cmd_bound(args) -> tuple[dict, dict, bool | None]:
    config, instance, summary = _bound_inputs(args)
    report = next(iter(coverage_reports(instance, config, trials=1, seed=args.seed)))
    return _table([report]), {**summary, "seed": args.seed}, None


def _cmd_coverage(args) -> tuple[dict, dict, bool | None]:
    config, instance, summary = _bound_inputs(args)
    report = run_coverage(instance, config, args.trials, args.seed)
    summary.update(trials=args.trials, seed=args.seed, all_passed=report.all_passed)
    return _table(report.rows), summary, report.all_passed


def _cmd_scaling(args) -> tuple[dict, dict, bool | None]:
    table = divergence_scaling_table(args.u, args.d)
    summary = {"u": args.u}
    for name in ("kl", "tv", "zcp1"):
        summary[f"slope_{name}"] = table.slopes[name]
        summary[f"expected_slope_{name}"] = table.expected_slopes[name]
    return _table(table.rows), summary, None


def _cmd_gaussian_check(args) -> tuple[dict, dict, bool | None]:
    checks = gaussian_instance_check(args.p, args.exponent)
    all_ok = all(r.kl_ok and r.product_ok for r in checks)
    return _table(checks), {"exponent": args.exponent, "all_passed": all_ok}, all_ok


def _cmd_ville(args) -> tuple[dict, dict, bool | None]:
    rows = ville_experiment(args.n, args.delta, args.paths, args.seed)
    all_ok = all(r.passed for r in rows)
    summary = {"n": args.n, "paths": args.paths, "seed": args.seed, "all_passed": all_ok}
    return _table(rows), summary, all_ok


def _cmd_inequalities(args) -> tuple[dict, dict, bool | None]:
    rows = analytic_inequality_suite(trials=args.trials, seed=args.seed)
    passed = all(row.passed for row in rows)
    summary = {"trials": args.trials, "tolerance": _LEMMA_TOLERANCE, "all_passed": passed}
    return _table(rows), summary, passed


def _cmd_self_check(args) -> tuple[dict, dict, bool | None]:
    rows = self_check_suite(trials=args.trials, seed=args.seed)
    all_ok = all(row.passed for row in rows)
    for row in rows:
        if not row.passed:
            message = f"self-check failure: {row.check} worst_slack={_fmt(row.worst_slack)}"
            print(message, file=sys.stderr)
    summary = {"trials": args.trials, "seed": args.seed, "all_passed": all_ok}
    return _table(rows), summary, all_ok


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
        table, summary, passed = _COMMANDS[command][0](args)
        render = _render_json if args.format == "json" else _render_csv
        text = render(table, summary)
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
