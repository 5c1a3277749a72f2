"""Command-line driver: batch computation and verification subcommands.

Output contract: a header row, data rows, and a trailing ``# summary``
comment block (CSV), or a ``{"rows": [...], "summary": {...}}`` document
mirroring the same fields (RFC 8259 JSON: non-finite floats are the strings
``"inf"``, ``"-inf"``, ``"nan"`` the CSV prints).  The payload goes to stdout,
or — with --out — atomically to a file (temp file in the target directory,
then rename).  Identical argv and seed produce byte-identical output.

Exit codes: 0 success, 1 usage or validation error, 2 when a verification
subcommand (coverage, gaussian-check, ville, self-check) finds a failed PASS
criterion and so writes ``all_passed=false`` in its summary.
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
import types

import numpy as np

from .betting import kt_bettor, mean_zero_coins, wealth_quadratic_lower
from .bounds import BoundConfig
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


def _table(rows) -> dict[str, list]:
    """Column name -> values, from row dicts or dataclass rows sharing one set of fields."""
    rows = [row if isinstance(row, dict) else dataclasses.asdict(row) for row in rows]
    return {key: [row[key] for row in rows] for key in rows[0]}


# The array path writes a table of float64 columns a chunk of rows at a time in numpy, with no
# Python call per cell.  Each cell gets a field of _FIELD bytes,
#     -0.000DDDDDDDDDDDDDDDDD.DDDDDDDDDDDDDDDDDe+000,
# a sign, a "0.000" prefix, its 17 significant digits twice around a point, the exponent's sign
# and three digits, and the cell's separator.  A layout is the boolean mask of the bytes that
# ``%g`` prints, and one boolean index per chunk gives the rows' text.
_FIELD_TEXT = b"-0.000" + b"0" * 17 + b"." + b"0" * 17 + b"e+000,"
_FIELD = len(_FIELD_TEXT)  # 47
_DIGITS, _POINT, _FRACTION, _EXPONENT = 6, 23, 24, 42  # the first byte of each part
_K_LOW, _K_HIGH = -280, 290  # the decimal exponents that the scale table covers
_TIE_TOLERANCE = 1e-6
_CHUNK_ROWS = 4096
# Layout rows: 782 float layouts, (exponent class * 17 + last nonzero digit) * 2 + sign, with
# classes 0-20 for the exponents -4 to 16 printed in fixed notation and 21 and 22 for two and
# three exponent digits; then a text's length, 0 to 46.
_TEXT_LAYOUT = 23 * 17 * 2  # + the text's length


def _split(a):
    """(high, low) with high + low == a, each of at most 26 significant bits (Veltkamp)."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _product_error(p, a, b):
    """a * b - p, exactly, for p = fl(a * b) and a, b given as their _split halves (Dekker)."""
    (a_high, a_low), (b_high, b_low) = a, b
    return ((a_high * b_high - p) + a_high * b_low + a_low * b_high) + a_low * b_low


@functools.cache
def _format_tables() -> types.SimpleNamespace:
    """The array path's tables, built on their first use:

    - scale: (4, k) hi, lo and hi's _split halves of 10**(16 - k), for k from _K_LOW;
    - k_layout: 34 * the exponent class of each k;
    - k_exponent: the 4 exponent bytes of each k, sign first;
    - group_text: the 4 digits of each group 0000 to 9999;
    - last_digit: (5, 10**4), 2 * the index among the 17 digits of a group's last nonzero
      digit, for the group in each of the 5 places (0 for the group 0000);
    - masks: (layouts, _FIELD), the bytes each layout keeps.

    With e = 16 - k, hi is the exact quotient a / b of the integers (10**e, 1) or (1, 10**-e)
    rounded once, and lo is the exact residual a / b - hi rounded once.  Each pair is within
    2**-106 of 10**e, relative; ``tests/test_cli.py`` checks it against exact rationals.
    """
    k = np.arange(_K_LOW, _K_HIGH + 1)
    pairs = []
    for e in (16 - k).tolist():
        a, b = (10**e, 1) if e >= 0 else (1, 10**-e)
        hi = a / b
        num, den = hi.as_integer_ratio()
        pairs.append((hi, (a * den - num * b) / (b * den)))
    hi, lo = np.array(pairs).T
    scale = np.stack([hi, lo, *_split(hi)])
    exponent_class = np.where((k >= -4) & (k <= 16), k + 4, 21 + (np.abs(k) >= 100))

    group = np.arange(10_000)
    trailing = np.select([group % 10**d != 0 for d in (1, 2, 3, 4)], [0, 1, 2, 3], 4)
    last_digit = np.where(group != 0, 2 * (4 * np.arange(5)[:, None] - trailing), 0).astype(np.int8)

    i = np.arange(_FIELD)
    a, b = i - _DIGITS, i - _FRACTION  # the digit a byte of either copy holds
    in_a, in_b = (a >= 0) & (a <= 16), (b >= 0) & (b <= 16)
    cls = np.arange(23)[:, None, None, None]
    x = cls - 4  # the exponent of a fixed-notation class
    last = np.arange(17)[:, None, None]
    fixed = np.where(
        x >= 0,  # the integer digits, then a point and the fraction digits if any
        (in_a & (a <= x)) | ((i == _POINT) & (last > x)) | (in_b & (b > x) & (b <= last)),
        ((i >= 1) & (i < 2 - x)) | (in_a & (a <= last)),  # "0.", -x - 1 zeros, the digits
    )
    scientific = (  # a digit, a point and the fraction digits if any, "e", the exponent
        (a == 0) | ((i == _POINT) & (last > 0)) | (in_b & (b > 0) & (b <= last))
    ) | ((i >= _EXPONENT - 1) & ((i != _EXPONENT + 1) | (cls == 22)))  # 3 digits in class 22
    floats = np.where(cls <= 20, fixed, scientific) | ((i == 0) & (np.arange(2)[:, None] == 1))
    texts = i < np.arange(_FIELD)[:, None]  # a fallback text's length
    masks = np.concatenate([floats.reshape(-1, _FIELD), texts])
    masks[:, -1] = True  # the separator
    return types.SimpleNamespace(
        scale=scale,
        k_layout=34 * exponent_class,
        k_exponent=np.frombuffer(("%+04d" * k.size % tuple(k.tolist())).encode(), "V4"),
        group_text=np.frombuffer(("%04d" * 10_000 % tuple(range(10_000))).encode(), "V4"),
        last_digit=last_digit,
        masks=masks,
    )


def _float_fields(x, field, layout, tables) -> None:
    """Fill the fields and layouts of a chunk of float64 cells.

    With k = floor(log10|x|), v = |x| * 10**(16 - k) lies in [10**16, 10**17), and its 17
    digits are v rounded to an integer.  Dekker's product splits |x| * hi into head + tail
    exactly; head >= 2**53 is an integer, so the digits are head + rint(tail + |x| * lo).  That
    remainder is within 1e-14 of v - head: fl(|x| * lo) and the sum round by at most 2**-50
    and 2**-49, and the table's error adds at most 2**-106 * 10**17 < 1.3e-15.  A cell is
    written by ``format(x, ".17g")`` instead when x is 0, not finite or outside the table;
    when the remainder lies within _TIE_TOLERANCE of a tie; or when the digits fall outside
    (10**16, 10**17), as they do when log10 misjudges k next to a power of ten or v rounds up
    to 10**17.
    """
    ax = np.abs(x)
    with np.errstate(divide="ignore"):
        k = np.floor(np.log10(ax))
    ok = (k >= _K_LOW) & (k <= _K_HIGH)  # False for 0, inf and nan
    index = np.where(ok, k, 0.0).astype(np.intp) - _K_LOW
    ax = np.where(ok, ax, 1.0)
    hi, lo, hi_high, hi_low = (row[index] for row in tables.scale)
    head = ax * hi
    tail = _product_error(head, _split(ax), (hi_high, hi_low)) + ax * lo
    rounded = np.rint(tail)
    digits = head.astype(np.int64) + rounded.astype(np.int64)
    ok &= np.abs(tail - rounded) < 0.5 - _TIE_TOLERANCE
    ok &= (digits > 10**16) & (digits < 10**17)
    groups = np.empty((5, digits.size), np.intp)  # base-10**4 groups, most significant first
    for place in (4, 3, 2, 1):
        q = digits // 10_000  # 1.5 times np.divmod's speed (numpy 2.4, x86-64)
        groups[place] = digits - 10_000 * q
        digits = q
    groups[0] = digits
    field[..., _DIGITS - 3 : _POINT].view("V4")[...] = tables.group_text[groups].T  # "000", digits
    copy = field[..., _DIGITS:_POINT].view("V17")[..., 0]  # one 17-byte item per cell
    field[..., _FRACTION : _FRACTION + 17].view("V17")[..., 0] = copy
    field[..., _EXPONENT:-1].view("V4")[..., 0] = tables.k_exponent[index]
    last = tables.last_digit[4][groups[4]]
    for row, group in zip(tables.last_digit[1:4], groups[1:4]):  # group 0's is always 0
        np.maximum(last, row[group], out=last)
    layout[...] = tables.k_layout[index] + last + (x < 0)
    (bad,) = np.nonzero(~ok)
    if bad.size:
        texts = [format(value, ".17g") for value in x[bad].tolist()]
        field[bad, :-1] = np.array(texts, f"S{_FIELD - 1}").view(np.uint8).reshape(bad.size, -1)
        layout[bad] = _TEXT_LAYOUT + np.array([len(text) for text in texts])


def _array_columns(table: dict) -> list | None:
    """The columns, if they have one length and each is a 1-d float64 array or a range of
    values in [0, 2**53), whose float64 text under ``%.17g`` is ``str``'s; otherwise None."""
    columns = list(table.values())
    for values in columns:
        if isinstance(values, range):
            if values and (min(values[0], values[-1]) < 0 or max(values[0], values[-1]) >= 2**53):
                return None
        elif not isinstance(values, np.ndarray) or values.ndim != 1 or values.dtype != np.float64:
            return None
    return columns if columns and len(set(map(len, columns))) == 1 else None


def _array_csv(columns: list, head: str, tail: str) -> str:
    """head, the CSV rows of ``_array_columns`` and tail: each cell as the text ``_fmt`` gives
    it, the bytes the list path writes."""
    tables = _format_tables()
    template = np.tile(np.frombuffer(_FIELD_TEXT, np.uint8), (len(columns), 1))
    template[-1, -1] = ord("\n")
    head, tail = head.encode(), tail.encode()
    # a cell takes at most 24 characters and a separator ("-1.2345678901234567e-308,")
    text = np.empty(len(head) + len(columns[0]) * len(columns) * 25 + len(tail), np.uint8)
    text[: len(head)] = np.frombuffer(head, np.uint8)
    end = len(head)
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        cells = [column[start : start + _CHUNK_ROWS] for column in columns]
        field = np.empty((len(cells[0]), len(cells), _FIELD), np.uint8)
        field[...] = template
        layout = np.empty(field.shape[:2], np.intp)
        for c, values in enumerate(cells):
            if isinstance(values, range):  # made an array a chunk at a time
                values = np.arange(values.start, values.stop, values.step, dtype=np.float64)
            _float_fields(values, field[:, c], layout[:, c], tables)
        kept = field[np.take(tables.masks, layout, axis=0)]
        text[end : end + kept.size] = kept
        end += kept.size
    text[end : end + len(tail)] = np.frombuffer(tail, np.uint8)
    return str(text[: end + len(tail)], "utf-8")


def _render_csv(table: dict, summary: dict) -> str:
    head = ",".join(table) + "\n"
    tail = "".join(["# summary\n", *(f"# {key}={_fmt(value)}\n" for key, value in summary.items())])
    columns = _array_columns(table)
    if columns is not None:
        return _array_csv(columns, head, tail)
    rows = (",".join(map(_fmt, row)) + "\n" for row in zip(*map(_cells, table.values())))
    return "".join([head, *rows, tail])


def _json_column(values) -> list[str]:
    """The JSON text of each cell of a column, a non-finite float as its quoted CSV text."""
    if isinstance(values, range):
        return list(map(int.__repr__, values))
    if isinstance(values, np.ndarray) and values.dtype == np.float64 and np.isfinite(values).all():
        return list(map(float.__repr__, values.tolist()))
    return [json.dumps(_json_value(value), allow_nan=False) for value in _cells(values)]


def _json_object(keys, indent: str) -> str:
    """A %-format with one %s per value: the object of ``keys`` as ``json.dumps(...,
    indent=2)`` lays it out when its opening brace is indented by ``indent``."""
    if not keys:
        return "{}"
    members = (f"\n{indent}  {json.dumps(key).replace('%', '%%')}: %s" for key in keys)
    return "{" + ",".join(members) + f"\n{indent}}}"


def _render_json(table: dict, summary: dict) -> str:
    """``json.dumps(payload, indent=2, allow_nan=False)`` of ``{"rows": [...], "summary":
    {...}}``, built from the scalar texts json writes: with an indent, ``json.dumps`` runs its
    pure-Python encoder, which costs several times the CSV on the 100,000-row trace."""
    row = "    " + _json_object(table, "    ")
    rows = ",\n".join(map(row.__mod__, zip(*map(_json_column, table.values()))))
    values = tuple(json.dumps(_json_value(value), allow_nan=False) for value in summary.values())
    rows = f"[\n{rows}\n  ]" if rows else "[]"
    return f'{{\n  "rows": {rows},\n  "summary": {_json_object(summary, "  ") % values}\n}}\n'


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
# Subcommand handlers: each returns (table, summary), where the table maps each
# column name to its values, a list or a 1-d array.  A verification command's
# summary holds its verdict as "all_passed", which drives exit code 2.
# ---------------------------------------------------------------------------


def _cmd_divergence(args) -> tuple[dict, dict]:
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
        for flag in _MIXTURE_FLAGS:
            _refuse_flag(args, flag, "a mixture pair", "--p/--q weights")

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
        pair = _mixture_pair(args)
        result = divergence_gaussian(pair, kind, alpha=args.alpha, c=args.c)
        value, abs_error = result.value, result.abs_error
    else:
        raise ValidationError("divergence needs either --p/--q weights or --mixture-p")

    row = dict(kind=kind, alpha=args.alpha, c=args.c, value=value, abs_error_estimate=abs_error)
    return _table([row]), {"seed": args.seed}


def _cmd_instance(args) -> tuple[dict, dict]:
    owners = {"p": "bernoulli", "lna": "bernoulli", "d": "multivariate", "u": "multivariate"}
    for flag, owner in {**owners, **dict.fromkeys(_MIXTURE_FLAGS, "gaussian")}.items():
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
        pair = _mixture_pair(args)
        row = {
            "kind": args.kind,
            "p": pair.p,
            "sigma2": pair.sigma2,
            "kl": divergence_gaussian(pair, DivergenceKind.KL).value,
            "tv": divergence_gaussian(pair, DivergenceKind.TV).value,
            "zcp1": divergence_gaussian(pair, DivergenceKind.ZCP, c=1.0).value,
        }
    return _table([row]), {"seed": args.seed}


def _mixture_pair(args):
    """The pair of --mixture-p and --exponent.  The exponent defaults to 1 here, not in the
    parser, so that ``_refuse_flag`` sees only a given value."""
    return gaussian_instance(args.mixture_p, 1.0 if args.exponent is None else args.exponent)


def _cmd_betting(args) -> tuple[dict, dict]:
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
    return table, summary


def _bound_inputs(args):
    """The bound config, the learning instance, and summary entries that name both."""
    config = BoundConfig(n=args.n, delta=args.delta, alpha=args.alpha)
    # a config instance's m, loss and eta were read as flags, so explicit flags win.  --eta has
    # no parser default, so that a fixed posterior refuses only a given value
    payload = {**(args.instance or {}), "m": args.m, "loss": args.loss}
    if args.eta is not None:
        payload["eta"] = args.eta
    instance = learning_instance_from_dict(payload)
    rule = instance.posterior_rule
    named = {"m": instance.theta_count, "loss": instance.loss_kind.value}
    named.update({"eta": rule.eta} if isinstance(rule, GibbsPosterior) else {})
    return config, instance, {**dataclasses.asdict(config), **named}


def _cmd_bound(args) -> tuple[dict, dict]:
    config, instance, summary = _bound_inputs(args)
    report = next(iter(coverage_reports(instance, config, trials=1, seed=args.seed)))
    return _table([report]), {**summary, "seed": args.seed}


def _cmd_coverage(args) -> tuple[dict, dict]:
    config, instance, summary = _bound_inputs(args)
    rows = run_coverage(instance, config, args.trials, args.seed)
    summary.update(trials=args.trials, seed=args.seed, all_passed=all(row.passed for row in rows))
    return _table(rows), summary


def _cmd_scaling(args) -> tuple[dict, dict]:
    table = divergence_scaling_table(args.u, args.d)
    summary = {"u": args.u}
    for name in ("kl", "tv", "zcp1"):
        summary[f"slope_{name}"] = table.slopes[name]
        summary[f"expected_slope_{name}"] = table.expected_slopes[name]
    return _table(table.rows), summary


def _cmd_gaussian_check(args) -> tuple[dict, dict]:
    rows = gaussian_instance_check(args.p, args.exponent)
    summary = {"exponent": args.exponent, "all_passed": all(r.kl_ok and r.product_ok for r in rows)}
    return _table(rows), summary


def _cmd_ville(args) -> tuple[dict, dict]:
    rows = ville_experiment(args.n, args.delta, args.paths, args.seed)
    summary = {"n": args.n, "paths": args.paths, "seed": args.seed,
               "all_passed": all(r.passed for r in rows)}
    return _table(rows), summary


def _cmd_self_check(args) -> tuple[dict, dict]:
    rows = self_check_suite(trials=args.trials, seed=args.seed)
    for row in rows:
        if not row.passed:
            message = f"self-check failure: {row.check} worst_slack={_fmt(row.worst_slack)}"
            print(message, file=sys.stderr)
    summary = {"trials": args.trials, "seed": args.seed, "all_passed": all(r.passed for r in rows)}
    return _table(rows), summary


# ---------------------------------------------------------------------------
# The flag table, parser assembly and entry points
# ---------------------------------------------------------------------------

# A flag is (type or choices, default); defaults are immutable, as the parser
# lives for the process.  _REQUIRED marks a flag that argv or --config must give.
_REQUIRED = object()

_MIXTURE_FLAGS = {"mixture-p": (float, None), "exponent": (float, None)}

_BOUND_FLAGS = {
    "n": (int, _REQUIRED),
    "delta": (float, 0.05),
    "alpha": (float, 2.0),
    "m": (int, 50),
    "loss": (("abs", "bernoulli"), "abs"),
    "eta": (float, None),
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
def _parsers(command: str | None) -> tuple[_Parser, _Parser]:
    """The early --config reader and the parser of ``command``, built on first use; of every
    command when it is None, for help and a bad-subcommand error.  The top-level usage names
    no choices, so a parser with one subparser prints the same usage and errors."""
    # without abbreviations, so that --c is never read as --config
    config_reader = _Parser(prog="zcp-paclab", add_help=False, allow_abbrev=False)
    config_reader.add_argument("--config")

    parser = _Parser(prog="zcp-paclab", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    for name in _COMMANDS if command is None else (command,):
        sub = subparsers.add_parser(name, prog=f"zcp-paclab {name}")
        for flag, (kind, default) in {**_COMMANDS[name][1], **_COMMON_FLAGS}.items():
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
            for name, item in value.items():  # m, loss and eta reach the library as flags
                if item is None or isinstance(item, bool):
                    text = json.dumps(item)
                    raise ValidationError(f"instance config key {name!r} cannot be {text}")
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
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    config_reader, parser = _parsers(command)
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
        table, summary = _COMMANDS[command][0](args)
        render = _render_json if args.format == "json" else _render_csv
        text = render(table, summary)
        _write_output(text, args.out)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValidationError, NumericalError, MemoryError) as exc:
        reason = f"out of memory: {exc}" if isinstance(exc, MemoryError) else exc
        print(f"zcp-paclab {command}: error: {reason}", file=sys.stderr)
        return 1
    return 0 if summary.get("all_passed", True) else 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
