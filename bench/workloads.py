"""The benchmark workloads: the CLI argv lists each one runs, and the check
applied to every invocation's output.

A check takes the exit code and stdout of one ``zcp_paclab.cli.run(argv)``
call and returns a description of what is wrong, or None.  Checks parse
the CLI's CSV contract: a header row, data rows, then a ``# summary``
block of ``# key=value`` lines.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

BOUND_NAMES = ("hoeffding_zcp", "mcallester", "emp_bernstein", "little_kl")
REFERENCE_PATH = Path(__file__).with_name("quadrature_reference.json")

# coverage-small: per-trial call overhead dominates (m = 50); coverage-wide:
# the n x m loss matrix dominates (m = 2000).  run_coverage needs >= 100 trials.
COVERAGE_FLAGS = ("--n", "1000", "--eta", "5", "--delta", "0.05", "--alpha", "2")
COVERAGE_SHAPES = {"coverage-small": (50, 200), "coverage-wide": (2000, 100)}
MIXTURE_P = ("0.2", "0.1", "0.05", "0.02")
EXPONENTS = ("1", "0.75")
MIXTURE_KINDS = (
    ("--kind", "zcp", "--c", "1"),
    ("--kind", "zcp", "--c", "1000"),
    ("--kind", "renyi", "--alpha", "0.5"),
)
BETTING_ROUNDS = 100_000

Check = Callable[[int, str], "str | None"]


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    check: Check


def parse_csv(text: str) -> tuple[list[dict[str, str]], dict[str, str]]:
    """Rows (as header -> field dicts) and summary of one CSV payload."""
    lines = text.splitlines()
    if "# summary" not in lines:
        raise ValueError("no '# summary' line")
    cut = lines.index("# summary")
    body, tail = lines[:cut], lines[cut + 1 :]
    rows = []
    if body:
        header = body[0].split(",")
        for line in body[1:]:
            fields = line.split(",")
            if len(fields) != len(header):
                raise ValueError(f"row has {len(fields)} fields, header has {len(header)}")
            rows.append(dict(zip(header, fields)))
    summary = {}
    for line in tail:
        key, sep, value = line.removeprefix("# ").partition("=")
        if not line.startswith("# ") or not sep:
            raise ValueError(f"bad summary line {line!r}")
        summary[key] = value
    return rows, summary


def _checked(check):
    """Run ``check(rows, summary)`` after the exit-code and parse checks."""

    def run(code: int, text: str, **params) -> str | None:
        if code != 0:
            return f"exit code {code}"
        try:
            rows, summary = parse_csv(text)
            return check(rows, summary, **params)
        except (ValueError, KeyError) as exc:
            return f"unparsable output: {exc!r}"

    return run


@_checked
def check_coverage(rows, summary, trials: int) -> str | None:
    names = sorted(row["bound"] for row in rows)
    if names != sorted(BOUND_NAMES):
        return f"bound rows {names}, expected {sorted(BOUND_NAMES)}"
    for row in rows:
        if int(row["trials"]) != trials:
            return f"{row['bound']}: trials={row['trials']}, requested {trials}"
        if row["passed"] != "true":
            return f"{row['bound']}: passed={row['passed']}"
    return None


@_checked
def check_all_passed(rows, summary) -> str | None:
    if not rows:
        return "no rows"
    failed = [row for row in rows if row["passed"] != "true"]
    return f"{len(failed)} rows not passed: {failed[0]}" if failed else None


@_checked
def check_quadrature(rows, summary, reference: list[dict[str, float]]) -> str | None:
    """Each referenced field within relative 1e-6 of the reference table,
    every printed error estimate within 1e-6 |value| + 1e-12, and every
    gaussian-check verdict true."""
    if len(rows) != len(reference):
        return f"{len(rows)} rows, reference has {len(reference)}"
    for row, ref in zip(rows, reference):
        for field, expected in ref.items():
            got = float(row[field])
            if not abs(got - expected) <= 1e-6 * abs(expected):
                return f"{field}={got!r}, reference {expected!r}"
        if "abs_error_estimate" in row:
            value, err = float(row["value"]), float(row["abs_error_estimate"])
            if not err <= 1e-6 * abs(value) + 1e-12:
                return f"abs_error_estimate={err!r} too large for value={value!r}"
        for verdict in ("kl_ok", "product_ok"):
            if row.get(verdict, "true") != "true":
                return f"{verdict}={row[verdict]}"
    return None


@_checked
def check_betting_trace(rows, summary, n: int) -> str | None:
    # The 2 sqrt(n) KT regret envelope is false for fractional coins, so it
    # is not asserted here.
    if len(rows) != n or rows[-1]["t"] != str(n):
        return f"{len(rows)} trace rows, expected {n}"
    lower, star = float(summary["quadratic_lower"]), float(summary["ln_w_star"])
    if not lower <= star:
        return f"quadratic_lower={lower!r} > ln_w_star={star!r}"
    return None


def load_reference() -> dict[str, list[dict[str, float]]]:
    """The quadrature reference table: argv joined by spaces -> row fields."""
    return json.loads(REFERENCE_PATH.read_text())


def quadrature_argvs() -> list[tuple[str, ...]]:
    argvs = []
    for exponent in EXPONENTS:
        argvs.append(("gaussian-check", "--p", ",".join(MIXTURE_P), "--exponent", exponent))
        for p in MIXTURE_P:
            for kind in MIXTURE_KINDS:
                argvs.append(("divergence", "--mixture-p", p, "--exponent", exponent, *kind))
    return argvs


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The argv list of one pass of ``workload``; the seed sets every input."""
    if workload in COVERAGE_SHAPES:
        m, trials = COVERAGE_SHAPES[workload]
        shape = ("--m", str(m), "--trials", str(trials))
        return [
            Invocation(
                ("coverage", *COVERAGE_FLAGS, *shape, "--loss", loss, "--seed", str(seed)),
                partial(check_coverage, trials=trials),
            )
            for loss in ("abs", "bernoulli")
        ]
    if workload == "quadrature":
        # The integrals are deterministic; the seed only sets their order.
        reference = load_reference()
        argvs = quadrature_argvs()
        random.Random(seed).shuffle(argvs)
        return [
            Invocation(argv, partial(check_quadrature, reference=reference[" ".join(argv)]))
            for argv in argvs
        ]
    if workload == "betting":
        ville = ("ville", "--n", "1000", "--paths", "10000", "--delta", "0.1,0.05")
        trace = ("betting", "--n", str(BETTING_ROUNDS))
        return [
            Invocation((*ville, "--seed", str(seed)), check_all_passed),
            Invocation(("self-check", "--seed", str(seed)), check_all_passed),
            Invocation(
                (*trace, "--seed", str(seed)), partial(check_betting_trace, n=BETTING_ROUNDS)
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("coverage-small", "coverage-wide", "quadrature", "betting")

# The layers (span names) each workload was chosen to load; a traced run
# prints their share of the traced pass time.
FOCUS = {
    "coverage-small": (
        "divergences.kl_discrete",
        "divergences.tv_discrete",
        "divergences.renyi_discrete",
        "divergences.zcp_discrete",
        "divergences.little_kl_inverse_upper",
    ),
    "coverage-wide": ("harness.draw_losses", "bounds.expected_sample_variance"),
    "quadrature": tuple(
        f"divergences.divergence_gaussian.{kind}" for kind in ("kl", "tv", "zcp", "renyi")
    ),
    "betting": ("cli.run",),
}
