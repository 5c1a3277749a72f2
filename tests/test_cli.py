"""Exit codes, output formats, atomic writes, and config handling of the CLI."""

import argparse
import importlib.metadata
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import sysconfig
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zcp_paclab
from conftest import oracle_render_csv
from zcp_paclab import CoverageRow, GaussianCheckRow, VilleRow, cli, harness
from zcp_paclab.bounds import CheckRow


def _run(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_no_subcommand_prints_usage(self, capsys):
        code, out, err = _run(capsys, [])
        assert code == 1
        assert "usage" in err.lower()
        assert out == ""

    def test_unknown_subcommand(self, capsys):
        code, _, _ = _run(capsys, ["frobnicate"])
        assert code == 1

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_one_subparser_prints_what_all_of_them_print(self, capsys, command):
        # run builds the parser of the command it is given alone; its help and its usage
        # errors must read as they do with every subcommand's parser built
        assert list(cli._parsers(command)[1]._subparsers._group_actions[0].choices) == [command]
        for argv in ([command, "-h"], [command, "--bogus"], [command, "--seed"], [command, "x"]):
            results = []
            for _, parser in (cli._parsers(command), cli._parsers(None)):
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(argv)
                results.append((exc.value.code, *capsys.readouterr()))
            assert results[0] == results[1], argv

    def test_unknown_flag(self, capsys):
        code, _, _ = _run(capsys, ["divergence", "--bogus", "1"])
        assert code == 1

    def test_invalid_loss_choice(self, capsys):
        code, _, _ = _run(capsys, ["bound", "--n", "100", "--loss", "hinge"])
        assert code == 1

    def test_validation_error_exits_one(self, capsys):
        code, _, err = _run(capsys, ["bound", "--n", "100", "--alpha", "0.5"])
        assert code == 1
        assert "alpha" in err

    def test_missing_divergence_inputs(self, capsys):
        code, _, err = _run(capsys, ["divergence", "--kind", "kl"])
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["instance", "--kind", "multivariate", "--d", "4096", "--u", "100"],
            ["scaling", "--u", "100"],
        ],
    )
    def test_overflowing_instance_is_one_error_line(self, capsys, argv):
        code, out, err = _run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "error: ln(a) = d**(1.5*u) overflows" in err

    @pytest.mark.parametrize("p", ["0", "-0.0", "1e-200", "1e-320"])
    def test_bernoulli_p_whose_square_is_zero_is_one_error_line(self, capsys, p):
        # the default ln_a = 1/p**2 has no finite value where p*p == 0
        code, out, err = _run(capsys, ["instance", "--kind", "bernoulli", "--p", p])
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.count("error:") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("p", ["1.6e-162", "1e-160", "7.4e-155", "-1e-160"])
    def test_bernoulli_p_whose_inverse_square_overflows_names_the_default(self, capsys, p):
        # p*p is nonzero here, but 1/p**2 overflows to inf
        code, out, err = _run(capsys, ["instance", "--kind", "bernoulli", f"--p={p}"])
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert f"error: --lna defaults to 1/p**2, which is not finite at p = {float(p)!r}" in err

    def test_unknown_divergence_kind(self, capsys):
        code, out, err = _run(capsys, ["divergence", "--kind", "bogus", "--p", "1", "--q", "1"])
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("zcp-paclab divergence: error: --kind must be one of")
        assert "kl, tv, renyi, zcp, little_kl" in err

    @pytest.mark.parametrize("message", ["Unable to allocate 745. GiB for an array", ""])
    def test_memory_error_is_one_error_line(self, monkeypatch, capsys, message):
        # bound --n 100000000000 --m 2 asks numpy for 745 GiB of losses; raising stands in for
        # the allocation, which a host that overcommits memory may grant
        def out_of_memory(args):
            raise MemoryError(message)

        monkeypatch.setitem(cli._COMMANDS, "bound", (out_of_memory, cli._COMMANDS["bound"][1]))
        code, out, err = _run(capsys, ["bound", "--n", "100000000000", "--m", "2"])
        assert code == 1
        assert out == ""
        assert err == f"zcp-paclab bound: error: out of memory: {message}\n"

    def test_failed_verification_exits_two(self, capsys):
        # wilson_upper(0, 1000) is about 0.005, so delta = 0.001 cannot PASS
        code, out, _ = _run(
            capsys, ["ville", "--n", "50", "--paths", "1000", "--delta", "0.001"]
        )
        assert code == 2
        assert "# all_passed=false" in out


class TestDivergenceCommand:
    def test_discrete_zcp_row(self, capsys):
        code, out, _ = _run(
            capsys,
            ["divergence", "--kind", "zcp", "--p", "0.5,0.5", "--q", "0.25,0.75", "--c", "1"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "kind,alpha,c,value,abs_error_estimate"
        cells = lines[1].split(",")
        assert cells[0] == "zcp"
        assert cells[1] == ""  # alpha is not set for zcp
        expected = 0.25 * math.sqrt(math.log(2.0)) + 0.25 * math.sqrt(math.log(10.0 / 9.0))
        assert cells[3] == format(expected, ".17g")

    def test_scalar_little_kl(self, capsys):
        code, out, _ = _run(
            capsys, ["divergence", "--kind", "little_kl", "--p", "0.0", "--q", "0.5"]
        )
        assert code == 0
        value = float(out.splitlines()[1].split(",")[3])
        np.testing.assert_allclose(value, math.log(2.0), rtol=1e-15)

    def test_gaussian_quadrature_reports_error_estimate(self, capsys):
        code, out, _ = _run(
            capsys, ["divergence", "--kind", "kl", "--mixture-p", "0.3", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        (row,) = payload["rows"]
        assert row["value"] > 0.0
        assert 0.0 <= row["abs_error_estimate"] < 1e-6

    @pytest.mark.parametrize(
        "argv",
        [
            "divergence --kind kl --mixture-p 0.1 --sigma1 3",
            "divergence --kind kl --p 0.5,0.5 --q 0.5,0.5 --sigma1 3",
            "instance --kind gaussian --mixture-p 0.1 --sigma1 1",
            "instance --kind multivariate --d 8 --u 1 --sigma1 1",
        ],
    )
    def test_sigma1_is_not_a_flag(self, capsys, argv):
        # the mixture pair is held on the standard scale, so no flag sets its wide scale
        code, out, err = _run(capsys, argv.split())
        assert code == 1
        assert out == ""
        assert err == f"zcp-paclab: error: unrecognized arguments: {' '.join(argv.split()[-2:])}\n"

    @pytest.mark.parametrize("exponent", ["1", "0.75"])
    def test_gaussian_instance_row_is_the_standard_pair(self, capsys, exponent):
        argv = ["instance", "--kind", "gaussian", "--mixture-p", "0.05", "--exponent", exponent]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        header, row = out.splitlines()[:2]
        assert header == "kind,p,sigma2,kl,tv,zcp1"
        sigma2 = format(0.05 ** float(exponent), ".17g")
        assert row.split(",")[:3] == ["gaussian", "0.050000000000000003", sigma2]

    def test_divergent_mixture_renyi_prints_inf(self, capsys):
        argv = ["divergence", "--mixture-p", "0.2", "--exponent", "1", "--kind", "renyi"]
        code, out, _ = _run(capsys, [*argv, "--alpha", "1.05"])
        assert code == 0
        assert out.splitlines()[1] == "renyi,1.05,,inf,0"

    @pytest.mark.parametrize(
        "argv, flag, owner",
        [
            (["kl", "--p", "0.2,0.8", "--q", "0.5,0.5", "--alpha", "2"], "alpha", "RENYI"),
            (["kl", "--p", "0.2,0.8", "--q", "0.5,0.5", "--c", "3"], "c", "ZCP"),
            (["little_kl", "--p", "0.2", "--q", "0.5", "--alpha", "2"], "alpha", "RENYI"),
            (["renyi", "--p", "0.2,0.8", "--q", "0.5,0.5", "--alpha", "2", "--c", "3"], "c", "ZCP"),
            (["tv", "--mixture-p", "0.1", "--c", "1"], "c", "ZCP"),
        ],
    )
    def test_flags_the_kind_does_not_use_are_refused(self, capsys, argv, flag, owner):
        code, out, err = _run(capsys, ["divergence", "--kind", *argv])
        assert code == 1
        assert out == ""
        message = f"{flag} is only meaningful for {owner}, not {argv[0]}"
        assert err == f"zcp-paclab divergence: error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("divergence --kind kl --p 0.5,0.5 --q 0.5,0.5 --mixture-p 0.1",
             "mixture-p is only meaningful for a mixture pair, not --p/--q weights"),
            ("divergence --kind little_kl --p 0.3 --q 0.6 --mixture-p 0.1",
             "mixture-p is only meaningful for a mixture pair, not --p/--q weights"),
            ("betting --coins 0.5,-0.5 --n 5",
             "n is only meaningful for sampled coins, not --coins"),
            ("instance --kind multivariate --d 8 --u 1 --lna 5 --p 0.3",
             "p is only meaningful for bernoulli, not multivariate"),
            ("instance --kind bernoulli --p 0.1 --lna 5 --d 8",
             "d is only meaningful for multivariate, not bernoulli"),
            ("instance --kind gaussian --mixture-p 0.1 --p 0.4",
             "p is only meaningful for bernoulli, not gaussian"),
            ("divergence --kind little_kl --p 0.3 --q 0.6 --exponent 1",
             "exponent is only meaningful for a mixture pair, not --p/--q weights"),
            ("instance --kind bernoulli --p 0.1 --exponent 0.75",
             "exponent is only meaningful for gaussian, not bernoulli"),
            ("divergence --kind tv --p 0.5,0.5 --q 0.5,0.5 --exponent 1",
             "exponent is only meaningful for a mixture pair, not --p/--q weights"),
            ("instance --kind multivariate --d 8 --u 1 --exponent 1",
             "exponent is only meaningful for gaussian, not multivariate"),
            ("instance --kind bernoulli --p 0.1 --mixture-p 0.1",
             "mixture-p is only meaningful for gaussian, not bernoulli"),
        ],
    )
    def test_flags_the_input_ignores_are_refused(self, capsys, argv, message):
        command = argv.split()[0]
        code, out, err = _run(capsys, argv.split())
        assert code == 1
        assert out == ""
        assert err == f"zcp-paclab {command}: error: {message}\n"


class TestOutputContract:
    ARGV = ["betting", "--n", "40", "--seed", "4"]

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = _run(capsys, self.ARGV)
        _, second, _ = _run(capsys, self.ARGV)
        assert first == second

    def test_json_mirrors_csv(self, capsys):
        _, csv_text, _ = _run(capsys, self.ARGV)
        _, json_text, _ = _run(capsys, self.ARGV + ["--format", "json"])
        payload = json.loads(json_text)
        lines = csv_text.splitlines()
        header = lines[0].split(",")
        assert header == list(payload["rows"][0].keys())
        assert len(payload["rows"]) == 40
        first_csv = dict(zip(header, lines[1].split(",")))
        for key, value in payload["rows"][0].items():
            assert first_csv[key] == cli._fmt(value)
        summary_lines = lines[lines.index("# summary") + 1 :]
        assert summary_lines == [
            f"# {k}={cli._fmt(v)}" for k, v in payload["summary"].items()
        ]

    def test_betting_summary_fields(self, capsys):
        _, out, _ = _run(capsys, ["betting", "--coins", "1,1,1,1", "--format", "json"])
        summary = json.loads(out)["summary"]
        assert summary["beta_star"] == 1.0
        np.testing.assert_allclose(summary["ln_w_star"], 4.0 * math.log(2.0), rtol=1e-15)
        np.testing.assert_allclose(summary["regret"], 16.0 / 4.375, rtol=1e-12)
        np.testing.assert_allclose(summary["quadratic_lower"], 1.0, rtol=1e-15)

    def test_list_with_a_negative_first_item(self, capsys):
        # "--coins -0.5,1" reads -0.5,1 as an option; the "=" form passes it as a value
        code, out, _ = _run(capsys, ["betting", "--coins=-0.5,1", "--format", "json"])
        assert code == 0
        assert [row["c_t"] for row in json.loads(out)["rows"]] == [-0.5, 1.0]

    def test_floats_round_trip_through_csv(self, capsys):
        # .17g is enough digits to reproduce the exact double
        argv = ["divergence", "--kind", "kl", "--p", "0.5,0.5", "--q", "0.25,0.75"]
        _, out, _ = _run(capsys, argv)
        _, json_out, _ = _run(capsys, argv + ["--format", "json"])
        value_cell = out.splitlines()[1].split(",")[3]
        assert float(value_cell) == json.loads(json_out)["rows"][0]["value"]
        np.testing.assert_allclose(
            float(value_cell), 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0), rtol=1e-15
        )


    def test_json_writes_non_finite_values_as_strings(self, capsys):
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        argv = ["divergence", "--kind", "kl", "--p", "1,0", "--q", "0,1"]
        _, csv_text, _ = _run(capsys, argv)
        code, out, _ = _run(capsys, argv + ["--format", "json"])
        assert code == 0
        row = json.loads(out, parse_constant=reject)["rows"][0]
        assert row["value"] == "inf" == csv_text.splitlines()[1].split(",")[3]


_MIXED_CELLS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300, 0.1, np.float64(-2.5),
    True, False, None, 3, -(10**30), -7, "text",
]


def _row_by_row_json(table, summary):
    """The JSON document built from one dict per row."""
    rows = [dict(zip(table, row)) for row in zip(*table.values())]
    payload = {
        "rows": [{k: cli._json_value(v) for k, v in row.items()} for row in rows],
        "summary": {k: cli._json_value(v) for k, v in summary.items()},
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


class TestColumnRenderer:
    @staticmethod
    def _csv_cells(table):
        lines = cli._render_csv(table, {}).splitlines()
        assert lines[0] == ",".join(table) and lines[-1] == "# summary"
        return [line.split(",") for line in lines[1:-1]]

    def test_mixed_column_renders_each_cell_as_fmt(self):
        assert self._csv_cells({"x": _MIXED_CELLS}) == [[cli._fmt(v)] for v in _MIXED_CELLS]

    @pytest.mark.parametrize(
        "column",
        [
            [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300, 0.1, 1.0 / 3.0],
            np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1e300, 2.0**-1074]),
            [np.float64(0.1), 0.1, np.float64(math.nan)],
            [1, -2, 10**30, 0],
            np.arange(-3, 4),
            np.array([0.1, -1e-40, 3e38], dtype=np.float32),
            np.array([True, False]),
            range(1, 6),
            [True, False],
        ],
    )
    def test_typed_columns_render_as_fmt(self, column):
        # an array column is read as the Python values of its tolist()
        cells = column.tolist() if isinstance(column, np.ndarray) else column
        assert self._csv_cells({"x": column}) == [[cli._fmt(v)] for v in cells]

    def test_float_column_over_random_bit_patterns(self):
        bits = np.random.default_rng(38).integers(0, 2**64, 20_000, dtype=np.uint64)
        values = bits.view(np.float64)
        assert self._csv_cells({"x": values}) == [[cli._fmt(v)] for v in values]

    def test_json_payload_matches_row_by_row(self):
        table = {
            "mixed": _MIXED_CELLS,
            "floats": np.linspace(-1.0, 1.0, len(_MIXED_CELLS)),
            "ints": range(len(_MIXED_CELLS)),
        }
        summary = {"seed": 1, "value": math.inf, "flag": False}
        assert cli._render_json(table, summary) == _row_by_row_json(table, summary)

    def test_rows_line_up_across_columns(self):
        table = {"t": range(1, 4), "c": np.array([0.5, -0.25, 1.0]), "ok": [True, None, False]}
        assert self._csv_cells(table) == [
            ["1", "0.5", "true"], ["2", "-0.25", ""], ["3", "1", "false"]
        ]


def _tie_cases():
    """Doubles whose exact value has 18 significant digits ending in 5, m * 2**-e with m odd
    (the three smallest m for each e), and doubles whose digits past the 17th are within
    16 * 2**-53 of one half of a unit of the 17th, at scales 10**(16 - k) past 10**22."""
    ties = []
    for e in range(2, 26):
        m = -(-(10**17) // 5**e) | 1
        ties += [math.ldexp(n, -e) for n in (m, m + 2, m + 4) if n * 5**e < 10**18 and n < 2**53]
    near = []
    for s in range(23, 40):
        for f in range(53, 60):
            for j in range(-16, 17):
                # x = m * 2**(-f - s) gives x * 10**s = m * 5**s / 2**f = 1/2 + j / 2**f, mod 1
                m = (2 ** (f - 1) + j) * pow(5**s, -1, 2**f) % 2**f
                x = math.ldexp(m, -f - s)
                if j and 2**52 <= m < 2**53 and 10**16 <= Fraction(x) * 10**s < 10**17:
                    near.append(x)
    return ties, near


def _powers_of_ten():
    """10**k for every k in [-323, 308], read as the nearest double, and both neighbours."""
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])


def _trace_table(n, seed=3):
    return cli._cmd_betting(argparse.Namespace(coins=None, n=n, seed=seed))[:2]


_FLOAT_BITS = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: np.uint64(bits).view(np.float64).item()),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


def _first_difference(got, want):
    """None, or (line number, got, wanted) at the first line where two texts differ; a short
    message where pytest would diff two long texts."""
    for number, lines in enumerate(itertools.zip_longest(got.splitlines(), want.splitlines())):
        if lines[0] != lines[1]:
            return number, *lines
    return None


class TestArrayRenderer:
    """The array path against ``oracle_render_csv``, the %-format renderer it replaces for
    tables of float64 arrays and ranges."""

    @staticmethod
    def _same(table, summary=None):
        summary = {} if summary is None else summary
        assert cli._array_columns(table) is not None
        text = cli._render_csv(table, summary)
        assert _first_difference(text, oracle_render_csv(table, summary)) is None
        return text

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_FLOAT_BITS, min_size=1, max_size=40), st.integers(0, 2**53 - 41))
    def test_any_float64_bits_render_as_the_oracle(self, floats, start):
        t = range(start, start + len(floats))
        self._same({"t": t, "x": np.array(floats), "y": -np.array(floats)})

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**53 - 1),
        st.one_of(st.integers(1, 3), st.integers(1, 2**53)),
        st.booleans(),
        st.integers(0, 50),
    )
    def test_any_range_renders_as_the_oracle(self, start, step, down, count):
        # as many of count values as stay in [0, 2**53)
        fit = start // step + 1 if down else -(-(2**53 - start) // step)
        step = -step if down else step
        t = range(start, start + min(count, fit) * step, step)
        self._same({"t": t, "x": np.sqrt(np.arange(len(t), dtype=np.float64))})

    def test_ranges_next_to_2_to_the_53(self):
        self._same({"t": range(2**53 - 3, 2**53), "x": np.full(3, 0.5)})
        table = {"t": range(2**53 - 1, 2**53 + 1), "x": np.full(2, 0.5)}
        assert cli._array_columns(table) is None  # 2**53 + 1 is not a float64
        assert _first_difference(cli._render_csv(table, {}), oracle_render_csv(table, {})) is None

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=40))
    def test_any_int_column_renders_as_the_oracle(self, ints):
        for column in (np.array(ints, dtype=np.int64), np.array(ints, dtype=np.uint64)):
            table = {"i": column, "x": np.full(len(ints), 0.5)}
            text = cli._render_csv(table, {})
            assert _first_difference(text, oracle_render_csv(table, {})) is None
            # an integer array sends the table to the list path
            assert cli._array_columns(table) is None

    def test_powers_of_ten_and_their_neighbours(self):
        powers = _powers_of_ten()
        self._same({"x": powers, "minus": -powers})

    def test_digits_that_round_up_to_a_power_of_ten(self):
        # doubles below 10**k whose 17 digits are 10**k: their digits integer rounds to 10**17
        ups = []
        for x in _powers_of_ten().tolist():
            text = Decimal(format(x, ".17g"))
            if text.normalize().as_tuple().digits == (1,) and Fraction(x) < Fraction(text):
                ups.append(x)
        assert len(ups) > 10  # the window is 5e-18 of 10**k wide, so few doubles fall in it
        self._same({"x": np.array(ups)})

    def test_exact_and_near_ties(self):
        ties, near = _tie_cases()
        for x in ties:
            digits = Decimal(x).normalize().as_tuple().digits  # Decimal(x) is exact
            assert len(digits) == 18 and digits[-1] == 5, x
        assert len(ties) > 60 and len(near) > 20
        cells = np.array(ties + near)
        self._same({"x": cells, "minus": -cells})

    def test_special_and_dyadic_values(self):
        special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 0.1, 1e-5, 1e-4]
        special += [9.9999999999999995e-5, 1e16, 1e17, 2.2250738585072014e-308]
        special += [1.7976931348623157e308, -1.7976931348623157e308]
        exponents = np.arange(-1074, 1023)
        self._same({"x": np.array(special * 3), "t": range(len(special) * 3)})
        self._same({"x": np.ldexp(1.0, exponents), "y": np.ldexp(-3.0, exponents)})

    @pytest.mark.parametrize(
        "n", [1, cli._CHUNK_ROWS - 1, cli._CHUNK_ROWS, cli._CHUNK_ROWS + 1, 2 * cli._CHUNK_ROWS + 1]
    )
    def test_trace_lengths_around_a_chunk(self, n):
        table, summary = _trace_table(n)
        text = self._same(table, summary)
        assert text.count("\n") == n + 2 + len(summary)

    def test_every_cell_through_the_fallback(self, monkeypatch):
        table, summary = _trace_table(3000)
        expected = oracle_render_csv(table, summary)
        monkeypatch.setattr(cli, "_TIE_TOLERANCE", 0.5)  # no remainder certifies
        calls = []
        spy = lambda value, spec: calls.append(value) or format(value, spec)  # noqa: E731
        monkeypatch.setattr(cli, "format", spy, raising=False)
        assert _first_difference(cli._render_csv(table, summary), expected) is None
        # every cell, and the summary's floats through _fmt
        assert len(calls) == 4 * 3000 + sum(isinstance(v, float) for v in summary.values())

    def test_only_array_tables_take_the_array_path(self):
        floats = np.linspace(0.0, 1.0, 4)
        assert cli._array_columns({"t": range(1, 5), "x": floats}) is not None
        for column in ([0.0, 1.0, 2.0, 3.0], floats.astype(np.float32), floats > 0.5, range(-1, 3),
                       np.arange(4), np.arange(4) - 1, range(2**53 - 3, 2**53 + 1), floats[:3],
                       floats.reshape(2, 2)):
            assert cli._array_columns({"x": floats, "c": column}) is None

    def test_scale_table_against_exact_powers(self):
        scale = cli._format_tables().scale
        for k, (hi, lo, high, low) in zip(range(cli._K_LOW, cli._K_HIGH + 1), scale.T.tolist()):
            exact = Fraction(10) ** (16 - k)
            assert hi == float(exact), k
            assert abs(Fraction(hi) + Fraction(lo) - exact) <= exact / 2**106, k
            assert high + low == hi and abs(lo) <= math.ulp(hi), k

    def test_trace_json_is_json_dumps(self):
        table, summary = _trace_table(3 * cli._CHUNK_ROWS)
        got, want = cli._render_json(table, summary), _row_by_row_json(table, summary)
        assert _first_difference(got, want) is None

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_FLOAT_BITS, min_size=0, max_size=20), st.text(max_size=5))
    def test_json_of_any_floats_and_names_is_json_dumps(self, floats, name):
        table = {name: np.array(floats, dtype=np.float64), "list": floats, "t": range(len(floats))}
        summary = {name: floats[0] if floats else None, "%s": name, "%": True}
        assert cli._render_json(table, summary) == _row_by_row_json(table, summary)


class TestAtomicOutput:
    def test_out_file_matches_stdout(self, tmp_path, capsys):
        argv = ["scaling", "--d", "16,32,64", "--u", "1"]
        _, stdout_text, _ = _run(capsys, argv)
        target = tmp_path / "table.csv"
        code, out, _ = _run(capsys, argv + ["--out", str(target)])
        assert code == 0
        assert out == ""  # payload went to the file instead
        assert target.read_text() == stdout_text
        assert os.listdir(tmp_path) == ["table.csv"]  # no leftover temp files

    def test_overwrites_existing_file(self, tmp_path, capsys):
        target = tmp_path / "x.json"
        target.write_text("stale")
        code, _, _ = _run(
            capsys,
            ["betting", "--coins", "0.5", "--format", "json", "--out", str(target)],
        )
        assert code == 0
        assert json.loads(target.read_text())["summary"]["beta_star"] >= 0.0

    @pytest.mark.parametrize("target", ["outdir", "missing/x.csv", ""])
    def test_unwritable_out_exits_one(self, target, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the temp file of each target would sit here
        (tmp_path / "outdir").mkdir()
        code, out, err = _run(capsys, ["betting", "--coins", "0.5", "--out", target])
        assert code == 1
        assert out == ""
        assert err.startswith("zcp-paclab betting: error: cannot write output file: ")
        assert err.endswith(f"{target!r}\n") and len(err.splitlines()) == 1
        assert os.listdir(tmp_path) == ["outdir"]  # no .zcp-paclab-*.tmp left behind
        assert os.listdir(tmp_path / "outdir") == []


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"kind": "kl", "p": "0.5,0.5", "q": "0.25,0.75"}))
        code, out, _ = _run(capsys, ["divergence", "--config", str(config)])
        assert code == 0
        value = float(out.splitlines()[1].split(",")[3])
        np.testing.assert_allclose(
            value, 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0), rtol=1e-14
        )

    def test_explicit_flag_beats_config(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(
            json.dumps({"kind": "zcp", "p": "0.5,0.5", "q": "0.25,0.75", "c": 1.0})
        )
        _, at_one, _ = _run(capsys, ["divergence", "--config", str(config)])
        _, at_ten, _ = _run(capsys, ["divergence", "--config", str(config), "--c", "10"])
        assert at_one.splitlines()[1] != at_ten.splitlines()[1]
        assert at_ten.splitlines()[1].split(",")[2] == "10"

    def test_instance_section_feeds_bound(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(
            json.dumps(
                {"instance": {"m": 8, "loss": "bernoulli", "posterior": "gibbs", "eta": 2.0}}
            )
        )
        code, out, _ = _run(
            capsys,
            ["bound", "--n", "200", "--config", str(config), "--format", "json"],
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert 0.0 < row["hoeffding_zcp"] <= 1.0
        assert row["p_mean"] > 0.0

    def test_explicit_flags_beat_config_instance(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(
            json.dumps(
                {"instance": {"m": 8, "loss": "bernoulli", "posterior": "gibbs", "eta": 2.0}}
            )
        )
        argv = ["bound", "--n", "200", "--format", "json"]
        code, out, _ = _run(capsys, [*argv, "--config", str(config), "--m", "4", "--loss", "abs"])
        assert code == 0
        assert json.loads(out)["rows"][0]["d_kl"] <= math.log(4.0) + 1e-12
        _, direct, _ = _run(capsys, [*argv, "--m", "4", "--loss", "abs", "--eta", "2.0"])
        assert out == direct

    def test_config_instance_values_go_through_the_parser(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"instance": {"m": 2.5, "loss": "abs"}}))
        code, out, err = _run(capsys, ["bound", "--n", "200", "--config", str(config)])
        assert code == 1
        assert out == ""
        assert "--m" in err

    @pytest.mark.parametrize(
        "entry",
        [{"format": "xml"}, {"bogus": 1}, {"out": None}, {"c": True}, {"c": {"x": 1}}],
    )
    def test_config_values_go_through_the_parser(self, entry, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"kind": "kl", "p": "0.5,0.5", "q": "0.25,0.75", **entry}))
        code, out, err = _run(capsys, ["divergence", "--config", str(config)])
        assert code == 1
        assert out == ""
        (key,) = entry
        assert key in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == ["c.json"]  # no file named None

    @pytest.mark.parametrize(
        "instance",
        [
            {"m": 2, "prior": ["x", 1]},
            {"m": 2, "posterior": "fixed", "fixed_weights": "ab"},
            {"m": 2, "loss": "bernoulli", "bernoulli_means": ["x", 0.5]},
            {"m": 2, "prior": ["1", "3"]},  # a string is not a number, even one float() parses
        ],
    )
    def test_non_numeric_instance_values_exit_one(self, instance, tmp_path, capsys):
        config = tmp_path / "inst.json"
        config.write_text(json.dumps({"instance": instance}))
        code, out, err = _run(capsys, ["bound", "--n", "20", "--config", str(config)])
        assert code == 1
        assert out == ""
        assert "must be numeric" in err
        assert "Traceback" not in err

    def test_prior_weight_beyond_the_float_range_is_one_error_line(self, tmp_path, capsys):
        config = tmp_path / "inst.json"
        config.write_text('{"instance": {"m": 2, "prior": [1%s, 1]}}' % ("0" * 400))
        code, out, err = _run(capsys, ["bound", "--n", "20", "--config", str(config)])
        assert code == 1
        assert out == ""
        assert err == "zcp-paclab bound: error: weights must lie in [0, inf)\n"

    @pytest.mark.parametrize(
        "instance, message",
        [
            ({"m": 4, "prior": [1, 2, 3]}, "prior support must equal m"),
            (
                {"m": 2, "posterior": "fixed", "fixed_weights": [1, 2, 3]},
                "fixed posterior support must equal prior support",
            ),
        ],
    )
    def test_instance_support_sizes_must_agree(self, instance, message, tmp_path, capsys):
        config = tmp_path / "inst.json"
        config.write_text(json.dumps({"instance": instance}))
        code, out, err = _run(capsys, ["bound", "--n", "20", "--config", str(config)])
        assert code == 1
        assert out == ""
        assert err == f"zcp-paclab bound: error: {message}\n"

    @pytest.mark.parametrize("command", ["bound", "coverage"])
    def test_unknown_instance_key_is_refused(self, command, tmp_path, capsys):
        # a misspelt fixed_weights used to leave the prior as the posterior, and d_kl at 0
        instance = {"m": 3, "prior": [1, 2, 3], "posterior": "fixed", "fixed_weigths": [0, 0, 1]}
        config = tmp_path / "inst.json"
        config.write_text(json.dumps({"n": 200, "instance": instance}))
        code, out, err = _run(capsys, [command, "--config", str(config)])
        assert code == 1
        assert out == ""
        assert err == (
            f"zcp-paclab {command}: error: instance config key 'fixed_weigths' is not one of "
            "m, loss, posterior, eta, prior, fixed_weights, bernoulli_means\n"
        )

    @pytest.mark.parametrize(
        "instance, flags, message",
        [
            # --eta used to be read and dropped for a fixed posterior, even as nan
            ({"m": 3, "prior": [1, 2, 3], "posterior": "fixed", "fixed_weights": [0, 0, 1]},
             ["--eta", "nan"], "'eta' does not apply to a fixed posterior"),
            ({"m": 3, "posterior": "fixed", "eta": 5}, [],
             "'eta' does not apply to a fixed posterior"),
            ({"m": 3, "fixed_weights": [0, 0, 1]}, [],
             "'fixed_weights' does not apply to a gibbs posterior"),
        ],
    )
    def test_instance_keys_the_posterior_ignores_are_refused(
        self, instance, flags, message, tmp_path, capsys
    ):
        config = tmp_path / "inst.json"
        config.write_text(json.dumps({"instance": instance}))
        code, out, err = _run(capsys, ["bound", "--n", "200", "--config", str(config), *flags])
        assert code == 1
        assert out == ""
        assert err == f"zcp-paclab bound: error: {message}\n"

    @pytest.mark.parametrize(
        "instance, refused",
        [
            # the first two used to run with the prior as the posterior and the default means
            ({"m": 3, "posterior": "fixed", "fixed_weights": None},
             "'fixed_weights' cannot be null"),
            ({"m": 3, "loss": "bernoulli", "bernoulli_means": None},
             "'bernoulli_means' cannot be null"),
            # these reached argparse as the text "None", and a null prior the weight check
            ({"m": 3, "loss": None}, "'loss' cannot be null"),
            ({"m": None}, "'m' cannot be null"),
            ({"m": 3, "eta": None}, "'eta' cannot be null"),
            ({"m": 3, "prior": None}, "'prior' cannot be null"),
            ({"m": 3, "eta": True}, "'eta' cannot be true"),
        ],
    )
    def test_null_or_boolean_instance_values_are_refused(
        self, instance, refused, tmp_path, capsys
    ):
        config = tmp_path / "inst.json"
        config.write_text(json.dumps({"instance": instance}))
        code, out, err = _run(capsys, ["bound", "--n", "200", "--config", str(config)])
        assert code == 1
        assert out == ""
        assert err == f"zcp-paclab bound: error: instance config key {refused}\n"

    def test_config_supplies_required_flag(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"n": 200, "m": 8, "trials": 100}))
        code, out, _ = _run(capsys, ["coverage", "--config", str(config)])
        assert code == 0
        assert "# n=200" in out
        assert "# trials=100" in out

    def test_config_list_matches_comma_flag(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"delta": [0.1, 0.05]}))
        argv = ["ville", "--n", "50", "--paths", "1000"]
        code, from_flag, _ = _run(capsys, argv + ["--delta", "0.1,0.05"])
        assert code == 0
        _, from_config, _ = _run(capsys, argv + ["--config", str(config)])
        assert from_config == from_flag

    def test_abbreviated_config_flag_rejected(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"p": "0.5,0.5", "q": "0.25,0.75"}))
        code, out, err = _run(capsys, ["divergence", "--kind", "kl", "--conf", str(config)])
        assert code == 1
        assert out == ""
        assert "--config" in err

    def test_malformed_config_rejected(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text("[1, 2]")
        code, _, err = _run(capsys, ["divergence", "--config", str(config)])
        assert code == 1
        assert "config" in err

    def test_missing_config_rejected(self, tmp_path, capsys):
        code, _, _ = _run(
            capsys, ["divergence", "--config", str(tmp_path / "nope.json")]
        )
        assert code == 1


class TestVerificationCommands:
    def test_coverage_small_run_passes(self, capsys):
        code, out, _ = _run(
            capsys,
            ["coverage", "--n", "50", "--m", "8", "--trials", "100", "--seed", "3"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "bound,failures,trials,failure_rate,wilson_upper_99,budget,passed"
        assert len(lines) == 1 + 4 + 1 + 9  # header, bounds, marker, summary keys
        assert "# all_passed=true" in out

    def test_failing_coverage_run_keeps_counts_and_writes_no_stderr(
        self, capsys, caplog, monkeypatch
    ):
        # a zero Hoeffding bound fails every trial with a positive gap
        monkeypatch.setattr(harness, "_hoeffding_zcp", lambda d_zcp, config: np.zeros_like(d_zcp))
        argv = ["coverage", "--n", "100", "--m", "8", "--trials", "100", "--seed", "3"]
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert err == ""
        assert caplog.records == []
        rows = [line.split(",") for line in out.splitlines()[1:5]]
        failures = {row[0]: int(row[1]) for row in rows}
        instance = harness.learning_instance_from_dict({"m": 8, "eta": 5.0})
        config = zcp_paclab.BoundConfig(n=100, delta=0.05, alpha=2.0)
        reports = list(harness.coverage_reports(instance, config, trials=100, seed=3))
        assert failures == {name: sum(r.failures()[name] for r in reports) for name in failures}
        assert failures["hoeffding_zcp"] > 0

    def test_coverage_names_its_instance(self, capsys):
        argv = ["coverage", "--n", "100", "--m", "8", "--trials", "100", "--seed", "3"]
        _, abs_out, _ = _run(capsys, [*argv, "--loss", "abs"])
        _, bernoulli_out, _ = _run(capsys, [*argv, "--loss", "bernoulli"])
        assert abs_out != bernoulli_out
        summary = abs_out.split("# summary\n")[1].splitlines()
        assert summary[2:6] == ["# alpha=2", "# m=8", "# loss=abs", "# eta=5"]
        assert "# loss=bernoulli" in bernoulli_out

    def test_bound_summary_names_its_instance(self, tmp_path, capsys):
        argv = ["bound", "--n", "200", "--m", "4", "--format", "json"]
        _, out, _ = _run(capsys, argv)
        summary = json.loads(out)["summary"]
        assert list(summary) == ["n", "delta", "alpha", "m", "loss", "eta", "seed"]
        assert (summary["m"], summary["loss"], summary["eta"]) == (4, "abs", 5.0)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"instance": {"m": 4, "posterior": "fixed"}}))
        _, out, _ = _run(capsys, [*argv, "--config", str(config)])
        assert list(json.loads(out)["summary"]) == ["n", "delta", "alpha", "m", "loss", "seed"]

    def test_ville_small_run_passes(self, capsys):
        code, out, _ = _run(
            capsys, ["ville", "--n", "50", "--paths", "1000", "--delta", "0.1,0.05"]
        )
        assert code == 0
        assert "# all_passed=true" in out

    def test_inequalities_pass(self, capsys):
        code, out, _ = _run(capsys, ["inequalities", "--trials", "2000"])
        assert code == 0
        payload = out.splitlines()
        assert payload[0] == "check,worst_slack,violations,passed"
        assert "# all_passed=true" in out

    @pytest.mark.parametrize("alpha", ["1e300", "1e308"])
    def test_huge_renyi_order_is_finite_and_silent(self, capsys, alpha):
        argv = ["divergence", "--kind", "renyi", "--alpha", alpha,
                "--p", "0.1,0.05,0.85", "--q", "0.12,0.08,0.8"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, argv)
            assert _run(capsys, ["bound", "--n", "30", "--alpha", alpha, "--loss", "bernoulli",
                                 "--eta", "0.05"])[0] == 0
        assert (code, err) == (0, "")
        value = float(out.splitlines()[1].split(",")[3])
        assert value == pytest.approx(math.log(0.85 / 0.8), rel=1e-12, abs=0.0)

    def test_gaussian_check_single_p(self, capsys):
        code, out, _ = _run(capsys, ["gaussian-check", "--p", "0.1", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["all_passed"] is True

    def test_self_check_passes(self, capsys):
        code, out, _ = _run(capsys, ["self-check", "--trials", "2000"])
        assert code == 0
        checks = [line.split(",")[0] for line in out.splitlines()[1:8]]
        assert "asymptotics_surrogate" in checks
        assert "betting_invariants" in checks

    def test_self_check_fault_exits_two(self, capsys, monkeypatch):
        broken = [CheckRow("fan_log_quadratic", worst_slack=-1.0, violations=3, passed=False)]
        monkeypatch.setattr(harness, "analytic_inequality_suite", lambda **kwargs: broken)
        code, out, err = _run(capsys, ["self-check", "--trials", "10"])
        assert code == 2
        assert "fan_log_quadratic" in err
        assert "# all_passed=false" in out


def _distribution_missing(name):
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return True
    return False


def _console_script(name):
    """The installed script, searched in this interpreter's scripts directory first.

    An installed but unactivated virtual environment keeps its scripts off
    PATH, so PATH alone would report the install as broken.
    """
    return shutil.which(name, path=sysconfig.get_path("scripts")) or shutil.which(name)


class TestConsoleScript:
    @pytest.mark.skipif(
        _distribution_missing("zcp-paclab"),
        reason="the zcp-paclab distribution is not installed "
        "(importlib.metadata raises PackageNotFoundError), so it has no console script",
    )
    def test_installed_entry_point(self):
        exe = _console_script("zcp-paclab")
        assert exe is not None, "console script should be installed with the package"
        proc = subprocess.run(
            [exe, "betting", "--coins", "1,1", "--format", "json"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["summary"]["beta_star"] == 1.0

    def test_pyproject_declares_entry_point(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["zcp-paclab"] == "zcp_paclab.cli:main"
        assert callable(cli.main)

    def test_module_entry_point_runs_without_install(self):
        # run the package this suite imports, installed or not
        src = str(Path(zcp_paclab.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "zcp_paclab.cli", "betting", "--coins", "1,1", "--format", "json"],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["summary"]["beta_star"] == 1.0

    def test_importing_the_cli_leaves_logging_unloaded(self):
        src = str(Path(zcp_paclab.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, zcp_paclab.cli; print('logging' in sys.modules)"],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


# One small run of each subcommand
_SMALL_RUNS = [
    ["divergence", "--kind", "renyi", "--alpha", "2", "--p", "0.5,0.5", "--q", "0.25,0.75"],
    ["instance", "--kind", "multivariate", "--d", "16", "--u", "1"],
    ["betting", "--coins", "1,-0.5,0.25"],
    ["bound", "--n", "200", "--m", "8"],
    ["coverage", "--n", "100", "--m", "8", "--trials", "100"],
    ["scaling", "--d", "8,16,32"],
    ["gaussian-check", "--p", "0.2"],
    ["ville", "--n", "50", "--paths", "1000"],
    ["inequalities", "--trials", "1000"],
    ["self-check", "--trials", "1000"],
]

_WITHOUT_SCIPY = """
import contextlib, io, json, sys
from zcp_paclab import cli
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
sys.modules["scipy"] = None  # every later import of scipy raises ImportError
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.run(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"loaded": loaded, "codes": codes}))
"""


def test_every_subcommand_runs_without_scipy():
    assert {argv[0] for argv in _SMALL_RUNS} == set(cli._COMMANDS)
    src = str(Path(zcp_paclab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(_SMALL_RUNS)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"loaded": [], "codes": [0] * len(_SMALL_RUNS)}


# Each verification command: the library call its handler makes, and one row of that call's
# result, passing or failing
_VERDICTS = {
    "coverage": ("run_coverage", lambda ok: CoverageRow("mcallester", 0, 100, 0.0, 0.05, 0.1, ok)),
    "gaussian-check": (
        "gaussian_instance_check", lambda ok: GaussianCheckRow(0.2, 1.0, 2.0, 0.1, 1.2, ok, 0.2, ok)
    ),
    "ville": ("ville_experiment", lambda ok: VilleRow(0.1, 0, 1000, 0.0, 0.005, ok)),
    "inequalities": ("analytic_inequality_suite", lambda ok: CheckRow("fenchel_dual", 0.0, 0, ok)),
    "self-check": ("self_check_suite", lambda ok: CheckRow("betting_invariants", 0.0, 0, ok)),
}


@pytest.mark.parametrize("passed", [True, False])
@pytest.mark.parametrize("argv", [argv for argv in _SMALL_RUNS if argv[0] in _VERDICTS],
                         ids=lambda argv: argv[0])
def test_the_summary_verdict_sets_the_exit_code(capsys, monkeypatch, argv, passed):
    name, row = _VERDICTS[argv[0]]
    monkeypatch.setattr(cli, name, lambda *args, **kwargs: [row(passed)])
    code, out, _ = _run(capsys, argv)
    assert code == (0 if passed else 2)
    assert f"# all_passed={str(passed).lower()}" in out.splitlines()


@pytest.mark.parametrize("argv", [argv for argv in _SMALL_RUNS if argv[0] not in _VERDICTS],
                         ids=lambda argv: argv[0])
def test_only_a_verification_command_has_a_verdict(capsys, argv):
    code, out, _ = _run(capsys, [*argv, "--format", "json"])
    assert code == 0
    assert "all_passed" not in json.loads(out)["summary"]
