"""Exit codes, output formats, atomic writes, and config handling of the CLI."""

import importlib.metadata
import json
import math
import os
import shutil
import subprocess
import sys
import sysconfig
import warnings
from pathlib import Path

import numpy as np
import pytest

import zcp_paclab
from zcp_paclab import cli, harness
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
