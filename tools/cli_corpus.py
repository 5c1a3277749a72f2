"""Golden CLI corpus: one line of hashes per argv and output format.

Runs a fixed list of ``zcp-paclab`` argvs in-process against the package
sources under ``--src`` and prints a header line, ``# numpy <version> python
<major.minor>``, then one line for each argv in CSV and again with
``--format json``: the exit code, the sha256 of stdout, the sha256 of stderr
and the argv.  The output is committed as ``tools/cli_corpus.txt``, and
``tests/test_workflow.py`` checks that a run still prints it; a change that
means to alter some output regenerates the file, and its diff names every
argv whose output changed:

    python3 tools/cli_corpus.py --src src > tools/cli_corpus.txt

``--show-stderr`` prints the text of stderr instead of its hash, to read
what a reworded message now says.  An exception that escapes ``cli.run``
(a traceback from the installed script) is reported as the exit code
``raised:<type>``.  The corpus has two parts: GOLDEN, valid runs of every
subcommand at the benchmark shapes and the top-level help, and INVALID,
argvs that must be refused (NaN and infinities for every float flag,
out-of-range integers, and a missing or unknown subcommand).
``--config`` cases read the files of CONFIGS, written to a temporary
directory, and ``--out`` cases write under it; their argvs and stderr print
that directory as ``<config-dir>``.

``--check`` also exits 1 when the corpus shows a fault on its own: a case
that raised, a GOLDEN argv that exits nonzero, prints anything to stderr
(a log line, or a Python warning shown as a ``<Category>: <message>`` line)
or prints a ``nan`` cell (a CSV field or summary value, or a JSON
``"nan"``), or an INVALID argv that exits 0, prints to stdout or shows a Python warning
(a ``<Name>Warning: <message>`` line beside its refusal).  The test and the
numpy-floor continuous-integration job run it that way:

    python tools/cli_corpus.py --src src --check > /dev/null
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import re
import sys
import tempfile
import warnings
from pathlib import Path

_COVERAGE = ("--n", "1000", "--eta", "5", "--delta", "0.05", "--alpha", "2")
_P, _Q = ("--p", "0.5,0.3,0.2,0"), ("--q", "0.25,0.25,0.25,0.25")
_EQUAL = ("--p", "0.1,0.2,0.3,0.4", "--q", "0.1,0.2,0.3,0.4")
_HUGE = str(10**20)
_WARNING = re.compile(r"^\w*Warning: ", re.MULTILINE)  # a line of show_warning in _run
_NAN = re.compile(r'(^|[,=])nan(,|$)|"nan"', re.MULTILINE)  # a CSV or JSON cell of a NaN

# --config file name -> its text
CONFIGS = {
    "flags.json": '{"n": 200, "m": 8, "loss": "bernoulli", "trials": 100, "seed": 3}',
    "list.json": '{"n": 50, "delta": [0.1, 0.05], "paths": 1000}',
    "instance.json": '{"n": 200, "instance": {"m": 3, "prior": [1, 2, 3], "posterior": "fixed"}}',
    "mismatch.json": '{"n": 200, "instance": {"m": 4, "prior": [1, 2, 3]}}',
    "unknown.json": '{"n": 200, "bogus": 1}',
    "null.json": '{"n": 200, "delta": null}',
    "malformed.json": '{"n": 200,',
    # a prior weight beyond the float range, and weights written as strings
    "huge.json": '{"n": 200, "instance": {"m": 2, "prior": [1%s, 1]}}' % ("0" * 400),
    "strings.json": '{"n": 200, "instance": {"m": 2, "prior": ["1", "3"]}}',
    # a misspelt fixed_weights, which left the prior as the posterior
    "typo.json": '{"n": 200, "instance": {"m": 3, "prior": [1, 2, 3], "posterior": "fixed", '
    '"fixed_weigths": [0, 0, 1]}}',
    # keys the chosen posterior ignores: --eta for a fixed one, fixed_weights for a Gibbs one
    "fixed.json": '{"instance": {"m": 3, "prior": [1, 2, 3], "posterior": "fixed", '
    '"fixed_weights": [0, 0, 1]}}',
    "fixed_eta.json": '{"n": 200, "instance": {"m": 3, "posterior": "fixed", "eta": 5}}',
    "gibbs_weights.json": '{"n": 200, "instance": {"m": 3, "fixed_weights": [0, 0, 1]}}',
    # null instance values: the first two ran with the key's default, and a null loss or m
    # reached argparse as the text "None"
    "null_weights.json": '{"instance": {"m": 3, "posterior": "fixed", "fixed_weights": null}}',
    "null_means.json": '{"instance": {"m": 3, "loss": "bernoulli", "bernoulli_means": null}}',
    "null_loss.json": '{"instance": {"m": 3, "loss": null}}',
    "null_m.json": '{"instance": {"m": null}}',
    # a Gibbs posterior whose eta is the library's default
    "gibbs.json": '{"n": 200, "instance": {"m": 3, "prior": [1, 2, 3]}}',
    # booleans in instance lists, which were read as the numbers 0 and 1
    "bool_prior.json": '{"n": 200, "instance": {"m": 3, "prior": [true, false, true]}}',
    "bool_weights.json": '{"n": 200, "instance": {"m": 3, "posterior": "fixed", '
    '"fixed_weights": [false, false, true]}}',
    "bool_means.json": '{"n": 200, "instance": {"m": 2, "loss": "bernoulli", '
    '"bernoulli_means": [true, false]}}',
    "scalar.json": '{"n": 200, "instance": 3}',
}
_CONFIG_DIR = "<config-dir>"


def _config(name: str) -> tuple[str, str]:
    return "--config", f"{_CONFIG_DIR}/{name}"


def _golden() -> list[tuple[str, ...]]:
    argvs = [
        ("coverage", *_COVERAGE, "--m", m, "--trials", trials, "--loss", loss, "--seed", seed)
        for m, trials in (("50", "200"), ("2000", "100"))
        for loss in ("abs", "bernoulli")
        for seed in ("1", "2", "3")
    ]
    # one below, at and one above two m = 50 coverage blocks of 81 trials
    argvs += [
        ("coverage", *_COVERAGE, "--m", "50", "--trials", trials, "--loss", loss, "--seed", "4")
        for trials in ("161", "162", "163")
        for loss in ("abs", "bernoulli")
    ]
    argvs.append(("coverage", *_COVERAGE, "--m", "10000", "--trials", "100", "--seed", "1"))
    argvs.append(("bound", "--n", "1000", "--m", "10000", "--seed", "1"))
    argvs += [
        ("bound", "--n", "1000", "--eta", eta, "--loss", loss, "--seed", "1")
        for eta in ("0", "5")
        for loss in ("abs", "bernoulli")
    ]
    argvs.append(("bound", "--n", "200", "--m", "2000", "--seed", "2"))
    argvs.append(("bound", "--n", "30", "--alpha", "1e308", "--loss", "bernoulli", "--eta", "0.05"))
    argvs.append(("bound", "--n", "100", "--m", "10", "--eta", "0", "--alpha", "1.0000000001"))
    # Gibbs weights that summed to 1 only within about 1e-11, and an eta * n that overflowed
    argvs.append(("coverage", "--m", "50", "--n", "200", "--eta", "500", "--trials", "2000"))
    argvs += [("bound", "--n", "2", "--loss", loss, "--eta", "1e308") for loss in ("abs", "bernoulli")]
    for seed in ("1", "2", "3"):
        argvs.append(("self-check", "--seed", seed))
        argvs.append(("ville", "--n", "500", "--paths", "2000", "--delta", "0.1,0.05", "--seed", seed))
    argvs += [
        ("scaling",),
        ("scaling", "--u", "0.5", "--d", "8,16,32,64"),
        ("scaling", "--d", "4,8"),  # each slope is fitted through both points
        ("scaling", "--d", "4,6"),
        ("gaussian-check",),
        ("gaussian-check", "--exponent", "0.75", "--p", "0.3,0.1"),
        ("instance", "--kind", "bernoulli", "--p", "0.1"),
        ("instance", "--kind", "bernoulli", "--p", "0.2", "--lna", "3"),
        ("instance", "--kind", "bernoulli", "--p", "1e-154"),  # 2 ln(1/p**2) overflows
        ("instance", "--kind", "multivariate", "--d", "16", "--u", "1"),
        ("instance", "--kind", "gaussian", "--mixture-p", "0.1"),
        ("instance", "--kind", "gaussian", "--mixture-p", "0.05", "--exponent", "0.75"),
        ("divergence", "--kind", "kl", *_P, *_Q),
        ("divergence", "--kind", "kl", "--p", "0.25,0.25,0.25,0.25", "--q", "0.5,0.3,0.2,0"),
        ("divergence", "--kind", "kl", "--p", "1e308,1e308", "--q", "1,1"),  # the sum overflows
        ("divergence", "--kind", "tv", *_P, *_Q),
        ("divergence", "--kind", "renyi", "--alpha", "2", *_P, *_Q),
        ("divergence", "--kind", "renyi", "--alpha", "0.5", *_P, *_Q),
        # alpha lp and (1 - alpha) lq overflow with opposite signs; D tends to ln max(p/q)
        ("divergence", "--kind", "renyi", "--alpha", "1e308",
         "--p", "0.1,0.05,0.85", "--q", "0.12,0.08,0.8"),
        # near alpha = 1 the log-sum-exp's rounding over alpha - 1 gave P = Q a nonzero D
        *(("divergence", "--kind", "renyi", "--alpha", alpha, *_EQUAL)
          for alpha in ("1.0000000001", "1.000001")),
        # a near pair printed -0
        *(("divergence", "--kind", "renyi", "--alpha", alpha, *_EQUAL[:3], "0.1,0.2,0.3,0.40000001")
          for alpha in ("0.9", "0.5")),
        ("divergence", "--mixture-p", "0.2", "--kind", "renyi", "--alpha", "1e-12"),  # was < 0
        ("divergence", "--kind", "tv", "--p", "0,0,0,0,0,0,0,1",  # disjoint: rounding passed 1
         "--q", "0,0,0,0.0031622776601683794,0,1,1,0"),
        ("divergence", "--kind", "zcp", "--c", "1", *_P, *_Q),
        ("divergence", "--kind", "little_kl", "--p", "0.3", "--q", "0.6"),
        ("divergence", "--kind", "kl", "--mixture-p", "0.1"),
        ("divergence", "--kind", "tv", "--mixture-p", "0.1"),
        ("divergence", "--kind", "renyi", "--alpha", "0.5", "--mixture-p", "0.1"),
        ("divergence", "--kind", "zcp", "--c", "1", "--mixture-p", "0.1"),
        ("divergence", "--kind", "kl", "--mixture-p", "0.05", "--exponent", "0.75"),
        # quadrature put TV off by 8 times its error at 1e-8 and at p / 2 at 1e-30, and Renyi
        # off by 12 times its error at 1e-6
        *(("divergence", "--kind", "tv", "--mixture-p", p) for p in ("1e-8", "1e-30")),
        ("divergence", "--mixture-p", "1e-6", "--kind", "renyi", "--alpha", "0.5"),
        # KL grows like 1/(2p) at small weights while ZCP stays bounded
        ("divergence", "--mixture-p", "1e-6", "--kind", "kl"),
        ("divergence", "--mixture-p", "1e-6", "--kind", "zcp", "--c", "1"),
        ("divergence", "--mixture-p", "1e-6", "--exponent", "0.75", "--kind", "kl"),
        ("divergence", "--mixture-p", "0.99", "--kind", "renyi", "--alpha", "0.9"),
        ("betting", "--coins", "0.5,-0.25,1,0.75,-1,0.1"),
        ("betting", "--n", "200", "--seed", "3"),
        # the benchmark's betting shapes
        ("betting", "--n", "100000", "--seed", "1"),
        ("ville", "--n", "1000", "--paths", "10000", "--delta", "0.1,0.05", "--seed", "1"),
    ]
    # one below, at and one above a boundary of the 4-path Ville blocks that
    # 4,096 entries gave at n = 1000; n = 5000 then held one path per block
    argvs += [
        ("ville", "--n", "1000", "--paths", paths, "--seed", "1") for paths in ("1003", "1004", "1005")
    ]
    argvs.append(("ville", "--n", "5000", "--paths", "1000", "--seed", "1"))
    # a Ville block of 8,192 entries holds 8 paths at n = 1000: around a block
    # boundary and around 4,096 paths, and paths longer than a block
    argvs += [
        ("ville", "--n", "1000", "--paths", paths, "--seed", "1")
        for paths in ("1007", "1008", "1009", "4095", "4096", "4097")
    ]
    argvs.append(("ville", "--n", "9000", "--paths", "1000", "--seed", "1"))
    argvs += [
        ("coverage", *_config("flags.json")),
        ("coverage", *_config("flags.json"), "--loss", "abs"),  # an explicit flag wins
        ("ville", *_config("list.json")),
        ("bound", *_config("instance.json")),
        ("bound", *_config("gibbs.json")),
    ]
    argvs += [("-h",), ("--help",)]  # the top-level usage
    return argvs


# (argv, float flag): each flag is given nan, inf and -inf
_FLOAT_SWEEP = (
    (("divergence", "--kind", "zcp", *_P, *_Q), "--c"),
    (("divergence", "--kind", "renyi", *_P, *_Q), "--alpha"),
    (("divergence", "--kind", "kl", *_Q), "--p"),
    (("divergence", "--kind", "little_kl", "--q", "0.5"), "--p"),
    (("divergence", "--kind", "little_kl", "--p", "0.5"), "--q"),
    (("divergence", "--kind", "zcp", "--mixture-p", "0.1"), "--c"),
    (("divergence", "--kind", "renyi", "--mixture-p", "0.1"), "--alpha"),
    (("divergence", "--kind", "kl"), "--mixture-p"),
    (("instance", "--kind", "bernoulli"), "--p"),
    (("instance", "--kind", "bernoulli", "--p", "0.1"), "--lna"),
    (("instance", "--kind", "multivariate", "--d", "16"), "--u"),
    (("instance", "--kind", "gaussian"), "--mixture-p"),
    (("instance", "--kind", "gaussian", "--mixture-p", "0.1"), "--exponent"),
    (("betting",), "--coins"),
    (("bound", "--n", "100"), "--delta"),
    (("bound", "--n", "100"), "--alpha"),
    (("bound", "--n", "100"), "--eta"),
    (("coverage", "--n", "100", "--m", "8", "--trials", "100"), "--delta"),
    (("scaling",), "--u"),
    (("gaussian-check",), "--p"),
    (("gaussian-check",), "--exponent"),
    (("ville", "--n", "50", "--paths", "1000"), "--delta"),
)

_OUT_OF_RANGE = (
    (),  # no subcommand, and one that does not exist
    ("bogus",),
    ("bound", "--n", "1"),
    ("bound", "--n", "0"),
    ("bound", "--n", "100", "--m", "0"),
    ("bound", "--n", "100", "--m", "-1"),
    ("bound", "--n", "100", "--m", "20000"),
    ("coverage", "--n", "100", "--m", "8", "--trials", "50"),
    ("instance", "--kind", "multivariate", "--d", "3", "--u", "1"),
    ("instance", "--kind", "multivariate", "--d", "0", "--u", "1"),
    ("scaling", "--d", "2,4"),
    ("scaling", "--d", "8,4"),
    ("ville", "--n", "0", "--paths", "1000"),
    ("ville", "--n", "50", "--paths", "10"),
    ("betting", "--n", "0"),
    ("divergence", "--kind", "renyi", "--alpha", "1", *_P, *_Q),
    ("divergence", "--kind", "renyi", "--alpha", "1", "--mixture-p", "0.1"),
    ("gaussian-check", "--p", "0.7"),
    ("coverage", "--n", "100", "--m", "8", "--trials", "100", "--seed", "-1"),
    ("self-check", "--trials", "10", "--seed", "-1"),
    ("betting", "--n", "5", "--seed", "-1"),
    ("bound", *_config("unknown.json")),
    ("bound", *_config("null.json")),
    ("bound", *_config("malformed.json")),
    ("bound", *_config("mismatch.json")),  # the prior has 3 atoms, m is 4
    ("bound", *_config("huge.json")),
    ("bound", *_config("strings.json")),
    ("bound", *_config("typo.json")),
    *(("bound", "--n", "200", *_config("fixed.json"), "--eta", eta) for eta in ("nan", "5")),
    ("bound", *_config("fixed_eta.json")),
    ("coverage", "--trials", "100", *_config("gibbs_weights.json")),
    *(("bound", "--n", "200", *_config(f"null_{name}.json"))
      for name in ("weights", "means", "loss", "m")),
    *(("bound", *_config(f"bool_{name}.json")) for name in ("prior", "weights", "means")),
    # flags the kind does not use
    ("divergence", "--kind", "kl", "--p", "0.2,0.8", "--q", "0.5,0.5", "--alpha", "2", "--c", "3"),
    ("divergence", "--kind", "little_kl", "--p", "0.2", "--q", "0.5", "--alpha", "2"),
    # flags the chosen input does not use
    ("divergence", "--kind", "kl", "--p", "0.5,0.5", "--q", "0.5,0.5", "--mixture-p", "0.1"),
    ("betting", "--coins", "0.5,-0.5", "--n", "5"),
    ("instance", "--kind", "multivariate", "--d", "8", "--u", "1", "--lna", "5", "--p", "0.3"),
    ("instance", "--kind", "bernoulli", "--p", "0.1", "--lna", "5", "--d", "8"),
    ("instance", "--kind", "gaussian", "--mixture-p", "0.1", "--p", "0.4"),
    ("instance", "--kind", "bernoulli", "--p", "0.1", "--exponent", "0.75"),
    ("betting", "--n", "5", "--out", _CONFIG_DIR),  # a directory
    ("betting", "--n", "5", "--out", f"{_CONFIG_DIR}/missing/x.csv"),
    ("instance", "--kind", "multivariate", "--d", "4096", "--u", "100"),  # d**(1.5u) overflows
    ("scaling", "--u", "100"),
    *(("instance", "--kind", "bernoulli", "--p", p) for p in ("0", "-0.0", "1e-200", "1e-320", "1e-160")),
    # sigma2**2 underflowed to a ZeroDivisionError; now ln q is -inf off the spike, where
    # (x / sigma2)^2 overflows, so r^alpha is inf there and the seed level refuses at once
    ("divergence", "--mixture-p", "1e-300", "--kind", "renyi", "--alpha", "0.5"),
    # a subnormal scale: the seed level's Simpson sums are not finite, which refuses as an overflow
    ("divergence", "--mixture-p", "5e-324", "--kind", "zcp", "--c", "1"),
    # the pair is held on the standard scale, so there is no flag for its wide scale
    *(("divergence", "--mixture-p", "0.2", "--sigma1", sigma1, "--kind", "renyi",
       "--alpha", "0.5") for sigma1 in ("1e-300", "1e200")),
    ("divergence", "--mixture-p", "0.2", "--sigma1", "1e307", "--kind", "kl"),
    ("divergence", "--kind", "kl", "--p", "0.5,0.5", "--q", "0.5,0.5", "--sigma1", "3"),
    # counts past 10**18 that sized an array and raised numpy's ValueError or OverflowError
    ("bound", "--n", _HUGE, "--m", "2"),
    ("bound", "--n", _HUGE, "--m", "2", "--loss", "bernoulli"),
    ("betting", "--n", str(2**63 - 1)),
    *((command, "--n", _HUGE) for command in ("coverage", "ville", "betting")),
    ("self-check", "--trials", _HUGE),
    ("instance", "--kind", "multivariate", "--d", _HUGE, "--u", "1"),
    ("scaling", "--d", f"4,{_HUGE}"),
    # a delta so small that the complexity term's constant overflowed and printed inf
    *(("bound", "--n", n, "--delta", delta) for n, delta in (("1000", "1e-300"), ("2", "1e-308"))),
    # a flag the kind or the input needs, left out
    ("divergence", "--kind", "renyi", "--p", "0.5,0.5", "--q", "0.5,0.5"),
    ("divergence", "--kind", "zcp", "--mixture-p", "0.1"),
    ("instance", "--kind", "multivariate", "--d", "8"),
    ("betting",),
    # little_kl takes one number for each of --p and --q
    ("divergence", "--kind", "little_kl", "--p", "0.1,0.2", "--q", "0.3"),
    ("scaling", "--d", "4.5,8"),
    ("bound", *_config("scalar.json")),  # an instance that is not an object
)


def _invalid() -> list[tuple[str, ...]]:
    argvs = [(*argv, f"{flag}={value}") for argv, flag in _FLOAT_SWEEP for value in ("nan", "inf", "-inf")]
    return argvs + list(_OUT_OF_RANGE)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(cli, argv: tuple[str, ...], config_dir: str) -> tuple[str, str, str]:
    """(exit code, stdout, stderr) of one argv.

    stderr names the config directory as the argvs do.
    """
    argv = tuple(arg.replace(_CONFIG_DIR, config_dir) for arg in argv)
    out, err = io.StringIO(), io.StringIO()

    def show_warning(message, category, filename, lineno, file=None, line=None):
        # no file path or line number, so both checkouts print the same text
        print(f"{category.__name__}: {message}", file=sys.stderr)

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("always")  # a warning shows on every run, whatever ran before
        warnings.showwarning = show_warning
        try:
            code = str(cli.run(list(argv)))
        except Exception as exc:  # an escaped exception is what the corpus must show
            code = f"raised:{type(exc).__name__}"
            print(exc, file=sys.stderr)
    return code, out.getvalue(), err.getvalue().replace(config_dir, _CONFIG_DIR)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the zcp_paclab package")
    parser.add_argument("--show-stderr", action="store_true", help="print stderr text, not its hash")
    parser.add_argument("--check", action="store_true", help="exit 1 when a case shows a fault")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    import numpy as np
    from zcp_paclab import cli

    print(f"# numpy {np.__version__} python {sys.version_info.major}.{sys.version_info.minor}")
    faults = []
    with tempfile.TemporaryDirectory(prefix="cli-corpus-") as config_dir:
        for name, text in CONFIGS.items():
            Path(config_dir, name).write_text(text, encoding="utf-8")
        for golden, argvs in ((True, _golden()), (False, _invalid())):
            for argv in argvs:
                for fmt in ((), ("--format", "json")):
                    code, out, err = _run(cli, (*argv, *fmt), config_dir)
                    shown = repr(err) if args.show_stderr else _sha(err)
                    line = f"{code} {_sha(out)} {shown} {' '.join((*argv, *fmt))}"
                    print(line)
                    if golden:
                        fault = code != "0" or err or _NAN.search(out)
                    else:
                        fault = code == "0" or out or _WARNING.search(err)
                    if code.startswith("raised:") or fault:
                        faults.append(line)
    if args.check and faults:
        print(f"{len(faults)} faulty cases:", *faults, sep="\n", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
