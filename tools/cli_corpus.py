"""Golden CLI corpus: one line of hashes per argv and output format.

Runs a fixed list of ``zcp-paclab`` argvs in-process against the package
sources under ``--src`` and prints one line for each argv in CSV and again
with ``--format json``: the exit code, the sha256 of stdout, the sha256 of
stderr and the argv.  Run it on a checkout of the parent commit and on the
change, then diff the two outputs; a refactor that keeps the CLI
byte-identical shows no difference:

    python3 tools/cli_corpus.py --src /path/to/parent/src > before.txt
    python3 tools/cli_corpus.py --src src > after.txt
    diff before.txt after.txt

``--show-stderr`` prints the text of stderr instead of its hash, to read
what a reworded message now says.  An exception that escapes ``cli.run``
(a traceback from the installed script) is reported as the exit code
``raised:<type>``.  The corpus has two parts: GOLDEN, valid runs of every
subcommand at the benchmark shapes, and INVALID, flags that must be refused
(NaN and infinities for every float flag, and out-of-range integers).
``--config`` cases read the files of CONFIGS, written to a temporary
directory, and ``--out`` cases write under it; their argvs and stderr print
that directory as ``<config-dir>``.

``--check`` also exits 1 when the corpus shows a fault on its own: a case
that raised, a GOLDEN argv that exits nonzero or prints a Python warning
(a ``<Category>: <message>`` line on stderr), or an INVALID argv that exits
0 or prints to stdout.  A continuous-integration job runs it that way:

    python tools/cli_corpus.py --src src --check > /dev/null
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
import warnings
from pathlib import Path

_COVERAGE = ("--n", "1000", "--eta", "5", "--delta", "0.05", "--alpha", "2")
_P, _Q = ("--p", "0.5,0.3,0.2,0"), ("--q", "0.25,0.25,0.25,0.25")
_EQUAL = ("--p", "0.1,0.2,0.3,0.4", "--q", "0.1,0.2,0.3,0.4")

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
    for seed in ("1", "2", "3"):
        argvs.append(("self-check", "--seed", seed))
        argvs.append(("inequalities", "--seed", seed))
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
        # off the standard scale: sigma2**2 underflowed, sigma1**2 overflowed, and at 1e307 the nodes
        *(("divergence", "--mixture-p", "0.2", "--sigma1", sigma1, "--kind", "renyi",
           "--alpha", "0.5") for sigma1 in ("1e-300", "1e200")),
        ("divergence", "--mixture-p", "0.2", "--sigma1", "1e307", "--kind", "kl"),
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
    # a Ville block of 8,192 entries holds 8 paths at n = 1000, and 512 paths are
    # seeded at once: around a boundary of each, and paths longer than a block
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
    ]
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
    (("divergence", "--kind", "kl", "--mixture-p", "0.1"), "--sigma1"),
    (("instance", "--kind", "bernoulli"), "--p"),
    (("instance", "--kind", "bernoulli", "--p", "0.1"), "--lna"),
    (("instance", "--kind", "multivariate", "--d", "16"), "--u"),
    (("instance", "--kind", "gaussian"), "--mixture-p"),
    (("instance", "--kind", "gaussian", "--mixture-p", "0.1"), "--sigma1"),
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
    ("inequalities", "--trials", "0"),
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
    # flags the kind does not use
    ("divergence", "--kind", "kl", "--p", "0.2,0.8", "--q", "0.5,0.5", "--alpha", "2", "--c", "3"),
    ("divergence", "--kind", "little_kl", "--p", "0.2", "--q", "0.5", "--alpha", "2"),
    # flags the chosen input does not use
    ("divergence", "--kind", "kl", "--p", "0.5,0.5", "--q", "0.5,0.5", "--mixture-p", "0.1"),
    ("betting", "--coins", "0.5,-0.5", "--n", "5"),
    ("instance", "--kind", "multivariate", "--d", "8", "--u", "1", "--lna", "5", "--p", "0.3"),
    ("instance", "--kind", "bernoulli", "--p", "0.1", "--lna", "5", "--d", "8"),
    ("instance", "--kind", "gaussian", "--mixture-p", "0.1", "--p", "0.4"),
    ("betting", "--n", "5", "--out", _CONFIG_DIR),  # a directory
    ("betting", "--n", "5", "--out", f"{_CONFIG_DIR}/missing/x.csv"),
    ("instance", "--kind", "multivariate", "--d", "4096", "--u", "100"),  # d**(1.5u) overflows
    ("scaling", "--u", "100"),
    *(("instance", "--kind", "bernoulli", "--p", p) for p in ("0", "-0.0", "1e-200", "1e-320", "1e-160")),
    # sigma2**2 underflowed to a ZeroDivisionError; the spike holding Q's mass now spends the
    # evaluation budget
    ("divergence", "--mixture-p", "1e-300", "--kind", "renyi", "--alpha", "0.5"),
)


def _invalid() -> list[tuple[str, ...]]:
    argvs = [(*argv, f"{flag}={value}") for argv, flag in _FLOAT_SWEEP for value in ("nan", "inf", "-inf")]
    return argvs + list(_OUT_OF_RANGE)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(cli, argv: tuple[str, ...], config_dir: str) -> tuple[str, str, str, bool]:
    """(exit code, stdout, stderr, whether a warning was shown) of one argv.

    stderr names the config directory as the argvs do.
    """
    argv = tuple(arg.replace(_CONFIG_DIR, config_dir) for arg in argv)
    out, err = io.StringIO(), io.StringIO()
    shown = []

    def show_warning(message, category, filename, lineno, file=None, line=None):
        # no file path or line number, so both checkouts print the same text
        print(f"{category.__name__}: {message}", file=sys.stderr)
        shown.append(category)

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("always")  # a warning shows on every run, whatever ran before
        warnings.showwarning = show_warning
        try:
            code = str(cli.run(list(argv)))
        except Exception as exc:  # an escaped exception is what the corpus must show
            code = f"raised:{type(exc).__name__}"
            print(exc, file=sys.stderr)
    return code, out.getvalue(), err.getvalue().replace(config_dir, _CONFIG_DIR), bool(shown)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the zcp_paclab package")
    parser.add_argument("--show-stderr", action="store_true", help="print stderr text, not its hash")
    parser.add_argument("--check", action="store_true", help="exit 1 when a case shows a fault")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    from zcp_paclab import cli

    faults = []
    with tempfile.TemporaryDirectory(prefix="cli-corpus-") as config_dir:
        for name, text in CONFIGS.items():
            Path(config_dir, name).write_text(text, encoding="utf-8")
        for golden, argvs in ((True, _golden()), (False, _invalid())):
            for argv in argvs:
                for fmt in ((), ("--format", "json")):
                    code, out, err, warned = _run(cli, (*argv, *fmt), config_dir)
                    shown = repr(err) if args.show_stderr else _sha(err)
                    line = f"{code} {_sha(out)} {shown} {' '.join((*argv, *fmt))}"
                    print(line)
                    fault = code != "0" or warned if golden else code == "0" or out
                    if code.startswith("raised:") or fault:
                        faults.append(line)
    if args.check and faults:
        print(f"{len(faults)} faulty cases:", *faults, sep="\n", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
