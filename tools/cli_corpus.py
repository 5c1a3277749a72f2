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

``--check`` also exits 1 when the corpus shows a fault on its own: a case
that raised, a GOLDEN argv that exits nonzero, or an INVALID argv that exits
0 or prints to stdout.  A continuous-integration job runs it that way:

    python tools/cli_corpus.py --src src --check > /dev/null
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import warnings
from pathlib import Path

_COVERAGE = ("--n", "1000", "--eta", "5", "--delta", "0.05", "--alpha", "2")
_P, _Q = ("--p", "0.5,0.3,0.2,0"), ("--q", "0.25,0.25,0.25,0.25")


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
    for seed in ("1", "2", "3"):
        argvs.append(("self-check", "--seed", seed))
        argvs.append(("inequalities", "--seed", seed))
        argvs.append(("ville", "--n", "500", "--paths", "2000", "--delta", "0.1,0.05", "--seed", seed))
    argvs += [
        ("scaling",),
        ("scaling", "--u", "0.5", "--d", "8,16,32,64"),
        ("scaling", "--d", "4,8"),  # one point per slope fit: numpy warns on stderr
        ("gaussian-check",),
        ("gaussian-check", "--exponent", "0.75", "--p", "0.3,0.1"),
        ("instance", "--kind", "bernoulli", "--p", "0.1"),
        ("instance", "--kind", "bernoulli", "--p", "0.2", "--lna", "3"),
        ("instance", "--kind", "multivariate", "--d", "16", "--u", "1"),
        ("instance", "--kind", "gaussian", "--mixture-p", "0.1"),
        ("divergence", "--kind", "kl", *_P, *_Q),
        ("divergence", "--kind", "kl", "--p", "0.25,0.25,0.25,0.25", "--q", "0.5,0.3,0.2,0"),
        ("divergence", "--kind", "tv", *_P, *_Q),
        ("divergence", "--kind", "renyi", "--alpha", "2", *_P, *_Q),
        ("divergence", "--kind", "renyi", "--alpha", "0.5", *_P, *_Q),
        ("divergence", "--kind", "zcp", "--c", "1", *_P, *_Q),
        ("divergence", "--kind", "little_kl", "--p", "0.3", "--q", "0.6"),
        ("divergence", "--kind", "kl", "--mixture-p", "0.1"),
        ("divergence", "--kind", "tv", "--mixture-p", "0.1"),
        ("divergence", "--kind", "renyi", "--alpha", "0.5", "--mixture-p", "0.1"),
        ("divergence", "--kind", "zcp", "--c", "1", "--mixture-p", "0.1"),
        ("divergence", "--kind", "kl", "--mixture-p", "0.05", "--exponent", "0.75"),
        ("betting", "--coins", "0.5,-0.25,1,0.75,-1,0.1"),
        ("betting", "--n", "200", "--seed", "3"),
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
    ("instance", "--kind", "multivariate", "--d", "4096", "--u", "100"),  # d**(1.5u) overflows
    ("scaling", "--u", "100"),
)


def _invalid() -> list[tuple[str, ...]]:
    argvs = [(*argv, f"{flag}={value}") for argv, flag in _FLOAT_SWEEP for value in ("nan", "inf", "-inf")]
    return argvs + list(_OUT_OF_RANGE)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _show_warning(message, category, filename, lineno, file=None, line=None):
    # no file path or line number, so both checkouts print the same text
    print(f"{category.__name__}: {message}", file=sys.stderr)


def _run(cli, argv: tuple[str, ...]) -> tuple[str, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli.run(list(argv)))
        except Exception as exc:  # an escaped exception is what the corpus must show
            code = f"raised:{type(exc).__name__}"
            print(exc, file=sys.stderr)
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the zcp_paclab package")
    parser.add_argument("--show-stderr", action="store_true", help="print stderr text, not its hash")
    parser.add_argument("--check", action="store_true", help="exit 1 when a case shows a fault")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    from zcp_paclab import cli

    warnings.simplefilter("always")  # a warning shows on every run, whatever ran before
    warnings.showwarning = _show_warning
    faults = []
    for golden, argvs in ((True, _golden()), (False, _invalid())):
        for argv in argvs:
            for fmt in ((), ("--format", "json")):
                code, out, err = _run(cli, (*argv, *fmt))
                shown = repr(err) if args.show_stderr else _sha(err)
                line = f"{code} {_sha(out)} {shown} {' '.join((*argv, *fmt))}"
                print(line)
                if code.startswith("raised:") or (code != "0" if golden else code == "0" or out):
                    faults.append(line)
    if args.check and faults:
        print(f"{len(faults)} faulty cases:", *faults, sep="\n", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
