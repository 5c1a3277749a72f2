"""The CI workflow's numpy-floor job picks its tests by name, so a renamed class must not
silently leave that job; and the CLI corpus keeps the output committed in
``tools/cli_corpus.txt``, so a change to any argv's output shows in that file's diff."""

import ast
import re
import shlex
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_STEP = "- name: Coin stream, fuzz block and CSV array path tests"


def _floor_job_argv() -> list[str]:
    """The argv of the numpy-floor job's pytest step."""
    text = (_ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    assert _STEP in text, f"no step {_STEP!r} in .github/workflows/tests.yml"
    _, step = text.split(_STEP, 1)
    return shlex.split(re.search(r"^\s*run: (.*)$", step, re.MULTILINE).group(1))


def test_each_floor_job_filter_term_names_a_test_class():
    argv = _floor_job_argv()
    files = [arg for arg in argv if arg.endswith(".py")]
    terms = argv[argv.index("-k") + 1].split(" or ")
    classes = [
        node.name
        for path in files
        for node in ast.walk(ast.parse((_ROOT / path).read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and node.name.startswith("Test")
    ]
    assert files and terms
    for term in terms:
        assert any(term in name for name in classes), f"-k term {term!r} names no test class"


def _code_and_argv(line: str) -> tuple[str, str]:
    code, _, _, argv = line.split(" ", 3)
    return code, argv


def test_cli_corpus_matches_the_committed_file():
    tool = _ROOT / "tools" / "cli_corpus.py"
    proc = subprocess.run(
        [sys.executable, str(tool), "--src", str(_ROOT / "src"), "--check"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    got = proc.stdout.splitlines()
    want = (_ROOT / "tools" / "cli_corpus.txt").read_text(encoding="utf-8").splitlines()
    # the header names the numpy and Python the file was made with; elsewhere the bits of
    # some outputs (Bernoulli trials, the self-check fuzz) may differ, so only exit codes count
    if got[0] != want[0]:
        got, want = list(map(_code_and_argv, got[1:])), list(map(_code_and_argv, want[1:]))
    assert len(got) == len(want)
    assert [(g, w) for g, w in zip(got, want) if g != w] == []
