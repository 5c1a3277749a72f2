"""The CI workflow's numpy-floor job picks its tests by name, so a renamed class must not
silently leave that job."""

import ast
import re
import shlex
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_STEP = "- name: Coin stream, fuzz block and CSV array path tests"


def _floor_job_argv() -> list[str]:
    """The argv of the numpy-floor job's pytest step."""
    text = (_ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
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
