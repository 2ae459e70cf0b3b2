"""The README names only paths that exist and commands the CLI accepts.

Two checks over ``README.md``:

* every backticked repo path exists: ``src/repro/...``, ``repro/...``,
  package-relative ``core/``, ``hw/``, ``pipeline/`` ... paths, and
  ``tests/``, ``benchmarks/``, ``perfbench/`` and ``.github/`` paths;
* every ``repro <subcommand>`` line of a shell block parses under
  :func:`repro.cli.build_parser`.
"""

import pathlib
import re
import shlex

import pytest

from repro.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

#: Leading path component -> directory it is relative to.
_ROOTS = {
    "src": ROOT,
    "tests": ROOT,
    "benchmarks": ROOT,
    "perfbench": ROOT,
    ".github": ROOT,
    "repro": ROOT / "src",
    **{
        package: ROOT / "src" / "repro"
        for package in (
            "bench", "core", "experiments", "hw", "metrics", "pipeline",
            "runtime", "scene", "service", "sweeps",
        )
    },
}
_PATH = re.compile(r"[\w.-]+(/[\w.-]+)*/?")
_FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)
_SHELL = {"sh", "bash", "shell", "console"}


def missing_paths(text: str) -> list[str]:
    """Backticked repo paths in ``text`` (outside fenced blocks) that do not exist."""
    prose = _FENCE.sub("", text)
    missing = []
    for span in re.findall(r"`([^`\n]+)`", prose):
        token = span.split()[0]
        head = token.split("/")[0]
        if "/" not in token or head not in _ROOTS or not _PATH.fullmatch(token):
            continue
        if not (_ROOTS[head] / token).exists():
            missing.append(token)
    return missing


def repro_commands(text: str) -> list[list[str]]:
    """The argv of every ``repro ...`` line in ``text``'s shell blocks."""
    commands = []
    for lang, body in _FENCE.findall(text):
        if lang not in _SHELL:
            continue
        for line in body.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["repro"]:
                commands.append(words[1:])
    return commands


def unparsable_commands(text: str) -> list[list[str]]:
    """The ``repro`` command lines of ``text`` that the CLI rejects."""
    parser = build_parser()
    rejected = []
    for argv in repro_commands(text):
        try:
            parser.parse_args(argv)
        except SystemExit:
            rejected.append(argv)
    return rejected


def test_readme_paths_exist():
    assert missing_paths(README.read_text()) == []


def test_readme_repro_commands_parse():
    text = README.read_text()
    assert len(repro_commands(text)) >= 20
    assert unparsable_commands(text) == []


@pytest.mark.parametrize(
    "name",
    [
        "`core/bitonic.py`",
        "`src/repro/core/bitonic.py`",
        "`repro/core/bsu.py`",
        "`tests/test_bitonic.py`",
        "`perfbench/nosuch.py --trace 1`",
    ],
)
def test_deleted_path_is_reported(name):
    assert missing_paths(f"The BSU model lives in {name}.") == [name.strip("`").split()[0]]


def test_unknown_subcommand_is_reported(capsys):
    text = "```sh\nrepro list\nrepro frobnicate --all  # no such subcommand\n```\n"
    assert unparsable_commands(text) == [["frobnicate", "--all"]]
