"""The README's examples run as written.

The "Library example" block is executed, and every ``heraldsim ...`` line
of the CLI block goes through ``cli.main``, each in a scratch directory
that holds a copy of ``scenarios/``, so the relative paths resolve and
the written files land outside the repository.
"""

import re
import shlex
import shutil
from pathlib import Path

import pytest

from heraldsim.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced_block(heading, language):
    """The first ``language`` code block under the ``## heading`` section."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


CLI_LINES = [line for line in fenced_block("CLI", "sh").splitlines()
             if line.startswith("heraldsim ")]
#: inline examples of the form `heraldsim ...` prints `name = value`
PRINTS = re.findall(r"`(heraldsim [^`]+)`\s+prints\s+`([^`]+)`", README)


@pytest.fixture
def scenario_dir(tmp_path, monkeypatch):
    shutil.copytree(ROOT / "scenarios", tmp_path / "scenarios")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_the_readme_has_examples():
    assert CLI_LINES and PRINTS


def test_library_example_runs(scenario_dir, capsys):
    exec(compile(fenced_block("Library example", "python"), "README.md", "exec"), {})
    assert "(21, 5)" in capsys.readouterr().out


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_line_exits_0(scenario_dir, capsys, line):
    assert main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("line, printed", PRINTS)
def test_inline_example_prints_what_it_says(scenario_dir, capsys, line, printed):
    assert main(shlex.split(line)[1:]) == 0
    name, value = (part.strip() for part in printed.split("="))
    assert f"{name:<23}= {value}" in capsys.readouterr().out.splitlines()
