"""The README's examples run as written: every ``lzscatter`` command of its
CLI block exits 0, and its Python quick start executes."""

import re
import shlex
from pathlib import Path

import pytest

from lzscatter import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading, fence):
    # the first fenced block of `fence` under the `## heading` section
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{fence}\n(.*?)```", section, re.S).group(1)


def _cli_commands():
    text = _block("CLI", "").replace("\\\n", " ")
    return [shlex.split(line) for line in text.splitlines() if line.startswith("lzscatter ")]


def test_readme_cli_block_has_its_commands():
    assert len(_cli_commands()) == 9


@pytest.mark.parametrize("argv", _cli_commands(), ids=lambda argv: " ".join(argv[1:]))
def test_readme_cli_command_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv[1:] + ["--ledger", str(tmp_path / "runs.jsonl")]) == 0, capsys.readouterr().err


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(_block("Library quick start", "python"), "README quick start", "exec"), {})
