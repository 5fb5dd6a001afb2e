"""README's examples run: every command line and the library quick start."""

import re
import shlex
from pathlib import Path

from dichotomy.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def block_after(heading: str) -> str:
    """The first fenced block after ``heading``."""
    return re.search(re.escape(heading) + r"\n.*?```\w*\n(.*?)```", README, re.S).group(1)


def command_lines() -> list[list[str]]:
    """The ``dichotomy`` lines of the command-line block, continuation lines
    joined, as argument lists without the program name."""
    text = block_after("## Command line").replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("dichotomy ")]


def test_command_lines_run_with_their_exit_statuses(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a --csv path lands here too
    statuses = [main([*argv, "--report", str(tmp_path / f"report{i}.json")])
                for i, argv in enumerate(command_lines())]
    assert statuses == [0, 0, 1, 0, 1, 0, 0]
    assert len(list(tmp_path.glob("report*.json"))) == len(statuses)


def test_library_quick_start_runs():
    exec(compile(block_after("## Library quick start"), "README quick start", "exec"), {})
