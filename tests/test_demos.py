import argparse
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from bayesmc.cli import _build_parser, main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def test_demos_found():
    assert DEMOS, "no demos/*.py next to tests/"


def readme_quick_start():
    """The README's first python block, the library quick start."""
    return README.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("demo", DEMOS + [README], ids=lambda p: p.stem)
def test_demo_runs(demo):
    argv = ["-c", readme_quick_start()] if demo == README else [str(demo)]
    out = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr


def readme_cli_lines():
    """The argv of each `bayesmc ...` line of README's sh blocks."""
    blocks = README.read_text(encoding="utf-8").split("```sh\n")[1:]
    lines = [line for block in blocks for line in block.split("```", 1)[0].splitlines()]
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("bayesmc ")]


def test_readme_cli_lines_found():
    assert len(readme_cli_lines()) >= 5


@pytest.mark.parametrize("argv", readme_cli_lines(), ids=lambda argv: argv[0])
def test_readme_cli_line_runs(argv, tmp_path, monkeypatch):
    # relative --out paths land in tmp_path, and so does every other output
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("BAYESMC_OUT", str(tmp_path / "out"))
    assert main(argv) == 0


#: A value each option of README's option table parses to unchanged.
OPTION_VALUES = {"--source": "even", "--seed": "7", "--n-start": "100", "--n-stop": "200",
                 "--n-step": "10", "--input": "seq.txt", "--csv-column": "x",
                 "--mode": "sample", "--k-min": "1", "--k-max": "2", "--fake-counts": "f.csv",
                 "--alpha": "2.5", "--format": "json", "--jobs": "3", "--confidence": "0.9",
                 "--density-points": "8", "--figure": "4", "--out": "o"}


def readme_option_table():
    """{(command, option): ticked} for every command and option of README's
    `| Option | infer | compare, entropy | simulate | reproduce |` table."""
    head = "| Option | infer | compare, entropy | simulate | reproduce |"
    text = README.read_text(encoding="utf-8").split(head + "\n", 1)[1]
    columns = [cell.strip().split(", ") for cell in head.strip("|").split("|")[1:]]
    table = {}
    for row in text.split("\n\n", 1)[0].splitlines()[1:]:  # after the |---| line
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        for option in re.findall(r"`(--[a-z-]+)`", cells[0]):
            for commands, tick in zip(columns, cells[1:]):
                table.update({(command, option): tick.startswith("✓") for command in commands})
    return table


def test_readme_option_table_is_the_parser(tmp_path, capsys):
    table = readme_option_table()
    commands = {command for command, _ in table}
    assert len(commands) == 5 and len(table) == 5 * 18
    assert sum(table.values()) == 58  # the CLI's settable values
    parser = _build_parser()
    for (command, option), ticked in table.items():
        figure = ["--figure", "3"] if command == "reproduce" and option != "--figure" else []
        argv = [command, *figure, option, OPTION_VALUES[option]]
        if ticked:
            args = parser.parse_args(argv)
            assert str(getattr(args, option[2:].replace("-", "_"))) == OPTION_VALUES[option]
        else:
            assert main(argv + ["--out", str(tmp_path / "out")]) == 2, argv
            assert capsys.readouterr().err.startswith(
                "error code=2 message=unrecognized arguments: "), argv
    # and the parser has no option the table leaves out
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == commands
    for command, command_parser in sub.choices.items():
        flags = {flag for action in command_parser._actions for flag in action.option_strings}
        assert flags - {"-h", "--help"} == {o for (c, o), ticked in table.items()
                                            if c == command and ticked}
    assert not (tmp_path / "out").exists()


def test_unknown_figure_names_the_choices(capsys):
    assert main(["reproduce", "--figure", "99"]) == 2
    assert capsys.readouterr().err == ("error code=2 message=argument --figure: invalid choice: "
                                       "99 (choose from 2, 3, 4, 5, 6, 7, 8, 9, 10)\n")
