"""The README's Python examples run as written and its shell recipes parse,
so a name or flag they use cannot outlive the code."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from pcnsim.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[str]:
    """Every ``pcnsim`` line of the README's ``sh`` blocks, continuation
    lines joined and comments dropped."""
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    commands = (line.split("#", 1)[0].strip() for line in lines)
    return [command for command in commands if command.startswith("pcnsim ")]


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), {})


def test_readme_shell_commands_parse():
    # parsing runs no command; a renamed or removed flag exits with usage
    commands = readme_commands()
    assert len(commands) == 11
    for command in commands:
        argv = shlex.split(command)[1:]
        assert build_parser().parse_args(argv).cmd == argv[0], command


def test_readme_couple_check_recipe_passes(capsys):
    # the one recipe that needs no input file
    recipe = next(command for command in readme_commands() if " couple-check " in command)
    assert main(shlex.split(recipe)[1:]) == 0
    assert "PASS: tau1 == tau2 in all 100 coupled runs" in capsys.readouterr().out
