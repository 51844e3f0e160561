"""The CLI's option table: pinned flag sets, flag/config-file parity, README recipes."""

from __future__ import annotations

import argparse
import re
import shlex
from pathlib import Path

import pytest

from pcnsim.cli import build_parser, read_recipe_file

from test_readme import readme_commands

README = Path(__file__).resolve().parent.parent / "README.md"

_SEEDED = {"--seed", "--max-steps"}
_BALANCE = {"--balance", "--capacity", "--capacity-is-total"}

FLAGS = {
    "simulate": _SEEDED | _BALANCE | {
        "--config", "--out", "--topology", "--nodes", "--snapshot", "--graph", "--plan",
        "--amount", "--amounts", "--stop", "--runs", "--workers", "--p-select"},
    "sweep": _SEEDED | {
        "--config", "--out", "--topology", "--nodes", "--k-from", "--k-to", "--k-step",
        "--runs-per-point", "--amount", "--stop", "--horizon", "--workers", "--p-select"},
    "betweenness": {"--config", "--out", "--graph", "--snapshot", "--plan"},
    "redistribute": {"--config", "--out", "--graph", "--snapshot", "--strategy"},
    "couple-check": _SEEDED | _BALANCE | {"--config", "--nodes", "--seeds"},
    "fit": _BALANCE | {"--config", "--points", "--model"},
}

# a value each key parses; keys not listed take "3"
_SAMPLES = {"topology": "ring", "stop": "attempt", "strategy": "xi", "model": "lower",
            "p_select": "0.25", "capacity_is_total": "yes"}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _recipe_keys(command: str) -> list[str]:
    """Config-file keys of a command: its flags less --config, the one that is no recipe key."""
    return sorted(flag[2:].replace("-", "_") for flag in FLAGS[command] - {"--config"})


def test_flag_sets_are_pinned():
    assert [len(FLAGS[c]) for c in FLAGS] == [18, 15, 5, 5, 8, 6]
    parsers = _subparsers()
    assert set(parsers) == set(FLAGS)
    for command, parser in parsers.items():
        flags = {flag for action in parser._actions for flag in action.option_strings}
        assert flags - {"-h", "--help"} == FLAGS[command], command


def test_no_flag_is_hidden():
    # a flag left out of --help would be a setting no user is told of
    for command, parser in [("pcnsim", build_parser()), *_subparsers().items()]:
        hidden = [action.dest for action in parser._actions if action.help == argparse.SUPPRESS]
        assert hidden == [], command


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_every_flag_loads_from_a_config_file(tmp_path, command):
    parser = build_parser()
    for key in _recipe_keys(command):
        text = _SAMPLES.get(key, "3")
        recipe = tmp_path / f"{command}-{key}.cfg"
        recipe.write_text(f"{key} = {text}\n")
        loaded = read_recipe_file(recipe, command)
        flag = "--" + key.replace("_", "-")
        argv = [command, flag] if key == "capacity_is_total" else [command, flag, text]
        assert loaded == {key: getattr(parser.parse_args(argv), key)}, key


def _readme_block(heading: str) -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index(heading):]
    return re.search(r"```[a-z]*\n(.*?)```", section, re.S).group(1)


def test_readme_has_a_recipe_for_every_command():
    commands = {shlex.split(recipe)[1] for recipe in readme_commands()}
    assert commands == set(FLAGS)


@pytest.mark.parametrize("recipe", readme_commands())
def test_readme_recipe_parses(recipe):
    argv = shlex.split(recipe)[1:]
    args = build_parser().parse_args(argv)
    assert args.cmd == argv[0]


def test_readme_config_example_loads(tmp_path):
    recipe = tmp_path / "recipe.cfg"
    recipe.write_text(_readme_block("### Config files and precedence"))
    assert read_recipe_file(recipe, "simulate") == {
        "topology": "clique", "nodes": 100, "balance": 16, "runs": 10, "seed": 7}
