"""CLI layout: the model catalogue, not cli.py, holds the model facts.

cli.py names no model and declares no model parameter's default, so a model
added to the catalogue needs no edit here.
"""
import argparse
import ast
from pathlib import Path

from semiwkb.cli import _PARSER
from semiwkb.experiments import _MODELS

CLI = Path(__file__).resolve().parents[1] / "src" / "semiwkb" / "cli.py"


def _is_args_model(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "model"
            and isinstance(node.value, ast.Name) and node.value.id == "args")


def test_cli_compares_no_model_with_a_literal():
    found = []
    for node in ast.walk(ast.parse(CLI.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(map(_is_args_model, sides)) and any(
                    isinstance(s, (ast.Constant, ast.Tuple, ast.List, ast.Set)) for s in sides):
                found.append(f"cli.py:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_every_model_parameter_flag_defaults_to_none():
    params = {key for defaults, _ in _MODELS.values() for key in defaults}
    commands = next(a for a in _PARSER._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    checked = 0
    for name, parser in commands.items():
        flags = {a.dest: a for a in parser._actions}
        if "model" not in flags:
            continue
        assert params <= set(flags), f"{name} lacks a flag for {params - set(flags)}"
        for key in params:
            assert flags[key].default is None, f"{name} --{key} defaults to {flags[key].default}"
            checked += 1
    assert checked == 4 * len(params)  # propagate, exact, manifold, lyapunov
