"""CLI layout: the model catalogue and the method table, not cli.py, hold
the model and method facts.

cli.py names no model or method and declares no model parameter's default,
so a model added to the catalogue or a row added to the table needs no edit
here.
"""
import argparse
import ast
from pathlib import Path

from semiwkb.cli import _PARSER
from semiwkb.experiments import METHODS, _MODELS

CLI = Path(__file__).resolve().parents[1] / "src" / "semiwkb" / "cli.py"


def _literal_comparisons(attr) -> list:
    """The comparisons in cli.py of args.<attr> with a literal."""
    def is_args_attr(node):
        return (isinstance(node, ast.Attribute) and node.attr == attr
                and isinstance(node.value, ast.Name) and node.value.id == "args")

    found = []
    for node in ast.walk(ast.parse(CLI.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(map(is_args_attr, sides)) and any(
                    isinstance(s, (ast.Constant, ast.Tuple, ast.List, ast.Set)) for s in sides):
                found.append(f"cli.py:{node.lineno}: {ast.unparse(node)}")
    return found


def _commands() -> dict:
    return next(a for a in _PARSER._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_cli_compares_no_model_with_a_literal():
    assert _literal_comparisons("model") == []


def test_cli_compares_no_method_with_a_literal():
    assert _literal_comparisons("method") == []
    method = next(a for a in _commands()["propagate"]._actions if a.dest == "method")
    assert tuple(method.choices) == tuple(METHODS)


def test_every_model_parameter_flag_defaults_to_none():
    params = {key for defaults, _ in _MODELS.values() for key in defaults}
    checked = 0
    for name, parser in _commands().items():
        flags = {a.dest: a for a in parser._actions}
        if "model" not in flags:
            continue
        assert params <= set(flags), f"{name} lacks a flag for {params - set(flags)}"
        for key in params:
            assert flags[key].default is None, f"{name} --{key} defaults to {flags[key].default}"
            checked += 1
    assert checked == 4 * len(params)  # propagate, exact, manifold, lyapunov
