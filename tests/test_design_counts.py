"""The design counts ROADMAP tracks: names the package exports and values the
CLI lets a user set.  A change that adds or removes one changes this file."""

import argparse
import types

import rhochart
from rhochart.cli import build_parser


def exported_names():
    """``__all__``: the package loads a name's home module on first use, so ``vars``
    holds only the names already used."""
    return sorted(rhochart.__all__)


def settable_values():
    """(subcommand, option) for every option a subcommand registers, help aside."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (command, action.option_strings[0])
        for command, parser in sub.choices.items()
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
    ]


def test_the_package_exports_40_names():
    names = exported_names()
    assert len(names) == len(set(names)) == 40, names
    modules = [name for name in names if isinstance(getattr(rhochart, name), types.ModuleType)]
    assert modules == [], modules


def test_the_cli_has_21_settable_values():
    values = settable_values()
    assert len(values) == 21, values
