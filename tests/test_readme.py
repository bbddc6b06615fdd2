"""README.md stays true: its CLI transcripts and its library example run."""

import argparse
import dataclasses
import re
import shlex
from pathlib import Path

import pytest

import aockit
from aockit.cli import _build_parser, main
from aockit.timing import PhyProfile

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)
TRANSCRIPTS = [body for lang, body in BLOCKS if body.startswith("$ aockit ")]
LIBRARY = next(body for lang, body in BLOCKS if lang == "python")


def test_readme_has_transcripts_for_every_subcommand():
    commands = {shlex.split(body.splitlines()[0])[2] for body in TRANSCRIPTS}
    assert commands == {"theory", "simulate", "sweep", "orders", "timing"}


@pytest.mark.parametrize("body", TRANSCRIPTS, ids=lambda b: b.splitlines()[0][2:])
def test_transcript(body, capsys):
    """A transcript's output lines are the command's stdout; a final
    `...` line makes them a prefix of it."""
    command, *lines = body.splitlines()
    code = main(shlex.split(command)[2:])
    out = capsys.readouterr().out
    assert code == 0
    if lines[-1] == "...":
        assert out.startswith("\n".join(lines[:-1]) + "\n")
    else:
        assert out == "\n".join(lines) + "\n"


def test_library_example_runs():
    namespace = {}
    exec(compile(LIBRARY, "README.md", "exec"), namespace)
    assert namespace["res"].ci_halfwidth > 0.0


def test_package_exports_the_library_example_and_its_types():
    imported = re.search(r"from aockit import \((.*?)\)", LIBRARY, flags=re.S).group(1)
    names = {name.strip() for name in imported.split(",") if name.strip()}
    types = {"PerVector", "TimingModel", "SimResult"}
    assert set(aockit.__all__) == names | types | {"__version__"}
    for name in aockit.__all__:
        assert hasattr(aockit, name)


def test_timing_flags_match_the_cli_and_the_profile():
    """README's `timing` flag list is the timing subparser's PHY options,
    and those options set exactly PhyProfile's fields."""
    listed = re.search(r"Flags override any default PHY parameter \((.*?)\)", README,
                       flags=re.S).group(1)
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    phy_options = [a for a in sub.choices["timing"]._actions
                   if a.dest not in ("help", "out")]
    assert re.findall(r"`(--[\w-]+)`", listed) == \
        [opt for a in phy_options for opt in a.option_strings]
    assert {a.dest for a in phy_options} == \
        {field.name for field in dataclasses.fields(PhyProfile)}
