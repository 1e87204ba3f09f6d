"""The README's Python examples run as written, and its CLI usage matches the parser."""

import argparse
import re
from pathlib import Path

from afmcavity.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), {})


def test_cli_usage_block_matches_parser():
    # the first fenced block under "## Command line": one "afmcavity COMMAND" line per
    # command, whose indented continuation lines list more of its flags
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```", section, re.S | re.M).group(1)
    documented = {}
    for line in block.splitlines():
        if line.startswith("afmcavity "):
            flags = documented.setdefault(line.split()[1], set())
        flags.update(re.findall(r"--[a-z][a-z-]*", line))
    (commands,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {
        name: {s for a in sub._actions for s in a.option_strings if s.startswith("--")} - {"--help"}
        for name, sub in commands.choices.items()
    }
    assert documented == parsed
