"""README's examples stay runnable: the Library example executes, and the
CLI block names every leaf command of the command-line tree."""

import re
from pathlib import Path

import click

from scrubsim.cli import main

README = Path(__file__).parent.parent / "README.md"


def section(heading: str) -> str:
    """README's text from the `## heading` line up to the next `## `."""
    text = README.read_text()
    start = text.index(f"\n## {heading}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end == -1 else text[start:end]


def code_blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.MULTILINE | re.DOTALL)


def leaf_commands(group: click.Group, path: tuple[str, ...] = ()) -> list[str]:
    """Every command below `group` that is not itself a group, as the words
    after `scrubsim`."""
    leaves = []
    for name, cmd in group.commands.items():
        if isinstance(cmd, click.Group):
            leaves += leaf_commands(cmd, (*path, name))
        else:
            leaves.append(" ".join((*path, name)))
    return leaves


def test_library_example_runs():
    blocks = code_blocks(section("Library"), "python")
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_library"})


def test_cli_block_lists_every_command():
    block = "\n".join(code_blocks(section("CLI"), "sh"))
    leaves = leaf_commands(main)
    assert len(leaves) >= 10
    missing = [cmd for cmd in leaves
               if not re.search(rf"^scrubsim {re.escape(cmd)}( |$)", block, re.MULTILINE)]
    assert missing == []
