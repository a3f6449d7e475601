"""The README's examples, run as written: every command line with a
``# -> output`` comment prints that output, and the library sketch's
comment states what its first line returns."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from shufbij.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(after: str, fence: str) -> str:
    """The first ``fence`` code block after the heading ``after``."""
    start = README.index(f"```{fence}\n", README.index(after)) + len(fence) + 4
    return README[start:README.index("```", start)]


COMMANDS = _block("## Command line", "sh").splitlines()
SHOWN = [re.fullmatch(r"shufbij (.*?)\s+# -> (.*)", line) for line in COMMANDS]
SHOWN = [(shlex.split(found[1]), found[2]) for found in SHOWN if found]


def run_cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_readme_command_block_shows_outputs():
    assert SHOWN


@pytest.mark.parametrize("argv, shown", SHOWN, ids=[" ".join(argv) for argv, _ in SHOWN])
def test_readme_command_prints_its_shown_output(capsys, argv, shown):
    assert run_cli(capsys, argv) == (0, shown + "\n")


def test_readme_shuffles_streams_ten_interleavings(capsys):
    code, out = run_cli(capsys, ["shuffles", "1,3,2", "7,6"])
    assert code == 0 and len(out.splitlines()) == 10


def test_readme_full_mode_inv_fails(capsys):
    code, out = run_cli(capsys, ["verify", "inv", "--m", "2", "--n", "1", "--mode", "full"])
    assert code == 1 and "witness" in out


def test_readme_library_sketch_runs_as_commented():
    sketch = _block("## Library sketch", "python")
    namespace = {}
    exec(compile(sketch, "README.md", "exec"), namespace)
    comment = re.search(r"# (\(.*)", sketch)[1]
    assert (namespace["npi"], namespace["nsg"]) == ast.literal_eval(comment)
    assert len(namespace["images"]) == 10
