"""Every ``nvalue`` line of README's CLI block runs, and prints what the
full-line comments directly under it show.

Comment i is compared with line i of the command's stdout, ignoring
whitespace. A comment ending in ``...`` is compared as a prefix, and a bare
``# ...`` ends the comparison.
"""

import re
import shlex
from pathlib import Path

import pytest

from nvalue.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    """(argv, comment lines) for each command of the CLI block, in order."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    examples, comments = [], None
    for line in block.splitlines():
        if line.startswith("nvalue "):
            comments = []
            examples.append((shlex.split(line, comments=True)[1:], comments))
        elif line.startswith("#") and comments is not None:
            comments.append(line[1:])
        else:
            comments = None
    return examples


EXAMPLES = _examples()


def _squash(s):
    return "".join(s.split())


def test_block_has_commented_examples():
    assert len(EXAMPLES) >= 5
    assert any(comments for _, comments in EXAMPLES)


@pytest.mark.parametrize("argv, comments", EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_example(argv, comments, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    for i, comment in enumerate(comments):
        want = _squash(comment)
        if want == "...":
            break
        assert i < len(lines), f"stdout ends before comment {i}: {comment}"
        got = _squash(lines[i])
        if want.endswith("..."):
            assert got.startswith(want[:-3]), (got, comment)
        else:
            assert got == want, (got, comment)
