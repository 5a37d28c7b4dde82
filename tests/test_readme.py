"""The ``$ softcsp ...`` examples of README.md, run through ``cli.run``.

An example is a command line (``\\`` continuations joined, ``#`` comments
dropped) and the lines shown under it, up to the next command or the end
of its code block.  The shown lines must equal the output; a ``...`` line
stands for the elided middle, so the lines before it must start the output
and the lines after it end it.  Every example must exit 0.

Each ``python`` code block is run too, from the repository root.  The
comment lines that close a block show what it prints, one line each.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from softcsp.cli import run

ROOT = Path(__file__).resolve().parent.parent


def readme_examples(text):
    """(argv, shown lines) for each ``$ softcsp`` command of ``text``."""
    examples, current, in_block = [], None, False
    lines = iter(text.splitlines())
    for line in lines:
        if line.startswith("```"):
            in_block, current = not in_block, None
        elif in_block and line.startswith("$ softcsp "):
            while line.endswith("\\"):
                line = line[:-1] + next(lines)
            current = []
            examples.append((shlex.split(line[2:], comments=True)[1:],
                             current))
        elif current is not None:
            current.append(line)
    return examples


def python_blocks(text):
    """The source of each ``python`` code block of ``text``."""
    return re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)


README = (ROOT / "README.md").read_text(encoding="utf-8")
EXAMPLES = readme_examples(README)
PYTHON_BLOCKS = python_blocks(README)


def test_readme_has_examples():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("argv, shown", EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_readme_example(monkeypatch, argv, shown):
    monkeypatch.chdir(ROOT)
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, out=out, err=err) == 0, err.getvalue()
    output = out.getvalue().splitlines()
    if "..." in shown:
        cut = shown.index("...")
        head, tail = shown[:cut], shown[cut + 1:]
        assert len(output) >= len(head) + len(tail)
        assert output[:len(head)] == head
        assert output[len(output) - len(tail):] == tail
    elif shown:
        assert output == shown


def test_readme_has_a_python_block():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("source", PYTHON_BLOCKS,
                         ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))])
def test_readme_python_block(monkeypatch, source):
    monkeypatch.chdir(ROOT)
    lines = source.splitlines()
    shown = []
    while lines and lines[-1].startswith("# "):
        shown.insert(0, lines.pop()[2:])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == shown
