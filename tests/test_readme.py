"""The README's commands are ones `parl` accepts."""

import re
import shlex
from pathlib import Path

from parl import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _parl_lines(text):
    """Every line of the text's fenced code blocks that runs `parl`."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)
    lines = (line.strip() for block in blocks for line in block.splitlines())
    return [line for line in lines if line.startswith("parl ")]


def test_every_parl_line_in_the_readme_parses():
    lines = _parl_lines(README.read_text(encoding="utf-8"))
    assert lines
    parser = cli.build_parser()
    for line in lines:
        argv = shlex.split(line)[1:]
        args = parser.parse_args(argv)  # a usage error exits 3
        assert callable(args.func), line
        # main parses with the named command's parser alone; it must agree.
        full = {key: value for key, value in vars(args).items() if key != "command"}
        assert vars(cli.parse_args(argv)) == full, line
