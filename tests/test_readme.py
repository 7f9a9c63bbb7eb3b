"""The README's Python examples run as written, and its run configuration
and command lines parse."""

import json
import re
import shlex
from pathlib import Path

from icdms import cli

README = Path(__file__).resolve().parents[1] / "README.md"

#: ```json blocks that are not run configurations, by the heading above them:
#: the distribution example elides its larger tables as ``[...]``.
NOT_A_CONFIG = {"Factored distribution files (JSON)"}


def test_readme_python_blocks_run():
    # Every ```python block, in order, each in a fresh namespace, under the
    # suite's warnings-as-errors.
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for index, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {index}", "exec"), {"__name__": "readme"})


def test_readme_run_configurations_parse():
    # Each ```json block goes through the parser that `region --config` uses,
    # so that a documented config cannot drift from it.
    text = README.read_text(encoding="utf-8")
    overrides = cli.build_parser().parse_args(["region", "--config", "unused.json"])
    headings = set()
    for block in re.finditer(r"^```json\n(.*?)^```", text, re.M | re.S):
        heading = re.findall(r"^#+ (.*)$", text[: block.start()], re.M)[-1]
        headings.add(heading)
        if heading not in NOT_A_CONFIG:
            cli.config_from_doc(json.loads(block[1]), block[1], overrides)
    assert headings - NOT_A_CONFIG == {"Run configuration (JSON)"}


def test_readme_command_lines_parse():
    # Each `icdms ...` line of a ```sh block goes through the CLI's parser, so
    # that a documented flag cannot drift from it.  argparse exits on an
    # unknown command or flag.
    text = README.read_text(encoding="utf-8")
    parser = cli.build_parser()
    commands = set()
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["icdms"]:
                commands.add(parser.parse_args(words[1:]).command)
    assert commands == {"figure", "region", "discrete", "dpc-lambda", "oracle-check"}
