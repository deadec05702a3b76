"""Every `oockit ...` command of the README's command-line block runs clean.

A line of the form `oockit A | oockit verify -` feeds the stdout of A to
`verify -` on stdin; every command must exit 0.  The library example runs
and prints the leave it shows.  The exit-code sentence
names every code `main` can return, and the family table names the CLI
families and the explicit code ids.
"""

import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

from oockit.cli import EXIT_OK, EXIT_VERIFY_FAIL, FAILURES, FAMILIES, main
from oockit.construct import EXPLICIT_IDS

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_lines() -> list[str]:
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("oockit ")]


def _run(command: str, stdin: str) -> tuple[int, str]:
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = main(command.split()[1:])
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def test_library_example_prints_the_row_0_leave():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library example\n.*?```python\n(.*?)```", text, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue() == "frozenset({1, 33, 3, 35, 5, 37, 7, 39, 9, 15, 25, 31})\n"


def test_exit_code_contract_names_every_code_main_returns():
    text = README.read_text(encoding="utf-8")
    sentence = re.search(r"Exit codes: (.*?\.)\s", text, re.S).group(1)
    named = {int(code) for code in re.findall(r"`(\d+)`", sentence)}
    assert named == {EXIT_OK, EXIT_VERIFY_FAIL, *(code for code, _ in FAILURES.values())}


def test_the_block_is_found():
    assert len(_cli_lines()) >= 5


@pytest.mark.parametrize("line", _cli_lines())
def test_readme_command_exits_0(line):
    piped = ""
    for command in line.split(" | "):
        code, piped = _run(command, piped)
        assert code == 0, command


def test_family_table_matches_the_cli_and_the_explicit_ids():
    text = README.read_text(encoding="utf-8")
    rows = re.search(r"\| family \| parameters \| output \|\n(?:\|.*\n)+", text).group(0)
    assert re.findall(r"^\| `([^`]+)` \|", rows, re.M) == list(FAMILIES)
    assert tuple(re.search(r"--id \{([^}]*)\}", rows).group(1).split(",")) == EXPLICIT_IDS
    lengths = re.search(r"m in \{([^}]*)\} is an explicit code", rows).group(1)
    assert [f"3x{m}" for m in lengths.split(", ")] == [i for i in EXPLICIT_IDS if i[:2] == "3x"]
