"""The README "Command line" examples against their recorded outputs.

Every `isoparam ...` line of that README section is rerun in process and
compared with its output recorded in data/readme_cli.json.  JSON output is
compared as parsed JSON, which must be strict (no NaN or Infinity), table
output token by token: strings, integers, booleans and the structure must
be equal, floats agree within 1e-12 relative.  The `w.json` of the examples is the file written by
`random_subspace(2, 1, seed=3).to_json()`.

Re-record (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_readme_cli.py --record
"""

import contextlib
import io
import json
import math
import pathlib
import re
import shlex
import sys

import pytest

from isoparam import random_subspace
from isoparam.cli import run

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORD = pathlib.Path(__file__).resolve().parent / "data" / "readme_cli.json"
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
REL_TOL = 1e-12


def readme_commands() -> list[str]:
    """The `isoparam` lines of the first sh block under "## Command line"."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [ln.strip() for ln in block.splitlines() if ln.strip().startswith("isoparam ")]


def run_example(command: str, subspace_file: str) -> tuple[int, str]:
    argv = [subspace_file if a == "w.json" else a for a in shlex.split(command)[1:]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return code, out.getvalue()


def _number(token: str):
    return float(token) if any(ch in token for ch in ".eE") else int(token)


def strict_json(text: str):
    """json.loads that also rejects NaN, Infinity and -Infinity, which
    Python's json module writes but JSON does not have."""

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


def parse(text: str):
    """JSON output as parsed strict JSON; a table as its lines, each split
    into the text between numbers and the numbers (int or float)."""
    try:
        return strict_json(text)
    except json.JSONDecodeError:
        return [
            (NUMBER.split(line), [_number(tok) for tok in NUMBER.findall(line)])
            for line in text.splitlines()
        ]


def assert_same(got, want, path="$"):
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0), (path, got, want)
        return
    assert type(got) is type(want), (path, got, want)
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), (path, sorted(got), sorted(want))
        for key in want:
            assert_same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), (path, got, want)
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{path}[{i}]")
    else:
        assert got == want, (path, got, want)


@pytest.fixture(scope="module")
def recorded():
    return {rec["command"]: rec for rec in json.loads(RECORD.read_text())}


@pytest.fixture
def subspace_file(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(random_subspace(2, 1, seed=3).to_json())
    return str(path)


def test_every_readme_example_is_recorded(recorded):
    assert readme_commands() == list(recorded)


@pytest.mark.parametrize("command", readme_commands())
def test_readme_example_output(command, recorded, subspace_file):
    code, out = run_example(command, subspace_file)
    assert code == recorded[command]["exit_code"]
    assert_same(parse(out), parse(recorded[command]["stdout"]))


def _record():
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "w.json"
        path.write_text(random_subspace(2, 1, seed=3).to_json())
        records = [
            dict(zip(("command", "exit_code", "stdout"), (cmd, *run_example(cmd, str(path)))))
            for cmd in readme_commands()
        ]
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(json.dumps(records, indent=1) + "\n")
    print(f"recorded {len(records)} examples in {RECORD}")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    _record()
