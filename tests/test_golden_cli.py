"""Every CLI call recorded in golden_cli.json (written by golden_cli_make.py)
must give the same exit code, stdout and stderr, byte for byte."""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

from nonarch.cli import run

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json"),
          encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)


@pytest.fixture
def paths(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to this width
    out = {"missing": str(tmp_path / "missing.json")}
    for name, doc in GOLDEN["files"].items():
        path = tmp_path / (name + ".json")
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        out[name] = str(path)
    return out


@pytest.mark.parametrize("call", GOLDEN["calls"], ids=lambda c: " ".join(c["argv"][:3]))
def test_cli_bytes_match_the_recording(call, paths, tmp_path):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run([a.format(**paths) for a in call["argv"]])
    directory = str(tmp_path)
    got = (code, out.getvalue().replace(directory, "{dir}"), err.getvalue().replace(directory, "{dir}"))
    assert got == (call["exit"], call["stdout"], call["stderr"])
