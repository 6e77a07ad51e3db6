"""Every demo under demos/ must print the stdout recorded in
golden_demos.json, byte for byte.  The demos render field elements and
Laurent polynomials (such as ``(pi + pi^3)/(1 + pi)``) that no CLI golden
prints.

    PYTHONPATH=src python tests/test_golden_demos.py

rewrites the recording from the demos as they run now; do that only at a
commit whose output is trusted."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")
RECORDING = os.path.join(ROOT, "tests", "golden_demos.json")


def _run(name: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, name)], env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode:
        raise RuntimeError(f"{name} exited with {proc.returncode}: {proc.stderr}")
    return proc.stdout


def _names():
    return sorted(f for f in os.listdir(DEMOS) if f.endswith(".py"))


with open(RECORDING, encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)


def test_every_demo_is_recorded():
    assert sorted(GOLDEN) == _names()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_demo_output_matches_the_recording(name):
    assert _run(name) == GOLDEN[name]


if __name__ == "__main__":
    with open(RECORDING, "w", encoding="utf-8") as handle:
        json.dump({name: _run(name) for name in _names()}, handle, indent=1)
        handle.write("\n")
