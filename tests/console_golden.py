"""Run one call recorded in golden_cli.json through the installed console
script, so that it goes through main() and a real sys.argv, and compare
its stdout and exit code with the recording.

    python tests/console_golden.py [--call INDEX] [command ...]

The command defaults to ``nonarch``, the script ``pip install .`` puts on
PATH.  The default call is eval-norm with a chart and --epsilon: it reads
two JSON files, parses their expressions and renders an approximate value.
Exits 0 on a match and 1, with both sides printed, otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv) -> int:
    index = 4
    if argv[:1] == ["--call"]:
        index, argv = int(argv[1]), argv[2:]
    command = argv or ["nonarch"]
    with open(os.path.join(HERE, "golden_cli.json"), encoding="utf-8") as handle:
        golden = json.load(handle)
    call = golden["calls"][index]
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"missing": os.path.join(tmp, "missing.json")}
        for name, doc in golden["files"].items():
            paths[name] = os.path.join(tmp, name + ".json")
            with open(paths[name], "w", encoding="utf-8") as handle:
                handle.write(doc if isinstance(doc, str) else json.dumps(doc))
        args = [a.format(**paths) for a in call["argv"]]
        proc = subprocess.run(command + args, capture_output=True, text=True, timeout=120)
    print("call:", " ".join(call["argv"]))
    got, want = (proc.returncode, proc.stdout), (call["exit"], call["stdout"])
    if got != want:
        print(f"recorded: exit {want[0]}, stdout {want[1]!r}\n"
              f"got:      exit {got[0]}, stdout {got[1]!r}, stderr {proc.stderr!r}")
        return 1
    print(f"exit {got[0]}, stdout matches the recording")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
