"""Write tests/golden_cli.json: recorded (exit code, stdout, stderr) of
about forty nonarch CLI calls over all eleven subcommands and the four
CLI fields, well-formed and malformed.

    PYTHONPATH=src python tests/golden_cli_make.py

Run it only at a commit whose CLI bytes are trusted: test_golden_cli.py
then holds every later commit to exactly these bytes.  Input documents
are written to a temporary directory; its path appears in the recorded
output as {dir}, and each call's argv names a document as {name}.
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

FILES = {
    "form1": {"l": 1, "m": 1, "entries": [{"e": [[1]], "coeff": "t1 + 1"}]},
    "form1_pi": {"l": 1, "m": 1, "entries": [{"e": [[1]], "coeff": "pi*t1^-1 + 3*t1^2"}]},
    "form2_pi": {"n": 2, "l": 2, "m": 1,
                 "entries": [{"e": [[1, 2]], "coeff": "t1 + pi*t2^2 + pi^2*t1^-1*t2"}]},
    "form2_int": {"n": 2, "l": 2, "m": 1,
                  "entries": [{"e": [[1, 2]], "coeff": "2*t1 + 4*t2^2 + t1*t2"}]},
    "form2_m2": {"n": 2, "l": 1, "m": 2,
                 "entries": [{"e": [[1], [2]], "coeff": "t1 + t2"},
                             {"e": [[2], [2]], "coeff": "3*t1*t2"}]},
    "chart_translated": {"substitutions": ["1 + s1", "s2"]},
    "chart_monomial": {"substitutions": ["s1*s2", "s2"]},
    "chart_square": {"substitutions": ["s1^2", "s2"]},
    "chart_mixed": {"substitutions": ["s1 + s1^2*s2", "s2 - s1*s2"]},
    "chart1_cube": {"substitutions": ["s1^3"]},
    "mat_int": {"entries": [["2", "1", "6"], ["4", "8", "0"], ["0", "3", "12"]]},
    "mat_pi": {"entries": [["pi", "1 + pi"], ["pi^2", "pi^3"], ["0", "pi"]]},
    "mat_frac": {"entries": [["1/3", "2"], ["6", "9/4"]]},
    "mat_singular": {"entries": [["2", "4"], ["1", "2"]]},
    "laurent_2x2": {"nvars": 2, "entries": [["t1 + pi*t2", "t2^2"], ["pi*t1*t2", "t1^2 + t2"]]},
    "laurent_3x3": {"nvars": 2, "entries": [
        ["t1 + pi", "t2", "pi*t1*t2"],
        ["t2^2", "pi^2 + t1*t2", "t1"],
        ["pi*t1", "t1^2", "t2 + pi*t1"]]},
    "laurent_rank1": {"nvars": 2, "entries": [["t1", "t1*t2"], ["pi*t1", "pi*t1*t2"]]},
    "laurent_int": {"nvars": 1, "entries": [["t1 + 2", "4"], ["2*t1", "t1^2"]]},
    "index_pi": {"M": [["pi", "0"], ["0", "pi^2"]], "L": [["1", "pi"], ["0", "1"]]},
    "index_laurent": {"nvars": 2, "M": [["t1", "t2"], ["pi", "t1*t2"]],
                      "L": [["1", "0"], ["0", "1"]]},
    "adic_doc": {"divisors": ["1", "2"], "free_rank": 1, "coords": ["4", "2", "8"]},
    "box": {"n": 2, "constraints": [{"a": ["-1", "0"], "b": "0"}, {"a": ["0", "-1"], "b": "0"},
                                    {"a": ["1", "0"], "b": "1"}, {"a": ["0", "1"], "b": "3/2"}]},
    "g_doc": {"g": "t1 + s1"},
    "bad_json": "{\"l\": 1,",
    "bad_expr": {"l": 1, "m": 1, "entries": [{"e": [[1]], "coeff": "3*t1^"}]},
    "neg_entry": {"entries": [["pi^-1"]]},
}

CALLS = [
    # eval-norm over every field, with and without charts
    ["eval-norm", "--field", "piadic-q", "--n", "1", "--point", "1/2", "--form", "{form1_pi}"],
    ["eval-norm", "--field", "trivial", "--n", "2", "--point", "1,2", "--form", "{form2_int}"],
    ["eval-norm", "--field", "padic:2", "--n", "2", "--point", "1/3,1/2", "--form", "{form2_int}",
     "--chart", "{chart_square}"],
    ["eval-norm", "--field", "piadic-f3", "--n", "2", "--point", "1,1", "--form", "{form2_pi}",
     "--chart", "{chart_mixed}"],
    ["eval-norm", "--field", "piadic-q", "--n", "2", "--point", "1/2,1/3", "--form", "{form2_m2}",
     "--chart", "{chart_translated}", "--epsilon", "1/3"],
    # trop and max-locus
    ["trop", "--field", "piadic-q", "--form", "{form2_pi}"],
    ["trop", "--field", "padic:3", "--form", "{form2_m2}"],
    ["max-locus", "--field", "piadic-q", "--semistable", "2,2", "--form", "{form2_pi}"],
    ["max-locus", "--field", "trivial", "--form", "{form2_int}", "--polytope", "{box}"],
    # smith, content and index on field entries
    ["smith", "--field", "padic:2", "--matrix", "{mat_int}"],
    ["smith", "--field", "piadic-q", "--matrix", "{mat_pi}"],
    ["smith", "--field", "piadic-f2", "--matrix", "{mat_pi}"],
    ["smith", "--field", "trivial", "--matrix", "{mat_frac}"],
    ["content", "--field", "padic:3", "--matrix", "{mat_int}", "--epsilon", "0.5"],
    ["content", "--field", "padic:2", "--matrix", "{mat_singular}"],
    ["index", "--field", "piadic-q", "--matrix", "{index_pi}"],
    # smith, content and index on Laurent entries with Gauss radii
    ["smith", "--field", "piadic-q", "--matrix", "{laurent_2x2}", "--point", "1/2,1/3"],
    ["smith", "--field", "piadic-q", "--matrix", "{laurent_3x3}", "--point", "1/2,1/3"],
    ["smith", "--field", "piadic-f3", "--matrix", "{laurent_3x3}", "--point", "1,1/2"],
    ["smith", "--field", "piadic-q", "--matrix", "{laurent_rank1}", "--point", "1/4,2/3"],
    ["smith", "--field", "padic:2", "--matrix", "{laurent_int}", "--point", "1/2"],
    ["content", "--field", "piadic-q", "--matrix", "{laurent_3x3}", "--point", "0,0"],
    ["content", "--field", "piadic-q", "--matrix", "{laurent_rank1}", "--point", "1,1"],
    ["index", "--field", "piadic-q", "--matrix", "{index_laurent}", "--point", "1/2,1/5"],
    ["smith", "--field=piadic-q", "--matrix={laurent_2x2}", "--poi", "1,1/4"],
    # adic, weight-compare, retract, tame-check, grid
    ["adic", "--field", "padic:2", "--matrix", "{adic_doc}"],
    ["weight-compare", "--field", "padic:3", "--n", "1", "--kummer", "1:2", "--m", "2"],
    ["weight-compare", "--field", "piadic-q", "--n", "1", "--kummer", "1:3",
     "--form", "{g_doc}"],
    ["retract", "--field", "piadic-q", "--n", "2", "--point", "1/2,1", "--chart",
     "{chart_mixed}"],
    ["retract", "--field", "trivial", "--n", "1", "--point", "2", "--chart", "{chart1_cube}"],
    ["tame-check", "--field", "padic:3", "--n", "1", "--point", "1", "--chart", "{chart1_cube}"],
    ["tame-check", "--field", "piadic-f2", "--n", "2", "--point", "1,1", "--chart",
     "{chart_square}"],
    ["tame-check", "--field", "piadic-q", "--n", "2", "--point", "1,1", "--chart",
     "{chart_mixed}"],
    ["grid", "--field", "piadic-q", "--grid", "3", "--semistable", "2,2", "--form", "{form2_pi}"],
    ["grid", "--field", "trivial", "--grid", "2", "--form", "{form2_int}", "--polytope", "{box}"],
    # malformed calls: exit 2 or 3 with a message
    ["smith", "--field", "padic:4", "--matrix", "{mat_int}"],
    ["eval-norm", "--n", "x", "--form", "{form1}"],
    ["smith", "--matrix", "{mat_int}", "--bogus"],
    ["smith", "--matrix", "{mat_int}", "extra"],
    ["smith", "--field", "piadic-q", "--matrix", "{laurent_2x2}", "--point", "1/2"],
    ["content", "--field", "padic:2", "--matrix", "{mat_int}", "--epsilon", "2"],
    ["eval-norm", "--n", "1", "--point", "1", "--form", "{bad_json}"],
    ["eval-norm", "--n", "1", "--point", "1", "--form", "{bad_expr}"],
    ["smith", "--field", "piadic-q", "--matrix", "{neg_entry}"],
    ["weight-compare", "--field", "padic:2", "--n", "1", "--kummer", "1:x"],
    ["eval-norm", "--field", "piadic-q", "--n", "1", "--point", "1", "--form", "{missing}"],
]


def invoke(run, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def materialize(directory):
    """Write FILES into directory; {name} -> path for every name (and for
    {missing}, a path that does not exist)."""
    paths = {"missing": os.path.join(directory, "missing.json")}
    for name, doc in FILES.items():
        path = os.path.join(directory, name + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(doc if isinstance(doc, str) else json.dumps(doc))
        paths[name] = path
    return paths


def main():
    from nonarch.cli import run

    os.environ["COLUMNS"] = "80"  # argparse wraps its usage lines to the terminal width

    records = []
    with tempfile.TemporaryDirectory() as directory:
        paths = materialize(directory)
        for argv in CALLS:
            code, out, err = invoke(run, [a.format(**paths) for a in argv])
            records.append({"argv": argv, "exit": code,
                            "stdout": out.replace(directory, "{dir}"),
                            "stderr": err.replace(directory, "{dir}")})
    target = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")
    with open(target, "w", encoding="utf-8") as handle:
        json.dump({"files": FILES, "calls": records}, handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(records)} calls to {target}", file=sys.stderr)


if __name__ == "__main__":
    main()
