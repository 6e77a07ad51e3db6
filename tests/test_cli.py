import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nonarch import cli
from nonarch.cli import run
from nonarch.tropical import RationalPolytope, TropPoly, polytope_vertices, trop_eval


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_eval_norm_disc_radius(tmp_path, capsys):
    form = write(tmp_path, "disc-dT.json", {"l": 1, "m": 1, "entries": [{"e": [[1]], "coeff": "t1"}]})
    code, out, err = invoke(
        capsys, "eval-norm", "--field", "piadic-q", "--n", "1", "--point", "1", "--form", form
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["value"] == {"num": 1, "den": 1}
    assert doc["certificate"] == "tame"
    assert doc["seminorm"] == "geometric-kahler"


def test_eval_norm_translated_chart(tmp_path, capsys):
    form = write(tmp_path, "form.json", {"l": 1, "m": 1, "entries": [{"e": [[1]], "coeff": "1"}]})
    chart = write(tmp_path, "chart.json", {"substitutions": ["1+s1"]})
    code, out, _ = invoke(
        capsys, "eval-norm", "--field", "piadic-q", "--n", "1", "--point", "1",
        "--form", form, "--chart", chart,
    )
    assert code == 0
    assert json.loads(out)["value"] == {"num": 1, "den": 1}


def test_max_locus_constant_form(tmp_path, capsys):
    form = write(tmp_path, "const.json", {"l": 2, "m": 1, "entries": [{"e": [[1, 2]], "coeff": "1"}]})
    # --n is inferred from the skeleton spec
    code, out, _ = invoke(
        capsys, "max-locus", "--field", "piadic-q", "--semistable", "2,2", "--form", form,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["m_star"] == {"num": 0, "den": 1}
    assert len(doc["locus"]) == 1
    face = doc["locus"][0]
    assert face["tight"] == []
    assert len(face["vertices"]) == 3


def test_weight_compare(capsys):
    code, out, _ = invoke(
        capsys, "weight-compare", "--field", "padic:3", "--n", "1", "--kummer", "1:2", "--m", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "wt": {"num": 1, "den": 1},
        "omega": {"num": 0, "den": 1},
        "delta_log": {"num": 0, "den": 1},
        "holds": True,
    }


def test_smith_content_index_adic(tmp_path, capsys):
    matrix = write(tmp_path, "m.json", {"entries": [["2", "1"], ["4", "8"]]})
    code, out, _ = invoke(capsys, "smith", "--field", "padic:2", "--matrix", matrix)
    assert code == 0
    assert json.loads(out) == {"divisors": [{"num": 0, "den": 1}, {"num": 2, "den": 1}], "free_rank": 0}

    diag = write(tmp_path, "d.json", {"entries": [["2", "0"], ["0", "4"]]})
    code, out, _ = invoke(capsys, "content", "--field", "padic:2", "--matrix", diag)
    assert json.loads(out) == {"content": {"num": 3, "den": 1}}

    pair = write(tmp_path, "ml.json", {"M": [["1", "0"], ["0", "1"]], "L": [["2", "0"], ["0", "2"]]})
    code, out, _ = invoke(capsys, "index", "--field", "padic:2", "--matrix", pair)
    assert json.loads(out) == {"index": {"num": -2, "den": 1}}

    adic = write(tmp_path, "a.json", {"divisors": ["2"], "free_rank": 0, "coords": ["2"]})
    code, out, _ = invoke(capsys, "adic", "--field", "padic:2", "--matrix", adic)
    assert json.loads(out) == {"value": {"num": 1, "den": 1}}

    adic_inf = write(tmp_path, "ai.json", {"divisors": ["2"], "free_rank": 0, "coords": ["4"]})
    code, out, _ = invoke(capsys, "adic", "--field", "padic:2", "--matrix", adic_inf)
    assert json.loads(out) == {"value": "inf"}


def test_matrix_entries_with_gauss_variables(tmp_path, capsys):
    # the ramified one-relation presentation (4*t1^3) at v(t1) = 1/4
    ram = write(tmp_path, "r.json", {"nvars": 1, "entries": [["4*t1^3"]]})
    code, out, _ = invoke(
        capsys, "content", "--field", "padic:2", "--matrix", ram, "--point", "1/4"
    )
    assert code == 0
    assert json.loads(out) == {"content": {"num": 11, "den": 4}}  # 2 + 3/4

    pair = write(tmp_path, "ml2.json", {"nvars": 1, "M": [["t1"]], "L": [["1"]]})
    code, out, _ = invoke(
        capsys, "index", "--field", "padic:2", "--matrix", pair, "--point", "1/2"
    )
    assert json.loads(out) == {"index": {"num": 1, "den": 2}}


def test_smith_zero_matrix(tmp_path, capsys):
    zero = write(tmp_path, "z.json", {"entries": [["0", "0"], ["0", "0"]]})
    code, out, _ = invoke(capsys, "smith", "--field", "padic:2", "--matrix", zero)
    assert json.loads(out) == {"divisors": [], "free_rank": 2}


def test_retract_and_tame_check(tmp_path, capsys):
    chart = write(tmp_path, "c.json", {"substitutions": ["pi + s1"]})
    code, out, _ = invoke(
        capsys, "retract", "--field", "piadic-q", "--n", "1", "--point", "2", "--chart", chart
    )
    assert json.loads(out) == {"point": [{"num": 1, "den": 1}]}

    cube = write(tmp_path, "cube.json", {"substitutions": ["s1^3"]})
    code, out, _ = invoke(
        capsys, "tame-check", "--field", "padic:3", "--n", "1", "--point", "1", "--chart", cube
    )
    assert json.loads(out) == {"certificate": "wild"}


@pytest.mark.parametrize("field", ["padic:2", "piadic-q", "trivial"])
@pytest.mark.parametrize("command", ["tame-check", "eval-norm"])
def test_degenerate_monomial_chart_is_refused(tmp_path, capsys, field, command):
    """t1 = t2 = s1*s2 is not a chart in any residue characteristic, so
    neither its certificate nor the norm of (t1 + t2) dt1/t1 ^ dt2/t2 is
    reported."""
    chart = write(tmp_path, "c.json", {"substitutions": ["s1*s2", "s1*s2"]})
    form = write(tmp_path, "f.json", {"l": 2, "m": 1, "entries": [{"e": [[1, 2]], "coeff": "t1 + t2"}]})
    code, out, err = invoke(capsys, command, "--field", field, "--n", "2", "--point", "1,1",
                            "--chart", chart, "--form", form)
    assert code == 3
    assert out == ""
    assert "exponent matrix is singular" in err


@pytest.mark.parametrize("subs", [["s1 + s2", "s1 + s2"], ["s1 + s2", "(s1 + s2)^2"],
                                  ["s1 + s2", "3*s1 + 3*s2"]])
@pytest.mark.parametrize("field", ["padic:2", "piadic-q", "trivial"])
@pytest.mark.parametrize("command", ["tame-check", "eval-norm"])
def test_singular_non_monomial_chart_is_refused(tmp_path, capsys, field, command, subs):
    """A chart whose logarithmic Jacobian determinant vanishes identically
    (here t2 is a function of t1) is not a chart: no "inf" norm and no
    certificate is reported."""
    chart = write(tmp_path, "c.json", {"substitutions": subs})
    form = write(tmp_path, "f.json", {"l": 2, "m": 1, "entries": [{"e": [[1, 2]], "coeff": "t1 + t2"}]})
    code, out, err = invoke(capsys, command, "--field", field, "--n", "2", "--point", "1,1",
                            "--chart", chart, "--form", form)
    assert (code, out) == (3, "")
    assert "logarithmic Jacobian determinant is identically zero" in err


def test_singular_chart_over_fp_pi_is_not_tested(tmp_path, capsys):
    """Over F_p(pi) the logarithmic Jacobian also vanishes on wild monomial
    charts, so a non-monomial chart there keeps the certificate "unknown"."""
    chart = write(tmp_path, "c.json", {"substitutions": ["s1 + s2", "s1 + s2"]})
    code, out, _ = invoke(capsys, "tame-check", "--field", "piadic-f3", "--n", "2", "--point", "1,1",
                          "--chart", chart)
    assert (code, json.loads(out)) == (0, {"certificate": "unknown"})


def test_trop_and_grid(tmp_path, capsys):
    form = write(tmp_path, "f.json", {"l": 1, "m": 1, "entries": [{"e": [[1]], "coeff": "1 + t1"}]})
    code, out, _ = invoke(capsys, "trop", "--field", "piadic-q", "--n", "1", "--form", form)
    doc = json.loads(out)
    assert doc["terms"] == [
        {"c": {"num": 0, "den": 1}, "I": [0]},
        {"c": {"num": 0, "den": 1}, "I": [1]},
    ]

    code, out, _ = invoke(
        capsys, "grid", "--field", "piadic-q", "--n", "1", "--form", form,
        "--semistable", "1,2", "--grid", "4",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rho1,value"
    assert lines[1] == "0,0"
    assert lines[-1] == "2,0"
    assert len(lines) == 6


def test_trivial_field_and_polytope_file(tmp_path, capsys):
    form = write(tmp_path, "f.json", {"l": 1, "m": 1, "entries": [{"e": [[1]], "coeff": "5 + 7*t1"}]})
    code, out, _ = invoke(
        capsys, "eval-norm", "--field", "trivial", "--n", "1", "--point", "2", "--form", form
    )
    assert code == 0
    assert json.loads(out)["value"] == {"num": 0, "den": 1}  # trivial valuation, min(0, 0+2)

    box = write(tmp_path, "box.json", {
        "n": 1,
        "constraints": [{"a": ["1"], "b": "1"}, {"a": ["-1"], "b": "0"}],
    })
    code, out, _ = invoke(
        capsys, "max-locus", "--field", "trivial", "--form", form, "--polytope", box
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["m_star"] == {"num": 0, "den": 1}
    # the constant slope-0 term is minimal on the whole box
    assert doc["locus"][0]["tight"] == []

    code, out, _ = invoke(
        capsys, "grid", "--field", "trivial", "--form", form, "--polytope", box, "--grid", "2"
    )
    assert out.splitlines() == ["rho1,value", "0,0", "1/2,0", "1,0"]


@pytest.mark.parametrize("command", [["max-locus"], ["grid", "--grid", "2"]])
def test_polytope_file_is_read_once(tmp_path, capsys, monkeypatch, command):
    form = write(tmp_path, "form.json", {"l": 1, "m": 1, "entries": [{"e": [[1]], "coeff": "1"}]})
    box = write(tmp_path, "box.json", {
        "n": 1,
        "constraints": [{"a": ["1"], "b": "1"}, {"a": ["-1"], "b": "0"}],
    })
    reads = []
    load_json = cli._load_json

    def counting(path):
        reads.append(path)
        return load_json(path)

    monkeypatch.setattr(cli, "_load_json", counting)
    for n in ([], ["--n", "1"]):
        reads.clear()
        code, _, err = invoke(capsys, *command, "--field", "trivial", *n, "--form", form,
                              "--polytope", box)
        assert code == 0, err
        assert sorted(reads) == sorted([form, box]), (n, reads)

    # with both files malformed, the one read first names the error: the
    # polytope when it fixes the dimension, else the form
    bad_form = tmp_path / "bad-form.json"
    bad_box = tmp_path / "bad-box.json"
    bad_form.write_text("{")
    bad_box.write_text("[")
    for n, first in (([], bad_box), (["--n", "1"], bad_form)):
        code, out, err = invoke(capsys, *command, "--field", "trivial", *n, "--form",
                                str(bad_form), "--polytope", str(bad_box))
        assert (code, out) == (2, "") and f"invalid JSON in {first}" in err, (n, err)


def test_epsilon_rendering(tmp_path, capsys):
    matrix = write(tmp_path, "m.json", {"entries": [["4"]]})
    code, out, _ = invoke(
        capsys, "content", "--field", "padic:2", "--matrix", matrix, "--epsilon", "0.5"
    )
    doc = json.loads(out)
    assert doc["content"]["num"] == 2 and doc["content"]["approx"] == 0.25


def test_exit_codes(tmp_path, capsys):
    bad_form = write(tmp_path, "bad.json", {"l": 1, "m": 1, "entries": [{"e": [[1]], "coeff": "t1 +"}]})
    code, _, err = invoke(
        capsys, "eval-norm", "--field", "piadic-q", "--n", "1", "--point", "1", "--form", bad_form
    )
    assert code == 2
    assert "line" in err and "column" in err

    code, _, err = invoke(capsys, "eval-norm", "--field", "nosuch", "--n", "1")
    assert code == 3

    # domain error: zero denominator polytope input
    form = write(tmp_path, "f.json", {"l": 1, "m": 1, "entries": [{"e": [[1]], "coeff": "t1"}]})
    code, _, err = invoke(
        capsys, "max-locus", "--field", "piadic-q", "--n", "1", "--form", form,
        "--semistable", "1,0",
    )
    assert code == 3
    assert "positive" in err

    code, _, _ = invoke(capsys, "no-such-command")
    assert code == 2


def test_output_determinism(tmp_path, capsys):
    form = write(tmp_path, "f.json", {"l": 1, "m": 1, "entries": [{"e": [[1]], "coeff": "pi + t1 + t1^-2"}]})
    runs = []
    for _ in range(2):
        code, out, _ = invoke(
            capsys, "eval-norm", "--field", "piadic-q", "--n", "1", "--point", "1/3", "--form", form
        )
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_grid_zero_steps_is_named(tmp_path, capsys):
    form = write(tmp_path, "f.json", {"l": 1, "m": 1, "entries": [{"e": [[1]], "coeff": "t1"}]})
    code, out, err = invoke(capsys, "grid", "--grid", "0", "--semistable", "1,1", "--form", form)
    assert code == 3 and not out
    assert "positive number of steps" in err


def test_grid_refuses_unbounded_and_empty_regions(tmp_path, capsys):
    form = write(tmp_path, "f.json", {"l": 1, "m": 1, "entries": [{"e": [[1]], "coeff": "t1"}]})
    halfline = write(tmp_path, "h.json", {"n": 1, "constraints": [{"a": ["-1"], "b": "0"}]})
    empty = write(tmp_path, "e.json", {"n": 1, "constraints": [{"a": ["1"], "b": "0"},
                                                               {"a": ["-1"], "b": "-1"}]})
    for region, message in ((halfline, "unbounded polyhedron"), (empty, "empty polytope")):
        for command in ("grid", "max-locus"):
            code, out, err = invoke(capsys, command, "--grid", "4", "--polytope", region, "--form", form)
            assert code == 3 and not out
            assert message in err


def test_grid_flat_axis_holds_one_value(tmp_path, capsys):
    form = write(tmp_path, "f.json", {"l": 2, "m": 1, "entries": [{"e": [[1, 2]], "coeff": "t1 + pi*t2"}]})
    segment = write(tmp_path, "s.json", {"n": 2, "constraints": [
        {"a": ["1", "0"], "b": "1"}, {"a": ["-1", "0"], "b": "0"},
        {"a": ["0", "1"], "b": "0"}, {"a": ["0", "-1"], "b": "0"}]})
    code, out, _ = invoke(capsys, "grid", "--grid", "2", "--polytope", segment, "--form", form)
    assert code == 0
    assert out.splitlines() == ["rho1,rho2,value", "0,0,0", "1/2,0,1/2", "1,0,1"]
    point = write(tmp_path, "p.json", {"n": 1, "constraints": [{"a": ["1"], "b": "2"},
                                                               {"a": ["-1"], "b": "-2"}]})
    code, out, _ = invoke(capsys, "grid", "--grid", "3", "--n", "1", "--polytope", point, "--form",
                          write(tmp_path, "g.json", {"l": 1, "m": 1, "entries": [{"e": [[1]], "coeff": "t1"}]}))
    assert code == 0
    assert out.splitlines() == ["rho1,value", "2,2"]


@pytest.mark.parametrize("coeff, column", [("\u00b2", 1), ("t\u00b2", 1), ("t1^\u00b2", 4)])
def test_non_decimal_digit_is_a_parse_error(tmp_path, capsys, coeff, column):
    form = write(tmp_path, "f.json", {"l": 1, "m": 1, "entries": [{"e": [[1]], "coeff": coeff}]})
    code, out, err = invoke(capsys, "trop", "--n", "1", "--form", form)
    assert code == 2 and not out
    assert f"line 1, column {column}" in err


# (argv with {file} placeholders, a phrase the message must hold)
ESCAPES = [
    (["smith", "--field", "padic:2", "--matrix", "{empty}"], "missing key 'entries'"),
    (["smith", "--field", "padic:2", "--matrix", "{nvars_x}"], "key 'nvars' must be an integer"),
    (["smith", "--field", "padic:2", "--matrix", "{nvars_neg}"], "number of variables must be nonnegative"),
    (["content", "--point", "1", "--matrix", "{nvars_neg}"], "number of variables must be nonnegative"),
    (["index", "--point", "", "--matrix", "{index_nvars_neg}"], "number of variables must be nonnegative"),
    (["max-locus", "--semistable", "a,1", "--form", "{form}"], "--semistable wants an integer"),
    (["eval-norm", "--n", "1", "--point", "1", "--form", "{a_list}"], "must be a JSON object"),
    (["smith", "--matrix", "{a_list}"], "must be a JSON object"),
    (["max-locus", "--n", "1", "--polytope", "{no_constraints}", "--form", "{form}"],
     "missing key 'constraints'"),
    (["eval-norm", "--field", "padic:2", "--n", "1", "--point", "0", "--epsilon", "0.1",
      "--form", "{deep}"], "out of float range"),
    (["eval-norm", "--n", "1", "--point", "1"], "--form <form file> is required"),
    (["max-locus", "--polytope", "{bool_b}", "--form", "{form}"], "bad rational True"),
    (["adic", "--field", "padic:2", "--matrix", "{bool_divisor}"], "bad rational True"),
    (["eval-norm", "--n", "1", "--point", "1", "--form", "{zero_off_basis}"], "basis subset (2,)"),
    (["eval-norm", "--n", "1", "--point", "1", "--form", "{cancel_off_basis}"], "basis subset (2,)"),
]


@pytest.mark.parametrize("argv, phrase", ESCAPES, ids=[a[0] + ":" + p for a, p in ESCAPES])
def test_malformed_documents_keep_the_exit_contract(tmp_path, capsys, argv, phrase):
    files = {
        "empty": {},
        "nvars_x": {"nvars": "x", "entries": [["1"]]},
        "nvars_neg": {"nvars": -1, "entries": [["1"]]},
        "index_nvars_neg": {"nvars": -1, "M": [["1"]], "L": [["1"]]},
        "a_list": [],
        "no_constraints": {"n": 1},
        "form": {"l": 1, "m": 1, "entries": [{"e": [[1]], "coeff": "t1 + 1"}]},
        "deep": {"l": 1, "m": 1, "entries": [{"e": [[1]], "coeff": "2^-400"}]},
        "bool_b": {"n": 2, "constraints": [{"a": [1, 1], "b": True}]},
        "bool_divisor": {"divisors": [True], "coords": ["2"]},
        # a basis index outside 1..n is refused even where its coefficients are zero
        "zero_off_basis": {"l": 1, "m": 1, "entries": [{"e": [[2]], "coeff": "0"}]},
        "cancel_off_basis": {"l": 1, "m": 1, "entries": [{"e": [[1]], "coeff": "t1"},
                                                         {"e": [[2]], "coeff": "t1"},
                                                         {"e": [[2]], "coeff": "-t1"}]},
    }
    argv = [write(tmp_path, a[1:-1] + ".json", files[a[1:-1]]) if a.startswith("{") else a
            for a in argv]
    code, out, err = invoke(capsys, *argv)
    assert code == 3 and not out
    assert phrase in err


_KEYS = ["n", "l", "m", "entries", "e", "coeff", "nvars", "M", "L", "divisors", "free_rank",
         "coords", "constraints", "a", "b", "g", "substitutions"]
_SNIPPETS = ["t1", "1 + t1^-2", "pi^3*t1", "2^-400", "t1 +", "(", "", "3/4", "pi", "s1", "t2*t1",
             "1/0", "5", "0", "x", "\u00b2", "t\u00b2", "t1^\u00b2", "9" * 5001, "t1^" + "9" * 5001]
_scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 6), st.sampled_from(_SNIPPETS),
                     st.sampled_from([0.5, 1.0, float("nan")]))
_small = st.one_of(st.integers(-1, 3), st.sampled_from(["2", "x", None, [1]]))
_exprs = st.one_of(st.sampled_from(_SNIPPETS), st.integers(-2, 4))
_rows = st.lists(st.lists(_exprs, max_size=3), max_size=3)
# random JSON, and documents one or two keys away from well-formed ones
_documents = st.one_of(
    st.recursive(_scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.sampled_from(_KEYS), inner, max_size=5)),
        max_leaves=12),
    st.fixed_dictionaries({"l": _small, "m": _small, "n": _small, "entries": st.lists(
        st.fixed_dictionaries({"e": st.sampled_from([[[1]], [[1, 2]], [[2, 1]], [[0]], [[1], [1]],
                                                     [], [["1"]], [[1.5]]]),
                               "coeff": _exprs}), max_size=3)}),
    st.fixed_dictionaries({"nvars": _small, "entries": _rows}),
    st.fixed_dictionaries({"nvars": _small, "M": _rows, "L": _rows}),
    st.fixed_dictionaries({"divisors": st.lists(_exprs, max_size=3), "free_rank": _small,
                           "coords": st.lists(_exprs, max_size=4)}),
    st.fixed_dictionaries({"n": _small, "constraints": st.lists(st.fixed_dictionaries(
        {"a": st.lists(_exprs, max_size=3), "b": _exprs}), max_size=4)}),
    st.fixed_dictionaries({"substitutions": st.lists(_exprs, max_size=3)}),
    st.fixed_dictionaries({"g": _exprs}),
    # raw bytes: not UTF-8, UTF-16, a UTF-8 BOM, lone CR line ends
    st.sampled_from([b"\xff", b'{"entries": [["\xff"]]}', '{"n": 1}'.encode("utf-16"),
                     b'\xef\xbb\xbf{"entries": [["1"]]}', b'{\r"entries":\r[["1"]]\r}', b"{\r\r",
                     b'{"n": ' + b"9" * 5001 + b"}", b'{"n": 1, "entries": [[-' + b"9" * 5001 + b"]]}"]),
    st.binary(max_size=8),
)
_COMMANDS = ["eval-norm", "trop", "max-locus", "smith", "content", "index", "adic",
             "weight-compare", "retract", "tame-check", "grid", "nosuch"]
_OPTIONS = {
    "--field": ["trivial", "padic:2", "padic:4", "piadic-q", "piadic-f3", "piadic-fx", "q"],
    "--n": ["1", "2", "0", "-1", "x"],
    "--point": ["1", "1/2,0", "x", "1/0", "", "0,0,0", "-1"],
    "--semistable": ["1,1", "2,1/2", "a,1", "1,0", "1", "3,2", ",", "2,x"],
    "--kummer": ["1:2", "1:x", "a", "1:0", "2:3,1:2", "1:3,1:2", ""],
    "--m": ["1", "2", "0", "-1"],
    "--epsilon": ["0.1", "1/3", "2", "x", "0", "1e-400"],
    "--grid": ["-1", "0", "1", "2", "x"],
}


@settings(max_examples=300, deadline=None, suppress_health_check=list(HealthCheck))
@given(st.sampled_from(_COMMANDS),
       st.dictionaries(st.sampled_from(sorted(_OPTIONS)), st.integers(0, 7), max_size=5),
       st.dictionaries(st.sampled_from(["--form", "--matrix", "--polytope", "--chart"]),
                       _documents, max_size=3))
def test_random_documents_and_argv_keep_the_exit_contract(command, options, docs):
    argv = [command]
    for flag, i in options.items():
        argv += [flag, _OPTIONS[flag][i % len(_OPTIONS[flag])]]
    with tempfile.TemporaryDirectory() as tmp:
        for flag, doc in docs.items():
            path = os.path.join(tmp, flag[2:] + ".json")
            with open(path, "wb") as handle:
                handle.write(doc if isinstance(doc, bytes) else json.dumps(doc).encode("utf-8"))
            argv += [flag, path]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)  # any exception here is a traceback escaping the contract
    assert code in (0, 2, 3)
    if code:
        assert err.getvalue().strip() and not out.getvalue()


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    form = write(tmp_path, "f.json", {"l": 1, "m": 1, "entries": [{"e": [[1]], "coeff": "pi + t1"}]})
    form2 = write(tmp_path, "g.json", {"l": 2, "m": 1, "entries": [{"e": [[1, 2]], "coeff": "t1 + t2^2"}]})
    matrix = write(tmp_path, "m.json", {"entries": [["2", "1"], ["4", "8"]]})
    calls = [
        ["smith", "--field", "padic:2", "--matrix", matrix],
        ["frobnicate", "--n", "1"],
        ["eval-norm", "--n", "x"],
        ["eval-norm", "--field", "piadic-q", "--n", "1", "--point", "1/2", "--form", form,
         "--epsilon", "1/3"],
        ["grid", "--grid", "0", "--semistable", "1,1", "--form", form],
        ["max-locus", "--semistable", "2,1", "--form", form2],
        ["smith", "--help"],
        ["grid", "--grid", "3", "--semistable", "2,2", "--form", form2],
        ["trop", "--n", "1", "--form", form],
        [],
    ]

    def record(fresh):
        seen = []
        for argv in calls * 2:
            if fresh:
                monkeypatch.setattr(cli, "_PARSER", None)
            code = run(argv)
            out = capsys.readouterr()
            seen.append((code, out.out, out.err))
        return seen

    reused = record(fresh=False)
    parser = cli._PARSER
    run(["trop", "--n", "1", "--form", form])
    capsys.readouterr()
    assert cli._PARSER is parser
    assert reused == record(fresh=True)


def _naive_grid(p, poly, axes):
    lines = [",".join(f"rho{i + 1}" for i in range(p.n)) + ",value\n"]
    for point in product(*axes):
        if p.contains(point):
            lines.append(",".join(str(x) for x in point) + f",{trop_eval(poly, point)}\n")
    return "".join(lines)


_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.lists(_fractions, min_size=n, max_size=n), _fractions),
             min_size=n + 1, max_size=n + 3),
    st.lists(st.tuples(_fractions, st.lists(st.integers(-2, 2), min_size=n, max_size=n)),
             max_size=5),
    st.integers(1, 4))))
def test_grid_csv_matches_the_naive_walk(case):
    n, constraints, terms, steps = case
    p, poly = RationalPolytope(n, constraints), TropPoly(n, terms)
    verts = polytope_vertices(p)
    if not verts:
        return
    axes = []
    for i in range(n):
        lo, hi = min(v[i] for v in verts), max(v[i] for v in verts)
        axes.append([lo + (hi - lo) * Fraction(k, steps) for k in range(steps + 1)])
    out = io.StringIO()
    cli._write_grid(out, p, poly, axes)
    assert out.getvalue() == _naive_grid(p, poly, axes)


def _full_parser_path(argv):
    return cli._parser().parse_args(argv)


def _run_both(monkeypatch, argv):
    """(exit, stdout, stderr) of run(argv), and of run(argv) with every
    argv parsed by the top-level parser."""
    monkeypatch.setenv("COLUMNS", "80")
    seen = []
    for full in (False, True):
        if full:
            monkeypatch.setattr(cli, "_parse_args", _full_parser_path)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(list(argv))
        seen.append((code, out.getvalue(), err.getvalue()))
    monkeypatch.undo()
    return seen


@pytest.fixture(scope="module")
def parse_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("argparse")
    files = {"{form}": {"l": 1, "m": 1, "entries": [{"e": [[1]], "coeff": "pi + t1"}]},
             "{matrix}": {"entries": [["2", "1"], ["4", "8"]]}}
    out = {}
    for key, doc in files.items():
        path = d / (key.strip("{}") + ".json")
        path.write_text(json.dumps(doc))
        out[key] = str(path)
    return out


@pytest.mark.parametrize("argv", [
    [],
    ["-h"],
    ["--help"],
    ["frobnicate", "--n", "1"],
    ["smi", "--matrix", "{matrix}"],
    ["smith", "-h"],
    ["smith", "--he"],
    ["smith", "--matrix", "{matrix}", "extra"],
    ["smith", "extra", "--matrix", "{matrix}"],
    ["smith", "--matrix", "{matrix}", "--bogus"],
    ["smith", "--matrix", "{matrix}", "--bogus=1", "-x"],
    ["smith", "--mat", "{matrix}", "--fie", "padic:2"],
    ["smith", "--matrix={matrix}", "--field=padic:2"],
    ["eval-norm", "--n", "x", "--form", "{form}"],
    ["eval-norm", "--n=1", "--poi", "1/2", "--form", "{form}"],
    ["eval-norm", "--n", "1", "--point", "1", "--form", "{form}", "--m", "1.5"],
    ["grid", "--grid", "x", "--semistable", "1,1", "--form", "{form}"],
    ["grid", "--g", "2", "--semistable", "1,1", "--form", "{form}"],
    ["trop", "--n", "1", "--form", "{form}", "--"],
    ["trop", "--n", "1", "--", "--form", "{form}"],
    ["trop", "--n"],
    ["smith", "--m", "1", "--ma", "{matrix}"],
])
def test_subcommand_parser_matches_the_full_parser(argv, parse_files, monkeypatch):
    argv = [parse_files.get(a, a) for a in argv]
    fast, full = _run_both(monkeypatch, argv)
    assert fast == full


_ARGV_TOKENS = ["smith", "trop", "eval-norm", "grid", "frobnicate", "-h", "--he", "--help", "--",
                "--field", "padic:2", "--n", "1", "x", "--n=2", "--point", "--poi", "1/2",
                "--matrix", "{matrix}", "--form", "{form}", "--grid", "2", "--bogus", "-x",
                "extra", "--semistable", "1,1", "--m=0"]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.sampled_from(_ARGV_TOKENS), max_size=7))
def test_random_argv_parse_like_the_full_parser(parse_files, monkeypatch, argv):
    argv = [parse_files.get(a, a) for a in argv]
    fast, full = _run_both(monkeypatch, argv)
    assert fast == full


def test_oversized_semistable_and_grid_are_refused_before_any_run(tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("an oversized input reached the polytope code")

    monkeypatch.setattr(cli, "semistable_skeleton", never)
    monkeypatch.setattr(cli, "bounded_vertices", never)
    form = write(tmp_path, "f.json", {"l": 3, "m": 1, "entries": [{"e": [[1, 2, 3]], "coeff": "1"}]})
    big = str(cli._MAX_SEMISTABLE_N + 1)
    for argv, message in (
        (("grid", "--grid", "1000000", "--semistable", "3,1"), "above the limit of 100000 points"),
        (("grid", "--grid", "46", "--n", "3", "--semistable", "3,1"), "above the limit of 100000 points"),
        (("grid", "--grid", "2", "--semistable", "100000,1"), "--semistable dimension 100000"),
        (("max-locus", "--semistable", f"{big},1"), f"--semistable dimension {big} is above"),
        (("max-locus", "--n", "3", "--semistable", f"{big},1"), "above the limit 16"),
    ):
        code, out, err = invoke(capsys, *argv, "--form", form)
        assert (code, out) == (3, ""), argv
        assert message in err, (argv, err)


def test_largest_allowed_grid_runs(tmp_path, capsys):
    form = write(tmp_path, "f.json", {"l": 2, "m": 1, "entries": [{"e": [[1, 2]], "coeff": "t1 + t2"}]})
    # 316^2 = 99 856 points is under the limit; the simplex keeps about half
    code, out, _ = invoke(capsys, "grid", "--grid", "315", "--semistable", "2,1", "--form", form)
    assert code == 0
    assert len(out.splitlines()) == 1 + 316 * 317 // 2


def test_undecodable_input_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "m.json"
    for data in (b'{"entries": [["\xff"]]}', '{"entries": [["1"]]}'.encode("utf-16")):
        path.write_bytes(data)
        code, out, err = invoke(capsys, "smith", "--field", "padic:2", "--matrix", str(path))
        assert (code, out) == (3, "")
        assert err.startswith(f"domain error: cannot read {path}: 'utf-8' codec can't decode byte")
    # a UTF-8 byte order mark stays a JSON parse error
    path.write_bytes(b'\xef\xbb\xbf{"entries": [["1"]]}')
    code, out, err = invoke(capsys, "smith", "--field", "padic:2", "--matrix", str(path))
    assert (code, out) == (2, "")
    assert "Unexpected UTF-8 BOM" in err


@pytest.mark.parametrize("data", [b'{\r"entries":\r[["1"],\r', b'{\r\n"a":\r\n  x}', b'\r\r\r  [1,,'])
def test_json_error_positions_count_lines_as_a_text_read(tmp_path, capsys, data):
    path = tmp_path / "m.json"
    path.write_bytes(data)
    with open(path, encoding="utf-8") as handle:  # a text-mode read: universal newlines
        text = handle.read()
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text)
    code, out, err = invoke(capsys, "smith", "--matrix", str(path))
    assert (code, out) == (2, "")
    assert f"(line {want.value.lineno}, column {want.value.colno})" in err


@pytest.mark.parametrize("doc, message", [
    ('{"n": 1, "entries": [{"e": [[1]], "coeff": "t1 + %s"}]}', "integer literal of 5001 digits is "
     "too long (line 1, column 6)"),
    ('{"n": %s, "entries": []}', "invalid JSON in {path}: integer of 5001 digits is too long "
     "(line 1, column 7)"),
    ('{"s": "%s",\n "x": [1.5, -0.%s, 1e%s,\n  -%s]}', "invalid JSON in {path}: integer of 5001 "
     "digits is too long (line 3, column 3)"),
], ids=["coeff", "json n", "json after strings and floats"])
def test_overlong_integers_are_parse_errors(tmp_path, capsys, doc, message):
    path = tmp_path / "f.json"
    path.write_text(doc.replace("%s", "9" * 5001))
    code, out, err = invoke(capsys, "trop", "--n", "1", "--form", str(path))
    assert (code, out, err) == (2, "", f"parse error: {message.format(path=path)}\n")


def test_main_reads_sys_argv(tmp_path, capsys, monkeypatch):
    matrix = write(tmp_path, "m.json", {"entries": [["2", "1"], ["4", "8"]]})
    for argv, code in ((["smith", "--field", "padic:2", "--matrix", matrix], 0),
                       (["smith", "--field=padic:4", "--matrix", matrix], 3),
                       (["smith", "--bogus"], 2)):
        monkeypatch.setattr("sys.argv", ["nonarch"] + argv)
        with pytest.raises(SystemExit) as exit_:
            cli.main()
        out = capsys.readouterr()
        assert exit_.value.code == code
        assert (code, out.out, out.err) == invoke(capsys, *argv)
    assert out.err.endswith("error: unrecognized arguments: --bogus\n")


def test_module_entry_point_runs_main(tmp_path, capsys):
    matrix = write(tmp_path, "m.json", {"entries": [["2", "1"], ["4", "8"]]})
    argv = ["smith", "--field", "padic:2", "--matrix", matrix]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "nonarch.cli", *argv], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == invoke(capsys, *argv)
    assert proc.stdout


_INT_VALUES = ["1", "0", "12", " 2", "+3", "1_0", "\u0663", "-1", "x", "", "1.5", "--n"]
_TEXT_VALUES = ["padic:2", "1/2,3", "", "a=b", "x.json", "-x", "--form", "smith", "-1", "=", " "]


@st.composite
def _argvs(draw):
    """An argv drawn from the flag table: mostly '--flag value' and
    '--flag=value' pairs, with repeated flags, abbreviations, a missing
    value, '-'-leading values, unknown flags and unknown subcommands."""
    argv = [draw(st.sampled_from(list(cli._HANDLERS) * 3 + ["frobnicate", "smi", "-h", "--n"]))]
    for _ in range(draw(st.integers(0, 6))):
        flag, _, kind, _, _ = draw(st.sampled_from(cli._FLAGS))
        value = draw(st.sampled_from(_INT_VALUES if kind is int else _TEXT_VALUES))
        form = draw(st.sampled_from(["pair"] * 6 + ["equals"] * 3 + ["abbrev", "bare", "unknown", "stray"]))
        if form == "pair":
            argv += [flag, value]
        elif form == "equals":
            argv.append(f"{flag}={value}")
        elif form == "abbrev":
            argv += [flag[:draw(st.integers(3, len(flag)))], value]
        elif form == "bare":
            argv.append(flag)
        elif form == "unknown":
            argv += ["--bogus", value]
        else:
            argv.append(draw(st.sampled_from(["-h", "--help", "--", "extra", "-x", "--m=1=2"])))
    return argv


@settings(max_examples=400, deadline=None)
@given(_argvs())
def test_direct_argv_read_matches_argparse(argv):
    args = cli._read_argv(argv)
    if args is None:
        return  # argparse reads it
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert args == cli._parser().parse_args(argv)


def test_well_formed_argv_is_read_directly(tmp_path):
    argv = ["eval-norm", "--field", "padic:3", "--n", "2", "--point=1/2,3", "--form", "f.json",
            "--m", "2", "--epsilon=1/3", "--n", "1", "--grid", "4", "--kummer", "1:2"]
    args = cli._read_argv(argv)
    assert args is not None and args == cli._parser().parse_args(argv)
    assert (args.n, args.m, args.grid, args.point) == (1, 2, 4, "1/2,3")
    for bad in (["eval-norm", "--n"], ["eval-norm", "--n", "-1"], ["eval-norm", "--n", "x"],
                ["eval-norm", "--fie", "trivial"], ["eval-norm", "-h"], ["evalnorm"], []):
        assert cli._read_argv(bad) is None
