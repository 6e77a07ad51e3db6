"""Command-line interface: JSON in, JSON (or CSV) out, byte-stable.

Subcommands: eval-norm, trop, max-locus, smith, content, index, adic,
weight-compare, retract, tame-check, grid.  Valuation values are rendered
as {"num": p, "den": q} or "inf", with an optional "approx" field when a
rendering base --epsilon is given.  Exit codes: 0 success, 2 parse error
(with line/column), 3 domain error (naming the violated precondition).
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from math import lcm

from .errors import DomainError, ParseError
from .expr import _position, parse_poly
from .fields import BaseFieldModel, p_adic_q, pi_adic_fp, pi_adic_q, trivial_q
from .forms import MonomialChart, Pluriform, kahler_norm_at, tame_certificate
from .laurent import _add_term
from .lattices import ElementaryDivisors, PresentationMatrix, adic_norm, content, semilattice_index, smith
from .tropical import (
    RationalPolytope, _integer_rows, bounded_vertices, min_locus, retract, semistable_skeleton, tropicalize,
)
from .values import Val
from .weights import KummerDivisorialSpec, compare

__all__ = ["run", "main"]

# The largest --semistable dimension and grid, counted as (steps + 1)^n
# points, that the CLI runs; larger ones are refused before any work.
_MAX_SEMISTABLE_N = 16
_MAX_GRID_POINTS = 10 ** 5


def _parse_field(spec: str) -> BaseFieldModel:
    if spec == "trivial":
        return trivial_q()
    if spec == "piadic-q":
        return pi_adic_q()
    if spec.startswith("padic:"):
        try:
            return p_adic_q(int(spec.split(":", 1)[1]))
        except ValueError as exc:
            raise DomainError(f"bad p-adic field spec {spec!r}: {exc}") from exc
    if spec.startswith("piadic-f"):
        try:
            return pi_adic_fp(int(spec[len("piadic-f"):]))
        except ValueError as exc:
            raise DomainError(f"bad pi-adic residue field spec {spec!r}: {exc}") from exc
    raise DomainError(
        f"unknown field {spec!r}; expected trivial | padic:<p> | piadic-q | piadic-f<p>"
    )


def _parse_rational(text) -> Fraction:
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, str):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"bad rational {text!r}") from exc
    raise DomainError(f"bad rational {text!r}")


def _parse_point(text: str, n: int) -> tuple:
    parts = [p for p in text.split(",") if p.strip()]
    point = tuple(_parse_rational(p) for p in parts)
    if len(point) != n:
        raise DomainError(f"--point has {len(point)} coordinates, expected {n}")
    return point


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise DomainError(f"{what} wants an integer, got {text!r}") from exc


def _load_json(path: str):
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    if "\r" in text:  # line ends as a text-mode read gives them, for error positions
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc.msg}", exc.lineno, exc.colno) from exc
    except ValueError:  # the only other error: an integer longer than int() reads
        limit = sys.get_int_max_str_digits()
        # a JSON string (skipped), or an integer with its digits in group 1
        atoms = re.finditer(r'"(?:[^"\\]|\\.)*"|(?<![\w.+-])-?(\d+)(?![\w.])', text)
        bad = next(m for m in atoms if len(m[1] or "") > limit)
        raise ParseError(f"invalid JSON in {path}: integer of {len(bad[1])} digits is too long",
                         *_position(text, bad.start())) from None


# The flag and the shape of every JSON document the subcommands read.  A
# key ending in "?" is optional; [shape] is a list of that shape; "int" is
# an integer or a string holding one; "text" is an expression string;
# "any" is checked where it is used (rationals and field entries report
# their own errors).
_DOCS = {
    "form": ("--form", {"n?": "int", "l?": "int", "m?": "int",
                        "entries?": [{"e": [["int"]], "coeff": "text"}]}),
    "g-form": ("--form", {"g": "text"}),
    "chart": ("--chart", {"substitutions": ["text"]}),
    "matrix": ("--matrix", {"nvars?": "int", "entries": [["any"]]}),
    "index": ("--matrix", {"nvars?": "int", "M": [["any"]], "L": [["any"]]}),
    "adic": ("--matrix", {"divisors": ["any"], "free_rank?": "int", "coords": ["any"]}),
    "polytope": ("--polytope", {"n": "int", "constraints": [{"a": ["any"], "b": "any"}]}),
}


def _is_int(value) -> bool:
    if isinstance(value, str):
        try:
            int(value)
        except ValueError:
            return False
        return True
    return isinstance(value, int) and not isinstance(value, bool)


def _check_shape(value, shape, key: str = "") -> None:
    """Raise a DomainError naming the first missing or ill-typed key, as a
    path such as entries[0].coeff."""
    what = f"key {key!r}" if key else "the document"
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            raise DomainError(f"{what} must be a JSON object")
        for name, sub in shape.items():
            required = not name.endswith("?")
            name = name.rstrip("?")
            child = f"{key}.{name}" if key else name
            if name in value:
                _check_shape(value[name], sub, child)
            elif required:
                raise DomainError(f"missing key {child!r}")
    elif isinstance(shape, list):
        if not isinstance(value, list):
            raise DomainError(f"{what} must be a list")
        for i, item in enumerate(value):
            _check_shape(item, shape[0], f"{key}[{i}]")
    elif shape == "int" and not _is_int(value):
        raise DomainError(f"{what} must be an integer, got {json.dumps(value)[:40]}")
    elif shape == "text" and not isinstance(value, str):
        raise DomainError(f"{what} must be an expression string, got {json.dumps(value)[:40]}")


def _load_doc(path, kind: str) -> dict:
    """A JSON document of the given kind, its shape checked."""
    flag, shape = _DOCS[kind]
    if path is None:
        raise DomainError(f"{flag} <{kind} file> is required")
    doc = _load_json(path)
    try:
        _check_shape(doc, shape)
    except DomainError as exc:
        raise DomainError(f"{kind} file {path}: {exc}") from None
    return doc


def _render_val(v: Val, eps) -> object:
    if v.is_inf:
        return "inf"
    q = v.fraction
    out = {"num": q.numerator, "den": q.denominator}
    if eps is not None:
        try:
            out["approx"] = float(eps) ** float(q)
        except (OverflowError, ZeroDivisionError) as exc:
            raise DomainError(f"--epsilon rendering of the value {q} is out of float range") from exc
    return out


def _render_fraction(q: Fraction) -> dict:
    return {"num": q.numerator, "den": q.denominator}


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")


def _load_form(args, model) -> Pluriform:
    doc = _load_doc(args.form, "form")
    n = args.n if args.n else int(doc.get("n", 0))
    if n < 1:
        raise DomainError("--n (or an n field in the form file) is required")
    l = int(doc.get("l", n))
    m = int(doc.get("m", 1))
    entries = [(tuple(tuple(int(i) for i in subset) for subset in entry["e"]),
                parse_poly(entry["coeff"], model, n, variables="t"))
               for entry in doc.get("entries", [])]
    Pluriform(model, n, l, m, dict(entries))  # refuses a bad index even where its coefficients cancel
    coeffs = {}
    for e, coeff in entries:
        _add_term(coeffs, e, coeff)
    return Pluriform(model, n, l, m, coeffs)


def _load_chart(args, model, n) -> MonomialChart:
    if args.point is None:
        raise DomainError("--point is required to place the monomial point")
    rho = _parse_point(args.point, n)
    if getattr(args, "chart", None):
        doc = _load_doc(args.chart, "chart")
        subs = [parse_poly(src, model, n, variables="s") for src in doc["substitutions"]]
        if len(subs) != n:
            raise DomainError(f"chart lists {len(subs)} substitutions, expected {n}")
        return MonomialChart(model, subs, rho)
    return MonomialChart.identity(model, n, rho)


def _gauss_radii(doc: dict, point) -> tuple:
    """(nvars, radii): the Gauss radii --point gives to matrix entries with
    nvars auxiliary variables."""
    nvars = int(doc.get("nvars", 0))
    if nvars < 0:
        raise DomainError("number of variables must be nonnegative")
    if not nvars:
        return 0, ()
    if point is None:
        raise DomainError("--point must supply Gauss radii for matrix entries with variables")
    return nvars, _parse_point(point, nvars)


def _matrix_rows(rows, model, nvars) -> list:
    return [
        [parse_poly(str(src), model, nvars, variables="t") if nvars else _field_entry(src, model)
         for src in row]
        for row in rows
    ]


def _load_matrix(doc: dict, model, point) -> PresentationMatrix:
    nvars, rho = _gauss_radii(doc, point)
    return PresentationMatrix(model, _matrix_rows(doc["entries"], model, nvars), nvars=nvars, rho=rho)


def _field_entry(src, model):
    poly = parse_poly(str(src), model, 0, variables="t")
    return poly.terms.get((), model.zero())


def _semistable_n(spec: str) -> int:
    n = _parse_int(spec.split(",")[0], "--semistable")
    if n > _MAX_SEMISTABLE_N:
        raise DomainError(f"--semistable dimension {n} is above the limit {_MAX_SEMISTABLE_N}")
    return n


def _polytope_from_args(args, doc=None) -> RationalPolytope:
    """The region of --semistable or --polytope; doc is the polytope
    document when _infer_n_from_region has read it already."""
    if getattr(args, "semistable", None):
        try:
            _, va_text = args.semistable.split(",")
        except ValueError as exc:
            raise DomainError("--semistable wants '<n>,<va>'") from exc
        return semistable_skeleton(_semistable_n(args.semistable), _parse_rational(va_text))
    if getattr(args, "polytope", None):
        if doc is None:
            doc = _load_doc(args.polytope, "polytope")
        constraints = [
            (tuple(_parse_rational(x) for x in c["a"]), _parse_rational(c["b"]))
            for c in doc["constraints"]
        ]
        return RationalPolytope(int(doc["n"]), constraints)
    raise DomainError("either --polytope or --semistable is required")


def _parse_kummer(text: str):
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            j, e = chunk.split(":")
            pairs.append((int(j), int(e)))
        except ValueError as exc:
            raise DomainError(f"--kummer wants 'j:e,...', got {chunk!r}") from exc
    return pairs


# -- subcommand handlers ------------------------------------------------------

def _cmd_eval_norm(args, model, eps):
    phi = _load_form(args, model)
    chart = _load_chart(args, model, phi.n)
    value = kahler_norm_at(phi, chart)
    cert = tame_certificate(chart)
    _emit({
        "value": _render_val(value, eps),
        "certificate": cert.value,
        "seminorm": "geometric-kahler",
    })


def _cmd_trop(args, model, eps):
    phi = _load_form(args, model)
    poly = tropicalize(phi)
    _emit({
        "n": poly.n,
        "terms": [{"c": _render_fraction(c), "I": list(e)} for c, e in poly.terms],
    })


def _infer_n_from_region(args):
    """Allow --n to be omitted when the polytope fixes the dimension; returns
    the polytope document when it was read for that, else None."""
    if args.n:
        return None
    if getattr(args, "semistable", None):
        args.n = _semistable_n(args.semistable)
    elif getattr(args, "polytope", None):
        doc = _load_doc(args.polytope, "polytope")
        args.n = int(doc["n"])
        return doc
    return None


def _cmd_max_locus(args, model, eps):
    doc = _infer_n_from_region(args)
    phi = _load_form(args, model)
    poly = tropicalize(phi)
    p = _polytope_from_args(args, doc)
    m_star, locus = min_locus(poly, p)
    _emit({
        "m_star": _render_val(Val(m_star), eps),
        "locus": [
            {
                "tight": list(face.tight),
                "vertices": [[_render_fraction(x) for x in v] for v in face.vertices],
            }
            for face in locus
        ],
    })


def _cmd_smith(args, model, eps):
    doc = _load_doc(args.matrix, "matrix")
    pres = _load_matrix(doc, model, args.point)
    d = smith(pres)
    _emit({
        "divisors": [_render_val(v, eps) for v in d.divisors],
        "free_rank": d.free_rank,
    })


def _cmd_content(args, model, eps):
    doc = _load_doc(args.matrix, "matrix")
    pres = _load_matrix(doc, model, args.point)
    _emit({"content": _render_val(content(pres), eps)})


def _cmd_index(args, model, eps):
    doc = _load_doc(args.matrix, "index")
    nvars, rho = _gauss_radii(doc, args.point)
    m_rows, l_rows = (_matrix_rows(doc[key], model, nvars) for key in ("M", "L"))
    value = semilattice_index(m_rows, l_rows, model, nvars=nvars, rho=rho)
    _emit({"index": _render_val(value, eps)})


def _cmd_adic(args, model, eps):
    doc = _load_doc(args.matrix, "adic")
    divisors = ElementaryDivisors(
        tuple(Val(_parse_rational(d)) for d in doc["divisors"]),
        int(doc.get("free_rank", 0)),
    )
    coords = [_field_entry(src, model) for src in doc["coords"]]
    _emit({"value": _render_val(adic_norm(divisors, coords, model), eps)})


def _cmd_weight_compare(args, model, eps):
    if not args.kummer:
        raise DomainError("--kummer is required")
    if not args.n:
        raise DomainError("--n is required")
    spec = KummerDivisorialSpec(model, args.n, _parse_kummer(args.kummer))
    if args.form:
        doc = _load_doc(args.form, "g-form")
        g = parse_poly(doc["g"], model, args.n, variables="ts")
    else:
        g = spec.one()
    report = compare(spec, g, args.m)
    _emit({
        "wt": _render_val(report.wt, eps),
        "omega": _render_val(report.omega, eps),
        "delta_log": _render_val(report.delta_log_k, eps),
        "holds": report.identity_holds,
    })


def _cmd_retract(args, model, eps):
    if not args.n:
        raise DomainError("--n is required")
    chart = _load_chart(args, model, args.n)
    point = retract(chart)
    _emit({"point": [_render_fraction(x) for x in point]})


def _cmd_tame_check(args, model, eps):
    if not args.n:
        raise DomainError("--n is required")
    chart = _load_chart(args, model, args.n)
    _emit({"certificate": tame_certificate(chart).value})


def _cmd_grid(args, model, eps):
    if args.grid is None:
        raise DomainError("--grid <steps> is required")
    steps = int(args.grid)
    if steps < 1:
        raise DomainError("--grid wants a positive number of steps")
    doc = _infer_n_from_region(args)
    phi = _load_form(args, model)
    poly = tropicalize(phi)
    points = 1
    for _ in range(poly.n):
        points *= steps + 1
        if points > _MAX_GRID_POINTS:
            raise DomainError(f"--grid {steps} in dimension {poly.n} is above the limit of "
                              f"{_MAX_GRID_POINTS} points ((steps + 1)^n)")
    p = _polytope_from_args(args, doc)
    if p.n != poly.n:
        raise DomainError("form and polytope dimensions disagree")
    verts = bounded_vertices(p)
    axes = []
    for i in range(p.n):
        lo = min(v[i] for v in verts)
        span = max(v[i] for v in verts) - lo
        # a flat axis holds one value; steps + 1 equal ones would repeat every point
        axes.append([lo + span * Fraction(k, steps) for k in range(steps + 1)] if span else [lo])
    _write_grid(sys.stdout, p, poly, axes)


def _write_grid(out, p: RationalPolytope, poly, axes) -> None:
    """CSV of the tropical value at every grid point inside p, in
    lexicographic order.  One common denominator d turns every coordinate
    into an integer X = d*x; each constraint row, scaled to integers, and
    each term then carry integer partial sums down the walk, so a point
    costs one integer comparison per row and one per term."""
    n = p.n
    d = lcm(*(x.denominator for axis in axes for x in axis), *(c.denominator for c, _ in poly.terms))
    rows = _integer_rows(p)
    bounds = [b * d for _, b in rows]
    columns = [[a[i] for a, _ in rows] for i in range(n)]
    slopes = [[e[i] for _, e in poly.terms] for i in range(n)]
    points = [[(int(x * d), str(x)) for x in axis] for axis in axes]
    lines = [",".join(f"rho{i + 1}" for i in range(n)) + ",value\n"]

    def walk(prefix, sums, values, depth):
        for x, text in points[depth]:
            here = [s + a * x for s, a in zip(sums, columns[depth])]
            at = [v + e * x for v, e in zip(values, slopes[depth])]
            text = prefix + text
            if depth + 1 < n:
                walk(text + ",", here, at, depth + 1)
            elif all(s <= b for s, b in zip(here, bounds)):
                lines.append(f"{text},{str(Fraction(min(at), d)) if at else 'inf'}\n")

    walk("", [0] * len(rows), [int(c * d) for c, _ in poly.terms], 0)
    out.write("".join(lines))


_HANDLERS = {
    "eval-norm": _cmd_eval_norm,
    "trop": _cmd_trop,
    "max-locus": _cmd_max_locus,
    "smith": _cmd_smith,
    "content": _cmd_content,
    "index": _cmd_index,
    "adic": _cmd_adic,
    "weight-compare": _cmd_weight_compare,
    "retract": _cmd_retract,
    "tame-check": _cmd_tame_check,
    "grid": _cmd_grid,
}


# The options every subcommand takes: (flag, dest, type, default, help).
_FLAGS = (
    ("--field", "field", None, "piadic-q", "trivial | padic:<p> | piadic-q | piadic-f<p>"),
    ("--n", "n", int, 0, "number of variables"),
    ("--point", "point", None, None, "comma-separated rational radii, e.g. '1/2,3'"),
    ("--chart", "chart", None, None, "JSON file with a substitution list"),
    ("--form", "form", None, None, "JSON file with a pluriform"),
    ("--matrix", "matrix", None, None, "JSON file with matrix data"),
    ("--polytope", "polytope", None, None, "JSON file with polytope constraints"),
    ("--semistable", "semistable", None, None, "'<n>,<va>': the standard skeleton simplex"),
    ("--kummer", "kummer", None, None, "Kummer layers 'j:e,...'"),
    ("--m", "m", int, 1, "tensor power of the canonical form"),
    ("--epsilon", "epsilon", None, None, "optional decimal base for approximate rendering"),
    ("--grid", "grid", int, None, "grid steps per axis (grid subcommand)"),
)
_FLAG_DEST = {flag: (dest, kind) for flag, dest, kind, _, _ in _FLAGS}
_DEFAULTS = {dest: default for _, dest, _, default, _ in _FLAGS}


def _build_parser():
    """The top-level parser, with every subcommand's parser under it."""
    import argparse  # only a run() that needs it pays for it, not every import

    # The top-level usage is written out as Python 3.10-3.12 wrap it at 80
    # columns, since Python 3.13 wraps the subcommand choices differently.
    indent = " " * len("usage: nonarch ")
    parser = argparse.ArgumentParser(
        prog="nonarch",
        usage=f"%(prog)s [-h]\n{indent}{{{','.join(_HANDLERS)}}}\n{indent}...",
        description="Exact non-archimedean seminorm and tropical skeleton calculator.",
    )
    sub = parser.add_subparsers(dest="command", required=True, prog="nonarch")
    for name in _HANDLERS:
        p = sub.add_parser(name)
        for flag, dest, kind, default, text in _FLAGS:
            p.add_argument(flag, dest=dest, type=kind, default=default, help=text)
    return parser


_PARSER = None


def _parser():
    """The one top-level parser of the process, built on first use (not at
    import, which would slow every import of the package) and only read
    after."""
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    return _PARSER


_Namespace = None  # argparse.Namespace, imported by the first _read_argv


def _read_argv(argv):
    """The Namespace argparse gives a well-formed argv: an exact subcommand,
    then exact '--flag=value' or '--flag value' pairs, the latter with a
    value that does not start with '-', and an integer value where the flag
    wants one.  None for any other argv."""
    global _Namespace
    if not argv or argv[0] not in _HANDLERS:
        return None
    if _Namespace is None:
        from argparse import Namespace as _Namespace
    args = _Namespace()
    values = vars(args)
    values["command"] = argv[0]
    values.update(_DEFAULTS)
    i, end = 1, len(argv)
    while i < end:
        token = argv[i]
        flag = _FLAG_DEST.get(token)
        if flag is not None:
            i += 1
            if i == end or argv[i].startswith("-"):  # argparse may read it as an option
                return None
            value = argv[i]
        else:  # '--flag=value' takes any value, '-' first or not
            name, eq, value = token.partition("=")
            flag = _FLAG_DEST.get(name) if eq else None
            if flag is None:
                return None
        dest, kind = flag
        if kind is not None:
            try:
                value = kind(value)
            except ValueError:
                return None
        values[dest] = value
        i += 1
    return args


def _parse_args(argv):
    """The parsed arguments: read directly when argv is well formed, else
    by the top-level parser, which owns every error, help text and usage
    line."""
    return _read_argv(argv) or _parser().parse_args(argv)


def run(argv) -> int:
    """Entry point; returns the process exit code instead of raising."""
    try:
        try:
            args = _parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code == 0 else 2
        model = _parse_field(args.field)
        eps = None
        if args.epsilon is not None:
            eps = _parse_rational(args.epsilon)
            if not 0 < eps < 1:
                raise DomainError("--epsilon must lie strictly between 0 and 1")
        _HANDLERS[args.command](args, model, eps)
        return 0
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
