"""The cli-batch workload: nonarch.cli.run(argv) in-process over all eleven
subcommands, with stdout and stderr captured.

Well-formed calls must exit 0 with output that passes the reference
checks, and repeat byte for byte.  Malformed calls must exit 2 or 3 with
a message on stderr and nothing on stdout.  Seven calls in six classes
are known to escape that contract with a traceback; they are built from
fixed inputs, so every round fails the same share of operations.
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import oracle as O
from workloads import UNITS, Case, Plan, oracle_matrix, rand_matrix, rand_rational, rand_terms

HERE = os.path.dirname(os.path.abspath(__file__))

# (label, argv with {file} placeholders, exception type name)
FAULTS = (
    ("smith-missing-entries", ["smith", "--field", "padic:2", "--matrix", "{empty}"], "KeyError"),
    ("smith-nvars-not-int", ["smith", "--field", "padic:2", "--matrix", "{nvars_x}"], "ValueError"),
    ("semistable-not-int", ["max-locus", "--field", "piadic-q", "--semistable", "a,1",
                            "--form", "{form1}"], "ValueError"),
    ("form-is-list", ["eval-norm", "--field", "piadic-q", "--n", "1", "--point", "1",
                      "--form", "{a_list}"], "AttributeError"),
    ("matrix-is-list", ["smith", "--field", "piadic-q", "--matrix", "{a_list}"], "AttributeError"),
    ("polytope-missing-constraints", ["max-locus", "--field", "piadic-q", "--n", "1",
                                      "--polytope", "{empty}", "--form", "{form1}"], "KeyError"),
    ("epsilon-overflow", ["eval-norm", "--field", "padic:2", "--n", "1", "--point", "0",
                          "--epsilon", "0.1", "--form", "{deep}"], "OverflowError"),
)
MALFORMED = (
    ("invalid-json", ["eval-norm", "--n", "1", "--point", "1", "--form", "{bad_json}"]),
    ("field-not-prime", ["smith", "--field", "padic:4", "--matrix", "{mat1}"]),
    ("expression-syntax", ["eval-norm", "--n", "1", "--point", "1", "--form", "{bad_expr}"]),
    ("missing-point", ["eval-norm", "--n", "1", "--form", "{form1}"]),
    ("unknown-subcommand", ["frobnicate", "--n", "1"]),
    ("entry-outside-ring", ["smith", "--field", "piadic-q", "--matrix", "{neg_entry}"]),
    ("unbounded-polytope", ["max-locus", "--n", "1", "--polytope", "{halfline}", "--form", "{form1}"]),
    ("grid-zero-steps", ["grid", "--grid", "0", "--semistable", "1,1", "--form", "{form1}"]),
    ("weight-trivial-field", ["weight-compare", "--field", "trivial", "--n", "1", "--kummer", "1:2"]),
    ("missing-file", ["eval-norm", "--n", "1", "--point", "1", "--form", "{missing}"]),
)
FIXED_FILES = {
    "empty": {},
    "nvars_x": {"nvars": "x", "entries": [["1"]]},
    "a_list": [],
    "form1": {"l": 1, "m": 1, "entries": [{"e": [[1]], "coeff": "t1 + 1"}]},
    # 2^-400 over padic:2, not pi^-400 over piadic-q: the value is -400 either
    # way, and Q(pi) spends ~0.3 s building pi^-400 by dense polynomial
    # multiplication, which would be a third of every round
    "deep": {"l": 1, "m": 1, "entries": [{"e": [[1]], "coeff": "2^-400"}]},
    "mat1": {"entries": [["2", "1"], ["4", "8"]]},
    "bad_expr": {"l": 1, "m": 1, "entries": [{"e": [[1]], "coeff": "3*t1^"}]},
    "neg_entry": {"entries": [["pi^-1"]]},
    "halfline": {"n": 1, "constraints": [{"a": ["1"], "b": "1"}]},
}
# variants per subcommand in each round.  The 90th percentile of a round
# rests on the few calls above it: with 7 variants (108 calls) its
# seed-to-seed spread, counted in Python function calls, was 0.14, and
# with 21 (290 calls) it is 0.05.
VARIANTS = 21
# The shape of every call (model, dimension, term count, matrix size, grid
# steps) is fixed by its variant number k, and only exponents, coefficients
# and points come from the seed: a seeded shape (say Q(pi) in place of
# p-adic entries, or a 4 x 4 in place of a 1 x 1 matrix) changes a call's
# cost several-fold, and the round's cost would follow the seed rather
# than the program.
# (rows, cols) of the field matrices given to smith and content
SMITH_SHAPES = ((3, 4), (4, 4), (2, 3), (3, 3), (4, 3), (1, 2), (2, 2))


def coeff_text(model, coef, power):
    if O.has_pi(model):
        return f"{coef}*pi^{power}" if power else str(coef)
    p = O.residue_char(model) if model.startswith("padic") else 1
    return str(coef * p ** power)


def poly_text(model, terms, family="t", names=None):
    """Expression text of [(exps, coef, power)]; variables are family1..
    familyN unless ``names`` lists them."""
    parts = []
    for exps, coef, power in terms:
        factors = [coeff_text(model, coef, power)]
        for i, e in enumerate(exps):
            name = names[i] if names else f"{family}{i + 1}"
            if e:
                factors.append(name if e == 1 else f"{name}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts) if parts else "0"


def monos_text(model, monos):
    return poly_text(model, [((), c, p) for c, p in monos])


def frac_json(q):
    q = Fraction(q)
    return {"num": q.numerator, "den": q.denominator}


def val_json(v, eps=None):
    if v is None:
        return "inf"
    out = frac_json(v)
    if eps is not None:
        out["approx"] = float(Fraction(eps)) ** float(v)
    return out


def point_text(rho):
    return ",".join(str(r) for r in rho)


def invoke(C, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = C.run(argv)
    return code, out.getvalue(), err.getvalue()


def well_formed(label, validate):
    """Check: exit 0, output accepted by ``validate(stdout)`` on first
    sight, then identical bytes on every repeat."""
    first = []

    def check(out):
        code, stdout, stderr = out
        if code != 0:
            return f"cli {label}: exit {code}: {stderr.strip()}"
        if first:
            return None if stdout == first[0] else f"cli {label}: output changed between calls"
        try:
            err = validate(stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            err = f"unreadable output ({type(exc).__name__}: {exc})"
        if err:
            return f"cli {label}: {err}"
        first.append(stdout)
        return None
    return check


def malformed(label):
    def check(out):
        code, stdout, stderr = out
        if code not in (2, 3) or not stderr.strip() or stdout:
            return f"cli {label}: exit {code}, stdout {stdout!r}, stderr {stderr!r}"
        return None
    return check


def exact(want):
    return lambda stdout: None if json.loads(stdout) == want else f"{stdout.strip()} != {json.dumps(want)}"


def plan_cli(seed):
    rng = random.Random(seed)
    workdir = tempfile.mkdtemp(prefix="cli-inputs-", dir=_results_dir())
    files = {}

    def put(name, payload):
        path = os.path.join(workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload if isinstance(payload, str) else json.dumps(payload))
        files[name] = path
        return path

    for name, payload in FIXED_FILES.items():
        put(name, payload)
    put("bad_json", '{"l": 1, "entries": [')
    files["missing"] = os.path.join(workdir, "absent.json")

    calls = []  # (label, argv, check)
    discrete = [m for m in O.MODELS if m != "trivial"]
    for k in range(VARIANTS):
        model = O.MODELS[k % len(O.MODELS)]
        field = O.cli_field(model)
        eps = "1/3" if k % 3 == 1 else None
        tail = ["--epsilon", eps] if eps else []

        # eval-norm on the identity chart, and on a monomial chart
        n = 1 + k % 2
        terms = rand_terms(rng, n, 2 + k % 4)
        rho = tuple(rand_rational(rng, -2, 2) for _ in range(n))
        form = put(f"form-id{k}", {"l": n, "m": 1, "entries": [
            {"e": [list(range(1, n + 1))], "coeff": poly_text(model, terms)}]})
        want = O.identity_value(model, {None: terms}, rho)
        calls.append((f"eval-norm/identity#{k}",
                      ["eval-norm", "--field", field, "--n", str(n), "--point=" + point_text(rho),
                       "--form", form] + tail,
                      exact({"value": val_json(want, eps), "certificate": "tame",
                             "seminorm": "geometric-kahler"})))
        L = _rand_nonsingular(rng, n)
        consts = [(rng.choice(UNITS), rng.randint(0, 2)) for _ in range(n)]
        chart = put(f"chart{k}", {"substitutions": [
            poly_text(model, [(tuple(L[i]), *consts[i])], "s") for i in range(n)]})
        want = O.monomial_value(model, terms, 1, L, consts, rho)
        cert = _tame(model, L)
        calls.append((f"eval-norm/monomial#{k}",
                      ["eval-norm", "--field", field, "--n", str(n), "--point=" + point_text(rho),
                       "--form", form, "--chart", chart],
                      exact({"value": val_json(want), "certificate": cert,
                             "seminorm": "geometric-kahler"})))
        calls.append((f"retract#{k}", ["retract", "--field", field, "--n", str(n), "--point=" + point_text(rho), "--chart", chart],
                      exact({"point": [frac_json(x) for x in O.retract_point(model, L, consts, rho)]})))
        calls.append((f"tame-check#{k}", ["tame-check", "--field", field, "--n", str(n),
                                          "--point=" + point_text(rho), "--chart", chart],
                      exact({"certificate": cert})))

        # trop, max-locus and grid on one top-degree form over a simplex
        n = 2 if k % 7 < 2 else 3
        terms = rand_terms(rng, n, 4 + (3 * k) % 7, -3, 3, 4)
        tt = O.trop_terms(model, terms)
        sform = put(f"form-sk{k}", {"l": n, "m": 1, "entries": [
            {"e": [list(range(1, n + 1))], "coeff": poly_text(model, terms)}]})
        va = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        semistable = f"{n},{va}"
        calls.append((f"trop#{k}", ["trop", "--field", field, "--n", str(n), "--form", sform],
                      exact({"n": n, "terms": [{"c": frac_json(c), "I": list(e)}
                                                for c, e in sorted((c, e) for e, c in tt.items())]})))
        calls.append((f"max-locus#{k}", ["max-locus", "--field", field, "--semistable", semistable,
                                         "--form", sform] + tail,
                      _locus_validate(tt, O.simplex_vertices(n, va), eps)))
        steps = 2 + k % 3
        calls.append((f"grid#{k}", ["grid", "--field", field, "--grid", str(steps),
                                    "--semistable", semistable, "--form", sform],
                      _grid_validate(tt, n, va, steps)))

        # smith, content and index on field matrices, one Laurent-entry smith
        r, c = SMITH_SHAPES[k % len(SMITH_SHAPES)]
        spec = rand_matrix(rng, r, c)
        mat = put(f"mat{k}", {"entries": [[monos_text(model, t) for t in row] for row in spec]})
        cf = O.Coeffs(model)
        d = O.determinantal_divisors(O.FieldRing(cf), oracle_matrix(cf, spec))
        calls.append((f"smith#{k}", ["smith", "--field", field, "--matrix", mat] + tail,
                      exact({"divisors": [val_json(x, eps) for x in _divisors(d)],
                             "free_rank": r - len(d)})))
        calls.append((f"content#{k}", ["content", "--field", field, "--matrix", mat],
                      exact({"content": val_json(d[-1] if len(d) == r else None)})))
        size = 1 + k % 3
        ms, ls, dm, dl = _nonsingular_pair(rng, cf, size)
        pair = put(f"pair{k}", {"M": [[monos_text(model, t) for t in row] for row in ms],
                                "L": [[monos_text(model, t) for t in row] for row in ls]})
        calls.append((f"index#{k}", ["index", "--field", field, "--matrix", pair],
                      exact({"index": val_json(dm - dl)})))
        lmodel = discrete[k % len(discrete)]
        lcf = O.Coeffs(lmodel)
        rho_l = (Fraction(1, rng.randint(1, 4)),)
        lspec = [[rand_terms(rng, 1, 1 + (i + j + k) % 2, 0, 2, 2) for j in range(2)] for i in range(2)]
        lmat = put(f"lmat{k}", {"nvars": 1, "entries": [[poly_text(lmodel, t) for t in row]
                                                        for row in lspec]})
        ld = O.determinantal_divisors(O.GaussRing(lcf, rho_l), [
            [{e: lcf.monomial(co, pw) for e, co, pw in t} for t in row] for row in lspec])
        calls.append((f"smith-gauss#{k}", ["smith", "--field", O.cli_field(lmodel), "--matrix", lmat,
                                           "--point=" + point_text(rho_l)],
                      exact({"divisors": [val_json(x) for x in _divisors(ld)],
                             "free_rank": 2 - len(ld)})))

        # adic seminorm of coordinates against given divisors
        free = k % 3
        divs = sorted(Fraction(rng.randint(0, 8), rng.randint(1, 2)) for _ in range(1 + (k + 1) % 3))
        coords = [[(rng.choice(UNITS), rng.randint(0, 4))] if rng.random() > 0.1 else []
                  for _ in range(free + len(divs))]
        adic = put(f"adic{k}", {"divisors": [str(x) for x in divs], "free_rank": free,
                                "coords": [monos_text(model, t) for t in coords]})
        cvals = [cf.val(cf.monomial(*t[0])) if t else None for t in coords]
        want = O.vmin(cvals[:free] + [v for v, dv in zip(cvals[free:], divs)
                                      if v is not None and v < dv])
        calls.append((f"adic#{k}", ["adic", "--field", field, "--matrix", adic] + tail,
                      exact({"value": val_json(want, eps)})))

        # weight / Kahler comparison
        wmodel = discrete[k % len(discrete)]
        n = 1 + k % 2
        kummer = [(j, rng.randint(1, 5)) for j in range(1, n + 1)]
        e_of = dict(kummer)
        while True:
            g_terms = [(tuple([rng.randint(-2, 2) for _ in range(n)]
                              + [rng.randint(0, 2 * e_of[j] - 1) for j in range(1, n + 1)]),
                        rng.choice(UNITS), rng.randint(0, 3)) for _ in range(1 + k % 4)]
            vk = O.kummer_value(wmodel, n, kummer, g_terms)
            if vk is not None:
                break
        g_text = poly_text(wmodel, g_terms, names=[f"t{i}" for i in range(1, n + 1)]
                           + [f"s{i}" for i in range(1, n + 1)])
        gform = put(f"g{k}", {"g": g_text})
        m = 1 + (k // 2) % 2
        jac = O.kummer_jacobian(wmodel, kummer)
        calls.append((f"weight-compare#{k}",
                      ["weight-compare", "--field", O.cli_field(wmodel), "--n", str(n), "--kummer",
                       ",".join(f"{j}:{e}" for j, e in kummer), "--m", str(m), "--form", gform],
                      exact({"wt": val_json(O.vadd(vk, None if jac is None else m * (jac + 1))),
                             "omega": val_json(O.vadd(vk, None if jac is None else m * jac)),
                             "delta_log": val_json(Fraction(0)), "holds": True})))

    def fill(argv):
        return [files[a[1:-1]] if a.startswith("{") and a.endswith("}") else a for a in argv]

    cases = [Case(label, _op(fill(argv)), well_formed(label, validate))
             for label, argv, validate in calls]
    cases += [Case(f"malformed/{label}", _op(fill(argv)), malformed(label)) for label, argv in MALFORMED]
    cases += [Case(f"fault/{label}", _op(fill(argv)), malformed(label), fault)
              for label, argv, fault in FAULTS]
    return Plan("cli-batch", cases, lambda nx, b: None,
                cleanup=lambda: shutil.rmtree(workdir, ignore_errors=True))


def _results_dir():
    path = os.path.join(HERE, "results")
    os.makedirs(path, exist_ok=True)
    return path


def _op(argv):
    def build(nx, b):
        C = nx.cli
        return lambda: invoke(C, argv)
    return build


def _divisors(d):
    return [b - a for a, b in zip([Fraction(0)] + d[:-1], d)]


def _nonsingular_pair(rng, cf, size):
    ring = O.FieldRing(cf)
    while True:
        ms, ls = rand_matrix(rng, size, size), rand_matrix(rng, size, size)
        dm = O.determinantal_divisors(ring, oracle_matrix(cf, ms))
        dl = O.determinantal_divisors(ring, oracle_matrix(cf, ls))
        if len(dm) == size and len(dl) == size:
            return ms, ls, dm[-1], dl[-1]


def _rand_nonsingular(rng, n):
    while True:
        L = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if O.int_det(L):
            return L


def _tame(model, L):
    p = O.residue_char(model)
    if p == 0:
        return "tame"
    return "tame" if O.int_det(L) % p else "wild"


def _locus_validate(tt, verts, eps):
    def validate(stdout):
        doc = json.loads(stdout)
        if set(doc) != {"m_star", "locus"}:
            return f"keys {sorted(doc)}"
        ms = doc["m_star"]
        if eps is not None and ms["approx"] != float(Fraction(eps)) ** float(Fraction(ms["num"], ms["den"])):
            return f"approx {ms['approx']} does not match m_star"
        faces = [(tuple(f["tight"]), [tuple(Fraction(x["num"], x["den"]) for x in v)
                                      for v in f["vertices"]]) for f in doc["locus"]]
        return O.check_locus(tt, verts, Fraction(ms["num"], ms["den"]), faces)
    return validate


def _grid_validate(tt, n, va, steps):
    """The CSV the grid must print: every grid point of the simplex's
    bounding box that lies in the simplex, in lexicographic order."""
    axes = [[va * Fraction(k, steps) for k in range(steps + 1)]] * n
    lines = [",".join(f"rho{i + 1}" for i in range(n)) + ",value"]

    def walk(prefix):
        if len(prefix) == n:
            if sum(prefix) <= va:
                v = O.trop_value(tt, prefix)
                lines.append(",".join(str(x) for x in prefix) + f",{'inf' if v is None else v}")
            return
        for x in axes[len(prefix)]:
            walk(prefix + (x,))

    walk(())
    want = "\n".join(lines) + "\n"
    return lambda stdout: None if stdout == want else "grid CSV differs from the reference"
