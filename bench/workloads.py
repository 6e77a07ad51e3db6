"""The benchmark's four workloads.

A workload is planned from its seed into a fixed list of cases.  Planning
is pure Python: it draws the inputs and computes every expected answer
with the reference arithmetic of ``oracle``.  Building turns the plan
into nonarch objects through the program's own constructors and
arithmetic and returns one zero-argument callable per operation; this is
the part timed as set-up.  Each callable looks the program's functions up
through their modules when it runs, so the traced run sees its wrappers.
"""

from __future__ import annotations

import random
from fractions import Fraction

import oracle as O

UNITS = (1, -1, 5, 7, -5, 11, 13)


class Case:
    """One operation: how to build it, how to check its output.  A case
    with ``fault`` set is expected to escape the program with that
    exception type (a known fault, counted as a failed operation)."""

    __slots__ = ("label", "build", "check", "fault")

    def __init__(self, label, build, check, fault=None):
        self.label = label
        self.build = build
        self.check = check
        self.fault = fault


class Plan:
    """A planned workload: its cases, and ``prepare(nx, b)``, which builds
    the program-side inputs into the cache ``b`` that case builders read."""

    def __init__(self, name, cases, prepare, relations=(), cleanup=None):
        self.name = name
        self.cases = cases
        self.prepare = prepare
        self.cleanup = cleanup
        # checks across the outputs of one round: f(outputs by label) -> error or None
        self.relations = list(relations)


def val_of(v):
    """Program Val -> Fraction, or None for INF."""
    return None if v.is_inf else v.fraction


def _fmt(x):
    return "inf" if x is None else str(x)


def expect_equal(what, want):
    def check(got):
        got = val_of(got)
        return None if got == want else f"{what}: got {_fmt(got)}, want {_fmt(want)}"
    return check


# -- program-side builders -----------------------------------------------------

def model_of(nx, name):
    f = nx.fields
    return {
        "trivial": f.trivial_q, "padic2": lambda: f.p_adic_q(2), "padic3": lambda: f.p_adic_q(3),
        "piadic-q": f.pi_adic_q, "piadic-f2": lambda: f.pi_adic_fp(2),
        "piadic-f3": lambda: f.pi_adic_fp(3),
    }[name]()


def elem(model, mono):
    """(coef, power) -> coef * u^power through field arithmetic."""
    coef, power = mono
    x = model.elem(coef)
    if power and model.is_discrete:
        x = x * model.uniformizer() ** power
    return x


def entry(model, monos):
    total = model.zero()
    for mono in monos:
        total = total + elem(model, mono)
    return total


def laurent(nx, model, n, terms):
    """terms: [(exps, coef, power)] -> LaurentPoly (sums repeated exps)."""
    out = nx.laurent.LaurentPoly.zero(model, n)
    for exps, coef, power in terms:
        out = out + nx.laurent.LaurentPoly.monomial(model, n, exps, elem(model, (coef, power)))
    return out


def pluriform(nx, model, n, l, m, coeffs):
    return nx.forms.Pluriform(model, n, l, m, {e: laurent(nx, model, n, t) for e, t in coeffs.items()})


# -- random inputs -----------------------------------------------------------------

def rand_monos(rng, max_power=3):
    if rng.random() < 0.15:
        return ()
    k = 2 if rng.random() < 0.2 else 1
    return tuple((rng.choice(UNITS), rng.randint(0, max_power)) for _ in range(k))


def rand_matrix(rng, rows, cols):
    return [[rand_monos(rng) for _ in range(cols)] for _ in range(rows)]


def oracle_matrix(cf, spec):
    out = []
    for row in spec:
        new = []
        for monos in row:
            acc = ()
            for coef, power in monos:
                acc = cf.add(acc, cf.monomial(coef, power))
            new.append(acc)
        out.append(new)
    return out


def rand_terms(rng, n, count, lo=-2, hi=3, max_power=3):
    """count distinct exponent vectors (at most all of the box), each with
    a unit times u^k."""
    count = min(count, (hi - lo + 1) ** n)
    seen = {}
    while len(seen) < count:
        exps = tuple(rng.randint(lo, hi) for _ in range(n))
        seen.setdefault(exps, (rng.choice(UNITS), rng.randint(0, max_power)))
    return [(e, c, p) for e, (c, p) in seen.items()]


def rand_rational(rng, lo, hi, maxden=4):
    den = rng.randint(1, maxden)
    return Fraction(rng.randint(lo * den, hi * den), den)


# -- smith / content / det_val checks ------------------------------------------------

def smith_check(label, d, rows):
    rank = len(d)

    def check(out):
        divs = [val_of(x) for x in out.divisors]
        if len(divs) != rank:
            return f"{label}: {len(divs)} divisors, rank is {rank}"
        acc = Fraction(0)
        for k, (x, dk) in enumerate(zip(divs, d), start=1):
            acc += x
            if acc != dk:
                return f"{label}: divisor partial sum {k} is {acc}, minimal {k}-minor valuation is {dk}"
        if out.free_rank != rows - rank:
            return f"{label}: free_rank {out.free_rank}, want {rows - rank}"
        return None
    return check


def content_expect(d, rows):
    return d[-1] if d and len(d) == rows else None


def add_matrix_cases(cases, model, key, rows, d, square):
    """smith and content (and det_val when square) on one built matrix."""
    cases.append(Case(f"smith/{key}", _lattice_op("smith", model, key), smith_check(key, d, rows)))
    cases.append(Case(f"content/{key}", _lattice_op("content", model, key),
                      expect_equal(f"content {key}", content_expect(d, rows))))
    if square:
        want = d[-1] if len(d) == rows else None
        cases.append(Case(f"det_val/{key}", _lattice_op("det_val", model, key),
                          expect_equal(f"det_val {key}", want)))


def _lattice_op(fn, model, key):
    def build(nx, b):
        m, rows, L = b["model", model], b[(model, key)], nx.lattices
        if fn == "det_val":
            return lambda: L.det_val(rows, m)
        if fn == "smith":
            return lambda: L.smith(L.PresentationMatrix(m, rows))
        return lambda: L.content(L.PresentationMatrix(m, rows))
    return build


# -- lattice-content ---------------------------------------------------------------------

# Square pair sizes per model.  Q(pi) costs ~100x the p-adic models and
# its cost is heavy-tailed in the seed, the more so the larger the matrix:
# smith, content and det_val on twelve 4 x 4 pairs (X, Y and XY) summed
# to 1.3-2.1 s over eight seeds, and on forty 3 x 3 pairs to 0.91-1.11 s.
# So Q(pi) runs eighty 3 x 3 pairs, whose sum is steady and carries about
# half of a round, and its odd shapes stay at most 4 wide.  The pi-adic
# F_p models run many mid-sized pairs for the same reason, and the cheap
# models run 1..6 four times over.  Each percentile then rests on many
# distinct inputs: with every count halved, the seed-to-seed spread of
# the 90th percentile (counted in Python function calls, which no
# neighbour on the host can disturb) rose from 0.08 to 0.12.
LATTICE_SQUARE = {
    "trivial": (1, 2, 3, 4, 5, 6) * 4, "padic2": (1, 2, 3, 4, 5, 6) * 4,
    "padic3": (1, 2, 3, 4, 5, 6) * 4, "piadic-q": (3,) * 80,
    "piadic-f2": (3, 4, 5) * 8, "piadic-f3": (3, 4, 5) * 8,
}
LATTICE_NONSQUARE = {"piadic-q": ((2, 3), (3, 2), (2, 4), (4, 2), (3, 4)) * 4}
LATTICE_SINGULAR = {"piadic-q": (3, 4) * 6}
WIDE_NONSQUARE = ((2, 3), (3, 2), (4, 6), (6, 4), (5, 3)) * 4
WIDE_SINGULAR = (3, 4, 5) * 4


def plan_lattice(seed):
    rng = random.Random(seed)
    cases, relations, builds = [], [], []
    for model in O.MODELS:
        cf = O.Coeffs(model)
        ring = O.FieldRing(cf)
        specs = []
        for idx, size in enumerate(LATTICE_SQUARE[model]):
            x, y = rand_matrix(rng, size, size), rand_matrix(rng, size, size)
            specs.append((f"{model}/{size}x{size}#{idx}", x, y))
        for idx, (r, c) in enumerate(LATTICE_NONSQUARE.get(model, WIDE_NONSQUARE)):
            specs.append((f"{model}/{r}x{c}#{idx}", rand_matrix(rng, r, c), None))
        for idx, size in enumerate(LATTICE_SINGULAR.get(model, WIDE_SINGULAR)):
            x = rand_matrix(rng, size, size)
            i, j = rng.sample(range(size), 2)
            u = rng.choice(UNITS)
            # row j := u * row i (singular over every model)
            x[j] = [tuple((u * c, p) for c, p in monos) for monos in x[i]]
            specs.append((f"{model}/{size}x{size}-singular#{idx}", x, None))
        for key, x, y in specs:
            ox = oracle_matrix(cf, x)
            builds.append((model, key, x))
            dx = O.determinantal_divisors(ring, ox)
            add_matrix_cases(cases, model, key, len(x), dx, len(x) == len(x[0]))
            if y is None:
                continue
            oy = oracle_matrix(cf, y)
            builds.append((model, key + "/Y", y))
            builds.append((model, key + "/XY", (key, key + "/Y")))
            dy = O.determinantal_divisors(ring, oy)
            dxy = O.determinantal_divisors(ring, O.matmul(ring, ox, oy))
            add_matrix_cases(cases, model, key + "/Y", len(y), dy, True)
            add_matrix_cases(cases, model, key + "/XY", len(y), dxy, True)
            relations.append(_content_product(key))

    def prepare(nx, b):
        for model in O.MODELS:
            b["model", model] = model_of(nx, model)
        for model, key, spec in builds:
            m = b["model", model]
            if isinstance(spec, tuple):
                a, c = b[(model, spec[0])], b[(model, spec[1])]
                b[(model, key)] = [
                    [sum((a[i][k] * c[k][j] for k in range(len(c))), m.zero()) for j in range(len(c[0]))]
                    for i in range(len(a))
                ]
            else:
                b[(model, key)] = [[entry(m, monos) for monos in row] for row in spec]

    return Plan("lattice-content", cases, prepare, relations)


def _content_product(key):
    def check(outputs):
        cx, cy, cxy = (val_of(outputs[f"content/{k}"]) for k in (key, key + "/Y", key + "/XY"))
        want = O.vadd(cx, cy)
        return None if cxy == want else f"content({key} XY) = {_fmt(cxy)} != {_fmt(cx)} + {_fmt(cy)}"
    return check


# -- kahler-charts ---------------------------------------------------------------------------

def _rand_subset_index(rng, n, l, m):
    return tuple(tuple(sorted(rng.sample(range(1, n + 1), l))) for _ in range(m))


def _rand_form(rng, n, l, m, slots, total_terms, lo=-2, hi=3):
    """A form whose basis indices (up to ``slots``) share total_terms terms."""
    coeffs = {}
    for _ in range(slots):
        coeffs.setdefault(_rand_subset_index(rng, n, l, m), [])
    per = max(1, total_terms // len(coeffs))
    return {k: rand_terms(rng, n, per, lo, hi) for k in coeffs}


def _rand_L(rng, model, n, wild):
    p = O.residue_char(model)
    cf = O.Coeffs(model)
    for _ in range(10000):
        L = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        det = O.int_det(L)
        if det == 0:
            continue
        v = cf.int_val(det)
        if wild == (v is None or v > 0):
            return L
    raise RuntimeError("no exponent matrix found")


# The shape of every form is fixed by its place in these schedules and
# only the exponents and coefficients come from the seed: a random shape
# (say m = 2 instead of 1) changes an operation's cost several-fold, and
# the round's cost and percentiles would follow the seed rather than the
# program.
# (n, terms, l, m, slots) of the identity-chart forms: every l <= n, m <= 2.
KAHLER_IDENTITY = ((1, 10, 1, 1, 1), (2, 20, 1, 2, 2), (3, 30, 2, 1, 3), (4, 30, 2, 2, 2),
                   (1, 10, 0, 2, 1), (2, 20, 2, 1, 1), (3, 30, 3, 2, 1), (4, 30, 3, 1, 3))
# (n, terms, m) of the top-degree forms on monomial charts.
KAHLER_MONOMIAL = ((1, 10, 1), (2, 20, 2), (3, 20, 1), (4, 30, 2),
                   (1, 10, 2), (2, 20, 1), (3, 20, 2), (4, 30, 1))
# (n, terms, l, m, slots) of the translated-chart forms.  n = 3 and 4 are
# the costly tier (~0.02-0.3 s each) and hold the 90th percentile.  The
# schedule runs twice over, so that percentile rests on eight n = 3 forms
# per model: once over, its seed-to-seed spread (counted in Python
# function calls) was 0.17, twice over it is 0.07.  A round takes ~3.5 s.
KAHLER_TRANSLATED = ((1, 8, 1, 1, 1), (2, 20, 1, 2, 2), (2, 30, 2, 1, 1),
                     (3, 20, 3, 2, 1), (3, 30, 3, 1, 1), (3, 30, 2, 1, 2), (3, 30, 3, 1, 1),
                     (4, 30, 4, 1, 1)) * 2
# (nvars, rows, cols).  3 x 3 in two variables is left out: its cost swings
# 4-95 ms with the seed, and 4 x 4 takes seconds (the _Ratio FOUND note in
# CHANGES.md).
LAURENT_SMITH = ((1, 2, 2), (1, 2, 3), (1, 3, 3), (2, 2, 2), (2, 2, 3), (2, 3, 2))
LAURENT_MODELS = ("padic2", "padic3", "piadic-q", "piadic-f3")
KUMMER_MODELS = ("padic2", "padic3", "piadic-q", "piadic-f2", "piadic-f3")


def plan_kahler(seed):
    rng = random.Random(seed)
    cases, builds = [], []

    def add_form(label, model, n, l, m, coeffs):
        builds.append(("form", label, model, (n, l, m, coeffs)))

    for model in O.MODELS:
        # identity charts: any l, m <= 2
        for idx, (n, terms, l, m, slots) in enumerate(KAHLER_IDENTITY):
            coeffs = _rand_form(rng, n, l, m, slots, terms)
            rho = tuple(rand_rational(rng, -3, 3) for _ in range(n))
            label = f"{model}/identity/n{n}#{idx}"
            add_form(label, model, n, l, m, coeffs)
            builds.append(("chart", label, model, ("identity", n, rho)))
            want = O.identity_value(model, coeffs, rho)
            cases.append(Case(f"kahler_norm_at/{label}", _norm_op(label),
                              expect_equal(f"kahler_norm_at {label}", want)))
            cases.append(Case(f"pullback/{label}", _pullback_op(label), _identity_pullback_check(label, coeffs)))
        # monomial charts t_i = c_i s^{L_i}: top degree, tame and wild
        for idx, (n, terms, m) in enumerate(KAHLER_MONOMIAL):
            wild = O.residue_char(model) > 0 and idx % 2 == 1
            L = _rand_L(rng, model, n, wild)
            consts = [(rng.choice(UNITS), rng.randint(0, 2)) for _ in range(n)]
            form_terms = rand_terms(rng, n, terms)
            coeffs = {(tuple(range(1, n + 1)),) * m: form_terms}
            rho = tuple(rand_rational(rng, -3, 3) for _ in range(n))
            label = f"{model}/monomial-{'wild' if wild else 'tame'}/n{n}#{idx}"
            add_form(label, model, n, n, m, coeffs)
            builds.append(("chart", label, model, ("monomial", n, rho, L, consts)))
            want = O.monomial_value(model, form_terms, m, L, consts, rho)
            cases.append(Case(f"kahler_norm_at/{label}", _norm_op(label),
                              expect_equal(f"kahler_norm_at {label}", want)))
            support = set() if want is None else O.monomial_support(form_terms, L)
            cases.append(Case(f"pullback/{label}", _pullback_op(label),
                              _monomial_pullback_check(label, support)))
        # translated charts t_i = a_i + s_i, unit a_i, positive radii
        for idx, (n, terms, l, m, slots) in enumerate(KAHLER_TRANSLATED):
            coeffs = _rand_form(rng, n, l, m, slots, terms)
            p = O.residue_char(model)
            consts = [rng.choice([u for u in UNITS if p == 0 or u % p]) for _ in range(n)]
            rho = tuple(rand_rational(rng, 1, 3) for _ in range(n))
            rho = tuple(r if r > 0 else Fraction(1, 2) for r in rho)
            label = f"{model}/translated/n{n}#{idx}"
            add_form(label, model, n, l, m, coeffs)
            builds.append(("chart", label, model, ("translated", n, rho, consts)))
            want = O.translated_value(model, coeffs, consts, rho)
            cases.append(Case(f"kahler_norm_at/{label}", _norm_op(label),
                              expect_equal(f"kahler_norm_at {label}", want)))

    # weight / Kahler comparison on Kummer-over-Gauss points
    for idx, model in enumerate(KUMMER_MODELS * 2):
        n, m = 1 + idx % 3, 1 + idx % 2
        kummer = [(j, rng.randint(1, 6)) for j in range(1, n + 1) if j == 1 or rng.random() < 0.7]
        e_of = dict(kummer)
        while True:
            g_terms = []
            for _ in range(4):
                exps = [rng.randint(-2, 2) for _ in range(n)] + [
                    rng.randint(0, 2 * e_of[j] - 1) if j in e_of else 0 for j in range(1, n + 1)]
                g_terms.append((tuple(exps), rng.choice(UNITS), rng.randint(0, 3)))
            vk = O.kummer_value(model, n, kummer, g_terms)
            if vk is not None:
                break
        jac = O.kummer_jacobian(model, kummer)
        label = f"{model}/kummer#{idx}"
        builds.append(("kummer", label, model, (n, kummer, g_terms)))
        want_wt = O.vadd(vk, None if jac is None else m * (jac + 1))
        want_omega = O.vadd(vk, None if jac is None else m * jac)
        cases.append(Case(f"compare/{label}", _compare_op(label, m),
                          _compare_check(label, want_wt, want_omega)))
        cases.append(Case(f"log_different/{label}", _log_different_op(label),
                          expect_equal(f"log_different {label}", jac)))
    for p in (2, 3):
        for e in range(2, 10):
            if e % p:
                label = f"padic{p}/ramified-e{e}"
                cases.append(Case(f"different_kummer_ramified/{label}", _ramified_op(p, e),
                                  expect_equal(label, Fraction(e - 1, e))))

    # Smith forms of Laurent-entry matrices at Gauss radii
    for model in LAURENT_MODELS:
        cf = O.Coeffs(model)
        for idx, (nvars, r, c) in enumerate(LAURENT_SMITH):
            rho = tuple(Fraction(1, rng.randint(1, 4)) for _ in range(nvars))
            spec = [[[] if rng.random() < 0.1 else rand_terms(rng, nvars, 2, 0, 2, 2)
                     for _ in range(c)] for _ in range(r)]
            ring = O.GaussRing(cf, rho)
            omat = [[{e: cf.monomial(co, pw) for e, co, pw in t} for t in row] for row in spec]
            d = O.determinantal_divisors(ring, omat)
            label = f"{model}/gauss-{r}x{c}-v{nvars}#{idx}"
            builds.append(("gauss", label, model, (nvars, rho, spec)))
            cases.append(Case(f"smith/{label}", _gauss_op(label, "smith"), smith_check(label, d, r)))
            cases.append(Case(f"content/{label}", _gauss_op(label, "content"),
                              expect_equal(f"content {label}", content_expect(d, r))))

    def prepare(nx, b):
        models = {}
        for kind, label, model, spec in builds:
            m = models.get(model) or models.setdefault(model, model_of(nx, model))
            if kind == "form":
                b["form", label] = pluriform(nx, m, *spec)
            elif kind == "chart":
                b["chart", label] = _build_chart(nx, m, spec)
            elif kind == "kummer":
                n, kummer, g_terms = spec
                b["kummer", label] = (nx.weights.KummerDivisorialSpec(m, n, kummer),
                                      laurent(nx, m, 2 * n, g_terms))
            else:
                nvars, rho, mat = spec
                rows = [[laurent(nx, m, nvars, t) for t in row] for row in mat]
                b["gauss", label] = (m, rows, nvars, rho)
        for p in (2, 3):
            b["padic", p] = nx.fields.p_adic_q(p)

    return Plan("kahler-charts", cases, prepare)


def _build_chart(nx, m, spec):
    F, LP = nx.forms, nx.laurent.LaurentPoly
    kind, n, rho = spec[:3]
    if kind == "identity":
        return F.MonomialChart.identity(m, n, rho)
    if kind == "monomial":
        L, consts = spec[3], spec[4]
        subs = [LP.monomial(m, n, L[i], elem(m, consts[i])) for i in range(n)]
        return F.MonomialChart(m, subs, rho)
    consts = spec[3]
    subs = [LP.constant(m, n, consts[i]) + LP.variable(m, n, i + 1) for i in range(n)]
    return F.MonomialChart(m, subs, rho)


def _norm_op(label):
    def build(nx, b):
        phi, chart, F = b["form", label], b["chart", label], nx.forms
        return lambda: F.kahler_norm_at(phi, chart)
    return build


def _pullback_op(label):
    def build(nx, b):
        phi, chart, F = b["form", label], b["chart", label], nx.forms
        return lambda: F.pullback(phi, chart)
    return build


def _identity_pullback_check(label, coeffs):
    """Pullback along the identity chart is the identity: same basis
    indices, same supports, denominator 1."""
    want = {e: {exps for exps, _, _ in terms} for e, terms in coeffs.items()}

    def check(out):
        if not out.denominator == 1:
            return f"pullback {label}: denominator {out.denominator} is not 1"
        got = {e: set(c.terms) for e, c in out.form.coeffs.items()}
        return None if got == want else f"pullback {label}: supports changed"
    return check


def _monomial_pullback_check(label, support):
    def check(out):
        if not out.denominator == 1:
            return f"pullback {label}: denominator {out.denominator} is not 1"
        got = set()
        for coeff in out.form.coeffs.values():
            got.update(coeff.terms)
        return None if got == support else f"pullback {label}: support {sorted(got)} != L^T I {sorted(support)}"
    return check


def _compare_op(label, m):
    def build(nx, b):
        spec, g = b["kummer", label]
        W = nx.weights
        return lambda: W.compare(spec, g, m)
    return build


def _compare_check(label, want_wt, want_omega):
    def check(out):
        got = (val_of(out.wt), val_of(out.omega), val_of(out.delta_log_k), out.identity_holds)
        want = (want_wt, want_omega, Fraction(0), True)
        return None if got == want else f"compare {label}: got {got}, want {want}"
    return check


def _log_different_op(label):
    def build(nx, b):
        spec, W = b["kummer", label][0], nx.weights
        return lambda: W.log_different(spec)
    return build


def _ramified_op(p, e):
    def build(nx, b):
        model, W = b["padic", p], nx.weights
        return lambda: W.different_kummer_ramified(model, e)
    return build


def _gauss_op(label, fn):
    def build(nx, b):
        m, rows, nvars, rho = b["gauss", label]
        L = nx.lattices
        return lambda: getattr(L, fn)(L.PresentationMatrix(m, rows, nvars, rho))
    return build


# -- skeleton-locus ----------------------------------------------------------------------------

SKELETON_SIMPLEX = ((2, 10), (2, 30), (3, 20), (3, 40), (4, 30), (4, 60))
SKELETON_BOX = ((2, 20), (3, 30), (4, 40))
SKELETON_PRUNE_TERMS = 8
SKELETON_MODELS = ("trivial", "padic3", "piadic-q", "piadic-f2")


def plan_skeleton(seed):
    rng = random.Random(seed)
    cases, builds = [], []
    for model in SKELETON_MODELS:
        polys = []
        for idx, (n, terms) in enumerate(SKELETON_SIMPLEX):
            va = rand_rational(rng, 1, 4)
            va = va if va > 0 else Fraction(1)
            polys.append((f"{model}/simplex-n{n}#{idx}", n, terms, ("simplex", n, va),
                          O.simplex_vertices(n, va)))
        for idx, (n, terms) in enumerate(SKELETON_BOX):
            lo = [rand_rational(rng, -3, 1) for _ in range(n)]
            hi = [x + Fraction(rng.randint(1, 8), rng.randint(1, 3)) for x in lo]
            polys.append((f"{model}/box-n{n}#{idx}", n, terms, ("box", n, lo, hi),
                          O.box_vertices(lo, hi)))
        for label, n, terms, pspec, verts in polys:
            span = 6 if n == 2 else 4
            form_terms = rand_terms(rng, n, terms, -span, span, 5)
            tt = O.trop_terms(model, form_terms)
            builds.append((label, model, n, form_terms, pspec))
            cases.append(Case(f"min_locus/{label}", _locus_op(label), _locus_check(label, tt, verts)))
            cases.append(Case(f"polytope_vertices/{label}", _vertices_op(label),
                              _vertices_check(label, verts)))
            # prune runs one LP per term over all other terms: a short form
            small = rand_terms(rng, n, SKELETON_PRUNE_TERMS, -span, span, 5)
            st = O.trop_terms(model, small)
            builds.append((label + "/prune", model, n, small, pspec))
            points = list(verts) + [_interior(rng, list(verts)) for _ in range(4)]
            cases.append(Case(f"prune_never_minimal/{label}", _prune_op(label + "/prune"),
                              _prune_check(label, st, points)))
        for idx, n in enumerate((2, 3, 4, 4)):
            L = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            consts = [(rng.choice(UNITS), rng.randint(0, 3)) for _ in range(n)]
            rho = tuple(rand_rational(rng, -3, 3) for _ in range(n))
            want = O.retract_point(model, L, consts, rho)
            label = f"{model}/retract-n{n}#{idx}"
            builds.append((label, model, n, None, ("monomial", n, rho, L, consts)))
            cases.append(Case(f"retract/{label}", _retract_op(label), _tuple_check(label, want)))

    def prepare(nx, b):
        T = nx.tropical
        models = {}
        for label, model, n, form_terms, pspec in builds:
            m = models.get(model) or models.setdefault(model, model_of(nx, model))
            if form_terms is None:
                b["chart", label] = _build_chart(nx, m, pspec)
                continue
            b["form", label] = pluriform(nx, m, n, n, 1, {(tuple(range(1, n + 1)),): form_terms})
            if pspec[0] == "simplex":
                b["polytope", label] = T.semistable_skeleton(n, pspec[2])
            else:
                b["polytope", label] = T.RationalPolytope(n, O.box_constraints(pspec[2], pspec[3]))

    return Plan("skeleton-locus", cases, prepare)


def _interior(rng, verts):
    weights = [rng.randint(1, 5) for _ in verts]
    total = sum(weights)
    n = len(verts[0])
    return tuple(sum(Fraction(w, total) * v[i] for w, v in zip(weights, verts)) for i in range(n))


def _locus_op(label):
    def build(nx, b):
        phi, P, T = b["form", label], b["polytope", label], nx.tropical
        return lambda: T.min_locus(T.tropicalize(phi), P)
    return build


def _locus_check(label, terms, verts):
    def check(out):
        m_star, faces = out
        err = O.check_locus(terms, verts, m_star, [(f.tight, f.vertices) for f in faces])
        return None if err is None else f"min_locus {label}: {err}"
    return check


def _vertices_op(label):
    def build(nx, b):
        P, T = b["polytope", label], nx.tropical
        return lambda: T.polytope_vertices(P)
    return build


def _vertices_check(label, verts):
    want = sorted(verts)

    def check(out):
        got = sorted(tuple(Fraction(x) for x in v) for v in out)
        return None if got == want else f"polytope_vertices {label}: {got} != {want}"
    return check


def _prune_op(label):
    def build(nx, b):
        phi, P, T = b["form", label], b["polytope", label], nx.tropical
        return lambda: T.prune_never_minimal(T.tropicalize(phi), P)
    return build


def _prune_check(label, terms, points):
    want = [O.trop_value(terms, p) for p in points]

    def check(out):
        kept = {tuple(e): Fraction(c) for c, e in out.terms}
        got = [O.trop_value(kept, p) for p in points]
        return None if got == want else f"prune_never_minimal {label}: values {got} != {want}"
    return check


def _retract_op(label):
    def build(nx, b):
        chart, T = b["chart", label], nx.tropical
        return lambda: T.retract(chart)
    return build


def _tuple_check(label, want):
    def check(out):
        got = tuple(Fraction(x) for x in out)
        return None if got == want else f"retract {label}: {got} != {want}"
    return check
