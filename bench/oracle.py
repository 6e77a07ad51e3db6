"""Reference arithmetic for the benchmark's checks, independent of nonarch.

Everything here is plain Python integers and Fractions.  A ring element of
the base field is a coefficient polynomial in the uniformizer: a tuple of
ints, lowest degree first (degree 0 for the rational models).  Valuations
are Fractions, with None standing for +infinity.

The checks use only closed forms and invariants of the mathematics:
determinantal divisors for Smith forms, the binomial expansion for
translated charts, the exponent-matrix formula for monomial charts and
known vertex lists for skeleton polytopes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

MODELS = ("trivial", "padic2", "padic3", "piadic-q", "piadic-f2", "piadic-f3")


def residue_char(model):
    return {"padic2": 2, "padic3": 3, "piadic-f2": 2, "piadic-f3": 3}.get(model, 0)


def has_pi(model):
    return model.startswith("piadic")


def cli_field(model):
    return {"trivial": "trivial", "padic2": "padic:2", "padic3": "padic:3",
            "piadic-q": "piadic-q", "piadic-f2": "piadic-f2", "piadic-f3": "piadic-f3"}[model]


def vmin(values):
    best = None
    for v in values:
        if v is not None and (best is None or v < best):
            best = v
    return best


def vadd(a, b):
    return None if a is None or b is None else a + b


# -- coefficients: polynomials in the uniformizer ---------------------------

class Coeffs:
    """Exact arithmetic on coefficient polynomials of one base-field model.
    For the p-adic and trivial models the uniformizer power is folded into
    an integer (p^k) or dropped (trivial), so elements have degree 0."""

    def __init__(self, model):
        self.model = model
        self.mod = residue_char(model) if model.startswith("piadic-f") else None
        self.p = residue_char(model) if model.startswith("padic") else None

    def norm(self, a):
        a = list(a)
        if self.mod:
            a = [c % self.mod for c in a]
        while a and a[-1] == 0:
            a.pop()
        return tuple(a)

    def monomial(self, coef, power):
        """coef * u^power, u the uniformizer (pi, or p; 1 when trivial)."""
        if has_pi(self.model):
            return self.norm([0] * power + [coef])
        if self.p:
            return self.norm([coef * self.p ** power])
        return self.norm([coef])

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return self.norm(out)

    def neg(self, a):
        return self.norm([-c for c in a])

    def mul(self, a, b):
        if not a or not b:
            return ()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return self.norm(out)

    def val(self, a):
        if not a:
            return None
        if has_pi(self.model):
            return Fraction(next(i for i, c in enumerate(a) if c))
        if self.p:
            n, k = abs(a[0]), 0
            while n % self.p == 0:
                n //= self.p
                k += 1
            return Fraction(k)
        return Fraction(0)

    def int_val(self, n):
        return self.val(self.norm([n]))


# -- Laurent polynomials as dicts exps -> coefficient polynomial -------------

class Laurent:
    def __init__(self, cf: Coeffs):
        self.cf = cf

    def add(self, f, g):
        out = dict(f)
        for e, c in g.items():
            c = self.cf.add(out.get(e, ()), c)
            if c:
                out[e] = c
            else:
                out.pop(e, None)
        return out

    def neg(self, f):
        return {e: self.cf.neg(c) for e, c in f.items()}

    def mul(self, f, g):
        out = {}
        for e1, c1 in f.items():
            for e2, c2 in g.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = self.cf.add(out.get(e, ()), self.cf.mul(c1, c2))
                if c:
                    out[e] = c
                else:
                    out.pop(e, None)
        return out

    def gauss(self, f, rho):
        return vmin(self.cf.val(c) + sum(e * r for e, r in zip(exps, rho))
                    for exps, c in f.items())


class FieldRing:
    """Matrix entries that are base-field coefficient polynomials."""

    def __init__(self, cf: Coeffs):
        self.cf = cf
        self.zero = ()

    def is_zero(self, a):
        return not a

    def add(self, a, b):
        return self.cf.add(a, b)

    def neg(self, a):
        return self.cf.neg(a)

    def mul(self, a, b):
        return self.cf.mul(a, b)

    def val(self, a):
        return self.cf.val(a)


class GaussRing:
    """Matrix entries that are Laurent polynomials valued at radii rho."""

    def __init__(self, cf: Coeffs, rho):
        self.lr = Laurent(cf)
        self.rho = tuple(Fraction(r) for r in rho)
        self.zero = {}

    def is_zero(self, a):
        return not a

    def add(self, a, b):
        return self.lr.add(a, b)

    def neg(self, a):
        return self.lr.neg(a)

    def mul(self, a, b):
        return self.lr.mul(a, b)

    def val(self, a):
        return self.lr.gauss(a, self.rho)


def determinantal_divisors(ring, matrix):
    """d_k = minimal valuation of the k x k minors, k = 1..rank, by a
    Laplace expansion along the last row of each row subset.  Over a
    valuation ring these fix the elementary divisors: their partial sums
    are the d_k.  Returns the list [d_1, ..., d_rank]."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    prev = {((), ()): None}  # level 0: the empty minor is 1
    out = []
    for k in range(1, min(rows, cols) + 1):
        cur = {}
        best = None
        for rs in combinations(range(rows), k):
            last = rs[-1]
            head = rs[:-1]
            for cs in combinations(range(cols), k):
                total = ring.zero
                for j, c in enumerate(cs):
                    entry = matrix[last][c]
                    if ring.is_zero(entry):
                        continue
                    rest = cs[:j] + cs[j + 1:]
                    if k == 1:
                        term = entry
                    else:
                        sub = prev.get((head, rest))
                        if sub is None:
                            continue
                        term = ring.mul(entry, sub)
                    if (k - 1 - j) % 2:
                        term = ring.neg(term)
                    total = ring.add(total, term)
                if not ring.is_zero(total):
                    cur[(rs, cs)] = total
                    v = ring.val(total)
                    if best is None or v < best:
                        best = v
        if not cur:
            break
        out.append(best)
        prev = cur
    return out


def matmul(ring, a, b):
    out = []
    for row in a:
        new = []
        for j in range(len(b[0])):
            acc = ring.zero
            for k, x in enumerate(row):
                if not ring.is_zero(x) and not ring.is_zero(b[k][j]):
                    acc = ring.add(acc, ring.mul(x, b[k][j]))
            new.append(acc)
        out.append(new)
    return out


def int_det(rows):
    """Integer determinant by cofactor expansion (tiny matrices only)."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * int_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(n) if rows[0][j])


# -- tropical skeleton --------------------------------------------------------

def trop_terms(model, coeff_terms):
    """Min-plus terms {exps: constant} of a form given as a list of
    (exps, coef, power) monomials: one term per merged monomial."""
    cf = Coeffs(model)
    merged = {}
    for exps, coef, power in coeff_terms:
        merged[exps] = cf.add(merged.get(exps, ()), cf.monomial(coef, power))
    best = {}
    for exps, c in merged.items():
        if c:
            v = cf.val(c)
            if exps not in best or v < best[exps]:
                best[exps] = v
    return best


def trop_value(terms, rho):
    return vmin(c + sum(e * r for e, r in zip(exps, rho)) for exps, c in terms.items())


def simplex_vertices(n, va):
    """Vertices of {rho_i >= 0, sum rho_i <= va}, each with its tight set;
    constraint i < n is -rho_i <= 0 and constraint n is the sum."""
    zero = tuple(Fraction(0) for _ in range(n))
    out = {zero: frozenset(range(n))}
    for i in range(n):
        v = tuple(Fraction(va) if j == i else Fraction(0) for j in range(n))
        out[v] = frozenset([j for j in range(n) if j != i] + [n])
    return out


def box_constraints(lo, hi):
    """Constraints of the box prod [lo_i, hi_i]: 2i is -rho_i <= -lo_i and
    2i + 1 is rho_i <= hi_i."""
    n = len(lo)
    rows = []
    for i in range(n):
        unit = [0] * n
        unit[i] = -1
        rows.append((tuple(unit), -Fraction(lo[i])))
        unit = [0] * n
        unit[i] = 1
        rows.append((tuple(unit), Fraction(hi[i])))
    return rows


def box_vertices(lo, hi):
    n = len(lo)
    out = {}
    for mask in range(1 << n):
        v, tight = [], []
        for i in range(n):
            if mask >> i & 1:
                v.append(Fraction(hi[i]))
                tight.append(2 * i + 1)
            else:
                v.append(Fraction(lo[i]))
                tight.append(2 * i)
        out[tuple(v)] = frozenset(tight)
    return out


def check_locus(terms, vertices, m_star, faces):
    """faces: list of (tight tuple, vertex list).  The locus must be the
    faces exposed by the optimal terms: for each term, the vertices where
    it attains m_star span the face cut out by their common tight set, and
    that face lists exactly the vertices tight on it.  Returns an error
    string or None."""
    values = {v: trop_value(terms, v) for v in vertices}
    best = vmin(values.values())
    if m_star != best:
        return f"m_star {m_star} != vertex minimum {best}"
    want = set()
    for exps, c in terms.items():
        attain = [v for v in vertices if c + sum(e * x for e, x in zip(exps, v)) == best]
        if attain:
            want.add(tuple(sorted(frozenset.intersection(*(vertices[v] for v in attain)))))
    got = {tuple(tight) for tight, _ in faces}
    if got != want or len(got) != len(faces):
        return f"locus faces {sorted(got)} != exposed faces {sorted(want)}"
    for tight, verts in faces:
        verts = sorted(tuple(Fraction(x) for x in v) for v in verts)
        tight_on = sorted(v for v, ts in vertices.items() if set(tight) <= ts)
        if verts != tight_on:
            return f"face {tuple(tight)} lists {verts}, tight vertices are {tight_on}"
    return None


# -- charts ---------------------------------------------------------------------

def identity_value(model, coeffs, rho):
    """Kahler value on the identity chart: min over all monomials of all
    coefficients of v(a) + <I, rho>.  coeffs: {e: [(exps, coef, power)]}."""
    cf = Coeffs(model)
    lr = Laurent(cf)
    best = None
    for terms in coeffs.values():
        f = {}
        for exps, coef, power in terms:
            f = lr.add(f, {exps: cf.monomial(coef, power)})
        best = vmin([best, lr.gauss(f, rho)])
    return best


def retract_point(model, L, consts, rho):
    """Gauss values of t_i = c_i s^{L_i} at radii rho: L rho + v(c)."""
    cf = Coeffs(model)
    return tuple(sum(Fraction(x) * r for x, r in zip(row, rho)) + cf.val(cf.monomial(*c))
                 for row, c in zip(L, consts))


def monomial_value(model, terms, m, L, consts, rho):
    """Top-degree form sum a_I t^I (dt/t)^m on t_i = c_i s^{L_i}:
    min_I(v(a_I) + <I, L rho + v(c)>) + m v(det L)."""
    cf = Coeffs(model)
    shift = retract_point(model, L, consts, rho)
    f = {}
    lr = Laurent(cf)
    for exps, coef, power in terms:
        f = lr.add(f, {exps: cf.monomial(coef, power)})
    base = lr.gauss(f, shift)
    det_v = cf.int_val(int_det([list(r) for r in L]))
    if base is None or det_v is None:
        return None
    return base + m * det_v


def monomial_support(terms, L):
    """s-exponents of the pulled-back monomials: I -> L^T I."""
    n = len(L)
    return {tuple(sum(I[i] * L[i][j] for i in range(n)) for j in range(n)) for I, _, _ in terms}


def _binomial_power(cf, a, k, i, n):
    """(a + s_i)^k as a Laurent dict, k >= 0."""
    out = {}
    for j in range(k + 1):
        c = cf.norm([comb(k, j) * a ** (k - j)])
        if c:
            out[tuple(j if q == i else 0 for q in range(n))] = c
    return out


def translated_value(model, coeffs, consts, rho):
    """Kahler value on t_i = a_i + s_i (units a_i, radii rho_i > 0):
    dt_i/t_i = (s_i / (a_i + s_i)) ds_i/s_i and v(a_i + s_i) = 0, so the
    value is min over e of gauss(f_e(a + s)) + sum over slots of rho_S."""
    cf = Coeffs(model)
    lr = Laurent(cf)
    n = len(consts)
    best = None
    for e, terms in coeffs.items():
        shift = [max([0] + [-exps[i] for exps, _, _ in terms]) for i in range(n)]
        numerator = {}
        for exps, coef, power in terms:
            term = {(0,) * n: cf.monomial(coef, power)}
            for i in range(n):
                term = lr.mul(term, _binomial_power(cf, consts[i], exps[i] + shift[i], i, n))
            numerator = lr.add(numerator, term)
        g = lr.gauss(numerator, rho)
        if g is None:
            continue
        weight = sum(Fraction(rho[i - 1]) for subset in e for i in subset)
        best = vmin([best, g + weight])
    return best


def kummer_value(model, n, kummer, g_terms):
    """v_K(g) on the Kummer-over-Gauss family: fold s_j^{e_j} = t_j, merge,
    take the minimal coefficient valuation.  g_terms: (exps(2n), coef, power)."""
    cf = Coeffs(model)
    e_of = dict(kummer)
    merged = {}
    for exps, coef, power in g_terms:
        exps = list(exps)
        for j, e in e_of.items():
            q, r = divmod(exps[n + j - 1], e)
            exps[n + j - 1] = r
            exps[j - 1] += q
        key = tuple(exps)
        merged[key] = cf.add(merged.get(key, ()), cf.monomial(coef, power))
    return vmin(cf.val(c) for c in merged.values())


def kummer_jacobian(model, kummer):
    """Sum of v(e_j); None (infinite) when some e_j vanishes in the field."""
    cf = Coeffs(model)
    total = Fraction(0)
    for _, e in kummer:
        total = vadd(total, cf.int_val(e))
    return total
