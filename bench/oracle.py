"""Computations made apart from the program, used to check its outputs.

Polynomials are plain dicts from exponent tuples to ``Fraction``.  Cochains
and polyvectors are evaluated through their classical action on functions,
never through the program's payload-level brackets or operator application.
The only things read from the program's objects are their coefficients.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

# -- polynomials --------------------------------------------------------------


def padd(a: dict, b: dict, c=1) -> dict:
    """a + c*b."""
    out = dict(a)
    for e, v in b.items():
        w = out.get(e, 0) + c * v
        if w:
            out[e] = w
        else:
            out.pop(e, None)
    return out


def pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: v for e, v in out.items() if v}


def pderiv(a: dict, alpha) -> dict:
    """The partial derivative d^alpha for a multi-index alpha."""
    out = {}
    for e, c in a.items():
        if any(k > n for k, n in zip(alpha, e)):
            continue
        coeff = Fraction(c)
        for k, n in zip(alpha, e):
            coeff *= factorial(n) // factorial(n - k)
        out[tuple(n - k for k, n in zip(alpha, e))] = coeff
    return out


def sign(n: int) -> int:
    """(-1)^n as an int, for negative n too."""
    return -1 if n % 2 else 1


def unit(nvars: int, i: int) -> tuple:
    return tuple(1 if j == i else 0 for j in range(nvars))


def monomials(nvars: int, degree: int) -> list[dict]:
    """All monomials of total degree <= degree, as polynomials."""
    return [
        {e: Fraction(1)}
        for e in itertools.product(range(degree + 1), repeat=nvars)
        if sum(e) <= degree
    ]


def poly_of(lp) -> dict:
    """Coefficients of a program polynomial without denominators."""
    if any(lp.powers):
        raise ValueError("expected a polynomial without denominators")
    return {e: Fraction(c) for e, c in lp.numer.terms.items() if c}


# -- polydifferential cochains -------------------------------------------------


def eval_cochain(payload: dict, funcs: list) -> dict:
    """phi(f1..fn) = sum over terms  c * prod_j d^{alpha_j} f_j.  Payloads map
    slot tuples of multi-indices to coefficient polynomials (dicts)."""
    out: dict = {}
    for slots, coeff in payload.items():
        if len(slots) != len(funcs):
            raise ValueError("cochain evaluated on the wrong number of functions")
        term = coeff
        for alpha, f in zip(slots, funcs):
            term = pmul(term, pderiv(f, alpha))
        out = padd(out, term)
    return out


def insertion(phi: dict, p: int, psi: dict, q: int, funcs: list) -> dict:
    """Gerstenhaber's insertion (phi o psi)(f_0..f_{p+q}) =
    sum_i (-1)^{i q} phi(f_0..f_{i-1}, psi(f_i..f_{i+q}), f_{i+q+1}..)."""
    out: dict = {}
    for i in range(p + 1):
        inner = eval_cochain(psi, funcs[i : i + q + 1])
        args = funcs[:i] + [inner] + funcs[i + q + 1 :]
        out = padd(out, eval_cochain(phi, args), sign(i * q))
    return out


def gerstenhaber(phi: dict, p: int, psi: dict, q: int, funcs: list) -> dict:
    """[phi, psi] = phi o psi - (-1)^{pq} psi o phi, on functions."""
    return padd(insertion(phi, p, psi, q, funcs), insertion(psi, q, phi, p, funcs), -sign(p * q))


def hochschild(phi: dict, p: int, funcs: list) -> dict:
    """The Hochschild coboundary of a degree-p cochain, with the sign
    convention d = [m, -] for the multiplication m:
    (d phi)(f_0..f_{p+1}) = phi(f_0..f_p) f_{p+1} + (-1)^p f_0 phi(f_1..f_{p+1})
                            - (-1)^p sum_i (-1)^i phi(.., f_i f_{i+1}, ..)."""
    out = pmul(eval_cochain(phi, funcs[: p + 1]), funcs[p + 1])
    out = padd(out, pmul(funcs[0], eval_cochain(phi, funcs[1:])), sign(p))
    for i in range(p + 1):
        args = funcs[:i] + [pmul(funcs[i], funcs[i + 1])] + funcs[i + 2 :]
        out = padd(out, eval_cochain(phi, args), -sign(p + i))
    return out


# -- polyvectors ---------------------------------------------------------------


def _det(rows: list) -> dict:
    """Determinant of a square matrix of polynomials (Leibniz expansion)."""
    n = len(rows)
    out: dict = {} if n else {(): Fraction(1)}
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        term = None
        for r, c in enumerate(perm):
            term = rows[r][c] if term is None else pmul(term, rows[r][c])
        out = padd(out, term, sign(inv))
    return out


def eval_polyvec(payload: dict, funcs: list, nvars: int) -> dict:
    """A k-vector on k functions: sum over keys  c * det[d_{key_a} f_b]."""
    out: dict = {}
    for key, coeff in payload.items():
        if len(key) != len(funcs):
            raise ValueError("polyvector evaluated on the wrong number of functions")
        if not key:
            out = padd(out, coeff)
            continue
        rows = [[pderiv(f, unit(nvars, i)) for f in funcs] for i in key]
        out = padd(out, pmul(coeff, _det(rows)))
    return out


def _shuffles(n: int, k: int):
    """(sign, first k positions, remaining positions) over (k, n-k) shuffles."""
    for first in itertools.combinations(range(n), k):
        rest = [i for i in range(n) if i not in first]
        order = list(first) + rest
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if order[a] > order[b])
        yield sign(inv), list(first), rest


def schouten(P: dict, p: int, Q: dict, q: int, funcs: list, nvars: int) -> dict:
    """The Schouten bracket of a p-vector and a q-vector on p+q-1 functions,
    by the classical formula (Marle's, in the sign convention that makes it
    the commutator on vector fields and X(f) on a function f):
      [P,Q](f..) = (-1)^{(p-1)(q-1)} sum_{(q,p-1) shuffles s} e(s) P(Q(f_s1..f_sq), f_s(q+1)..)
                   - sum_{(p,q-1) shuffles t} e(t) Q(P(f_t1..f_tp), f_t(p+1)..)."""
    out: dict = {}
    n = len(funcs)
    if p >= 1:
        s1 = sign((p - 1) * (q - 1))
        for eps, first, rest in _shuffles(n, q):
            inner = eval_polyvec(Q, [funcs[i] for i in first], nvars)
            out = padd(out, eval_polyvec(P, [inner] + [funcs[i] for i in rest], nvars), s1 * eps)
    if q >= 1:
        for eps, first, rest in _shuffles(n, p):
            inner = eval_polyvec(P, [funcs[i] for i in first], nvars)
            out = padd(out, eval_polyvec(Q, [inner] + [funcs[i] for i in rest], nvars), -eps)
    return out


def poisson_bracket(pi: dict, f: dict, g: dict, nvars: int) -> dict:
    """{f, g} of a bivector {(i, j): coefficient}, with the 1/2 pairing:
    {f, g} = 1/2 sum_{i<j} pi_ij (d_i f d_j g - d_j f d_i g)."""
    out: dict = {}
    for (i, j), c in pi.items():
        di, dj = unit(nvars, i), unit(nvars, j)
        val = padd(pmul(pderiv(f, di), pderiv(g, dj)), pmul(pderiv(f, dj), pderiv(g, di)), -1)
        out = padd(out, pmul(c, val), Fraction(1, 2))
    return out


# -- star products ---------------------------------------------------------------


class StarTable:
    """The star product f * g = f g + sum_k hbar^k beta_k(f, g) of a cochain
    beta {power: degree-1 payload}, truncated above hbar^order.  Products of
    monomials are memoized; series multiply through them by bilinearity."""

    def __init__(self, beta: dict, order: int) -> None:
        self.beta = beta
        self.order = order
        self._memo: dict = {}

    def monomials(self, a: tuple, b: tuple) -> dict:
        """x^a * x^b as a series {power: polynomial}."""
        key = (a, b)
        if key not in self._memo:
            f, g = {a: Fraction(1)}, {b: Fraction(1)}
            out = {0: pmul(f, g)}
            for k, payload in self.beta.items():
                if 0 < k <= self.order:
                    val = eval_cochain(payload, [f, g])
                    if val:
                        out[k] = padd(out.get(k, {}), val)
            self._memo[key] = out
        return self._memo[key]

    def product(self, u: dict, v: dict) -> dict:
        """The star product of two series {power: polynomial}."""
        out: dict = {}
        for i, f in u.items():
            for j, g in v.items():
                for a, ca in f.items():
                    for b, cb in g.items():
                        for k, val in self.monomials(a, b).items():
                            if i + j + k <= self.order:
                                out[i + j + k] = padd(out.get(i + j + k, {}), val, ca * cb)
        return {k: w for k, w in out.items() if w}


def moyal(pi: dict, f: dict, g: dict, order: int, nvars: int) -> dict:
    """The Moyal product of a constant bivector {(i, j): c} at hbar:
    f * g = m(exp(hbar P)(f (x) g)), P = 1/2 sum c (d_i (x) d_j - d_j (x) d_i)."""
    P: dict = {}
    for (i, j), c in pi.items():
        ei, ej = unit(nvars, i), unit(nvars, j)
        P[(ei, ej)] = P.get((ei, ej), 0) + Fraction(c, 2)
        P[(ej, ei)] = P.get((ej, ei), 0) - Fraction(c, 2)
    out = {0: pmul(f, g)}
    zero = (0,) * nvars
    power = {(zero, zero): Fraction(1)}
    for n in range(1, order + 1):
        nxt: dict = {}
        for (a1, b1), c1 in power.items():
            for (a2, b2), c2 in P.items():
                key = (tuple(x + y for x, y in zip(a1, a2)), tuple(x + y for x, y in zip(b1, b2)))
                nxt[key] = nxt.get(key, 0) + c1 * c2
        power = {k: v for k, v in nxt.items() if v}
        val: dict = {}
        for (a, b), c in power.items():
            val = padd(val, pmul(pderiv(f, a), pderiv(g, b)), Fraction(c, factorial(n)))
        if val:
            out[n] = val
    return out


# -- the octahedron ----------------------------------------------------------------


def fundamental_cycle(triangles: list) -> dict:
    """A nonzero simplicial 2-cycle with coefficients +-1 on the given
    triangles (increasing vertex triples), found by search: the fundamental
    class of the 2-sphere when the triangles triangulate it."""
    for signs in itertools.product((1, -1), repeat=len(triangles) - 1):
        z = dict(zip(triangles, (1,) + signs))
        boundary: dict = {}
        for (a, b, c), s in z.items():
            for edge, e in (((b, c), 1), ((a, c), -1), ((a, b), 1)):
                boundary[edge] = boundary.get(edge, 0) + s * e
        if not any(boundary.values()):
            return z
    raise ValueError("the triangles carry no 2-cycle")


def pairing(cocycle: dict, cycle: dict) -> Fraction:
    return sum((Fraction(cocycle.get(t, 0)) * s for t, s in cycle.items()), Fraction(0))
