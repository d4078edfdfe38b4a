"""The ``brackets`` workload: the DG Lie algebra identities of polyvector
fields (Schouten bracket, zero differential) and polydifferential cochains
(Gerstenhaber bracket, Hochschild d), over Q[hbar]/hbar^4.

One round holds twelve problems: for each degree triple below, one triple
(X, Y, Z) of seeded polyvectors on a 3-variable chart and one of seeded
cochains on a 2-variable chart.  A problem computes the graded
antisymmetry, Jacobi, d(d X) and Leibniz residues, which must be exactly
zero.  The check also evaluates [X, Y] and d X on seeded monomials and
compares them with the classical formulas of ``oracle.py``, so that a
bracket returning zero cannot pass.  Supports have a fixed shape (number of
terms, slot weights, coefficient degrees, hbar orders) and seeded entries,
which keeps the heavy (1, 1, 1) cochain triple well under a second and its
cost nearly the same from seed to seed.  No linear solve runs here.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import starcover as sc

import oracle
from common import Problem, compositions, graded_poly, powers, round_rng

ROUND_S = 1.6  # nominal seconds of one round, checks included
TRIPLES = [(-1, 0, 1), (0, 0, 0), (1, 1, -1), (0, 1, 1), (2, 0, -1), (1, 1, 1)]
SAMPLES = 3  # monomial argument tuples per sampled bracket


class Workload:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.R = sc.param_algebra_truncate(["hbar"], 3)
        self.vcar = sc.PolyvecCarrier(sc.ChartAlgebra(("x", "y", "z")))
        self.dcar = sc.PolydiffCarrier(sc.ChartAlgebra(("x", "y")))
        self.slots = {w: list(compositions(w, 2)) for w in (1, 2)}
        self.vec_args = _argument_pool(3)
        self.cochain_args = _argument_pool(2)

    def warm_up(self) -> list[Problem]:
        rng = round_rng("brackets-warm-up", self.seed, 0)
        return [self._polyvec(rng, (0, 1, 1)), self._polydiff(rng, (1, 1, -1))]

    def round(self, r: int) -> list[Problem]:
        rng = round_rng("brackets", self.seed, r)
        out = []
        for triple in TRIPLES:
            out.append(self._polyvec(rng, triple))
            out.append(self._polydiff(rng, triple))
        return out

    def _vec(self, rng, degree: int):
        """Parts at hbar^0 and hbar^1, each with three seeded keys (fewer when
        the degree has fewer) and coefficients with one term of each degree
        1, 2 and 3."""
        car = self.vcar
        keys = list(itertools.combinations(range(3), degree + 1))
        parts = {}
        for i in (0, 1):
            parts[i] = {k: graded_poly(rng, car.chart, (1, 2, 3)) for k in rng.sample(keys, min(3, len(keys)))}
        return sc.DGLAElement(car, self.R, degree, parts)

    def _cochain(self, rng, degree: int):
        """One part at hbar: for degree -1 a function, else two terms of
        degree + 1 slots, the first with all slots of weight 1, the second
        with a first slot of weight 2; seeded slot directions, and
        coefficients with one term of degree 1 and one of degree 2."""
        car = self.dcar
        if degree == -1:
            return sc.DGLAElement(car, self.R, degree, {1: car.from_coeff(graded_poly(rng, car.chart, (1, 2)))})
        payload = {}
        while len(payload) < 2:
            weights = (1,) * (degree + 1) if not payload else (2,) + (1,) * degree
            slots = tuple(rng.choice(self.slots[w]) for w in weights)
            payload[slots] = graded_poly(rng, car.chart, (1, 2))
        return sc.DGLAElement(car, self.R, degree, {1: payload})

    def _polyvec(self, rng, triple) -> Problem:
        X, Y, Z = (self._vec(rng, d) for d in triple)
        picks = _picks(rng, self.vec_args, triple)
        return Problem(
            "polyvec", lambda: identities(X, Y, Z, polydiff=False),
            lambda out: check_identities(out, X, Y, picks, polydiff=False),
        )

    def _polydiff(self, rng, triple) -> Problem:
        X, Y, Z = (self._cochain(rng, d) for d in triple)
        picks = _picks(rng, self.cochain_args, triple)
        return Problem(
            "polydiff", lambda: identities(X, Y, Z, polydiff=True),
            lambda out: check_identities(out, X, Y, picks, polydiff=True),
        )


def _argument_pool(nvars: int) -> list:
    """Monomials with every exponent in 2..4: every slot derivative of the
    cochains here (weight <= 2) keeps every term alive, so a wrong term in a
    bracket changes its value."""
    return [{e: Fraction(1)} for e in itertools.product(range(2, 5), repeat=nvars)]


def _picks(rng: random.Random, pool: list, triple) -> list:
    """SAMPLES seeded tuples of monomials, long enough for [X, Y] (deg X +
    deg Y + 1 arguments) and for d X (deg X + 2 arguments)."""
    n = max(triple[0] + triple[1] + 1, triple[0] + 2)
    return [[rng.choice(pool) for _ in range(n)] for _ in range(SAMPLES)]


def identities(X, Y, Z, polydiff: bool) -> dict:
    """The identity residues of one triple, plus [X, Y] and d X for the
    sampled comparison."""
    sgn = (-1) ** ((X.degree * Y.degree) % 2)
    XY = X.bracket(Y)
    out = {
        "XY": XY,
        "dX": X.d(),
        "antisymmetry": XY + Y.bracket(X).scale(sgn),
        "jacobi": X.bracket(Y.bracket(Z)) - XY.bracket(Z) - Y.bracket(X.bracket(Z)).scale(sgn),
    }
    if polydiff:
        out["dd"] = out["dX"].d()
        out["leibniz"] = (
            XY.d() - out["dX"].bracket(Y) - X.bracket(Y.d()).scale((-1) ** (X.degree % 2))
        )
    return out


def check_identities(out: dict, X, Y, picks: list, polydiff: bool):
    for name in ("antisymmetry", "jacobi", "dd", "leibniz"):
        if name in out and not out[name].is_zero():
            return f"{name} residue is not zero"
    if not polydiff and not out["dX"].is_zero():
        return "the polyvector differential is not zero"
    if (msg := compare_bracket(out["XY"], X, Y, picks, polydiff)) is not None:
        return msg
    if polydiff and X.degree >= 0:
        return compare_d(out["dX"], X, picks)
    return None


def compare_bracket(XY, X, Y, picks: list, polydiff: bool):
    """[X, Y] on monomials against the classical insertion formulas."""
    p, q = X.degree, Y.degree
    n = p + q + 1
    nvars = len(X.carrier.chart.variables)
    got = powers(XY)
    xs, ys = powers(X), powers(Y)
    order = X.algebra.order
    for funcs in picks:
        funcs = funcs[:n]
        for k in range(order + 1):
            want: dict = {}
            for i, px in xs.items():
                if k - i in ys:
                    py = ys[k - i]
                    val = (
                        oracle.gerstenhaber(px, p, py, q, funcs)
                        if polydiff
                        else oracle.schouten(px, p + 1, py, q + 1, funcs, nvars)
                    )
                    want = oracle.padd(want, val)
            have = _evaluate(got.get(k, {}), funcs, polydiff, nvars)
            if have != want:
                return f"[X, Y] at hbar^{k} differs from the classical formula"
    return None


def compare_d(dX, X, picks: list):
    """d X on monomials against the Hochschild coboundary formula."""
    got = powers(dX)
    for funcs in picks:
        funcs = funcs[: X.degree + 2]
        for k, px in powers(X).items():
            if _evaluate(got.get(k, {}), funcs, True, 0) != oracle.hochschild(px, X.degree, funcs):
                return f"d X at hbar^{k} differs from the Hochschild coboundary"
    return None


def _evaluate(payload: dict, funcs: list, polydiff: bool, nvars: int) -> dict:
    if not payload:
        return {}
    if polydiff:
        return oracle.eval_cochain(payload, funcs)
    return oracle.eval_polyvec(payload, funcs, nvars)
