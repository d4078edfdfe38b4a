"""The ``quantize`` workload: order-2 star products of Poisson bivectors on
affine space, and gauge recovery between star products.

One round holds ten problems:
  - one ``lie3``: a linear Lie-Poisson bivector on 3-space,
    {x,y} ~ a z, {y,z} ~ b x, {z,x} ~ c y (Poisson for every a, b, c, like
    so(3)), quantized by quantize_affine_order2;
  - five ``poly2``: c(x, y) dx^dy with a seeded c of one linear and one
    quadratic term (every 2-variable bivector is Poisson), quantized;
  - two ``moyal``: constant bivectors on 2- and 3-space, quantized through
    the closed Moyal exponential;
  - two ``gauge``: a seeded gauge of a Moyal star product (star_gauge),
    recovered by solve_gauge.
The five ``poly2`` hold the median problem time.
All bivectors sit at hbar over Q[hbar]/hbar^3.  The non-constant
quantizations solve the same elimination once per coefficient block
(solve_d_equation), and the associativity oracle's cochain evaluation takes
most of the rest.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import starcover as sc

import oracle
from common import Problem, graded_poly, nonzero, payload_dicts, powers, round_rng

ROUND_S = 6.0  # nominal seconds of one round, checks included
CERT_DEGREE = 4  # quantize_affine_order2's default certificate degree
GAUGE_SLOTS = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


class Workload:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.R = sc.param_algebra_truncate(["hbar"], 2)
        self.charts = {n: sc.ChartAlgebra(("x", "y", "z")[:n]) for n in (2, 3)}
        self.monos = {n: oracle.monomials(n, CERT_DEGREE) for n in (2, 3)}

    def warm_up(self) -> list[Problem]:
        rng = round_rng("quantize-warm-up", self.seed, 0)
        return [self._moyal(rng, 2), self._gauge(rng, self._moyal_star(rng))]

    def round(self, r: int) -> list[Problem]:
        rng = round_rng("quantize", self.seed, r)
        S = self._moyal_star(rng)
        return (
            [self._lie3(rng)]
            + [self._poly2(rng) for _ in range(5)]
            + [self._moyal(rng, 2), self._moyal(rng, 3)]
            + [self._gauge(rng, S) for _ in range(2)]
        )

    def _bivector(self, n: int, coefficients: dict):
        """The Poisson structure of sum c_ij dx_i^dx_j at hbar."""
        car = sc.PolyvecCarrier(self.charts[n])
        payload = {}
        for key, c in coefficients.items():
            payload = car.add(payload, car.term(key, c))
        return sc.poisson_from_mc(sc.DGLAElement.single(car, self.R, 1, 1, payload))

    def _quantize(self, kind: str, n: int, coefficients: dict, constant: bool) -> Problem:
        P = self._bivector(n, coefficients)
        pi = payload_dicts(coefficients)
        return Problem(
            kind,
            lambda: sc.quantize_affine_order2(P),
            lambda S: check_star(S, pi, n, self.monos[n], constant),
        )

    def _lie3(self, rng) -> Problem:
        x, y, z = (self.charts[3].var(v) for v in "xyz")
        a, b, c = nonzero(rng), nonzero(rng), nonzero(rng)
        coefficients = {(0, 1): z.scale(a), (1, 2): x.scale(b), (0, 2): y.scale(-c)}
        return self._quantize("lie3", 3, coefficients, False)

    def _poly2(self, rng) -> Problem:
        return self._quantize("poly2", 2, {(0, 1): graded_poly(rng, self.charts[2], (1, 2))}, False)

    def _moyal(self, rng, n: int) -> Problem:
        one = self.charts[n].one()
        coefficients = {key: one.scale(nonzero(rng)) for key in itertools.combinations(range(n), 2)}
        return self._quantize("moyal", n, coefficients, True)

    def _moyal_star(self, rng):
        """The Moyal product of a seeded c dx^dy, which the gauge problems move."""
        return sc.quantize_affine_order2(self._bivector(2, {(0, 1): self.charts[2].one().scale(nonzero(rng))}))

    def _gauge(self, rng, S) -> Problem:
        """A seeded order-1 gauge of S: two seeded one-slot terms with
        coefficients a + (linear term)."""
        chart = self.charts[2]
        car = S.carrier
        payload = {}
        for slot in rng.sample(GAUGE_SLOTS, 2):
            payload = car.add(payload, car.term((slot,), graded_poly(rng, chart, (0, 1))))
        gamma = sc.DGLAElement(car, self.R, 0, {1: payload})
        target, _ = sc.star_gauge(gamma, S)
        return Problem("gauge", lambda: sc.solve_gauge(S, target), lambda g: check_gauge(g, S, target))


# -- output checks ------------------------------------------------------------


def check_star(S, pi: dict, nvars: int, monos: list, constant: bool):
    """Associativity on monomial triples up to the certificate degree, the
    first-order commutator against the Poisson bracket of the input
    bivector, and for constant bivectors the Moyal closed form; all through
    the oracle's own evaluation of the star product's cochain."""
    table = oracle.StarTable(powers(S.beta.element), S.algebra.order)
    exps = [next(iter(m)) for m in monos]
    for a, b, c in itertools.product(exps, repeat=3):
        if sum(a) + sum(b) + sum(c) > CERT_DEGREE:
            continue
        left = table.product(table.monomials(a, b), {0: {c: Fraction(1)}})
        right = table.product({0: {a: Fraction(1)}}, table.monomials(b, c))
        if left != right:
            return "the star product is not associative on monomials"
    for a, b in itertools.product(exps, repeat=2):
        if sum(a) + sum(b) > CERT_DEGREE:
            continue
        f, g = {a: Fraction(1)}, {b: Fraction(1)}
        ab = table.monomials(a, b)
        commutator = oracle.padd(ab.get(1, {}), table.monomials(b, a).get(1, {}), -1)
        if {e: v / 2 for e, v in commutator.items()} != oracle.poisson_bracket(pi, f, g, nvars):
            return "the first-order commutator differs from the Poisson bracket"
        if constant:
            constants = {key: c[(0,) * nvars] for key, c in pi.items()}
            if ab != oracle.moyal(constants, f, g, S.algebra.order, nvars):
                return "the star product differs from the Moyal closed form"
    return None


def check_gauge(gamma, S, target):
    if not isinstance(gamma, sc.GaugeElement):
        return f"no gauge found between gauge-equivalent star products: {gamma.render()}"
    again, certificate = sc.star_gauge(gamma, S)
    if not certificate.holds or again.beta.element != target.beta.element:
        return "the recovered gauge does not reproduce the target"
    return None
