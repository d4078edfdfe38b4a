"""The ``descent`` workload: twisted gauge equivalence of descent data.

One round holds thirteen problems:
  - one ``pair3`` and ten ``pair2``: a seeded Maurer-Cartan element of the
    Thom-Sullivan algebra on the 3- or 2-chart simplex nerve, and a seeded
    twisted transformation; the problem runs int_mc -> add_gauge -> exp_add
    (both data) -> equiv_solve, which must find a transformation;
  - one ``sphere``: triple units on the octahedron cover of the 2-sphere
    whose order-1 class is a nonzero multiple of the generator of H^2,
    moved by a seeded twisted transformation; equiv_solve against the
    trivial datum must report "not equivalent" at order 1;
  - one ``sphere-cob``: the same with a coboundary class; obstruction must
    trivialize it.
Every coefficient is a nonzero seeded rational and every support is fixed,
so the seed changes values, not sizes.  equiv_solve's dense exact solves
take most of the time, int_mc's validation most of the rest.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import starcover as sc
from starcover import formats
from starcover.descent import face_carrier, identity_transformation

import oracle
from common import Problem, data_equal, nonzero, poly, round_rng, simplex_nerve

ROUND_S = 3.0  # nominal seconds of one round, checks included
ORDER = 2
LINEAR = [(0, 0), (1, 0), (0, 1)]  # every seeded polynomial is a + b x + c y


class Workload:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.R = sc.param_algebra_truncate(["hbar"], ORDER)
        self.simplex = {}
        for n in (2, 3):
            nerve = simplex_nerve(n)
            handle = sc.ts_normalize(nerve, "polyvec", self.R)
            car0 = sc.CechCarrier(nerve, "polyvec", 0, 0)
            pi = {
                f: car0.face_carriers[f].term((0, 1), car0.face_carriers[f].chart.one())
                for f in nerve.level_faces(0)
            }
            base = sc.whitney(handle, 0, sc.DGLAElement(car0, self.R, 1, {1: pi}))
            self.simplex[n] = (nerve, handle, base)
        self.sphere = sc.octahedron_nerve()
        self.cycle = oracle.fundamental_cycle(self.sphere.level_faces(2))
        self.trivial = self._sphere_datum({})

    def warm_up(self) -> list[Problem]:
        rng = round_rng("descent-warm-up", self.seed, 0)
        return [self._pair(rng, 2), self._sphere(rng, True)]

    def round(self, r: int) -> list[Problem]:
        rng = round_rng("descent", self.seed, r)
        return (
            [self._pair(rng, 3)]
            + [self._pair(rng, 2) for _ in range(10)]
            + [self._sphere(rng, True), self._sphere(rng, False)]
        )

    # -- simplex pairs ----------------------------------------------------

    def _cech(self, rng, nerve, level: int, degree: int):
        car = sc.CechCarrier(nerve, "polyvec", level, 0)
        parts = {}
        for i in range(1, len(self.R.basis)):
            comp = {}
            for f in nerve.level_faces(level):
                fc = car.face_carriers[f]
                if degree == -1:
                    comp[f] = fc.from_coeff(poly(rng, fc.chart, LINEAR))
                else:
                    comp[f] = fc.vector_field(
                        {0: poly(rng, fc.chart, LINEAR), 1: poly(rng, fc.chart, LINEAR)}
                    )
            parts[i] = comp
        return sc.DGLAElement(car, self.R, degree, parts)

    def _pair(self, rng, n: int) -> Problem:
        nerve, handle, base = self.simplex[n]
        gauge = sc.whitney(handle, 0, self._cech(rng, nerve, 0, 0)) + sc.whitney(
            handle, 1, self._cech(rng, nerve, 1, -1)
        )
        beta = sc.gauge_act(gauge, base)
        t = identity_transformation(nerve, "poisson", self.R)
        for k in nerve.level_faces(0):
            car = face_carrier(nerve, "poisson", k)
            field = car.vector_field({0: poly(rng, car.chart, LINEAR), 1: poly(rng, car.chart, LINEAR)})
            t.eta[k] = sc.DGLAElement(car, self.R, 0, {1: field})
        for e in nerve.level_faces(1):
            car = face_carrier(nerve, "poisson", e)
            t.eps[e] = sc.DGLAElement(car, self.R, -1, {1: car.from_coeff(poly(rng, car.chart, LINEAR))})

        def solve():
            add = sc.int_mc(handle, beta)
            moved = sc.add_gauge(t, add)
            source, target = sc.exp_add(add), sc.exp_add(moved)
            return source, target, sc.equiv_solve(source, target)

        return Problem(f"pair{n}", solve, check_pair)

    # -- the octahedron ---------------------------------------------------

    def _sphere_datum(self, units: dict):
        """Zero local deformations and edge gauges; triple units from
        {triangle: {order: constant}}."""
        nerve, R = self.sphere, self.R
        locals_ = {
            k: sc.require_mc(sc.DGLAElement.zero(face_carrier(nerve, "associative", k), R, 1))
            for k in nerve.level_faces(0)
        }
        triples = {}
        for tri, values in units.items():
            car = face_carrier(nerve, "associative", tri)
            parts = {
                i: car.from_coeff(sc.LocalizedPoly.const(car.chart, v))
                for i, v in values.items()
                if v
            }
            if parts:
                triples[tri] = sc.DGLAElement(car, R, -1, parts)
        return sc.MultDescentDatum(nerve, "associative", R, locals_, {}, triples)

    def _coboundary(self, rng) -> dict:
        b = {e: nonzero(rng) for e in self.sphere.level_faces(1)}
        return {
            (i, j, k): b[(j, k)] - b[(i, k)] + b[(i, j)]
            for (i, j, k) in self.sphere.level_faces(2)
        }

    def _sphere(self, rng, twisted: bool) -> Problem:
        """Order 1: a seeded class (nonzero multiple of the generator when
        twisted, zero otherwise) plus a seeded coboundary; order 2: a
        seeded coboundary.  Then a seeded transformation on the edges."""
        triangles = self.sphere.level_faces(2)
        order1 = self._coboundary(rng)
        if twisted:
            tri = rng.choice(triangles)
            order1[tri] += nonzero(rng)
        order2 = self._coboundary(rng)
        datum = self._sphere_datum({tri: {1: order1[tri], 2: order2[tri]} for tri in triangles})
        t = identity_transformation(self.sphere, "associative", self.R)
        for e in self.sphere.level_faces(1):
            car = face_carrier(self.sphere, "associative", e)
            parts = {i: car.from_coeff(sc.LocalizedPoly.const(car.chart, nonzero(rng))) for i in (1, 2)}
            t.eps[e] = sc.DGLAElement(car, self.R, -1, parts)
        moved = sc.mdd_gauge(t, datum)
        if twisted:
            expected = oracle.pairing(order1, self.cycle)
            return Problem(
                "sphere",
                lambda: sc.equiv_solve(moved, self.trivial),
                lambda report: check_sphere(report, self.cycle, expected),
            )
        return Problem(
            "sphere-cob",
            lambda: (moved, sc.obstruction(moved)),
            lambda out: check_trivialized(*out),
        )


# -- output checks ------------------------------------------------------------


def round_trip_equal(datum) -> bool:
    """The rendered datum parses back to an equal datum."""
    text = formats.dumps(formats.render_descent(datum))
    return data_equal(formats.load_descent(json.loads(text)), datum)


def check_pair(out):
    source, target, found = out
    if not isinstance(found, sc.TwistedTransformation):
        return f"constructed pair reported not equivalent: {found.render()}"
    if not data_equal(sc.mdd_gauge(found, source), target):
        return "the returned transformation does not reproduce the target"
    if not round_trip_equal(target):
        return "the rendered target does not parse back equal"
    return None


_LAYER = re.compile(r"hbar \* \(?(-?\d+(?:/\d+)?)\)?")


def parse_layer(text: str) -> Fraction:
    """The constant c of an order-1 octahedron layer rendered as 'hbar * c'."""
    match = _LAYER.fullmatch(text)
    if match is None:
        raise ValueError(f"unexpected layer rendering {text!r}")
    return Fraction(match.group(1))


def check_sphere(report, cycle: dict, expected: Fraction):
    if not isinstance(report, sc.ObstructionReport):
        return "a datum with a nonzero class was reported equivalent to the trivial one"
    if report.order != 1 or report.class_is_zero is not False:
        return f"expected a nonzero class at order 1: {report.render()}"
    try:
        cocycle = {tri: parse_layer(text) for tri, text in report.cocycle.items()}
    except ValueError as err:
        return str(err)
    value = oracle.pairing(cocycle, cycle)
    if value == 0 or value != expected:
        return f"pairing with the fundamental class is {value}, expected {expected} (nonzero)"
    return None


def check_trivialized(datum, found):
    if not isinstance(found, sc.TwistedTransformation):
        return f"a coboundary datum did not trivialize: {found.render()}"
    out = sc.mdd_gauge(found, datum)
    if any(not v.is_zero() for v in out.edge_gauges.values()):
        return "edge gauges survive the trivializing transformation"
    if any(not v.is_zero() for v in out.triple_units.values()):
        return "triple units survive the trivializing transformation"
    return None
