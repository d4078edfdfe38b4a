"""Shared generators for the property suite: everything is seeded and
deterministic; all assertions are bit-exact."""

from __future__ import annotations

import itertools
import random

import pytest

from starcover import (
    ChartAlgebra,
    DGLAElement,
    LocalizedPoly,
    PolydiffCarrier,
    PolyvecCarrier,
    RestrictionMap,
    build_nerve,
    param_algebra_truncate,
)
from starcover.exactalg import _compositions
from starcover.polydiff import _moyal_exponential
from starcover.selftest import _rand_poly as rand_poly
from starcover.selftest import _rand_polyvec_payload as rand_polyvec_payload


def codegeneracy(i: int, q: int) -> tuple[int, ...]:
    """The i-th codegeneracy [q+1] -> [q] (repeats i)."""
    return tuple(j if j <= i else j - 1 for j in range(q + 2))


def rand_polydiff_payload(rng, car, degree, max_slot=2, maxdeg=2):
    singles = [
        e
        for total in range(1, max_slot + 1)
        for e in _compositions(total, car.nderiv)
    ]
    pay = car.zero()
    for _ in range(2):
        slots = tuple(rng.choice(singles) for _ in range(degree + 1))
        pay = car.add(pay, car.term(slots, rand_poly(rng, car.chart, maxdeg)))
    return pay


def rand_element(rng, car, algebra, degree, minorder=0, kind="polyvec", maxdeg=2):
    parts = {}
    for i in range(len(algebra.basis)):
        if algebra.basis_order(i) < minorder:
            continue
        if rng.random() < 0.55:
            if kind == "polyvec":
                pay = rand_polyvec_payload(rng, car, degree, maxdeg)
            else:
                pay = rand_polydiff_payload(rng, car, degree, maxdeg=maxdeg)
            if not car.is_zero(pay):
                parts[i] = pay
    return DGLAElement(car, algebra, degree, parts)


def simplex_nerve(n, chart_vars=("x", "y")):
    """The full (n-1)-simplex nerve with one shared polynomial chart."""
    faces = [f for r in range(1, n + 1) for f in itertools.combinations(range(n), r)]
    charts = {f: ChartAlgebra(tuple(chart_vars)) for f in faces}
    rms = {
        (f, g): RestrictionMap.identity_like(charts[f], charts[g])
        for f in charts
        for g in charts
        if len(g) == len(f) + 1 and set(f) <= set(g)
    }
    return build_nerve([f"U{i}" for i in range(n)], charts, rms)


def shear_nerve(n):
    """The full (n-1)-simplex nerve with chart (x, y) on every face and
    non-identity restrictions: f -> g sends x to x and y to
    y + (g[0] - f[0]) * x^2.  The shifts add up along any path, so the
    restrictions are functorial."""
    faces = [f for r in range(1, n + 1) for f in itertools.combinations(range(n), r)]
    charts = {f: ChartAlgebra(("x", "y")) for f in faces}
    rms = {}
    for f in charts:
        for g in charts:
            if len(g) == len(f) + 1 and set(f) <= set(g):
                x, y = charts[g].var("x"), charts[g].var("y")
                shift = LocalizedPoly.const(charts[g], g[0] - f[0]) * x * x
                rms[(f, g)] = RestrictionMap.build(charts[f], charts[g], [x, y + shift])
    return build_nerve([f"U{i}" for i in range(n)], charts, rms)


def one_chart_zero_and_moyal(order=2):
    """One chart with coordinates x, y, and two degree-1 cochains on it: zero
    and the Moyal star of dx^dy.  Returns (nerve, algebra, zero, moyal)."""
    chart = ChartAlgebra(("x", "y"))
    nerve = build_nerve(["U0"], {(0,): chart}, {})
    R = param_algebra_truncate(["hbar"], order)
    vcar = PolyvecCarrier(chart)
    pi = DGLAElement.single(vcar, R, 1, 1, vcar.term((0, 1), chart.one()))
    car = PolydiffCarrier(chart)
    return nerve, R, DGLAElement.zero(car, R, 1), _moyal_exponential(car, pi)


@pytest.fixture
def rng():
    return random.Random(20260810)
