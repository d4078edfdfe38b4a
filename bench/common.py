"""What the three workloads share: the problem record, seeded coefficient
generators, and the conversions the output checks read the program's
objects through."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

import starcover as sc
from starcover.exactalg import LocalizedPoly, Poly

import oracle


@dataclass
class Problem:
    kind: str
    solve: Callable[[], Any]  # the timed call sequence into the library
    check: Callable[[Any], Optional[str]]  # None when the output is right, else why not


def round_rng(workload: str, seed: int, r: int) -> random.Random:
    """The generator of one round; string seeds hash the same in every process."""
    return random.Random(f"{workload}:{seed}:{r}")


def nonzero(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))


def poly(rng: random.Random, chart, exponents) -> LocalizedPoly:
    """A polynomial with exactly the given exponents and nonzero seeded
    coefficients, so that every seed gives the same shape."""
    return LocalizedPoly(chart, Poly(chart.variables, {e: nonzero(rng) for e in exponents}))


def graded_poly(rng: random.Random, chart, degrees) -> LocalizedPoly:
    """One term of each total degree in ``degrees``, at a seeded exponent."""
    n = len(chart.variables)
    return poly(rng, chart, [rng.choice(list(compositions(d, n))) for d in degrees])


def compositions(total: int, n: int):
    """Exponent tuples of length n and sum total."""
    return (e for e in itertools.product(range(total + 1), repeat=n) if sum(e) == total)


def simplex_nerve(n: int, variables=("x", "y")):
    """The full (n-1)-simplex nerve: n charts with one polynomial chart
    algebra and identity restrictions."""
    faces = [f for r in range(1, n + 1) for f in itertools.combinations(range(n), r)]
    charts = {f: sc.ChartAlgebra(tuple(variables)) for f in faces}
    maps = {
        (f, g): sc.RestrictionMap.identity_like(charts[f], charts[g])
        for f in faces
        for g in faces
        if len(g) == len(f) + 1 and set(f) <= set(g)
    }
    return sc.build_nerve([f"U{i}" for i in range(n)], charts, maps)


def payload_dicts(payload: dict) -> dict:
    return {key: oracle.poly_of(c) for key, c in payload.items()}


def powers(element) -> dict:
    """{hbar power: payload as dicts} of an element over Q[hbar]/hbar^(N+1)."""
    alg = element.algebra
    if len(alg.gens) != 1:
        raise ValueError("expected a one-generator parameter algebra")
    return {alg.basis[i][0]: payload_dicts(p) for i, p in element.parts.items()}


def components_equal(a: dict, b: dict) -> bool:
    """Face-wise equality of two component maps; an absent face is zero."""
    for face in set(a) | set(b):
        x, y = a.get(face), b.get(face)
        if x is None or y is None:
            if not (x if x is not None else y).is_zero():
                return False
        elif x != y:
            return False
    return True


def data_equal(a, b) -> bool:
    """Component-wise equality of two multiplicative descent data."""
    return (
        a.flavor == b.flavor
        and a.algebra == b.algebra
        and components_equal(
            {k: v.element for k, v in a.locals.items()},
            {k: v.element for k, v in b.locals.items()},
        )
        and components_equal(a.edge_gauges, b.edge_gauges)
        and components_equal(a.triple_units, b.triple_units)
    )
