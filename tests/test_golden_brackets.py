"""Golden bytes of seeded Schouten and Gerstenhaber brackets, the Hochschild
d and graded Jacobi sums, in ``data/brackets.txt``.

Each element is written twice: rendered, and as its parts with every
coefficient's denominator powers and ``list(terms.items())``, coefficients
written with ``str``, so payload key order and ``Poly`` term order are
pinned as well as values.  One operand of each triple is scaled by 1/2, so
integral and non-integral coefficients both appear.  The cochains run over
Q[x, y] and over the localized Q[x, y, 1/x], where X is divided by x.

Regenerate the file (only when a change of output is intended) with
``PYTHONPATH=src python tests/test_golden_brackets.py > tests/data/brackets.txt``.
"""

from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

from starcover import (
    ChartAlgebra,
    DGLAElement,
    LocalizedPoly,
    Poly,
    PolydiffCarrier,
    PolyvecCarrier,
    param_algebra_truncate,
)

DATA = Path(__file__).resolve().parent / "data" / "brackets.txt"

XYZ = ("x", "y", "z")
XY = ("x", "y")


def seeded_poly(rng, chart) -> LocalizedPoly:
    """Two seeded terms of degree at most 1 in each variable, nonzero
    integral coefficients."""
    n = len(chart.variables)
    terms = {tuple(rng.randint(0, 1) for _ in range(n)): rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(2)}
    return LocalizedPoly(chart, Poly(chart.variables, terms))


def seeded_element(rng, car, R, degree: int) -> DGLAElement:
    """Parts at hbar^0 and hbar^1, each with up to two seeded keys: wedges
    of coordinate vector fields, or slot tuples of weight 1 or 2."""
    parts = {}
    for i in (0, 1):
        if degree == -1:
            parts[i] = car.from_coeff(seeded_poly(rng, car.chart))
            continue
        if isinstance(car, PolyvecCarrier):
            keys = list(itertools.combinations(range(len(car.chart.variables)), degree + 1))
        else:
            singles = [e for e in itertools.product(range(3), repeat=car.nderiv) if 0 < sum(e) <= 2]
            keys = [tuple(rng.choice(singles) for _ in range(degree + 1)) for _ in range(2)]
        pay = car.zero()
        for key in rng.sample(keys, min(2, len(keys))):
            pay = car.add(pay, car.term(key, seeded_poly(rng, car.chart)))
        parts[i] = pay
    return DGLAElement(car, R, degree, parts)


def element_lines(name: str, el) -> list[str]:
    lines = [f"{name} (degree {el.degree}): {el.render()}"]
    for i, payload in el.parts.items():
        for key, c in payload.items():
            terms = [(e, str(q)) for e, q in c.numer.terms.items()]
            lines.append(f"  {i} {key} /{list(c.powers)}: {terms}")
    return lines


def jacobi(x, y, z):
    """[x, [y, z]] - [[x, y], z] - (-1)^(|x||y|) [y, [x, z]], zero in a
    graded Lie algebra; returned with its three terms."""
    terms = (x.bracket(y.bracket(z)), x.bracket(y).bracket(z), y.bracket(x.bracket(z)))
    sign = -1 if x.degree * y.degree % 2 else 1
    return terms, terms[0] - terms[1] - terms[2].scale(sign)


def golden_lines() -> list[str]:
    R = param_algebra_truncate(["hbar"], 1)
    cases = [
        ("schouten", PolyvecCarrier(ChartAlgebra(XYZ)), (1, 0, 1), 11),
        ("schouten", PolyvecCarrier(ChartAlgebra(XYZ)), (0, 1, -1), 12),
        ("gerstenhaber", PolydiffCarrier(ChartAlgebra(XY)), (1, 0, -1), 21),
        ("gerstenhaber", PolydiffCarrier(ChartAlgebra(XY)), (1, 1, -1), 22),
        ("gerstenhaber 1/x", PolydiffCarrier(ChartAlgebra(XY, (Poly.var(XY, "x"),))), (0, 1, -1), 23),
    ]
    lines: list[str] = []
    for label, car, degrees, seed in cases:
        rng = random.Random(seed)
        x, y, z = (seeded_element(rng, car, R, deg) for deg in degrees)
        y = y.scale(Fraction(1, 2))
        if car.chart.denominators:
            inverse = car.chart.var("x") ** -1
            x = x.map_payload(lambda pay: {key: c * inverse for key, c in pay.items()})
        lines.append(f"== {label}, degrees {degrees}, seed {seed}")
        named = [("X", x), ("Y", y), ("Z", z), ("[X, Y]", x.bracket(y)), ("[Y, Z]", y.bracket(z))]
        if isinstance(car, PolydiffCarrier):
            named += [("d X", x.d()), ("d Y", y.d()), ("d [X, Y]", x.bracket(y).d())]
        terms, total = jacobi(x, y, z)
        named += list(zip(("[X, [Y, Z]]", "[[X, Y], Z]", "[Y, [X, Z]]"), terms))
        named.append(("jacobi sum", total))
        for name, el in named:
            lines += element_lines(name, el)
    return lines


def test_brackets_match_the_golden_bytes():
    assert "\n".join(golden_lines()) + "\n" == DATA.read_text(encoding="utf-8")


def test_the_golden_brackets_are_not_trivial():
    text = DATA.read_text(encoding="utf-8")
    assert text.count("jacobi sum") == 5 and text.count("jacobi sum (degree") == 5
    assert all(line.endswith(": 0") for line in text.splitlines() if line.startswith("jacobi sum"))
    assert "'1/2'" in text and "/[1]" in text


if __name__ == "__main__":
    sys.stdout.write("\n".join(golden_lines()) + "\n")
