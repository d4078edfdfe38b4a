import itertools
import random
from fractions import Fraction

import pytest

from starcover import (
    AlgebraError,
    ChartAlgebra,
    DGLAElement,
    LocalizedPoly,
    MCElement,
    MCViolation,
    Poly,
    PolyvecCarrier,
    gauge_act,
    first_order_bracket,
    mc_check,
    param_algebra_truncate,
    poisson_from_mc,
    require_mc,
    schouten,
)
from starcover.dgla import exp_series, function_element
from starcover.polyvec import PoissonStructure, merge_odd
from starcover.simplex import wedge_sets

from conftest import rand_element, rand_poly

C3 = ChartAlgebra(("x", "y", "z"))
C2 = ChartAlgebra(("x", "y"))


def so3_payload(car):
    vx, vy, vz = (C3.var(n) for n in ("x", "y", "z"))
    return car.add(
        car.add(car.term((1, 2), vx), car.term((0, 2), vy.scale(-1))),
        car.term((0, 1), vz),
    )


def test_schouten_derivation_action():
    R = param_algebra_truncate(["hbar"], 2)
    car = PolyvecCarrier(C3)
    xdx = DGLAElement.single(car, R, 0, 0, car.vector_field({0: C3.var("x")}))
    x2 = function_element(car, R, C3.var("x") * C3.var("x"))
    assert schouten(xdx, x2) == x2.scale(2)


def test_schouten_self_bracket_of_constant_bivector():
    R = param_algebra_truncate(["hbar"], 2)
    car = PolyvecCarrier(C3)
    b = DGLAElement.single(car, R, 1, 0, car.term((0, 1), C3.one()))
    assert schouten(b, b).is_zero()


def test_schouten_so3_is_poisson():
    R = param_algebra_truncate(["hbar"], 2)
    car = PolyvecCarrier(C3)
    b = DGLAElement.single(car, R, 1, 0, so3_payload(car))
    assert schouten(b, b).is_zero()


def test_schouten_axioms_random(rng):
    R = param_algebra_truncate(["hbar"], 3)
    car = PolyvecCarrier(C3)
    sgn = lambda a, b: (-1) ** (a * b)
    degrees = [(-1, 0, 1), (0, 0, 0), (1, 1, -1), (0, 1, 1), (2, 0, -1), (1, 1, 1), (2, 2, -1)]
    for _ in range(40):
        da, db, dc = rng.choice(degrees)
        X = rand_element(rng, car, R, da)
        Y = rand_element(rng, car, R, db)
        Z = rand_element(rng, car, R, dc)
        assert (X.bracket(Y) + Y.bracket(X).scale(sgn(da, db))).is_zero()
        jac = X.bracket(Y.bracket(Z)) - X.bracket(Y).bracket(Z) - Y.bracket(
            X.bracket(Z)
        ).scale(sgn(da, db))
        assert jac.is_zero()


def test_schouten_with_localized_coefficients():
    # quotient-rule extension: [d/dx, 1/x * d/dy] over Q[x, 1/x, y]
    sx = Poly.var(("x", "y"), "x")
    C = ChartAlgebra(("x", "y"), (sx,))
    R = param_algebra_truncate(["hbar"], 2)
    car = PolyvecCarrier(C)
    inv_x = LocalizedPoly(C, Poly.const(("x", "y"), 1), (1,))
    dx = DGLAElement.single(car, R, 0, 0, car.vector_field({0: C.one()}))
    f_dy = DGLAElement.single(car, R, 0, 0, car.vector_field({1: inv_x}))
    out = schouten(dx, f_dy)
    # [d/dx, (1/x) d/dy] = -(1/x^2) d/dy
    want_coeff = LocalizedPoly(C, Poly.const(("x", "y"), -1), (2,))
    want = DGLAElement.single(car, R, 0, 0, car.vector_field({1: want_coeff}))
    assert out == want


def test_wedge_eval_examples():
    car = PolyvecCarrier(C2)
    pay = car.term((0, 1), C2.one())
    x, y = C2.var("x"), C2.var("y")
    assert car.wedge_eval(pay, x, y) == LocalizedPoly.const(C2, Fraction(1, 2))
    assert car.wedge_eval(pay, x, x).is_zero()


def test_wedge_eval_biderivation(rng):
    car = PolyvecCarrier(C2)
    pay = car.term((0, 1), rand_poly(rng, C2))
    for _ in range(15):
        a, b, c = (rand_poly(rng, C2) for _ in range(3))
        lhs = car.wedge_eval(pay, a * b, c)
        rhs = a * car.wedge_eval(pay, b, c) + b * car.wedge_eval(pay, a, c)
        assert lhs == rhs


def test_wedge_eval_matches_the_per_key_formula(rng):
    # the formula key by key, each argument differentiated twice per key:
    # same value and same Poly term order, over Q[x,y,z] and Q[x,y,z,1/x]
    CL = ChartAlgebra(("x", "y", "z"), (Poly.var(("x", "y", "z"), "x"),))
    for chart in (C3, CL):
        car = PolyvecCarrier(chart)
        for _ in range(40):
            pay = {}
            while not pay:
                pay = rand_element(rng, car, param_algebra_truncate(["hbar"], 1), 1).parts.get(0, {})
            c1, c2 = (rand_poly(rng, chart, 3, 4) for _ in range(2))
            if chart is CL:
                c1 = c1 * chart.var("x").invert()
            want = chart.zero()
            for (i, j), f in pay.items():
                val = c1.derivative(i) * c2.derivative(j) - c2.derivative(i) * c1.derivative(j)
                want = want + (f * val).scale(Fraction(1, 2))
            got = car.wedge_eval(pay, c1, c2)
            assert got == want
            assert list(got.numer.terms.items()) == list(want.numer.terms.items())


def test_merge_odd_and_wedge_sets_share_the_sorting_sign():
    # the sign is the parity of the bubble sort of the concatenation
    def bubble_sign(seq):
        seq, sign = list(seq), 1
        for end in range(len(seq) - 1, 0, -1):
            for k in range(end):
                if seq[k] > seq[k + 1]:
                    seq[k], seq[k + 1] = seq[k + 1], seq[k]
                    sign = -sign
        return sign

    for a_size in range(4):
        for a in itertools.combinations(range(5), a_size):
            for b_size in range(4):
                for b in itertools.combinations(range(5), b_size):
                    merged = merge_odd(a, b)
                    wedge = wedge_sets(frozenset(a), frozenset(b))
                    if set(a) & set(b):
                        assert merged is None and wedge is None
                        continue
                    sign = bubble_sign(a + b)
                    assert merged == (tuple(sorted(a + b)), sign)
                    assert wedge == (frozenset(a + b), sign)


def test_poisson_from_mc_values():
    R = param_algebra_truncate(["hbar"], 2)
    car = PolyvecCarrier(C2)
    beta = DGLAElement.single(car, R, 1, 1, car.term((0, 1), C2.one()))
    P = poisson_from_mc(beta)
    x = function_element(car, R, C2.var("x"))
    y = function_element(car, R, C2.var("y"))
    assert P.bracket(x, y).render() == "hbar * 1/2"
    zero = poisson_from_mc(DGLAElement.zero(car, R, 1))
    assert zero.bracket(x, y).is_zero()
    car3 = PolyvecCarrier(C3)
    beta3 = DGLAElement.single(car3, R, 1, 1, so3_payload(car3))
    table = first_order_bracket(poisson_from_mc(beta3))
    assert table[("x", "y")].render() == "hbar * 1/2*z"
    assert table[("x", "z")].render() == "hbar * (-1/2*y)"
    assert table[("y", "z")].render() == "hbar * 1/2*x"


def _jacobi_defect_orders(P, degree):
    """Lowest hbar-order at which the Jacobi identity fails on monomial
    triples of total degree <= degree; None when it holds."""
    chart = P.carrier.chart
    monos = chart.monomials_up_to(degree)
    degs = [m.numer.total_degree() for m in monos]
    lowest = None
    for i, a in enumerate(monos):
        for j, b in enumerate(monos):
            if degs[i] + degs[j] > degree:
                continue
            for k, c in enumerate(monos):
                if degs[i] + degs[j] + degs[k] > degree:
                    continue
                ea = function_element(P.carrier, P.algebra, a)
                eb = function_element(P.carrier, P.algebra, b)
                ec = function_element(P.carrier, P.algebra, c)
                jac = (
                    P.bracket(ea, P.bracket(eb, ec))
                    + P.bracket(eb, P.bracket(ec, ea))
                    + P.bracket(ec, P.bracket(ea, eb))
                )
                if not jac.is_zero():
                    o = int(jac.adic_order())
                    lowest = o if lowest is None else min(lowest, o)
    return lowest


def test_mc_iff_jacobi_both_directions(rng):
    R = param_algebra_truncate(["hbar"], 3)
    car = PolyvecCarrier(C3)
    # direction 1: MC implies Jacobi on triples of total degree <= 4
    beta = DGLAElement.single(car, R, 1, 1, so3_payload(car))
    g = rand_element(rng, car, R, 0, minorder=1)
    beta = gauge_act(g, beta)
    assert isinstance(mc_check(beta), MCElement)
    assert _jacobi_defect_orders(poisson_from_mc(beta), 4) is None
    # direction 2: a non-MC bivector fails Jacobi, at the same lowest order
    vx = C3.var("x")
    bad_pay = car.add(car.term((0, 1), vx), car.term((1, 2), C3.var("y") * C3.var("y")))
    bad = DGLAElement.single(car, R, 1, 1, bad_pay)
    chk = mc_check(bad)
    assert isinstance(chk, MCViolation)
    P_bad = PoissonStructure(MCElement(bad))  # bypass validation on purpose
    defect_order = _jacobi_defect_orders(P_bad, 4)
    assert defect_order == chk.order == 2


def inner_gauge_poisson(a, structure, elements):
    """Formal hamiltonian flow exp(ad_A(a)) with ad_A(a)(b) = {a, b}_beta,
    evaluated on the requested R (x) C elements."""
    if a.degree != -1:
        raise AlgebraError("hamiltonian logarithms have degree -1")
    if a.adic_order() < 1:
        raise AlgebraError("hamiltonian logarithms have adic order >= 1")
    flow = lambda u: structure.bracket(a, u)
    return [exp_series(flow, u) for u in elements]


def test_inner_gauge_poisson():
    R = param_algebra_truncate(["hbar"], 3)
    car = PolyvecCarrier(C2)
    P = poisson_from_mc(DGLAElement.single(car, R, 1, 1, car.term((0, 1), C2.one())))
    x = function_element(car, R, C2.var("x"))
    y = function_element(car, R, C2.var("y"))
    # a = 0 is the identity
    zero = DGLAElement.zero(car, R, -1)
    assert inner_gauge_poisson(zero, P, [x, y]) == [x, y]
    # a = hbar x on the Moyal-type bracket: y |-> y + {hbar x, y} + ...
    a = x.scale_series(R.gen("hbar"))
    out = inner_gauge_poisson(a, P, [y])[0]
    want = y + P.bracket(a, y)  # the series stops: {hbar x, const} = 0
    assert out == want
    assert out.render() == "y + hbar^2 * 1/2"


def test_inner_gauge_is_poisson_automorphism(rng):
    R = param_algebra_truncate(["hbar"], 3)
    car = PolyvecCarrier(C2)
    P = poisson_from_mc(DGLAElement.single(car, R, 1, 1, car.term((0, 1), C2.one())))
    a = rand_element(rng, car, R, -1, minorder=1)
    monos = C2.monomials_up_to(3)
    wrapped = [function_element(car, R, m) for m in monos]
    flow = lambda u: inner_gauge_poisson(a, P, [u])[0]
    for i in range(len(wrapped)):
        for j in range(i + 1, len(wrapped)):
            if monos[i].numer.total_degree() + monos[j].numer.total_degree() > 3:
                continue
            u, v = wrapped[i], wrapped[j]
            assert flow(P.bracket(u, v)) == P.bracket(flow(u), flow(v))
    # reduction mod m is the identity on C (commutes with the augmentation)
    for u in wrapped:
        diff = flow(u) - u
        assert diff.is_zero() or diff.adic_order() >= 1
