import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from starcover import (
    AlgebraError,
    ChartAlgebra,
    DGLAElement,
    GaugeElement,
    LocalizedPoly,
    MCCheckError,
    MCElement,
    MCViolation,
    NotEquivalent,
    Poly,
    PolydiffCarrier,
    PolyvecCarrier,
    first_order_bracket,
    first_order_tables_equal,
    gerstenhaber,
    hkr,
    hochschild_d,
    mc_check,
    param_algebra_truncate,
    poisson_from_mc,
    quantize_affine_order2,
    require_mc,
    solve_gauge,
    star_from_mc,
    star_gauge,
)
from starcover import polydiff
from starcover.cechnerve import extend_chart
from starcover.polydiff import (
    StarProduct,
    _candidate_slots,
    _splittings,
    _moyal_exponential,
    associativity_oracle,
    function_element,
    monomial_triples,
    solve_d_equation,
)

from conftest import rand_element, rand_polydiff_payload, rand_poly

C2 = ChartAlgebra(("x", "y"))
C3 = ChartAlgebra(("x", "y", "z"))
# Q[x, y, 1/x]
CX = ChartAlgebra(("x", "y"), (Poly.var(("x", "y"), "x"),))


def moyal_star(order=2, chart=C2):
    R = param_algebra_truncate(["hbar"], order)
    vcar = PolyvecCarrier(chart)
    pi = vcar.term((0, 1), chart.one())
    beta = _moyal_exponential(PolydiffCarrier(chart), DGLAElement.single(vcar, R, 1, 1, pi))
    return star_from_mc(require_mc(beta))


def so3_structure(order=2):
    R = param_algebra_truncate(["hbar"], order)
    vcar = PolyvecCarrier(C3)
    vx, vy, vz = (C3.var(n) for n in ("x", "y", "z"))
    pay = vcar.add(
        vcar.add(vcar.term((1, 2), vx), vcar.term((0, 2), vy.scale(-1))),
        vcar.term((0, 1), vz),
    )
    return poisson_from_mc(DGLAElement.single(vcar, R, 1, 1, pay))


def test_hochschild_examples():
    R = param_algebra_truncate(["hbar"], 2)
    car = PolydiffCarrier(C2)
    derivation = DGLAElement.single(car, R, 0, 0, car.term(((1, 0),), C2.var("y")))
    assert hochschild_d(derivation).is_zero()
    # associativity of the product makes the multiplication-type 2-cochain
    # alternating sum vanish: hkr of a function times mu is handled by the
    # normalized complex, so check d^2 = 0 on a slot-2 cochain instead
    phi = DGLAElement.single(car, R, 1, 0, car.term(((2, 0), (0, 1)), C2.one()))
    assert not hochschild_d(phi).is_zero()
    assert hochschild_d(hochschild_d(phi)).is_zero()


def test_gerstenhaber_degree_zero_commutator():
    R = param_algebra_truncate(["hbar"], 2)
    car = PolydiffCarrier(C2)
    dx = DGLAElement.single(car, R, 0, 0, car.term(((1, 0),), C2.one()))
    dy = DGLAElement.single(car, R, 0, 0, car.term(((0, 1),), C2.one()))
    assert gerstenhaber(dx, dy).is_zero()
    xdx = DGLAElement.single(car, R, 0, 0, car.term(((1, 0),), C2.var("x")))
    assert gerstenhaber(xdx, dx) == -dx
    # commutator oracle on monomials: degree-0 bracket is phi(psi) - psi(phi)
    monos = C2.monomials_up_to(3)
    br = gerstenhaber(xdx, dx)
    for m in monos:
        lhs = car.evaluate(br.parts[0], [m])
        rhs = car.evaluate(xdx.parts[0], [car.evaluate(dx.parts[0], [m])]) - car.evaluate(
            dx.parts[0], [car.evaluate(xdx.parts[0], [m])]
        )
        assert lhs == rhs


def test_gerstenhaber_axioms_random(rng):
    R = param_algebra_truncate(["hbar"], 3)
    car = PolydiffCarrier(C2)
    sgn = lambda a, b: (-1) ** (a * b)
    degrees = [(-1, 0, 1), (0, 0, 0), (1, 1, -1), (0, 1, 1), (1, 1, 1), (2, 0, -1)]
    for _ in range(30):
        da, db, dc = rng.choice(degrees)
        X = rand_element(rng, car, R, da, kind="polydiff")
        Y = rand_element(rng, car, R, db, kind="polydiff")
        Z = rand_element(rng, car, R, dc, kind="polydiff")
        assert (X.bracket(Y) + Y.bracket(X).scale(sgn(da, db))).is_zero()
        jac = X.bracket(Y.bracket(Z)) - X.bracket(Y).bracket(Z) - Y.bracket(
            X.bracket(Z)
        ).scale(sgn(da, db))
        assert jac.is_zero()
        assert X.d().d().is_zero()
        leib = X.bracket(Y).d() - X.d().bracket(Y) - X.bracket(Y.d()).scale((-1) ** da)
        assert leib.is_zero()


# The Gerstenhaber route before the signed accumulation, kept as the oracle:
# each x o_i y built alone, scaled by its Koszul sign and added in; the
# second circ of a bracket built alone and scaled by -(-1)^(dx dy).  Slot
# derivatives go through LocalizedPoly.derivative, one variable at a time.


def reference_compose_at(car, x, y, i):
    out = {}
    for xs, f in x.items():
        alpha = xs[i]
        for ys, g in y.items():
            leading = {}
            for parts, w in _splittings(alpha, 1 + len(ys)):
                kappa_c, kappa_args = parts[0], parts[1:]
                coeff = leading.get(kappa_c)
                if coeff is None:
                    dg = g
                    for pos, k in enumerate(kappa_c):
                        for _ in range(k):
                            dg = dg.derivative(car.deriv_indices[pos])
                    coeff = leading[kappa_c] = f * dg
                if w != 1:
                    coeff = coeff.scale(w)
                if coeff.is_zero():
                    continue
                mid = tuple(tuple(a + b for a, b in zip(s, k)) for s, k in zip(ys, kappa_args))
                slots = xs[:i] + mid + xs[i + 1 :]
                out[slots] = out[slots] + coeff if slots in out else coeff
    return car._clean(out)


def reference_circ(car, x, y, p, q):
    out = {}
    for i in range(p + 1):
        out = car.add(out, car.scale(Fraction((-1) ** (i * q)), reference_compose_at(car, x, y, i)))
    return out


def reference_bracket(car, x, y, dx, dy):
    b = reference_circ(car, y, x, dy, dx)
    return car.add(reference_circ(car, x, y, dx, dy), car.scale(Fraction(-((-1) ** (dx * dy))), b))


def mu0(car):
    """The multiplication 2-cochain, un-normalized: d is [mu0, -]."""
    z = (0,) * car.nderiv
    return {(z, z): car.chart.one()}


def reference_d(car, x, degree):
    out = reference_bracket(car, mu0(car), x, 1, degree)
    assert car.is_normalized(out)  # the outer faces cancel
    return out


# every degree pair the brackets benchmark workload brackets, from its triples
# (X, Y, Z): antisymmetry, Jacobi and Leibniz
BRACKET_PAIRS = sorted({
    pair
    for a, b, c in [(-1, 0, 1), (0, 0, 0), (1, 1, -1), (0, 1, 1), (2, 0, -1), (1, 1, 1)]
    for pair in [(a, b), (b, a), (b, c), (a + b, c), (a, b + c), (b, a + c), (a, c), (a + 1, b), (a, b + 1)]
})


def _seeded_payload(rng, car, degree, max_slot=2):
    """Integral and fractional coefficients; over CX divided by x^0..x^2."""
    pay = rand_polydiff_payload(rng, car, degree, max_slot)
    out = {}
    for slots, c in pay.items():
        c = c.scale(rng.choice([Fraction(1), Fraction(1), Fraction(-1, 2), Fraction(2, 3)]))
        out[slots] = LocalizedPoly(car.chart, c.numer, (rng.randint(0, 2),)) if car.chart is CX else c
    return out


def _same_payload(got, want):
    assert list(got) == list(want)  # key order too: it feeds later column order
    for k in want:
        assert got[k] == want[k] and got[k].powers == want[k].powers
        assert list(got[k].numer.terms.items()) == list(want[k].numer.terms.items())


@pytest.mark.parametrize("dx, dy", BRACKET_PAIRS)
@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32))
def test_gerstenhaber_and_d_match_the_reference_route(dx, dy, seed):
    rng = random.Random(seed)
    for chart in (C2, CX):
        car = PolydiffCarrier(chart)
        x, y = _seeded_payload(rng, car, dx), _seeded_payload(rng, car, dy)
        _same_payload(car.bracket(x, y, dx, dy), reference_bracket(car, x, y, dx, dy))
        # d on slot weights up to 4, degrees -1 to 3
        x = _seeded_payload(rng, car, dx, max_slot=4)
        _same_payload(car.d(x, dx), reference_d(car, x, dx))


# degree 2: the key d[1,0]^4 comes from face 0 (-2), face 1 (+2), where it
# cancels and leaves, and face 2 (-2), where it comes back last
CANCEL_AND_RETURN = {
    ((2, 0), (1, 0), (1, 0)): 1,
    ((1, 0), (2, 0), (1, 0)): 1,
    ((0, 1), (1, 1), (0, 1)): 3,
    ((1, 0), (1, 0), (2, 0)): 1,
}


@pytest.mark.parametrize("chart", [C2, CX], ids=["polynomial", "localized"])
def test_d_keeps_the_order_of_a_key_that_cancels_and_returns(chart):
    car = PolydiffCarrier(chart)
    x = {slots: LocalizedPoly.const(chart, c) for slots, c in CANCEL_AND_RETURN.items()}
    got = car.d(x, 2)
    assert list(got)[-1] == ((1, 0),) * 4
    _same_payload(got, reference_d(car, x, 2))


def test_d_rejects_unnormalized_cochains():
    car = PolydiffCarrier(C2)
    for x, degree in ((mu0(car), 1), ({((0, 0), (1, 0)): C2.one()}, 1), ({((0, 0),): C2.one()}, 0)):
        with pytest.raises(AlgebraError):
            car.d(x, degree)


def test_d_calls_neither_the_bracket_nor_compose_at(monkeypatch, rng):
    calls = []
    for name in ("compose_at", "circ", "bracket"):
        original = getattr(PolydiffCarrier, name)
        monkeypatch.setattr(
            PolydiffCarrier, name,
            lambda self, *a, _name=name, _f=original: calls.append(_name) or _f(self, *a),
        )
    for chart in (C2, CX):
        car = PolydiffCarrier(chart)
        for degree in (-1, 0, 1, 2, 3):
            car.d(_seeded_payload(rng, car, degree, max_slot=4), degree)
    R = param_algebra_truncate(["hbar"], 2)
    hochschild_d(rand_element(rng, PolydiffCarrier(C2), R, 1, kind="polydiff"))
    assert calls == []
    # the counter is live: a bracket goes through compose_at
    car = PolydiffCarrier(C2)
    car.bracket(car.term(((1, 0),), C2.one()), car.term(((0, 1),), C2.var("x")), 0, 0)
    assert "compose_at" in calls


def reference_evaluate(car, x, args):
    """Cochain evaluation as it was: multiply in each slot derivative, then
    test the running product for zero."""
    out = car.chart.zero()
    for slots, f in x.items():
        term = f
        for a, c in zip(slots, args):
            term = term * car.deriv(c, a)
            if term.is_zero():
                break
        out = out + term
    return out


@pytest.mark.parametrize("chart", [C2, CX], ids=["polynomial", "localized"])
@pytest.mark.parametrize("degree", [-1, 0, 1, 2])
def test_evaluate_matches_the_multiply_then_test_loop(chart, degree, rng):
    # arguments of degree <= 2 against slot weights up to 3: many slot
    # derivatives vanish, some in a later slot after a nonzero one
    car = PolydiffCarrier(chart)
    vanished = 0
    for _ in range(40):
        x = _seeded_payload(rng, car, degree, max_slot=3)
        args = [_seeded_payload(rng, car, -1).get((), chart.zero()) for _ in range(degree + 1)]
        got, want = car.evaluate(x, args), reference_evaluate(car, x, args)
        assert got == want and got.powers == want.powers
        assert list(got.numer.terms.items()) == list(want.numer.terms.items())
        vanished += any(car.deriv(c, a).is_zero() for slots in x for a, c in zip(slots, args))
    assert degree == -1 or vanished >= 10


def test_moyal_star_values():
    S = moyal_star(2)
    car = S.carrier
    R = S.algebra
    fe = lambda p: function_element(car, R, p)
    x, y = fe(C2.var("x")), fe(C2.var("y"))
    x2, y2 = fe(C2.var("x") * C2.var("x")), fe(C2.var("y") * C2.var("y"))
    assert S.product(x, y).render() == "x*y + hbar * 1/2"
    assert S.product(y, x).render() == "x*y + hbar * (-1/2)"
    assert S.product(x2, y2).render() == "x^2*y^2 + hbar * 2*x*y + hbar^2 * 1/2"
    one = fe(C2.one())
    assert S.product(one, x2) == x2 and S.product(x2, one) == x2


def test_star_zero_is_commutative(rng):
    R = param_algebra_truncate(["hbar"], 2)
    car = PolydiffCarrier(C2)
    S = star_from_mc(DGLAElement.zero(car, R, 1))
    a = function_element(car, R, rand_poly(rng, C2))
    b = function_element(car, R, rand_poly(rng, C2))
    assert S.product(a, b) == S.product(b, a)


def test_non_mc_rejected_with_order():
    R = param_algebra_truncate(["hbar"], 2)
    car = PolydiffCarrier(C2)
    bad = DGLAElement.single(car, R, 1, 1, car.term(((2, 0), (0, 1)), C2.var("x")))
    with pytest.raises(MCCheckError) as exc:
        star_from_mc(bad)
    assert exc.value.violation.order == 1


def test_mc_iff_associativity_both_directions(rng):
    # non-MC element: the associativity oracle fails at the same lowest order
    R = param_algebra_truncate(["hbar"], 2)
    car = PolydiffCarrier(C2)
    bad = DGLAElement.single(car, R, 1, 1, car.term(((2, 0), (0, 1)), C2.var("x")))
    chk = mc_check(bad)
    assert isinstance(chk, MCViolation)
    S_bad = StarProduct(MCElement(bad))  # bypass validation on purpose
    lowest = None
    for a, b, c in monomial_triples(C2, 4):
        ea, eb, ec = (function_element(car, R, m) for m in (a, b, c))
        diff = S_bad.product(S_bad.product(ea, eb), ec) - S_bad.product(ea, S_bad.product(eb, ec))
        if not diff.is_zero():
            o = int(diff.adic_order())
            lowest = o if lowest is None else min(lowest, o)
    assert lowest == chk.order == 1
    # MC element: the oracle is empty
    assert associativity_oracle(moyal_star(2), 4) == []


def test_star_from_mc_names_the_failing_triples():
    # an MCElement is trusted, so only the oracle stands between this non-MC
    # cochain and a star product; its error counts the failing triples and
    # shows the first one as rendered monomials
    R = param_algebra_truncate(["hbar"], 2)
    car = PolydiffCarrier(C2)
    bad = DGLAElement.single(car, R, 1, 1, car.term(((2, 0), (0, 1)), C2.var("x")))
    failures = associativity_oracle(StarProduct(MCElement(bad)), 4)
    assert len(failures) == 7 and failures[0] == ("x", "x", "y")
    with pytest.raises(AlgebraError) as exc:
        star_from_mc(MCElement(bad))
    assert not isinstance(exc.value, MCCheckError)
    assert str(exc.value) == (
        "MC held but associativity oracle failed on 7 monomial triples of degree <= 4, "
        "first (x, x, y): convention bug"
    )


def per_triple_oracle(star, degree):
    """The associativity check without the product table: four star products
    from scratch per monomial triple, compared as elements."""
    car = star.carrier
    failures = []
    for a, b, c in monomial_triples(car.chart, degree):
        ea, eb, ec = (function_element(car, star.algebra, m) for m in (a, b, c))
        lhs = star.product(star.product(ea, eb), ec)
        rhs = star.product(ea, star.product(eb, ec))
        if lhs != rhs:
            failures.append((a.render(), b.render(), c.render()))
    return failures


def _localize(rng, element):
    """Divide every coefficient of a cochain over CX by a seeded power of x."""
    return element.map_payload(
        lambda pay: {s: LocalizedPoly(CX, c.numer, (rng.randint(0, 2),)) for s, c in pay.items()}
    )


def test_associativity_oracle_matches_per_triple_route(rng):
    # seeded non-MC cochains (coefficient degree up to 3, above the slot
    # weight, so products leave the oracle's monomials) over Q[x, y], over
    # Q[x, y, 1/x], over Q[x, y, z], over Q[x, y, t1] differentiating x and y
    # only and over Q[x, y, z] differentiating y and z only (slot position k
    # is chart variable deriv_indices[k]), and over hbar^2, hbar^3 and a
    # two-generator parameter algebra
    hbar2 = param_algebra_truncate(["hbar"], 2)
    hbar3 = param_algebra_truncate(["hbar"], 3)
    st2 = param_algebra_truncate(["s", "t"], 2)
    CT = extend_chart(C2, 1)
    cases = [(PolydiffCarrier(C2), hbar2, False)] * 6 + [(PolydiffCarrier(CX), hbar2, True)] * 4
    cases += [(PolydiffCarrier(C2), st2, False)] * 4
    cases += [(PolydiffCarrier(C3), hbar2, False)] * 2 + [(PolydiffCarrier(C2), hbar3, False)] * 2
    cases += [(PolydiffCarrier(CT, (0, 1)), hbar2, False), (PolydiffCarrier(CT, (0, 1)), st2, False)]
    cases += [(PolydiffCarrier(C3, (1, 2)), hbar2, False)] * 2
    failing = []
    for car, R, localize in cases:
        beta = DGLAElement.zero(car, R, 1)
        while not isinstance(mc_check(beta), MCViolation):
            beta = rand_element(rng, car, R, 1, minorder=1, kind="polydiff", maxdeg=3)
            if localize:
                beta = _localize(rng, beta)
        star = StarProduct(MCElement(beta))  # bypass validation on purpose
        expected = per_triple_oracle(star, 4)
        assert associativity_oracle(star, 4) == expected
        failing.append(len(expected))
    assert all(failing)
    # MC cochains: both routes find no failing triple
    vcar = PolyvecCarrier(CT, (0, 1))
    pi = DGLAElement.single(vcar, hbar2, 1, 1, vcar.term((0, 1), CT.var("t1")))
    moyal_t = StarProduct(require_mc(_moyal_exponential(PolydiffCarrier(CT, (0, 1)), pi)))
    for star in [
        moyal_star(2),
        moyal_star(3),
        moyal_star(2, CX),
        moyal_t,
        quantize_affine_order2(so3_structure(2)),
    ]:
        assert associativity_oracle(star, 4) == per_triple_oracle(star, 4) == []


def test_associativity_oracle_one_product_per_pair(monkeypatch):
    # one product-table entry per monomial pair: so(3)'s star product keeps
    # every product of degree <= 4, so the table holds the 210 monomial pairs
    # of total degree <= 4 in three variables (715 triples)
    S = quantize_affine_order2(so3_structure(2))
    tables = []

    class Recording(polydiff._MonomialProducts):
        def __init__(self, star):
            super().__init__(star)
            tables.append(self)

    monkeypatch.setattr(polydiff, "_MonomialProducts", Recording)
    assert associativity_oracle(S, 4) == []
    assert len(tables) == 1 and len(tables[0]) == 210


@pytest.mark.parametrize("chart", [C2, CX], ids=["polynomial", "localized"])
def test_hochschild_d_scales_with_coefficient(chart, rng):
    # d = [mu0, -] never differentiates the coefficient of its argument, so
    # solve_d_equation reuses one unit image per candidate in every block
    car = PolydiffCarrier(chart)
    for nslots in (1, 2, 3):
        for cand in _candidate_slots(car.nderiv, 3, nslots):
            unit = car.d({cand: chart.one()}, nslots - 1)
            powers = (rng.randint(0, 2),) * len(chart.denominators)
            f = LocalizedPoly(chart, rand_poly(rng, chart, 3, 3).numer, powers)
            if f.is_zero():
                continue
            image = car.d({cand: f}, nslots - 1)
            assert set(image) == set(unit)
            for slots, c in unit.items():
                assert image[slots] == f * c


def test_solve_d_equation_round_trip_on_localized_chart(rng):
    car = PolydiffCarrier(CX)
    R = param_algebra_truncate(["hbar"], 1)
    for _ in range(5):
        v = _localize(rng, rand_element(rng, car, R, 1, minorder=1, kind="polydiff"))
        for payload in v.parts.values():
            rhs = car.d(payload, 1)
            found = solve_d_equation(car, rhs, 1)
            assert found is not None and car.eq(car.d(found, 1), rhs)


def test_solve_gauge_round_trips(rng):
    S = moyal_star(2)
    car = S.carrier
    R = S.algebra
    seeds = [
        (car.term(((2, 0),), C2.one()), "hbar * d[2,0]"),
        (car.term(((1, 1),), C2.var("x")), "hbar * x*d[1,1]"),
        (
            car.add(car.term(((0, 2),), C2.one()), car.term(((1, 0),), C2.var("y"))),
            "hbar * (d[0,2] + 1/2*y*d[1,0]) + hbar^2 * (-1/2*d[1,1])",
        ),
    ]
    for pay, rendered in seeds:
        gamma0 = DGLAElement.single(car, R, 0, 1, pay)
        S2, cert = star_gauge(gamma0, S)
        assert cert.holds
        rec = solve_gauge(S, S2)
        assert isinstance(rec, GaugeElement)
        assert rec.log.render() == rendered
        S2b, cert2 = star_gauge(rec, S)
        assert cert2.holds
        assert S2b.beta.element == S2.beta.element


def test_solve_gauge_on_localized_chart():
    # x is invertible on the chart, but the star product and the gauge have
    # polynomial coefficients, so the one-chart layers stay finite
    chart = ChartAlgebra(("x", "y"), (Poly.var(("x", "y"), "x"),))
    S = moyal_star(2, chart)
    car = S.carrier
    gamma0 = DGLAElement.single(car, S.algebra, 0, 1, car.term(((2, 0),), chart.one()))
    S2, _ = star_gauge(gamma0, S)
    rec = solve_gauge(S, S2)
    assert isinstance(rec, GaugeElement)
    assert rec.log.render() == "hbar * d[2,0]"


def test_solve_gauge_trivial():
    S = moyal_star(2)
    rec = solve_gauge(S, S)
    assert isinstance(rec, GaugeElement)
    assert rec.log.is_zero()


def test_moyal_vs_commutative_not_equivalent():
    S = moyal_star(2)
    S0 = star_from_mc(DGLAElement.zero(S.carrier, S.algebra, 1))
    out = solve_gauge(S0, S)
    assert isinstance(out, NotEquivalent)
    assert out.order == 1
    # the residue is the antisymmetric bivector class of the Moyal term
    payload = out.residue.parts[min(out.residue.parts)]
    anti = S.carrier.add(payload, {k[::-1]: v for k, v in payload.items()})
    assert not S.carrier.is_zero(payload)
    assert S.carrier.is_zero(anti)
    assert "d[" in out.render()


def test_hkr_examples():
    R = param_algebra_truncate(["hbar"], 2)
    vcar = PolyvecCarrier(C2)
    dcar = PolydiffCarrier(C2)
    # functions map identically
    f = C2.var("x") * C2.var("y")
    gf = function_element(vcar, R, f)
    assert hkr(gf).parts[0] == dcar.from_coeff(f)
    # bivector formula
    pay = vcar.term((0, 1), C2.one())
    h = hkr(DGLAElement.single(vcar, R, 1, 0, pay))
    a = C2.var("x") * C2.var("x")
    b = C2.var("y")
    val = dcar.evaluate(h.parts[0], [a, b])
    want = (
        a.derivative(0) * b.derivative(1) - b.derivative(0) * a.derivative(1)
    ).scale(Fraction(1, 2))
    assert val == want


def test_hkr_cocycle_random(rng):
    R = param_algebra_truncate(["hbar"], 2)
    vcar = PolyvecCarrier(C3)
    for _ in range(10):
        b = rand_element(rng, vcar, R, 1, minorder=1)
        h = hkr(b)
        assert hochschild_d(h).is_zero()
        for payload in h.parts.values():
            assert h.carrier.is_normalized(payload)


def test_quantize_zero_and_moyal():
    R = param_algebra_truncate(["hbar"], 2)
    vcar = PolyvecCarrier(C2)
    zero = poisson_from_mc(DGLAElement.zero(vcar, R, 1))
    S0 = quantize_affine_order2(zero)
    x = function_element(S0.carrier, R, C2.var("x"))
    y = function_element(S0.carrier, R, C2.var("y"))
    assert S0.product(x, y) == S0.product(y, x)
    P = poisson_from_mc(DGLAElement.single(vcar, R, 1, 1, vcar.term((0, 1), C2.one())))
    S = quantize_affine_order2(P)
    assert S.product(x, y).render() == "x*y + hbar * 1/2"


def test_quantize_so3_associative():
    S = quantize_affine_order2(so3_structure(2))
    assert associativity_oracle(S, 4) == []
    assert first_order_tables_equal(first_order_bracket(S), first_order_bracket(so3_structure(2)))


def test_quantize_rejects_non_poisson():
    R = param_algebra_truncate(["hbar"], 2)
    vcar = PolyvecCarrier(C3)
    bad_pay = vcar.add(
        vcar.term((0, 1), C3.var("x")), vcar.term((1, 2), C3.var("y") * C3.var("y"))
    )
    from starcover.polyvec import PoissonStructure

    P_bad = PoissonStructure(MCElement(DGLAElement.single(vcar, R, 1, 1, bad_pay)))
    with pytest.raises(AlgebraError):
        quantize_affine_order2(P_bad)


def test_first_order_bracket_gauge_invariance(rng):
    S = moyal_star(2)
    table = first_order_bracket(S)
    assert table[("x", "y")].render() == "hbar * 1/2"
    for _ in range(5):
        pay = S.carrier.term(
            ((rng.randint(1, 2), rng.randint(0, 1)),), rand_poly(rng, C2, maxdeg=1)
        )
        gam = DGLAElement.single(S.carrier, S.algebra, 0, 1, pay)
        S2, cert = star_gauge(gam, S)
        assert cert.holds
        assert first_order_tables_equal(first_order_bracket(S2), table)


def test_first_order_bracket_commutative_zero():
    R = param_algebra_truncate(["hbar"], 2)
    car = PolydiffCarrier(C2)
    S = star_from_mc(DGLAElement.zero(car, R, 1))
    assert all(v.is_zero() for v in first_order_bracket(S).values())
