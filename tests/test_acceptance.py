"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime against the stated budget.  Every assertion is bit-exact;
the seeded generators make each run identical.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from starcover import (
    AddDescentDatum,
    CechCarrier,
    ChartAlgebra,
    DGLAElement,
    GaugeElement,
    LocalizedPoly,
    MCElement,
    MCViolation,
    MultDescentDatum,
    ObstructionReport,
    Poly,
    PolydiffCarrier,
    PolyvecCarrier,
    TwistedTransformation,
    cech_cohomology,
    check_add,
    check_mdd,
    equiv_solve,
    exp_add,
    first_order_bracket,
    first_order_tables_equal,
    gauge_act,
    int_mc,
    mc_check,
    mdd_gauge,
    obstruction,
    octahedron_nerve,
    param_algebra_truncate,
    poisson_from_mc,
    quantize_affine_order2,
    require_mc,
    simplex_integrate,
    solve_gauge,
    star_from_mc,
    star_gauge,
    ts_normalize,
    whitney,
)
from starcover.descent import face_carrier, identity_transformation
from starcover.polydiff import (
    StarProduct,
    associativity_oracle,
    function_element,
    monomial_triples,
)
from starcover.polyvec import PoissonStructure
from starcover.simplex import (
    SimplexForm,
    dirichlet_integral,
    stokes_boundary_integral,
    t_vars,
)
from starcover.thomsullivan import integrate_component
from starcover.descent import _split_faces

from conftest import (
    rand_element,
    rand_poly,
    rand_polydiff_payload,
    rand_polyvec_payload,
    simplex_nerve,
)

C3 = ChartAlgebra(("x", "y", "z"))
C2 = ChartAlgebra(("x", "y"))


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        over = elapsed >= self.seconds
        status = "PASS" if exc_type is None and not over else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.1f}s {'>=' if over else '<'} {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded its {self.seconds}s budget"
        return False


def so3_payload(car):
    vx, vy, vz = (C3.var(n) for n in ("x", "y", "z"))
    return car.add(
        car.add(car.term((1, 2), vx), car.term((0, 2), vy.scale(-1))),
        car.term((0, 1), vz),
    )


def moyal_star(order=2):
    from starcover.polydiff import _moyal_exponential

    R = param_algebra_truncate(["hbar"], order)
    vcar = PolyvecCarrier(C2)
    pi = vcar.term((0, 1), C2.one())
    beta = _moyal_exponential(PolydiffCarrier(C2), DGLAElement.single(vcar, R, 1, 1, pi))
    return star_from_mc(require_mc(beta))


def test_criterion_1_bracket_axioms():
    with Budget("1 bracket axioms", 60):
        rng = random.Random(101)
        R = param_algebra_truncate(["hbar"], 3)
        vcar = PolyvecCarrier(C3)
        dcar = PolydiffCarrier(C2)
        degree_triples = [(-1, 0, 1), (0, 0, 0), (1, 1, -1), (0, 1, 1), (2, 0, -1), (1, 1, 1)]
        sgn = lambda a, b: (-1) ** (a * b)
        for n in range(200):
            da, db, dc = degree_triples[n % len(degree_triples)]
            X = rand_element(rng, vcar, R, da, maxdeg=3)
            Y = rand_element(rng, vcar, R, db, maxdeg=3)
            Z = rand_element(rng, vcar, R, dc, maxdeg=3)
            assert (X.bracket(Y) + Y.bracket(X).scale(sgn(da, db))).is_zero()
            jac = X.bracket(Y.bracket(Z)) - X.bracket(Y).bracket(Z) - Y.bracket(
                X.bracket(Z)
            ).scale(sgn(da, db))
            assert jac.is_zero()
            assert X.d().is_zero()  # T_poly differential is zero, d^2 = 0 holds
        for n in range(200):
            da, db, dc = degree_triples[n % len(degree_triples)]
            X = rand_element(rng, dcar, R, da, kind="polydiff")
            Y = rand_element(rng, dcar, R, db, kind="polydiff")
            Z = rand_element(rng, dcar, R, dc, kind="polydiff")
            assert (X.bracket(Y) + Y.bracket(X).scale(sgn(da, db))).is_zero()
            jac = X.bracket(Y.bracket(Z)) - X.bracket(Y).bracket(Z) - Y.bracket(
                X.bracket(Z)
            ).scale(sgn(da, db))
            assert jac.is_zero()
            assert X.d().d().is_zero()
            leib = X.bracket(Y).d() - X.d().bracket(Y) - X.bracket(Y.d()).scale((-1) ** da)
            assert leib.is_zero()


def _jacobi_lowest_order(P, degree):
    lowest = None
    chart = P.carrier.chart
    monos = chart.monomials_up_to(degree)
    degs = [m.numer.total_degree() for m in monos]
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


def _assoc_lowest_order(S, degree):
    lowest = None
    car = S.carrier
    for a, b, c in monomial_triples(car.chart, degree):
        ea, eb, ec = (function_element(car, S.algebra, m) for m in (a, b, c))
        diff = S.product(S.product(ea, eb), ec) - S.product(ea, S.product(eb, ec))
        if not diff.is_zero():
            o = int(diff.adic_order())
            lowest = o if lowest is None else min(lowest, o)
    return lowest


def test_criterion_2_mc_iff_structure():
    with Budget("2 MC <=> structure", 120):
        rng = random.Random(202)
        R = param_algebra_truncate(["hbar"], 3)
        vcar2 = PolyvecCarrier(C2)
        vcar3 = PolyvecCarrier(C3)
        # 50 seeded Poisson MC elements: every 2-variable bivector is MC, and
        # gauges of the so(3) structure cover 3 variables
        for n in range(50):
            if n % 2 == 0:
                beta = rand_element(rng, vcar2, R, 1, minorder=1)
            else:
                g = rand_element(rng, vcar3, R, 0, minorder=1, maxdeg=1)
                beta = gauge_act(g, DGLAElement.single(vcar3, R, 1, 1, so3_payload(vcar3)))
            assert isinstance(mc_check(beta), MCElement)
            P = poisson_from_mc(beta)
            assert _jacobi_lowest_order(P, 4) is None
        # 50 seeded associative MC elements: gauges of Moyal / the zero star
        S_moyal = moyal_star(3)
        dcar = S_moyal.carrier
        for n in range(50):
            g = rand_element(rng, dcar, R, 0, minorder=1, kind="polydiff", maxdeg=1)
            base = S_moyal.beta.element if n % 2 == 0 else DGLAElement.zero(dcar, R, 1)
            beta = gauge_act(g, base)
            assert isinstance(mc_check(beta), MCElement)
            S = StarProduct(require_mc(beta))
            assert _assoc_lowest_order(S, 4) is None
        # 20 seeded non-MC elements, rejected at the same lowest order the
        # induced structure fails
        rejected = 0
        attempts = 0
        while rejected < 10 and attempts < 200:
            attempts += 1
            beta = rand_element(rng, vcar3, R, 1, minorder=1, maxdeg=1)
            chk = mc_check(beta)
            if isinstance(chk, MCElement):
                continue
            brute = _jacobi_lowest_order(PoissonStructure(MCElement(beta)), 4)
            if brute is None:
                continue
            assert brute == chk.order
            rejected += 1
        assert rejected == 10
        rejected = 0
        attempts = 0
        while rejected < 10 and attempts < 200:
            attempts += 1
            beta = rand_element(rng, dcar, R, 1, minorder=1, kind="polydiff", maxdeg=1)
            chk = mc_check(beta)
            if isinstance(chk, MCElement):
                continue
            brute = _assoc_lowest_order(StarProduct(MCElement(beta)), 4)
            if brute is None:
                continue
            assert brute == chk.order
            rejected += 1
        assert rejected == 10


def test_criterion_3_moyal_reproduction():
    with Budget("3 Moyal reproduction", 5):
        R = param_algebra_truncate(["hbar"], 2)
        vcar = PolyvecCarrier(C2)
        P = poisson_from_mc(DGLAElement.single(vcar, R, 1, 1, vcar.term((0, 1), C2.one())))
        S = quantize_affine_order2(P)
        fe = lambda p: function_element(S.carrier, R, p)
        x, y = fe(C2.var("x")), fe(C2.var("y"))
        x2 = fe(C2.var("x") * C2.var("x"))
        y2 = fe(C2.var("y") * C2.var("y"))
        assert S.product(x, y).render() == "x*y + hbar * 1/2"
        assert S.product(y, x).render() == "x*y + hbar * (-1/2)"
        assert S.product(x2, y2).render() == "x^2*y^2 + hbar * 2*x*y + hbar^2 * 1/2"
        # independent associativity oracle confirms
        assert associativity_oracle(S, 4) == []


def test_criterion_4_gauge_recovery():
    with Budget("4 gauge recovery", 120):
        rng = random.Random(404)
        slot2 = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        slot1 = [(1, 0), (0, 1)]
        for n in range(20):
            order = 3 if n % 4 == 0 else 2
            singles = slot1 if order == 3 else slot2
            S = moyal_star(order)
            car = S.carrier
            R = S.algebra
            pay = car.zero()
            for _ in range(2):
                pay = car.add(
                    pay,
                    car.term((rng.choice(singles),), rand_poly(rng, C2, maxdeg=1)),
                )
            if car.is_zero(pay):
                pay = car.term(((2, 0) if order == 2 else (1, 0),), C2.one())
            gamma0 = DGLAElement(car, R, 0, {1: pay})
            S2, cert = star_gauge(gamma0, S)
            assert cert.holds
            rec = solve_gauge(S, S2)
            assert isinstance(rec, GaugeElement), f"pair {n}: {rec.render()}"
            S2b, cert2 = star_gauge(rec, S)
            assert cert2.holds and cert2.fixes_unit
            assert S2b.beta.element == S2.beta.element


def test_criterion_5_simplex_calculus():
    with Budget("5 simplex calculus", 30):
        rng = random.Random(505)
        for q in range(1, 5):
            top = SimplexForm(q, {frozenset(range(1, q + 1)): Poly.const(t_vars(q), 1)})
            assert simplex_integrate(top) == Fraction(1, math.factorial(q))
        # Dirichlet monomials vs iterated integration, |a| <= 4, q <= 3
        def iterated(exps):
            exps = list(exps)
            if not exps:
                return Fraction(1)
            aq, rest = exps[-1], exps[:-1]
            s = sum(rest) + len(rest)
            return iterated(rest) * Fraction(
                math.factorial(aq) * math.factorial(s), math.factorial(aq + s + 1)
            )
        for q in (1, 2, 3):
            for e in itertools.product(range(5), repeat=q):
                if sum(e) <= 4:
                    assert dirichlet_integral(e, q) == iterated(e)
        # Stokes on 100 seeded forms
        count = 0
        while count < 100:
            q = rng.choice((1, 2, 3))
            tv = t_vars(q)
            parts = {}
            for S in itertools.combinations(range(1, q + 1), q - 1):
                t = {}
                for _ in range(2):
                    e = tuple(rng.randint(0, 2) for _ in range(q))
                    t[e] = Fraction(rng.randint(-3, 3))
                parts[frozenset(S)] = Poly(tv, t)
            om = SimplexForm(q, parts)
            assert simplex_integrate(om.d()) == stokes_boundary_integral(om)
            count += 1


def _rand_cech(rng, nerve, R, level, deg, minorder=1, maxdeg=1):
    car = CechCarrier(nerve, "polyvec", level, 0)
    parts = {}
    for i in range(len(R.basis)):
        if R.basis_order(i) < minorder:
            continue
        comp = {}
        for f in nerve.level_faces(level):
            fcar = car.face_carriers[f]
            if deg == -1:
                pay = fcar.from_coeff(rand_poly(rng, fcar.chart, maxdeg))
            elif deg == 0:
                pay = fcar.vector_field(
                    {0: rand_poly(rng, fcar.chart, maxdeg), 1: rand_poly(rng, fcar.chart, maxdeg)}
                )
            else:
                pay = fcar.term((0, 1), rand_poly(rng, fcar.chart, maxdeg))
            if not fcar.is_zero(pay):
                comp[f] = pay
        if comp:
            parts[i] = comp
    return DGLAElement(car, R, deg, parts)


def _mc_ts(rng, nerve, R, H):
    car0 = CechCarrier(nerve, "polyvec", 0, 0)
    comp = {}
    for f in nerve.level_faces(0):
        fcar = car0.face_carriers[f]
        comp[f] = fcar.term((0, 1), fcar.chart.one())
    base = whitney(H, 0, DGLAElement(car0, R, 1, {1: comp}))
    g = whitney(H, 0, _rand_cech(rng, nerve, R, 0, 0)) + whitney(
        H, 1, _rand_cech(rng, nerve, R, 1, -1)
    )
    return gauge_act(g, base)


def test_criterion_6_square_zero_int():
    with Budget("6 square-zero int", 120):
        rng = random.Random(606)
        R1 = param_algebra_truncate(["hbar"], 1)
        for n in range(30):
            nerve = simplex_nerve(3 if n % 3 else 4)
            H = ts_normalize(nerve, "polyvec", R1)
            beta = _mc_ts(rng, nerve, R1, H)
            assert isinstance(mc_check(beta), MCElement)
            add = int_mc(H, beta)
            assert check_add(add).ok
            # the three integral formulas hold literally
            assert add.delta0 == _split_faces(integrate_component(H, beta, 0))
            assert add.delta1 == _split_faces(integrate_component(H, beta, 1))
            assert add.delta2 == _split_faces(integrate_component(H, beta, 2))


def _rand_transformation(rng, nerve, R, flavor="poisson", maxdeg=1):
    t = identity_transformation(nerve, flavor, R)
    for k in nerve.level_faces(0):
        car = face_carrier(nerve, flavor, k)
        pay = car.vector_field(
            {0: rand_poly(rng, car.chart, maxdeg), 1: rand_poly(rng, car.chart, maxdeg)}
        )
        if not car.is_zero(pay):
            t.eta[k] = DGLAElement(car, R, 0, {1: pay})
    for e in nerve.level_faces(1):
        car = face_carrier(nerve, flavor, e)
        pay = car.from_coeff(rand_poly(rng, car.chart, maxdeg))
        if not car.is_zero(pay):
            t.eps[e] = DGLAElement(car, R, -1, {1: pay})
    return t


def test_criterion_7_exp_functoriality():
    with Budget("7 exp functoriality", 180):
        rng = random.Random(707)
        from starcover import add_gauge

        for n in range(20):
            if n == 19:
                nerve = simplex_nerve(4)
            else:
                nerve = simplex_nerve(3)
            order = 3 if n == 18 else 2
            R = param_algebra_truncate(["hbar"], order)
            H = ts_normalize(nerve, "polyvec", R)
            add = int_mc(H, _mc_ts(rng, nerve, R, H))
            t = _rand_transformation(rng, nerve, R)
            add2 = add_gauge(t, add)
            assert check_add(add2).ok
            mdd1 = exp_add(add)    # exp_add validates check_mdd internally
            mdd2 = exp_add(add2)
            found = equiv_solve(mdd1, mdd2)
            assert isinstance(found, TwistedTransformation), f"pair {n}"
            out = mdd_gauge(found, mdd1)
            for k in nerve.level_faces(0):
                assert out.locals[k].element == mdd2.locals[k].element


def _octahedron_datum(R, cocycle):
    nerve = octahedron_nerve()
    locals_ = {
        k: require_mc(DGLAElement.zero(face_carrier(nerve, "associative", k), R, 1))
        for k in nerve.level_faces(0)
    }
    triples = {}
    for t in nerve.level_faces(2):
        coords = cocycle.get(t)
        if not coords or all(v == 0 for v in coords):
            continue
        car = face_carrier(nerve, "associative", t)
        triples[t] = DGLAElement.single(
            car, R, -1, 1, car.from_coeff(LocalizedPoly.const(car.chart, coords[0]))
        )
    return MultDescentDatum(nerve, "associative", R, locals_, {}, triples), nerve


def test_criterion_8_really_twisted():
    with Budget("8 really twisted", 60):
        rng = random.Random(808)
        R = param_algebra_truncate(["hbar"], 2)
        nerve_oct = octahedron_nerve()
        rep = cech_cohomology(nerve_oct).representative_cocycles(2)[0]
        datum, nerve = _octahedron_datum(R, rep)
        assert check_mdd(datum).ok
        ob = obstruction(datum)
        assert isinstance(ob, ObstructionReport)
        assert ob.order == 1 and ob.class_is_zero is False
        # coboundary replacement trivializes, with the transformation returned
        b0 = {f: [Fraction(rng.randint(-2, 2))] for f in nerve.level_faces(1)}
        db = {}
        for g in nerve.level_faces(2):
            val = Fraction(0)
            for drop in range(3):
                f = g[:drop] + g[drop + 1:]
                val += (-1) ** drop * b0.get(f, [Fraction(0)])[0]
            if val:
                db[g] = [val]
        datum2, _ = _octahedron_datum(R, db)
        tr = obstruction(datum2)
        assert isinstance(tr, TwistedTransformation)
        out = mdd_gauge(tr, datum2)
        assert all(v.is_zero() for v in out.edge_gauges.values())
        assert all(v.is_zero() for v in out.triple_units.values())
        # vanishing H^1 and H^2: 20 seeded data all trivialize
        nerve3 = simplex_nerve(3)
        assert cech_cohomology(nerve3).betti()[1:] == [0, 0]
        H = ts_normalize(nerve3, "polyvec", R)
        for n in range(20):
            mdd = exp_add(int_mc(H, _mc_ts(rng, nerve3, R, H)))
            datum_n = mdd_gauge(_rand_transformation(rng, nerve3, R), mdd)
            result = obstruction(datum_n)
            assert isinstance(result, TwistedTransformation), f"datum {n}"


def test_criterion_9_first_order_bracket():
    with Budget("9 first-order bracket", 30):
        rng = random.Random(909)
        S = moyal_star(2)
        base_table = first_order_bracket(S)
        singles = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        for n in range(20):
            car = S.carrier
            pay = car.term((rng.choice(singles),), rand_poly(rng, C2, maxdeg=1))
            if car.is_zero(pay):
                pay = car.term(((1, 1),), C2.one())
            gam = DGLAElement(car, S.algebra, 0, {1: pay})
            S2, cert = star_gauge(gam, S)
            assert cert.holds
            assert first_order_tables_equal(first_order_bracket(S2), base_table)
        # quantize_affine_order2 preserves the first-order bracket of its input
        R = param_algebra_truncate(["hbar"], 2)
        vcar = PolyvecCarrier(C3)
        P = poisson_from_mc(DGLAElement.single(vcar, R, 1, 1, so3_payload(vcar)))
        SQ = quantize_affine_order2(P)
        assert first_order_tables_equal(first_order_bracket(SQ), first_order_bracket(P))


def test_criterion_10_end_to_end():
    with Budget("10 end-to-end pipeline", 300):
        rng = random.Random(1010)
        nerve = simplex_nerve(3)
        R = param_algebra_truncate(["hbar"], 3)
        H = ts_normalize(nerve, "polyvec", R)
        beta = _mc_ts(rng, nerve, R, H)
        assert isinstance(mc_check(beta), MCElement)
        add = int_mc(H, beta)
        assert check_add(add).ok
        mdd = exp_add(add)
        assert check_mdd(mdd).ok
        # perturbing each single component at order hbar breaks exactly one
        # named condition at the minimal failing order
        h = R.gen("hbar")
        k = (0,)
        car_k = face_carrier(nerve, "poisson", k)
        pert0 = DGLAElement.single(
            car_k, R, 1, 1, car_k.term((0, 1), car_k.chart.var("x"))
        )
        bad0 = add.copy()
        bad0.delta0 = dict(bad0.delta0)
        bad0.delta0[k] = bad0.delta0[k] + pert0
        rep0 = check_add(bad0)
        assert not rep0.ok and rep0.minimal_conditions() == {"ii"}
        e = (0, 1)
        car_e = face_carrier(nerve, "poisson", e)
        pert1 = DGLAElement.single(
            car_e, R, 0, 1, car_e.vector_field({1: car_e.chart.var("x")})
        )
        bad1 = add.copy()
        bad1.delta1 = dict(bad1.delta1)
        base1 = bad1.delta1.get(e, DGLAElement.zero(car_e, R, 0))
        bad1.delta1[e] = base1 + pert1
        rep1 = check_add(bad1)
        assert not rep1.ok and rep1.minimal_conditions() == {"iii"}
        tr = (0, 1, 2)
        car_t = face_carrier(nerve, "poisson", tr)
        pert2 = DGLAElement.single(
            car_t, R, -1, 1, car_t.from_coeff(car_t.chart.var("x"))
        )
        bad2 = add.copy()
        bad2.delta2 = dict(bad2.delta2)
        base2 = bad2.delta2.get(tr, DGLAElement.zero(car_t, R, -1))
        bad2.delta2[tr] = base2 + pert2
        rep2 = check_add(bad2)
        assert not rep2.ok and rep2.minimal_conditions() == {"iii"}
