import itertools
import random
from fractions import Fraction

import pytest

from starcover import (
    AddDescentDatum,
    AlgebraError,
    CechCarrier,
    ChartAlgebra,
    DGLAElement,
    LocalizedPoly,
    MultDescentDatum,
    ObstructionReport,
    TwistedTransformation,
    add_gauge,
    cech_cohomology,
    check_add,
    check_mdd,
    equiv_solve,
    exp_add,
    gauge_act,
    int_mc,
    mc_check,
    mdd_gauge,
    obstruction,
    octahedron_nerve,
    param_algebra_truncate,
    require_mc,
    ts_normalize,
    whitney,
)
from starcover.descent import (
    compose_transformations,
    face_carrier,
    identity_transformation,
    datum_of_kind,
    invert_transformation,
)
from starcover.thomsullivan import integrate_component
from starcover.descent import _split_faces
from starcover.cechnerve import (
    CHART_CARRIERS,
    carrier_of_flavor,
    carrier_of_kind,
    transport_payload,
)
from starcover.dgla import MCCheckError
from starcover.formats import ExprContext, parse_element
from starcover.polydiff import PolydiffCarrier
from starcover.polyvec import PolyvecCarrier

from conftest import one_chart_zero_and_moyal, rand_poly, shear_nerve, simplex_nerve


def rand_cech(rng, nerve, R, level, deg, minorder=1, maxdeg=1):
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


def make_mc_ts(rng, nerve, R, H):
    car0 = CechCarrier(nerve, "polyvec", 0, 0)
    comp = {}
    for f in nerve.level_faces(0):
        fcar = car0.face_carriers[f]
        comp[f] = fcar.term((0, 1), fcar.chart.one())
    pi0 = DGLAElement(car0, R, 1, {1: comp})
    base = whitney(H, 0, pi0)
    g = whitney(H, 0, rand_cech(rng, nerve, R, 0, 0)) + whitney(
        H, 1, rand_cech(rng, nerve, R, 1, -1)
    )
    return gauge_act(g, base)


def rand_transformation(rng, nerve, R, flavor="poisson"):
    t = identity_transformation(nerve, flavor, R)
    for k in nerve.level_faces(0):
        car = face_carrier(nerve, flavor, k)
        pay = car.vector_field({0: rand_poly(rng, car.chart, 1), 1: rand_poly(rng, car.chart, 1)})
        if not car.is_zero(pay):
            t.eta[k] = DGLAElement(car, R, 0, {1: pay})
    for e in nerve.level_faces(1):
        car = face_carrier(nerve, flavor, e)
        pay = car.from_coeff(rand_poly(rng, car.chart, 1))
        if not car.is_zero(pay):
            t.eps[e] = DGLAElement(car, R, -1, {1: pay})
    return t


def octahedron_datum(c_scale=1, cocycle=None):
    nerve = octahedron_nerve()
    R = param_algebra_truncate(["hbar"], 2)
    if cocycle is None:
        cocycle = cech_cohomology(nerve).representative_cocycles(2)[0]
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
            car, R, -1, 1,
            car.from_coeff(LocalizedPoly.const(car.chart, coords[0] * c_scale)),
        )
    return MultDescentDatum(nerve, "associative", R, locals_, {}, triples), nerve, R


def test_trivial_datum_passes():
    nerve = simplex_nerve(3)
    R = param_algebra_truncate(["hbar"], 2)
    car0 = face_carrier(nerve, "poisson", (0,))
    beta = DGLAElement.single(car0, R, 1, 1, car0.term((0, 1), car0.chart.one()))
    datum = MultDescentDatum.from_components(
        nerve, "poisson", R, {k: beta for k in nerve.level_faces(0)}, {}, {}
    )
    assert check_mdd(datum).ok


def test_618_datum_passes_and_noncocycle_fails():
    datum, nerve, R = octahedron_datum()
    assert check_mdd(datum).ok
    # a non-cocycle on a nerve with tetrahedra fails (iii) at the named tuple
    n4faces = [f for r in range(1, 5) for f in itertools.combinations(range(4), r)]
    from starcover import constant_nerve

    n4 = constant_nerve(["U0", "U1", "U2", "U3"], n4faces)
    locals4 = {
        k: require_mc(DGLAElement.zero(face_carrier(n4, "associative", k), R, 1))
        for k in n4.level_faces(0)
    }
    car = face_carrier(n4, "associative", (0, 1, 2))
    triples = {
        (0, 1, 2): DGLAElement.single(
            car, R, -1, 1, car.from_coeff(LocalizedPoly.const(car.chart, 1))
        )
    }
    bad = MultDescentDatum(n4, "associative", R, locals4, {}, triples)
    rep = check_mdd(bad)
    assert not rep.ok
    first = rep.first()
    assert first.condition == "iii" and first.face == (0, 1, 2, 3)


def test_check_add_named_violations(rng):
    nerve = simplex_nerve(3)
    R = param_algebra_truncate(["hbar"], 3)
    H = ts_normalize(nerve, "polyvec", R)
    add = int_mc(H, make_mc_ts(rng, nerve, R, H))
    assert check_add(add).ok
    # zero datum passes
    zero = AddDescentDatum(nerve, "poisson", R, {}, {}, {})
    assert check_add(zero).ok
    # perturb delta0 on one chart at order hbar: condition (ii) breaks first
    bad0 = add.copy()
    k = (0,)
    car = face_carrier(nerve, "poisson", k)
    pert = DGLAElement.single(car, R, 1, 1, car.term((0, 1), car.chart.var("x")))
    bad0.delta0 = dict(bad0.delta0)
    bad0.delta0[k] = bad0.delta0[k] + pert
    rep0 = check_add(bad0)
    assert not rep0.ok and rep0.minimal_conditions() == {"ii"}
    # perturb delta1 on one edge: (iii) breaks first (d = 0 for polyvec)
    bad1 = add.copy()
    e = (0, 1)
    care = face_carrier(nerve, "poisson", e)
    pert1 = DGLAElement.single(care, R, 0, 1, care.vector_field({0: care.chart.var("y")}))
    bad1.delta1 = dict(bad1.delta1)
    bad1.delta1[e] = bad1.delta1.get(e, DGLAElement.zero(care, R, 0)) + pert1
    rep1 = check_add(bad1)
    assert not rep1.ok and rep1.minimal_conditions() == {"iii"}


def test_exp_add_examples(rng):
    nerve = simplex_nerve(3)
    R = param_algebra_truncate(["hbar"], 2)
    zero = AddDescentDatum(nerve, "poisson", R, {}, {}, {})
    mdd = exp_add(zero)
    assert check_mdd(mdd).ok
    H = ts_normalize(nerve, "polyvec", R)
    add = int_mc(H, make_mc_ts(rng, nerve, R, H))
    mdd2 = exp_add(add)
    assert check_mdd(mdd2).ok


def test_square_zero_central_datum_is_618():
    # delta2 = hbar c with square-zero parameters passes check_add iff c is a
    # 2-cocycle; on the octahedron every 2-cochain is one (no tetrahedra),
    # and on the full 3-simplex only cocycles pass
    nerve = octahedron_nerve()
    R1 = param_algebra_truncate(["hbar"], 1)
    cocycle = cech_cohomology(nerve).representative_cocycles(2)[0]
    delta2 = {}
    for t in nerve.level_faces(2):
        coords = cocycle.get(t)
        if not coords or coords[0] == 0:
            continue
        car = face_carrier(nerve, "associative", t)
        delta2[t] = DGLAElement.single(
            car, R1, -1, 1, car.from_coeff(LocalizedPoly.const(car.chart, coords[0]))
        )
    add = AddDescentDatum(nerve, "associative", R1, {}, {}, delta2)
    assert check_add(add).ok
    mdd = exp_add(add)
    assert check_mdd(mdd).ok


def test_gauge_round_trips(rng):
    nerve = simplex_nerve(3)
    R = param_algebra_truncate(["hbar"], 2)
    H = ts_normalize(nerve, "polyvec", R)
    add = int_mc(H, make_mc_ts(rng, nerve, R, H))
    t = rand_transformation(rng, nerve, R)
    add2 = add_gauge(t, add)
    assert check_add(add2).ok
    tinv = invert_transformation(t, nerve, "poisson", R)
    back = add_gauge(tinv, add2)
    for k in nerve.level_faces(0):
        assert back.delta0.get(k, None) == add.delta0.get(k, None)
    for e in nerve.level_faces(1):
        a = back.delta1.get(e)
        b = add.delta1.get(e)
        za = a if a is not None else DGLAElement.zero(face_carrier(nerve, "poisson", e), R, 0)
        zb = b if b is not None else DGLAElement.zero(face_carrier(nerve, "poisson", e), R, 0)
        assert za == zb
    for tr in nerve.level_faces(2):
        a = back.delta2.get(tr)
        b = add.delta2.get(tr)
        za = a if a is not None else DGLAElement.zero(face_carrier(nerve, "poisson", tr), R, -1)
        zb = b if b is not None else DGLAElement.zero(face_carrier(nerve, "poisson", tr), R, -1)
        assert za == zb
    # compositions act like sequential application on the mdd side
    mdd = exp_add(add)
    t2 = rand_transformation(rng, nerve, R)
    seq = mdd_gauge(t2, mdd_gauge(t, mdd))
    comp = mdd_gauge(compose_transformations(t2, t, mdd), mdd)
    for k in nerve.level_faces(0):
        assert seq.locals[k].element == comp.locals[k].element
    for e in nerve.level_faces(1):
        assert seq.edge_gauges[e] == comp.edge_gauges[e]
    for tr in nerve.level_faces(2):
        assert seq.triple_units[tr] == comp.triple_units[tr]


def test_equiv_solve_identity_and_round_trip(rng):
    nerve = simplex_nerve(3)
    R = param_algebra_truncate(["hbar"], 2)
    H = ts_normalize(nerve, "polyvec", R)
    mdd = exp_add(int_mc(H, make_mc_ts(rng, nerve, R, H)))
    t0 = equiv_solve(mdd, mdd)
    assert isinstance(t0, TwistedTransformation)
    assert all(v.is_zero() for v in t0.eta.values())
    t = rand_transformation(rng, nerve, R)
    mdd2 = mdd_gauge(t, mdd)
    assert check_mdd(mdd2).ok
    found = equiv_solve(mdd, mdd2)
    assert isinstance(found, TwistedTransformation)
    assert {f: v.render() for f, v in found.eta.items()} == {
        (0,): "hbar * 3*dx + hbar^2 * (-5*dx + dy)",
        (1,): "hbar * ((3*y + 2)*dx + (-2*y + 3)*dy) + hbar^2 * (-4*dx + dy)",
        (2,): "hbar * ((2*x - 2*y)*dy)",
    }
    assert {f: v.render() for f, v in found.eps.items()} == {
        (0, 1): "hbar * 1",
        (0, 2): "0",
        (1, 2): "0",
    }
    out = mdd_gauge(found, mdd)
    for k in nerve.level_faces(0):
        assert out.locals[k].element == mdd2.locals[k].element


@pytest.mark.parametrize("n", [2, 3])
def test_pipeline_through_sheared_restrictions(rng, n):
    # restrictions y -> y + c*x^2: transport acts on coefficients and on
    # derivations in every step from int_mc to equiv_solve
    nerve = shear_nerve(n)
    R = param_algebra_truncate(["hbar"], 2)
    H = ts_normalize(nerve, "polyvec", R)
    add = int_mc(H, make_mc_ts(rng, nerve, R, H))
    target_add = add_gauge(rand_transformation(rng, nerve, R), add)
    source, target = exp_add(add), exp_add(target_add)
    assert check_mdd(source).ok and check_mdd(target).ok
    found = equiv_solve(source, target)
    assert isinstance(found, TwistedTransformation)
    out = mdd_gauge(found, source)
    for k in nerve.level_faces(0):
        assert out.locals[k].element == target.locals[k].element


def test_int_mc_square_zero_formulas(rng):
    nerve = simplex_nerve(3)
    R1 = param_algebra_truncate(["hbar"], 1)
    H1 = ts_normalize(nerve, "polyvec", R1)
    beta = make_mc_ts(rng, nerve, R1, H1)
    add = int_mc(H1, beta)
    assert check_add(add).ok
    d0, d1, d2 = (_split_faces(integrate_component(H1, beta, level)) for level in range(3))
    assert add.delta0 == d0 and add.delta1 == d1 and add.delta2 == d2


def test_int_mc_order3_pipeline(rng):
    nerve = simplex_nerve(3)
    R = param_algebra_truncate(["hbar"], 3)
    H = ts_normalize(nerve, "polyvec", R)
    beta = make_mc_ts(rng, nerve, R, H)
    add = int_mc(H, beta)
    assert check_add(add).ok
    mdd = exp_add(add)
    assert check_mdd(mdd).ok


def test_int_mc_gauge_compatibility(rng):
    # gauge-equivalent MC TS elements produce equiv_solve-equivalent ADDs
    nerve = simplex_nerve(3)
    R = param_algebra_truncate(["hbar"], 2)
    H = ts_normalize(nerve, "polyvec", R)
    beta = make_mc_ts(rng, nerve, R, H)
    g = whitney(H, 0, rand_cech(rng, nerve, R, 0, 0)) + whitney(
        H, 1, rand_cech(rng, nerve, R, 1, -1)
    )
    beta2 = gauge_act(g, beta)
    add1 = int_mc(H, beta)
    add2 = int_mc(H, beta2)
    found = equiv_solve(add1, add2)
    assert isinstance(found, TwistedTransformation)


def test_obstruction_undecided_when_only_locals_fail():
    # one chart, zero local against the Moyal star of dx^dy: there is no
    # triangle, so no Cech class decides the failure; the local residue does
    nerve, R, zero, moyal = one_chart_zero_and_moyal()
    source, target = (
        AddDescentDatum(nerve, "associative", R, {(0,): local}, {}, {}) for local in (zero, moyal)
    )
    report = equiv_solve(source, target)
    assert isinstance(report, ObstructionReport)
    assert report.order == 1 and report.class_is_zero is None and report.cocycle == {}
    assert report.local_residues[(0,)].render() == (
        "hbar * (1/2*d[0,1]⊗d[1,0] - 1/2*d[1,0]⊗d[0,1])"
    )
    assert report.render() == (
        "obstruction at adic order 1 (class undecided); layer 2-cocycle: {}; "
        "first unsolvable central layer; no triangle defect, nonzero local residue on U0"
    )


def test_obstruction_618_and_coboundary(rng):
    datum, nerve, R = octahedron_datum()
    ob = obstruction(datum)
    assert isinstance(ob, ObstructionReport)
    assert ob.order == 1 and ob.class_is_zero is False
    # equiv against the trivial datum reports the class [c] hbar
    triv = MultDescentDatum(nerve, "associative", R, dict(datum.locals), {}, {})
    ob2 = equiv_solve(datum, triv)
    assert isinstance(ob2, ObstructionReport)
    assert ob2.order == 1 and ob2.class_is_zero is False
    # a coboundary instead of c trivializes, with the transformation returned
    cx = cech_cohomology(nerve)
    b0 = {f: [Fraction(rng.randint(-2, 2))] for f in nerve.level_faces(1)}
    db = {}
    for g in nerve.level_faces(2):
        val = Fraction(0)
        for drop in range(3):
            f = g[:drop] + g[drop + 1:]
            val += (-1) ** drop * b0.get(f, [Fraction(0)])[0]
        if val:
            db[g] = [val]
    datum2, _, _ = octahedron_datum(cocycle=db)
    tr = obstruction(datum2)
    assert isinstance(tr, TwistedTransformation)
    out = mdd_gauge(tr, datum2)
    assert all(v.is_zero() for v in out.edge_gauges.values())
    assert all(v.is_zero() for v in out.triple_units.values())


def test_obstruction_class_is_gauge_invariant(rng):
    datum, nerve, R = octahedron_datum()
    t = identity_transformation(nerve, "associative", R)
    # an associative-flavor transformation over constant charts: eps only
    for e in nerve.level_faces(1):
        car = face_carrier(nerve, "associative", e)
        val = Fraction(rng.randint(-2, 2))
        if val:
            t.eps[e] = DGLAElement.single(
                car, R, -1, 1, car.from_coeff(LocalizedPoly.const(car.chart, val))
            )
    datum2 = mdd_gauge(t, datum)
    assert check_mdd(datum2).ok
    ob1 = obstruction(datum)
    ob2 = obstruction(datum2)
    assert isinstance(ob1, ObstructionReport) and isinstance(ob2, ObstructionReport)
    assert ob1.order == ob2.order == 1
    # literal class equality: the difference of the two layer cocycles bounds
    cx = cech_cohomology(nerve)
    diff = {}
    for tr in nerve.level_faces(2):
        v1 = _const_coeff(ob1, tr)
        v2 = _const_coeff(ob2, tr)
        if v1 - v2:
            diff[tr] = [v1 - v2]
    assert cx.coboundary_solve(2, diff) is not None


def _const_coeff(report, face):
    text = report.cocycle.get(face)
    if text is None:
        return Fraction(0)
    # rendered as 'hbar * q' or 'hbar * (q)'
    inner = text.split("*", 1)[1].strip()
    if inner.startswith("("):
        inner = inner[1:-1]
    return Fraction(inner)


def test_equiv_on_localized_charts_rejected():
    # non-degree-preserving localized mode has no finite coefficient layer
    from starcover import ChartAlgebra as CA, Poly as P, RestrictionMap, build_nerve
    from starcover import NerveError

    C0 = CA(("x",))
    C1 = CA(("y",))
    C01 = CA(("x",), (P.var(("x",), "x"),))
    inv_x = LocalizedPoly(C01, P.const(("x",), 1), (1,))
    nerve = build_nerve(
        ["U0", "U1"],
        {(0,): C0, (1,): C1, (0, 1): C01},
        {
            ((0,), (0, 1)): RestrictionMap.build(C0, C01, [C01.var("x")]),
            ((1,), (0, 1)): RestrictionMap.build(C1, C01, [inv_x]),
        },
    )
    R = param_algebra_truncate(["hbar"], 2)
    locals_ = {
        k: require_mc(DGLAElement.zero(face_carrier(nerve, "poisson", k), R, 1))
        for k in nerve.level_faces(0)
    }
    car_e = face_carrier(nerve, "poisson", (0, 1))
    edges = {
        (0, 1): DGLAElement.single(
            car_e, R, 0, 1, car_e.vector_field({0: car_e.chart.var("x")})
        )
    }
    datum = MultDescentDatum(nerve, "poisson", R, locals_, edges, {})
    triv = MultDescentDatum(nerve, "poisson", R, dict(locals_), {}, {})
    with pytest.raises(NerveError):
        equiv_solve(datum, triv)


def test_vanishing_cohomology_always_trivializes(rng):
    # full-simplex nerve: H^1 = H^2 = 0 for the constant layer; every datum
    # gauge-built over it trivializes
    nerve = simplex_nerve(3)
    R = param_algebra_truncate(["hbar"], 2)
    cx = cech_cohomology(nerve)
    assert cx.betti()[1:] == [0, 0]
    H = ts_normalize(nerve, "polyvec", R)
    for _ in range(3):
        base_beta = make_mc_ts(rng, nerve, R, H)
        add = int_mc(H, base_beta)
        mdd = exp_add(add)
        t = rand_transformation(rng, nerve, R)
        datum = mdd_gauge(t, mdd)
        result = obstruction(datum)
        assert isinstance(result, TwistedTransformation)


def test_flavor_table_maps_both_ways_and_rejects_unknown_names():
    assert CHART_CARRIERS == (PolyvecCarrier, PolydiffCarrier)
    for flavor, kind, cls in (
        ("associative", "polydiff", PolydiffCarrier),
        ("poisson", "polyvec", PolyvecCarrier),
    ):
        assert carrier_of_flavor(flavor) is cls and carrier_of_kind(kind) is cls
        assert (cls.flavor, cls.kind) == (flavor, kind)
    with pytest.raises(AlgebraError, match="unknown flavor"):
        carrier_of_flavor("polyvec")
    with pytest.raises(AlgebraError, match="unknown carrier kind"):
        carrier_of_kind("poisson")


@pytest.mark.parametrize("name", ["lie", "polydiff", "polyvec"])
def test_face_carrier_rejects_a_name_that_is_no_flavour(name):
    with pytest.raises(AlgebraError, match="unknown flavor"):
        face_carrier(octahedron_nerve(), name, (0,))


_KIND_ENTRIES = {
    "CechCarrier": lambda nerve, name: CechCarrier(nerve, name, 0),
    "ts_normalize": lambda nerve, name: ts_normalize(
        nerve, name, param_algebra_truncate(["hbar"], 1)
    ),
    "transport_payload": lambda nerve, name: transport_payload(nerve, name, (1,), (0, 1), {}),
    "ExprContext.carrier": lambda nerve, name: ExprContext(
        param_algebra_truncate(["hbar"], 1), nerve.algebra((0,)), name
    ).carrier(),
}


@pytest.mark.parametrize("name", ["lie", "poisson", "associative"])
@pytest.mark.parametrize("entry", sorted(_KIND_ENTRIES))
@pytest.mark.parametrize("nerve", [simplex_nerve(2), shear_nerve(2)], ids=["identity", "shear"])
def test_kind_entries_reject_a_name_that_is_no_kind(entry, name, nerve):
    """On both an identity and a non-identity restriction: along the
    identity, transport returns the payload without reading it."""
    with pytest.raises(AlgebraError, match="unknown carrier kind"):
        _KIND_ENTRIES[entry](nerve, name)


def test_check_mdd_poisson_compares_operators_beyond_constants():
    """A lone edge gauge x*d/dy on a 3-chart cover with zero locals passes
    every additive condition, and fails (ii) on the triangle only as an
    operator on non-constant functions: 1 is fixed by every gauge."""
    nerve = simplex_nerve(3)
    R = param_algebra_truncate(["hbar"], 1)
    locals_ = {
        k: require_mc(DGLAElement.zero(face_carrier(nerve, "poisson", k), R, 1))
        for k in nerve.level_faces(0)
    }
    car = face_carrier(nerve, "poisson", (0, 1))
    g = DGLAElement.single(car, R, 0, 1, car.vector_field({1: car.chart.var("x")}))
    datum = MultDescentDatum(nerve, "poisson", R, locals_, {(0, 1): g}, {})
    rep = check_mdd(datum)
    assert [(v.condition, v.face) for v in rep.violations] == [("ii", (0, 1, 2))]
    assert check_mdd(datum, 0).ok


@pytest.mark.parametrize("degree", [-1, 0, 1])
@pytest.mark.parametrize("flavor", ["poisson", "associative"])
def test_datum_at_reads_the_component_or_zero_moved_to_the_larger_face(flavor, degree):
    # shear_nerve(3) restricts U1 to U0,U1 by y -> y - x^2, which moves
    # every payload below
    nerve = shear_nerve(3)
    R = param_algebra_truncate(["hbar"], 2)
    datum = AddDescentDatum(nerve, flavor, R, {}, {}, {})
    f, g = (1,), (0, 1)
    car, gcar = face_carrier(nerve, flavor, f), face_carrier(nerve, flavor, g)
    y = car.chart.var("y")
    keys = [()] if degree == -1 else list(car.window_keys(degree, 1))
    payload = {key: y for key in keys}
    elt = DGLAElement(car, R, degree, {1: payload})
    moved = transport_payload(nerve, car.kind, f, g, payload)
    assert moved != payload
    assert datum.at({f: elt}, f, degree) is elt
    assert datum.at({f: elt}, f, degree, g) == DGLAElement(gcar, R, degree, {1: moved})
    assert datum.at({}, f, degree) == DGLAElement.zero(car, R, degree)
    zero = datum.at({}, f, degree, g)
    assert (zero.carrier, zero.degree, zero.parts) == (gcar, degree, {})


@pytest.mark.parametrize("kind", ["mdd", "add"])
def test_datum_components_round_trip_and_absent_locals_read_zero(kind):
    cls = datum_of_kind(kind)
    nerve = shear_nerve(3)
    _, R, zero, moyal = one_chart_zero_and_moyal(2)

    def elt(face, text):
        return parse_element(ExprContext(R, nerve.algebra(face), "polydiff"), text)

    edges = {(0, 1): elt((0, 1), "hbar * x*d[0,1]"), (1, 2): elt((1, 2), "hbar^2 * d[1,0]")}
    triples = {(0, 1, 2): elt((0, 1, 2), "hbar^2 * y")}
    full = cls.from_components(nerve, "associative", R, {(0,): moyal, (1,): zero, (2,): moyal}, edges, triples)
    assert full.components() == ({(0,): moyal, (1,): zero, (2,): moyal}, edges, triples)
    assert cls.from_components(full.nerve, full.flavor, full.algebra, *full.components()) == full
    # an absent chart local reads as the zero of degree 1 on its chart
    sparse = cls.from_components(nerve, "associative", R, {(0,): moyal}, edges, triples)
    loc = sparse.components()[0]
    assert list(loc) == [(0,), (1,), (2,)]
    assert loc[(0,)] == moyal
    assert loc[(1,)] == loc[(2,)] == DGLAElement.zero(face_carrier(nerve, "associative", (2,)), R, 1)
    # d[1,0] (x) d[0,1] is a Hochschild cocycle whose square is not zero at hbar^2
    bad = {(0,): elt((0,), "hbar * d[1,0]⊗d[0,1]")}
    if kind == "mdd":
        with pytest.raises(MCCheckError):
            cls.from_components(nerve, "associative", R, bad, {}, {})
    else:  # additive logs are checked by check_add, not on construction
        assert cls.from_components(nerve, "associative", R, bad, {}, {}).delta0 == bad
