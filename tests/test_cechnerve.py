import itertools
import random
from fractions import Fraction

import pytest

from starcover import (
    ChartAlgebra,
    CechCarrier,
    DGLAElement,
    LocalizedPoly,
    NerveError,
    Poly,
    PolyvecCarrier,
    Refinement,
    RestrictionMap,
    build_nerve,
    cech_cohomology,
    constant_nerve,
    octahedron_nerve,
    param_algebra_truncate,
)
from starcover.cechnerve import (
    CechComplex,
    _transport_polydiff,
    _transport_polyvec,
    extend_chart,
    identity_refinement,
    push_payload,
    transport_payload,
)
from starcover.polydiff import PolydiffCarrier

from conftest import (
    rand_poly,
    rand_polydiff_payload,
    rand_polyvec_payload,
    shear_nerve,
    simplex_nerve,
)


def cech_face_map(element: DGLAElement, alpha, target_level: int) -> DGLAElement:
    """g(alpha): level p -> level q for order-preserving alpha: [p] -> [q],
    applied to every payload by push_payload."""
    car = element.carrier
    if not isinstance(car, CechCarrier):
        raise NerveError("cech_face_map expects a Cech element")
    p = car.level
    q = target_level
    alpha = tuple(alpha)
    if len(alpha) != p + 1 or any(alpha[i] > alpha[i + 1] for i in range(p)):
        raise NerveError("alpha must be order-preserving [p] -> [q]")
    out_car = CechCarrier(car.nerve, car.kind, q, car.tdim)
    return element.map_payload(
        lambda x: push_payload(car.nerve, car.kind, alpha, q, x, car.tdim), carrier=out_car
    )


def two_chart_line():
    """U0 = Spec Q[x], U1 = Spec Q[y], glued along x = 1/y."""
    C0 = ChartAlgebra(("x",))
    C1 = ChartAlgebra(("y",))
    C01 = ChartAlgebra(("x",), (Poly.var(("x",), "x"),))
    rm0 = RestrictionMap.build(C0, C01, [C01.var("x")])
    inv_x = LocalizedPoly(C01, Poly.const(("x",), 1), (1,))
    rm1 = RestrictionMap.build(C1, C01, [inv_x])
    return build_nerve(
        ["U0", "U1"],
        {(0,): C0, (1,): C1, (0, 1): C01},
        {((0,), (0, 1)): rm0, ((1,), (0, 1)): rm1},
    )


def test_two_chart_line_builds():
    nerve = two_chart_line()
    assert nerve.level_faces(1) == [(0, 1)]


def test_derived_derivation_images():
    nerve = two_chart_line()
    rm = nerve.restriction((1,), (0, 1))
    car = PolyvecCarrier(nerve.algebra((0, 1)))
    # d/dy pushes to -x^2 d/dx under y -> 1/x
    want = car.vector_field({0: LocalizedPoly(
        nerve.algebra((0, 1)), Poly.var(("x",), "x") * Poly.var(("x",), "x")
    ).scale(-1)})
    assert car.eq(rm.deriv_images[0], want)


def test_vector_field_transport_quotient_rule():
    nerve = two_chart_line()
    C1 = nerve.algebra((1,))
    car1 = PolyvecCarrier(C1)
    ydy = car1.vector_field({0: C1.var("y")})
    out = transport_payload(nerve, "polyvec", (1,), (0, 1), ydy)
    tgt = PolyvecCarrier(nerve.algebra((0, 1)))
    want = tgt.vector_field({0: nerve.algebra((0, 1)).var("x").scale(-1)})
    assert tgt.eq(out, want)


def test_polydiff_transport_chain_rule():
    # second derivative transports with the chain rule through x -> 1/y
    nerve = two_chart_line()
    from starcover.polydiff import PolydiffCarrier

    C0 = nerve.algebra((0,))
    src = PolydiffCarrier(C0)
    op = src.term(((2,),), C0.one())  # d^2/dx^2 as a 1-slot cochain
    out = transport_payload(nerve, "polydiff", (0,), (0, 1), op)
    # on U01 with coordinate x this is still d^2/dx^2
    tgt = PolydiffCarrier(nerve.algebra((0, 1)))
    assert tgt.eq(out, tgt.term(((2,),), nerve.algebra((0, 1)).one()))
    # and the transport of d/dy from U1 composes with itself correctly:
    # (y d/dy)^2-style checks happen through face-map functoriality below
    C1 = nerve.algebra((1,))
    src1 = PolydiffCarrier(C1)
    op1 = src1.term(((2,),), C1.one())  # d^2/dy^2
    out1 = transport_payload(nerve, "polydiff", (1,), (0, 1), op1)
    # apply both to the image of y^2 (= 1/x^2) and compare with the direct
    # derivative: d^2/dy^2 (y^2) = 2 -> image must be the constant 2
    chart01 = nerve.algebra((0, 1))
    img_y2 = LocalizedPoly(chart01, Poly.const(("x",), 1), (2,))
    val = tgt.evaluate(out1, [img_y2])
    assert val == LocalizedPoly.const(chart01, 2)


def test_broken_functoriality_rejected():
    # three charts with an inconsistent composite: x -> x on one path,
    # x -> 2x on the other
    C = ChartAlgebra(("x",))
    charts = {
        (0,): C, (1,): C, (2,): C,
        (0, 1): C, (0, 2): C, (1, 2): C, (0, 1, 2): C,
    }
    def ident(f, g):
        return RestrictionMap.build(charts[f], charts[g], [charts[g].var("x")])
    rms = {}
    for f in charts:
        for g in charts:
            if len(g) == len(f) + 1 and set(f) <= set(g):
                rms[(f, g)] = ident(f, g)
    rms[((0, 1), (0, 1, 2))] = RestrictionMap.build(
        C, C, [C.var("x").scale(2)], [PolyvecCarrier(C).vector_field({0: LocalizedPoly.const(C, Fraction(1, 2))})]
    )
    with pytest.raises(NerveError) as exc:
        build_nerve(["U0", "U1", "U2"], charts, rms)
    assert "functoriality" in str(exc.value)


def test_missing_restriction_rejected():
    C = ChartAlgebra(("x",))
    charts = {(0,): C, (1,): C, (0, 1): C}
    rms = {((0,), (0, 1)): RestrictionMap.identity_like(C, C)}
    with pytest.raises(NerveError):
        build_nerve(["U0", "U1"], charts, rms)


def test_cech_dgla_levelwise(rng):
    nerve = simplex_nerve(3)
    R = param_algebra_truncate(["hbar"], 2)
    car1 = CechCarrier(nerve, "polyvec", 1)
    # build a random level-1 element and check the inherited axioms
    def rand_level(deg):
        parts = {}
        for i in range(len(R.basis)):
            comp = {}
            for f in nerve.level_faces(1):
                fcar = car1.face_carriers[f]
                pay = fcar.vector_field({0: rand_poly(rng, fcar.chart)}) if deg == 0 else fcar.term((0, 1), rand_poly(rng, fcar.chart))
                if not fcar.is_zero(pay):
                    comp[f] = pay
            if comp and rng.random() < 0.8:
                parts[i] = comp
        return DGLAElement(car1, R, deg, parts)
    X, Y = rand_level(0), rand_level(0)
    assert (X.bracket(Y) + Y.bracket(X)).is_zero()
    assert X.d().d().is_zero()


def test_cech_face_map_restriction():
    R = param_algebra_truncate(["hbar"], 1)
    # two-chart line: x dx restricted along the vertex-0 inclusion into the edge
    nerve2 = two_chart_line()
    car = CechCarrier(nerve2, "polyvec", 0, 0)
    f0 = car.face_carriers[(0,)]
    xdx = f0.vector_field({0: nerve2.algebra((0,)).var("x")})
    elt2 = DGLAElement(car, R, 0, {1: {(0,): xdx}})
    out2 = cech_face_map(elt2, (0,), 1)
    tgt = CechCarrier(nerve2, "polyvec", 1, 0).face_carriers[(0, 1)]
    want = tgt.vector_field({0: nerve2.algebra((0, 1)).var("x")})
    assert tgt.eq(out2.parts[1][(0, 1)], want)
    # the vertex-1 inclusion transports through the y -> 1/x gluing instead
    elt3 = DGLAElement(
        car, R, 0,
        {1: {(1,): car.face_carriers[(1,)].vector_field(
            {0: nerve2.algebra((1,)).var("y")}
        )}},
    )
    out3 = cech_face_map(elt3, (1,), 1)
    want3 = tgt.vector_field({0: nerve2.algebra((0, 1)).var("x").scale(-1)})
    assert tgt.eq(out3.parts[1][(0, 1)], want3)


def _definite_sections(nerve, R, level=0):
    car = CechCarrier(nerve, "polyvec", level, 0)
    parts = {}
    for i in range(len(R.basis)):
        comp = {}
        for n, f in enumerate(nerve.level_faces(level)):
            fcar = car.face_carriers[f]
            coeff = fcar.chart.one().scale(n + 1 + i) + fcar.chart.var("x")
            comp[f] = fcar.vector_field({0: coeff})
        parts[i] = comp
    return DGLAElement(car, R, 0, parts)


def test_refinement_identity_and_doubling():
    nerve = simplex_nerve(2)
    R = param_algebra_truncate(["hbar"], 2)
    elt = _definite_sections(nerve, R)
    ident = identity_refinement(nerve)
    assert ident.pull_sections(elt) == elt
    # doubling a chart index duplicates components
    fine = simplex_nerve(3)
    rho = (0, 0, 1)
    maps = {}
    for f in fine.faces:
        sup = tuple(sorted({rho[i] for i in f}))
        maps[f] = RestrictionMap.identity_like(nerve.algebra(sup), fine.algebra(f))
    ref = Refinement(fine, nerve, rho, maps)
    pulled = ref.pull_sections(elt)
    fcar0 = CechCarrier(fine, "polyvec", 0, 0).face_carriers[(0,)]
    for i, comp in elt.parts.items():
        assert fcar0.eq(pulled.parts[i][(0,)], comp[(0,)])
        assert fcar0.eq(pulled.parts[i][(1,)], comp[(0,)])
        assert fcar0.eq(pulled.parts[i][(2,)], comp[(1,)])


def test_concatenation_refinements_commute():
    # Remark-9.8-style comparison: both covers refine into the concatenation
    # K | K' by order-preserving inclusions, and pulling sections back
    # commutes with the cosimplicial face maps
    R = param_algebra_truncate(["hbar"], 1)
    nerveW = simplex_nerve(4)  # the concatenation of two 2-chart covers
    elt = _definite_sections(nerveW, R)
    for rho in ((0, 1), (2, 3)):
        nerveU = simplex_nerve(2)
        maps = {}
        for f in nerveU.faces:
            sup = tuple(sorted({rho[i] for i in f}))
            maps[f] = RestrictionMap.identity_like(nerveW.algebra(sup), nerveU.algebra(f))
        ref = Refinement(nerveU, nerveW, rho, maps)
        pulled = ref.pull_sections(elt)
        lhs = cech_face_map(pulled, (0,), 1)
        rhs = ref.pull_sections(cech_face_map(elt, (0,), 1))
        assert lhs == rhs


def test_octahedron_cohomology(monkeypatch):
    nerve = octahedron_nerve()
    cx = cech_cohomology(nerve)
    assert cx.betti() == [1, 0, 1]
    # the representatives need delta^2 and delta^1 only
    built = []
    original = CechComplex.delta_system
    monkeypatch.setattr(
        CechComplex, "delta_system", lambda self, p: built.append(p) or original(self, p)
    )
    reps = cx.representative_cocycles(2)
    assert sorted(built) == [1, 2]
    assert reps == [{(0, 2, 4): [Fraction(1)]}]
    assert cx.coboundary_solve(2, reps[0]) is None


def test_representative_cocycles_span_cohomology():
    # two disjoint triangle boundaries: b1 = 2, and the edges (0,1) and (0,2)
    # are cohomologous, so they cannot both stand for a class
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    nerve = constant_nerve([f"U{i}" for i in range(6)], [(i,) for i in range(6)] + edges)
    cx = cech_cohomology(nerve)
    assert cx.betti()[1] == 2
    reps = cx.representative_cocycles(1)
    assert len(reps) == 2
    # independent in H^1: appended to delta^0 they raise its rank by two
    system = cx.delta_system(0)
    for j, z in enumerate(reps):
        system.add_column(j)
        for f, coords in z.items():
            system.add((f, 0), j, coords[0])
    assert system.solve().rank == cx.delta_system(0).solve().rank + 2


def test_one_chart_cohomology():
    nerve = constant_nerve(["U0"], [(0,)])
    assert cech_cohomology(nerve).betti() == [1]


def test_coboundary_round_trip(rng):
    nerve = octahedron_nerve()
    cx = cech_cohomology(nerve)
    b0 = {f: [Fraction(rng.randint(-3, 3))] for f in nerve.level_faces(1)}
    db = {}
    for g in nerve.level_faces(2):
        val = Fraction(0)
        for drop in range(3):
            f = g[:drop] + g[drop + 1:]
            val += (-1) ** drop * b0.get(f, [Fraction(0)])[0]
        if val:
            db[g] = [val]
    sol = cx.coboundary_solve(2, db)
    assert sol is not None
    # verify delta(sol) == db
    for g in nerve.level_faces(2):
        val = Fraction(0)
        for drop in range(3):
            f = g[:drop] + g[drop + 1:]
            val += (-1) ** drop * sol.get(f, [Fraction(0)])[0]
        assert val == db.get(g, [Fraction(0)])[0]


@pytest.mark.parametrize("make", [octahedron_nerve, lambda: simplex_nerve(4)], ids=["octahedron", "simplex4"])
def test_cofaces_are_the_coboundary_faces_and_signs(make):
    nerve = make()
    for p in range(nerve.max_level() + 1):
        for f in nerve.level_faces(p):
            # every present face one level up that contains f, with the sign
            # (-1)^(number of indices of f below the one it adds)
            expected = [
                (g, (-1) ** sum(i < x for i in f))
                for g in nerve.level_faces(p + 1)
                if set(f) < set(g)
                for x in set(g) - set(f)
            ]
            assert nerve.cofaces(f) == expected
    # delta o delta = 0: the two paths from f to h of codimension 2 cancel
    pairs = 0
    for p in range(nerve.max_level() - 1):
        for f in nerve.level_faces(p):
            for h in nerve.level_faces(p + 2):
                if set(f) < set(h):
                    paths = [s * t for g, s in nerve.cofaces(f) for k, t in nerve.cofaces(g) if k == h]
                    assert len(paths) == 2 and sum(paths) == 0
                    pairs += 1
    assert pairs


def test_polynomial_layer_cohomology():
    # full-simplex nerve with polynomial coefficients: contractible, so only
    # H^0 survives and it has the dimension of the truncated layer
    nerve = simplex_nerve(3, chart_vars=("x",))
    cx = cech_cohomology(nerve, degree_bound=2)
    betti = cx.betti()
    assert betti[0] == 3  # 1, x, x^2
    assert all(b == 0 for b in betti[1:])


def test_localized_layer_rejected():
    nerve = two_chart_line()
    with pytest.raises(NerveError):
        cech_cohomology(nerve, degree_bound=2)


def test_non_order_preserving_refinement_rejected():
    nerve = simplex_nerve(2)
    maps = {f: RestrictionMap.identity_like(nerve.algebra(f), nerve.algebra(f)) for f in nerve.faces}
    with pytest.raises(NerveError):
        Refinement(nerve, nerve, (1, 0), maps)


def test_octahedron_betti_against_independent_rank_oracle():
    # independent route: assemble the simplicial coboundary matrices of the
    # octahedron complex from scratch and compute ranks with the raw solver
    from starcover import solve_linear
    from starcover.cechnerve import OCTAHEDRON_TRIANGLES

    verts = list(range(6))
    edges = sorted({e for t in OCTAHEDRON_TRIANGLES for e in itertools.combinations(t, 2)})
    tris = sorted(OCTAHEDRON_TRIANGLES)

    def delta_matrix(cells, faces_of):
        rows = []
        for cell in cells:
            row = {}
            for i, (sub, sign) in enumerate(faces_of(cell)):
                row[sub] = sign
            rows.append(row)
        return rows

    d0 = [[Fraction(0)] * len(verts) for _ in edges]
    for r, (a, b) in enumerate(edges):
        d0[r][a] = Fraction(-1)
        d0[r][b] = Fraction(1)
    d1 = [[Fraction(0)] * len(edges) for _ in tris]
    eidx = {e: i for i, e in enumerate(edges)}
    for r, t in enumerate(tris):
        for drop in range(3):
            sub = t[:drop] + t[drop + 1:]
            d1[r][eidx[sub]] = Fraction((-1) ** drop)
    def rank(m):
        if not m:
            return 0
        res = solve_linear(m, [Fraction(0)] * len(m))
        return len(m[0]) - len(res.kernel)
    r0, r1 = rank(d0), rank(d1)
    betti = [len(verts) - r0, len(edges) - r0 - r1, len(tris) - r1]
    assert betti == [1, 0, 1]
    assert cech_cohomology(octahedron_nerve()).betti() == betti


# ---------------------------------------------------------------------------
# transport along the identity, against the general route
# ---------------------------------------------------------------------------


def _general_route(rm, kind, payload, tdim):
    """Transport by substitution and pushforward, whatever the map: the
    oracle for the identity shortcut of RestrictionMap.transport."""
    ext = rm.extended(tdim) if tdim else rm
    if kind == "polyvec":
        return _transport_polyvec(ext, payload)
    src = PolydiffCarrier(ext.source, range(len(rm.source.variables)))
    tgt = PolydiffCarrier(ext.target, range(len(rm.target.variables)))
    return _transport_polydiff(ext, payload, src, tgt)


def _ordered(payload):
    """A payload as a list, so that key order and term order both count."""
    return [(k, list(v.numer.terms.items()), v.powers) for k, v in payload.items()]


def _seeded_payload(rng, kind, chart, tdim, degree):
    """A payload over ``chart`` with ``tdim`` simplex coordinates and at
    least two terms; with a declared denominator, some coefficients carry
    it."""
    ext = extend_chart(chart, tdim)
    deriv = range(len(chart.variables))
    while True:
        if kind == "polyvec":
            car = PolyvecCarrier(ext, deriv)
            pay = rand_polyvec_payload(rng, car, degree)
        else:
            car = PolydiffCarrier(ext, deriv)
            pay = rand_polydiff_payload(rng, car, degree)
        if ext.denominators:
            pay = {k: LocalizedPoly(ext, v.numer, (rng.randint(0, 2),)) for k, v in pay.items()}
        if sum(len(v.numer.terms) for v in pay.values()) >= 2:
            return pay


# payload degrees with a nonzero payload on a two-variable chart
_DEGREES = {"polyvec": (0, 1), "polydiff": (0, 1, 2)}


def _localized(chart):
    """The chart with its first variable declared invertible."""
    return ChartAlgebra(chart.variables, (Poly.var(chart.variables, chart.variables[0]),))


def _identity_maps():
    C = ChartAlgebra(("x", "y"))
    shear = shear_nerve(3)
    maps = [
        RestrictionMap.identity_like(C, C),
        RestrictionMap.identity_like(_localized(C), _localized(C)),
        simplex_nerve(3).restriction((1,), (0, 1, 2)),
    ]
    maps += [
        shear.restriction(f, g)
        for f in sorted(shear.faces) for g in sorted(shear.faces)
        if f != g and set(f) <= set(g) and f[0] == g[0]
    ]
    return maps


@pytest.mark.parametrize("tdim", [0, 2])
@pytest.mark.parametrize("kind", ["polyvec", "polydiff"])
def test_identity_transport_matches_the_general_route(kind, tdim):
    rng = random.Random(f"identity-{kind}-{tdim}")
    for rm in _identity_maps():
        assert rm.is_identity()
        for degree in _DEGREES[kind]:
            pay = _seeded_payload(rng, kind, rm.source, tdim, degree)
            out = rm.transport(kind, pay, tdim)
            assert _ordered(out) == _ordered(_general_route(rm, kind, pay, tdim))
            assert out is not pay


@pytest.mark.parametrize("tdim", [0, 1])
@pytest.mark.parametrize("kind", ["polyvec", "polydiff"])
def test_shear_transport_takes_the_general_route(kind, tdim):
    nerve = shear_nerve(3)
    rng = random.Random(f"shear-{kind}-{tdim}")
    moved = 0
    for f in sorted(nerve.faces):
        for g in sorted(nerve.faces):
            if f == g or not set(f) <= set(g) or f[0] == g[0]:
                continue
            rm = nerve.restriction(f, g)
            for degree in _DEGREES[kind]:
                pay = _seeded_payload(rng, kind, rm.source, tdim, degree)
                out = transport_payload(nerve, kind, f, g, pay, tdim)
                assert _ordered(out) == _ordered(_general_route(rm, kind, pay, tdim))
                moved += _ordered(out) != _ordered(pay)
    assert moved


def test_is_identity_truth_table():
    C = ChartAlgebra(("x", "y"))
    assert RestrictionMap.identity_like(C, C).is_identity()
    const = constant_nerve(["U0", "U1"], [(0,), (1,), (0, 1)])
    assert const.restriction((0,), (0, 1)).is_identity()
    # shear maps move y by (g[0] - f[0]) x^2: the identity exactly when that is 0
    shear = shear_nerve(3)
    seen = set()
    for f in shear.faces:
        for g in shear.faces:
            if f != g and set(f) <= set(g):
                rm = shear.restriction(f, g)
                assert rm.is_identity() == (f[0] == g[0])
                seen.add(rm.is_identity())
    assert seen == {True, False}
    # into a more localized chart: equal images, but not the same chart
    assert not RestrictionMap.identity_like(C, _localized(C)).is_identity()
    # a translation moves a variable but pushes each derivation to itself
    shift = RestrictionMap.build(C, C, [C.var("x") + C.one(), C.var("y")])
    assert shift.deriv_images == RestrictionMap.identity_like(C, C).deriv_images
    assert not shift.is_identity()
    # the chain rule ties derivations to variables only on validated maps;
    # the constructor alone takes any derivation images
    car = PolyvecCarrier(C)
    doubled = RestrictionMap(
        C, C, (C.var("x"), C.var("y")),
        (car.vector_field({0: C.one().scale(2)}), car.vector_field({1: C.one()})),
    )
    assert not doubled.is_identity()
    line = two_chart_line()
    assert not line.restriction((0,), (0, 1)).is_identity()
    assert not line.restriction((1,), (0, 1)).is_identity()  # y -> 1/x


def test_is_identity_leaves_equality_alone():
    C = ChartAlgebra(("x", "y"))
    a, b = RestrictionMap.identity_like(C, C), RestrictionMap.identity_like(C, C)
    assert a.is_identity()
    assert a == b  # b has not decided it yet


def test_trivial_restriction_is_cached():
    nerve = shear_nerve(2)
    rm = nerve.restriction((0,), (0,))
    assert rm.is_identity()
    assert nerve.restriction((0,), (0,)) is rm
    assert nerve.restriction([0], [0]) is rm


def _refinement_of_shear():
    """shear_nerve(2) refined by doubling chart U0: fine face f restricts
    from its coarse support by y -> y + (f[-1] - f[0] + len(f) - 1) x^2, so
    some face maps are the identity and some are not."""
    coarse, fine, rho = shear_nerve(2), shear_nerve(3), (0, 0, 1)
    maps = {}
    for f in fine.faces:
        sup = tuple(sorted({rho[i] for i in f}))
        src, tgt = coarse.algebra(sup), fine.algebra(f)
        x, y = tgt.var("x"), tgt.var("y")
        shift = LocalizedPoly.const(tgt, f[-1] - f[0] + len(f) - 1) * x * x
        maps[f] = RestrictionMap.build(src, tgt, [x, y + shift])
    return Refinement(fine, coarse, rho, maps)


@pytest.mark.parametrize("tdim", [0, 1])
@pytest.mark.parametrize("kind", ["polyvec", "polydiff"])
def test_pull_sections_transports_each_component(kind, tdim):
    rng = random.Random(f"pull-{kind}-{tdim}")
    R = param_algebra_truncate(["hbar"], 2)
    real = _refinement_of_shear()
    assert {rm.is_identity() for rm in real.face_maps.values()} == {True, False}
    for ref in (identity_refinement(real.coarse), real):
        for level in range(real.coarse.max_level() + 1):
            car = CechCarrier(ref.coarse, kind, level, tdim)
            parts = {
                i: {
                    f: _seeded_payload(rng, kind, ref.coarse.algebra(f), tdim, 1)
                    for f in ref.coarse.level_faces(level)
                }
                for i in range(len(R.basis))
            }
            pulled = ref.pull_sections(DGLAElement(car, R, 1, parts))
            assert pulled.carrier == CechCarrier(ref.fine, kind, level, tdim)
            for i, comp in parts.items():
                want = []
                for tau in ref.fine.level_faces(level):
                    sup = ref.coarse_support(tau)
                    if sup in comp:
                        v = _general_route(ref.face_maps[tau], kind, comp[sup], tdim)
                        if v:
                            want.append((tau, _ordered(v)))
                got = [(tau, _ordered(v)) for tau, v in pulled.parts.get(i, {}).items()]
                assert got == want
