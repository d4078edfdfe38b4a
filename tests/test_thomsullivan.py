import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from starcover import (
    CechCarrier,
    DGLAElement,
    LocalizedPoly,
    MCElement,
    gauge_act,
    mc_check,
    param_algebra_truncate,
    ts_normalize,
    validate_compatibility,
    whitney,
)
from starcover.cechnerve import extend_chart, transport_payload
from starcover.exactalg import ChartAlgebra, Poly
from starcover.polyvec import PolyvecCarrier
from starcover.simplex import SimplexForm, coface, face_pullback, t_vars
from starcover.thomsullivan import (
    TSCarrier,
    TSError,
    _pullback_component,
    integrate_component,
)

from conftest import (
    codegeneracy,
    rand_poly,
    rand_polydiff_payload,
    rand_polyvec_payload,
    shear_nerve,
    simplex_nerve,
)


@pytest.fixture
def setup(rng):
    nerve = simplex_nerve(3)
    R = param_algebra_truncate(["hbar"], 2)
    H = ts_normalize(nerve, "polyvec", R)
    return nerve, R, H


def rand_cech(rng, nerve, R, level, deg, minorder=1):
    car = CechCarrier(nerve, "polyvec", level, 0)
    parts = {}
    for i in range(len(R.basis)):
        if R.basis_order(i) < minorder:
            continue
        comp = {}
        for f in nerve.level_faces(level):
            fcar = car.face_carriers[f]
            if deg == -1:
                pay = fcar.from_coeff(rand_poly(rng, fcar.chart, maxdeg=1))
            elif deg == 0:
                pay = fcar.vector_field(
                    {0: rand_poly(rng, fcar.chart, maxdeg=1), 1: rand_poly(rng, fcar.chart, maxdeg=1)}
                )
            else:
                pay = fcar.term((0, 1), rand_poly(rng, fcar.chart, maxdeg=1))
            if not fcar.is_zero(pay):
                comp[f] = pay
        if comp:
            parts[i] = comp
    return DGLAElement(car, R, deg, parts)


def constant_moyal_ts(nerve, R, H):
    car0 = CechCarrier(nerve, "polyvec", 0, 0)
    comp = {}
    for f in nerve.level_faces(0):
        fcar = car0.face_carriers[f]
        comp[f] = fcar.term((0, 1), fcar.chart.one())
    pi0 = DGLAElement(car0, R, 1, {1: comp})
    return whitney(H, 0, pi0)


def test_whitney_elements_are_compatible(rng, setup):
    nerve, R, H = setup
    for q, deg in ((0, 0), (1, -1), (1, 0), (2, -1)):
        elt = whitney(H, q, rand_cech(rng, nerve, R, q, deg))
        validate_compatibility(elt)


def test_ts_is_a_dgla(rng, setup):
    # the dt-wedge sign of TSCarrier.d and .bracket on both kinds: polyvector
    # inputs, then polydifferential ones
    nerve, R, H = setup
    A = whitney(H, 0, rand_cech(rng, nerve, R, 0, 0)) + whitney(
        H, 1, rand_cech(rng, nerve, R, 1, -1)
    )
    B = whitney(H, 1, rand_cech(rng, nerve, R, 1, 0))
    C = whitney(H, 2, rand_cech(rng, nerve, R, 2, -1))
    _check_dgla_identities(A, B, C)
    D = ts_normalize(nerve, "polydiff", R)
    A = whitney(D, 0, rand_cochain(rng, nerve, R, "polydiff", 0, 0, 1)) + whitney(
        D, 1, rand_cochain(rng, nerve, R, "polydiff", 1, -1, 1)
    )
    B = whitney(D, 1, rand_cochain(rng, nerve, R, "polydiff", 1, 0, 1))
    C = whitney(D, 2, rand_cochain(rng, nerve, R, "polydiff", 2, -1, 1))
    _check_dgla_identities(A, B, C)


def _check_dgla_identities(A, B, C):
    """d o d, antisymmetry, Jacobi and Leibniz, for A of total degree 0 and
    B, C of total degree 1."""
    sgn = lambda a, b: (-1) ** (a * b)
    assert A.d().d().is_zero()
    assert B.d().d().is_zero()
    assert (A.bracket(B) + B.bracket(A).scale(sgn(0, 1))).is_zero()
    jac = A.bracket(B.bracket(C)) - A.bracket(B).bracket(C) - B.bracket(
        A.bracket(C)
    ).scale(sgn(0, 1))
    assert jac.is_zero()
    leib = A.bracket(B).d() - A.d().bracket(B) - A.bracket(B.d())
    assert leib.is_zero()


def test_constant_element_mc(setup):
    nerve, R, H = setup
    beta = constant_moyal_ts(nerve, R, H)
    validate_compatibility(beta)
    assert isinstance(mc_check(beta), MCElement)
    # level-0 part is the constant bivector; edge and triangle integrals vanish
    assert not integrate_component(H, beta, 0).is_zero()
    assert integrate_component(H, beta, 1).is_zero()
    assert integrate_component(H, beta, 2).is_zero()


def test_gauged_mc_elements(rng, setup):
    nerve, R, H = setup
    beta = constant_moyal_ts(nerve, R, H)
    for _ in range(3):
        g = whitney(H, 0, rand_cech(rng, nerve, R, 0, 0)) + whitney(
            H, 1, rand_cech(rng, nerve, R, 1, -1)
        )
        beta2 = gauge_act(g, beta)
        validate_compatibility(beta2)
        assert isinstance(mc_check(beta2), MCElement)


def test_compatibility_violation_detected(rng, setup):
    nerve, R, H = setup
    beta = gauge_act(
        whitney(H, 1, rand_cech(rng, nerve, R, 1, -1)), constant_moyal_ts(nerve, R, H)
    )
    # perturb a single face component of some stored level
    parts = {i: dict(p) for i, p in beta.parts.items()}
    i0 = next(iter(parts))
    key0 = next(k for k in parts[i0] if k[0] >= 1)
    comp = dict(parts[i0][key0])
    f0 = next(iter(comp))
    pay = dict(comp[f0])
    k0 = next(iter(pay))
    from starcover import LocalizedPoly

    pay[k0] = pay[k0] + LocalizedPoly.const(pay[k0].chart, 1)
    comp[f0] = pay
    parts[i0][key0] = comp
    bad = DGLAElement(beta.carrier, R, beta.degree, parts)
    with pytest.raises(TSError):
        validate_compatibility(bad)


def test_whitney_edge_integral():
    # a pure edge 1-form cochain integrates back to its cochain: the Whitney
    # form of an edge has integral 1 over that edge
    nerve = simplex_nerve(2)
    R = param_algebra_truncate(["hbar"], 1)
    H = ts_normalize(nerve, "polyvec", R)
    car1 = CechCarrier(nerve, "polyvec", 1, 0)
    fcar = car1.face_carriers[(0, 1)]
    val = fcar.from_coeff(fcar.chart.var("x"))
    cochain = DGLAElement(car1, R, -1, {1: {(0, 1): val}})
    elt = whitney(H, 1, cochain)
    validate_compatibility(elt)
    back = integrate_component(H, elt, 1)
    assert back == cochain


SIMPLEX_MAPS = [
    (f"coface{i}-{q}", coface(i, q), q - 1, q) for q in range(1, 4) for i in range(q + 1)
] + [
    (f"codegeneracy{i}-{q}", codegeneracy(i, q), q + 1, q) for q in range(4) for i in range(q + 1)
]


@pytest.mark.parametrize(
    "alpha, p, q", [m[1:] for m in SIMPLEX_MAPS], ids=[m[0] for m in SIMPLEX_MAPS]
)
def test_pullback_matches_face_pullback(alpha, p, q):
    # oracle: simplex.face_pullback of the same form, for a coefficient in
    # t alone, every dt-set of Delta^q, over a chart with its own variable x
    rng = random.Random(f"pullback:{alpha}")
    chart = ChartAlgebra(("x",))
    fcar = PolyvecCarrier(extend_chart(chart, p), (0,))
    target = extend_chart(chart, q)
    tv = t_vars(q)
    exponents = [e for e in itertools.product(range(3), repeat=q) if sum(e) <= 2]
    for r in range(q + 1):
        for S in map(frozenset, itertools.combinations(range(1, q + 1), r)):
            f = Poly(tv, {e: Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2)))
                          for e in exponents})
            lifted = {(0,) + e: c for e, c in f.terms.items()}
            coeff = LocalizedPoly(target, Poly(target.variables, lifted))
            pulled = _pullback_component(fcar, {(): coeff}, S, alpha, p, q)
            want = face_pullback(SimplexForm(q, {S: f}), alpha, p)
            assert set(pulled) == set(want.parts)
            for S_src, g in want.parts.items():
                assert list(pulled[S_src]) == [()]
                got = pulled[S_src][()]
                assert not any(got.powers)
                assert got.numer.terms == {(0,) + e: c for e, c in g.terms.items()}


# ---------------------------------------------------------------------------
# the codegeneracy spot check: validate_compatibility's docstring proves it
# implied by the coface conditions; kept here as the oracle of that proof
# ---------------------------------------------------------------------------


def _forced_value(element: DGLAElement, bi: int, w: tuple, target_levels: int):
    """The codegeneracy-forced value of the bundle at a (possibly degenerate)
    weakly increasing tuple w, as forms on Delta^{len(w)-1} over the chart of
    support(w): pull the stored support-level component back along the
    canonical collapse."""
    car: TSCarrier = element.carrier
    support = tuple(sorted(set(w)))
    k = len(support) - 1
    pos = {v: i for i, v in enumerate(support)}
    sigma = tuple(pos[v] for v in w)
    p = len(w) - 1
    fcar = _face_carrier(car.nerve, car.kind, support, p)
    payload = element.parts.get(bi, {})
    out: dict[frozenset, dict] = {}
    for (l, S), comp in payload.items():
        if l != k:
            continue
        data = comp.get(support)
        if data is None:
            continue
        pulled = _pullback_component(fcar, data, S, sigma, p, k)
        for S_src, pdata in pulled.items():
            out[S_src] = fcar.add(out[S_src], pdata) if S_src in out else pdata
    return support, {S: d for S, d in out.items() if d}


@lru_cache(maxsize=None)
def _face_carrier(nerve, kind, face, tdim):
    """The carrier of ``face`` over its chart extended by t_1..t_tdim."""
    return CechCarrier(nerve, kind, len(face) - 1, tdim).face_carriers[face]


def _spot_check_top(element: DGLAElement) -> None:
    """Reconstruct the forced components one level above the top on all
    degenerate tuples and verify the coface conditions into them: the forced
    value at w restricted along each coface must match the forced value of
    the sub-tuple, transported to the larger support."""
    car: TSCarrier = element.carrier
    nerve = car.nerve
    kind = car.kind
    L = car.levels
    q = L + 1
    labels = range(len(nerve.indices))
    for bi in element.parts:
        for w in itertools.combinations_with_replacement(labels, q + 1):
            sup_w = tuple(sorted(set(w)))
            if sup_w not in nerve.faces:
                continue
            sup, forced_w = _forced_value(element, bi, w, L)
            fcar = _face_carrier(nerve, kind, sup, q - 1)
            for i in range(q + 1):
                delta = tuple(j if j < i else j + 1 for j in range(q))
                # rhs: pull the forced value at w back along delta_i
                rhs: dict[frozenset, dict] = {}
                for S, data in forced_w.items():
                    pulled = _pullback_component(fcar, data, S, delta, q - 1, q)
                    for S2, pd in pulled.items():
                        rhs[S2] = fcar.add(rhs[S2], pd) if S2 in rhs else pd
                # lhs: forced value of the sub-tuple, moved to sup's chart
                v = tuple(w[a] for a in delta)
                sup_v, forced_v = _forced_value(element, bi, v, L)
                lhs: dict[frozenset, dict] = {}
                for S, data in forced_v.items():
                    moved = transport_payload(nerve, kind, sup_v, sup, data, tdim=q - 1)
                    if moved:
                        lhs[S] = moved
                for S in set(lhs) | set(rhs):
                    if not fcar.eq(lhs.get(S, {}), rhs.get(S, {})):
                        raise TSError(
                            f"codegeneracy propagation fails at tuple {w}, "
                            f"coface {i}"
                        )


def full_check(element):
    """The coface conditions followed by the codegeneracy spot check."""
    validate_compatibility(element)
    _spot_check_top(element)


def rejects(check, element) -> bool:
    try:
        check(element)
    except TSError:
        return True
    return False


NERVES = {
    "simplex3": lambda: simplex_nerve(3),
    "simplex4": lambda: simplex_nerve(4),
    "shear3": lambda: shear_nerve(3),
    "shear4": lambda: shear_nerve(4),
}
CASES = [(kind, name) for kind in ("polyvec", "polydiff") for name in NERVES]


def rand_cochain(rng, nerve, R, kind, level, degree, maxdeg):
    car = CechCarrier(nerve, kind, level, 0)
    parts = {}
    for i in range(1, len(R.basis)):
        comp = {}
        for f in nerve.level_faces(level):
            fcar = car.face_carriers[f]
            if kind == "polyvec":
                pay = rand_polyvec_payload(rng, fcar, degree, maxdeg)
            else:
                pay = rand_polydiff_payload(rng, fcar, degree, max_slot=1, maxdeg=maxdeg)
            if not fcar.is_zero(pay):
                comp[f] = pay
        if comp:
            parts[i] = comp
    return DGLAElement(car, R, degree, parts)


@lru_cache(maxsize=None)
def compatible_element(kind, nerve_name, seed):
    """Whitney images at levels 0-2 moved by a Whitney-built gauge: a
    compatible degree-1 element whose t-dependence goes beyond Whitney
    forms.  Coefficients on 4-chart nerves are constant, which keeps the
    spot check affordable."""
    nerve = NERVES[nerve_name]()
    maxdeg = 1 if len(nerve.indices) == 3 else 0
    rng = random.Random(seed)
    R = param_algebra_truncate(["hbar"], 2)
    H = ts_normalize(nerve, kind, R)
    beta = H.zero(1)
    for q in range(3):
        beta = beta + whitney(H, q, rand_cochain(rng, nerve, R, kind, q, 1 - q, maxdeg))
    gauge = whitney(H, 0, rand_cochain(rng, nerve, R, kind, 0, 0, maxdeg)) + whitney(
        H, 1, rand_cochain(rng, nerve, R, kind, 1, -1, maxdeg)
    )
    return gauge_act(gauge, beta)


def perturb(element, level, pick, how, c):
    """Add c (how "shift") or c times the bubble t0*t1*...*t_level, which
    vanishes on every face of the simplex (how "bubble"), to one stored
    coefficient at ``level``."""
    entries = sorted(
        ((bi, sorted(S), face, repr(pkey)), (bi, (l, S), face, pkey))
        for bi, payload in element.parts.items()
        for (l, S), comp in payload.items()
        if l == level
        for face, data in comp.items()
        for pkey in data
    )
    bi, key, face, pkey = entries[pick % len(entries)][1]
    parts = {b: dict(p) for b, p in element.parts.items()}
    comp = parts[bi][key] = dict(parts[bi][key])
    data = comp[face] = dict(comp[face])
    bump = LocalizedPoly.const(data[pkey].chart, c)
    if how == "bubble":
        t0 = data[pkey].chart.one()
        for i in range(1, level + 1):
            t = data[pkey].chart.var(f"t{i}")
            t0, bump = t0 - t, bump * t
        bump = bump * t0
    data[pkey] = data[pkey] + bump
    if data[pkey].is_zero():
        del data[pkey]
    return DGLAElement(element.carrier, element.algebra, element.degree, parts)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(CASES),
    st.integers(0, 2),
    st.sampled_from(("shift", "bubble")),
    st.booleans(),
    st.integers(1, 3),
    st.integers(0, 10**6),
    st.sampled_from((-2, -1, 1, 2)),
)
@example(("polyvec", "shear4"), 0, "bubble", True, 1, 0, 1)
@example(("polydiff", "simplex4"), 1, "bubble", True, 1, 5, -1)
@example(("polydiff", "shear3"), 0, "shift", False, 2, 0, 1)
def test_coface_check_alone_gives_the_full_verdict(case, seed, how, on_top, depth, pick, c):
    # single-entry perturbations of seeded compatible elements: the spot
    # check never rejects what the coface conditions accept
    element = compatible_element(*case, seed)
    top = element.carrier.levels
    level = top if on_top else max(top - depth, 0)
    perturbed = perturb(element, level, pick, how, c)
    accepted = not rejects(validate_compatibility, perturbed)
    assert accepted == (not rejects(full_check, perturbed))
    # a bubble on the top level is invisible to every coface
    if how == "bubble" and level == top:
        assert accepted


@pytest.mark.parametrize("kind", ["polyvec", "polydiff"])
def test_level_zero_integral_is_the_level_zero_component(kind):
    # Delta^0 is a point, so integrating over it reads the (level 0, empty
    # dt-set) component, nonconstant coefficients and all
    beta = compatible_element(kind, "shear3", 19)
    nerve = beta.carrier.nerve
    key = (0, frozenset())
    expected = DGLAElement(
        CechCarrier(nerve, kind, 0, 0), beta.algebra, beta.degree,
        {bi: payload[key] for bi, payload in beta.parts.items() if key in payload},
    )
    assert any(
        not c.numer.is_constant()
        for comp in expected.parts.values() for pay in comp.values() for c in pay.values()
    )
    assert integrate_component(ts_normalize(nerve, kind, beta.algebra), beta, 0) == expected
