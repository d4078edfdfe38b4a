import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from starcover import (
    AlgebraError,
    ChartAlgebra,
    DGLAElement,
    LInftyMorphism,
    MCElement,
    MCViolation,
    PolydiffCarrier,
    PolyvecCarrier,
    bch,
    bch_many,
    gauge_act,
    gauge_structure,
    hkr,
    linfty_apply,
    mc_check,
    param_algebra_truncate,
    poisson_from_mc,
    require_mc,
    star_from_mc,
    twisted_bracket,
    twisted_d,
)
from starcover.dgla import (
    bch_dleft,
    bch_dright,
    bch_word_coefficients,
    exp_series,
    function_element,
    gauge_operator,
)
from starcover.polydiff import _moyal_exponential, apply_cochain

from conftest import rand_element

C3 = ChartAlgebra(("x", "y", "z"))
C2 = ChartAlgebra(("x", "y"))


def so3_beta(R):
    car = PolyvecCarrier(C3)
    vx, vy, vz = (C3.var(n) for n in ("x", "y", "z"))
    pi = car.add(
        car.add(car.term((1, 2), vx), car.term((0, 2), vy.scale(-1))),
        car.term((0, 1), vz),
    )
    return DGLAElement.single(car, R, 1, 1, pi)


def test_d_zero_on_polyvec(rng):
    R = param_algebra_truncate(["hbar"], 3)
    car = PolyvecCarrier(C3)
    for deg in (-1, 0, 1, 2):
        x = rand_element(rng, car, R, deg)
        assert x.d().is_zero()


def test_d_of_derivation_vanishes():
    R = param_algebra_truncate(["hbar"], 2)
    car = PolydiffCarrier(C2)
    xdx = DGLAElement.single(car, R, 0, 0, car.term(((1, 0),), C2.var("x")))
    assert xdx.d().is_zero()


def test_d_of_tensor_matches_alternating_sum_oracle(rng):
    # d(phi) evaluated on monomial triples equals the shifted Hochschild
    # alternating sum computed pointwise; dx (x) dx is a cocycle, while
    # x dx (x) dy is not
    R = param_algebra_truncate(["hbar"], 1)
    car = PolydiffCarrier(C2)
    for phi_pay in (
        car.term(((1, 0), (1, 0)), C2.one()),
        car.term(((2, 0), (0, 1)), C2.var("x")),
    ):
        phi = DGLAElement.single(car, R, 1, 0, phi_pay)
        dpay = phi.d().parts.get(0, car.zero())

        def phi_eval(a, b):
            return car.evaluate(phi_pay, [a, b])

        def oracle(a, b, c):
            # d = [mu0, -] equals (-1)^p times the classical alternating sum
            s = (
                a * phi_eval(b, c)
                - phi_eval(a * b, c)
                + phi_eval(a, b * c)
                - phi_eval(a, b) * c
            )
            return s.scale(-1)

        monos = C2.monomials_up_to(2)
        seen_nonzero = False
        for a in monos:
            for b in monos:
                for c in monos:
                    got = car.evaluate(dpay, [a, b, c])
                    assert got == oracle(a, b, c)
                    if not got.is_zero():
                        seen_nonzero = True
        if not car.eq(phi_pay, car.term(((1, 0), (1, 0)), C2.one())):
            assert seen_nonzero


def test_bracket_axioms_even_degree_self():
    R = param_algebra_truncate(["hbar"], 2)
    car = PolyvecCarrier(C3)
    x = DGLAElement.single(car, R, 0, 1, car.vector_field({0: C3.var("y")}))
    assert x.bracket(x).is_zero()


def test_commutator_on_vector_fields():
    R = param_algebra_truncate(["hbar"], 2)
    car = PolyvecCarrier(C3)
    dx = DGLAElement.single(car, R, 0, 0, car.vector_field({0: C3.one()}))
    xdx = DGLAElement.single(car, R, 0, 0, car.vector_field({0: C3.var("x")}))
    assert dx.bracket(xdx) == dx


def test_bracket_with_an_empty_operand_is_zero():
    R = param_algebra_truncate(["hbar"], 2)
    car = PolydiffCarrier(C2)
    x = DGLAElement.single(car, R, 1, 1, car.term(((1, 0), (0, 1)), C2.var("x")))
    pairs = [
        (x, DGLAElement.zero(car, R, 0)),
        (DGLAElement.zero(car, R, 2), x),
        (DGLAElement.zero(car, R, 1), DGLAElement.zero(car, R, -1)),
    ]
    for a, b in pairs:
        z = a.bracket(b)
        assert z.is_zero() and z.degree == a.degree + b.degree
        assert z.carrier == car and z.algebra == R
    # the degree bound and the operand checks hold for empty operands too
    f = function_element(car, R, C2.var("y"), 1)
    for a, b in ((f, DGLAElement.zero(car, R, -1)), (DGLAElement.zero(car, R, -1), f)):
        with pytest.raises(AlgebraError, match="below quantum-type bound"):
            a.bracket(b)
    with pytest.raises(AlgebraError, match="different carriers"):
        x.bracket(DGLAElement.zero(PolyvecCarrier(C2), R, 0))
    with pytest.raises(AlgebraError, match="different parameter algebras"):
        DGLAElement.zero(car, R, 0).bracket(DGLAElement.zero(car, param_algebra_truncate(["hbar"], 3), 0))


def test_mc_examples():
    R = param_algebra_truncate(["hbar"], 3)
    car = PolyvecCarrier(C2)
    moyal = DGLAElement.single(car, R, 1, 1, car.term((0, 1), C2.one()))
    assert isinstance(mc_check(moyal), MCElement)
    assert isinstance(mc_check(DGLAElement.zero(car, R, 1)), MCElement)
    assert isinstance(mc_check(so3_beta(R)), MCElement)


def test_mc_violation_localized():
    R = param_algebra_truncate(["hbar"], 3)
    car = PolydiffCarrier(C2)
    # x dx (x) dy is a cocycle (cup product of derivations): first failure at
    # order 2 through the self-bracket
    bad = DGLAElement.single(car, R, 1, 1, car.term(((1, 0), (0, 1)), C2.var("x")))
    out = mc_check(bad)
    assert isinstance(out, MCViolation)
    assert out.order in (1, 2)
    # slot order two breaks the differential already at order 1
    bad1 = DGLAElement.single(car, R, 1, 1, car.term(((2, 0), (0, 1)), C2.var("x")))
    out1 = mc_check(bad1)
    assert isinstance(out1, MCViolation) and out1.order == 1


def test_gauge_identity_and_group_action(rng):
    R = param_algebra_truncate(["hbar"], 3)
    car = PolyvecCarrier(C3)
    beta = rand_element(rng, car, R, 1, minorder=1)
    zero = DGLAElement.zero(car, R, 0)
    assert gauge_act(zero, beta) == beta
    for _ in range(8):
        g1 = rand_element(rng, car, R, 0, minorder=1)
        g2 = rand_element(rng, car, R, 0, minorder=1)
        assert gauge_act(bch(g1, g2), beta) == gauge_act(g1, gauge_act(g2, beta))


def test_gauge_on_zero_is_pure_coboundary_series():
    # beta = 0: the result is -sum ad(gamma)^k/(k+1)! d(gamma); for a zero
    # carrier differential this is just 0
    R = param_algebra_truncate(["hbar"], 3)
    car = PolyvecCarrier(C3)
    rng = random.Random(4)
    g = rand_element(rng, car, R, 0, minorder=1)
    assert gauge_act(g, DGLAElement.zero(car, R, 1)).is_zero()
    # polydiff: equals the exact series, checked against the direct formula
    dcar = PolydiffCarrier(C2)
    gamma = DGLAElement.single(dcar, R, 0, 1, dcar.term(((2, 0),), C2.one()))
    out = gauge_act(gamma, DGLAElement.zero(dcar, R, 1))
    acc = DGLAElement.zero(dcar, R, 1)
    term = gamma.d()
    k = 0
    while not term.is_zero():
        acc = acc - term.scale(Fraction(1, k + 1))
        k += 1
        term = gamma.bracket(term).scale(Fraction(1, k))
    assert out == acc


def test_gauge_preserves_mc(rng):
    R = param_algebra_truncate(["hbar"], 3)
    beta = so3_beta(R)
    for _ in range(6):
        g = rand_element(rng, beta.carrier, R, 0, minorder=1)
        assert isinstance(mc_check(gauge_act(g, beta)), MCElement)


def test_chart_carriers_of_the_two_flavours_differ():
    assert PolyvecCarrier(C2) != PolydiffCarrier(C2)
    assert PolydiffCarrier(C2) != PolyvecCarrier(C2)
    assert PolyvecCarrier(C2) == PolyvecCarrier(C2, (0, 1))
    assert PolydiffCarrier(C2, (1,)) != PolydiffCarrier(C2)
    assert len({PolyvecCarrier(C2), PolydiffCarrier(C2), PolyvecCarrier(C2, [0, 1])}) == 2


# The routes ``gauge_operator`` replaced are its oracles: on polyvectors the
# flow of ad(log), on cochains the exponential of the 1-slot operator.  On a
# function, ad(log) of a cochain is that operator too (u o log has no slot to
# insert into), so the bracket route holds for both flavours.
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 3), st.sampled_from(["polyvec", "polydiff"]))
def test_gauge_operator_matches_each_flavours_route(seed, order, kind):
    rng = random.Random(seed)
    R = param_algebra_truncate(["hbar"], order)
    car = (PolyvecCarrier if kind == "polyvec" else PolydiffCarrier)(C2)

    def draw(degree, **kw):
        while True:
            e = rand_element(rng, car, R, degree, kind=kind, **kw)
            if not e.is_zero():
                return e

    log, u = draw(0, minorder=1), draw(-1, maxdeg=3)
    got = gauge_operator(log)(u)
    assert got == exp_series(log.bracket, u)
    if kind == "polyvec":
        # a vector field and its HKR image, a first-order operator, act alike
        assert hkr(got) == gauge_operator(hkr(log))(hkr(u))
    else:
        assert got == exp_series(lambda t: apply_cochain(log, [t]), u)


# One gauge certificate serves both flavours: the bracket of dx^dy and its
# Moyal product, each gauged by a fixed logarithm and then by a second one.
@pytest.mark.parametrize("flavor", ["poisson", "associative"])
def test_gauge_structure_certifies_and_composes(flavor, rng):
    R = param_algebra_truncate(["hbar"], 2)
    if flavor == "poisson":
        car = PolyvecCarrier(C2)
        P = poisson_from_mc(DGLAElement.single(car, R, 1, 1, car.term((0, 1), C2.one())))
        gam = DGLAElement.single(car, R, 0, 1, car.vector_field({0: C2.var("x") * C2.var("x")}))
        gam2 = rand_element(rng, car, R, 0, minorder=1)
        degree, degree2 = 3, 2
    else:
        P = star_from_mc(require_mc(moyal_beta(R)))
        car = P.carrier
        gam = DGLAElement.single(car, R, 0, 1, car.term(((2, 0),), C2.one()))
        gam2 = DGLAElement.single(car, R, 0, 1, car.term(((1, 1),), C2.var("y")))
        degree = degree2 = None
    P0, cert0 = gauge_structure(DGLAElement.zero(car, R, 0), P, degree)
    assert cert0.holds and P0.beta.element == P.beta.element
    P2, cert = gauge_structure(gam, P, degree)
    assert type(P2) is type(P) and cert.holds and cert.fixes_unit
    # successive gauges compose through bch
    P3a, _ = gauge_structure(gam2, P2, degree2)
    P3b, _ = gauge_structure(bch(gam2, gam), P, degree2)
    assert P3a.beta.element == P3b.beta.element


def test_twisted_d_examples(rng):
    R = param_algebra_truncate(["hbar"], 3)
    car = PolyvecCarrier(C3)
    x = rand_element(rng, car, R, 0, minorder=1)
    zero_mc = require_mc(DGLAElement.zero(car, R, 1))
    assert twisted_d(zero_mc, x) == x.d()
    beta = require_mc(so3_beta(R))
    gamma = rand_element(rng, car, R, 0, minorder=1)
    # d_beta(gamma) is the generator of the conjugation-compatible action
    assert twisted_d(beta, gamma) == gamma.d() + beta.element.bracket(gamma)
    # d_beta^2 = 0
    for deg in (-1, 0):
        u = rand_element(rng, car, R, deg, minorder=1)
        assert twisted_d(beta, twisted_d(beta, u)).is_zero()


def test_twisted_bracket_properties(rng):
    R = param_algebra_truncate(["hbar"], 3)
    beta = require_mc(so3_beta(R))
    car = beta.element.carrier
    a1 = rand_element(rng, car, R, -1, minorder=1)
    a2 = rand_element(rng, car, R, -1, minorder=1)
    a3 = rand_element(rng, car, R, -1, minorder=1)
    # with zero carrier differential the bracket is [[beta, a1], a2]
    assert twisted_bracket(beta, a1, a2) == beta.element.bracket(a1).bracket(a2)
    assert (twisted_bracket(beta, a1, a2) + twisted_bracket(beta, a2, a1)).is_zero()
    tb = lambda u, v: twisted_bracket(beta, u, v)
    assert (tb(a1, tb(a2, a3)) - tb(tb(a1, a2), a3) - tb(a2, tb(a1, a3))).is_zero()


def test_bch_inverse_and_commuting():
    R = param_algebra_truncate(["hbar"], 4)
    car = PolyvecCarrier(C3)
    rng = random.Random(9)
    x = rand_element(rng, car, R, 0, minorder=1)
    assert bch(x, -x).is_zero()
    y = x.scale(Fraction(3, 2))  # commutes with x
    assert bch(x, y) == x + y


def test_bch_star_realization():
    # exp_star(x) exp_star(y) = exp_star(bch_beta(x, y)) in A_beta, order 4
    R = param_algebra_truncate(["hbar"], 4)
    from starcover.polydiff import StarProduct

    S = StarProduct(require_mc(moyal_beta(R)))
    car = S.carrier
    rng = random.Random(3)
    x = rand_element(rng, car, R, -1, minorder=1, kind="polydiff")
    y = rand_element(rng, car, R, -1, minorder=1, kind="polydiff")
    lhs = S.product(star_exp(S, x), star_exp(S, y))
    rhs = star_exp(S, bch(x, y, beta=S.beta))
    assert lhs == rhs


def star_exp(S, a: DGLAElement) -> DGLAElement:
    """exp_star of a degree -1 element of adic order >= 1."""
    if a.adic_order() < 1:
        raise AlgebraError("star exponentials need adic order >= 1")
    one = function_element(S.carrier, S.algebra, S.carrier.chart.one())
    acc = one
    term = one
    k = 0
    while True:
        k += 1
        term = S.product(term, a).scale(Fraction(1, k))
        if term.is_zero():
            break
        acc = acc + term
    return acc


def moyal_beta(R):
    vcar = PolyvecCarrier(C2)
    pi = vcar.term((0, 1), C2.one())
    return _moyal_exponential(PolydiffCarrier(C2), DGLAElement.single(vcar, R, 1, 1, pi))


# The word-by-word BCH: every word of log(exp X exp Y) brackets out alone,
# left-nested, with weight c_w / |w|.  It is the oracle of the folded Dynkin
# words of ``bch`` and of the Bernoulli chain of ``bch_dleft``/``bch_dright``.


def _left_nested(word, letters, br):
    term = letters[word[0]]
    for idx in word[1:]:
        term = br(term, letters[idx])
        if term.is_zero():
            return None
    return term


def _oracle_br(x, beta):
    if x.degree == 0:
        return lambda a, b: a.bracket(b)
    return lambda a, b: twisted_bracket(beta, a, b)


def oracle_bch(x, y, beta=None):
    br = _oracle_br(x, beta)
    acc = DGLAElement.zero(x.carrier, x.algebra, x.degree)
    for w, c in bch_word_coefficients(x.algebra.order):
        term = _left_nested(w, (x, y), br)
        if term is not None:
            acc = acc + term.scale(Fraction(c, len(w)))
    return acc


def oracle_bch_directional(v, y, letter, beta=None):
    """The words linear in the chosen letter, that letter set to v and the
    other to y."""
    br = _oracle_br(v, beta)
    letters = {letter: v, 1 - letter: y}
    acc = DGLAElement.zero(v.carrier, v.algebra, v.degree)
    for w, c in bch_word_coefficients(v.algebra.order):
        if w.count(letter) != 1:
            continue
        term = _left_nested(w, letters, br)
        if term is not None:
            acc = acc + term.scale(Fraction(c, len(w)))
    return acc


def _bch_case(rng, order, case):
    """Two logarithms of adic order exactly 1 and the twist for one case:
    degree 0 on polyvectors, degree -1 on polyvectors twisted by the so(3)
    bivector, or degree -1 on cochains twisted by the Moyal star."""
    R = param_algebra_truncate(["hbar"], order)
    if case == "polyvec-0":
        beta, degree, kind = None, 0, "polyvec"
        car = PolyvecCarrier(C3)
    else:
        beta = require_mc(so3_beta(R) if case == "polyvec-twisted" else moyal_beta(R))
        degree, kind = -1, case.split("-")[0]
        car = beta.element.carrier

    def draw():
        while True:
            e = rand_element(rng, car, R, degree, minorder=1, kind=kind, maxdeg=1 + (degree < 0))
            if e.adic_order() == 1:
                return e

    return draw(), draw(), beta


@settings(max_examples=24, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(2, 5),
    st.sampled_from(["polyvec-0", "polyvec-twisted", "polydiff-moyal"]),
)
def test_bch_matches_the_word_by_word_oracle(seed, order, case):
    x, y, beta = _bch_case(random.Random(seed), order, case)
    assert bch(x, y, beta=beta) == oracle_bch(x, y, beta)
    assert bch_dleft(x, y, beta=beta) == oracle_bch_directional(x, y, 0, beta)
    assert bch_dright(x, y, beta=beta) == oracle_bch_directional(x, y, 1, beta)


def test_bch_oracle_cases_are_not_trivial():
    # at order 5 the twisted chain of a seeded case reaches its second
    # bracket, so the oracle comparison above sees more than [x, y]
    for case in ("polyvec-twisted", "polydiff-moyal"):
        x, y, beta = _bch_case(random.Random(0), 5, case)
        dy = twisted_d(beta, y)
        assert not dy.bracket(dy.bracket(x)).is_zero()


@pytest.fixture
def bracket_calls(monkeypatch):
    calls = []
    inner = DGLAElement.bracket

    def counted(self, other):
        calls.append(1)
        return inner(self, other)

    monkeypatch.setattr(DGLAElement, "bracket", counted)
    return calls


def test_bch_at_order_two_makes_one_bracket(bracket_calls):
    R = param_algebra_truncate(["hbar"], 2)
    car = PolyvecCarrier(C3)
    x = DGLAElement.single(car, R, 0, 1, car.vector_field({0: C3.var("y")}))
    y = DGLAElement.single(car, R, 0, 1, car.vector_field({1: C3.var("x")}))
    out = bch(x, y)
    assert len(bracket_calls) == 1
    assert out == oracle_bch(x, y)


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_bch_derivative_makes_at_most_order_brackets(bracket_calls, order):
    # v at adic order 0 keeps every term of the chain alive
    R = param_algebra_truncate(["hbar"], order)
    car = PolyvecCarrier(C3)
    v = DGLAElement.single(car, R, 0, 0, car.vector_field({0: C3.var("y")}))
    y = DGLAElement.single(car, R, 0, 1, car.vector_field({1: C3.var("x")}))
    for derivative in (bch_dleft, bch_dright):
        del bracket_calls[:]
        derivative(v, y)
        assert len(bracket_calls) <= order


def test_bch_directional_derivatives():
    # finite-lambda extraction agrees with the Bernoulli chain
    R = param_algebra_truncate(["hbar"], 3)
    car = PolyvecCarrier(C3)
    rng = random.Random(13)
    for _ in range(6):
        v = rand_element(rng, car, R, 0, minorder=1)
        y = rand_element(rng, car, R, 0, minorder=1)
        # bch(t v, y) is polynomial of degree <= 3 in t; extract the linear part
        f1 = bch(v, y)
        f2 = bch(v.scale(2), y)
        f3 = bch(v.scale(3), y)
        lin = f1.scale(3) - f2.scale(Fraction(3, 2)) + f3.scale(Fraction(1, 3)) - y.scale(Fraction(11, 6))
        assert lin == bch_dleft(v, y)
        g1 = bch(y, v)
        g2 = bch(y, v.scale(2))
        g3 = bch(y, v.scale(3))
        lin2 = g1.scale(3) - g2.scale(Fraction(3, 2)) + g3.scale(Fraction(1, 3)) - y.scale(Fraction(11, 6))
        assert lin2 == bch_dright(v, y)


def test_linfty_identity_and_hkr_square_zero():
    R1 = param_algebra_truncate(["hbar"], 1)
    vcar = PolyvecCarrier(C2)
    pi = DGLAElement.single(vcar, R1, 1, 1, vcar.term((0, 1), C2.one()))
    ident = LInftyMorphism([lambda b: b])
    out = linfty_apply(ident, require_mc(pi))
    assert out.element == pi
    # Psi_1 = HKR, square-zero parameters: hbar nu(pi) is MC at order 1
    hkr_psi = LInftyMorphism([lambda b: hkr(b)])
    out2 = linfty_apply(hkr_psi, require_mc(pi))
    assert out2.element == hkr(pi)


def test_linfty_affine_order2_components():
    # built-in order-2 affine quantization expressed as an L-infinity
    # evaluation: Psi_1 = hkr, Psi_2 = twice the order-2 correction on the
    # diagonal; the result is associative to O(hbar^3)
    from starcover import quantize_affine_order2, poisson_from_mc
    R = param_algebra_truncate(["hbar"], 2)
    beta_pi = DGLAElement.single(
        PolyvecCarrier(C3), R, 1, 1,
        PolyvecCarrier(C3).add(
            PolyvecCarrier(C3).add(
                PolyvecCarrier(C3).term((1, 2), C3.var("x")),
                PolyvecCarrier(C3).term((0, 2), C3.var("y").scale(-1)),
            ),
            PolyvecCarrier(C3).term((0, 1), C3.var("z")),
        ),
    )
    S = quantize_affine_order2(poisson_from_mc(beta_pi))
    correction = S.beta.element - hkr(beta_pi)

    def psi2(b1, b2):
        # symmetric bilinear component with psi2(beta, beta)/2 = correction
        return correction.scale(2)

    psi = LInftyMorphism([lambda b: hkr(b), psi2])
    # the order-2 component is symmetric in the shifted grading on samples
    assert psi.symmetry_defect(2, [beta_pi, beta_pi.scale(2)]).is_zero()
    out = linfty_apply(psi, require_mc(beta_pi))
    assert out.element == S.beta.element
    star_from_mc(out)  # associativity oracle runs inside


def test_linfty_rejects_non_morphism():
    R = param_algebra_truncate(["hbar"], 2)
    vcar = PolyvecCarrier(C3)
    pi = DGLAElement.single(vcar, R, 1, 1, vcar.term((0, 1), C3.var("x")))
    bad = LInftyMorphism([lambda b: hkr(b)])  # hkr alone fails at order 2 here
    from starcover import MCCheckError
    with pytest.raises(MCCheckError):
        linfty_apply(bad, require_mc(pi))
