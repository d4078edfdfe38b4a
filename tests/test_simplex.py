import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from starcover import Poly, SimplexForm, face_pullback, simplex_integrate
from starcover.simplex import (
    coface,
    dirichlet_integral,
    stokes_boundary_integral,
    t_vars,
)

from conftest import codegeneracy


def rand_form(rng, q, form_degree, maxdeg=2):
    tv = t_vars(q)
    parts = {}
    for S in itertools.combinations(range(1, q + 1), form_degree):
        t = {}
        for _ in range(2):
            e = tuple(rng.randint(0, maxdeg) for _ in range(q))
            t[e] = Fraction(rng.randint(-3, 3))
        parts[frozenset(S)] = Poly(tv, t)
    return SimplexForm(q, parts)


def test_volume_forms():
    for q in range(1, 5):
        top = SimplexForm(q, {frozenset(range(1, q + 1)): Poly.const(t_vars(q), 1)})
        assert simplex_integrate(top) == Fraction(1, math.factorial(q))


def test_elementary_integral():
    om = SimplexForm(1, {frozenset([1]): Poly.var(("t1",), "t1")})
    assert simplex_integrate(om) == Fraction(1, 2)


def test_t0_t1_integral():
    tv = t_vars(2)
    t0 = Poly.const(tv, 1) - Poly.var(tv, "t1") - Poly.var(tv, "t2")
    om = SimplexForm(2, {frozenset([1, 2]): t0 * Poly.var(tv, "t1")})
    assert simplex_integrate(om) == Fraction(1, 24)


def _iterated_integral(exponents):
    """Independent oracle: iterated 1-D integration of t^a over the simplex
    via the recursion int = a_q! s! / (a_q + s + 1)! times the smaller
    integral, with s the accumulated degree + dimension."""
    exps = list(exponents)
    if not exps:
        return Fraction(1)
    aq = exps[-1]
    rest = exps[:-1]
    s = sum(rest) + len(rest)
    return _iterated_integral(rest) * Fraction(
        math.factorial(aq) * math.factorial(s), math.factorial(aq + s + 1)
    )


def test_dirichlet_vs_iterated(rng):
    for q in (1, 2, 3):
        for e in itertools.product(range(5), repeat=q):
            if sum(e) > 4:
                continue
            assert dirichlet_integral(e, q) == _iterated_integral(e)


def test_d_squared_zero(rng):
    for q in (1, 2, 3):
        for r in range(q):
            om = rand_form(rng, q, r)
            assert om.d().d().is_zero()


def test_stokes(rng):
    for q in (1, 2, 3):
        for _ in range(34):
            om = rand_form(rng, q, q - 1)
            assert simplex_integrate(om.d()) == stokes_boundary_integral(om)


def test_vertex_pullback_kills_dt():
    for i in (0, 1):
        assert face_pullback(SimplexForm.dt(1, 1), (i,), 0).is_zero()


def test_pullback_functoriality(rng):
    om = rand_form(rng, 2, 1) + rand_form(rng, 2, 2)
    a1 = coface(1, 2)
    a0 = coface(0, 1)
    comp = tuple(a1[j] for j in a0)
    assert face_pullback(face_pullback(om, a1, 1), a0, 0) == face_pullback(om, comp, 0)


def test_codegeneracy_pullback(rng):
    # pulling a form on Delta^1 back along the codegeneracy to Delta^2 and
    # then along the two cofaces that split it returns the original
    om = rand_form(rng, 1, 1)
    sigma = codegeneracy(0, 1)  # [2] -> [1], repeats 0
    lifted = face_pullback(om, sigma, 2)
    assert lifted.q == 2
    # compose with the coface skipping the repeated position: identity on [1]
    delta = coface(1, 2)
    comp = tuple(sigma[j] for j in delta)
    assert comp == (0, 1)
    assert face_pullback(lifted, delta, 1) == om


def test_wedge_antisymmetry(rng):
    a = rand_form(rng, 3, 1)
    b = rand_form(rng, 3, 1)
    assert a.wedge(b) + b.wedge(a) == SimplexForm.zero(3)
    assert a.wedge(a).is_zero()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3)),
             min_size=1, max_size=3),
)
def test_stokes_hypothesis(q, spec):
    tv = t_vars(q)
    parts = {}
    for S in itertools.combinations(range(1, q + 1), q - 1):
        terms = {}
        for a, b, c in spec:
            e = tuple([a, b, 0][:q])
            terms[e] = terms.get(e, Fraction(0)) + Fraction(c)
        parts[frozenset(S)] = Poly(tv, terms)
    om = SimplexForm(q, parts)
    assert simplex_integrate(om.d()) == stokes_boundary_integral(om)
    assert om.d().d().is_zero()
