import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from starcover import AlgebraError, param_algebra_truncate
from starcover.params import INFINITY


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(-4, 4)), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 3), st.integers(-4, 4)), min_size=1, max_size=4),
)
def test_series_ring_axioms_hypothesis(a_terms, b_terms):
    R = param_algebra_truncate(["hbar"], 3)
    a = R.element({i: Fraction(c) for i, c in a_terms})
    b = R.element({i: Fraction(c) for i, c in b_terms})
    assert a * b == b * a
    assert (a + b) * a == a * a + b * a
    assert (a * b).adic_order() >= min(a.adic_order() + b.adic_order(), 4) or (a * b).is_zero()


@st.composite
def extension_problems(draw):
    """A parameter algebra (1-2 generators, order 1-4, maybe one extra
    relation) and 1-3 factors {basis index: small int}, indices over the whole
    basis so that products of high-order parts die."""
    ngens = draw(st.integers(1, 2))
    order = draw(st.integers(1, 4))
    extra = draw(st.lists(
        st.tuples(*[st.integers(0, 2)] * ngens).filter(lambda e: sum(e) > 0), max_size=1
    ))
    R = param_algebra_truncate(["h1", "h2"][:ngens], order, extra)
    n = len(R.basis)
    factor = st.dictionaries(st.integers(0, n - 1), st.integers(0, 3), max_size=4)
    return R, draw(st.lists(factor, min_size=1, max_size=3))


def reference_extend(R, op, add, *factors):
    """R-multilinear extension by exponent sums looked up in the basis index."""
    out = {}
    for combo in itertools.product(*(list(f.items()) for f in factors)):
        e = tuple(map(sum, zip(*(R.basis[i] for i, _ in combo))))
        k = R.index.get(e)
        if k is None:
            continue
        z = op(*(x for _, x in combo))
        if z is not None:
            out[k] = add(out[k], z) if k in out else z
    return out


@settings(max_examples=200, deadline=None)
@given(extension_problems())
def test_extend_matches_the_exponent_sum_reference(problem):
    R, factors = problem
    # tuples record which terms were summed and in what order; a leading 0
    # stands for a term the operation drops
    op = lambda *xs: None if xs[0] == 0 else (xs,)
    got = R.extend(op, operator.add, *factors)
    want = reference_extend(R, op, operator.add, *factors)
    assert got == want
    assert list(got) == list(want)


def test_mul_index_is_memoized_exponent_sum_lookup():
    R = param_algebra_truncate(["h1", "h2"], 3, [(1, 2)])
    n = len(R.basis)
    assert not R._products  # nothing is tabulated before a product is asked for
    for _ in range(2):  # the first pass fills the memo, the second reads it
        for i in range(n):
            for j in range(n):
                e = tuple(a + b for a, b in zip(R.basis[i], R.basis[j]))
                assert R.mul_index(i, j) == R.index.get(e)
    assert len(R._products) == n * n


def test_truncation_basis():
    R = param_algebra_truncate(["hbar"], 2)
    assert R.basis == [(0,), (1,), (2,)]
    h = R.gen("hbar")
    assert (h * (h * h)).is_zero()


def test_square_zero():
    R = param_algebra_truncate(["hbar"], 1)
    h = R.gen("hbar")
    assert (h * h).is_zero()


def test_two_parameter_basis():
    R = param_algebra_truncate(["h1", "h2"], 2)
    assert R.basis == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert len(R.basis) == 6


def test_extra_monomial_relations():
    R = param_algebra_truncate(["h1", "h2"], 3, [(1, 1)])
    assert all(not (e[0] >= 1 and e[1] >= 1) for e in R.basis)
    a = R.gen("h1") * R.gen("h2")
    assert a.is_zero()


def test_series_products():
    R = param_algebra_truncate(["hbar"], 2)
    one, h = R.one(), R.gen("hbar")
    assert ((one + h) * (one - h)).render() == "1 - hbar^2"


def test_series_associativity(rng):
    R = param_algebra_truncate(["h1", "h2"], 3)
    def rand_series():
        return R.element({i: Fraction(rng.randint(-3, 3)) for i in range(len(R.basis))})
    for _ in range(40):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a  # mu-table symmetry


def test_unit_laws():
    R = param_algebra_truncate(["h1", "h2"], 2)
    one = R.one()
    for i in range(len(R.basis)):
        e = R.element({i: Fraction(1)})
        assert one * e == e and e * one == e


def test_artinian_nilpotence():
    R = param_algebra_truncate(["h1", "h2"], 3)
    gens = [R.gen(g) for g in R.gens]
    prod = R.one()
    for _ in range(4):  # N + 1 generator factors vanish
        prod = prod * gens[0]
    assert prod.is_zero()


def test_adic_order():
    R = param_algebra_truncate(["hbar"], 3)
    h = R.gen("hbar")
    assert (R.one() + h).adic_order() == 0
    assert (h * h).adic_order() == 2
    assert R.zero().adic_order() == INFINITY


def test_base_change_substitution():
    R3 = param_algebra_truncate(["hbar"], 3)
    R5 = param_algebra_truncate(["hbar"], 5)
    h3, h5 = R3.gen("hbar"), R5.gen("hbar")
    a = h3 + h3 * h3
    img = a.base_change(R5, [h5 * h5])
    assert img == h5 * h5 + h5 * h5 * h5 * h5


def test_base_change_identity():
    R = param_algebra_truncate(["hbar"], 3)
    h = R.gen("hbar")
    a = R.one() + h.scale(Fraction(1, 2))
    assert a.base_change(R, [h]) == a


def test_base_change_binomial():
    R1 = param_algebra_truncate(["hbar"], 2)
    R2 = param_algebra_truncate(["h1", "h2"], 2)
    h = R1.gen("hbar")
    img = (h * h).base_change(R2, [R2.gen("h1") + R2.gen("h2")])
    h1, h2 = R2.gen("h1"), R2.gen("h2")
    assert img == h1 * h1 + (h1 * h2).scale(2) + h2 * h2


def test_base_change_is_ring_hom(rng):
    R1 = param_algebra_truncate(["h1", "h2"], 2)
    R2 = param_algebra_truncate(["hbar"], 4)
    h = R2.gen("hbar")
    # degree-3 source monomials must die: images of order >= 2 suffice
    images = [h * h, h * h.scale(2)]
    def rand_series():
        return R1.element({i: Fraction(rng.randint(-2, 2)) for i in range(len(R1.basis))})
    for _ in range(25):
        a, b = rand_series(), rand_series()
        f = lambda s: s.base_change(R2, images)
        assert f(a * b) == f(a) * f(b)
        assert f(a + b) == f(a) + f(b)
        assert f(a).adic_order() >= a.adic_order()


def test_base_change_order_zero_rejected():
    R = param_algebra_truncate(["hbar"], 2)
    with pytest.raises(AlgebraError):
        R.gen("hbar").base_change(R, [R.one()])


def test_render():
    R = param_algebra_truncate(["hbar"], 3)
    assert R.render() == "param-algebra { gens = [hbar]; order = 3 }"
    s = R.one() + R.gen("hbar").scale(Fraction(1, 2)) * R.gen("hbar")
    assert s.render() == "1 + 1/2*hbar^2"
