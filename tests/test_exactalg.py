import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from starcover import AlgebraError, ChartAlgebra, LocalizedPoly, Poly, PolydiffCarrier, solve_linear
from starcover.exactalg import ExactSystem

from conftest import rand_poly

XY = ("x", "y")


def matvec(matrix, v):
    return [sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in matrix]


def P(text_terms):
    return Poly(XY, text_terms)


def test_difference_of_squares():
    x = Poly.var(XY, "x")
    one = Poly.const(XY, 1)
    assert (x + one) * (x - one) == x * x - one


def test_additive_identity():
    x = Poly.var(XY, "x")
    p = x * x + Poly.const(XY, 3)
    assert p + Poly.zero(XY) == p


def test_denominator_cancellation():
    # (x/s) * s == x, cross-checked by clearing denominators
    sx = Poly.var(("x",), "x")
    C = ChartAlgebra(("x",), (sx,))
    x_over_s = LocalizedPoly(C, sx, (1,))
    prod = x_over_s * C.var("x")
    assert prod == C.var("x")
    # cross-multiplication oracle: numerators after clearing denominators
    lhs = prod.numer * sx ** sum(C.var("x").powers)
    rhs = C.var("x").numer * sx ** sum(prod.powers)
    assert lhs == rhs


def test_mismatched_variables_rejected():
    with pytest.raises(AlgebraError):
        Poly.var(("x",), "x") + Poly.var(("y",), "y")


def test_substitution_monomial():
    # x -> 1/x applied to x^2 gives denominator power 2
    sx = Poly.var(("x",), "x")
    C = ChartAlgebra(("x",), (sx,))
    inv = LocalizedPoly(C, Poly.const(("x",), 1), (1,))
    x2 = LocalizedPoly(C, sx * sx)
    img = x2.substitute(C, [inv])
    assert img == LocalizedPoly(C, Poly.const(("x",), 1), (2,))


def test_substitution_identity():
    C = ChartAlgebra(XY)
    rng = random.Random(5)
    for _ in range(10):
        p = rand_poly(rng, C)
        assert p.substitute(C, [C.var("x"), C.var("y")]) == p


def test_substitution_binomial_oracle():
    # x -> x + y applied to x^2 equals the binomial expansion
    C = ChartAlgebra(XY)
    x, y = C.var("x"), C.var("y")
    img = (x * x).substitute(C, [x + y, y])
    assert img == x * x + (x * y).scale(2) + y * y


def test_substitution_ring_homomorphism():
    rng = random.Random(11)
    sx = Poly.var(XY, "x")
    C = ChartAlgebra(XY, (sx,))
    images = [C.var("x") + C.var("y"), LocalizedPoly(C, Poly.const(XY, 1), (1,))]
    for _ in range(20):
        p = rand_poly(rng, C)
        q = rand_poly(rng, C)
        sub = lambda r: r.substitute(C, images)
        assert sub(p * q) == sub(p) * sub(q)
        assert sub(p + q) == sub(p) + sub(q)


@settings(max_examples=40, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_ring_axioms_hypothesis(a, b, c):
    # small dense polynomials built from the integer seeds
    x, y = Poly.var(XY, "x"), Poly.var(XY, "y")
    p = x.scale(a) + y * y.scale(b)
    q = y.scale(c) + Poly.const(XY, a)
    r = x * y.scale(b) + Poly.const(XY, c)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p


# The kernel's operations done in Fraction arithmetic throughout: the oracle
# of the values and the term order of the int/Fraction kernel.
def reference_mul(p, q):
    """Terms in the order the product loop first meets them."""
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            v = terms.get(e)
            terms[e] = Fraction(c1) * c2 if v is None else v + Fraction(c1) * c2
    return [(e, c) for e, c in terms.items() if c != 0]


def reference_add(p, q):
    terms = {e: Fraction(c) for e, c in p.terms.items()}
    for e, c in q.terms.items():
        v = terms.get(e)
        if v is None:
            terms[e] = Fraction(c)
        elif v + c == 0:
            del terms[e]
        else:
            terms[e] = v + c
    return list(terms.items())


def reference_derivative(p, i):
    return [(e[:i] + (e[i] - 1,) + e[i + 1 :], Fraction(c) * e[i]) for e, c in p.terms.items() if e[i]]


def assert_canonical(p):
    """An int exactly when the coefficient is integral, else a Fraction with
    denominator > 1."""
    for c in p.terms.values():
        assert type(c) is (int if c.denominator == 1 else Fraction), repr(c)


@st.composite
def polys(draw):
    """A Poly over Q[x, y]: integral coefficients, or denominators up to 3."""
    den = st.just(1) if draw(st.booleans()) else st.sampled_from([1, 2, 3])
    coeff = st.builds(Fraction, st.integers(-4, 4), den)
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    return Poly(XY, draw(st.dictionaries(exps, coeff, max_size=4)))


# (x + y)(x - y), integral, and (x/2 + y)(x/2 - y), mixed: the cross terms
# cancel; a product with zero; and one-term factors on either side, a unit
# constant, an integral and a fractional monomial
@example(P({(1, 0): 1, (0, 1): 1}), P({(1, 0): 1, (0, 1): -1}))
@example(P({(1, 0): Fraction(1, 2), (0, 1): 1}), P({(1, 0): Fraction(1, 2), (0, 1): -1}))
@example(P({(1, 0): 3}), P({}))
@example(P({(2, 0): 1, (0, 1): -3, (1, 1): 2}), P({(0, 0): 1}))
@example(P({(0, 0): 1}), P({(2, 0): Fraction(1, 2), (0, 1): -3}))
@example(P({(1, 1): -2}), P({(2, 0): 1, (0, 0): 4, (0, 1): 3}))
@example(P({(2, 0): Fraction(2, 3), (0, 1): -1}), P({(0, 2): Fraction(-3, 4)}))
@example(P({(1, 0): Fraction(1, 2)}), P({(0, 1): 2}))
@settings(max_examples=300, deadline=None)
@given(polys(), polys())
def test_kernel_fast_paths_match_the_fraction_loop(p, q):
    checks = [(p * q, reference_mul(p, q)), (p + q, reference_add(p, q)), (p, list(p.terms.items()))]
    checks.append((-p, [(e, -Fraction(c)) for e, c in p.terms.items()]))
    for s in (2, Fraction(1, 2), Fraction(-2, 3), Fraction(6, 3)):
        checks.append((p.scale(s), [(e, s * Fraction(c)) for e, c in p.terms.items()]))
    checks += [(p.derivative(i), reference_derivative(p, i)) for i in (0, 1)]
    car = PolydiffCarrier(ChartAlgebra(XY))
    for alpha in ((1, 0), (0, 2), (2, 1)):
        want = p
        for i, k in enumerate(alpha):
            for _ in range(k):
                want = Poly(XY, dict(reference_derivative(want, i)))
        got = car.deriv(LocalizedPoly(car.chart, p), alpha)
        checks.append((got.numer, list(want.terms.items())))
    if not q.is_zero():
        # the quotient's terms come out leading term first
        checks.append(((p * q).divide_exact(q), p.sorted_terms()))
    for got, want in checks:
        assert list(got.terms.items()) == want
        assert_canonical(got)


def test_constructor_input_is_made_canonical():
    p = Poly(XY, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 2), (0, 0): True, (1, 1): 0, (2, 0): Fraction(0)})
    assert list(p.terms.items()) == [((1, 0), 2), ((0, 1), Fraction(1, 2)), ((0, 0), 1)]
    assert_canonical(p)
    assert type(Poly.const(XY, Fraction(6, 3)).constant_value()) is int
    assert_canonical(Poly.monomial(XY, (1, 1), Fraction(-3, 1)))
    assert_canonical(LocalizedPoly.const(ChartAlgebra(XY), Fraction(4, 2)).scale(Fraction(3, 2)).numer)
    for bad in (lambda: Poly(XY, {(1, 0): 1.0}), lambda: Poly.const(XY, 0.5), lambda: Poly.monomial(XY, (1, 0), 2.0)):
        with pytest.raises(TypeError):
            bad()
    # equal values of either type compare and hash equal
    as_fraction = Poly._raw(XY, {e: Fraction(c) for e, c in p.terms.items()})
    assert as_fraction == p and hash(as_fraction) == hash(p)


def test_divisions_of_integral_coefficients_are_exact():
    x = Poly.var(XY, "x")
    quotient = x.scale(2).divide_exact(x.scale(3))
    assert quotient == Poly.const(XY, Fraction(2, 3))
    assert type(quotient.constant_value()) is Fraction
    assert x.scale(4).divide_exact(x.scale(2)) == Poly.const(XY, 2)
    C = ChartAlgebra(XY)
    inverse = LocalizedPoly.const(C, 3).invert()
    assert inverse == LocalizedPoly.const(C, Fraction(1, 3))
    assert inverse.numer.constant_value() == Fraction(1, 3)


@settings(max_examples=100, deadline=None)
@given(polys())
def test_scale_by_one_minus_one_and_zero(p):
    assert p.scale(1) is p and p.scale(Fraction(1)) is p
    assert p.scale(-1) == -p and list(p.scale(-1).terms) == list(p.terms)
    assert p.scale(0).is_zero() and p.scale(Fraction(0)).is_zero()
    assert p.scale(Fraction(-1)) + p == Poly.zero(XY)
    with pytest.raises(TypeError):
        p.scale(1.0)


def test_chart_zero_and_one_are_shared_constants():
    C = ChartAlgebra(XY, (Poly.var(XY, "x"),))
    assert C.zero() is C.zero() and C.one() is C.one()
    assert C.zero().is_zero() and C.one() == LocalizedPoly.const(C, 1)
    twin = ChartAlgebra(XY, (Poly.var(XY, "x"),))
    assert twin == C and hash(twin) == hash(C) and twin.zero() is not C.zero()


def test_ring_axioms_randomized(rng):
    C3 = ChartAlgebra(("x", "y", "z"))
    for _ in range(200):
        p = rand_poly(rng, C3, maxdeg=6, terms=3)
        q = rand_poly(rng, C3, maxdeg=6, terms=3)
        r = rand_poly(rng, C3, maxdeg=6, terms=3)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p


def test_localized_ring_axioms(rng):
    sx = Poly.var(XY, "x")
    sy = Poly.var(XY, "y")
    C = ChartAlgebra(XY, (sx, sy))
    def rand_loc():
        return LocalizedPoly(
            C, rand_poly(rng, C, maxdeg=3).numer, (rng.randint(0, 2), rng.randint(0, 2))
        )
    for _ in range(60):
        p, q, r = rand_loc(), rand_loc(), rand_loc()
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p


def test_solve_identity():
    res = solve_linear([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]],
                       [Fraction(2), Fraction(3)])
    assert res.particular == [Fraction(2), Fraction(3)]
    assert res.kernel == []


def test_solve_rank1_kernel():
    res = solve_linear([[Fraction(1), Fraction(1)]], [Fraction(0)])
    assert res.particular == [Fraction(0), Fraction(0)]
    assert len(res.kernel) == 1
    v = res.kernel[0]
    assert v[0] == -v[1] and v[0] != 0


def test_solve_inconsistent():
    res = solve_linear([[Fraction(1)], [Fraction(1)]], [Fraction(0), Fraction(1)])
    assert not res.consistent


def test_solve_random_residual(rng):
    for _ in range(10):
        n = 5
        A = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        x = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
        b = matvec(A, x)
        res = solve_linear(A, b)
        assert res.consistent
        assert matvec(A, res.particular) == b
        for k in res.kernel:
            assert matvec(A, k) == [Fraction(0)] * n


@st.composite
def sparse_systems(draw):
    """A keyed system built by accumulation, and the same system as a dense
    matrix in column declaration order.  Entries land on a small grid, so
    the same entry is often added to more than once; columns may be left
    untouched, rows may carry only a right-hand side, and many systems are
    inconsistent."""
    ncols = draw(st.integers(0, 6))
    nrows = draw(st.integers(0, 7))
    keys = [("c", j) for j in draw(st.permutations(range(ncols)))]
    values = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    entries = draw(st.lists(
        st.tuples(st.integers(0, max(nrows - 1, 0)), st.integers(0, max(ncols - 1, 0)), values),
        max_size=24 if nrows and ncols else 0,
    ))
    rhs = draw(st.lists(st.tuples(st.integers(0, max(nrows - 1, 0)), values), max_size=8 if nrows else 0))
    blocks = draw(st.lists(st.integers(1, 3), min_size=nrows, max_size=nrows))
    system = ExactSystem(keys)
    matrix = {}
    b = {}
    for r, j, v in entries:
        system.add(("r", r), keys[j], v)
        row = matrix.setdefault(r, [Fraction(0)] * ncols)
        row[j] += v
        b.setdefault(r, Fraction(0))
    for r, v in rhs:
        system.add_rhs(("r", r), v)
        matrix.setdefault(r, [Fraction(0)] * ncols)
        b[r] = b.get(r, Fraction(0)) + v
    rows = sorted(matrix)
    block_of = {("r", r): blocks[r] for r in rows}
    return system, keys, [matrix[r] for r in rows], [b[r] for r in rows], block_of


def dense_solve(matrix, rhs, ncols):
    # a zero row stands in for an empty system, whose width the dense
    # solver cannot see
    return solve_linear(matrix or [[Fraction(0)] * ncols], rhs or [Fraction(0)])


def dense_prefix(matrix, rhs, row_blocks, ncols, lowest):
    """The descending re-solve that the prefix solve replaces: the largest
    k in [lowest, 3] whose rows of block <= k are consistent, or None."""
    for k in range(3, lowest - 1, -1):
        keep = [r for r in range(len(matrix)) if row_blocks[r] <= k]
        res = dense_solve([matrix[r] for r in keep], [rhs[r] for r in keep], ncols)
        if res.consistent:
            return res.particular, k
    return None, lowest


@settings(max_examples=300, deadline=None)
@given(sparse_systems())
def test_exact_system_matches_dense_oracle(case):
    system, keys, matrix, rhs, _ = case
    dense = dense_solve(matrix, rhs, len(keys))
    sol = system.solve()
    assert sol.consistent == dense.consistent
    if dense.consistent:
        assert list(sol.particular) == [k for k in keys if k in sol.particular]
        assert all(v != 0 for v in sol.particular.values())
        assert [sol.particular.get(k, 0) for k in keys] == dense.particular
    assert [[vec.get(k, 0) for k in keys] for vec in sol.kernel] == dense.kernel
    assert sol.rank == len(keys) - len(dense.kernel)


@settings(max_examples=300, deadline=None)
@given(sparse_systems(), st.integers(1, 3))
def test_exact_system_prefix_matches_descending_resolve(case, lowest):
    system, keys, matrix, rhs, block_of = case
    sol, failed = system.solve_prefix(block_of.__getitem__)
    particular, k = dense_prefix(matrix, rhs, [block_of[r] for r in sorted(block_of)], len(keys), lowest)
    if particular is None:
        assert failed is not None and failed <= lowest
    else:
        assert failed is None or failed > lowest
        assert k == (3 if failed is None else min(3, failed - 1))
        assert [sol.particular.get(key, 0) for key in keys] == particular


def fresh_solve(keys, row_keys, matrix, b):
    """ExactSystem.solve on the drawn matrix with right-hand side ``b``, the
    route that a factor replaces: every matrix row is declared, with its
    zero entries, before b lands."""
    system = ExactSystem(keys)
    for row_key, row in zip(row_keys, matrix):
        for key, v in zip(keys, row):
            system.add(row_key, key, v)
    for key, v in b.items():
        system.add_rhs(key, v)
    return system.solve()


@settings(max_examples=200, deadline=None)
@given(
    sparse_systems(),
    st.lists(
        st.dictionaries(
            st.tuples(st.just("r"), st.integers(0, 8)),
            st.fractions(min_value=-3, max_value=3, max_denominator=2),
            max_size=4,
        ),
        max_size=3,
    ),
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3), max_size=6),
)
def test_factor_matches_a_fresh_solve_per_right_hand_side(case, drawn, x):
    # right-hand sides: zero, drawn ones (often inconsistent, some on rows
    # the matrix lacks: row keys run past the drawn rows), and A x for a
    # drawn x, which is consistent
    system, keys, matrix, _, block_of = case
    row_keys = sorted(block_of)
    factor = system.factor()
    image = {key: sum((a * v for a, v in zip(row, x)), Fraction(0)) for key, row in zip(row_keys, matrix)}
    sides = [{}, *drawn, image]
    results = []
    for b in sides:
        want = fresh_solve(keys, row_keys, matrix, b)
        got = factor.solve(b)
        assert got.consistent == want.consistent
        if want.consistent:
            assert list(got.particular.items()) == list(want.particular.items())
        assert got.rank == want.rank
        assert got.kernel == want.kernel
        results.append(got)
    assert results[-1].consistent
    # solving leaves the factor as it was: each side again, after the others
    assert [factor.solve(b) for b in sides] == results


def test_canonical_rendering():
    p = Poly(XY, {(2, 1): Fraction(3, 2), (0, 0): Fraction(-1)})
    assert p.render() == "3/2*x^2*y - 1"
    assert Poly.zero(XY).render() == "0"


def test_invert_unit_and_reject():
    sx = Poly.var(("x",), "x")
    C = ChartAlgebra(("x",), (sx,))
    u = LocalizedPoly(C, sx.scale(2))
    assert u.invert() * u == C.one()
    with pytest.raises(AlgebraError):
        (C.var("x") + C.one()).invert()
