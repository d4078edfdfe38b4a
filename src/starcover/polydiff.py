"""Normalized polydifferential Hochschild cochains D_poly^nor of a chart
algebra: Gerstenhaber bracket, Hochschild differential, star products, the
HKR antisymmetrization, order-by-order gauge recovery, and the desk-scale
order-2 quantization on affine space.

A degree-p payload is a map {(p+1)-tuple of derivative multi-indices ->
LocalizedPoly}; multi-index position k differentiates the chart variable
``deriv_indices[k]``.  Degree -1 payloads are coefficients keyed by ().
Normalization (every slot multi-index nonzero for p >= 0) is the public
invariant.

The differential is d := [mu0, -] with the Gerstenhaber bracket and the
multiplication 2-cochain mu0, so that Maurer-Cartan for beta is
*identically* the associativity of c1 * c2 + beta(c1, c2).  It is computed
directly from the inner faces (``PolydiffCarrier.d``); the bracket route
stays in the tests as its oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence

from .exactalg import (
    AlgebraError,
    ChartAlgebra,
    ExactSystem,
    Exponent,
    LocalizedPoly,
    Poly,
    QQ,
    _coeff,
    _compositions,
)
from .dgla import (
    DGLAElement,
    GaugeElement,
    InducedStructure,
    MCElement,
    SparseCarrier,
    function_element,
    gauge_structure,
    mc_check,
    require_mc,
)
from .params import ParamAlgebra
from . import polyvec as pv

Slots = tuple[Exponent, ...]
DiffPayload = dict  # Slots -> LocalizedPoly


def _multi_add(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x + y for x, y in zip(a, b))


def _multi_weight(a: Exponent) -> int:
    return sum(a)


@lru_cache(maxsize=None)
def _splittings(alpha: Exponent, parts: int) -> tuple:
    """All ways to write alpha as an ordered sum of ``parts`` multi-indices,
    with the multinomial coefficient of the generalized Leibniz rule.  Every
    bracket asks for the same few, so each is built once."""
    if parts == 1:
        return (((alpha,), 1),)
    n = len(alpha)

    def var_splits(total: int):
        # compositions of `total` into `parts` parts with multinomial weight
        for comp in _compositions(total, parts):
            w = math.factorial(total)
            for c in comp:
                w //= math.factorial(c)
            yield comp, w

    per_var = [list(var_splits(alpha[v])) for v in range(n)]
    out = []
    for combo in itertools.product(*per_var):
        coeff = 1
        for _, w in combo:
            coeff *= w
        split = tuple(tuple(combo[v][0][k] for v in range(n)) for k in range(parts))
        out.append((split, coeff))
    return tuple(out)


class PolydiffCarrier(SparseCarrier):
    """D_poly^nor over a chart: the carrier of the associative flavour."""

    flavor = "associative"
    kind = "polydiff"
    noun = "cochain"

    @property
    def nderiv(self) -> int:
        return len(self.deriv_indices)

    def zero_index(self) -> Exponent:
        return (0,) * self.nderiv

    def is_normalized(self, x: DiffPayload) -> bool:
        return all(
            all(_multi_weight(a) > 0 for a in slots) for slots in x if slots
        )

    def max_slot_order(self, x: DiffPayload) -> int:
        orders = [_multi_weight(a) for slots in x for a in slots]
        return max(orders, default=0)

    # -- construction --------------------------------------------------------

    def term(self, slots: Slots, coeff: LocalizedPoly) -> DiffPayload:
        slots = tuple(tuple(a) for a in slots)
        for a in slots:
            if len(a) != self.nderiv:
                raise AlgebraError("slot multi-index has the wrong length")
            if slots and _multi_weight(a) == 0:
                raise AlgebraError("normalized cochains need nonzero slots")
        if coeff.is_zero():
            return {}
        return {slots: coeff}

    # -- derivatives and evaluation -------------------------------------------

    def deriv(self, c: LocalizedPoly, alpha: Exponent) -> LocalizedPoly:
        if not any(alpha):
            return c
        if not any(c.powers):
            # closed form on polynomials: falling factorials per monomial
            terms: dict = {}
            for e, q in c.numer.terms.items():
                factor = 1
                e2 = list(e)
                dead = False
                for pos, k in enumerate(alpha):
                    if k == 0:
                        continue
                    var = self.deriv_indices[pos]
                    m = e2[var]
                    if m < k:
                        dead = True
                        break
                    for t in range(k):
                        factor *= m - t
                    e2[var] = m - k
                if dead:
                    continue
                coeff = q * factor
                key = tuple(e2)
                v = terms.get(key)
                terms[key] = coeff if v is None else v + coeff
            num = Poly._raw(c.numer.variables, {e: _coeff(q) for e, q in terms.items() if q != 0})
            return LocalizedPoly._raw(c.chart, num, c.powers)
        out = c
        for pos, k in enumerate(alpha):
            var = self.deriv_indices[pos]
            for _ in range(k):
                out = out.derivative(var)
                if out.is_zero():
                    return out
        return out

    def evaluate(self, x: DiffPayload, args: Sequence[LocalizedPoly]) -> LocalizedPoly:
        out = self.chart.zero()
        derivs: dict = {}  # (argument position, multi-index) -> slot derivative
        for slots, f in x.items():
            if len(slots) != len(args):
                raise AlgebraError("argument count does not match the degree")
            factors = []
            for pos, a in enumerate(slots):
                da = derivs.get((pos, a))
                if da is None:
                    da = derivs[pos, a] = self.deriv(args[pos], a)
                if da.is_zero():
                    break  # the term vanishes: multiply nothing
                factors.append(da)
            else:
                for da in factors:
                    f = f * da
                out = out + f
        return out

    # -- Gerstenhaber structure -----------------------------------------------

    def compose_at(self, x: DiffPayload, y: DiffPayload, i: int, sign: int) -> DiffPayload:
        """sign * (x o_i y): insert y into slot i of x, expanding the slot
        derivative over y's coefficient and arguments by the generalized
        Leibniz rule.  The sign joins the multinomial weight of each term."""
        out: DiffPayload = {}
        for xs, f in x.items():
            alpha = xs[i]
            for ys, g in y.items():
                signed = {}  # (first part, weight) -> sign * weight * f * d^(first part) g
                for parts, w in _splittings(alpha, 1 + len(ys)):
                    kappa_c, kappa_args = parts[0], parts[1:]
                    coeff = signed.get((kappa_c, w))
                    if coeff is None:
                        coeff = signed[(kappa_c, w)] = (f * self.deriv(g, kappa_c)).scale(w * sign)
                    if coeff.is_zero():
                        continue
                    mid = tuple(_multi_add(s, k) for s, k in zip(ys, kappa_args))
                    slots = xs[:i] + mid + xs[i + 1 :]
                    out[slots] = out[slots] + coeff if slots in out else coeff
        return self._clean(out)

    def circ(self, x: DiffPayload, y: DiffPayload, p: int, q: int, sign: int) -> DiffPayload:
        """sign * (x o y), the Koszul-signed sum of the x o_i y."""
        out: DiffPayload = {}
        for i in range(p + 1):
            out = self.add(out, self.compose_at(x, y, i, -sign if i * q % 2 else sign))
        return out

    def bracket(self, x: DiffPayload, y: DiffPayload, dx: int, dy: int) -> DiffPayload:
        # [x, y] = x o y - (-1)^(dx dy) y o x
        return self.add(self.circ(x, y, dx, dy, 1), self.circ(y, x, dy, dx, 1 if dx * dy % 2 else -1))

    def d(self, x: DiffPayload, degree: int) -> DiffPayload:
        """[mu0, x] from the inner faces alone: face i splits slot alpha_i
        into (beta, alpha_i - beta), both nonzero, with weight
        binom(alpha_i, beta) and sign (-1)^(p+i+1).  The outer faces of the
        bracket, each with a zero slot, cancel on normalized cochains.  Faces
        are added in order with the bracket's add-and-clean steps, so keys
        and terms come out in the bracket's order."""
        if not self.is_normalized(x):
            raise AlgebraError("the hochschild differential needs a normalized cochain")
        out: DiffPayload = {}
        for i in range(degree + 1):
            sign = 1 if (degree + i) % 2 else -1
            face: DiffPayload = {}
            for xs, f in x.items():
                scaled = {}  # weight -> sign * weight * f
                for (beta, gamma), w in _splittings(xs[i], 2):
                    if not any(beta) or not any(gamma):
                        continue
                    coeff = scaled.get(w)
                    if coeff is None:
                        coeff = scaled[w] = f.scale(w * sign)
                    slots = xs[:i] + (beta, gamma) + xs[i + 1 :]
                    face[slots] = face[slots] + coeff if slots in face else coeff
            out = self.add(out, face)
        return out

    def _render_key(self, slots: Slots) -> str:
        return "⊗".join(f"d[{','.join(map(str, a))}]" for a in slots)

    def act_once(self, log: DGLAElement, u: DGLAElement) -> DGLAElement:
        """The 1-slot differential operator applied to a function."""
        return apply_cochain(log, [u])

    def window_keys(self, degree: int, slot_bound: int):
        """The keys of a degree-``degree`` unknown: normalized slot tuples of
        total order at most ``slot_bound`` per slot."""
        return _candidate_slots(self.nderiv, slot_bound * (degree + 1), degree + 1)

    def structure_from_mc(self, mc: MCElement, cert_degree: Optional[int]) -> "StarProduct":
        return star_from_mc(mc, cert_degree)

    def cert_degree(self, elements: Sequence[DGLAElement], requested: Optional[int]) -> int:
        return sufficient_cert_degree(elements, requested)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def hochschild_d(phi: DGLAElement) -> DGLAElement:
    if not isinstance(phi.carrier, PolydiffCarrier):
        raise AlgebraError("hochschild_d expects polydifferential cochains")
    return phi.d()


def gerstenhaber(phi: DGLAElement, psi: DGLAElement) -> DGLAElement:
    if phi.carrier != psi.carrier:
        raise AlgebraError("cochains over different chart algebras")
    return phi.bracket(psi)


def module_mul(u: DGLAElement, v: DGLAElement) -> DGLAElement:
    """Commutative product of two degree -1 elements of R (x) C."""
    car = u.carrier
    zero = car.chart.zero()
    mul = lambda xu, xv: car.from_coeff(xu.get((), zero) * xv.get((), zero))
    return DGLAElement(car, u.algebra, -1, u.algebra.extend(mul, car.add, u.parts, v.parts))


def apply_cochain(op: DGLAElement, args: Sequence[DGLAElement]) -> DGLAElement:
    """Evaluate a degree-p cochain of R (x) D_poly on p+1 elements of
    R (x) C, R-multilinearly."""
    car = op.carrier
    if len(args) != op.degree + 1:
        raise AlgebraError("argument count does not match the degree")
    zero = car.chart.zero()

    def evaluate(payload, *xs):
        val = car.evaluate(payload, [x.get((), zero) for x in xs])
        return None if val.is_zero() else car.from_coeff(val)

    parts = op.algebra.extend(evaluate, car.add, op.parts, *(a.parts for a in args))
    return DGLAElement(car, op.algebra, -1, parts)


class StarProduct(InducedStructure):
    """Associative unital product c1 * c2 := c1 c2 + beta(c1, c2), its
    ``op``; its ``bracket`` is half the commutator."""

    def product(self, u: DGLAElement, v: DGLAElement) -> DGLAElement:
        return module_mul(u, v) + apply_cochain(self.beta.element, [u, v])

    op = product

    def bracket(self, u: DGLAElement, v: DGLAElement) -> DGLAElement:
        return (self.product(u, v) - self.product(v, u)).scale(Fraction(1, 2))


def monomial_basis(carrier, algebra: ParamAlgebra, degree: int) -> list[DGLAElement]:
    return [function_element(carrier, algebra, m) for m in carrier.chart.monomials_up_to(degree)]


def monomial_triples(chart: ChartAlgebra, degree: int):
    """All monomial triples of total degree <= degree (the degree of the
    triple is the sum of the three monomial degrees)."""
    monos = chart.monomials_up_to(degree)
    degs = [m.numer.total_degree() for m in monos]
    for i, a in enumerate(monos):
        for j, b in enumerate(monos):
            if degs[i] + degs[j] > degree:
                continue
            for k, c in enumerate(monos):
                if degs[i] + degs[j] + degs[k] <= degree:
                    yield a, b, c


def _basis_function(car: PolydiffCarrier, alg: ParamAlgebra, key) -> DGLAElement:
    """The function x^e / d^powers for a key (powers, e); empty powers mean
    none."""
    powers, e = key
    mono = LocalizedPoly(car.chart, Poly.monomial(car.chart.variables, e), powers)
    return function_element(car, alg, mono)


class _LocalizedProducts(dict):
    """The oracle's product table on a chart that declares denominators:
    {(key u, key v): u * v} for basis functions x^e/d^p, keyed by (p, e),
    filled by ``StarProduct.product``.  The derivatives of x^e/d^p are not
    monomials, so there is no closed form here."""

    def __init__(self, star: StarProduct):
        super().__init__()
        self.star = star

    @staticmethod
    def key(m: LocalizedPoly):
        return (m.powers, next(iter(m.numer.terms)))

    def __missing__(self, pair):
        car, alg = self.star.carrier, self.star.algebra
        u, v = (_basis_function(car, alg, k) for k in pair)
        out = self[pair] = self.star.product(u, v)
        return out

    def expand(self, x: DGLAElement, apply: Callable) -> DGLAElement:
        # sum of q r_i apply((p, e)) over the terms q r_i x^e/d^p of x
        car, alg = x.carrier, x.algebra
        acc: dict = {}
        for i, payload in x.parts.items():
            c = payload[()]
            for e, q in c.numer.terms.items():
                for j, image in apply((c.powers, e)).parts.items():
                    k = alg.mul_index(i, j)
                    if k is None:
                        continue
                    v = image[()].scale(q)
                    acc[k] = acc[k] + v if k in acc else v
        return DGLAElement(car, alg, -1, {k: car.from_coeff(v) for k, v in acc.items()})


class _MonomialProducts(dict):
    """The oracle's product table on a chart with no denominators:
    {(a, b): x^a * x^b} for exponents a, b.  An entry is {(basis index,
    exponent): int}, scaled by ``denom``, one common denominator of beta's
    coefficients, with no zero values.  In closed form, x^a * x^b is x^(a+b)
    at index 0 plus, for each term f d^al1 (x) d^al2 of beta at index i, the
    term (a)_al1 (b)_al2 f x^(a - al1 + b - al2) at index i, where (a)_al is
    the falling factorial and slot position k differentiates the chart
    variable ``deriv_indices[k]``."""

    def __init__(self, star: StarProduct):
        super().__init__()
        car, alg = star.carrier, star.algebra
        parts = star.beta.element.parts
        coeffs = [f.numer.terms for pay in parts.values() for f in pay.values()]
        self.denom = D = math.lcm(1, *(q.denominator for t in coeffs for q in t.values()))

        def orders(alpha: Exponent) -> tuple:  # (chart variable, order) per nonzero entry
            return tuple((car.deriv_indices[pos], k) for pos, k in enumerate(alpha) if k)

        scaled = lambda f: [(e, q.numerator * (D // q.denominator)) for e, q in f.numer.terms.items()]
        self.terms = [  # (index, slot 1 orders, slot 2 orders, D * f as (exponent, int))
            (i, orders(al1), orders(al2), scaled(f))
            for i, pay in parts.items()
            for (al1, al2), f in pay.items()
        ]
        self.mul_index = alg.mul_index

    @staticmethod
    def key(m: LocalizedPoly) -> Exponent:
        return next(iter(m.numer.terms))

    def __missing__(self, pair):
        a, b = pair
        ab = [x + y for x, y in zip(a, b)]
        out = {(0, tuple(ab)): self.denom}
        for i, d1, d2, fterms in self.terms:
            w = 1
            for var, k in d1:
                w *= math.perm(a[var], k)
            for var, k in d2:
                w *= math.perm(b[var], k)
            if not w:
                continue
            base = list(ab)
            for var, k in d1 + d2:
                base[var] -= k
            for e, q in fterms:
                t = (i, tuple(x + y for x, y in zip(base, e)))
                out[t] = out.get(t, 0) + w * q
        out = self[pair] = {t: v for t, v in out.items() if v}
        return out

    def expand(self, x: dict, apply: Callable) -> dict:
        # sum of q r_i apply(e) over the terms q r_i x^e of x, zeros dropped
        mul = self.mul_index
        acc: dict = {}
        for (i, e), q in x.items():
            for (j, e2), q2 in apply(e).items():
                k = mul(i, j)
                if k is not None:
                    acc[k, e2] = acc.get((k, e2), 0) + q * q2
        return {t: v for t, v in acc.items() if v}


def associativity_oracle(star: StarProduct, degree: int) -> list:
    """Independent route: evaluate (a*b)*c - a*(b*c) on all monomial triples
    of total degree <= degree; returns the failing triples.  This is a
    cross-check of the MC route (which is the exact proof of associativity),
    evaluated purely through operator application.

    The star product of each pair of basis functions is computed once, into a
    table; each side of a triple is expanded from that table by
    R-bilinearity: (a*b)*c is the sum over the terms q r_i x^e of a*b of
    q r_i (x^e * c).  A product may leave the degree <= ``degree`` monomials,
    so the table is keyed by exponents and filled lazily.  On a polynomial
    chart the table holds x^a * x^b in closed form with integer values over
    one common denominator D (`_MonomialProducts`); both sides of a triple
    then carry the same factor D^2, so comparing them decides the triple
    exactly.  On a chart that declares denominators the basis functions are
    x^e/d^p, whose derivatives are not monomials, so the table is filled by
    ``star.product`` instead (`_LocalizedProducts`)."""
    chart = star.carrier.chart
    table = (_LocalizedProducts if chart.denominators else _MonomialProducts)(star)
    failures = []
    for a, b, c in monomial_triples(chart, degree):
        ka, kb, kc = table.key(a), table.key(b), table.key(c)
        lhs = table.expand(table[ka, kb], lambda t: table[t, kc])
        rhs = table.expand(table[kb, kc], lambda t: table[ka, t])
        if lhs != rhs:
            failures.append((a.render(), b.render(), c.render()))
    return failures


def sufficient_cert_degree(elements: Sequence[DGLAElement], requested: Optional[int]) -> int:
    """Certificate degree: the requested one, or max slot order + 2 over the
    ``elements``.  A polydifferential identity that holds on all monomials up
    to slot order plus one holds identically; the +2 margin is asserted here
    at runtime."""
    max_slot = max(
        (e.carrier.max_slot_order(p) for e in elements for p in e.parts.values()),
        default=0,
    )
    degree = requested if requested is not None else max(max_slot + 2, 2)
    if degree < max_slot + 2:
        raise AlgebraError(
            f"certificate degree {degree} too small for slot order {max_slot}"
        )
    return degree


def star_from_mc(beta: DGLAElement | MCElement, cert_degree: Optional[int] = None) -> StarProduct:
    """Build the star product of an MC cochain; MC violations are rejected
    with the lowest failing adic order.  The associativity oracle re-checks
    the result on monomial triples (dual route)."""
    mc = beta if isinstance(beta, MCElement) else require_mc(beta)
    car = mc.element.carrier
    for payload in mc.element.parts.values():
        if not car.is_normalized(payload):
            raise AlgebraError("star cochains must be normalized")
    degree = sufficient_cert_degree([mc.element], cert_degree)
    star = StarProduct(mc)
    failures = associativity_oracle(star, degree)
    if failures:
        raise AlgebraError(
            f"MC held but associativity oracle failed on {len(failures)} monomial triples "
            f"of degree <= {degree}, first ({', '.join(failures[0])}): convention bug"
        )
    return star


# a star product's gauge: the one gauge certificate of both flavours
star_gauge = gauge_structure


# ---------------------------------------------------------------------------
# HKR antisymmetrization
# ---------------------------------------------------------------------------


def hkr_payload(car_in: pv.PolyvecCarrier, car_out: PolydiffCarrier, payload) -> DiffPayload:
    out: DiffPayload = {}
    pos_of = {v: k for k, v in enumerate(car_out.deriv_indices)}
    for key, f in payload.items():
        p1 = len(key)  # p+1
        if p1 == 0:
            out[()] = out[()] + f if () in out else f
            continue
        norm = Fraction(1, math.factorial(p1))
        for sigma in itertools.permutations(range(p1)):
            sign = _perm_sign(sigma)
            slots = []
            for k in range(p1):
                e = [0] * car_out.nderiv
                e[pos_of[key[sigma[k]]]] = 1
                slots.append(tuple(e))
            slots = tuple(slots)
            coeff = f.scale(norm * sign)
            out[slots] = out[slots] + coeff if slots in out else coeff
    return {k: v for k, v in out.items() if not v.is_zero()}


def _perm_sign(sigma) -> int:
    sign = 1
    for i in range(len(sigma)):
        for j in range(i + 1, len(sigma)):
            if sigma[i] > sigma[j]:
                sign = -sign
    return sign


def hkr(gamma: DGLAElement, car_out: Optional[PolydiffCarrier] = None) -> DGLAElement:
    """Antisymmetrization T_poly -> D_poly^nor; identity in degree -1;
    lands in normalized cocycles."""
    car_in = gamma.carrier
    if not isinstance(car_in, pv.PolyvecCarrier):
        raise AlgebraError("hkr expects a polyvector argument")
    if car_out is None:
        car_out = PolydiffCarrier(car_in.chart, car_in.deriv_indices)
    return gamma.map_payload(
        lambda payload: hkr_payload(car_in, car_out, payload), carrier=car_out
    )


# ---------------------------------------------------------------------------
# solving d(v) = rhs in the normalized complex (per-coefficient blocks)
# ---------------------------------------------------------------------------


def _coeff_blocks(car: PolydiffCarrier, payload: DiffPayload):
    """Split a payload into blocks keyed by (denominator powers, numerator
    monomial); d acts blockwise because it never differentiates a
    coefficient."""
    blocks: dict = {}
    for slots, c in payload.items():
        for mono, q in c.numer.terms.items():
            key = (c.powers, mono)
            blocks.setdefault(key, {})
            blocks[key][slots] = blocks[key].get(slots, QQ(0)) + q
    return blocks


def _candidate_slots(nderiv: int, max_total: int, nslots: int):
    """All normalized slot tuples with total weight <= max_total."""
    if nderiv == 0:
        return  # no normalized slots exist over a constant chart
    singles = [
        e
        for total in range(1, max_total + 1)
        for e in _compositions(total, nderiv)
    ]
    for combo in itertools.product(singles, repeat=nslots):
        if sum(map(_multi_weight, combo)) <= max_total:
            yield tuple(combo)


def solve_d_equation(
    car: PolydiffCarrier, rhs: DiffPayload, target_degree: int
) -> Optional[DiffPayload]:
    """Find a normalized payload v of degree ``target_degree`` with
    d(v) = rhs, or None.  Exact, blockwise per coefficient monomial."""
    if not rhs:
        return {}
    blocks = _coeff_blocks(car, rhs)
    solution: DiffPayload = {}
    for (powers, mono), block in blocks.items():
        max_total = max(sum(map(_multi_weight, slots)) for slots in block)
        res = _d_factor(car, max_total, target_degree).solve(block)
        if not res.consistent:
            return None
        coeff = LocalizedPoly(car.chart, Poly.monomial(car.chart.variables, mono), powers)
        for cand, q in res.particular.items():
            add = coeff.scale(q)
            solution[cand] = solution[cand] + add if cand in solution else add
    return {k: v for k, v in solution.items() if not v.is_zero()}


@lru_cache(maxsize=32)
def _d_factor(car: PolydiffCarrier, max_total: int, target_degree: int):
    """The factored matrix of d on the normalized degree-``target_degree``
    slot tuples of total weight <= ``max_total``, with unit coefficient.
    d only splits slots and scales coefficients by integers, so
    d(coeff (x) cand) = coeff d(1 (x) cand), and this one matrix serves
    every coefficient block of that weight: its columns are the candidates,
    its rows the image slot keys."""
    cands = list(_candidate_slots(car.nderiv, max_total, target_degree + 1))
    one = car.chart.one()
    system = ExactSystem(cands)
    for cand in cands:
        for slots, c in car.d({cand: one}, target_degree).items():
            system.add(slots, cand, _extract_scalar(one, c))
    return system.factor()


def _extract_scalar(base: LocalizedPoly, value: LocalizedPoly) -> Fraction:
    """value = q * base for a rational q (d never mixes coefficient blocks)."""
    if value.is_zero():
        return QQ(0)
    _, bc = base.numer.leading()
    _, vc = value.numer.leading()
    q = Fraction(vc) / bc
    if base.scale(q) != value:
        raise AlgebraError("coefficient block mixing: solver precondition broken")
    return q


# ---------------------------------------------------------------------------
# order-by-order gauge recovery between star products
# ---------------------------------------------------------------------------


@dataclass
class NotEquivalent:
    order: int
    residue: DGLAElement

    def render(self) -> str:
        return (
            f"no gauge at adic order {self.order}; "
            f"unmatched cocycle residue: {self.residue.render()}"
        )


def solve_gauge(star: StarProduct, star2: StarProduct) -> GaugeElement | NotEquivalent:
    """Find a normalized gauge logarithm gamma with
    star_gauge(gamma, star) == star2, or report the first obstructed adic
    order with its Hochschild-level residue.

    This is descent.equiv_solve on the one-chart cover of the chart: the two
    star products are additive descent data with no edges, the chart's eta
    is the gauge, and a failure carries the last iterate's local defect."""
    if star.carrier != star2.carrier or star.algebra != star2.algebra:
        raise AlgebraError("star products over different algebras")
    # imported here: both modules build on this one
    from .cechnerve import CoverNerve
    from .descent import AddDescentDatum, ObstructionReport, equiv_solve

    chart = star.carrier.chart
    if star.carrier != PolydiffCarrier(chart):
        raise AlgebraError("solve_gauge needs cochains that differentiate every chart variable")
    nerve = CoverNerve(("U0",), {(0,): chart}, {})
    source, target = (
        AddDescentDatum(nerve, "associative", star.algebra, {(0,): s.beta.element}, {}, {})
        for s in (star, star2)
    )
    found = equiv_solve(source, target)
    if isinstance(found, ObstructionReport):
        return NotEquivalent(found.order, found.local_residues[(0,)])
    return GaugeElement(found.eta[(0,)])


# ---------------------------------------------------------------------------
# desk-scale quantization and first-order brackets
# ---------------------------------------------------------------------------


def quantize_affine_order2(structure: pv.PoissonStructure, cert_degree: int = 4) -> StarProduct:
    """Quantize a Poisson bivector over a pure polynomial chart to second
    order: HKR image plus an order-2 correction.  Constant-coefficient
    bivectors take the closed Moyal exponential; otherwise the correction is
    the solution of the order-2 associativity system (inconsistency means
    the input fails Jacobi)."""
    beta_pi = structure.beta.element
    car_in = beta_pi.carrier
    if any(p != 0 for c in beta_pi.parts.values() for v in c.values() for p in v.powers):
        raise AlgebraError("quantize_affine_order2 needs a pure polynomial chart")
    if car_in.chart.denominators:
        raise AlgebraError("quantize_affine_order2 needs a chart without denominators")
    alg = beta_pi.algebra
    lead = beta_pi.adic_order()
    if alg.order > 2 * lead:
        raise AlgebraError("parameter algebra truncated beyond order 2 relative to the input")
    car = PolydiffCarrier(car_in.chart, car_in.deriv_indices)
    if _is_constant_bivector(beta_pi):
        beta = _moyal_exponential(car, beta_pi)
        return star_from_mc(require_mc(beta), cert_degree)
    beta = hkr(beta_pi, car)
    while True:
        mc = mc_check(beta)
        if isinstance(mc, MCElement):
            break
        parts = {}
        for i, payload in mc.residue.parts.items():
            v = solve_d_equation(car, payload, 1)
            if v is None:
                raise AlgebraError(
                    f"order-{mc.order} associativity system inconsistent: "
                    "the input bivector fails Jacobi"
                )
            if v:
                parts[i] = v
        beta = beta - DGLAElement(car, alg, 1, parts)
    return star_from_mc(mc, cert_degree)


def _is_constant_bivector(beta: DGLAElement) -> bool:
    return all(
        v.is_polynomial() and v.numer.is_constant()
        for payload in beta.parts.values()
        for v in payload.values()
    )


def _moyal_exponential(car: PolydiffCarrier, beta_pi: DGLAElement) -> DGLAElement:
    """beta with c1 * c2 = m(exp(P)(c1 (x) c2)), P the HKR image of the
    constant bivector; valid only for constant coefficients."""
    alg = beta_pi.algebra
    P = {i: hkr_payload(beta_pi.carrier, car, payload) for i, payload in beta_pi.parts.items()}

    def payload_mul(pa: DiffPayload, pb: DiffPayload) -> DiffPayload:
        pay: DiffPayload = {}
        for sa, ca in pa.items():
            for sb, cb in pb.items():
                slots = tuple(_multi_add(x, y) for x, y in zip(sa, sb))
                val = ca * cb
                pay[slots] = pay[slots] + val if slots in pay else val
        return car._clean(pay)

    acc = dict(P)
    cur = dict(P)
    k = 1
    while cur:
        k += 1
        cur = alg.extend(payload_mul, car.add, cur, P)
        cur = {i: car.scale(Fraction(1, k), v) for i, v in cur.items() if v}
        for i, v in cur.items():
            acc[i] = car.add(acc.get(i, {}), v)
        acc = {i: v for i, v in acc.items() if v}
    return DGLAElement(car, alg, 1, acc)


def first_order_bracket(obj: InducedStructure) -> dict:
    """Table {(x_i, x_j) -> order-1 layer of the first order bracket} on
    generator pairs; gauge invariant by Prop-level arithmetic (tested)."""
    car = obj.carrier
    names = car.chart.variables
    out = {}
    for a, b in itertools.combinations(car.deriv_indices, 2):
        u = function_element(car, obj.algebra, car.chart.var(names[a]))
        v = function_element(car, obj.algebra, car.chart.var(names[b]))
        out[(names[a], names[b])] = obj.bracket(u, v).graded_part(1)
    return out


def first_order_tables_equal(t1: dict, t2: dict) -> bool:
    """Literal equality of bracket tables.  The layer values may live over
    different carriers (polyvec vs polydiff degree -1), so compare the bare
    coefficients per basis index."""
    if set(t1) != set(t2):
        return False
    for k in t1:
        a, b = t1[k], t2[k]
        if set(a.parts) != set(b.parts):
            return False
        for i in a.parts:
            if a.parts[i].get(()) != b.parts[i].get(()):
                return False
    return True
