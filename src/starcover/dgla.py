"""Quantum-type DG Lie algebras tensored with a truncated parameter algebra.

An element of R (x) g^p is stored as a finite map {filtered-basis index ->
carrier payload}; the carrier supplies the differential and bracket of g, and
ParamAlgebra.extend extends them R-multilinearly.  Gauge action, twisted
differential/bracket, BCH on logarithms, and L-infinity evaluation all live
here and are shared by every concrete carrier.

Sign conventions (pinned by the induced-structure equivalences, see tests):
cohomological grading, Koszul signs, and gauge_act is the conjugation-
compatible integral of the affine field beta |-> [gamma, beta] - d(gamma),
so that exp(ad(gamma)) intertwines the structures induced by beta and
gauge_act(gamma, beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, Optional, Sequence

from .exactalg import AlgebraError, ChartAlgebra, LocalizedPoly, QQ
from .params import INFINITY, ParamAlgebra, ParamSeries


class Carrier:
    """Interface of a concrete DG Lie algebra (one homogeneous payload per
    degree).  Payloads are immutable; operations are pure.  Every carrier
    keeps its payloads as dicts that store no zero entry, so the empty dict
    is zero."""

    min_degree = -1  # quantum type

    def zero(self):
        return {}

    def is_zero(self, x) -> bool:
        return not x

    def eq(self, x, y) -> bool:
        raise NotImplementedError

    def add(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        return self.scale(QQ(-1), x)

    def scale(self, c: Fraction, x):
        raise NotImplementedError

    def d(self, x, degree: int):
        raise NotImplementedError

    def bracket(self, x, y, dx: int, dy: int):
        raise NotImplementedError

    def render(self, x, degree: int) -> str:
        return repr(x)


class SparseCarrier(Carrier):
    """Payloads {key -> coefficient}: the polyvector and polydifferential
    chart carriers, whose coefficients are LocalizedPolys and whose
    ``deriv_indices`` list the chart variables they differentiate (others,
    such as simplex coordinates, are inert scalars).  A function is the
    degree -1 payload {(): c}.  Each subclass is one flavour: it carries
    the flavour's public names (``flavor``, ``kind``, ``noun``) and supplies
    what differs between the flavours: the text of one key
    (``_render_key``), the action of a degree-0 logarithm on a function
    (``act_once``), the keys of a layer unknown (``window_keys``), the
    structure of an MC element (``structure_from_mc``), the monomial degree
    of an operator comparison (``cert_degree``) and which payloads are
    normalized (``is_normalized``; every polyvector is)."""

    def __init__(self, chart: ChartAlgebra, deriv_indices: Optional[Sequence[int]] = None):
        self.chart = chart
        if deriv_indices is None:
            deriv_indices = range(len(chart.variables))
        self.deriv_indices = tuple(deriv_indices)

    def __eq__(self, other):
        # the two flavours over one chart stay unequal
        return (
            type(other) is type(self)
            and self.chart == other.chart
            and self.deriv_indices == other.deriv_indices
        )

    def __hash__(self):
        return hash((type(self).__name__, self.chart, self.deriv_indices))

    def from_coeff(self, c: LocalizedPoly):
        if c.is_zero():
            return {}
        return {(): c}

    def is_normalized(self, x) -> bool:
        return True

    def _render_key(self, key) -> str:
        raise NotImplementedError

    def act_once(self, log: "DGLAElement", u: "DGLAElement") -> "DGLAElement":
        """One application of the degree-0 logarithm ``log`` to the function
        element ``u``."""
        raise NotImplementedError

    def render(self, x, degree: int) -> str:
        if not x:
            return "0"
        chunks = []
        for key in sorted(x):
            c = x[key]
            body = self._render_key(key)
            cs = c.render()
            if not key:
                chunks.append(cs)
            elif cs == "1":
                chunks.append(body)
            elif cs == "-1":
                chunks.append(f"-{body}")
            else:
                if len(c.numer.terms) > 1:
                    cs = f"({cs})"
                chunks.append(f"{cs}*{body}")
        return " + ".join(chunks).replace("+ -", "- ")

    def eq(self, x, y) -> bool:
        return x == y

    def _clean(self, x):
        return {k: v for k, v in x.items() if not v.is_zero()}

    def add(self, x, y):
        out = dict(x)
        for k, v in y.items():
            out[k] = out[k] + v if k in out else v
        return self._clean(out)

    def scale(self, c: Fraction, x):
        return self._clean({k: v.scale(c) for k, v in x.items()})


class NestedCarrier(Carrier):
    """Payloads {key -> payload of the carrier ``inner(key)``}: the Cech
    carrier keyed by face and the Thom-Sullivan carrier keyed by (level,
    dt-set).  An absent key stands for zero."""

    def inner(self, key) -> Carrier:
        raise NotImplementedError

    def eq(self, x, y) -> bool:
        for k in set(x) | set(y):
            car = self.inner(k)
            if not car.eq(x.get(k, {}), y.get(k, {})):
                return False
        return True

    def _clean(self, x):
        return {k: v for k, v in x.items() if not self.inner(k).is_zero(v)}

    def add(self, x, y):
        out = dict(x)
        for k, v in y.items():
            out[k] = self.inner(k).add(out[k], v) if k in out else v
        return self._clean(out)

    def scale(self, c: Fraction, x):
        return self._clean({k: self.inner(k).scale(c, v) for k, v in x.items()})


class DGLAElement:
    """Homogeneous element of R (x) g^degree (adic order >= 1 puts it in
    m (x) g^degree)."""

    __slots__ = ("carrier", "algebra", "degree", "parts")

    def __init__(self, carrier: Carrier, algebra: ParamAlgebra, degree: int, parts: Mapping):
        if degree < carrier.min_degree:
            raise AlgebraError(f"degree {degree} below quantum-type bound")
        self.carrier = carrier
        self.algebra = algebra
        self.degree = degree
        self.parts = {i: x for i, x in parts.items() if not carrier.is_zero(x)}

    @staticmethod
    def zero(carrier: Carrier, algebra: ParamAlgebra, degree: int) -> "DGLAElement":
        return DGLAElement(carrier, algebra, degree, {})

    @staticmethod
    def single(carrier, algebra, degree, basis_index, payload) -> "DGLAElement":
        return DGLAElement(carrier, algebra, degree, {basis_index: payload})

    def _check(self, other: "DGLAElement", same_degree=True) -> None:
        if self.carrier != other.carrier:
            raise AlgebraError("elements over different carriers")
        if self.algebra != other.algebra:
            raise AlgebraError("elements over different parameter algebras")
        if same_degree and self.degree != other.degree:
            raise AlgebraError("degree mismatch")

    def is_zero(self) -> bool:
        return not self.parts

    def __add__(self, other: "DGLAElement") -> "DGLAElement":
        self._check(other)
        parts = dict(self.parts)
        car = self.carrier
        for i, x in other.parts.items():
            parts[i] = car.add(parts[i], x) if i in parts else x
        return DGLAElement(car, self.algebra, self.degree, parts)

    def __neg__(self) -> "DGLAElement":
        car = self.carrier
        return DGLAElement(
            car, self.algebra, self.degree, {i: car.neg(x) for i, x in self.parts.items()}
        )

    def __sub__(self, other: "DGLAElement") -> "DGLAElement":
        return self + (-other)

    def scale(self, c) -> "DGLAElement":
        c = Fraction(c)
        car = self.carrier
        return DGLAElement(
            car, self.algebra, self.degree, {i: car.scale(c, x) for i, x in self.parts.items()}
        )

    def scale_series(self, r: ParamSeries) -> "DGLAElement":
        if r.algebra != self.algebra:
            raise AlgebraError("series over a different parameter algebra")
        car = self.carrier
        parts = self.algebra.extend(car.scale, car.add, r.coeffs, self.parts)
        return DGLAElement(car, self.algebra, self.degree, parts)

    def d(self) -> "DGLAElement":
        car = self.carrier
        return DGLAElement(
            car,
            self.algebra,
            self.degree + 1,
            {i: car.d(x, self.degree) for i, x in self.parts.items()},
        )

    def bracket(self, other: "DGLAElement") -> "DGLAElement":
        self._check(other, same_degree=False)
        car = self.carrier
        dx, dy = self.degree, other.degree
        parts = self.algebra.extend(
            lambda x, y: car.bracket(x, y, dx, dy), car.add, self.parts, other.parts
        )
        return DGLAElement(car, self.algebra, dx + dy, parts)

    def adic_order(self):
        if not self.parts:
            return INFINITY
        return min(self.algebra.basis_order(i) for i in self.parts)

    def graded_part(self, order: int) -> "DGLAElement":
        return DGLAElement(
            self.carrier,
            self.algebra,
            self.degree,
            {i: x for i, x in self.parts.items() if self.algebra.basis_order(i) == order},
        )

    def map_payload(self, fn, carrier: Optional[Carrier] = None) -> "DGLAElement":
        """Apply a linear payload map componentwise (used for restriction
        transports and carrier changes)."""
        car = carrier if carrier is not None else self.carrier
        parts = {i: fn(x) for i, x in self.parts.items()}
        return DGLAElement(car, self.algebra, self.degree, parts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DGLAElement):
            return NotImplemented
        if (
            self.carrier != other.carrier
            or self.algebra != other.algebra
            or self.degree != other.degree
        ):
            return False
        keys = set(self.parts) | set(other.parts)
        car = self.carrier
        for i in keys:
            if i not in self.parts or i not in other.parts:
                return False
            if not car.eq(self.parts[i], other.parts[i]):
                return False
        return True

    def __hash__(self):
        raise TypeError("DGLAElement is unhashable")

    def render(self) -> str:
        if not self.parts:
            return "0"
        alg = self.algebra
        chunks = []
        for i in sorted(self.parts):
            mono = alg.render_basis_monomial(i)
            body = self.carrier.render(self.parts[i], self.degree)
            if mono == "1":
                chunks.append(body)
            elif " + " in body or " - " in body or body.startswith("-"):
                chunks.append(f"{mono} * ({body})")
            else:
                chunks.append(f"{mono} * {body}")
        return " + ".join(chunks)

    def __repr__(self):
        return f"DGLAElement(deg={self.degree}, {self.render()!r})"


def function_element(
    carrier: SparseCarrier, algebra: ParamAlgebra, value: LocalizedPoly, basis_index: int = 0
) -> DGLAElement:
    """Wrap a chart function as the degree -1 element r_i (x) value."""
    return DGLAElement.single(carrier, algebra, -1, basis_index, carrier.from_coeff(value))


@dataclass(frozen=True)
class MCElement:
    """Degree-1 element with adic order >= 1 satisfying d(b) + 1/2 [b,b] = 0."""

    element: DGLAElement


@dataclass(frozen=True)
class GaugeElement:
    """Logarithm of a gauge-group element: degree 0, adic order >= 1."""

    log: DGLAElement


@dataclass(frozen=True)
class MCViolation:
    order: int
    residue: DGLAElement

    def render(self) -> str:
        return f"MC violated at adic order {self.order}: {self.residue.render()}"


@dataclass
class IntertwinerCertificate:
    """Whether exp(ad(gamma)) intertwined two induced structures on every
    monomial pair up to ``degree``, the failing pairs, and whether it fixes
    the unit."""

    holds: bool
    degree: int
    failures: list
    fixes_unit: bool


@dataclass(frozen=True)
class InducedStructure:
    """The structure an MC element beta induces on the functions of its
    chart.  Each flavour supplies ``op``, the operation the gauge
    certificate compares (the Poisson bracket, or the star product), and
    ``bracket`` (the Poisson bracket, or half the star commutator)."""

    beta: MCElement

    @property
    def carrier(self) -> SparseCarrier:
        return self.beta.element.carrier

    @property
    def algebra(self) -> ParamAlgebra:
        return self.beta.element.algebra

    def op(self, u: DGLAElement, v: DGLAElement) -> DGLAElement:
        raise NotImplementedError

    def bracket(self, u: DGLAElement, v: DGLAElement) -> DGLAElement:
        raise NotImplementedError


class MCCheckError(AlgebraError):
    def __init__(self, violation: MCViolation):
        super().__init__(violation.render())
        self.violation = violation


def mc_residue(beta: DGLAElement) -> DGLAElement:
    return beta.d() + beta.bracket(beta).scale(Fraction(1, 2))


def mc_check(beta: DGLAElement) -> MCElement | MCViolation:
    """Exact Maurer-Cartan verification; a violation carries the lowest adic
    order at which the residue is nonzero, plus that graded residue."""
    if beta.degree != 1:
        raise AlgebraError("MC candidates must have degree 1")
    if beta.adic_order() < 1:
        raise AlgebraError("MC candidates must have adic order >= 1")
    res = mc_residue(beta)
    if res.is_zero():
        return MCElement(beta)
    order = res.adic_order()
    return MCViolation(int(order), res.graded_part(int(order)))


def require_mc(beta: DGLAElement) -> MCElement:
    out = mc_check(beta)
    if isinstance(out, MCViolation):
        raise MCCheckError(out)
    return out


def gauge_act(gamma: DGLAElement | GaugeElement, beta: DGLAElement) -> DGLAElement:
    """Action of exp(gamma) on degree-1 elements:

        exp(ad gamma)(beta) - sum_{k>=0} ad(gamma)^k / (k+1)!  (d gamma)

    i.e. the time-1 flow of beta' = [gamma, beta] - d(gamma).  Maps MC
    elements to MC elements; exp(ad gamma) intertwines induced structures.
    """
    if isinstance(gamma, GaugeElement):
        gamma = gamma.log
    if gamma.degree != 0:
        raise AlgebraError("gauge logarithms have degree 0")
    if gamma.adic_order() < 1:
        raise AlgebraError("gauge logarithms have adic order >= 1")
    acc = ad_exp(gamma, beta)
    # term at the top of the loop is ad(gamma)^k (d gamma) / k!
    term = gamma.d()
    k = 0
    while not term.is_zero():
        acc = acc - term.scale(Fraction(1, k + 1))
        k += 1
        term = gamma.bracket(term).scale(Fraction(1, k))
    return acc


def twisted_d(beta: MCElement | DGLAElement, x: DGLAElement) -> DGLAElement:
    """d_beta := d + ad(beta)."""
    b = beta.element if isinstance(beta, MCElement) else beta
    return x.d() + b.bracket(x)


def twisted_bracket(beta: MCElement | DGLAElement, a1: DGLAElement, a2: DGLAElement) -> DGLAElement:
    """[a1, a2]_beta := [d_beta(a1), a2] on degree -1."""
    if a1.degree != -1 or a2.degree != -1:
        raise AlgebraError("twisted bracket takes degree -1 arguments")
    return twisted_d(beta, a1).bracket(a2)


def ad_exp(gamma: DGLAElement, x: DGLAElement) -> DGLAElement:
    """exp(ad(gamma))(x) for a degree-0 gamma of adic order >= 1."""
    if gamma.degree != 0:
        raise AlgebraError("ad-exponentials need a degree-0 logarithm")
    return exp_series(gamma.bracket, x)


def exp_series(apply_once: Callable[[DGLAElement], DGLAElement], x: DGLAElement) -> DGLAElement:
    """exp of a pronilpotent linear operator, evaluated on x."""
    acc = DGLAElement.zero(x.carrier, x.algebra, x.degree)
    term = x
    k = 0
    while not term.is_zero():
        acc = acc + term
        k += 1
        term = apply_once(term).scale(Fraction(1, k))
    return acc


def gauge_operator(log: DGLAElement) -> Callable[[DGLAElement], DGLAElement]:
    """exp of a degree-0 logarithm acting on function elements: the vector
    field's flow on polyvectors, the differential operator's exponential on
    cochains (the chart carrier's ``act_once``)."""
    act = log.carrier.act_once
    return lambda u: exp_series(lambda t: act(log, t), u)


def gauge_structure(
    gamma: DGLAElement | GaugeElement, structure: InducedStructure, cert_degree: Optional[int] = None
) -> tuple[InducedStructure, IntertwinerCertificate]:
    """Gauge an induced structure and certify exp(ad(gamma))(a op b) =
    exp(ad(gamma))(a) op' exp(ad(gamma))(b) on every ordered pair of
    monomials up to the carrier's certificate degree, plus unitality."""
    log = gamma.log if isinstance(gamma, GaugeElement) else gamma
    car, alg = structure.carrier, structure.algebra
    if not all(car.is_normalized(payload) for payload in log.parts.values()):
        raise AlgebraError("gauge logarithms must be normalized")
    out = type(structure)(require_mc(gauge_act(log, structure.beta.element)))
    op = gauge_operator(log)
    degree = car.cert_degree([structure.beta.element + out.beta.element + log.d()], cert_degree)
    monos = car.chart.monomials_up_to(degree)
    funcs = [(m, function_element(car, alg, m), m.numer.total_degree()) for m in monos]
    failures = [
        (am.render(), bm.render())
        for am, a, da in funcs
        for bm, b, db in funcs
        if da + db <= degree and op(structure.op(a, b)) != out.op(op(a), op(b))
    ]
    one = function_element(car, alg, car.chart.one())
    return out, IntertwinerCertificate(not failures, degree, failures, op(one) == one)


# ---------------------------------------------------------------------------
# Baker-Campbell-Hausdorff via free-algebra logarithm + Dynkin projection.
# bch evaluates the Dynkin words folded by antisymmetry, one bracket per
# surviving word; its slot derivatives are one Bernoulli chain in ad_y.
# ---------------------------------------------------------------------------


def _word_mul(a: dict, b: dict, max_len: int) -> dict:
    out: dict = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = w1 + w2
            if len(w) > max_len:
                continue
            out[w] = out.get(w, QQ(0)) + c1 * c2
    return out


@lru_cache(maxsize=None)
def bch_word_coefficients(max_len: int) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """Coefficients c_w of log(exp X exp Y) in the free associative algebra,
    on words over {0: X, 1: Y} of length <= max_len."""
    u: dict = {}
    for p in range(max_len + 1):
        for q in range(max_len + 1 - p):
            if p + q == 0:
                continue
            w = (0,) * p + (1,) * q
            u[w] = Fraction(1, math.factorial(p) * math.factorial(q))
    result: dict = {}
    cur = {(): QQ(1)}
    for k in range(1, max_len + 1):
        cur = _word_mul(cur, u, max_len)
        sign = Fraction((-1) ** (k + 1), k)
        for w, c in cur.items():
            if w:
                result[w] = result.get(w, QQ(0)) + sign * c
    items = tuple(sorted((w, c) for w, c in result.items() if c != 0))
    return items


@lru_cache(maxsize=None)
def bch_dynkin_words(max_len: int) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """The Dynkin form of log(exp X exp Y): words w with coefficients d_w
    such that the sum of d_w times the left-nested bracket
    [..[[w_1, w_2], w_3].., w_n] is the BCH series up to length max_len.

    d_w is c_w / |w| (Dynkin-Specht-Wever), folded by antisymmetry:
    a word that starts with two equal letters brackets to 0 and is dropped,
    and [[Y, X], ..] = -[[X, Y], ..] moves a word (1, 0, ..) onto (0, 1, ..)
    with its coefficient negated.  Words whose merged coefficient is 0 are
    dropped; every surviving word of length >= 2 starts with (0, 1)."""
    folded: dict = {}
    for w, c in bch_word_coefficients(max_len):
        c = Fraction(c, len(w))
        if len(w) >= 2:
            if w[0] == w[1]:
                continue
            if w[0] == 1:
                w, c = (0, 1) + w[2:], -c
        folded[w] = folded.get(w, QQ(0)) + c
    return tuple(sorted((w, c) for w, c in folded.items() if c != 0))


@lru_cache(maxsize=None)
def bernoulli_ratios(n_max: int) -> tuple[Fraction, ...]:
    """B_n / n! for n = 0..n_max with B_1 = -1/2: the Taylor coefficients of
    x / (e^x - 1), from sum_{k<=n} (B_k / k!) / (n - k + 1)! = [n = 0]."""
    out = [QQ(1)]
    for n in range(1, n_max + 1):
        out.append(-sum(b / math.factorial(n - k + 1) for k, b in enumerate(out)))
    return tuple(out)


def bch_generic(x, y, bracket: Callable, add: Callable, scale: Callable, zero, max_len: int):
    """log(exp x exp y) for elements of adic order >= 1 in a Lie algebra
    truncated so that all brackets of weight > max_len vanish.

    Sums d_w times the left-nested bracket of each folded Dynkin word of
    ``bch_dynkin_words``.  A word's bracket is its prefix's bracketed with
    the last letter, memoized per call; a prefix is computed even when its
    own coefficient is 0, and a zero prefix makes its extensions zero with
    no bracket."""
    letters = (x, y)
    nested = {(0,): x, (1,): y}

    def left_nested(w):
        if w not in nested:
            prefix = left_nested(w[:-1])
            nested[w] = prefix if prefix.is_zero() else bracket(prefix, letters[w[-1]])
        return nested[w]

    acc = zero
    for w, c in bch_dynkin_words(max_len):
        term = left_nested(w)
        if not term.is_zero():
            acc = add(acc, scale(c, term))
    return acc


def bch(x: DGLAElement, y: DGLAElement, beta: Optional[MCElement | DGLAElement] = None) -> DGLAElement:
    """BCH on gauge logarithms.  Degree 0 uses the carrier bracket; degree -1
    uses the twisted bracket [.,.]_beta (beta required)."""
    x._check(y)
    if x.degree == 0:
        br = lambda a, b: a.bracket(b)
    elif x.degree == -1:
        if beta is None:
            raise AlgebraError("degree -1 BCH needs the twisting MC element")
        br = lambda a, b: twisted_bracket(beta, a, b)
    else:
        raise AlgebraError("BCH is defined on degree 0 or twisted degree -1")
    if x.adic_order() < 1 or y.adic_order() < 1:
        raise AlgebraError("BCH arguments must have adic order >= 1")
    zero = DGLAElement.zero(x.carrier, x.algebra, x.degree)
    return bch_generic(
        x,
        y,
        bracket=br,
        add=lambda a, b: a + b,
        scale=lambda c, a: a.scale(c),
        zero=zero,
        max_len=x.algebra.order,
    )


def bch_many(elements: Sequence[DGLAElement], beta=None) -> DGLAElement:
    """log of the left-to-right product exp(e_0) exp(e_1) ... exp(e_k)."""
    if not elements:
        raise AlgebraError("empty BCH product")
    acc = elements[0]
    for e in elements[1:]:
        acc = bch(acc, e, beta=beta)
    return acc


def _bch_directional(v: DGLAElement, y: DGLAElement, letter: int, beta) -> DGLAElement:
    """Exact derivative of bch in one slot at 0, as one bracket chain:

        letter 0:  d/dt bch(t v, y) at t = 0  =  sum_n  B_n / n!  ad_y^n (v)
        letter 1:  d/dt bch(y, t v) at t = 0  =  sum_n (-1)^n B_n / n!  ad_y^n (v)

    with B_1 = -1/2 and ad_y = [y, -] (the twisted bracket [d_beta y, -] in
    degree -1).  The chain stops at n = order - 1, where bch's words stop,
    or at the first zero term."""
    v._check(y)
    if v.degree == 0:
        ad_y = y.bracket
    elif v.degree == -1:
        if beta is None:
            raise AlgebraError("degree -1 BCH derivative needs the MC twist")
        ad_y = twisted_d(beta, y).bracket
    else:
        raise AlgebraError("BCH derivative on degree 0 or twisted degree -1")
    acc = term = v
    for n, b in enumerate(bernoulli_ratios(v.algebra.order - 1)[1:], start=1):
        term = ad_y(term)
        if term.is_zero():
            break
        if b:
            acc = acc + term.scale(-b if letter and n % 2 else b)
    return acc


def bch_dleft(v: DGLAElement, y: DGLAElement, beta=None) -> DGLAElement:
    """Linear-in-v part of bch(v, y) (v infinitesimal, y fixed)."""
    return _bch_directional(v, y, 0, beta)


def bch_dright(v: DGLAElement, y: DGLAElement, beta=None) -> DGLAElement:
    """Linear-in-v part of bch(y, v) (v infinitesimal, y fixed)."""
    return _bch_directional(v, y, 1, beta)


# ---------------------------------------------------------------------------
# L-infinity evaluation
# ---------------------------------------------------------------------------


@dataclass
class LInftyMorphism:
    """Finite list of multilinear components Psi_1..Psi_M; Psi_i takes i
    arguments (DGLAElements over the source) and returns a target element.
    Components are graded symmetric in the shifted grading (degree minus
    one); symmetry is spot-checked on samples, not enforced."""

    components: Sequence[Callable[..., DGLAElement]]

    def symmetry_defect(self, i: int, args: Sequence[DGLAElement]) -> DGLAElement:
        """Psi_i(..., a, b, ...) minus the shifted-Koszul transposition of an
        adjacent pair; zero for a symmetric component."""
        if i < 2 or i > len(self.components):
            raise AlgebraError("symmetry checks need a component of arity >= 2")
        comp = self.components[i - 1]
        base = comp(*args)
        for k in range(i - 1):
            swapped = list(args)
            swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
            sign = (-1) ** ((args[k].degree - 1) * (args[k + 1].degree - 1))
            defect = base - comp(*swapped).scale(sign)
            if not defect.is_zero():
                return defect
        return base - base


def linfty_apply(psi: LInftyMorphism, beta: MCElement) -> MCElement:
    """MC(Psi)(beta) = sum_{i>=1} (1/i!) Psi_i(beta, ..., beta); the result
    is checked to satisfy MC in the target (error otherwise)."""
    b = beta.element
    order = b.adic_order()
    out: Optional[DGLAElement] = None
    for i, comp in enumerate(psi.components, start=1):
        if order * i > b.algebra.order:
            break
        term = comp(*([b] * i)).scale(Fraction(1, math.factorial(i)))
        out = term if out is None else out + term
    if out is None:
        raise AlgebraError("empty L-infinity evaluation")
    return require_mc(out)
