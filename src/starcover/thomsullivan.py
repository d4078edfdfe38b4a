"""Thom-Sullivan normalization of the ordered Cech cosimplicial DG Lie
algebra: polynomial-form-valued cochains over the nerve, their total DG Lie
structure, compatibility validation, simplex integration of components, and
the Whitney map used to manufacture compatible elements.

A total-degree-k element stores, for every level l <= max level and every
dt-subset S of {1..l}, a Cech payload of internal degree k - |S| over the
t-extended face charts.  Degenerate-face components are never stored; they
are forced by the codegeneracies, and the coface conditions between stored
levels imply every condition that involves them (see
validate_compatibility).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .exactalg import AlgebraError, ChartAlgebra, LocalizedPoly, Poly, QQ
from .dgla import DGLAElement, NestedCarrier, SparseCarrier
from .params import ParamAlgebra
from .cechnerve import (
    CechCarrier,
    CoverNerve,
    _lift_localized,
    push_payload,
    transport_payload,
)
from .simplex import SimplexForm, coface, dirichlet_integral, face_map_images, wedge_sets

TSKey = tuple[int, frozenset]  # (level, dt-subset)


class TSError(AlgebraError):
    pass


class TSCarrier(NestedCarrier):
    """The Thom-Sullivan total complex as a single quantum-type DG Lie
    algebra; payloads are {(level, dt-subset) -> Cech payload}."""

    def __init__(self, nerve: CoverNerve, kind: str):
        self.nerve = nerve
        self.kind = kind
        self.levels = nerve.max_level()
        self._cech: dict[int, CechCarrier] = {
            l: CechCarrier(nerve, kind, l, tdim=l) for l in range(self.levels + 1)
        }

    def __eq__(self, other):
        return (
            isinstance(other, TSCarrier)
            and self.nerve == other.nerve
            and self.kind == other.kind
        )

    def __hash__(self):
        return hash(("ts", self.nerve, self.kind))

    def inner(self, key: TSKey) -> CechCarrier:
        return self._cech[key[0]]

    # -- differential and bracket ---------------------------------------------

    @staticmethod
    def _t_derivative(car: CechCarrier, payload, j: int):
        """d/dt_j on the coefficients of a Cech payload over t-extended charts."""
        out = {}
        for face, data in payload.items():
            fcar = car.inner(face)
            tindex = len(fcar.deriv_indices) + j - 1
            new = fcar._clean({k: c.derivative(tindex) for k, c in data.items()})
            if new:
                out[face] = new
        return out

    def d(self, x, degree: int):
        out: dict = {}
        for (l, S), comp in x.items():
            car = self._cech[l]
            # de Rham part: dt_j ^ (d/dt_j)
            for j in range(1, l + 1):
                if j in S:
                    continue
                der = self._t_derivative(car, comp, j)
                if not der:
                    continue
                S2, sign = wedge_sets(frozenset([j]), S)
                val = car.scale(QQ(sign), der)
                key = (l, S2)
                out[key] = car.add(out[key], val) if key in out else val
            # internal part with the Koszul sign of passing d across dt_S
            internal = car.d(comp, degree - len(S))
            if internal:
                val = car.scale(QQ((-1) ** len(S)), internal)
                key = (l, S)
                out[key] = car.add(out[key], val) if key in out else val
        return self._clean(out)

    def bracket(self, x, y, dx: int, dy: int):
        out: dict = {}
        for (l1, S1), c1 in x.items():
            i1 = dx - len(S1)
            car = self._cech[l1]
            for (l2, S2), c2 in y.items():
                if l1 != l2 or (S1 & S2):
                    continue
                br = car.bracket(c1, c2, i1, dy - len(S2))
                if car.is_zero(br):
                    continue
                S, sign = wedge_sets(S1, S2)
                val = car.scale(QQ(sign * (-1) ** (i1 * len(S2))), br)
                key = (l1, S)
                out[key] = car.add(out[key], val) if key in out else val
        return self._clean(out)

    def render(self, x, degree: int) -> str:
        if not x:
            return "0"
        chunks = []
        for (l, S) in sorted(x, key=lambda k: (k[0], sorted(k[1]))):
            dt = "^".join(f"dt{i}" for i in sorted(S)) or "1"
            body = self._cech[l].render(x[(l, S)], degree - len(S))
            chunks.append(f"(level {l}, {dt}) {body}")
        return " | ".join(chunks)


@dataclass
class TSHandle:
    """ts_normalize output: the TS DG Lie algebra of a nerve with validity
    checking; elements are ordinary DGLAElements over the TSCarrier."""

    nerve: CoverNerve
    kind: str
    algebra: ParamAlgebra

    def __post_init__(self):
        self.carrier = TSCarrier(self.nerve, self.kind)

    def zero(self, degree: int) -> DGLAElement:
        return DGLAElement.zero(self.carrier, self.algebra, degree)

    def validate(self, element: DGLAElement) -> None:
        validate_compatibility(element)


def ts_normalize(nerve: CoverNerve, kind: str, algebra: ParamAlgebra) -> TSHandle:
    return TSHandle(nerve, kind, algebra)


# ---------------------------------------------------------------------------
# compatibility validation
# ---------------------------------------------------------------------------


def _t_scalar(fcar: SparseCarrier, tpoly: Poly) -> LocalizedPoly:
    """A polynomial in t_1..t_l as a scalar of the face carrier's t-extended
    chart, whose first variables are the chart's own."""
    chart = fcar.chart
    shift = (0,) * len(fcar.deriv_indices)
    terms = {shift + e: c for e, c in tpoly.terms.items()}
    return LocalizedPoly(chart, Poly(chart.variables, terms))


def _pullback_component(fcar: SparseCarrier, payload, S: frozenset, alpha, p: int, q: int):
    """(Omega(alpha) (x) 1) on one face: pull payload * dt_S, a form on
    Delta^q, back along alpha: [p] -> [q] to forms on Delta^p.  fcar is the
    face carrier over the (x + t_1..t_p) chart; the result is {S_src ->
    payload}."""
    t_images = face_map_images(alpha, p, q)
    chart = fcar.chart
    nx = len(fcar.deriv_indices)
    images = [chart.var(v) for v in chart.variables[:nx]]
    images += [_t_scalar(fcar, f) for f in t_images]
    base = fcar._clean({key: c.substitute(chart, images) for key, c in payload.items()})
    if not base:
        return {}
    # dt_j pulls back to d(t_images[j - 1]), whose coefficients are constants
    wedges = {frozenset(): QQ(1)}
    for j in sorted(S):
        dt = [(i, t_images[j - 1].derivative(i - 1).constant_value()) for i in range(1, p + 1)]
        nxt: dict = {}
        for used, coeff in wedges.items():
            for i, c in dt:
                if c == 0 or i in used:
                    continue
                key, sign = wedge_sets(used, frozenset([i]))
                nxt[key] = nxt.get(key, 0) + coeff * c * sign
        wedges = nxt
    return {key: fcar.scale(c, base) for key, c in wedges.items() if c}


def validate_compatibility(element: DGLAElement) -> None:
    """Check (1 (x) g(alpha))(u_p) = (Omega(alpha) (x) 1)(u_q) for the coface
    generators delta_i: [q-1] -> [q] between stored levels, that is
    delta_i^* u_q(tau) = transport(u_{q-1}(tau o delta_i)) at every present
    q-face tau, q <= top level.  Raises TSError naming the offending alpha.

    This is the whole end condition.  g and Omega are functors, so the
    condition for a composite follows from those for its factors, and every
    order-preserving map is cofaces after codegeneracies (May, Simplicial
    Objects in Algebraic Topology, 1967, section 1).  A weakly increasing
    tuple w with support tau (a present k-face) and collapse sigma: [q] -> [k]
    carries the forced value u(w) = sigma^* u_k(tau); the codegeneracy
    conditions hold by this definition, since the collapse of w o s is
    sigma o s.  What remains are the coface conditions at degenerate w, at
    every level up to and above the top, for v = w o delta_i:
    - sigma o delta_i is onto [k]: v has support tau and collapse
      sigma o delta_i, so u(v) = delta_i^* sigma^* u_k(tau) = delta_i^* u(w),
      both sides the same pullback, with no transport;
    - otherwise j = sigma(i) has no other preimage, and the simplicial
      identity sigma o delta_i = delta_j o sigma_v holds with sigma_v the
      collapse of v onto its support tau o delta_j.  The condition reads
      transport(sigma_v^* u_{k-1}(tau o delta_j)) = sigma_v^* delta_j^* u_k(tau).
      Transport acts on the chart variables and their derivations, and
      pullback on the t-variables and dt's, so the two commute; the
      condition is sigma_v^* of the coface condition at (tau, j), which
      k <= top level puts among the ones checked here.
    Components on degenerate simplices therefore need no check of their
    own."""
    car = element.carrier
    if not isinstance(car, TSCarrier):
        raise TSError("compatibility validation expects a TS element")
    for q in range(1, car.levels + 1):
        for i in range(q + 1):
            _check_alpha(element, coface(i, q), q - 1, q)


def _check_alpha(element: DGLAElement, alpha, p: int, q: int) -> None:
    car: TSCarrier = element.carrier
    nerve = car.nerve
    # both sides are level-q Cech payloads of forms on Delta^p, per dt-set
    target = CechCarrier(nerve, car.kind, q, tdim=p)
    for payload in element.parts.values():
        lhs: dict[frozenset, dict] = {}
        for (l, S), comp in payload.items():
            if l == p:
                pushed = push_payload(nerve, car.kind, alpha, q, comp, tdim=p)
                if pushed:
                    lhs[S] = pushed
        rhs: dict[frozenset, dict] = {}
        for (l, S), comp in payload.items():
            if l != q:
                continue
            for face, data in comp.items():
                fcar = target.inner(face)
                for S_src, pdata in _pullback_component(fcar, data, S, alpha, p, q).items():
                    tgt = rhs.setdefault(S_src, {})
                    tgt[face] = fcar.add(tgt[face], pdata) if face in tgt else pdata
        for S in set(lhs) | set(rhs):
            a = lhs.get(S, {})
            b = rhs.get(S, {})
            for face in set(a) | set(b):
                if not target.inner(face).eq(a.get(face, {}), b.get(face, {})):
                    raise TSError(
                        f"compatibility fails for alpha={alpha} at face "
                        f"{nerve.label(face)}, dt-set {sorted(S)}"
                    )


# ---------------------------------------------------------------------------
# Whitney map and integration
# ---------------------------------------------------------------------------


def whitney(handle: TSHandle, q: int, cochain: DGLAElement) -> DGLAElement:
    """Whitney embedding of an ordered Cech q-cochain (an element over
    CechCarrier(level=q, tdim=0)) into the Thom-Sullivan complex.

    Internal degree i becomes total degree q + i; the result is always
    compatible."""
    car = handle.carrier
    nerve = handle.nerve
    src_car = cochain.carrier
    if not isinstance(src_car, CechCarrier) or src_car.level != q or src_car.tdim != 0:
        raise TSError("whitney input must be a plain level-q Cech element")
    out_parts: dict = {}
    for bi, comp in cochain.parts.items():
        ts_payload: dict = {}
        for l in range(q, car.levels + 1):
            forms = {
                subset: _whitney_form(l, subset)
                for subset in itertools.combinations(range(l + 1), q + 1)
            }
            for tau in nerve.level_faces(l):
                alg = nerve.algebra(tau)
                fcar = car._cech[l].inner(tau)
                for subset, form in forms.items():
                    sub_face = tuple(tau[j] for j in subset)
                    val = comp.get(sub_face)
                    if val is None:
                        continue
                    moved = transport_payload(nerve, handle.kind, sub_face, tau, val)
                    moved = {k: _lift_localized(v, alg, fcar.chart) for k, v in moved.items()}
                    for S, tpoly in form.parts.items():
                        factor = _t_scalar(fcar, tpoly)
                        piece = fcar._clean({k: v * factor for k, v in moved.items()})
                        if not piece:
                            continue
                        tgt = ts_payload.setdefault((l, frozenset(S)), {})
                        tgt[tau] = fcar.add(tgt[tau], piece) if tau in tgt else piece
        out_parts[bi] = car._clean({k: car.inner(k)._clean(d) for k, d in ts_payload.items()})
    return DGLAElement(car, handle.algebra, cochain.degree + q, out_parts)


def _whitney_form(l: int, subset: Sequence[int]) -> SimplexForm:
    """q! sum_r (-1)^r t_{j_r} dt_{j_0} ^ ... ^ (omit r) ... ^ dt_{j_q}."""
    q = len(subset) - 1
    out = SimplexForm.zero(l)
    for r in range(q + 1):
        piece = SimplexForm.coordinate(l, subset[r])
        for s in range(q + 1):
            if s == r:
                continue
            piece = piece.wedge(SimplexForm.dt(l, subset[s]))
        out = out + piece.scale(QQ((-1) ** r))
    return out.scale(math.factorial(q))


def integrate_component(handle: TSHandle, element: DGLAElement, level: int) -> DGLAElement:
    """int_{Delta^level} of the (level, top dt-set) component: a plain Cech
    element at that level (the square-zero integral formula).  Delta^0 is a
    point, so at level 0 this is the (level 0, empty dt-set) component."""
    nerve = handle.nerve
    S_top = frozenset(range(1, level + 1))
    out_car = CechCarrier(nerve, handle.kind, level, tdim=0)
    parts = {}
    for bi, payload in element.parts.items():
        faces = {}
        for face, data in payload.get((level, S_top), {}).items():
            alg = nerve.algebra(face)
            integrals = {key: _integrate_t(c, alg, level) for key, c in data.items()}
            faces[face] = out_car.inner(face)._clean(integrals)
        parts[bi] = out_car._clean(faces)
    return DGLAElement(out_car, handle.algebra, element.degree - level, parts)


def _integrate_t(c: LocalizedPoly, alg: ChartAlgebra, level: int) -> LocalizedPoly:
    """Integrate the t-part of a coefficient over Delta^level."""
    nx = len(alg.variables)
    terms: dict = {}
    for e, coeff in c.numer.terms.items():
        xpart = e[:nx]
        tpart = e[nx:]
        w = coeff * dirichlet_integral(tpart, level)
        if w == 0:
            continue
        terms[xpart] = terms.get(xpart, QQ(0)) + w
    num = Poly(alg.variables, terms)
    return LocalizedPoly(alg, num, c.powers)

